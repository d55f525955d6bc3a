#!/usr/bin/env python3
"""Inspect a calm durable record file (src/base/durable.h).

    wal_dump.py FILE [FILE ...] [--records] [--strict] [--quiet]

Parses the on-disk format of both persistent artifacts — sweep checkpoint
WALs (calm.sweepwal) and classified fuzz corpora (calm.corpus) — verifies
the header and per-record CRC32C checksums, and reports a torn tail the way
LogWriter::Open's replay would repair it. With --records each record
payload is decoded per the file's client tag.

Exit code 0 when every file has a valid header (a torn tail alone is a
crash artifact, not corruption); --strict additionally fails on torn
tails, so CI can assert a file is byte-complete.
"""

import argparse
import struct
import sys

MAGIC = b"CALMDUR1"
FORMAT_VERSION = 1

# Fuzz-corpus record kinds and shape names (src/workload/fuzzer.h).
CORPUS_KIND_PROGRAM = 1
CORPUS_KIND_DIVERGENCE = 2
CORPUS_SHAPES = ("positive", "inequality", "semi-positive", "connected",
                 "semi-connected", "stratified", "win-move")

# Sweep-WAL record types (src/monotonicity/sweep_checkpoint.cc).
SWEEP_BEGIN = 1
SWEEP_DONE = 2
SWEEP_STOP_CEX = 3
SWEEP_STOP_ERROR = 4
SWEEP_COMPLETE = 5

# --- CRC32C (Castagnoli, reflected 0x82F63B78) — matches durable::Crc32c ---

_CRC_TABLE = []
for _i in range(256):
    _c = _i
    for _ in range(8):
        _c = (_c >> 1) ^ 0x82F63B78 if _c & 1 else _c >> 1
    _CRC_TABLE.append(_c)


def crc32c(data, seed=0):
    crc = ~seed & 0xFFFFFFFF
    for b in data:
        crc = _CRC_TABLE[(crc ^ b) & 0xFF] ^ (crc >> 8)
    return ~crc & 0xFFFFFFFF


class Corrupt(Exception):
    """The file violates the format (distinct from a repairable torn tail)."""


class Reader:
    """Bounds-checked little-endian reads mirroring durable::ByteReader."""

    def __init__(self, data):
        self.data = data
        self.pos = 0

    def take(self, n):
        if self.pos + n > len(self.data):
            raise Corrupt("short read")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def u8(self):
        return self.take(1)[0]

    def u32(self):
        return struct.unpack("<I", self.take(4))[0]

    def u64(self):
        return struct.unpack("<Q", self.take(8))[0]

    def string(self):
        return self.take(self.u32()).decode("utf-8", errors="replace")

    def at_end(self):
        return self.pos == len(self.data)


def parse_file(data):
    """Returns (tag, records, valid_bytes, torn) or raises Corrupt.

    Mirrors ReadRecordFile: the header must be intact; a record that runs
    past EOF or fails its CRC ends the valid region (torn tail), and
    `valid_bytes` is where LogWriter::Open would truncate on repair.
    """
    r = Reader(data)
    if r.take(len(MAGIC)) != MAGIC:
        raise Corrupt("bad magic (not a calm durable record file)")
    body_start = r.pos
    version = r.u32()
    tag = r.string()
    crc = r.u32()
    if crc32c(data[body_start:r.pos - 4]) != crc:
        raise Corrupt("header checksum mismatch")
    if version != FORMAT_VERSION:
        raise Corrupt(f"unsupported format version {version}")

    records = []
    valid = r.pos
    torn = False
    while not r.at_end():
        try:
            length = r.u32()
            crc = r.u32()
            payload = r.take(length)
        except Corrupt:
            torn = True
            break
        if crc32c(payload) != crc:
            torn = True
            break
        records.append(payload)
        valid = r.pos
    return tag, records, valid, torn


# --- per-tag payload decoders ------------------------------------------------


def describe_sweepwal(payload):
    r = Reader(payload)
    kind = r.u8()
    if kind == SWEEP_BEGIN:
        return f"Begin space_size={r.u64()}"
    if kind == SWEEP_DONE:
        return f"Done idx={r.u64()}"
    if kind == SWEEP_STOP_CEX:
        return f"StopCex idx={r.u64()}"
    if kind == SWEEP_STOP_ERROR:
        idx = r.u64()
        code = r.u32()
        return f"StopError idx={idx} code={code} message={r.string()!r}"
    if kind == SWEEP_COMPLETE:
        return f"Complete winner={r.u64()}"
    raise Corrupt(f"unknown sweepwal record type {kind}")


def describe_corpus(payload):
    # Classified fuzz-corpus records (src/workload/fuzzer.cc). The fixed
    # prefix is decoded here; the trailing ladder rows carry full instance
    # witnesses and are summarized by row count only.
    r = Reader(payload)
    kind = r.u8()
    if kind == CORPUS_KIND_DIVERGENCE:
        seed = r.u64()
        stage = r.string()
        detail = r.string()
        head = detail.splitlines()[0] if detail else ""
        if len(head) > 60:
            head = head[:57] + "..."
        return f"divergence seed={seed} stage={stage} detail={head!r}"
    if kind != CORPUS_KIND_PROGRAM:
        raise Corrupt(f"unknown corpus record kind {kind}")
    seed = r.u64()
    shape = r.u8()
    shape_name = (CORPUS_SHAPES[shape] if shape < len(CORPUS_SHAPES)
                  else f"shape#{shape}")
    wf = r.u8()
    fragment = r.string()
    bucket = r.string()
    strategy = r.string()
    conformant = r.u8()
    supersteps = r.u64()
    derived = r.u64()
    r.u64()  # fixpoint rounds
    r.u64()  # rule applications
    text = r.string()
    rows = r.u32()
    rules = sum(1 for line in text.splitlines() if ":-" in line)
    return (f"program seed={seed} shape={shape_name} fragment={fragment} "
            f"class={bucket}{' wf' if wf else ''} rules={rules} "
            f"ladder_rows={rows} strategy={strategy or '-'} "
            f"bsp_supersteps={supersteps} derived={derived} "
            f"conformant={'yes' if conformant else 'NO'}")


DESCRIBERS = {
    "calm.sweepwal": describe_sweepwal,
    "calm.corpus": describe_corpus,
}


def describe_record(tag, payload):
    describer = DESCRIBERS.get(tag)
    if describer is None:
        return f"{len(payload)} bytes"
    try:
        return describer(payload)
    except Corrupt as err:
        return f"{len(payload)} bytes (undecodable as {tag}: {err})"


def dump(path, show_records, quiet):
    """Returns (header_ok, torn)."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        tag, records, valid, torn = parse_file(data)
    except Corrupt as err:
        print(f"{path}: CORRUPT: {err}")
        return False, False
    if not quiet:
        state = (f"TORN TAIL at byte {valid} "
                 f"({len(data) - valid} trailing bytes would be truncated)"
                 if torn else "clean")
        print(f"{path}: tag={tag} version={FORMAT_VERSION} "
              f"records={len(records)} bytes={len(data)} [{state}]")
        if show_records:
            for i, payload in enumerate(records):
                print(f"  [{i}] {describe_record(tag, payload)}")
    return True, torn


def main(argv=None):
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("files", nargs="+", help="record files to inspect")
    ap.add_argument("--records", action="store_true",
                    help="decode and print each record payload")
    ap.add_argument("--strict", action="store_true",
                    help="exit 1 on a torn tail, not just on corruption")
    ap.add_argument("--quiet", action="store_true",
                    help="no per-file output; exit status only")
    args = ap.parse_args(argv)

    failed = False
    for path in args.files:
        try:
            header_ok, torn = dump(path, args.records, args.quiet)
        except OSError as err:
            print(f"{path}: {err}")
            failed = True
            continue
        if not header_ok or (args.strict and torn):
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

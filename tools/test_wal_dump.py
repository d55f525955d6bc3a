"""Tests for wal_dump.py against hand-assembled record files.

The files are built here with raw struct packing (not wal_dump's own
Reader), so the parser is checked against the format spec in
src/base/durable.h rather than against itself; the CRC32C known-answer
vector pins the checksum to the same iSCSI polynomial the C++ side uses.
"""

import struct

import pytest

import wal_dump
from wal_dump import Corrupt, crc32c, parse_file

MAGIC = b"CALMDUR1"


def header(tag, version=1):
    body = struct.pack("<I", version) + struct.pack("<I", len(tag)) + tag
    return MAGIC + body + struct.pack("<I", crc32c(body))


def record(payload):
    return struct.pack("<II", len(payload), crc32c(payload)) + payload


def make_file(tag, payloads, version=1):
    return header(tag, version) + b"".join(record(p) for p in payloads)


def enc_str(s):
    raw = s.encode()
    return struct.pack("<I", len(raw)) + raw


def test_crc32c_known_answer():
    # The iSCSI CRC32C check vector — pins the polynomial/reflection/xorout
    # to what src/base/durable.cc computes.
    assert crc32c(b"123456789") == 0xE3069283
    assert crc32c(b"") == 0


def test_clean_file_parses():
    data = make_file(b"calm.test", [b"alpha", b"", b"gamma"])
    tag, records, valid, torn = parse_file(data)
    assert tag == "calm.test"
    assert records == [b"alpha", b"", b"gamma"]
    assert valid == len(data)
    assert not torn


def test_trailing_garbage_is_a_torn_tail():
    clean = make_file(b"calm.test", [b"alpha"])
    data = clean + b"\x05\x00\x00\x00junk"
    tag, records, valid, torn = parse_file(data)
    assert records == [b"alpha"]
    assert torn
    assert valid == len(clean)


def test_corrupted_record_crc_ends_the_valid_region():
    r1, r2 = record(b"alpha"), record(b"beta")
    data = header(b"calm.test") + r1 + r2
    flipped = bytearray(data)
    flipped[-1] ^= 0xFF  # damage r2's payload
    tag, records, valid, torn = parse_file(bytes(flipped))
    assert records == [b"alpha"]
    assert torn
    assert valid == len(header(b"calm.test")) + len(r1)


def test_truncation_at_every_byte_offset():
    data = make_file(b"calm.test", [b"one", b"two", b"three"])
    hdr_len = len(header(b"calm.test"))
    full_records = [b"one", b"two", b"three"]
    boundaries = [hdr_len]
    for p in full_records:
        boundaries.append(boundaries[-1] + len(record(p)))
    for cut in range(len(data)):
        prefix = data[:cut]
        if cut < hdr_len:
            with pytest.raises(Corrupt):
                parse_file(prefix)
            continue
        tag, records, valid, torn = parse_file(prefix)
        assert records == full_records[:len(records)]
        assert torn == (cut not in boundaries)
        assert valid == max(b for b in boundaries if b <= cut)


def test_bad_magic_rejected():
    with pytest.raises(Corrupt, match="magic"):
        parse_file(b"NOTCALM!" + make_file(b"t", [])[8:])


def test_header_checksum_mismatch_rejected():
    data = bytearray(make_file(b"calm.test", []))
    data[-1] ^= 0xFF  # damage the header CRC itself
    with pytest.raises(Corrupt, match="header checksum"):
        parse_file(bytes(data))


def test_unsupported_version_rejected():
    with pytest.raises(Corrupt, match="version"):
        parse_file(make_file(b"calm.test", [], version=2))


def test_sweepwal_record_decoding():
    assert wal_dump.describe_record(
        "calm.sweepwal", b"\x01" + struct.pack("<Q", 96)) == \
        "Begin space_size=96"
    assert wal_dump.describe_record(
        "calm.sweepwal", b"\x02" + struct.pack("<Q", 5)) == "Done idx=5"
    assert wal_dump.describe_record(
        "calm.sweepwal", b"\x05" + struct.pack("<Q", 96)) == \
        "Complete winner=96"
    err = b"\x04" + struct.pack("<Q", 3) + struct.pack("<I", 8) + enc_str("disk full")
    assert wal_dump.describe_record("calm.sweepwal", err) == \
        "StopError idx=3 code=8 message='disk full'"


def _corpus_program_payload():
    # Mirrors EncodeCorpusRecord's fixed prefix (src/workload/fuzzer.cc):
    # kind, seed, shape, wf, fragment, bucket, strategy, conformant,
    # supersteps, three stats counters, text, ladder row count. The row
    # bodies that follow are opaque to the describer.
    return (b"\x01" + struct.pack("<Q", 42) + b"\x02" + b"\x00" +
            enc_str("SP-Datalog") + enc_str("Mdistinct") +
            enc_str("absence") + b"\x01" + struct.pack("<Q", 4) +
            struct.pack("<QQQ", 6, 3, 12) +
            enc_str("P0(x0) :- E(x0, x1), !F(x0).\nO(x0) :- P0(x0).\n"
                    ".output O\n") +
            struct.pack("<I", 2))


def test_corpus_program_record_decoding():
    out = wal_dump.describe_record("calm.corpus", _corpus_program_payload())
    assert out == ("program seed=42 shape=semi-positive fragment=SP-Datalog "
                   "class=Mdistinct rules=2 ladder_rows=2 strategy=absence "
                   "bsp_supersteps=4 derived=6 conformant=yes")


def test_corpus_wellfounded_and_strategyless_rendering():
    payload = (b"\x01" + struct.pack("<Q", 7) + b"\x06" + b"\x01" +
               enc_str("unstratifiable") + enc_str("Mdisjoint") + enc_str("") +
               b"\x00" + struct.pack("<Q", 0) + struct.pack("<QQQ", 0, 0, 0) +
               enc_str("Win(x0) :- E(x0, x1), !Win(x1).\n.output O\n") +
               struct.pack("<I", 1))
    out = wal_dump.describe_record("calm.corpus", payload)
    assert "shape=win-move" in out
    assert " wf " in out
    assert "strategy=-" in out
    assert "conformant=NO" in out


def test_corpus_divergence_record_decoding():
    payload = (b"\x02" + struct.pack("<Q", 99) + enc_str("bsp") +
               enc_str("supersteps diverged\nexpected 3\ngot 4"))
    out = wal_dump.describe_record("calm.corpus", payload)
    assert out == ("divergence seed=99 stage=bsp "
                   "detail='supersteps diverged'")


def test_corpus_unknown_kind_is_reported_not_raised():
    out = wal_dump.describe_record("calm.corpus", b"\x07")
    assert "undecodable" in out


def test_corpus_file_passes_strict_and_describes_records(tmp_path, capsys):
    # A corpus assembled from program + divergence records must survive a
    # --records --strict pass end-to-end (the same assertion the nightly
    # fuzz-survey job runs against the corpus the sweep persisted).
    div = (b"\x02" + struct.pack("<Q", 7) + enc_str("fragment") +
           enc_str("expected Datalog, got SP-Datalog"))
    path = tmp_path / "corpus.wal"
    path.write_bytes(make_file(b"calm.corpus",
                               [_corpus_program_payload(), div]))
    assert wal_dump.main([str(path), "--records", "--strict"]) == 0
    out = capsys.readouterr().out
    assert "tag=calm.corpus" in out
    assert "program seed=42" in out
    assert "divergence seed=7 stage=fragment" in out


def test_undecodable_payload_is_reported_not_raised():
    out = wal_dump.describe_record("calm.sweepwal", b"\x63")
    assert "undecodable" in out


def test_main_exit_codes(tmp_path, capsys):
    clean = tmp_path / "clean.wal"
    clean.write_bytes(make_file(b"calm.test", [b"alpha"]))
    torn = tmp_path / "torn.wal"
    torn.write_bytes(make_file(b"calm.test", [b"alpha"]) + b"garbage!")
    corrupt = tmp_path / "corrupt.wal"
    corrupt.write_bytes(b"not a record file at all")

    assert wal_dump.main([str(clean)]) == 0
    assert wal_dump.main([str(clean), "--records"]) == 0
    # A torn tail is a crash artifact: reported, but only --strict fails it.
    assert wal_dump.main([str(torn)]) == 0
    assert wal_dump.main([str(torn), "--strict"]) == 1
    assert wal_dump.main([str(corrupt)]) == 1
    assert wal_dump.main([str(tmp_path / "missing.wal")]) == 1

    capsys.readouterr()
    assert wal_dump.main([str(torn)]) == 0
    assert "TORN TAIL" in capsys.readouterr().out

#ifndef CALM_BASE_DURABLE_H_
#define CALM_BASE_DURABLE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "base/fact.h"
#include "base/instance.h"
#include "base/status.h"
#include "base/value.h"

// ---------------------------------------------------------------------------
// Durable record files (see DESIGN.md, "Durability and crash recovery"): the
// on-disk format of the repo's two persistent artifacts, the sweep
// checkpoint WAL (monotonicity/sweep_checkpoint.h, --checkpoint_dir) and the
// classified fuzz corpus (workload/fuzzer.h, --corpus).
//
// File layout:
//   header  = magic "CALMDUR1" | u32 version | u32 tag_len | tag bytes
//             | u32 crc32c(version..tag)
//   record* = u32 payload_len | u32 crc32c(payload) | payload bytes
//
// The client tag names the record schema ("calm.sweepwal", "calm.corpus")
// so a reader never replays a foreign file. All integers little-endian.
//
// One write discipline, LogWriter, an append-only WAL: the header is
// published atomically (write <path>.tmp, fsync, rename over <path>, fsync
// the directory), then each Append writes one record and fsyncs. A crash
// mid-append leaves a torn tail, which replay detects (short or
// CRC-failing trailing record) and truncates.
//
// Every write/fsync/rename boundary carries a CALM_FAILPOINT site (names in
// failpoint.h's model); the kill-anywhere fuzzer in tests/durability_test.cc
// crashes at each one and asserts recovery is exact.
// ---------------------------------------------------------------------------

namespace calm::durable {

// The record-file format version this build writes and reads.
inline constexpr uint32_t kFormatVersion = 1;

// CRC32C (Castagnoli, the iSCSI polynomial), table-driven.
uint32_t Crc32c(const void* data, size_t n, uint32_t seed = 0);

// --- byte-level payload encoding -------------------------------------------
//
// Fixed-width little-endian primitives; strings are u32-length-prefixed.
// Payloads are small (records, not bulk columns), so no varint compression.

class ByteWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v);
  void U64(uint64_t v);
  void Str(std::string_view s);
  void Raw(const void* p, size_t n);

  const std::string& data() const { return buf_; }
  std::string Take() { return std::move(buf_); }

 private:
  std::string buf_;
};

// Bounds-checked reads with a sticky failure flag: after the first short
// read every further read fails, so decoders can check ok() once at the end.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  bool U8(uint8_t* v);
  bool U32(uint32_t* v);
  bool U64(uint64_t* v);
  bool Str(std::string* s);

  bool ok() const { return ok_; }
  // True when every byte was consumed and no read failed — decoders use
  // this as "the payload was exactly one well-formed record".
  bool AtEnd() const { return ok_ && pos_ == data_.size(); }

 private:
  bool Take(size_t n, const char** out);

  std::string_view data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// --- domain codecs ----------------------------------------------------------
//
// Symbol payloads are process-local interned ids (base/value.h), so a Value
// on disk carries the symbol NAME and re-interns on decode; likewise
// relation ids travel as name strings. Integer and invented values carry
// their payloads directly.

void EncodeTuple(const Tuple& t, ByteWriter* w);
bool DecodeTuple(ByteReader* r, Tuple* out);

// An instance as (relation name, tuple count, tuples)* in deterministic
// (ForEachFact) order. Decode inserts into `out` (not cleared first).
void EncodeInstance(const Instance& in, ByteWriter* w);
bool DecodeInstance(ByteReader* r, Instance* out);

// --- record files -----------------------------------------------------------

// Append-only write-ahead log. Open replays any existing file (validating
// the header, truncating a torn tail) and positions for appends; a missing
// file is created with an atomically published header. Append writes one
// record and fsyncs before returning — a returned Ok means the record
// survives any later crash. Failpoint sites: durable.wal.create.{write,
// fsync,rename,dirsync} (header publication, one before each boundary),
// durable.wal.append (between the two halves of the record bytes — a torn
// tail), durable.wal.fsync (record written, not synced), durable.wal.synced
// (record durable).
class LogWriter {
 public:
  LogWriter() = default;
  ~LogWriter();
  LogWriter(const LogWriter&) = delete;
  LogWriter& operator=(const LogWriter&) = delete;
  LogWriter(LogWriter&& o) noexcept;
  LogWriter& operator=(LogWriter&& o) noexcept;

  // Opens `path` for appending. When the file exists its prior record
  // payloads are appended to `*replayed` (may be null to discard).
  Status Open(const std::string& path, std::string_view client_tag,
              std::vector<std::string>* replayed);

  Status Append(std::string_view payload);

  bool is_open() const { return fd_ >= 0; }
  const std::string& path() const { return path_; }
  void Close();

 private:
  int fd_ = -1;
  std::string path_;
};

// The payloads of `path`, in file order. A missing file is kNotFound; a
// foreign or version-skewed header is kInvalidArgument. A torn tail — a
// trailing record that is short or fails its CRC — ends the read at the
// last valid record; with `repair_torn_tail` the file is truncated to that
// prefix (and the truncation fsynced) so appends can resume cleanly.
struct ReadResult {
  std::vector<std::string> records;
  bool torn = false;           // trailing garbage was present
  uint64_t valid_bytes = 0;    // file prefix covered by header + records
};
Result<ReadResult> ReadRecordFile(const std::string& path,
                                  std::string_view client_tag,
                                  bool repair_torn_tail);

// mkdir -p: creates every missing component of `dir`. Checkpoint and WAL
// clients call this before opening files in a caller-supplied directory.
Status MakeDirs(const std::string& dir);

}  // namespace calm::durable

#endif  // CALM_BASE_DURABLE_H_

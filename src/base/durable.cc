#include "base/durable.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>

#include "base/failpoint.h"
#include "base/metrics.h"

namespace calm::durable {

namespace {

constexpr char kMagic[8] = {'C', 'A', 'L', 'M', 'D', 'U', 'R', '1'};
constexpr size_t kRecordPrefix = 8;  // u32 len + u32 crc

// Flush-point counters for the whole durable layer (DESIGN.md,
// "Observability" — references cached in function-local statics, one
// relaxed load per event when metrics are off).
Counter& BytesWritten() {
  static Counter& c = MetricRegistry::Global().GetCounter(
      "calm.durable.bytes_written");
  return c;
}
Counter& RecordsWritten() {
  static Counter& c = MetricRegistry::Global().GetCounter(
      "calm.durable.records_written");
  return c;
}
Counter& RecordsReplayed() {
  static Counter& c = MetricRegistry::Global().GetCounter(
      "calm.durable.records_replayed");
  return c;
}
Counter& TornTruncations() {
  static Counter& c = MetricRegistry::Global().GetCounter(
      "calm.durable.torn_truncations");
  return c;
}

Status ErrnoError(const std::string& op, const std::string& path) {
  return InternalError(op + " " + path + ": " + std::strerror(errno));
}

// write(2) until done; short writes and EINTR are retried.
Status WriteAll(int fd, const char* p, size_t n, const std::string& path) {
  while (n > 0) {
    ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return ErrnoError("write", path);
    }
    p += w;
    n -= static_cast<size_t>(w);
  }
  return Status::Ok();
}

Status ReadWholeFile(const std::string& path, std::string* out) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return NotFoundError("no such file: " + path);
    return ErrnoError("open", path);
  }
  out->clear();
  char buf[1 << 16];
  while (true) {
    ssize_t r = ::read(fd, buf, sizeof(buf));
    if (r < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return ErrnoError("read", path);
    }
    if (r == 0) break;
    out->append(buf, static_cast<size_t>(r));
  }
  ::close(fd);
  return Status::Ok();
}

// fsync the directory containing `path` so a just-renamed entry survives a
// crash (rename alone only makes it durable once the dir inode is synced).
Status SyncDirOf(const std::string& path) {
  const size_t slash = path.rfind('/');
  std::string dir;
  if (slash == std::string::npos) {
    dir = ".";
  } else if (slash == 0) {
    dir = "/";
  } else {
    dir = path.substr(0, slash);
  }
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return ErrnoError("open dir", dir);
  CALM_FAILPOINT("durable.wal.create.dirsync");
  if (::fsync(fd) != 0) {
    Status s = ErrnoError("fsync dir", dir);
    ::close(fd);
    return s;
  }
  ::close(fd);
  return Status::Ok();
}

// Atomic publication of a new log's header: <path>.tmp, fsync, rename,
// dirsync, with one failpoint site before each boundary.
Status WriteFileAtomic(const std::string& path, std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC, 0644);
  if (fd < 0) return ErrnoError("open", tmp);
  // Two half-writes with a site between them: crashing there leaves a torn
  // tmp file — never visible under `path`, overwritten when the next Open
  // creates the log.
  const size_t split = bytes.size() / 2;
  Status s = WriteAll(fd, bytes.data(), split, tmp);
  if (s.ok()) {
    CALM_FAILPOINT("durable.wal.create.write");
    s = WriteAll(fd, bytes.data() + split, bytes.size() - split, tmp);
  }
  if (s.ok()) {
    CALM_FAILPOINT("durable.wal.create.fsync");
    if (::fsync(fd) != 0) s = ErrnoError("fsync", tmp);
  }
  ::close(fd);
  if (!s.ok()) {
    ::unlink(tmp.c_str());
    return s;
  }
  CALM_FAILPOINT("durable.wal.create.rename");
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    Status r = ErrnoError("rename", tmp + " -> " + path);
    ::unlink(tmp.c_str());
    return r;
  }
  CALM_RETURN_IF_ERROR(SyncDirOf(path));
  if (MetricsEnabled()) BytesWritten().Increment(bytes.size());
  return Status::Ok();
}

std::string BuildHeader(std::string_view client_tag) {
  ByteWriter w;
  w.Raw(kMagic, sizeof(kMagic));
  w.U32(kFormatVersion);
  w.Str(client_tag);
  w.U32(Crc32c(w.data().data() + sizeof(kMagic),
               w.data().size() - sizeof(kMagic)));
  return w.Take();
}

void AppendRecord(std::string* buf, std::string_view payload) {
  ByteWriter w;
  w.U32(static_cast<uint32_t>(payload.size()));
  w.U32(Crc32c(payload.data(), payload.size()));
  buf->append(w.data());
  buf->append(payload);
}

// Validates the header of `contents` against `client_tag`. On success
// returns the header length; wrong magic / version / tag / checksum is
// kInvalidArgument (headers are published atomically, so a damaged one is a
// foreign or hand-truncated file, not a crash artifact).
Result<size_t> ParseHeader(std::string_view contents,
                           std::string_view client_tag,
                           const std::string& path) {
  if (contents.size() < sizeof(kMagic) ||
      std::memcmp(contents.data(), kMagic, sizeof(kMagic)) != 0) {
    return InvalidArgumentError("not a durable record file: " + path);
  }
  ByteReader r(contents.substr(sizeof(kMagic)));
  uint32_t version = 0;
  std::string tag;
  uint32_t crc = 0;
  if (!r.U32(&version) || !r.Str(&tag) || !r.U32(&crc)) {
    return InvalidArgumentError("truncated header: " + path);
  }
  const size_t body = sizeof(uint32_t) * 2 + tag.size();
  if (crc != Crc32c(contents.data() + sizeof(kMagic), body)) {
    return InvalidArgumentError("header checksum mismatch: " + path);
  }
  if (version != kFormatVersion) {
    return InvalidArgumentError("unsupported record-file version " +
                                std::to_string(version) + ": " + path);
  }
  if (tag != client_tag) {
    return InvalidArgumentError("record file " + path + " belongs to '" +
                                tag + "', expected '" +
                                std::string(client_tag) + "'");
  }
  return sizeof(kMagic) + body + sizeof(uint32_t);
}

}  // namespace

// --- CRC32C ------------------------------------------------------------------

uint32_t Crc32c(const void* data, size_t n, uint32_t seed) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t crc = ~seed;
  static const std::array<uint32_t, 256>& table = *[] {
    auto* t = new std::array<uint32_t, 256>();
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0x82f63b78u ^ (c >> 1) : c >> 1;
      }
      (*t)[i] = c;
    }
    return t;
  }();
  for (size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ p[i]) & 0xff] ^ (crc >> 8);
  }
  return ~crc;
}

// --- byte encoding -----------------------------------------------------------

void ByteWriter::U32(uint32_t v) {
  char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<char>(v >> (8 * i));
  buf_.append(b, 4);
}

void ByteWriter::U64(uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>(v >> (8 * i));
  buf_.append(b, 8);
}

void ByteWriter::Str(std::string_view s) {
  U32(static_cast<uint32_t>(s.size()));
  buf_.append(s.data(), s.size());
}

void ByteWriter::Raw(const void* p, size_t n) {
  buf_.append(static_cast<const char*>(p), n);
}

bool ByteReader::Take(size_t n, const char** out) {
  if (!ok_ || data_.size() - pos_ < n) {
    ok_ = false;
    return false;
  }
  *out = data_.data() + pos_;
  pos_ += n;
  return true;
}

bool ByteReader::U8(uint8_t* v) {
  const char* p;
  if (!Take(1, &p)) return false;
  *v = static_cast<uint8_t>(*p);
  return true;
}

bool ByteReader::U32(uint32_t* v) {
  const char* p;
  if (!Take(4, &p)) return false;
  uint32_t r = 0;
  for (int i = 0; i < 4; ++i) r |= uint32_t{static_cast<uint8_t>(p[i])} << (8 * i);
  *v = r;
  return true;
}

bool ByteReader::U64(uint64_t* v) {
  const char* p;
  if (!Take(8, &p)) return false;
  uint64_t r = 0;
  for (int i = 0; i < 8; ++i) r |= uint64_t{static_cast<uint8_t>(p[i])} << (8 * i);
  *v = r;
  return true;
}

bool ByteReader::Str(std::string* s) {
  uint32_t n = 0;
  if (!U32(&n)) return false;
  const char* p;
  if (!Take(n, &p)) return false;
  s->assign(p, n);
  return true;
}

// --- domain codecs -----------------------------------------------------------

namespace {

void EncodeValue(Value v, ByteWriter* w) {
  w->U8(static_cast<uint8_t>(v.kind()));
  if (v.is_symbol()) {
    w->Str(NameOf(static_cast<uint32_t>(v.payload())));
  } else {
    w->U64(v.payload());
  }
}

bool DecodeValue(ByteReader* r, Value* out) {
  uint8_t kind = 0;
  if (!r->U8(&kind)) return false;
  switch (static_cast<Value::Kind>(kind)) {
    case Value::Kind::kInt: {
      uint64_t p = 0;
      if (!r->U64(&p)) return false;
      *out = Value::FromInt(p);
      return true;
    }
    case Value::Kind::kSymbol: {
      std::string name;
      if (!r->Str(&name)) return false;
      *out = Sym(name);
      return true;
    }
    case Value::Kind::kInvented: {
      uint64_t p = 0;
      if (!r->U64(&p)) return false;
      *out = Value::Invented(p);
      return true;
    }
  }
  return false;
}

}  // namespace

void EncodeTuple(const Tuple& t, ByteWriter* w) {
  w->U32(static_cast<uint32_t>(t.size()));
  for (Value v : t) EncodeValue(v, w);
}

bool DecodeTuple(ByteReader* r, Tuple* out) {
  uint32_t n = 0;
  if (!r->U32(&n)) return false;
  // No reserve(n): n is unchecked input, and each value costs at least one
  // byte, so a short payload fails below before the tuple grows far.
  out->clear();
  for (uint32_t i = 0; i < n; ++i) {
    Value v;
    if (!DecodeValue(r, &v)) return false;
    out->push_back(v);
  }
  return true;
}

void EncodeInstance(const Instance& in, ByteWriter* w) {
  const std::vector<uint32_t> rels = in.RelationNames();
  w->U32(static_cast<uint32_t>(rels.size()));
  for (uint32_t rel : rels) {
    const TupleSet& tuples = in.TuplesOf(rel);
    w->Str(NameOf(rel));
    w->U32(static_cast<uint32_t>(tuples.size()));
    for (const Tuple& t : tuples) EncodeTuple(t, w);
  }
}

bool DecodeInstance(ByteReader* r, Instance* out) {
  uint32_t nrels = 0;
  if (!r->U32(&nrels)) return false;
  std::string name;
  Tuple t;
  for (uint32_t i = 0; i < nrels; ++i) {
    uint32_t count = 0;
    if (!r->Str(&name) || !r->U32(&count)) return false;
    const uint32_t rel = InternName(name);
    for (uint32_t j = 0; j < count; ++j) {
      if (!DecodeTuple(r, &t)) return false;
      out->Insert(Fact(rel, t));
    }
  }
  return true;
}

// --- LogWriter ---------------------------------------------------------------

LogWriter::~LogWriter() { Close(); }

LogWriter::LogWriter(LogWriter&& o) noexcept
    : fd_(o.fd_), path_(std::move(o.path_)) {
  o.fd_ = -1;
}

LogWriter& LogWriter::operator=(LogWriter&& o) noexcept {
  if (this == &o) return *this;
  Close();
  fd_ = o.fd_;
  path_ = std::move(o.path_);
  o.fd_ = -1;
  return *this;
}

void LogWriter::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status LogWriter::Open(const std::string& path, std::string_view client_tag,
                       std::vector<std::string>* replayed) {
  Close();
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) {
    if (errno != ENOENT) return ErrnoError("stat", path);
    // New log: publish the header atomically, so no reader (or crashed
    // re-open) ever sees a file with a partial header.
    CALM_RETURN_IF_ERROR(WriteFileAtomic(path, BuildHeader(client_tag)));
  } else {
    Result<ReadResult> prior =
        ReadRecordFile(path, client_tag, /*repair_torn_tail=*/true);
    if (!prior.ok()) return prior.status();
    if (replayed != nullptr) {
      for (std::string& rec : prior->records) {
        replayed->push_back(std::move(rec));
      }
    }
  }
  fd_ = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
  if (fd_ < 0) return ErrnoError("open", path);
  path_ = path;
  return Status::Ok();
}

Status LogWriter::Append(std::string_view payload) {
  if (fd_ < 0) return FailedPreconditionError("log is not open");
  std::string rec;
  rec.reserve(kRecordPrefix + payload.size());
  AppendRecord(&rec, payload);
  // Two half-writes around the torn-tail site: a crash there leaves a
  // partial record, exactly what replay's CRC check truncates.
  const size_t split = rec.size() / 2;
  CALM_RETURN_IF_ERROR(WriteAll(fd_, rec.data(), split, path_));
  CALM_FAILPOINT("durable.wal.append");
  CALM_RETURN_IF_ERROR(
      WriteAll(fd_, rec.data() + split, rec.size() - split, path_));
  CALM_FAILPOINT("durable.wal.fsync");
  if (::fsync(fd_) != 0) return ErrnoError("fsync", path_);
  CALM_FAILPOINT("durable.wal.synced");
  if (MetricsEnabled()) {
    BytesWritten().Increment(rec.size());
    RecordsWritten().Increment();
  }
  return Status::Ok();
}

// --- ReadRecordFile ----------------------------------------------------------

Result<ReadResult> ReadRecordFile(const std::string& path,
                                  std::string_view client_tag,
                                  bool repair_torn_tail) {
  std::string contents;
  CALM_RETURN_IF_ERROR(ReadWholeFile(path, &contents));
  CALM_ASSIGN_OR_RETURN(size_t offset, ParseHeader(contents, client_tag, path));

  ReadResult out;
  while (offset < contents.size()) {
    const size_t remaining = contents.size() - offset;
    if (remaining < kRecordPrefix) {
      out.torn = true;
      break;
    }
    ByteReader prefix(std::string_view(contents).substr(offset, kRecordPrefix));
    uint32_t len = 0, crc = 0;
    prefix.U32(&len);
    prefix.U32(&crc);
    if (len > remaining - kRecordPrefix) {
      out.torn = true;
      break;
    }
    const char* payload = contents.data() + offset + kRecordPrefix;
    if (crc != Crc32c(payload, len)) {
      out.torn = true;
      break;
    }
    out.records.emplace_back(payload, len);
    offset += kRecordPrefix + len;
  }
  out.valid_bytes = offset;

  if (out.torn && repair_torn_tail) {
    int fd = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
    if (fd < 0) return ErrnoError("open", path);
    if (::ftruncate(fd, static_cast<off_t>(out.valid_bytes)) != 0) {
      Status s = ErrnoError("ftruncate", path);
      ::close(fd);
      return s;
    }
    CALM_FAILPOINT("durable.wal.truncate");
    if (::fsync(fd) != 0) {
      Status s = ErrnoError("fsync", path);
      ::close(fd);
      return s;
    }
    ::close(fd);
    if (MetricsEnabled()) TornTruncations().Increment();
  }
  if (MetricsEnabled()) RecordsReplayed().Increment(out.records.size());
  return out;
}

Status MakeDirs(const std::string& dir) {
  for (size_t i = 1; i <= dir.size(); ++i) {
    if (i != dir.size() && dir[i] != '/') continue;
    std::string prefix = dir.substr(0, i);
    if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
      return ErrnoError("mkdir", prefix);
    }
  }
  return Status::Ok();
}

}  // namespace calm::durable

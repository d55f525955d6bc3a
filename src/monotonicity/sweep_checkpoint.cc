#include "monotonicity/sweep_checkpoint.h"

#include <cctype>
#include <vector>

#include "base/metrics.h"

namespace calm::monotonicity {

namespace {

constexpr std::string_view kClientTag = "calm.sweepwal";

// Record type tags (u8, first payload byte).
enum RecordType : uint8_t {
  kBegin = 1,     // u64 space_size
  kDone = 2,      // u64 idx
  kStopCex = 3,   // u64 idx, instance i, instance j, str rel, tuple args
  kStopError = 4, // u64 idx, u32 status code, str message
  kComplete = 5,  // u64 winner (space_size = no stop anywhere)
};

Counter& Resumes() {
  static Counter& c =
      MetricRegistry::Global().GetCounter("calm.durable.sweep_resumes");
  return c;
}
Counter& Replayed() {
  static Counter& c = MetricRegistry::Global().GetCounter(
      "calm.durable.sweep_indices_replayed");
  return c;
}
Counter& Recorded() {
  static Counter& c = MetricRegistry::Global().GetCounter(
      "calm.durable.sweep_indices_recorded");
  return c;
}

Status CorruptRecord(const std::string& what) {
  return InvalidArgumentError("sweep checkpoint: " + what);
}

}  // namespace

std::string SweepFileId(std::string_view query_name, std::string_view kind,
                        std::string_view cls, size_t domain_size,
                        size_t fresh_values, size_t max_facts_i,
                        size_t max_facts_j) {
  std::string id;
  id.reserve(query_name.size() + 32);
  for (char c : query_name) {
    id.push_back(std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '-'
                     ? c
                     : '_');
  }
  id += '-';
  id += kind;
  id += '-';
  id += cls;
  id += "-d" + std::to_string(domain_size) + "f" +
        std::to_string(fresh_values) + "i" + std::to_string(max_facts_i) +
        "j" + std::to_string(max_facts_j);
  return id;
}

Result<std::unique_ptr<SweepCheckpoint>> SweepCheckpoint::Open(
    const std::string& dir, const std::string& sweep_id,
    uint64_t space_size) {
  CALM_RETURN_IF_ERROR(durable::MakeDirs(dir));
  const std::string path = dir + "/" + sweep_id + ".wal";

  std::unique_ptr<SweepCheckpoint> ckpt(new SweepCheckpoint());
  ckpt->space_ = space_size;
  std::vector<std::string> replayed;
  CALM_RETURN_IF_ERROR(ckpt->log_.Open(path, kClientTag, &replayed));

  if (replayed.empty()) {
    durable::ByteWriter w;
    w.U8(kBegin);
    w.U64(space_size);
    CALM_RETURN_IF_ERROR(ckpt->log_.Append(w.data()));
    return ckpt;
  }

  for (size_t n = 0; n < replayed.size(); ++n) {
    durable::ByteReader r(replayed[n]);
    uint8_t type = 0;
    if (!r.U8(&type)) return CorruptRecord("empty record");
    if (n == 0) {
      uint64_t space = 0;
      if (type != kBegin || !r.U64(&space) || !r.AtEnd()) {
        return CorruptRecord("first record is not Begin: " + path);
      }
      if (space != space_size) {
        return CorruptRecord(
            path + " journals a sweep of " + std::to_string(space) +
            " candidates, this sweep has " + std::to_string(space_size));
      }
      continue;
    }
    switch (type) {
      case kDone: {
        uint64_t idx = 0;
        if (!r.U64(&idx) || !r.AtEnd()) return CorruptRecord("bad Done");
        ckpt->recorded_.insert(idx);
        break;
      }
      case kStopCex: {
        uint64_t idx = 0;
        SweepStop stop;
        stop.has_witness = true;
        std::string rel;
        Tuple args;
        if (!r.U64(&idx) || !durable::DecodeInstance(&r, &stop.i) ||
            !durable::DecodeInstance(&r, &stop.j) || !r.Str(&rel) ||
            !durable::DecodeTuple(&r, &args) || !r.AtEnd()) {
          return CorruptRecord("bad Stop witness");
        }
        stop.fact = Fact(InternName(rel), std::move(args));
        ckpt->recorded_.insert(idx);
        ckpt->stops_.emplace(idx, std::move(stop));
        break;
      }
      case kStopError: {
        uint64_t idx = 0;
        uint32_t code = 0;
        std::string message;
        if (!r.U64(&idx) || !r.U32(&code) || !r.Str(&message) || !r.AtEnd()) {
          return CorruptRecord("bad Stop error");
        }
        // RecordStop journals errors only: an OK or unknown code would
        // replay as a stop with neither a witness nor an error.
        if (code == static_cast<uint32_t>(StatusCode::kOk) ||
            code > static_cast<uint32_t>(StatusCode::kNotFound)) {
          return CorruptRecord("Stop error with code " + std::to_string(code));
        }
        SweepStop stop;
        stop.error = Status(static_cast<StatusCode>(code), std::move(message));
        ckpt->recorded_.insert(idx);
        ckpt->stops_.emplace(idx, std::move(stop));
        break;
      }
      case kComplete: {
        uint64_t winner = 0;
        if (!r.U64(&winner) || !r.AtEnd()) return CorruptRecord("bad Complete");
        ckpt->complete_ = true;
        ckpt->winner_ = winner;
        break;
      }
      case kBegin:
        return CorruptRecord("duplicate Begin");
      default:
        return CorruptRecord("unknown record type " + std::to_string(type));
    }
  }
  ckpt->recorded_at_open_ = ckpt->recorded_.size();
  if (MetricsEnabled()) {
    Resumes().Increment();
    Replayed().Increment(ckpt->recorded_at_open_);
  }
  return ckpt;
}

bool SweepCheckpoint::IsRecorded(uint64_t idx) const {
  std::lock_guard<std::mutex> lock(mu_);
  return recorded_.count(idx) != 0;
}

const SweepStop* SweepCheckpoint::StopAt(uint64_t idx) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = stops_.find(idx);
  return it == stops_.end() ? nullptr : &it->second;
}

void SweepCheckpoint::AppendLocked(const durable::ByteWriter& w) {
  if (!io_status_.ok()) return;  // latched: stop appending after a failure
  io_status_ = log_.Append(w.data());
  if (io_status_.ok() && MetricsEnabled()) Recorded().Increment();
}

void SweepCheckpoint::RecordDone(uint64_t idx) {
  std::lock_guard<std::mutex> lock(mu_);
  if (recorded_.count(idx) != 0) return;
  durable::ByteWriter w;
  w.U8(kDone);
  w.U64(idx);
  AppendLocked(w);
  if (io_status_.ok()) recorded_.insert(idx);
}

void SweepCheckpoint::RecordStop(uint64_t idx, const SweepStop& stop) {
  std::lock_guard<std::mutex> lock(mu_);
  if (recorded_.count(idx) != 0) return;
  durable::ByteWriter w;
  if (stop.has_witness) {
    w.U8(kStopCex);
    w.U64(idx);
    durable::EncodeInstance(stop.i, &w);
    durable::EncodeInstance(stop.j, &w);
    w.Str(NameOf(stop.fact.relation));
    durable::EncodeTuple(stop.fact.args, &w);
  } else {
    w.U8(kStopError);
    w.U64(idx);
    w.U32(static_cast<uint32_t>(stop.error.code()));
    w.Str(stop.error.message());
  }
  AppendLocked(w);
  if (io_status_.ok()) {
    recorded_.insert(idx);
    stops_.emplace(idx, stop);
  }
}

void SweepCheckpoint::RecordComplete(uint64_t winner) {
  std::lock_guard<std::mutex> lock(mu_);
  if (complete_) return;
  durable::ByteWriter w;
  w.U8(kComplete);
  w.U64(winner);
  AppendLocked(w);
  if (io_status_.ok()) {
    complete_ = true;
    winner_ = winner;
  }
}

Status SweepCheckpoint::io_status() const {
  std::lock_guard<std::mutex> lock(mu_);
  return io_status_;
}

}  // namespace calm::monotonicity

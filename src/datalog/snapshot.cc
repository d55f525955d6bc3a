#include "datalog/snapshot.h"

#include <cstdint>
#include <string>
#include <vector>

#include "base/durable.h"
#include "base/metrics.h"
#include "base/trace.h"

namespace calm::datalog {

namespace {

constexpr std::string_view kClientTag = "calm.snapshot";
constexpr std::string_view kTrailerMarker = "calm.snapshot.end";
// Serialized arity for a store that was never keyed (arity() == -1).
constexpr uint32_t kNoArity = UINT32_MAX;

Counter& SnapshotWrites() {
  static Counter& c = MetricRegistry::Global().GetCounter(
      "calm.durable.snapshot_writes");
  return c;
}
Counter& SnapshotLoads() {
  static Counter& c = MetricRegistry::Global().GetCounter(
      "calm.durable.snapshot_loads");
  return c;
}

Status Corrupt(const std::string& path, const std::string& what) {
  return InvalidArgumentError("snapshot " + path + ": " + what);
}

}  // namespace

Status WriteSnapshot(const Database& db, const std::string& path) {
  TraceSpan span("durable.snapshot");

  durable::FileWriter file(kClientTag);
  durable::ByteWriter w;

  // Record 0 — meta: dictionary size, relation count.
  size_t rel_count = 0;
  db.ForEachStore([&](uint32_t, const RelStore&) { ++rel_count; });
  w.U64(db.dict().size());
  w.U32(static_cast<uint32_t>(rel_count));
  file.Append(w.data());

  // Record 1 — the dictionary, in code order (symbols travel by name).
  w.clear();
  for (uint32_t code = 0; code < db.dict().size(); ++code) {
    durable::EncodeValue(db.dict().ValueOf(code), &w);
  }
  file.Append(w.data());

  // One record per relation, in creation order.
  db.ForEachStore([&](uint32_t rel, const RelStore& store) {
    w.clear();
    w.Str(NameOf(rel));
    if (store.arity() < 0) {
      w.U32(kNoArity);
    } else {
      w.U32(static_cast<uint32_t>(store.arity()));
      w.U32(store.row_count());
      for (int c = 0; c < store.arity(); ++c) {
        const uint32_t* col = store.ColumnData(static_cast<uint32_t>(c));
        for (uint32_t r = 0; r < store.row_count(); ++r) w.U32(col[r]);
      }
      w.U32(static_cast<uint32_t>(store.overflow_count()));
      for (const Tuple& t : store.OverflowRows()) {
        durable::EncodeTuple(t, &w);
      }
    }
    file.Append(w.data());
  });

  // Trailer: marker + relation count — a record-granularity truncation of
  // the file (every remaining record intact) is still detected.
  w.clear();
  w.Str(kTrailerMarker);
  w.U32(static_cast<uint32_t>(rel_count));
  file.Append(w.data());

  span.Arg("relations", static_cast<int64_t>(rel_count));
  span.Arg("bytes", static_cast<int64_t>(file.byte_size()));
  CALM_RETURN_IF_ERROR(file.Commit(path));
  if (MetricsEnabled()) SnapshotWrites().Increment();
  return Status::Ok();
}

Result<Database> LoadSnapshot(const std::string& path) {
  TraceSpan span("durable.recover");
  CALM_ASSIGN_OR_RETURN(
      durable::ReadResult file,
      durable::ReadRecordFile(path, kClientTag, /*repair_torn_tail=*/false));
  if (file.torn) return Corrupt(path, "torn record");
  if (file.records.size() < 3) return Corrupt(path, "too few records");

  durable::ByteReader meta(file.records[0]);
  uint64_t dict_size = 0;
  uint32_t rel_count = 0;
  if (!meta.U64(&dict_size) || !meta.U32(&rel_count) || !meta.AtEnd()) {
    return Corrupt(path, "malformed meta record");
  }
  if (file.records.size() != 3 + static_cast<size_t>(rel_count)) {
    return Corrupt(path, "record count mismatch");
  }

  Database db;
  // Re-interning the dictionary values in code order into a fresh (empty)
  // dictionary reassigns every code identically — codes are dense in
  // interning order — so the row records below replay verbatim.
  durable::ByteReader dict(file.records[1]);
  for (uint64_t code = 0; code < dict_size; ++code) {
    Value v;
    if (!durable::DecodeValue(&dict, &v)) {
      return Corrupt(path, "malformed dictionary record");
    }
    if (db.dict().Intern(v) != code) {
      return Corrupt(path, "duplicate dictionary value");
    }
  }
  if (!dict.AtEnd()) return Corrupt(path, "trailing dictionary bytes");

  std::string name;
  std::vector<uint32_t> row;
  std::vector<uint32_t> single_rel(1);
  Tuple t;
  uint64_t rows_restored = 0;
  for (uint32_t i = 0; i < rel_count; ++i) {
    durable::ByteReader r(file.records[2 + i]);
    uint32_t arity = 0;
    if (!r.Str(&name) || !r.U32(&arity)) {
      return Corrupt(path, "malformed relation record");
    }
    const uint32_t rel = InternName(name);
    // EnsureStores (not Insert) so rowless relations still occupy their
    // creation-order slot in the relation table.
    single_rel[0] = rel;
    db.EnsureStores(single_rel);
    if (arity == kNoArity) {
      if (!r.AtEnd()) return Corrupt(path, "trailing bytes in empty store");
      continue;
    }
    RelStore* store = db.Store(rel);
    store->RestoreArity(arity);
    uint32_t rows = 0;
    if (!r.U32(&rows)) return Corrupt(path, "malformed relation record");
    if (arity == 0) {
      if (rows > 1) return Corrupt(path, "bad zero-arity row count");
      if (rows == 1) {
        uint32_t dummy = 0;
        store->InsertCodes(&dummy, 0);
      }
    } else {
      // The record is column-major; replay wants rows. Decode the columns
      // into one buffer and stride it.
      row.assign(static_cast<size_t>(arity) * rows, 0);
      for (uint32_t c = 0; c < arity; ++c) {
        for (uint32_t j = 0; j < rows; ++j) {
          uint32_t code = 0;
          if (!r.U32(&code)) return Corrupt(path, "short column data");
          if (code >= dict_size) return Corrupt(path, "code out of range");
          row[static_cast<size_t>(j) * arity + c] = code;
        }
      }
      for (uint32_t j = 0; j < rows; ++j) {
        if (!store->InsertCodes(&row[static_cast<size_t>(j) * arity],
                                arity)) {
          return Corrupt(path, "duplicate row in snapshot");
        }
      }
    }
    uint32_t overflow = 0;
    if (!r.U32(&overflow)) return Corrupt(path, "malformed relation record");
    for (uint32_t j = 0; j < overflow; ++j) {
      if (!durable::DecodeTuple(&r, &t)) {
        return Corrupt(path, "malformed overflow tuple");
      }
      store->RestoreOverflow(t);
    }
    if (!r.AtEnd()) return Corrupt(path, "trailing bytes in relation record");
    rows_restored += store->size();
  }

  durable::ByteReader trailer(file.records.back());
  uint32_t trailer_count = 0;
  if (!trailer.Str(&name) || name != kTrailerMarker ||
      !trailer.U32(&trailer_count) || trailer_count != rel_count ||
      !trailer.AtEnd()) {
    return Corrupt(path, "bad trailer");
  }

  span.Arg("relations", rel_count);
  span.Arg("rows", static_cast<int64_t>(rows_restored));
  if (MetricsEnabled()) SnapshotLoads().Increment();
  return db;
}

}  // namespace calm::datalog

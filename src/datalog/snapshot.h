#ifndef CALM_DATALOG_SNAPSHOT_H_
#define CALM_DATALOG_SNAPSHOT_H_

#include <string>

#include "base/status.h"
#include "datalog/relstore.h"

// ---------------------------------------------------------------------------
// Durable Database snapshots (see DESIGN.md, "Durability and crash
// recovery"): one atomic record file (base/durable.h, client tag
// "calm.snapshot") holding the ValueDict in code order followed by every
// relation's SoA code columns in creation order.
//
// Process independence: symbol Values and relation ids are process-local
// interned ids (base/value.h), so both travel as name strings and re-intern
// on load. Dictionary codes, by contrast, are Database-local and dense in
// interning order — the loader re-interns the dictionary values in exactly
// that order into a fresh Database, which reproduces every code assignment,
// and then replays the code rows verbatim.
//
// Restore fidelity: the loaded database contains exactly the original's
// relations (in creation order), dictionary (in code order), rows (in
// insertion order), and overflow rows. Dedup tables are rebuilt by the
// replay, and probe indexes are rebuilt lazily on first probe. The pinned
// invariant is snapshot idempotence: re-snapshotting a loaded database
// produces a byte-identical file.
//
// Torn files: Commit publishes atomically, so a torn snapshot can only come
// from outside interference (or a crashed copy). Load detects any
// truncation — mid-record via the per-record CRCs, at record granularity
// via an explicit trailer — and fails without constructing a database.
// ---------------------------------------------------------------------------

namespace calm::datalog {

// Serializes `db` to `path` with write -> fsync -> rename -> dirsync.
Status WriteSnapshot(const Database& db, const std::string& path);

// Loads the snapshot at `path` into a fresh Database. kNotFound when the
// file is missing; kInvalidArgument when it is foreign, version-skewed,
// truncated, or fails a checksum.
Result<Database> LoadSnapshot(const std::string& path);

}  // namespace calm::datalog

#endif  // CALM_DATALOG_SNAPSHOT_H_

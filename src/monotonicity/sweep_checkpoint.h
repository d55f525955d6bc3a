#ifndef CALM_MONOTONICITY_SWEEP_CHECKPOINT_H_
#define CALM_MONOTONICITY_SWEEP_CHECKPOINT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_set>

#include "base/durable.h"
#include "base/fact.h"
#include "base/instance.h"
#include "base/status.h"

// ---------------------------------------------------------------------------
// Sweep WAL (see DESIGN.md, "Durability and crash recovery"): journals the
// progress of one exhaustive sweep — a one-cell FindViolation or a
// preservation sweep — onto the shared record format (base/durable.h,
// client tag "calm.sweepwal"), so an interrupted run resumes instead of
// restarting.
//
// The unit of progress is one candidate index of the sweep's materialized
// I space. Per-index outcomes are deterministic (the checkers' existing
// thread-count-independence argument), and the sweep's result is the
// outcome at the LEAST index with a stopping event. So the journal needs
// only: which indices finished without an event (Done), which produced one
// (Stop, with the witness or error inlined), and whether the sweep reached
// its end (Complete, with the winning index). A resumed run skips recorded
// indices, replays recorded stops into its result slots, and computes the
// same least-index winner — the verdict, witness, and stop point are
// provably those of an uninterrupted run.
//
// One WAL file per sweep identity: the file name (SweepFileId) encodes the
// query name, sweep kind, class, and every bound, and the Begin record
// pins the materialized space size — a checkpoint can never be replayed
// into a differently-shaped sweep. Records are appended write+fsync before
// the in-memory result is published, so anything a crashed run reported as
// done is durable.
// ---------------------------------------------------------------------------

namespace calm::monotonicity {

// One recorded stopping event. Both Counterexample (checker.h) and
// PreservationViolation (preservation.h) are (I, J, fact) triples, so the
// WAL stores this shared shape and the sweeps convert at the edges.
struct SweepStop {
  Status error;  // non-OK: the stop was an evaluation error (no witness)
  bool has_witness = false;
  Instance i;
  Instance j;
  Fact fact;
};

class SweepCheckpoint {
 public:
  // Opens (creating `dir` and the file as needed) the WAL for the sweep
  // identified by `sweep_id`, replaying prior progress. `space_size` is
  // journaled on creation and validated on reopen — a mismatch means the
  // checkpoint belongs to a differently-shaped sweep and is an error.
  static Result<std::unique_ptr<SweepCheckpoint>> Open(
      const std::string& dir, const std::string& sweep_id,
      uint64_t space_size);

  // Whether `idx` already has a durable outcome (Done or Stop).
  bool IsRecorded(uint64_t idx) const;
  // The recorded stop at `idx`, or nullptr. Pointers stay valid for the
  // checkpoint's lifetime (Record* never mutates replayed state).
  const SweepStop* StopAt(uint64_t idx) const;
  // Recorded stops in index order (resume seeds its slots from these).
  const std::map<uint64_t, SweepStop>& stops() const { return stops_; }

  bool complete() const { return complete_; }
  // The recorded winning index (space_size when the sweep found nothing);
  // meaningful only when complete().
  uint64_t winner() const { return winner_; }
  // Indices replayed from the file at Open (done + stopped).
  uint64_t recorded_count() const { return recorded_at_open_; }

  // Durable progress appends (thread-safe; each is one write + fsync).
  // Append failures latch into io_status() instead of being returned —
  // a sweep's verdict never depends on WAL health, but FindViolation
  // checks io_status() before certifying the checkpoint as resumable.
  void RecordDone(uint64_t idx);
  void RecordStop(uint64_t idx, const SweepStop& stop);
  void RecordComplete(uint64_t winner);

  // The first append/open failure, or OK.
  Status io_status() const;

 private:
  SweepCheckpoint() = default;

  void AppendLocked(const durable::ByteWriter& w);

  mutable std::mutex mu_;
  durable::LogWriter log_;
  Status io_status_;
  uint64_t space_ = 0;
  std::unordered_set<uint64_t> recorded_;
  std::map<uint64_t, SweepStop> stops_;
  bool complete_ = false;
  uint64_t winner_ = 0;
  uint64_t recorded_at_open_ = 0;
};

// The WAL file stem for one sweep identity:
// "<query>-<kind>-<class>-d<domain>f<fresh>i<max_i>j<max_j>", with
// non-filename characters of the query name replaced by '_'.
std::string SweepFileId(std::string_view query_name, std::string_view kind,
                        std::string_view cls, size_t domain_size,
                        size_t fresh_values, size_t max_facts_i,
                        size_t max_facts_j);

}  // namespace calm::monotonicity

#endif  // CALM_MONOTONICITY_SWEEP_CHECKPOINT_H_

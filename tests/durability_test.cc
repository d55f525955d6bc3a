// The kill-anywhere crash-recovery harness (see DESIGN.md, "Durability and
// crash recovery"): a counting pass runs a durability workload crash-free
// and records how often every failpoint site fires; then, for each
// (site, hit) pair, a forked child arms the site, runs the same workload,
// dies there with _exit, and the parent recovers the child's directory and
// asserts the result is byte-identical to a state the crash-free oracle
// actually committed. Plus the snapshot round-trip matrix, torn-tail
// repair at every byte offset, sweep-checkpoint resume, and the durable
// inbox WAL.

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "base/durable.h"
#include "base/failpoint.h"
#include "base/metrics.h"
#include "datalog/relstore.h"
#include "datalog/snapshot.h"
#include "monotonicity/checker.h"
#include "monotonicity/sweep_checkpoint.h"
#include "net/fault.h"
#include "queries/graph_queries.h"

namespace calm {
namespace {

Value V(uint64_t i) { return Value::FromInt(i); }

// A fresh directory under the test temp root; unique per call.
std::string MakeTempDir() {
  static int n = 0;
  std::string dir =
      ::testing::TempDir() + "calm_durability_" + std::to_string(::getpid()) +
      "_" + std::to_string(n++);
  EXPECT_TRUE(durable::MakeDirs(dir).ok());
  return dir;
}

bool ReadFileBytes(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

void WriteFileBytes(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

uint64_t CounterValue(const char* name) {
  return MetricRegistry::Global().GetCounter(name).Value();
}

// ---------------------------------------------------------------------------
// Snapshot round trips
// ---------------------------------------------------------------------------

// The pinned invariant: re-snapshotting a loaded database is byte-identical.
void ExpectSnapshotIdempotent(const datalog::Database& db) {
  const std::string dir = MakeTempDir();
  const std::string first = dir + "/a.snap";
  const std::string second = dir + "/b.snap";
  ASSERT_TRUE(datalog::WriteSnapshot(db, first).ok());
  Result<datalog::Database> loaded = datalog::LoadSnapshot(first);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE(datalog::WriteSnapshot(*loaded, second).ok());
  std::string a, b;
  ASSERT_TRUE(ReadFileBytes(first, &a));
  ASSERT_TRUE(ReadFileBytes(second, &b));
  EXPECT_EQ(a, b);
}

TEST(SnapshotTest, EmptyDatabaseRoundTrips) {
  datalog::Database db;
  ExpectSnapshotIdempotent(db);
  const std::string path = MakeTempDir() + "/empty.snap";
  ASSERT_TRUE(datalog::WriteSnapshot(db, path).ok());
  Result<datalog::Database> loaded = datalog::LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 0u);
}

TEST(SnapshotTest, ZeroArityRelationRoundTrips) {
  datalog::Database db;
  const uint32_t flag = InternName("Flag");
  ASSERT_TRUE(db.Insert(flag, Tuple{}));
  ASSERT_FALSE(db.Insert(flag, Tuple{}));
  const std::string path = MakeTempDir() + "/zero.snap";
  ASSERT_TRUE(datalog::WriteSnapshot(db, path).ok());
  Result<datalog::Database> loaded = datalog::LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->Contains(flag, Tuple{}));
  EXPECT_EQ(loaded->size(), 1u);
  ExpectSnapshotIdempotent(db);
}

TEST(SnapshotTest, WideTuplesSpillToOverflowAndRoundTrip) {
  datalog::Database db;
  const uint32_t wide = InternName("Wide");
  // Arity 6 exceeds the SoA inline width, exercising the overflow rows.
  const Tuple t1{V(1), V(2), V(3), V(4), V(5), V(6)};
  const Tuple t2{V(6), V(5), V(4), V(3), V(2), V(1)};
  ASSERT_TRUE(db.Insert(wide, t1));
  ASSERT_TRUE(db.Insert(wide, t2));
  const std::string path = MakeTempDir() + "/wide.snap";
  ASSERT_TRUE(datalog::WriteSnapshot(db, path).ok());
  Result<datalog::Database> loaded = datalog::LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->Contains(wide, t1));
  EXPECT_TRUE(loaded->Contains(wide, t2));
  EXPECT_FALSE(loaded->Contains(wide, Tuple{V(9), V(9), V(9), V(9), V(9),
                                            V(9)}));
  ExpectSnapshotIdempotent(db);
}

TEST(SnapshotTest, TruncationAtEveryByteOffsetFailsCleanly) {
  datalog::Database db;
  const uint32_t e = InternName("E");
  ASSERT_TRUE(db.Insert(e, {Sym("node"), V(1)}));
  ASSERT_TRUE(db.Insert(e, {V(1), V(2)}));
  ASSERT_TRUE(db.Insert(InternName("Wide"),
                        {V(1), V(2), V(3), V(4), V(5), V(6)}));
  const std::string dir = MakeTempDir();
  const std::string full = dir + "/full.snap";
  ASSERT_TRUE(datalog::WriteSnapshot(db, full).ok());
  std::string bytes;
  ASSERT_TRUE(ReadFileBytes(full, &bytes));
  ASSERT_GT(bytes.size(), 16u);

  const std::string cut = dir + "/cut.snap";
  for (size_t len = 0; len < bytes.size(); ++len) {
    WriteFileBytes(cut, std::string_view(bytes).substr(0, len));
    Result<datalog::Database> r = datalog::LoadSnapshot(cut);
    EXPECT_FALSE(r.ok()) << "truncation at byte " << len
                         << " of " << bytes.size() << " loaded successfully";
  }
  // The untruncated file still loads (the loop never corrupted it).
  EXPECT_TRUE(datalog::LoadSnapshot(full).ok());
}

TEST(SnapshotTest, MissingAndForeignFilesAreRejected) {
  const std::string dir = MakeTempDir();
  Result<datalog::Database> missing = datalog::LoadSnapshot(dir + "/nope");
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  // A valid record file with a different client tag must not load.
  durable::FileWriter foreign("calm.other");
  foreign.Append("payload");
  ASSERT_TRUE(foreign.Commit(dir + "/foreign").ok());
  Result<datalog::Database> r = datalog::LoadSnapshot(dir + "/foreign");
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// WAL torn tails
// ---------------------------------------------------------------------------

TEST(RecordFileTest, TornTailIsAPrefixAtEveryByteOffset) {
  const std::string dir = MakeTempDir();
  const std::string full = dir + "/full.wal";
  const std::vector<std::string> records = {"alpha", "bee", "gamma-gamma"};
  {
    durable::LogWriter wal;
    ASSERT_TRUE(wal.Open(full, "calm.test", nullptr).ok());
    for (const std::string& r : records) ASSERT_TRUE(wal.Append(r).ok());
  }
  std::string bytes;
  ASSERT_TRUE(ReadFileBytes(full, &bytes));

  size_t readable = 0;
  const std::string cut = dir + "/cut.wal";
  for (size_t len = 0; len < bytes.size(); ++len) {
    WriteFileBytes(cut, std::string_view(bytes).substr(0, len));
    Result<durable::ReadResult> r =
        durable::ReadRecordFile(cut, "calm.test", /*repair_torn_tail=*/false);
    if (!r.ok()) {
      // Only a header cut may make the file unreadable.
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
      continue;
    }
    ++readable;
    ASSERT_LE(r->records.size(), records.size());
    for (size_t i = 0; i < r->records.size(); ++i) {
      EXPECT_EQ(r->records[i], records[i]) << "at truncation " << len;
    }
    // Anything after the last full record is a torn tail.
    EXPECT_EQ(r->torn, r->valid_bytes != len);
  }
  EXPECT_GT(readable, 0u);
}

TEST(RecordFileTest, RepairedTornTailAcceptsNewAppends) {
  const std::string dir = MakeTempDir();
  const std::string path = dir + "/resume.wal";
  {
    durable::LogWriter wal;
    ASSERT_TRUE(wal.Open(path, "calm.test", nullptr).ok());
    ASSERT_TRUE(wal.Append("kept").ok());
  }
  // Simulate a crash mid-append: garbage after the last durable record.
  std::string bytes;
  ASSERT_TRUE(ReadFileBytes(path, &bytes));
  WriteFileBytes(path, bytes + "\x03\x00\x00\x00torn");

  std::vector<std::string> replayed;
  durable::LogWriter wal;
  ASSERT_TRUE(wal.Open(path, "calm.test", &replayed).ok());
  ASSERT_EQ(replayed.size(), 1u);
  EXPECT_EQ(replayed[0], "kept");
  ASSERT_TRUE(wal.Append("after").ok());
  wal.Close();

  Result<durable::ReadResult> r =
      durable::ReadRecordFile(path, "calm.test", /*repair_torn_tail=*/false);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->torn);
  ASSERT_EQ(r->records.size(), 2u);
  EXPECT_EQ(r->records[1], "after");
}

// ---------------------------------------------------------------------------
// Kill-anywhere fuzzer
// ---------------------------------------------------------------------------

// The fuzzed workload: snapshot-commit A, three WAL appends, snapshot-commit
// C over A. Every failpoint site in the durability layer fires at least once
// (snapshot sites twice: two commits).
Status RunCrashWorkload(const std::string& dir) {
  datalog::Database db;
  const uint32_t e = InternName("E");
  db.Insert(e, {V(1), V(2)});
  db.Insert(e, {Sym("anchor"), V(3)});
  CALM_RETURN_IF_ERROR(datalog::WriteSnapshot(db, dir + "/state.snap"));

  durable::LogWriter wal;
  CALM_RETURN_IF_ERROR(wal.Open(dir + "/delta.wal", "calm.test", nullptr));
  for (const char* r : {"delta-0", "delta-1", "delta-2"}) {
    CALM_RETURN_IF_ERROR(wal.Append(r));
  }
  wal.Close();

  db.Insert(e, {V(3), V(1)});
  CALM_RETURN_IF_ERROR(datalog::WriteSnapshot(db, dir + "/state.snap"));
  return Status::Ok();
}

// Recovery oracle: after a crash anywhere in RunCrashWorkload,
//  * the snapshot is absent or byte-identical to committed state A or C
//    (and loads, and re-snapshots to the same bytes);
//  * the WAL is absent or replays to a prefix of the appended records;
//  * if state C is visible, every append had been acknowledged first.
void CheckRecovered(const std::string& dir, const std::string& oracle_a,
                    const std::string& oracle_c) {
  std::string snap;
  const bool have_snap = ReadFileBytes(dir + "/state.snap", &snap);
  if (have_snap) {
    EXPECT_TRUE(snap == oracle_a || snap == oracle_c)
        << "recovered snapshot matches no committed state";
    Result<datalog::Database> db = datalog::LoadSnapshot(dir + "/state.snap");
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    const std::string again = dir + "/again.snap";
    ASSERT_TRUE(datalog::WriteSnapshot(*db, again).ok());
    std::string rewritten;
    ASSERT_TRUE(ReadFileBytes(again, &rewritten));
    EXPECT_EQ(rewritten, snap);
  }

  const std::vector<std::string> expected = {"delta-0", "delta-1", "delta-2"};
  Result<durable::ReadResult> wal = durable::ReadRecordFile(
      dir + "/delta.wal", "calm.test", /*repair_torn_tail=*/true);
  if (!wal.ok()) {
    EXPECT_EQ(wal.status().code(), StatusCode::kNotFound);
    EXPECT_TRUE(!have_snap || snap == oracle_a)
        << "WAL missing after the second snapshot committed";
    return;
  }
  ASSERT_LE(wal->records.size(), expected.size());
  for (size_t i = 0; i < wal->records.size(); ++i) {
    EXPECT_EQ(wal->records[i], expected[i]);
  }
  if (have_snap && snap == oracle_c) {
    EXPECT_EQ(wal->records.size(), expected.size())
        << "acknowledged append lost although a later commit survived";
  }
  // The repaired log accepts appends — recovery leaves a live WAL.
  std::vector<std::string> replayed;
  durable::LogWriter resume;
  ASSERT_TRUE(resume.Open(dir + "/delta.wal", "calm.test", &replayed).ok());
  EXPECT_EQ(replayed.size(), wal->records.size());
  EXPECT_TRUE(resume.Append("post-crash").ok());
}

TEST(KillAnywhereTest, EveryCrashSiteRecoversToACommittedState) {
  if (!failpoint::FailpointsCompiledIn()) {
    GTEST_SKIP() << "built with CALM_FAILPOINTS=OFF";
  }
  // Counting pass: the crash-free oracle, recording per-site hit counts.
  failpoint::SetCounting(true);
  const std::string oracle_dir = MakeTempDir();
  const Status oracle_status = RunCrashWorkload(oracle_dir);
  const std::vector<std::pair<std::string, uint64_t>> counts =
      failpoint::HitCounts();
  failpoint::SetCounting(false);
  ASSERT_TRUE(oracle_status.ok()) << oracle_status.ToString();
  ASSERT_FALSE(counts.empty());

  // The two committed snapshot states: A (before the WAL) and C (final).
  std::string oracle_c;
  ASSERT_TRUE(ReadFileBytes(oracle_dir + "/state.snap", &oracle_c));
  std::string oracle_a;
  {
    datalog::Database db;
    const uint32_t e = InternName("E");
    db.Insert(e, {V(1), V(2)});
    db.Insert(e, {Sym("anchor"), V(3)});
    const std::string a_path = MakeTempDir() + "/a.snap";
    ASSERT_TRUE(datalog::WriteSnapshot(db, a_path).ok());
    ASSERT_TRUE(ReadFileBytes(a_path, &oracle_a));
  }
  ASSERT_NE(oracle_a, oracle_c);

  size_t crash_points = 0;
  for (const auto& [site, hits] : counts) {
    for (uint64_t hit = 1; hit <= hits; ++hit) {
      SCOPED_TRACE(site + ":" + std::to_string(hit));
      const std::string dir = MakeTempDir();
      const pid_t pid = ::fork();
      ASSERT_GE(pid, 0);
      if (pid == 0) {
        // Child: die at the armed boundary; any other exit is a test bug.
        failpoint::Arm(site, hit);
        const Status s = RunCrashWorkload(dir);
        ::_exit(s.ok() ? 7 : 8);
      }
      int wstatus = 0;
      ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
      ASSERT_TRUE(WIFEXITED(wstatus));
      ASSERT_EQ(WEXITSTATUS(wstatus), failpoint::kCrashExitCode)
          << "armed site did not fire (or workload failed before it)";
      CheckRecovered(dir, oracle_a, oracle_c);
      ++crash_points;
    }
  }
  // 2 snapshot commits x 4 sites, 1 WAL creation x 4, 3 appends x 3.
  EXPECT_GE(crash_points, 21u);
}

// ---------------------------------------------------------------------------
// Sweep checkpoint resume
// ---------------------------------------------------------------------------

monotonicity::ExhaustiveOptions SmallSweep(const std::string& checkpoint_dir) {
  monotonicity::ExhaustiveOptions o;
  o.domain_size = 2;
  o.max_facts_i = 2;
  o.fresh_values = 2;
  o.max_facts_j = 2;
  o.threads = 1;  // keep this process fork-safe
  o.checkpoint_dir = checkpoint_dir;
  return o;
}

TEST(SweepCheckpointTest, FileIdSanitizesQueryNames) {
  EXPECT_EQ(monotonicity::SweepFileId("a b/c.q", "fv", "M", 3, 2, 1, 4),
            "a_b_c_q-fv-M-d3f2i1j4");
}

TEST(SweepCheckpointTest, RerunShortCircuitsToTheRecordedVerdict) {
  SetMetricsEnabled(true);
  auto q = queries::MakeStarQuery(2);  // not monotone: has a counterexample
  const std::string dir = MakeTempDir();

  Result<std::optional<monotonicity::Counterexample>> first =
      monotonicity::FindViolation(*q, monotonicity::MonotonicityClass::kMonotone,
                                  SmallSweep(dir));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(first->has_value());

  const uint64_t resumes_before = CounterValue("calm.durable.sweep_resumes");
  Result<std::optional<monotonicity::Counterexample>> second =
      monotonicity::FindViolation(*q, monotonicity::MonotonicityClass::kMonotone,
                                  SmallSweep(dir));
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  ASSERT_TRUE(second->has_value());
  // Identical verdict, witness, and stop point.
  EXPECT_EQ(second->value().ToString(), first->value().ToString());
  EXPECT_GT(CounterValue("calm.durable.sweep_resumes"), resumes_before);
}

TEST(SweepCheckpointTest, CheckpointedNoViolationVerdictIsStable) {
  auto q = queries::MakeTransitiveClosure();  // monotone: full sweep
  const std::string dir = MakeTempDir();
  for (int run = 0; run < 2; ++run) {
    Result<std::optional<monotonicity::Counterexample>> r =
        monotonicity::FindViolation(
            *q, monotonicity::MonotonicityClass::kMonotone, SmallSweep(dir));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_FALSE(r->has_value()) << "run " << run;
  }
}

TEST(SweepCheckpointTest, KilledSweepResumesToTheOracleVerdict) {
  if (!failpoint::FailpointsCompiledIn()) {
    GTEST_SKIP() << "built with CALM_FAILPOINTS=OFF";
  }
  SetMetricsEnabled(true);
  auto q = queries::MakeStarQuery(2);
  const auto cls = monotonicity::MonotonicityClass::kMonotone;

  // Crash-free oracle verdict, no checkpoint.
  Result<std::optional<monotonicity::Counterexample>> oracle =
      monotonicity::FindViolation(*q, cls, SmallSweep(""));
  ASSERT_TRUE(oracle.ok());
  ASSERT_TRUE(oracle->has_value());

  // Count how many durable records a checkpointed run writes.
  failpoint::SetCounting(true);
  Result<std::optional<monotonicity::Counterexample>> counted =
      monotonicity::FindViolation(*q, cls, SmallSweep(MakeTempDir()));
  const std::vector<std::pair<std::string, uint64_t>> counts =
      failpoint::HitCounts();
  failpoint::SetCounting(false);
  ASSERT_TRUE(counted.ok());
  uint64_t synced = 0;
  for (const auto& [site, hits] : counts) {
    if (site == "durable.wal.synced") synced = hits;
  }
  ASSERT_GT(synced, 2u) << "sweep journaled too little to kill mid-way";

  // Kill a child roughly half-way through the journal.
  const std::string dir = MakeTempDir();
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    failpoint::Arm("durable.wal.synced", synced / 2 + 1);
    Result<std::optional<monotonicity::Counterexample>> r =
        monotonicity::FindViolation(*q, cls, SmallSweep(dir));
    ::_exit(r.ok() ? 7 : 8);
  }
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  ASSERT_EQ(WEXITSTATUS(wstatus), failpoint::kCrashExitCode);

  // Resume in this process: identical verdict, and the child's durable
  // progress is actually skipped, not recomputed.
  const uint64_t skipped_before = CounterValue("calm.durable.sweep_skipped");
  const uint64_t resumes_before = CounterValue("calm.durable.sweep_resumes");
  Result<std::optional<monotonicity::Counterexample>> resumed =
      monotonicity::FindViolation(*q, cls, SmallSweep(dir));
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ASSERT_TRUE(resumed->has_value());
  EXPECT_EQ(resumed->value().ToString(), oracle->value().ToString());
  EXPECT_GT(CounterValue("calm.durable.sweep_resumes"), resumes_before);
  EXPECT_GT(CounterValue("calm.durable.sweep_skipped"), skipped_before);
}

TEST(SweepCheckpointTest, MismatchedSpaceSizeIsRejected) {
  const std::string dir = MakeTempDir();
  {
    Result<std::unique_ptr<monotonicity::SweepCheckpoint>> ckpt =
        monotonicity::SweepCheckpoint::Open(dir, "sweep", 10);
    ASSERT_TRUE(ckpt.ok());
    (*ckpt)->RecordDone(3);
    ASSERT_TRUE((*ckpt)->io_status().ok());
  }
  Result<std::unique_ptr<monotonicity::SweepCheckpoint>> reopened =
      monotonicity::SweepCheckpoint::Open(dir, "sweep", 10);
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE((*reopened)->IsRecorded(3));
  EXPECT_EQ((*reopened)->recorded_count(), 1u);

  Result<std::unique_ptr<monotonicity::SweepCheckpoint>> skewed =
      monotonicity::SweepCheckpoint::Open(dir, "sweep", 11);
  EXPECT_EQ(skewed.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Durable inboxes (net/fault.h)
// ---------------------------------------------------------------------------

TEST(DurableInboxTest, InboxesSurviveAProcessRestart) {
  const std::string dir = MakeTempDir();
  {
    net::FaultPlan plan = net::FaultPlan::Scripted({});
    plan.EnableDurableInboxes(dir);
    plan.BindNetwork(2);
    Instance facts;
    facts.Insert(Fact("M", {V(1)}));
    facts.Insert(Fact("M", {V(2)}));
    plan.OnDeliver(0, facts);
    plan.OnDeliver(0, facts);  // redelivery: set semantics, no new records
    Instance other;
    other.Insert(Fact("M", {V(3)}));
    plan.OnDeliver(1, other);
    ASSERT_TRUE(plan.durable_status().ok())
        << plan.durable_status().ToString();
  }
  // Exactly one record per distinct fact, despite the redelivery.
  Result<durable::ReadResult> wal = durable::ReadRecordFile(
      dir + "/inbox-0.wal", "calm.inbox", /*repair_torn_tail=*/false);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  EXPECT_EQ(wal->records.size(), 2u);

  // "Restart": a fresh plan over the same directory replays the inboxes.
  net::FaultPlan plan = net::FaultPlan::Scripted({});
  plan.EnableDurableInboxes(dir);
  plan.BindNetwork(2);
  ASSERT_TRUE(plan.durable_status().ok()) << plan.durable_status().ToString();
  EXPECT_TRUE(plan.InboxOf(0).Contains(Fact("M", {V(1)})));
  EXPECT_TRUE(plan.InboxOf(0).Contains(Fact("M", {V(2)})));
  EXPECT_EQ(plan.InboxOf(0).size(), 2u);
  EXPECT_TRUE(plan.InboxOf(1).Contains(Fact("M", {V(3)})));
  EXPECT_EQ(plan.InboxOf(1).size(), 1u);
}

TEST(DurableInboxTest, TornInboxTailIsRepairedOnRebind) {
  const std::string dir = MakeTempDir();
  {
    net::FaultPlan plan = net::FaultPlan::Scripted({});
    plan.EnableDurableInboxes(dir);
    plan.BindNetwork(1);
    Instance facts;
    facts.Insert(Fact("M", {V(7)}));
    plan.OnDeliver(0, facts);
    ASSERT_TRUE(plan.durable_status().ok());
  }
  // A crash mid-append leaves trailing garbage.
  std::string bytes;
  ASSERT_TRUE(ReadFileBytes(dir + "/inbox-0.wal", &bytes));
  WriteFileBytes(dir + "/inbox-0.wal", bytes + "\x09\x00torn!");

  net::FaultPlan plan = net::FaultPlan::Scripted({});
  plan.EnableDurableInboxes(dir);
  plan.BindNetwork(1);
  ASSERT_TRUE(plan.durable_status().ok()) << plan.durable_status().ToString();
  EXPECT_TRUE(plan.InboxOf(0).Contains(Fact("M", {V(7)})));
  EXPECT_EQ(plan.InboxOf(0).size(), 1u);
  // Appends resume cleanly after the repair.
  Instance more;
  more.Insert(Fact("M", {V(8)}));
  plan.OnDeliver(0, more);
  ASSERT_TRUE(plan.durable_status().ok());
  Result<durable::ReadResult> wal = durable::ReadRecordFile(
      dir + "/inbox-0.wal", "calm.inbox", /*repair_torn_tail=*/false);
  ASSERT_TRUE(wal.ok());
  EXPECT_EQ(wal->records.size(), 2u);
  EXPECT_FALSE(wal->torn);
}

}  // namespace
}  // namespace calm

// The kill-anywhere crash-recovery harness (see DESIGN.md, "Durability and
// crash recovery"): a counting pass runs a durability workload crash-free
// and records how often every failpoint site fires; then, for each
// (site, hit) pair, a forked child arms the site, runs the same workload,
// dies there with _exit, and the parent recovers the child's directory and
// asserts the result is a state the crash-free oracle actually passed
// through. Plus torn-tail repair at every byte offset, the record codecs on
// hostile lengths, and sweep-checkpoint resume and validation.

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "base/durable.h"
#include "base/failpoint.h"
#include "base/metrics.h"
#include "monotonicity/checker.h"
#include "monotonicity/sweep_checkpoint.h"
#include "queries/graph_queries.h"
#include "workload/fuzzer.h"

namespace calm {
namespace {

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

// The iSCSI known-answer vector; tools/test_wal_dump.py pins the same value
// for the Python decoder.
TEST(Crc32cTest, KnownAnswer) {
  EXPECT_EQ(durable::Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(durable::Crc32c("", 0), 0u);
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

TEST(RecordFileTest, MissingAndForeignFilesAreRejected) {
  const std::string dir = MakeTempDir();
  Result<durable::ReadResult> missing =
      durable::ReadRecordFile(dir + "/nope", "calm.test", false);
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  // A valid record file with a different client tag must not replay.
  const std::string path = dir + "/foreign.wal";
  {
    durable::LogWriter wal;
    ASSERT_TRUE(wal.Open(path, "calm.other", nullptr).ok());
    ASSERT_TRUE(wal.Append("payload").ok());
  }
  Result<durable::ReadResult> r =
      durable::ReadRecordFile(path, "calm.test", false);
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  durable::LogWriter wal;
  EXPECT_EQ(wal.Open(path, "calm.test", nullptr).code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Codecs on hostile lengths
// ---------------------------------------------------------------------------

// A tuple count claiming 2^32-1 values, followed by a single byte: decoding
// must fail on the short read, not size the tuple from the count first.
constexpr uint32_t kHugeCount = 0xFFFFFFFFu;

TEST(CodecTest, DecodeTupleRejectsAnUncheckedLength) {
  durable::ByteWriter w;
  w.U32(kHugeCount);
  w.U8(0);  // Value::Kind::kInt, with its u64 payload missing
  ASSERT_EQ(w.data().size(), 5u);
  durable::ByteReader r(w.data());
  Tuple t;
  EXPECT_FALSE(durable::DecodeTuple(&r, &t));
}

// ---------------------------------------------------------------------------
// Kill-anywhere fuzzer
// ---------------------------------------------------------------------------

// The fuzzed workload: log A takes three appends, then log B is created
// and takes one commit record. Every failpoint site a LogWriter passes fires
// at least once (creation sites twice: two logs).
const std::vector<std::string> kDeltas = {"delta-0", "delta-1", "delta-2"};

Status RunCrashWorkload(const std::string& dir) {
  durable::LogWriter a;
  CALM_RETURN_IF_ERROR(a.Open(dir + "/a.wal", "calm.test", nullptr));
  for (const std::string& r : kDeltas) CALM_RETURN_IF_ERROR(a.Append(r));
  a.Close();

  durable::LogWriter b;
  CALM_RETURN_IF_ERROR(b.Open(dir + "/b.wal", "calm.test", nullptr));
  return b.Append("commit");
}

// Recovery check for one log: absent, or a prefix of `expected` after
// torn-tail repair; either way it (re)opens and accepts an append. Returns
// the surviving record count (0 when absent).
size_t RecoverLog(const std::string& path,
                  const std::vector<std::string>& expected) {
  size_t survived = 0;
  Result<durable::ReadResult> log =
      durable::ReadRecordFile(path, "calm.test", /*repair_torn_tail=*/true);
  if (!log.ok()) {
    EXPECT_EQ(log.status().code(), StatusCode::kNotFound) << path;
  } else {
    EXPECT_LE(log->records.size(), expected.size()) << path;
    for (size_t i = 0; i < log->records.size() && i < expected.size(); ++i) {
      EXPECT_EQ(log->records[i], expected[i]) << path;
    }
    survived = log->records.size();
  }
  // Recovery leaves a live log: the repaired (or freshly created) file
  // replays what survived and accepts appends.
  std::vector<std::string> replayed;
  durable::LogWriter resume;
  Status open = resume.Open(path, "calm.test", &replayed);
  EXPECT_TRUE(open.ok()) << open.ToString();
  EXPECT_EQ(replayed.size(), survived) << path;
  EXPECT_TRUE(resume.Append("post-crash").ok()) << path;
  return survived;
}

// Recovery oracle: after a crash anywhere in RunCrashWorkload, each log is
// absent or a prefix of what was appended to it, and B's existence implies
// that every append to A had been acknowledged first.
void CheckRecovered(const std::string& dir) {
  const bool b_exists = std::filesystem::exists(dir + "/b.wal");
  const size_t a_records = RecoverLog(dir + "/a.wal", kDeltas);
  RecoverLog(dir + "/b.wal", {"commit"});
  if (b_exists) {
    EXPECT_EQ(a_records, kDeltas.size())
        << "acknowledged append lost although a later log survived";
  }
}

// CALM_FAILPOINT's spec: site:hit over the sites failpoint::kSites lists.
// A mistyped or deleted site name is refused, listing the known ones, so a
// kill-and-resume run armed with it cannot pass without ever crashing.
TEST(FailpointTest, SpecParserAcceptsOnlyKnownSites) {
  Result<std::pair<std::string, uint64_t>> ok =
      failpoint::ParseSpec("durable.wal.fsync:3");
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_EQ(ok->first, "durable.wal.fsync");
  EXPECT_EQ(ok->second, 3u);
  Result<std::pair<std::string, uint64_t>> bare =
      failpoint::ParseSpec("durable.wal.truncate");
  ASSERT_TRUE(bare.ok()) << bare.status();
  EXPECT_EQ(bare->second, 1u);

  Result<std::pair<std::string, uint64_t>> typo =
      failpoint::ParseSpec("durable.fsync:3");
  ASSERT_FALSE(typo.ok());
  EXPECT_EQ(typo.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(typo.status().message().find("'durable.fsync'"),
            std::string::npos);
  for (std::string_view site : failpoint::kSites) {
    EXPECT_NE(typo.status().message().find(site), std::string::npos) << site;
  }
  for (const char* bad : {"durable.wal.fsync:0", "durable.wal.fsync:",
                          "durable.wal.fsync:-1", "durable.wal.fsync:3x",
                          "durable.wal.fsync:99999999999999999999"}) {
    Result<std::pair<std::string, uint64_t>> r = failpoint::ParseSpec(bad);
    ASSERT_FALSE(r.ok()) << bad;
    EXPECT_NE(r.status().message().find("malformed hit count"),
              std::string::npos)
        << bad;
  }
  EXPECT_EQ(failpoint::Arm("durable.fsync", 3).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(failpoint::Arm("durable.snapshot.rename", 1).code(),
            StatusCode::kInvalidArgument);
}

TEST(KillAnywhereTest, EveryCrashSiteRecoversToACommittedState) {
  // Counting pass: the crash-free oracle, recording per-site hit counts.
  failpoint::SetCounting(true);
  const Status oracle_status = RunCrashWorkload(MakeTempDir());
  const std::vector<std::pair<std::string, uint64_t>> counts =
      failpoint::HitCounts();
  failpoint::SetCounting(false);
  ASSERT_TRUE(oracle_status.ok()) << oracle_status.ToString();

  // Every write-path site of the durable layer fires (the repair-only
  // durable.wal.truncate needs a torn tail, which a crash-free run lacks).
  std::vector<std::string> sites;
  for (const auto& [site, hits] : counts) {
    EXPECT_TRUE(failpoint::IsKnownSite(site)) << site;
    sites.push_back(site);
  }
  EXPECT_EQ(sites, (std::vector<std::string>{
                       "durable.wal.append", "durable.wal.create.dirsync",
                       "durable.wal.create.fsync", "durable.wal.create.rename",
                       "durable.wal.create.write", "durable.wal.fsync",
                       "durable.wal.synced"}));

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
      CheckRecovered(dir);
      ++crash_points;
    }
  }
  // 2 log creations x 4 sites, 4 appends x 3 sites.
  EXPECT_GE(crash_points, 20u);
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

// Sweep-WAL record types (monotonicity/sweep_checkpoint.cc).
constexpr uint8_t kSweepBegin = 1;
constexpr uint8_t kSweepStopCex = 3;
constexpr uint8_t kSweepStopError = 4;
constexpr uint8_t kSweepComplete = 5;

// Writes a record file with valid CRCs, so only the payloads are hostile.
void WriteLog(const std::string& path, std::string_view tag,
              const std::vector<std::string>& payloads) {
  durable::LogWriter wal;
  ASSERT_TRUE(wal.Open(path, tag, nullptr).ok());
  for (const std::string& p : payloads) ASSERT_TRUE(wal.Append(p).ok());
}

TEST(SweepCheckpointTest, WitnessWithAnUncheckedTupleLengthIsRejected) {
  const std::string dir = MakeTempDir();
  durable::ByteWriter begin;
  begin.U8(kSweepBegin);
  begin.U64(10);
  durable::ByteWriter stop;
  stop.U8(kSweepStopCex);
  stop.U64(0);
  durable::EncodeInstance(Instance(), &stop);  // i
  durable::EncodeInstance(Instance(), &stop);  // j
  stop.Str("O");
  stop.U32(kHugeCount);  // the retracted fact's arity
  stop.U8(0);
  WriteLog(dir + "/sweep.wal", "calm.sweepwal", {begin.Take(), stop.Take()});

  Result<std::unique_ptr<monotonicity::SweepCheckpoint>> ckpt =
      monotonicity::SweepCheckpoint::Open(dir, "sweep", 10);
  EXPECT_EQ(ckpt.status().code(), StatusCode::kInvalidArgument);
}

TEST(SweepCheckpointTest, StopErrorWithAnOkCodeIsRejected) {
  // A journal of Begin, StopError(idx 0, code 0) and Complete(0) would
  // replay as a completed sweep whose winner has neither witness nor error,
  // i.e. "no violation" for a query that has one.
  auto q = queries::MakeStarQuery(2);
  const auto cls = monotonicity::MonotonicityClass::kMonotone;
  const std::string real = MakeTempDir();
  ASSERT_TRUE(monotonicity::FindViolation(*q, cls, SmallSweep(real)).ok());
  std::vector<std::filesystem::path> wals;
  for (const auto& e : std::filesystem::directory_iterator(real)) {
    wals.push_back(e.path());
  }
  ASSERT_EQ(wals.size(), 1u);
  Result<durable::ReadResult> journal =
      durable::ReadRecordFile(wals[0].string(), "calm.sweepwal", false);
  ASSERT_TRUE(journal.ok());
  ASSERT_FALSE(journal->records.empty());

  for (uint32_t code : {0u, 7u, 99u}) {
    SCOPED_TRACE(code);
    const std::string forged = MakeTempDir();
    durable::ByteWriter stop;
    stop.U8(kSweepStopError);
    stop.U64(0);
    stop.U32(code);
    stop.Str("");
    durable::ByteWriter complete;
    complete.U8(kSweepComplete);
    complete.U64(0);
    WriteLog(forged + "/" + wals[0].filename().string(), "calm.sweepwal",
             {journal->records[0], stop.Take(), complete.Take()});
    Result<std::optional<monotonicity::Counterexample>> r =
        monotonicity::FindViolation(*q, cls, SmallSweep(forged));
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
}

// ---------------------------------------------------------------------------
// Fuzz corpus (workload/fuzzer.h)
// ---------------------------------------------------------------------------

TEST(CorpusTest, WitnessWithAnUncheckedTupleLengthIsRejected) {
  workload::CorpusRecord record;
  record.seed = 5;
  record.text = "O(x) :- E(x, y).\n.output O\n";
  durable::ByteWriter w;
  workload::EncodeCorpusRecord(record, &w);
  // Swap the trailing zero ladder-row count for one row whose M witness
  // claims a retracted fact of 2^32-1 values.
  std::string payload = w.Take();
  payload.resize(payload.size() - 4);
  durable::ByteWriter row;
  row.U32(1);         // ladder rows
  row.U64(1);         // row.i
  row.U8(0);          // membership bits
  row.U8(1);          // m_witness present
  durable::EncodeInstance(Instance(), &row);  // i
  durable::EncodeInstance(Instance(), &row);  // j
  row.Str("O");
  row.U32(kHugeCount);
  row.U8(0);
  payload += row.data();
  const std::string path = MakeTempDir() + "/corpus.wal";
  WriteLog(path, workload::kCorpusTag, {payload});

  workload::Corpus corpus;
  EXPECT_EQ(corpus.Open(path).code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace calm

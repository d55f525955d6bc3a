// Tests for the program fuzzer (workload/fuzzer.h): generator determinism
// and fragment coverage, corpus round-trips (including torn-tail repair and
// a kill-anywhere resume), a pinned mini-survey, and the injected-
// misclassification negative control.

#include "workload/fuzzer.h"

#include <sys/wait.h>
#include <unistd.h>

#include <fstream>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "base/durable.h"
#include "base/failpoint.h"
#include "base/trace.h"
#include "datalog/parser.h"
#include "datalog/program.h"

namespace calm::workload {
namespace {

std::string MakeTempDir() {
  static int n = 0;
  std::string dir = ::testing::TempDir() + "calm_fuzzer_" +
                    std::to_string(::getpid()) + "_" + std::to_string(n++);
  EXPECT_TRUE(durable::MakeDirs(dir).ok());
  return dir;
}

const ProgramShape kAllShapes[] = {
    ProgramShape::kPositive,      ProgramShape::kInequality,
    ProgramShape::kSemiPositive,  ProgramShape::kConnected,
    ProgramShape::kSemiConnected, ProgramShape::kStratified,
    ProgramShape::kWinMove,
};

// The fragment name each shape must classify to (the generator forces the
// distinguishing syntax, so this is exact, not statistical).
const char* WantFragment(ProgramShape shape) {
  switch (shape) {
    case ProgramShape::kPositive:
      return "Datalog";
    case ProgramShape::kInequality:
      return "Datalog(!=)";
    case ProgramShape::kSemiPositive:
      return "SP-Datalog";
    case ProgramShape::kConnected:
      return "con-Datalog~";
    case ProgramShape::kSemiConnected:
      return "semicon-Datalog~";
    case ProgramShape::kStratified:
      return "Datalog~";
    case ProgramShape::kWinMove:
      return "unstratifiable";
  }
  return "?";
}

TEST(FuzzerGenerator, DeterministicPerSeed) {
  for (ProgramShape shape : kAllShapes) {
    for (uint64_t seed : {0ull, 1ull, 17ull, 0xFFFFFFFFFFFFull}) {
      FuzzerOptions o;
      o.seed = seed;
      o.shape = shape;
      GeneratedProgram a = GenerateProgram(o);
      GeneratedProgram b = GenerateProgram(o);
      EXPECT_EQ(a.text, b.text)
          << ProgramShapeName(shape) << " seed " << seed;
      EXPECT_EQ(a.seed, seed);
      EXPECT_EQ(a.shape, shape);
    }
  }
  // Different seeds actually explore the space.
  std::set<std::string> texts;
  for (uint64_t seed = 0; seed < 10; ++seed) {
    FuzzerOptions o;
    o.seed = seed;
    o.shape = ProgramShape::kConnected;
    texts.insert(GenerateProgram(o).text);
  }
  EXPECT_GE(texts.size(), 5u);
}

TEST(FuzzerGenerator, EveryShapeLandsInItsFragment) {
  for (ProgramShape shape : kAllShapes) {
    for (uint64_t seed = 0; seed < 25; ++seed) {
      FuzzerOptions o;
      o.seed = seed;
      o.shape = shape;
      GeneratedProgram gp = GenerateProgram(o);
      Result<datalog::Program> parsed = datalog::Parse(gp.text);
      ASSERT_TRUE(parsed.ok()) << gp.text << parsed.status().ToString();
      Result<datalog::DatalogQuery> q =
          datalog::DatalogQuery::Create(*parsed, "t", gp.semantics);
      ASSERT_TRUE(q.ok()) << gp.text << q.status().ToString();
      EXPECT_EQ(q->fragment().FragmentName(), WantFragment(shape)) << gp.text;
    }
  }
}

TEST(FuzzerGenerator, KnobRangesStayValidAndInFragment) {
  for (ProgramShape shape : kAllShapes) {
    for (size_t arity = 1; arity <= 3; ++arity) {
      for (size_t strata = 1; strata <= 3; ++strata) {
        FuzzerOptions o;
        o.seed = 7;
        o.shape = shape;
        o.max_arity = arity;
        o.max_strata = strata;
        o.max_rules = 4;
        o.max_body_atoms = 4;
        o.constants = 3;
        GeneratedProgram gp = GenerateProgram(o);
        Result<datalog::Program> parsed = datalog::Parse(gp.text);
        ASSERT_TRUE(parsed.ok()) << gp.text;
        Result<datalog::DatalogQuery> q =
            datalog::DatalogQuery::Create(*parsed, "t", gp.semantics);
        ASSERT_TRUE(q.ok()) << gp.text << q.status().ToString();
        EXPECT_EQ(q->fragment().FragmentName(), WantFragment(shape))
            << gp.text;
      }
    }
  }
}

CorpusRecord SampleRecord(uint64_t seed) {
  CorpusRecord rec;
  rec.seed = seed;
  rec.shape = ProgramShape::kSemiPositive;
  rec.semantics = datalog::DatalogQuery::Semantics::kStratified;
  rec.text = "O(x) :- F(x), !E(x, x).\n.output O\n";
  rec.fragment = "SP-Datalog";
  rec.class_bucket = "Mdistinct";
  rec.strategy = "absence";
  rec.conformant = true;
  rec.bsp_supersteps = 3;
  rec.stats.derived_facts = 4;
  rec.stats.fixpoint_rounds = 2;
  rec.stats.rule_applications = 9;
  monotonicity::LadderRow row;
  row.i = 1;
  row.in_m = false;
  row.in_distinct = true;
  row.in_disjoint = true;
  monotonicity::Counterexample cex;
  cex.i.Insert(Fact("F", {Value::FromInt(1)}));
  cex.j.Insert(Fact("E", {Value::FromInt(1), Value::FromInt(1)}));
  cex.retracted = Fact("O", {Value::FromInt(1)});
  row.m_witness = cex;
  rec.ladder.rows.push_back(row);
  monotonicity::LadderRow row2;
  row2.i = 2;
  row2.in_m = false;
  row2.in_distinct = true;
  row2.in_disjoint = true;
  rec.ladder.rows.push_back(row2);
  return rec;
}

TEST(FuzzerCorpus, RecordRoundTrip) {
  CorpusRecord rec = SampleRecord(42);
  durable::ByteWriter w;
  EncodeCorpusRecord(rec, &w);
  durable::ByteReader r(w.data());
  CorpusRecord back;
  ASSERT_TRUE(DecodeCorpusRecord(&r, &back));
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(back.seed, rec.seed);
  EXPECT_EQ(back.shape, rec.shape);
  EXPECT_EQ(back.semantics, rec.semantics);
  EXPECT_EQ(back.text, rec.text);
  EXPECT_EQ(back.fragment, rec.fragment);
  EXPECT_EQ(back.class_bucket, rec.class_bucket);
  EXPECT_EQ(back.strategy, rec.strategy);
  EXPECT_EQ(back.conformant, rec.conformant);
  EXPECT_EQ(back.bsp_supersteps, rec.bsp_supersteps);
  EXPECT_EQ(back.stats.derived_facts, rec.stats.derived_facts);
  EXPECT_EQ(back.stats.fixpoint_rounds, rec.stats.fixpoint_rounds);
  EXPECT_EQ(back.stats.rule_applications, rec.stats.rule_applications);
  ASSERT_EQ(back.ladder.rows.size(), 2u);
  EXPECT_FALSE(back.ladder.rows[0].in_m);
  EXPECT_TRUE(back.ladder.rows[0].in_distinct);
  ASSERT_TRUE(back.ladder.rows[0].m_witness.has_value());
  EXPECT_EQ(back.ladder.rows[0].m_witness->i, rec.ladder.rows[0].m_witness->i);
  EXPECT_EQ(back.ladder.rows[0].m_witness->j, rec.ladder.rows[0].m_witness->j);
  EXPECT_EQ(back.ladder.rows[0].m_witness->retracted,
            rec.ladder.rows[0].m_witness->retracted);
  EXPECT_FALSE(back.ladder.rows[1].m_witness.has_value());
}

TEST(FuzzerCorpus, DivergenceRoundTrip) {
  Divergence d{77, "bsp", "outputs differ"};
  durable::ByteWriter w;
  EncodeDivergenceRecord(d, &w);
  durable::ByteReader r(w.data());
  Divergence back;
  ASSERT_TRUE(DecodeDivergenceRecord(&r, &back));
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(back.seed, 77u);
  EXPECT_EQ(back.stage, "bsp");
  EXPECT_EQ(back.detail, "outputs differ");
}

TEST(FuzzerCorpus, PersistReplayAndTornTailRepair) {
  const std::string path = MakeTempDir() + "/corpus.wal";
  {
    Corpus corpus;
    ASSERT_TRUE(corpus.Open(path).ok());
    ASSERT_TRUE(corpus.Add(SampleRecord(1)).ok());
    ASSERT_TRUE(corpus.Add(SampleRecord(2)).ok());
    ASSERT_TRUE(corpus.AddDivergence(Divergence{2, "fault", "w"}).ok());
  }
  // A crash mid-append leaves a torn tail; replay must truncate it and keep
  // every complete record.
  {
    std::ofstream torn(path, std::ios::binary | std::ios::app);
    const char garbage[] = "\x40\x00\x00\x00 torn";
    torn.write(garbage, sizeof(garbage) - 1);
  }
  {
    Corpus corpus;
    ASSERT_TRUE(corpus.Open(path).ok());
    EXPECT_EQ(corpus.records().size(), 2u);
    EXPECT_TRUE(corpus.Contains(1));
    EXPECT_TRUE(corpus.Contains(2));
    EXPECT_FALSE(corpus.Contains(3));
    ASSERT_EQ(corpus.divergences().size(), 1u);
    EXPECT_EQ(corpus.divergences()[0].stage, "fault");
    // Appends resume cleanly after the repair.
    ASSERT_TRUE(corpus.Add(SampleRecord(3)).ok());
  }
  {
    Corpus corpus;
    ASSERT_TRUE(corpus.Open(path).ok());
    EXPECT_EQ(corpus.records().size(), 3u);
    EXPECT_TRUE(corpus.Contains(3));
  }
}

TEST(FuzzerSurvey, PinnedMiniSurvey) {
  SurveyOptions o;
  o.seed = 2026;
  o.programs = 50;
  Result<SurveyStats> stats = RunSurvey(o);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->programs, 50u);
  EXPECT_EQ(stats->skipped, 0u);
  EXPECT_EQ(stats->disagreements, 0u);
  // Shapes round-robin over 50 programs: shape 0 gets 8, the rest 7 — and
  // the generator pins each shape's fragment, so this histogram is exact.
  std::map<std::string, size_t> want_fragments{
      {"Datalog", 8},          {"Datalog(!=)", 7},   {"SP-Datalog", 7},
      {"con-Datalog~", 7},     {"semicon-Datalog~", 7}, {"Datalog~", 7},
      {"unstratifiable", 7},
  };
  EXPECT_EQ(stats->fragment_histogram, want_fragments);
  // The class histogram is pinned for this seed (bounded-ladder verdicts
  // are deterministic); a change here means checker or generator drift.
  size_t total = 0;
  for (const auto& [bucket, count] : stats->class_histogram) total += count;
  EXPECT_EQ(total, 50u);
  EXPECT_EQ(stats->class_histogram, (std::map<std::string, size_t>{
                                        {"M", 34},
                                        {"Mdistinct", 9},
                                        {"Mdisjoint", 7},
                                    }))
      << [&] {
           std::string got;
           for (const auto& [bucket, count] : stats->class_histogram) {
             got += bucket + "=" + std::to_string(count) + " ";
           }
           return got;
         }();
  // Every guarantee-carrying program ran its strategy and its BSP twin.
  EXPECT_EQ(stats->strategy_runs, 43u);  // 50 minus the 7 "Datalog~" shapes
  EXPECT_EQ(stats->bsp_runs, 43u);
}

TEST(FuzzerSurvey, ResumesAcrossHardKillWithoutReclassifying) {
  const std::string path = MakeTempDir() + "/corpus.wal";
  SurveyOptions o;
  o.seed = 99;
  o.programs = 10;
  o.corpus_path = path;

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Crash at the 4th durable corpus append: 4 records survive.
    failpoint::Arm("durable.wal.synced", 4);
    Result<SurveyStats> r = RunSurvey(o);
    ::_exit(r.ok() ? 7 : 8);
  }
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  ASSERT_EQ(WEXITSTATUS(wstatus), failpoint::kCrashExitCode);

  // Resume: the 4 durable classifications are skipped, not recomputed, and
  // the survey totals match an uninterrupted run.
  Result<SurveyStats> resumed = RunSurvey(o);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed->skipped, 4u);
  EXPECT_EQ(resumed->programs, 6u);
  EXPECT_EQ(resumed->disagreements, 0u);
  size_t total = 0;
  for (const auto& [fragment, count] : resumed->fragment_histogram) {
    total += count;
  }
  EXPECT_EQ(total, 10u);

  SurveyOptions fresh = o;
  fresh.corpus_path = MakeTempDir() + "/fresh.wal";
  Result<SurveyStats> oracle = RunSurvey(fresh);
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(oracle->fragment_histogram, resumed->fragment_histogram);
  EXPECT_EQ(oracle->class_histogram, resumed->class_histogram);
}

TEST(FuzzerSurvey, NegativeControlIsCaught) {
  // Direct: an SP-shaped text wearing the "positive" label trips both the
  // fragment oracle and the ladder's fragment-theorem assertion.
  GeneratedProgram lie;
  lie.shape = ProgramShape::kPositive;
  lie.seed = 123;
  lie.text = "O(x0) :- F(x0), !E(x0, x0).\n.output O\n";
  Result<Classification> c = ClassifyProgram(lie, ClassifyOptions{});
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  EXPECT_FALSE(c->record.conformant);
  bool fragment_caught = false, ladder_caught = false;
  for (const Divergence& d : c->divergences) {
    if (d.stage == "fragment") fragment_caught = true;
    if (d.stage == "ladder") ladder_caught = true;
  }
  EXPECT_TRUE(fragment_caught);
  EXPECT_TRUE(ladder_caught);

  // And through the survey entry point the control runs end to end.
  SurveyOptions o;
  o.programs = 0;
  o.inject_misclassification = true;
  Result<SurveyStats> stats = RunSurvey(o);
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->control_caught);
}

TEST(FuzzerClassify, ConformantProgramHasCleanRecord) {
  FuzzerOptions fo;
  fo.seed = 5;
  fo.shape = ProgramShape::kSemiPositive;
  GeneratedProgram gp = GenerateProgram(fo);
  Result<Classification> c = ClassifyProgram(gp, ClassifyOptions{});
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  for (const Divergence& d : c->divergences) {
    ADD_FAILURE() << d.stage << ": " << d.detail;
  }
  EXPECT_TRUE(c->record.conformant);
  EXPECT_EQ(c->record.fragment, "SP-Datalog");
  EXPECT_EQ(c->record.strategy, "absence");
  EXPECT_GT(c->record.bsp_supersteps, 0u);
  EXPECT_EQ(c->record.ladder.rows.size(), 2u);
}

// FNV-1a over a record's encoding: everything the corpus keeps of it.
uint64_t RecordDigest(const CorpusRecord& record) {
  durable::ByteWriter w;
  EncodeCorpusRecord(record, &w);
  uint64_t h = 14695981039346656037ull;
  for (char c : w.data()) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

// The symmetry differential re-runs a ladder only when the first one ran
// reduced: a program whose genericity probe fails (a body constant) runs
// one ladder sweep, a generic one two, counted by checker.find_violation
// spans. Both records are pinned, so skipping the differential for the
// first program left its classification as it was.
TEST(FuzzerClassify, DifferentialRunsOnlyForReducedLadders) {
  struct Case {
    const char* text;
    size_t sweeps;
    uint64_t digest;
  };
  const Case cases[] = {
      {"O(x) :- E(x, 1).\n.output O\n", 1, 9742388342394802164ull},
      {"O(x) :- E(x, y), E(y, x).\n.output O\n", 2, 14244123226354986521ull},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.text);
    GeneratedProgram gp;
    gp.shape = ProgramShape::kPositive;
    gp.seed = 7;
    gp.text = c.text;
    gp.uses_constants = c.sweeps == 1;
    Trace::Reset();
    Trace::SetEnabled(true);
    Result<Classification> classified = ClassifyProgram(gp, ClassifyOptions{});
    Trace::SetEnabled(false);
    ASSERT_TRUE(classified.ok()) << classified.status().ToString();
    for (const Divergence& d : classified->divergences) {
      ADD_FAILURE() << d.stage << ": " << d.detail;
    }
    EXPECT_EQ(Trace::SpanCount("checker.find_violation"), c.sweeps);
    EXPECT_EQ(RecordDigest(classified->record), c.digest);
  }
  Trace::Reset();
}

}  // namespace
}  // namespace calm::workload

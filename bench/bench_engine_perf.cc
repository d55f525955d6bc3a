// Engine performance benchmarks (google-benchmark): the substrate ablations
// DESIGN.md calls out — stratified vs well-founded semantics, transducer
// network simulation scaling, and the monotonicity checker.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "base/enumerator.h"
#include "base/metrics.h"
#include "base/thread_pool.h"
#include "bench/flags.h"
#include "datalog/evaluator.h"
#include "datalog/parser.h"
#include "datalog/prepared.h"
#include "datalog/program.h"
#include "datalog/relstore.h"
#include "datalog/wellfounded.h"
#include "monotonicity/checker.h"
#include "monotonicity/ladder.h"
#include "queries/graph_queries.h"
#include "transducer/network.h"
#include "transducer/policy.h"
#include "transducer/runner.h"
#include "transducer/strategies.h"
#include "workload/fuzzer.h"
#include "workload/graph_gen.h"

namespace {

using namespace calm;  // NOLINT

const datalog::Program& TcProgram() {
  static const datalog::Program* kProgram =
      new datalog::Program(datalog::ParseOrDie(
          "T(x, y) :- E(x, y). T(x, z) :- T(x, y), E(y, z). .output T"));
  return *kProgram;
}

void BM_TransitiveClosureSemiNaive(benchmark::State& state) {
  Instance input =
      workload::RandomGraphM(state.range(0), 3 * state.range(0), /*seed=*/7);
  size_t derived = 0;
  for (auto _ : state) {
    Result<Instance> out = datalog::Evaluate(TcProgram(), input);
    benchmark::DoNotOptimize(out);
    derived = out.ok() ? out->size() : 0;
  }
  state.counters["facts"] = static_cast<double>(derived);
}
BENCHMARK(BM_TransitiveClosureSemiNaive)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

void BM_StratifiedComplementTc(benchmark::State& state) {
  datalog::Program program = datalog::ParseOrDie(
      "T(x, y) :- E(x, y). T(x, z) :- T(x, y), E(y, z).\n"
      "O(x, y) :- Adom(x), Adom(y), !T(x, y). .output O");
  Instance input =
      workload::RandomGraphM(state.range(0), 2 * state.range(0), /*seed=*/3);
  for (auto _ : state) {
    Result<Instance> out = datalog::Evaluate(program, input);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_StratifiedComplementTc)->Arg(16)->Arg(32)->Arg(64);

void BM_WellFoundedWinMove(benchmark::State& state) {
  datalog::Program program =
      datalog::ParseOrDie("Win(x) :- Move(x, y), !Win(y).");
  Instance graph =
      workload::RandomGraphM(state.range(0), 2 * state.range(0), /*seed=*/5);
  Instance input;
  for (const Tuple& t : graph.TuplesOf(InternName("E"))) {
    input.Insert(Fact("Move", t));
  }
  for (auto _ : state) {
    Result<datalog::WellFoundedModel> m =
        datalog::EvaluateWellFounded(program, input);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_WellFoundedWinMove)->Arg(16)->Arg(32)->Arg(64);

void BM_BroadcastNetworkTc(benchmark::State& state) {
  auto tc = queries::MakeTransitiveClosure();
  auto t = transducer::MakeBroadcastTransducer(tc.get());
  transducer::Network nodes;
  for (int64_t k = 0; k < state.range(0); ++k) {
    nodes.push_back(Value::FromInt(900 + k));
  }
  transducer::HashPolicy policy(nodes);
  Instance input = workload::RandomGraphM(12, 30, /*seed=*/2);
  for (auto _ : state) {
    transducer::TransducerNetwork network(nodes, t.get(), &policy,
                                          transducer::ModelOptions::Original());
    (void)network.Initialize(input);
    Result<transducer::RunResult> r = transducer::RunToQuiescence(network);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_BroadcastNetworkTc)->Arg(2)->Arg(4)->Arg(8);

void BM_DomainRequestNetworkWinMove(benchmark::State& state) {
  auto win = queries::MakeWinMove();
  auto t = transducer::MakeDomainRequestTransducer(win.get());
  transducer::Network nodes;
  for (int64_t k = 0; k < state.range(0); ++k) {
    nodes.push_back(Value::FromInt(900 + k));
  }
  transducer::HashDomainGuidedPolicy policy(nodes);
  Instance graph = workload::RandomGraphM(10, 20, /*seed=*/8);
  Instance input;
  for (const Tuple& tu : graph.TuplesOf(InternName("E"))) {
    input.Insert(Fact("Move", tu));
  }
  for (auto _ : state) {
    transducer::TransducerNetwork network(
        nodes, t.get(), &policy, transducer::ModelOptions::PolicyAware());
    (void)network.Initialize(input);
    Result<transducer::RunResult> r = transducer::RunToQuiescence(network);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_DomainRequestNetworkWinMove)->Arg(2)->Arg(4);

// Fault-channel overhead: the same broadcast-TC run with no plan attached
// vs. a chaos plan. The fault-injected run does strictly more work
// (retransmit queues, durable inboxes, extra copies), so the tracked number
// is the injected/free ratio staying modest.
void BM_RunToQuiescenceFaultFree(benchmark::State& state) {
  auto tc = queries::MakeTransitiveClosure();
  auto t = transducer::MakeBroadcastTransducer(tc.get());
  transducer::Network nodes;
  for (int64_t k = 0; k < state.range(0); ++k) {
    nodes.push_back(Value::FromInt(900 + k));
  }
  transducer::HashPolicy policy(nodes);
  Instance input = workload::RandomGraphM(10, 24, /*seed=*/4);
  for (auto _ : state) {
    transducer::TransducerNetwork network(nodes, t.get(), &policy,
                                          transducer::ModelOptions::Original());
    (void)network.Initialize(input);
    Result<transducer::RunResult> r = transducer::RunToQuiescence(network);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_RunToQuiescenceFaultFree)->Arg(2)->Arg(4);

void BM_RunToQuiescenceFaultInjected(benchmark::State& state) {
  auto tc = queries::MakeTransitiveClosure();
  auto t = transducer::MakeBroadcastTransducer(tc.get());
  transducer::Network nodes;
  for (int64_t k = 0; k < state.range(0); ++k) {
    nodes.push_back(Value::FromInt(900 + k));
  }
  transducer::HashPolicy policy(nodes);
  Instance input = workload::RandomGraphM(10, 24, /*seed=*/4);
  uint64_t plan_seed = 0;
  for (auto _ : state) {
    net::FaultPlan plan =
        net::FaultPlan::Random(++plan_seed, net::FaultProfile::Chaos());
    transducer::TransducerNetwork network(nodes, t.get(), &policy,
                                          transducer::ModelOptions::Original());
    (void)network.Initialize(input);
    transducer::RunOptions ro;
    ro.faults = &plan;
    Result<transducer::RunResult> r = transducer::RunToQuiescence(network, ro);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_RunToQuiescenceFaultInjected)->Arg(2)->Arg(4);

// A rule written in pessimal order: B(z), A(x) is a cartesian product
// unless the compiler reorders to chain through the E atoms.
void BM_JoinOrderPessimalRule(benchmark::State& state) {
  datalog::Program program = datalog::ParseOrDie(
      "O(x, z) :- B(z), A(x), E(x, y), E(y, z). .output O");
  Instance input = workload::RandomGraphM(state.range(0), 3 * state.range(0),
                                          /*seed=*/9);
  for (uint64_t v = 0; v < static_cast<uint64_t>(state.range(0)); v += 2) {
    input.Insert(Fact("A", {Value::FromInt(v)}));
    input.Insert(Fact("B", {Value::FromInt(v + 1)}));
  }
  datalog::EvalOptions opts;
  opts.reorder_joins = state.range(1) != 0;
  for (auto _ : state) {
    Result<Instance> out = datalog::Evaluate(program, input, opts);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_JoinOrderPessimalRule)
    ->Args({32, 0})
    ->Args({32, 1})
    ->Args({96, 0})
    ->Args({96, 1});

// Prepared-pipeline ablation. DatalogQuery::Create runs the whole frontend
// (analysis, stratification, join ordering, compilation) exactly once; Eval
// is then a scratch-reusing fixpoint run. The free Evaluate() entry point
// re-runs the frontend on every call. Both report items_per_second =
// evaluations/sec on the same input, so the prepared/recompile ratio is the
// tracked number (tools/compare_bench.py guards it in CI).
void BM_EvalPrepared(benchmark::State& state) {
  datalog::DatalogQuery q = datalog::DatalogQuery::FromTextOrDie(
      "T(x, y) :- E(x, y). T(x, z) :- T(x, y), E(y, z). .output T",
      "tc-prepared");
  Instance input =
      workload::RandomGraphM(state.range(0), 3 * state.range(0), /*seed=*/7);
  for (auto _ : state) {
    Result<Instance> out = q.Eval(input);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EvalPrepared)->Arg(8)->Arg(32);

// Materialization in isolation: Database::ToInstance over a TC fixpoint's
// worth of rows (the back end of every Eval — raw-pointer column reads,
// strict-key-order emission, InsertSortedUnique adoption). Tracked so a
// regression here is attributable separately from the fixpoint itself.
void BM_ToInstance(benchmark::State& state) {
  datalog::DatalogQuery q = datalog::DatalogQuery::FromTextOrDie(
      "T(x, y) :- E(x, y). T(x, z) :- T(x, y), E(y, z). .output T",
      "tc-to-instance");
  Instance input =
      workload::RandomGraphM(state.range(0), 3 * state.range(0), /*seed=*/7);
  Result<Instance> fixpoint = q.Eval(input);
  if (!fixpoint.ok()) {
    state.SkipWithError("fixpoint evaluation failed");
    return;
  }
  datalog::Database db(*fixpoint);
  for (auto _ : state) {
    Instance out = db.ToInstance();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fixpoint->size()));
}
BENCHMARK(BM_ToInstance)->Arg(32)->Arg(128);

// The dedup-table insert path in isolation: one binary relation fed a
// pre-generated code stream in which every row appears twice (TC-like
// attempt mix — about half the attempts are rejects). Covers the packed-u64
// open-addressing table, its growth schedule, and the batched insert the
// engine flushes through.
void BM_DedupInsert(benchmark::State& state) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  std::vector<uint32_t> c0, c1;
  uint64_t x = 0x9e3779b97f4a7c15ull;
  for (uint32_t i = 0; i < n; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    c0.push_back(static_cast<uint32_t>(x % (n / 2 + 1)));
    c1.push_back(static_cast<uint32_t>((x >> 32) % (n / 2 + 1)));
  }
  // Duplicate the stream: the second half replays the first.
  c0.insert(c0.end(), c0.begin(), c0.begin() + n);
  c1.insert(c1.end(), c1.begin(), c1.begin() + n);
  const uint32_t* cols[2] = {c0.data(), c1.data()};
  for (auto _ : state) {
    state.PauseTiming();
    datalog::Database db;
    // Interning outside the timed region: the stream is pure code-space.
    for (uint32_t v = 0; v <= n / 2; ++v) {
      (void)db.dict().Intern(Value::FromInt(v));
    }
    state.ResumeTiming();
    uint64_t inserted = 0, rejected = 0;
    db.EnsureStores({InternName("R")});
    datalog::RelStore* store = db.Store(InternName("R"));
    store->InsertBatchCols(cols, 2, c0.size(), &inserted, &rejected);
    benchmark::DoNotOptimize(inserted);
    benchmark::DoNotOptimize(rejected);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(c0.size()));
}
BENCHMARK(BM_DedupInsert)->Arg(4096)->Arg(65536);

// Union checks against one I, 64 J's at a time: Arg(1) answers each batch
// with one world-masked run (FirstRetractedBatch), Arg(0) asks the same
// evaluator one J at a time (the from-scratch probe). The layer probe
// behind the checker's batched union checks.
void RunUnionCheckBatch(benchmark::State& state,
                        const datalog::DatalogQuery& q) {
  Instance input = workload::RandomGraphM(4, 4, /*seed=*/7);
  std::vector<Fact> base;
  if (!q.EvalFacts(input, &base).ok()) {
    state.SkipWithError("base evaluation failed");
    return;
  }
  // Every single edge over {0..3} and two fresh values, plus edge pairs
  // out of a fresh vertex: 64 J's, as index subsets of the 36 edges.
  std::vector<Value> vals;
  for (uint64_t v : {0, 1, 2, 3, 1000, 1001}) vals.push_back(Value::FromInt(v));
  std::vector<Fact> candidates;
  for (Value a : vals) {
    for (Value b : vals) candidates.push_back(Fact("E", {a, b}));
  }
  FactSubsets js;
  for (uint32_t c = 0; c < candidates.size(); ++c) js.Add({&c, 1});
  for (uint32_t k = 0; js.size() < 64; ++k) {
    uint32_t pair[2] = {4 * 6 + k % 6, (k % 4) * 6 + 5};
    std::sort(pair, pair + 2);
    js.Add(pair);
  }
  std::vector<Instance> per_j;
  SubsetInstance j(candidates);
  for (size_t k = 0; k < js.size(); ++k) per_j.push_back(j.Set(js[k]));
  std::unique_ptr<UnionEvaluator> ev = q.MakeUnionEvaluator(input);
  std::vector<Result<std::optional<Fact>>> out;
  const bool batched = state.range(0) == 1;
  for (auto _ : state) {
    if (batched) {
      ev->FirstRetractedBatch(candidates, js, base, &out);
      benchmark::DoNotOptimize(out);
    } else {
      for (const Instance& one : per_j) {
        Result<std::optional<Fact>> r = ev->FirstRetracted(one, base);
        benchmark::DoNotOptimize(r);
      }
    }
  }
  state.SetItemsProcessed(state.iterations() * js.size());
}

// The complement of TC (Adom, negation), the shape of the paper's
// Mdistinct separations.
void BM_UnionCheckBatch(benchmark::State& state) {
  RunUnionCheckBatch(state, datalog::DatalogQuery::FromTextOrDie(
                                "T(x, y) :- E(x, y). T(x, z) :- T(x, y), "
                                "E(y, z).\n"
                                "O(x, y) :- Adom(x), Adom(y), !T(x, y).",
                                "qtc-union-batch"));
}
BENCHMARK(BM_UnionCheckBatch)->Arg(0)->Arg(1);

// The same 64 J's over the same 4-vertex graph as a win-move game under the
// well-founded semantics: Arg(1) answers each batch with one masked
// alternation, Arg(0) runs the alternation once per J.
void BM_UnionCheckBatchWellFounded(benchmark::State& state) {
  RunUnionCheckBatch(state, datalog::DatalogQuery::FromTextOrDie(
                                "Win(x) :- E(x, y), !Win(y).\n.output Win",
                                "win-move-union-batch",
                                datalog::DatalogQuery::Semantics::kWellFounded));
}
BENCHMARK(BM_UnionCheckBatchWellFounded)->Arg(0)->Arg(1);

void BM_EvalCompileEveryCall(benchmark::State& state) {
  Instance input =
      workload::RandomGraphM(state.range(0), 3 * state.range(0), /*seed=*/7);
  for (auto _ : state) {
    Result<Instance> out = datalog::Evaluate(TcProgram(), input);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EvalCompileEveryCall)->Arg(8)->Arg(32);

void BM_MonotonicityCheckExhaustive(benchmark::State& state) {
  auto qtc = queries::MakeComplementTransitiveClosure();
  monotonicity::ExhaustiveOptions o;
  o.domain_size = 2;
  o.max_facts_i = 2;
  o.fresh_values = 1;
  o.max_facts_j = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    auto r = monotonicity::FindViolation(
        *qtc, monotonicity::MonotonicityClass::kDomainDisjoint, o);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_MonotonicityCheckExhaustive)->Arg(1)->Arg(2)->Arg(3);

// The genericity-aware symmetry reduction, measured head to head on the same
// violation-free search (Q_TC in Mdisjoint — the whole space is enumerated)
// at a bound one notch past what the full sweep was previously clamped to.
// BM_FindViolationFull runs the plain sweep; BM_FindViolationCanonical sweeps
// orbit representatives with the stabilizer-filtered J space. Both are pinned
// to one thread so the ratio isolates the reduction (the canonical/full
// speedup is the tracked number; byte-identical verdicts are pinned by
// tests/canonical_test.cc).
monotonicity::ExhaustiveOptions CanonicalBenchBounds() {
  monotonicity::ExhaustiveOptions o;
  o.domain_size = 3;
  o.max_facts_i = 3;
  o.fresh_values = 2;
  o.max_facts_j = 2;
  o.threads = 1;
  return o;
}

void BM_FindViolationFull(benchmark::State& state) {
  auto qtc = queries::MakeComplementTransitiveClosure();
  monotonicity::ExhaustiveOptions o = CanonicalBenchBounds();
  o.symmetry = SymmetryMode::kOff;
  for (auto _ : state) {
    auto r = monotonicity::FindViolation(
        *qtc, monotonicity::MonotonicityClass::kDomainDisjoint, o);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_FindViolationFull)->Unit(benchmark::kMillisecond);

void BM_FindViolationCanonical(benchmark::State& state) {
  auto qtc = queries::MakeComplementTransitiveClosure();
  monotonicity::ExhaustiveOptions o = CanonicalBenchBounds();
  o.symmetry = SymmetryMode::kForceOn;
  for (auto _ : state) {
    auto r = monotonicity::FindViolation(
        *qtc, monotonicity::MonotonicityClass::kDomainDisjoint, o);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_FindViolationCanonical)->Unit(benchmark::kMillisecond);

// The ladder: one sweep resolves all 3 * max_i cells, over the full space
// (BM_LadderFull) and the symmetry-reduced one (BM_LadderCached — the name
// the perf-smoke baseline tracks; the ladder shares no result cache).
void BM_LadderFull(benchmark::State& state) {
  auto qtc = queries::MakeComplementTransitiveClosure();
  monotonicity::ExhaustiveOptions o;
  o.domain_size = 2;
  o.max_facts_i = 3;
  o.fresh_values = 2;
  o.threads = 1;
  o.symmetry = SymmetryMode::kOff;
  for (auto _ : state) {
    auto r = monotonicity::ComputeLadder(*qtc, 3, o);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_LadderFull)->Unit(benchmark::kMillisecond);

void BM_LadderCached(benchmark::State& state) {
  auto qtc = queries::MakeComplementTransitiveClosure();
  monotonicity::ExhaustiveOptions o;
  o.domain_size = 2;
  o.max_facts_i = 3;
  o.fresh_values = 2;
  o.threads = 1;
  o.symmetry = SymmetryMode::kForceOn;
  for (auto _ : state) {
    auto r = monotonicity::ComputeLadder(*qtc, 3, o);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_LadderCached)->Unit(benchmark::kMillisecond);

// The ladder at deep_sweep's bounds (domain 4, |I| <= 4, |J| <= 3, 2 fresh
// values): native TC's sweep is over the plan cap, so it streams, and it
// checks every pair. Its time is the J enumeration with the orbit test and
// the closure evaluator's batches; the plan is built on the first iteration.
void BM_LadderDeep(benchmark::State& state) {
  auto tc = queries::MakeTransitiveClosure();
  monotonicity::ExhaustiveOptions o;
  o.domain_size = 4;
  o.max_facts_i = 4;
  o.fresh_values = 2;
  o.threads = 1;
  for (auto _ : state) {
    auto r = monotonicity::ComputeLadder(*tc, 3, o);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_LadderDeep)->Unit(benchmark::kMillisecond);

// The fuzz-classification pipeline per program: generation, fragment check,
// the bounded monotonicity ladder with witness audit, the differential
// (symmetry off) re-run, and both preservation sweeps — everything the
// nightly survey pays per seed except the strategy/BSP network runs. Arg is
// the shape index; 0 (positive Datalog) and 6 (well-founded win-move) bound
// the cheap and expensive ends.
void BM_FuzzClassifyProgram(benchmark::State& state) {
  workload::FuzzerOptions fo;
  fo.shape = static_cast<workload::ProgramShape>(state.range(0));
  workload::ClassifyOptions co;
  co.run_strategies = false;  // ladder + sweeps only: the per-seed floor
  uint64_t seed = 1;
  for (auto _ : state) {
    fo.seed = seed++;
    workload::GeneratedProgram program = workload::GenerateProgram(fo);
    Result<workload::Classification> c =
        workload::ClassifyProgram(program, co);
    if (!c.ok()) {
      state.SkipWithError(c.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FuzzClassifyProgram)->Arg(0)->Arg(6)
    ->Unit(benchmark::kMillisecond);

// The parallel exhaustive-check workload: a violation-free search (the whole
// space is enumerated, the embarrassingly parallel worst case) at a larger
// bound than the serial benchmark above, swept over thread counts. Arg is
// the thread count; 0 means the configured default (--threads / CALM_THREADS
// / hardware). CI archives this sweep as BENCH_engine.json; the speedup of
// threads=N over threads=1 is the tracked number.
void BM_MonotonicityCheckParallel(benchmark::State& state) {
  auto tc = queries::MakeTransitiveClosure();  // monotone: no early exit
  monotonicity::ExhaustiveOptions o;
  o.domain_size = 2;
  o.max_facts_i = 3;
  o.fresh_values = 2;
  o.max_facts_j = 3;
  o.threads = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    auto r = monotonicity::FindViolation(
        *tc, monotonicity::MonotonicityClass::kMonotone, o);
    benchmark::DoNotOptimize(r);
  }
  state.counters["threads"] = static_cast<double>(
      o.threads == 0 ? calm::DefaultThreads() : o.threads);
}
BENCHMARK(BM_MonotonicityCheckParallel)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

}  // namespace

namespace {

using namespace calm;  // NOLINT

// With --trace_out set, every Evaluate in the loops above recorded one
// datalog.eval span and one datalog.stratum span per stratum. Pin that
// relationship on one more evaluation whose EvalStats we hold, so the trace
// file's span counts are validated against the engine's own accounting
// before it is written.
int CrossCheckTrace() {
  if (!calm::TracingEnabled()) return 0;
  Instance input = workload::RandomGraphM(16, 48, /*seed=*/7);
  const size_t evals_before = calm::Trace::SpanCount("datalog.eval");
  const size_t strata_before = calm::Trace::SpanCount("datalog.stratum");
  datalog::EvalStats stats;
  Result<Instance> out = datalog::Evaluate(TcProgram(), input, {}, &stats);
  if (!out.ok()) {
    std::fprintf(stderr, "trace cross-check evaluation failed: %s\n",
                 out.status().ToString().c_str());
    return 1;
  }
  const size_t evals = calm::Trace::SpanCount("datalog.eval") - evals_before;
  const size_t strata =
      calm::Trace::SpanCount("datalog.stratum") - strata_before;
  // TcProgram is a single stratum, so 1 eval span and 1 stratum span; the
  // stratum span's rounds arg equals stats.fixpoint_rounds by construction.
  if (evals != 1 || strata != 1) {
    std::fprintf(stderr,
                 "trace cross-check failed: %zu datalog.eval / %zu "
                 "datalog.stratum spans for one single-stratum evaluation "
                 "(stats: %s)\n",
                 evals, strata, datalog::EvalStatsToString(stats).c_str());
    return 1;
  }
  std::printf("trace cross-check ok: 1 eval span, 1 stratum span (%s)\n",
              datalog::EvalStatsToString(stats).c_str());
  return 0;
}

}  // namespace

// Custom main: strip --threads/--json/--metrics_out/--trace_out
// (bench/flags.h) before handing argv to google-benchmark, so
// `bench_engine_perf --threads N` sizes the pool. JSON output goes through
// google-benchmark's own --benchmark_out; --trace_out/--metrics_out write
// the observability artifacts after the benchmarks finish.
int main(int argc, char** argv) {
  calm::bench::Flags flags = calm::bench::ParseFlags(&argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  int rc = CrossCheckTrace();
  return calm::bench::WriteObservability(flags) ? rc : 1;
}

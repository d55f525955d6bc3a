#include "datalog/prepared.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <climits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>

#include "base/metrics.h"
#include "base/thread_pool.h"
#include "base/trace.h"

namespace calm::datalog {

namespace {

constexpr uint32_t kNoSlot = UINT32_MAX;

// Per-fixpoint observability tallies. The matcher and the insert loops
// accumulate into these plain locals unconditionally (an add next to a hash
// probe is noise); whether anything observable happens with them is decided
// once, at the end of the fixpoint. This keeps the disabled-observability
// cost to one branch per fixpoint and guarantees instrumentation can never
// perturb evaluation order or results.
struct FixpointCounters {
  uint64_t probes = 0;          // indexed Probe() calls
  uint64_t probe_hits = 0;      // tuples those probes returned
  uint64_t dedup_rejected = 0;  // derived tuples already present in the db
  uint64_t inserts = 0;         // derived tuples that were new
};

// Replicates the Instance::Restrict admission rule.
inline bool SchemaAdmits(const Schema& schema, uint32_t name, const Tuple& t) {
  uint32_t arity = schema.ArityOf(name);
  return arity != 0 && t.size() == arity;
}

// Skolem hash-consing (Section 5.2) lives in datalog/bytecode.h
// (InventionTable) so both engines share one implementation; one table per
// evaluation, so identical derivations reuse the same value.

// Per-round delta stores. Entries persist across Reset (clear keeps the
// store allocations warm); emptiness is tracked by the total tuple count.
class DeltaSet {
 public:
  bool Insert(uint32_t rel, const Tuple& t) {
    RelStore* store = Find(rel);
    if (store == nullptr) {
      rels_.emplace_back(rel, RelStore());
      store = &rels_.back().second;
    }
    if (store->Insert(t)) {
      ++total_;
      return true;
    }
    return false;
  }

  RelStore* Find(uint32_t rel) {
    for (auto& [r, store] : rels_) {
      if (r == rel) return &store;
    }
    return nullptr;
  }

  bool any() const { return total_ > 0; }

  void Reset() {
    for (auto& [r, store] : rels_) store.clear();
    total_ = 0;
  }

 private:
  std::vector<std::pair<uint32_t, RelStore>> rels_;
  size_t total_ = 0;
};

// Per-thread evaluation scratch: the working database and the semi-naive
// delta sets live across calls (cleared, capacity kept), so a checker loop
// evaluating one prepared program millions of times allocates almost
// nothing after warm-up. Results are materialized into an Instance before
// returning, so reuse is invisible to callers; sharing one scratch between
// different programs on a thread is harmless (stores are empty between
// runs). The stratified Eval paths run on this scratch; the well-founded
// alternation manages its own seed copies (see RunFixedNegation).
// One morsel worker's private state: frame scratch, counters, and the
// deferred head emissions (one code column per head position). Lanes only
// read the shared database during the concurrent section; everything they
// produce lands here and is merged serially afterwards.
struct MorselLane {
  BytecodeScratch bytecode;
  ExecCounters counters;
  std::vector<std::vector<uint32_t>> sink;
};

struct EvalScratch {
  Database db;
  DeltaSet delta;
  DeltaSet next_delta;
  std::vector<std::pair<uint32_t, Tuple>> derived;
  BytecodeScratch bytecode;
  std::vector<std::pair<uint32_t, uint32_t>> ranges;  // row-range deltas
  // Morsel-parallel lane pool (unique_ptr: stable addresses while the lane
  // vector grows to its high-water mark; reused across fixpoints).
  std::vector<std::unique_ptr<MorselLane>> lanes;
};

EvalScratch& LocalScratch() {
  thread_local EvalScratch scratch;
  return scratch;
}

class RuleMatcher {
 public:
  // `negation_db`: database against which negated atoms are tested (the main
  // db under stratified semantics; a fixed reference under the Gamma
  // operator of the well-founded semantics).
  RuleMatcher(Database* db, const Database* negation_db, EvalStats* stats,
              InventionTable* invention, FixpointCounters* counters)
      : db_(db), negation_db_(negation_db), stats_(stats),
        invention_(invention), counters_(counters) {}

  // Evaluates `rule`, deriving head facts into `out`. When `delta` is
  // non-null, exactly the atom at `delta_index` ranges over `delta` instead
  // of the full store (semi-naive evaluation).
  void Eval(const CompiledRule& rule, RelStore* delta, size_t delta_index,
            std::vector<std::pair<uint32_t, Tuple>>* out) {
    rule_ = &rule;
    delta_ = delta;
    delta_index_ = delta_index;
    out_ = out;
    binding_.assign(rule.slot_count, Value());
    bound_.assign(rule.slot_count, false);
    if (nb_stack_.size() < rule.pos.size()) nb_stack_.resize(rule.pos.size());
    Match(0);
  }

 private:
  void Match(size_t atom_index) {
    if (atom_index == rule_->pos.size()) {
      Finish();
      return;
    }
    const CompiledAtom& atom = rule_->pos[atom_index];
    RelStore* source = (delta_ != nullptr && atom_index == delta_index_)
                           ? delta_
                           : db_->Store(atom.relation);
    if (source == nullptr || source->size() == 0) return;

    // Determine bound positions under the current binding.
    uint32_t mask = 0;
    Tuple key;
    for (size_t i = 0; i < atom.slots.size(); ++i) {
      int s = atom.slots[i];
      if (s < 0) {
        mask |= (1u << i);
        key.push_back(atom.constants[i]);
      } else if (bound_[s]) {
        mask |= (1u << i);
        key.push_back(binding_[s]);
      }
    }

    // Per-depth scratch for the slots each candidate row newly binds
    // (member storage: no per-row allocation).
    std::vector<int>& newly_bound = nb_stack_[atom_index];
    auto try_row = [&](uint32_t row) {
      // Bind free positions; repeated variables within the atom must agree.
      newly_bound.clear();
      bool ok = true;
      for (size_t i = 0; i < atom.slots.size() && ok; ++i) {
        Value v = source->At(row, static_cast<uint32_t>(i));
        int s = atom.slots[i];
        if (s < 0) {
          if (v != atom.constants[i]) ok = false;
        } else if (bound_[s]) {
          if (binding_[s] != v) ok = false;
        } else {
          binding_[s] = v;
          bound_[s] = true;
          newly_bound.push_back(s);
        }
      }
      if (ok) ok = IneqsHold(atom_index + 1);
      if (ok) Match(atom_index + 1);
      for (int s : newly_bound) bound_[s] = false;
    };

    if (mask == 0) {
      // Full scan over rows in insertion order.
      size_t n = source->size();
      for (uint32_t i = 0; i < n; ++i) try_row(i);
    } else {
      const std::vector<uint32_t>& hits = source->Probe(mask, key);
      ++counters_->probes;
      counters_->probe_hits += hits.size();
      for (uint32_t i : hits) try_row(i);
    }
  }

  bool IneqsHold(size_t after) const {
    for (const CompiledIneq& iq : rule_->ineqs) {
      if (iq.ready_after != after) continue;
      Value l = iq.left_slot >= 0 ? binding_[iq.left_slot] : iq.left_const;
      Value r = iq.right_slot >= 0 ? binding_[iq.right_slot] : iq.right_const;
      if (l == r) return false;
    }
    return true;
  }

  void Finish() {
    // Inequalities with no positive variables (ready_after == 0).
    if (!IneqsHold(0)) return;
    // Negated atoms: all variables are bound (safety).
    for (const CompiledAtom& atom : rule_->neg) {
      Tuple t = Instantiate(atom);
      if (negation_db_->Contains(atom.relation, t)) return;
    }
    if (stats_ != nullptr) ++stats_->rule_applications;
    Tuple head = Instantiate(rule_->head);
    if (rule_->head.invents) {
      assert(invention_ != nullptr);
      Value skolem = invention_->GetOrCreate(rule_->head.relation, head);
      head.prepend(skolem);
    }
    out_->emplace_back(rule_->head.relation, std::move(head));
  }

  Tuple Instantiate(const CompiledAtom& atom) const {
    Tuple t;
    t.reserve(atom.slots.size());
    for (size_t i = 0; i < atom.slots.size(); ++i) {
      int s = atom.slots[i];
      t.push_back(s >= 0 ? binding_[s] : atom.constants[i]);
    }
    return t;
  }

  Database* db_;
  const Database* negation_db_;
  EvalStats* stats_;
  InventionTable* invention_;
  FixpointCounters* counters_;

  const CompiledRule* rule_ = nullptr;
  RelStore* delta_ = nullptr;
  size_t delta_index_ = kNoSlot;
  std::vector<std::pair<uint32_t, Tuple>>* out_ = nullptr;
  Tuple binding_;
  std::vector<bool> bound_;
  std::vector<std::vector<int>> nb_stack_;  // per-depth newly-bound slots
};

size_t CountDerived(const Database& db, size_t input_size) {
  return db.size() - std::min(db.size(), input_size);
}

// Runs the fixpoint of one prepared stratum over `db`: `rules` indexes into
// `compiled` and `delta_sites` lists its semi-naive (rule, atom) pairs.
// `negation_db` is the database used for negated atoms (== db under
// stratified semantics; the fixed reference under Gamma).
// Flushes one fixpoint's tallies into the metrics registry. Out of line and
// called at most once per fixpoint, so the registry lookups (the per-stratum
// statics aside, the per-rule series are looked up by label each time) stay
// off the evaluation path entirely.
void FlushFixpointMetrics(const std::vector<CompiledRule>& compiled,
                          const FixpointCounters& counters, size_t rounds,
                          const std::vector<uint64_t>& rule_derived) {
  MetricRegistry& registry = MetricRegistry::Global();
  static Counter& fixpoints = registry.GetCounter("calm.eval.fixpoints");
  static Counter& round_total = registry.GetCounter("calm.eval.rounds");
  static Counter& probes = registry.GetCounter("calm.eval.probes");
  static Counter& probe_hits = registry.GetCounter("calm.eval.probe_hits");
  static Counter& dedup = registry.GetCounter("calm.eval.dedup_rejected");
  static Counter& inserts = registry.GetCounter("calm.eval.delta_inserts");
  static Histogram& insert_hist =
      registry.GetHistogram("calm.eval.delta_inserts_per_fixpoint");
  fixpoints.Increment();
  round_total.Increment(rounds);
  probes.Increment(counters.probes);
  probe_hits.Increment(counters.probe_hits);
  dedup.Increment(counters.dedup_rejected);
  inserts.Increment(counters.inserts);
  insert_hist.Observe(counters.inserts);
  for (size_t r = 0; r < rule_derived.size(); ++r) {
    if (rule_derived[r] == 0) continue;
    registry
        .GetCounter("calm.eval.rule_derivations",
                    {{"rule", NameOf(compiled[r].head.relation) + "#" +
                                  std::to_string(r)}})
        .Increment(rule_derived[r]);
  }
}

Status RunFixpoint(const std::vector<CompiledRule>& compiled,
                   const std::vector<uint32_t>& rules,
                   const std::vector<std::pair<uint32_t, uint32_t>>& delta_sites,
                   size_t stratum_index, Database* db,
                   const Database* negation_db, const EvalOptions& options,
                   EvalStats* stats, InventionTable* invention) {
  TraceSpan span("datalog.stratum");
  span.Arg("stratum", static_cast<int64_t>(stratum_index));
  FixpointCounters counters;
  // Per-rule derivation counts, kept only when the registry will consume
  // them (the extra branch per rule per round is the entire cost otherwise).
  const bool metrics_on = MetricsEnabled();
  std::vector<uint64_t> rule_derived;
  if (metrics_on) rule_derived.assign(compiled.size(), 0);
  size_t rounds = 0;

  RuleMatcher matcher(db, negation_db, stats, invention, &counters);
  EvalScratch& scratch = LocalScratch();
  std::vector<std::pair<uint32_t, Tuple>>& derived = scratch.derived;
  derived.clear();

  // Round 0: evaluate every rule against the full database.
  for (uint32_t r : rules) {
    size_t before = derived.size();
    matcher.Eval(compiled[r], nullptr, kNoSlot, &derived);
    if (metrics_on) rule_derived[r] += derived.size() - before;
  }

  DeltaSet& delta = scratch.delta;
  delta.Reset();
  for (auto& [rel, tuple] : derived) {
    if (db->Insert(rel, tuple)) {
      delta.Insert(rel, tuple);
      ++counters.inserts;
    } else {
      ++counters.dedup_rejected;
    }
  }
  if (stats != nullptr) ++stats->fixpoint_rounds;
  ++rounds;

  auto finish = [&](Status status) {
    if (span.active()) {
      span.Arg("rounds", static_cast<int64_t>(rounds));
      span.Arg("inserts", static_cast<int64_t>(counters.inserts));
      span.Arg("probes", static_cast<int64_t>(counters.probes));
      span.Arg("probe_hits", static_cast<int64_t>(counters.probe_hits));
      span.Arg("dedup_rejected",
               static_cast<int64_t>(counters.dedup_rejected));
    }
    if (metrics_on) {
      FlushFixpointMetrics(compiled, counters, rounds, rule_derived);
    }
    return status;
  };

  if (!options.semi_naive) {
    // Naive: re-run all rules on the full database until no change.
    bool changed = delta.any();
    while (changed) {
      if (db->size() > options.max_total_facts) {
        return finish(
            ResourceExhaustedError("fixpoint exceeded max_total_facts"));
      }
      derived.clear();
      for (uint32_t r : rules) {
        size_t before = derived.size();
        matcher.Eval(compiled[r], nullptr, kNoSlot, &derived);
        if (metrics_on) rule_derived[r] += derived.size() - before;
      }
      changed = false;
      for (auto& [rel, tuple] : derived) {
        if (db->Insert(rel, tuple)) {
          changed = true;
          ++counters.inserts;
        } else {
          ++counters.dedup_rejected;
        }
      }
      if (stats != nullptr) ++stats->fixpoint_rounds;
      ++rounds;
    }
    return finish(Status::Ok());
  }

  // Semi-naive: in each round, for every precomputed (rule, growing-atom)
  // site, evaluate with that atom restricted to the delta.
  DeltaSet& next_delta = scratch.next_delta;
  while (delta.any()) {
    if (db->size() > options.max_total_facts) {
      return finish(
          ResourceExhaustedError("fixpoint exceeded max_total_facts"));
    }
    derived.clear();
    for (const auto& [r, atom_index] : delta_sites) {
      const CompiledRule& rule = compiled[r];
      RelStore* d = delta.Find(rule.pos[atom_index].relation);
      if (d == nullptr || d->size() == 0) continue;
      size_t before = derived.size();
      matcher.Eval(rule, d, atom_index, &derived);
      if (metrics_on) rule_derived[r] += derived.size() - before;
    }
    next_delta.Reset();
    for (auto& [rel, tuple] : derived) {
      if (db->Insert(rel, tuple)) {
        next_delta.Insert(rel, tuple);
        ++counters.inserts;
      } else {
        ++counters.dedup_rejected;
      }
    }
    std::swap(delta, next_delta);
    if (stats != nullptr) ++stats->fixpoint_rounds;
    ++rounds;
  }
  return finish(Status::Ok());
}

// The bytecode twin of RunFixpoint: identical round structure, identical
// counter accounting, identical insert order — only the per-rule evaluation
// (flat batch execution) and the delta representation differ. Instead of
// copying each round's new tuples into side stores, the delta of a growing
// relation is the contiguous row range its main store gained last round
// (rows are append-only). Derivations insert into the database as they are
// emitted; rounds stay isolated because the executor bounds every scan and
// probe of a growing relation to its row count at the start of the round
// (the visibility horizon, ranges[g].second).
Status RunFixpointBytecode(
    const std::vector<CompiledRule>& compiled,
    const BytecodeProgram& bytecode, const std::vector<uint32_t>& rules,
    const std::vector<std::pair<uint32_t, uint32_t>>& delta_sites,
    const std::vector<uint32_t>& growing, size_t stratum_index, Database* db,
    const Database* negation_db, const EvalOptions& options, EvalStats* stats,
    InventionTable* invention) {
  TraceSpan span("datalog.stratum");
  span.Arg("stratum", static_cast<int64_t>(stratum_index));
  FixpointCounters counters;
  ExecCounters exec;
  const bool metrics_on = MetricsEnabled();
  std::vector<uint64_t> rule_derived;
  if (metrics_on) rule_derived.assign(compiled.size(), 0);
  size_t rounds = 0;

  // The executor holds RelStore pointers across inserts; pre-creating the
  // head-relation stores pins the relation table's layout.
  db->EnsureStores(growing);

  EvalScratch& scratch = LocalScratch();
  // Delta row ranges and visibility horizons, parallel to `growing`:
  // [first, second) is the previous round's growth, and second — the row
  // count when the current round started — bounds what this round may see.
  std::vector<std::pair<uint32_t, uint32_t>>& ranges = scratch.ranges;
  BytecodeExecutor executor(bytecode, db, negation_db, &growing, &ranges,
                            stats, invention, &exec, &scratch.bytecode);
  executor.SetFrameLimit(options.max_total_facts);
  const Database* cdb = db;
  auto size_of = [&](uint32_t rel) {
    const RelStore* s = cdb->Store(rel);
    return s == nullptr ? 0u : s->row_count();
  };
  ranges.resize(growing.size());
  for (size_t g = 0; g < growing.size(); ++g) {
    ranges[g] = {0, size_of(growing[g])};
  }
  // Ends the round: last round's end becomes the new delta start, the
  // current row count the new end (and next round's horizon).
  auto advance = [&] {
    bool any = false;
    for (size_t g = 0; g < growing.size(); ++g) {
      uint32_t lo = ranges[g].second;
      uint32_t hi = size_of(growing[g]);
      any |= hi > lo;
      ranges[g] = {lo, hi};
    }
    return any;
  };
  // Per-rule derivation tally = this Eval's insert attempts (new + dup),
  // matching the tree matcher's emitted-tuple count.
  auto attempts = [&] { return exec.inserted + exec.rejected; };

  auto finish = [&](Status status) {
    counters.probes = exec.probes;
    counters.probe_hits = exec.probe_hits;
    counters.inserts = exec.inserted;
    counters.dedup_rejected = exec.rejected;
    if (stats != nullptr) stats->rule_applications += exec.applications;
    if (span.active()) {
      span.Arg("rounds", static_cast<int64_t>(rounds));
      span.Arg("inserts", static_cast<int64_t>(counters.inserts));
      span.Arg("probes", static_cast<int64_t>(counters.probes));
      span.Arg("probe_hits", static_cast<int64_t>(counters.probe_hits));
      span.Arg("dedup_rejected",
               static_cast<int64_t>(counters.dedup_rejected));
    }
    if (metrics_on) {
      FlushFixpointMetrics(compiled, counters, rounds, rule_derived);
    }
    return status;
  };
  auto frames_exhausted = [] {
    return ResourceExhaustedError("rule evaluation exceeded max_total_facts");
  };

  // Round 0: evaluate every rule against the full database.
  for (uint32_t r : rules) {
    uint64_t before = attempts();
    executor.Eval(bytecode.rules[r], BytecodeExecutor::kNoDelta, 0, 0);
    if (executor.exhausted()) return finish(frames_exhausted());
    if (metrics_on) rule_derived[r] += attempts() - before;
  }
  bool any = advance();
  if (stats != nullptr) ++stats->fixpoint_rounds;
  ++rounds;

  if (!options.semi_naive) {
    // Naive: re-run all rules on the full database until no change.
    bool changed = any;
    while (changed) {
      if (db->size() > options.max_total_facts) {
        return finish(
            ResourceExhaustedError("fixpoint exceeded max_total_facts"));
      }
      uint64_t inserted_before = exec.inserted;
      for (uint32_t r : rules) {
        uint64_t before = attempts();
        executor.Eval(bytecode.rules[r], BytecodeExecutor::kNoDelta, 0, 0);
        if (executor.exhausted()) return finish(frames_exhausted());
        if (metrics_on) rule_derived[r] += attempts() - before;
      }
      advance();
      changed = exec.inserted > inserted_before;
      if (stats != nullptr) ++stats->fixpoint_rounds;
      ++rounds;
    }
    return finish(Status::Ok());
  }

  // Semi-naive: per (rule, growing-atom) site, run with that atom
  // restricted to its relation's last-round row range.
  //
  // Morsel parallelism (eval_threads > 1): a site whose delta atom drives
  // the outermost loop emits its derivations in ascending delta-row order,
  // so splitting [lo, hi) into contiguous morsels and concatenating the
  // morsel outputs reproduces the serial emission stream exactly. Eligible
  // sites are queued; a flush evaluates every queued morsel concurrently
  // into a private lane (counting applications/probes against the shared,
  // horizon-frozen stores, which no lane mutates) and then merges the lane
  // sinks serially in (site, morsel) order through the batched dedup
  // insert — the insert-attempt sequence, and with it every verdict,
  // counter, and EvalStats field, is byte-identical at any thread count.
  // Sites the argument does not cover (delta atom not outermost, invented
  // or nullary heads) run serially in place, after flushing the queue so
  // site order is preserved.
  // Masked runs stay serial: the lane sinks carry no world masks.
  const int threads = db->masked() ? 1 : std::max(1, options.eval_threads);
  constexpr uint32_t kMorselRows = 1024;
  struct PendingSite {
    uint32_t rule;
    uint32_t lo, hi;
  };
  struct MorselTask {
    size_t site;
    uint32_t lo, hi;
  };
  std::vector<PendingSite> pending;
  std::vector<MorselTask> tasks;
  std::vector<BytecodeExecutor> lane_exec;
  // Returns false when a lane exhausted its frame limit.
  auto flush_pending = [&] {
    if (pending.empty()) return true;
    while (scratch.lanes.size() < tasks.size()) {
      scratch.lanes.push_back(std::make_unique<MorselLane>());
    }
    // Lane executors are built serially: construction interns the constant
    // pool into the shared dictionary. Lanes never insert (sink mode), and
    // stats/invention stay with the driver.
    lane_exec.clear();
    lane_exec.reserve(tasks.size());
    for (size_t t = 0; t < tasks.size(); ++t) {
      const RuleBytecode& rb = bytecode.rules[pending[tasks[t].site].rule];
      MorselLane& lane = *scratch.lanes[t];
      lane.counters = ExecCounters{};
      lane.sink.resize(rb.head.size());
      for (std::vector<uint32_t>& col : lane.sink) col.clear();
      lane_exec.emplace_back(bytecode, db, negation_db, &growing, &ranges,
                             /*stats=*/nullptr, /*invention=*/nullptr,
                             &lane.counters, &lane.bytecode);
      lane_exec.back().SetSink(&lane.sink);
      lane_exec.back().SetFrameLimit(options.max_total_facts);
    }
    // Pre-extend every probe index the lanes will touch: lazy index
    // building is the one store mutation inside Eval, so it must happen
    // before the concurrent section.
    for (const PendingSite& site : pending) {
      for (const JoinOp& op : bytecode.rules[site.rule].ops) {
        if (op.mask == 0) continue;
        RelStore* s = db->Store(op.relation);
        if (s != nullptr && s->size() > 0) s->PrepareProbe(op.mask);
      }
    }
    ParallelFor(tasks.size(), static_cast<size_t>(threads), [&](size_t t) {
      lane_exec[t].Eval(bytecode.rules[pending[tasks[t].site].rule],
                        /*delta_index=*/0, tasks[t].lo, tasks[t].hi);
    });
    for (const BytecodeExecutor& lane : lane_exec) {
      if (lane.exhausted()) return false;
    }
    for (size_t t = 0; t < tasks.size(); ++t) {
      const PendingSite& site = pending[tasks[t].site];
      const RuleBytecode& rb = bytecode.rules[site.rule];
      MorselLane& lane = *scratch.lanes[t];
      exec.probes += lane.counters.probes;
      exec.probe_hits += lane.counters.probe_hits;
      exec.applications += lane.counters.applications;
      const uint32_t arity = static_cast<uint32_t>(rb.head.size());
      const size_t n = lane.sink.empty() ? 0 : lane.sink[0].size();
      if (n > 0) {
        const uint32_t* ptrs[32];
        for (uint32_t c = 0; c < arity; ++c) ptrs[c] = lane.sink[c].data();
        db->Store(rb.head_relation)
            ->InsertBatchCols(ptrs, arity, n, &exec.inserted, &exec.rejected);
      }
      if (metrics_on) rule_derived[site.rule] += n;
    }
    pending.clear();
    tasks.clear();
    return true;
  };
  while (any) {
    if (db->size() > options.max_total_facts) {
      return finish(
          ResourceExhaustedError("fixpoint exceeded max_total_facts"));
    }
    for (const auto& [r, atom_index] : delta_sites) {
      uint32_t rel = compiled[r].pos[atom_index].relation;
      uint32_t lo = 0, hi = 0;
      for (size_t g = 0; g < growing.size(); ++g) {
        if (growing[g] == rel) {
          lo = ranges[g].first;
          hi = ranges[g].second;
          break;
        }
      }
      if (lo >= hi) continue;
      const RuleBytecode& rb = bytecode.rules[r];
      if (threads > 1 && atom_index == 0 && !rb.head_invents &&
          !rb.head.empty() && rb.head.size() <= 32 && hi - lo > kMorselRows) {
        const size_t si = pending.size();
        pending.push_back({r, lo, hi});
        for (uint32_t m = lo; m < hi; m += kMorselRows) {
          tasks.push_back({si, m, std::min(m + kMorselRows, hi)});
        }
        continue;
      }
      if (!flush_pending()) return finish(frames_exhausted());
      uint64_t before = attempts();
      executor.Eval(rb, atom_index, lo, hi);
      if (executor.exhausted()) return finish(frames_exhausted());
      if (metrics_on) rule_derived[r] += attempts() - before;
    }
    if (!flush_pending()) return finish(frames_exhausted());
    any = advance();
    if (stats != nullptr) ++stats->fixpoint_rounds;
    ++rounds;
  }
  return finish(Status::Ok());
}

}  // namespace

void PreparedProgram::CompileRules(const Program& program) {
  RuleCompiler compiler;
  compiled_.reserve(program.rules.size());
  for (const Rule& r : program.rules) {
    compiled_.push_back(compiler.Compile(r, options_.reorder_joins));
  }
  if (info_.uses_adom) {
    for (const RelationDecl& r : info_.edb.relations()) {
      if (r.name != AdomRelation()) (void)adom_source_.AddRelation(r);
    }
  }
}

PreparedProgram::Stratum PreparedProgram::MakeStratum(
    const Program& program, const std::vector<size_t>& rule_indices) const {
  Stratum st;
  std::set<uint32_t> growing;
  for (size_t idx : rule_indices) {
    st.rules.push_back(static_cast<uint32_t>(idx));
    growing.insert(program.rules[idx].head.relation);
  }
  for (uint32_t r : st.rules) {
    const CompiledRule& rule = compiled_[r];
    for (uint32_t a = 0; a < rule.pos.size(); ++a) {
      if (growing.count(rule.pos[a].relation) > 0) {
        st.delta_sites.emplace_back(r, a);
      }
    }
  }
  st.growing.assign(growing.begin(), growing.end());
  return st;
}

Result<PreparedProgram> PreparedProgram::Prepare(const Program& program,
                                                 const EvalOptions& options,
                                                 bool allow_invention) {
  PreparedProgram p;
  CALM_ASSIGN_OR_RETURN(p.info_, Analyze(program, allow_invention));
  CALM_ASSIGN_OR_RETURN(Stratification strat, Stratify(program, p.info_));
  p.options_ = options;
  p.engine_ = options.engine == EvalEngine::kDefault ? DefaultEvalEngine()
                                                     : options.engine;
  p.options_.eval_threads =
      options.eval_threads > 0 ? options.eval_threads : DefaultEvalThreads();
  p.CompileRules(program);
  if (p.engine_ == EvalEngine::kBytecode) {
    p.bytecode_ = CompileBytecode(p.compiled_);
  }
  for (uint32_t s = 0; s < strat.stratum_count; ++s) {
    if (strat.rules_per_stratum[s].empty()) continue;
    p.strata_.push_back(p.MakeStratum(program, strat.rules_per_stratum[s]));
  }
  return p;
}

Result<PreparedProgram> PreparedProgram::PrepareFixedNegation(
    const Program& program, const EvalOptions& options) {
  PreparedProgram p;
  CALM_ASSIGN_OR_RETURN(p.info_, Analyze(program));
  p.options_ = options;
  p.engine_ = options.engine == EvalEngine::kDefault ? DefaultEvalEngine()
                                                     : options.engine;
  p.options_.eval_threads =
      options.eval_threads > 0 ? options.eval_threads : DefaultEvalThreads();
  p.fixed_negation_ = true;
  p.CompileRules(program);
  if (p.engine_ == EvalEngine::kBytecode) {
    p.bytecode_ = CompileBytecode(p.compiled_);
  }
  std::vector<size_t> all;
  all.reserve(program.rules.size());
  for (size_t i = 0; i < program.rules.size(); ++i) all.push_back(i);
  if (!all.empty()) p.strata_.push_back(p.MakeStratum(program, all));
  return p;
}

Database PreparedProgram::MakeSeed(
    std::initializer_list<const Instance*> parts,
    const Schema* pre_restrict) const {
  Database db;
  SeedInto(&db, parts, pre_restrict);
  return db;
}

void PreparedProgram::SeedInto(Database* db,
                               std::initializer_list<const Instance*> parts,
                               const Schema* pre_restrict) const {
  const bool seed_adom = info_.uses_adom && options_.populate_adom;
  const uint32_t adom_rel = AdomRelation();
  auto admitted = [&](uint32_t name, const Tuple& t) {
    return SchemaAdmits(info_.sch, name, t) &&
           (pre_restrict == nullptr || SchemaAdmits(*pre_restrict, name, t));
  };

  // The seeded Adom store must hold sorted(input Adom facts ∪ active-domain
  // values) — the insertion order the one-shot path produced by inserting
  // Adom facts into the sorted working Instance before building the
  // database — so derivation order (and with it ILOG's invented-value
  // numbering) is unchanged.
  std::set<Tuple> adom_facts;
  if (seed_adom) {
    for (const Instance* part : parts) {
      part->ForEachFact([&](uint32_t name, const Tuple& t) {
        if (!admitted(name, t)) return;
        if (name == adom_rel) {
          adom_facts.insert(t);
        } else if (adom_source_.ArityOf(name) != 0) {
          for (Value v : t) adom_facts.insert(Tuple{v});
        }
      });
    }
  }

  for (const Instance* part : parts) {
    part->ForEachFact([&](uint32_t name, const Tuple& t) {
      if (seed_adom && name == adom_rel) return;  // merged below, sorted
      if (admitted(name, t)) db->Insert(name, t);
    });
  }
  if (seed_adom) {
    for (const Tuple& t : adom_facts) db->Insert(adom_rel, t);
  }
}

Result<Database*> PreparedProgram::RunOnScratch(
    std::initializer_list<const Instance*> parts, const Schema* pre_restrict,
    EvalStats* stats, size_t* invented_count) const {
  if (fixed_negation_) {
    return InternalError(
        "EvalParts on a fixed-negation prepared program; use "
        "EvalFixedNegation");
  }
  Database* db = &LocalScratch().db;
  db->Reset();
  SeedInto(db, parts, pre_restrict);
  const size_t input_size = db->size();
  TraceSpan span("datalog.eval");
  span.Arg("strata", static_cast<int64_t>(strata_.size()));
  // The span wants round/derived totals even when the caller passed no stats
  // sink; borrow a local one in that case (only when a span is recording).
  EvalStats local_stats;
  EvalStats* sink = stats;
  if (sink == nullptr && span.active()) sink = &local_stats;
  InventionTable invention;
  for (size_t i = 0; i < strata_.size(); ++i) {
    const Stratum& s = strata_[i];
    if (engine_ == EvalEngine::kBytecode) {
      CALM_RETURN_IF_ERROR(RunFixpointBytecode(
          compiled_, bytecode_, s.rules, s.delta_sites, s.growing, i, db, db,
          options_, sink, &invention));
    } else {
      CALM_RETURN_IF_ERROR(RunFixpoint(compiled_, s.rules, s.delta_sites, i,
                                       db, db, options_, sink, &invention));
    }
  }
  if (sink != nullptr) sink->derived_facts = CountDerived(*db, input_size);
  if (invented_count != nullptr) *invented_count = invention.size();
  if (span.active() && sink != nullptr) {
    span.Arg("rounds", static_cast<int64_t>(sink->fixpoint_rounds));
    span.Arg("derived", static_cast<int64_t>(sink->derived_facts));
  }
  return db;
}

Result<Instance> PreparedProgram::Eval(const Instance& input, EvalStats* stats,
                                       size_t* invented_count) const {
  return EvalParts({&input}, nullptr, nullptr, stats, invented_count);
}

Result<Instance> PreparedProgram::EvalParts(
    std::initializer_list<const Instance*> parts, const Schema* pre_restrict,
    const Schema* post_restrict, EvalStats* stats,
    size_t* invented_count) const {
  CALM_ASSIGN_OR_RETURN(
      Database * db, RunOnScratch(parts, pre_restrict, stats, invented_count));
  return db->ToInstance(post_restrict);
}

Result<std::optional<Fact>> PreparedProgram::FirstMissing(
    std::initializer_list<const Instance*> parts, const Schema* pre_restrict,
    const std::vector<Fact>& probe) const {
  CALM_ASSIGN_OR_RETURN(Database * db,
                        RunOnScratch(parts, pre_restrict, nullptr, nullptr));
  return db->FirstAbsent(probe);
}

bool PreparedProgram::SupportsUnionBatch() const {
  if (engine_ != EvalEngine::kBytecode || !options_.semi_naive) return false;
  for (const CompiledRule& r : compiled_) {
    if (r.head.invents) return false;
  }
  return true;
}

void PreparedProgram::SeedMasked(Database* db, const Instance& base,
                                 const std::vector<const Instance*>& js,
                                 const Schema* pre_restrict,
                                 bool with_adom) const {
  const bool seed_adom =
      with_adom && info_.uses_adom && options_.populate_adom;
  const uint32_t adom_rel = AdomRelation();
  // SeedInto's admission and Adom rules, per world: Adom holds adom(I ∪ J_k)
  // in world k. Row order is free here — no invention, and answers are
  // world sets, not row positions. Facts come grouped by relation, so the
  // admission test and the store lookup run once per relation, and each
  // Adom value is seeded once with the union of its worlds.
  std::vector<std::pair<Value, uint64_t>> adom;
  auto seed = [&](const Instance& part, uint64_t worlds) {
    uint32_t rel = UINT32_MAX;
    size_t arity = 0;  // the admitted arity of `rel`; 0 admits nothing
    bool adom_source = false;
    RelStore* store = nullptr;
    part.ForEachFact([&](uint32_t name, const Tuple& t) {
      if (name != rel) {
        rel = name;
        arity = info_.sch.ArityOf(name);
        if (pre_restrict != nullptr && pre_restrict->ArityOf(name) != arity) {
          arity = 0;
        }
        adom_source = seed_adom && name != adom_rel &&
                      adom_source_.ArityOf(name) != 0;
        store = arity != 0 ? db->StoreOrCreate(name) : nullptr;
      }
      if (arity == 0 || t.size() != arity) return;
      store->SeedMasked(t, worlds);
      if (!adom_source) return;
      for (Value v : t) {
        auto it = std::find_if(adom.begin(), adom.end(),
                               [v](const auto& e) { return e.first == v; });
        if (it == adom.end()) {
          adom.emplace_back(v, worlds);
        } else {
          it->second |= worlds;
        }
      }
    });
  };
  seed(base, db->worlds());
  for (size_t k = 0; k < js.size(); ++k) seed(*js[k], uint64_t{1} << k);
  if (adom.empty()) return;
  RelStore* adom_store = db->StoreOrCreate(adom_rel);
  for (const auto& [v, worlds] : adom) adom_store->SeedMasked(Tuple{v}, worlds);
}

Status PreparedProgram::FirstMissingBatch(
    const Instance& base, const std::vector<const Instance*>& js,
    const Schema* pre_restrict, const std::vector<Fact>& probe,
    std::vector<std::optional<Fact>>* out, size_t* gammas) const {
  assert(SupportsUnionBatch());
  const size_t n = js.size();
  if (n == 0 || n > kMaxUnionBatch) {
    return InvalidArgumentError("a union batch holds 1 to 64 instances, got " +
                                std::to_string(n));
  }
  const uint64_t all = n == 64 ? ~uint64_t{0} : (uint64_t{1} << n) - 1;
  std::optional<Database> lo;  // a well-founded run's final lo
  Database* db;
  if (fixed_negation_) {
    db = &lo.emplace();
    CALM_ASSIGN_OR_RETURN(const size_t steps,
                          AlternateMasked(base, js, pre_restrict, all, db));
    if (gammas != nullptr) *gammas = steps;
  } else {
    db = &LocalScratch().db;
    db->Reset();
    db->EnableMasks(all);
    SeedMasked(db, base, js, pre_restrict);
    InventionTable invention;  // unused: invention is not batched
    for (size_t i = 0; i < strata_.size(); ++i) {
      const Stratum& s = strata_[i];
      CALM_RETURN_IF_ERROR(RunFixpointBytecode(
          compiled_, bytecode_, s.rules, s.delta_sites, s.growing, i, db, db,
          options_, nullptr, &invention));
    }
  }
  // World k's answer: the first probe fact whose world set lacks bit k.
  out->assign(n, std::nullopt);
  uint64_t open = all;
  for (const Fact& f : probe) {
    const uint64_t lacking = open & ~db->FullMask(f.relation, f.args);
    for (uint64_t m = lacking; m != 0; m &= m - 1) {
      (*out)[std::countr_zero(m)] = f;
    }
    open &= ~lacking;
    if (open == 0) break;
  }
  return Status::Ok();
}

Result<size_t> PreparedProgram::AlternateMasked(
    const Instance& base, const std::vector<const Instance*>& js,
    const Schema* pre_restrict, uint64_t worlds, Database* lo) const {
  // RunAlternatingFixpoint over masked databases sharing the seed's
  // dictionary: each Gamma copies the seed, and EmitRow<kMasked> subtracts
  // a negated fact's world set in the reference iterate, so world k
  // alternates exactly as base ∪ js[k] would.
  Database seed;
  seed.EnableMasks(worlds);
  SeedMasked(&seed, base, js, pre_restrict);
  size_t steps = 0;
  auto gamma = [&](const Database& neg, Database* out) {
    *out = seed.ShareDict();
    ++steps;
    return RunFixedNegation(out, neg);
  };
  *lo = seed.ShareDict();
  lo->Reset();
  lo->EnableMasks(worlds);
  SeedMasked(lo, base, js, pre_restrict, /*with_adom=*/false);

  // Per world, lo only grows and hi only shrinks (the unmasked argument),
  // so equal summed world-set sizes mean every world's lo and hi repeat;
  // a world at its fixpoint stays there while the others go on.
  Database hi, new_lo, new_hi;
  CALM_RETURN_IF_ERROR(gamma(*lo, &hi));
  while (true) {
    CALM_RETURN_IF_ERROR(gamma(hi, &new_lo));
    CALM_RETURN_IF_ERROR(gamma(new_lo, &new_hi));
    const bool fixed = new_lo.WorldWeight() == lo->WorldWeight() &&
                       new_hi.WorldWeight() == hi.WorldWeight();
    std::swap(*lo, new_lo);
    std::swap(hi, new_hi);
    if (fixed) return steps;
  }
}

Status PreparedProgram::RunFixedNegation(Database* db, const Database& neg_db,
                                         EvalStats* stats) const {
  if (!fixed_negation_) {
    return InternalError(
        "RunFixedNegation on a stratified prepared program; use Eval");
  }
  const size_t input_size = db->size();
  TraceSpan span("datalog.eval_fixed_negation");
  if (!strata_.empty()) {
    const Stratum& s = strata_[0];
    if (engine_ == EvalEngine::kBytecode) {
      CALM_RETURN_IF_ERROR(RunFixpointBytecode(compiled_, bytecode_, s.rules,
                                               s.delta_sites, s.growing, 0, db,
                                               &neg_db, options_, stats,
                                               nullptr));
    } else {
      CALM_RETURN_IF_ERROR(RunFixpoint(compiled_, s.rules, s.delta_sites, 0,
                                       db, &neg_db, options_, stats, nullptr));
    }
  }
  if (stats != nullptr) stats->derived_facts = CountDerived(*db, input_size);
  return Status::Ok();
}

Result<Instance> PreparedProgram::EvalFixedNegation(
    const Instance& input, const Instance& neg_reference,
    EvalStats* stats) const {
  Database db = MakeSeed({&input}, nullptr);
  CALM_RETURN_IF_ERROR(RunFixedNegation(&db, Database(neg_reference), stats));
  return db.ToInstance();
}

}  // namespace calm::datalog

#include "datalog/prepared.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <set>
#include <string>
#include <utility>

#include "base/metrics.h"
#include "base/trace.h"

namespace calm::datalog {

namespace {

// Replicates the Instance::Restrict admission rule.
inline bool SchemaAdmits(const Schema& schema, uint32_t name, const Tuple& t) {
  uint32_t arity = schema.ArityOf(name);
  return arity != 0 && t.size() == arity;
}

// Per-thread evaluation scratch: the working database, the executor's frame
// buffers and the row-range deltas live across calls (cleared, capacity
// kept), so a checker loop evaluating one prepared program millions of times
// allocates almost nothing after warm-up. Results are materialized into an
// Instance before returning, so reuse is invisible to callers; sharing one
// scratch between different programs on a thread is harmless (stores are
// empty between runs). The stratified Eval paths run on this scratch; the
// well-founded alternation manages its own seed copies (see
// RunFixedNegation).
struct EvalScratch {
  Database db;
  BytecodeScratch bytecode;
  std::vector<std::pair<uint32_t, uint32_t>> ranges;  // row-range deltas
};

EvalScratch& LocalScratch() {
  thread_local EvalScratch scratch;
  return scratch;
}

size_t CountDerived(const Database& db, size_t input_size) {
  return db.size() - std::min(db.size(), input_size);
}

// Flushes one fixpoint's tallies into the metrics registry. Out of line and
// called at most once per fixpoint, so the registry lookups (the per-stratum
// statics aside, the per-rule series are looked up by label each time) stay
// off the evaluation path entirely. The executor accumulates its tallies
// into plain counters unconditionally; whether anything observable happens
// with them is decided here, once, so instrumentation can never perturb
// evaluation order or results.
void FlushFixpointMetrics(const std::vector<CompiledRule>& compiled,
                          const ExecCounters& counters, size_t rounds,
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
  dedup.Increment(counters.rejected);
  inserts.Increment(counters.inserted);
  insert_hist.Observe(counters.inserted);
  for (size_t r = 0; r < rule_derived.size(); ++r) {
    if (rule_derived[r] == 0) continue;
    registry
        .GetCounter("calm.eval.rule_derivations",
                    {{"rule", NameOf(compiled[r].head.relation) + "#" +
                                  std::to_string(r)}})
        .Increment(rule_derived[r]);
  }
}

}  // namespace

void PreparedProgram::CompileRules(const Program& program) {
  RuleCompiler compiler;
  compiled_.reserve(program.rules.size());
  for (const Rule& r : program.rules) {
    compiled_.push_back(compiler.Compile(r, options_.reorder_joins));
  }
  bytecode_ = CompileBytecode(compiled_);
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

// The stratum driver, semi-naive over row ranges: instead of copying each
// round's new tuples into side stores, the delta of a growing relation is
// the contiguous row range its main store gained last round (rows are
// append-only). Derivations insert into the database as they are emitted;
// rounds stay isolated because the executor bounds every scan and probe of
// a growing relation to its row count at the start of the round (the
// visibility horizon, ranges[g].second). Round 0 evaluates every rule
// against the full database; each later round runs the delta sites.
Status PreparedProgram::RunStratum(size_t index, Database* db,
                                   const Database* negation_db,
                                   EvalStats* stats,
                                   InventionTable* invention) const {
  const Stratum& stratum = strata_[index];
  const std::vector<uint32_t>& growing = stratum.growing;
  TraceSpan span("datalog.stratum");
  span.Arg("stratum", static_cast<int64_t>(index));
  ExecCounters exec;
  const bool metrics_on = MetricsEnabled();
  std::vector<uint64_t> rule_derived;
  if (metrics_on) rule_derived.assign(compiled_.size(), 0);
  size_t rounds = 0;

  // The executor holds RelStore pointers across inserts; pre-creating the
  // head-relation stores pins the relation table's layout.
  db->EnsureStores(growing);

  EvalScratch& scratch = LocalScratch();
  // Delta row ranges and visibility horizons, parallel to `growing`:
  // [first, second) is the previous round's growth, and second — the row
  // count when the current round started — bounds what this round may see.
  std::vector<std::pair<uint32_t, uint32_t>>& ranges = scratch.ranges;
  BytecodeExecutor executor(bytecode_, db, negation_db, &growing, &ranges,
                            invention, &exec, &scratch.bytecode);
  executor.SetFrameLimit(options_.max_total_facts);
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
    if (stats != nullptr) ++stats->fixpoint_rounds;
    ++rounds;
    return any;
  };
  // Per-rule derivation tally = this Eval's insert attempts (new + dup).
  auto attempts = [&] { return exec.inserted + exec.rejected; };

  auto finish = [&](Status status) {
    if (stats != nullptr) stats->rule_applications += exec.applications;
    if (span.active()) {
      span.Arg("rounds", static_cast<int64_t>(rounds));
      span.Arg("inserts", static_cast<int64_t>(exec.inserted));
      span.Arg("probes", static_cast<int64_t>(exec.probes));
      span.Arg("probe_hits", static_cast<int64_t>(exec.probe_hits));
      span.Arg("dedup_rejected", static_cast<int64_t>(exec.rejected));
    }
    if (metrics_on) FlushFixpointMetrics(compiled_, exec, rounds, rule_derived);
    return status;
  };
  // Runs one rule, whole (kNoDelta) or with one atom over [lo, hi).
  auto eval = [&](uint32_t r, size_t delta_index, uint32_t lo, uint32_t hi) {
    const uint64_t before = attempts();
    executor.Eval(bytecode_.rules[r], delta_index, lo, hi);
    if (executor.exhausted()) return false;
    if (metrics_on) rule_derived[r] += attempts() - before;
    return true;
  };
  auto frames_exhausted = [] {
    return ResourceExhaustedError("rule evaluation exceeded max_total_facts");
  };

  for (uint32_t r : stratum.rules) {
    if (!eval(r, BytecodeExecutor::kNoDelta, 0, 0)) {
      return finish(frames_exhausted());
    }
  }
  while (advance()) {
    if (db->size() > options_.max_total_facts) {
      return finish(
          ResourceExhaustedError("fixpoint exceeded max_total_facts"));
    }
    // Each (rule, growing-atom) site runs with that atom restricted to its
    // relation's last-round row range.
    for (const auto& [r, atom_index] : stratum.delta_sites) {
      const uint32_t rel = compiled_[r].pos[atom_index].relation;
      const size_t g =
          std::lower_bound(growing.begin(), growing.end(), rel) -
          growing.begin();
      const auto [lo, hi] = ranges[g];
      if (lo < hi && !eval(r, atom_index, lo, hi)) {
        return finish(frames_exhausted());
      }
    }
  }
  return finish(Status::Ok());
}

Result<PreparedProgram> PreparedProgram::Prepare(const Program& program,
                                                 const EvalOptions& options,
                                                 bool allow_invention) {
  PreparedProgram p;
  CALM_ASSIGN_OR_RETURN(p.info_, Analyze(program, allow_invention));
  CALM_ASSIGN_OR_RETURN(Stratification strat, Stratify(program, p.info_));
  p.options_ = options;
  p.CompileRules(program);
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
  p.fixed_negation_ = true;
  p.CompileRules(program);
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
  const bool seed_adom = info_.uses_adom;
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
    CALM_RETURN_IF_ERROR(RunStratum(i, db, db, sink, &invention));
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
  for (const CompiledRule& r : compiled_) {
    if (r.head.invents) return false;
  }
  return true;
}

void PreparedProgram::SeedMasked(Database* db, const MaskedSeed& seed,
                                 const Schema* pre_restrict,
                                 bool with_adom) const {
  const bool seed_adom = with_adom && info_.uses_adom;
  const uint32_t adom_rel = AdomRelation();
  // SeedInto's admission and Adom rules, per world: Adom holds adom(I ∪ J_k)
  // in world k. Row order is free here — no invention, and answers are
  // world sets, not row positions. Facts come grouped by relation, so the
  // admission test and the store lookup run once per relation, and each
  // Adom value is seeded once with the union of its worlds.
  std::vector<std::pair<Value, uint64_t>> adom;
  uint32_t rel = UINT32_MAX;
  size_t arity = 0;  // the admitted arity of `rel`; 0 admits nothing
  bool adom_source = false;
  RelStore* store = nullptr;
  auto seed_fact = [&](uint32_t name, const Tuple& t, uint64_t worlds) {
    if (name != rel) {
      rel = name;
      arity = info_.sch.ArityOf(name);
      if (pre_restrict != nullptr && pre_restrict->ArityOf(name) != arity) {
        arity = 0;
      }
      adom_source =
          seed_adom && name != adom_rel && adom_source_.ArityOf(name) != 0;
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
  };
  auto seed_part = [&](const Instance& part, uint64_t worlds) {
    part.ForEachFact(
        [&](uint32_t name, const Tuple& t) { seed_fact(name, t, worlds); });
  };
  if (seed.inputs != nullptr) {
    for (size_t k = 0; k < seed.inputs->size(); ++k) {
      seed_part(*(*seed.inputs)[k], uint64_t{1} << k);
    }
  } else {
    // Transposed: each candidate once, with the worlds whose J holds it.
    seed_part(*seed.base, db->worlds());
    const std::vector<Fact>& candidates = *seed.candidates;
    std::vector<uint64_t> worlds(candidates.size(), 0);
    for (size_t k = 0; k < seed.subsets->size(); ++k) {
      for (uint32_t c : (*seed.subsets)[k]) worlds[c] |= uint64_t{1} << k;
    }
    for (size_t c = 0; c < candidates.size(); ++c) {
      if (worlds[c] != 0) {
        seed_fact(candidates[c].relation, candidates[c].args, worlds[c]);
      }
    }
  }
  if (adom.empty()) return;
  RelStore* adom_store = db->StoreOrCreate(adom_rel);
  for (const auto& [v, worlds] : adom) adom_store->SeedMasked(Tuple{v}, worlds);
}

Result<const Database*> PreparedProgram::RunMasked(
    const MaskedSeed& seed, const Schema* pre_restrict,
    std::optional<Database>* lo, size_t* gammas) const {
  assert(SupportsUnionBatch());
  const size_t n = seed.worlds();
  if (n == 0 || n > kMaxUnionBatch) {
    return InvalidArgumentError("a masked batch holds 1 to 64 instances, got " +
                                std::to_string(n));
  }
  const uint64_t all = n == 64 ? ~uint64_t{0} : (uint64_t{1} << n) - 1;
  if (fixed_negation_) {
    Database* db = &lo->emplace();
    CALM_ASSIGN_OR_RETURN(const size_t steps,
                          AlternateMasked(seed, pre_restrict, all, db));
    if (gammas != nullptr) *gammas = steps;
    return db;
  }
  Database* db = &LocalScratch().db;
  db->Reset();
  db->EnableMasks(all);
  SeedMasked(db, seed, pre_restrict);
  // No invention table: SupportsUnionBatch() excludes inventing rules.
  for (size_t i = 0; i < strata_.size(); ++i) {
    CALM_RETURN_IF_ERROR(RunStratum(i, db, db, nullptr, nullptr));
  }
  return db;
}

Status PreparedProgram::FirstMissingBatch(
    const Instance& base, const std::vector<Fact>& candidates,
    const FactSubsets& js, const Schema* pre_restrict,
    const std::vector<Fact>& probe, std::vector<std::optional<Fact>>* out,
    size_t* gammas) const {
  std::optional<Database> lo;  // a well-founded run's final lo
  MaskedSeed seed;
  seed.base = &base;
  seed.candidates = &candidates;
  seed.subsets = &js;
  CALM_ASSIGN_OR_RETURN(const Database* db,
                        RunMasked(seed, pre_restrict, &lo, gammas));
  // World k's answer: the first probe fact whose world set lacks bit k.
  const size_t n = js.size();
  out->assign(n, std::nullopt);
  uint64_t open = db->worlds();
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

Status PreparedProgram::EvalBatch(const std::vector<const Instance*>& js,
                                  const Schema* pre_restrict,
                                  const Schema* post_restrict,
                                  std::vector<Instance>* out,
                                  size_t* gammas) const {
  std::optional<Database> lo;  // a well-founded run's final lo
  MaskedSeed seed;
  seed.inputs = &js;
  CALM_ASSIGN_OR_RETURN(const Database* db,
                        RunMasked(seed, pre_restrict, &lo, gammas));
  // World k holds exactly the facts with bit k in some row's mask, and
  // version rows never repeat a (fact, world), so each world collects every
  // one of its facts once. Rows are appended per relation, sorted, and
  // moved in, as Database::ToInstance does for one world.
  const size_t n = js.size();
  out->assign(n, Instance());
  std::vector<std::vector<Tuple>> rows(n);
  Tuple scratch;
  db->ForEachStore([&](uint32_t name, const RelStore& store) {
    if (store.row_count() == 0) return;
    if (post_restrict != nullptr) {
      const uint32_t want = post_restrict->ArityOf(name);
      if (want == 0 || static_cast<int>(want) != store.arity()) return;
    }
    for (uint32_t r = 0; r < store.row_count(); ++r) {
      store.MaterializeRow(r, &scratch);
      for (uint64_t m = store.RowMask(r); m != 0; m &= m - 1) {
        rows[std::countr_zero(m)].push_back(scratch);
      }
    }
    for (size_t k = 0; k < n; ++k) {
      if (rows[k].empty()) continue;
      std::sort(rows[k].begin(), rows[k].end());
      (*out)[k].InsertSortedUnique(name, std::move(rows[k]));
      rows[k].clear();
    }
  });
  return Status::Ok();
}

Result<size_t> PreparedProgram::AlternateMasked(const MaskedSeed& seed,
                                                const Schema* pre_restrict,
                                                uint64_t worlds,
                                                Database* lo) const {
  // RunAlternatingFixpoint over masked databases sharing the seed's
  // dictionary: each Gamma copies the seed, and EmitRow<kMasked> subtracts
  // a negated fact's world set in the reference iterate, so world k
  // alternates exactly as its own input would.
  Database seeded;
  seeded.EnableMasks(worlds);
  SeedMasked(&seeded, seed, pre_restrict);
  size_t steps = 0;
  auto gamma = [&](const Database& neg, Database* out) {
    *out = seeded.ShareDict();
    ++steps;
    return RunFixedNegation(out, neg);
  };
  *lo = seeded.ShareDict();
  lo->Reset();
  lo->EnableMasks(worlds);
  SeedMasked(lo, seed, pre_restrict, /*with_adom=*/false);

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
    CALM_RETURN_IF_ERROR(RunStratum(0, db, &neg_db, stats, nullptr));
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

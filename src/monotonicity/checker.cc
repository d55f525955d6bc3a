#include "monotonicity/checker.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/canonical.h"
#include "base/enumerator.h"
#include "base/metrics.h"
#include "base/thread_pool.h"
#include "base/trace.h"
#include "monotonicity/sweep_checkpoint.h"
#include "workload/instance_gen.h"

namespace calm::monotonicity {

const char* MonotonicityClassName(MonotonicityClass cls) {
  switch (cls) {
    case MonotonicityClass::kMonotone:
      return "M";
    case MonotonicityClass::kDomainDistinct:
      return "Mdistinct";
    case MonotonicityClass::kDomainDisjoint:
      return "Mdisjoint";
  }
  return "?";
}

std::string Counterexample::ToString() const {
  return "I = " + i.ToString() + ", J = " + j.ToString() +
         ", retracted output fact: " + FactToString(retracted);
}

void PairChecker::Prepare() {
  base_ready_ = true;
  base_status_ = query_.EvalFacts(i_, &base_facts_);
  if (!base_status_.ok()) return;
  union_eval_ = query_.MakeUnionEvaluator(i_);
  batch_limit_ = union_eval_->MaxBatch();
}

Result<std::optional<Counterexample>> PairChecker::Check(const Instance& j) {
  if (!base_ready_) Prepare();
  if (!base_status_.ok()) return base_status_;

  // The union evaluator owns all per-pair state about i. Every route
  // reports the first base fact missing from Q(i u j) in Q(i)'s iteration
  // order, so the counterexample is identical to evaluating the pair in
  // isolation.
  CALM_ASSIGN_OR_RETURN(std::optional<Fact> missing,
                        union_eval_->FirstRetracted(j, base_facts_));
  if (missing.has_value()) {
    return std::optional<Counterexample>(
        Counterexample{i_, j, *std::move(missing)});
  }
  return std::optional<Counterexample>();
}

const std::vector<Result<std::optional<Fact>>>& PairChecker::CheckBatch(
    const std::vector<Fact>& candidates, const FactSubsets& js) {
  if (!base_ready_) Prepare();
  if (!base_status_.ok()) {
    answers_.assign(js.size(), base_status_);
  } else {
    union_eval_->FirstRetractedBatch(candidates, js, base_facts_, &answers_);
  }
  return answers_;
}

Result<std::optional<Counterexample>> CheckPair(const Query& query,
                                                const Instance& i,
                                                const Instance& j) {
  return PairChecker(query, i).Check(j);
}

std::vector<Fact> CandidateJFacts(const Schema& schema, const Instance& i,
                                  const std::vector<Value>& fresh,
                                  MonotonicityClass cls) {
  std::set<Value> adom_i = i.ActiveDomain();
  std::vector<Value> mixed(adom_i.begin(), adom_i.end());
  mixed.insert(mixed.end(), fresh.begin(), fresh.end());

  std::vector<Fact> all;
  switch (cls) {
    case MonotonicityClass::kMonotone:
      all = AllFactsOver(schema, mixed);
      break;
    case MonotonicityClass::kDomainDistinct: {
      for (Fact& f : AllFactsOver(schema, mixed)) {
        if (FactDomainDistinctFrom(f, adom_i)) all.push_back(std::move(f));
      }
      break;
    }
    case MonotonicityClass::kDomainDisjoint:
      all = AllFactsOver(schema, fresh);
      break;
  }
  // Drop facts already in I (their addition is a no-op).
  std::vector<Fact> out;
  for (Fact& f : all) {
    if (!i.Contains(f)) out.push_back(std::move(f));
  }
  return out;
}

std::vector<std::map<Value, Value>> StabilizerValueMaps(
    const Instance& i, const std::vector<Value>& fresh) {
  constexpr size_t kMaxMaps = 512;  // dropping maps only loses reduction
  std::vector<std::map<Value, Value>> auts = InstanceAutomorphisms(i);
  std::vector<std::vector<Value>> fresh_perms;
  std::vector<Value> p = fresh;
  do {
    fresh_perms.push_back(p);
  } while (std::next_permutation(p.begin(), p.end()));

  std::vector<std::map<Value, Value>> out;
  out.reserve(std::min(kMaxMaps, auts.size() * fresh_perms.size()));
  for (const std::map<Value, Value>& aut : auts) {
    for (const std::vector<Value>& fp : fresh_perms) {
      if (out.size() >= kMaxMaps) return out;
      std::map<Value, Value> m = aut;
      for (size_t t = 0; t < fresh.size(); ++t) m[fresh[t]] = fp[t];
      out.push_back(std::move(m));
    }
  }
  return out;
}

std::vector<MonotonicityClass> CandidateKinds(
    const std::vector<Fact>& candidates, const std::set<Value>& adom_i) {
  std::vector<MonotonicityClass> out;
  out.reserve(candidates.size());
  for (const Fact& f : candidates) {
    size_t old = 0;
    for (Value v : f.args) old += adom_i.count(v);
    out.push_back(old == 0            ? MonotonicityClass::kDomainDisjoint
                  : old < f.arity() ? MonotonicityClass::kDomainDistinct
                                    : MonotonicityClass::kMonotone);
  }
  return out;
}

namespace {

// One cell's first stopping event (error or counterexample) in its own J
// enumeration order, at the least candidate index seen so far.
struct CellOutcome {
  Status error;  // ok() when `cex` carries the event
  std::optional<Counterexample> cex;
};

// --- Sweep plan cache ----------------------------------------------------
//
// Everything a sweep enumerates — its I list, and per I the J-candidate
// facts and the J-subset stream (for a reduced sweep: the canonical I
// representatives, and J's filtered by the stabilizer index permutations) —
// depends only on (schema, bounds, class, reduce), never on the query.
// Ladder runs and repeated checks would re-derive all of it, and the
// derivation (orbit canonicalization, automorphism search, candidate lists)
// costs more than the checks themselves at paper-scale bounds. So it is
// derived once per key into a plan: the I list and, per I, its candidates
// (compactly, as indices into one fact universe) and the stabilizer's
// index permutations of them. When the J streams' summed SubsetCountBound
// is under kMaxPlanPairs (decided before any J list is built), the plan
// also materializes each I's J stream, as index subsets of its candidates;
// over the cap, a visit draws its J's from ForEachIndexSubset over the
// stored permutations, which costs no memory per J. Checking walks the plan
// through a PairChecker in the same J order either way, so verdicts,
// counterexamples, and stop points are byte-identical — only the
// enumeration work is amortized, never the checks. Reduced and full sweeps
// get plans under different keys.
struct SweepPlanEntry {
  Instance i;
  std::vector<uint32_t> candidates;  // CandidateJFacts, as universe indices
  // The stabilizer's index permutations of the candidates (reduced only).
  std::vector<std::vector<uint32_t>> perms;
  FactSubsets js;  // J's in enumeration order, when materialized
};

struct SweepPlan {
  std::vector<Fact> universe;  // every fact over the domain and fresh values
  bool materialized = false;   // every entry holds its J list
  std::vector<SweepPlanEntry> entries;
};

// Σ_{k<=max_facts} C(n, k), saturating at `cap` — an upper bound on the
// J-subset stream length (the canonical stream only drops members).
uint64_t SubsetCountBound(uint64_t n, uint64_t max_facts, uint64_t cap) {
  uint64_t total = 1;  // the empty subset
  uint64_t choose = 1;
  for (uint64_t k = 1; k <= max_facts && k <= n; ++k) {
    choose = choose * (n - k + 1) / k;
    total += choose;
    if (total >= cap) return cap;
  }
  return total;
}

std::shared_ptr<const SweepPlan> GetSweepPlan(const Schema& schema,
                                              const SweepCell& cell,
                                              const ExhaustiveOptions& options,
                                              bool reduce,
                                              const std::vector<Value>& domain,
                                              const std::vector<Value>& fresh) {
  constexpr uint64_t kMaxPlanPairs = 1u << 17;
  std::string key = schema.ToString();
  for (size_t v : {options.domain_size, options.fresh_values,
                   options.max_facts_i, cell.max_facts_j,
                   static_cast<size_t>(cell.cls), static_cast<size_t>(reduce)}) {
    key += '|';
    key += std::to_string(v);
  }

  static std::mutex mu;
  static auto* cache =
      new std::unordered_map<std::string, std::shared_ptr<const SweepPlan>>();
  {
    std::lock_guard<std::mutex> lock(mu);
    auto it = cache->find(key);
    if (it != cache->end()) return it->second;
  }

  // Build outside the lock: concurrent misses may build duplicate plans, but
  // the plans are identical and the first insert wins.
  auto plan = std::make_shared<SweepPlan>();
  std::vector<Value> values = domain;
  values.insert(values.end(), fresh.begin(), fresh.end());
  plan->universe = AllFactsOver(schema, values);
  std::unordered_map<Fact, uint32_t, FactHash> index;
  for (uint32_t u = 0; u < plan->universe.size(); ++u) {
    index.emplace(plan->universe[u], u);
  }
  std::vector<Instance> is =
      reduce ? AllCanonicalInstances(schema, domain, options.max_facts_i)
             : AllInstances(schema, domain, options.max_facts_i);
  plan->entries.resize(is.size());
  uint64_t pairs = 0;
  for (size_t k = 0; k < is.size(); ++k) {
    SweepPlanEntry& entry = plan->entries[k];
    entry.i = std::move(is[k]);
    const std::vector<Fact> candidates =
        CandidateJFacts(schema, entry.i, fresh, cell.cls);
    entry.candidates.reserve(candidates.size());
    for (const Fact& f : candidates) entry.candidates.push_back(index.at(f));
    if (reduce) {
      entry.perms = FactIndexPermutations(candidates,
                                          StabilizerValueMaps(entry.i, fresh));
    }
    pairs += SubsetCountBound(candidates.size(), cell.max_facts_j,
                              kMaxPlanPairs);
  }
  plan->materialized = pairs < kMaxPlanPairs;
  if (plan->materialized) {
    for (SweepPlanEntry& entry : plan->entries) {
      ForEachIndexSubset(entry.candidates.size(), cell.max_facts_j,
                         entry.perms, [&](std::span<const uint32_t> j) {
                           entry.js.Add(j);
                           return true;
                         });
    }
  }

  std::lock_guard<std::mutex> lock(mu);
  return cache->emplace(key, std::move(plan)).first->second;
}

// A stream's buffered J's (FindViolations' visit), kept per thread so the
// buffers' allocations are reused across I's and sweeps. Sweeps never nest
// on one thread (no query evaluation runs a sweep).
struct BatchBuffer {
  std::vector<Fact> candidates;  // the stream's candidate facts
  FactSubsets batch;             // J's awaiting a flush
  std::vector<int> kinds;        // each batched J's narrowest class
};

BatchBuffer& LocalBatchBuffer() {
  thread_local BatchBuffer buf;
  return buf;
}

// Calls fn(c) for every cell index c set in `mask`, ascending.
template <typename Fn>
void ForEachCell(uint64_t mask, Fn fn) {
  for (; mask != 0; mask &= mask - 1) {
    fn(static_cast<size_t>(std::countr_zero(mask)));
  }
}

}  // namespace

Result<std::vector<std::optional<Counterexample>>> FindViolations(
    const Query& query, const std::vector<SweepCell>& cells,
    const ExhaustiveOptions& options) {
  const size_t n = cells.size();
  if (n > 64) {
    return InvalidArgumentError("a sweep resolves at most 64 cells, got " +
                                std::to_string(n));
  }
  if (n > 1 && !options.checkpoint_dir.empty()) {
    return InvalidArgumentError("checkpoint_dir journals one-cell sweeps only");
  }
  std::vector<std::optional<Counterexample>> out(n);
  if (n == 0) return out;
  const Schema& schema = query.input_schema();
  std::vector<Value> domain = IntDomain(options.domain_size);
  std::vector<Value> fresh = IntDomain(options.fresh_values, 1000);
  auto cls_of = [&](size_t c) { return static_cast<int>(cells[c].cls); };
  auto bound = [&](size_t c) { return cells[c].max_facts_j; };
  uint64_t of_class[3] = {};
  for (size_t c = 0; c < n; ++c) of_class[cls_of(c)] |= uint64_t{1} << c;

  // The head of the stream covering `open`: the widest class in it, at that
  // class's largest bound. The stream serves every cell of `open` up to the
  // head's bound (all are the head's class or narrower).
  auto head_of = [&](uint64_t open) {
    int k = 0;
    while ((open & of_class[k]) == 0) ++k;
    size_t head = n;
    ForEachCell(open & of_class[k], [&](size_t c) {
      if (head == n || bound(c) > bound(head)) head = c;
    });
    return head;
  };

  // With the symmetry reduction active, the I stream keeps only the
  // enumeration-least member of each isomorphism orbit; violation existence
  // is orbit-invariant for a generic query, so the first violating
  // representative is the full stream's first violating instance. The same
  // argument filters each I's J space under the stabilizer maps. Plans are
  // looked up once per stream head per sweep; all plans for these bounds
  // and this `reduce` hold the same I list, so the first head's plan
  // supplies it.
  bool reduce = ResolveSymmetry(query, options.symmetry, options.domain_size,
                                options.max_facts_i) == SymmetryMode::kForceOn;
  std::vector<std::once_flag> plan_once(n);
  std::vector<std::shared_ptr<const SweepPlan>> plans(n);
  auto plan_for = [&](size_t head) {
    std::call_once(plan_once[head], [&] {
      plans[head] =
          GetSweepPlan(schema, cells[head], options, reduce, domain, fresh);
    });
    return plans[head].get();
  };
  const uint64_t all = n == 64 ? ~uint64_t{0} : (uint64_t{1} << n) - 1;
  const SweepPlan& i_plan = *plan_for(head_of(all));
  const size_t space = i_plan.entries.size();

  // Candidate indices are partitioned across the pool. A cell's winner is
  // its first stopping event at the least index, which is exactly what its
  // single-threaded nested loop returns — so verdicts and counterexamples
  // are deterministic and thread-count-independent. first_stop[c] is cell
  // c's least event index so far (written under outcomes_mu); the cell is
  // open at idx while first_stop[c] > idx, which prunes indices that can no
  // longer win.
  std::vector<std::atomic<size_t>> first_stop(n);
  for (std::atomic<size_t>& f : first_stop) f.store(space);
  std::mutex outcomes_mu;
  std::vector<CellOutcome> outcomes(n);

  // Durable sweep journal (sweep_checkpoint.h). The file identity encodes
  // the query, kind, class, and every bound, and its Begin record pins
  // `space`, so replayed progress always belongs to this exact sweep.
  std::unique_ptr<SweepCheckpoint> ckpt;
  if (!options.checkpoint_dir.empty()) {
    CALM_ASSIGN_OR_RETURN(
        ckpt, SweepCheckpoint::Open(
                  options.checkpoint_dir,
                  SweepFileId(query.name(), "fv",
                              MonotonicityClassName(cells[0].cls),
                              options.domain_size, options.fresh_values,
                              options.max_facts_i, cells[0].max_facts_j),
                  space));
    // A complete run's recorded winner is the verdict. Otherwise the least
    // recorded stop seeds the cell and prunes everything behind it, exactly
    // as if this run had found it itself.
    const uint64_t winner = ckpt->complete() ? ckpt->winner()
                            : ckpt->stops().empty()
                                ? space
                                : ckpt->stops().begin()->first;
    const SweepStop* stop = winner < space ? ckpt->StopAt(winner) : nullptr;
    if (stop != nullptr) {
      outcomes[0].error = stop->error;
      if (stop->has_witness) {
        outcomes[0].cex = Counterexample{stop->i, stop->j, stop->fact};
      }
      first_stop[0].store(winner);
    } else if (ckpt->complete() && winner < space) {
      return InternalError("sweep checkpoint: complete without a stop at " +
                           std::to_string(winner));
    }
    if (ckpt->complete()) {
      if (!outcomes[0].error.ok()) return outcomes[0].error;
      out[0] = std::move(outcomes[0].cex);
      return out;
    }
  }
  std::atomic<bool> cancelled{false};
  auto cancel_requested = [&]() {
    if (options.cancel == nullptr ||
        !options.cancel->load(std::memory_order_relaxed)) {
      return false;
    }
    cancelled.store(true, std::memory_order_relaxed);
    return true;
  };

  TraceSpan span("checker.find_violation");
  span.Arg("class", static_cast<int64_t>(cells[0].cls));
  span.Arg("cells", static_cast<int64_t>(n));
  span.Arg("instances", static_cast<int64_t>(space));
  span.Arg("reduced", reduce ? 1 : 0);
  // 1 when the stream covering every cell walks materialized J lists; 0
  // when its plan is over the cap and it streams.
  span.Arg("planned", i_plan.materialized ? 1 : 0);
  const bool metrics_on = MetricsEnabled();
  // Pair totals feed the span and the progress counters (labeled by the
  // stream's class); they are only tallied when somebody is listening.
  const bool observing = metrics_on || span.active();
  std::atomic<uint64_t> pairs_total{0};
  Counter* instances_done[3] = {};
  Counter* pairs_done[3] = {};
  Counter* skipped_done = nullptr;
  Counter* union_batches = nullptr;
  Histogram* batch_worlds = nullptr;
  if (metrics_on) {
    MetricRegistry& registry = MetricRegistry::Global();
    for (int k = 0; k < 3; ++k) {
      if (of_class[k] == 0) continue;
      const char* name =
          MonotonicityClassName(static_cast<MonotonicityClass>(k));
      instances_done[k] = &registry.GetCounter(
          "calm.checker.instances_examined", {{"class", name}});
      pairs_done[k] =
          &registry.GetCounter("calm.checker.pairs_checked", {{"class", name}});
    }
    if (ckpt != nullptr) {
      skipped_done = &registry.GetCounter("calm.durable.sweep_skipped");
    }
    union_batches = &registry.GetCounter("calm.checker.union_batches");
    batch_worlds = &registry.GetHistogram("calm.checker.union_batch_worlds");
    if (!i_plan.materialized) {
      registry.GetCounter("calm.checker.streamed_sweeps").Increment();
    }
  }

  ParallelFor(space, options.threads, [&](size_t idx) {
    if (cancel_requested()) return;
    if (ckpt != nullptr && ckpt->IsRecorded(idx)) {
      // A prior run durably finished this candidate; its outcome (if the
      // least stop) was seeded above.
      if (skipped_done != nullptr) skipped_done->Increment();
      return;
    }
    uint64_t open = 0;
    ForEachCell(all, [&](size_t c) {
      if (first_stop[c].load(std::memory_order_relaxed) > idx) {
        open |= uint64_t{1} << c;
      }
    });
    if (open == 0) return;
    const Instance& i = i_plan.entries[idx].i;
    // One checker per outer I: Q(i) is computed at most once and reused
    // across every stream below.
    PairChecker checker(query, i);
    BatchBuffer& buf = LocalBatchBuffer();
    std::set<Value> adom_i;
    // A candidate pruned mid-enumeration (a lower index already stopped, or
    // a cancel arrived) was NOT fully examined, so it must not be journaled
    // as Done — the Done record means "every J was checked".
    bool pruned = false;
    bool stopped = false;
    while (open != 0) {
      const size_t head = head_of(open);
      uint64_t served = 0;
      ForEachCell(open, [&](size_t c) {
        if (bound(c) <= bound(head)) served |= uint64_t{1} << c;
      });
      open &= ~served;
      // Every J of the stream is in the head's class, so kinds only matter
      // when it serves a narrower one.
      const bool tag = (served & ~of_class[cls_of(head)]) != 0;
      if (tag && adom_i.empty()) adom_i = i.ActiveDomain();
      uint64_t pairs_here = 0;
      // The cells of `served` still open at idx (`live`, the same for every
      // j) and those whose space holds a j of this kind and size.
      auto cells_at = [&](int kind, size_t j_size, uint64_t* hit) {
        uint64_t live = 0;
        *hit = 0;
        ForEachCell(served, [&](size_t c) {
          if (first_stop[c].load(std::memory_order_relaxed) <= idx) return;
          live |= uint64_t{1} << c;
          if (cls_of(c) <= kind && j_size <= bound(c)) {
            *hit |= uint64_t{1} << c;
          }
        });
        return live;
      };
      // One checked j's stopping event (an error or a violation), given the
      // cells live and hit at that point of the J order. Returns whether
      // the stream goes on.
      auto settle = [&](uint64_t live, uint64_t hit, CellOutcome event) {
        stopped = true;
        if (ckpt != nullptr) {
          // Durable before visible: the stop is journaled before it can
          // prune (and thus silence) higher indices in this run.
          SweepStop stop;
          stop.error = event.error;
          if (event.cex.has_value()) {
            stop.has_witness = true;
            stop.i = event.cex->i;
            stop.j = event.cex->j;
            stop.fact = event.cex->retracted;
          }
          ckpt->RecordStop(idx, stop);
        }
        std::lock_guard<std::mutex> lock(outcomes_mu);
        ForEachCell(hit, [&](size_t c) {
          if (idx < first_stop[c].load(std::memory_order_relaxed)) {
            outcomes[c] = event;
            first_stop[c].store(idx, std::memory_order_relaxed);
          }
        });
        return (live & ~hit) != 0;
      };
      // Every J of the stream is an index subset of the plan entry's
      // candidate list, copied here out of the plan's universe. A J's kind
      // is the least kind of its candidates, computed once per stream.
      const SweepPlan& plan = *plan_for(head);
      const SweepPlanEntry& entry = plan.entries[idx];
      std::vector<Fact>& candidates = buf.candidates;
      candidates.clear();
      for (uint32_t u : entry.candidates) {
        candidates.push_back(plan.universe[u]);
      }
      std::vector<MonotonicityClass> kinds;
      if (tag) kinds = CandidateKinds(candidates, adom_i);
      // With a batching union evaluator, the j's this stream would check
      // are buffered, answered together (PairChecker::CheckBatch) and
      // settled in J order. A stop closes cells, so once one has settled,
      // live and hit cells are re-read per j (a stop on another thread may
      // close cells too, which only costs extra checks); answers past a
      // stream's end are dropped. Otherwise each j is checked in place, as
      // one Instance edited from the last.
      SubsetInstance single(candidates);
      buf.batch.clear();
      buf.kinds.clear();
      auto count_batch = [&](size_t worlds) {
        if (!metrics_on) return;
        union_batches->Increment();
        batch_worlds->Observe(worlds);
      };
      auto flush = [&] {
        const std::vector<Result<std::optional<Fact>>>& answers =
            checker.CheckBatch(candidates, buf.batch);
        count_batch(buf.batch.size());
        bool go = true;
        bool stop_settled = false;
        for (size_t b = 0; b < buf.batch.size() && go; ++b) {
          const Result<std::optional<Fact>>& a = answers[b];
          const bool none = a.ok() && !a->has_value();
          // Until a stop here, j is as live and hit as visit found it.
          if (none && !stop_settled) {
            ++pairs_here;
            continue;
          }
          uint64_t hit = 0;
          const uint64_t live =
              cells_at(buf.kinds[b], buf.batch[b].size(), &hit);
          if (live == 0 || cancel_requested()) {
            pruned = true;
            go = false;
          } else if (hit != 0) {
            ++pairs_here;
            if (none) continue;
            // Only a stopping answer builds its witness J.
            CellOutcome event{a.status(), std::nullopt};
            if (a.ok()) {
              Instance j;
              for (uint32_t c : buf.batch[b]) j.Insert(candidates[c]);
              event.cex = Counterexample{i, std::move(j), **a};
            }
            stop_settled = true;
            go = settle(live, hit, std::move(event));
          }
        }
        buf.batch.clear();
        buf.kinds.clear();
        return go;
      };
      auto visit = [&](std::span<const uint32_t> j) {
        int kind = cls_of(head);
        if (tag) {
          kind = static_cast<int>(MonotonicityClass::kDomainDisjoint);
          for (uint32_t c : j) kind = std::min(kind, static_cast<int>(kinds[c]));
        }
        uint64_t hit = 0;
        const uint64_t live = cells_at(kind, j.size(), &hit);
        if (live == 0 || cancel_requested()) {
          // Every buffered j would settle the same way: live does not
          // depend on j, and cells only close.
          pruned = true;
          buf.batch.clear();
          buf.kinds.clear();
          return false;
        }
        if (hit == 0) return true;
        const size_t limit = checker.batch_limit();
        if (limit == 1) {
          Result<std::optional<Counterexample>> r =
              checker.Check(single.Set(j));
          count_batch(1);
          ++pairs_here;
          if (r.ok() && !r->has_value()) return true;
          return settle(live, hit,
                        CellOutcome{r.status(), r.ok() ? std::move(r).value()
                                                       : std::nullopt});
        }
        buf.batch.Add(j);
        buf.kinds.push_back(kind);
        return buf.batch.size() < limit || flush();
      };
      if (plan.materialized) {
        // Walk the precomputed J stream; checks, order, and stop points
        // match the streaming path exactly.
        for (size_t k = 0; k < entry.js.size(); ++k) {
          if (!visit(entry.js[k])) break;
        }
      } else {
        ForEachIndexSubset(candidates.size(), bound(head), entry.perms, visit);
      }
      if (!buf.batch.empty()) flush();
      if (observing) {
        pairs_total.fetch_add(pairs_here, std::memory_order_relaxed);
        if (metrics_on) {
          instances_done[cls_of(head)]->Increment();
          pairs_done[cls_of(head)]->Increment(pairs_here);
        }
      }
    }
    if (ckpt != nullptr && !stopped && !pruned) ckpt->RecordDone(idx);
  });

  if (span.active()) {
    span.Arg("pairs", static_cast<int64_t>(
                          pairs_total.load(std::memory_order_relaxed)));
  }
  if (cancelled.load(std::memory_order_relaxed)) {
    // Everything that finished before the cancel is already journaled; a
    // rerun with the same checkpoint_dir picks up from there.
    if (ckpt != nullptr) CALM_RETURN_IF_ERROR(ckpt->io_status());
    return DeadlineExceededError("sweep cancelled");
  }
  if (ckpt != nullptr) {
    // The sweep ran to the end: certify the checkpoint (the winner is final)
    // — but only if every append landed; a WAL with a missing Done record
    // must not claim completeness.
    CALM_RETURN_IF_ERROR(ckpt->io_status());
    ckpt->RecordComplete(first_stop[0].load(std::memory_order_relaxed));
    CALM_RETURN_IF_ERROR(ckpt->io_status());
  }
  for (size_t c = 0; c < n; ++c) {
    if (!outcomes[c].error.ok()) return outcomes[c].error;
    out[c] = std::move(outcomes[c].cex);
  }
  return out;
}

Result<std::optional<Counterexample>> FindViolation(
    const Query& query, MonotonicityClass cls,
    const ExhaustiveOptions& options) {
  CALM_ASSIGN_OR_RETURN(
      std::vector<std::optional<Counterexample>> found,
      FindViolations(query, {{cls, options.max_facts_j}}, options));
  return std::move(found[0]);
}

Result<std::optional<Counterexample>> FindViolationRandom(
    const Query& query, MonotonicityClass cls, const RandomOptions& options) {
  const Schema& schema = query.input_schema();
  for (size_t trial = 0; trial < options.trials; ++trial) {
    uint64_t seed = options.seed * 1000003 + trial;
    Instance i =
        workload::RandomInstance(schema, options.facts_i, options.domain_size,
                                 seed);
    Instance j;
    switch (cls) {
      case MonotonicityClass::kMonotone:
        // Arbitrary J: another random instance over a slightly larger
        // domain, so it overlaps adom(I) but also brings new values.
        j = workload::RandomInstance(schema, options.facts_j,
                                     options.domain_size + options.fresh_values,
                                     seed + 1);
        break;
      case MonotonicityClass::kDomainDistinct:
        j = workload::RandomDomainDistinctExtension(
            schema, i, options.facts_j, options.fresh_values, seed + 1);
        break;
      case MonotonicityClass::kDomainDisjoint:
        j = workload::RandomDomainDisjointExtension(
            schema, i, options.facts_j, options.fresh_values, seed + 1);
        break;
    }
    Result<std::optional<Counterexample>> r = CheckPair(query, i, j);
    if (!r.ok()) return r.status();
    if (r->has_value()) return r;
  }
  return std::optional<Counterexample>();
}

}  // namespace calm::monotonicity

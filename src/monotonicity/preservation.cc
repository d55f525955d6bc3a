#include "monotonicity/preservation.h"

#include <algorithm>
#include <atomic>
#include <vector>

#include "base/enumerator.h"
#include "base/homomorphism.h"
#include "base/metrics.h"
#include "base/thread_pool.h"
#include "base/trace.h"
#include "monotonicity/sweep_checkpoint.h"

namespace calm::monotonicity {

const char* PreservationClassName(PreservationClass cls) {
  switch (cls) {
    case PreservationClass::kHomomorphisms:
      return "H";
    case PreservationClass::kInjectiveHomomorphisms:
      return "Hinj";
    case PreservationClass::kExtensions:
      return "E";
  }
  return "?";
}

std::string PreservationViolation::ToString() const {
  return "I = " + i.ToString() + ", J = " + j.ToString() +
         ", fact not preserved: " + FactToString(not_preserved);
}

namespace {

// Checks preservation of Q under (injective) homomorphisms from i to j.
// `out_i` is Q(i), computed once per source by the caller and reused across
// every target j.
Result<std::optional<PreservationViolation>> CheckHomPair(
    const Query& query, const Instance& i, const Instance& out_i,
    const Instance& j, bool injective) {
  Result<Instance> out_j = query.Eval(j);
  if (!out_j.ok()) return out_j.status();

  std::optional<PreservationViolation> found;
  ForEachHomomorphism(i, j, injective, [&](const std::map<Value, Value>& h) {
    Instance mapped = ApplyValueMap(out_i, h);
    mapped.ForEachFact([&](uint32_t name, const Tuple& t) {
      if (found.has_value()) return;
      Fact f(name, t);
      // Only facts whose values all lie in the domain of h are constrained
      // (Definition 2 maps adom(I); output facts use adom(I) by genericity).
      if (!out_j->Contains(f)) found = PreservationViolation{i, j, f};
    });
    return !found.has_value();
  });
  return found;
}

// Induced subinstance of `i` on the value subset `keep`.
Instance InducedOn(const Instance& i, const std::set<Value>& keep) {
  Instance out;
  i.ForEachFact([&](uint32_t name, const Tuple& t) {
    for (Value v : t) {
      if (keep.count(v) == 0) return;
    }
    out.Insert(Fact(name, t));
  });
  return out;
}

Result<std::optional<PreservationViolation>> CheckExtensions(
    const Query& query, const Instance& i) {
  Result<Instance> out_i = query.Eval(i);
  if (!out_i.ok()) return out_i.status();

  // Enumerate value subsets of adom(i); each yields an induced subinstance.
  std::set<Value> adom_set = i.ActiveDomain();
  std::vector<Value> adom(adom_set.begin(), adom_set.end());
  size_t n = adom.size();
  for (uint64_t mask = 0; mask < (uint64_t{1} << n); ++mask) {
    std::set<Value> keep;
    for (size_t b = 0; b < n; ++b) {
      if (mask & (uint64_t{1} << b)) keep.insert(adom[b]);
    }
    Instance j = InducedOn(i, keep);
    Result<Instance> out_j = query.Eval(j);
    if (!out_j.ok()) return out_j.status();
    std::optional<PreservationViolation> found;
    out_j->ForEachFact([&](uint32_t name, const Tuple& t) {
      if (found.has_value()) return;
      Fact f(name, t);
      if (!out_i->Contains(f)) found = PreservationViolation{i, j, f};
    });
    if (found.has_value()) return found;
  }
  return std::optional<PreservationViolation>();
}

// The first stopping event one source instance produced, in that source's
// inner enumeration order.
struct SourceOutcome {
  Status error;  // ok() when `violation` carries the event
  std::optional<PreservationViolation> violation;
};

}  // namespace

Result<std::optional<PreservationViolation>> FindPreservationViolation(
    const Query& query, PreservationClass cls,
    const PreservationOptions& options) {
  const Schema& schema = query.input_schema();
  std::vector<Value> domain = IntDomain(options.domain_size);

  // Under the genericity gate, sweep only the enumeration-least orbit
  // representatives of the source space (see base/enumerator.h for why the
  // reported violation stays byte-identical: the inner target loops are
  // untouched, and the first violating representative is the first violating
  // source). Targets are evaluated directly: at these bounds a fixpoint
  // costs less than canonicalizing its input to look it up.
  const bool reduce = ResolveSymmetry(query, options.symmetry,
                                     options.domain_size, options.max_facts) ==
                     SymmetryMode::kForceOn;

  // Partition the source-instance space across the pool; each index checks
  // its targets serially and records the first stopping event in a private
  // slot. The event at the least index wins, matching the single-threaded
  // nested loops exactly (see monotonicity/checker.cc for the pattern).
  std::vector<Instance> sources =
      reduce ? AllCanonicalInstances(schema, domain, options.max_facts)
             : AllInstances(schema, domain, options.max_facts);
  std::vector<SourceOutcome> slots(sources.size());
  std::atomic<size_t> first_stop{sources.size()};

  // Durable sweep journal, same model as FindViolation (checker.cc): one
  // file per sweep identity, Begin pins the source count, recorded sources
  // are skipped on resume and recorded stops are seeded below.
  std::unique_ptr<SweepCheckpoint> ckpt;
  if (!options.checkpoint_dir.empty()) {
    CALM_ASSIGN_OR_RETURN(
        ckpt,
        SweepCheckpoint::Open(
            options.checkpoint_dir,
            SweepFileId(query.name(), "pres", PreservationClassName(cls),
                        options.domain_size, /*fresh_values=*/0,
                        options.max_facts, options.max_facts),
            sources.size()));
    if (ckpt->complete()) {
      const uint64_t winner = ckpt->winner();
      if (winner >= sources.size()) {
        return std::optional<PreservationViolation>();
      }
      const SweepStop* stop = ckpt->StopAt(winner);
      if (stop == nullptr) {
        return InternalError("sweep checkpoint: complete without a stop at " +
                             std::to_string(winner));
      }
      if (!stop->has_witness) return stop->error;
      return std::optional<PreservationViolation>(
          PreservationViolation{stop->i, stop->j, stop->fact});
    }
    for (const auto& [idx, stop] : ckpt->stops()) {
      if (idx >= sources.size()) continue;
      if (stop.has_witness) {
        slots[idx].violation = PreservationViolation{stop.i, stop.j, stop.fact};
      } else {
        slots[idx].error = stop.error;
      }
    }
    if (!ckpt->stops().empty()) {
      first_stop.store(ckpt->stops().begin()->first,
                       std::memory_order_relaxed);
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

  TraceSpan span("preservation.find_violation");
  span.Arg("class", static_cast<int64_t>(cls));
  span.Arg("sources", static_cast<int64_t>(sources.size()));
  span.Arg("reduced", reduce ? 1 : 0);
  Counter* sources_done =
      MetricsEnabled()
          ? &MetricRegistry::Global().GetCounter(
                "calm.preservation.sources_examined",
                {{"class", PreservationClassName(cls)}})
          : nullptr;
  Counter* skipped_done =
      MetricsEnabled() && ckpt != nullptr
          ? &MetricRegistry::Global().GetCounter("calm.durable.sweep_skipped")
          : nullptr;

  auto record_stop = [&](size_t idx) {
    size_t cur = first_stop.load(std::memory_order_relaxed);
    while (idx < cur &&
           !first_stop.compare_exchange_weak(cur, idx,
                                             std::memory_order_relaxed)) {
    }
  };
  // Journals the source's outcome: a stop (durable before record_stop makes
  // it visible), or Done — but never Done for a source pruned before its
  // target enumeration finished.
  auto journal_outcome = [&](size_t idx, const SourceOutcome& slot,
                             bool pruned) {
    if (ckpt == nullptr) return;
    if (!slot.error.ok() || slot.violation.has_value()) {
      SweepStop stop;
      if (slot.violation.has_value()) {
        stop.has_witness = true;
        stop.i = slot.violation->i;
        stop.j = slot.violation->j;
        stop.fact = slot.violation->not_preserved;
      } else {
        stop.error = slot.error;
      }
      ckpt->RecordStop(idx, stop);
    } else if (!pruned) {
      ckpt->RecordDone(idx);
    }
  };

  if (cls == PreservationClass::kExtensions) {
    ParallelFor(sources.size(), options.threads, [&](size_t idx) {
      if (cancel_requested()) return;
      if (ckpt != nullptr && ckpt->IsRecorded(idx)) {
        if (skipped_done != nullptr) skipped_done->Increment();
        return;
      }
      if (first_stop.load(std::memory_order_relaxed) < idx) return;
      Result<std::optional<PreservationViolation>> r =
          CheckExtensions(query, sources[idx]);
      if (!r.ok()) {
        slots[idx].error = r.status();
        journal_outcome(idx, slots[idx], /*pruned=*/false);
        record_stop(idx);
      } else if (r->has_value()) {
        slots[idx].violation = std::move(r.value());
        journal_outcome(idx, slots[idx], /*pruned=*/false);
        record_stop(idx);
      } else {
        journal_outcome(idx, slots[idx], /*pruned=*/false);
      }
      if (sources_done != nullptr) sources_done->Increment();
    });
  } else {
    bool injective = cls == PreservationClass::kInjectiveHomomorphisms;
    // For injective homomorphisms the target needs spare values, so J ranges
    // over a domain twice the size.
    std::vector<Value> domain_j = IntDomain(2 * options.domain_size);
    ParallelFor(sources.size(), options.threads, [&](size_t idx) {
      if (cancel_requested()) return;
      if (ckpt != nullptr && ckpt->IsRecorded(idx)) {
        if (skipped_done != nullptr) skipped_done->Increment();
        return;
      }
      if (first_stop.load(std::memory_order_relaxed) < idx) return;
      const Instance& i = sources[idx];
      SourceOutcome& slot = slots[idx];
      bool pruned = false;
      // Q(i) is evaluated at most once per source (lazily, so an error
      // surfaces at the same point in the enumeration it always did).
      std::optional<Result<Instance>> out_i;
      ForEachInstance(schema, domain_j, options.max_facts,
                      [&](const Instance& j) {
        if (first_stop.load(std::memory_order_relaxed) < idx ||
            cancel_requested()) {
          pruned = true;
          return false;
        }
        if (!out_i.has_value()) out_i = query.Eval(i);
        if (!out_i->ok()) {
          slot.error = out_i->status();
          return false;
        }
        Result<std::optional<PreservationViolation>> r =
            CheckHomPair(query, i, out_i->value(), j, injective);
        if (!r.ok()) {
          slot.error = r.status();
          return false;
        }
        if (r->has_value()) {
          slot.violation = std::move(r.value());
          return false;
        }
        return true;
      });
      journal_outcome(idx, slot, pruned);
      if (!slot.error.ok() || slot.violation.has_value()) record_stop(idx);
      if (sources_done != nullptr) sources_done->Increment();
    });
  }

  if (cancelled.load(std::memory_order_relaxed)) {
    if (ckpt != nullptr) CALM_RETURN_IF_ERROR(ckpt->io_status());
    return DeadlineExceededError("sweep cancelled");
  }

  size_t winner = first_stop.load(std::memory_order_relaxed);
  if (ckpt != nullptr) {
    CALM_RETURN_IF_ERROR(ckpt->io_status());
    ckpt->RecordComplete(winner);
    CALM_RETURN_IF_ERROR(ckpt->io_status());
  }
  if (winner < sources.size()) {
    SourceOutcome& slot = slots[winner];
    if (!slot.error.ok()) return slot.error;
    return std::move(slot.violation);
  }
  return std::optional<PreservationViolation>();
}

}  // namespace calm::monotonicity

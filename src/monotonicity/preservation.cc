#include "monotonicity/preservation.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <set>
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

// Q(J) for every target J of one H/Hinj sweep, keyed by J's ordinal in the
// target enumeration, next to adom(J) ascending. Every source walks the
// same enumeration, so the ordinal is the key: no canonical form, no
// lookup. Targets are evaluated lazily, kBlock at a time through one
// EvalBatch when the first source reaches the block, under a once-flag
// shared by every source and thread. Each target is thus evaluated at most
// once per sweep, its error is memoized with it (a source reaching it stops
// there, as if it had evaluated the target itself), and a pruned sweep pays
// for at most one block past its stop.
class TargetMemo {
 public:
  static constexpr size_t kBlock = 64;

  struct Entry {
    Status status;  // ok() when `out` is Q(J)
    Instance out;
    std::vector<Value> adom;
  };

  TargetMemo(const Query& query, const std::vector<Instance>& targets)
      : query_(query),
        targets_(targets),
        entries_(targets.size()),
        once_((targets.size() + kBlock - 1) / kBlock) {}
  // The sweep's worker threads hold its address.
  TargetMemo(const TargetMemo&) = delete;
  TargetMemo& operator=(const TargetMemo&) = delete;

  const Entry& Get(size_t t) {
    std::call_once(once_[t / kBlock], [&] { Evaluate(t / kBlock); });
    return entries_[t];
  }

  // Targets evaluated so far.
  size_t evaluated() const { return evaluated_.load(); }

 private:
  void Evaluate(size_t block) {
    const size_t begin = block * kBlock;
    const size_t end = std::min(begin + kBlock, targets_.size());
    std::vector<const Instance*> inputs;
    for (size_t t = begin; t < end; ++t) inputs.push_back(&targets_[t]);
    std::vector<Result<Instance>> outs;
    query_.EvalBatch(inputs, &outs);
    for (size_t t = begin; t < end; ++t) {
      Entry& e = entries_[t];
      Result<Instance>& r = outs[t - begin];
      if (r.ok()) {
        e.out = std::move(r).value();
      } else {
        e.status = r.status();
      }
      e.adom = SortedDomain(targets_[t]);
    }
    evaluated_.fetch_add(end - begin);
  }

  const Query& query_;
  const std::vector<Instance>& targets_;
  std::vector<Entry> entries_;
  std::vector<std::once_flag> once_;
  std::atomic<size_t> evaluated_{0};
};

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

// Q(i) and Q of each induced subinstance, in one EvalBatch: the subsets of
// adom(i) come in mask order, and the replay stops where the per-subset
// loop would — Q(i)'s error first, then the first subset whose evaluation
// fails or whose output has a fact outside Q(i).
Result<std::optional<PreservationViolation>> CheckExtensions(
    const Query& query, const Instance& i) {
  std::vector<Value> adom = SortedDomain(i);
  const size_t n = adom.size();
  std::vector<Instance> subs;
  subs.reserve(size_t{1} << n);
  for (uint64_t mask = 0; mask < (uint64_t{1} << n); ++mask) {
    std::set<Value> keep;
    for (size_t b = 0; b < n; ++b) {
      if (mask & (uint64_t{1} << b)) keep.insert(adom[b]);
    }
    subs.push_back(InducedOn(i, keep));
  }
  std::vector<const Instance*> inputs{&i};
  for (const Instance& j : subs) inputs.push_back(&j);
  std::vector<Result<Instance>> outs;
  query.EvalBatch(inputs, &outs);

  if (!outs[0].ok()) return outs[0].status();
  const Instance& out_i = outs[0].value();
  for (size_t k = 0; k < subs.size(); ++k) {
    const Result<Instance>& out_j = outs[k + 1];
    if (!out_j.ok()) return out_j.status();
    std::optional<PreservationViolation> found;
    out_j->ForEachFact([&](uint32_t name, const Tuple& t) {
      if (found.has_value()) return;
      Fact f(name, t);
      if (!out_i.Contains(f)) found = PreservationViolation{i, subs[k], f};
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
  // source). Targets need no canonical form to be shared: every source
  // walks one enumeration, so TargetMemo keys Q(J) by J's ordinal in it.
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
    // over a domain twice the size. Every source walks this one target
    // list (ForEachInstance's order), so Q(J) is memoized by ordinal.
    const std::vector<Instance> targets = AllInstances(
        schema, IntDomain(2 * options.domain_size), options.max_facts);
    TargetMemo memo(query, targets);
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
      // Per source, once: adom(i), i's facts over it, and (lazily, so an
      // error surfaces at the same point in the enumeration it always did)
      // Q(i)'s facts over it.
      const std::vector<Value> adom_i = SortedDomain(i);
      IndexedFacts i_facts, out_i_facts;
      i_facts.Assign(i, adom_i);
      std::optional<Status> out_i;
      HomomorphismEnumerator hom;
      for (size_t t = 0; t < targets.size(); ++t) {
        if (first_stop.load(std::memory_order_relaxed) < idx ||
            cancel_requested()) {
          pruned = true;
          break;
        }
        if (!out_i.has_value()) {
          Result<Instance> r = query.Eval(i);
          out_i = r.status();
          if (r.ok()) out_i_facts.Assign(*r, adom_i);
        }
        if (!out_i->ok()) {
          slot.error = *out_i;
          break;
        }
        const TargetMemo::Entry& j = memo.Get(t);
        if (!j.status.ok()) {
          slot.error = j.status;
          break;
        }
        // Each (injective) homomorphism h : i -> J in enumeration order;
        // the first with an h(f) missing from Q(J) is the violation.
        hom.Reset(i_facts, adom_i.size(), targets[t], j.adom, injective);
        while (hom.Next()) {
          std::optional<Fact> f = hom.LeastMissingImage(out_i_facts, j.out);
          if (f.has_value()) {
            slot.violation = PreservationViolation{i, targets[t], *f};
            break;
          }
        }
        if (slot.violation.has_value()) break;
      }
      journal_outcome(idx, slot, pruned);
      if (!slot.error.ok() || slot.violation.has_value()) record_stop(idx);
      if (sources_done != nullptr) sources_done->Increment();
    });
    span.Arg("targets", static_cast<int64_t>(memo.evaluated()));
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

// The `deep_sweep` workload: exhaustive bounded ladders over the Theorem 3.1
// and Example 5.1 specimens, plus the Lemma 3.2 preservation sweeps. One
// item is one ComputeLadder or FindPreservationViolation call. The specimens
// are the paper's, so they do not depend on the seed; the seed only orders
// the items.

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "datalog/program.h"
#include "monotonicity/ladder.h"
#include "monotonicity/preservation.h"
#include "queries/graph_queries.h"
#include "queries/paper_programs.h"
#include "workloads.h"

namespace calm::perfbench {
namespace {

using monotonicity::ExhaustiveOptions;
using monotonicity::Ladder;
using monotonicity::LadderRow;
using monotonicity::PreservationClass;

constexpr size_t kMaxI = 3;

// A specimen and the rung the paper places it on, as the bounded ladder
// (domain 4, |I| <= 4, |J| <= 3, 2 fresh values) must show it.
struct Specimen {
  std::string name;
  std::unique_ptr<Query> query;
  bool in_m = false;          // every row in M^i
  size_t first_distinct = 0;  // Ladder::FirstDistinctViolation(), 0 = none
  size_t first_disjoint = 0;  // Ladder::FirstDisjointViolation(), 0 = none
  size_t fresh_values = 2;
};

enum class Kind { kLadder, kExtensions, kInjective };

struct Item {
  Kind kind;
  size_t specimen;
};

std::unique_ptr<Query> Own(datalog::DatalogQuery q) {
  return std::make_unique<datalog::DatalogQuery>(std::move(q));
}

std::string LadderText(const Ladder& ladder) {
  std::string text = ladder.ToString();
  for (const LadderRow& row : ladder.rows) {
    for (const auto* w :
         {&row.m_witness, &row.distinct_witness, &row.disjoint_witness}) {
      text += w->has_value() ? (*w)->ToString() : std::string("none");
      text += "\n";
    }
  }
  return text;
}

class DeepSweep : public Workload {
 public:
  Status Setup(uint64_t seed) override {
    specimens_.clear();
    const int64_t t0 = NowNs();
    // Theorem 3.1 and Example 5.1, as Datalog programs.
    Add("TC", Own(queries::TcProgram()), true, 0, 0);
    Add("Q_TC", Own(queries::ComplementTcProgram()), false, 2, 0);
    Add("clique3", Own(queries::CliqueProgram(3)), false, 2, 0);
    // A domain-disjoint 2-star has three values, so star2 needs three fresh
    // values to leave M^2_disjoint.
    Add("star2", Own(queries::StarProgram(2)), false, 1, 2, 3);
    Add("dup2", Own(queries::DuplicateProgram(2)), false, 2, 2);
    Add("win-move", Own(queries::WinMoveProgram()), false, 1, 0);
    Add("P1", Own(queries::Example51P1()), false, 2, 0);
    prepare_ms_ = (NowNs() - t0) / 1e6;
    // The native queries, independent of the Datalog engine.
    Add("TC-native", queries::MakeTransitiveClosure(), true, 0, 0);
    Add("Q_TC-native", queries::MakeComplementTransitiveClosure(), false, 2,
        0);

    items_.clear();
    for (size_t s = 0; s < specimens_.size(); ++s) {
      items_.push_back({Kind::kLadder, s});
      items_.push_back({Kind::kExtensions, s});
    }
    items_.push_back({Kind::kInjective, 0});
    // Seeded Fisher-Yates: the seed picks the order the closed loop visits.
    for (size_t n = items_.size(); n > 1; --n) {
      std::swap(items_[n - 1], items_[MixSeed(seed, n) % n]);
    }
    outputs_.assign(items_.size(), "");
    ladders_.assign(specimens_.size(), std::nullopt);
    e_ok_.assign(specimens_.size(), false);
    hinj_ok_ = false;
    return Status::Ok();
  }

  size_t items() const override { return items_.size(); }
  std::string ItemName(size_t k) const override {
    const char* kind[] = {"ladder", "E", "Hinj"};
    return std::string(kind[static_cast<int>(items_[k].kind)]) + "-" +
           specimens_[items_[k].specimen].name;
  }
  // Timed passes run at 1 thread: at 2 the sweeps gained nothing on a
  // 4-core shared host and the spread doubled. The pool is measured by the
  // traced run's 2-thread pass instead.
  size_t pool_threads() const override { return 2; }
  void SetThreads(size_t threads) override { threads_ = threads; }

  bool Run(size_t k, Tracer* tracer, std::string* why) override {
    const Item& item = items_[k];
    const Specimen& s = specimens_[item.specimen];
    std::optional<TimedQuery> timed;
    if (tracer != nullptr) timed.emplace(*s.query, tracer);
    const Query& q = timed ? static_cast<const Query&>(*timed) : *s.query;
    const uint32_t id = static_cast<uint32_t>(k);

    std::string text;
    if (item.kind == Kind::kLadder) {
      ExhaustiveOptions o;
      o.domain_size = 4;
      o.max_facts_i = 4;
      o.fresh_values = s.fresh_values;
      o.threads = threads_;
      Result<Ladder> ladder = [&] {
        ScopedSpan span(tracer, "monotonicity.ladder", id);
        return ComputeLadder(q, kMaxI, o);
      }();
      if (!ladder.ok()) {
        *why = ladder.status().ToString();
        return false;
      }
      text = LadderText(*ladder);
      bool in_m = true;
      for (const LadderRow& row : ladder->rows) in_m = in_m && row.in_m;
      if (in_m != s.in_m ||
          ladder->FirstDistinctViolation() != s.first_distinct ||
          ladder->FirstDisjointViolation() != s.first_disjoint) {
        *why = s.name + " is off its rung:\n" + ladder->ToString();
        ladders_[item.specimen].reset();
        return false;
      }
      ladders_[item.specimen] = std::move(*ladder);
    } else {
      monotonicity::PreservationOptions po;
      po.domain_size = 4;
      po.max_facts = item.kind == Kind::kExtensions ? 3 : 2;
      po.threads = threads_;
      const bool e = item.kind == Kind::kExtensions;
      Result<std::optional<monotonicity::PreservationViolation>> v = [&] {
        ScopedSpan span(tracer,
                        e ? "monotonicity.preservation" : "monotonicity.hinj",
                        id);
        return FindPreservationViolation(
            q,
            e ? PreservationClass::kExtensions
              : PreservationClass::kInjectiveHomomorphisms,
            po);
      }();
      if (!v.ok()) {
        *why = v.status().ToString();
        return false;
      }
      text = v->has_value() ? (*v)->ToString() : "none";
      if (e) {
        e_ok_[item.specimen] = !v->has_value();
      } else {
        hinj_ok_ = !v->has_value();
      }
    }
    return Matches(k, tracer, text, why);
  }

  // Lemma 3.2 (E = Mdistinct, Hinj = M) and native = Datalog, across items.
  size_t EndPass(std::string* why) override {
    size_t failed = 0;
    auto fail = [&](const std::string& reason) {
      *why += (failed++ ? "; " : "") + reason;
    };
    for (size_t s = 0; s < specimens_.size(); ++s) {
      if (!ladders_[s].has_value()) continue;  // already failed its rung
      const bool distinct = ladders_[s]->FirstDistinctViolation() == 0;
      if (e_ok_[s] != distinct) {
        fail(specimens_[s].name + ": E verdict differs from Mdistinct");
      }
    }
    if (ladders_[0].has_value() && hinj_ok_ != specimens_[0].in_m) {
      fail("TC: Hinj verdict differs from M");
    }
    for (auto [datalog, native] : {std::pair<size_t, size_t>{0, 7}, {1, 8}}) {
      if (!ladders_[datalog].has_value() || !ladders_[native].has_value() ||
          LadderText(*ladders_[datalog]) != LadderText(*ladders_[native])) {
        fail(specimens_[native].name + " ladder differs from Datalog's");
      }
    }
    return failed;
  }

  void LayerMetrics(std::map<std::string, double>* out) const override {
    (*out)["datalog.prepare_ms"] += prepare_ms_;
  }

 private:
  void Add(std::string name, std::unique_ptr<Query> query, bool in_m,
           size_t first_distinct, size_t first_disjoint,
           size_t fresh_values = 2) {
    specimens_.push_back(Specimen{std::move(name), std::move(query), in_m,
                                  first_distinct, first_disjoint,
                                  fresh_values});
  }

  // Untraced runs record the output; traced runs must reproduce it.
  bool Matches(size_t k, Tracer* tracer, const std::string& text,
               std::string* why) {
    if (tracer == nullptr) {
      outputs_[k] = text;
      return true;
    }
    if (text != outputs_[k]) {
      *why = ItemName(k) + ": traced output differs from untraced";
      return false;
    }
    return true;
  }

  size_t threads_ = 1;
  std::vector<Specimen> specimens_;
  std::vector<Item> items_;
  std::vector<std::string> outputs_;  // per item, from the untraced run
  std::vector<std::optional<Ladder>> ladders_;
  std::vector<bool> e_ok_;  // no E violation, per specimen
  bool hinj_ok_ = false;
  double prepare_ms_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeDeepSweep(const WorkloadOptions&) {
  return std::make_unique<DeepSweep>();
}

}  // namespace calm::perfbench

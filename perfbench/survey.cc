// The `survey` workload: the fuzz survey. Set-up generates a fixed list of
// seeded programs; one item classifies one program with ClassifyProgram's
// defaults (checker threads 1, in-memory corpus). The traced pass replays
// ClassifyProgram's stages one public call at a time through the forwarding
// wrappers, and must reproduce the untraced classification byte for byte.

#include <fstream>
#include <memory>
#include <optional>

#include "datalog/parser.h"
#include "datalog/program.h"
#include "monotonicity/ladder.h"
#include "monotonicity/preservation.h"
#include "net/fault.h"
#include "transducer/network.h"
#include "transducer/policy.h"
#include "transducer/runner.h"
#include "transducer/strategies.h"
#include "workload/fuzzer.h"
#include "workload/instance_gen.h"
#include "workloads.h"

namespace calm::perfbench {
namespace {

using datalog::DatalogQuery;
using monotonicity::Counterexample;
using monotonicity::ExhaustiveOptions;
using monotonicity::Ladder;
using monotonicity::LadderRow;
using workload::ClassifyOptions;
using workload::GeneratedProgram;
using workload::ShapeGuarantee;

constexpr size_t kPrograms = 300;

// What the pinned digest covers: the classification, not EvalStats (a
// legitimate engine change may move those).
struct Outcome {
  std::string fragment;
  std::string bucket;
  std::string strategy;
  uint64_t bsp_supersteps = 0;
  Ladder ladder;
};

std::string OutcomeText(const Outcome& o) {
  std::string text = o.fragment + "|" + o.bucket + "|" + o.strategy + "|" +
                     std::to_string(o.bsp_supersteps) + "\n";
  for (const LadderRow& row : o.ladder.rows) {
    text += std::to_string(row.i) + (row.in_m ? " M" : " -") +
            (row.in_distinct ? "D" : "-") + (row.in_disjoint ? "J" : "-") +
            "\n";
    for (const auto* w :
         {&row.m_witness, &row.distinct_witness, &row.disjoint_witness}) {
      text += w->has_value() ? (*w)->ToString() : std::string("none");
      text += "\n";
    }
  }
  return text;
}

std::string BucketOf(const Ladder& ladder) {
  bool m = true, distinct = true, disjoint = true;
  for (const LadderRow& row : ladder.rows) {
    m = m && row.in_m;
    distinct = distinct && row.in_distinct;
    disjoint = disjoint && row.in_disjoint;
  }
  if (m) return "M";
  if (distinct) return "Mdistinct";
  if (disjoint) return "Mdisjoint";
  return "beyond-Mdisjoint";
}

bool SameWitness(const std::optional<Counterexample>& a,
                 const std::optional<Counterexample>& b) {
  if (a.has_value() != b.has_value()) return false;
  return !a.has_value() ||
         (a->i == b->i && a->j == b->j && a->retracted == b->retracted);
}

// The negative control: SP-Datalog text wearing a "positive" label, as in
// RunSurvey's inject_misclassification. Its oracle must fail.
GeneratedProgram Mislabeled() {
  GeneratedProgram lie;
  lie.shape = workload::ProgramShape::kPositive;
  lie.seed = 0xC0FFEEull;
  lie.text = "O(x0) :- F(x0), !E(x0, x0).\n.output O\n";
  return lie;
}

// The ClassifyProgram stages, replayed through the wrapper `q` under spans.
// Returns the outcome and sets `*why` on the first divergence.
Result<Outcome> Replay(const GeneratedProgram& program,
                       const ClassifyOptions& options, Tracer* tracer,
                       uint32_t item, NetTally* tally, std::string* why) {
  auto fail = [&](const std::string& reason) {
    if (why->empty()) *why = reason;
  };
  ScopedSpan classify(tracer, "workload.classify", item);

  std::optional<DatalogQuery> query;
  {
    ScopedSpan span(tracer, "datalog.prepare", item);
    CALM_ASSIGN_OR_RETURN(datalog::Program parsed,
                          datalog::Parse(program.text));
    CALM_ASSIGN_OR_RETURN(
        DatalogQuery created,
        DatalogQuery::Create(std::move(parsed),
                             std::string("fuzz-") +
                                 workload::ProgramShapeName(program.shape) +
                                 "-" + std::to_string(program.seed),
                             program.semantics));
    query.emplace(std::move(created));
  }
  TimedQuery q(*query, tracer);
  const ShapeGuarantee guarantee = workload::GuaranteeFor(program.shape);

  Outcome out;
  out.fragment = query->fragment().FragmentName();

  ExhaustiveOptions base;
  base.domain_size = options.domain_size;
  base.max_facts_i = options.max_facts_i;
  base.fresh_values = options.fresh_values;
  base.threads = options.threads;
  {
    ScopedSpan span(tracer, "monotonicity.ladder", item);
    CALM_ASSIGN_OR_RETURN(out.ladder,
                          ComputeLadder(q, options.max_i, base));
  }
  out.bucket = BucketOf(out.ladder);
  {
    // ClassifyProgram re-verifies every witness from first principles.
    ScopedSpan span(tracer, "monotonicity.verify", item);
    for (const LadderRow& row : out.ladder.rows) {
      for (const auto* w :
           {&row.m_witness, &row.distinct_witness, &row.disjoint_witness}) {
        if (!w->has_value()) continue;
        Result<Instance> qi = q.Eval((*w)->i);
        Result<Instance> qu = q.EvalUnion((*w)->i, (*w)->j);
        if (!qi.ok() || !qu.ok() || !qi->Contains((*w)->retracted) ||
            qu->Contains((*w)->retracted)) {
          fail("unverifiable witness " + (*w)->ToString());
        }
      }
    }
  }
  const std::string bucket = out.bucket;
  if ((guarantee == ShapeGuarantee::kMonotone && bucket != "M") ||
      (guarantee == ShapeGuarantee::kDomainDistinct && bucket != "M" &&
       bucket != "Mdistinct") ||
      (guarantee == ShapeGuarantee::kDomainDisjoint &&
       bucket == "beyond-Mdisjoint")) {
    fail("fragment theorem violated: ladder says " + bucket);
  }
  if (options.differential) {
    ScopedSpan span(tracer, "monotonicity.ladder_nosym", item);
    ExhaustiveOptions full = base;
    full.symmetry = SymmetryMode::kOff;
    CALM_ASSIGN_OR_RETURN(Ladder reference,
                          ComputeLadder(q, options.max_i, full));
    for (size_t n = 0; n < out.ladder.rows.size(); ++n) {
      const LadderRow& a = out.ladder.rows[n];
      const LadderRow& b = reference.rows[n];
      if (a.in_m != b.in_m || a.in_distinct != b.in_distinct ||
          a.in_disjoint != b.in_disjoint ||
          !SameWitness(a.m_witness, b.m_witness) ||
          !SameWitness(a.distinct_witness, b.distinct_witness) ||
          !SameWitness(a.disjoint_witness, b.disjoint_witness)) {
        fail("symmetry on/off disagree");
      }
    }
  }

  monotonicity::PreservationOptions po;
  po.domain_size = options.domain_size;
  po.max_facts = options.max_facts_i;
  po.threads = options.threads;
  {
    ScopedSpan span(tracer, "monotonicity.preservation", item);
    CALM_ASSIGN_OR_RETURN(
        std::optional<monotonicity::PreservationViolation> e,
        FindPreservationViolation(
            q, monotonicity::PreservationClass::kExtensions, po));
    if (e.has_value()) {
      if (guarantee == ShapeGuarantee::kMonotone ||
          guarantee == ShapeGuarantee::kDomainDistinct) {
        fail("E violation inside Mdistinct: " + e->ToString());
      } else {
        Result<Instance> qj = q.Eval(e->j);
        Result<Instance> qi = q.Eval(e->i);
        if (!qj.ok() || !qi.ok() || !qj->Contains(e->not_preserved) ||
            qi->Contains(e->not_preserved)) {
          fail("unverifiable E violation: " + e->ToString());
        }
      }
    }
  }
  if (guarantee == ShapeGuarantee::kMonotone && !program.uses_constants) {
    ScopedSpan span(tracer, "monotonicity.hinj", item);
    CALM_ASSIGN_OR_RETURN(
        std::optional<monotonicity::PreservationViolation> hinj,
        FindPreservationViolation(
            q, monotonicity::PreservationClass::kInjectiveHomomorphisms, po));
    if (hinj.has_value()) fail("Hinj violation: " + hinj->ToString());
  }

  Instance input = workload::RandomInstance(
      query->input_schema(), options.network_facts, options.network_domain,
      MixSeed(program.seed, 0x1157));
  if (program.semantics == DatalogQuery::Semantics::kStratified) {
    ScopedSpan span(tracer, "datalog.evaluate", item);
    datalog::EvalStats stats;
    Result<Instance> full =
        datalog::Evaluate(query->program(), input, {}, &stats);
    if (!full.ok()) fail("network-input evaluation failed");
  }

  if (!options.run_strategies || guarantee == ShapeGuarantee::kNone ||
      !why->empty()) {
    return out;
  }
  transducer::Network nodes{Value::FromInt(900), Value::FromInt(901)};
  std::unique_ptr<transducer::DistributionPolicy> policy;
  std::unique_ptr<transducer::Transducer> strategy;
  transducer::ModelOptions model = transducer::ModelOptions::PolicyAware();
  Instance expected;
  {
    ScopedSpan span(tracer, "transducer.prepare", item);
    switch (guarantee) {
      case ShapeGuarantee::kMonotone:
        out.strategy = "broadcast";
        policy = std::make_unique<transducer::HashPolicy>(nodes);
        strategy = transducer::MakeBroadcastTransducer(&q);
        model = transducer::ModelOptions::Original();
        break;
      case ShapeGuarantee::kDomainDistinct:
        out.strategy = "absence";
        policy = std::make_unique<transducer::HashPolicy>(nodes);
        strategy = transducer::MakeAbsenceTransducer(&q);
        break;
      case ShapeGuarantee::kDomainDisjoint:
        out.strategy = "domain-request";
        policy = std::make_unique<transducer::HashDomainGuidedPolicy>(nodes);
        strategy = transducer::MakeDomainRequestTransducer(&q);
        break;
      case ShapeGuarantee::kNone:
        break;
    }
    CALM_ASSIGN_OR_RETURN(expected, q.Eval(input));
  }
  auto make_network =
      [&]() -> Result<std::unique_ptr<transducer::TransducerNetwork>> {
    auto network = std::make_unique<transducer::TransducerNetwork>(
        nodes, strategy.get(), policy.get(), model);
    CALM_RETURN_IF_ERROR(network->Initialize(input));
    return network;
  };
  {
    ScopedSpan span(tracer, "transducer.run_async", item);
    std::unique_ptr<transducer::TransducerNetwork> holder;
    auto make_raw = [&]() -> Result<transducer::TransducerNetwork*> {
      CALM_ASSIGN_OR_RETURN(holder, make_network());
      return holder.get();
    };
    transducer::ConsistencyOptions co;
    co.random_runs = 2;
    co.seed = program.seed;
    Result<Instance> async_out = RunConsistently(make_raw, co);
    if (!async_out.ok() || *async_out != expected) fail("async run diverged");
  }
  {
    ScopedSpan span(tracer, "transducer.run_fault", item);
    net::FaultPlan plan = net::FaultPlan::Random(
        MixSeed(program.seed, 0xFA17), net::FaultProfile::Chaos());
    transducer::RunOptions ro;
    ro.faults = &plan;
    CALM_ASSIGN_OR_RETURN(auto network, make_network());
    CALM_ASSIGN_OR_RETURN(transducer::RunResult run,
                          RunToQuiescence(*network, ro));
    if (!run.quiesced || run.output != expected) fail("fault run diverged");
    tally->Add(run.stats);
    tally->AddFaults(plan.stats());
  }
  {
    ScopedSpan span(tracer, "transducer.run_bsp", item);
    transducer::RunOptions bsp;
    bsp.semantics = transducer::NetworkSemantics::kBsp;
    CALM_ASSIGN_OR_RETURN(auto network, make_network());
    CALM_ASSIGN_OR_RETURN(transducer::RunResult run,
                          RunToQuiescence(*network, bsp));
    if (!run.quiesced || run.output != expected) fail("BSP run diverged");
    tally->Add(run.stats);
    out.bsp_supersteps = run.supersteps;
  }
  return out;
}

class Survey : public Workload {
 public:
  explicit Survey(const WorkloadOptions& options)
      : negative_control_(options.negative_control) {
    std::ifstream in(options.pinned_digests);
    uint64_t seed = 0;
    std::string digest;
    while (in >> seed >> digest) pinned_[seed] = digest;
  }

  Status Setup(uint64_t seed) override {
    // Set-up is repeated between passes to time it; the first pass's digest
    // stays the reference for every later pass on the same seed.
    if (seed != seed_ || programs_.empty()) first_pass_digest_.clear();
    seed_ = seed;
    programs_.clear();
    const int64_t t0 = NowNs();
    for (size_t k = 0; k < kPrograms; ++k) {
      workload::FuzzerOptions knobs;
      knobs.seed = MixSeed(seed, k);
      knobs.shape =
          static_cast<workload::ProgramShape>(k % workload::kProgramShapeCount);
      programs_.push_back(workload::GenerateProgram(knobs));
    }
    generate_ms_ = (NowNs() - t0) / 1e6;
    if (negative_control_) programs_.push_back(Mislabeled());
    digests_.assign(programs_.size(), "");
    return Status::Ok();
  }

  size_t items() const override { return programs_.size(); }
  std::string ItemName(size_t k) const override {
    return std::string(workload::ProgramShapeName(programs_[k].shape)) + "-" +
           std::to_string(programs_[k].seed);
  }
  void SetThreads(size_t threads) override { options_.threads = threads; }

  bool Run(size_t k, Tracer* tracer, std::string* why) override {
    if (tracer != nullptr) {
      Result<Outcome> replay =
          Replay(programs_[k], options_, tracer, static_cast<uint32_t>(k),
                 &tally_, why);
      if (!replay.ok()) *why = replay.status().ToString();
      if (!why->empty()) return false;
      if (Digest(OutcomeText(*replay)) != digests_[k]) {
        *why = "traced replay differs from ClassifyProgram";
        return false;
      }
      return true;
    }
    Result<workload::Classification> c =
        workload::ClassifyProgram(programs_[k], options_);
    if (!c.ok()) {
      *why = c.status().ToString();
      return false;
    }
    const workload::CorpusRecord& r = c->record;
    digests_[k] = Digest(OutcomeText(
        Outcome{r.fragment, r.class_bucket, r.strategy, r.bsp_supersteps,
                r.ladder}));
    if (!c->divergences.empty()) {
      *why = c->divergences.front().stage + ": " +
             c->divergences.front().detail;
      return false;
    }
    return true;
  }

  size_t EndPass(std::string* why) override {
    std::string all;
    for (size_t k = 0; k < kPrograms; ++k) all += digests_[k];
    const std::string digest = Digest(all);
    if (first_pass_digest_.empty()) first_pass_digest_ = digest;
    auto pinned = pinned_.find(seed_);
    if (digest != first_pass_digest_) {
      *why = "pass digest " + digest + " differs from the first pass's";
      return kPrograms;
    }
    if (pinned != pinned_.end() && pinned->second != digest) {
      *why = "pass digest " + digest + " != pinned " + pinned->second;
      return kPrograms;
    }
    return 0;
  }

  void LayerMetrics(std::map<std::string, double>* out) const override {
    (*out)["workload.generate_ms"] = generate_ms_;
    tally_.Report(out);
  }
  void ResetLayerMetrics() override { tally_ = NetTally(); }

  std::string PassDigest() const override { return first_pass_digest_; }

 private:
  bool negative_control_;
  std::map<uint64_t, std::string> pinned_;
  ClassifyOptions options_;
  uint64_t seed_ = 0;
  std::vector<GeneratedProgram> programs_;
  std::vector<std::string> digests_;  // per item, from the untraced run
  std::string first_pass_digest_;
  double generate_ms_ = 0;
  NetTally tally_;  // fault and BSP runs of the traced replay
};

}  // namespace

std::unique_ptr<Workload> MakeSurvey(const WorkloadOptions& options) {
  return std::make_unique<Survey>(options);
}

}  // namespace calm::perfbench

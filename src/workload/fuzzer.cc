#include "workload/fuzzer.h"

#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <utility>

#include "datalog/parser.h"
#include "monotonicity/checker.h"
#include "monotonicity/preservation.h"
#include "net/fault.h"
#include "transducer/confluence.h"
#include "transducer/network.h"
#include "transducer/policy.h"
#include "transducer/runner.h"
#include "transducer/schema.h"
#include "transducer/strategies.h"
#include "workload/instance_gen.h"

namespace calm::workload {

using datalog::DatalogQuery;
using monotonicity::Counterexample;
using monotonicity::ExhaustiveOptions;
using monotonicity::Ladder;
using monotonicity::LadderRow;
using monotonicity::MonotonicityClass;

const char* ProgramShapeName(ProgramShape shape) {
  switch (shape) {
    case ProgramShape::kPositive:
      return "positive";
    case ProgramShape::kInequality:
      return "inequality";
    case ProgramShape::kSemiPositive:
      return "semi-positive";
    case ProgramShape::kConnected:
      return "connected";
    case ProgramShape::kSemiConnected:
      return "semi-connected";
    case ProgramShape::kStratified:
      return "stratified";
    case ProgramShape::kWinMove:
      return "win-move";
  }
  return "unknown";
}

ShapeGuarantee GuaranteeFor(ProgramShape shape) {
  switch (shape) {
    case ProgramShape::kPositive:
    case ProgramShape::kInequality:
      return ShapeGuarantee::kMonotone;
    case ProgramShape::kSemiPositive:
      return ShapeGuarantee::kDomainDistinct;
    case ProgramShape::kConnected:
    case ProgramShape::kSemiConnected:
    case ProgramShape::kWinMove:
      return ShapeGuarantee::kDomainDisjoint;
    case ProgramShape::kStratified:
      return ShapeGuarantee::kNone;
  }
  return ShapeGuarantee::kNone;
}

const char* ShapeGuaranteeName(ShapeGuarantee guarantee) {
  switch (guarantee) {
    case ShapeGuarantee::kMonotone:
      return "M";
    case ShapeGuarantee::kDomainDistinct:
      return "Mdistinct";
    case ShapeGuarantee::kDomainDisjoint:
      return "Mdisjoint";
    case ShapeGuarantee::kNone:
      return "none";
  }
  return "none";
}

namespace {

// The fragment name every seed of a shape must classify to — the generator
// forces the distinguishing feature, so this is an exact oracle, not a hope.
const char* ExpectedFragment(ProgramShape shape) {
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

// splitmix64. Own PRNG: std:: distributions are not cross-stdlib
// deterministic, and corpus seeds must mean the same program everywhere.
struct Rng {
  uint64_t state;
  explicit Rng(uint64_t seed) : state(seed) {}
  uint64_t Next() {
    state += 0x9E3779B97F4A7C15ull;
    uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  size_t Below(size_t n) { return n == 0 ? 0 : Next() % n; }
  size_t Between(size_t lo, size_t hi) { return lo + Below(hi - lo + 1); }
  bool Chance(uint32_t percent) { return Next() % 100 < percent; }
};

uint64_t MixSeed(uint64_t seed, uint64_t k) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ull * (k + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

struct Rel {
  std::string name;
  size_t arity;
};

// Builds one rule's text while tracking the variables bound by positive
// atoms — the pool head args, negated args, and inequalities draw from, so
// every emitted rule is safe by construction. With `connected`, every atom
// after the first shares a variable with the atoms before it, which makes
// graph+(rule) connected by induction (fresh variables attach through their
// own atom).
class RuleBuilder {
 public:
  RuleBuilder(Rng* rng, bool connected, size_t constants)
      : rng_(rng), connected_(connected), constants_(constants) {}

  // First atom: all-fresh variables (the rule's variable anchor).
  void Anchor(const Rel& rel) {
    std::vector<std::string> args;
    for (size_t j = 0; j < rel.arity; ++j) args.push_back(Fresh());
    body_.push_back(Render(rel.name, args));
  }

  void AddPositive(const Rel& rel) {
    std::vector<std::string> args;
    for (size_t j = 0; j < rel.arity; ++j) {
      if (connected_ && j == 0 && !vars_.empty()) {
        args.push_back(vars_[rng_->Below(vars_.size())]);
      } else if (!vars_.empty() && rng_->Chance(50)) {
        args.push_back(vars_[rng_->Below(vars_.size())]);
      } else if (constants_ > 0 && rng_->Chance(25)) {
        args.push_back(std::to_string(rng_->Below(constants_)));
        used_constant_ = true;
      } else {
        args.push_back(Fresh());
      }
    }
    body_.push_back(Render(rel.name, args));
  }

  // Negated atom with every argument an already-bound variable (safety; and
  // constant-free, which the fragment theorems need — see fuzzer.h).
  void AddNegated(const Rel& rel) {
    std::vector<std::string> args;
    for (size_t j = 0; j < rel.arity; ++j) {
      args.push_back(vars_[rng_->Below(vars_.size())]);
    }
    body_.push_back("!" + Render(rel.name, args));
  }

  // x != y over two distinct bound variables; requires >= 2 variables.
  void AddInequality() {
    size_t a = rng_->Below(vars_.size());
    size_t b = rng_->Below(vars_.size() - 1);
    if (b >= a) ++b;
    body_.push_back(vars_[a] + " != " + vars_[b]);
  }

  size_t var_count() const { return vars_.size(); }
  bool used_constant() const { return used_constant_; }

  std::string Head(const Rel& rel) {
    std::vector<std::string> args;
    for (size_t j = 0; j < rel.arity; ++j) {
      args.push_back(vars_[rng_->Below(vars_.size())]);
    }
    return Render(rel.name, args);
  }

  std::string Rule(const std::string& head) const {
    std::string out = head + " :- ";
    for (size_t a = 0; a < body_.size(); ++a) {
      if (a > 0) out += ", ";
      out += body_[a];
    }
    return out + ".";
  }

 private:
  std::string Fresh() {
    std::string v = "x" + std::to_string(next_var_++);
    vars_.push_back(v);
    return v;
  }
  static std::string Render(const std::string& name,
                            const std::vector<std::string>& args) {
    std::string out = name + "(";
    for (size_t j = 0; j < args.size(); ++j) {
      if (j > 0) out += ", ";
      out += args[j];
    }
    return out + ")";
  }

  Rng* rng_;
  bool connected_;
  size_t constants_;
  bool used_constant_ = false;
  std::vector<std::string> vars_;  // distinct bound variables, in bind order
  std::vector<std::string> body_;
  size_t next_var_ = 0;
};

}  // namespace

GeneratedProgram GenerateProgram(const FuzzerOptions& options) {
  GeneratedProgram out;
  out.shape = options.shape;
  out.seed = options.seed;

  Rng rng(options.seed ^
          (0x9E3779B97F4A7C15ull * (static_cast<uint64_t>(options.shape) + 1)));
  const Rel E{"E", 2};
  const Rel F{"F", 1};

  std::string text = std::string("% fuzz shape=") +
                     ProgramShapeName(options.shape) +
                     " seed=" + std::to_string(options.seed) + "\n";
  std::vector<std::string> rules;

  if (options.shape == ProgramShape::kWinMove) {
    // The win-move core keeps the unstratifiable Win <-¬- Win cycle; every
    // variant stays connected and constant-free, so the well-founded query
    // keeps the Mdisjoint guarantee (monochrome-derivation argument).
    out.semantics = DatalogQuery::Semantics::kWellFounded;
    rules.push_back("Win(x0) :- E(x0, x1), !Win(x1).");
    if (rng.Chance(50)) {
      rules.push_back("Win(x0) :- F(x0), E(x0, x1), !Win(x1).");
    }
    rules.push_back("O(x0) :- Win(x0).");
    if (rng.Chance(30)) rules.push_back("O(x0) :- E(x0, x0).");
  } else {
    // The theorem-backed shapes must be constant-free (see the soundness
    // note in fuzzer.h); only the guarantee-free / monotone-anyway shapes
    // may sprinkle constants.
    const bool allow_constants = options.shape == ProgramShape::kPositive ||
                                 options.shape == ProgramShape::kInequality ||
                                 options.shape == ProgramShape::kStratified;
    const size_t constants = allow_constants ? options.constants : 0;
    const bool connected = options.shape == ProgramShape::kConnected ||
                           options.shape == ProgramShape::kSemiConnected;

    size_t strata = rng.Between(1, std::max<size_t>(1, options.max_strata));
    // The con/semicon shapes force an idb negation across strata.
    if (connected) strata = std::max<size_t>(2, strata);

    std::vector<Rel> idb;
    std::vector<Rel> pool = {E, F};
    for (size_t s = 0; s < strata; ++s) {
      Rel ps{"P" + std::to_string(s), rng.Between(1, options.max_arity)};
      RuleBuilder b(&rng, connected, constants);
      b.Anchor(s == 0 ? E : idb[s - 1]);
      size_t extra_atoms = rng.Below(options.max_body_atoms);
      for (size_t a = 0; a < extra_atoms; ++a) {
        b.AddPositive(pool[rng.Below(pool.size())]);
      }
      if (s == 0 && options.shape == ProgramShape::kInequality) {
        b.AddInequality();  // the E anchor guarantees two variables
      }
      if (s == 0 && options.shape == ProgramShape::kSemiPositive) {
        b.AddNegated(rng.Chance(50) ? F : E);  // edb-only negation
      }
      if (s == 1 && connected) {
        b.AddNegated(idb[0]);  // idb negation: not semi-positive
      }
      rules.push_back(b.Rule(b.Head(ps)));
      out.uses_constants |= b.used_constant();
      idb.push_back(ps);
      pool.push_back(ps);
    }

    // Extra defining rules, positive-bodied so they never perturb the
    // fragment the forced features pinned.
    size_t extra_rules = rng.Below(options.max_rules + 1);
    for (size_t r = 0; r < extra_rules; ++r) {
      size_t s = rng.Below(strata);
      RuleBuilder b(&rng, connected, constants);
      b.Anchor(s == 0 || rng.Chance(50) ? E : idb[s - 1]);
      size_t extra_atoms = rng.Below(options.max_body_atoms);
      for (size_t a = 0; a < extra_atoms; ++a) {
        // Only strictly-lower idbs keep the definition hierarchy acyclic.
        size_t limit = 2 + s;
        b.AddPositive(pool[rng.Below(limit)]);
      }
      rules.push_back(b.Rule(b.Head(idb[s])));
      out.uses_constants |= b.used_constant();
    }

    // kStratified forces a disconnected helper that can never sit in the
    // last stratum (O negates it), pinning the plain "Datalog~" name.
    if (options.shape == ProgramShape::kStratified) {
      rules.push_back("D(x0) :- F(x0), E(x1, x2).");
    }

    const Rel O{"O", rng.Between(1, options.max_arity)};
    RuleBuilder b(&rng, connected, constants);
    b.Anchor(idb[strata - 1]);
    size_t extra_atoms = rng.Below(options.max_body_atoms);
    for (size_t a = 0; a < extra_atoms; ++a) {
      b.AddPositive(pool[rng.Below(pool.size())]);
    }
    if (options.shape == ProgramShape::kStratified) b.AddNegated(Rel{"D", 1});
    rules.push_back(b.Rule(b.Head(O)));
    out.uses_constants |= b.used_constant();

    // kSemiConnected adds a deliberately disconnected O rule — legal in the
    // last stratum (nothing negates O), so semicon holds but con fails.
    if (options.shape == ProgramShape::kSemiConnected) {
      std::string head = "O(";
      for (size_t j = 0; j < O.arity; ++j) {
        if (j > 0) head += ", ";
        head += (j % 2 == 0) ? "y0" : "y3";
      }
      head += ")";
      rules.push_back(head + " :- E(y0, y1), E(y2, y3).");
    }
  }

  for (const std::string& rule : rules) text += rule + "\n";
  text += ".output O\n";
  out.text = std::move(text);
  return out;
}

// --- corpus codecs ----------------------------------------------------------

namespace {

void EncodeWitness(const std::optional<Counterexample>& c,
                   durable::ByteWriter* w) {
  w->U8(c.has_value() ? 1 : 0);
  if (!c.has_value()) return;
  durable::EncodeInstance(c->i, w);
  durable::EncodeInstance(c->j, w);
  w->Str(NameOf(c->retracted.relation));
  durable::EncodeTuple(c->retracted.args, w);
}

bool DecodeWitness(durable::ByteReader* r, std::optional<Counterexample>* out) {
  uint8_t present = 0;
  if (!r->U8(&present)) return false;
  if (present == 0) {
    out->reset();
    return true;
  }
  Counterexample c;
  std::string name;
  Tuple args;
  if (!durable::DecodeInstance(r, &c.i) || !durable::DecodeInstance(r, &c.j) ||
      !r->Str(&name) || !durable::DecodeTuple(r, &args)) {
    return false;
  }
  c.retracted = Fact(InternName(name), std::move(args));
  *out = std::move(c);
  return true;
}

}  // namespace

void EncodeCorpusRecord(const CorpusRecord& record, durable::ByteWriter* w) {
  w->U8(kCorpusKindProgram);
  w->U64(record.seed);
  w->U8(static_cast<uint8_t>(record.shape));
  w->U8(record.semantics == DatalogQuery::Semantics::kWellFounded ? 1 : 0);
  w->Str(record.fragment);
  w->Str(record.class_bucket);
  w->Str(record.strategy);
  w->U8(record.conformant ? 1 : 0);
  w->U64(record.bsp_supersteps);
  w->U64(record.stats.derived_facts);
  w->U64(record.stats.fixpoint_rounds);
  w->U64(record.stats.rule_applications);
  w->Str(record.text);
  w->U32(static_cast<uint32_t>(record.ladder.rows.size()));
  for (const LadderRow& row : record.ladder.rows) {
    w->U64(row.i);
    w->U8(static_cast<uint8_t>((row.in_m ? 1 : 0) | (row.in_distinct ? 2 : 0) |
                               (row.in_disjoint ? 4 : 0)));
    EncodeWitness(row.m_witness, w);
    EncodeWitness(row.distinct_witness, w);
    EncodeWitness(row.disjoint_witness, w);
  }
}

bool DecodeCorpusRecord(durable::ByteReader* r, CorpusRecord* out) {
  uint8_t kind = 0, shape = 0, wf = 0, conformant = 0;
  if (!r->U8(&kind) || kind != kCorpusKindProgram) return false;
  if (!r->U64(&out->seed) || !r->U8(&shape) || !r->U8(&wf)) return false;
  if (shape >= kProgramShapeCount) return false;
  out->shape = static_cast<ProgramShape>(shape);
  out->semantics = wf ? DatalogQuery::Semantics::kWellFounded
                      : DatalogQuery::Semantics::kStratified;
  uint64_t derived = 0, rounds = 0, applications = 0;
  if (!r->Str(&out->fragment) || !r->Str(&out->class_bucket) ||
      !r->Str(&out->strategy) || !r->U8(&conformant) ||
      !r->U64(&out->bsp_supersteps) || !r->U64(&derived) || !r->U64(&rounds) ||
      !r->U64(&applications) || !r->Str(&out->text)) {
    return false;
  }
  out->conformant = conformant != 0;
  out->stats.derived_facts = derived;
  out->stats.fixpoint_rounds = rounds;
  out->stats.rule_applications = applications;
  uint32_t rows = 0;
  if (!r->U32(&rows)) return false;
  out->ladder.rows.clear();
  for (uint32_t n = 0; n < rows; ++n) {
    LadderRow row;
    uint64_t i = 0;
    uint8_t bits = 0;
    if (!r->U64(&i) || !r->U8(&bits)) return false;
    row.i = i;
    row.in_m = (bits & 1) != 0;
    row.in_distinct = (bits & 2) != 0;
    row.in_disjoint = (bits & 4) != 0;
    if (!DecodeWitness(r, &row.m_witness) ||
        !DecodeWitness(r, &row.distinct_witness) ||
        !DecodeWitness(r, &row.disjoint_witness)) {
      return false;
    }
    out->ladder.rows.push_back(std::move(row));
  }
  return r->ok();
}

void EncodeDivergenceRecord(const Divergence& divergence,
                            durable::ByteWriter* w) {
  w->U8(kCorpusKindDivergence);
  w->U64(divergence.seed);
  w->Str(divergence.stage);
  w->Str(divergence.detail);
}

bool DecodeDivergenceRecord(durable::ByteReader* r, Divergence* out) {
  uint8_t kind = 0;
  if (!r->U8(&kind) || kind != kCorpusKindDivergence) return false;
  return r->U64(&out->seed) && r->Str(&out->stage) && r->Str(&out->detail);
}

// --- corpus -----------------------------------------------------------------

Status Corpus::Open(const std::string& path) {
  size_t slash = path.find_last_of('/');
  if (slash != std::string::npos && slash > 0) {
    CALM_RETURN_IF_ERROR(durable::MakeDirs(path.substr(0, slash)));
  }
  std::vector<std::string> replayed;
  CALM_RETURN_IF_ERROR(log_.Open(path, kCorpusTag, &replayed));
  for (const std::string& payload : replayed) {
    if (payload.empty()) return InvalidArgumentError("empty corpus record");
    durable::ByteReader r(payload);
    if (static_cast<uint8_t>(payload[0]) == kCorpusKindProgram) {
      CorpusRecord record;
      if (!DecodeCorpusRecord(&r, &record)) {
        return InvalidArgumentError("corrupt corpus program record in " +
                                    path);
      }
      records_[record.seed] = std::move(record);
    } else {
      Divergence divergence;
      if (!DecodeDivergenceRecord(&r, &divergence)) {
        return InvalidArgumentError("corrupt corpus divergence record in " +
                                    path);
      }
      divergences_.push_back(std::move(divergence));
    }
  }
  return Status::Ok();
}

Status Corpus::Add(const CorpusRecord& record) {
  if (log_.is_open()) {
    durable::ByteWriter w;
    EncodeCorpusRecord(record, &w);
    CALM_RETURN_IF_ERROR(log_.Append(w.data()));
  }
  records_[record.seed] = record;
  return Status::Ok();
}

Status Corpus::AddDivergence(const Divergence& divergence) {
  if (log_.is_open()) {
    durable::ByteWriter w;
    EncodeDivergenceRecord(divergence, &w);
    CALM_RETURN_IF_ERROR(log_.Append(w.data()));
  }
  divergences_.push_back(divergence);
  return Status::Ok();
}

// --- classification ---------------------------------------------------------

namespace {

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

// Re-verifies a checker counterexample from first principles: the retracted
// fact really is in Q(I) \ Q(I u J) and J really has the claimed kind.
Status VerifyWitness(const Query& query, const Counterexample& cex,
                     MonotonicityClass cls) {
  CALM_ASSIGN_OR_RETURN(Instance qi, query.Eval(cex.i));
  if (!qi.Contains(cex.retracted)) {
    return InternalError("witness fact not in Q(I): " + cex.ToString());
  }
  CALM_ASSIGN_OR_RETURN(Instance qu, query.EvalUnion(cex.i, cex.j));
  if (qu.Contains(cex.retracted)) {
    return InternalError("witness fact not retracted in Q(I u J): " +
                         cex.ToString());
  }
  std::set<Value> adom_i = cex.i.ActiveDomain();
  if (cls == MonotonicityClass::kDomainDisjoint) {
    for (Value v : cex.j.ActiveDomain()) {
      if (adom_i.count(v) > 0) {
        return InternalError("disjoint witness shares a value with adom(I): " +
                             cex.ToString());
      }
    }
  }
  if (cls == MonotonicityClass::kDomainDistinct) {
    bool ok = true;
    cex.j.ForEachFact([&](uint32_t, const Tuple& t) {
      bool fresh = false;
      for (Value v : t) {
        if (adom_i.count(v) == 0) fresh = true;
      }
      ok = ok && fresh;
    });
    if (!ok) {
      return InternalError("distinct witness has an all-old fact: " +
                           cex.ToString());
    }
  }
  return Status::Ok();
}

bool SameWitness(const std::optional<Counterexample>& a,
                 const std::optional<Counterexample>& b) {
  if (a.has_value() != b.has_value()) return false;
  if (!a.has_value()) return true;
  return a->i == b->i && a->j == b->j && a->retracted == b->retracted;
}

std::string FactsToString(const Instance& instance) {
  return instance.ToString();
}

}  // namespace

Result<Classification> ClassifyProgram(const GeneratedProgram& program,
                                       const ClassifyOptions& options) {
  Classification out;
  out.record.seed = program.seed;
  out.record.shape = program.shape;
  out.record.semantics = program.semantics;
  out.record.text = program.text;
  auto diverge = [&](const std::string& stage, std::string detail) {
    out.divergences.push_back(Divergence{program.seed, stage, std::move(detail)});
  };

  // Stage 1: parse + build the query. A generator emitting unparseable or
  // invalid text is itself the bug being reported.
  Result<datalog::Program> parsed = datalog::Parse(program.text);
  if (!parsed.ok()) {
    diverge("parse", parsed.status().ToString());
    return out;
  }
  std::string name = std::string("fuzz-") + ProgramShapeName(program.shape) +
                     "-" + std::to_string(program.seed);
  Result<DatalogQuery> query =
      DatalogQuery::Create(*parsed, name, program.semantics);
  if (!query.ok()) {
    diverge("parse", query.status().ToString());
    return out;
  }

  // Stage 2: the syntactic classifier against the generator's construction.
  out.record.fragment = query->fragment().FragmentName();
  if (out.record.fragment != ExpectedFragment(program.shape)) {
    diverge("fragment", "shape " + std::string(ProgramShapeName(program.shape)) +
                            " classified as " + out.record.fragment +
                            ", expected " + ExpectedFragment(program.shape));
  }

  // Stage 3: the bounded ladder, with coherence cross-checks, witness
  // re-verification, and the fragment theorems as assertions.
  const ShapeGuarantee guarantee = GuaranteeFor(program.shape);
  // The ladder and both preservation sweeps would each probe genericity
  // with identical arguments; one probe answers for all three.
  const SymmetryMode symmetry =
      ResolveSymmetry(*query, SymmetryMode::kAuto, options.domain_size,
                      options.max_facts_i);
  ExhaustiveOptions base;
  base.domain_size = options.domain_size;
  base.max_facts_i = options.max_facts_i;
  base.fresh_values = options.fresh_values;
  base.threads = options.threads;
  base.symmetry = symmetry;
  Result<Ladder> ladder = ComputeLadder(*query, options.max_i, base);
  if (!ladder.ok()) {
    diverge("ladder", ladder.status().ToString());
  } else {
    out.record.ladder = *ladder;
    out.record.class_bucket = BucketOf(*ladder);
    bool prev_m = true, prev_distinct = true, prev_disjoint = true;
    for (const LadderRow& row : ladder->rows) {
      // Within a row the J-spaces nest: M's includes Mdistinct's includes
      // Mdisjoint's, so membership propagates left to right.
      if ((row.in_m && !row.in_distinct) ||
          (row.in_distinct && !row.in_disjoint)) {
        diverge("coherence",
                "row i=" + std::to_string(row.i) + " not nested: " +
                    ladder->ToString());
      }
      // Across rows a violation is monotone: row i's J-space sits inside
      // row i+1's, so membership can only be lost going down.
      if ((!prev_m && row.in_m) || (!prev_distinct && row.in_distinct) ||
          (!prev_disjoint && row.in_disjoint)) {
        diverge("coherence", "membership regained at row i=" +
                                 std::to_string(row.i) + ": " +
                                 ladder->ToString());
      }
      prev_m = row.in_m;
      prev_distinct = row.in_distinct;
      prev_disjoint = row.in_disjoint;
      struct {
        const std::optional<Counterexample>* witness;
        MonotonicityClass cls;
      } cells[3] = {
          {&row.m_witness, MonotonicityClass::kMonotone},
          {&row.distinct_witness, MonotonicityClass::kDomainDistinct},
          {&row.disjoint_witness, MonotonicityClass::kDomainDisjoint},
      };
      for (const auto& cell : cells) {
        if (!cell.witness->has_value()) continue;
        Status verified = VerifyWitness(*query, **cell.witness, cell.cls);
        if (!verified.ok()) diverge("ladder", verified.ToString());
      }
    }
    // The fragment theorems, as hard assertions (Prop. 5.1/5.2/5.4/5.6).
    bool in_m = true, in_distinct = true, in_disjoint = true;
    for (const LadderRow& row : ladder->rows) {
      in_m = in_m && row.in_m;
      in_distinct = in_distinct && row.in_distinct;
      in_disjoint = in_disjoint && row.in_disjoint;
    }
    if ((guarantee == ShapeGuarantee::kMonotone && !in_m) ||
        (guarantee == ShapeGuarantee::kDomainDistinct && !in_distinct) ||
        (guarantee == ShapeGuarantee::kDomainDisjoint && !in_disjoint)) {
      diverge("ladder", std::string("fragment theorem violated: shape ") +
                            ProgramShapeName(program.shape) + " promises " +
                            ShapeGuaranteeName(guarantee) + " but ladder says " +
                            out.record.class_bucket + "\n" +
                            ladder->ToString());
    }

    // Stage 4: symmetry differential — the canonicalizer's orbit pruning
    // must not change a single verdict or witness byte. Without the
    // reduction there is no pruning to compare: the reference would re-run
    // the very sweep above.
    if (options.differential && symmetry == SymmetryMode::kForceOn) {
      ExhaustiveOptions full = base;
      full.symmetry = SymmetryMode::kOff;
      Result<Ladder> reference = ComputeLadder(*query, options.max_i, full);
      if (!reference.ok()) {
        diverge("differential", reference.status().ToString());
      } else if (reference->rows.size() != ladder->rows.size()) {
        diverge("differential", "row count mismatch");
      } else {
        for (size_t n = 0; n < ladder->rows.size(); ++n) {
          const LadderRow& a = ladder->rows[n];
          const LadderRow& b = reference->rows[n];
          if (a.in_m != b.in_m || a.in_distinct != b.in_distinct ||
              a.in_disjoint != b.in_disjoint ||
              !SameWitness(a.m_witness, b.m_witness) ||
              !SameWitness(a.distinct_witness, b.distinct_witness) ||
              !SameWitness(a.disjoint_witness, b.disjoint_witness)) {
            diverge("differential",
                    "symmetry on/off disagree at row i=" + std::to_string(a.i) +
                        ":\n" + ladder->ToString() + "\nvs\n" +
                        reference->ToString());
          }
        }
      }
    }
  }

  // Stage 5: preservation sweeps (Lemma 3.2: Hinj = M, E = Mdistinct).
  {
    monotonicity::PreservationOptions po;
    po.domain_size = options.domain_size;
    po.max_facts = options.max_facts_i;
    po.threads = options.threads;
    po.symmetry = symmetry;
    Result<std::optional<monotonicity::PreservationViolation>> e =
        FindPreservationViolation(*query,
                                  monotonicity::PreservationClass::kExtensions,
                                  po);
    if (!e.ok()) {
      diverge("preservation", e.status().ToString());
    } else if (e->has_value()) {
      if (guarantee == ShapeGuarantee::kMonotone ||
          guarantee == ShapeGuarantee::kDomainDistinct) {
        diverge("preservation",
                "E violation for a shape inside Mdistinct = E: " +
                    (*e)->ToString());
      } else {
        // Verify the witness: J is an induced piece of I with a fact in
        // Q(J) \ Q(I).
        const monotonicity::PreservationViolation& v = **e;
        bool subset = true;
        v.j.ForEachFact([&](uint32_t rel, const Tuple& t) {
          subset = subset && v.i.Contains(Fact(rel, t));
        });
        Result<Instance> qj = query->Eval(v.j);
        Result<Instance> qi = query->Eval(v.i);
        if (!subset || !qj.ok() || !qi.ok() ||
            !qj->Contains(v.not_preserved) || qi->Contains(v.not_preserved)) {
          diverge("preservation",
                  "unverifiable E violation: " + v.ToString());
        }
      }
    }
    // Hinj = M holds for *generic* monotone queries only: a body constant
    // pins a domain value, and an injective homomorphism that moves it is a
    // legitimate Hinj counterexample even though the query stays monotone.
    if (guarantee == ShapeGuarantee::kMonotone && !program.uses_constants) {
      Result<std::optional<monotonicity::PreservationViolation>> hinj =
          FindPreservationViolation(
              *query,
              monotonicity::PreservationClass::kInjectiveHomomorphisms, po);
      if (!hinj.ok()) {
        diverge("preservation", hinj.status().ToString());
      } else if (hinj->has_value()) {
        diverge("preservation",
                "Hinj violation for a monotone shape (Hinj = M): " +
                    (*hinj)->ToString());
      }
    }
  }

  // Stage 6: a fixed network-sized input; EvalStats under the stratified
  // engine (the well-founded shapes leave the counters at zero).
  Instance input = RandomInstance(query->input_schema(), options.network_facts,
                                  options.network_domain,
                                  MixSeed(program.seed, 0x1157));
  if (program.semantics == DatalogQuery::Semantics::kStratified) {
    datalog::EvalStats stats;
    Result<Instance> full =
        datalog::Evaluate(query->program(), input, {}, &stats);
    if (!full.ok()) {
      diverge("ladder", "network-input evaluation failed: " +
                            full.status().ToString());
    } else {
      out.record.stats = stats;
    }
  }

  // Stage 7: the coordination-free strategies (Theorems 4.3/4.4/4.5) on a
  // 2-node network — async-fair consistency, one seeded chaos fault plan,
  // and the BSP supersteps, all byte-identical to Q(I).
  if (options.run_strategies && guarantee != ShapeGuarantee::kNone &&
      out.divergences.empty()) {
    using transducer::TransducerNetwork;
    transducer::Network nodes{Value::FromInt(900), Value::FromInt(901)};
    std::unique_ptr<transducer::DistributionPolicy> policy;
    std::unique_ptr<transducer::Transducer> strategy;
    transducer::ModelOptions model = transducer::ModelOptions::PolicyAware();
    switch (guarantee) {
      case ShapeGuarantee::kMonotone:
        out.record.strategy = "broadcast";
        policy = std::make_unique<transducer::HashPolicy>(nodes);
        strategy = transducer::MakeBroadcastTransducer(&*query);
        model = transducer::ModelOptions::Original();
        break;
      case ShapeGuarantee::kDomainDistinct:
        out.record.strategy = "absence";
        policy = std::make_unique<transducer::HashPolicy>(nodes);
        strategy = transducer::MakeAbsenceTransducer(&*query);
        break;
      case ShapeGuarantee::kDomainDisjoint:
        out.record.strategy = "domain-request";
        policy = std::make_unique<transducer::HashDomainGuidedPolicy>(nodes);
        strategy = transducer::MakeDomainRequestTransducer(&*query);
        break;
      case ShapeGuarantee::kNone:
        break;
    }

    Result<Instance> expected = query->Eval(input);
    if (!expected.ok()) {
      diverge("strategy", expected.status().ToString());
      out.record.conformant = out.divergences.empty();
      return out;
    }

    transducer::NetworkFactory make_network =
        [&]() -> Result<std::unique_ptr<TransducerNetwork>> {
      auto network = std::make_unique<TransducerNetwork>(
          nodes, strategy.get(), policy.get(), model);
      CALM_RETURN_IF_ERROR(network->Initialize(input));
      return network;
    };

    // 7a: async fair runs (round-robin + seeded random) must agree with
    // each other and with the centralized evaluation.
    {
      std::unique_ptr<TransducerNetwork> holder;
      auto make_raw = [&]() -> Result<TransducerNetwork*> {
        CALM_ASSIGN_OR_RETURN(holder, make_network());
        return holder.get();
      };
      transducer::ConsistencyOptions co;
      co.random_runs = 2;
      co.seed = program.seed;
      Result<Instance> async_out = RunConsistently(make_raw, co);
      if (!async_out.ok()) {
        diverge("strategy", async_out.status().ToString());
      } else if (*async_out != *expected) {
        diverge("strategy", "async output " + FactsToString(*async_out) +
                                " != Q(I) " + FactsToString(*expected));
      }
    }

    // 7b: one seeded chaos fault plan under round-robin; a divergence is
    // ddmin-shrunk and shipped as a replayable trace.
    {
      net::FaultPlan plan = net::FaultPlan::Random(
          MixSeed(program.seed, 0xFA17), net::FaultProfile::Chaos());
      transducer::RunOptions ro;
      ro.faults = &plan;
      Result<std::unique_ptr<TransducerNetwork>> network = make_network();
      Result<transducer::RunResult> run =
          network.ok() ? RunToQuiescence(**network, ro)
                       : Result<transducer::RunResult>(network.status());
      if (!run.ok()) {
        diverge("fault", run.status().ToString());
      } else if (!run->quiesced || run->output != *expected) {
        transducer::RunOptions shrink_base;
        Result<std::vector<net::FaultEvent>> shrunk = ShrinkDivergence(
            make_network, *expected, shrink_base, plan.log());
        std::vector<net::FaultEvent> events =
            shrunk.ok() ? *shrunk : plan.log();
        // Re-run the minimal script for the final observation + schedule,
        // then ship the whole run as a replayable JSON trace.
        net::FaultPlan scripted = net::FaultPlan::Scripted(events);
        transducer::RunOptions replay;
        replay.faults = &scripted;
        replay.record_choices = true;
        transducer::TraceRecord trace;
        trace.scenario = name;
        trace.policy = policy->name();
        trace.model = model.ToString();
        for (Value node : nodes) trace.nodes.push_back(node.payload());
        input.ForEachFact([&](uint32_t rel, const Tuple& t) {
          trace.input.push_back(Fact(rel, t));
        });
        trace.events = events;
        expected->ForEachFact([&](uint32_t rel, const Tuple& t) {
          trace.expected_output.push_back(Fact(rel, t));
        });
        Result<std::unique_ptr<TransducerNetwork>> net2 = make_network();
        if (net2.ok()) {
          Result<transducer::RunResult> rerun =
              RunToQuiescence(**net2, replay);
          if (rerun.ok()) {
            trace.choices = rerun->choices;
            rerun->output.ForEachFact([&](uint32_t rel, const Tuple& t) {
              trace.observed_output.push_back(Fact(rel, t));
            });
          }
        }
        Result<std::string> json = SerializeTrace(trace);
        diverge("fault", json.ok() ? *json
                                   : "divergence under faults (trace "
                                     "serialization failed: " +
                                         json.status().ToString() + ")");
      }
    }

    // 7c: BSP supersteps — the deterministic bulk-synchronous run must be
    // byte-identical to the async-fair quiescent output for every
    // coordination-free program.
    {
      transducer::RunOptions bsp;
      bsp.semantics = transducer::NetworkSemantics::kBsp;
      Result<std::unique_ptr<TransducerNetwork>> network = make_network();
      Result<transducer::RunResult> run =
          network.ok() ? RunToQuiescence(**network, bsp)
                       : Result<transducer::RunResult>(network.status());
      if (!run.ok()) {
        diverge("bsp", run.status().ToString());
      } else if (!run->quiesced) {
        diverge("bsp", "BSP run did not quiesce");
      } else {
        out.record.bsp_supersteps = run->supersteps;
        if (run->output != *expected) {
          diverge("bsp", "BSP output " + FactsToString(run->output) +
                             " != async/Q(I) " + FactsToString(*expected));
        }
      }
    }
  }

  out.record.conformant = out.divergences.empty();
  return out;
}

// --- survey -----------------------------------------------------------------

namespace {

void WriteWitnessFile(const std::string& dir, const Divergence& divergence,
                      size_t index) {
  std::string path = dir + "/" + divergence.stage + "-" +
                     std::to_string(divergence.seed) + "-" +
                     std::to_string(index) +
                     (divergence.stage == "fault" ? ".json" : ".txt");
  std::ofstream out(path);
  out << divergence.detail << "\n";
}

}  // namespace

Result<SurveyStats> RunSurvey(const SurveyOptions& options) {
  Corpus corpus;
  if (!options.corpus_path.empty()) {
    CALM_RETURN_IF_ERROR(corpus.Open(options.corpus_path));
  }
  if (!options.witness_dir.empty()) {
    CALM_RETURN_IF_ERROR(durable::MakeDirs(options.witness_dir));
  }

  SurveyStats stats;
  for (size_t k = 0; k < options.programs; ++k) {
    uint64_t seed = MixSeed(options.seed, k);
    if (corpus.Contains(seed)) {
      ++stats.skipped;
      continue;
    }
    FuzzerOptions knobs = options.knobs;
    knobs.seed = seed;
    knobs.shape = static_cast<ProgramShape>(k % kProgramShapeCount);
    GeneratedProgram program = GenerateProgram(knobs);
    CALM_ASSIGN_OR_RETURN(Classification classified,
                          ClassifyProgram(program, options.classify));
    ++stats.programs;
    if (!classified.record.strategy.empty()) {
      ++stats.strategy_runs;
      if (classified.record.bsp_supersteps > 0) ++stats.bsp_runs;
    }
    CALM_RETURN_IF_ERROR(corpus.Add(classified.record));
    for (size_t d = 0; d < classified.divergences.size(); ++d) {
      CALM_RETURN_IF_ERROR(corpus.AddDivergence(classified.divergences[d]));
      if (!options.witness_dir.empty()) {
        WriteWitnessFile(options.witness_dir, classified.divergences[d], d);
      }
    }
  }

  // Histogram the *whole* corpus (replayed + new): a survey resumed after a
  // kill reports the same totals an uninterrupted run would.
  for (const auto& [seed, record] : corpus.records()) {
    (void)seed;
    ++stats.fragment_histogram[record.fragment];
    ++stats.class_histogram[record.class_bucket];
  }
  stats.disagreements = corpus.divergences().size();

  if (options.inject_misclassification) {
    // Negative control: an SP-shaped program wearing a "positive" label.
    // The pipeline must catch the lie twice over — the fragment oracle
    // (text is SP-Datalog, not Datalog) and the ladder (I = {F(0)},
    // J = {E(0,0)} retracts O(0), so the promised M membership fails).
    GeneratedProgram lie;
    lie.shape = ProgramShape::kPositive;
    lie.seed = 0xC0FFEEull;
    lie.text =
        "% negative control: SP text mislabeled as positive\n"
        "O(x0) :- F(x0), !E(x0, x0).\n"
        ".output O\n";
    CALM_ASSIGN_OR_RETURN(Classification control,
                          ClassifyProgram(lie, options.classify));
    bool fragment_caught = false, ladder_caught = false;
    for (const Divergence& d : control.divergences) {
      if (d.stage == "fragment") fragment_caught = true;
      if (d.stage == "ladder") ladder_caught = true;
    }
    stats.control_caught = fragment_caught && ladder_caught;
  }
  return stats;
}

}  // namespace calm::workload

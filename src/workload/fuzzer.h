#ifndef CALM_WORKLOAD_FUZZER_H_
#define CALM_WORKLOAD_FUZZER_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "base/durable.h"
#include "base/status.h"
#include "datalog/evaluator.h"
#include "datalog/program.h"
#include "monotonicity/ladder.h"

// ---------------------------------------------------------------------------
// Program fuzzer (see DESIGN.md, "Program fuzzer and the BSP semantics"): a
// seeded generator of random Datalog¬ programs shaped to land in each of the
// paper's syntactic fragments, a classifier that runs every generated program
// through the checker ladder, the preservation sweeps, and the Theorem
// 4.3/4.4/4.5 coordination-free strategies (async-fair AND bulk-synchronous,
// cross-checked byte-for-byte), and a persisted corpus of classified programs
// on the shared durable record format.
//
// The generator is *constructive*, not rejection-sampling: each ProgramShape
// forces the distinguishing syntactic feature of its fragment (an inequality,
// a negated edb atom, a disconnected last-stratum rule, the win-move cycle),
// so FragmentName() is deterministic per shape for every seed — which turns
// the syntactic classifier itself into an oracle the fuzzer can test.
//
// Soundness note on constants: the fragment theorems (Prop. 5.2/5.4/5.6)
// hold for the *generic* fragments. A constant inside a negated atom breaks
// them — O(x) :- F(x), !E(x, 5) is SP-shaped yet outside Mdistinct, since
// J = {E(1, 5)} is domain-distinct from I = {F(1)} (5 is not in adom(I)) and
// retracts O(1). The generator therefore emits guarantee-carrying shapes
// (SP, connected, semi-connected, win-move) entirely constant-free and only
// sprinkles constants into the guarantee-free shapes.
// ---------------------------------------------------------------------------

namespace calm::workload {

// The shapes the generator can emit, one per rung of the Figure 2 fragment
// column. kProgramShapeCount indexes the round-robin in RunSurvey.
enum class ProgramShape : uint8_t {
  kPositive = 0,   // positive Datalog            -> "Datalog"
  kInequality,     // Datalog(!=)                 -> "Datalog(!=)"
  kSemiPositive,   // SP-Datalog                  -> "SP-Datalog"
  kConnected,      // con-Datalog¬                -> "con-Datalog~"
  kSemiConnected,  // semicon-Datalog¬            -> "semicon-Datalog~"
  kStratified,     // stratified, disconnected ¬  -> "Datalog~"
  kWinMove,        // win-move variants (wf)      -> "unstratifiable"
};
inline constexpr size_t kProgramShapeCount = 7;

// "positive", "inequality", ...
const char* ProgramShapeName(ProgramShape shape);

// The monotonicity-class guarantee the fragment theorems attach to a shape —
// what the classifier *asserts* (a violation is a bug in the generator, the
// checker, or the theorems' reproduction) rather than merely records.
enum class ShapeGuarantee : uint8_t {
  kMonotone,        // Datalog(!=) subset of M (Prop. 5.1)
  kDomainDistinct,  // SP-Datalog subset of Mdistinct (Prop. 5.2)
  kDomainDisjoint,  // (semi)con-Datalog¬, win-move subset of Mdisjoint
  kNone,            // stratified Datalog¬ in general promises nothing
};
ShapeGuarantee GuaranteeFor(ProgramShape shape);
const char* ShapeGuaranteeName(ShapeGuarantee guarantee);

// Generation knobs. All shapes respect the bounds; each shape additionally
// forces the minimum structure its fragment needs (so e.g. max_rules is a
// ceiling on *extra* rules, not on the forced core).
struct FuzzerOptions {
  uint64_t seed = 0;
  ProgramShape shape = ProgramShape::kPositive;
  size_t max_arity = 2;       // idb arity in [1, max_arity]
  size_t max_strata = 2;      // idb predicates P0..P{s-1} feeding O
  size_t max_rules = 3;       // extra rules beyond the forced core
  size_t max_body_atoms = 3;  // positive atoms per rule body
  size_t constants = 2;       // constant pool {0..constants-1}; guarded shapes
                              // ignore this (they are constant-free)
};

struct GeneratedProgram {
  ProgramShape shape = ProgramShape::kPositive;
  uint64_t seed = 0;
  datalog::DatalogQuery::Semantics semantics =
      datalog::DatalogQuery::Semantics::kStratified;
  std::string text;  // parseable program source, ".output O" included
  // True when any rule body carries a constant symbol. Such programs are
  // still monotone but no longer generic, so the classifier skips the
  // Hinj-preservation assertion for them (an injective homomorphism that
  // moves the constant is a legitimate counterexample, not a bug).
  bool uses_constants = false;
};

// Deterministic: same options -> byte-identical text.
GeneratedProgram GenerateProgram(const FuzzerOptions& options);

// One disagreement between two things that must agree: a checker verdict and
// a fragment theorem, two symmetry modes, async and BSP, ... `stage` names
// the cross-check ("fragment", "ladder", "coherence", "differential",
// "preservation", "strategy", "bsp", "fault"); `detail` is human-readable.
struct Divergence {
  uint64_t seed = 0;
  std::string stage;
  std::string detail;
};

// Classification bounds. The defaults keep one program's full ladder +
// sweeps + strategy runs around tens of milliseconds.
struct ClassifyOptions {
  size_t max_i = 2;        // ladder rows
  size_t domain_size = 2;  // checker instance space
  size_t max_facts_i = 2;
  size_t fresh_values = 2;
  // Re-run the ladder with symmetry reduction off and assert byte-identical
  // rows (the fuzzer doubling as a differential harness for the canonicalizer).
  // Only programs whose ladder ran reduced (the genericity probe passed)
  // have a reduced sweep to compare.
  bool differential = true;
  // Run the Theorem 4.3/4.4/4.5 strategy transducers (async + BSP + one
  // seeded fault plan) for guarantee-carrying shapes.
  bool run_strategies = true;
  size_t network_facts = 4;   // random input for the strategy runs
  size_t network_domain = 4;
  size_t threads = 1;  // checker threads (1 keeps per-program cost flat)
};

// Everything the corpus remembers about one classified program.
struct CorpusRecord {
  uint64_t seed = 0;
  ProgramShape shape = ProgramShape::kPositive;
  datalog::DatalogQuery::Semantics semantics =
      datalog::DatalogQuery::Semantics::kStratified;
  std::string text;
  std::string fragment;      // FragmentName() of the parsed program
  std::string class_bucket;  // "M" | "Mdistinct" | "Mdisjoint" |
                             // "beyond-Mdisjoint" (from the ladder)
  std::string strategy;      // "broadcast" | "absence" | "domain-request" | ""
  bool conformant = false;   // no divergence at any stage
  uint64_t bsp_supersteps = 0;  // quiescent BSP run length (0 = no run)
  datalog::EvalStats stats;     // stratified evaluation on the network input
  monotonicity::Ladder ladder;
};

// Byte codecs for the corpus WAL (tag "calm.corpus"). Payloads start with a
// kind byte: 1 = program record, 2 = divergence record.
inline constexpr std::string_view kCorpusTag = "calm.corpus";
inline constexpr uint8_t kCorpusKindProgram = 1;
inline constexpr uint8_t kCorpusKindDivergence = 2;

void EncodeCorpusRecord(const CorpusRecord& record, durable::ByteWriter* w);
bool DecodeCorpusRecord(durable::ByteReader* r, CorpusRecord* out);
void EncodeDivergenceRecord(const Divergence& divergence,
                            durable::ByteWriter* w);
bool DecodeDivergenceRecord(durable::ByteReader* r, Divergence* out);

// The persisted corpus: an append-only WAL of classified programs keyed by
// generator seed. Open replays prior records (repairing a torn tail), so a
// survey killed anywhere resumes without reclassifying: Contains(seed) skips
// finished programs. Append fsyncs before returning (LogWriter discipline).
class Corpus {
 public:
  Status Open(const std::string& path);

  bool Contains(uint64_t seed) const { return records_.count(seed) > 0; }
  const std::map<uint64_t, CorpusRecord>& records() const { return records_; }
  const std::vector<Divergence>& divergences() const { return divergences_; }

  Status Add(const CorpusRecord& record);
  Status AddDivergence(const Divergence& divergence);

 private:
  durable::LogWriter log_;
  std::map<uint64_t, CorpusRecord> records_;
  std::vector<Divergence> divergences_;
};

struct Classification {
  CorpusRecord record;
  std::vector<Divergence> divergences;  // empty iff record.conformant
};

// Runs one generated program through the whole checker ladder: parse +
// fragment oracle, bounded ladder with coherence cross-checks and witness
// re-verification, symmetry differential, preservation sweeps (Lemma 3.2's
// E and Hinj), EvalStats, and — for guarantee-carrying shapes — the matching
// strategy transducer under async-fair schedules, one seeded fault plan, and
// BSP supersteps, asserting all quiescent outputs byte-identical to Q(I).
// Divergences are *collected*, not early-exited: one bad stage still lets
// later stages report.
Result<Classification> ClassifyProgram(const GeneratedProgram& program,
                                       const ClassifyOptions& options);

struct SurveyOptions {
  uint64_t seed = 0;
  size_t programs = 50;
  ClassifyOptions classify;
  FuzzerOptions knobs;  // seed/shape overwritten per program
  std::string corpus_path;  // empty = in-memory only (no resume)
  std::string witness_dir;  // where shrunk divergence traces land (empty = off)
  // Negative control: classify one canned mislabeled program (an SP-shaped
  // text claiming ProgramShape::kPositive) and demand the pipeline catches
  // it. Not persisted to the corpus.
  bool inject_misclassification = false;
};

struct SurveyStats {
  size_t programs = 0;  // classified this run (skipped not included)
  size_t skipped = 0;   // already in the corpus (resume)
  std::map<std::string, size_t> fragment_histogram;  // over the whole corpus
  std::map<std::string, size_t> class_histogram;
  size_t disagreements = 0;  // total divergences in the whole corpus
  size_t strategy_runs = 0;
  size_t bsp_runs = 0;
  bool control_caught = false;  // inject_misclassification only
};

// Generates `programs` programs (seed mixed with the index, shapes
// round-robin), classifies each, persists records + divergences, and
// histograms the *entire* corpus (replayed + new), so resumed surveys report
// the same totals an uninterrupted run would.
Result<SurveyStats> RunSurvey(const SurveyOptions& options);

}  // namespace calm::workload

#endif  // CALM_WORKLOAD_FUZZER_H_

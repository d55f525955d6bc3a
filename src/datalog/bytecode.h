#ifndef CALM_DATALOG_BYTECODE_H_
#define CALM_DATALOG_BYTECODE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "base/fact.h"
#include "base/value.h"
#include "datalog/compiled.h"
#include "datalog/relstore.h"

namespace calm::datalog {

// Skolem-term hash-consing (Section 5.2): identical derivations reuse one
// invented value, and numbering follows first-derivation order — so one
// program evaluated twice on one input invents byte-identical values.
class InventionTable {
 public:
  Value GetOrCreate(uint32_t relation, const Tuple& args) {
    auto [it, inserted] =
        table_.emplace(std::make_pair(relation, args), Value());
    if (inserted) it->second = Value::Invented(next_id_++);
    return it->second;
  }
  size_t size() const { return table_.size(); }

 private:
  std::map<std::pair<uint32_t, Tuple>, Value> table_;
  uint64_t next_id_ = 0;
};

// --- Flat bytecode --------------------------------------------------------
//
// One rule compiles to a flat sequence of join ops (one per positive body
// atom, in the compiled join order) plus a trailing emit step; selections,
// projections, inequality filters, and negation anti-probes are attached to
// the op at which they become evaluable. Execution is batch-at-a-time: a
// level of frames (slot vectors) is expanded through each op over the
// columnar store, so the inner loops are flat array walks. Expanding frames
// in order and appending matches in row order makes the breadth-first leaf
// order equal the depth-first enumeration of the join — for each row of the
// first atom, in row order, each matching row of the second, and so on — so
// the derivation stream, and with it insert order and invented-value
// numbering, is a function of the rule and the stored rows alone.
// tests/engine_diff_test.cc holds the results to a reference evaluator.
//
// Frames hold dictionary codes, not Values: the owning Database's shared
// ValueDict makes code equality coincide with value equality, so joins,
// residual checks, and inequality filters (all pure (in)equality) never
// touch a Value. Rule constants are pooled per program (const_id indexes
// BytecodeProgram::const_pool) and interned once per evaluation by the
// executor; Values reappear only at the edges — negation anti-probes
// against a foreign database and Skolem invention.

// Where a value comes from: a frame slot (slot >= 0) or a pooled constant.
struct ValueSrc {
  int slot = -1;
  uint32_t const_id = 0;  // index into BytecodeProgram::const_pool
};

// One probe-key position: the column it constrains and its value source.
struct KeySrc {
  uint16_t col = 0;
  int slot = -1;  // >= 0: frame slot; < 0: pooled constant
  uint32_t const_id = 0;
};

struct IneqCheck {
  ValueSrc left, right;
};

struct JoinOp {
  uint32_t relation = 0;
  uint32_t mask = 0;  // bound-position mask; 0 = full scan
  std::vector<KeySrc> key;  // masked positions, ascending column order
  // Free positions binding new slots: (column, slot).
  std::vector<std::pair<uint16_t, uint16_t>> loads;
  // Within-atom repeated variables / residual selections: the row's value
  // at `col` must equal the (just-bound) frame slot.
  std::vector<std::pair<uint16_t, uint16_t>> checks;
  // Inequalities whose variables are all bound once this atom matched.
  std::vector<IneqCheck> ineqs;
};

struct NegCheck {
  uint32_t relation = 0;
  std::vector<ValueSrc> args;
};

struct RuleBytecode {
  std::vector<JoinOp> ops;
  // Inequalities over constants only (ready_after == 0): evaluated once per
  // rule evaluation, before any emission.
  std::vector<IneqCheck> const_ineqs;
  std::vector<NegCheck> negs;
  uint32_t head_relation = 0;
  bool head_invents = false;
  std::vector<ValueSrc> head;
  uint32_t slot_count = 0;
  // Fused emission plan, set when the last op fully determines the head
  // (no negation, no invention, and the last op carries no residual checks
  // or inequalities): each head code comes straight from the parent frame
  // (kSlot), the matched row (kCol), or the pool (kConst) — no child frame
  // is materialized at all.
  struct FusedSrc {
    enum : uint8_t { kSlot, kCol, kConst };
    uint8_t kind = kSlot;
    uint16_t idx = 0;
  };
  bool fused = false;
  std::vector<FusedSrc> fused_head;
};

// A compiled stratum/program: the rules plus the deduplicated constant pool
// their const_ids index. Immutable after compilation; shared across threads.
struct BytecodeProgram {
  std::vector<RuleBytecode> rules;
  std::vector<Value> const_pool;
};

// Compiles the slot-form rules (datalog/compiled.h) to bytecode. Pure
// translation: join order and binding structure are the compiled rule's,
// and each check sits at the first op that binds all of its slots.
// `pool` accumulates the rule's constants (deduplicated).
RuleBytecode CompileRuleBytecode(const CompiledRule& rule,
                                 std::vector<Value>* pool);
BytecodeProgram CompileBytecode(const std::vector<CompiledRule>& rules);

// Observability tallies: one probe per frame on an indexed atom, hits =
// rows the probe returned (delta-filtered when the atom is the semi-naive
// site), plus the round's insert/dedup outcomes (derivations insert as they
// are emitted; see the visibility note below).
struct ExecCounters {
  uint64_t probes = 0;
  uint64_t probe_hits = 0;
  uint64_t inserted = 0;
  uint64_t rejected = 0;      // duplicate derivations
  uint64_t applications = 0;  // EvalStats::rule_applications contribution
};

// Frame buffers persisted across evaluations (thread-local in the fixpoint
// driver's scratch), so steady-state rule evaluation allocates nothing —
// including the batch-kernel staging areas below, which grow to their
// high-water mark once and are reused by every subsequent rule.
struct BytecodeScratch {
  std::vector<uint32_t> cur, next;
  std::vector<uint32_t> child, head;
  Tuple tuple;
  // Fused-path block staging: row-major probe keys and the resolved hit
  // lists for one block of scan rows (built ahead, prefetched, then
  // resolved — see EvalScanProbeFused).
  std::vector<uint32_t> block_keys;
  std::vector<const std::vector<uint32_t>*> block_hits;
  // Deferred head emissions, one column per head position, flushed through
  // RelStore::InsertBatchCols.
  std::vector<std::vector<uint32_t>> emit_cols;
};

class BytecodeExecutor {
 public:
  static constexpr size_t kNoDelta = static_cast<size_t>(-1);

  // Interns the program's constant pool into `db`'s dictionary, so rule
  // constants live in the same code space as the stored rows.
  //
  // `growing` and `ranges` (both owned by the fixpoint driver, parallel
  // vectors) define the round's visibility horizon: derivations insert into
  // `db` immediately during Eval, and rounds stay semantically isolated
  // because every scan and probe of a growing relation is bounded to rows
  // below ranges[g].second — the relation's row count at the start of the
  // round. The driver advances the ranges between rounds.
  BytecodeExecutor(const BytecodeProgram& program, Database* db,
                   const Database* negation_db,
                   const std::vector<uint32_t>* growing,
                   const std::vector<std::pair<uint32_t, uint32_t>>* ranges,
                   InventionTable* invention, ExecCounters* counters,
                   BytecodeScratch* scratch);

  // Evaluates one rule, inserting head derivations into the database in
  // the join's depth-first order (see above). When `delta_index` names a
  // positive atom, that atom ranges over rows [delta_lo, delta_hi) of its
  // relation's store instead of the full store (row-range semi-naive: the
  // delta is the growth since the previous round, a contiguous row slice of
  // the main store ending at the round's horizon, so no second delta store
  // is maintained).
  void Eval(const RuleBytecode& rule, size_t delta_index, uint32_t delta_lo,
            uint32_t delta_hi);

  // Bounds each op's frame level: once a level holds more than `limit`
  // code slots (frames × stride), Eval stops and exhausted() turns true —
  // the stratum loop reports ResourceExhausted, as it does for stored rows.
  // A rule body whose partial matches multiply (a long chain of atoms
  // sharing one variable) would otherwise allocate without bound.
  void SetFrameLimit(size_t limit) { frame_limit_ = limit; }
  bool exhausted() const { return exhausted_; }

 private:
  // The exclusive row bound visible to this round for `rel`, and whether
  // the relation is a growing one (grows_out).
  uint32_t Horizon(uint32_t rel, const RelStore& store,
                   bool* grows_out) const {
    for (size_t g = 0; g < growing_->size(); ++g) {
      if ((*growing_)[g] == rel) {
        *grows_out = true;
        return (*ranges_)[g].second;
      }
    }
    *grows_out = false;
    return store.row_count();
  }

  // Eval's body. kMasked runs over a masked database (RelStore's world
  // masks): frames carry their world set in two trailing slots, each op
  // ANDs in the matched row's mask and drops frames left with no world.
  template <bool kMasked>
  void EvalRule(const RuleBytecode& rule, size_t delta_index,
                uint32_t delta_lo, uint32_t delta_hi);

  // Last-op fast path: joins the final atom's row into a stack frame and,
  // if it survives, runs negation checks and emits the head row straight
  // into the database — no intermediate frame level.
  // `store` is null only for bodyless rules (op has no loads/checks).
  // Masked: `worlds` is the frame's world set after the row's mask; each
  // negated fact's world set (its stratum is complete) is subtracted, and
  // the head is inserted for what is left.
  template <bool kMasked>
  void EmitRow(const RuleBytecode& rule, const JoinOp& op,
               const RelStore* store, uint32_t row, const uint32_t* parent,
               size_t stride, bool emit_ok, uint64_t worlds);

  // Whole-rule fast path for the dominant shape (e.g. transitive closure):
  // a fused two-op rule whose first op is an unfiltered scan and whose
  // second is an indexed probe. Runs scan → probe → emit as one nested loop
  // over the columns, materializing no frames at all. Returns false (having
  // done nothing) when the shape doesn't map cleanly; the caller then runs
  // the general batch loop.
  bool EvalScanProbeFused(const RuleBytecode& rule, size_t delta_index,
                          uint32_t delta_lo, uint32_t delta_hi, bool emit_ok);

  // Per-Eval anti-probe plan, one entry per rule.negs entry: the negation
  // check stays in code space (ContainsCodes on the store, with bucket
  // prefetching) when the anti-probe target shares db_'s dictionary and the
  // store's columnar shape matches; otherwise it decodes to Values and goes
  // through Database::Contains exactly as before.
  struct NegPlan {
    const RelStore* store = nullptr;
    bool code_ok = false;
  };
  void BuildNegPlan(const RuleBytecode& rule);

  Database* db_;
  const Database* negation_db_;
  const std::vector<uint32_t>* growing_;
  const std::vector<std::pair<uint32_t, uint32_t>>* ranges_;
  InventionTable* invention_;
  ExecCounters* counters_;
  BytecodeScratch* scratch_;
  const std::vector<Value>* pool_;
  std::vector<uint32_t> const_codes_;  // const_id -> code in db_'s dict
  std::vector<NegPlan> neg_plan_;
  std::vector<uint32_t> neg_codes_;  // staged code-space anti-probe keys
  const bool masked_;  // the database was in masked mode at construction
  size_t frame_limit_ = SIZE_MAX;
  bool exhausted_ = false;
  // The current rule's head store, resolved once per Eval. Non-null because
  // the driver pre-creates every growing (head) relation's store
  // (Database::EnsureStores), which also pins it against reallocation.
  RelStore* head_store_ = nullptr;
};

}  // namespace calm::datalog

#endif  // CALM_DATALOG_BYTECODE_H_

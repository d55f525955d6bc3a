#include "datalog/bytecode.h"

#include <algorithm>

namespace calm::datalog {

namespace {

// Deduplicating append into the program's constant pool.
uint32_t PoolId(std::vector<Value>* pool, Value v) {
  for (uint32_t i = 0; i < pool->size(); ++i) {
    if ((*pool)[i] == v) return i;
  }
  pool->push_back(v);
  return static_cast<uint32_t>(pool->size() - 1);
}

ValueSrc MakeSrc(int slot, uint32_t const_id) {
  ValueSrc src;
  src.slot = slot;
  src.const_id = const_id;
  return src;
}

ValueSrc IneqSide(std::vector<Value>* pool, int slot, Value constant) {
  return MakeSrc(slot, slot >= 0 ? 0 : PoolId(pool, constant));
}

// Appends the child frame of (parent, row) to `next`: copy-forward the
// parent slots, bind this atom's free columns, then run the residual
// equality and inequality checks. Returns whether the child survived.
// Everything compares dictionary codes — the shared dictionary makes code
// equality coincide with value equality.
// Masked frames (kMasked) end in two slots holding their world set, which
// the child takes as `worlds` (the parent's set ANDed with the row's mask).
template <bool kMasked>
inline bool ExpandRow(const JoinOp& op, const RelStore& store, uint32_t row,
                      const uint32_t* parent, size_t stride,
                      const uint32_t* const_codes,
                      std::vector<uint32_t>& next, uint64_t worlds) {
  size_t base = next.size();
  next.resize(base + stride);
  uint32_t* child = next.data() + base;
  std::copy(parent, parent + stride, child);
  for (const auto& [col, slot] : op.loads) {
    child[slot] = store.CodeAt(row, col);
  }
  for (const auto& [col, slot] : op.checks) {
    if (store.CodeAt(row, col) != child[slot]) {
      next.resize(base);
      return false;
    }
  }
  for (const IneqCheck& iq : op.ineqs) {
    uint32_t l = iq.left.slot >= 0 ? child[iq.left.slot]
                                   : const_codes[iq.left.const_id];
    uint32_t r = iq.right.slot >= 0 ? child[iq.right.slot]
                                    : const_codes[iq.right.const_id];
    if (l == r) {
      next.resize(base);
      return false;
    }
  }
  if constexpr (kMasked) {
    child[stride - 2] = static_cast<uint32_t>(worlds);
    child[stride - 1] = static_cast<uint32_t>(worlds >> 32);
  }
  return true;
}

// A masked frame's world set (its two trailing slots).
inline uint64_t FrameWorlds(const uint32_t* frame, size_t stride) {
  return frame[stride - 2] | (static_cast<uint64_t>(frame[stride - 1]) << 32);
}

}  // namespace

RuleBytecode CompileRuleBytecode(const CompiledRule& rule,
                                 std::vector<Value>* pool) {
  RuleBytecode bc;
  bc.slot_count = static_cast<uint32_t>(rule.slot_count);
  bc.head_relation = rule.head.relation;
  bc.head_invents = rule.head.invents;
  for (size_t i = 0; i < rule.head.slots.size(); ++i) {
    int s = rule.head.slots[i];
    bc.head.push_back(
        MakeSrc(s, s >= 0 ? 0 : PoolId(pool, rule.head.constants[i])));
  }

  // Static binding analysis: a slot is bound at atom k iff an earlier atom
  // (or an earlier position of atom k) bound it — decided once here rather
  // than per candidate tuple at run time.
  std::vector<bool> bound(rule.slot_count, false);
  for (size_t a = 0; a < rule.pos.size(); ++a) {
    const CompiledAtom& atom = rule.pos[a];
    JoinOp op;
    op.relation = atom.relation;
    for (size_t i = 0; i < atom.slots.size(); ++i) {
      int s = atom.slots[i];
      if (s < 0) {
        op.mask |= (1u << i);
        KeySrc k;
        k.col = static_cast<uint16_t>(i);
        k.slot = -1;
        k.const_id = PoolId(pool, atom.constants[i]);
        op.key.push_back(k);
      } else if (bound[s]) {
        op.mask |= (1u << i);
        KeySrc k;
        k.col = static_cast<uint16_t>(i);
        k.slot = s;
        op.key.push_back(k);
      } else {
        bool in_atom = false;
        for (const auto& [col, slot] : op.loads) in_atom |= slot == s;
        if (in_atom) {
          op.checks.emplace_back(static_cast<uint16_t>(i),
                                 static_cast<uint16_t>(s));
        } else {
          op.loads.emplace_back(static_cast<uint16_t>(i),
                                static_cast<uint16_t>(s));
        }
      }
    }
    for (const auto& [col, slot] : op.loads) bound[slot] = true;
    for (const CompiledIneq& iq : rule.ineqs) {
      if (iq.ready_after != a + 1) continue;
      op.ineqs.push_back(
          IneqCheck{IneqSide(pool, iq.left_slot, iq.left_const),
                    IneqSide(pool, iq.right_slot, iq.right_const)});
    }
    bc.ops.push_back(std::move(op));
  }

  for (const CompiledIneq& iq : rule.ineqs) {
    if (iq.ready_after != 0) continue;
    bc.const_ineqs.push_back(
        IneqCheck{IneqSide(pool, iq.left_slot, iq.left_const),
                  IneqSide(pool, iq.right_slot, iq.right_const)});
  }
  for (const CompiledAtom& atom : rule.neg) {
    NegCheck n;
    n.relation = atom.relation;
    for (size_t i = 0; i < atom.slots.size(); ++i) {
      int s = atom.slots[i];
      n.args.push_back(
          MakeSrc(s, s >= 0 ? 0 : PoolId(pool, atom.constants[i])));
    }
    bc.negs.push_back(std::move(n));
  }

  if (!bc.ops.empty() && bc.negs.empty() && !bc.head_invents &&
      bc.ops.back().checks.empty() && bc.ops.back().ineqs.empty()) {
    const JoinOp& op = bc.ops.back();
    bc.fused = true;
    for (const ValueSrc& src : bc.head) {
      RuleBytecode::FusedSrc f;
      if (src.slot < 0) {
        f.kind = RuleBytecode::FusedSrc::kConst;
        f.idx = static_cast<uint16_t>(src.const_id);
      } else {
        f.kind = RuleBytecode::FusedSrc::kSlot;
        f.idx = static_cast<uint16_t>(src.slot);
        for (const auto& [col, slot] : op.loads) {
          if (slot == src.slot) {
            f.kind = RuleBytecode::FusedSrc::kCol;
            f.idx = col;
            break;
          }
        }
      }
      bc.fused_head.push_back(f);
    }
  }
  return bc;
}

BytecodeProgram CompileBytecode(const std::vector<CompiledRule>& rules) {
  BytecodeProgram out;
  out.rules.reserve(rules.size());
  for (const CompiledRule& r : rules) {
    out.rules.push_back(CompileRuleBytecode(r, &out.const_pool));
  }
  return out;
}

BytecodeExecutor::BytecodeExecutor(
    const BytecodeProgram& program, Database* db, const Database* negation_db,
    const std::vector<uint32_t>* growing,
    const std::vector<std::pair<uint32_t, uint32_t>>* ranges,
    InventionTable* invention, ExecCounters* counters,
    BytecodeScratch* scratch)
    : db_(db),
      negation_db_(negation_db),
      growing_(growing),
      ranges_(ranges),
      invention_(invention),
      counters_(counters),
      scratch_(scratch),
      pool_(&program.const_pool),
      masked_(db->masked()) {
  const_codes_.resize(pool_->size());
  for (size_t i = 0; i < pool_->size(); ++i) {
    const_codes_[i] = db->dict().Intern((*pool_)[i]);
  }
}

template <bool kMasked>
void BytecodeExecutor::EmitRow(const RuleBytecode& rule, const JoinOp& op,
                               const RelStore* store, uint32_t row,
                               const uint32_t* parent, size_t stride,
                               bool emit_ok, uint64_t worlds) {
  uint32_t* child = scratch_->child.data();
  std::copy(parent, parent + stride, child);
  for (const auto& [col, slot] : op.loads) {
    child[slot] = store->CodeAt(row, col);
  }
  for (const auto& [col, slot] : op.checks) {
    if (store->CodeAt(row, col) != child[slot]) return;
  }
  const uint32_t* ccodes = const_codes_.data();
  for (const IneqCheck& iq : op.ineqs) {
    uint32_t l = iq.left.slot >= 0 ? child[iq.left.slot]
                                   : ccodes[iq.left.const_id];
    uint32_t r = iq.right.slot >= 0 ? child[iq.right.slot]
                                    : ccodes[iq.right.const_id];
    if (l == r) return;
  }
  // The join ran (probe/hit counters ticked); a failing constant-only
  // inequality only suppresses the leaf, so the counters do not depend on
  // where that inequality is checked.
  if (!emit_ok) return;
  const ValueDict& dict = db_->dict();
  if (kMasked && !rule.negs.empty()) {
    // A negated fact's world set is final (its stratum is complete); the
    // head holds in the frame's worlds outside it.
    for (size_t n = 0; n < rule.negs.size(); ++n) {
      const NegCheck& neg = rule.negs[n];
      const RelStore* target = neg_plan_[n].store;
      if (target == nullptr) continue;
      neg_codes_.clear();
      for (const ValueSrc& src : neg.args) {
        neg_codes_.push_back(src.slot >= 0 ? child[src.slot]
                                           : const_codes_[src.const_id]);
      }
      worlds &= ~target->FullMask(neg_codes_.data(),
                                  static_cast<uint32_t>(neg.args.size()));
      if (worlds == 0) return;
    }
  } else if (!rule.negs.empty()) {
    // Code-space anti-probes (the common case, per the plan BuildNegPlan
    // computed once for this Eval): stage every key first and prefetch its
    // dedup bucket, then resolve in order, so the cache misses overlap
    // instead of serializing. Foreign-dictionary targets (fixed-negation
    // alternation) decode to Values exactly as before.
    neg_codes_.clear();
    for (size_t n = 0; n < rule.negs.size(); ++n) {
      if (!neg_plan_[n].code_ok) continue;
      const NegCheck& neg = rule.negs[n];
      const size_t base = neg_codes_.size();
      for (const ValueSrc& src : neg.args) {
        neg_codes_.push_back(src.slot >= 0 ? child[src.slot]
                                           : const_codes_[src.const_id]);
      }
      neg_plan_[n].store->PrefetchContains(
          neg_codes_.data() + base, static_cast<uint32_t>(neg.args.size()));
    }
    size_t staged = 0;
    for (size_t n = 0; n < rule.negs.size(); ++n) {
      const NegCheck& neg = rule.negs[n];
      if (neg_plan_[n].code_ok) {
        const uint32_t arity = static_cast<uint32_t>(neg.args.size());
        if (neg_plan_[n].store->ContainsCodes(neg_codes_.data() + staged,
                                              arity)) {
          return;
        }
        staged += arity;
      } else {
        Tuple& neg_tuple = scratch_->tuple;
        neg_tuple.clear();
        neg_tuple.reserve(neg.args.size());
        for (const ValueSrc& src : neg.args) {
          neg_tuple.push_back(src.slot >= 0 ? dict.ValueOf(child[src.slot])
                                            : (*pool_)[src.const_id]);
        }
        if (negation_db_->Contains(neg.relation, neg_tuple)) return;
      }
    }
  }
  ++counters_->applications;
  uint32_t* head = scratch_->head.data();
  size_t h = 0;
  if (rule.head_invents) {
    // ILOG invention stays in Value space: the Skolem table is keyed by
    // Values, so a term's invented value does not depend on code assignment.
    Tuple& args = scratch_->tuple;
    args.clear();
    args.reserve(rule.head.size());
    for (const ValueSrc& src : rule.head) {
      args.push_back(src.slot >= 0 ? dict.ValueOf(child[src.slot])
                                   : (*pool_)[src.const_id]);
    }
    Value skolem = invention_->GetOrCreate(rule.head_relation, args);
    head[h++] = db_->dict().Intern(skolem);
  }
  for (const ValueSrc& src : rule.head) {
    head[h++] = src.slot >= 0 ? child[src.slot] : ccodes[src.const_id];
  }
  if constexpr (kMasked) {
    if (head_store_->InsertMasked(head, static_cast<uint32_t>(h), worlds)) {
      ++counters_->inserted;
    } else {
      ++counters_->rejected;
    }
    return;
  }
  if (head_store_->InsertCodes(head, static_cast<uint32_t>(h))) {
    ++counters_->inserted;
  } else {
    ++counters_->rejected;
  }
}

void BytecodeExecutor::BuildNegPlan(const RuleBytecode& rule) {
  neg_plan_.assign(rule.negs.size(), NegPlan{});
  const bool same_dict = &negation_db_->dict() == &db_->dict();
  for (size_t n = 0; n < rule.negs.size(); ++n) {
    const NegCheck& neg = rule.negs[n];
    NegPlan& plan = neg_plan_[n];
    plan.store = negation_db_->Store(neg.relation);
    // ContainsCodes needs the columnar shape to cover the whole relation:
    // matching arity and no overflow rows. Negated relations never grow
    // within their stratum (stratification), so the plan holds for the
    // whole Eval.
    plan.code_ok = same_dict && plan.store != nullptr && !neg.args.empty() &&
                   neg.args.size() <= 16 &&
                   plan.store->arity() ==
                       static_cast<int>(neg.args.size()) &&
                   plan.store->overflow_count() == 0;
  }
}

bool BytecodeExecutor::EvalScanProbeFused(const RuleBytecode& rule,
                                          size_t delta_index, uint32_t delta_lo,
                                          uint32_t delta_hi, bool emit_ok) {
  const JoinOp& op0 = rule.ops[0];
  const JoinOp& op1 = rule.ops[1];
  const uint32_t* ccodes = const_codes_.data();

  // Map every slot the probe key and head plan reference back to the op0
  // column that binds it — after that, the whole rule reads columns only.
  auto col_of_slot = [&](uint16_t slot, uint32_t* col) {
    for (const auto& [c, s] : op0.loads) {
      if (s == slot) {
        *col = c;
        return true;
      }
    }
    return false;
  };
  struct Src {
    uint8_t kind;  // 0 = op0 column, 1 = op1 column, 2 = constant code
    uint32_t idx;
  };
  Src key[32];
  const uint32_t nkey = static_cast<uint32_t>(op1.key.size());
  if (nkey > 32) return false;
  for (uint32_t i = 0; i < nkey; ++i) {
    const KeySrc& k = op1.key[i];
    if (k.slot < 0) {
      key[i] = {2, ccodes[k.const_id]};
    } else {
      uint32_t col = 0;
      if (!col_of_slot(static_cast<uint16_t>(k.slot), &col)) return false;
      key[i] = {0, col};
    }
  }
  Src head_plan[32];
  const uint32_t nhead = static_cast<uint32_t>(rule.fused_head.size());
  // Nullary heads would leave the deferred-emission buffers without a
  // column to carry the attempt count; the general path handles them.
  if (nhead == 0 || nhead > 32) return false;
  for (uint32_t i = 0; i < nhead; ++i) {
    const RuleBytecode::FusedSrc& s = rule.fused_head[i];
    if (s.kind == RuleBytecode::FusedSrc::kConst) {
      head_plan[i] = {2, ccodes[s.idx]};
    } else if (s.kind == RuleBytecode::FusedSrc::kCol) {
      head_plan[i] = {1, s.idx};
    } else {
      uint32_t col = 0;
      if (!col_of_slot(s.idx, &col)) return false;
      head_plan[i] = {0, col};
    }
  }

  RelStore* s0 = db_->Store(op0.relation);
  if (s0 == nullptr || s0->size() == 0) return true;
  bool grows0 = false;
  const uint32_t end0 = Horizon(op0.relation, *s0, &grows0);
  if (grows0 && end0 == 0) return true;
  const bool d0 = delta_index == 0;
  const uint32_t begin0 = d0 ? delta_lo : 0;
  const uint32_t stop0 = d0 ? delta_hi : end0;

  RelStore* s1 = db_->Store(op1.relation);
  if (s1 == nullptr || s1->size() == 0) return true;
  bool grows1 = false;
  const uint32_t end1 = Horizon(op1.relation, *s1, &grows1);
  if (grows1 && end1 == 0) return true;
  const RelStore::MaskIndex& index = s1->PrepareProbe(op1.mask);
  const bool bound1 = s1->row_count() > end1;
  const bool d1 = delta_index == 1;

  // Block-at-a-time execution. For each block of scan rows: stage the probe
  // keys row-major (copies, so nothing below can invalidate them), prefetch
  // every key's index bucket, resolve all probes, then materialize the head
  // rows column-wise — splats for op0/constant sources, a gather over the
  // hit span for op1 columns — into deferred emission buffers.
  // Buffers flush through the batched dedup insert at block boundaries.
  // Outcomes are byte-identical to row-at-a-time insertion: attempt order
  // is preserved, and mid-round derivations are invisible to every scan and
  // probe anyway (visibility horizons; probe indexes extend only inside
  // PrepareProbe, never on insert).
  std::vector<std::vector<uint32_t>>& emit = scratch_->emit_cols;
  if (emit.size() < nhead) emit.resize(nhead);
  for (uint32_t i = 0; i < nhead; ++i) emit[i].clear();
  // The emit columns are managed as raw storage plus one shared logical row
  // count `en`: per-row appends are pointer writes (no size bookkeeping, no
  // value-initialized tails), and sizes are committed only before a flush.
  size_t en = 0;
  size_t estore = 0;
  auto ensure = [&](size_t cnt) {
    if (en + cnt <= estore) return;
    estore = std::max(std::max(estore * 2, en + cnt), size_t{1024});
    for (uint32_t i = 0; i < nhead; ++i) emit[i].resize(estore);
  };
  auto flush = [&] {
    if (en == 0) return;
    for (uint32_t i = 0; i < nhead; ++i) emit[i].resize(en);
    const uint32_t* ptrs[32];
    for (uint32_t i = 0; i < nhead; ++i) ptrs[i] = emit[i].data();
    head_store_->InsertBatchCols(ptrs, nhead, en, &counters_->inserted,
                                 &counters_->rejected);
    for (uint32_t i = 0; i < nhead; ++i) emit[i].clear();
    en = estore = 0;
  };

  constexpr uint32_t kBlock = 256;
  constexpr size_t kFlushRows = 4096;
  // Probes run whole-block: stage the keys (single-column frame keys read
  // the scan column in place), prefetch every key's bucket, then resolve.
  // Prefetching only pays when the probed index can actually miss cache;
  // small relations are L1/L2-resident and the pass would be pure overhead.
  const bool single_key = nkey == 1 && key[0].kind == 0;
  const bool prefetch = s1->row_count() > 4096;
  std::vector<uint32_t>& keys = scratch_->block_keys;
  std::vector<const std::vector<uint32_t>*>& hitp = scratch_->block_hits;
  for (uint32_t bs = begin0; bs < stop0; bs += kBlock) {
    const uint32_t bn = std::min(kBlock, stop0 - bs);
    // Column pointers re-fetched per block: the flush below may have grown
    // this very relation when it is also the head.
    const uint32_t* kptr;
    size_t kstride;
    if (single_key) {
      kptr = s0->ColumnData(key[0].idx) + bs;
      kstride = 1;
    } else {
      keys.resize(static_cast<size_t>(bn) * nkey);
      for (uint32_t i = 0; i < nkey; ++i) {
        const Src& k = key[i];
        if (k.kind == 0) {
          const uint32_t* col = s0->ColumnData(k.idx) + bs;
          for (uint32_t b = 0; b < bn; ++b) keys[b * nkey + i] = col[b];
        } else {
          for (uint32_t b = 0; b < bn; ++b) keys[b * nkey + i] = k.idx;
        }
      }
      kptr = keys.data();
      kstride = nkey;
    }
    hitp.resize(bn);
    if (prefetch) {
      for (uint32_t b = 0; b < bn; ++b) {
        s1->PrefetchPrepared(index, kptr + b * kstride);
      }
    }
    for (uint32_t b = 0; b < bn; ++b) {
      hitp[b] = &s1->ProbePrepared(index, kptr + b * kstride);
    }
    counters_->probes += bn;  // one probe per frame (= op0 row)
    for (uint32_t b = 0; b < bn; ++b) {
      const std::vector<uint32_t>& hits = *hitp[b];
      const uint32_t* hb = hits.data();
      const uint32_t* he = hb + hits.size();
      if (bound1) he = std::lower_bound(hb, he, end1);
      if (d1) hb = std::lower_bound(hb, he, delta_lo);
      const size_t cnt = static_cast<size_t>(he - hb);
      counters_->probe_hits += cnt;
      // A failed constant inequality counts the joins but emits nothing.
      if (!emit_ok || cnt == 0) continue;
      counters_->applications += cnt;
      ensure(cnt);
      const uint32_t row = bs + b;
      for (uint32_t i = 0; i < nhead; ++i) {
        uint32_t* dst = emit[i].data() + en;
        const Src& s = head_plan[i];
        if (s.kind == 1) {
          const uint32_t* col = s1->ColumnData(s.idx);
          for (size_t k = 0; k < cnt; ++k) dst[k] = col[hb[k]];
        } else {
          const uint32_t v = s.kind == 0 ? s0->CodeAt(row, s.idx) : s.idx;
          std::fill(dst, dst + cnt, v);
        }
      }
      en += cnt;
    }
    if (en >= kFlushRows) flush();
  }
  flush();
  return true;
}

void BytecodeExecutor::Eval(const RuleBytecode& rule, size_t delta_index,
                            uint32_t delta_lo, uint32_t delta_hi) {
  if (masked_) {
    EvalRule<true>(rule, delta_index, delta_lo, delta_hi);
  } else {
    EvalRule<false>(rule, delta_index, delta_lo, delta_hi);
  }
}

template <bool kMasked>
void BytecodeExecutor::EvalRule(const RuleBytecode& rule, size_t delta_index,
                                uint32_t delta_lo, uint32_t delta_hi) {
  const size_t stride = rule.slot_count + (kMasked ? 2 : 0);
  const uint32_t* ccodes = const_codes_.data();
  // Constant-only inequalities (ready_after == 0): frame-independent, but a
  // failure must not skip the joins — they still run, so the probe counters
  // count the whole join, and each leaf is rejected at emission.
  bool emit_ok = true;
  for (const IneqCheck& iq : rule.const_ineqs) {
    if (ccodes[iq.left.const_id] == ccodes[iq.right.const_id]) {
      emit_ok = false;
    }
  }
  if (scratch_->child.size() < stride) scratch_->child.resize(stride);
  const size_t head_arity = rule.head.size() + (rule.head_invents ? 1 : 0);
  if (scratch_->head.size() < head_arity) scratch_->head.resize(head_arity);
  head_store_ = db_->Store(rule.head_relation);
  if (!rule.negs.empty()) BuildNegPlan(rule);

  std::vector<uint32_t>& cur = scratch_->cur;
  std::vector<uint32_t>& next = scratch_->next;
  cur.clear();
  cur.resize(stride);  // level 0: one frame, all slots free
  size_t frames = 1;
  // Masked: the level-0 frame holds in every world.
  const uint64_t all_worlds = db_->worlds();
  if constexpr (kMasked) {
    cur[stride - 2] = static_cast<uint32_t>(all_worlds);
    cur[stride - 1] = static_cast<uint32_t>(all_worlds >> 32);
  }

  const size_t nops = rule.ops.size();
  if (nops == 0) {
    // Bodyless rule: a single empty match.
    static const JoinOp kNoOp;
    EmitRow<kMasked>(rule, kNoOp, nullptr, 0, cur.data(), stride, emit_ok,
                     all_worlds);
    return;
  }
  // The fused scan→probe→emit loop materializes no frames, so it has no
  // place for world masks.
  if (!kMasked && nops == 2 && rule.fused && rule.ops[0].mask == 0 &&
      rule.ops[0].checks.empty() && rule.ops[0].ineqs.empty() &&
      rule.ops[1].mask != 0 &&
      EvalScanProbeFused(rule, delta_index, delta_lo, delta_hi, emit_ok)) {
    return;
  }

  for (size_t a = 0; a < nops && frames > 0; ++a) {
    const JoinOp& op = rule.ops[a];
    const bool is_delta = a == delta_index;
    const bool last = a + 1 == nops;
    RelStore* store = db_->Store(op.relation);
    if (store == nullptr || store->size() == 0) return;
    bool grows = false;
    const uint32_t end = Horizon(op.relation, *store, &grows);
    // A growing store with nothing visible this round is, for this Eval,
    // the same as a missing store — bail before any probe is counted.
    if (grows && end == 0) return;
    size_t survivors = 0;
    if (!last) next.clear();
    const uint32_t scan_begin = is_delta ? delta_lo : 0;
    const uint32_t scan_end = is_delta ? delta_hi : end;
    const RelStore::MaskIndex* index =
        op.mask != 0 ? &store->PrepareProbe(op.mask) : nullptr;
    const bool bound_hits = store->row_count() > end;
    const bool fused = !kMasked && last && rule.fused;
    const RuleBytecode::FusedSrc* plan = rule.fused_head.data();
    const uint32_t nhead = static_cast<uint32_t>(rule.fused_head.size());
    // One matched row of the last op, straight to the database: the fused
    // plan skips the child frame entirely; the general path goes through
    // EmitRow (residual checks, inequalities, negation, invention).
    auto emit_one = [&](uint32_t row, const uint32_t* parent,
                        uint64_t worlds) {
      if (fused) {
        if (!emit_ok) return;  // constant inequality failed: count, emit not
        uint32_t* head = scratch_->head.data();
        for (uint32_t i = 0; i < nhead; ++i) {
          const RuleBytecode::FusedSrc& s = plan[i];
          head[i] = s.kind == RuleBytecode::FusedSrc::kSlot
                        ? parent[s.idx]
                        : s.kind == RuleBytecode::FusedSrc::kCol
                              ? store->CodeAt(row, s.idx)
                              : ccodes[s.idx];
        }
        ++counters_->applications;
        if (head_store_->InsertCodes(head, nhead)) {
          ++counters_->inserted;
        } else {
          ++counters_->rejected;
        }
      } else {
        EmitRow<kMasked>(rule, op, store, row, parent, stride, emit_ok,
                         worlds);
      }
    };
    // One candidate row for one parent frame: masked frames first AND in
    // the row's mask and drop a frame left with no world.
    uint64_t parent_worlds = 0;
    auto visit_row = [&](uint32_t row, const uint32_t* parent) {
      uint64_t worlds = 0;
      if constexpr (kMasked) {
        worlds = parent_worlds & store->RowMask(row);
        if (worlds == 0) return;
      }
      if (last) {
        emit_one(row, parent, worlds);
      } else {
        survivors += ExpandRow<kMasked>(op, *store, row, parent, stride,
                                        ccodes, next, worlds);
      }
    };
    for (size_t f = 0; f < frames; ++f) {
      // A level past the frame limit ends the rule (and, via exhausted(),
      // the fixpoint); checked per parent, so one parent's matches bound
      // the overshoot.
      if (!last && next.size() > frame_limit_) {
        exhausted_ = true;
        return;
      }
      const uint32_t* parent = cur.data() + f * stride;
      if constexpr (kMasked) parent_worlds = FrameWorlds(parent, stride);
      if (op.mask == 0) {
        for (uint32_t row = scan_begin; row < scan_end; ++row) {
          visit_row(row, parent);
        }
        continue;
      }
      uint32_t codes[32];
      for (size_t i = 0; i < op.key.size(); ++i) {
        const KeySrc& k = op.key[i];
        codes[i] = k.slot >= 0 ? parent[k.slot] : ccodes[k.const_id];
      }
      ++counters_->probes;  // one probe per frame
      const std::vector<uint32_t>& hits = store->ProbePrepared(*index, codes);
      // Hit rows are ascending, so both the visibility horizon and the
      // delta restriction are contiguous slices.
      const uint32_t* hb = hits.data();
      const uint32_t* he = hb + hits.size();
      if (bound_hits) he = std::lower_bound(hb, he, end);
      // A delta ends at the horizon (the clamp above), so only its start
      // needs a cut.
      if (is_delta) hb = std::lower_bound(hb, he, delta_lo);
      counters_->probe_hits += static_cast<uint64_t>(he - hb);
      for (; hb != he; ++hb) visit_row(*hb, parent);
    }
    if (last) return;
    if (next.size() > frame_limit_) {
      exhausted_ = true;
      return;
    }
    cur.swap(next);
    frames = survivors;
  }
}

}  // namespace calm::datalog

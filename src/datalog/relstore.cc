#include "datalog/relstore.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <numeric>

namespace calm::datalog {

using detail::HashCodes;
using detail::Mix64;
using detail::OverLoad;

namespace {

constexpr size_t kInitialTableSize = 16;  // power of two

}  // namespace

// --- ValueDict -------------------------------------------------------------

uint32_t ValueDict::Intern(Value v) {
  if (table_.empty()) table_.assign(kInitialTableSize, 0);
  size_t mask = table_.size() - 1;
  size_t h = Mix64(v.raw()) & mask;
  while (table_[h] != 0) {
    if (values_[table_[h] - 1] == v) return table_[h] - 1;
    h = (h + 1) & mask;
  }
  if (OverLoad(values_.size() + 1, table_.size())) {
    std::vector<uint32_t> bigger(table_.size() * 2, 0);
    size_t bmask = bigger.size() - 1;
    for (uint32_t code = 0; code < values_.size(); ++code) {
      size_t i = Mix64(values_[code].raw()) & bmask;
      while (bigger[i] != 0) i = (i + 1) & bmask;
      bigger[i] = code + 1;
    }
    table_.swap(bigger);
    mask = bmask;
    h = Mix64(v.raw()) & mask;
    while (table_[h] != 0) h = (h + 1) & mask;
  }
  uint32_t code = static_cast<uint32_t>(values_.size());
  values_.push_back(v);
  table_[h] = code + 1;
  return code;
}

uint32_t ValueDict::Find(Value v) const {
  if (table_.empty()) return kNoCode;
  size_t mask = table_.size() - 1;
  size_t h = Mix64(v.raw()) & mask;
  while (table_[h] != 0) {
    if (values_[table_[h] - 1] == v) return table_[h] - 1;
    h = (h + 1) & mask;
  }
  return kNoCode;
}

const std::vector<uint32_t>& ValueDict::Ranks() const {
  if (ranks_upto_ != values_.size()) {
    std::vector<uint32_t> order(values_.size());
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      return values_[a] < values_[b];
    });
    ranks_.resize(values_.size());
    for (uint32_t i = 0; i < order.size(); ++i) ranks_[order[i]] = i;
    ranks_upto_ = values_.size();
  }
  return ranks_;
}

// --- RelStore --------------------------------------------------------------

RelStore::RelStore(const RelStore& o)
    : dict_(o.dict_),
      arity_(o.arity_),
      rows_(o.rows_),
      has_empty_row_(o.has_empty_row_),
      cols_(o.cols_),
      dedup64_(o.dedup64_),
      dedup_(o.dedup_),
      indexes_(o.indexes_),
      overflow_(o.overflow_),
      mask_(o.mask_ != nullptr ? std::make_unique<MaskState>(*o.mask_)
                               : nullptr) {
  // A standalone store keeps its own dictionary; a Database-owned store is
  // re-pointed by Database's copy constructor after this runs.
  if (o.owned_ != nullptr) {
    owned_ = std::make_unique<ValueDict>(*o.owned_);
    dict_ = owned_.get();
  }
}

RelStore& RelStore::operator=(const RelStore& o) {
  if (this == &o) return *this;
  dict_ = o.dict_;
  owned_.reset();
  if (o.owned_ != nullptr) {
    owned_ = std::make_unique<ValueDict>(*o.owned_);
    dict_ = owned_.get();
  }
  arity_ = o.arity_;
  rows_ = o.rows_;
  has_empty_row_ = o.has_empty_row_;
  cols_ = o.cols_;
  dedup64_ = o.dedup64_;
  dedup_ = o.dedup_;
  indexes_ = o.indexes_;
  overflow_ = o.overflow_;
  mask_ = o.mask_ != nullptr ? std::make_unique<MaskState>(*o.mask_) : nullptr;
  return *this;
}

const std::vector<uint32_t>& RelStore::NoMatches() {
  static const std::vector<uint32_t>* kEmpty = new std::vector<uint32_t>();
  return *kEmpty;
}

ValueDict& RelStore::dict() {
  if (dict_ == nullptr) {
    owned_ = std::make_unique<ValueDict>();
    dict_ = owned_.get();
  }
  return *dict_;
}

void RelStore::InitColumns(size_t arity) {
  arity_ = static_cast<int>(arity);
  cols_.assign(arity, Column());
  code_scratch_.assign(arity, 0);
  // Probe indexes name column positions of the old arity; drop them. Only
  // reachable with zero rows, so nothing needs re-indexing.
  indexes_.clear();
  rows_ = 0;
  has_empty_row_ = false;
}

size_t RelStore::RowHash(const uint32_t* codes) const {
  return HashCodes(codes, static_cast<size_t>(arity_));
}

void RelStore::GrowDedupTable() {
  size_t new_size = dedup_.empty() ? kInitialTableSize : dedup_.size() * 2;
  std::vector<uint32_t> bigger(new_size, 0);
  size_t mask = new_size - 1;
  std::vector<uint32_t> codes(arity_);
  for (uint32_t r = 0; r < rows_; ++r) {
    for (int c = 0; c < arity_; ++c) codes[c] = cols_[c].codes[r];
    size_t h = RowHash(codes.data()) & mask;
    while (bigger[h] != 0) h = (h + 1) & mask;
    bigger[h] = r + 1;
  }
  dedup_.swap(bigger);
}

void RelStore::Grow64Table() {
  size_t new_size =
      dedup64_.empty() ? kInitialTableSize : dedup64_.size() * 2;
  std::vector<uint64_t> bigger(new_size, 0);
  size_t mask = new_size - 1;
  for (uint64_t key : dedup64_) {
    if (key == 0) continue;
    size_t h = Mix64(key) & mask;
    while (bigger[h] != 0) h = (h + 1) & mask;
    bigger[h] = key;
  }
  dedup64_.swap(bigger);
}

bool RelStore::InsertCodeRow(const uint32_t* codes) {
  if (arity_ == 0) {
    if (has_empty_row_) return false;
    has_empty_row_ = true;
    rows_ = 1;
    return true;
  }
  if (arity_ <= 2) {
    if (dedup64_.empty()) dedup64_.assign(kInitialTableSize, 0);
    uint64_t key = PackKey(codes, static_cast<uint32_t>(arity_));
    size_t mask = dedup64_.size() - 1;
    size_t h = Mix64(key) & mask;
    while (dedup64_[h] != 0) {
      if (dedup64_[h] == key) return false;
      h = (h + 1) & mask;
    }
    if (OverLoad(rows_ + 1, dedup64_.size())) {
      Grow64Table();
      mask = dedup64_.size() - 1;
      h = Mix64(key) & mask;
      while (dedup64_[h] != 0) h = (h + 1) & mask;
    }
    for (int c = 0; c < arity_; ++c) cols_[c].codes.push_back(codes[c]);
    dedup64_[h] = key;
    ++rows_;
    return true;
  }
  if (dedup_.empty()) dedup_.assign(kInitialTableSize, 0);
  size_t mask = dedup_.size() - 1;
  size_t h = RowHash(codes) & mask;
  while (dedup_[h] != 0) {
    if (RowEquals(dedup_[h] - 1, codes)) return false;
    h = (h + 1) & mask;
  }
  if (OverLoad(rows_ + 1, dedup_.size())) {
    GrowDedupTable();
    mask = dedup_.size() - 1;
    h = RowHash(codes) & mask;
    while (dedup_[h] != 0) h = (h + 1) & mask;
  }
  for (int c = 0; c < arity_; ++c) cols_[c].codes.push_back(codes[c]);
  dedup_[h] = rows_ + 1;
  ++rows_;
  return true;
}

bool RelStore::Insert(const Tuple& t) {
  if (arity_ < 0) {
    InitColumns(t.size());
  } else if (static_cast<int>(t.size()) != arity_) {
    if (size() == 0) {
      // A scratch store reused by a program that declares this relation at
      // a different arity: re-key the columns.
      InitColumns(t.size());
    } else {
      // Arity-mismatched straggler (schema-free Instance round-trip only).
      if (std::find(overflow_.begin(), overflow_.end(), t) != overflow_.end())
        return false;
      overflow_.push_back(t);
      return true;
    }
  }
  ValueDict& d = dict();
  code_scratch_.resize(t.size());
  for (size_t i = 0; i < t.size(); ++i) code_scratch_[i] = d.Intern(t[i]);
  return InsertCodeRow(code_scratch_.data());
}

void RelStore::InsertBatchCols(const uint32_t* const* col_ptrs, uint32_t arity,
                               size_t n, uint64_t* inserted,
                               uint64_t* rejected) {
  size_t i = 0;
  uint32_t buf[16];
  std::vector<uint32_t> wide_buf;
  uint32_t* row = buf;
  if (arity > 16) {
    wide_buf.resize(arity);
    row = wide_buf.data();
  }
  auto insert_one = [&](size_t j) {
    for (uint32_t c = 0; c < arity; ++c) row[c] = col_ptrs[c][j];
    if (InsertCodes(row, arity)) {
      ++*inserted;
    } else {
      ++*rejected;
    }
  };
  // The batched path wants a live packed-key table at a matching arity 1/2;
  // route rows through InsertCodes until its first insert establishes that
  // (and entirely, for arity 0 and wide rows — both off the hot path).
  while (i < n && (static_cast<int>(arity) != arity_ || arity - 1 > 1 ||
                   dedup64_.empty())) {
    insert_one(i++);
  }
  if (i == n) return;
  const size_t m = n - i;
  // Geometric growth (not exact reserve): repeated flushes would otherwise
  // reallocate-and-copy the columns once per batch. The whole batch fits
  // after this, so the loop below writes through raw pointers and commits
  // the final size once.
  for (uint32_t c = 0; c < arity; ++c) {
    std::vector<uint32_t>& codes = cols_[c].codes;
    if (codes.capacity() < rows_ + m) {
      codes.reserve(std::max(codes.capacity() * 2, rows_ + m));
    }
    codes.resize(rows_ + m);
  }

  batch_keys_.resize(m);
  batch_hashes_.resize(m);
  const uint32_t* c0 = col_ptrs[0] + i;
  if (arity == 1) {
    for (size_t j = 0; j < m; ++j) {
      batch_keys_[j] = static_cast<uint64_t>(c0[j]) + 1;
    }
  } else {
    const uint32_t* c1 = col_ptrs[1] + i;
    for (size_t j = 0; j < m; ++j) {
      batch_keys_[j] = ((static_cast<uint64_t>(c1[j]) << 32) | c0[j]) + 1;
    }
  }
  for (size_t j = 0; j < m; ++j) batch_hashes_[j] = Mix64(batch_keys_[j]);

  // Two-phase probe: issue the bucket prefetches kAhead rows in front of
  // the in-order resolution, so the (random-access) dedup lines are already
  // in flight when the linear probe reaches them.
  constexpr size_t kAhead = 16;
  size_t mask = dedup64_.size() - 1;
  for (size_t j = 0; j < m && j < kAhead; ++j) {
    __builtin_prefetch(&dedup64_[batch_hashes_[j] & mask]);
  }
  uint32_t* out0 = cols_[0].codes.data();
  uint32_t* out1 = arity == 2 ? cols_[1].codes.data() : nullptr;
  const uint32_t* c1 = arity == 2 ? col_ptrs[1] + i : nullptr;
  uint32_t r = rows_;
  for (size_t j = 0; j < m; ++j) {
    if (j + kAhead < m) {
      __builtin_prefetch(&dedup64_[batch_hashes_[j + kAhead] & mask]);
    }
    const uint64_t key = batch_keys_[j];
    size_t h = batch_hashes_[j] & mask;
    bool dup = false;
    while (dedup64_[h] != 0) {
      if (dedup64_[h] == key) {
        dup = true;
        break;
      }
      h = (h + 1) & mask;
    }
    if (dup) {
      ++*rejected;
      continue;
    }
    // Grow exactly when the per-row path would (identical table sizes, no
    // duplicate-driven over-provisioning); growth re-buckets, so the slot is
    // re-found and any in-flight prefetches just go stale.
    if (OverLoad(r + 1, dedup64_.size())) {
      Grow64Table();
      mask = dedup64_.size() - 1;
      h = batch_hashes_[j] & mask;
      while (dedup64_[h] != 0) h = (h + 1) & mask;
    }
    out0[r] = c0[j];
    if (out1 != nullptr) out1[r] = c1[j];
    dedup64_[h] = key;
    ++r;
    ++*inserted;
  }
  rows_ = r;
  for (uint32_t c = 0; c < arity; ++c) cols_[c].codes.resize(rows_);
}

bool RelStore::InsertCodesSlow(const uint32_t* codes, uint32_t arity) {
  if (arity_ < 0) {
    InitColumns(arity);
  } else if (static_cast<int>(arity) != arity_) {
    if (size() == 0) {
      InitColumns(arity);
    } else {
      // Never reached from the evaluator (rule heads have fixed arity);
      // decode and take the general path for completeness.
      Tuple t;
      t.reserve(arity);
      for (uint32_t i = 0; i < arity; ++i) {
        t.push_back(dict_->ValueOf(codes[i]));
      }
      return Insert(t);
    }
  }
  return InsertCodeRow(codes);
}

bool RelStore::Contains(const Tuple& t) const {
  if (arity_ < 0) return false;
  if (static_cast<int>(t.size()) != arity_) {
    return std::find(overflow_.begin(), overflow_.end(), t) !=
           overflow_.end();
  }
  if (arity_ == 0) return has_empty_row_;
  if (rows_ == 0) return false;
  // Stack buffer: evaluator relations are small-arity.
  uint32_t codes[16];
  std::vector<uint32_t> big;
  uint32_t* key = codes;
  if (arity_ > 16) {
    big.resize(arity_);
    key = big.data();
  }
  for (int c = 0; c < arity_; ++c) {
    uint32_t code = dict_->Find(t[c]);
    if (code == kNoCode) return false;
    key[c] = code;
  }
  if (arity_ <= 2) {
    if (dedup64_.empty()) return false;
    uint64_t packed = PackKey(key, static_cast<uint32_t>(arity_));
    size_t mask = dedup64_.size() - 1;
    size_t h = Mix64(packed) & mask;
    while (dedup64_[h] != 0) {
      if (dedup64_[h] == packed) return true;
      h = (h + 1) & mask;
    }
    return false;
  }
  if (dedup_.empty()) return false;
  size_t mask = dedup_.size() - 1;
  size_t h = RowHash(key) & mask;
  while (dedup_[h] != 0) {
    if (RowEquals(dedup_[h] - 1, key)) return true;
    h = (h + 1) & mask;
  }
  return false;
}

void RelStore::clear() {
  // Masked mode ends here, ahead of the early return: an empty store may
  // still be switched on.
  if (mask_ != nullptr && mask_->on) {
    mask_->on = false;
    mask_->row.clear();
    mask_->full.clear();
    std::fill(mask_->table.begin(), mask_->table.end(), 0);
    mask_->facts = 0;
  }
  // Scratch databases clear every relation they have ever held before each
  // evaluation; most are already empty.
  if (rows_ == 0 && overflow_.empty() && !has_empty_row_) return;
  rows_ = 0;
  has_empty_row_ = false;
  overflow_.clear();
  // The dictionary persists across clear (scratch reuse re-interns
  // nothing); only the row codes go.
  for (Column& col : cols_) col.codes.clear();
  std::fill(dedup64_.begin(), dedup64_.end(), 0);
  std::fill(dedup_.begin(), dedup_.end(), 0);
  for (MaskIndex& mi : indexes_) {
    mi.upto = 0;
    for (std::vector<uint32_t>& rows : mi.direct) rows.clear();
    std::fill(mi.table.begin(), mi.table.end(), 0);
    mi.key_arena.clear();
    mi.bucket_rows.clear();
  }
}

// --- Masked mode -----------------------------------------------------------

void RelStore::EnableMasks() {
  assert(size() == 0 && "masks are switched on over an empty store");
  if (mask_ == nullptr) mask_ = std::make_unique<MaskState>();
  mask_->on = true;
}

uint32_t RelStore::FindMaskedRow(const uint32_t* codes) const {
  if (arity_ == 0) return has_empty_row_ ? 0 : kNoRow;
  const std::vector<uint32_t>& table = mask_->table;
  if (table.empty()) return kNoRow;
  const size_t tmask = table.size() - 1;
  size_t h = RowHash(codes) & tmask;
  while (table[h] != 0) {
    if (RowEquals(table[h] - 1, codes)) return table[h] - 1;
    h = (h + 1) & tmask;
  }
  return kNoRow;
}

void RelStore::AddMaskedRow(const uint32_t* codes, uint64_t worlds) {
  const uint32_t row = rows_;
  InsertCodeRow(codes);  // new to the lookup table, hence to dedup too
  mask_->row.push_back(worlds);
  mask_->full.push_back(worlds);
  if (arity_ == 0) return;
  std::vector<uint32_t>& table = mask_->table;
  auto place = [&](uint32_t r, const uint32_t* key) {
    const size_t tmask = table.size() - 1;
    size_t h = RowHash(key) & tmask;
    while (table[h] != 0) h = (h + 1) & tmask;
    table[h] = r + 1;
  };
  ++mask_->facts;
  if (!OverLoad(mask_->facts, table.size())) {
    place(row, codes);
    return;
  }
  // Grow and re-place every original row (version rows hold full == 0).
  table.assign(table.empty() ? kInitialTableSize : table.size() * 2, 0);
  std::vector<uint32_t> key(arity_);
  for (uint32_t r = 0; r < rows_; ++r) {
    if (mask_->full[r] == 0) continue;
    for (int c = 0; c < arity_; ++c) key[c] = cols_[c].codes[r];
    place(r, key.data());
  }
}

uint64_t RelStore::FullMask(const uint32_t* codes, uint32_t arity) const {
  if (static_cast<int>(arity) != arity_) return 0;
  const uint32_t row = FindMaskedRow(codes);
  return row == kNoRow ? 0 : mask_->full[row];
}

uint64_t RelStore::FullMask(const Tuple& t) const {
  if (static_cast<int>(t.size()) != arity_) return 0;
  uint32_t codes[16];
  std::vector<uint32_t> big;
  uint32_t* key = codes;
  if (t.size() > 16) {
    big.resize(t.size());
    key = big.data();
  }
  for (size_t c = 0; c < t.size(); ++c) {
    key[c] = dict_->Find(t[c]);
    if (key[c] == kNoCode) return 0;
  }
  return FullMask(key, static_cast<uint32_t>(t.size()));
}

uint64_t RelStore::WorldWeight() const {
  if (!masked()) return 0;
  uint64_t weight = 0;
  for (uint64_t worlds : mask_->full) weight += std::popcount(worlds);
  return weight;
}

bool RelStore::InsertMasked(const uint32_t* codes, uint32_t arity,
                            uint64_t worlds) {
  if (static_cast<int>(arity) != arity_) {
    assert(size() == 0 && "a rule head has one arity");
    InitColumns(arity);
  }
  const uint32_t row = FindMaskedRow(codes);
  if (row == kNoRow) {
    AddMaskedRow(codes, worlds);
    return true;
  }
  const uint64_t gained = worlds & ~mask_->full[row];
  if (gained == 0) return false;
  mask_->full[row] |= gained;
  for (uint32_t c = 0; c < arity; ++c) cols_[c].codes.push_back(codes[c]);
  ++rows_;
  mask_->row.push_back(gained);
  mask_->full.push_back(0);
  return true;
}

void RelStore::SeedMasked(const Tuple& t, uint64_t worlds) {
  if (static_cast<int>(t.size()) != arity_) {
    assert(size() == 0 && "seeded facts are admitted at the schema arity");
    InitColumns(t.size());
  }
  ValueDict& d = dict();
  code_scratch_.resize(t.size());
  for (size_t i = 0; i < t.size(); ++i) code_scratch_[i] = d.Intern(t[i]);
  const uint32_t row = FindMaskedRow(code_scratch_.data());
  if (row == kNoRow) {
    AddMaskedRow(code_scratch_.data(), worlds);
    return;
  }
  // Seeding appends no version rows, so the row's mask is the full set.
  mask_->row[row] |= worlds;
  mask_->full[row] |= worlds;
}

Tuple RelStore::KeyOf(const Tuple& t, uint32_t mask) {
  Tuple key;
  for (size_t i = 0; i < t.size(); ++i) {
    if (mask & (1u << i)) key.push_back(t[i]);
  }
  return key;
}

RelStore::MaskIndex& RelStore::IndexFor(uint32_t mask) {
  for (MaskIndex& mi : indexes_) {
    if (mi.mask == mask) return mi;
  }
  indexes_.push_back(MaskIndex{});
  MaskIndex& index = indexes_.back();
  index.mask = mask;
  for (uint32_t i = 0; i < static_cast<uint32_t>(arity_); ++i) {
    if (mask & (1u << i)) index.cols.push_back(i);
  }
  return index;
}

void RelStore::ExtendIndex(MaskIndex& index) {
  if (index.cols.size() == 1) {
    // Single-column probe: a direct array indexed by code — no hashing on
    // the hottest join paths.
    const std::vector<uint32_t>& codes = cols_[index.cols[0]].codes;
    if (index.direct.size() < dict_->size()) {
      index.direct.resize(dict_->size());
    }
    for (uint32_t r = index.upto; r < rows_; ++r) {
      index.direct[codes[r]].push_back(r);
    }
    index.upto = rows_;
    return;
  }
  const size_t k = index.cols.size();
  uint32_t key[16];
  for (uint32_t r = index.upto; r < rows_; ++r) {
    // Pack the key codes of row r and find-or-add its bucket.
    for (size_t i = 0; i < k; ++i) key[i] = cols_[index.cols[i]].codes[r];
    if (OverLoad(index.bucket_rows.size() + 1, index.table.size())) {
      size_t new_size =
          index.table.empty() ? kInitialTableSize : index.table.size() * 2;
      index.table.assign(new_size, 0);
      size_t tmask = new_size - 1;
      for (uint32_t b = 0; b < index.bucket_rows.size(); ++b) {
        size_t h = HashCodes(&index.key_arena[b * k], k) & tmask;
        while (index.table[h] != 0) h = (h + 1) & tmask;
        index.table[h] = b + 1;
      }
    }
    size_t tmask = index.table.size() - 1;
    size_t h = HashCodes(key, k) & tmask;
    uint32_t bucket = 0;
    while (true) {
      uint32_t e = index.table[h];
      if (e == 0) {
        bucket = static_cast<uint32_t>(index.bucket_rows.size());
        index.table[h] = bucket + 1;
        index.key_arena.insert(index.key_arena.end(), key, key + k);
        index.bucket_rows.emplace_back();
        break;
      }
      const uint32_t* bkey = &index.key_arena[(e - 1) * k];
      if (std::equal(bkey, bkey + k, key)) {
        bucket = e - 1;
        break;
      }
      h = (h + 1) & tmask;
    }
    index.bucket_rows[bucket].push_back(r);
  }
  index.upto = rows_;
}

const std::vector<uint32_t>& RelStore::Probe(uint32_t mask, const Tuple& key) {
  if (arity_ <= 0 || rows_ == 0) return NoMatches();
  code_scratch_.resize(key.size());
  for (size_t i = 0; i < key.size(); ++i) {
    uint32_t code = dict_->Find(key[i]);
    if (code == kNoCode) return NoMatches();
    code_scratch_[i] = code;
  }
  return ProbeCodes(mask, code_scratch_.data());
}

const std::vector<uint32_t>& RelStore::ProbeCodes(uint32_t mask,
                                                  const uint32_t* codes) {
  if (arity_ <= 0 || rows_ == 0) return NoMatches();
  MaskIndex& index = IndexFor(mask);
  if (index.upto < rows_) ExtendIndex(index);
  return ProbePrepared(index, codes);
}

const RelStore::MaskIndex& RelStore::PrepareProbe(uint32_t mask) {
  MaskIndex& index = IndexFor(mask);
  if (index.upto < rows_) ExtendIndex(index);
  return index;
}

// --- Database --------------------------------------------------------------

Database::Database() : dict_(std::make_shared<ValueDict>()) {}

Database::Database(const Instance& instance) : Database() {
  instance.ForEachFact(
      [&](uint32_t name, const Tuple& t) { Insert(name, t); });
}

Database::Database(const Database& o)
    : dict_(std::make_shared<ValueDict>(*o.dict_)),
      rels_(o.rels_),
      worlds_(o.worlds_),
      last_(o.last_.load(std::memory_order_relaxed)) {
  for (auto& [name, store] : rels_) store.BindDict(dict_.get());
}

Database& Database::operator=(const Database& o) {
  if (this == &o) return *this;
  dict_ = std::make_shared<ValueDict>(*o.dict_);
  rels_ = o.rels_;
  last_.store(o.last_.load(std::memory_order_relaxed),
              std::memory_order_relaxed);
  worlds_ = o.worlds_;
  for (auto& [name, store] : rels_) store.BindDict(dict_.get());
  return *this;
}

Database::Database(Database&& o) noexcept
    : dict_(std::move(o.dict_)),
      rels_(std::move(o.rels_)),
      worlds_(o.worlds_),
      last_(o.last_.load(std::memory_order_relaxed)) {}

Database& Database::operator=(Database&& o) noexcept {
  if (this == &o) return *this;
  dict_ = std::move(o.dict_);
  rels_ = std::move(o.rels_);
  last_.store(o.last_.load(std::memory_order_relaxed),
              std::memory_order_relaxed);
  worlds_ = o.worlds_;
  return *this;
}

Database Database::ShareDict() const {
  Database out;
  out.dict_ = dict_;
  out.rels_ = rels_;  // stores keep pointing at the shared dictionary
  out.worlds_ = worlds_;
  out.last_.store(last_.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
  return out;
}

RelStore* Database::Find(uint32_t rel) const {
  const size_t cached = last_.load(std::memory_order_relaxed);
  if (cached < rels_.size() && rels_[cached].first == rel) {
    return const_cast<RelStore*>(&rels_[cached].second);
  }
  for (size_t i = 0; i < rels_.size(); ++i) {
    if (rels_[i].first == rel) {
      last_.store(i, std::memory_order_relaxed);
      return const_cast<RelStore*>(&rels_[i].second);
    }
  }
  return nullptr;
}

RelStore* Database::FindOrCreate(uint32_t rel) {
  RelStore* store = Find(rel);
  if (store != nullptr) return store;
  rels_.emplace_back(rel, RelStore());
  last_.store(rels_.size() - 1, std::memory_order_relaxed);
  store = &rels_.back().second;
  store->BindDict(dict_.get());
  if (worlds_ != 0) store->EnableMasks();
  return store;
}

bool Database::Insert(uint32_t rel, const Tuple& t) {
  return FindOrCreate(rel)->Insert(t);
}

bool Database::InsertCodes(uint32_t rel, const uint32_t* codes,
                           uint32_t arity) {
  return FindOrCreate(rel)->InsertCodes(codes, arity);
}

size_t Database::size() const {
  size_t n = 0;
  for (const auto& [name, store] : rels_) n += store.size();
  return n;
}

void Database::EnsureStores(const std::vector<uint32_t>& rels) {
  for (uint32_t rel : rels) (void)FindOrCreate(rel);
}

bool Database::Contains(uint32_t rel, const Tuple& t) const {
  const RelStore* store = Find(rel);
  return store != nullptr && store->Contains(t);
}

std::optional<Fact> Database::FirstAbsent(const std::vector<Fact>& facts) const {
  for (const Fact& f : facts) {
    if (!Contains(f.relation, f.args)) return f;
  }
  return std::nullopt;
}

RelStore* Database::Store(uint32_t rel) { return Find(rel); }

void Database::Reset() {
  worlds_ = 0;
  for (auto& [name, store] : rels_) store.clear();
}

void Database::EnableMasks(uint64_t worlds) {
  assert(worlds != 0 && size() == 0);
  worlds_ = worlds;
  for (auto& [name, store] : rels_) store.EnableMasks();
}

uint64_t Database::FullMask(uint32_t rel, const Tuple& t) const {
  const RelStore* store = Find(rel);
  return store == nullptr ? 0 : store->FullMask(t);
}

uint64_t Database::WorldWeight() const {
  uint64_t weight = 0;
  for (const auto& [name, store] : rels_) weight += store.WorldWeight();
  return weight;
}

Instance Database::ToInstance(const Schema* restrict_to) const {
  Instance out;
  std::vector<Tuple> rows;
  std::vector<std::pair<uint64_t, uint32_t>> keyed;
  std::vector<uint32_t> order;
  std::vector<uint32_t> slots;
  for (const auto& [name, store] : rels_) {
    if (store.size() == 0) continue;
    uint32_t want = 0;
    if (restrict_to != nullptr) {
      want = restrict_to->ArityOf(name);
      if (want == 0) continue;  // relation not in the schema
    }
    const bool cols_admitted =
        restrict_to == nullptr || static_cast<int>(want) == store.arity();
    rows.clear();
    if (store.overflow_count() == 0) {
      if (!cols_admitted) continue;
      const uint32_t n = store.row_count();
      const int a = store.arity();
      rows.reserve(n);
      if (a == 0) {
        rows.emplace_back();
      } else if (a <= 2) {
        // Rows sort by a packed u64 of dictionary ranks: rank order equals
        // Value order per position, so the integer sort yields exactly the
        // lexicographic Tuple order — no Tuple comparisons, no Value loads.
        // Ranks are dense (< dict size) and rows are deduplicated, so when
        // the packed rank space is small the "sort" is direct placement
        // into a rank-indexed table (each key occupied at most once), and
        // emission is a walk of the occupied slots in key order.
        const std::vector<uint32_t>& rank = dict_->Ranks();
        const uint64_t nd = dict_->size();
        const uint64_t buckets = a == 1 ? nd : nd * nd;
        // Materialization is inlined against the raw column pointers (rather
        // than going through MaterializeRow) — this loop is the hottest part
        // of output building and the per-row call shows up at this scale.
        const uint32_t* col0 = store.ColumnData(0);
        const uint32_t* col1 = a == 2 ? store.ColumnData(1) : nullptr;
        auto emit_row = [&](uint32_t r) {
          rows.emplace_back();
          Tuple& t = rows.back();
          t.push_back(dict_->ValueOf(col0[r]));
          if (col1 != nullptr) t.push_back(dict_->ValueOf(col1[r]));
        };
        if (buckets <= 65536) {
          constexpr uint32_t kEmpty = UINT32_MAX;
          slots.assign(buckets, kEmpty);
          for (uint32_t r = 0; r < n; ++r) {
            uint64_t key = a == 1 ? rank[col0[r]]
                                  : rank[col0[r]] * nd + rank[col1[r]];
            slots[key] = r;
          }
          for (uint64_t key = 0; key < buckets; ++key) {
            uint32_t r = slots[key];
            if (r != kEmpty) emit_row(r);
          }
        } else {
          keyed.clear();
          keyed.reserve(n);
          for (uint32_t r = 0; r < n; ++r) {
            uint64_t key = a == 1 ? rank[col0[r]]
                                  : (uint64_t{rank[col0[r]]} << 32) |
                                        rank[col1[r]];
            keyed.emplace_back(key, r);
          }
          std::sort(keyed.begin(), keyed.end());
          for (const auto& [key, r] : keyed) emit_row(r);
        }
      } else {
        const std::vector<uint32_t>& rank = dict_->Ranks();
        order.resize(n);
        std::iota(order.begin(), order.end(), 0u);
        std::sort(order.begin(), order.end(), [&](uint32_t x, uint32_t y) {
          for (int c = 0; c < a; ++c) {
            uint32_t rx = rank[store.CodeAt(x, c)];
            uint32_t ry = rank[store.CodeAt(y, c)];
            if (rx != ry) return rx < ry;
          }
          return false;
        });
        for (uint32_t r : order) {
          rows.emplace_back();
          store.MaterializeRow(r, &rows.back());
        }
      }
      out.InsertSortedUnique(name, std::move(rows));
    } else {
      // Mixed arities (schema-free round-trips only): materialize, filter,
      // and sort by Tuple — same per-fact rule as Instance::Restrict.
      store.ForEachTuple([&](const Tuple& t) {
        if (restrict_to == nullptr || t.size() == want) rows.push_back(t);
      });
      std::sort(rows.begin(), rows.end());
      out.InsertSorted(name, rows);
    }
  }
  return out;
}

}  // namespace calm::datalog

#ifndef CALM_DATALOG_RELSTORE_H_
#define CALM_DATALOG_RELSTORE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "base/fact.h"
#include "base/instance.h"

namespace calm::datalog {

namespace detail {

// True when `used` entries exceed ~0.7 load of `table_size`.
inline bool OverLoad(size_t used, size_t table_size) {
  return used * 10 > table_size * 7;
}

// splitmix64 finalizer: raw Values and dense codes are near-sequential, so
// identity hashing would cluster badly under linear probing.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

inline uint64_t HashCodes(const uint32_t* codes, size_t n) {
  uint64_t h = 0x9e3779b97f4a7c15ULL ^ n;
  for (size_t i = 0; i < n; ++i) h = Mix64(h ^ codes[i]);
  return h;
}

}  // namespace detail

// Database-wide value dictionary: every value that enters any store of one
// Database is interned here exactly once, to a dense u32 code. Sharing one
// code space across all columns is what lets the bytecode engine run joins
// entirely in code space — a frame slot's code can key any column's probe
// index and compare against any other slot without touching a Value.
//
// The dictionary only ever grows (codes are stable for the lifetime of the
// Database; Reset keeps it), so scratch databases reused across millions of
// checker evaluations re-intern nothing they have seen before.
class ValueDict {
 public:
  static constexpr uint32_t kNoCode = UINT32_MAX;

  // The code of `v`, interning it if new.
  uint32_t Intern(Value v);
  // The code of `v`, or kNoCode when it was never interned.
  uint32_t Find(Value v) const;

  Value ValueOf(uint32_t code) const { return values_[code]; }
  size_t size() const { return values_.size(); }

  // rank[code] positions each code in Value-sorted order: rank[a] < rank[b]
  // iff ValueOf(a) < ValueOf(b). Cached; rebuilt only after the dictionary
  // grew. This is what lets ToInstance sort rows by integer rank keys
  // instead of comparing Tuples.
  const std::vector<uint32_t>& Ranks() const;

 private:
  std::vector<Value> values_;   // code -> value
  // Open-addressing table: entries are code+1, 0 = empty. Power-of-two
  // size, linear probing, grown at ~0.7 load.
  std::vector<uint32_t> table_;
  mutable std::vector<uint32_t> ranks_;
  mutable size_t ranks_upto_ = 0;  // values_.size() the cache was built at
};

// Evaluation-time storage for one relation, column-major (SoA): one
// dictionary-interned code column per attribute, all columns sharing the
// owning Database's ValueDict. Each column is a flat vector of codes in
// insertion order, which the fixpoint driver relies on for deterministic
// matching. Row identity (the probe currency of the executor) is the
// insertion index.
//
// Deduplication runs over code rows in a flat open-addressing table, and
// probe indexes are keyed on bound-position masks — a single-column mask
// resolves through a direct array indexed by code (no hashing at all on the
// hottest join probes), while multi-column masks hash the packed code key.
// The dictionary and index shells survive clear(), so scratch reuse across
// fixpoint rounds and evaluations re-interns nothing.
//
// A store's arity is fixed by its first insert. Tuples of a different arity
// (possible only through schema-free Instance round-trips, never through the
// evaluator, which seeds through SchemaAdmits) are kept in a small row-major
// overflow side table: they participate in Contains/size/ForEachTuple but
// are not probe-indexed.
//
// A store inside a Database shares the Database's dictionary (BindDict); a
// standalone store (unit tests) lazily owns a private one.
class RelStore {
 public:
  static constexpr uint32_t kNoCode = ValueDict::kNoCode;

  RelStore() = default;
  RelStore(const RelStore& o);
  RelStore& operator=(const RelStore& o);
  RelStore(RelStore&&) = default;
  RelStore& operator=(RelStore&&) = default;

  // Points this store at a shared dictionary. Only valid while the store is
  // empty (Database binds at store creation) or when `dict` holds the exact
  // code assignments the rows were built with (Database's copy constructor
  // re-points stores at the copied dictionary).
  void BindDict(ValueDict* dict) { dict_ = dict; }

  // Inserts `t` if new; returns whether it was inserted.
  bool Insert(const Tuple& t);

  // Inserts a row given directly as dictionary codes (the bytecode engine's
  // emission path — no Value is touched). `codes` length is `arity`. The
  // fast paths — matching arity, live dedup table, no growth needed — are
  // inline; everything else (first insert, arity mismatch, table growth)
  // takes the out-of-line slow path. Arity 1 and 2 dedup against a packed
  // u64 key set (one cache access per attempt, no row compare); wider rows
  // hash into a row-indexed table compared column-wise.
  bool InsertCodes(const uint32_t* codes, uint32_t arity) {
    if (static_cast<int>(arity) == arity_) {
      if (arity - 1 <= 1 && !dedup64_.empty()) {  // arity 1 or 2
        uint64_t key = PackKey(codes, arity);
        size_t mask = dedup64_.size() - 1;
        size_t h = detail::Mix64(key) & mask;
        while (dedup64_[h] != 0) {
          if (dedup64_[h] == key) return false;
          h = (h + 1) & mask;
        }
        if (!detail::OverLoad(rows_ + 1, dedup64_.size())) {
          cols_[0].codes.push_back(codes[0]);
          if (arity == 2) cols_[1].codes.push_back(codes[1]);
          dedup64_[h] = key;
          ++rows_;
          return true;
        }
      } else if (arity > 2 && !dedup_.empty()) {
        size_t mask = dedup_.size() - 1;
        size_t h = detail::HashCodes(codes, arity) & mask;
        while (dedup_[h] != 0) {
          if (RowEquals(dedup_[h] - 1, codes)) return false;
          h = (h + 1) & mask;
        }
        if (!detail::OverLoad(rows_ + 1, dedup_.size())) {
          for (uint32_t c = 0; c < arity; ++c) {
            cols_[c].codes.push_back(codes[c]);
          }
          dedup_[h] = rows_ + 1;
          ++rows_;
          return true;
        }
      }
    }
    return InsertCodesSlow(codes, arity);
  }

  // Batched code-row insertion, columns given separately (SoA): row j is
  // (col_ptrs[0][j], .., col_ptrs[arity-1][j]). Semantically identical to
  // calling InsertCodes row by row in order — same dedup outcomes, same
  // insertion order — but arity-1/2 batches hash all keys up front
  // (detail::Mix64), prefetch the dedup buckets ahead of resolution, and
  // pre-grow the table once so no rehash lands mid-batch. The bytecode
  // engine's deferred-emission flush lives here. Attempt outcomes
  // accumulate into `*inserted` / `*rejected`.
  void InsertBatchCols(const uint32_t* const* col_ptrs, uint32_t arity,
                       size_t n, uint64_t* inserted, uint64_t* rejected);

  bool Contains(const Tuple& t) const;

  // Code-space membership test: `codes` are this store's dictionary codes.
  // Only meaningful when the columnar arity equals `arity` (>= 1) and there
  // are no overflow rows — the negation anti-probe checks those conditions
  // once per rule evaluation and falls back to the Value-space Contains
  // otherwise.
  bool ContainsCodes(const uint32_t* codes, uint32_t arity) const {
    if (arity <= 2) {
      if (dedup64_.empty()) return false;
      const uint64_t key = PackKey(codes, arity);
      const size_t mask = dedup64_.size() - 1;
      size_t h = detail::Mix64(key) & mask;
      while (dedup64_[h] != 0) {
        if (dedup64_[h] == key) return true;
        h = (h + 1) & mask;
      }
      return false;
    }
    if (dedup_.empty()) return false;
    const size_t mask = dedup_.size() - 1;
    size_t h = detail::HashCodes(codes, arity) & mask;
    while (dedup_[h] != 0) {
      if (RowEquals(dedup_[h] - 1, codes)) return true;
      h = (h + 1) & mask;
    }
    return false;
  }

  // Prefetch hint for the dedup bucket ContainsCodes(codes, arity) would
  // probe — issue it a few rows ahead of the anti-probe itself.
  void PrefetchContains(const uint32_t* codes, uint32_t arity) const {
    if (arity <= 2) {
      if (!dedup64_.empty()) {
        __builtin_prefetch(
            &dedup64_[detail::Mix64(PackKey(codes, arity)) &
                      (dedup64_.size() - 1)]);
      }
    } else if (!dedup_.empty()) {
      __builtin_prefetch(
          &dedup_[detail::HashCodes(codes, arity) & (dedup_.size() - 1)]);
    }
  }

  // Number of distinct tuples (main columns + overflow).
  size_t size() const { return rows_ + overflow_.size(); }
  // Columnar rows only (excludes overflow).
  uint32_t row_count() const { return rows_; }
  size_t overflow_count() const { return overflow_.size(); }

  // Arity of the columnar rows; -1 until the first insert.
  int arity() const { return arity_; }

  // Distinct values interned in the dictionary this store writes through
  // (the Database-wide dictionary when bound).
  size_t DictSize() const { return dict_ == nullptr ? 0 : dict_->size(); }

  // Drops all rows but keeps the dictionary, the dedup table, and the probe
  // index shells allocated (delta/scratch reuse across fixpoint rounds and
  // evaluations).
  void clear();

  // Returns indices of rows whose positions in `mask` equal `key` (the
  // values of the masked positions in ascending position order). The index
  // for `mask` is built on first probe and extended incrementally over rows
  // inserted since. Row indices come back in ascending (insertion) order.
  const std::vector<uint32_t>& Probe(uint32_t mask, const Tuple& key);

  // As Probe, with the key already as dictionary codes (ascending
  // masked-column order). The bytecode executor's form.
  const std::vector<uint32_t>& ProbeCodes(uint32_t mask,
                                          const uint32_t* codes);

  // One probe index, exposed as an opaque handle for the prepared-probe
  // path. Single-column masks use `direct` (code -> rows); multi-column
  // masks use the packed-key hash table.
  struct MaskIndex {
    uint32_t mask = 0;
    uint32_t upto = 0;  // rows [0, upto) are indexed
    std::vector<uint32_t> cols;
    std::vector<std::vector<uint32_t>> direct;
    std::vector<uint32_t> table;  // bucket-index+1, 0 = empty
    std::vector<uint32_t> key_arena;  // cols.size() codes per bucket
    std::vector<std::vector<uint32_t>> bucket_rows;
  };

  // Splits ProbeCodes for per-op amortization: PrepareProbe resolves and
  // extends the index once, ProbePrepared then runs one lookup per frame.
  // The handle stays valid until the next insert-triggered reallocation of
  // `indexes_` is impossible — callers must not hold it across PrepareProbe
  // calls for a different mask on the same store.
  const MaskIndex& PrepareProbe(uint32_t mask);
  const std::vector<uint32_t>& ProbePrepared(const MaskIndex& index,
                                             const uint32_t* codes) const {
    const size_t k = index.cols.size();
    if (k == 1) {
      if (codes[0] >= index.direct.size()) return NoMatches();
      return index.direct[codes[0]];
    }
    if (index.table.empty()) return NoMatches();
    size_t tmask = index.table.size() - 1;
    size_t h = detail::HashCodes(codes, k) & tmask;
    while (true) {
      uint32_t e = index.table[h];
      if (e == 0) return NoMatches();
      const uint32_t* bkey = &index.key_arena[(e - 1) * k];
      if (std::equal(bkey, bkey + k, codes)) return index.bucket_rows[e - 1];
      h = (h + 1) & tmask;
    }
  }

  // Prefetch hint for the cache line ProbePrepared(index, codes) reads
  // first — callers batching N probe keys issue these ahead, then resolve.
  void PrefetchPrepared(const MaskIndex& index, const uint32_t* codes) const {
    if (index.cols.size() == 1) {
      if (codes[0] < index.direct.size()) {
        __builtin_prefetch(index.direct.data() + codes[0]);
      }
      return;
    }
    if (index.table.empty()) return;
    __builtin_prefetch(
        index.table.data() +
        (detail::HashCodes(codes, index.cols.size()) &
         (index.table.size() - 1)));
  }

  static Tuple KeyOf(const Tuple& t, uint32_t mask);

  // --- world masks (batched union checks) ---
  //
  // A masked store evaluates up to 64 instances ("worlds") at once: every
  // row carries the set of worlds it adds, and each fact keeps its full
  // world set. When an emitted fact gains worlds, a version row is appended
  // with the same codes and only the gained bits, bypassing dedup — rows
  // stay append-only, so row-range deltas and visibility horizons treat a
  // gained world as one more delta row. A fact's rows OR to its full set.
  // Unmasked stores allocate none of this; clear() switches masks off.

  // Switches an empty store to masked mode.
  void EnableMasks();
  bool masked() const { return mask_ != nullptr && mask_->on; }

  // The worlds row `row` adds (masked stores only).
  uint64_t RowMask(uint32_t row) const { return mask_->row[row]; }

  // The fact's full world set — the union of its rows' masks — or 0 when
  // the fact is absent (masked stores only).
  uint64_t FullMask(const uint32_t* codes, uint32_t arity) const;
  uint64_t FullMask(const Tuple& t) const;

  // The summed sizes of the facts' world sets: over every world k, the
  // number of facts holding in k (0 when unmasked).
  uint64_t WorldWeight() const;

  // Emission into a masked store: adds `worlds` to the fact's world set.
  // A new fact gets a row, a known fact that gains worlds gets a version
  // row holding only the gained ones. Returns whether any world was gained.
  bool InsertMasked(const uint32_t* codes, uint32_t arity, uint64_t worlds);

  // Seeding a masked store: ORs `worlds` into the fact's one row (a new
  // fact gets it), never appending a version row.
  void SeedMasked(const Tuple& t, uint64_t worlds);

  // --- columnar row access (the executor's inner loops) ---

  // Value at (row, col); row must be < row_count().
  Value At(uint32_t row, uint32_t col) const {
    return dict_->ValueOf(cols_[col].codes[row]);
  }
  uint32_t CodeAt(uint32_t row, uint32_t col) const {
    return cols_[col].codes[row];
  }

  // Raw base pointer of one code column (the batch kernels' form of CodeAt).
  // Invalidated by any insert into this store — callers re-fetch after every
  // batch flush that might target it.
  const uint32_t* ColumnData(uint32_t col) const {
    return cols_[col].codes.data();
  }

  // Materializes columnar row `row` into `out` (cleared first).
  void MaterializeRow(uint32_t row, Tuple* out) const {
    out->clear();
    out->reserve(cols_.size());
    for (const Column& col : cols_) {
      out->push_back(dict_->ValueOf(col.codes[row]));
    }
  }

  // Invokes fn(const Tuple&) for every stored tuple: columnar rows in
  // insertion order, then overflow rows.
  template <typename Fn>
  void ForEachTuple(Fn&& fn) const {
    Tuple scratch;
    for (uint32_t r = 0; r < rows_; ++r) {
      MaterializeRow(r, &scratch);
      fn(scratch);
    }
    for (const Tuple& t : overflow_) fn(t);
  }

 private:
  struct Column {
    std::vector<uint32_t> codes;  // row -> code (shared dictionary)
  };

  static const std::vector<uint32_t>& NoMatches();

  // Arity-1/2 dedup key. +1 keeps 0 free as the empty-slot sentinel; codes
  // are dense dictionary indexes, so UINT32_MAX (kNoCode) is never stored
  // and the increment cannot wrap.
  static uint64_t PackKey(const uint32_t* codes, uint32_t arity) {
    uint64_t k = arity == 2
                     ? (static_cast<uint64_t>(codes[1]) << 32) | codes[0]
                     : codes[0];
    return k + 1;
  }

  ValueDict& dict();
  void InitColumns(size_t arity);
  void GrowDedupTable();
  void Grow64Table();
  size_t RowHash(const uint32_t* codes) const;
  bool RowEquals(uint32_t row, const uint32_t* codes) const {
    for (int c = 0; c < arity_; ++c) {
      if (cols_[c].codes[row] != codes[c]) return false;
    }
    return true;
  }
  bool InsertCodeRow(const uint32_t* codes);
  bool InsertCodesSlow(const uint32_t* codes, uint32_t arity);
  MaskIndex& IndexFor(uint32_t mask);
  void ExtendIndex(MaskIndex& index);

  ValueDict* dict_ = nullptr;          // shared (Database) or owned_.get()
  std::unique_ptr<ValueDict> owned_;   // standalone stores only
  int arity_ = -1;
  uint32_t rows_ = 0;
  // Arity-0 stores hold at most one fact (plus its version rows when
  // masked).
  bool has_empty_row_ = false;
  std::vector<Column> cols_;
  // Open-addressing dedup tables, power-of-two size, linear probing, grown
  // at ~0.7 load. Arity 1/2 rows dedup against packed keys (dedup64_,
  // entries are PackKey values, 0 = empty); wider rows against row indexes
  // (dedup_, entries are row+1, 0 = empty) compared column-wise.
  std::vector<uint64_t> dedup64_;
  std::vector<uint32_t> dedup_;
  std::vector<MaskIndex> indexes_;  // few masks per store; linear scan
  std::vector<uint32_t> code_scratch_;
  // InsertBatchCols scratch (packed keys and their hashes), kept allocated
  // across batches. Like every insert, a batch has a single writer and no
  // concurrent reader, so member scratch is safe.
  std::vector<uint64_t> batch_keys_;
  std::vector<uint64_t> batch_hashes_;
  std::vector<Tuple> overflow_;  // arity-mismatched stragglers

  // Masked mode: per-row world masks and a lookup from a fact's codes to
  // its original row (dedup64_ holds packed keys, not rows). Allocated on
  // the first EnableMasks and kept across clear() for reuse.
  struct MaskState {
    bool on = false;
    std::vector<uint64_t> row;   // worlds each row adds
    std::vector<uint64_t> full;  // per original row: the fact's world set
    std::vector<uint32_t> table;  // original row + 1, 0 = empty
    uint32_t facts = 0;           // original rows (table entries)
  };
  static constexpr uint32_t kNoRow = UINT32_MAX;
  // The fact's original row, or kNoRow.
  uint32_t FindMaskedRow(const uint32_t* codes) const;
  void AddMaskedRow(const uint32_t* codes, uint64_t worlds);
  std::unique_ptr<MaskState> mask_;
};

// The per-relation stores of one evaluation, all interning through one
// shared ValueDict. Relations are kept in a small flat vector (programs
// have a handful of relations); lookups linear-scan with a
// most-recently-used cache. Copyable (the copy owns a deep copy of the
// dictionary with identical code assignments); ShareDict copies the rows but
// keeps the dictionary object itself.
class Database {
 public:
  Database();
  explicit Database(const Instance& instance);
  Database(const Database& o);
  Database& operator=(const Database& o);
  Database(Database&& o) noexcept;
  Database& operator=(Database&& o) noexcept;

  // A copy of the rows that interns through this database's dictionary
  // object rather than a copy of it, so a code means the same value in
  // both. The well-founded alternation keeps its seed and every Gamma
  // result this way: each can be another's negation reference, and the
  // bytecode anti-probes stay in code space (they require one dictionary).
  Database ShareDict() const;

  bool Insert(uint32_t rel, const Tuple& t);
  // Code-row insert (bytecode emission path).
  bool InsertCodes(uint32_t rel, const uint32_t* codes, uint32_t arity);
  bool Contains(uint32_t rel, const Tuple& t) const;
  // The first of `facts` not stored here, or nullopt (a union check's probe
  // of Q(I)'s facts against the stores Q(I ∪ J) was evaluated into).
  std::optional<Fact> FirstAbsent(const std::vector<Fact>& facts) const;

  // Pre-creates empty stores for `rels`. The direct-insert evaluator holds
  // RelStore pointers across inserts into the round's head relations; with
  // those stores pre-created, no mid-evaluation insert can reallocate the
  // relation table under them.
  void EnsureStores(const std::vector<uint32_t>& rels);

  // The store for `rel`, or nullptr when no fact of `rel` was inserted.
  RelStore* Store(uint32_t rel);
  const RelStore* Store(uint32_t rel) const { return Find(rel); }
  // The store for `rel`, created empty (and masked, in masked mode) if
  // absent. Creating a store may move the others.
  RelStore* StoreOrCreate(uint32_t rel) { return FindOrCreate(rel); }

  ValueDict& dict() { return *dict_; }
  const ValueDict& dict() const { return *dict_; }

  // Total tuple count, summed over the stores (relations are few; callers
  // check this per fixpoint round, not per insert — inserts that bypass the
  // Database wrapper and go straight to a store stay accounted for).
  size_t size() const;

  // Empties every store but keeps the relation entries, the dictionary, and
  // allocated tables — the scratch-reuse hook for repeated evaluations.
  // Also leaves masked mode: the next run sees plain stores.
  void Reset();

  // --- world masks (RelStore's masked mode, database-wide) ---

  // Switches the (empty, freshly Reset) database to masked mode over the
  // world set `worlds`: every store, including those created later, tags
  // its rows with world masks. Reset switches it back.
  void EnableMasks(uint64_t worlds);
  bool masked() const { return worlds_ != 0; }
  // The world set EnableMasks was given (0 when unmasked): what a rule with
  // an empty body, or a seed fact of the shared instance, holds.
  uint64_t worlds() const { return worlds_; }
  // The world set of fact (rel, t); 0 when absent.
  uint64_t FullMask(uint32_t rel, const Tuple& t) const;
  // RelStore::WorldWeight summed over the stores.
  uint64_t WorldWeight() const;

  // Invokes fn(relation_id, const RelStore&) for every relation entry —
  // including empty stores — in creation order.
  template <typename Fn>
  void ForEachStore(Fn&& fn) const {
    for (const auto& [name, store] : rels_) fn(name, store);
  }

  // Materializes the database as an Instance; with `restrict_to`, only facts
  // admitted by that schema (the Instance::Restrict rule) are emitted, so
  // callers that restrict anyway skip the intermediate full instance.
  // Per-relation rows are sorted by dictionary rank (integer keys, no Tuple
  // comparisons) and moved into the Instance in bulk.
  Instance ToInstance(const Schema* restrict_to = nullptr) const;

 private:
  RelStore* Find(uint32_t rel) const;
  RelStore* FindOrCreate(uint32_t rel);

  std::shared_ptr<ValueDict> dict_;  // heap: address stable across moves
  std::vector<std::pair<uint32_t, RelStore>> rels_;
  uint64_t worlds_ = 0;  // masked mode's world set; 0 = unmasked
  // MRU index into rels_. Atomic (relaxed) so that Find, a const method,
  // stays safe for concurrent readers of one Database; the cache is only a
  // hint, so any interleaving of the relaxed loads/stores stays correct.
  mutable std::atomic<size_t> last_{0};
};

}  // namespace calm::datalog

#endif  // CALM_DATALOG_RELSTORE_H_

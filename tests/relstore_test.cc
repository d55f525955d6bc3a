#include "datalog/relstore.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "base/fact.h"
#include "base/schema.h"

namespace calm::datalog {
namespace {

Value V(uint64_t i) { return Value::FromInt(i); }

TEST(RelStoreTest, InsertDeduplicates) {
  RelStore store;
  EXPECT_TRUE(store.Insert({V(1), V(2)}));
  EXPECT_FALSE(store.Insert({V(1), V(2)}));
  EXPECT_TRUE(store.Insert({V(2), V(1)}));
  EXPECT_EQ(store.size(), 2u);
  EXPECT_TRUE(store.Contains({V(1), V(2)}));
  EXPECT_FALSE(store.Contains({V(3), V(4)}));
}

TEST(RelStoreTest, KeyOfExtractsMaskedPositions) {
  Tuple t{V(10), V(20), V(30)};
  EXPECT_EQ(RelStore::KeyOf(t, 0b001), (Tuple{V(10)}));
  EXPECT_EQ(RelStore::KeyOf(t, 0b100), (Tuple{V(30)}));
  EXPECT_EQ(RelStore::KeyOf(t, 0b101), (Tuple{V(10), V(30)}));
  EXPECT_EQ(RelStore::KeyOf(t, 0b111), t);
}

TEST(RelStoreTest, ProbeSinglePosition) {
  RelStore store;
  store.Insert({V(1), V(2)});
  store.Insert({V(1), V(3)});
  store.Insert({V(2), V(3)});
  // Position 0 bound to 1: rows 0 and 1, in insertion order.
  const std::vector<uint32_t>& rows = store.Probe(0b01, Tuple{V(1)});
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], 0u);
  EXPECT_EQ(rows[1], 1u);
  // Position 1 bound to 3: rows 1 and 2.
  const std::vector<uint32_t>& rows2 = store.Probe(0b10, Tuple{V(3)});
  ASSERT_EQ(rows2.size(), 2u);
  EXPECT_EQ(rows2[0], 1u);
  EXPECT_EQ(rows2[1], 2u);
  EXPECT_TRUE(store.Probe(0b01, Tuple{V(9)}).empty());
}

TEST(RelStoreTest, ProbeAllPositionsActsAsPointLookup) {
  RelStore store;
  store.Insert({V(1), V(2), V(3)});
  store.Insert({V(1), V(2), V(4)});
  const std::vector<uint32_t>& rows =
      store.Probe(0b111, Tuple{V(1), V(2), V(4)});
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], 1u);
}

TEST(RelStoreTest, ProbeDistinguishesRepeatedValues) {
  // The key for mask 0b11 on E(x, x) vs E(x, y) differs even though the
  // evaluator's repeated-variable rules (O(x) :- E(x, x)) probe with the
  // same value twice.
  RelStore store;
  store.Insert({V(1), V(1)});
  store.Insert({V(1), V(2)});
  store.Insert({V(2), V(2)});
  const std::vector<uint32_t>& diag = store.Probe(0b11, Tuple{V(1), V(1)});
  ASSERT_EQ(diag.size(), 1u);
  EXPECT_EQ(diag[0], 0u);
  const std::vector<uint32_t>& off = store.Probe(0b11, Tuple{V(1), V(2)});
  ASSERT_EQ(off.size(), 1u);
  EXPECT_EQ(off[0], 1u);
}

TEST(RelStoreTest, ProbeIndexExtendsIncrementally) {
  RelStore store;
  store.Insert({V(1), V(2)});
  EXPECT_EQ(store.Probe(0b01, Tuple{V(1)}).size(), 1u);
  // Inserting after the first probe must extend the already-built index.
  store.Insert({V(1), V(3)});
  store.Insert({V(4), V(5)});
  EXPECT_EQ(store.Probe(0b01, Tuple{V(1)}).size(), 2u);
  EXPECT_EQ(store.Probe(0b01, Tuple{V(4)}).size(), 1u);
}

TEST(RelStoreTest, GrowthPastLoadFactorKeepsEverythingFindable) {
  RelStore store;
  constexpr uint64_t kN = 500;  // forces several dedup/index table doublings
  for (uint64_t i = 0; i < kN; ++i) {
    ASSERT_TRUE(store.Insert({V(i), V(i % 7)}));
  }
  EXPECT_EQ(store.size(), kN);
  for (uint64_t i = 0; i < kN; ++i) {
    EXPECT_TRUE(store.Contains({V(i), V(i % 7)}));
    ASSERT_EQ(store.Probe(0b01, Tuple{V(i)}).size(), 1u);
  }
  // Each residue class mod 7 collects ~kN/7 rows under the position-1 index.
  size_t total = 0;
  for (uint64_t r = 0; r < 7; ++r) {
    total += store.Probe(0b10, Tuple{V(r)}).size();
  }
  EXPECT_EQ(total, kN);
}

TEST(RelStoreTest, ClearResetsIndexesForReuse) {
  RelStore store;
  store.Insert({V(1), V(2)});
  store.Insert({V(1), V(3)});
  EXPECT_EQ(store.Probe(0b01, Tuple{V(1)}).size(), 2u);

  // After clear (the scratch-reuse path), stale rows must not resurface.
  store.clear();
  EXPECT_EQ(store.size(), 0u);
  EXPECT_FALSE(store.Contains({V(1), V(2)}));
  EXPECT_TRUE(store.Probe(0b01, Tuple{V(1)}).empty());

  store.Insert({V(1), V(9)});
  const std::vector<uint32_t>& rows = store.Probe(0b01, Tuple{V(1)});
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], 0u);
}

TEST(DatabaseTest, ResetKeepsRelationsButDropsFacts) {
  Database db;
  uint32_t e = InternName("E");
  uint32_t s = InternName("S");
  EXPECT_TRUE(db.Insert(e, {V(1), V(2)}));
  EXPECT_TRUE(db.Insert(s, {V(3)}));
  EXPECT_EQ(db.size(), 2u);

  db.Reset();
  EXPECT_EQ(db.size(), 0u);
  EXPECT_FALSE(db.Contains(e, {V(1), V(2)}));
  EXPECT_TRUE(db.Insert(e, {V(1), V(2)}));
  EXPECT_EQ(db.size(), 1u);
}

TEST(DatabaseTest, ToInstanceRestrictsLikeInstanceRestrict) {
  Database db(Instance{Fact("E", {V(1), V(2)}), Fact("S", {V(3)}),
                       Fact("T", {V(4), V(5)})});
  Schema schema({{"E", 2}, {"S", 1}});

  Instance full = db.ToInstance();
  EXPECT_EQ(full.size(), 3u);
  EXPECT_EQ(db.ToInstance(&schema), full.Restrict(schema));
}

// --- Columnar edge cases --------------------------------------------------

TEST(RelStoreTest, ZeroArityRelationHoldsAtMostOneRow) {
  RelStore store;
  EXPECT_TRUE(store.Insert(Tuple{}));
  EXPECT_FALSE(store.Insert(Tuple{}));
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.arity(), 0);
  EXPECT_TRUE(store.Contains(Tuple{}));

  size_t seen = 0;
  store.ForEachTuple([&](const Tuple& t) {
    ++seen;
    EXPECT_TRUE(t.empty());
  });
  EXPECT_EQ(seen, 1u);

  store.clear();
  EXPECT_EQ(store.size(), 0u);
  EXPECT_FALSE(store.Contains(Tuple{}));
  EXPECT_TRUE(store.Insert(Tuple{}));
  EXPECT_EQ(store.size(), 1u);
}

TEST(RelStoreTest, DictionarySurvivesClearAndKeepsCodesStable) {
  RelStore store;
  store.Insert({V(1), V(2)});
  store.Insert({V(3), V(4)});
  const size_t dict_after_first_fill = store.DictSize();
  EXPECT_EQ(dict_after_first_fill, 4u);

  store.clear();
  EXPECT_EQ(store.size(), 0u);
  // The dictionary keeps its interned values across clear() (scratch reuse
  // re-interns nothing)...
  EXPECT_EQ(store.DictSize(), dict_after_first_fill);

  // ...and re-inserting known values grows nothing, while new values extend
  // the same dictionary.
  store.Insert({V(1), V(2)});
  EXPECT_EQ(store.DictSize(), dict_after_first_fill);
  store.Insert({V(5), V(1)});
  EXPECT_EQ(store.DictSize(), dict_after_first_fill + 1);

  // Row numbering restarted: dedup and probes see only post-clear rows.
  EXPECT_EQ(store.size(), 2u);
  EXPECT_FALSE(store.Contains({V(3), V(4)}));
  const std::vector<uint32_t>& rows = store.Probe(0b01, Tuple{V(1)});
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], 0u);
}

TEST(RelStoreTest, PreparedProbeIndexExtendsAcrossDeltaMerges) {
  // Semi-naive shape: an index prepared at round start must not see rows a
  // later merge appended (the executor's visibility horizon relies on a
  // frozen `upto`), and the next PrepareProbe must fold the delta in.
  RelStore store;
  store.Insert({V(1), V(10)});
  store.Insert({V(2), V(20)});
  store.Insert({V(1), V(30)});

  const RelStore::MaskIndex& index = store.PrepareProbe(0b01);
  uint32_t key[] = {0};  // codes are dense: V(1) interned first -> code 0
  ASSERT_EQ(store.CodeAt(0, 0), key[0]);
  {
    const std::vector<uint32_t>& hits = store.ProbePrepared(index, key);
    ASSERT_EQ(hits.size(), 2u);
    EXPECT_EQ(hits[0], 0u);
    EXPECT_EQ(hits[1], 2u);
  }

  // Delta merge: new matching rows appended after the prepare are invisible
  // through the already-prepared handle...
  store.Insert({V(1), V(40)});
  {
    const std::vector<uint32_t>& hits = store.ProbePrepared(index, key);
    EXPECT_EQ(hits.size(), 2u);
  }

  // ...and visible, in ascending row order, after the next PrepareProbe.
  const RelStore::MaskIndex& extended = store.PrepareProbe(0b01);
  {
    const std::vector<uint32_t>& hits = store.ProbePrepared(extended, key);
    ASSERT_EQ(hits.size(), 3u);
    EXPECT_EQ(hits[2], 3u);
  }

  // A second mask on the same store indexes independently and folds in all
  // rows present at its first prepare.
  const RelStore::MaskIndex& by_second = store.PrepareProbe(0b10);
  uint32_t key40[] = {store.CodeAt(3, 1)};
  const std::vector<uint32_t>& hits = store.ProbePrepared(by_second, key40);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 3u);
}

TEST(RelStoreTest, WideTuplesRoundTripThroughColumns) {
  // Arity 6 exceeds Tuple's inline capacity, so these rows exercise the
  // spilled (heap-backed) Tuple representation on both insert and
  // materialize.
  RelStore store;
  Tuple wide1{V(1), V(2), V(3), V(4), V(5), V(6)};
  Tuple wide2{V(1), V(2), V(3), V(4), V(5), V(7)};
  EXPECT_TRUE(store.Insert(wide1));
  EXPECT_TRUE(store.Insert(wide2));
  EXPECT_FALSE(store.Insert(wide1));
  EXPECT_EQ(store.arity(), 6);
  EXPECT_TRUE(store.Contains(wide1));
  EXPECT_FALSE(store.Contains({V(9), V(2), V(3), V(4), V(5), V(6)}));

  Tuple out;
  store.MaterializeRow(0, &out);
  EXPECT_EQ(out, wide1);
  store.MaterializeRow(1, &out);
  EXPECT_EQ(out, wide2);

  // Multi-column probes hash the packed key across spilled-width rows.
  const std::vector<uint32_t>& rows =
      store.Probe(0b011111, Tuple{V(1), V(2), V(3), V(4), V(5)});
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], 0u);
  EXPECT_EQ(rows[1], 1u);

  const std::vector<uint32_t>& last =
      store.Probe(0b100000, Tuple{V(7)});
  ASSERT_EQ(last.size(), 1u);
  EXPECT_EQ(last[0], 1u);
}

TEST(DatabaseTest, WideAndInlineTuplesRoundTripToInstance) {
  Instance in{Fact("W", {V(1), V(2), V(3), V(4), V(5), V(6)}),
              Fact("W", {V(0), V(2), V(3), V(4), V(5), V(6)}),
              Fact("E", {V(1), V(2)})};
  Database db(in);
  EXPECT_EQ(db.ToInstance(), in);
}

TEST(RelStoreTest, MixedArityOverflowKeepsContainsAndSize) {
  // Schema-free round-trips can feed one relation tuples of two arities;
  // the columnar rows keep the first arity and stragglers overflow.
  RelStore store;
  EXPECT_TRUE(store.Insert({V(1), V(2)}));
  EXPECT_TRUE(store.Insert({V(1), V(2), V(3)}));
  EXPECT_FALSE(store.Insert({V(1), V(2), V(3)}));
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.overflow_count(), 1u);
  EXPECT_TRUE(store.Contains({V(1), V(2)}));
  EXPECT_TRUE(store.Contains({V(1), V(2), V(3)}));

  store.clear();
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.overflow_count(), 0u);
  EXPECT_FALSE(store.Contains({V(1), V(2), V(3)}));
}

// --- World masks -----------------------------------------------------------

// Codes of `t` in `db`'s dictionary (every value already interned).
std::vector<uint32_t> CodesOf(const Database& db, const Tuple& t) {
  std::vector<uint32_t> codes;
  for (Value v : t) codes.push_back(db.dict().Find(v));
  return codes;
}

TEST(MaskedStoreTest, GainedWorldsGetVersionRows) {
  Database db;
  const uint32_t e = InternName("E");
  db.EnableMasks(0b111);
  db.StoreOrCreate(e)->SeedMasked({V(1), V(2)}, 0b001);
  RelStore* store = db.Store(e);
  ASSERT_NE(store, nullptr);
  ASSERT_TRUE(store->masked());
  const std::vector<uint32_t> codes = CodesOf(db, {V(1), V(2)});

  EXPECT_FALSE(store->InsertMasked(codes.data(), 2, 0b001));  // nothing new
  EXPECT_TRUE(store->InsertMasked(codes.data(), 2, 0b011));
  EXPECT_EQ(store->row_count(), 2u);
  EXPECT_EQ(store->RowMask(1), 0b010u);  // only the gained world
  EXPECT_EQ(store->CodeAt(1, 0), codes[0]);
  EXPECT_EQ(store->CodeAt(1, 1), codes[1]);
  EXPECT_TRUE(store->InsertMasked(codes.data(), 2, 0b110));
  EXPECT_EQ(store->row_count(), 3u);
  EXPECT_EQ(store->RowMask(2), 0b100u);
  EXPECT_EQ(store->FullMask(codes.data(), 2), 0b111u);
  EXPECT_EQ(db.FullMask(e, {V(1), V(2)}), 0b111u);
  EXPECT_EQ(db.FullMask(e, {V(2), V(1)}), 0u);  // absent fact
  EXPECT_EQ(db.FullMask(e, {V(9), V(9)}), 0u);  // never-interned values
  // Version rows are rows: a probe index sees all three.
  EXPECT_EQ(store->Probe(0b01, Tuple{V(1)}).size(), 3u);
}

TEST(MaskedStoreTest, FullMaskIsTheUnionOfRowMasks) {
  Database db;
  const uint32_t r = InternName("R");
  db.EnableMasks(~uint64_t{0});
  RelStore* store = nullptr;
  // Enough facts and versions to grow the row lookup table several times,
  // at an arity that dedups through packed keys and one that does not.
  for (uint32_t arity : {2u, 3u}) {
    const uint32_t rel = arity == 2 ? r : InternName("R3");
    for (uint64_t w = 0; w < 64; w += 7) {
      for (uint64_t i = 0; i < 40; ++i) {
        Tuple t = {V(i), V(i % 3)};
        if (arity == 3) t.push_back(V(i % 5));
        if (w == 0) {
          db.StoreOrCreate(rel)->SeedMasked(t, uint64_t{1} << (i % 64));
        } else {
          const std::vector<uint32_t> codes = CodesOf(db, t);
          store = db.Store(rel);
          store->InsertMasked(codes.data(), arity, uint64_t{1} << ((i + w) % 64));
        }
      }
    }
    store = db.Store(rel);
    for (uint64_t i = 0; i < 40; ++i) {
      Tuple t = {V(i), V(i % 3)};
      if (arity == 3) t.push_back(V(i % 5));
      const std::vector<uint32_t> codes = CodesOf(db, t);
      uint64_t rows_or = 0;
      for (uint32_t row = 0; row < store->row_count(); ++row) {
        bool same = true;
        for (uint32_t c = 0; c < arity; ++c) {
          same &= store->CodeAt(row, c) == codes[c];
        }
        if (same) rows_or |= store->RowMask(row);
      }
      EXPECT_EQ(store->FullMask(codes.data(), arity), rows_or) << i;
      EXPECT_NE(rows_or, 0u);
      EXPECT_TRUE(store->Contains(t));
    }
  }
}

TEST(MaskedStoreTest, SeedingOrsIntoOneRow) {
  Database db;
  const uint32_t e = InternName("E");
  const uint32_t flag = InternName("Flag");
  db.EnableMasks(0b1111);
  db.StoreOrCreate(e)->SeedMasked({V(1), V(2)}, 0b0001);
  db.StoreOrCreate(e)->SeedMasked({V(1), V(2)}, 0b0100);
  db.StoreOrCreate(e)->SeedMasked({V(3), V(4)}, 0b1111);
  db.StoreOrCreate(flag)->SeedMasked({}, 0b0010);
  db.StoreOrCreate(flag)->SeedMasked({}, 0b1000);
  const RelStore* store = db.Store(e);
  EXPECT_EQ(store->row_count(), 2u);
  EXPECT_EQ(store->RowMask(0), 0b0101u);
  EXPECT_EQ(store->RowMask(1), 0b1111u);
  EXPECT_EQ(db.Store(flag)->row_count(), 1u);
  EXPECT_EQ(db.FullMask(flag, {}), 0b1010u);
  // A nullary fact that gains a world gets a version row too.
  RelStore* nullary = db.Store(flag);
  EXPECT_TRUE(nullary->InsertMasked(nullptr, 0, 0b0011));
  EXPECT_EQ(nullary->row_count(), 2u);
  EXPECT_EQ(nullary->RowMask(1), 0b0001u);
  EXPECT_EQ(db.FullMask(flag, {}), 0b1011u);
}

TEST(MaskedStoreTest, ResetLeavesNoMaskedState) {
  Database db;
  const uint32_t e = InternName("E");
  const uint32_t empty_rel = InternName("Unused");
  db.EnsureStores({empty_rel});
  db.EnableMasks(0b11);
  EXPECT_TRUE(db.masked());
  db.StoreOrCreate(e)->SeedMasked({V(1), V(2)}, 0b01);
  EXPECT_TRUE(db.Store(empty_rel)->masked());  // empty, yet switched on

  db.Reset();
  EXPECT_FALSE(db.masked());
  EXPECT_EQ(db.worlds(), 0u);
  EXPECT_FALSE(db.Store(e)->masked());
  EXPECT_FALSE(db.Store(empty_rel)->masked());
  // Plain inserts and stores created after the reset are unmasked.
  EXPECT_TRUE(db.Insert(e, {V(1), V(2)}));
  EXPECT_FALSE(db.Insert(e, {V(1), V(2)}));
  EXPECT_TRUE(db.Insert(InternName("Later"), {V(5)}));
  EXPECT_FALSE(db.Store(InternName("Later"))->masked());
  EXPECT_EQ(db.size(), 2u);

  // Masks switch back on cleanly after a reset.
  db.Reset();
  db.EnableMasks(0b1);
  db.StoreOrCreate(e)->SeedMasked({V(1), V(2)}, 0b1);
  EXPECT_EQ(db.FullMask(e, {V(1), V(2)}), 0b1u);
  EXPECT_EQ(db.Store(e)->row_count(), 1u);
}

}  // namespace
}  // namespace calm::datalog

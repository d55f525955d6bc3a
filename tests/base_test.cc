#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "base/components.h"
#include "base/enumerator.h"
#include "base/homomorphism.h"
#include "base/instance.h"
#include "base/query.h"
#include "base/schema.h"
#include "base/status.h"
#include "base/value.h"

namespace calm {
namespace {

Value V(uint64_t i) { return Value::FromInt(i); }

TEST(StatusTest, OkAndErrors) {
  Status ok;
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.ToString(), "OK");
  Status err = InvalidArgumentError("bad");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(err.ToString(), "INVALID_ARGUMENT: bad");
}

TEST(ResultTest, ValueAndError) {
  Result<int> good = 42;
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 42);
  Result<int> bad = NotFoundError("nope");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);
}

TEST(ValueTest, KindsAndOrdering) {
  Value i = Value::FromInt(7);
  Value s = Sym("a");
  Value inv = Value::Invented(3);
  EXPECT_TRUE(i.is_int());
  EXPECT_TRUE(s.is_symbol());
  EXPECT_TRUE(inv.is_invented());
  EXPECT_EQ(i.payload(), 7u);
  EXPECT_NE(i, s);
  EXPECT_EQ(Sym("a"), Sym("a"));
  EXPECT_NE(Sym("a"), Sym("b"));
  EXPECT_LT(i, s);    // ints sort before symbols
  EXPECT_LT(s, inv);  // symbols before invented
  EXPECT_EQ(ValueToString(i), "7");
  EXPECT_EQ(ValueToString(s), "a");
  EXPECT_EQ(ValueToString(inv), "&3");
}

TEST(TupleTest, InlineAndSpilledStorage) {
  Tuple small{V(1), V(2), V(3), V(4)};
  EXPECT_TRUE(small.is_inline());
  EXPECT_EQ(small.size(), 4u);

  Tuple big{V(1), V(2), V(3), V(4), V(5)};
  EXPECT_FALSE(big.is_inline());
  ASSERT_EQ(big.size(), 5u);
  for (uint64_t i = 0; i < 5; ++i) EXPECT_EQ(big[i], V(i + 1));

  // Growing past the inline capacity preserves the prefix.
  Tuple grown;
  for (uint64_t i = 0; i < 10; ++i) grown.push_back(V(i));
  EXPECT_FALSE(grown.is_inline());
  for (uint64_t i = 0; i < 10; ++i) EXPECT_EQ(grown[i], V(i));
}

TEST(TupleTest, CopyAndMoveAcrossRepresentations) {
  Tuple inl{V(1), V(2)};
  Tuple spill{V(1), V(2), V(3), V(4), V(5), V(6)};

  Tuple inl_copy = inl;
  Tuple spill_copy = spill;
  EXPECT_EQ(inl_copy, inl);
  EXPECT_EQ(spill_copy, spill);

  Tuple moved = std::move(spill_copy);
  EXPECT_EQ(moved, spill);

  // Assignment across representations in both directions.
  Tuple t = inl;
  t = spill;
  EXPECT_EQ(t, spill);
  t = inl;
  EXPECT_EQ(t, inl);
}

TEST(TupleTest, ComparisonMatchesLexicographicContract) {
  // Same contract as the old std::vector<Value> representation:
  // lexicographic, shorter prefix first, independent of storage mode.
  EXPECT_LT((Tuple{V(1), V(2)}), (Tuple{V(1), V(3)}));
  EXPECT_LT((Tuple{V(1)}), (Tuple{V(1), V(0)}));
  EXPECT_LT((Tuple{V(1), V(2), V(3), V(4)}),
            (Tuple{V(1), V(2), V(3), V(4), V(0)}));
  EXPECT_EQ((Tuple{V(7), V(8), V(9), V(10), V(11)}),
            (Tuple{V(7), V(8), V(9), V(10), V(11)}));
  EXPECT_NE((Tuple{V(1), V(2)}), (Tuple{V(1)}));
}

TEST(TupleTest, HashAgreesAcrossRepresentations) {
  // Equal tuples must hash equal whether built inline or spilled-then-equal
  // (hash depends only on size and values).
  Tuple a{V(1), V(2), V(3)};
  Tuple b;
  b.reserve(8);  // force heap storage despite the small size
  b.push_back(V(1));
  b.push_back(V(2));
  b.push_back(V(3));
  EXPECT_FALSE(b.is_inline());
  EXPECT_EQ(a, b);
  EXPECT_EQ(TupleHash{}(a), TupleHash{}(b));
}

TEST(InstanceTest, InsertSortedMatchesInsert) {
  std::vector<Tuple> tuples{{V(1), V(2)}, {V(1), V(3)}, {V(2), V(2)}};
  Instance bulk;
  bulk.InsertSorted(InternName("E"), tuples);
  Instance one_by_one;
  for (const Tuple& t : tuples) one_by_one.Insert(Fact("E", t));
  EXPECT_EQ(bulk, one_by_one);

  // An empty bulk insert must leave the instance untouched (no phantom
  // empty-relation entry, which would break operator==).
  Instance empty_bulk;
  empty_bulk.InsertSorted(InternName("E"), {});
  EXPECT_EQ(empty_bulk, Instance{});

  Instance facts_bulk;
  facts_bulk.InsertSortedFacts(
      {Fact("E", {V(1), V(2)}), Fact("S", {V(9)})});
  Instance facts_ref{Fact("E", {V(1), V(2)}), Fact("S", {V(9)})};
  EXPECT_EQ(facts_bulk, facts_ref);

  // The merge branch: a run that does not extend past the relation's
  // maximum, interleaving with stored tuples and repeating tuples both
  // inside the run and against the stored ones.
  const uint32_t e = InternName("E");
  Instance merged{Fact("E", {V(1), V(2)}), Fact("E", {V(2), V(2)}),
                  Fact("E", {V(4), V(1)}), Fact("S", {V(5)})};
  Instance reference = merged;
  const std::vector<Tuple> run{{V(0), V(9)}, {V(1), V(2)}, {V(1), V(3)},
                               {V(1), V(3)}, {V(2), V(2)}, {V(3), V(0)},
                               {V(4), V(1)}, {V(4), V(1)}};
  size_t want = 0;
  for (const Tuple& t : run) want += reference.Insert(Fact(e, t)) ? 1 : 0;
  ASSERT_EQ(want, 3u);  // (0,9), (1,3), (3,0)
  EXPECT_EQ(merged.InsertSorted(e, run), 3u);
  EXPECT_EQ(merged, reference);
  EXPECT_EQ(merged.size(), reference.size());

  // A run of stored tuples only (some repeated) adds nothing.
  EXPECT_EQ(merged.InsertSorted(e, {{V(1), V(2)}, {V(1), V(2)}, {V(4), V(1)}}),
            0u);
  EXPECT_EQ(merged, reference);

  // InsertAll takes the same path, including into itself.
  Instance other{Fact("E", {V(2), V(0)}), Fact("E", {V(4), V(1)}),
                 Fact("S", {V(1)}), Fact("S", {V(5)})};
  size_t want_all = 0;
  other.ForEachFact([&](uint32_t name, const Tuple& t) {
    want_all += reference.Insert(Fact(name, t)) ? 1 : 0;
  });
  EXPECT_EQ(merged.InsertAll(other), want_all);
  EXPECT_EQ(merged, reference);
  EXPECT_EQ(merged.InsertAll(merged), 0u);
  EXPECT_EQ(merged, reference);
  EXPECT_EQ(Instance::Union(other, merged), reference);

  // Seeded runs against one-by-one Insert: random stored tuples, random
  // sorted runs with repeats, both InsertSorted forms.
  std::mt19937_64 rng(7);
  auto random_tuple = [&]() {
    return Tuple{V(rng() % 5), V(rng() % 5)};
  };
  for (int trial = 0; trial < 300; ++trial) {
    Instance bulk;
    Instance one_by_one;
    for (size_t i = rng() % 10; i > 0; --i) {
      Tuple t = random_tuple();
      bulk.Insert(Fact(e, t));
      one_by_one.Insert(Fact(e, t));
    }
    std::vector<Tuple> sorted(rng() % 10);
    for (Tuple& t : sorted) t = random_tuple();
    std::sort(sorted.begin(), sorted.end());
    size_t added = 0;
    for (const Tuple& t : sorted) added += one_by_one.Insert(Fact(e, t));
    size_t got = trial % 2 == 0 ? bulk.InsertSorted(e, sorted)
                                : bulk.InsertSorted(e, std::move(sorted));
    EXPECT_EQ(got, added) << "trial " << trial;
    EXPECT_EQ(bulk, one_by_one) << "trial " << trial;
    EXPECT_EQ(bulk.size(), one_by_one.size()) << "trial " << trial;
  }
}

TEST(FactTest, EqualityAndPrinting) {
  Fact f("E", {V(1), V(2)});
  Fact g("E", {V(1), V(2)});
  Fact h("E", {V(2), V(1)});
  EXPECT_EQ(f, g);
  EXPECT_NE(f, h);
  EXPECT_EQ(FactToString(f), "E(1, 2)");
  EXPECT_EQ(FactHash{}(f), FactHash{}(g));
}

TEST(SchemaTest, BasicOperations) {
  Schema s({{"E", 2}, {"S", 1}});
  EXPECT_TRUE(s.ContainsName("E"));
  EXPECT_EQ(s.ArityOf(InternName("E")), 2u);
  EXPECT_TRUE(s.Admits(Fact("E", {V(1), V(2)})));
  EXPECT_FALSE(s.Admits(Fact("E", {V(1)})));
  EXPECT_FALSE(s.Admits(Fact("T", {V(1)})));
  EXPECT_EQ(s.size(), 2u);
}

TEST(SchemaTest, RejectsNullaryAndConflicts) {
  Schema s;
  EXPECT_FALSE(s.AddRelation("N", 0).ok());
  ASSERT_TRUE(s.AddRelation("E", 2).ok());
  EXPECT_TRUE(s.AddRelation("E", 2).ok());   // idempotent
  EXPECT_FALSE(s.AddRelation("E", 3).ok());  // conflicting arity
}

TEST(SchemaTest, UnionAndIncludes) {
  Schema a({{"E", 2}});
  Schema b({{"S", 1}});
  Result<Schema> u = Schema::Union(a, b);
  ASSERT_TRUE(u.ok());
  EXPECT_TRUE(u->Includes(a));
  EXPECT_TRUE(u->Includes(b));
  Schema conflict({{"E", 3}});
  EXPECT_FALSE(Schema::Union(a, conflict).ok());
}

TEST(InstanceTest, InsertContainsErase) {
  Instance i;
  EXPECT_TRUE(i.Insert(Fact("E", {V(1), V(2)})));
  EXPECT_FALSE(i.Insert(Fact("E", {V(1), V(2)})));
  EXPECT_TRUE(i.Contains(Fact("E", {V(1), V(2)})));
  EXPECT_EQ(i.size(), 1u);
  EXPECT_TRUE(i.Erase(Fact("E", {V(1), V(2)})));
  EXPECT_TRUE(i.empty());
}

TEST(InstanceTest, ActiveDomainAndRestrict) {
  Instance i{Fact("E", {V(1), V(2)}), Fact("S", {V(3)})};
  std::set<Value> adom = i.ActiveDomain();
  EXPECT_EQ(adom, (std::set<Value>{V(1), V(2), V(3)}));
  Schema graph({{"E", 2}});
  Instance restricted = i.Restrict(graph);
  EXPECT_EQ(restricted.size(), 1u);
  EXPECT_TRUE(restricted.Contains(Fact("E", {V(1), V(2)})));
}

TEST(InstanceTest, SetOperations) {
  Instance a{Fact("E", {V(1), V(2)})};
  Instance b{Fact("E", {V(2), V(3)})};
  Instance u = Instance::Union(a, b);
  EXPECT_EQ(u.size(), 2u);
  EXPECT_TRUE(a.IsSubsetOf(u));
  EXPECT_FALSE(u.IsSubsetOf(a));
  Instance d = Instance::Difference(u, a);
  EXPECT_EQ(d, b);
}

TEST(InstanceTest, DomainDistinctAndDisjoint) {
  Instance i{Fact("E", {V(1), V(2)})};
  Instance distinct{Fact("E", {V(2), V(9)})};   // has a new value
  Instance disjoint{Fact("E", {V(8), V(9)})};   // only new values
  Instance neither{Fact("E", {V(1), V(2)})};
  EXPECT_TRUE(IsDomainDistinctFrom(distinct, i));
  EXPECT_FALSE(IsDomainDisjointFrom(distinct, i));
  EXPECT_TRUE(IsDomainDistinctFrom(disjoint, i));
  EXPECT_TRUE(IsDomainDisjointFrom(disjoint, i));
  EXPECT_FALSE(IsDomainDistinctFrom(neither, i));
}

TEST(InstanceTest, InducedSubinstance) {
  // Lemma 3.2 hinges on: J induced subinstance of I iff I \ J domain
  // distinct from J.
  Instance i{Fact("E", {V(1), V(2)}), Fact("E", {V(2), V(3)}),
             Fact("E", {V(1), V(1)})};
  Instance induced{Fact("E", {V(1), V(2)}), Fact("E", {V(1), V(1)})};
  // adom(induced) = {1,2}; every fact of i over {1,2} is present.
  EXPECT_TRUE(IsInducedSubinstance(induced, i));
  Instance not_induced{Fact("E", {V(1), V(2)})};  // misses E(1,1)
  EXPECT_FALSE(IsInducedSubinstance(not_induced, i));
  EXPECT_TRUE(IsInducedSubinstance(i, i));
  EXPECT_TRUE(IsInducedSubinstance(Instance{}, i));
}

TEST(ComponentsTest, SplitsByActiveDomain) {
  Instance i{Fact("E", {V(1), V(2)}), Fact("E", {V(2), V(3)}),
             Fact("E", {V(10), V(11)}), Fact("S", {V(11)})};
  std::vector<Instance> comps = Components(i);
  ASSERT_EQ(comps.size(), 2u);
  size_t total = 0;
  for (const Instance& c : comps) total += c.size();
  EXPECT_EQ(total, i.size());
  // Components are pairwise domain disjoint.
  EXPECT_TRUE(IsDomainDisjointFrom(comps[0], comps[1]));
}

TEST(ComponentsTest, SingleComponentAndEmpty) {
  EXPECT_TRUE(Components(Instance{}).empty());
  Instance chain{Fact("E", {V(1), V(2)}), Fact("E", {V(2), V(3)})};
  EXPECT_EQ(Components(chain).size(), 1u);
}

// Every homomorphism of `i` into `j`, as value maps, in enumeration order.
std::vector<std::vector<Value>> AllHomomorphisms(const Instance& i,
                                                 const Instance& j,
                                                 bool injective) {
  const std::vector<Value> adom_i = SortedDomain(i);
  const std::vector<Value> adom_j = SortedDomain(j);
  IndexedFacts facts;
  facts.Assign(i, adom_i);
  HomomorphismEnumerator hom;
  hom.Reset(facts, adom_i.size(), j, adom_j, injective);
  std::vector<std::vector<Value>> out;
  while (hom.Next()) {
    std::vector<Value> h;
    for (uint32_t b : hom.map()) h.push_back(adom_j[b]);
    out.push_back(h);
  }
  return out;
}

TEST(HomomorphismTest, ExistsAndInjective) {
  // Path of length 2 maps homomorphically into a single edge with a loop?
  Instance path{Fact("E", {V(1), V(2)})};
  Instance loop{Fact("E", {V(5), V(5)})};
  EXPECT_FALSE(AllHomomorphisms(path, loop, /*injective=*/false).empty());
  EXPECT_TRUE(AllHomomorphisms(path, loop, /*injective=*/true).empty());
  Instance two{Fact("E", {V(7), V(8)})};
  EXPECT_FALSE(AllHomomorphisms(path, two, /*injective=*/true).empty());
  // No homomorphism from an edge into the empty instance.
  EXPECT_TRUE(AllHomomorphisms(path, Instance{}, false).empty());
}

TEST(HomomorphismTest, CountsAllMappings) {
  Instance edge{Fact("E", {V(1), V(2)})};
  Instance clique2{Fact("E", {V(5), V(6)}), Fact("E", {V(6), V(5)})};
  // 1->5,2->6 and 1->6,2->5, in that order.
  EXPECT_EQ(AllHomomorphisms(edge, clique2, false),
            (std::vector<std::vector<Value>>{{V(5), V(6)}, {V(6), V(5)}}));
}

// Maps come in lexicographic order of (h(a_0), h(a_1), ...) over ascending
// adom(J), injective ones skipping taken targets; a fact is tested once its
// values are assigned, which prunes without dropping or reordering maps.
TEST(HomomorphismTest, EnumeratesInLexicographicOrder) {
  Instance path{Fact("E", {V(1), V(2)}), Fact("S", {V(3)})};
  Instance j{Fact("E", {V(4), V(4)}), Fact("E", {V(4), V(7)}),
             Fact("E", {V(7), V(4)}), Fact("S", {V(4)}), Fact("S", {V(7)})};
  EXPECT_EQ(AllHomomorphisms(path, j, false),
            (std::vector<std::vector<Value>>{{V(4), V(4), V(4)},
                                             {V(4), V(4), V(7)},
                                             {V(4), V(7), V(4)},
                                             {V(4), V(7), V(7)},
                                             {V(7), V(4), V(4)},
                                             {V(7), V(4), V(7)}}));
  // Injective: no value reused, and adom(J) must be large enough.
  EXPECT_TRUE(AllHomomorphisms(path, j, true).empty());
  Instance j3 = j;
  j3.Insert(Fact("S", {V(9)}));
  EXPECT_EQ(AllHomomorphisms(path, j3, true),
            (std::vector<std::vector<Value>>{{V(4), V(7), V(9)},
                                             {V(7), V(4), V(9)}}));
  // The empty instance has one homomorphism, the empty map.
  EXPECT_EQ(AllHomomorphisms(Instance{}, j, true).size(), 1u);
}

// LeastMissingImage reports the least h(f) missing from the target, which
// is the first missing fact of ApplyValueMap(facts, h); values outside
// adom(I) (an output's constants) stay fixed.
TEST(HomomorphismTest, LeastMissingImageMatchesApplyValueMap) {
  Instance i{Fact("E", {V(1), V(2)})};
  Instance j{Fact("E", {V(6), V(5)})};
  Instance out_i{Fact("O", {V(2), V(2)}), Fact("O", {V(1), V(9)}),
                 Fact("O", {V(2), V(1)}), Fact("P", {V(1)})};
  Instance out_j{Fact("O", {V(5), V(5)}), Fact("P", {V(6)})};
  const std::vector<Value> adom_i = SortedDomain(i);
  const std::vector<Value> adom_j = SortedDomain(j);
  IndexedFacts facts, out_facts;
  facts.Assign(i, adom_i);
  out_facts.Assign(out_i, adom_i);
  HomomorphismEnumerator hom;
  hom.Reset(facts, adom_i.size(), j, adom_j, true);
  ASSERT_TRUE(hom.Next());
  // h = {1 -> 6, 2 -> 5}: h(O(1, 9)) = O(6, 9) and h(O(2, 1)) = O(5, 6)
  // are missing, and O(5, 6) is the lesser.
  std::map<Value, Value> h{{V(1), V(6)}, {V(2), V(5)}};
  std::optional<Fact> want;
  ApplyValueMap(out_i, h).ForEachFact([&](uint32_t rel, const Tuple& t) {
    if (!want.has_value() && !out_j.Contains(Fact(rel, t))) want = Fact(rel, t);
  });
  ASSERT_TRUE(want.has_value());
  EXPECT_EQ(hom.LeastMissingImage(out_facts, out_j), want);
  EXPECT_EQ(FactToString(*want), "O(5, 6)");
  EXPECT_FALSE(hom.Next());
}

TEST(EnumeratorTest, AllFactsOverSchema) {
  Schema s({{"E", 2}, {"S", 1}});
  std::vector<Fact> facts = AllFactsOver(s, IntDomain(2));
  EXPECT_EQ(facts.size(), 4u + 2u);  // 2^2 + 2
}

TEST(EnumeratorTest, ForEachInstanceCounts) {
  Schema s({{"S", 1}});
  int count = 0;
  ForEachInstance(s, IntDomain(3), 3, [&](const Instance&) {
    ++count;
    return true;
  });
  EXPECT_EQ(count, 8);  // all subsets of 3 possible facts
}

TEST(EnumeratorTest, StopsEarly) {
  Schema s({{"S", 1}});
  int count = 0;
  bool finished = ForEachInstance(s, IntDomain(3), 3, [&](const Instance&) {
    ++count;
    return count < 3;
  });
  EXPECT_FALSE(finished);
  EXPECT_EQ(count, 3);
}

TEST(QueryTest, NativeQueryAndGenericity) {
  Schema graph({{"E", 2}});
  // The identity query on E.
  NativeQuery identity("id", graph, graph, [](const Instance& in) {
    return Result<Instance>(in);
  });
  Instance i{Fact("E", {V(1), V(2)})};
  Result<Instance> out = identity.Eval(i);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value(), i);
  std::map<Value, Value> swap{{V(1), V(2)}, {V(2), V(1)}};
  EXPECT_TRUE(CheckGenericity(identity, i, swap).ok());
}

TEST(QueryTest, GenericityViolationDetected) {
  Schema graph({{"E", 2}});
  // A non-generic query: outputs only edges whose source is the value 1.
  NativeQuery bad("bad", graph, graph, [](const Instance& in) {
    Instance out;
    for (const Tuple& t : in.TuplesOf(InternName("E"))) {
      if (t[0] == Value::FromInt(1)) out.Insert(Fact("E", t));
    }
    return Result<Instance>(out);
  });
  Instance i{Fact("E", {V(1), V(2)})};
  std::map<Value, Value> swap{{V(1), V(2)}, {V(2), V(1)}};
  EXPECT_FALSE(CheckGenericity(bad, i, swap).ok());
}

}  // namespace
}  // namespace calm

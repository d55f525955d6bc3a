// The genericity-aware symmetry reduction (base/canonical.h,
// base/enumerator.h) and its wiring into the exhaustive checkers. The
// load-bearing contracts:
//   * InstanceAutomorphisms is exactly a brute-force Aut(I),
//   * orbit representatives and orbit sizes match a grouping of the full
//     instance stream by a brute-force isomorphism key,
//   * reduced sweeps return byte-identical verdicts AND counterexamples to
//     the full sweeps on every Figure 1/2 query at the seed bounds,
//   * a non-generic query is caught by the probe and falls back to the full
//     sweep (with the violation the reduction would have missed still found).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "base/canonical.h"
#include "base/enumerator.h"
#include "base/instance.h"
#include "base/query.h"
#include "datalog/program.h"
#include "monotonicity/checker.h"
#include "monotonicity/ladder.h"
#include "monotonicity/preservation.h"
#include "queries/graph_queries.h"
#include "queries/paper_programs.h"
#include "workload/fuzzer.h"
#include "workload/instance_gen.h"

namespace calm {
namespace {

using monotonicity::ComputeLadder;
using monotonicity::Counterexample;
using monotonicity::ExhaustiveOptions;
using monotonicity::FindPreservationViolation;
using monotonicity::FindViolation;
using monotonicity::Ladder;
using monotonicity::MonotonicityClass;
using monotonicity::MonotonicityClassName;
using monotonicity::PreservationClass;
using monotonicity::PreservationOptions;
using monotonicity::PreservationViolation;

Value V(uint64_t i) { return Value::FromInt(i); }

// ---------------------------------------------------------------------------
// Brute-force isomorphism and automorphisms
// ---------------------------------------------------------------------------

// The brute-force isomorphism key: the least sorted fact list over every
// bijection of adom(I) onto {0..k-1}. Two instances share a key iff some
// value bijection maps one onto the other. k! relabelings, so only for the
// tiny adoms below.
std::vector<Fact> IsoKey(const Instance& i) {
  std::set<Value> adom = i.ActiveDomain();
  std::vector<Value> vals(adom.begin(), adom.end());
  std::vector<uint64_t> labels(vals.size());
  for (size_t v = 0; v < labels.size(); ++v) labels[v] = v;
  std::vector<Fact> best;
  bool first = true;
  do {
    std::map<Value, Value> relabel;
    for (size_t v = 0; v < vals.size(); ++v) relabel[vals[v]] = V(labels[v]);
    std::vector<Fact> facts = ApplyValueMap(i, relabel).AllFacts();
    if (first || facts < best) best = std::move(facts);
    first = false;
  } while (std::next_permutation(labels.begin(), labels.end()));
  return best;
}

// Aut(I) by brute force: every permutation of adom(I) that maps I onto
// itself, in lexicographic order of the image sequence.
std::vector<std::map<Value, Value>> BruteForceAutomorphisms(const Instance& i) {
  std::set<Value> adom = i.ActiveDomain();
  std::vector<Value> vals(adom.begin(), adom.end());
  std::vector<Value> image = vals;
  std::vector<std::map<Value, Value>> out;
  do {
    std::map<Value, Value> m;
    for (size_t v = 0; v < vals.size(); ++v) m[vals[v]] = image[v];
    if (ApplyValueMap(i, m) == i) out.push_back(std::move(m));
  } while (std::next_permutation(image.begin(), image.end()));
  return out;
}

TEST(InstanceAutomorphismsTest, KnownCounts) {
  struct Case {
    std::string label;
    Instance instance;
    size_t auts;
  };
  std::vector<Case> cases;
  cases.push_back({"empty", Instance{}, 1});
  cases.push_back({"single edge", Instance{Fact("E", {V(0), V(1)})}, 1});
  cases.push_back(
      {"2-cycle", Instance{Fact("E", {V(0), V(1)}), Fact("E", {V(1), V(0)})},
       2});
  cases.push_back({"3-cycle",
                   Instance{Fact("E", {V(0), V(1)}), Fact("E", {V(1), V(2)}),
                            Fact("E", {V(2), V(0)})},
                   3});
  cases.push_back({"two disjoint edges",
                   Instance{Fact("E", {V(0), V(1)}), Fact("E", {V(2), V(3)})},
                   2});
  cases.push_back({"loop", Instance{Fact("E", {V(7), V(7)})}, 1});
  for (const Case& c : cases) {
    EXPECT_EQ(InstanceAutomorphisms(c.instance).size(), c.auts) << c.label;
  }
}

// InstanceAutomorphisms is exactly Aut(I), in the same order, on the whole
// {E/2, S/1} space at domain 3 and on instances with scattered values (the
// checkers' fresh range, gaps). Relabeling I leaves |Aut(I)| and the
// isomorphism key alone.
TEST(InstanceAutomorphismsTest, MatchBruteForce) {
  std::vector<Instance> probes =
      AllInstances(Schema({{"E", 2}, {"S", 1}}), IntDomain(3), 3);
  ASSERT_EQ(probes.size(), 299u);  // 12 facts, subsets of size <= 3
  probes.push_back(Instance{Fact("E", {V(1000), V(0)}),
                            Fact("E", {V(1001), V(0)}),
                            Fact("E", {V(3), V(1000)})});
  probes.push_back(Instance{Fact("E", {V(5), V(9)}), Fact("E", {V(9), V(5)}),
                            Fact("E", {V(2), V(2)})});
  probes.push_back(Instance{Fact("E", {V(1000), V(1001)}),
                            Fact("E", {V(1001), V(1002)}),
                            Fact("E", {V(1002), V(1000)}),
                            Fact("S", {V(7)})});
  for (const Instance& i : probes) {
    const std::vector<std::map<Value, Value>> auts = InstanceAutomorphisms(i);
    EXPECT_EQ(auts, BruteForceAutomorphisms(i)) << i.ToString();
    for (uint64_t seed = 0; seed < 4; ++seed) {
      Instance permuted = ApplyValueMap(i, workload::RandomPermutation(i, seed));
      EXPECT_EQ(InstanceAutomorphisms(permuted).size(), auts.size())
          << i.ToString() << " seed " << seed;
      EXPECT_EQ(IsoKey(permuted), IsoKey(i)) << i.ToString() << " seed " << seed;
    }
  }
}

// ---------------------------------------------------------------------------
// Orbit-representative enumeration
// ---------------------------------------------------------------------------

void CheckOrbitsAgainstBruteForce(const Schema& schema, size_t domain_size,
                                  size_t max_facts) {
  std::vector<Value> domain = IntDomain(domain_size);
  std::vector<Instance> all = AllInstances(schema, domain, max_facts);

  // Brute force: group the full stream by isomorphism key; the
  // representative of each orbit is its first (enumeration-order-least)
  // member.
  std::map<std::vector<Fact>, std::vector<size_t>> orbits;  // key -> indices
  for (size_t idx = 0; idx < all.size(); ++idx) {
    orbits[IsoKey(all[idx])].push_back(idx);
  }

  std::vector<uint64_t> orbit_sizes;
  std::vector<Instance> reps =
      AllCanonicalInstances(schema, domain, max_facts, &orbit_sizes);
  ASSERT_EQ(reps.size(), orbits.size());
  ASSERT_EQ(orbit_sizes.size(), reps.size());

  uint64_t total = 0;
  std::set<std::vector<Fact>> seen;
  for (size_t r = 0; r < reps.size(); ++r) {
    std::vector<Fact> key = IsoKey(reps[r]);
    ASSERT_TRUE(orbits.count(key)) << reps[r].ToString();
    ASSERT_TRUE(seen.insert(key).second)
        << "orbit emitted twice: " << reps[r].ToString();
    const std::vector<size_t>& members = orbits[key];
    // The representative is the enumeration-least orbit member — this is the
    // property that makes reduced-sweep counterexamples byte-identical.
    EXPECT_EQ(reps[r].AllFacts(), all[members.front()].AllFacts());
    EXPECT_EQ(orbit_sizes[r], members.size());
    total += orbit_sizes[r];
  }
  EXPECT_EQ(total, all.size());

  // Representatives come out in the full stream's enumeration order.
  std::vector<Instance> streamed;
  ForEachCanonicalInstance(schema, domain, max_facts,
                           [&](const Instance& i, uint64_t) {
                             streamed.push_back(i);
                             return true;
                           });
  ASSERT_EQ(streamed.size(), reps.size());
  for (size_t r = 0; r < reps.size(); ++r) {
    EXPECT_EQ(streamed[r].AllFacts(), reps[r].AllFacts());
  }
}

TEST(CanonicalEnumeratorTest, OrbitCountsMatchBruteForce) {
  CheckOrbitsAgainstBruteForce(Schema({{"E", 2}}), 2, 3);
  CheckOrbitsAgainstBruteForce(Schema({{"E", 2}}), 3, 2);
  CheckOrbitsAgainstBruteForce(Schema({{"V", 1}, {"W", 1}}), 3, 3);
  CheckOrbitsAgainstBruteForce(Schema({{"S", 1}, {"R", 2}}), 2, 2);
}

TEST(CanonicalEnumeratorTest, FactIndexPermutationsMatchValueMaps) {
  std::vector<Fact> facts = {Fact("E", {V(0), V(1)}), Fact("E", {V(1), V(0)}),
                             Fact("E", {V(0), V(0)}), Fact("E", {V(1), V(1)})};
  // The 0<->1 swap permutes the list; a map off the fact values is dropped.
  std::map<Value, Value> swap01{{V(0), V(1)}, {V(1), V(0)}};
  std::map<Value, Value> away{{V(0), V(5)}, {V(1), V(0)}};
  std::map<Value, Value> identity{{V(0), V(0)}, {V(1), V(1)}};
  std::vector<std::vector<uint32_t>> perms =
      FactIndexPermutations(facts, {swap01, away, identity});
  ASSERT_EQ(perms.size(), 1u);  // identity and non-closed map dropped
  for (size_t fi = 0; fi < facts.size(); ++fi) {
    Fact mapped = facts[fi];
    for (Value& v : mapped.args) v = swap01.at(v);
    EXPECT_EQ(facts[perms[0][fi]], mapped);
  }
}

// ---------------------------------------------------------------------------
// The one-pass ladder's premise (FindViolations in monotonicity/checker.h):
// a narrower class's J stream at bound k is the wider class's stream at any
// K >= k filtered by kind and size, in the same order — for the full stream
// and for the stabilizer-reduced one.
// ---------------------------------------------------------------------------

std::vector<std::vector<uint32_t>> StreamPerms(
    const std::vector<Fact>& candidates, const Instance& i,
    const std::vector<Value>& fresh, bool reduced) {
  if (!reduced) return {};
  return FactIndexPermutations(candidates,
                               monotonicity::StabilizerValueMaps(i, fresh));
}

// The J stream as the sweeps enumerate it: index subsets of the candidate
// list, each materialized as an Instance.
std::vector<Instance> JStream(const Schema& schema, const Instance& i,
                              const std::vector<Value>& fresh,
                              MonotonicityClass cls, size_t k, bool reduced) {
  std::vector<Fact> candidates =
      monotonicity::CandidateJFacts(schema, i, fresh, cls);
  SubsetInstance j(candidates);
  std::vector<Instance> out;
  ForEachIndexSubset(candidates.size(), k,
                     StreamPerms(candidates, i, fresh, reduced),
                     [&](std::span<const uint32_t> subset) {
                       out.push_back(j.Set(subset));
                       return true;
                     });
  return out;
}

// The reference DFS over subsets of {0..n-1} of at most `remaining` more
// members: it keeps the subsets least in their orbit under `perms` by
// mapping each one, sorting the image and comparing the lists.
void ReferenceSubsets(size_t n, size_t start, size_t remaining,
                      const std::vector<std::vector<uint32_t>>& perms,
                      std::vector<uint32_t>& cur_idx,
                      std::vector<std::vector<uint32_t>>* out) {
  if (remaining == 0) return;
  std::vector<uint32_t> mapped;
  for (size_t f = start; f < n; ++f) {
    cur_idx.push_back(static_cast<uint32_t>(f));
    bool least = true;
    for (const std::vector<uint32_t>& perm : perms) {
      mapped.clear();
      for (uint32_t c : cur_idx) mapped.push_back(perm[c]);
      std::sort(mapped.begin(), mapped.end());
      least = least && !std::lexicographical_compare(
                           mapped.begin(), mapped.end(), cur_idx.begin(),
                           cur_idx.end());
    }
    if (least) {
      out->push_back(cur_idx);
      ReferenceSubsets(n, f + 1, remaining - 1, perms, cur_idx, out);
    }
    cur_idx.pop_back();
  }
}

// The reference stream: the reference DFS's subsets of the candidates, each
// built as an Instance.
std::vector<Instance> ReferenceJStream(const Schema& schema, const Instance& i,
                                       const std::vector<Value>& fresh,
                                       MonotonicityClass cls, size_t k,
                                       bool reduced) {
  std::vector<Fact> candidates =
      monotonicity::CandidateJFacts(schema, i, fresh, cls);
  std::vector<uint32_t> cur_idx;
  std::vector<std::vector<uint32_t>> subsets;
  ReferenceSubsets(candidates.size(), 0, k,
                   StreamPerms(candidates, i, fresh, reduced), cur_idx,
                   &subsets);
  std::vector<Instance> out;
  for (const std::vector<uint32_t>& subset : subsets) {
    Instance j;
    for (uint32_t c : subset) j.Insert(candidates[c]);
    out.push_back(std::move(j));
  }
  return out;
}

bool InClassSpace(const Instance& j, const Instance& i, MonotonicityClass c) {
  switch (c) {
    case MonotonicityClass::kMonotone:
      return true;
    case MonotonicityClass::kDomainDistinct:
      return IsDomainDistinctFrom(j, i);
    case MonotonicityClass::kDomainDisjoint:
      return IsDomainDisjointFrom(j, i);
  }
  return false;
}

TEST(SweepStreamTest, NarrowStreamsAreFilteredWideStreams) {
  const MonotonicityClass kClasses[] = {MonotonicityClass::kMonotone,
                                        MonotonicityClass::kDomainDistinct,
                                        MonotonicityClass::kDomainDisjoint};
  for (uint64_t seed = 0; seed < 16; ++seed) {
    std::mt19937_64 rng(seed);
    Schema schema;
    const size_t relations = 1 + rng() % 3;
    for (size_t r = 0; r < relations; ++r) {
      ASSERT_TRUE(schema
                      .AddRelation("R" + std::to_string(r),
                                   static_cast<uint32_t>(1 + rng() % 3))
                      .ok());
    }
    const size_t domain = 2 + rng() % 2;
    const std::vector<Value> fresh = IntDomain(1 + rng() % 3, 1000);
    for (const Instance& i :
         AllCanonicalInstances(schema, IntDomain(domain), 2)) {
      // Keep each stream small enough to enumerate: high-arity schemas get
      // lower bounds.
      const size_t n = monotonicity::CandidateJFacts(
                           schema, i, fresh, MonotonicityClass::kMonotone)
                           .size();
      const size_t max_k = n <= 20 ? 3 : n <= 60 ? 2 : 1;
      for (bool reduced : {false, true}) {
        std::vector<Instance> streams[3][4];  // [class][bound]
        for (size_t c = 0; c < 3; ++c) {
          for (size_t k = 1; k <= max_k; ++k) {
            streams[c][k] = JStream(schema, i, fresh, kClasses[c], k, reduced);
            EXPECT_TRUE(streams[c][k] ==
                        ReferenceJStream(schema, i, fresh, kClasses[c], k,
                                         reduced))
                << "seed " << seed << " schema " << schema.ToString()
                << " I " << i.ToString() << " reduced " << reduced
                << ": class " << c << " at " << k;
          }
        }
        for (size_t h = 0; h < 3; ++h) {
          for (size_t big_k = 1; big_k <= max_k; ++big_k) {
            for (size_t c = h; c < 3; ++c) {
              for (size_t k = 1; k <= big_k; ++k) {
                std::vector<Instance> filtered;
                for (const Instance& j : streams[h][big_k]) {
                  if (j.size() <= k && InClassSpace(j, i, kClasses[c])) {
                    filtered.push_back(j);
                  }
                }
                EXPECT_TRUE(filtered == streams[c][k])
                    << "seed " << seed << " schema " << schema.ToString()
                    << " I " << i.ToString() << " reduced " << reduced
                    << ": class " << c << " at " << k << " vs class " << h
                    << " at " << big_k;
              }
            }
          }
        }
      }
      // A J's narrowest class, the least kind of its candidates, decides
      // InClassSpace for every class.
      const std::vector<Fact> candidates = monotonicity::CandidateJFacts(
          schema, i, fresh, MonotonicityClass::kMonotone);
      const std::vector<MonotonicityClass> kinds =
          monotonicity::CandidateKinds(candidates, i.ActiveDomain());
      ASSERT_EQ(kinds.size(), candidates.size());
      SubsetInstance j(candidates);
      ForEachIndexSubset(
          candidates.size(), max_k, {}, [&](std::span<const uint32_t> subset) {
            MonotonicityClass least = MonotonicityClass::kDomainDisjoint;
            for (uint32_t c : subset) least = std::min(least, kinds[c]);
            for (MonotonicityClass c : kClasses) {
              EXPECT_EQ(InClassSpace(j.Set(subset), i, c), c <= least)
                  << "seed " << seed << " I " << i.ToString() << " J "
                  << j.Set(subset).ToString() << " class "
                  << static_cast<int>(c);
            }
            return true;
          });
    }
  }
}

// The bit-set orbit test at and past the 64-bit word boundary: over n = 63,
// 64, 65 and 130 indices, ForEachIndexSubset visits exactly the reference
// DFS's subsets, in its order, under a random permutation group per n:
// Sym(B1) x Sym(B2) x Sym(B3) on disjoint blocks of sizes 2, 2 and 3 (24
// permutations; the identity is dropped, as FactIndexPermutations drops
// it). B1 = {0, n-1} pairs the first and last bits; B2 and B3 are random,
// so images cross words whenever n > 64. Subsets go up to pairs, and up to
// triples at n = 65 (kept small: the reference is slow under TSan).
TEST(SweepStreamTest, BitSetDfsMatchesReferenceAcrossWordBoundaries) {
  for (size_t n : {63u, 64u, 65u, 130u}) {
    std::mt19937_64 rng(n);
    std::vector<uint32_t> identity(n);
    std::iota(identity.begin(), identity.end(), 0);
    std::vector<uint32_t> order = identity;
    std::shuffle(order.begin() + 1, order.end() - 1, rng);
    const std::vector<std::vector<uint32_t>> blocks = {
        {0, static_cast<uint32_t>(n - 1)},
        {order[1], order[2]},
        {order[3], order[4], order[5]}};
    std::vector<std::vector<uint32_t>> group = {identity};
    for (const std::vector<uint32_t>& block : blocks) {
      std::vector<uint32_t> sorted = block;
      std::sort(sorted.begin(), sorted.end());
      std::vector<std::vector<uint32_t>> grown;
      for (const std::vector<uint32_t>& g : group) {
        std::vector<uint32_t> image = sorted;
        do {
          std::vector<uint32_t> h = g;
          for (size_t t = 0; t < sorted.size(); ++t) h[sorted[t]] = image[t];
          grown.push_back(std::move(h));
        } while (std::next_permutation(image.begin(), image.end()));
      }
      group = std::move(grown);
    }
    group.erase(group.begin());  // the identity, generated first
    ASSERT_EQ(group.size(), 23u);
    const size_t k = n == 65 ? 3 : 2;
    std::vector<std::vector<uint32_t>> got, want;
    ForEachIndexSubset(n, k, group, [&](std::span<const uint32_t> subset) {
      got.emplace_back(subset.begin(), subset.end());
      return true;
    });
    std::vector<uint32_t> cur_idx;
    ReferenceSubsets(n, 0, k, group, cur_idx, &want);
    EXPECT_EQ(got, want) << "n " << n;
    // The group prunes: some subsets are not least in their orbit.
    size_t all = 0, choose = 1;
    for (size_t j = 1; j <= k; ++j) {
      choose = choose * (n - j + 1) / j;
      all += choose;
    }
    EXPECT_LT(want.size(), all) << "n " << n;
  }
}

// ---------------------------------------------------------------------------
// Reduced sweeps vs full sweeps on the Figure 1/2 queries
// ---------------------------------------------------------------------------

std::string Render(const Result<std::optional<Counterexample>>& r) {
  if (!r.ok()) return "error: " + r.status().ToString();
  if (!r->has_value()) return "no violation";
  return r->value().ToString();
}

struct Scenario {
  std::string label;
  std::unique_ptr<Query> query;
  MonotonicityClass cls;
  ExhaustiveOptions opts;
};

ExhaustiveOptions Opts(size_t domain, size_t facts_i, size_t fresh,
                       size_t facts_j) {
  ExhaustiveOptions o;
  o.domain_size = domain;
  o.max_facts_i = facts_i;
  o.fresh_values = fresh;
  o.max_facts_j = facts_j;
  o.threads = 1;
  return o;
}

// The bench configurations of Theorem 3.1 items (1)-(7), plus the remaining
// Figure 1/2 specimens (triangles-unless-two-disjoint, win-move, two-hop).
std::vector<Scenario> Figure12Scenarios() {
  std::vector<Scenario> s;
  s.push_back({"(1) Q_TC Mdistinct", queries::MakeComplementTransitiveClosure(),
               MonotonicityClass::kDomainDistinct, Opts(2, 3, 2, 3)});
  s.push_back({"(1) Q_TC Mdisjoint", queries::MakeComplementTransitiveClosure(),
               MonotonicityClass::kDomainDisjoint, Opts(2, 3, 2, 3)});
  for (size_t jmax : {1u, 3u}) {
    s.push_back({"(2) TC M^" + std::to_string(jmax),
                 queries::MakeTransitiveClosure(), MonotonicityClass::kMonotone,
                 Opts(2, 2, 1, jmax)});
  }
  for (size_t i : {1u, 2u}) {
    s.push_back({"(3) clique i=" + std::to_string(i),
                 queries::MakeCliqueQuery(i + 2),
                 MonotonicityClass::kDomainDistinct,
                 Opts(i + 2, i <= 1 ? (i + 1) * i + 1 : 3, 1, i)});
    s.push_back({"(3) clique i=" + std::to_string(i) + " violated",
                 queries::MakeCliqueQuery(i + 2),
                 MonotonicityClass::kDomainDistinct,
                 Opts(i + 2, i <= 1 ? (i + 1) * i + 1 : 3, 1, i + 1)});
  }
  for (size_t i : {1u, 2u}) {
    s.push_back({"(4) star i=" + std::to_string(i),
                 queries::MakeStarQuery(i + 1),
                 MonotonicityClass::kDomainDisjoint, Opts(2, 2, i + 1, i)});
  }
  s.push_back({"(5) clique3 disjoint", queries::MakeCliqueQuery(3),
               MonotonicityClass::kDomainDisjoint, Opts(3, 3, 2, 2)});
  s.push_back({"(5) clique3 distinct", queries::MakeCliqueQuery(3),
               MonotonicityClass::kDomainDistinct, Opts(3, 3, 2, 2)});
  s.push_back({"(6) star2 distinct", queries::MakeStarQuery(2),
               MonotonicityClass::kDomainDistinct, Opts(2, 1, 1, 1)});
  for (size_t j : {2u, 3u}) {
    s.push_back({"(7) dup j=" + std::to_string(j) + " distinct",
                 queries::MakeDuplicateQuery(j),
                 MonotonicityClass::kDomainDistinct, Opts(2, 2, 2, j - 1)});
    s.push_back({"(7) dup j=" + std::to_string(j) + " disjoint",
                 queries::MakeDuplicateQuery(j),
                 MonotonicityClass::kDomainDisjoint, Opts(2, 2, 2, j)});
  }
  s.push_back({"triangles-unless-2-disjoint",
               queries::MakeTrianglesUnlessTwoDisjoint(),
               MonotonicityClass::kDomainDisjoint, Opts(3, 3, 3, 2)});
  s.push_back({"win-move disjoint", queries::MakeWinMove(),
               MonotonicityClass::kDomainDisjoint, Opts(2, 3, 2, 2)});
  s.push_back({"win-move distinct", queries::MakeWinMove(),
               MonotonicityClass::kDomainDistinct, Opts(2, 2, 2, 2)});
  s.push_back({"two-hop monotone", queries::MakeTwoHopJoin(),
               MonotonicityClass::kMonotone, Opts(2, 2, 2, 2)});
  return s;
}

TEST(ReducedSweepTest, FindViolationMatchesFullSweepOnFigure12Queries) {
  for (Scenario& s : Figure12Scenarios()) {
    ExhaustiveOptions full = s.opts;
    full.symmetry = SymmetryMode::kOff;
    std::string expected = Render(FindViolation(*s.query, s.cls, full));

    for (SymmetryMode mode : {SymmetryMode::kForceOn, SymmetryMode::kAuto}) {
      ExhaustiveOptions reduced = s.opts;
      reduced.symmetry = mode;
      EXPECT_EQ(Render(FindViolation(*s.query, s.cls, reduced)), expected)
          << s.label << " (" << MonotonicityClassName(s.cls) << ", "
          << (mode == SymmetryMode::kAuto ? "auto" : "forced") << ")";
    }
  }
}

TEST(ReducedSweepTest, LadderMatchesFullSweep) {
  struct Case {
    std::unique_ptr<Query> query;
    size_t domain;
    size_t fresh;
  };
  std::vector<Case> cases;
  cases.push_back({queries::MakeCliqueQuery(3), 3, 1});
  cases.push_back({queries::MakeStarQuery(2), 2, 3});
  cases.push_back({queries::MakeComplementTransitiveClosure(), 2, 1});
  for (Case& c : cases) {
    ExhaustiveOptions o;
    o.domain_size = c.domain;
    o.max_facts_i = 3;
    o.fresh_values = c.fresh;
    o.threads = 1;
    o.symmetry = SymmetryMode::kOff;
    Result<Ladder> full = ComputeLadder(*c.query, 3, o);
    ASSERT_TRUE(full.ok()) << c.query->name();
    for (SymmetryMode mode : {SymmetryMode::kForceOn, SymmetryMode::kAuto}) {
      o.symmetry = mode;
      Result<Ladder> reduced = ComputeLadder(*c.query, 3, o);
      ASSERT_TRUE(reduced.ok()) << c.query->name();
      EXPECT_EQ(reduced->ToString(), full->ToString()) << c.query->name();
      ASSERT_EQ(reduced->rows.size(), full->rows.size());
      for (size_t r = 0; r < full->rows.size(); ++r) {
        const auto& fr = full->rows[r];
        const auto& rr = reduced->rows[r];
        for (auto member : {&monotonicity::LadderRow::m_witness,
                            &monotonicity::LadderRow::distinct_witness,
                            &monotonicity::LadderRow::disjoint_witness}) {
          const auto& fw = fr.*member;
          const auto& rw = rr.*member;
          ASSERT_EQ(rw.has_value(), fw.has_value()) << c.query->name();
          if (fw.has_value()) {
            EXPECT_EQ(rw->ToString(), fw->ToString()) << c.query->name();
          }
        }
      }
    }
  }
}

std::string Render(const Result<std::optional<PreservationViolation>>& r) {
  if (!r.ok()) return "error: " + r.status().ToString();
  if (!r->has_value()) return "no violation";
  return r->value().ToString();
}

// Reduced preservation sweeps, which share one memo of target results by
// ordinal across their sources, return the full sweep's verdict and witness: the native star and TC queries for
// every class, and Datalog TC, win-move and two fuzzer programs per shape
// for E and Hinj, at 1 and 4 threads.
TEST(ReducedSweepTest, PreservationMatchesFullSweep) {
  // `generic`: constant-free, so kForceOn is sound too (constants make a
  // query non-generic, and only kAuto's probe is then safe).
  struct Case {
    std::unique_ptr<Query> query;
    std::vector<PreservationClass> classes;
    bool generic = true;
  };
  const std::vector<PreservationClass> all = {
      PreservationClass::kHomomorphisms,
      PreservationClass::kInjectiveHomomorphisms,
      PreservationClass::kExtensions};
  const std::vector<PreservationClass> e_hinj = {
      PreservationClass::kExtensions,
      PreservationClass::kInjectiveHomomorphisms};
  std::vector<Case> cases;
  cases.push_back({queries::MakeStarQuery(2), all});
  cases.push_back({queries::MakeTransitiveClosure(), all});
  auto datalog = [](datalog::DatalogQuery q) {
    return std::make_unique<datalog::DatalogQuery>(std::move(q));
  };
  cases.push_back({datalog(queries::TcProgram()), e_hinj});
  cases.push_back({datalog(queries::WinMoveProgram()), e_hinj});
  for (size_t shape = 0; shape < workload::kProgramShapeCount; ++shape) {
    for (uint64_t seed : {5, 17}) {
      workload::FuzzerOptions fo;
      fo.seed = seed;
      fo.shape = static_cast<workload::ProgramShape>(shape);
      workload::GeneratedProgram gp = workload::GenerateProgram(fo);
      cases.push_back({datalog(datalog::DatalogQuery::FromTextOrDie(
                           gp.text,
                           std::string(workload::ProgramShapeName(fo.shape)) +
                               "-" + std::to_string(seed),
                           gp.semantics)),
                       e_hinj, !gp.uses_constants});
    }
  }
  size_t violations = 0;
  for (const Case& c : cases) {
    for (PreservationClass cls : c.classes) {
      for (size_t threads : {1u, 4u}) {
        PreservationOptions o;
        o.domain_size = 2;
        o.max_facts = 2;
        o.threads = threads;
        o.symmetry = SymmetryMode::kOff;
        const std::string full =
            Render(FindPreservationViolation(*c.query, cls, o));
        const std::string ctx = c.query->name() + " " +
                                monotonicity::PreservationClassName(cls) +
                                " threads " + std::to_string(threads);
        ASSERT_EQ(full.rfind("error", 0), std::string::npos) << ctx << full;
        violations += full != "no violation";
        for (SymmetryMode mode :
             {SymmetryMode::kForceOn, SymmetryMode::kAuto}) {
          if (mode == SymmetryMode::kForceOn && !c.generic) continue;
          o.symmetry = mode;
          EXPECT_EQ(Render(FindPreservationViolation(*c.query, cls, o)), full)
              << ctx;
        }
      }
    }
  }
  EXPECT_GT(violations, 0u);
}

// ---------------------------------------------------------------------------
// Genericity probe and the non-generic fallback
// ---------------------------------------------------------------------------

TEST(GenericityProbeTest, GenericQueriesPass) {
  EXPECT_TRUE(ProbeGenericity(*queries::MakeTransitiveClosure(), 2, 2).ok());
  EXPECT_TRUE(
      ProbeGenericity(*queries::MakeComplementTransitiveClosure(), 2, 2).ok());
  EXPECT_TRUE(ProbeGenericity(*queries::MakeCliqueQuery(3), 3, 2).ok());
  EXPECT_TRUE(ProbeGenericity(*queries::MakeWinMove(), 2, 2).ok());
}

// A deliberately non-generic query: Q(I) = {O(0)} iff W(0) is present and
// NOT (V(1001) present while V(1000) absent). It inspects concrete values —
// including the checkers' fresh range — so it is not closed under
// permutations of dom.
std::unique_ptr<Query> MakeNonGenericQuery() {
  return std::make_unique<NativeQuery>(
      "non-generic-specimen", Schema({{"V", 1}, {"W", 1}}),
      Schema({{"O", 1}}), [](const Instance& in) -> Result<Instance> {
        Instance out;
        bool blocked = in.Contains(Fact("V", {V(1001)})) &&
                       !in.Contains(Fact("V", {V(1000)}));
        if (in.Contains(Fact("W", {V(0)})) && !blocked) {
          out.Insert(Fact("O", {V(0)}));
        }
        return out;
      });
}

TEST(GenericityProbeTest, NonGenericQueryIsRejected) {
  EXPECT_FALSE(ProbeGenericity(*MakeNonGenericQuery(), 2, 2).ok());
}

// Forwards to `inner`, counting evaluations (EvalFacts and EvalUnion reach
// Eval through Query's defaults).
class CountingQuery : public Query {
 public:
  explicit CountingQuery(const Query& inner) : inner_(inner) {}
  const Schema& input_schema() const override { return inner_.input_schema(); }
  const Schema& output_schema() const override {
    return inner_.output_schema();
  }
  std::string name() const override { return inner_.name(); }
  Result<Instance> Eval(const Instance& input) const override {
    ++evals_;
    return inner_.Eval(input);
  }
  size_t evals() const { return evals_; }

 private:
  const Query& inner_;
  mutable size_t evals_ = 0;
};

// The probe evaluates Q(I) once per sample and Q(pi(I)) once per
// permutation: 12 samples × (1 + 4 permutations) = 60 evaluations, not the
// 96 of one CheckGenericity per permutation, handed over in one EvalBatch
// (here Query's default, one Eval each). Its failure is the status
// CheckGenericity returns for the first failing (sample, permutation).
TEST(GenericityProbeTest, EvaluatesEachSampleOnce) {
  auto tc = queries::MakeTransitiveClosure();
  CountingQuery counting(*tc);
  EXPECT_TRUE(ProbeGenericity(counting, 3, 2).ok());
  EXPECT_EQ(counting.evals(), 60u);

  auto bad = MakeNonGenericQuery();
  std::vector<std::map<Value, Value>> perms(4);
  for (uint64_t v = 0; v < 2; ++v) {
    perms[0][V(v)] = V((uint64_t{1} << 20) + v);  // shift high
    perms[1][V(v)] = V(1000 + v);                  // shift fresh
    perms[2][V(v)] = V(1 - v);                     // reverse
    perms[3][V(v)] = V(1 - v);                     // swap (0, 1)
  }
  Status want = Status::Ok();
  for (const Instance& i : AllInstances(bad->input_schema(), IntDomain(2), 2)) {
    for (const std::map<Value, Value>& pi : perms) {
      if (want.ok()) want = CheckGenericity(*bad, i, pi);
    }
  }
  ASSERT_FALSE(want.ok());
  EXPECT_EQ(ProbeGenericity(*bad, 2, 2).ToString(), want.ToString());
}

TEST(GenericityProbeTest, NonGenericQueryFallsBackToFullSweep) {
  auto q = MakeNonGenericQuery();
  ExhaustiveOptions o = Opts(2, 2, 2, 1);

  // The full sweep finds the violation: some I containing W(0), extended by
  // J = {V(1001)}, loses the output fact O(0).
  o.symmetry = SymmetryMode::kOff;
  Result<std::optional<Counterexample>> full =
      FindViolation(*q, MonotonicityClass::kDomainDisjoint, o);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(full->has_value());

  // Forcing the reduction on a non-generic query is unsound: the only
  // violating extension {V(1001)} is pruned as the non-least member of its
  // would-be orbit under the fresh-value swap. This is exactly why the kAuto
  // gate is load-bearing.
  o.symmetry = SymmetryMode::kForceOn;
  Result<std::optional<Counterexample>> forced =
      FindViolation(*q, MonotonicityClass::kDomainDisjoint, o);
  ASSERT_TRUE(forced.ok());
  EXPECT_FALSE(forced->has_value());

  // kAuto detects the non-genericity and runs the full sweep: the violation
  // is still found, byte-identical.
  o.symmetry = SymmetryMode::kAuto;
  Result<std::optional<Counterexample>> fallback =
      FindViolation(*q, MonotonicityClass::kDomainDisjoint, o);
  ASSERT_TRUE(fallback.ok());
  EXPECT_EQ(Render(fallback), Render(full));
}

}  // namespace
}  // namespace calm

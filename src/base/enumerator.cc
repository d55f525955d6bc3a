#include "base/enumerator.h"

#include <algorithm>
#include <cstdint>
#include <set>
#include <unordered_map>

namespace calm {

std::vector<Fact> AllFactsOver(const Schema& schema,
                               const std::vector<Value>& domain) {
  std::vector<Fact> out;
  if (domain.empty()) return out;
  for (const RelationDecl& decl : schema.relations()) {
    // Odometer over domain^arity.
    std::vector<size_t> idx(decl.arity, 0);
    while (true) {
      Tuple t;
      t.reserve(decl.arity);
      for (size_t i : idx) t.push_back(domain[i]);
      out.emplace_back(decl.name, std::move(t));
      size_t pos = decl.arity;
      while (pos > 0) {
        --pos;
        if (++idx[pos] < domain.size()) break;
        idx[pos] = 0;
        if (pos == 0) goto next_relation;
      }
      if (decl.arity == 0) break;  // unreachable (arity >= 1), defensive
    }
  next_relation:;
  }
  return out;
}

bool ForEachInstance(const Schema& schema, const std::vector<Value>& domain,
                     size_t max_facts,
                     const std::function<bool(const Instance&)>& fn) {
  Instance empty;
  if (!fn(empty)) return false;
  std::vector<Fact> facts = AllFactsOver(schema, domain);
  SubsetInstance current(facts);
  return ForEachIndexSubset(
      facts.size(), max_facts, {},
      [&](std::span<const uint32_t> subset) { return fn(current.Set(subset)); });
}

std::vector<Instance> AllInstances(const Schema& schema,
                                   const std::vector<Value>& domain,
                                   size_t max_facts) {
  std::vector<Instance> out;
  ForEachInstance(schema, domain, max_facts, [&](const Instance& inst) {
    out.push_back(inst);
    return true;
  });
  return out;
}

std::vector<Value> IntDomain(size_t n, uint64_t offset) {
  std::vector<Value> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) out.push_back(Value::FromInt(offset + i));
  return out;
}

namespace {

// Shared state for the orbit-representative instance DFS: the fact universe
// with an index lookup, and arrangement tables (ordered k-subsets of domain
// indices, i.e. all injective maps from a k-value adom into the domain)
// built lazily per adom size.
struct CanonicalInstanceSpace {
  std::vector<Fact> facts;
  std::unordered_map<Fact, uint32_t, FactHash> index;
  const std::vector<Value>& domain;
  std::vector<std::vector<std::vector<uint32_t>>> arrangements_by_k;

  explicit CanonicalInstanceSpace(const Schema& schema,
                                  const std::vector<Value>& dom)
      : facts(AllFactsOver(schema, dom)), domain(dom) {
    index.reserve(facts.size());
    for (uint32_t i = 0; i < facts.size(); ++i) index.emplace(facts[i], i);
    arrangements_by_k.resize(domain.size() + 1);
  }

  const std::vector<std::vector<uint32_t>>& Arrangements(size_t k) {
    std::vector<std::vector<uint32_t>>& table = arrangements_by_k[k];
    if (!table.empty() || k == 0) return table;
    std::vector<uint32_t> pick;
    std::vector<bool> used(domain.size(), false);
    std::function<void()> rec = [&]() {
      if (pick.size() == k) {
        table.push_back(pick);
        return;
      }
      for (uint32_t d = 0; d < domain.size(); ++d) {
        if (used[d]) continue;
        used[d] = true;
        pick.push_back(d);
        rec();
        pick.pop_back();
        used[d] = false;
      }
    };
    rec();
    return table;
  }

  // Returns the orbit size of `current` inside the bounded space when its
  // sorted fact-index list `cur_idx` is least over every injective
  // relabeling of its adom into the domain, 0 otherwise. The least-index
  // test is what makes the kept representative the enumeration-order-least
  // orbit member (same-size subsets enumerate in index-list lex order).
  uint64_t CanonicalOrbit(const Instance& current,
                          const std::vector<uint32_t>& cur_idx) {
    std::set<Value> adom_set = current.ActiveDomain();
    std::vector<Value> adom(adom_set.begin(), adom_set.end());
    size_t k = adom.size();
    if (k == 0) return 1;
    const std::vector<std::vector<uint32_t>>& arr = Arrangements(k);
    uint64_t fixed = 0;
    std::vector<uint32_t> mapped;
    mapped.reserve(cur_idx.size());
    for (const std::vector<uint32_t>& t : arr) {
      mapped.clear();
      uint32_t min_idx = UINT32_MAX;
      for (uint32_t fi : cur_idx) {
        const Fact& f = facts[fi];
        Tuple tt;
        tt.reserve(f.arity());
        for (Value v : f.args) {
          size_t pos = static_cast<size_t>(
              std::lower_bound(adom.begin(), adom.end(), v) - adom.begin());
          tt.push_back(domain[t[pos]]);
        }
        uint32_t mi = index.find(Fact(f.relation, std::move(tt)))->second;
        // A mapped fact below the least current index decides immediately.
        if (mi < cur_idx[0]) return 0;
        min_idx = std::min(min_idx, mi);
        mapped.push_back(mi);
      }
      if (min_idx > cur_idx[0]) continue;  // strictly above; not smaller
      std::sort(mapped.begin(), mapped.end());
      if (std::lexicographical_compare(mapped.begin(), mapped.end(),
                                       cur_idx.begin(), cur_idx.end())) {
        return 0;
      }
      if (mapped == cur_idx) ++fixed;
    }
    return static_cast<uint64_t>(arr.size()) / fixed;
  }

  bool Rec(size_t start, size_t remaining, Instance& current,
           std::vector<uint32_t>& cur_idx,
           const std::function<bool(const Instance&, uint64_t)>& fn) {
    if (remaining == 0 || start == facts.size()) return true;
    for (size_t i = start; i < facts.size(); ++i) {
      current.Insert(facts[i]);
      cur_idx.push_back(static_cast<uint32_t>(i));
      uint64_t orbit = CanonicalOrbit(current, cur_idx);
      // A non-least node only extends to non-least nodes (extensions append
      // indices above the current maximum on both sides of the comparison),
      // so the whole subtree prunes.
      if (orbit > 0) {
        if (!fn(current, orbit) ||
            !Rec(i + 1, remaining - 1, current, cur_idx, fn)) {
          cur_idx.pop_back();
          current.Erase(facts[i]);
          return false;
        }
      }
      cur_idx.pop_back();
      current.Erase(facts[i]);
    }
    return true;
  }
};

}  // namespace

bool ForEachCanonicalInstance(
    const Schema& schema, const std::vector<Value>& domain, size_t max_facts,
    const std::function<bool(const Instance&, uint64_t)>& fn) {
  Instance empty;
  if (!fn(empty, 1)) return false;
  CanonicalInstanceSpace space(schema, domain);
  Instance current;
  std::vector<uint32_t> cur_idx;
  return space.Rec(0, max_facts, current, cur_idx, fn);
}

std::vector<Instance> AllCanonicalInstances(
    const Schema& schema, const std::vector<Value>& domain, size_t max_facts,
    std::vector<uint64_t>* orbit_sizes) {
  std::vector<Instance> out;
  ForEachCanonicalInstance(schema, domain, max_facts,
                           [&](const Instance& inst, uint64_t orbit) {
                             out.push_back(inst);
                             if (orbit_sizes) orbit_sizes->push_back(orbit);
                             return true;
                           });
  return out;
}

std::vector<std::vector<uint32_t>> FactIndexPermutations(
    const std::vector<Fact>& facts,
    const std::vector<std::map<Value, Value>>& value_maps) {
  std::unordered_map<Fact, uint32_t, FactHash> index;
  index.reserve(facts.size());
  for (uint32_t i = 0; i < facts.size(); ++i) index.emplace(facts[i], i);

  std::set<std::vector<uint32_t>> seen;
  std::vector<std::vector<uint32_t>> out;
  for (const std::map<Value, Value>& m : value_maps) {
    std::vector<uint32_t> perm(facts.size());
    bool closed = true;
    bool identity = true;
    for (uint32_t i = 0; i < facts.size() && closed; ++i) {
      Tuple t;
      t.reserve(facts[i].arity());
      for (Value v : facts[i].args) {
        auto it = m.find(v);
        t.push_back(it == m.end() ? v : it->second);
      }
      auto it = index.find(Fact(facts[i].relation, std::move(t)));
      if (it == index.end()) {
        closed = false;
        break;
      }
      perm[i] = it->second;
      identity = identity && perm[i] == i;
    }
    if (!closed || identity) continue;
    if (seen.insert(perm).second) out.push_back(std::move(perm));
  }
  return out;
}

namespace {

// ForEachIndexSubset's DFS over the current subset S = `cur`. `masks` holds
// S as a bit set of `words` 64-bit words, then each permutation's image of
// S the same way; a DFS level flips one bit in each.
struct IndexSubsetDfs {
  size_t n;
  size_t max_size;
  const std::vector<std::vector<uint32_t>>& index_perms;
  const std::function<bool(std::span<const uint32_t>)>& fn;
  size_t words;
  std::vector<uint64_t> masks;
  std::vector<uint32_t> cur;

  void Flip(uint32_t i) {
    masks[i / 64] ^= uint64_t{1} << (i % 64);
    for (size_t p = 0; p < index_perms.size(); ++p) {
      const uint32_t image = index_perms[p][i];
      masks[(p + 1) * words + image / 64] ^= uint64_t{1} << (image % 64);
    }
  }

  // Whether no permutation maps S to a lexicographically smaller list. An
  // image P has |S| members too, and sorted lists of equal length compare
  // at their least differing index, the least of S xor P: S is the smaller
  // iff that index is in S. So S is least iff every P equals S or has it
  // there.
  bool Least() const {
    for (size_t p = 1; p <= index_perms.size(); ++p) {
      const uint64_t* image = &masks[p * words];
      for (size_t w = 0; w < words; ++w) {
        const uint64_t diff = masks[w] ^ image[w];
        if (diff == 0) continue;
        if ((masks[w] & diff & -diff) == 0) return false;
        break;
      }
    }
    return true;
  }

  bool Rec(uint32_t start) {
    if (cur.size() == max_size) return true;
    for (uint32_t i = start; i < n; ++i) {
      cur.push_back(i);
      Flip(i);
      // A non-least subset only extends to non-least subsets: its image
      // P < S first differs at some x in P, below max(S) and so below the
      // added index; the added image either lands below x, a new least
      // difference in P, or leaves x the least. So its whole subtree prunes.
      const bool go = !Least() || (fn(cur) && Rec(i + 1));
      Flip(i);
      cur.pop_back();
      if (!go) return false;
    }
    return true;
  }
};

}  // namespace

bool ForEachIndexSubset(
    size_t n, size_t max_size,
    const std::vector<std::vector<uint32_t>>& index_perms,
    const std::function<bool(std::span<const uint32_t>)>& fn) {
  const size_t words = (n + 63) / 64;
  IndexSubsetDfs dfs{n, max_size, index_perms, fn, words, {}, {}};
  dfs.masks.resize((index_perms.size() + 1) * words);
  return dfs.Rec(0);
}

const Instance& SubsetInstance::Set(std::span<const uint32_t> subset) {
  size_t keep = 0;
  while (keep < subset_.size() && keep < subset.size() &&
         subset_[keep] == subset[keep]) {
    ++keep;
  }
  for (size_t k = keep; k < subset_.size(); ++k) {
    instance_.Erase(candidates_[subset_[k]]);
  }
  subset_.resize(keep);
  for (size_t k = keep; k < subset.size(); ++k) {
    instance_.Insert(candidates_[subset[k]]);
    subset_.push_back(subset[k]);
  }
  return instance_;
}

}  // namespace calm

#include "base/homomorphism.h"

#include <algorithm>
#include <set>

namespace calm {

void IndexedFacts::Assign(const Instance& in, const std::vector<Value>& adom) {
  facts.clear();
  index.clear();
  values.clear();
  in.ForEachFact([&](uint32_t name, const Tuple& t) {
    facts.push_back({name, static_cast<uint32_t>(index.size()),
                     static_cast<uint32_t>(t.size())});
    for (Value v : t) {
      auto it = std::lower_bound(adom.begin(), adom.end(), v);
      index.push_back(it != adom.end() && *it == v
                          ? static_cast<uint32_t>(it - adom.begin())
                          : kUnmapped);
      values.push_back(v);
    }
  });
}

std::vector<Value> SortedDomain(const Instance& in) {
  std::set<Value> adom = in.ActiveDomain();
  return std::vector<Value>(adom.begin(), adom.end());
}

namespace {

// Position x of h(e): the image of a mapped value, an unmapped one as is.
inline Value ImageAt(const IndexedFacts& f, const IndexedFacts::Entry& e,
                     uint32_t x, const uint32_t* h, const Value* adom_j) {
  const uint32_t idx = f.index[e.begin + x];
  return idx == IndexedFacts::kUnmapped ? f.values[e.begin + x]
                                        : adom_j[h[idx]];
}

// Three-way lexicographic comparison of two value sequences given by
// length and accessor.
template <typename A, typename B>
int CompareSeq(uint32_t na, A a, uint32_t nb, B b) {
  const uint32_t common = std::min(na, nb);
  for (uint32_t x = 0; x < common; ++x) {
    const Value va = a(x), vb = b(x);
    if (va != vb) return va < vb ? -1 : 1;
  }
  if (na == nb) return 0;
  return na < nb ? -1 : 1;
}

// Three-way comparison of a stored tuple with h(e).
int CompareImage(const Tuple& t, const IndexedFacts& f,
                 const IndexedFacts::Entry& e, const uint32_t* h,
                 const Value* adom_j) {
  return CompareSeq(
      static_cast<uint32_t>(t.size()), [&](uint32_t x) { return t[x]; },
      e.arity, [&](uint32_t x) { return ImageAt(f, e, x, h, adom_j); });
}

// Whether h(e) is one of `set`'s (ascending) tuples.
bool ContainsImage(const TupleSet& set, const IndexedFacts& f,
                   const IndexedFacts::Entry& e, const uint32_t* h,
                   const Value* adom_j) {
  auto it = std::lower_bound(
      set.begin(), set.end(), 0, [&](const Tuple& t, int) {
        return CompareImage(t, f, e, h, adom_j) < 0;
      });
  return it != set.end() && CompareImage(*it, f, e, h, adom_j) == 0;
}

}  // namespace

void HomomorphismEnumerator::Reset(const IndexedFacts& i, size_t adom_i_size,
                                   const Instance& j,
                                   const std::vector<Value>& adom_j,
                                   bool injective) {
  i_ = &i;
  adom_j_ = &adom_j;
  injective_ = injective;
  started_ = false;
  const size_t n = adom_i_size;
  h_.assign(n, kNone);
  used_.assign(adom_j.size(), 0);
  // Bucket I's facts by level: 1 + the largest index among their values.
  level_begin_.assign(n + 2, 0);
  order_.resize(i.facts.size());
  auto level_of = [&](const IndexedFacts::Entry& e) {
    uint32_t level = 0;
    for (uint32_t x = 0; x < e.arity; ++x) {
      level = std::max(level, i.index[e.begin + x] + 1);
    }
    return level;
  };
  for (const IndexedFacts::Entry& e : i.facts) ++level_begin_[level_of(e) + 1];
  for (size_t l = 1; l < level_begin_.size(); ++l) {
    level_begin_[l] += level_begin_[l - 1];
  }
  fill_.assign(level_begin_.begin(), level_begin_.end() - 1);
  for (uint32_t f = 0; f < i.facts.size(); ++f) {
    order_[fill_[level_of(i.facts[f])]++] = f;
  }
  j_sets_.resize(i.facts.size());
  for (size_t f = 0; f < i.facts.size(); ++f) {
    j_sets_[f] = &j.TuplesOf(i.facts[f].relation);
  }
  done_ = (injective && adom_j.size() < n) || !LevelHolds(0);
}

bool HomomorphismEnumerator::LevelHolds(size_t level) const {
  for (uint32_t k = level_begin_[level]; k < level_begin_[level + 1]; ++k) {
    const uint32_t f = order_[k];
    if (!ContainsImage(*j_sets_[f], *i_, i_->facts[f], h_.data(),
                       adom_j_->data())) {
      return false;
    }
  }
  return true;
}

bool HomomorphismEnumerator::Next() {
  if (done_) return false;
  const size_t n = h_.size();
  const uint32_t m = static_cast<uint32_t>(adom_j_->size());
  size_t d;
  if (!started_) {
    started_ = true;
    if (n == 0) return true;  // the empty map, once
    d = 0;
  } else {
    if (n == 0) {
      done_ = true;
      return false;
    }
    d = n - 1;  // resume: advance the last position
  }
  while (true) {
    uint32_t b = 0;
    if (h_[d] != kNone) {
      if (injective_) used_[h_[d]] = 0;
      b = h_[d] + 1;
    }
    for (; b < m; ++b) {
      if (injective_ && used_[b]) continue;
      h_[d] = b;
      if (LevelHolds(d + 1)) break;
    }
    if (b == m) {
      h_[d] = kNone;
      if (d == 0) {
        done_ = true;
        return false;
      }
      --d;
      continue;
    }
    if (injective_) used_[b] = 1;
    if (d + 1 == n) return true;
    ++d;
  }
}

std::optional<Fact> HomomorphismEnumerator::LeastMissingImage(
    const IndexedFacts& facts, const Instance& target) const {
  const uint32_t* h = h_.data();
  const Value* adom_j = adom_j_->data();
  const IndexedFacts::Entry* least = nullptr;
  const TupleSet* set = nullptr;
  uint32_t set_rel = 0;
  for (const IndexedFacts::Entry& e : facts.facts) {
    if (set == nullptr || set_rel != e.relation) {
      set = &target.TuplesOf(e.relation);
      set_rel = e.relation;
    }
    if (ContainsImage(*set, facts, e, h, adom_j)) continue;
    // Facts come relation by relation, so only a same-relation candidate
    // can undercut the least one found so far.
    if (least == nullptr) {
      least = &e;
    } else if (least->relation == e.relation &&
               CompareSeq(
                   e.arity,
                   [&](uint32_t x) { return ImageAt(facts, e, x, h, adom_j); },
                   least->arity,
                   [&](uint32_t x) {
                     return ImageAt(facts, *least, x, h, adom_j);
                   }) < 0) {
      least = &e;
    }
  }
  if (least == nullptr) return std::nullopt;
  Fact out;
  out.relation = least->relation;
  for (uint32_t x = 0; x < least->arity; ++x) {
    out.args.push_back(ImageAt(facts, *least, x, h, adom_j));
  }
  return out;
}

}  // namespace calm

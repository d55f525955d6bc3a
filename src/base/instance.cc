#include "base/instance.h"

#include <algorithm>

namespace calm {

namespace {
const TupleSet& EmptyTuples() {
  static const TupleSet* kEmpty = new TupleSet();
  return *kEmpty;
}
}  // namespace

TupleSet::const_iterator TupleSet::lower_bound(const Tuple& t) const {
  return std::lower_bound(tuples_.begin(), tuples_.end(), t);
}

TupleSet::const_iterator TupleSet::find(const Tuple& t) const {
  const_iterator it = lower_bound(t);
  if (it != tuples_.end() && *it == t) return it;
  return tuples_.end();
}

bool TupleSet::InsertUnique(const Tuple& t) {
  if (tuples_.empty() || tuples_.back() < t) {
    tuples_.push_back(t);
    return true;
  }
  auto it = std::lower_bound(tuples_.begin(), tuples_.end(), t);
  if (it != tuples_.end() && *it == t) return false;
  tuples_.insert(it, t);
  return true;
}

bool TupleSet::InsertUnique(Tuple&& t) {
  if (tuples_.empty() || tuples_.back() < t) {
    tuples_.push_back(std::move(t));
    return true;
  }
  auto it = std::lower_bound(tuples_.begin(), tuples_.end(), t);
  if (it != tuples_.end() && *it == t) return false;
  tuples_.insert(it, std::move(t));
  return true;
}

bool TupleSet::EraseOne(const Tuple& t) {
  auto it = std::lower_bound(tuples_.begin(), tuples_.end(), t);
  if (it == tuples_.end() || !(*it == t)) return false;
  tuples_.erase(it);
  return true;
}

TupleSet& Instance::SetOf(uint32_t name) {
  auto it = std::lower_bound(
      relations_.begin(), relations_.end(), name,
      [](const auto& entry, uint32_t n) { return entry.first < n; });
  if (it != relations_.end() && it->first == name) return it->second;
  it = relations_.insert(it, {name, TupleSet()});
  return it->second;
}

const TupleSet* Instance::FindSet(uint32_t name) const {
  auto it = std::lower_bound(
      relations_.begin(), relations_.end(), name,
      [](const auto& entry, uint32_t n) { return entry.first < n; });
  if (it != relations_.end() && it->first == name) return &it->second;
  return nullptr;
}

Instance::Instance(std::initializer_list<Fact> facts) {
  for (const Fact& f : facts) Insert(f);
}

bool Instance::Insert(const Fact& fact) {
  TupleSet& tuples = SetOf(fact.relation);
  bool inserted = tuples.InsertUnique(fact.args);
  if (inserted) ++size_;
  return inserted;
}

bool Instance::Insert(Fact&& fact) {
  TupleSet& tuples = SetOf(fact.relation);
  bool inserted = tuples.InsertUnique(std::move(fact.args));
  if (inserted) ++size_;
  return inserted;
}

size_t Instance::InsertSorted(uint32_t rel, const std::vector<Tuple>& sorted) {
  if (sorted.empty()) return 0;  // never leave an empty relation entry behind
  TupleSet& tuples = SetOf(rel);
  std::vector<Tuple>& vec = tuples.tuples_;
  size_t before = vec.size();
  if (vec.empty() || vec.back() < sorted.front()) {
    // Pure append: the common bulk-build case (fresh relation, or a sorted
    // run extending past the current maximum). Skip adjacent duplicates.
    vec.reserve(before + sorted.size());
    for (const Tuple& t : sorted) {
      if (!vec.empty() && !(vec.back() < t)) continue;
      vec.push_back(t);
    }
    size_t added = vec.size() - before;
    size_ += added;
    return added;
  }

  // Linear merge in place. Tuples below the run's first value stay put.
  // Count the run's new tuples, grow the vector once, then merge from the
  // back so every stored tuple moves at most once: O(n + m) instead of a
  // shift per inserted tuple. A run that adds nothing (or fits the spare
  // capacity) allocates nothing.
  const size_t lo = static_cast<size_t>(
      std::lower_bound(vec.begin(), vec.end(), sorted.front()) - vec.begin());
  size_t fresh = 0;
  {
    size_t i = lo;
    const Tuple* prev = nullptr;
    for (const Tuple& t : sorted) {
      if (prev != nullptr && !(*prev < t)) continue;  // repeated in the run
      prev = &t;
      while (i < before && vec[i] < t) ++i;
      if (i == before || t < vec[i]) ++fresh;
    }
  }
  if (fresh == 0) return 0;
  vec.resize(before + fresh);
  // out - i is the number of new tuples still to place; once it reaches 0,
  // everything below `i` is already where it belongs.
  size_t out = before + fresh;
  size_t i = before;
  size_t j = sorted.size();
  while (out > i) {
    const Tuple& t = sorted[j - 1];
    if (j < sorted.size() && t == sorted[j]) {
      --j;  // repeated in the run
    } else if (i > lo && t < vec[i - 1]) {
      vec[--out] = std::move(vec[--i]);
    } else if (i > lo && t == vec[i - 1]) {
      --j;  // already stored
    } else {
      vec[--out] = t;
      --j;
    }
  }
  size_ += fresh;
  return fresh;
}

size_t Instance::InsertSorted(uint32_t rel, std::vector<Tuple>&& sorted) {
  if (sorted.empty()) return 0;  // never leave an empty relation entry behind
  TupleSet& tuples = SetOf(rel);
  if (!tuples.tuples_.empty()) return InsertSorted(rel, sorted);
  tuples.tuples_ = std::move(sorted);
  std::vector<Tuple>& vec = tuples.tuples_;
  vec.erase(std::unique(vec.begin(), vec.end()), vec.end());
  size_ += vec.size();
  return vec.size();
}

size_t Instance::InsertSortedUnique(uint32_t rel, std::vector<Tuple>&& sorted) {
  if (sorted.empty()) return 0;  // never leave an empty relation entry behind
  TupleSet& tuples = SetOf(rel);
  if (!tuples.tuples_.empty()) return InsertSorted(rel, sorted);
  tuples.tuples_ = std::move(sorted);
  size_ += tuples.tuples_.size();
  return tuples.tuples_.size();
}

size_t Instance::InsertSortedFacts(const std::vector<Fact>& sorted) {
  size_t added = 0;
  size_t i = 0;
  std::vector<Tuple> run;
  while (i < sorted.size()) {
    uint32_t rel = sorted[i].relation;
    run.clear();
    while (i < sorted.size() && sorted[i].relation == rel) {
      run.push_back(sorted[i].args);
      ++i;
    }
    added += InsertSorted(rel, run);
  }
  return added;
}

size_t Instance::InsertAll(const Instance& other) {
  size_t added = 0;
  for (const auto& [name, tuples] : other.relations_) {
    added += InsertSorted(name, tuples.tuples_);
  }
  return added;
}

bool Instance::Erase(const Fact& fact) {
  auto it = std::lower_bound(
      relations_.begin(), relations_.end(), fact.relation,
      [](const auto& entry, uint32_t n) { return entry.first < n; });
  if (it == relations_.end() || it->first != fact.relation) return false;
  if (!it->second.EraseOne(fact.args)) return false;
  --size_;
  if (it->second.empty()) relations_.erase(it);
  return true;
}

bool Instance::Contains(const Fact& fact) const {
  const TupleSet* tuples = FindSet(fact.relation);
  return tuples != nullptr && tuples->contains(fact.args);
}

const TupleSet& Instance::TuplesOf(uint32_t name) const {
  const TupleSet* tuples = FindSet(name);
  return tuples != nullptr ? *tuples : EmptyTuples();
}

std::vector<uint32_t> Instance::RelationNames() const {
  std::vector<uint32_t> out;
  out.reserve(relations_.size());
  for (const auto& [name, tuples] : relations_) {
    if (!tuples.empty()) out.push_back(name);
  }
  return out;
}

std::vector<Fact> Instance::AllFacts() const {
  std::vector<Fact> out;
  out.reserve(size_);
  ForEachFact([&](uint32_t name, const Tuple& t) { out.emplace_back(name, t); });
  return out;
}

std::set<Value> Instance::ActiveDomain() const {
  std::set<Value> out;
  ForEachFact([&](uint32_t, const Tuple& t) {
    for (Value v : t) out.insert(v);
  });
  return out;
}

Instance Instance::Restrict(const Schema& schema) const {
  Instance out;
  for (const auto& [name, tuples] : relations_) {
    uint32_t arity = schema.ArityOf(name);
    if (arity == 0) continue;
    for (const Tuple& t : tuples) {
      if (t.size() == arity) out.Insert(Fact(name, t));
    }
  }
  return out;
}

bool Instance::IsOver(const Schema& schema) const {
  for (const auto& [name, tuples] : relations_) {
    uint32_t arity = schema.ArityOf(name);
    if (arity == 0 && !tuples.empty()) return false;
    for (const Tuple& t : tuples) {
      if (t.size() != arity) return false;
    }
  }
  return true;
}

Instance Instance::Union(const Instance& a, const Instance& b) {
  Instance out = a;
  out.InsertAll(b);
  return out;
}

Instance Instance::Difference(const Instance& a, const Instance& b) {
  Instance out;
  a.ForEachFact([&](uint32_t name, const Tuple& t) {
    Fact f(name, t);
    if (!b.Contains(f)) out.Insert(std::move(f));
  });
  return out;
}

bool Instance::IsSubsetOf(const Instance& other) const {
  if (size_ > other.size_) return false;
  for (const auto& [name, tuples] : relations_) {
    const TupleSet& theirs = other.TuplesOf(name);
    for (const Tuple& t : tuples) {
      if (!theirs.contains(t)) return false;
    }
  }
  return true;
}

std::string Instance::ToString() const {
  std::string out = "{";
  bool first = true;
  ForEachFact([&](uint32_t name, const Tuple& t) {
    if (!first) out += ", ";
    first = false;
    out += FactToString(Fact(name, t));
  });
  out += "}";
  return out;
}

bool FactDomainDistinctFrom(const Fact& f, const std::set<Value>& adom_i) {
  for (Value v : f.args) {
    if (adom_i.count(v) == 0) return true;  // contains a new element
  }
  return false;
}

bool FactDomainDisjointFrom(const Fact& f, const std::set<Value>& adom_i) {
  for (Value v : f.args) {
    if (adom_i.count(v) > 0) return false;
  }
  return true;
}

bool IsDomainDistinctFrom(const Instance& j, const Instance& i) {
  std::set<Value> adom_i = i.ActiveDomain();
  bool ok = true;
  j.ForEachFact([&](uint32_t name, const Tuple& t) {
    if (!FactDomainDistinctFrom(Fact(name, t), adom_i)) ok = false;
  });
  return ok;
}

bool IsDomainDisjointFrom(const Instance& j, const Instance& i) {
  std::set<Value> adom_i = i.ActiveDomain();
  bool ok = true;
  j.ForEachFact([&](uint32_t name, const Tuple& t) {
    if (!FactDomainDisjointFrom(Fact(name, t), adom_i)) ok = false;
  });
  return ok;
}

bool IsInducedSubinstance(const Instance& j, const Instance& i) {
  if (!j.IsSubsetOf(i)) return false;
  std::set<Value> adom_j = j.ActiveDomain();
  bool induced = true;
  i.ForEachFact([&](uint32_t name, const Tuple& t) {
    bool within = std::all_of(t.begin(), t.end(),
                              [&](Value v) { return adom_j.count(v) > 0; });
    if (within && !j.Contains(Fact(name, t))) induced = false;
  });
  return induced;
}

Instance ApplyValueMap(const Instance& in, const std::map<Value, Value>& map) {
  Instance out;
  in.ForEachFact([&](uint32_t name, const Tuple& t) {
    Tuple mapped = t;
    for (Value& v : mapped) {
      auto it = map.find(v);
      if (it != map.end()) v = it->second;
    }
    out.Insert(Fact(name, std::move(mapped)));
  });
  return out;
}

}  // namespace calm

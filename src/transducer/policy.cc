#include "transducer/policy.h"

namespace calm::transducer {

std::map<Value, Instance> Distribute(const DistributionPolicy& policy,
                                     const Network& network,
                                     const Instance& input) {
  std::map<Value, Instance> out;
  for (Value node : network) out[node];  // every node gets a (maybe empty) slot
  input.ForEachFact([&](uint32_t name, const Tuple& t) {
    Fact f(name, t);
    for (Value node : policy.NodesFor(f)) out[node].Insert(f);
  });
  return out;
}

namespace {
// Intern-order-independent fact hash. FactHash{} hashes the interned
// relation id, which depends on the order relations were first named in
// *this process* — fine inside one run, but a distribution policy must
// place facts identically across processes, or a recorded divergence trace
// replayed in a fresh binary silently redistributes the input and stops
// being deterministic. Hash the relation's name and the symbol names
// instead; integer payloads are stable as-is.
size_t StableValueHash(Value v) {
  if (v.is_symbol()) return std::hash<std::string>{}(NameOf(v.payload()));
  return std::hash<uint64_t>{}(v.payload());
}

size_t HashFact(const Fact& f, uint64_t salt) {
  size_t h = std::hash<std::string>{}(NameOf(f.relation));
  for (Value v : f.args) h = HashCombine(h, StableValueHash(v));
  return HashCombine(h, std::hash<uint64_t>{}(salt));
}
}  // namespace

std::set<Value> HashPolicy::NodesFor(const Fact& fact) const {
  return {network_[HashFact(fact, salt_) % network_.size()]};
}

std::set<Value> HashDomainGuidedPolicy::NodesForValue(Value value) const {
  size_t h =
      HashCombine(std::hash<Value>{}(value), std::hash<uint64_t>{}(salt_));
  return {network_[h % network_.size()]};
}

std::set<Value> HashDomainGuidedPolicy::NodesFor(const Fact& fact) const {
  std::set<Value> out;
  for (Value v : fact.args) {
    for (Value n : NodesForValue(v)) out.insert(n);
  }
  return out;
}

std::set<Value> MapDomainGuidedPolicy::NodesForValue(Value value) const {
  auto it = alpha_.find(value);
  if (it != alpha_.end()) return it->second;
  return {fallback_};
}

std::set<Value> MapDomainGuidedPolicy::NodesFor(const Fact& fact) const {
  std::set<Value> out;
  for (Value v : fact.args) {
    for (Value n : NodesForValue(v)) out.insert(n);
  }
  return out;
}

}  // namespace calm::transducer

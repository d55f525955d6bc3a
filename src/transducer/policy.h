#ifndef CALM_TRANSDUCER_POLICY_H_
#define CALM_TRANSDUCER_POLICY_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "base/fact.h"
#include "base/instance.h"
#include "base/value.h"

namespace calm::transducer {

// A network is a finite nonempty set of nodes; nodes are domain values
// (Section 4.1.1), so node identifiers can occur as data.
using Network = std::vector<Value>;

// A distribution policy P for a schema and network: a total function from
// facts to nonempty node sets. dist_P(I) gives node x the facts f with
// x in P(f).
class DistributionPolicy {
 public:
  virtual ~DistributionPolicy() = default;

  // Must return a nonempty subset of the network.
  virtual std::set<Value> NodesFor(const Fact& fact) const = 0;

  // Domain-guided policies (Section 4.1.1) additionally admit a domain
  // assignment alpha with P(R(a1..ak)) = union of alpha(ai).
  virtual bool is_domain_guided() const { return false; }

  // alpha(value); only meaningful when is_domain_guided().
  virtual std::set<Value> NodesForValue(Value value) const {
    (void)value;
    return {};
  }

  virtual std::string name() const = 0;
};

// dist_P(I): node -> local fragment.
std::map<Value, Instance> Distribute(const DistributionPolicy& policy,
                                     const Network& network,
                                     const Instance& input);

// Hashes the whole fact to a single node (the typical hash-partitioned
// cluster; not domain-guided).
class HashPolicy : public DistributionPolicy {
 public:
  explicit HashPolicy(Network network, uint64_t salt = 0)
      : network_(std::move(network)), salt_(salt) {}
  std::set<Value> NodesFor(const Fact& fact) const override;
  std::string name() const override { return "hash"; }

 private:
  Network network_;
  uint64_t salt_;
};

// Domain-guided policy from a hash-based domain assignment: alpha(a) = the
// node a hashes to. P(R(a1..ak)) = union of alpha(ai) (Example 4.1's P2).
class HashDomainGuidedPolicy : public DistributionPolicy {
 public:
  explicit HashDomainGuidedPolicy(Network network, uint64_t salt = 0)
      : network_(std::move(network)), salt_(salt) {}
  std::set<Value> NodesFor(const Fact& fact) const override;
  bool is_domain_guided() const override { return true; }
  std::set<Value> NodesForValue(Value value) const override;
  std::string name() const override { return "domain-hash"; }

 private:
  Network network_;
  uint64_t salt_;
};

// The proofs' "ideal" policy: every fact (equivalently every domain value)
// is assigned to the single node `target`. Domain-guided by construction.
class AllToOnePolicy : public DistributionPolicy {
 public:
  explicit AllToOnePolicy(Value target) : target_(target) {}
  std::set<Value> NodesFor(const Fact&) const override { return {target_}; }
  bool is_domain_guided() const override { return true; }
  std::set<Value> NodesForValue(Value) const override { return {target_}; }
  std::string name() const override { return "all-to-one"; }

 private:
  Value target_;
};

// Explicit overrides on top of a base policy; used to replay the proof of
// Theorem 4.3 (P2 sends the facts of J to node y, everything else per P1).
class OverridePolicy : public DistributionPolicy {
 public:
  OverridePolicy(const DistributionPolicy* base,
                 std::map<Fact, std::set<Value>> overrides)
      : base_(base), overrides_(std::move(overrides)) {}
  std::set<Value> NodesFor(const Fact& fact) const override {
    auto it = overrides_.find(fact);
    return it != overrides_.end() ? it->second : base_->NodesFor(fact);
  }
  std::string name() const override { return "override+" + base_->name(); }

 private:
  const DistributionPolicy* base_;
  std::map<Fact, std::set<Value>> overrides_;
};

// Domain assignment given explicitly per value, with a hash fallback; used
// to replay the proof of Theorem 4.5 (assign adom(J) to y, the rest to x).
class MapDomainGuidedPolicy : public DistributionPolicy {
 public:
  MapDomainGuidedPolicy(Network network, std::map<Value, std::set<Value>> alpha,
                        Value fallback)
      : network_(std::move(network)),
        alpha_(std::move(alpha)),
        fallback_(fallback) {}
  std::set<Value> NodesFor(const Fact& fact) const override;
  bool is_domain_guided() const override { return true; }
  std::set<Value> NodesForValue(Value value) const override;
  std::string name() const override { return "domain-map"; }

 private:
  Network network_;
  std::map<Value, std::set<Value>> alpha_;
  Value fallback_;
};

}  // namespace calm::transducer

#endif  // CALM_TRANSDUCER_POLICY_H_

#include "transducer/network.h"

#include <algorithm>
#include <iterator>
#include <set>

#include "base/metrics.h"
#include "base/trace.h"

namespace calm::transducer {

namespace {

// Appends every value occurring in `instance` to `out` (unsorted, repeats).
void AppendValues(const Instance& instance, std::vector<Value>* out) {
  instance.ForEachFact([&](uint32_t, const Tuple& t) {
    out->insert(out->end(), t.begin(), t.end());
  });
}

void SortUnique(std::vector<Value>* values) {
  std::sort(values->begin(), values->end());
  values->erase(std::unique(values->begin(), values->end()), values->end());
}

// Merges the values of `facts` into the ascending `domain`.
void AddValues(const Instance& facts, std::vector<Value>* domain) {
  std::vector<Value> fresh;
  facts.ForEachFact([&](uint32_t, const Tuple& t) {
    for (Value v : t) {
      if (!std::binary_search(domain->begin(), domain->end(), v)) {
        fresh.push_back(v);
      }
    }
  });
  if (fresh.empty()) return;
  SortUnique(&fresh);
  std::vector<Value> merged;
  merged.reserve(domain->size() + fresh.size());
  std::merge(domain->begin(), domain->end(), fresh.begin(), fresh.end(),
             std::back_inserter(merged));
  domain->swap(merged);
}

}  // namespace

const char* NetworkSemanticsName(NetworkSemantics semantics) {
  switch (semantics) {
    case NetworkSemantics::kAsync:
      return "async";
    case NetworkSemantics::kBsp:
      return "bsp";
  }
  return "unknown";
}

TransducerNetwork::TransducerNetwork(Network nodes,
                                     const Transducer* transducer,
                                     const DistributionPolicy* policy,
                                     ModelOptions model)
    : nodes_(std::move(nodes)),
      transducer_(transducer),
      policy_(policy),
      model_(model) {}

Status TransducerNetwork::Initialize(const Instance& input) {
  if (nodes_.empty()) return InvalidArgumentError("network has no nodes");
  CALM_RETURN_IF_ERROR(transducer_->schema().Validate(model_));
  if (!input.IsOver(transducer_->schema().in)) {
    return InvalidArgumentError("input is not over the transducer's Yin");
  }
  local_inputs_ = Distribute(*policy_, nodes_, input);
  states_.clear();
  for (Value n : nodes_) states_[n];
  node_domains_.assign(nodes_.size(), {});
  for (size_t i = 0; i < nodes_.size(); ++i) RecomputeNodeDomain(i);
  system_cache_.assign(nodes_.size(), SystemCache());
  policy_relations_.clear();
  for (const RelationDecl& r : transducer_->schema().in.relations()) {
    policy_relations_.push_back(PolicyRelationId(r.name));
  }
  memos_.assign(nodes_.size(), EvalMemo());
  node_transitions_.clear();
  buffers_.assign(nodes_.size(), net::MessageBuffer());
  staged_.assign(nodes_.size(), {});
  recovery_.assign(nodes_.size(), Instance());
  stats_ = net::RunStats();
  last_step_changed_ = false;
  tick_ = 0;
  if (faults_ != nullptr) faults_->BindNetwork(nodes_.size());
  return Status::Ok();
}

void TransducerNetwork::set_fault_plan(net::FaultPlan* faults) {
  faults_ = faults;
  if (faults_ != nullptr) faults_->BindNetwork(nodes_.size());
}

void TransducerNetwork::Inject(const net::FaultPlan::Delivery& delivery) {
  net::MessageBuffer& buffer = buffers_[delivery.receiver];
  if (delivery.has_position) {
    buffer.InsertAt(delivery.position, delivery.fact, tick_);
  } else {
    buffer.Add(delivery.fact, tick_);
  }
  ++stats_.messages_sent;
}

size_t TransducerNetwork::IndexOf(Value node) const {
  auto it = std::find(nodes_.begin(), nodes_.end(), node);
  return static_cast<size_t>(it - nodes_.begin());
}

const Instance& TransducerNetwork::local_input(Value node) const {
  return local_inputs_.at(node);
}
const Instance& TransducerNetwork::state(Value node) const {
  return states_.at(node);
}
const net::MessageBuffer& TransducerNetwork::buffer(Value node) const {
  return buffers_.at(IndexOf(node));
}
net::MessageBuffer& TransducerNetwork::mutable_buffer(Value node) {
  return buffers_.at(IndexOf(node));
}

Result<Instance> TransducerNetwork::SystemFactsFor(
    Value node, const Instance& delivered) const {
  size_t index = IndexOf(node);
  if (index >= nodes_.size()) return InvalidArgumentError("unknown node");

  // J = H(x) + s(x) + M; A = N + adom(J), or {x} + adom(J) without All.
  Instance j = local_inputs_.at(node);
  j.InsertAll(states_.at(node));
  j.InsertAll(delivered);
  std::set<Value> a = j.ActiveDomain();
  if (model_.expose_all) {
    for (Value n : nodes_) a.insert(n);
  } else {
    a.insert(node);
  }
  return BuildSystemFacts(index, std::vector<Value>(a.begin(), a.end()),
                          /*per_value=*/false);
}

Instance TransducerNetwork::BuildSystemFacts(size_t index,
                                             const std::vector<Value>& a,
                                             bool per_value) const {
  const Value node = nodes_[index];
  Instance s;
  if (model_.expose_id) s.Insert(Fact(IdRelation(), {node}));
  if (model_.expose_all) {
    for (Value n : nodes_) s.Insert(Fact(AllRelation(), {n}));
  }
  if (!model_.policy_aware || a.empty()) return s;
  std::vector<Tuple> tuples;
  tuples.reserve(a.size());
  for (Value v : a) tuples.push_back(Tuple{v});
  s.InsertSortedUnique(MyAdomRelation(), std::move(tuples));
  // owned[i]: node is in alpha(a[i]). Under a domain-guided policy
  // P(R(a1..ak)) is the union of the alpha(ai).
  std::vector<char> owned;
  if (per_value) {
    owned.resize(a.size());
    for (size_t i = 0; i < a.size(); ++i) {
      owned[i] = policy_->NodesForValue(a[i]).count(node) > 0;
    }
  }
  // policy_R(a1..ak) for every tuple over A that this node is responsible
  // for ("safe" access to the distribution policy), enumerated in ascending
  // order so each relation is one bulk insert.
  const std::vector<RelationDecl> relations =
      transducer_->schema().in.relations();
  for (size_t r = 0; r < relations.size(); ++r) {
    const uint32_t arity = relations[r].arity;
    tuples.clear();
    std::vector<size_t> idx(arity, 0);
    auto tuple_at = [&] {
      Tuple t;
      t.reserve(arity);
      for (size_t i : idx) t.push_back(a[i]);
      return t;
    };
    while (true) {
      if (per_value) {
        if (std::any_of(idx.begin(), idx.end(),
                        [&](size_t i) { return owned[i] != 0; })) {
          tuples.push_back(tuple_at());
        }
      } else {
        Tuple t = tuple_at();
        if (policy_->NodesFor(Fact(relations[r].name, t)).count(node) > 0) {
          tuples.push_back(std::move(t));
        }
      }
      size_t pos = arity;
      bool done = false;
      while (pos > 0) {
        --pos;
        if (++idx[pos] < a.size()) break;
        idx[pos] = 0;
        if (pos == 0) done = true;
      }
      if (done) break;
    }
    s.InsertSortedUnique(policy_relations_[r], std::move(tuples));
  }
  return s;
}

const Instance& TransducerNetwork::CachedSystemFacts(
    size_t index, const Instance& delivered, bool* rebuilt) {
  // A = adom(H(x) + s(x)) + adom(M) + (N, or {x} without All), from the
  // node's maintained domain, without materializing J. Outside the
  // policy-aware model the facts (Id, All) do not read A; it stays empty.
  std::vector<Value> a;
  if (model_.policy_aware) {
    std::vector<Value> extra;
    AppendValues(delivered, &extra);
    if (model_.expose_all) {
      extra.insert(extra.end(), nodes_.begin(), nodes_.end());
    } else {
      extra.push_back(nodes_[index]);
    }
    SortUnique(&extra);
    const std::vector<Value>& domain = node_domains_[index];
    a.reserve(domain.size() + extra.size());
    std::set_union(domain.begin(), domain.end(), extra.begin(), extra.end(),
                   std::back_inserter(a));
  }
  SystemCache& cache = system_cache_[index];
  *rebuilt = !cache.valid || a != cache.domain;
  if (*rebuilt) {
    cache.facts = BuildSystemFacts(index, a, policy_->is_domain_guided());
    cache.domain = std::move(a);
    cache.valid = true;
  }
  return cache.facts;
}

Status TransducerNetwork::StepNode(Value node,
                                   const std::vector<size_t>& delivery_indices) {
  size_t index = IndexOf(node);
  if (index >= nodes_.size()) return InvalidArgumentError("unknown node");
  if (semantics_ == NetworkSemantics::kBsp && faults_ != nullptr) {
    return InvalidArgumentError(
        "BSP semantics model a perfect network; detach the fault plan");
  }

  ++tick_;
  TraceSpan span("net.step");
  span.Arg("node", static_cast<int64_t>(index));
  span.Arg("tick", static_cast<int64_t>(tick_));
  bool external_change = false;
  Instance delivered;
  {
    TraceSpan deliver_span("net.deliver");
    // Fault channel first: crash-restarts and messages due for (re)delivery
    // land before the step observes its buffer. Redeliveries only append,
    // so delivery indices chosen by the scheduler before this call stay
    // valid.
    if (faults_ != nullptr) {
      std::vector<net::FaultPlan::Delivery> due;
      std::vector<size_t> crashes;
      faults_->BeginTransition(tick_, &due, &crashes);
      for (size_t crashed : crashes) {
        if (crashed >= nodes_.size()) {
          return InvalidArgumentError(
              "fault plan crashed unknown node index " +
              std::to_string(crashed));
        }
        // Crash-restart: state back to the start configuration. The local
        // input is re-delivered by construction (local_inputs_ is intact)
        // and the in-flight buffer is preserved. The durable inbox is
        // staged for one *atomic* recovery delivery at the node's next
        // transition — routing it through the buffer would let the
        // scheduler split it, breaking causal order between the replayed
        // facts.
        states_.at(nodes_[crashed]).clear();
        RecomputeNodeDomain(crashed);
        memos_[crashed] = EvalMemo();
        recovery_[crashed].InsertAll(faults_->InboxOf(crashed));
        external_change = true;
      }
      for (const net::FaultPlan::Delivery& d : due) {
        if (d.receiver >= nodes_.size()) {
          return InvalidArgumentError(
              "fault plan redelivered to unknown node index " +
              std::to_string(d.receiver));
        }
        Inject(d);
        external_change = true;
      }
    }

    // Reject malformed delivery choices (a buggy scheduler or fault plan)
    // before they reach MessageBuffer::TakeCollapsed, which assumes them.
    const std::vector<net::MessageBuffer::Entry>& entries =
        buffers_[index].entries();
    for (size_t i = 0; i < delivery_indices.size(); ++i) {
      if (delivery_indices[i] >= entries.size()) {
        return InvalidArgumentError(
            "delivery index " + std::to_string(delivery_indices[i]) +
            " out of range for node buffer of size " +
            std::to_string(entries.size()));
      }
      if (i > 0 && delivery_indices[i] <= delivery_indices[i - 1]) {
        return InvalidArgumentError(
            "delivery indices not strictly increasing: index " +
            std::to_string(delivery_indices[i]) + " follows " +
            std::to_string(delivery_indices[i - 1]));
      }
    }

    delivered = buffers_[index].TakeCollapsed(delivery_indices);
    stats_.messages_delivered += delivery_indices.size();
    if (faults_ != nullptr && !recovery_[index].empty()) {
      // Atomic write-ahead-log replay: everything the node consumed before
      // its crash arrives as one delivery, preserving causal order.
      delivered.InsertAll(recovery_[index]);
      recovery_[index].clear();
      external_change = true;
    }
    if (faults_ != nullptr && !delivered.empty()) {
      faults_->OnDeliver(index, delivered);
    }
  }

  const Instance* system = nullptr;
  bool system_rebuilt = false;
  {
    TraceSpan system_span("net.system_facts");
    system = &CachedSystemFacts(index, delivered, &system_rebuilt);
  }

  EvalMemo& memo = memos_[index];
  StepOutput out;
  {
    TraceSpan step_span("transducer.step");
    StepInput in{local_inputs_.at(node), states_.at(node), delivered, *system,
                 &memo};
    CALM_ASSIGN_OR_RETURN(out, transducer_->Step(in));
  }
  const uint64_t memo_hits = memo.hits;
  const uint64_t memo_misses = memo.misses;
  memo.hits = memo.misses = 0;

  const TransducerSchema& schema = transducer_->schema();
  if (!out.output.IsOver(schema.out) || !out.insertions.IsOver(schema.mem) ||
      !out.deletions.IsOver(schema.mem) || !out.sends.IsOver(schema.msg)) {
    return InternalError("transducer '" + transducer_->name() +
                         "' produced facts outside its target schemas");
  }

  size_t output_added = 0;
  size_t mem_added = 0;
  size_t erased = 0;
  {
    TraceSpan apply_span("net.apply");
    Instance& state = states_.at(node);
    // Output facts accumulate and are never retracted.
    output_added = state.InsertAll(out.output);
    // Memory: add ins \ del, remove del \ ins. The state changed iff some
    // insert or erase took effect: out and mem are disjoint (Validate) and
    // so are add and remove, so no fact is both added and removed. Without
    // deletions, add is ins itself.
    Instance add;
    const Instance* added = &out.insertions;
    if (out.deletions.empty()) {
      mem_added = state.InsertAll(out.insertions);
    } else {
      add = Instance::Difference(out.insertions, out.deletions);
      Instance remove = Instance::Difference(out.deletions, out.insertions);
      added = &add;
      mem_added = state.InsertAll(add);
      remove.ForEachFact([&](uint32_t name, const Tuple& t) {
        if (state.Erase(Fact(name, t))) ++erased;
      });
    }
    if (model_.policy_aware) {
      // Insertions only add values to adom(s(x)); an erase may drop one.
      if (erased > 0) {
        RecomputeNodeDomain(index);
      } else {
        if (output_added > 0) AddValues(out.output, &node_domains_[index]);
        if (mem_added > 0) AddValues(*added, &node_domains_[index]);
      }
    }
  }

  // Sends go to every other node's buffer (multiset union), through the
  // fault channel when one is attached. A held (dropped / partitioned) send
  // produces no immediate insertion; it reappears via BeginTransition.
  // Under kBsp sends are staged instead: they reach the buffers only at the
  // superstep barrier, so superstep k's sends deliver exactly at k + 1.
  size_t fanout = 0;
  {
    TraceSpan send_span("net.send");
    std::vector<net::FaultPlan::Delivery> deliveries;
    out.sends.ForEachFact([&](uint32_t name, const Tuple& t) {
      for (size_t y = 0; y < nodes_.size(); ++y) {
        if (y == index) continue;
        if (semantics_ == NetworkSemantics::kBsp) {
          staged_[y].push_back(Fact(name, t));
          ++stats_.messages_sent;
          ++fanout;
        } else if (faults_ != nullptr) {
          deliveries.clear();
          faults_->OnSend(index, y, Fact(name, t), tick_, &deliveries);
          for (const net::FaultPlan::Delivery& d : deliveries) {
            Inject(d);
            ++fanout;
          }
        } else {
          buffers_[y].Add(Fact(name, t), tick_);
          ++stats_.messages_sent;
          ++fanout;
        }
      }
    });
  }

  ++stats_.transitions;
  if (delivery_indices.empty()) ++stats_.heartbeats;
  last_step_changed_ =
      output_added + mem_added + erased > 0 || fanout > 0 || external_change;

  {
    TraceSpan recount_span("net.output_recount");
    // output_facts is a running maximum of |GlobalOutput()|, which can only
    // grow when this node gained output facts: no other state changed, and
    // a crash-restart only shrinks states.
    if (output_added > 0) {
      size_t out_size = GlobalOutputSize();
      if (out_size > stats_.output_facts) {
        stats_.output_facts = out_size;
        stats_.output_complete_at = stats_.transitions;
      }
    }
  }

  if (span.active()) {
    span.Arg("delivered", static_cast<int64_t>(delivery_indices.size()));
    span.Arg("sent", static_cast<int64_t>(fanout));
    span.Arg("changed", last_step_changed_ ? 1 : 0);
  }
  if (MetricsEnabled()) {
    MetricRegistry& registry = MetricRegistry::Global();
    static Counter& transitions = registry.GetCounter("calm.net.transitions");
    static Counter& delivered_count =
        registry.GetCounter("calm.net.messages_delivered");
    static Counter& sent_count = registry.GetCounter("calm.net.messages_sent");
    static Counter& heartbeats = registry.GetCounter("calm.net.heartbeats");
    static Counter& system_fact_builds =
        registry.GetCounter("calm.net.system_fact_builds");
    static Counter& memo_hit_count =
        registry.GetCounter("calm.transducer.memo_hits");
    static Counter& memo_miss_count =
        registry.GetCounter("calm.transducer.memo_misses");
    transitions.Increment();
    delivered_count.Increment(delivery_indices.size());
    sent_count.Increment(fanout);
    if (delivery_indices.empty()) heartbeats.Increment();
    if (system_rebuilt) system_fact_builds.Increment();
    if (memo_hits > 0) memo_hit_count.Increment(memo_hits);
    if (memo_misses > 0) memo_miss_count.Increment(memo_misses);
    if (node_transitions_.empty()) {
      for (size_t i = 0; i < nodes_.size(); ++i) {
        node_transitions_.push_back(&registry.GetCounter(
            "calm.net.node_transitions", {{"node", std::to_string(i)}}));
      }
    }
    node_transitions_[index]->Increment();
  }
  return Status::Ok();
}

Instance TransducerNetwork::GlobalOutput() const {
  Instance out;
  for (const auto& [node, state] : states_) {
    out.InsertAll(state.Restrict(transducer_->schema().out));
  }
  return out;
}

size_t TransducerNetwork::GlobalOutputSize() const {
  // Per out relation, a k-way merge over the nodes' sorted tuple sets that
  // counts each distinct tuple once.
  using Run = std::pair<TupleSet::const_iterator, TupleSet::const_iterator>;
  std::vector<Run> runs;
  size_t total = 0;
  for (const RelationDecl& r : transducer_->schema().out.relations()) {
    runs.clear();
    for (const auto& [node, state] : states_) {
      const TupleSet& tuples = state.TuplesOf(r.name);
      if (!tuples.empty()) runs.emplace_back(tuples.begin(), tuples.end());
    }
    while (!runs.empty()) {
      const Tuple* least = &*runs[0].first;
      for (const Run& run : runs) {
        if (*run.first < *least) least = &*run.first;
      }
      // Advancing an iterator does not move the tuple `least` points at.
      const Tuple& t = *least;
      for (Run& run : runs) {
        if (*run.first == t) ++run.first;
      }
      ++total;
      runs.erase(std::remove_if(runs.begin(), runs.end(),
                                [](const Run& run) {
                                  return run.first == run.second;
                                }),
                 runs.end());
    }
  }
  return total;
}

void TransducerNetwork::RecomputeNodeDomain(size_t index) {
  std::vector<Value>& domain = node_domains_[index];
  domain.clear();
  if (!model_.policy_aware) return;
  AppendValues(local_inputs_.at(nodes_[index]), &domain);
  AppendValues(states_.at(nodes_[index]), &domain);
  SortUnique(&domain);
}

bool TransducerNetwork::BuffersEmpty() const {
  for (const net::MessageBuffer& b : buffers_) {
    if (!b.empty()) return false;
  }
  return true;
}

void TransducerNetwork::BspBarrier() {
  for (size_t y = 0; y < staged_.size(); ++y) {
    for (Fact& fact : staged_[y]) {
      buffers_[y].Add(std::move(fact), tick_);
    }
    staged_[y].clear();
  }
}

size_t TransducerNetwork::StagedCount() const {
  size_t n = 0;
  for (const std::vector<Fact>& s : staged_) n += s.size();
  return n;
}

bool TransducerNetwork::Idle() const {
  if (!BuffersEmpty()) return false;
  if (faults_ != nullptr && faults_->HasPendingMessages()) return false;
  if (StagedCount() > 0) return false;
  for (const Instance& pending : recovery_) {
    if (!pending.empty()) return false;
  }
  return true;
}

}  // namespace calm::transducer

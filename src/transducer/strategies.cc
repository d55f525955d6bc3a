#include "transducer/strategies.h"

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace calm::transducer {

namespace {

// Relation-name plumbing shared by the strategies: per input relation R we
// create renamed companions (message carrying R-facts, memory of received
// R-facts, markers). The maps go companion-id -> original-id and back.
struct RelMap {
  std::map<uint32_t, uint32_t> to_original;
  std::map<uint32_t, uint32_t> from_original;

  uint32_t Make(const std::string& prefix, uint32_t original) {
    uint32_t id = InternName(prefix + NameOf(original));
    to_original[id] = original;
    from_original[original] = id;
    return id;
  }
  uint32_t Of(uint32_t original) const { return from_original.at(original); }
};

// Adds `prefix + name(R)` relations (same arity + `extra`) to `target` for
// every relation of `in`, recording the mapping.
void AddCompanions(const Schema& in, const std::string& prefix, int extra,
                   Schema* target, RelMap* map) {
  for (const RelationDecl& r : in.relations()) {
    uint32_t id = map->Make(prefix, r.name);
    (void)target->AddRelation(
        RelationDecl(id, r.arity + static_cast<uint32_t>(extra)));
  }
}

// Adds relation `name`/`arity` to `schema`; returns its id.
uint32_t AddRelation(Schema* schema, const char* name, uint32_t arity) {
  const uint32_t id = InternName(name);
  (void)schema->AddRelation(RelationDecl(id, arity));
  return id;
}

// Collects input-relation facts stored under companion relations back into
// original-name facts: state[m_E(t)] -> E(t). Each relation is one sorted
// merge.
void DecodeInto(const Instance& store, const RelMap& map, Instance* out) {
  for (const auto& [companion, original] : map.to_original) {
    const TupleSet& tuples = store.TuplesOf(companion);
    out->InsertSorted(original,
                      std::vector<Tuple>(tuples.begin(), tuples.end()));
  }
}

// The node's own id from the system relation Id.
Value SelfId(const Instance& system) {
  const TupleSet& ids = system.TuplesOf(IdRelation());
  return ids.empty() ? Value() : (*ids.begin())[0];
}

// Q(known), reusing the node's memo when `known` equals its last input.
// A null memo evaluates every time; errors are returned and not memoized.
Result<Instance> EvalWithMemo(const Query& query, Instance known,
                              EvalMemo* memo) {
  if (memo == nullptr) return query.Eval(known);
  if (memo->valid && memo->input == known) {
    ++memo->hits;
    return memo->output;
  }
  ++memo->misses;
  Result<Instance> q = query.Eval(known);
  if (!q.ok()) return q;
  memo->input = std::move(known);
  memo->output = *q;
  memo->valid = true;
  return q;
}

// ---------------------------------------------------------------------------
// Broadcast strategy (M).
// ---------------------------------------------------------------------------

class BroadcastTransducer : public Transducer {
 public:
  explicit BroadcastTransducer(const Query* query) : query_(query) {
    schema_.in = query->input_schema();
    schema_.out = query->output_schema();
    AddCompanions(schema_.in, "m_", 0, &schema_.msg, &msg_);
    AddCompanions(schema_.in, "got_", 0, &schema_.mem, &got_);
    AddCompanions(schema_.in, "sent_", 0, &schema_.mem, &sent_);
  }

  const TransducerSchema& schema() const override { return schema_; }
  std::string name() const override { return "broadcast(" + query_->name() + ")"; }

  Result<StepOutput> Step(const StepInput& in) const override {
    StepOutput out;

    // Send every not-yet-broadcast local fact; mark it sent.
    in.local_input.ForEachFact([&](uint32_t rel, const Tuple& t) {
      Fact marker(sent_.Of(rel), t);
      if (!in.state.Contains(marker)) {
        out.sends.Insert(Fact(msg_.Of(rel), t));
        out.insertions.Insert(marker);
      }
    });

    // Store received facts.
    in.messages.ForEachFact([&](uint32_t rel, const Tuple& t) {
      out.insertions.Insert(Fact(got_.Of(msg_.to_original.at(rel)), t));
    });

    // Output Q over everything known (local + stored + just received).
    Instance known = in.local_input;
    DecodeInto(in.state, got_, &known);
    in.messages.ForEachFact([&](uint32_t rel, const Tuple& t) {
      known.Insert(Fact(msg_.to_original.at(rel), t));
    });
    Result<Instance> q = EvalWithMemo(*query_, std::move(known), in.memo);
    if (!q.ok()) return q.status();
    out.output = std::move(q).value();
    return out;
  }

 private:
  const Query* query_;
  TransducerSchema schema_;
  RelMap msg_, got_, sent_;
};

// ---------------------------------------------------------------------------
// Absence strategy (Mdistinct) — proof of Theorem 4.3.
// ---------------------------------------------------------------------------

class AbsenceTransducer : public Transducer {
 public:
  explicit AbsenceTransducer(const Query* query) : query_(query) {
    schema_.in = query->input_schema();
    schema_.out = query->output_schema();
    AddCompanions(schema_.in, "m_", 0, &schema_.msg, &msg_);
    AddCompanions(schema_.in, "a_", 0, &schema_.msg, &msg_abs_);
    AddCompanions(schema_.in, "got_", 0, &schema_.mem, &got_);
    AddCompanions(schema_.in, "abs_", 0, &schema_.mem, &abs_);
    AddCompanions(schema_.in, "sentf_", 0, &schema_.mem, &sent_fact_);
    AddCompanions(schema_.in, "senta_", 0, &schema_.mem, &sent_abs_);
    // Nodes advertise their own identifier so that, in the no-All model,
    // responsible nodes still learn every node id and can broadcast
    // absences of facts mentioning it (needed for completeness).
    nida_ = AddRelation(&schema_.msg, "nida", 1);
    nids_ = AddRelation(&schema_.mem, "nids", 1);
    sentid_ = AddRelation(&schema_.mem, "sentid", 1);
    in_relations_ = schema_.in.relations();
    for (const RelationDecl& r : in_relations_) {
      policy_.push_back(PolicyRelationId(r.name));
    }
  }

  const TransducerSchema& schema() const override { return schema_; }
  std::string name() const override { return "absence(" + query_->name() + ")"; }

  Result<StepOutput> Step(const StepInput& in) const override {
    StepOutput out;

    // Advertise own node id once (see constructor comment).
    Value self = SelfId(in.system);
    if (!in.state.Contains(Fact(sentid_, {self}))) {
      out.sends.Insert(Fact(nida_, {self}));
      out.insertions.Insert(Fact(sentid_, {self}));
      out.insertions.Insert(Fact(nids_, {self}));
    }

    // Broadcast local input facts once.
    in.local_input.ForEachFact([&](uint32_t rel, const Tuple& t) {
      Fact marker(sent_fact_.Of(rel), t);
      if (!in.state.Contains(marker)) {
        out.sends.Insert(Fact(msg_.Of(rel), t));
        out.insertions.Insert(marker);
      }
    });

    // Store received facts, absences, and node ids.
    in.messages.ForEachFact([&](uint32_t rel, const Tuple& t) {
      if (rel == nida_) {
        out.insertions.Insert(Fact(nids_, t));
        return;
      }
      auto fact_it = msg_.to_original.find(rel);
      if (fact_it != msg_.to_original.end()) {
        out.insertions.Insert(Fact(got_.Of(fact_it->second), t));
      }
      auto abs_it = msg_abs_.to_original.find(rel);
      if (abs_it != msg_abs_.to_original.end()) {
        out.insertions.Insert(Fact(abs_.Of(abs_it->second), t));
      }
    });

    // Facts and absences known after this step.
    Instance known = in.local_input;
    DecodeInto(in.state, got_, &known);
    Instance absent;
    DecodeInto(in.state, abs_, &absent);
    in.messages.ForEachFact([&](uint32_t rel, const Tuple& t) {
      auto fact_it = msg_.to_original.find(rel);
      if (fact_it != msg_.to_original.end()) {
        known.Insert(Fact(fact_it->second, t));
      }
      auto abs_it = msg_abs_.to_original.find(rel);
      if (abs_it != msg_abs_.to_original.end()) {
        absent.Insert(Fact(abs_it->second, t));
      }
    });

    // MyAdom values A (includes node ids and everything received).
    std::vector<Value> adom;
    for (const Tuple& t : in.system.TuplesOf(MyAdomRelation())) {
      adom.push_back(t[0]);
    }

    // Derive + broadcast absences: tuples over A that this node is
    // responsible for (policy_R present) but that are absent locally, and
    // check completeness: every tuple over A is known present or absent.
    bool complete = true;
    for (size_t i = 0; i < in_relations_.size(); ++i) {
      const RelationDecl& r = in_relations_[i];
      const TupleSet& policy = in.system.TuplesOf(policy_[i]);
      ForEachTuple(adom, r.arity, [&](const Tuple& t) {
        Fact fact(r.name, t);
        bool present = known.Contains(fact);
        bool known_absent = absent.Contains(fact);
        if (!present && !known_absent && policy.contains(t) &&
            !in.local_input.Contains(fact)) {
          // Responsible and locally missing => globally absent.
          known_absent = true;
          absent.Insert(fact);
          out.insertions.Insert(Fact(abs_.Of(r.name), t));
          Fact marker(sent_abs_.Of(r.name), t);
          if (!in.state.Contains(marker)) {
            out.sends.Insert(Fact(msg_abs_.Of(r.name), t));
            out.insertions.Insert(marker);
          }
        }
        if (!present && !known_absent) complete = false;
      });
    }

    if (complete) {
      Result<Instance> q = EvalWithMemo(*query_, std::move(known), in.memo);
      if (!q.ok()) return q.status();
      out.output = std::move(q).value();
    }
    return out;
  }

 private:
  // Invokes fn for every tuple over `values`^arity.
  template <typename Fn>
  static void ForEachTuple(const std::vector<Value>& values, uint32_t arity,
                           Fn&& fn) {
    if (values.empty()) return;
    std::vector<size_t> idx(arity, 0);
    while (true) {
      Tuple t;
      t.reserve(arity);
      for (size_t i : idx) t.push_back(values[i]);
      fn(t);
      size_t pos = arity;
      while (true) {
        if (pos == 0) return;
        --pos;
        if (++idx[pos] < values.size()) break;
        idx[pos] = 0;
      }
    }
  }

  const Query* query_;
  TransducerSchema schema_;
  RelMap msg_, msg_abs_, got_, abs_, sent_fact_, sent_abs_;
  uint32_t nida_ = 0, nids_ = 0, sentid_ = 0;
  std::vector<RelationDecl> in_relations_;
  std::vector<uint32_t> policy_;  // policy_R, aligned with in_relations_
};

// ---------------------------------------------------------------------------
// Domain-request strategy (Mdisjoint) — proof of Theorem 4.4.
// ---------------------------------------------------------------------------

// A served request is never served again. The strategy inserts sento(x, a)
// only in a step that holds or inserts the sx_R(x, t) marker of every local
// fact R(t) containing a; it never deletes, the local input never changes,
// and a crash-restart clears markers and sento alike. So once sento(x, a)
// is in state, serving (x, a) would send nothing and insert nothing.
class DomainRequestTransducer : public Transducer {
 public:
  explicit DomainRequestTransducer(const Query* query) : query_(query) {
    schema_.in = query->input_schema();
    schema_.out = query->output_schema();
    // Messages: adv(a); req(x, a); ok(x, a); per-R transfer x_R(x, t) and
    // ack k_R(x, t).
    adv_ = AddRelation(&schema_.msg, "adv", 1);
    req_ = AddRelation(&schema_.msg, "req", 2);
    ok_ = AddRelation(&schema_.msg, "ok", 2);
    AddCompanions(schema_.in, "x_", 1, &schema_.msg, &msg_xfer_);
    AddCompanions(schema_.in, "k_", 1, &schema_.msg, &msg_ack_);
    // Memory.
    vals_ = AddRelation(&schema_.mem, "vals", 1);    // known domain values
    senta_ = AddRelation(&schema_.mem, "senta", 1);  // advertised own values
    sentr_ = AddRelation(&schema_.mem, "sentr", 1);  // requested values
    okd_ = AddRelation(&schema_.mem, "okd", 1);      // values OK'd to me
    reqs_ = AddRelation(&schema_.mem, "reqs", 2);    // stored foreign requests
    sento_ = AddRelation(&schema_.mem, "sento", 2);  // ok(x, a) already sent
    AddCompanions(schema_.in, "got_", 0, &schema_.mem, &got_);
    AddCompanions(schema_.in, "sx_", 1, &schema_.mem, &sent_xfer_);
    AddCompanions(schema_.in, "ka_", 1, &schema_.mem, &acked_);
    AddCompanions(schema_.in, "sk_", 0, &schema_.mem, &sent_ack_);
    for (const RelationDecl& r : schema_.in.relations()) {
      rels_.push_back({r.name, r.arity, msg_xfer_.Of(r.name),
                       sent_xfer_.Of(r.name), acked_.Of(r.name),
                       PolicyRelationId(r.name)});
    }
  }

  const TransducerSchema& schema() const override { return schema_; }
  std::string name() const override {
    return "domain-request(" + query_->name() + ")";
  }

  Result<StepOutput> Step(const StepInput& in) const override {
    StepOutput out;
    Value self = SelfId(in.system);

    // -- Incorporate received messages into memory.
    in.messages.ForEachFact([&](uint32_t rel, const Tuple& t) {
      if (rel == adv_) {
        out.insertions.Insert(Fact(vals_, t));
      } else if (rel == req_) {
        out.insertions.Insert(Fact(reqs_, t));
      } else if (rel == ok_) {
        if (t[0] == self) out.insertions.Insert(Fact(okd_, {t[1]}));
      } else {
        auto xfer_it = msg_xfer_.to_original.find(rel);
        if (xfer_it != msg_xfer_.to_original.end() && t[0] == self) {
          Tuple bare(t.begin() + 1, t.end());
          out.insertions.Insert(Fact(got_.Of(xfer_it->second), bare));
        }
        auto ack_it = msg_ack_.to_original.find(rel);
        if (ack_it != msg_ack_.to_original.end()) {
          // Record the ack (any node may hold the matching transfer).
          out.insertions.Insert(Fact(acked_.Of(ack_it->second), t));
        }
      }
    });

    // -- Advertise own active domain once.
    for (Value v : in.local_input.ActiveDomain()) {
      if (!in.state.Contains(Fact(senta_, {v}))) {
        out.sends.Insert(Fact(adv_, {v}));
        out.insertions.Insert(Fact(senta_, {v}));
      }
    }

    // -- Acks for transfers received this step.
    in.messages.ForEachFact([&](uint32_t rel, const Tuple& t) {
      auto xfer_it = msg_xfer_.to_original.find(rel);
      if (xfer_it == msg_xfer_.to_original.end() || t[0] != self) return;
      Tuple bare(t.begin() + 1, t.end());
      Fact marker(sent_ack_.Of(xfer_it->second), bare);
      if (!in.state.Contains(marker)) {
        Tuple addressed = t;  // k_R(self, tuple): t already starts with self
        out.sends.Insert(Fact(msg_ack_.Of(xfer_it->second), addressed));
        out.insertions.Insert(marker);
      }
    });

    // The known values A (MyAdom, ascending) and the ones this node is
    // responsible for: a with some policy_R(a, ..., a) shown (proof of
    // Theorem 4.4). policy_R only holds tuples over A.
    std::vector<Value> known_values;
    std::vector<Value> owned;
    for (const Tuple& t : in.system.TuplesOf(MyAdomRelation())) {
      const Value v = t[0];
      known_values.push_back(v);
      for (const InRel& r : rels_) {
        if (in.system.TuplesOf(r.policy).contains(Tuple(r.arity, v))) {
          owned.push_back(v);
          break;
        }
      }
    }
    auto responsible = [&](Value v) {
      return std::binary_search(owned.begin(), owned.end(), v);
    };

    // -- Serve stored requests (including ones stored just now). Served
    // requests are skipped (see the class comment). The local input is
    // indexed by value on the first request that needs serving.
    std::vector<Holding> holdings;
    bool indexed = false;
    const TupleSet& sento = in.state.TuplesOf(sento_);
    auto serve = [&](const Tuple& rt) {
      const Value target = rt[0];
      const Value value = rt[1];
      if (target == self || !responsible(value) || sento.contains(rt)) return;
      if (!indexed) {
        IndexByValue(in.local_input, &holdings);
        indexed = true;
      }
      // Transfer every local fact containing `value` (once per target+fact),
      // then OK once all of them are acked.
      bool all_acked = true;
      auto first = std::lower_bound(
          holdings.begin(), holdings.end(), value,
          [](const Holding& h, Value v) { return h.value < v; });
      for (auto it = first; it != holdings.end() && it->value == value; ++it) {
        const InRel& r = rels_[it->rel];
        Tuple addressed;
        addressed.reserve(it->tuple->size() + 1);
        addressed.push_back(target);
        addressed.append(it->tuple->begin(), it->tuple->end());
        Fact sent_marker(r.sent_xfer, addressed);
        if (!in.state.Contains(sent_marker)) {
          out.sends.Insert(Fact(r.xfer, addressed));
          out.insertions.Insert(sent_marker);
        }
        Fact ack(r.acked, std::move(addressed));
        if (!in.state.Contains(ack) && !out.insertions.Contains(ack)) {
          all_acked = false;
        }
      }
      if (all_acked) {
        out.sends.Insert(Fact(ok_, rt));
        out.insertions.Insert(Fact(sento_, rt));
      }
    };
    const TupleSet& stored = in.state.TuplesOf(reqs_);
    for (const Tuple& rt : stored) serve(rt);
    for (const Tuple& rt : in.messages.TuplesOf(req_)) {
      if (!stored.contains(rt)) serve(rt);
    }

    // -- Issue requests for known values I am not responsible for.
    for (Value v : known_values) {
      if (responsible(v)) continue;
      if (in.state.Contains(Fact(sentr_, {v}))) continue;
      out.sends.Insert(Fact(req_, {self, v}));
      out.insertions.Insert(Fact(sentr_, {v}));
    }

    // -- Completeness: every known value is owned or OK'd.
    bool complete = true;
    auto okd = [&](Value v) {
      return in.state.Contains(Fact(okd_, {v})) ||
             out.insertions.Contains(Fact(okd_, {v}));
    };
    for (Value v : known_values) {
      if (!responsible(v) && !okd(v)) {
        complete = false;
        break;
      }
    }

    if (complete) {
      Instance known = in.local_input;
      DecodeInto(in.state, got_, &known);
      out.insertions.ForEachFact([&](uint32_t rel, const Tuple& t) {
        auto it = got_.to_original.find(rel);
        if (it != got_.to_original.end()) known.Insert(Fact(it->second, t));
      });
      Result<Instance> q = EvalWithMemo(*query_, std::move(known), in.memo);
      if (!q.ok()) return q.status();
      out.output = std::move(q).value();
    }
    return out;
  }

 private:
  // An input relation R and the relation ids the request protocol uses
  // for it.
  struct InRel {
    uint32_t name;
    uint32_t arity;
    uint32_t xfer;       // x_R(x, t): transfer of R(t) to x
    uint32_t sent_xfer;  // sx_R(x, t): that transfer was sent
    uint32_t acked;      // ka_R(x, t): x acked it
    uint32_t policy;     // policy_R
  };
  // A local fact rels_[rel](*tuple) that contains `value`.
  struct Holding {
    Value value;
    size_t rel;
    const Tuple* tuple;
  };

  // One Holding per local fact and distinct value in it, sorted by value
  // (then by fact order).
  void IndexByValue(const Instance& local_input,
                    std::vector<Holding>* holdings) const {
    for (size_t r = 0; r < rels_.size(); ++r) {
      for (const Tuple& t : local_input.TuplesOf(rels_[r].name)) {
        for (size_t i = 0; i < t.size(); ++i) {
          if (std::find(t.begin(), t.begin() + i, t[i]) != t.begin() + i) {
            continue;  // a repeated value names the fact once
          }
          holdings->push_back({t[i], r, &t});
        }
      }
    }
    std::stable_sort(
        holdings->begin(), holdings->end(),
        [](const Holding& a, const Holding& b) { return a.value < b.value; });
  }

  const Query* query_;
  TransducerSchema schema_;
  RelMap msg_xfer_, msg_ack_, got_, sent_xfer_, acked_, sent_ack_;
  uint32_t adv_ = 0, req_ = 0, ok_ = 0;
  uint32_t vals_ = 0, senta_ = 0, sentr_ = 0, okd_ = 0, reqs_ = 0, sento_ = 0;
  std::vector<InRel> rels_;  // schema_.in.relations() order
};

// ---------------------------------------------------------------------------
// Racy election (coordinating; the confluence oracle's negative control).
// ---------------------------------------------------------------------------

class RacyElectionTransducer : public Transducer {
 public:
  RacyElectionTransducer() {
    p_ = AddRelation(&schema_.in, "P", 1);
    first_ = AddRelation(&schema_.out, "First", 1);
    cast_ = AddRelation(&schema_.msg, "cast", 1);
    sentc_ = AddRelation(&schema_.mem, "sentc", 1);
    won_ = AddRelation(&schema_.mem, "won", 1);
  }

  const TransducerSchema& schema() const override { return schema_; }
  std::string name() const override { return "racy-election"; }

  Result<StepOutput> Step(const StepInput& in) const override {
    StepOutput out;

    // Cast every local P-fact once.
    for (const Tuple& t : in.local_input.TuplesOf(p_)) {
      Fact marker(sentc_, t);
      if (!in.state.Contains(marker)) {
        out.sends.Insert(Fact(cast_, t));
        out.insertions.Insert(marker);
      }
    }

    // Commit to the minimum value among the casts in the first delivery
    // that contains any. Deterministic per step — the nondeterminism is in
    // *which* casts share that first delivery, i.e. the schedule.
    const TupleSet& casts = in.messages.TuplesOf(cast_);
    if (!casts.empty() && in.state.TuplesOf(won_).empty()) {
      const Tuple& winner = *casts.begin();  // sorted: the minimum value
      out.output.Insert(Fact(first_, winner));
      out.insertions.Insert(Fact(won_, winner));
    }
    return out;
  }

 private:
  TransducerSchema schema_;
  uint32_t p_ = 0, first_ = 0, cast_ = 0, sentc_ = 0, won_ = 0;
};

}  // namespace

std::unique_ptr<Transducer> MakeBroadcastTransducer(const Query* query) {
  return std::make_unique<BroadcastTransducer>(query);
}
std::unique_ptr<Transducer> MakeAbsenceTransducer(const Query* query) {
  return std::make_unique<AbsenceTransducer>(query);
}
std::unique_ptr<Transducer> MakeDomainRequestTransducer(const Query* query) {
  return std::make_unique<DomainRequestTransducer>(query);
}
std::unique_ptr<Transducer> MakeRacyElectionTransducer() {
  return std::make_unique<RacyElectionTransducer>();
}

}  // namespace calm::transducer

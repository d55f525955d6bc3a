#include "queries/graph_queries.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <set>
#include <string>
#include <utility>
#include <vector>


namespace calm::queries {

namespace {

Schema GraphSchema() { return Schema({{"E", 2}}); }

// The relation ids every query touches per fact, interned once (the symbol
// table lookup is measurable inside the checker's inner pair loop).
uint32_t RelE() {
  static const uint32_t id = InternName("E");
  return id;
}
uint32_t RelO() {
  static const uint32_t id = InternName("O");
  return id;
}
uint32_t RelT() {
  static const uint32_t id = InternName("T");
  return id;
}

// Directed adjacency lists from the E relation.
std::map<Value, std::vector<Value>> Adjacency(const Instance& in) {
  std::map<Value, std::vector<Value>> adj;
  for (const Tuple& t : in.TuplesOf(RelE())) adj[t[0]].push_back(t[1]);
  return adj;
}

// Undirected neighbor sets (excluding self loops).
std::map<Value, std::set<Value>> UndirectedNeighbors(const Instance& in) {
  std::map<Value, std::set<Value>> nbr;
  for (const Tuple& t : in.TuplesOf(RelE())) {
    if (t[0] != t[1]) {
      nbr[t[0]].insert(t[1]);
      nbr[t[1]].insert(t[0]);
    }
  }
  return nbr;
}

// The transitive closure of E, flat form: `verts` is the sorted vertex set
// (== adom(I) for instances over the graph schema, since every value is an
// E endpoint) and `reach` the sorted pairs (a, b) connected by a nonempty
// directed path. Uses a dense vertex numbering and flat adjacency/seen
// vectors: this runs once per (I, J) pair inside the exhaustive
// monotonicity sweeps, where rb-tree node churn used to dominate the whole
// check.
struct Closure {
  std::vector<Value> verts;
  std::vector<std::pair<Value, Value>> reach;
};

// Returns a thread-local scratch Closure: the checker sweeps call this once
// per (I, J) pair, and the two output vectors were the only allocations on
// that path. Callers consume the result before the next call.
const Closure& ReachableClosure(const Instance& in) {
  static thread_local Closure scratch;
  Closure& c = scratch;
  c.verts.clear();
  c.reach.clear();
  const TupleSet& edges = in.TuplesOf(RelE());
  std::vector<Value>& verts = c.verts;
  verts.reserve(edges.size() * 2);
  for (const Tuple& t : edges) {
    verts.push_back(t[0]);
    verts.push_back(t[1]);
  }
  std::sort(verts.begin(), verts.end());
  verts.erase(std::unique(verts.begin(), verts.end()), verts.end());
  size_t n = verts.size();
  auto index_of = [&](Value v) {
    return std::lower_bound(verts.begin(), verts.end(), v) - verts.begin();
  };

  std::vector<std::pair<Value, Value>>& reach = c.reach;
  if (n <= 64) {
    // Bitmask closure: adj[v] is the successor set of v as a 64-bit mask;
    // each start's reachable set is saturated by OR-ing in the successor
    // masks of newly reached vertices. No allocation beyond the output.
    uint64_t adj[64] = {};
    for (const Tuple& t : edges) {
      adj[index_of(t[0])] |= uint64_t{1} << index_of(t[1]);
    }
    for (size_t s = 0; s < n; ++s) {
      uint64_t reached = adj[s];
      uint64_t frontier = reached;
      while (frontier != 0) {
        uint64_t next = 0;
        while (frontier != 0) {
          int v = __builtin_ctzll(frontier);
          frontier &= frontier - 1;
          next |= adj[v];
        }
        frontier = next & ~reached;
        reached |= next;
      }
      // Emitting reached vertices in index order keeps `reach` sorted.
      while (reached != 0) {
        int v = __builtin_ctzll(reached);
        reached &= reached - 1;
        reach.emplace_back(verts[s], verts[v]);
      }
    }
    return c;
  }

  std::vector<std::vector<int>> adj(n);
  for (const Tuple& t : edges) {
    adj[index_of(t[0])].push_back(static_cast<int>(index_of(t[1])));
  }
  std::vector<char> seen(n);
  std::vector<int> stack;
  for (size_t s = 0; s < n; ++s) {
    std::fill(seen.begin(), seen.end(), 0);
    stack.clear();
    for (int w : adj[s]) {
      if (!seen[w]) {
        seen[w] = 1;
        stack.push_back(w);
      }
    }
    while (!stack.empty()) {
      int v = stack.back();
      stack.pop_back();
      for (int w : adj[v]) {
        if (!seen[w]) {
          seen[w] = 1;
          stack.push_back(w);
        }
      }
    }
    // Emitting reached vertices in index order keeps `reach` sorted.
    for (size_t v = 0; v < n; ++v) {
      if (seen[v]) reach.emplace_back(verts[s], verts[v]);
    }
  }
  return c;
}

// Whether an undirected k-clique exists (backtracking extension search).
bool HasClique(const std::map<Value, std::set<Value>>& nbr, size_t k) {
  if (k <= 1) return k == 1 ? !nbr.empty() : true;
  std::vector<Value> vertices;
  for (const auto& [v, ns] : nbr) vertices.push_back(v);

  std::vector<Value> clique;
  // Extends `clique` using candidates from `from` onward.
  std::function<bool(size_t)> extend = [&](size_t from) -> bool {
    if (clique.size() == k) return true;
    for (size_t i = from; i < vertices.size(); ++i) {
      Value v = vertices[i];
      const std::set<Value>& ns = nbr.at(v);
      if (ns.size() + 1 < k) continue;  // degree too small
      bool adjacent_to_all = std::all_of(
          clique.begin(), clique.end(),
          [&](Value c) { return ns.count(c) > 0; });
      if (!adjacent_to_all) continue;
      clique.push_back(v);
      if (extend(i + 1)) return true;
      clique.pop_back();
    }
    return false;
  };
  return extend(0);
}

// All directed triangles x -> y -> z -> x with pairwise distinct vertices.
std::vector<std::array<Value, 3>> DirectedTriangles(const Instance& in) {
  std::map<Value, std::vector<Value>> adj = Adjacency(in);
  std::set<std::pair<Value, Value>> edges;
  for (const Tuple& t : in.TuplesOf(RelE())) edges.emplace(t[0], t[1]);
  std::vector<std::array<Value, 3>> out;
  for (const auto& [x, outs] : adj) {
    for (Value y : outs) {
      if (y == x) continue;
      auto it = adj.find(y);
      if (it == adj.end()) continue;
      for (Value z : it->second) {
        if (z == x || z == y) continue;
        if (edges.count({z, x}) > 0) out.push_back({x, y, z});
      }
    }
  }
  return out;
}

Instance EdgesAsOutput(const Instance& in) {
  Instance out;
  for (const Tuple& t : in.TuplesOf(RelE())) out.Insert(Fact(RelO(), t));
  return out;
}

// Union evaluation for the closure queries TC and Q_TC: the
// base reachability bit matrix is decoded once from base_facts — Q(i) is
// exactly that matrix (or its complement), and the checker hands it to
// every FirstRetracted call, so re-running the base closure here would be
// pure waste. Each J then only merges its endpoints into the vertex set,
// ORs its edges into the adjacency masks, and re-saturates — no Instance
// materialization, no output-fact emission, no merge. First-retraction
// scans the base pairs in their output order directly off the two matrices,
// so the reported fact is byte-identical to the from-scratch sorted merge:
//   Q_TC: first base pair (a, b) with !base_reach(a, b) that became
//         reachable in the union (the query is antitone in reach);
//   TC:   first base pair with base_reach(a, b) missing from the union —
//         always none, since reach only grows, but computed honestly.
// The factory declines bases past 64 vertices, and unions past 64 delegate
// to the overlay evaluator (the checker sweeps run at ≤ ~8 values; the cap
// is a budget, not a limit).
class ClosureUnionEvaluator : public UnionEvaluator {
 public:
  ClosureUnionEvaluator(const Query& query, const Instance& i, bool complement)
      : query_(query), base_(i), complement_(complement) {
    const TupleSet& edges = i.TuplesOf(RelE());
    for (const Tuple& t : edges) {
      verts_.push_back(t[0]);
      verts_.push_back(t[1]);
    }
    std::sort(verts_.begin(), verts_.end());
    verts_.erase(std::unique(verts_.begin(), verts_.end()), verts_.end());
    if (verts_.size() > 64) return;
    viable_ = true;
    auto index_of = [&](Value v) {
      return std::lower_bound(verts_.begin(), verts_.end(), v) -
             verts_.begin();
    };
    for (const Tuple& t : edges) {
      edges_.emplace_back(static_cast<uint8_t>(index_of(t[0])),
                          static_cast<uint8_t>(index_of(t[1])));
    }
  }

  // Whether the base fit the bitmask budget; a non-viable evaluator should
  // not be used (the factories return nullptr instead).
  bool viable() const { return viable_; }

  Result<std::optional<Fact>> FirstRetracted(
      const Instance& j, const std::vector<Fact>& base_facts) override {
    const TupleSet& jedges = j.TuplesOf(RelE());
    // A J edge incident to no base vertex can never change reachability
    // between base vertices: base vertices have no edges into the fresh
    // component, so every walk from one stays on base edges. Retractions
    // (either query) need a base-pair reach change, so such a J — every J
    // of the domain-disjoint sweeps — is answered without touching the
    // matrices. This is a property of the graphs, not of the bit encoding,
    // so it applies even past the vertex budget.
    bool touches_base = false;
    for (const Tuple& t : jedges) {
      if (std::binary_search(verts_.begin(), verts_.end(), t[0]) ||
          std::binary_search(verts_.begin(), verts_.end(), t[1])) {
        touches_base = true;
        break;
      }
    }
    if (!touches_base) return std::optional<Fact>();

    if (reach_.empty() && !verts_.empty()) {
      // Decode the base matrix from Q(i): for TC each fact IS a reach bit;
      // for Q_TC the facts are exactly the cleared bits of verts x verts.
      const uint64_t full =
          verts_.size() == 64 ? ~uint64_t{0}
                              : (uint64_t{1} << verts_.size()) - 1;
      reach_.assign(verts_.size(), complement_ ? full : 0);
      auto index_of = [&](Value v) {
        return std::lower_bound(verts_.begin(), verts_.end(), v) -
               verts_.begin();
      };
      for (const Fact& f : base_facts) {
        const uint64_t bit = uint64_t{1} << index_of(f.args[1]);
        if (complement_) {
          reach_[index_of(f.args[0])] &= ~bit;
        } else {
          reach_[index_of(f.args[0])] |= bit;
        }
      }
    }
    uverts_ = verts_;
    for (const Tuple& t : jedges) {
      uverts_.push_back(t[0]);
      uverts_.push_back(t[1]);
    }
    std::sort(uverts_.begin(), uverts_.end());
    uverts_.erase(std::unique(uverts_.begin(), uverts_.end()), uverts_.end());
    if (uverts_.size() > 64) {
      if (fallback_ == nullptr) {
        fallback_ = MakeOverlayUnionEvaluator(query_, base_);
      }
      return fallback_->FirstRetracted(j, base_facts);
    }

    auto union_index = [&](Value v) {
      return std::lower_bound(uverts_.begin(), uverts_.end(), v) -
             uverts_.begin();
    };
    // Base vertices are a subsequence of the union vertices, in order.
    map_.resize(verts_.size());
    for (size_t b = 0; b < verts_.size(); ++b) {
      map_[b] = static_cast<uint8_t>(union_index(verts_[b]));
    }
    uint64_t uadj[64] = {};
    for (const auto& [a, b] : edges_) {
      uadj[map_[a]] |= uint64_t{1} << map_[b];
    }
    for (const Tuple& t : jedges) {
      uadj[union_index(t[0])] |= uint64_t{1} << union_index(t[1]);
    }

    // Scan base pairs in output order; only rows starting at base vertices
    // can hold a retraction, so only those get saturated.
    for (size_t a = 0; a < verts_.size(); ++a) {
      const uint64_t base_row = reach_[a];
      const uint64_t union_row = Saturate(uadj, map_[a]);
      for (size_t b = 0; b < verts_.size(); ++b) {
        const bool base_reaches = (base_row >> b) & 1;
        const bool union_reaches = (union_row >> map_[b]) & 1;
        if (complement_ ? (!base_reaches && union_reaches)
                        : (base_reaches && !union_reaches)) {
          return std::optional<Fact>(Fact(complement_ ? RelO() : RelT(),
                                          Tuple{verts_[a], verts_[b]}));
        }
      }
    }
    return std::optional<Fact>();
  }

 private:
  // The set of vertices reachable from `s` by a nonempty path, as a mask.
  static uint64_t Saturate(const uint64_t adj[64], size_t s) {
    uint64_t reached = adj[s];
    uint64_t frontier = reached;
    while (frontier != 0) {
      uint64_t next = 0;
      while (frontier != 0) {
        int v = __builtin_ctzll(frontier);
        frontier &= frontier - 1;
        next |= adj[v];
      }
      frontier = next & ~reached;
      reached |= next;
    }
    return reached;
  }

  const Query& query_;
  const Instance& base_;
  const bool complement_;
  bool viable_ = false;
  std::vector<Value> verts_;  // sorted base vertex set
  std::vector<std::pair<uint8_t, uint8_t>> edges_;  // base E, as indexes
  std::vector<uint64_t> reach_;  // base closure rows, parallel to verts_
  std::vector<Value> uverts_;    // per-call scratch: union vertex set
  std::vector<uint8_t> map_;     // per-call scratch: base -> union index
  std::unique_ptr<UnionEvaluator> fallback_;  // overlay route, built lazily
};

// The factory wired onto TC / Q_TC. Declines (falling back to the overlay
// evaluator) when the base exceeds the bitmask budget.
NativeQuery::UnionEvalFactory ClosureUnionFactory(bool complement) {
  return [complement](const Query& query, const Instance& i)
             -> std::unique_ptr<UnionEvaluator> {
    auto ev = std::make_unique<ClosureUnionEvaluator>(query, i, complement);
    if (!ev->viable()) return nullptr;
    return ev;
  };
}

}  // namespace

std::unique_ptr<Query> MakeTransitiveClosure() {
  auto q = std::make_unique<NativeQuery>(
      "TC", GraphSchema(), Schema({{"T", 2}}),
      NativeQuery::FactsFn(
          [](const Instance& in, std::vector<Fact>* out) -> Status {
            for (const auto& [a, b] : ReachableClosure(in).reach) {
              out->emplace_back(RelT(), Tuple{a, b});  // reach is sorted
            }
            return Status::Ok();
          }));
  q->set_union_eval_factory(ClosureUnionFactory(/*complement=*/false));
  return q;
}

std::unique_ptr<Query> MakeComplementTransitiveClosure() {
  auto q = std::make_unique<NativeQuery>(
      "Q_TC", GraphSchema(), Schema({{"O", 2}}),
      NativeQuery::FactsFn(
          [](const Instance& in, std::vector<Fact>* out) -> Status {
            const Closure& c = ReachableClosure(in);
            // The adom x adom scan visits pairs in sorted order and `reach`
            // is sorted, so one merge pointer replaces a binary search per
            // pair; emission stays sorted.
            auto it = c.reach.begin();
            const auto end = c.reach.end();
            for (Value a : c.verts) {
              for (Value b : c.verts) {
                if (it != end && it->first == a && it->second == b) {
                  ++it;
                  continue;
                }
                out->emplace_back(RelO(), Tuple{a, b});
              }
            }
            return Status::Ok();
          }));
  q->set_union_eval_factory(ClosureUnionFactory(/*complement=*/true));
  return q;
}

std::unique_ptr<Query> MakeCliqueQuery(size_t k) {
  return std::make_unique<NativeQuery>(
      "Q_clique_" + std::to_string(k), GraphSchema(), Schema({{"O", 2}}),
      [k](const Instance& in) -> Result<Instance> {
        if (HasClique(UndirectedNeighbors(in), k)) return Instance();
        return EdgesAsOutput(in);
      });
}

std::unique_ptr<Query> MakeStarQuery(size_t k) {
  return std::make_unique<NativeQuery>(
      "Q_star_" + std::to_string(k), GraphSchema(), Schema({{"O", 2}}),
      [k](const Instance& in) -> Result<Instance> {
        for (const auto& [center, nbrs] : UndirectedNeighbors(in)) {
          if (nbrs.size() >= k) return Instance();
        }
        return EdgesAsOutput(in);
      });
}

std::unique_ptr<Query> MakeDuplicateQuery(size_t j) {
  Schema input;
  for (size_t r = 1; r <= j; ++r) {
    Status s = input.AddRelation("R" + std::to_string(r), 2);
    (void)s;
  }
  return std::make_unique<NativeQuery>(
      "Q_duplicate_" + std::to_string(j), input, Schema({{"O", 2}}),
      [j](const Instance& in) -> Result<Instance> {
        // Intersection of all R1..Rj.
        const TupleSet& r1 = in.TuplesOf(InternName("R1"));
        std::set<Tuple> inter(r1.begin(), r1.end());
        for (size_t r = 2; r <= j && !inter.empty(); ++r) {
          const TupleSet& next =
              in.TuplesOf(InternName("R" + std::to_string(r)));
          std::set<Tuple> kept;
          for (const Tuple& t : inter) {
            if (next.count(t) > 0) kept.insert(t);
          }
          inter = std::move(kept);
        }
        Instance out;
        if (inter.empty()) {
          for (const Tuple& t : in.TuplesOf(InternName("R1"))) {
            out.Insert(Fact("O", t));
          }
        }
        return out;
      });
}

std::unique_ptr<Query> MakeTrianglesUnlessTwoDisjoint() {
  return std::make_unique<NativeQuery>(
      "Q_triangles_unless_two_disjoint", GraphSchema(), Schema({{"O", 3}}),
      [](const Instance& in) -> Result<Instance> {
        std::vector<std::array<Value, 3>> tris = DirectedTriangles(in);
        for (const auto& a : tris) {
          for (const auto& b : tris) {
            bool disjoint = true;
            for (Value va : a) {
              for (Value vb : b) {
                if (va == vb) disjoint = false;
              }
            }
            if (disjoint) return Instance();  // two disjoint triangles
          }
        }
        Instance out;
        for (const auto& t : tris) out.Insert(Fact("O", {t[0], t[1], t[2]}));
        return out;
      });
}

std::unique_ptr<Query> MakeWinMove() {
  return std::make_unique<NativeQuery>(
      "win-move", Schema({{"Move", 2}}), Schema({{"O", 1}}),
      [](const Instance& in) -> Result<Instance> {
        // Retrograde analysis: lost = every move leads to a won position
        // (vacuously true for sinks); won = some move leads to a lost
        // position. Positions never classified are drawn (undefined in the
        // well-founded model) and are not output.
        std::map<Value, std::vector<Value>> adj;
        std::set<Value> positions;
        for (const Tuple& t : in.TuplesOf(InternName("Move"))) {
          adj[t[0]].push_back(t[1]);
          positions.insert(t[0]);
          positions.insert(t[1]);
        }
        std::set<Value> won;
        std::set<Value> lost;
        bool changed = true;
        while (changed) {
          changed = false;
          for (Value p : positions) {
            if (won.count(p) > 0 || lost.count(p) > 0) continue;
            auto it = adj.find(p);
            bool any_lost = false;
            bool all_won = true;
            if (it != adj.end()) {
              for (Value q : it->second) {
                if (lost.count(q) > 0) any_lost = true;
                if (won.count(q) == 0) all_won = false;
              }
            }
            if (any_lost) {
              won.insert(p);
              changed = true;
            } else if (all_won) {  // includes sinks (no moves)
              lost.insert(p);
              changed = true;
            }
          }
        }
        Instance out;
        for (Value p : won) out.Insert(Fact("O", {p}));
        return out;
      });
}

std::unique_ptr<Query> MakeTwoHopJoin() {
  return std::make_unique<NativeQuery>(
      "two-hop", GraphSchema(), Schema({{"O", 2}}),
      [](const Instance& in) -> Result<Instance> {
        std::map<Value, std::vector<Value>> adj = Adjacency(in);
        Instance out;
        for (const auto& [x, ys] : adj) {
          for (Value y : ys) {
            auto it = adj.find(y);
            if (it == adj.end()) continue;
            for (Value z : it->second) out.Insert(Fact("O", {x, z}));
          }
        }
        return out;
      });
}

}  // namespace calm::queries

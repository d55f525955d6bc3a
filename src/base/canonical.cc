#include "base/canonical.h"

#include <algorithm>
#include <cstdint>
#include <functional>

namespace calm {

namespace {

// I as the refinement and the leaf test read it: the sorted active domain,
// the sorted fact list, and each fact's arguments as indices into `vals`.
struct IndexedInstance {
  std::vector<Value> vals;   // sorted adom(I)
  std::vector<Fact> facts;   // I's facts, ascending
  // arg_idx[fi][p]: index into vals of facts[fi].args[p].
  std::vector<std::vector<uint32_t>> arg_idx;
};

size_t IndexOf(const std::vector<Value>& vals, Value v) {
  return static_cast<size_t>(
      std::lower_bound(vals.begin(), vals.end(), v) - vals.begin());
}

// Assigns cell ids by the lexicographic rank of each value's signature.
// Signatures are isomorphism-invariant, so isomorphic instances induce the
// same cell structure on corresponding values.
std::vector<size_t> RankSignatures(
    const std::vector<std::vector<uint64_t>>& sig) {
  std::vector<std::vector<uint64_t>> sorted = sig;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  std::vector<size_t> cell(sig.size());
  for (size_t vi = 0; vi < sig.size(); ++vi) {
    cell[vi] = static_cast<size_t>(
        std::lower_bound(sorted.begin(), sorted.end(), sig[vi]) -
        sorted.begin());
  }
  return cell;
}

// Iterative partition refinement over value occurrence signatures. Round 0
// groups values by their multiset of (relation, position) occurrences; each
// later round extends the signature with the current cells of every
// co-occurring argument, until the cell count stops growing. cell[vi] is the
// refined cell of vals[vi]: values in different cells have provably
// different occurrence structure, so no isomorphism maps one onto the other.
std::vector<size_t> RefineCells(const IndexedInstance& ctx) {
  size_t k = ctx.vals.size();
  std::vector<std::vector<uint64_t>> sig(k);
  for (size_t fi = 0; fi < ctx.facts.size(); ++fi) {
    const Fact& f = ctx.facts[fi];
    for (size_t p = 0; p < f.arity(); ++p) {
      // Injective while positions stay below 2^16; Datalog arities are
      // capped at 32 (datalog/analysis.h, kMaxArity).
      sig[ctx.arg_idx[fi][p]].push_back((uint64_t{f.relation} << 16) |
                                        static_cast<uint64_t>(p));
    }
  }
  for (auto& s : sig) std::sort(s.begin(), s.end());
  std::vector<size_t> cell = RankSignatures(sig);

  size_t ncells = 1 + *std::max_element(cell.begin(), cell.end());
  while (ncells < k) {
    // occ[vi]: one token vector per occurrence of vals[vi] — the relation,
    // the position, and the current cells of the whole argument tuple.
    std::vector<std::vector<std::vector<uint64_t>>> occ(k);
    for (size_t fi = 0; fi < ctx.facts.size(); ++fi) {
      const Fact& f = ctx.facts[fi];
      std::vector<uint64_t> arg_cells(f.arity());
      for (size_t p = 0; p < f.arity(); ++p) {
        arg_cells[p] = cell[ctx.arg_idx[fi][p]];
      }
      for (size_t p = 0; p < f.arity(); ++p) {
        std::vector<uint64_t> token;
        token.reserve(2 + f.arity());
        token.push_back(f.relation);
        token.push_back(p);
        token.insert(token.end(), arg_cells.begin(), arg_cells.end());
        occ[ctx.arg_idx[fi][p]].push_back(std::move(token));
      }
    }
    std::vector<std::vector<uint64_t>> refined(k);
    for (size_t vi = 0; vi < k; ++vi) {
      std::sort(occ[vi].begin(), occ[vi].end());
      refined[vi].push_back(cell[vi]);  // keep the refinement monotone
      for (const std::vector<uint64_t>& token : occ[vi]) {
        refined[vi].push_back(token.size());  // self-delimiting
        refined[vi].insert(refined[vi].end(), token.begin(), token.end());
      }
    }
    std::vector<size_t> next = RankSignatures(refined);
    size_t next_ncells = 1 + *std::max_element(next.begin(), next.end());
    if (next_ncells == ncells) break;
    cell = std::move(next);
    ncells = next_ncells;
  }
  return cell;
}

IndexedInstance IndexInstance(const Instance& instance) {
  IndexedInstance ctx;
  std::set<Value> adom = instance.ActiveDomain();
  ctx.vals.assign(adom.begin(), adom.end());
  ctx.facts = instance.AllFacts();
  ctx.arg_idx.reserve(ctx.facts.size());
  for (const Fact& f : ctx.facts) {
    std::vector<uint32_t> idx;
    idx.reserve(f.arity());
    for (Value v : f.args) {
      idx.push_back(static_cast<uint32_t>(IndexOf(ctx.vals, v)));
    }
    ctx.arg_idx.push_back(std::move(idx));
  }
  return ctx;
}

}  // namespace

std::vector<std::map<Value, Value>> InstanceAutomorphisms(
    const Instance& instance) {
  IndexedInstance ctx = IndexInstance(instance);
  std::vector<std::map<Value, Value>> out;
  if (ctx.vals.empty()) {
    out.push_back({});
    return out;
  }
  const std::vector<size_t> cell = RefineCells(ctx);

  // Backtrack over within-cell bijections (automorphisms preserve the
  // refined cells); test setwise fixing at the leaves.
  size_t k = ctx.vals.size();
  std::vector<size_t> image(k, SIZE_MAX);  // vals index -> vals index
  std::vector<bool> used(k, false);
  auto leaf_fixes = [&]() {
    std::vector<Fact> mapped;
    mapped.reserve(ctx.facts.size());
    for (size_t fi = 0; fi < ctx.facts.size(); ++fi) {
      const Fact& f = ctx.facts[fi];
      Tuple t;
      t.reserve(f.arity());
      for (size_t p = 0; p < f.arity(); ++p) {
        t.push_back(ctx.vals[image[ctx.arg_idx[fi][p]]]);
      }
      mapped.emplace_back(f.relation, std::move(t));
    }
    std::sort(mapped.begin(), mapped.end());
    return mapped == ctx.facts;
  };
  std::function<void(size_t)> rec = [&](size_t vi) {
    if (vi == k) {
      if (!leaf_fixes()) return;
      std::map<Value, Value> m;
      for (size_t u = 0; u < k; ++u) m[ctx.vals[u]] = ctx.vals[image[u]];
      out.push_back(std::move(m));
      return;
    }
    for (size_t wj = 0; wj < k; ++wj) {
      if (used[wj] || cell[wj] != cell[vi]) continue;
      used[wj] = true;
      image[vi] = wj;
      rec(vi + 1);
      used[wj] = false;
    }
  };
  rec(0);
  return out;
}

}  // namespace calm

#include "reference_eval.h"

#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "datalog/analysis.h"
#include "datalog/stratifier.h"

namespace calm::datalog::reference {

namespace {

using Binding = std::map<uint32_t, Value>;  // variable -> value

Value Resolve(const Term& term, const Binding& b) {
  return term.is_var() ? b.at(term.var) : term.constant;
}

Tuple Ground(const Atom& atom, const Binding& b) {
  Tuple t;
  for (const Term& term : atom.args) t.push_back(Resolve(term, b));
  return t;
}

// Extends `b` so that `atom` matches `t`; false when it cannot.
bool Match(const Atom& atom, const Tuple& t, Binding* b) {
  if (t.size() != atom.args.size()) return false;
  for (size_t i = 0; i < t.size(); ++i) {
    const Term& term = atom.args[i];
    if (!term.is_var()) {
      if (term.constant != t[i]) return false;
      continue;
    }
    auto [it, fresh] = b->emplace(term.var, t[i]);
    if (!fresh && it->second != t[i]) return false;
  }
  return true;
}

// Calls fn on every valuation of rule.pos[k..] over `db` extending `b`.
void ForEachValuation(const Rule& rule, size_t k, const Instance& db,
                      const Binding& b,
                      const std::function<void(const Binding&)>& fn) {
  if (k == rule.pos.size()) return fn(b);
  for (const Tuple& t : db.TuplesOf(rule.pos[k].relation)) {
    Binding next = b;
    if (Match(rule.pos[k], t, &next)) {
      ForEachValuation(rule, k + 1, db, next, fn);
    }
  }
}

// Skolem terms: one invented value per (relation, argument tuple).
using SkolemTable = std::map<std::pair<uint32_t, Tuple>, Value>;

// The least fixpoint of `rules` over *db by naive iteration: each round
// evaluates every rule against the database as the round found it, with
// negated atoms tested against `neg` (null: the database itself).
Status Fixpoint(const Program& program, const std::vector<size_t>& rules,
                const Instance* neg, size_t max_facts, SkolemTable* skolem,
                Instance* db) {
  while (true) {
    Instance derived;
    for (size_t r : rules) {
      const Rule& rule = program.rules[r];
      ForEachValuation(rule, 0, *db, {}, [&](const Binding& b) {
        for (const auto& [lhs, rhs] : rule.ineqs) {
          if (Resolve(lhs, b) == Resolve(rhs, b)) return;
        }
        const Instance& against = neg != nullptr ? *neg : *db;
        for (const Atom& a : rule.neg) {
          if (against.Contains(Fact(a.relation, Ground(a, b)))) return;
        }
        Tuple head = Ground(rule.head, b);
        if (rule.head.invents) {
          auto [it, fresh] =
              skolem->try_emplace(std::make_pair(rule.head.relation, head));
          if (fresh) it->second = Value::Invented(skolem->size() - 1);
          head.prepend(it->second);
        }
        derived.Insert(Fact(rule.head.relation, std::move(head)));
      });
    }
    if (db->InsertAll(derived) == 0) return Status::Ok();
    if (db->size() > max_facts) {
      return ResourceExhaustedError("fixpoint exceeded max_total_facts");
    }
  }
}

// The input restricted to sch(P) and `pre_restrict`, plus, with `adom` and
// when the program reads Adom, the active domain of the admitted edb facts.
Instance Seed(const ProgramInfo& info, const Instance& input,
              const Schema* pre_restrict, bool adom) {
  auto admits = [](const Schema& schema, uint32_t rel, const Tuple& t) {
    return schema.ArityOf(rel) != 0 && t.size() == schema.ArityOf(rel);
  };
  Instance db;
  input.ForEachFact([&](uint32_t rel, const Tuple& t) {
    if (!admits(info.sch, rel, t)) return;
    if (pre_restrict != nullptr && !admits(*pre_restrict, rel, t)) return;
    db.Insert(Fact(rel, t));
    if (!adom || !info.uses_adom || rel == AdomRelation()) return;
    if (!info.edb.Contains(rel)) return;
    for (Value v : t) db.Insert(Fact(AdomRelation(), Tuple{v}));
  });
  return db;
}

}  // namespace

Result<Instance> Eval(const Program& program, const Instance& input,
                      size_t max_facts, bool allow_invention,
                      const Schema* pre_restrict) {
  CALM_ASSIGN_OR_RETURN(ProgramInfo info, Analyze(program, allow_invention));
  CALM_ASSIGN_OR_RETURN(Stratification strat, Stratify(program, info));
  Instance db = Seed(info, input, pre_restrict, /*adom=*/true);
  SkolemTable skolem;
  for (const std::vector<size_t>& rules : strat.rules_per_stratum) {
    CALM_RETURN_IF_ERROR(
        Fixpoint(program, rules, nullptr, max_facts, &skolem, &db));
  }
  return db;
}

Result<Instance> Gamma(const Program& program, const Instance& input,
                       const Instance& neg_reference, size_t max_facts,
                       const Schema* pre_restrict) {
  CALM_ASSIGN_OR_RETURN(ProgramInfo info, Analyze(program));
  Instance db = Seed(info, input, pre_restrict, /*adom=*/true);
  std::vector<size_t> all(program.rules.size());
  for (size_t r = 0; r < all.size(); ++r) all[r] = r;
  SkolemTable unused;  // Analyze rejects invention here
  CALM_RETURN_IF_ERROR(
      Fixpoint(program, all, &neg_reference, max_facts, &unused, &db));
  return db;
}

Result<WellFoundedModel> WellFounded(const Program& program,
                                     const Instance& input, size_t max_facts,
                                     const Schema* pre_restrict,
                                     bool* monotone) {
  CALM_ASSIGN_OR_RETURN(ProgramInfo info, Analyze(program));
  auto gamma = [&](const Instance& s) {
    return Gamma(program, input, s, max_facts, pre_restrict);
  };
  Instance lo = Seed(info, input, pre_restrict, /*adom=*/false);
  CALM_ASSIGN_OR_RETURN(Instance hi, gamma(lo));
  while (true) {
    CALM_ASSIGN_OR_RETURN(Instance new_lo, gamma(hi));
    CALM_ASSIGN_OR_RETURN(Instance new_hi, gamma(new_lo));
    const bool moved_right = lo.IsSubsetOf(new_lo) && new_hi.IsSubsetOf(hi);
    if (!moved_right && monotone != nullptr) *monotone = false;
    const bool fixed = new_lo == lo && new_hi == hi;
    lo = std::move(new_lo);
    hi = std::move(new_hi);
    if (fixed) return WellFoundedModel{std::move(lo), std::move(hi)};
  }
}

Result<NativeQuery> MakeQuery(const Program& program, std::string name,
                              bool well_founded) {
  CALM_ASSIGN_OR_RETURN(ProgramInfo info, Analyze(program));
  if (!well_founded) CALM_RETURN_IF_ERROR(Stratify(program, info).status());
  CALM_ASSIGN_OR_RETURN(Schema output, OutputSchema(program, info));
  Schema input;
  for (const RelationDecl& r : info.edb.relations()) {
    if (r.name != AdomRelation()) CALM_RETURN_IF_ERROR(input.AddRelation(r));
  }
  NativeQuery::EvalFn fn = [program, output, well_founded](
                               const Instance& in) -> Result<Instance> {
    if (well_founded) {
      CALM_ASSIGN_OR_RETURN(WellFoundedModel m, WellFounded(program, in));
      return m.definitely.Restrict(output);
    }
    CALM_ASSIGN_OR_RETURN(Instance out, Eval(program, in));
    return out.Restrict(output);
  };
  return NativeQuery(std::move(name), std::move(input), output, fn);
}

}  // namespace calm::datalog::reference

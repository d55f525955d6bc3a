#include "datalog/analysis.h"

namespace calm::datalog {

uint32_t AdomRelation() {
  static const uint32_t kId = InternName("Adom");
  return kId;
}

namespace {

Status NoteArity(std::map<uint32_t, uint32_t>& arities, const Atom& atom) {
  size_t arity = atom.arity() + (atom.invents ? 1 : 0);
  if (arity == 0) {
    return InvalidArgumentError("nullary atom '" + NameOf(atom.relation) +
                                "()' not allowed (paper assumes arity >= 1)");
  }
  if (arity > kMaxArity) {
    return InvalidArgumentError(
        "atom '" + NameOf(atom.relation) + "' has arity " +
        std::to_string(arity) + "; at most " + std::to_string(kMaxArity) +
        " allowed (join plans use 32-bit column masks)");
  }
  auto [it, inserted] = arities.emplace(atom.relation, arity);
  if (!inserted && it->second != arity) {
    return InvalidArgumentError(
        "relation '" + NameOf(atom.relation) + "' used with arities " +
        std::to_string(it->second) + " and " + std::to_string(arity));
  }
  return Status::Ok();
}

}  // namespace

Result<ProgramInfo> Analyze(const Program& program, bool allow_invention) {
  std::map<uint32_t, uint32_t> arities;
  std::set<uint32_t> idb_names;

  for (const Rule& rule : program.rules) {
    if (rule.pos.empty()) {
      return InvalidArgumentError("rule '" + RuleToString(rule) +
                                  "' has an empty positive body");
    }
    if (rule.head.invents && !allow_invention) {
      return InvalidArgumentError("invention atom in head of '" +
                                  RuleToString(rule) +
                                  "' (not a plain Datalog¬ program)");
    }
    for (const Atom& a : rule.pos) {
      if (a.invents) {
        return InvalidArgumentError("invention atom in body of '" +
                                    RuleToString(rule) + "'");
      }
    }
    for (const Atom& a : rule.neg) {
      if (a.invents) {
        return InvalidArgumentError("invention atom in body of '" +
                                    RuleToString(rule) + "'");
      }
    }
    CALM_RETURN_IF_ERROR(NoteArity(arities, rule.head));
    idb_names.insert(rule.head.relation);
    for (const Atom& a : rule.pos) CALM_RETURN_IF_ERROR(NoteArity(arities, a));
    for (const Atom& a : rule.neg) CALM_RETURN_IF_ERROR(NoteArity(arities, a));

    // Safety: every variable occurs in pos.
    std::set<uint32_t> pos_vars = rule.PositiveVariables();
    for (uint32_t v : rule.Variables()) {
      if (pos_vars.count(v) == 0) {
        return InvalidArgumentError("unsafe rule '" + RuleToString(rule) +
                                    "': variable '" + NameOf(v) +
                                    "' does not occur positively");
      }
    }
  }

  ProgramInfo info;
  for (auto [name, arity] : arities) {
    CALM_RETURN_IF_ERROR(
        info.sch.AddRelation(RelationDecl(name, static_cast<uint32_t>(arity))));
    if (idb_names.count(name) > 0) {
      CALM_RETURN_IF_ERROR(
          info.idb.AddRelation(RelationDecl(name, static_cast<uint32_t>(arity))));
    } else {
      CALM_RETURN_IF_ERROR(
          info.edb.AddRelation(RelationDecl(name, static_cast<uint32_t>(arity))));
    }
  }

  for (const Rule& rule : program.rules) {
    for (const Atom& a : rule.pos) {
      if (idb_names.count(a.relation) > 0) {
        info.idb_edges.push_back({a.relation, rule.head.relation, false});
      }
    }
    for (const Atom& a : rule.neg) {
      if (idb_names.count(a.relation) > 0) {
        info.idb_edges.push_back({a.relation, rule.head.relation, true});
      }
    }
  }

  info.uses_adom = info.edb.Contains(AdomRelation());
  return info;
}

Result<Schema> OutputSchema(const Program& program, const ProgramInfo& info) {
  Schema out;
  for (uint32_t name : program.output_relations) {
    uint32_t arity = info.idb.ArityOf(name);
    if (arity == 0) {
      return InvalidArgumentError("output relation '" + NameOf(name) +
                                  "' is not an idb relation of the program");
    }
    CALM_RETURN_IF_ERROR(out.AddRelation(RelationDecl(name, arity)));
  }
  return out;
}

}  // namespace calm::datalog

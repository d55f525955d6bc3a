#include "datalog/wellfounded.h"

#include <string>
#include <utility>

#include "datalog/analysis.h"

namespace calm::datalog {

Result<WellFoundedModel> EvaluateWellFounded(const Program& program,
                                             const Instance& input,
                                             const EvalOptions& options) {
  CALM_ASSIGN_OR_RETURN(PreparedProgram prepared,
                        PreparedProgram::PrepareFixedNegation(program, options));
  return EvaluateWellFounded(prepared, {&input}, nullptr);
}

Status RunAlternatingFixpoint(const PreparedProgram& prepared,
                              std::initializer_list<const Instance*> parts,
                              const Schema* pre_restrict, Database* lo,
                              Database* hi) {
  // The seed (restricted input + Adom) is built once. Every Gamma runs over
  // a copy sharing its dictionary, so the seed, lo and hi keep one code
  // assignment and each Gamma's anti-probes into the other stay in code
  // space.
  const Database seed = prepared.MakeSeed(parts, pre_restrict);
  auto gamma = [&](const Database& neg, Database* out) {
    *out = seed.ShareDict();
    return prepared.RunFixedNegation(out, neg);
  };

  // The initial underapproximation is the restricted input *without* Adom
  // seeding (Gamma outputs do include seeded Adom facts).
  const Schema& sch = prepared.info().sch;
  *lo = seed.ShareDict();
  lo->Reset();
  for (const Instance* part : parts) {
    part->ForEachFact([&](uint32_t name, const Tuple& t) {
      uint32_t arity = sch.ArityOf(name);
      if (arity == 0 || t.size() != arity) return;
      if (pre_restrict != nullptr) {
        uint32_t pre_arity = pre_restrict->ArityOf(name);
        if (pre_arity == 0 || t.size() != pre_arity) return;
      }
      lo->Insert(name, t);
    });
  }

  // Alternating fixpoint: lo underapproximates the true facts, hi
  // overapproximates them. Gamma is antimonotone and lo starts inside
  // Gamma's seed, so lo only grows and hi only shrinks: equal sizes mean
  // equal sets.
  CALM_RETURN_IF_ERROR(gamma(*lo, hi));
  Database new_lo, new_hi;
  while (true) {
    CALM_RETURN_IF_ERROR(gamma(*hi, &new_lo));
    CALM_RETURN_IF_ERROR(gamma(new_lo, &new_hi));
    const bool fixed =
        new_lo.size() == lo->size() && new_hi.size() == hi->size();
    std::swap(*lo, new_lo);
    std::swap(*hi, new_hi);
    if (fixed) return Status::Ok();
  }
}

Result<WellFoundedModel> EvaluateWellFounded(
    const PreparedProgram& prepared,
    std::initializer_list<const Instance*> parts,
    const Schema* pre_restrict) {
  Database lo, hi;
  CALM_RETURN_IF_ERROR(
      RunAlternatingFixpoint(prepared, parts, pre_restrict, &lo, &hi));
  WellFoundedModel model;
  model.definitely = lo.ToInstance();
  model.possibly = hi.ToInstance();
  return model;
}

std::string DoubledProgram::LoName(const std::string& rel, size_t round) {
  return rel + "__lo" + std::to_string(round);
}
std::string DoubledProgram::HiName(const std::string& rel, size_t round) {
  return rel + "__hi" + std::to_string(round);
}

namespace {

// Renames an idb atom to its round-r lo or hi copy; edb atoms are unchanged.
Atom RenameAtom(const Atom& atom, const ProgramInfo& info, size_t round,
                bool hi) {
  if (!info.idb.Contains(atom.relation)) return atom;
  const std::string& base = NameOf(atom.relation);
  std::string renamed = hi ? DoubledProgram::HiName(base, round)
                           : DoubledProgram::LoName(base, round);
  Atom out = atom;
  out.relation = InternName(renamed);
  return out;
}

}  // namespace

DoubledProgram BuildDoubledProgram(const Program& program,
                                   const ProgramInfo& info, size_t steps) {
  DoubledProgram out;
  for (size_t r = 1; r <= steps; ++r) {
    for (const Rule& rule : program.rules) {
      // hi^r: positives from hi^r, idb negatives from lo^{r-1}. At r == 1
      // lo^0 is empty, so those literals are vacuously true and dropped.
      Rule hi_rule;
      hi_rule.head = RenameAtom(rule.head, info, r, /*hi=*/true);
      for (const Atom& a : rule.pos) {
        hi_rule.pos.push_back(RenameAtom(a, info, r, /*hi=*/true));
      }
      for (const Atom& a : rule.neg) {
        if (!info.idb.Contains(a.relation)) {
          hi_rule.neg.push_back(a);
        } else if (r > 1) {
          hi_rule.neg.push_back(RenameAtom(a, info, r - 1, /*hi=*/false));
        }
      }
      hi_rule.ineqs = rule.ineqs;
      out.program.rules.push_back(std::move(hi_rule));

      // lo^r: positives from lo^r, idb negatives from hi^r.
      Rule lo_rule;
      lo_rule.head = RenameAtom(rule.head, info, r, /*hi=*/false);
      for (const Atom& a : rule.pos) {
        lo_rule.pos.push_back(RenameAtom(a, info, r, /*hi=*/false));
      }
      for (const Atom& a : rule.neg) {
        if (!info.idb.Contains(a.relation)) {
          lo_rule.neg.push_back(a);
        } else {
          lo_rule.neg.push_back(RenameAtom(a, info, r, /*hi=*/true));
        }
      }
      lo_rule.ineqs = rule.ineqs;
      out.program.rules.push_back(std::move(lo_rule));
    }
  }
  for (uint32_t rel : program.output_relations) {
    const std::string& base = NameOf(rel);
    out.program.output_relations.insert(
        InternName(DoubledProgram::LoName(base, steps)));
    out.program.output_relations.insert(
        InternName(DoubledProgram::HiName(base, steps)));
  }
  return out;
}

}  // namespace calm::datalog

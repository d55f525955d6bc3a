#ifndef CALM_DATALOG_ANALYSIS_H_
#define CALM_DATALOG_ANALYSIS_H_

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "base/schema.h"
#include "base/status.h"
#include "datalog/ast.h"

namespace calm::datalog {

// Static facts about a program: schemas, idb/edb split, and the predicate
// dependency graph (Section 2 notation: sch(P), idb(P), edb(P)).
struct ProgramInfo {
  Schema sch;  // sch(P): minimal schema the program is over
  Schema idb;  // relations in rule heads
  Schema edb;  // sch(P) \ idb(P)

  // Dependency edges body-relation -> head-relation, restricted to idb
  // sources (the ones that matter for stratification). `negative` edges come
  // from negated body atoms.
  struct Edge {
    uint32_t from = 0;  // body predicate
    uint32_t to = 0;    // head predicate
    bool negative = false;
  };
  std::vector<Edge> idb_edges;

  bool uses_adom = false;  // program reads the Adom convenience relation
};

// The interned id of the "Adom" convenience relation (arity 1). When a
// program uses Adom as an edb relation, the evaluator seeds it with the
// active domain of the input (the paper omits the defining rules).
uint32_t AdomRelation();

// The widest relation a program may use: compiled join plans address an
// atom's columns with 32-bit masks.
constexpr size_t kMaxArity = 32;

// Validates well-formedness and returns ProgramInfo:
//   * consistent arities across all uses of a relation,
//   * arities from 1 to kMaxArity (an invention atom's invented position
//     counts),
//   * nonempty pos in every rule,
//   * safety: every variable of a rule occurs in pos,
//   * invention atoms only where `allow_invention`.
Result<ProgramInfo> Analyze(const Program& program,
                            bool allow_invention = false);

// The output schema implied by `program.output_relations` (errors if an
// output relation is not an idb relation of the program).
Result<Schema> OutputSchema(const Program& program, const ProgramInfo& info);

}  // namespace calm::datalog

#endif  // CALM_DATALOG_ANALYSIS_H_

#ifndef CALM_TRANSDUCER_TRANSDUCER_H_
#define CALM_TRANSDUCER_TRANSDUCER_H_

#include <memory>
#include <string>

#include "base/instance.h"
#include "base/status.h"
#include "transducer/schema.h"

namespace calm::transducer {

// One node's last evaluation of a strategy's query: Q(input) = output.
// TransducerNetwork owns one memo per node and clears it on Initialize and
// on that node's crash-restart; it cannot live in the transducer, which
// confluence runs share across threads. A strategy whose next input equals
// `input` reuses `output` instead of evaluating Q again. Errors are never
// memoized. `hits` and `misses` tally lookups until the network flushes
// them to its metrics, once per transition.
struct EvalMemo {
  bool valid = false;
  Instance input;
  Instance output;
  uint64_t hits = 0;
  uint64_t misses = 0;
};

// What a node sees during a transition (Section 4.1.3): its local input
// fragment H(x), its stored state s(x) (over out+mem), the delivered message
// set M, and the system facts S. D is their union. `memo` is the node's
// EvalMemo, or null; a null memo must yield the same StepOutput.
struct StepInput {
  const Instance& local_input;
  const Instance& state;
  const Instance& messages;
  const Instance& system;
  EvalMemo* memo = nullptr;

  Instance D() const {
    Instance d = local_input;
    d.InsertAll(state);
    d.InsertAll(messages);
    d.InsertAll(system);
    return d;
  }
};

// The results of the four queries on D.
struct StepOutput {
  Instance output;      // Qout(D), over out
  Instance insertions;  // Qins(D), over mem
  Instance deletions;   // Qdel(D), over mem
  Instance sends;       // Qsnd(D), over msg — sent to every *other* node
};

// A (policy-aware) relational transducer: the quadruple of queries
// (Qout, Qins, Qdel, Qsnd). Implementations must be deterministic functions
// of D; all persistent state lives in the mem relations.
class Transducer {
 public:
  virtual ~Transducer() = default;

  virtual const TransducerSchema& schema() const = 0;
  virtual Result<StepOutput> Step(const StepInput& input) const = 0;
  virtual std::string name() const = 0;
};

}  // namespace calm::transducer

#endif  // CALM_TRANSDUCER_TRANSDUCER_H_

// Sequential reasoning over combinational AIGs: a reusable Tseitin CNF
// encoder, a time-frame unroller, and the one safety engine built on them --
// incremental bounded model checking (BMC) plus k-induction.
//
// A synchronous circuit is described as a SeqModel over a *template* Aig:
// each state element has a template input literal standing for its current
// value and a cone computing its next value; any other template input is a
// free (unconstrained per-cycle) input.  An Unroller then instantiates
// template cones at numbered time frames by literal substitution -- state
// inputs map to the previous frame's next-state cones (or to reset constants
// / fresh variables at frame 0), free inputs map to fresh per-frame inputs.
// Because instantiation goes through the hash-consing Aig constructors,
// repeated structure across frames is shared, and the CnfEncoder only ever
// encodes each shared node once, so one SatSolver accumulates the whole
// unrolling incrementally and learned clauses carry across depths and
// properties.
//
// proveSafety, the one safety engine on top, is Een & Sorensson's temporal
// induction (BMC + k-induction on one solver); the MDL and DCS002 proofs of
// verify/symbolic_check.hpp and verify/dcs_check.hpp are its callers.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "aig/aig.hpp"
#include "aig/sat.hpp"

namespace tauhls::aig {

/// Lazily Tseitin-encodes AIG cones into a SatSolver.  Each node gets one
/// solver variable on first use; re-encoding a literal is a lookup, so cones
/// shared between queries are encoded exactly once.
class CnfEncoder {
 public:
  CnfEncoder(const Aig& g, SatSolver& solver) : g_(&g), solver_(&solver) {}

  /// DIMACS literal for an AIG literal, encoding its cone on first use.
  int encode(Lit l) {
    const int v = varOf(nodeOf(l));
    return isNegated(l) ? -v : v;
  }

  /// Solver variable already assigned to `node`; 0 when not yet encoded.
  int varIfEncoded(std::uint32_t node) const {
    const auto it = var_.find(node);
    return it == var_.end() ? 0 : it->second;
  }

 private:
  int varOf(std::uint32_t node);

  const Aig* g_;
  SatSolver* solver_;
  std::unordered_map<std::uint32_t, int> var_;
};

/// One state element of a sequential model: `cur` is a template *input*
/// literal standing for the element's current value, `next` is the template
/// cone computing its value in the following cycle, `init` the reset value.
struct SeqVar {
  std::string name;
  Lit cur = kLitFalse;
  Lit next = kLitFalse;
  bool init = false;
};

/// A synchronous circuit over a template Aig.  Template inputs that are not
/// some SeqVar's `cur` literal are free inputs, re-instantiated per frame.
struct SeqModel {
  std::vector<SeqVar> vars;
};

/// Instantiates template cones at numbered time frames inside the same Aig
/// the template lives in.  Two frame-0 modes:
///  - init mode: frame 0's state is the reset state (constants), the root of
///    a BMC unrolling;
///  - free mode: frame 0's state bits become fresh inputs, the root of the
///    arbitrary-start unrolling k-induction steps over.
class Unroller {
 public:
  /// `tag` distinguishes several unrollings of one model in one graph; fresh
  /// per-frame inputs are named "<name>@<tag><frame>".
  Unroller(Aig& g, const SeqModel& model, std::string tag, bool initFrame0);

  /// Current-state literal of state var `v` at `frame` (frame 0 = reset
  /// constants in init mode, fresh inputs in free mode).
  Lit state(int frame, std::size_t v);

  /// Instantiates an arbitrary template cone at `frame`.
  Lit at(int frame, Lit templateLit);

  /// All state bits of `frame` as a vector (for eqVec / simple-path cones).
  std::vector<Lit> stateVector(int frame);

 private:
  Aig* g_;
  const SeqModel* model_;
  std::string tag_;
  bool initFrame0_;
  std::map<std::uint32_t, std::size_t> stateVarOfInput_;
  std::map<std::pair<std::uint32_t, int>, Lit> memo_;  ///< (node, frame)
  std::vector<Lit> frame0Free_;  ///< lazily created frame-0 state inputs
};

/// Verdict of one safety property.
enum class PropertyVerdict : int {
  Proved = 0,          ///< closed by k-induction
  Counterexample = 1,  ///< concrete failing trace found by BMC
  Unknown = 2,         ///< neither within the depth/conflict budget
};

/// Stable name: "PROVED", "CEX", "UNKNOWN".
const char* propertyVerdictName(PropertyVerdict v);

/// Solver work of a run of SAT queries.
struct SatCost {
  SatStats stats;
  std::uint64_t queries = 0;
};

/// A BMC counterexample: the failing query's model replayed through the
/// unrolling, so every template cone at every frame -- encoded or not --
/// gets a consistent value (inputs the solver never saw read 0).
class FrameModel {
 public:
  FrameModel(Aig& g, Unroller& unroller, const CnfEncoder& enc,
             const SatSolver& solver);

  /// Value of `templateLit` at `frame` of the counterexample.
  bool eval(int frame, Lit templateLit);

 private:
  Aig* g_;
  Unroller* unroller_;
  std::vector<bool> vals_;  ///< per input of g_
};

/// The inputs that differ between proveSafety's callers.
struct SafetyProblem {
  std::vector<Lit> bad;      ///< per property: template cone, 1 = violated
  /// Strengthening invariant: assumed on every induction frame, base-checked
  /// from reset, never assumed by BMC.  kLitTrue = none, no base check.
  Lit invariant = kLitTrue;
  bool simplePath = false;   ///< induction frames are distinct states
  int maxDepth = 0;          ///< BMC depth / induction-k budget
  std::uint64_t maxConflicts = 0;  ///< per SAT query
};

struct SafetyVerdict {
  PropertyVerdict verdict = PropertyVerdict::Unknown;
  int depthReached = -1;  ///< d: BMC frames 0..d all proven violation-free
  int inductionK = 0;     ///< k that closed the property (0 unless Proved)
  int cexFrame = -1;      ///< frame BMC found violated (-1 unless CEX)
  SatCost cost;           ///< its BMC and induction queries
};

struct SafetyResult {
  std::vector<SafetyVerdict> properties;  ///< per SafetyProblem::bad
  bool invariantHolds = true;  ///< no base check failed or ran out of budget
  SatCost invariantCost;       ///< the invariant's base queries
};

/// Called on each counterexample while the solver holds its model: the
/// property's index, the violated frame and its frames.
using CounterexampleFn =
    std::function<void(std::size_t property, int frame, FrameModel& model)>;

/// BMC + k-induction of every `problem.bad` cone of `model`.  Per depth
/// d = 0..maxDepth, while a property is open:
///  1. BMC: is an open property violated exactly d steps from reset?  Unsat
///     keeps the refutation as a clause and, if frames 0..d-1 were refuted
///     too, sets depthReached = d; Sat is a counterexample; Unknown (budget
///     exhausted) leaves it open, retried deeper, and freezes depthReached.
///  2. the invariant's base check at frame d; a failure or an Unknown turns
///     k-induction off for the rest of the run (BMC goes on).
///  3. k-induction at k = d + 1 for each property with depthReached == d:
///     `invariant & !bad` on k arbitrary consecutive states, violated on the
///     next; Unsat proves it.
/// The unrollings add fresh inputs to `g` tagged "b" and "i", so a graph
/// hosts one run.
SafetyResult proveSafety(Aig& g, const SeqModel& model,
                         const SafetyProblem& problem,
                         const CounterexampleFn& onCounterexample);

}  // namespace tauhls::aig

// Mealy finite-state machine IR for the synthesized controllers.
//
// States, declared input/output signals, and guarded transitions carrying an
// output-signal set.  Well-formedness = for every state and every assignment
// of the inputs its guards read, *exactly one* outgoing transition fires
// (deterministic and complete) -- verified explicitly by validateFsm.
#pragma once

#include <string>
#include <unordered_set>
#include <vector>

#include "common/error.hpp"
#include "fsm/guard.hpp"

namespace tauhls::fsm {

struct Transition {
  int from = 0;
  int to = 0;
  Guard guard;
  std::vector<std::string> outputs;  ///< signals asserted during the cycle
};

class Fsm {
 public:
  explicit Fsm(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// Declare a state; returns its id.  Names must be unique.
  int addState(const std::string& stateName);
  /// Declare an input/output signal (idempotent).
  void addInput(const std::string& signal);
  void addOutput(const std::string& signal);

  void setInitial(int state);
  int initial() const { return initial_; }

  /// Add a transition; guard signals must be declared inputs, output signals
  /// declared outputs, endpoints valid states.
  void addTransition(int from, int to, Guard guard,
                     std::vector<std::string> outputs);

  std::size_t numStates() const { return states_.size(); }
  const std::string& stateName(int state) const;
  int findState(const std::string& stateName) const;  ///< -1 when absent

  const std::vector<std::string>& inputs() const { return inputs_; }
  const std::vector<std::string>& outputs() const { return outputs_; }
  const std::vector<Transition>& transitions() const { return transitions_; }
  std::vector<const Transition*> transitionsFrom(int state) const;

  /// Input signals read by some guard leaving `state`, sorted, deduped.
  std::vector<std::string> inputsUsedBy(int state) const;

  /// Flip-flops of a binary-encoded implementation: ceil(log2(numStates)).
  int flipFlopCount() const;

  struct StepResult {
    int nextState = 0;
    std::vector<std::string> outputs;
  };

  /// Execute one clock cycle from `state` with the given asserted inputs.
  /// Throws when zero or multiple transitions fire (ill-formed machine).
  StepResult step(int state, const std::unordered_set<std::string>& asserted) const;
  /// The transition step() takes, with `isAsserted(signal)` giving the inputs.
  template <typename IsAsserted>
  const Transition& fire(int state, const IsAsserted& isAsserted) const {
    const Transition* fired = nullptr;
    for (const Transition& t : transitions_) {
      if (t.from != state || !t.guard.holds(isAsserted)) continue;
      TAUHLS_CHECK(fired == nullptr,
                   "nondeterministic step from state " + stateName(state));
      fired = &t;
    }
    TAUHLS_CHECK(fired != nullptr, "no transition fires from state " +
                                       stateName(state) + " in " + name_);
    return *fired;
  }

 private:
  std::string name_;
  std::vector<std::string> states_;
  std::vector<std::string> inputs_;
  std::vector<std::string> outputs_;
  std::vector<Transition> transitions_;
  int initial_ = 0;
};

/// Throw unless every state is deterministic and complete over every
/// assignment of the inputs its guards read.
void validateFsm(const Fsm& fsm);

/// Multi-line dump (states, transitions with guards/outputs) for docs/tests.
std::string describe(const Fsm& fsm);

}  // namespace tauhls::fsm

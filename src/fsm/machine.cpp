#include "fsm/machine.hpp"

#include <algorithm>
#include <bit>
#include <sstream>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace tauhls::fsm {

int Fsm::addState(const std::string& stateName) {
  TAUHLS_CHECK(findState(stateName) == -1,
               "duplicate state name: " + stateName);
  states_.push_back(stateName);
  return static_cast<int>(states_.size()) - 1;
}

void Fsm::addInput(const std::string& signal) {
  if (std::find(inputs_.begin(), inputs_.end(), signal) == inputs_.end()) {
    inputs_.push_back(signal);
  }
}

void Fsm::addOutput(const std::string& signal) {
  if (std::find(outputs_.begin(), outputs_.end(), signal) == outputs_.end()) {
    outputs_.push_back(signal);
  }
}

void Fsm::setInitial(int state) {
  TAUHLS_CHECK(state >= 0 && state < static_cast<int>(states_.size()),
               "initial state out of range");
  initial_ = state;
}

void Fsm::addTransition(int from, int to, Guard guard,
                        std::vector<std::string> outputs) {
  TAUHLS_CHECK(from >= 0 && from < static_cast<int>(states_.size()),
               "transition source out of range");
  TAUHLS_CHECK(to >= 0 && to < static_cast<int>(states_.size()),
               "transition target out of range");
  for (const std::string& s : guard.signals()) {
    TAUHLS_CHECK(std::find(inputs_.begin(), inputs_.end(), s) != inputs_.end(),
                 "guard reads undeclared input: " + s);
  }
  for (const std::string& s : outputs) {
    TAUHLS_CHECK(std::find(outputs_.begin(), outputs_.end(), s) != outputs_.end(),
                 "transition asserts undeclared output: " + s);
  }
  transitions_.push_back(Transition{from, to, std::move(guard), std::move(outputs)});
}

const std::string& Fsm::stateName(int state) const {
  TAUHLS_CHECK(state >= 0 && state < static_cast<int>(states_.size()),
               "state id out of range");
  return states_[state];
}

int Fsm::findState(const std::string& stateName) const {
  for (std::size_t i = 0; i < states_.size(); ++i) {
    if (states_[i] == stateName) return static_cast<int>(i);
  }
  return -1;
}

std::vector<const Transition*> Fsm::transitionsFrom(int state) const {
  std::vector<const Transition*> out;
  for (const Transition& t : transitions_) {
    if (t.from == state) out.push_back(&t);
  }
  return out;
}

std::vector<std::string> Fsm::inputsUsedBy(int state) const {
  std::vector<std::string> out;
  for (const Transition* t : transitionsFrom(state)) {
    for (const std::string& s : t->guard.signals()) out.push_back(s);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

int Fsm::flipFlopCount() const {
  if (states_.size() <= 1) return states_.empty() ? 0 : 1;
  return std::bit_width(states_.size() - 1);
}

Fsm::StepResult Fsm::step(int state,
                          const std::unordered_set<std::string>& asserted) const {
  const Transition& t =
      fire(state, [&](const std::string& s) { return asserted.contains(s); });
  return StepResult{t.to, t.outputs};
}

void validateFsm(const Fsm& fsm) {
  TAUHLS_CHECK(fsm.numStates() > 0, "FSM has no states: " + fsm.name());
  for (int s = 0; s < static_cast<int>(fsm.numStates()); ++s) {
    const std::vector<std::string> used = fsm.inputsUsedBy(s);
    TAUHLS_CHECK(used.size() <= 20,
                 "state reads too many inputs to validate: " + fsm.stateName(s));
    const auto transitions = fsm.transitionsFrom(s);
    TAUHLS_CHECK(!transitions.empty(),
                 "state has no outgoing transitions: " + fsm.stateName(s) +
                     " in " + fsm.name());
    for (std::uint64_t a = 0; a < (std::uint64_t{1} << used.size()); ++a) {
      std::unordered_set<std::string> asserted;
      for (std::size_t i = 0; i < used.size(); ++i) {
        if ((a >> i) & 1) asserted.insert(used[i]);
      }
      int firing = 0;
      for (const Transition* t : transitions) {
        if (t->guard.evaluate(asserted)) ++firing;
      }
      TAUHLS_CHECK(firing == 1,
                   "state " + fsm.stateName(s) + " of " + fsm.name() + " has " +
                       std::to_string(firing) +
                       " firing transitions for some input assignment");
    }
  }
}

std::string describe(const Fsm& fsm) {
  std::ostringstream os;
  os << "fsm " << fsm.name() << "\n";
  os << "  inputs:  " << join(fsm.inputs(), ", ") << "\n";
  os << "  outputs: " << join(fsm.outputs(), ", ") << "\n";
  os << "  initial: " << fsm.stateName(fsm.initial()) << "\n";
  for (const Transition& t : fsm.transitions()) {
    os << "  " << fsm.stateName(t.from) << " -> " << fsm.stateName(t.to) << "  ["
       << t.guard.toString() << "] / " << join(t.outputs, " ") << "\n";
  }
  return os.str();
}

}  // namespace tauhls::fsm

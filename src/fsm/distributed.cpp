#include "fsm/distributed.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "fsm/signal.hpp"

namespace tauhls::fsm {

using dfg::NodeId;

std::size_t DistributedControlUnit::totalStates() const {
  std::size_t n = 0;
  for (const UnitController& c : controllers) n += c.fsm.numStates();
  return n;
}

int DistributedControlUnit::totalFlipFlops() const {
  int n = 0;
  for (const UnitController& c : controllers) n += c.fsm.flipFlopCount();
  return n;
}

int DistributedControlUnit::completionLatchCount() const {
  int n = 0;
  for (const UnitController& c : controllers) {
    n += static_cast<int>(c.latchedInputs.size());
  }
  return n;
}

namespace {

/// CCO_* signals of `op`'s dependence predecessors (data + state edges) bound
/// to a *different* unit (the paper restricts the predecessor relation to
/// cross-unit pairs, §4.2).
std::vector<std::string> externalPredSignals(const sched::ScheduledDfg& s,
                                             NodeId op, int unitId) {
  std::vector<std::string> out;
  for (NodeId p : s.graph.dependencePredecessors(op)) {
    if (!s.graph.isOp(p)) continue;
    const int pu = s.binding.unitOf(p);
    TAUHLS_ASSERT(pu >= 0, "predecessor op is unbound");
    if (pu != unitId) out.push_back(opCompletionSignal(s.graph.node(p).name));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

UnitController buildController(const sched::ScheduledDfg& s, int unitId,
                               int levels) {
  const sched::UnitInstance& unit = s.binding.unit(unitId);
  const std::vector<NodeId>& seq = s.binding.sequenceOf(unitId);
  TAUHLS_CHECK(!seq.empty(), "unit has no bound operations: " + unit.name);
  const int n = static_cast<int>(seq.size());

  UnitController ctl;
  ctl.unitId = unitId;
  ctl.telescopic = levels > 1;
  ctl.ops = seq;
  ctl.fsm = Fsm("D_FSM_" + unit.name);
  Fsm& fsm = ctl.fsm;

  const std::string cT = unitCompletionSignal(unit);
  if (ctl.telescopic) fsm.addInput(cT);

  // Per-op predecessor signals and declarations.
  std::vector<std::vector<std::string>> preds(n);
  for (int i = 0; i < n; ++i) {
    preds[i] = externalPredSignals(s, seq[i], unitId);
    for (const std::string& sig : preds[i]) {
      fsm.addInput(sig);
      ctl.latchedInputs.push_back(sig);
    }
    const std::string& opName = s.graph.node(seq[i]).name;
    fsm.addOutput(operandFetchSignal(opName));
    fsm.addOutput(registerEnableSignal(opName));
    fsm.addOutput(opCompletionSignal(opName));
  }
  std::sort(ctl.latchedInputs.begin(), ctl.latchedInputs.end());
  ctl.latchedInputs.erase(
      std::unique(ctl.latchedInputs.begin(), ctl.latchedInputs.end()),
      ctl.latchedInputs.end());

  // States (paper step 2): the level chain S_i^0..S_i^{L-1}, R_i when preds
  // exist.
  std::vector<std::vector<int>> stateS(n);
  std::vector<int> stateR(n, -1);
  for (int i = 0; i < n; ++i) {
    for (int k = 0; k < levels; ++k) {
      stateS[i].push_back(fsm.addState(executionStateName(i, k)));
    }
    if (!preds[i].empty()) stateR[i] = fsm.addState(readyStateName(i));
  }
  fsm.setInitial(stateR[0] != -1 ? stateR[0] : stateS[0][0]);

  // Transitions (paper steps 3 & 4).  S_{n} wraps to S_0 / R_0.
  for (int i = 0; i < n; ++i) {
    const int j = (i + 1) % n;
    const std::string& opName = s.graph.node(seq[i]).name;
    const std::vector<std::string> completing = {operandFetchSignal(opName),
                                                 registerEnableSignal(opName),
                                                 opCompletionSignal(opName)};
    // Level k < L-1 advances on !C_T and completes O_i on C_T; the last
    // level completes unconditionally.
    for (int k = 0; k < levels; ++k) {
      Guard base = Guard::always();
      if (k < levels - 1) {
        fsm.addTransition(stateS[i][k], stateS[i][k + 1],
                          Guard::literal(cT, false),
                          {operandFetchSignal(opName)});
        base = Guard::literal(cT, true);
      }
      if (preds[j].empty()) {
        fsm.addTransition(stateS[i][k], stateS[j][0], base, completing);
      } else {
        fsm.addTransition(stateS[i][k], stateS[j][0],
                          base.conjoin(Guard::allOf(preds[j])), completing);
        fsm.addTransition(stateS[i][k], stateR[j],
                          base.conjoin(Guard::notAllOf(preds[j])), completing);
      }
    }
    if (stateR[j] != -1) {
      fsm.addTransition(stateR[j], stateS[j][0], Guard::allOf(preds[j]), {});
      fsm.addTransition(stateR[j], stateR[j], Guard::notAllOf(preds[j]), {});
    }
  }
  validateFsm(fsm);
  return ctl;
}

}  // namespace

int levelsOfUnit(const sched::ScheduledDfg& s,
                 const tau::MultiLevelLibrary& overrides, int unitId) {
  auto it = overrides.find(s.binding.unit(unitId).cls);
  if (it != overrides.end()) return it->second.numLevels();
  return s.unitIsTelescopic(unitId) ? 2 : 1;
}

DistributedControlUnit buildDistributed(
    const sched::ScheduledDfg& s, const tau::MultiLevelLibrary& overrides) {
  for (const auto& [cls, type] : overrides) {
    TAUHLS_CHECK(type.cls == cls, "override keyed under the wrong class");
    tau::validateMultiLevelUnit(type, s.clockNs);
  }
  DistributedControlUnit dcu;
  for (int u = 0; u < static_cast<int>(s.binding.numUnits()); ++u) {
    dcu.controllers.push_back(
        buildController(s, u, levelsOfUnit(s, overrides, u)));
  }
  // Global wiring.
  for (std::size_t c = 0; c < dcu.controllers.size(); ++c) {
    const UnitController& ctl = dcu.controllers[c];
    if (ctl.telescopic) {
      dcu.externalInputs.push_back(
          unitCompletionSignal(s.binding.unit(ctl.unitId)));
    }
    for (NodeId op : ctl.ops) {
      dcu.producerOf[opCompletionSignal(s.graph.node(op).name)] =
          static_cast<int>(c);
    }
  }
  for (std::size_t c = 0; c < dcu.controllers.size(); ++c) {
    for (const std::string& sig : dcu.controllers[c].latchedInputs) {
      TAUHLS_ASSERT(dcu.producerOf.contains(sig),
                    "consumed completion signal has no producer: " + sig);
      TAUHLS_ASSERT(dcu.producerOf.at(sig) != static_cast<int>(c),
                    "controller consumes its own completion signal: " + sig);
      dcu.consumersOf[sig].insert(static_cast<int>(c));
    }
  }
  return dcu;
}

NetworkState initialNetworkState(const DistributedControlUnit& dcu) {
  NetworkState net;
  for (const UnitController& c : dcu.controllers) {
    net.states.push_back(c.fsm.initial());
  }
  net.latches.resize(dcu.controllers.size());
  return net;
}

std::vector<const Transition*> stepNetwork(
    const DistributedControlUnit& dcu, NetworkState& net,
    const std::unordered_set<std::string>& external) {
  const std::size_t n = dcu.controllers.size();
  std::vector<const Transition*> fired(n);
  // Phase 1: fixpoint of the emitted completion pulses.  In the generated
  // controllers emission does not depend on CCO inputs, so this converges in
  // <= 2 iterations; we iterate defensively.  The transitions of the last
  // iterate are the ones the converged pulses enable (phase 2).
  std::unordered_set<std::string> emitted;
  for (int iter = 0;; ++iter) {
    TAUHLS_ASSERT(iter < 4, "completion-pulse fixpoint did not converge");
    std::unordered_set<std::string> next;
    for (std::size_t c = 0; c < n; ++c) {
      const std::set<std::string>& latched = net.latches[c];
      fired[c] = &dcu.controllers[c].fsm.fire(
          net.states[c], [&](const std::string& sig) {
            return external.contains(sig) || emitted.contains(sig) ||
                   latched.contains(sig);
          });
      for (const std::string& out : fired[c]->outputs) {
        if (dcu.producerOf.contains(out)) next.insert(out);
      }
    }
    if (next == emitted) break;
    emitted = std::move(next);
  }
  // Phase 3: completion latches are level-sensitive -- set by the pulse and
  // held until the iteration-restart strobe (DESIGN.md §5.1), so a later op
  // of the same unit depending on the same producer still sees the
  // completion.
  for (std::size_t c = 0; c < n; ++c) {
    net.states[c] = fired[c]->to;
    for (const std::string& sig : dcu.controllers[c].latchedInputs) {
      if (emitted.contains(sig)) net.latches[c].insert(sig);
    }
  }
  return fired;
}

}  // namespace tauhls::fsm

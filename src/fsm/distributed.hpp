// Algorithm 1 (paper §4.2): derive one synchronous controller per arithmetic
// unit and aggregate them into a distributed global control unit.
//
// Controller shape for an L-level unit with bound ops O_0..O_n:
//   states  S_i^0..S_i^{L-1} (execution levels S<i>, S<i>p, S<i>pp, ...),
//           R_i (ready-wait, only when O_i has predecessors on other units)
//   guards  over the unit's completion signal C_T and the predecessor
//           completion signals C_PO (= the producers' CCO_* wires)
//   outputs OF_i while executing; RE_i and CCO_i on the completing cycle.
// In S_i^k with k < L-1, C_T low advances to S_i^{k+1} and C_T high completes
// O_i; the last level completes unconditionally.  A paper TAU is L = 2 (S_i,
// S_i'), a fixed unit L = 1 (no C_T); a multi-level override gives a class
// other L (paper §6: "other kinds of synchronous VCAUs in the same manner").
//
// Completion signals are single-cycle pulses; consumers latch them (sticky
// completion latches, DESIGN.md §5.1).  The latches live *outside* the FSMs:
// the FSM guard reads the OR of the latch and the live pulse.  stepNetwork
// below is the one explicit implementation of this latch semantics (the
// product machine, the FSM interpreters and the datapath engine all clock the
// network through it); the RTL back-end emits one latch per consumed wire.
#pragma once

#include <map>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "fsm/machine.hpp"
#include "sched/scheduled_dfg.hpp"
#include "tau/unit.hpp"

namespace tauhls::fsm {

/// One arithmetic-unit controller plus its wiring metadata.
struct UnitController {
  int unitId = 0;                       ///< binding unit id
  bool telescopic = false;
  Fsm fsm;                              ///< the Algorithm-1 machine
  std::vector<dfg::NodeId> ops;         ///< bound execution sequence
  /// Completion-latch inputs: CCO_* signals read by this controller's guards.
  std::vector<std::string> latchedInputs;

  UnitController() : fsm("unnamed") {}
};

/// The distributed global control unit (paper Fig. 7).
struct DistributedControlUnit {
  std::vector<UnitController> controllers;
  /// External inputs: the telescopic units' completion signals C_<unit>.
  std::vector<std::string> externalInputs;
  /// Controller index producing each inter-controller completion signal.
  std::map<std::string, int> producerOf;
  /// Controller indices consuming each inter-controller completion signal.
  std::map<std::string, std::set<int>> consumersOf;

  /// Total states / flip-flops across controllers (Table 1 reporting).
  std::size_t totalStates() const;
  int totalFlipFlops() const;
  /// Number of completion latches (one per (consumer, signal) pair).
  int completionLatchCount() const;
};

/// Run Algorithm 1 on every unit of the scheduled DFG.  Classes in
/// `overrides` get multi-level controllers (level-cycle contracts validated
/// against s.clockNs).  All controllers are validated (deterministic +
/// complete) before returning.
DistributedControlUnit buildDistributed(
    const sched::ScheduledDfg& s, const tau::MultiLevelLibrary& overrides = {});

/// Delay levels L of the unit `unitId`: the override's level count, else 2
/// for a telescopic unit and 1 for a fixed one.
int levelsOfUnit(const sched::ScheduledDfg& s,
                 const tau::MultiLevelLibrary& overrides, int unitId);

/// Run-time state of the network: each controller's FSM state and the
/// completion latches it holds set.
struct NetworkState {
  std::vector<int> states;
  std::vector<std::set<std::string>> latches;  ///< per controller

  auto operator<=>(const NetworkState&) const = default;
};

/// Every controller in its initial state, every latch clear.
NetworkState initialNetworkState(const DistributedControlUnit& dcu);

/// One clock of the network under the external inputs `external` (the C_*
/// signals raised this cycle):
///   1. fixpoint of the emitted completion pulses, each controller reading
///      external inputs, live pulses and its own latches;
///   2. every controller takes its enabled transition under that fixpoint
///      (the machines are deterministic, so it is the first enabled one);
///   3. the latches a pulse hit this cycle are set (sticky until restart).
/// Advances `net` and returns the fired transition of each controller.
std::vector<const Transition*> stepNetwork(
    const DistributedControlUnit& dcu, NetworkState& net,
    const std::unordered_set<std::string>& external);

}  // namespace tauhls::fsm

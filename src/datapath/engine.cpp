#include "datapath/engine.hpp"

#include <set>
#include <unordered_set>

#include "common/error.hpp"
#include "fsm/signal.hpp"

namespace tauhls::datapath {

using dfg::NodeId;

ExecutionResult execute(const fsm::DistributedControlUnit& dcu,
                        const sched::ScheduledDfg& s,
                        const std::vector<Value>& inputValues,
                        const BitLevelLibrary& lib, int maxCycles) {
  TAUHLS_CHECK(inputValues.size() == s.graph.numNodes(),
               "inputValues must be indexed by NodeId");
  const std::size_t n = dcu.controllers.size();

  ExecutionResult result;
  result.values.assign(s.graph.numNodes(), 0);
  result.realizedClasses.shortClass.assign(s.graph.numNodes(), true);

  const Value mask =
      lib.width() == 64 ? ~Value{0} : ((Value{1} << lib.width()) - 1);
  std::vector<bool> valueReady(s.graph.numNodes(), false);
  for (NodeId v : s.graph.inputIds()) {
    result.values[v] = inputValues[v] & mask;
    valueReady[v] = true;
  }

  // Fetch the operands of `op`; enforces the datapath safety property.
  auto fetch = [&](NodeId op) {
    const dfg::Node& node = s.graph.node(op);
    std::pair<Value, Value> operands{0, 0};
    TAUHLS_CHECK(valueReady[node.operands[0]],
                 "operand fetched before its producer completed: " +
                     s.graph.node(node.operands[0]).name + " -> " + node.name);
    operands.first = result.values[node.operands[0]];
    if (node.operands.size() > 1) {
      TAUHLS_CHECK(valueReady[node.operands[1]],
                   "operand fetched before its producer completed: " +
                       s.graph.node(node.operands[1]).name + " -> " + node.name);
      operands.second = result.values[node.operands[1]];
    }
    return operands;
  };

  std::set<std::string> pendingRe;
  for (NodeId v : s.graph.opIds()) {
    pendingRe.insert(fsm::registerEnableSignal(s.graph.node(v).name));
  }

  fsm::NetworkState net = fsm::initialNetworkState(dcu);
  for (int cycle = 0; cycle < maxCycles && !pendingRe.empty(); ++cycle) {
    // Datapath: each telescopic unit in a first execution cycle consults its
    // completion generator on the live operand values.
    std::unordered_set<std::string> external;
    for (std::size_t c = 0; c < n; ++c) {
      const fsm::UnitController& ctl = dcu.controllers[c];
      if (!ctl.telescopic) continue;
      const fsm::ParsedState p =
          fsm::parseState(ctl.fsm.stateName(net.states[c]));
      if (p.kind != 'S' || p.level != 0) continue;
      const NodeId op = ctl.ops[p.index];
      if (pendingRe.contains(fsm::registerEnableSignal(s.graph.node(op).name)) ==
          false) {
        continue;  // wrapped into iteration 2; no fresh operands to certify
      }
      const auto [a, b] = fetch(op);
      const bool sd = lib.multiplierShortClass(a, b);
      result.realizedClasses.shortClass[op] = sd;
      if (sd) {
        external.insert(fsm::unitCompletionSignal(s.binding.unit(ctl.unitId)));
      }
    }
    // Clock the controllers; on RE_i latch the computed value.
    for (const fsm::Transition* t : fsm::stepNetwork(dcu, net, external)) {
      for (const std::string& o : t->outputs) {
        if (!o.starts_with("RE_")) continue;
        if (!pendingRe.erase(o)) continue;  // iteration-2 wrap: ignore
        const NodeId op = s.graph.findByName(o.substr(3));
        TAUHLS_ASSERT(op != dfg::kNoNode, "RE for unknown op");
        const auto [a, b] = fetch(op);
        result.values[op] = lib.compute(s.graph.node(op).kind, a, b);
        valueReady[op] = true;
      }
    }
    result.latencyCycles = cycle + 1;
  }
  TAUHLS_CHECK(pendingRe.empty(),
               "datapath execution did not finish within the cycle bound");
  return result;
}

}  // namespace tauhls::datapath

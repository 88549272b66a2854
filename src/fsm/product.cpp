#include "fsm/product.hpp"

#include <algorithm>
#include <map>
#include <queue>
#include <sstream>

#include "common/error.hpp"

namespace tauhls::fsm {

namespace {

/// Composite state name: the controller states, then the set latches as
/// "+<controller>:<signal>".
std::string configName(const DistributedControlUnit& dcu,
                       const NetworkState& cfg) {
  std::ostringstream os;
  for (std::size_t c = 0; c < cfg.states.size(); ++c) {
    if (c != 0) os << "_";
    os << dcu.controllers[c].fsm.stateName(cfg.states[c]);
  }
  for (std::size_t c = 0; c < cfg.latches.size(); ++c) {
    for (const std::string& sig : cfg.latches[c]) os << "+" << c << ":" << sig;
  }
  return os.str();
}

}  // namespace

Fsm buildProduct(const DistributedControlUnit& dcu,
                 const ProductOptions& options, ProductInfo* info) {
  TAUHLS_CHECK(!dcu.controllers.empty(), "product of zero controllers");
  if (info != nullptr) info->controllerStates.clear();
  Fsm product("CENT_FSM");
  for (const std::string& in : dcu.externalInputs) product.addInput(in);

  auto visible = [&](const std::string& out) {
    return !(options.hideInternalSignals && dcu.producerOf.contains(out));
  };
  for (const UnitController& c : dcu.controllers) {
    for (const std::string& out : c.fsm.outputs()) {
      if (visible(out)) product.addOutput(out);
    }
  }

  // Composite configurations are network states: every controller state plus
  // the sticky completion latches.
  std::map<NetworkState, int> stateIds;
  std::queue<NetworkState> frontier;
  auto intern = [&](const NetworkState& cfg) {
    auto it = stateIds.find(cfg);
    if (it != stateIds.end()) return it->second;
    TAUHLS_CHECK(stateIds.size() < options.maxStates,
                 "product state bound exceeded (" +
                     std::to_string(options.maxStates) + ")");
    const int id = product.addState(configName(dcu, cfg));
    if (info != nullptr) info->controllerStates.push_back(cfg.states);
    stateIds.emplace(cfg, id);
    frontier.push(cfg);
    return id;
  };
  intern(initialNetworkState(dcu));
  product.setInitial(0);

  const std::size_t numExt = dcu.externalInputs.size();
  while (!frontier.empty()) {
    const NetworkState cfg = frontier.front();
    frontier.pop();
    const int fromId = stateIds.at(cfg);

    // Group external assignments by (target, outputs) to merge guards.
    std::map<std::pair<int, std::vector<std::string>>, Guard> merged;

    for (std::uint64_t a = 0; a < (std::uint64_t{1} << numExt); ++a) {
      std::unordered_set<std::string> external;
      for (std::size_t i = 0; i < numExt; ++i) {
        if ((a >> i) & 1) external.insert(dcu.externalInputs[i]);
      }
      NetworkState next = cfg;
      std::vector<std::string> outputs;
      for (const Transition* t : stepNetwork(dcu, next, external)) {
        for (const std::string& out : t->outputs) {
          if (visible(out)) outputs.push_back(out);
        }
      }
      std::sort(outputs.begin(), outputs.end());
      const int toId = intern(next);

      Guard minterm = Guard::always();
      for (std::size_t i = 0; i < numExt; ++i) {
        minterm =
            minterm.conjoin(Guard::literal(dcu.externalInputs[i], (a >> i) & 1));
      }
      auto [it, inserted] =
          merged.try_emplace({toId, outputs}, Guard::never());
      it->second = it->second.disjoin(minterm);
    }
    for (auto& [key, guard] : merged) {
      product.addTransition(fromId, key.first, std::move(guard), key.second);
    }
  }
  validateFsm(product);
  return product;
}

}  // namespace tauhls::fsm

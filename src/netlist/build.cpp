#include "netlist/build.hpp"

#include <algorithm>
#include <map>

#include "common/error.hpp"
#include "synth/encoding.hpp"

namespace tauhls::netlist {

ControllerNetlist buildControllerNetlist(const fsm::Fsm& fsm,
                                         const synth::SynthesizedFsm& syn) {
  ControllerNetlist cn;
  cn.net = Netlist(fsm.name() + "_logic");
  cn.stateBits = syn.flipFlops;

  // Primary inputs in the synth variable order: state bits, then signals.
  std::vector<NetId> var;
  for (int b = 0; b < syn.flipFlops; ++b) {
    var.push_back(cn.net.addInput("state" + std::to_string(b)));
  }
  for (const std::string& in : fsm.inputs()) {
    var.push_back(cn.net.addInput(in));
  }

  // Shared input inverters.
  std::vector<NetId> invVar(var.size(), kNoNet);
  auto literalNet = [&](int v, bool positive) {
    if (positive) return var[static_cast<std::size_t>(v)];
    NetId& cached = invVar[static_cast<std::size_t>(v)];
    if (cached == kNoNet) cached = cn.net.addInv(var[static_cast<std::size_t>(v)]);
    return cached;
  };

  // Shared AND plane: one gate per distinct cube across all functions.
  std::map<std::pair<std::uint64_t, std::uint64_t>, NetId> cubeNet;
  auto netForCube = [&](const logic::Cube& cube) {
    const std::pair<std::uint64_t, std::uint64_t> key{cube.careMask(),
                                                      cube.valueMask()};
    auto it = cubeNet.find(key);
    if (it != cubeNet.end()) return it->second;
    std::vector<NetId> fanins;
    for (int v = 0; v < cube.numVars(); ++v) {
      if (cube.hasLiteral(v)) fanins.push_back(literalNet(v, cube.literalPositive(v)));
    }
    const NetId net = fanins.empty() ? cn.net.constant(true)
                                     : cn.net.addAnd(std::move(fanins));
    cubeNet.emplace(key, net);
    return net;
  };

  auto netForCover = [&](const logic::Cover& cover) {
    if (cover.empty()) return cn.net.constant(false);
    std::vector<NetId> terms;
    terms.reserve(cover.numCubes());
    for (const logic::Cube& cube : cover.cubes()) terms.push_back(netForCube(cube));
    return cn.net.addOr(std::move(terms));
  };

  for (int b = 0; b < syn.flipFlops; ++b) {
    cn.net.markOutput("ns" + std::to_string(b),
                      netForCover(syn.nextStateLogic[static_cast<std::size_t>(b)]));
  }
  for (std::size_t o = 0; o < fsm.outputs().size(); ++o) {
    cn.net.markOutput(fsm.outputs()[o], netForCover(syn.outputLogic[o]));
  }
  cn.net.validate();
  return cn;
}

bool verifyAgainstFsm(const ControllerNetlist& cn, const fsm::Fsm& fsm,
                      synth::EncodingStyle style) {
  const synth::Encoding enc = synth::encodeStates(fsm, style);
  TAUHLS_CHECK(enc.bits == cn.stateBits, "encoding/netlist bit-count mismatch");
  const std::size_t numInputs = fsm.inputs().size();
  TAUHLS_CHECK(cn.stateBits + numInputs <= 24,
               "exhaustive verification bounded to 24 variables");

  for (int s = 0; s < static_cast<int>(fsm.numStates()); ++s) {
    const std::uint32_t code = enc.codeOf[static_cast<std::size_t>(s)];
    for (std::uint64_t a = 0; a < (std::uint64_t{1} << numInputs); ++a) {
      std::unordered_set<std::string> asserted;
      for (int b = 0; b < cn.stateBits; ++b) {
        if ((code >> b) & 1) asserted.insert("state" + std::to_string(b));
      }
      for (std::size_t i = 0; i < numInputs; ++i) {
        if ((a >> i) & 1) asserted.insert(fsm.inputs()[i]);
      }
      const std::vector<bool> nets = cn.net.evaluate(asserted);
      const fsm::Fsm::StepResult ref = fsm.step(s, [&] {
        std::unordered_set<std::string> inputsOnly;
        for (std::size_t i = 0; i < numInputs; ++i) {
          if ((a >> i) & 1) inputsOnly.insert(fsm.inputs()[i]);
        }
        return inputsOnly;
      }());
      const std::uint32_t wantCode = enc.codeOf[static_cast<std::size_t>(ref.nextState)];
      for (const auto& [name, net] : cn.net.outputs()) {
        bool want = false;
        if (name.rfind("ns", 0) == 0 &&
            name.find_first_not_of("0123456789", 2) == std::string::npos) {
          const int bit = std::stoi(name.substr(2));
          want = (wantCode >> bit) & 1;
        } else {
          want = std::find(ref.outputs.begin(), ref.outputs.end(), name) !=
                 ref.outputs.end();
        }
        if (nets[net] != want) return false;
      }
    }
  }
  return true;
}

}  // namespace tauhls::netlist

#include "synth/extract.hpp"

#include <algorithm>
#include <cstdint>
#include <queue>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "logic/minimize.hpp"
#include "logic/truth_table.hpp"

namespace tauhls::synth {

std::vector<bool> reachableStates(const fsm::Fsm& fsm) {
  std::vector<bool> seen(fsm.numStates(), false);
  std::queue<int> q;
  q.push(fsm.initial());
  seen[fsm.initial()] = true;
  while (!q.empty()) {
    int s = q.front();
    q.pop();
    for (const fsm::Transition* t : fsm.transitionsFrom(s)) {
      if (!seen[t->to]) {
        seen[t->to] = true;
        q.push(t->to);
      }
    }
  }
  return seen;
}

int SynthesizedFsm::totalLiterals() const {
  int n = 0;
  for (const logic::Cover& c : nextStateLogic) n += c.literalCount();
  for (const logic::Cover& c : outputLogic) n += c.literalCount();
  return n;
}

const std::vector<SynthesizedFsm>& SynthesizedControllers::under(
    EncodingStyle s, const fsm::DistributedControlUnit& dcu) const {
  TAUHLS_CHECK(s == style,
               "controllers were not synthesized under the requested encoding");
  TAUHLS_CHECK(controllers.size() == dcu.controllers.size(),
               "synthesized controllers do not match the control unit");
  return controllers;
}

namespace {

/// One FSM's logic before minimization.
struct Extraction {
  SynthesizedFsm shape;                   ///< every field but the covers
  std::vector<logic::TruthTable> tables;  ///< next-state bits, then outputs
};

/// The truth tables of `fsm` under `style`, one 2^numVars row sweep shared
/// by both regimes.  Rows whose state bits decode to no reachable state are
/// don't-cares; on every other row `step(state, inputBits, outputOn)`
/// returns the next state and sets one flag per declared output.
template <typename Step>
Extraction extract(const fsm::Fsm& fsm, EncodingStyle style, Step&& step) {
  fsm::validateFsm(fsm);
  const Encoding enc = encodeStates(fsm, style);
  const int numInputs = static_cast<int>(fsm.inputs().size());
  const int numVars = enc.bits + numInputs;
  TAUHLS_CHECK(numVars <= 22,
               "FSM too large for explicit logic extraction: " + fsm.name());
  const std::size_t numOutputs = fsm.outputs().size();
  Extraction x;
  x.shape.name = fsm.name();
  x.shape.numInputs = numInputs;
  x.shape.numOutputs = static_cast<int>(numOutputs);
  x.shape.numStates = static_cast<int>(fsm.numStates());
  x.shape.flipFlops = enc.bits;
  x.tables.assign(enc.bits + numOutputs, logic::TruthTable(numVars));

  const std::vector<bool> reachable = reachableStates(fsm);
  std::vector<char> outputOn(numOutputs, 0);
  const std::uint64_t rows = std::uint64_t{1} << numVars;
  for (std::uint64_t row = 0; row < rows; ++row) {
    const std::uint32_t code =
        static_cast<std::uint32_t>(row & ((std::uint64_t{1} << enc.bits) - 1));
    const int state = enc.stateOf(code);
    if (state < 0 || !reachable[state]) {
      for (auto& tt : x.tables) tt.set(row, logic::Ternary::DontCare);
      continue;
    }
    const int next = step(state, row >> enc.bits, outputOn);
    const std::uint32_t nextCode = enc.codeOf[static_cast<std::size_t>(next)];
    for (int b = 0; b < enc.bits; ++b) {
      x.tables[b].set(row, ((nextCode >> b) & 1) ? logic::Ternary::One
                                                 : logic::Ternary::Zero);
    }
    for (std::size_t o = 0; o < numOutputs; ++o) {
      x.tables[enc.bits + o].set(row, outputOn[o] ? logic::Ternary::One
                                                  : logic::Ternary::Zero);
    }
  }
  return x;
}

/// The fast step: every guard compiled to (care, value) bitmask terms over
/// the input variables and every output list to per-index flags, so a row
/// is integer compares instead of per-row string-set construction and
/// Fsm::step guard evaluation.  validateFsm has already proven exactly one
/// transition fires per assignment, so first-match is the unique match and
/// the rows are identical to stepping the machine.
Extraction extractCompiled(const fsm::Fsm& fsm, EncodingStyle style) {
  std::unordered_map<std::string, int> inputIndex;
  for (std::size_t i = 0; i < fsm.inputs().size(); ++i) {
    inputIndex.emplace(fsm.inputs()[i], static_cast<int>(i));
  }
  std::unordered_map<std::string, std::size_t> outputIndex;
  for (std::size_t o = 0; o < fsm.outputs().size(); ++o) {
    outputIndex.emplace(fsm.outputs()[o], o);
  }
  struct CompiledTransition {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> terms;  // care, value
    int to = 0;
    std::vector<char> outputOn;
  };
  std::vector<std::vector<CompiledTransition>> compiled(fsm.numStates());
  for (std::size_t s = 0; s < compiled.size(); ++s) {
    for (const fsm::Transition* t : fsm.transitionsFrom(static_cast<int>(s))) {
      CompiledTransition ct;
      for (const fsm::GuardTerm& term : t->guard.terms()) {
        std::uint64_t care = 0;
        std::uint64_t value = 0;
        for (const auto& [sig, positive] : term.literals) {
          const std::uint64_t bit = std::uint64_t{1} << inputIndex.at(sig);
          care |= bit;
          if (positive) value |= bit;
        }
        ct.terms.emplace_back(care, value);
      }
      ct.to = t->to;
      ct.outputOn.assign(fsm.outputs().size(), 0);
      for (const std::string& sig : t->outputs) {
        ct.outputOn[outputIndex.at(sig)] = 1;
      }
      compiled[s].push_back(std::move(ct));
    }
  }
  return extract(fsm, style, [&](int state, std::uint64_t inputBits,
                                 std::vector<char>& outputOn) {
    for (const CompiledTransition& ct :
         compiled[static_cast<std::size_t>(state)]) {
      for (const auto& [care, value] : ct.terms) {
        if ((inputBits & care) == value) {
          outputOn = ct.outputOn;
          return ct.to;
        }
      }
    }
    TAUHLS_FAIL("no transition fires from state " + fsm.stateName(state) +
                " in " + fsm.name());
  });
}

/// The reference step: Fsm::step on every care row.
Extraction extractStepped(const fsm::Fsm& fsm, EncodingStyle style) {
  return extract(fsm, style, [&fsm](int state, std::uint64_t inputBits,
                                    std::vector<char>& outputOn) {
    std::unordered_set<std::string> asserted;
    for (std::size_t i = 0; i < fsm.inputs().size(); ++i) {
      if ((inputBits >> i) & 1) asserted.insert(fsm.inputs()[i]);
    }
    const fsm::Fsm::StepResult r = fsm.step(state, asserted);
    for (std::size_t o = 0; o < fsm.outputs().size(); ++o) {
      outputOn[o] = std::find(r.outputs.begin(), r.outputs.end(),
                              fsm.outputs()[o]) != r.outputs.end();
    }
    return r.nextState;
  });
}

template <typename Minimize>
SynthesizedFsm minimizeTables(Extraction& x, Minimize&& minimize) {
  SynthesizedFsm out = std::move(x.shape);
  for (std::size_t i = 0; i < x.tables.size(); ++i) {
    (static_cast<int>(i) < out.flipFlops ? out.nextStateLogic
                                         : out.outputLogic)
        .push_back(minimize(x.tables[i]));
  }
  return out;
}

/// logic::minimize behind a memo local to one synthesis call: identical
/// truth tables -- functions repeated within a machine, and across
/// controllers bound to identical unit shapes -- are minimized once.
class MinimizeOnce {
 public:
  logic::Cover operator()(logic::TruthTable& tt) {
    auto it = covers_.find(tt);
    if (it == covers_.end()) {
      logic::Cover cover = logic::minimize(tt);
      it = covers_.emplace(std::move(tt), std::move(cover)).first;
    }
    return it->second;
  }

 private:
  std::unordered_map<logic::TruthTable, logic::Cover, logic::TruthTable::Hash>
      covers_;
};

}  // namespace

SynthesizedFsm synthesize(const fsm::Fsm& fsm, EncodingStyle style) {
  Extraction x = extractCompiled(fsm, style);
  MinimizeOnce minimize;
  return minimizeTables(x, minimize);
}

SynthesizedFsm synthesizeReference(const fsm::Fsm& fsm, EncodingStyle style) {
  Extraction x = extractStepped(fsm, style);
  return minimizeTables(x, logic::minimizeReference);
}

SynthesizedControllers synthesizeControllers(
    const fsm::DistributedControlUnit& dcu, EncodingStyle style) {
  MinimizeOnce minimize;
  SynthesizedControllers syn;
  syn.style = style;
  for (const fsm::UnitController& c : dcu.controllers) {
    Extraction x = extractCompiled(c.fsm, style);
    syn.controllers.push_back(minimizeTables(x, minimize));
  }
  return syn;
}

}  // namespace tauhls::synth

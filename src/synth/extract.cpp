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
#include "common/parallel.hpp"
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

/// The encoding of `fsm` under `style`, checked in the order every synthesis
/// starts with: validateFsm, then the encoding, then the 22-variable wall.
Encoding checkedEncoding(const fsm::Fsm& fsm, EncodingStyle style) {
  fsm::validateFsm(fsm);
  Encoding enc = encodeStates(fsm, style);
  const int numVars = enc.bits + static_cast<int>(fsm.inputs().size());
  TAUHLS_CHECK(numVars <= 22,
               "FSM too large for explicit logic extraction: " + fsm.name());
  return enc;
}

/// Every field of `fsm`'s synthesis but the covers.
SynthesizedFsm shapeOf(const fsm::Fsm& fsm, const Encoding& enc) {
  SynthesizedFsm shape;
  shape.name = fsm.name();
  shape.numInputs = static_cast<int>(fsm.inputs().size());
  shape.numOutputs = static_cast<int>(fsm.outputs().size());
  shape.numStates = static_cast<int>(fsm.numStates());
  shape.flipFlops = enc.bits;
  return shape;
}

/// Function i of a synthesis is next-state bit i, then output i - flipFlops.
void addCover(SynthesizedFsm& syn, std::size_t i, logic::Cover cover) {
  (static_cast<int>(i) < syn.flipFlops ? syn.nextStateLogic : syn.outputLogic)
      .push_back(std::move(cover));
}

/// One FSM's logic before minimization.
struct Extraction {
  SynthesizedFsm shape;                    ///< every field but the covers
  std::vector<logic::CubeSpec> functions;  ///< next-state bits, then outputs
};

/// The cube specification of every function of `fsm` under `style`.  Each
/// reachable state's code crossed with each guard term of each of its
/// transitions is one cube (state bits equal to the code, input bits to the
/// term), in the onset or the offset of each next-state bit and output by
/// the transition's target code and output list.  Codes of no reachable
/// state lie in neither list: they are the don't-cares.  validateFsm has
/// proven exactly one transition fires per assignment, so the two lists of
/// a function never share a minterm.
Extraction extract(const fsm::Fsm& fsm, EncodingStyle style) {
  const Encoding enc = checkedEncoding(fsm, style);
  std::unordered_map<std::string, int> inputIndex;
  for (std::size_t i = 0; i < fsm.inputs().size(); ++i) {
    inputIndex.emplace(fsm.inputs()[i], enc.bits + static_cast<int>(i));
  }
  std::unordered_map<std::string, std::size_t> outputIndex;
  for (std::size_t o = 0; o < fsm.outputs().size(); ++o) {
    outputIndex.emplace(fsm.outputs()[o], o);
  }
  Extraction x{shapeOf(fsm, enc), {}};
  const int numVars = enc.bits + x.shape.numInputs;
  x.functions.assign(enc.bits + fsm.outputs().size(),
                     logic::CubeSpec{numVars, {}, {}});

  const std::uint64_t stateCare = (std::uint64_t{1} << enc.bits) - 1;
  const std::vector<bool> reachable = reachableStates(fsm);
  std::vector<char> outputOn(fsm.outputs().size());
  for (std::size_t s = 0; s < fsm.numStates(); ++s) {
    if (!reachable[s]) continue;
    for (const fsm::Transition* t : fsm.transitionsFrom(static_cast<int>(s))) {
      const std::uint32_t nextCode =
          enc.codeOf[static_cast<std::size_t>(t->to)];
      std::fill(outputOn.begin(), outputOn.end(), 0);
      for (const std::string& sig : t->outputs) {
        outputOn[outputIndex.at(sig)] = 1;
      }
      for (const fsm::GuardTerm& term : t->guard.terms()) {
        std::uint64_t care = stateCare;
        std::uint64_t value = enc.codeOf[s];
        for (const auto& [sig, positive] : term.literals) {
          const std::uint64_t bit = std::uint64_t{1} << inputIndex.at(sig);
          care |= bit;
          if (positive) value |= bit;
        }
        const logic::Cube cube = logic::Cube::fromMasks(numVars, care, value);
        for (std::size_t f = 0; f < x.functions.size(); ++f) {
          const bool one = static_cast<int>(f) < enc.bits
                               ? ((nextCode >> f) & 1) != 0
                               : outputOn[f - enc.bits] != 0;
          (one ? x.functions[f].on : x.functions[f].off).push_back(cube);
        }
      }
    }
  }
  return x;
}

/// Minimize every function of `units` and assemble their syntheses in
/// order.  Identical specs -- functions repeated within a machine, and
/// across controllers bound to identical unit shapes -- are minimized once.
/// The distinct ones run on the pool, each into its own slot, so no cover
/// depends on the thread count.
std::vector<SynthesizedFsm> minimizeAll(std::vector<Extraction> units) {
  std::unordered_map<logic::CubeSpec, std::size_t, logic::CubeSpec::Hash>
      slotOf;
  std::vector<const logic::CubeSpec*> distinct;
  std::vector<std::vector<std::size_t>> slots(units.size());
  for (std::size_t u = 0; u < units.size(); ++u) {
    for (logic::CubeSpec& spec : units[u].functions) {
      const auto [it, fresh] =
          slotOf.try_emplace(std::move(spec), distinct.size());
      if (fresh) distinct.push_back(&it->first);
      slots[u].push_back(it->second);
    }
  }
  std::vector<logic::Cover> covers(distinct.size(), logic::Cover(0));
  common::parallelFor(distinct.size(), [&](std::size_t i) {
    covers[i] = logic::minimize(*distinct[i]);
  });
  std::vector<SynthesizedFsm> out;
  for (std::size_t u = 0; u < units.size(); ++u) {
    out.push_back(std::move(units[u].shape));
    for (std::size_t i = 0; i < slots[u].size(); ++i) {
      addCover(out.back(), i, covers[slots[u][i]]);
    }
  }
  return out;
}

}  // namespace

SynthesizedFsm synthesize(const fsm::Fsm& fsm, EncodingStyle style) {
  std::vector<Extraction> units;
  units.push_back(extract(fsm, style));
  return std::move(minimizeAll(std::move(units)).front());
}

SynthesizedFsm synthesizeReference(const fsm::Fsm& fsm, EncodingStyle style) {
  const Encoding enc = checkedEncoding(fsm, style);
  const int numVars = enc.bits + static_cast<int>(fsm.inputs().size());
  std::vector<logic::TruthTable> tables(
      enc.bits + fsm.outputs().size(),
      logic::TruthTable(numVars, logic::Ternary::DontCare));
  // Sweep every row; step the machine on each whose state bits decode to a
  // reachable state (the rest stay don't-cares).
  const std::vector<bool> reachable = reachableStates(fsm);
  for (std::uint64_t row = 0; row < (std::uint64_t{1} << numVars); ++row) {
    const int state = enc.stateOf(
        static_cast<std::uint32_t>(row & ((std::uint64_t{1} << enc.bits) - 1)));
    if (state < 0 || !reachable[state]) continue;
    std::unordered_set<std::string> asserted;
    for (std::size_t i = 0; i < fsm.inputs().size(); ++i) {
      if ((row >> (enc.bits + i)) & 1) asserted.insert(fsm.inputs()[i]);
    }
    const fsm::Fsm::StepResult r = fsm.step(state, asserted);
    const std::uint32_t nextCode =
        enc.codeOf[static_cast<std::size_t>(r.nextState)];
    for (std::size_t f = 0; f < tables.size(); ++f) {
      const bool one =
          static_cast<int>(f) < enc.bits
              ? ((nextCode >> f) & 1) != 0
              : std::find(r.outputs.begin(), r.outputs.end(),
                          fsm.outputs()[f - enc.bits]) != r.outputs.end();
      tables[f].set(row, one ? logic::Ternary::One : logic::Ternary::Zero);
    }
  }
  SynthesizedFsm out = shapeOf(fsm, enc);
  for (std::size_t f = 0; f < tables.size(); ++f) {
    addCover(out, f, logic::minimizeReference(tables[f]));
  }
  return out;
}

SynthesizedControllers synthesizeControllers(
    const fsm::DistributedControlUnit& dcu, EncodingStyle style) {
  // Serially and in controller order, so the first oversized controller is
  // the one an error names.
  std::vector<Extraction> units;
  for (const fsm::UnitController& c : dcu.controllers) {
    units.push_back(extract(c.fsm, style));
  }
  SynthesizedControllers syn;
  syn.style = style;
  syn.controllers = minimizeAll(std::move(units));
  return syn;
}

}  // namespace tauhls::synth

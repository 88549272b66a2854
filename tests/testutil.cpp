#include "testutil.hpp"

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/error.hpp"
#include "synth/encoding.hpp"

namespace tauhls::test {

using dfg::Dfg;
using dfg::NodeId;
using dfg::OpKind;

std::vector<std::string> namesOf(const Dfg& g, const std::vector<NodeId>& ids) {
  std::vector<std::string> out;
  out.reserve(ids.size());
  for (NodeId id : ids) out.push_back(g.node(id).name);
  return out;
}

bool isTopologicalOrder(const Dfg& g, const std::vector<NodeId>& order) {
  if (order.size() != g.numNodes()) return false;
  std::vector<int> pos(g.numNodes(), -1);
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (order[i] >= g.numNodes() || pos[order[i]] != -1) return false;
    pos[order[i]] = static_cast<int>(i);
  }
  for (NodeId v = 0; v < g.numNodes(); ++v) {
    for (NodeId p : g.combinedPredecessors(v)) {
      if (pos[p] >= pos[v]) return false;
    }
  }
  return true;
}

Dfg diamond() {
  Dfg g("diamond");
  NodeId a = g.addInput("a");
  NodeId b = g.addInput("b");
  NodeId m1 = g.addOp(OpKind::Mul, {a, b}, "m1");
  NodeId m2 = g.addOp(OpKind::Mul, {a, b}, "m2");
  NodeId s = g.addOp(OpKind::Add, {m1, m2}, "s");
  g.markOutput(s);
  return g;
}

Dfg mulChain(int n) {
  Dfg g("mul_chain" + std::to_string(n));
  NodeId prev = g.addInput("x");
  NodeId c = g.addInput("c");
  for (int i = 0; i < n; ++i) {
    prev = g.addOp(OpKind::Mul, {prev, c}, "m" + std::to_string(i));
  }
  g.markOutput(prev);
  return g;
}

Dfg parallelMuls(int n) {
  Dfg g("par_muls" + std::to_string(n));
  for (int i = 0; i < n; ++i) {
    NodeId a = g.addInput("a" + std::to_string(i));
    NodeId b = g.addInput("b" + std::to_string(i));
    NodeId m = g.addOp(OpKind::Mul, {a, b}, "m" + std::to_string(i));
    g.markOutput(m);
  }
  return g;
}

Dfg layered21Muls() {
  dfg::RandomDfgSpec spec;
  spec.seed = 2;
  spec.numLayers = 6;
  spec.layerWidth = 4;
  spec.mulPermille = 800;
  return dfg::randomDfg(spec);
}

std::vector<sched::ScheduledDfg> propertySchedules(
    const dfg::RandomDfgSpec& spec, const tau::ResourceLibrary& lib) {
  dfg::RandomDfgSpec layered = spec;
  layered.numLayers = 2 + static_cast<int>(spec.seed % 2);
  layered.layerWidth = 2 + static_cast<int>(spec.seed % 3);
  const sched::Allocation alloc{{dfg::ResourceClass::Multiplier, 2},
                                {dfg::ResourceClass::Adder, 1},
                                {dfg::ResourceClass::Subtractor, 1}};
  std::vector<sched::ScheduledDfg> out;
  for (const dfg::RandomDfgSpec& shape : {spec, layered}) {
    const Dfg g = dfg::randomDfg(shape);
    for (auto strategy : {sched::BindingStrategy::LeftEdge,
                          sched::BindingStrategy::CliqueCover}) {
      out.push_back(sched::scheduleAndBind(g, alloc, lib, strategy));
    }
  }
  return out;
}

namespace {

/// kStrideMask[v]: bits whose row index has bit v clear, for v < 6.
constexpr std::uint64_t kStrideMask[6] = {
    0x5555555555555555ull, 0x3333333333333333ull, 0x0F0F0F0F0F0F0F0Full,
    0x00FF00FF00FF00FFull, 0x0000FFFF0000FFFFull, 0x00000000FFFFFFFFull};

/// dst = src with row-index bit v flipped in every element: a word-level
/// butterfly for bit strides below 64, a word swap at distance 2^(v-6)
/// above.
void flipVar(const std::vector<std::uint64_t>& src, int v,
             std::vector<std::uint64_t>& dst) {
  const std::size_t n = src.size();
  if (v < 6) {
    const int s = 1 << v;
    const std::uint64_t m = kStrideMask[v];
    for (std::size_t i = 0; i < n; ++i) {
      dst[i] = ((src[i] & m) << s) | ((src[i] >> s) & m);
    }
  } else {
    const std::size_t d = std::size_t{1} << (v - 6);
    for (std::size_t i = 0; i < n; ++i) dst[i] = src[i ^ d];
  }
}

bool anyIntersect(const std::vector<std::uint64_t>& a,
                  const std::vector<std::uint64_t>& b) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] & b[i]) return true;
  }
  return false;
}

}  // namespace

logic::Cover minimizeExpandTable(const logic::TruthTable& tt) {
  using logic::Ternary;
  const int vars = tt.numVars();
  const std::uint64_t rows = tt.numRows();
  const std::size_t words = static_cast<std::size_t>((rows + 63) / 64);

  std::vector<std::uint64_t> offsetMask(words, 0);
  std::vector<std::uint64_t> onsetRows;
  for (std::uint64_t r = 0; r < rows; ++r) {
    const Ternary t = tt.get(r);
    if (t == Ternary::Zero) {
      offsetMask[r >> 6] |= std::uint64_t{1} << (r & 63);
    } else if (t == Ternary::One) {
      onsetRows.push_back(r);
    }
  }

  // flippedOffset[v]: rows whose v-flipped partner is in the offset.  A cube
  // currently off the offset gains an offset row by dropping literal v
  // exactly when its minterm set intersects this.
  std::vector<std::vector<std::uint64_t>> flippedOffset(
      static_cast<std::size_t>(vars), std::vector<std::uint64_t>(words));
  for (int v = 0; v < vars; ++v) flipVar(offsetMask, v, flippedOffset[v]);

  logic::Cover result(vars);
  std::vector<std::uint64_t> covered(words, 0);
  std::vector<std::uint64_t> cur(words);
  std::vector<std::uint64_t> flipped(words);
  for (const std::uint64_t row : onsetRows) {
    if ((covered[row >> 6] >> (row & 63)) & 1) continue;
    logic::Cube cube = logic::Cube::minterm(vars, row);
    std::fill(cur.begin(), cur.end(), 0);
    cur[row >> 6] = std::uint64_t{1} << (row & 63);
    // Expand: drop literals one by one while staying off the offset.
    for (int v = 0; v < vars; ++v) {
      if (anyIntersect(cur, flippedOffset[v])) continue;
      cube.dropLiteral(v);
      flipVar(cur, v, flipped);
      for (std::size_t i = 0; i < words; ++i) cur[i] |= flipped[i];
    }
    result.add(cube);
    for (std::size_t i = 0; i < words; ++i) covered[i] |= cur[i];
  }
  result.removeContained();
  return result;
}

logic::CubeSpec specOf(const logic::TruthTable& tt) {
  logic::CubeSpec spec{tt.numVars(), {}, {}};
  for (std::uint64_t r = 0; r < tt.numRows(); ++r) {
    const logic::Ternary t = tt.get(r);
    if (t == logic::Ternary::DontCare) continue;
    (t == logic::Ternary::One ? spec.on : spec.off)
        .push_back(logic::Cube::minterm(tt.numVars(), r));
  }
  return spec;
}

synth::SynthesizedFsm synthesizeFromTables(const fsm::Fsm& fsm,
                                           synth::EncodingStyle style) {
  const synth::Encoding enc = synth::encodeStates(fsm, style);
  const int numInputs = static_cast<int>(fsm.inputs().size());
  const int numVars = enc.bits + numInputs;
  std::unordered_map<std::string, int> inputIndex;
  for (int i = 0; i < numInputs; ++i) inputIndex.emplace(fsm.inputs()[i], i);

  // Each guard term as (care, value) over the inputs, tagged with its
  // transition's index in fsm.transitions().
  struct Term {
    std::uint64_t care = 0;
    std::uint64_t value = 0;
    std::size_t transition = 0;
  };
  std::vector<std::vector<Term>> termsFrom(fsm.numStates());
  for (std::size_t t = 0; t < fsm.transitions().size(); ++t) {
    const fsm::Transition& tr = fsm.transitions()[t];
    for (const fsm::GuardTerm& term : tr.guard.terms()) {
      Term c;
      c.transition = t;
      for (const auto& [sig, positive] : term.literals) {
        const std::uint64_t bit = std::uint64_t{1} << inputIndex.at(sig);
        c.care |= bit;
        if (positive) c.value |= bit;
      }
      termsFrom[static_cast<std::size_t>(tr.from)].push_back(c);
    }
  }

  // The transition firing on every row; kNone on the don't-care rows.
  constexpr std::uint32_t kNone = ~std::uint32_t{0};
  const std::vector<bool> reachable = synth::reachableStates(fsm);
  const std::uint64_t rows = std::uint64_t{1} << numVars;
  std::vector<std::uint32_t> firing(rows, kNone);
  for (std::uint64_t row = 0; row < rows; ++row) {
    const int state = enc.stateOf(
        static_cast<std::uint32_t>(row & ((std::uint64_t{1} << enc.bits) - 1)));
    if (state < 0 || !reachable[static_cast<std::size_t>(state)]) continue;
    const std::uint64_t inputs = row >> enc.bits;
    for (const Term& c : termsFrom[static_cast<std::size_t>(state)]) {
      if ((inputs & c.care) == c.value) {
        firing[row] = static_cast<std::uint32_t>(c.transition);
        break;
      }
    }
    TAUHLS_CHECK(firing[row] != kNone, "no transition fires in " + fsm.name());
  }

  synth::SynthesizedFsm out;
  out.name = fsm.name();
  out.numInputs = numInputs;
  out.numOutputs = static_cast<int>(fsm.outputs().size());
  out.numStates = static_cast<int>(fsm.numStates());
  out.flipFlops = enc.bits;
  // ones[t][f]: function f is 1 while transition t fires.
  const std::size_t numFunctions = enc.bits + fsm.outputs().size();
  std::vector<std::vector<bool>> ones;
  for (const fsm::Transition& tr : fsm.transitions()) {
    std::vector<bool>& one = ones.emplace_back(numFunctions);
    const std::uint32_t nextCode = enc.codeOf[static_cast<std::size_t>(tr.to)];
    for (std::size_t f = 0; f < numFunctions; ++f) {
      one[f] = static_cast<int>(f) < enc.bits
                   ? ((nextCode >> f) & 1) != 0
                   : std::find(tr.outputs.begin(), tr.outputs.end(),
                               fsm.outputs()[f - enc.bits]) != tr.outputs.end();
    }
  }
  for (std::size_t f = 0; f < numFunctions; ++f) {
    logic::TruthTable tt(numVars, logic::Ternary::DontCare);
    for (std::uint64_t row = 0; row < rows; ++row) {
      if (firing[row] == kNone) continue;
      tt.set(row, ones[firing[row]][f] ? logic::Ternary::One
                                       : logic::Ternary::Zero);
    }
    const bool exact =
        numVars <= 14 && tt.numRows() - tt.offset().size() <= 4096;
    (static_cast<int>(f) < enc.bits ? out.nextStateLogic : out.outputLogic)
        .push_back(exact ? logic::minimizeExact(tt) : minimizeExpandTable(tt));
  }
  return out;
}

}  // namespace tauhls::test

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "dfg/benchmarks.hpp"
#include "dfg/random.hpp"
#include "fsm/cent_sync.hpp"
#include "fsm/distributed.hpp"
#include "fsm/product.hpp"
#include "fsm/signal_opt.hpp"
#include "synth/area.hpp"
#include "synth/encoding.hpp"
#include "synth/extract.hpp"
#include "testutil.hpp"

namespace tauhls::synth {
namespace {

using dfg::ResourceClass;
using sched::Allocation;

fsm::Fsm toyCounter() {
  // 3-state counter with an enable input; S2 wraps and pulses "done".
  fsm::Fsm f("counter3");
  int s0 = f.addState("S0");
  int s1 = f.addState("S1");
  int s2 = f.addState("S2");
  f.addInput("en");
  f.addOutput("done");
  f.addTransition(s0, s1, fsm::Guard::literal("en", true), {});
  f.addTransition(s0, s0, fsm::Guard::literal("en", false), {});
  f.addTransition(s1, s2, fsm::Guard::literal("en", true), {});
  f.addTransition(s1, s1, fsm::Guard::literal("en", false), {});
  f.addTransition(s2, s0, fsm::Guard::always(), {"done"});
  f.setInitial(s0);
  return f;
}

void expectSameLogic(const SynthesizedFsm& a, const SynthesizedFsm& b,
                     const std::string& name) {
  EXPECT_EQ(a.flipFlops, b.flipFlops) << name;
  ASSERT_EQ(a.nextStateLogic.size(), b.nextStateLogic.size()) << name;
  for (std::size_t i = 0; i < a.nextStateLogic.size(); ++i) {
    EXPECT_EQ(a.nextStateLogic[i].cubes(), b.nextStateLogic[i].cubes())
        << name << " ns" << i;
  }
  ASSERT_EQ(a.outputLogic.size(), b.outputLogic.size()) << name;
  for (std::size_t i = 0; i < a.outputLogic.size(); ++i) {
    EXPECT_EQ(a.outputLogic[i].cubes(), b.outputLogic[i].cubes())
        << name << " out" << i;
  }
  EXPECT_EQ(a.totalLiterals(), b.totalLiterals()) << name;
}

TEST(Encoding, BinaryCompact) {
  fsm::Fsm f = toyCounter();
  Encoding e = encodeStates(f, EncodingStyle::Binary);
  EXPECT_EQ(e.bits, 2);
  EXPECT_EQ(e.codeOf, (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_EQ(e.stateOf(1), 1);
  EXPECT_EQ(e.stateOf(3), -1);  // unused code
}

TEST(Encoding, OneHot) {
  fsm::Fsm f = toyCounter();
  Encoding e = encodeStates(f, EncodingStyle::OneHot);
  EXPECT_EQ(e.bits, 3);
  EXPECT_EQ(e.codeOf, (std::vector<std::uint32_t>{1, 2, 4}));
}

TEST(Extract, CounterLogicIsCorrect) {
  fsm::Fsm f = toyCounter();
  SynthesizedFsm s = synthesize(f);
  EXPECT_EQ(s.numStates, 3);
  EXPECT_EQ(s.flipFlops, 2);
  EXPECT_EQ(s.numInputs, 1);
  EXPECT_EQ(s.numOutputs, 1);
  ASSERT_EQ(s.nextStateLogic.size(), 2u);
  ASSERT_EQ(s.outputLogic.size(), 1u);
  // Evaluate the extracted network against the machine on all care rows.
  // Variable order: state bits (LSB first), then inputs.
  for (int state = 0; state < 3; ++state) {
    for (int en = 0; en < 2; ++en) {
      std::unordered_set<std::string> asserted;
      if (en) asserted.insert("en");
      auto ref = f.step(state, asserted);
      const std::uint64_t row =
          static_cast<std::uint64_t>(state) | (static_cast<std::uint64_t>(en) << 2);
      std::uint32_t nextCode = 0;
      for (int b = 0; b < 2; ++b) {
        if (s.nextStateLogic[b].evaluate(row)) nextCode |= 1u << b;
      }
      EXPECT_EQ(static_cast<int>(nextCode), ref.nextState);
      const bool done = !ref.outputs.empty();
      EXPECT_EQ(s.outputLogic[0].evaluate(row), done);
    }
  }
}

TEST(Extract, DontCaresReduceLiterals) {
  // With 3 states in 2 bits, code 3 is a don't-care; the minimized logic must
  // not exceed the 1-per-minterm upper bound and must use the slack.
  fsm::Fsm f = toyCounter();
  SynthesizedFsm s = synthesize(f);
  EXPECT_GT(s.totalLiterals(), 0);
  EXPECT_LE(s.totalLiterals(), 24);
}

TEST(Extract, DistributedControllersSynthesize) {
  auto sdfg = sched::scheduleAndBind(dfg::diffeq(),
                                     Allocation{{ResourceClass::Multiplier, 2},
                                                {ResourceClass::Adder, 1},
                                                {ResourceClass::Subtractor, 1}},
                                     tau::paperLibrary());
  fsm::DistributedControlUnit dcu = fsm::buildDistributed(sdfg);
  for (const fsm::UnitController& c : dcu.controllers) {
    SynthesizedFsm s = synthesize(c.fsm);
    EXPECT_GT(s.totalLiterals(), 0) << c.fsm.name();
    EXPECT_EQ(s.flipFlops, c.fsm.flipFlopCount());
  }
}

// synthesize() compiles guards to bitmask terms for the truth-table row
// sweep and runs the fast minimizer; synthesizeReference() steps the FSM row
// by row and runs the reference minimizer.  Both must extract identical
// covers on real controllers, under both encodings.
TEST(Extract, FastAndReferenceRegimesExtractIdenticalLogic) {
  auto sdfg = sched::scheduleAndBind(dfg::diffeq(),
                                     Allocation{{ResourceClass::Multiplier, 2},
                                                {ResourceClass::Adder, 1},
                                                {ResourceClass::Subtractor, 1}},
                                     tau::paperLibrary());
  fsm::DistributedControlUnit dcu = fsm::buildDistributed(sdfg);
  for (const fsm::UnitController& c : dcu.controllers) {
    for (const EncodingStyle style :
         {EncodingStyle::Binary, EncodingStyle::OneHot}) {
      const SynthesizedFsm ref = synthesizeReference(c.fsm, style);
      const SynthesizedFsm fast = synthesize(c.fsm, style);
      expectSameLogic(fast, ref, c.fsm.name());
    }
  }
}

// The synth passes minimize each distinct truth table once across all
// controllers (AR-lattice's six controllers repeat many tables); the covers
// must equal synthesizing every controller on its own, under both
// encodings.
TEST(Extract, ControllerPassMatchesPerControllerSynthesis) {
  const auto suite = dfg::paperTable2Suite();
  const dfg::NamedBenchmark& arlattice = suite.back();
  ASSERT_EQ(arlattice.name, "AR-lattice");
  const fsm::DistributedControlUnit dcu =
      fsm::optimizeSignals(fsm::buildDistributed(sched::scheduleAndBind(
          arlattice.graph, arlattice.allocation, tau::paperLibrary())));
  for (const EncodingStyle style :
       {EncodingStyle::Binary, EncodingStyle::OneHot}) {
    const SynthesizedControllers syn = synthesizeControllers(dcu, style);
    const std::vector<SynthesizedFsm>& controllers = syn.under(style, dcu);
    for (std::size_t i = 0; i < dcu.controllers.size(); ++i) {
      const fsm::Fsm& f = dcu.controllers[i].fsm;
      expectSameLogic(controllers[i], synthesize(f, style), f.name());
    }
    // The consumers' guard: another encoding or another unit is an error.
    EXPECT_THROW(syn.under(style == EncodingStyle::Binary
                               ? EncodingStyle::OneHot
                               : EncodingStyle::Binary,
                           dcu),
                 Error);
    EXPECT_THROW(syn.under(style, fsm::DistributedControlUnit{}), Error);
  }
}

/// The distributed unit the flow builds for `g` (Fig. 7 signal pruning on).
fsm::DistributedControlUnit flowUnit(const dfg::Dfg& g, const Allocation& a,
                                     sched::BindingStrategy strategy) {
  return fsm::optimizeSignals(fsm::buildDistributed(
      sched::scheduleAndBind(g, a, tau::paperLibrary(), strategy)));
}

/// synthesize() on cube specs against the truth-table oracle (explicit
/// 2^n tables, QM or the bit-parallel table expand) on every controller of
/// `dcu` under `styles`; returns the widest controller's variable count.
int expectCubeEngineMatchesTables(const fsm::DistributedControlUnit& dcu,
                                  const std::string& name,
                                  const std::vector<EncodingStyle>& styles) {
  int widest = 0;
  for (const EncodingStyle style : styles) {
    for (const fsm::UnitController& c : dcu.controllers) {
      const int vars = encodeStates(c.fsm, style).bits +
                       static_cast<int>(c.fsm.inputs().size());
      if (vars > 22) continue;  // past the wall
      widest = std::max(widest, vars);
      expectSameLogic(
          synthesize(c.fsm, style), test::synthesizeFromTables(c.fsm, style),
          name + "/" + c.fsm.name() +
              (style == EncodingStyle::Binary ? "/binary" : "/onehot"));
    }
  }
  return widest;
}

// Every controller of the paper designs, under both binding strategies and
// both encodings (one-hot iir3 and AR-lattice reach 15-19 variables).
TEST(Extract, CubeEngineMatchesTableOracleOnPaperDesigns) {
  int widest = 0;
  for (const dfg::NamedBenchmark& b : dfg::paperTable2Suite()) {
    for (const sched::BindingStrategy strategy :
         {sched::BindingStrategy::LeftEdge,
          sched::BindingStrategy::CliqueCover}) {
      widest = std::max(widest, expectCubeEngineMatchesTables(
                                    flowUnit(b.graph, b.allocation, strategy),
                                    b.name,
                                    {EncodingStyle::Binary,
                                     EncodingStyle::OneHot}));
    }
  }
  EXPECT_GT(widest, 14);
}

// The layered ladder of 16-64 ops (4 per rank, half multiplies, spec seed 1,
// mult=2,add=1,sub=1), binary encoding: its controllers reach 17, 18 and 20
// variables.
TEST(Extract, CubeEngineMatchesTableOracleOnLayeredLadder) {
  const Allocation alloc{{ResourceClass::Multiplier, 2},
                         {ResourceClass::Adder, 1},
                         {ResourceClass::Subtractor, 1}};
  int widest = 0;
  for (int ops = 16; ops <= 64; ops += 8) {
    dfg::RandomDfgSpec spec;
    spec.numLayers = ops / 4;
    spec.layerWidth = 4;
    spec.mulPermille = 500;
    spec.seed = 1;
    widest = std::max(
        widest, expectCubeEngineMatchesTables(
                    flowUnit(dfg::randomDfg(spec), alloc,
                             sched::BindingStrategy::LeftEdge),
                    "L" + std::to_string(ops), {EncodingStyle::Binary}));
  }
  EXPECT_GE(widest, 20);
}

/// A random valid FSM of `numVars` logic variables under `style`: state 0
/// initial, the last state unreachable, and every state branching on a
/// random decision tree of up to four inputs, whose leaves go to random
/// targets asserting random outputs (leaves with one target and output set
/// form one multi-term transition).
fsm::Fsm randomFsm(std::uint64_t seed, int numStates, int numVars,
                   EncodingStyle style) {
  std::mt19937_64 rng(seed);
  const auto pick = [&rng](int n) {
    return std::uniform_int_distribution<int>(0, n - 1)(rng);
  };
  fsm::Fsm f("random" + std::to_string(seed));
  for (int s = 0; s < numStates; ++s) f.addState("S" + std::to_string(s));
  const int numInputs = numVars - encodeStates(f, style).bits;
  for (int i = 0; i < numInputs; ++i) f.addInput("i" + std::to_string(i));
  for (int o = 0; o < 3; ++o) f.addOutput("o" + std::to_string(o));
  for (int s = 0; s < numStates; ++s) {
    // (target, outputs) -> guard
    std::vector<std::pair<std::pair<int, std::vector<std::string>>, fsm::Guard>>
        arms;
    std::vector<int> order(static_cast<std::size_t>(numInputs));
    for (int i = 0; i < numInputs; ++i) order[static_cast<std::size_t>(i)] = i;
    std::shuffle(order.begin(), order.end(), rng);
    const int depth = 1 + pick(std::min(4, numInputs));
    for (int leaf = 0; leaf < (1 << depth); ++leaf) {
      fsm::Guard g = fsm::Guard::always();
      for (int d = 0; d < depth; ++d) {
        g = g.conjoin(fsm::Guard::literal(
            "i" + std::to_string(order[static_cast<std::size_t>(d)]),
            (leaf >> d) & 1));
      }
      const int to = pick(numStates - 1);  // never the unreachable state
      std::vector<std::string> outs;
      for (int o = 0; o < 3; ++o) {
        if (pick(2)) outs.push_back("o" + std::to_string(o));
      }
      auto arm = std::find_if(arms.begin(), arms.end(), [&](const auto& a) {
        return a.first.first == to && a.first.second == outs;
      });
      if (arm == arms.end()) {
        arms.push_back({{to, outs}, g});
      } else {
        arm->second = arm->second.disjoin(g);
      }
    }
    for (const auto& [key, g] : arms) {
      f.addTransition(s, key.first, g, key.second);
    }
  }
  f.setInitial(0);
  return f;
}

// Seeded random machines of 15-22 variables: the cube engine against the
// table oracle, both encodings.
TEST(Extract, CubeEngineMatchesTableOracleOnRandomFsms) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const int numStates = 3 + static_cast<int>(seed % 4);  // 3..6
    for (const EncodingStyle style :
         {EncodingStyle::Binary, EncodingStyle::OneHot}) {
      const int numVars = 14 + static_cast<int>(seed);  // 15..22
      const fsm::Fsm f = randomFsm(seed, numStates, numVars, style);
      const SynthesizedFsm cubes = synthesize(f, style);
      ASSERT_EQ(cubes.flipFlops + cubes.numInputs, numVars);
      expectSameLogic(cubes, test::synthesizeFromTables(f, style),
                      f.name() + (style == EncodingStyle::Binary ? "/binary"
                                                                 : "/onehot"));
    }
  }
}

// The distinct functions of a unit are minimized on the pool, each into its
// own slot: the covers cannot depend on the thread count.
TEST(Extract, ControllerCoversIndependentOfThreadCount) {
  const auto suite = dfg::paperTable2Suite();
  const dfg::NamedBenchmark& arlattice = suite.back();
  const fsm::DistributedControlUnit dcu =
      flowUnit(arlattice.graph, arlattice.allocation,
               sched::BindingStrategy::LeftEdge);
  const int saved = common::globalThreadPool().threadCount();
  for (const EncodingStyle style :
       {EncodingStyle::Binary, EncodingStyle::OneHot}) {
    common::setGlobalThreadCount(1);
    const SynthesizedControllers one = synthesizeControllers(dcu, style);
    for (const int threads : {2, 8}) {
      common::setGlobalThreadCount(threads);
      const SynthesizedControllers many = synthesizeControllers(dcu, style);
      ASSERT_EQ(many.controllers.size(), one.controllers.size());
      for (std::size_t i = 0; i < one.controllers.size(); ++i) {
        expectSameLogic(many.controllers[i], one.controllers[i],
                        one.controllers[i].name + " @" +
                            std::to_string(threads));
      }
    }
  }
  common::setGlobalThreadCount(saved);
}

// Specs are built serially in controller order before anything is
// minimized, so the first oversized controller is the one named, exactly as
// when each controller was synthesized in turn.
TEST(Extract, OversizedSecondControllerNamedInError) {
  const auto wide = [](const std::string& name, int inputs) {
    fsm::UnitController c;
    c.fsm = fsm::Fsm(name);
    const int s0 = c.fsm.addState("S0");
    for (int i = 0; i < inputs; ++i) c.fsm.addInput("i" + std::to_string(i));
    c.fsm.addTransition(s0, s0, fsm::Guard::always(), {});
    c.fsm.setInitial(s0);
    return c;
  };
  fsm::DistributedControlUnit dcu;
  dcu.controllers.push_back(wide("D_FSM_small", 3));
  dcu.controllers.push_back(wide("D_FSM_wide", 23));
  dcu.controllers.push_back(wide("D_FSM_wider", 30));
  try {
    synthesizeControllers(dcu, EncodingStyle::Binary);
    FAIL() << "an oversized controller was synthesized";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "FSM too large for explicit logic extraction: D_FSM_wide"),
              std::string::npos)
        << e.what();
    EXPECT_EQ(std::string(e.what()).find("D_FSM_wider"), std::string::npos);
  }
}

TEST(Area, RowBasics) {
  AreaRow row = areaRow("counter", toyCounter());
  EXPECT_EQ(row.name, "counter");
  EXPECT_EQ(row.states, 3);
  EXPECT_EQ(row.flipFlops, 2);
  EXPECT_EQ(row.seqArea, 2 * kAreaPerFlipFlop);
  EXPECT_EQ(row.seqArea, 44);  // the paper's 2-FF sequential area
  EXPECT_GT(row.combArea, 0);
  EXPECT_EQ(row.totalArea(), row.combArea + row.seqArea);
}

TEST(Area, PaperSequentialConstantReproduced) {
  // The paper's Table 1: 3 FFs -> 66, 5 FFs -> 110.
  EXPECT_EQ(3 * kAreaPerFlipFlop, 66);
  EXPECT_EQ(5 * kAreaPerFlipFlop, 110);
}

TEST(Area, DistributedReportAggregates) {
  auto sdfg = sched::scheduleAndBind(dfg::diffeq(),
                                     Allocation{{ResourceClass::Multiplier, 2},
                                                {ResourceClass::Adder, 1},
                                                {ResourceClass::Subtractor, 1}},
                                     tau::paperLibrary());
  fsm::DistributedControlUnit dcu = fsm::buildDistributed(sdfg);
  DistributedAreaReport report = distributedArea(dcu);
  ASSERT_EQ(report.perController.size(), 4u);
  int combSum = 0;
  int ffSum = 0;
  for (const AreaRow& row : report.perController) {
    combSum += row.combArea;
    ffSum += row.flipFlops;
  }
  EXPECT_EQ(report.total.combArea, combSum);
  EXPECT_EQ(report.total.flipFlops, ffSum + report.completionLatches);
  EXPECT_EQ(report.total.seqArea,
            (ffSum + report.completionLatches) * kAreaPerFlipFlop);
  EXPECT_GT(report.completionLatches, 0);
}

TEST(Area, Table1Shape) {
  // The paper's area claims on the Diff. benchmark with {*:2, +:1, -:1}:
  //   (a) CENT-SYNC-FSM is the smallest machine;
  //   (b) DIST-FSM total is larger than CENT-SYNC (redundancy + comm);
  //   (c) CENT-FSM (full product) has far more states than CENT-SYNC and
  //       more combinational area than any single unit controller.
  auto sdfg = sched::scheduleAndBind(dfg::diffeq(),
                                     Allocation{{ResourceClass::Multiplier, 2},
                                                {ResourceClass::Adder, 1},
                                                {ResourceClass::Subtractor, 1}},
                                     tau::paperLibrary());
  fsm::DistributedControlUnit dcu = fsm::buildDistributed(sdfg);
  fsm::Fsm centSync = fsm::buildCentSync(sdfg);
  fsm::Fsm product = fsm::buildProduct(dcu);

  AreaRow sync = areaRow("CENT-SYNC-FSM", centSync);
  AreaRow cent = areaRow("CENT-FSM", product);
  DistributedAreaReport dist = distributedArea(dcu);

  EXPECT_GT(dist.total.totalArea(), sync.totalArea());
  EXPECT_GT(cent.states, sync.states);
  EXPECT_GT(cent.states, static_cast<int>(dcu.totalStates()));
  for (const AreaRow& row : dist.perController) {
    EXPECT_GT(cent.combArea, row.combArea);
  }
}

TEST(Extract, OversizedFsmRejected) {
  // 40 inputs would blow the explicit truth-table bound.
  fsm::Fsm f("wide");
  int s0 = f.addState("S0");
  for (int i = 0; i < 23; ++i) f.addInput("i" + std::to_string(i));
  f.addTransition(s0, s0, fsm::Guard::always(), {});
  f.setInitial(s0);
  EXPECT_THROW(synthesize(f), Error);
}

}  // namespace
}  // namespace tauhls::synth

// Multi-level VCAU extension tests: the L-level Algorithm 1
// (fsm::buildDistributed with a tau::MultiLevelLibrary override), its latency
// engines, and the reduction to the paper's two-level case.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "dfg/benchmarks.hpp"
#include "dfg/random.hpp"
#include "fsm/distributed.hpp"
#include "sim/interp.hpp"
#include "sim/stats.hpp"
#include "testutil.hpp"

namespace tauhls {
namespace {

using dfg::ResourceClass;
using sched::Allocation;
using sim::ControlStyle;
using sim::LevelClasses;
using tau::MultiLevelLibrary;
using tau::MultiLevelUnitType;

/// Clock 10 ns: levels 10/20/30 ns -> 1/2/3 cycles.
tau::ResourceLibrary clock10Library() {
  tau::ResourceLibrary lib;
  // Surrogate two-level multiplier keeps scheduleAndBind happy; the
  // multi-level overrides supply the real three-level behaviour.
  lib.registerType(
      tau::telescopicUnit("tau_mult", ResourceClass::Multiplier, 10, 20, 0.5));
  lib.registerType(tau::fixedUnit("adder", ResourceClass::Adder, 10.0));
  lib.registerType(tau::fixedUnit("subtractor", ResourceClass::Subtractor, 10.0));
  return lib;
}

MultiLevelLibrary threeLevelMult() {
  return {{ResourceClass::Multiplier,
           tau::multiLevelUnit("tau3_mult", ResourceClass::Multiplier,
                               {10, 20, 30}, {0.5, 0.3, 0.2})}};
}

TEST(Unit, ValidationRules) {
  EXPECT_NO_THROW(tau::multiLevelUnit("u", ResourceClass::Multiplier, {10, 20},
                                      {0.7, 0.3}));
  EXPECT_THROW(tau::multiLevelUnit("u", ResourceClass::Multiplier, {20, 10},
                                   {0.5, 0.5}),
               Error);
  EXPECT_THROW(tau::multiLevelUnit("u", ResourceClass::Multiplier, {10, 20},
                                   {0.5, 0.4}),
               Error);
  EXPECT_THROW(tau::multiLevelUnit("u", ResourceClass::Multiplier, {}, {}),
               Error);
  // Cycle contract: 25 ns at a 10 ns clock needs 3 cycles, not 2.
  MultiLevelUnitType bad = tau::multiLevelUnit("u", ResourceClass::Multiplier,
                                               {10, 25}, {0.5, 0.5});
  EXPECT_THROW(tau::validateMultiLevelUnit(bad, 10.0), Error);
}

void expectSameFsm(const fsm::Fsm& a, const fsm::Fsm& b) {
  ASSERT_EQ(a.name(), b.name());
  ASSERT_EQ(a.numStates(), b.numStates()) << a.name();
  for (int st = 0; st < static_cast<int>(a.numStates()); ++st) {
    EXPECT_EQ(a.stateName(st), b.stateName(st)) << a.name();
  }
  EXPECT_EQ(a.initial(), b.initial()) << a.name();
  EXPECT_EQ(a.inputs(), b.inputs()) << a.name();
  EXPECT_EQ(a.outputs(), b.outputs()) << a.name();
  ASSERT_EQ(a.transitions().size(), b.transitions().size()) << a.name();
  for (std::size_t i = 0; i < a.transitions().size(); ++i) {
    const fsm::Transition& ta = a.transitions()[i];
    const fsm::Transition& tb = b.transitions()[i];
    EXPECT_EQ(ta.from, tb.from) << a.name() << " transition " << i;
    EXPECT_EQ(ta.to, tb.to) << a.name() << " transition " << i;
    EXPECT_EQ(ta.guard, tb.guard) << a.name() << " transition " << i;
    EXPECT_EQ(ta.outputs, tb.outputs) << a.name() << " transition " << i;
  }
}

TEST(Controller, TwoLevelReducesToPaperAlgorithm) {
  // An explicit two-level override matching the paper library must build
  // the very machines of the default construction -- same states,
  // transitions and outputs in the same order -- and simulate to the same
  // trace, stimulus included.
  auto s = sched::scheduleAndBind(dfg::diffeq(),
                                  Allocation{{ResourceClass::Multiplier, 2},
                                             {ResourceClass::Adder, 1},
                                             {ResourceClass::Subtractor, 1}},
                                  tau::paperLibrary());
  MultiLevelLibrary two{{ResourceClass::Multiplier,
                         tau::multiLevelUnit("tau2", ResourceClass::Multiplier,
                                             {15, 20}, {0.5, 0.5})}};
  fsm::DistributedControlUnit a = fsm::buildDistributed(s);
  fsm::DistributedControlUnit b = fsm::buildDistributed(s, two);
  ASSERT_EQ(a.controllers.size(), b.controllers.size());
  for (std::size_t c = 0; c < a.controllers.size(); ++c) {
    const fsm::UnitController& ca = a.controllers[c];
    const fsm::UnitController& cb = b.controllers[c];
    EXPECT_EQ(ca.unitId, cb.unitId);
    EXPECT_EQ(ca.telescopic, cb.telescopic);
    EXPECT_EQ(ca.ops, cb.ops);
    EXPECT_EQ(ca.latchedInputs, cb.latchedInputs);
    expectSameFsm(ca.fsm, cb.fsm);
  }
  EXPECT_EQ(a.externalInputs, b.externalInputs);
  EXPECT_EQ(a.producerOf, b.producerOf);
  EXPECT_EQ(a.consumersOf, b.consumersOf);

  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const sim::OperandClasses classes = sim::randomClasses(s, 0.5, seed);
    const sim::SimTrace ta = sim::runDistributed(a, s, classes);
    const sim::SimTrace tb =
        sim::runDistributed(b, s, sim::levelsOf(s, classes));
    EXPECT_EQ(ta.outputsPerCycle, tb.outputsPerCycle) << "seed=" << seed;
    EXPECT_EQ(ta.externalsPerCycle, tb.externalsPerCycle) << "seed=" << seed;
    EXPECT_EQ(ta.latencyCycles, tb.latencyCycles) << "seed=" << seed;
  }
}

TEST(Controller, ThreeLevelStateChain) {
  dfg::Dfg g = test::parallelMuls(1);
  auto s = sched::scheduleAndBind(g, Allocation{{ResourceClass::Multiplier, 1}},
                                  clock10Library());
  fsm::DistributedControlUnit dcu = fsm::buildDistributed(s, threeLevelMult());
  const fsm::Fsm& f = dcu.controllers[0].fsm;
  EXPECT_EQ(f.numStates(), 3u);  // S0, S0p, S0pp
  EXPECT_NE(f.findState("S0pp"), -1);
  // Level 0: complete from S0 when C is up.
  auto r = f.step(f.findState("S0"), {"C_mult1"});
  EXPECT_EQ(r.nextState, f.findState("S0"));
  // Level 2: two misses then unconditional completion.
  auto r1 = f.step(f.findState("S0"), {});
  EXPECT_EQ(r1.nextState, f.findState("S0p"));
  auto r2 = f.step(r1.nextState, {});
  EXPECT_EQ(r2.nextState, f.findState("S0pp"));
  auto r3 = f.step(r2.nextState, {});
  EXPECT_EQ(r3.nextState, f.findState("S0"));
  EXPECT_EQ(r3.outputs.size(), 3u);  // OF, RE, CCO
}

TEST(Controller, RejectsWrongClockContract) {
  dfg::Dfg g = test::parallelMuls(1);
  auto s = sched::scheduleAndBind(g, Allocation{{ResourceClass::Multiplier, 1}},
                                  tau::paperLibrary());  // 15 ns clock
  // 10/20/30 at a 15 ns clock: level 1 fits in 2 cycles but level 0's
  // 10 ns < 15 ns is fine; 30 ns needs exactly 2 cycles, not 3 -> reject.
  EXPECT_THROW(fsm::buildDistributed(s, threeLevelMult()), Error);
}

TEST(Makespan, LevelDurations) {
  dfg::Dfg g = test::mulChain(3);
  auto s = sched::scheduleAndBind(g, Allocation{{ResourceClass::Multiplier, 1}},
                                  clock10Library());
  MultiLevelLibrary lib = threeLevelMult();
  const ControlStyle dist = ControlStyle::Distributed;
  EXPECT_EQ(sim::makespanCycles(s, dist, sim::allFastest(s)), 3);
  EXPECT_EQ(sim::makespanCycles(s, dist, sim::allSlowest(s, lib)), 9);
  LevelClasses mixed = sim::allFastest(s);
  mixed.levelOf[g.findByName("m1")] = 2;
  EXPECT_EQ(sim::makespanCycles(s, dist, mixed), 5);
}

TEST(Makespan, SyncChargesStepMaximum) {
  dfg::Dfg g = test::parallelMuls(2);
  auto s = sched::scheduleAndBind(g, Allocation{{ResourceClass::Multiplier, 2}},
                                  clock10Library());
  LevelClasses c = sim::allFastest(s);
  c.levelOf[g.findByName("m1")] = 2;
  // The whole step waits; the distributed schedule waits for the slow op only.
  EXPECT_EQ(sim::makespanCycles(s, ControlStyle::CentSync, c), 3);
  EXPECT_EQ(sim::makespanCycles(s, ControlStyle::Distributed, c), 3);
}

TEST(Interp, MatchesMakespanOnDiffeq) {
  auto s = sched::scheduleAndBind(dfg::diffeq(),
                                  Allocation{{ResourceClass::Multiplier, 2},
                                             {ResourceClass::Adder, 1},
                                             {ResourceClass::Subtractor, 1}},
                                  clock10Library());
  MultiLevelLibrary lib = threeLevelMult();
  fsm::DistributedControlUnit dcu = fsm::buildDistributed(s, lib);
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    LevelClasses classes = sim::randomLevels(s, lib, seed);
    sim::SimTrace trace = sim::runDistributed(dcu, s, classes);
    EXPECT_EQ(trace.latencyCycles,
              sim::makespanCycles(s, ControlStyle::Distributed, classes))
        << "seed=" << seed;
  }
  // A level beyond the unit's L is rejected.
  LevelClasses tooSlow = sim::allSlowest(s, lib);
  tooSlow.levelOf[s.graph.opsOfClass(ResourceClass::Multiplier).front()] = 3;
  EXPECT_THROW(sim::runDistributed(dcu, s, tooSlow), Error);
}

TEST(Stats, ExactMatchesTwoLevelEngineOnPaperCase) {
  // With a two-level override matching the paper library, the level-based
  // exact expectation must equal the two-level engine's.
  auto s = sched::scheduleAndBind(dfg::diffeq(),
                                  Allocation{{ResourceClass::Multiplier, 2},
                                             {ResourceClass::Adder, 1},
                                             {ResourceClass::Subtractor, 1}},
                                  tau::paperLibrary(0.7));
  MultiLevelLibrary two{{ResourceClass::Multiplier,
                         tau::multiLevelUnit("tau2", ResourceClass::Multiplier,
                                             {15, 20}, {0.7, 0.3})}};
  EXPECT_NEAR(sim::averageCyclesExact(s, two, ControlStyle::Distributed),
              sim::averageCyclesExact(s, ControlStyle::Distributed, 0.7),
              1e-9);
  EXPECT_NEAR(sim::averageCyclesExact(s, two, ControlStyle::CentSync),
              sim::averageCyclesExact(s, ControlStyle::CentSync, 0.7), 1e-9);
}

TEST(Stats, ExactMatchesMonteCarlo) {
  auto s = sched::scheduleAndBind(dfg::diffeq(),
                                  Allocation{{ResourceClass::Multiplier, 2},
                                             {ResourceClass::Adder, 1},
                                             {ResourceClass::Subtractor, 1}},
                                  clock10Library());
  MultiLevelLibrary lib = threeLevelMult();
  const double exact =
      sim::averageCyclesExact(s, lib, ControlStyle::Distributed);
  const double mc = sim::averageCyclesMonteCarlo(
      s, lib, ControlStyle::Distributed, 30000, 11);
  EXPECT_NEAR(mc, exact, 0.05);
}

TEST(Stats, DistributedNeverSlowerThanSync) {
  auto s = sched::scheduleAndBind(dfg::fir(5),
                                  Allocation{{ResourceClass::Multiplier, 2},
                                             {ResourceClass::Adder, 1}},
                                  clock10Library());
  MultiLevelLibrary lib = threeLevelMult();
  EXPECT_LE(sim::averageCyclesExact(s, lib, ControlStyle::Distributed),
            sim::averageCyclesExact(s, lib, ControlStyle::CentSync));
}

class VcauProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VcauProperty, InterpEqualsMakespanOnRandomGraphs) {
  dfg::RandomDfgSpec spec;
  spec.seed = GetParam() * 613;
  spec.numOps = 5 + static_cast<int>(GetParam() % 8);
  const MultiLevelLibrary lib = threeLevelMult();
  for (const sched::ScheduledDfg& s :
       test::propertySchedules(spec, clock10Library())) {
    fsm::DistributedControlUnit dcu = fsm::buildDistributed(s, lib);
    for (std::uint64_t trial = 0; trial < 6; ++trial) {
      LevelClasses classes = sim::randomLevels(s, lib, GetParam() * 50 + trial);
      EXPECT_EQ(sim::runDistributed(dcu, s, classes).latencyCycles,
                sim::makespanCycles(s, ControlStyle::Distributed, classes))
          << s.graph.name() << " units=" << s.binding.numUnits();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VcauProperty,
                         ::testing::Range<std::uint64_t>(1, 11));

}  // namespace
}  // namespace tauhls

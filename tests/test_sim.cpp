// Simulation-layer tests, including the central integration property of the
// repository: the generated FSMs, interpreted cycle by cycle with completion
// latches, reproduce the abstract makespan model exactly -- for every operand
// class assignment -- and the product machine (CENT-FSM) is behaviourally
// equivalent to the distributed controllers.
#include <gtest/gtest.h>

#include "dfg/analysis.hpp"
#include "dfg/benchmarks.hpp"
#include "dfg/random.hpp"
#include "fsm/cent_sync.hpp"
#include "fsm/distributed.hpp"
#include "fsm/product.hpp"
#include "sim/interp.hpp"
#include "sim/stats.hpp"
#include "testutil.hpp"

namespace tauhls::sim {
namespace {

using dfg::ResourceClass;
using sched::Allocation;
using sched::ScheduledDfg;

ScheduledDfg scheduledDiffeq() {
  return sched::scheduleAndBind(dfg::diffeq(),
                                Allocation{{ResourceClass::Multiplier, 2},
                                           {ResourceClass::Adder, 1},
                                           {ResourceClass::Subtractor, 1}},
                                tau::paperLibrary());
}

TEST(Classes, BuildersAndMask) {
  ScheduledDfg s = scheduledDiffeq();
  EXPECT_EQ(tauOps(s).size(), 6u);  // the six multiplications
  OperandClasses shortAll = allShort(s);
  OperandClasses longAll = allLong(s);
  for (dfg::NodeId v : tauOps(s)) {
    EXPECT_TRUE(shortAll.isShort(v));
    EXPECT_FALSE(longAll.isShort(v));
  }
  OperandClasses m = fromMask(s, 0b000101);
  auto taus = tauOps(s);
  EXPECT_TRUE(m.isShort(taus[0]));
  EXPECT_FALSE(m.isShort(taus[1]));
  EXPECT_TRUE(m.isShort(taus[2]));
  EXPECT_FALSE(m.isShort(taus[5]));
}

TEST(Classes, RandomClassesRespectExtremes) {
  ScheduledDfg s = scheduledDiffeq();
  OperandClasses all1 = randomClasses(s, 1.0, 7);
  OperandClasses all0 = randomClasses(s, 0.0, 7);
  for (dfg::NodeId v : tauOps(s)) {
    EXPECT_TRUE(all1.isShort(v));
    EXPECT_FALSE(all0.isShort(v));
  }
}

TEST(Makespan, ChainIsSerial) {
  dfg::Dfg g = test::mulChain(4);
  ScheduledDfg s = sched::scheduleAndBind(
      g, Allocation{{ResourceClass::Multiplier, 1}}, tau::paperLibrary());
  EXPECT_EQ(distributedMakespanCycles(s, allShort(s)), 4);
  EXPECT_EQ(distributedMakespanCycles(s, allLong(s)), 8);
}

TEST(Makespan, ParallelOpsOverlapByAllocation) {
  dfg::Dfg g = test::parallelMuls(4);
  ScheduledDfg s = sched::scheduleAndBind(
      g, Allocation{{ResourceClass::Multiplier, 2}}, tau::paperLibrary());
  EXPECT_EQ(distributedMakespanCycles(s, allShort(s)), 2);
  EXPECT_EQ(distributedMakespanCycles(s, allLong(s)), 4);
}

TEST(Makespan, SyncChargesWholeStepForOneSlowOp) {
  // Two independent muls on two units in one step: if only one is LD, sync
  // still spends 2 cycles while distributed lets the other retire in 1.
  dfg::Dfg g = test::parallelMuls(2);
  ScheduledDfg s = sched::scheduleAndBind(
      g, Allocation{{ResourceClass::Multiplier, 2}}, tau::paperLibrary());
  OperandClasses oneSlow = allShort(s);
  oneSlow.shortClass[tauOps(s)[0]] = false;
  EXPECT_EQ(syncMakespanCycles(s, oneSlow), 2);
  EXPECT_EQ(distributedMakespanCycles(s, oneSlow), 2);  // the slow one itself
  // ...but with a dependent consumer of the fast op, distributed wins:
  dfg::Dfg g2("mix");
  auto a = g2.addInput("a");
  auto b = g2.addInput("b");
  auto m0 = g2.addOp(dfg::OpKind::Mul, {a, b}, "m0");
  auto m1 = g2.addOp(dfg::OpKind::Mul, {a, b}, "m1");
  auto a0 = g2.addOp(dfg::OpKind::Add, {m0, a}, "a0");
  auto s0 = g2.addOp(dfg::OpKind::Add, {a0, m1}, "s0");
  g2.markOutput(s0);
  ScheduledDfg sg2 = sched::scheduleAndBind(
      g2,
      Allocation{{ResourceClass::Multiplier, 2}, {ResourceClass::Adder, 1}},
      tau::paperLibrary());
  OperandClasses m1Slow = allShort(sg2);
  m1Slow.shortClass[g2.findByName("m1")] = false;
  // Distributed: m0 fast (cycle 0), a0 cycle 1, m1 finishes cycle 1,
  // s0 cycle 2 -> 3 cycles.  Sync: step0 takes 2, then a0, then s0 -> 4.
  EXPECT_EQ(distributedMakespanCycles(sg2, m1Slow), 3);
  EXPECT_EQ(syncMakespanCycles(sg2, m1Slow), 4);
}

TEST(Makespan, FinishCyclesRespectDependences) {
  ScheduledDfg s = scheduledDiffeq();
  OperandClasses classes = randomClasses(s, 0.5, 11);
  std::vector<int> finish = distributedFinishCycles(s, classes);
  for (dfg::NodeId v : s.graph.opIds()) {
    for (dfg::NodeId p : s.graph.dataPredecessors(v)) {
      if (s.graph.isOp(p)) {
        EXPECT_GT(finish[v] - s.opCycles(v, classes.isShort(v)) + 1, finish[p]);
      }
    }
  }
}

TEST(Makespan, Fig2RangeMatchesPaper) {
  ScheduledDfg s = sched::scheduleAndBind(
      dfg::paperFig2(),
      Allocation{{ResourceClass::Multiplier, 2}, {ResourceClass::Adder, 1}},
      tau::paperLibrary());
  // Fig. 2(c): "a resulting system latency varies between 4 and 6 clock
  // cycles" for the synchronized machine.
  EXPECT_EQ(syncMakespanCycles(s, allShort(s)), 4);
  EXPECT_EQ(syncMakespanCycles(s, allLong(s)), 6);
  EXPECT_EQ(distributedMakespanCycles(s, allShort(s)), 4);
  EXPECT_EQ(distributedMakespanCycles(s, allLong(s)), 6);
}

class MaskProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MaskProperty, DistributedNeverSlowerThanSyncOnRandomGraphs) {
  dfg::RandomDfgSpec spec;
  spec.seed = GetParam();
  spec.numOps = 8 + static_cast<int>(GetParam() % 10);
  dfg::Dfg g = dfg::randomDfg(spec);
  ScheduledDfg s = sched::scheduleAndBind(g,
                                          Allocation{{ResourceClass::Multiplier, 2},
                                                     {ResourceClass::Adder, 1},
                                                     {ResourceClass::Subtractor, 1}},
                                          tau::paperLibrary());
  const int n = static_cast<int>(tauOps(s).size());
  if (n > 12) GTEST_SKIP() << "mask space too large for this sweep";
  for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << n); ++mask) {
    OperandClasses c = fromMask(s, mask);
    EXPECT_LE(distributedMakespanCycles(s, c), syncMakespanCycles(s, c))
        << "mask=" << mask;
  }
}

TEST_P(MaskProperty, MakespanMonotoneInOperandClasses) {
  dfg::RandomDfgSpec spec;
  spec.seed = GetParam() * 131;
  spec.numOps = 10;
  dfg::Dfg g = dfg::randomDfg(spec);
  ScheduledDfg s = sched::scheduleAndBind(
      g, Allocation{{ResourceClass::Multiplier, 2}, {ResourceClass::Adder, 1},
                    {ResourceClass::Subtractor, 1}},
      tau::paperLibrary());
  const auto taus = tauOps(s);
  const int n = static_cast<int>(taus.size());
  if (n == 0 || n > 10) GTEST_SKIP();
  // Flipping any single op from SD to LD never decreases the makespan.
  for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << n); ++mask) {
    OperandClasses c = fromMask(s, mask);
    const int base = distributedMakespanCycles(s, c);
    for (int i = 0; i < n; ++i) {
      if (!((mask >> i) & 1)) continue;
      OperandClasses slower = fromMask(s, mask & ~(std::uint64_t{1} << i));
      EXPECT_GE(distributedMakespanCycles(s, slower), base);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaskProperty,
                         ::testing::Range<std::uint64_t>(1, 9));

TEST(Interp, DistributedFsmMatchesAbstractMakespanOnDiffeq) {
  ScheduledDfg s = scheduledDiffeq();
  fsm::DistributedControlUnit dcu = fsm::buildDistributed(s);
  const int n = static_cast<int>(tauOps(s).size());
  ASSERT_LE(n, 12);
  for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << n); ++mask) {
    OperandClasses c = fromMask(s, mask);
    SimTrace trace = runDistributed(dcu, s, c);
    EXPECT_EQ(trace.latencyCycles, distributedMakespanCycles(s, c))
        << "mask=" << mask;
  }
}

TEST(Interp, CentSyncFsmMatchesAbstractMakespanOnDiffeq) {
  ScheduledDfg s = scheduledDiffeq();
  fsm::Fsm sync = fsm::buildCentSync(s);
  const int n = static_cast<int>(tauOps(s).size());
  for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << n); ++mask) {
    OperandClasses c = fromMask(s, mask);
    SimTrace trace = runCentSync(sync, s, c);
    EXPECT_EQ(trace.latencyCycles, syncMakespanCycles(s, c)) << "mask=" << mask;
  }
}

TEST(Interp, TraceSignalsAreOrdered) {
  ScheduledDfg s = scheduledDiffeq();
  fsm::DistributedControlUnit dcu = fsm::buildDistributed(s);
  SimTrace trace = runDistributed(dcu, s, allShort(s));
  // OF of an op precedes (or coincides with) its RE; RE of a predecessor
  // strictly precedes RE of its consumer.
  for (dfg::NodeId v : s.graph.opIds()) {
    const std::string& name = s.graph.node(v).name;
    const int of = trace.firstCycle("OF_" + name);
    const int re = trace.firstCycle("RE_" + name);
    ASSERT_NE(of, -1) << name;
    ASSERT_NE(re, -1) << name;
    EXPECT_LE(of, re);
    for (dfg::NodeId p : s.graph.dataPredecessors(v)) {
      if (s.graph.isOp(p)) {
        EXPECT_LT(trace.firstCycle("RE_" + s.graph.node(p).name), re);
      }
    }
  }
}

class InterpProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(InterpProperty, FsmLatencyEqualsAbstractOnRandomGraphsAndClasses) {
  dfg::RandomDfgSpec spec;
  spec.seed = GetParam() * 7919;
  spec.numOps = 6 + static_cast<int>(GetParam() % 12);
  for (const ScheduledDfg& s :
       test::propertySchedules(spec, tau::paperLibrary())) {
    fsm::DistributedControlUnit dcu = fsm::buildDistributed(s);
    fsm::Fsm sync = fsm::buildCentSync(s);
    for (std::uint64_t trial = 0; trial < 12; ++trial) {
      OperandClasses c = randomClasses(s, 0.6, GetParam() * 100 + trial);
      EXPECT_EQ(runDistributed(dcu, s, c).latencyCycles,
                distributedMakespanCycles(s, c))
          << s.graph.name() << " units=" << s.binding.numUnits();
      EXPECT_EQ(runCentSync(sync, s, c).latencyCycles, syncMakespanCycles(s, c))
          << s.graph.name() << " units=" << s.binding.numUnits();
    }
  }
}

TEST_P(InterpProperty, ProductBehaviourallyEquivalentToDistributed) {
  dfg::RandomDfgSpec spec;
  spec.seed = GetParam() * 104729;
  spec.numOps = 5 + static_cast<int>(GetParam() % 6);
  for (const ScheduledDfg& s :
       test::propertySchedules(spec, tau::paperLibrary())) {
    fsm::DistributedControlUnit dcu = fsm::buildDistributed(s);
    fsm::Fsm product = fsm::buildProduct(dcu);
    EXPECT_EQ(compareProductToDistributed(dcu, product, GetParam(), 6, 40), -1)
        << s.graph.name() << " units=" << s.binding.numUnits();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, InterpProperty,
                         ::testing::Range<std::uint64_t>(1, 11));

TEST(Makespan, EngineMatchesFreeFunctions) {
  ScheduledDfg s = scheduledDiffeq();
  const MakespanEngine engine(s);
  const int n = static_cast<int>(tauOps(s).size());
  for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << n); ++mask) {
    OperandClasses c = fromMask(s, mask);
    EXPECT_EQ(engine.distributedCycles(c), distributedMakespanCycles(s, c));
    EXPECT_EQ(engine.syncCycles(c), syncMakespanCycles(s, c));
  }
}

TEST(Stats, BestAndWorstBracketAverages) {
  ScheduledDfg s = scheduledDiffeq();
  for (ControlStyle style : {ControlStyle::Distributed, ControlStyle::CentSync}) {
    const int best = bestCaseCycles(s, style);
    const int worst = worstCaseCycles(s, style);
    EXPECT_LT(best, worst);
    for (double p : {0.9, 0.7, 0.5, 0.1}) {
      const double avg = averageCyclesExact(s, style, p);
      EXPECT_GE(avg, best);
      EXPECT_LE(avg, worst);
    }
  }
}

TEST(Stats, ExactExtremesMatchMakespan) {
  ScheduledDfg s = scheduledDiffeq();
  EXPECT_DOUBLE_EQ(averageCyclesExact(s, ControlStyle::Distributed, 1.0),
                   bestCaseCycles(s, ControlStyle::Distributed));
  EXPECT_DOUBLE_EQ(averageCyclesExact(s, ControlStyle::Distributed, 0.0),
                   worstCaseCycles(s, ControlStyle::Distributed));
}

TEST(Stats, MonteCarloAgreesWithExact) {
  ScheduledDfg s = scheduledDiffeq();
  for (double p : {0.9, 0.5}) {
    const double exact = averageCyclesExact(s, ControlStyle::Distributed, p);
    const double mc =
        averageCyclesMonteCarloAdaptive(
            s, MakespanEngine(s), ControlStyle::Distributed, p,
            {.mcSamples = 20000, .mcMaxSamples = 20000})
            .mean;
    EXPECT_NEAR(mc, exact, 0.05) << "p=" << p;
  }
}

TEST(Stats, AverageMonotoneInP) {
  ScheduledDfg s = scheduledDiffeq();
  double prev = 1e9;
  for (double p : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    const double avg = averageCyclesExact(s, ControlStyle::Distributed, p);
    EXPECT_LT(avg, prev);
    prev = avg;
  }
}

TEST(Stats, ComparisonReportsEnhancement) {
  ScheduledDfg s = scheduledDiffeq();
  LatencyComparison cmp = compareLatencies(s, {0.9, 0.7, 0.5});
  ASSERT_EQ(cmp.enhancementPercent.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_GE(cmp.enhancementPercent[i], 0.0);
    EXPECT_LE(cmp.dist.averageNs[i], cmp.tau.averageNs[i]);
  }
  // ns scaling: multiples of the 15 ns clock at the extremes.
  EXPECT_DOUBLE_EQ(cmp.dist.bestNs,
                   bestCaseCycles(s, ControlStyle::Distributed) * 15.0);
}

}  // namespace
}  // namespace tauhls::sim

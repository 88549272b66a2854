// Property tests for the rebuilt latency-statistics kernel: the closed-form
// CentSync expectation against full enumeration, the Gray-code incremental
// distributed sweep against the brute-force reference (bit-identical, at any
// thread count), the mask-native engine API against the OperandClasses path,
// and the raised 24-TAU-op exact-enumeration cap.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "dfg/benchmarks.hpp"
#include "sim/stats.hpp"
#include "tau/library.hpp"
#include "testutil.hpp"

namespace tauhls {
namespace {

using dfg::ResourceClass;
using sched::Allocation;
using sched::ScheduledDfg;

class GlobalThreadCountGuard {
 public:
  ~GlobalThreadCountGuard() {
    common::setGlobalThreadCount(common::configuredThreadCount());
  }
};

std::vector<ScheduledDfg> paperBenchmarks() {
  std::vector<ScheduledDfg> out;
  out.push_back(sched::scheduleAndBind(
      dfg::diffeq(),
      Allocation{{ResourceClass::Multiplier, 2},
                 {ResourceClass::Adder, 1},
                 {ResourceClass::Subtractor, 1}},
      tau::paperLibrary()));
  out.push_back(sched::scheduleAndBind(
      dfg::fir(3),
      Allocation{{ResourceClass::Multiplier, 2}, {ResourceClass::Adder, 1}},
      tau::paperLibrary()));
  out.push_back(sched::scheduleAndBind(
      dfg::fir(5),
      Allocation{{ResourceClass::Multiplier, 2}, {ResourceClass::Adder, 1}},
      tau::paperLibrary()));
  out.push_back(sched::scheduleAndBind(
      dfg::arLattice(),
      Allocation{{ResourceClass::Multiplier, 4}, {ResourceClass::Adder, 2}},
      tau::paperLibrary()));
  return out;
}

/// A schedule with `n` TAU ops (independent multiplications on 3 units).
ScheduledDfg manyTauSchedule(int n) {
  return sched::scheduleAndBind(test::parallelMuls(n),
                                Allocation{{ResourceClass::Multiplier, 3}},
                                tau::paperLibrary());
}

// (a) Closed-form sync expectation equals the enumerated expectation on every
// paper benchmark, across the whole P range including both degenerate ends.
TEST(StatsKernel, ClosedFormSyncMatchesEnumeration) {
  for (const ScheduledDfg& s : paperBenchmarks()) {
    const sim::MakespanEngine engine(s);
    for (double p : {0.0, 0.25, 0.5, 0.9, 1.0}) {
      const double closed =
          sim::averageCyclesExact(engine, sim::ControlStyle::CentSync, p);
      const double enumerated = sim::averageCyclesExactReference(
          s, engine, sim::ControlStyle::CentSync, p);
      EXPECT_NEAR(closed, enumerated, 1e-9)
          << s.graph.name() << " p=" << p;
    }
  }
}

// (b) The Gray-code incremental sweep reproduces the naive full-sweep result
// EXACTLY (same accumulation order, same weights), at every thread count.
TEST(StatsKernel, GrayCodeSweepBitIdenticalToReference) {
  GlobalThreadCountGuard guard;
  for (const ScheduledDfg& s : paperBenchmarks()) {
    const sim::MakespanEngine engine(s);
    for (double p : {0.25, 0.7}) {
      for (int threads : {1, 2, 8}) {
        common::setGlobalThreadCount(threads);
        EXPECT_EQ(
            sim::averageCyclesExact(engine, sim::ControlStyle::Distributed,
                                    p),
            sim::averageCyclesExactReference(
                s, engine, sim::ControlStyle::Distributed, p))
            << s.graph.name() << " p=" << p << " threads=" << threads;
      }
    }
  }
}

// The shared-enumeration P-sweep returns, entry for entry, exactly what the
// standalone per-P calls return -- for both styles, at every thread count.
// The layered design has 21 TAU ops, so its 2^21 masks span 256 chunks of
// 8 Ki; one of its entries is also checked against the brute-force
// reference.
TEST(StatsKernel, SweepMatchesPerPointCallsBitForBit) {
  GlobalThreadCountGuard guard;
  const std::vector<double> ps = {1.0, 0.9, 0.7, 0.5, 0.25, 0.0};
  std::vector<ScheduledDfg> designs = paperBenchmarks();
  designs.push_back(sched::scheduleAndBind(
      test::layered21Muls(),
      Allocation{{ResourceClass::Multiplier, 2},
                 {ResourceClass::Adder, 1},
                 {ResourceClass::Subtractor, 1}},
      tau::paperLibrary()));
  const sim::MakespanEngine layered(designs.back());
  ASSERT_EQ(layered.numTauOps(), 21);
  for (const ScheduledDfg& s : designs) {
    const sim::MakespanEngine engine(s);
    for (sim::ControlStyle style :
         {sim::ControlStyle::Distributed, sim::ControlStyle::CentSync}) {
      for (int threads : {1, 2, 8}) {
        common::setGlobalThreadCount(threads);
        const std::vector<double> swept =
            sim::averageCyclesExactSweep(engine, style, ps);
        ASSERT_EQ(swept.size(), ps.size());
        for (std::size_t i = 0; i < ps.size(); ++i) {
          EXPECT_EQ(swept[i],
                    sim::averageCyclesExact(engine, style, ps[i]))
              << s.graph.name() << " p=" << ps[i] << " threads=" << threads;
        }
      }
    }
  }
  common::setGlobalThreadCount(8);
  EXPECT_EQ(sim::averageCyclesExactSweep(
                layered, sim::ControlStyle::Distributed, ps)[2],
            sim::averageCyclesExactReference(
                designs.back(), layered, sim::ControlStyle::Distributed,
                ps[2]));
}

// The mask-native evaluation path agrees with the OperandClasses path on
// every assignment, and maskOf inverts fromMask.
TEST(StatsKernel, MaskApiMatchesClassesApi) {
  for (const ScheduledDfg& s : paperBenchmarks()) {
    const sim::MakespanEngine engine(s);
    const int n = engine.numTauOps();
    if (n > 12) continue;  // exhaustive check only for small designs
    for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << n); ++mask) {
      const sim::OperandClasses classes = sim::fromMask(s, mask);
      EXPECT_EQ(engine.maskOf(classes), mask);
      EXPECT_EQ(engine.distributedCycles(mask),
                engine.distributedCycles(classes))
          << s.graph.name() << " mask=" << mask;
      EXPECT_EQ(engine.syncCycles(mask), engine.syncCycles(classes))
          << s.graph.name() << " mask=" << mask;
    }
  }
}

// Incremental flipTau delta propagation never drifts from a from-scratch
// evaluation, across a full Gray-code tour of the diffeq mask space.
TEST(StatsKernel, IncrementalFlipMatchesFullEvaluation) {
  const ScheduledDfg s = paperBenchmarks().front();
  const sim::MakespanEngine engine(s);
  const int n = engine.numTauOps();
  sim::MakespanEngine::DistributedSweep sweep(engine);
  sweep.evalFull(0);
  for (std::uint64_t o = 1; o < (std::uint64_t{1} << n); ++o) {
    const int incremental = sweep.flipTau(std::countr_zero(o));
    EXPECT_EQ(incremental, engine.distributedCycles(sweep.mask()))
        << "mask=" << sweep.mask();
  }
}

// (c) The raised cap: a 22-TAU-op design enumerates exactly (the old 20-op
// cap rejected it), degenerate P hits the extremes exactly, and Monte-Carlo
// cross-validates the enumerated expectation.
TEST(StatsKernel, ExactEnumerationHandles22TauOps) {
  const ScheduledDfg s = manyTauSchedule(22);
  const sim::MakespanEngine engine(s);
  ASSERT_EQ(engine.numTauOps(), 22);
  ASSERT_GT(engine.numTauOps(), 20);  // beyond the old cap

  const int best = sim::bestCaseCycles(engine, sim::ControlStyle::Distributed);
  const int worst =
      sim::worstCaseCycles(engine, sim::ControlStyle::Distributed);
  EXPECT_EQ(sim::averageCyclesExact(engine, sim::ControlStyle::Distributed,
                                    1.0),
            best);
  EXPECT_EQ(sim::averageCyclesExact(engine, sim::ControlStyle::Distributed,
                                    0.0),
            worst);

  const double avg =
      sim::averageCyclesExact(engine, sim::ControlStyle::Distributed, 0.7);
  EXPECT_GE(avg, best);
  EXPECT_LE(avg, worst);
  const sim::McEstimate mc = sim::averageCyclesMonteCarloAdaptive(
      s, engine, sim::ControlStyle::Distributed, 0.7,
      {.mcSamples = 20000, .mcMaxSamples = 20000});
  EXPECT_EQ(mc.samples, 20000u);
  EXPECT_NEAR(mc.mean, avg, 0.05);
}

// Beyond the 24-op cap the Distributed enumeration refuses, while the
// closed-form CentSync expectation keeps working at any TAU count.
TEST(StatsKernel, SyncColumnHasNoCap) {
  const ScheduledDfg s = manyTauSchedule(25);
  const sim::MakespanEngine engine(s);
  ASSERT_GT(engine.numTauOps(), sim::kMaxExactTauOps);
  EXPECT_THROW(
      sim::averageCyclesExact(engine, sim::ControlStyle::Distributed, 0.5),
      Error);

  const double avg =
      sim::averageCyclesExact(engine, sim::ControlStyle::CentSync, 0.5);
  EXPECT_GE(avg, sim::bestCaseCycles(engine, sim::ControlStyle::CentSync));
  EXPECT_LE(avg, sim::worstCaseCycles(engine, sim::ControlStyle::CentSync));
  EXPECT_EQ(
      sim::averageCyclesExact(engine, sim::ControlStyle::CentSync, 1.0),
      sim::bestCaseCycles(engine, sim::ControlStyle::CentSync));
  EXPECT_EQ(
      sim::averageCyclesExact(engine, sim::ControlStyle::CentSync, 0.0),
      sim::worstCaseCycles(engine, sim::ControlStyle::CentSync));
}

// The buffered randomClasses overload and the mask sampler draw the very same
// Bernoulli sequence as the allocating overload.
TEST(StatsKernel, RandomSamplersAgreeBitForBit) {
  const ScheduledDfg s = paperBenchmarks().front();
  const std::vector<dfg::NodeId> taus = sim::tauOps(s);
  sim::OperandClasses buffered;
  for (std::uint64_t seed : {1ull, 42ull, 1234567ull}) {
    const sim::OperandClasses fresh = sim::randomClasses(s, 0.7, seed);
    sim::randomClasses(s, taus, 0.7, seed, buffered);
    EXPECT_EQ(fresh.shortClass, buffered.shortClass) << "seed=" << seed;
    const std::uint64_t mask =
        sim::randomClassMask(static_cast<int>(taus.size()), 0.7, seed);
    for (std::size_t i = 0; i < taus.size(); ++i) {
      EXPECT_EQ((mask >> i) & 1, fresh.shortClass[taus[i]] ? 1u : 0u)
          << "seed=" << seed << " tau=" << i;
    }
  }
}

// --- adaptive exact<->MC crossover ----------------------------------------

// Under the exact cap compareLatencies reports the exact sweeps, bit for
// bit, scaled to ns, and spends no Monte-Carlo sample.
TEST(StatsKernel, AdaptiveCompareLatenciesBitIdenticalUnderCap) {
  const std::vector<double> ps = {0.9, 0.7, 0.5};
  for (const ScheduledDfg& s : paperBenchmarks()) {
    const sim::MakespanEngine engine(s);
    const std::vector<double> tau =
        sim::averageCyclesExactSweep(engine, sim::ControlStyle::CentSync, ps);
    const std::vector<double> dist = sim::averageCyclesExactSweep(
        engine, sim::ControlStyle::Distributed, ps);
    std::vector<sim::McEstimate> info;
    const sim::LatencyComparison cmp =
        sim::compareLatencies(s, ps, sim::LatencyOptions{}, &info);
    ASSERT_EQ(info.size(), ps.size());
    for (std::size_t i = 0; i < ps.size(); ++i) {
      EXPECT_EQ(cmp.tau.averageNs[i], tau[i] * s.clockNs);
      EXPECT_EQ(cmp.dist.averageNs[i], dist[i] * s.clockNs);
      EXPECT_EQ(cmp.enhancementPercent[i],
                (tau[i] * s.clockNs - dist[i] * s.clockNs) /
                    (tau[i] * s.clockNs) * 100.0);
      EXPECT_EQ(info[i].samples, 0u);  // the exact path ran, no MC spent
    }
    EXPECT_EQ(cmp.dist.bestNs, engine.bestDistributedCycles() * s.clockNs);
    EXPECT_EQ(cmp.dist.worstNs, engine.worstDistributedCycles() * s.clockNs);
  }
}

// The Monte-Carlo estimator on a graph whose exact value is still
// computable: the reported 95% confidence interval must cover the exact
// expectation, and the half-width must have reached the requested target
// (or exhausted the sample ceiling trying).
TEST(StatsKernel, McCrossoverIntervalCoversExactValue) {
  const ScheduledDfg s = manyTauSchedule(14);
  const sim::MakespanEngine engine(s);
  ASSERT_LE(engine.numTauOps(), sim::kMaxExactTauOps);
  for (const double p : {0.5, 0.8}) {
    const double exact =
        sim::averageCyclesExact(engine, sim::ControlStyle::Distributed, p);
    sim::LatencyOptions options;
    options.mcSamples = 4000;
    options.mcTargetHalfWidth = 0.02;
    const sim::McEstimate est = sim::averageCyclesMonteCarloAdaptive(
        s, engine, sim::ControlStyle::Distributed, p, options);
    EXPECT_GE(est.samples, 4000u);
    EXPECT_TRUE(est.halfWidth <= options.mcTargetHalfWidth ||
                est.samples >=
                    static_cast<std::uint64_t>(options.mcMaxSamples));
    // Seeded and deterministic, so a covering interval stays covering.
    EXPECT_NEAR(est.mean, exact, 2.0 * est.halfWidth)
        << "p=" << p << " samples=" << est.samples;
  }
}

// The adaptive estimator is bit-identical across thread counts (counter
// seeds + fixed chunk grid + doubling rounds recomputed from scratch).
TEST(StatsKernel, AdaptiveMcDeterministicAcrossThreads) {
  GlobalThreadCountGuard guard;
  const ScheduledDfg s = manyTauSchedule(14);
  const sim::MakespanEngine engine(s);
  sim::LatencyOptions options;
  options.mcSamples = 2000;
  options.mcTargetHalfWidth = 0.05;
  common::setGlobalThreadCount(1);
  const sim::McEstimate reference = sim::averageCyclesMonteCarloAdaptive(
      s, engine, sim::ControlStyle::Distributed, 0.7, options);
  for (const int threads : {2, 8}) {
    common::setGlobalThreadCount(threads);
    const sim::McEstimate est = sim::averageCyclesMonteCarloAdaptive(
        s, engine, sim::ControlStyle::Distributed, 0.7, options);
    EXPECT_EQ(est.mean, reference.mean) << "threads=" << threads;
    EXPECT_EQ(est.halfWidth, reference.halfWidth) << "threads=" << threads;
    EXPECT_EQ(est.samples, reference.samples) << "threads=" << threads;
  }
}

// Past the 24-op enumeration cap compareLatencies does not throw: the
// Distributed column comes back seeded-MC with finite CI info.
TEST(StatsKernel, AdaptiveCrossoverHandlesGraphsPastTheHardCap) {
  const ScheduledDfg s = manyTauSchedule(25);
  const sim::MakespanEngine engine(s);
  ASSERT_GT(engine.numTauOps(), sim::kMaxExactTauOps);
  sim::LatencyOptions options;
  options.mcSamples = 2000;
  options.mcTargetHalfWidth = 0.05;
  std::vector<sim::McEstimate> info;
  const sim::LatencyComparison out =
      sim::compareLatencies(s, {0.9, 0.5}, options, &info);
  ASSERT_EQ(info.size(), 2u);
  for (std::size_t i = 0; i < info.size(); ++i) {
    EXPECT_GT(info[i].samples, 0u);
    EXPECT_GT(info[i].halfWidth, 0.0);
    EXPECT_GE(out.dist.averageNs[i],
              out.dist.bestNs - 1e-9);
    EXPECT_LE(out.dist.averageNs[i],
              out.dist.worstNs + 1e-9);
  }
}

}  // namespace
}  // namespace tauhls

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "dfg/benchmarks.hpp"
#include "sim/distribution.hpp"
#include "testutil.hpp"

namespace tauhls::sim {
namespace {

using dfg::ResourceClass;
using sched::Allocation;

sched::ScheduledDfg scheduledDiffeq() {
  return sched::scheduleAndBind(dfg::diffeq(),
                                Allocation{{ResourceClass::Multiplier, 2},
                                           {ResourceClass::Adder, 1},
                                           {ResourceClass::Subtractor, 1}},
                                tau::paperLibrary());
}

TEST(Distribution, SumsToOneAndBracketsSupport) {
  auto s = scheduledDiffeq();
  for (double p : {0.9, 0.5, 0.1}) {
    LatencyDistribution d =
        latencyDistribution(s, ControlStyle::Distributed, p);
    double total = 0.0;
    for (const auto& [cycles, prob] : d.pmf) total += prob;
    EXPECT_NEAR(total, 1.0, 1e-9);
    EXPECT_EQ(d.minCycles(), bestCaseCycles(s, ControlStyle::Distributed));
    EXPECT_EQ(d.maxCycles(), worstCaseCycles(s, ControlStyle::Distributed));
  }
}

TEST(Distribution, MeanMatchesExactExpectation) {
  auto s = scheduledDiffeq();
  for (ControlStyle style : {ControlStyle::Distributed, ControlStyle::CentSync}) {
    for (double p : {0.9, 0.7, 0.5}) {
      LatencyDistribution d = latencyDistribution(s, style, p);
      EXPECT_NEAR(d.mean(), averageCyclesExact(s, style, p), 1e-9);
    }
  }
}

TEST(Distribution, QuantilesMonotone) {
  auto s = scheduledDiffeq();
  LatencyDistribution d = latencyDistribution(s, ControlStyle::Distributed, 0.7);
  EXPECT_LE(d.quantile(0.5), d.quantile(0.95));
  EXPECT_LE(d.quantile(0.95), d.quantile(1.0));
  EXPECT_EQ(d.quantile(0.0), d.minCycles());
  EXPECT_EQ(d.quantile(1.0), d.maxCycles());
  EXPECT_THROW(d.quantile(1.5), Error);
}

TEST(Distribution, DegenerateAtPOne) {
  auto s = scheduledDiffeq();
  LatencyDistribution d = latencyDistribution(s, ControlStyle::Distributed, 1.0);
  ASSERT_EQ(d.pmf.size(), 1u);
  EXPECT_EQ(d.pmf.begin()->first, bestCaseCycles(s, ControlStyle::Distributed));
  EXPECT_NEAR(d.pmf.begin()->second, 1.0, 1e-12);
}

TEST(Distribution, DistributedStochasticallyDominatesSync) {
  // For every cycle budget c, P(dist <= c) >= P(sync <= c): the distributed
  // latency is never worse on any operand class, so its CDF dominates.
  auto s = scheduledDiffeq();
  LatencyDistribution dist =
      latencyDistribution(s, ControlStyle::Distributed, 0.6);
  LatencyDistribution sync = latencyDistribution(s, ControlStyle::CentSync, 0.6);
  for (int c = dist.minCycles(); c <= sync.maxCycles(); ++c) {
    double cdfDist = 0.0;
    double cdfSync = 0.0;
    for (const auto& [cycles, prob] : dist.pmf) {
      if (cycles <= c) cdfDist += prob;
    }
    for (const auto& [cycles, prob] : sync.pmf) {
      if (cycles <= c) cdfSync += prob;
    }
    EXPECT_GE(cdfDist + 1e-12, cdfSync) << "c=" << c;
  }
}

// The pmf is folded from the mask walker's chunks in chunk order, so it is
// identical at every thread count -- on a design whose 2^12 masks span the
// chunk grid and on diffeq, which fits a single walk.  The multi-chunk pmf
// also keeps the exact expectation as its mean.
TEST(Distribution, PmfIdenticalAcrossThreadCounts) {
  const sched::ScheduledDfg wide = sched::scheduleAndBind(
      test::parallelMuls(12), Allocation{{ResourceClass::Multiplier, 3}},
      tau::paperLibrary());
  ASSERT_EQ(tauOps(wide).size(), 12u);
  for (const sched::ScheduledDfg& s : {scheduledDiffeq(), wide}) {
    for (ControlStyle style :
         {ControlStyle::Distributed, ControlStyle::CentSync}) {
      for (double p : {0.7, 0.25}) {
        common::setGlobalThreadCount(1);
        const LatencyDistribution reference = latencyDistribution(s, style, p);
        EXPECT_NEAR(reference.mean(), averageCyclesExact(s, style, p), 1e-9);
        for (int threads : {2, 8}) {
          common::setGlobalThreadCount(threads);
          EXPECT_EQ(latencyDistribution(s, style, p).pmf, reference.pmf)
              << s.graph.name() << " p=" << p << " threads=" << threads;
        }
      }
    }
  }
  common::setGlobalThreadCount(common::configuredThreadCount());
}

}  // namespace
}  // namespace tauhls::sim

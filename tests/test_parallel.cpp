// The parallel experiment engine: thread-pool semantics (coverage, exception
// propagation, nested regions sharing the pool) and the determinism contract -- every latency
// statistic is bit-identical for TAUHLS_THREADS in {1, 2, 8}, on the paper's
// Diff. and 5th-order-FIR benchmarks, and the parallel exact and Monte-Carlo
// estimators still cross-validate like the serial paths.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "dfg/benchmarks.hpp"
#include "sim/stats.hpp"

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

TEST(ThreadPool, ForEachCoversEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 8}) {
    common::ThreadPool pool(threads);
    std::vector<std::atomic<int>> hits(1000);
    pool.forEach(hits.size(), [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << ", " << threads
                                   << " threads";
    }
  }
}

TEST(ThreadPool, EmptyAndSingleRegionsRunInline) {
  common::ThreadPool pool(4);
  int calls = 0;
  pool.forEach(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.forEach(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, PropagatesTaskExceptions) {
  common::ThreadPool pool(4);
  EXPECT_THROW(pool.forEach(100,
                            [](std::size_t i) {
                              if (i == 37) throw std::runtime_error("boom");
                            }),
               std::runtime_error);
}

TEST(ThreadPool, NestedRegionsCompleteWithoutDeadlock) {
  GlobalThreadCountGuard guard;
  common::setGlobalThreadCount(4);
  std::atomic<int> count{0};
  common::parallelFor(8, [&](std::size_t) {
    EXPECT_TRUE(common::ThreadPool::insideWorker());
    common::parallelFor(8, [&](std::size_t) {
      count.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(count.load(), 64);
}

// A region opened inside a task queues helpers like a top-level one: on a
// 2-lane pool the lane left idle by the outer region joins the inner one.
// Each inner task holds until a second thread has entered the region, with
// a deadline so that a pool running nested regions inline fails rather than
// hangs.
TEST(ThreadPool, NestedRegionRunsOnIdleLanes) {
  GlobalThreadCountGuard guard;
  common::setGlobalThreadCount(2);
  std::mutex mutex;
  std::condition_variable entered;
  std::set<std::thread::id> innerThreads;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  common::parallelFor(2, [&](std::size_t outer) {
    if (outer != 0) return;
    common::parallelFor(64, [&](std::size_t) {
      std::unique_lock<std::mutex> lock(mutex);
      innerThreads.insert(std::this_thread::get_id());
      entered.notify_all();
      entered.wait_until(lock, deadline,
                         [&] { return innerThreads.size() >= 2; });
    });
  });
  EXPECT_GE(innerThreads.size(), 2u);
}

// Three levels of nesting on two lanes: every lane can end up waiting for
// helpers, which must still be run rather than left in the queue.
TEST(ThreadPool, ThreeLevelNestingOnTwoLanesCompletes) {
  common::ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(4 * 4 * 4);
  pool.forEach(4, [&](std::size_t a) {
    pool.forEach(4, [&](std::size_t b) {
      pool.forEach(4, [&](std::size_t c) {
        hits[(a * 4 + b) * 4 + c].fetch_add(1, std::memory_order_relaxed);
      });
    });
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, NestedExceptionsReachTheOuterCaller) {
  common::ThreadPool pool(2);
  EXPECT_THROW(pool.forEach(4,
                            [&](std::size_t outer) {
                              pool.forEach(16, [&](std::size_t inner) {
                                if (outer == 2 && inner == 11) {
                                  throw std::runtime_error("boom");
                                }
                              });
                            }),
               std::runtime_error);
  // The pool stays usable after a failed nested region.
  std::atomic<int> count{0};
  pool.forEach(8, [&](std::size_t) {
    pool.forEach(8, [&](std::size_t) {
      count.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPool, ChunkGridIsAFunctionOfProblemSizeOnly) {
  EXPECT_EQ(common::chunkCountFor(0), 0u);
  EXPECT_EQ(common::chunkCountFor(1), 1u);
  EXPECT_EQ(common::chunkCountFor(200), 200u);
  EXPECT_EQ(common::chunkCountFor(256), 256u);
  EXPECT_EQ(common::chunkCountFor(1u << 20), 256u);
}

TEST(ParallelReduce, BitIdenticalAcrossThreadCounts) {
  GlobalThreadCountGuard guard;
  auto run = [] {
    return common::parallelReduce<double>(
        64, 0.0,
        [](std::size_t chunk) {
          double partial = 0.0;
          for (int i = 0; i < 100; ++i) {
            partial += std::sqrt(static_cast<double>(chunk * 100 + i) + 0.1);
          }
          return partial;
        },
        [](double acc, double partial) { return acc + partial; });
  };
  common::setGlobalThreadCount(1);
  const double serial = run();
  for (int threads : {2, 8}) {
    common::setGlobalThreadCount(threads);
    EXPECT_EQ(run(), serial) << threads << " threads";
  }
}

// -- determinism regressions on the paper benchmarks ------------------------

ScheduledDfg scheduledDiffeq() {
  return sched::scheduleAndBind(dfg::diffeq(),
                                Allocation{{ResourceClass::Multiplier, 2},
                                           {ResourceClass::Adder, 1},
                                           {ResourceClass::Subtractor, 1}},
                                tau::paperLibrary());
}

ScheduledDfg scheduledFir5() {
  return sched::scheduleAndBind(dfg::fir(5),
                                Allocation{{ResourceClass::Multiplier, 2},
                                           {ResourceClass::Adder, 1}},
                                tau::paperLibrary());
}

TEST(StatsDeterminism, ExactAverageBitIdenticalAcrossThreadCounts) {
  GlobalThreadCountGuard guard;
  for (const ScheduledDfg& s : {scheduledDiffeq(), scheduledFir5()}) {
    for (sim::ControlStyle style :
         {sim::ControlStyle::Distributed, sim::ControlStyle::CentSync}) {
      for (double p : {0.9, 0.5}) {
        common::setGlobalThreadCount(1);
        const double serial = sim::averageCyclesExact(s, style, p);
        for (int threads : {2, 8}) {
          common::setGlobalThreadCount(threads);
          // EXPECT_EQ on doubles is exact: any drift in summation order or
          // work partitioning fails here.
          EXPECT_EQ(sim::averageCyclesExact(s, style, p), serial)
              << s.graph.name() << " p=" << p << " threads=" << threads;
        }
      }
    }
  }
}

TEST(StatsDeterminism, MonteCarloBitIdenticalAcrossThreadCounts) {
  GlobalThreadCountGuard guard;
  for (const ScheduledDfg& s : {scheduledDiffeq(), scheduledFir5()}) {
    for (double p : {0.9, 0.5}) {
      common::setGlobalThreadCount(1);
      const sim::MakespanEngine engine(s);
      const sim::LatencyOptions fixed{.mcSamples = 5000, .mcMaxSamples = 5000};
      const double serial =
          sim::averageCyclesMonteCarloAdaptive(
              s, engine, sim::ControlStyle::Distributed, p, fixed)
              .mean;
      for (int threads : {2, 8}) {
        common::setGlobalThreadCount(threads);
        EXPECT_EQ(sim::averageCyclesMonteCarloAdaptive(
                      s, engine, sim::ControlStyle::Distributed, p, fixed)
                      .mean,
                  serial)
            << s.graph.name() << " p=" << p << " threads=" << threads;
      }
    }
  }
}

TEST(StatsDeterminism, CompareLatenciesBitIdenticalAcrossThreadCounts) {
  GlobalThreadCountGuard guard;
  const ScheduledDfg s = scheduledDiffeq();
  common::setGlobalThreadCount(1);
  const sim::LatencyComparison serial = sim::compareLatencies(s, {0.9, 0.7, 0.5});
  for (int threads : {2, 8}) {
    common::setGlobalThreadCount(threads);
    const sim::LatencyComparison parallel =
        sim::compareLatencies(s, {0.9, 0.7, 0.5});
    EXPECT_EQ(parallel.tau.bestNs, serial.tau.bestNs);
    EXPECT_EQ(parallel.tau.worstNs, serial.tau.worstNs);
    for (std::size_t i = 0; i < serial.ps.size(); ++i) {
      EXPECT_EQ(parallel.tau.averageNs[i], serial.tau.averageNs[i]) << i;
      EXPECT_EQ(parallel.dist.averageNs[i], serial.dist.averageNs[i]) << i;
      EXPECT_EQ(parallel.enhancementPercent[i], serial.enhancementPercent[i]);
    }
  }
}

TEST(StatsDeterminism, ParallelExactCrossValidatesMonteCarlo) {
  GlobalThreadCountGuard guard;
  common::setGlobalThreadCount(8);
  for (const ScheduledDfg& s : {scheduledDiffeq(), scheduledFir5()}) {
    for (double p : {0.9, 0.5}) {
      const double exact =
          sim::averageCyclesExact(s, sim::ControlStyle::Distributed, p);
      const double mc =
          sim::averageCyclesMonteCarloAdaptive(
              s, sim::MakespanEngine(s), sim::ControlStyle::Distributed, p,
              {.mcSamples = 20000, .mcMaxSamples = 20000})
              .mean;
      EXPECT_NEAR(mc, exact, 0.05) << s.graph.name() << " p=" << p;
    }
  }
}

TEST(StatsDeterminism, EngineOverloadsMatchRebuildPath) {
  const ScheduledDfg s = scheduledDiffeq();
  const sim::MakespanEngine engine(s);
  for (sim::ControlStyle style :
       {sim::ControlStyle::Distributed, sim::ControlStyle::CentSync}) {
    EXPECT_EQ(sim::averageCyclesExact(engine, style, 0.7),
              sim::averageCyclesExact(s, style, 0.7));
  }
}

}  // namespace
}  // namespace tauhls

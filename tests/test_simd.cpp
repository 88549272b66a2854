// SIMD shim tests (common/simd.hpp): the vector gatherMax against the scalar
// reference on adversarial slices, and end-to-end bit-identity of the
// SIMD-accelerated Gray-code sweep against the scalar brute-force reference
// on random DAGs, across thread counts.
#include "common/simd.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "dfg/random.hpp"
#include "sched/scheduled_dfg.hpp"
#include "sim/stats.hpp"
#include "tau/library.hpp"

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

TEST(Simd, BackendNameIsKnown) {
  const std::string backend = common::simd::backendName();
  EXPECT_TRUE(backend == "avx2" || backend == "neon" || backend == "scalar")
      << backend;
}

TEST(Simd, GatherMaxMatchesScalarReference) {
  std::uint64_t seed = 0x51DDEEFull;
  auto next = [&seed] {
    seed = seed * 6364136223846793005ull + 1442695040888963407ull;
    return seed >> 33;
  };
  std::vector<int> values(512);
  for (int& v : values) {
    v = static_cast<int>(next() % 2001) - 1000;  // negatives included
  }
  // Slice lengths straddle every code path: empty, sub-width scalar tail,
  // exact vector widths, and long slices with remainders.
  for (const std::size_t n :
       {0u, 1u, 3u, 7u, 8u, 9u, 15u, 16u, 17u, 31u, 64u, 100u, 255u}) {
    std::vector<std::uint32_t> indices(n);
    for (std::uint32_t& idx : indices) {
      idx = static_cast<std::uint32_t>(next() % values.size());
    }
    int expected = -12345;
    for (const std::uint32_t idx : indices) {
      expected = std::max(expected, values[idx]);
    }
    EXPECT_EQ(common::simd::gatherMax(values.data(), indices.data(), n,
                                      -12345),
              expected)
        << "n=" << n;
    if (n >= 8) {
      EXPECT_EQ(common::simd::gatherMaxVector(values.data(), indices.data(),
                                              n, -12345),
                expected)
          << "n=" << n;
    }
  }
}

TEST(Simd, GatherMaxEmptySentinelDominatesWhenLarger) {
  const std::vector<int> values = {1, 2, 3};
  const std::vector<std::uint32_t> indices = {0, 1, 2, 0, 1, 2, 0, 1, 2};
  EXPECT_EQ(common::simd::gatherMax(values.data(), indices.data(),
                                    indices.size(), 99),
            99);
  EXPECT_EQ(common::simd::gatherMax(values.data(), indices.data(), 0, -7),
            -7);
}

// The tentpole's bit-identity guarantee: the SIMD-accelerated Gray-code
// incremental sweep produces EXACTLY the scalar reference statistic on
// random DAGs of varied shape, at every thread count.
TEST(Simd, SweepBitIdenticalToScalarReferenceOnRandomDags) {
  GlobalThreadCountGuard guard;
  for (const std::uint64_t seed : {1ull, 7ull, 42ull, 1234ull}) {
    dfg::RandomDfgSpec spec;
    spec.seed = seed;
    spec.numOps = 16 + static_cast<int>(seed % 7);
    spec.numInputs = 5;
    spec.mulPermille = 600;
    const ScheduledDfg s = sched::scheduleAndBind(
        dfg::randomDfg(spec),
        Allocation{{ResourceClass::Multiplier, 3},
                   {ResourceClass::Adder, 2},
                   {ResourceClass::Subtractor, 1}},
        tau::paperLibrary());
    const sim::MakespanEngine engine(s);
    if (engine.numTauOps() > 16) continue;  // keep the reference pass cheap
    for (const double p : {0.25, 0.7, 1.0}) {
      const double reference = sim::averageCyclesExactReference(
          s, engine, sim::ControlStyle::Distributed, p);
      for (const int threads : {1, 2, 8}) {
        common::setGlobalThreadCount(threads);
        EXPECT_EQ(sim::averageCyclesExact(
                      engine, sim::ControlStyle::Distributed, p),
                  reference)
            << "seed=" << seed << " p=" << p << " threads=" << threads;
      }
    }
  }
}

}  // namespace
}  // namespace tauhls

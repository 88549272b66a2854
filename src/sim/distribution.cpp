#include "sim/distribution.hpp"

#include <bit>

#include "common/error.hpp"

namespace tauhls::sim {

double LatencyDistribution::mean() const {
  double m = 0.0;
  for (const auto& [cycles, prob] : pmf) m += cycles * prob;
  return m;
}

int LatencyDistribution::quantile(double q) const {
  TAUHLS_CHECK(q >= 0.0 && q <= 1.0, "quantile must lie in [0,1]");
  TAUHLS_CHECK(!pmf.empty(), "empty distribution");
  double cumulative = 0.0;
  for (const auto& [cycles, prob] : pmf) {
    cumulative += prob;
    if (cumulative >= q - 1e-12) return cycles;
  }
  return pmf.rbegin()->first;
}

int LatencyDistribution::minCycles() const {
  TAUHLS_CHECK(!pmf.empty(), "empty distribution");
  return pmf.begin()->first;
}

int LatencyDistribution::maxCycles() const {
  TAUHLS_CHECK(!pmf.empty(), "empty distribution");
  return pmf.rbegin()->first;
}

LatencyDistribution latencyDistribution(const sched::ScheduledDfg& s,
                                        ControlStyle style, double p) {
  TAUHLS_CHECK(p >= 0.0 && p <= 1.0, "P must lie in [0,1]");
  const MakespanEngine engine(s);
  const std::vector<double> weights = maskWeights(engine.numTauOps(), p);
  // Each chunk accumulates its masses in ascending mask order; the chunk
  // pmfs are merged in chunk order, so the pmf is the same for every thread
  // count.
  using Pmf = std::map<int, double>;
  const std::vector<Pmf> partials = walkMasks<Pmf>(
      engine, style,
      [&](std::uint64_t base, std::uint64_t count, const int* cycles) {
        Pmf local;
        for (std::uint64_t off = 0; off < count; ++off) {
          const double weight =
              weights[static_cast<std::size_t>(std::popcount(base + off))];
          if (weight != 0.0) local[cycles[off]] += weight;
        }
        return local;
      });
  LatencyDistribution dist;
  for (const Pmf& local : partials) {
    for (const auto& [cycles, mass] : local) dist.pmf[cycles] += mass;
  }
  return dist;
}

}  // namespace tauhls::sim

// Exact latency distributions.
//
// Table 2 reports only expected latencies; for real-time budgeting the full
// probability mass function matters.  With <= 24 TAU ops the pmf over
// makespan cycles is computed exactly by a fold over the 2^n mask walker
// (sim::walkMasks) with the Bernoulli(P) mask weights.
#pragma once

#include <map>

#include "sim/stats.hpp"

namespace tauhls::sim {

struct LatencyDistribution {
  /// cycles -> probability (sums to 1).
  std::map<int, double> pmf;

  double mean() const;
  /// Smallest cycle count c with P(latency <= c) >= q.
  int quantile(double q) const;
  int minCycles() const;
  int maxCycles() const;
};

/// Exact pmf under `style` at SD-ratio `p`; requires <= 24 TAU ops.  The
/// same for every thread count.
LatencyDistribution latencyDistribution(const sched::ScheduledDfg& s,
                                        ControlStyle style, double p);

}  // namespace tauhls::sim

// Composed makespan statistics for region programs.
//
// The key identity: under the sequencer's start/done handshake an activation
// begins only when the previous one has fully completed, so the composed
// makespan of an activation trace is the *sum* of per-activation makespans,
// and the operand classes of distinct activations are independent
// Bernoulli(P) draws.  We therefore represent each leaf's exact makespan law
// as an integer 2-D histogram
//
//     (cycles, #SD-ops) -> number of class assignments
//
// built by full 2^n enumeration, and compose activations by convolution
// (cycles add, SD counts add, counts multiply).  The flat-inlined unrolled
// reference graph (sched::flattenScheduled) enumerates *its* assignment
// space into the same histogram domain; because the barrier state edges make
// its makespan exactly the per-activation sum, the two integer histograms
// are equal bucket-for-bucket -- and every statistic derived through the one
// shared weighting function (P-averages, best, worst) is bit-identical, the
// cross-check the tests and the regions bench enforce.
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "sched/region_schedule.hpp"
#include "sim/stats.hpp"

namespace tauhls::sim {

/// Exact makespan law of a schedule (or composition of schedules) over the
/// independent SD/LD class assignments of its TAU-bound ops.
struct MakespanHistogram {
  int tauCount = 0;
  /// (makespan cycles, SD-class op count) -> number of assignments.
  std::map<std::pair<int, int>, std::uint64_t> buckets;

  /// The neutral element of convolution: zero TAU ops, zero cycles.
  static MakespanHistogram unit();
};

/// Full-enumeration histogram of one schedule under `style`: a fold over
/// the 2^n mask walker (sim::walkMasks), so it requires at most
/// kMaxExactTauOps TAU ops.  The buckets are integers, hence identical for
/// every thread count.
MakespanHistogram makespanHistogram(const sched::ScheduledDfg& s,
                                    ControlStyle style);

/// Law of the sum of two independent makespans.
MakespanHistogram convolveHistograms(const MakespanHistogram& a,
                                     const MakespanHistogram& b);

/// Expected cycles under i.i.d. Bernoulli(p) SD classes.  The shared
/// weighting function: equal histograms give bit-identical doubles.
double histogramAverageCycles(const MakespanHistogram& h, double p);

int histogramBestCycles(const MakespanHistogram& h);
int histogramWorstCycles(const MakespanHistogram& h);

/// Composed law of the whole program under `choices`: per-leaf histograms
/// convolved along the activation trace.
MakespanHistogram composedHistogram(const sched::RegionSchedule& rs,
                                    ControlStyle style,
                                    const dfg::BranchChoices& choices);

/// Composed Table-2 comparison (LT_TAU vs LT_DIST, in ns) for the program
/// under `choices`, exact at every requested P.
LatencyComparison composedLatency(const sched::RegionSchedule& rs,
                                  const dfg::BranchChoices& choices,
                                  const std::vector<double>& ps);

}  // namespace tauhls::sim

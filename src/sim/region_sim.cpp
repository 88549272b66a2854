#include "sim/region_sim.hpp"

#include <bit>
#include <cmath>

#include "common/error.hpp"
#include "sim/makespan.hpp"

namespace tauhls::sim {

MakespanHistogram MakespanHistogram::unit() {
  MakespanHistogram h;
  h.buckets[{0, 0}] = 1;
  return h;
}

MakespanHistogram makespanHistogram(const sched::ScheduledDfg& s,
                                    ControlStyle style) {
  const MakespanEngine engine(s);
  // The buckets are integer counts, so the merge is exact in any order.
  using Buckets = std::map<std::pair<int, int>, std::uint64_t>;
  MakespanHistogram h;
  h.tauCount = engine.numTauOps();
  for (const Buckets& local : walkMasks<Buckets>(
           engine, style,
           [](std::uint64_t base, std::uint64_t count, const int* cycles) {
             Buckets buckets;
             for (std::uint64_t off = 0; off < count; ++off) {
               ++buckets[{cycles[off], std::popcount(base + off)}];
             }
             return buckets;
           })) {
    for (const auto& [key, count] : local) h.buckets[key] += count;
  }
  return h;
}

MakespanHistogram convolveHistograms(const MakespanHistogram& a,
                                     const MakespanHistogram& b) {
  MakespanHistogram out;
  out.tauCount = a.tauCount + b.tauCount;
  for (const auto& [ka, ca] : a.buckets) {
    for (const auto& [kb, cb] : b.buckets) {
      out.buckets[{ka.first + kb.first, ka.second + kb.second}] += ca * cb;
    }
  }
  return out;
}

double histogramAverageCycles(const MakespanHistogram& h, double p) {
  // Walked in the map's sorted bucket order: equal histograms accumulate in
  // the same order, so the result is bit-identical between the composed and
  // flat-reference paths.
  double sum = 0.0;
  for (const auto& [key, count] : h.buckets) {
    const auto& [cycles, sdCount] = key;
    sum += static_cast<double>(count) * static_cast<double>(cycles) *
           std::pow(p, sdCount) * std::pow(1.0 - p, h.tauCount - sdCount);
  }
  return sum;
}

// The buckets are keyed (cycles, #SD) in ascending order.
int histogramBestCycles(const MakespanHistogram& h) {
  TAUHLS_CHECK(!h.buckets.empty(), "empty makespan histogram");
  return h.buckets.begin()->first.first;
}

int histogramWorstCycles(const MakespanHistogram& h) {
  TAUHLS_CHECK(!h.buckets.empty(), "empty makespan histogram");
  return h.buckets.rbegin()->first.first;
}

MakespanHistogram composedHistogram(const sched::RegionSchedule& rs,
                                    ControlStyle style,
                                    const dfg::BranchChoices& choices) {
  std::map<std::string, MakespanHistogram> perLeaf;
  MakespanHistogram out = MakespanHistogram::unit();
  for (const std::string& path : dfg::activationTrace(rs.program, choices)) {
    auto it = perLeaf.find(path);
    if (it == perLeaf.end()) {
      it = perLeaf.emplace(path, makespanHistogram(rs.leaf(path), style)).first;
    }
    out = convolveHistograms(out, it->second);
  }
  return out;
}

LatencyComparison composedLatency(const sched::RegionSchedule& rs,
                                  const dfg::BranchChoices& choices,
                                  const std::vector<double>& ps) {
  const auto row = [&](ControlStyle style) {
    const MakespanHistogram h = composedHistogram(rs, style, choices);
    LatencyRow cycles;
    cycles.bestNs = histogramBestCycles(h);
    cycles.worstNs = histogramWorstCycles(h);
    for (double p : ps) cycles.averageNs.push_back(histogramAverageCycles(h, p));
    return cycles;
  };
  return latencyComparison(ps, rs.clockNs(), row(ControlStyle::CentSync),
                           row(ControlStyle::Distributed));
}

}  // namespace tauhls::sim

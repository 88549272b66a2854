// Hierarchical-regions flow trajectory -- the per-PR tracked benchmark for
// the composed path (loop x4 FIR accumulation -> IIR corrector -> conditional
// output scaling, dfg::firIirLoop).  For both binding strategies it
//
//   * schedules every leaf against the shared {x:2, +:1} allocation,
//   * builds the composed controllers (per-leaf Algorithm-1 networks plus
//     the region sequencer) and runs the full hierarchical flow,
//   * cross-checks the composed makespan law against the flat-inlined
//     unrolled reference: composedHistogram (per-leaf enumeration +
//     convolution) must equal makespanHistogram(flattenScheduled(...))
//     bucket-for-bucket, for both control styles and both branch choices.
//
// and emits BENCH_regions.json:
//
//   "structural"  deterministic, machine-independent facts: region/activation
//                 /sequencer-state counts, controller totals, the composed
//                 Table-2 cells (bit-identical doubles printed to 3 decimals)
//                 and the composed==flat identity bit per configuration.  CI
//                 diffs them against bench/baselines/BENCH_regions.json via
//                 tools/compare_bench.py and fails on drift.
//   "timingsMs"   wall clock per stage; machine dependent, informational.
//
// Any identity violation exits non-zero -- a composed simulation that
// disagrees with the flat reference is a bug, not a trade-off.
//
//   region_flow [--json FILE]
#include <chrono>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/hier_flow.hpp"
#include "dfg/benchmarks.hpp"
#include "dfg/region.hpp"
#include "sched/region_schedule.hpp"
#include "sim/region_sim.hpp"

namespace {

using namespace tauhls;

using tauhls::bench::wallMs;
using tauhls::bench::jsonNumber;

std::string latencyCells(const sim::LatencyRow& row) {
  std::ostringstream os;
  os << "{\"bestNs\":" << jsonNumber(row.bestNs) << ",\"averageNs\":[";
  for (std::size_t i = 0; i < row.averageNs.size(); ++i) {
    os << (i ? "," : "") << jsonNumber(row.averageNs[i]);
  }
  os << "],\"worstNs\":" << jsonNumber(row.worstNs) << "}";
  return os.str();
}

const char* strategyName(sched::BindingStrategy s) {
  return s == sched::BindingStrategy::LeftEdge ? "leftEdge" : "cliqueCover";
}

}  // namespace

int main(int argc, char** argv) {
  std::string jsonPath = "BENCH_regions.json";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--json" && i + 1 < argc) {
      jsonPath = argv[++i];
    } else {
      std::cerr << "usage: region_flow [--json FILE]\n";
      return 2;
    }
  }

  bench::banner("Hierarchical regions flow (composed vs flat-inlined reference)");

  const dfg::RegionProgram program = dfg::firIirLoop();
  const dfg::Allocation alloc = dfg::firIirLoopAllocation();
  bool ok = true;

  std::ostringstream structural;
  std::ostringstream timings;
  structural << "\"benchmark\":\"fir_iir_loop\",\"perStrategy\":{";
  bool firstStrategy = true;

  double totalMs = 0.0;
  for (sched::BindingStrategy strategy :
       {sched::BindingStrategy::LeftEdge, sched::BindingStrategy::CliqueCover}) {
    core::FlowConfig cfg;
    cfg.allocation = alloc;
    cfg.strategy = strategy;
    cfg.synthesizeArea = false;

    const auto t0 = std::chrono::steady_clock::now();
    core::HierFlowResult r = core::runHierFlow(program, cfg);
    const double flowMs = wallMs(t0);

    // Composed == flat identity, over styles x branch choices.
    bool identical = true;
    const auto t1 = std::chrono::steady_clock::now();
    for (bool thenBranch : {true, false}) {
      const dfg::BranchChoices choices = {{"s3", thenBranch}};
      sched::ScheduledDfg flat = sched::flattenScheduled(r.schedule, choices);
      for (sim::ControlStyle style :
           {sim::ControlStyle::Distributed, sim::ControlStyle::CentSync}) {
        sim::MakespanHistogram composed =
            sim::composedHistogram(r.schedule, style, choices);
        sim::MakespanHistogram reference = sim::makespanHistogram(flat, style);
        if (composed.tauCount != reference.tauCount ||
            composed.buckets != reference.buckets) {
          identical = false;
          ok = false;
          std::cerr << "FAIL: composed histogram deviates from the flat "
                    << "reference (" << strategyName(strategy) << ", "
                    << (style == sim::ControlStyle::Distributed ? "dist"
                                                                : "centSync")
                    << ", " << (thenBranch ? "then" : "else") << ")\n";
        }
      }
    }
    const double identityMs = wallMs(t1);
    totalMs += flowMs + identityMs;

    std::cout << std::left << std::setw(12) << strategyName(strategy)
              << r.schedule.leaves.size() << " regions, " << r.activations.size()
              << " activations, " << r.control.sequencer.numStates()
              << " sequencer states, " << r.control.totalStates()
              << " total states, " << r.totalTauOps
              << " TAU ops on trace; composed==flat "
              << (identical ? "OK" : "FAILED") << "; flow "
              << jsonNumber(flowMs) << " ms, identity "
              << jsonNumber(identityMs) << " ms\n";
    std::cout << "  " << core::formatComposedTable2Row("fir_iir_loop", r);

    structural << (firstStrategy ? "" : ",") << "\""
               << strategyName(strategy) << "\":{"
               << "\"regions\":" << r.schedule.leaves.size()
               << ",\"activations\":" << r.activations.size()
               << ",\"sequencerStates\":" << r.control.sequencer.numStates()
               << ",\"totalStates\":" << r.control.totalStates()
               << ",\"totalFlipFlops\":" << r.control.totalFlipFlops()
               << ",\"completionLatches\":" << r.control.completionLatchCount()
               << ",\"tauOpsOnTrace\":" << r.totalTauOps
               << ",\"composedEqualsFlat\":" << (identical ? 1 : 0)
               << ",\"ltTau\":" << latencyCells(r.latency.tau)
               << ",\"ltDist\":" << latencyCells(r.latency.dist)
               << ",\"enhancementPercent\":[";
    for (std::size_t i = 0; i < r.latency.enhancementPercent.size(); ++i) {
      structural << (i ? "," : "")
                 << jsonNumber(r.latency.enhancementPercent[i]);
    }
    structural << "]}";
    firstStrategy = false;

    timings << (strategy == sched::BindingStrategy::LeftEdge ? "" : ",")
            << "\"" << strategyName(strategy)
            << "\":{\"flow\":" << jsonNumber(flowMs)
            << ",\"identity\":" << jsonNumber(identityMs) << "}";
  }
  structural << "}";

  std::cout << "total: " << jsonNumber(totalMs) << " ms; identity "
            << (ok ? "OK" : "FAILED") << "\n";

  std::ostringstream js;
  js << "{\"schema\":\"tauhls-bench-regions\",\"version\":1,"
     << "\"structural\":{" << structural.str() << "},"
     << "\"timingsMs\":{" << timings.str()
     << ",\"total\":" << jsonNumber(totalMs) << "}}\n";
  std::ofstream out(jsonPath);
  out << js.str();
  std::cout << "wrote " << jsonPath << "\n";

  return ok ? 0 : 1;
}

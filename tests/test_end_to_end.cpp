// Whole-system integration battery: for every paper benchmark x both binding
// strategies, run the complete flow and assert the cross-module invariants
// in one place -- the checks a release gate would run.
#include <gtest/gtest.h>

#include "core/flow.hpp"
#include "core/json.hpp"
#include "core/report.hpp"
#include "dfg/benchmarks.hpp"
#include "fsm/kiss.hpp"
#include "netlist/analyze.hpp"
#include "netlist/build.hpp"
#include "regalloc/leftedge.hpp"
#include "sim/interp.hpp"

namespace tauhls {
namespace {

struct CaseSpec {
  std::size_t benchmarkIndex;
  sched::BindingStrategy strategy;
};

class EndToEnd : public ::testing::TestWithParam<
                     std::tuple<std::size_t, sched::BindingStrategy>> {};

TEST_P(EndToEnd, FullFlowInvariants) {
  const auto [index, strategy] = GetParam();
  const dfg::NamedBenchmark b = dfg::paperTable2Suite()[index];

  core::FlowConfig cfg;
  cfg.allocation = b.allocation;
  cfg.strategy = strategy;
  const core::FlowResult r = core::runFlow(b.graph, cfg);

  // --- latency invariants -------------------------------------------------
  EXPECT_LE(r.latency.dist.bestNs, r.latency.dist.worstNs);
  for (std::size_t i = 0; i < r.latency.ps.size(); ++i) {
    EXPECT_LE(r.latency.dist.averageNs[i], r.latency.tau.averageNs[i] + 1e-9);
    EXPECT_GE(r.latency.dist.averageNs[i], r.latency.dist.bestNs - 1e-9);
    EXPECT_LE(r.latency.dist.averageNs[i], r.latency.dist.worstNs + 1e-9);
  }
  // Averages are monotone in P (0.9 fastest).
  EXPECT_LE(r.latency.dist.averageNs[0], r.latency.dist.averageNs[1]);
  EXPECT_LE(r.latency.dist.averageNs[1], r.latency.dist.averageNs[2]);

  // --- FSM-level spot check ------------------------------------------------
  const sim::SimTrace best =
      sim::runDistributed(r.distributed, r.scheduled, sim::allShort(r.scheduled));
  EXPECT_DOUBLE_EQ(best.latencyCycles * r.scheduled.clockNs,
                   r.latency.dist.bestNs);
  const sim::SimTrace worst =
      sim::runDistributed(r.distributed, r.scheduled, sim::allLong(r.scheduled));
  EXPECT_DOUBLE_EQ(worst.latencyCycles * r.scheduled.clockNs,
                   r.latency.dist.worstNs);

  // --- every RE fires within the iteration (controllers wrap, so early
  // units may already re-execute iteration 2 before the last op finishes --
  // additional pulses are expected, absence is not).
  std::map<std::string, int> reCount;
  for (const auto& cyc : best.outputsPerCycle) {
    for (const std::string& o : cyc) {
      if (o.starts_with("RE_")) ++reCount[o];
    }
  }
  for (dfg::NodeId v : r.scheduled.graph.opIds()) {
    EXPECT_GE(reCount["RE_" + r.scheduled.graph.node(v).name], 1)
        << r.scheduled.graph.node(v).name;
  }

  // --- controller logic is implementable and equivalent --------------------
  const fsm::Fsm& ctrl0 = r.distributed.controllers.front().fsm;
  netlist::ControllerNetlist cn =
      netlist::buildControllerNetlist(ctrl0, synth::synthesize(ctrl0));
  EXPECT_TRUE(netlist::verifyAgainstFsm(cn, ctrl0));
  EXPECT_TRUE(netlist::meetsClockNaive(netlist::analyze(cn.net),
                                       r.scheduled.clockNs, 0.5, 2.0));
  EXPECT_TRUE(netlist::meetsClock(cn.net, r.scheduled.clockNs, 2.0));

  // --- KISS2 round trip of the baseline machine ----------------------------
  fsm::Fsm reimported = fsm::fromKiss2(fsm::toKiss2(r.centSync), "rt");
  EXPECT_EQ(sim::compareOnRandomTraces(r.centSync, reimported, 11, 4, 40), -1);

  // --- register allocation meets its lower bound ----------------------------
  const auto lifetimes = regalloc::distributedLifetimes(r.scheduled);
  const auto regs =
      regalloc::leftEdgeRegisters(lifetimes, r.scheduled.graph.numNodes());
  EXPECT_EQ(regs.numRegisters, regalloc::maxLiveValues(lifetimes));

  // --- reports render ------------------------------------------------------
  EXPECT_FALSE(core::formatTable2Row(b.name, r).empty());
  EXPECT_FALSE(core::formatTable1(r).empty());
  const std::string json = core::toJson(r);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

INSTANTIATE_TEST_SUITE_P(
    PaperSuite, EndToEnd,
    ::testing::Combine(::testing::Range<std::size_t>(0, 6),
                       ::testing::Values(sched::BindingStrategy::LeftEdge,
                                         sched::BindingStrategy::CliqueCover)));

}  // namespace
}  // namespace tauhls

// Symbolic equivalence checking tests (verify/equiv_check.hpp) and the
// pipeline integration of the demand-only `equiv` / `timing` passes.
//
// The acceptance sweep proves every paper benchmark EQV-clean end to end
// (spec = cover = netlist = reparsed RTL) under both binding strategies and
// with signal optimization on and off -- entirely via SAT miters; an EQV005
// (conflict-budget fallback) anywhere fails the suite.
#include "verify/equiv_check.hpp"

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "core/pipeline.hpp"
#include "dfg/benchmarks.hpp"
#include "fsm/distributed.hpp"
#include "fsm/machine.hpp"
#include "sched/scheduled_dfg.hpp"
#include "verify/timing_check.hpp"

namespace tauhls::verify {
namespace {

int countRule(const Report& report, const std::string& rule) {
  int n = 0;
  for (const auto& d : report.diagnostics()) {
    if (d.code == rule) ++n;
  }
  return n;
}

fsm::Fsm sampleController() {
  fsm::Fsm m("ctrl");
  m.addInput("go");
  m.addOutput("busy");
  const int s0 = m.addState("S0");
  const int s1 = m.addState("S1");
  const int s2 = m.addState("S2");
  m.setInitial(s0);
  m.addTransition(s0, s1, fsm::Guard::literal("go", true), {"busy"});
  m.addTransition(s0, s0, fsm::Guard::literal("go", false), {});
  m.addTransition(s1, s2, fsm::Guard::always(), {"busy"});
  m.addTransition(s2, s0, fsm::Guard::always(), {});
  return m;
}

TEST(Equiv, SingleControllerChainIsClean) {
  const fsm::Fsm ctrl = sampleController();
  Report report;
  const EquivStats stats =
      checkControllerChain(ctrl, synth::synthesize(ctrl), report);
  EXPECT_FALSE(report.hasErrors());
  EXPECT_EQ(countRule(report, "EQV005"), 0);
  EXPECT_EQ(countRule(report, "EQV006"), 1);
  // 2 state bits -> ns0, ns1, plus the busy output, across 3 comparison
  // stages (spec=cover, cover=netlist, netlist=RTL).
  EXPECT_EQ(stats.functionsCompared, 9);
}

TEST(Equiv, OneHotChainSkipsRtlStage) {
  // emitFsm always emits binary encoding, so the one-hot chain proves
  // spec = cover = netlist only; it must still come out clean.
  EquivOptions options;
  options.style = synth::EncodingStyle::OneHot;
  const fsm::Fsm ctrl = sampleController();
  Report report;
  checkControllerChain(ctrl, synth::synthesize(ctrl, options.style), report,
                       options);
  EXPECT_FALSE(report.hasErrors());
  EXPECT_EQ(countRule(report, "EQV006"), 1);
}

TEST(Equiv, AcceptanceSweepAllBenchmarksAllConfigs) {
  for (const dfg::NamedBenchmark& b : dfg::paperTable2Suite()) {
    for (const auto strategy : {sched::BindingStrategy::LeftEdge,
                                sched::BindingStrategy::CliqueCover}) {
      for (const bool signalOpt : {true, false}) {
        core::FlowConfig cfg;
        cfg.allocation = b.allocation;
        cfg.strategy = strategy;
        cfg.optimizeSignals = signalOpt;
        core::FlowPipeline pipeline(b.graph, cfg);
        const auto& eq = pipeline.get<EquivalenceArtifact>(
            core::Artifact::Equivalence);
        const std::string label =
            b.name + (strategy == sched::BindingStrategy::LeftEdge
                          ? " leftedge"
                          : " clique") +
            (signalOpt ? " opt" : " no-opt");
        EXPECT_FALSE(eq.report.hasErrors()) << label;
        // Zero fallbacks: every miter is discharged by SAT (or hashing),
        // never abandoned to the conflict budget.
        EXPECT_EQ(countRule(eq.report, "EQV005"), 0) << label;
        // Every controller gets its EQV006 "proven end to end" stamp.
        EXPECT_EQ(static_cast<std::size_t>(countRule(eq.report, "EQV006")),
                  pipeline
                      .get<fsm::DistributedControlUnit>(
                          core::Artifact::Distributed)
                      .controllers.size())
            << label;
        EXPECT_GT(eq.stats.functionsCompared, 0) << label;

        const auto& timing =
            pipeline.get<Report>(core::Artifact::Timing);
        EXPECT_FALSE(timing.hasErrors()) << label;
        EXPECT_GT(countRule(timing, "TIM003"), 0) << label;
      }
    }
  }
}

/// Order-preserving (code, artifact, where) verdict list -- the engine
/// equality contract: counterexample *messages* may differ between engines
/// (different models), the fired rules may not.
std::vector<std::tuple<std::string, std::string, std::string>> verdictsOf(
    const Report& report) {
  std::vector<std::tuple<std::string, std::string, std::string>> out;
  for (const auto& d : report.diagnostics()) {
    out.emplace_back(d.code, d.artifact, d.where);
  }
  return out;
}

TEST(Equiv, IncrementalEngineVerdictsMatchNaiveOnAllBenchmarks) {
  // The tentpole's bit-identity guarantee on the equivalence side: the
  // sim-prefiltered incremental-SAT engine fires exactly the rules the
  // fresh-solver reference fires, on every benchmark x both binding
  // strategies.
  for (const dfg::NamedBenchmark& b : dfg::paperTable2Suite()) {
    for (const auto strategy : {sched::BindingStrategy::LeftEdge,
                                sched::BindingStrategy::CliqueCover}) {
      core::FlowConfig cfg;
      cfg.allocation = b.allocation;
      cfg.strategy = strategy;
      core::FlowPipeline pipeline(b.graph, cfg);
      const auto& dcu = pipeline.get<fsm::DistributedControlUnit>(
          core::Artifact::Distributed);

      EquivOptions naive;
      naive.engine = EquivEngine::Naive;
      EquivStats naiveStats;
      const Report naiveReport = checkEquivalence(dcu, naive, &naiveStats);

      EquivOptions incremental;
      incremental.engine = EquivEngine::Incremental;
      EquivStats incStats;
      const Report incReport = checkEquivalence(dcu, incremental, &incStats);

      const std::string label =
          b.name + (strategy == sched::BindingStrategy::LeftEdge
                        ? " leftedge"
                        : " clique");
      EXPECT_EQ(verdictsOf(incReport), verdictsOf(naiveReport)) << label;
      EXPECT_EQ(incStats.controllers, naiveStats.controllers) << label;
      EXPECT_EQ(incStats.functionsCompared, naiveStats.functionsCompared)
          << label;
    }
  }
}

TEST(Equiv, EnginesCatchTamperedNetlistIdentically) {
  // A netlist from the wrong controller must raise EQV002 under both
  // engines, with identical (code, artifact, where) verdicts.
  const fsm::Fsm good = sampleController();
  fsm::Fsm other("ctrl");
  other.addInput("go");
  other.addOutput("busy");
  const int s0 = other.addState("S0");
  const int s1 = other.addState("S1");
  const int s2 = other.addState("S2");
  other.setInitial(s0);
  // Inverted guard polarity relative to sampleController.
  other.addTransition(s0, s1, fsm::Guard::literal("go", false), {"busy"});
  other.addTransition(s0, s0, fsm::Guard::literal("go", true), {});
  other.addTransition(s1, s2, fsm::Guard::always(), {});
  other.addTransition(s2, s0, fsm::Guard::always(), {"busy"});
  const netlist::ControllerNetlist tampered =
      netlist::buildControllerNetlist(other, synth::synthesize(other));
  const synth::SynthesizedFsm goodSyn = synth::synthesize(good);

  EquivOptions naive;
  naive.engine = EquivEngine::Naive;
  Report naiveReport;
  checkControllerNetlist(good, goodSyn, tampered, naiveReport, naive);

  EquivOptions incremental;
  incremental.engine = EquivEngine::Incremental;
  Report incReport;
  checkControllerNetlist(good, goodSyn, tampered, incReport, incremental);

  EXPECT_GT(countRule(naiveReport, "EQV002"), 0);
  EXPECT_EQ(verdictsOf(incReport), verdictsOf(naiveReport));
}

TEST(Equiv, PerRuleCostCoversEveryComparison) {
  // Each compared function is resolved exactly once, by simulation or by a
  // SAT query, and the split is visible per rule; the completion-latch
  // check contributes its own EQV004 bucket.
  const auto suite = dfg::paperTable2Suite();
  core::FlowConfig cfg;
  cfg.allocation = suite.front().allocation;
  core::FlowPipeline pipeline(suite.front().graph, cfg);
  const auto& dcu = pipeline.get<fsm::DistributedControlUnit>(
      core::Artifact::Distributed);
  EquivStats stats;
  checkEquivalence(dcu, {}, &stats);
  std::uint64_t resolved = 0;
  for (const std::string rule : {"EQV001", "EQV002", "EQV003"}) {
    const auto it = stats.ruleCost.find(rule);
    ASSERT_NE(it, stats.ruleCost.end()) << rule;
    resolved += it->second.queries + it->second.simDischarged;
  }
  EXPECT_EQ(resolved, static_cast<std::uint64_t>(stats.functionsCompared));
  const auto latch = stats.ruleCost.find("EQV004");
  ASSERT_NE(latch, stats.ruleCost.end());
  EXPECT_EQ(latch->second.queries, 2u);
}

TEST(Equiv, PipelinePassesAreCached) {
  // Two pipelines over the same (graph, config) sharing one artifact cache:
  // the second run's equiv and timing passes must be cache hits, and the
  // rendered chrome://tracing JSON must say so.
  const auto suite = dfg::paperTable2Suite();
  const dfg::NamedBenchmark& b = suite.front();
  core::FlowConfig cfg;
  cfg.allocation = b.allocation;
  auto cache = std::make_shared<core::ArtifactCache>();

  core::FlowPipeline first(b.graph, cfg, cache);
  first.require({core::Artifact::Equivalence, core::Artifact::Timing});
  core::FlowPipeline second(b.graph, cfg, cache);
  second.require({core::Artifact::Equivalence, core::Artifact::Timing});

  bool equivHit = false, timingHit = false;
  for (const core::PassTraceEvent& ev : second.traceEvents()) {
    if (ev.pass == "equiv") equivHit = ev.cacheHit;
    if (ev.pass == "timing") timingHit = ev.cacheHit;
  }
  EXPECT_TRUE(equivHit);
  EXPECT_TRUE(timingHit);

  const std::string json = core::traceToChromeJson(
      {{"first", first.traceEvents()}, {"second", second.traceEvents()}});
  EXPECT_NE(json.find("\"name\":\"equiv\""), std::string::npos);
  EXPECT_NE(json.find("\"cache\":\"hit\""), std::string::npos);

  const auto stats = cache->stats();
  EXPECT_EQ(stats.hitsPerPass.at("equiv"), 1u);
  EXPECT_EQ(stats.hitsPerPass.at("timing"), 1u);
}

TEST(Equiv, ConfigChangesInvalidateTheCacheKey) {
  const auto suite = dfg::paperTable2Suite();
  const dfg::NamedBenchmark& b = suite.front();
  core::FlowConfig cfg;
  cfg.allocation = b.allocation;
  core::FlowPipeline base(b.graph, cfg);

  core::FlowConfig margin = cfg;
  margin.timingMarginNs = 5.0;
  core::FlowPipeline tweaked(b.graph, margin);
  // The timing key must move with its declared config field; equivalence
  // ignores the margin and keeps its key.
  EXPECT_NE(base.artifactKey(core::Artifact::Timing),
            tweaked.artifactKey(core::Artifact::Timing));
  EXPECT_EQ(base.artifactKey(core::Artifact::Equivalence),
            tweaked.artifactKey(core::Artifact::Equivalence));

  core::FlowConfig conflicts = cfg;
  conflicts.equivMaxConflicts = 7;
  core::FlowPipeline bounded(b.graph, conflicts);
  EXPECT_NE(base.artifactKey(core::Artifact::Equivalence),
            bounded.artifactKey(core::Artifact::Equivalence));
}

TEST(Equiv, TimingMarginTightensSlack) {
  const fsm::Fsm ctrl = sampleController();
  Report loose, tight;
  TimingOptions lo;
  lo.marginNs = 0.0;
  const synth::SynthesizedFsm syn = synth::synthesize(ctrl);
  checkControllerTiming(ctrl, syn, 15.0, loose, lo);
  TimingOptions hi;
  hi.marginNs = 14.0;  // leaves ~1 ns for logic: must at least warn
  checkControllerTiming(ctrl, syn, 15.0, tight, hi);
  EXPECT_FALSE(loose.hasErrors());
  EXPECT_TRUE(tight.hasErrors() || countRule(tight, "TIM002") > 0);
}

TEST(Equiv, ImpossibleClockRaisesTim001) {
  Report report;
  TimingOptions options;
  options.marginNs = 0.0;
  const fsm::Fsm ctrl = sampleController();
  checkControllerTiming(ctrl, synth::synthesize(ctrl), 0.5, report, options);
  EXPECT_TRUE(report.hasErrors());
  EXPECT_GE(countRule(report, "TIM001"), 1);
}

TEST(Equiv, CompletionLatchOfEmittedPackageIsClean) {
  const auto suite = dfg::paperTable2Suite();
  core::FlowConfig cfg;
  cfg.allocation = suite.front().allocation;
  core::FlowPipeline pipeline(suite.front().graph, cfg);
  const auto& eq =
      pipeline.get<EquivalenceArtifact>(core::Artifact::Equivalence);
  EXPECT_EQ(countRule(eq.report, "EQV004"), 0);
}

}  // namespace
}  // namespace tauhls::verify

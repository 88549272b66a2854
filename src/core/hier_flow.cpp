#include "core/hier_flow.hpp"

#include <algorithm>
#include <map>

#include "sim/makespan.hpp"
#include "synth/extract.hpp"
#include "verify/equiv_check.hpp"
#include "verify/region_check.hpp"

namespace tauhls::core {

namespace {

/// Re-anchor a leaf pipeline's diagnostics to carry the region path.
void mergePrefixed(const verify::Report& from, const std::string& path,
                   verify::Report& into) {
  for (verify::Diagnostic d : from.diagnostics()) {
    d.artifact = "leaf " + (path.empty() ? std::string("<root>") : path) +
                 ": " + d.artifact;
    into.addDiagnostic(d);
  }
}

}  // namespace

HierFlowResult runHierFlow(const dfg::RegionProgram& program,
                           const FlowConfig& config,
                           const HierFlowOptions& options,
                           std::shared_ptr<ArtifactCache> cache) {
  HierFlowResult out;
  out.branches = dfg::completeBranchChoices(program, options.branches);

  // Structure first: a malformed tree blocks everything downstream.
  verify::Report report;
  verify::checkRegionProgram(program, report);
  throwIfVerificationFailed(report);

  // The shared hardware must cover every leaf: normalize the requested
  // allocation against each body and keep the per-class maximum (the same
  // rule sched::scheduleRegions applies).
  sched::Allocation shared;
  const std::vector<dfg::LeafRef> leaves = dfg::collectLeaves(program);
  for (const dfg::LeafRef& leaf : leaves) {
    for (const auto& [cls, n] :
         sched::normalizeAllocation(leaf.region->body, config.allocation)) {
      shared[cls] = std::max(shared[cls], n);
    }
  }

  sched::RegionSchedule rs;
  rs.program = program;
  rs.allocation = shared;
  rs.strategy = config.strategy;

  // One FlowPipeline per leaf, all sharing the cache: an edited region
  // misses, every untouched region hits.
  for (const dfg::LeafRef& leaf : leaves) {
    FlowConfig leafConfig = config;
    leafConfig.allocation = shared;
    FlowPipeline pipe(leaf.region->body, leafConfig, cache);
    rs.leaves.emplace(leaf.path,
                      pipe.get<sched::ScheduledDfg>(Artifact::Schedule));
    if (config.verify) {
      mergePrefixed(pipe.modelCheckedDiagnostics(), leaf.path, report);
    }
    if (options.equivalence) {
      mergePrefixed(
          pipe.get<verify::EquivalenceArtifact>(Artifact::Equivalence).report,
          leaf.path, report);
    }
  }

  // Cross-region checks and the composed controllers.
  verify::checkRegionSchedule(rs, report);
  out.control = fsm::buildHierarchicalControl(rs);
  verify::checkComposedControl(out.control, program, report);

  // X-safety of the composition: the sequencer + handshake latches (XPR003),
  // every leaf network re-anchored to its path (XPR001/XPR002), and
  // don't-care soundness of the sequencer FSM and every leaf controller.
  // Runs direct (uncached) like the other composed checks -- the flat
  // per-network results stay cacheable through the xcheck pipeline pass.
  if (options.xprop) {
    verify::XprOptions xo;
    xo.style = config.encoding;
    xo.maxCycles = config.xpropCycles;
    xo.words = config.xpropWords;
    verify::DcsOptions dco;
    dco.style = config.encoding;
    dco.maxDepth = config.dcsMaxDepth;
    dco.maxConflicts = config.dcsMaxConflicts;
    out.xpropStats = verify::checkXpropHierarchical(
        out.control, "hier " + out.control.sequencer.name(), report, xo);
    // The sequencer is no unit controller, so no synth pass covers it.
    out.dcsStats = verify::checkDcsFsm(
        out.control.sequencer,
        synth::synthesize(out.control.sequencer, config.encoding),
        "sequencer " + out.control.sequencer.name(), report, dco);
    for (const fsm::LeafControl& leaf : out.control.leaves) {
      out.dcsStats +=
          verify::checkDcs(leaf.dcu, "leaf " + leaf.path, report, dco);
    }
  }

  // Composed Table-2 statistics along the activation trace.
  if (options.latency) {
    out.latency = sim::composedLatency(rs, out.branches, config.ps);
  }
  out.activations = out.control.activationPaths;
  std::map<std::string, int> tauOpsPerLeaf;
  for (const auto& [path, scheduled] : rs.leaves) {
    tauOpsPerLeaf[path] = sim::MakespanEngine(scheduled).numTauOps();
  }
  for (const std::string& path : dfg::activationTrace(program, out.branches)) {
    out.totalTauOps += tauOpsPerLeaf.at(path);
  }

  out.schedule = std::move(rs);
  out.diagnostics = report;
  if (config.verify && options.gateErrors) throwIfVerificationFailed(report);
  return out;
}

}  // namespace tauhls::core

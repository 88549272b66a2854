// perfbench_trace -- the traced twin of one tauhlsc command.
//
//   perfbench_trace SPANS.json <tauhlsc arguments...>
//
// Parses the tauhlsc arguments with core::parseCli, then runs the same work
// as that command by calling each module's public entry points in pipeline
// order, recording a span around every call.  Writes the spans (name, start,
// end, parent, design id) and the counts taken from the stats the calls
// return to SPANS.json.  Exits 0 when the command would have succeeded, 1
// when it would have failed (the error is in the JSON), 2 on bad usage.
//
// Differences from the command, which the benchmark reports as tracing
// overhead: passes run one after another instead of in DAG waves, and the
// controller synthesis and RTL emission are timed before verification (the
// minimizer's process-global memo makes verify's own synthesis cheap; the
// RTL text is emitted twice).  The hierarchical flow replays
// core::runHierFlow step by step; its per-leaf pipelines report their pass
// events, which become child spans of the `core` span.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "core/cli.hpp"
#include "core/json.hpp"
#include "core/pipeline.hpp"
#include "core/store.hpp"
#include "dfg/region.hpp"
#include "dfg/textio.hpp"
#include "fsm/cent_sync.hpp"
#include "fsm/distributed.hpp"
#include "fsm/hierarchical.hpp"
#include "fsm/signal_opt.hpp"
#include "rtl/verilog.hpp"
#include "sched/allocation.hpp"
#include "sched/scheduled_dfg.hpp"
#include "sim/makespan.hpp"
#include "sim/region_sim.hpp"
#include "sim/stats.hpp"
#include "synth/area.hpp"
#include "synth/extract.hpp"
#include "verify/dcs_check.hpp"
#include "verify/equiv_check.hpp"
#include "verify/region_check.hpp"
#include "verify/symbolic_check.hpp"
#include "verify/timing_check.hpp"
#include "verify/verify.hpp"
#include "verify/xprop_check.hpp"

namespace {

using namespace tauhls;
using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;
  double startUs = 0.0;
  double endUs = 0.0;
  int parent = -1;
};

/// In-memory span recorder; written out once when the command ends.
class Tracer {
 public:
  /// Run `f` inside a span named `name`, nested under the open span.
  template <typename F>
  decltype(auto) span(const std::string& name, F&& f) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({name, nowUs(), 0.0, open_.empty() ? -1 : open_.back()});
    open_.push_back(id);
    struct Close {
      Tracer& t;
      int id;
      ~Close() {
        t.spans_[static_cast<std::size_t>(id)].endUs = t.nowUs();
        t.open_.pop_back();
      }
    } close{*this, id};
    return f();
  }

  /// A child span of the open span measured by someone else.
  void child(const std::string& name, double startUs, double endUs) {
    spans_.push_back({name, startUs, endUs, open_.empty() ? -1 : open_.back()});
  }

  double nowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - t0_)
        .count();
  }

  void count(const std::string& key, double value) { counts_[key] += value; }
  void countMax(const std::string& key, double value) {
    auto [it, fresh] = counts_.emplace(key, value);
    if (!fresh && value > it->second) it->second = value;
  }

  std::string json(const std::string& design, const std::string& error) const {
    std::ostringstream os;
    os.precision(17);
    os << "{\"design\":\"" << core::jsonEscape(design) << "\",\"error\":\""
       << core::jsonEscape(error) << "\",\"spans\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << (i ? "," : "") << "{\"name\":\"" << s.name << "\",\"start_us\":"
         << s.startUs << ",\"end_us\":" << s.endUs << ",\"parent\":"
         << s.parent << ",\"design\":\"" << core::jsonEscape(design) << "\"}";
    }
    os << "],\"counts\":{";
    const char* sep = "";
    for (const auto& [key, value] : counts_) {
      os << sep << "\"" << key << "\":" << value;
      sep = ",";
    }
    os << "}}\n";
    return os.str();
  }

 private:
  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::map<std::string, double> counts_;
};

/// Layer that a pipeline pass belongs to, for the hierarchical flow's
/// per-leaf pass events.
std::string passLayer(const std::string& pass) {
  if (pass == "schedule") return "sched";
  if (pass == "distributed" || pass == "signal-opt" || pass == "cent-sync") {
    return "fsm.build";
  }
  if (pass == "verify") return "verify.flow";
  if (pass == "symbolic-check") return "verify.symbolic";
  if (pass == "latency") return "sim.latency";
  return "core." + pass;
}

core::FlowConfig configFor(const core::CliOptions& o) {
  core::FlowConfig cfg;
  cfg.allocation = o.allocation;
  cfg.ps = o.ps;
  cfg.strategy = o.strategy;
  cfg.encoding = o.encoding;
  cfg.optimizeSignals = o.signalOpt;
  cfg.modelCheck = o.modelCheck;
  // The same state budgets as core/cli.cpp: lint is a one-shot audit.
  if (o.maxStates) cfg.verifyMaxStates = o.maxStates;
  else if (o.lint) cfg.verifyMaxStates = 200000;
  return cfg;
}

/// Count the undecided share of a report's explicit model check.
void countModelCheck(Tracer& t, const verify::Report& report) {
  t.count("verify.properties", 1);
  t.count("verify.undecided", report.has("MDL007") ? 1 : 0);
}

void countXpropRows(Tracer& t, const std::vector<verify::XpropPropertyStat>& rows) {
  for (const verify::XpropPropertyStat& p : rows) {
    t.count("verify.properties", 1);
    if (p.verdict == "UNKNOWN") t.count("verify.undecided", 1);
  }
}

/// `tauhlsc flow` / `tauhlsc lint` on a flat design.
void traceFlat(Tracer& t, const core::CliOptions& o, const dfg::Dfg& graph) {
  const core::FlowConfig cfg = configFor(o);
  const std::string name = graph.name();
  const sched::ScheduledDfg s = t.span("sched", [&] {
    return sched::scheduleAndBind(graph, cfg.allocation, cfg.library,
                                  cfg.strategy);
  });
  fsm::DistributedControlUnit dcu;
  fsm::Fsm cent{"unset"};
  t.span("fsm.build", [&] {
    const fsm::DistributedControlUnit raw = fsm::buildDistributed(s);
    dcu = cfg.optimizeSignals ? fsm::optimizeSignals(raw) : raw;
    cent = fsm::buildCentSync(s);
  });
  t.count("fsm.controllers", static_cast<double>(dcu.controllers.size()));
  for (const fsm::UnitController& c : dcu.controllers) {
    t.count("fsm.states", static_cast<double>(c.fsm.numStates()));
  }
  t.span("synth", [&] {
    std::vector<const fsm::Fsm*> machines = {&cent};
    for (const fsm::UnitController& c : dcu.controllers) machines.push_back(&c.fsm);
    for (const fsm::Fsm* m : machines) {
      try {
        const synth::SynthesizedFsm syn = synth::synthesize(*m, cfg.encoding);
        t.countMax("synth.max_vars", syn.flipFlops + syn.numInputs);
      } catch (const Error&) {
        t.count("synth.wall_hits", 1);
        throw;
      }
    }
  });
  t.span("rtl.emit", [&] { return rtl::emitPackage(dcu, "dcu_" + name); });

  const bool symbolic = cfg.modelCheck == core::ModelCheckMode::Symbolic;
  verify::Report report = t.span("verify.flow", [&] {
    verify::VerifyOptions vo;
    vo.requestedAllocation = &cfg.allocation;
    vo.centSync = &cent;
    vo.modelCheckMaxStates = cfg.verifyMaxStates;
    vo.modelCheck = !symbolic;
    return verify::verifyFlow(s, dcu, vo);
  });
  if (!symbolic) countModelCheck(t, report);

  if (!o.lint) {
    core::throwIfVerificationFailed(report);
    t.span("sim.latency", [&] {
      sim::LatencyOptions lo;
      lo.mcSamples = cfg.mcSamples;
      lo.mcMaxSamples = cfg.mcMaxSamples;
      lo.mcTargetHalfWidth = cfg.mcTargetHalfWidth;
      std::vector<sim::McEstimate> mc;
      sim::compareLatencies(s, cfg.ps, lo, &mc);
      for (const sim::McEstimate& e : mc) {
        t.count("sim.samples", static_cast<double>(e.samples));
      }
    });
    if (o.table1) {
      t.span("synth.area", [&] {
        synth::distributedArea(dcu, cfg.encoding);
        synth::areaRow("CENT-SYNC-FSM", cent, cfg.encoding);
      });
    }
    return;
  }

  if (symbolic) {
    const verify::SymbolicArtifact sym = t.span("verify.symbolic", [&] {
      verify::SymbolicCheckOptions so;
      so.maxDepth = cfg.symbolicMaxDepth;
      so.maxConflicts = cfg.symbolicMaxConflicts;
      return verify::symbolicModelCheck(dcu, s, &cent, so);
    });
    t.count("verify.symbolic_conflicts",
            static_cast<double>(sym.stats.invariantCost.conflicts));
    for (const verify::SymbolicProperty& p : sym.stats.properties) {
      t.count("verify.symbolic_conflicts", static_cast<double>(p.cost.conflicts));
      t.count("verify.properties", 1);
      if (p.verdict == verify::PropertyVerdict::Unknown) {
        t.count("verify.symbolic_unknown", 1);
        t.count("verify.undecided", 1);
      }
    }
  }
  if (o.lintEquiv) {
    verify::EquivStats stats;
    const verify::Report eq = t.span("verify.equiv", [&] {
      verify::EquivOptions eo;
      eo.style = cfg.encoding;
      eo.maxConflicts = cfg.equivMaxConflicts;
      return verify::checkEquivalence(dcu, eo, &stats);
    });
    t.count("verify.equiv_conflicts", static_cast<double>(stats.satConflicts));
    t.count("verify.properties", stats.functionsCompared);
    t.count("verify.undecided", static_cast<double>(eq.withCode("EQV005").size()));
  }
  if (o.lintTiming) {
    t.span("verify.timing", [&] {
      verify::TimingOptions to;
      to.marginNs = cfg.timingMarginNs;
      to.style = cfg.encoding;
      return verify::checkTiming(dcu, s.clockNs, to);
    });
  }
  if (o.lintXprop) {
    t.span("verify.xprop", [&] {
      const std::string artifact = "dcu " + name;
      verify::Report xr;
      verify::XprOptions xo;
      xo.style = cfg.encoding;
      xo.maxCycles = cfg.xpropCycles;
      xo.words = cfg.xpropWords;
      verify::DcsOptions dco;
      dco.style = cfg.encoding;
      dco.maxDepth = cfg.dcsMaxDepth;
      dco.maxConflicts = cfg.dcsMaxConflicts;
      countXpropRows(t, verify::checkXprop(dcu, artifact, xr, xo).properties);
      countXpropRows(t, verify::checkDcs(dcu, artifact, xr, dco).properties);
    });
  }
}

/// `tauhlsc flow` on a hierarchical design: core::runHierFlow, step by step.
void traceHierarchical(Tracer& t, const core::CliOptions& o,
                       const dfg::RegionProgram& program) {
  core::FlowConfig cfg = configFor(o);
  cfg.synthesizeArea = false;
  verify::Report report;
  const dfg::BranchChoices branches = t.span("verify.region", [&] {
    verify::checkRegionProgram(program, report);
    core::throwIfVerificationFailed(report);
    return dfg::completeBranchChoices(program,
                                      core::parseBranchesSpec(o.branchesSpec));
  });

  sched::RegionSchedule rs;
  std::shared_ptr<core::ArtifactCache> cache;
  t.span("core", [&] {
    const std::vector<dfg::LeafRef> leaves = dfg::collectLeaves(program);
    sched::Allocation shared;
    for (const dfg::LeafRef& leaf : leaves) {
      for (const auto& [cls, n] :
           sched::normalizeAllocation(leaf.region->body, cfg.allocation)) {
        shared[cls] = std::max(shared[cls], n);
      }
    }
    rs.program = program;
    rs.allocation = shared;
    rs.strategy = cfg.strategy;
    cache = std::make_shared<core::ArtifactCache>();
    if (!o.storeDir.empty()) {
      core::StoreOptions so;
      so.dir = o.storeDir;
      so.maxBytes = o.storeMaxBytes;
      cache->attachStore(std::make_shared<core::ArtifactStore>(so));
    }
    for (const dfg::LeafRef& leaf : leaves) {
      core::FlowConfig leafConfig = cfg;
      leafConfig.allocation = shared;
      const double pipeStartUs = t.nowUs();
      core::FlowPipeline pipe(leaf.region->body, leafConfig, cache);
      rs.leaves.emplace(leaf.path,
                        pipe.get<sched::ScheduledDfg>(core::Artifact::Schedule));
      const verify::Report leafReport = pipe.modelCheckedDiagnostics();
      countModelCheck(t, leafReport);
      for (const verify::Diagnostic& d : leafReport.diagnostics()) {
        report.addDiagnostic(d);
      }
      for (const core::PassTraceEvent& ev : pipe.traceEvents()) {
        const double start = pipeStartUs + ev.startUs;
        if (ev.tier == core::CacheTier::Disk) {
          t.child("core.store_read", start, start + ev.durationUs);
        } else if (ev.tier == core::CacheTier::Miss) {
          t.child(passLayer(ev.pass), start, start + ev.durationUs);
        }
      }
    }
    const core::CacheStats stats = cache->stats();
    t.count("core.hits", static_cast<double>(stats.hits));
    t.count("core.evaluations", static_cast<double>(stats.hits + stats.misses));
  });

  fsm::HierarchicalControlUnit control = t.span("fsm.hier", [&] {
    return fsm::buildHierarchicalControl(rs);
  });
  t.count("fsm.controllers", 1);  // the region sequencer
  for (const fsm::LeafControl& leaf : control.leaves) {
    t.count("fsm.controllers", static_cast<double>(leaf.dcu.controllers.size()));
  }
  t.count("fsm.states", static_cast<double>(control.totalStates()));
  t.span("verify.region", [&] {
    verify::checkRegionSchedule(rs, report);
    verify::checkComposedControl(control, program, report);
  });
  t.span("sim.region", [&] {
    sim::composedLatency(rs, branches, cfg.ps);
    for (const auto& [path, scheduled] : rs.leaves) {
      sim::MakespanEngine(scheduled).numTauOps();
    }
  });
  core::throwIfVerificationFailed(report);

  // Dropping the last handle flushes the store's LRU index to disk.
  t.span("core", [&] {
    if (const auto store = cache->store()) {
      const core::StoreStats st = store->stats();
      t.count("core.store_bytes", static_cast<double>(st.bytes));
      t.count("core.store_puts", static_cast<double>(st.puts));
    }
    cache.reset();
  });
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    std::cerr << "usage: perfbench_trace SPANS.json <tauhlsc arguments...>\n";
    return 2;
  }
  const std::string spansPath = argv[1];
  std::string error;
  const auto options =
      core::parseCli(std::vector<std::string>(argv + 2, argv + argc), error);
  if (!options || options->inputPath.empty()) {
    std::cerr << "perfbench_trace: " << (options ? "no input file" : error) << "\n";
    return 2;
  }
  if (options->threads > 0) common::setGlobalThreadCount(options->threads);

  Tracer t;
  std::string design = options->inputPath;
  design = design.substr(design.find_last_of('/') + 1);
  design = design.substr(0, design.find_last_of('.'));
  try {
    const dfg::RegionProgram program = t.span("dfg.parse", [&] {
      std::ifstream in(options->inputPath);
      TAUHLS_CHECK(static_cast<bool>(in), "cannot open " + options->inputPath);
      std::ostringstream text;
      text << in.rdbuf();
      return dfg::parseProgram(text.str(), design);
    });
    if (program.isFlat()) {
      traceFlat(t, *options, program.root.body);
    } else {
      traceHierarchical(t, *options, program);
    }
  } catch (const Error& e) {
    error = e.what();
  }
  std::ofstream out(spansPath);
  out << t.json(design, error);
  if (!out) {
    std::cerr << "perfbench_trace: cannot write " << spansPath << "\n";
    return 2;
  }
  return error.empty() ? 0 : 1;
}

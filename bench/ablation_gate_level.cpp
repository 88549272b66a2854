// Ablation H -- gate-level realization of the controllers.
//
// Lowers every machine to a structural netlist (shared AND plane + OR
// plane), verifies it gate-for-gate against the FSM, and reports
// gate-equivalents plus two delay columns: the naive uniform-delay bound
// (2-input depth * nsPerLevel) and the STA arrival/slack from the real
// timing engine (per-gate-kind delays, fanout loading).  Timing closure is
// what the paper implicitly needs: the controller's next-state logic must
// settle within CC_TAU = 15 ns on top of the completion-signal arrival.
// Distribution keeps every controller shallow; the exact CENT-FSM product's
// logic gets both huge and deep.
#include <sstream>

#include "bench_util.hpp"
#include "fsm/cent_sync.hpp"
#include "fsm/distributed.hpp"
#include "fsm/product.hpp"
#include "netlist/analyze.hpp"
#include "netlist/build.hpp"
#include "netlist/sta.hpp"

int main() {
  using namespace tauhls;
  bench::banner("Ablation H -- gate-level controller area and timing");

  const double nsPerLevel = 0.5;  // naive-bound 2-input gate delay
  const double clockNs = 15.0;
  const double marginNs = 2.0;    // register setup + completion arrival

  core::TextTable t({"DFG", "machine", "states", "gate-equiv", "depth",
                     "naive (ns)", "STA (ns)", "slack (ns)", "fits CC_TAU"});
  auto fmt = [](double v) {
    std::ostringstream os;
    os.precision(2);
    os << std::fixed << v;
    return os.str();
  };
  auto addRow = [&](const std::string& dfgName, const std::string& machine,
                    const fsm::Fsm& f) {
    netlist::ControllerNetlist cn =
        netlist::buildControllerNetlist(f, synth::synthesize(f));
    if (!netlist::verifyAgainstFsm(cn, f)) {
      std::cout << "VERIFICATION FAILED for " << machine << "\n";
      return;
    }
    const netlist::GateStats s = netlist::analyze(cn.net);
    const netlist::StaResult sta = netlist::runSta(cn.net, clockNs, marginNs);
    t.addRow({dfgName, machine, std::to_string(f.numStates()),
              std::to_string(s.gateEquivalents), std::to_string(s.depth),
              fmt(s.depth * nsPerLevel), fmt(sta.worstArrivalNs),
              fmt(sta.worstSlackNs), sta.meetsClock() ? "yes" : "NO"});
  };

  for (const dfg::NamedBenchmark& b : dfg::paperTable2Suite()) {
    auto s = sched::scheduleAndBind(b.graph, b.allocation, tau::paperLibrary());
    fsm::DistributedControlUnit dcu = fsm::buildDistributed(s);
    for (const fsm::UnitController& c : dcu.controllers) {
      addRow(b.name, c.fsm.name(), c.fsm);
    }
    addRow(b.name, "CENT-SYNC", fsm::buildCentSync(s));
    if (b.name == "Diff.") {
      addRow(b.name, "CENT-FSM (product)", fsm::buildProduct(dcu));
    }
  }
  std::cout << t.toString();
  std::cout << "\nShape: every distributed controller settles in a few gate "
               "levels (comfortable STA slack at CC_TAU = 15 ns); the naive "
               "depth bound tracks the STA arrival but understates wide-gate "
               "and fanout cost.  The exact CENT-FSM product needs two orders "
               "of magnitude more gates and the deepest logic in the table.\n";
  return 0;
}

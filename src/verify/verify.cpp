#include "verify/verify.hpp"

#include <vector>

#include "netlist/build.hpp"
#include "rtl/verilog.hpp"
#include "verify/dfg_lint.hpp"
#include "verify/fsm_check.hpp"
#include "verify/netlist_check.hpp"
#include "verify/sched_lint.hpp"
#include "vsim/parser.hpp"

namespace tauhls::verify {

Report verifyFlow(const sched::ScheduledDfg& s,
                  const fsm::DistributedControlUnit& dcu,
                  const synth::SynthesizedControllers& syn,
                  const VerifyOptions& options) {
  Report report;

  lintDfg(s.graph, report);
  lintSchedule(s, options.requestedAllocation, report);
  lintRegisterAllocation(s, report);

  for (const fsm::UnitController& ctl : dcu.controllers) {
    checkFsm(ctl.fsm, report);
  }
  if (options.centSync != nullptr) checkFsm(*options.centSync, report);

  if (options.modelCheck) {
    ModelCheckOptions mc;
    mc.maxStates = options.modelCheckMaxStates;
    if (options.centSync != nullptr) {
      modelCheckControllers(dcu, s, *options.centSync, report, mc);
    } else {
      modelCheckDistributed(dcu, s, report, mc);
    }
  }

  if (options.checkNetlists) {
    const std::vector<synth::SynthesizedFsm>& binary =
        syn.under(synth::EncodingStyle::Binary, dcu);
    std::vector<netlist::ControllerNetlist> netlists;
    for (std::size_t i = 0; i < dcu.controllers.size(); ++i) {
      netlists.push_back(
          netlist::buildControllerNetlist(dcu.controllers[i].fsm, binary[i]));
      lintNetlist(netlists.back().net, report);
    }
    checkControlLoops(dcu, netlists, s.graph.name(), report);
  }

  if (options.checkRtl) {
    const std::string package =
        rtl::emitPackage(dcu, "tauhls_" + s.graph.name() + "_ctrl");
    lintRtl(vsim::parseDesign(package), report);
  }

  return report;
}

Report verifyFlow(const sched::ScheduledDfg& s,
                  const fsm::DistributedControlUnit& dcu,
                  const VerifyOptions& options) {
  return verifyFlow(s, dcu,
                    options.checkNetlists
                        ? synth::synthesizeControllers(
                              dcu, synth::EncodingStyle::Binary)
                        : synth::SynthesizedControllers{},
                    options);
}

}  // namespace tauhls::verify

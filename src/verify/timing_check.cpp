#include "verify/timing_check.hpp"

#include <sstream>
#include <vector>

#include "netlist/build.hpp"

namespace tauhls::verify {

namespace {

std::string fmtNs(double v) {
  std::ostringstream os;
  os.precision(2);
  os << std::fixed << v;
  return os.str();
}

}  // namespace

void checkControllerTiming(const fsm::Fsm& fsm,
                           const synth::SynthesizedFsm& syn, double clockNs,
                           Report& report, const TimingOptions& options) {
  const netlist::ControllerNetlist cn =
      netlist::buildControllerNetlist(fsm, syn);
  const netlist::StaResult sta =
      netlist::runSta(cn.net, clockNs, options.marginNs, options.model);
  const std::string artifact = "fsm " + fsm.name();
  const std::string path = netlist::formatWorstPath(sta);

  if (sta.worstSlackNs < 0.0) {
    report.add("TIM001", artifact, sta.worstOutput,
               "negative slack " + fmtNs(sta.worstSlackNs) + " ns (arrival " +
                   fmtNs(sta.worstArrivalNs) + " ns vs CC_TAU " +
                   fmtNs(clockNs) + " ns - margin " + fmtNs(options.marginNs) +
                   " ns) via " + path);
  } else if (sta.worstSlackNs < 0.1 * clockNs) {
    report.add("TIM002", artifact, sta.worstOutput,
               "tight slack " + fmtNs(sta.worstSlackNs) + " ns (< 10% of " +
                   fmtNs(clockNs) + " ns clock) via " + path);
  }
  report.add("TIM003", artifact, sta.worstOutput,
             "worst arrival " + fmtNs(sta.worstArrivalNs) + " ns, slack " +
                 fmtNs(sta.worstSlackNs) + " ns at CC_TAU " + fmtNs(clockNs) +
                 " ns via " + path);
}

Report checkTiming(const fsm::DistributedControlUnit& dcu,
                   const synth::SynthesizedControllers& syn, double clockNs,
                   const TimingOptions& options) {
  const std::vector<synth::SynthesizedFsm>& controllers =
      syn.under(options.style, dcu);
  Report report;
  for (std::size_t i = 0; i < controllers.size(); ++i) {
    checkControllerTiming(dcu.controllers[i].fsm, controllers[i], clockNs,
                          report, options);
  }
  return report;
}

Report checkTiming(const fsm::DistributedControlUnit& dcu, double clockNs,
                   const TimingOptions& options) {
  return checkTiming(dcu, synth::synthesizeControllers(dcu, options.style),
                     clockNs, options);
}

}  // namespace tauhls::verify

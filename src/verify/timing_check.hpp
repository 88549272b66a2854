// Static timing diagnostics (TIM rules): per-controller timing closure
// against the system clock CC_TAU = max(SD, FD), answered by the STA engine
// (netlist/sta.hpp) instead of the naive level-count bound.
//
//   TIM001 (error)   negative slack -- the controller misses the clock
//   TIM002 (warning) slack within 10% of the clock period
//   TIM003 (info)    per-controller summary: arrival, slack, worst path
#pragma once

#include "fsm/distributed.hpp"
#include "fsm/machine.hpp"
#include "netlist/sta.hpp"
#include "synth/encoding.hpp"
#include "synth/extract.hpp"
#include "verify/diagnostic.hpp"

namespace tauhls::verify {

struct TimingOptions {
  double marginNs = 2.0;  ///< register setup + completion-signal arrival
  netlist::DelayModel model;
  synth::EncodingStyle style = synth::EncodingStyle::Binary;
};

/// STA over the netlist of one controller's synthesis `syn` against
/// `clockNs`.
void checkControllerTiming(const fsm::Fsm& fsm,
                           const synth::SynthesizedFsm& syn, double clockNs,
                           Report& report, const TimingOptions& options = {});

/// STA over every unit controller of the distributed control unit, from the
/// controllers' synthesis under `options.style`.
Report checkTiming(const fsm::DistributedControlUnit& dcu,
                   const synth::SynthesizedControllers& syn, double clockNs,
                   const TimingOptions& options = {});

/// As above, synthesizing the controllers first.
Report checkTiming(const fsm::DistributedControlUnit& dcu, double clockNs,
                   const TimingOptions& options = {});

}  // namespace tauhls::verify

// Technology-independent area model (Table 1).
//
// Combinational area = minimized literal count x kAreaPerLiteral.
// Sequential area   = flip-flop count x kAreaPerFlipFlop.
// kAreaPerFlipFlop = 22 is recovered exactly from the paper's own Table 1
// sequential numbers (5 FF -> 110, 3 FF -> 66, 2 FF -> 44); the literal
// weight is the standard 2-transistor-pair gate-equivalent proxy.
#pragma once

#include <string>
#include <vector>

#include "fsm/distributed.hpp"
#include "synth/extract.hpp"

namespace tauhls::synth {

inline constexpr int kAreaPerLiteral = 2;
inline constexpr int kAreaPerFlipFlop = 22;

/// One row of the Table 1 report.
struct AreaRow {
  std::string name;
  int inputs = 0;
  int outputs = 0;
  int states = 0;
  int flipFlops = 0;
  int combArea = 0;
  int seqArea = 0;

  int totalArea() const { return combArea + seqArea; }
};

/// Summarize one synthesized FSM.
AreaRow areaRow(const std::string& name, const SynthesizedFsm& syn);

/// Synthesize one FSM and summarize it (the CENT-SYNC and CENT-FSM rows).
AreaRow areaRow(const std::string& name, const fsm::Fsm& fsm,
                EncodingStyle style = EncodingStyle::Binary);

/// Aggregate report for a distributed control unit: one row per unit
/// controller plus a summary row ("DIST-FSM") that also charges the
/// completion latches (one FF each) to the sequential area.
struct DistributedAreaReport {
  std::vector<AreaRow> perController;
  AreaRow total;           ///< includes completion-latch FFs
  int completionLatches = 0;
};

/// The report over the unit's already-synthesized controllers, read under
/// `style`.
DistributedAreaReport distributedArea(const fsm::DistributedControlUnit& dcu,
                                      const SynthesizedControllers& syn,
                                      EncodingStyle style);

/// As above, synthesizing the controllers first.
DistributedAreaReport distributedArea(const fsm::DistributedControlUnit& dcu,
                                      EncodingStyle style = EncodingStyle::Binary);

}  // namespace tauhls::synth

#include "synth/area.hpp"

namespace tauhls::synth {

AreaRow areaRow(const std::string& name, const SynthesizedFsm& syn) {
  AreaRow row;
  row.name = name;
  row.inputs = syn.numInputs;
  row.outputs = syn.numOutputs;
  row.states = syn.numStates;
  row.flipFlops = syn.flipFlops;
  row.combArea = syn.totalLiterals() * kAreaPerLiteral;
  row.seqArea = syn.flipFlops * kAreaPerFlipFlop;
  return row;
}

AreaRow areaRow(const std::string& name, const fsm::Fsm& fsm,
                EncodingStyle style) {
  return areaRow(name, synthesize(fsm, style));
}

DistributedAreaReport distributedArea(const fsm::DistributedControlUnit& dcu,
                                      const SynthesizedControllers& syn,
                                      EncodingStyle style) {
  const std::vector<SynthesizedFsm>& controllers = syn.under(style, dcu);
  DistributedAreaReport report;
  report.completionLatches = dcu.completionLatchCount();
  AreaRow total;
  total.name = "DIST-FSM";
  for (std::size_t i = 0; i < controllers.size(); ++i) {
    AreaRow row = areaRow("D-FSM-" + dcu.controllers[i].fsm.name().substr(6),
                          controllers[i]);
    total.inputs += row.inputs;
    total.outputs += row.outputs;
    total.states += row.states;
    total.flipFlops += row.flipFlops;
    total.combArea += row.combArea;
    total.seqArea += row.seqArea;
    report.perController.push_back(std::move(row));
  }
  // Completion latches: one FF each, charged to the aggregate.
  total.flipFlops += report.completionLatches;
  total.seqArea += report.completionLatches * kAreaPerFlipFlop;
  report.total = total;
  return report;
}

DistributedAreaReport distributedArea(const fsm::DistributedControlUnit& dcu,
                                      EncodingStyle style) {
  return distributedArea(dcu, synthesizeControllers(dcu, style), style);
}

}  // namespace tauhls::synth

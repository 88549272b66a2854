// Structural synthesis: lower a synthesized FSM (minimized two-level covers)
// to a gate-level netlist, with input inverters and AND-cube sharing across
// all next-state and output functions (what a real two-level implementation,
// e.g. a PLA or shared AND-plane, provides).
//
// Netlist interface of a controller with n state bits:
//   inputs : state0..state{n-1}, then the FSM's declared input signals
//   outputs: ns0..ns{n-1} (next-state bits), then the FSM's output signals
#pragma once

#include "netlist/netlist.hpp"
#include "synth/extract.hpp"

namespace tauhls::netlist {

struct ControllerNetlist {
  Netlist net;
  int stateBits = 0;

  ControllerNetlist() : net("unnamed") {}
};

/// Build the combinational network of `fsm` from its synthesized covers
/// `syn` (any encoding; the state-bit count comes from `syn`).  Covers are
/// an input, not recomputed: two-level minimization dominates the
/// controller back end, so every caller passes the one synthesis it holds.
ControllerNetlist buildControllerNetlist(const fsm::Fsm& fsm,
                                         const synth::SynthesizedFsm& syn);

/// Exhaustively verify the netlist against the FSM: for every reachable
/// state and every input assignment, the ns*/output nets must equal the
/// machine's step result.  Returns true on full equivalence.
bool verifyAgainstFsm(const ControllerNetlist& cn, const fsm::Fsm& fsm,
                      synth::EncodingStyle style = synth::EncodingStyle::Binary);

}  // namespace tauhls::netlist

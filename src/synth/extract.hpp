// Next-state / output logic extraction and two-level minimization.
//
// Variables of every extracted function, LSB first: the encoded state bits,
// then the declared input signals.  Each function is specified by cubes
// built from the compiled guards: every reachable state code crossed with
// every guard term of each of its transitions is one cube, in the function's
// onset or offset.  Codes that decode to no state (or to an unreachable one)
// lie in neither list; those don't-cares are where binary encoding recovers
// area.  Each function is minimized with the logic module (exact QM on a
// painted table up to 14 variables, the cube expand beyond, so no 2^n table
// exists above 14 variables) and verified against its specification.  The
// functions of one call are built serially in controller order, deduplicated
// by specification, and the distinct ones minimized on the thread pool into
// fixed slots, so the covers do not depend on the thread count.
//
// synthesizeControllers is the pipeline's one synthesis of a distributed
// unit per encoding (Artifact::Synth under binary, Artifact::SynthEncoded
// under the flow's encoding): every pass that needs covers or netlists --
// verify, area-dist, equiv, timing, xcheck -- consumes it instead of
// synthesizing again.  synthesizeReference is the reference regime
// (per-row Fsm::step sweep + logic::minimizeReference), kept as an oracle.
#pragma once

#include <string>
#include <vector>

#include "fsm/distributed.hpp"
#include "logic/cover.hpp"
#include "synth/encoding.hpp"

namespace tauhls::synth {

struct SynthesizedFsm {
  std::string name;
  int numInputs = 0;
  int numOutputs = 0;
  int numStates = 0;
  int flipFlops = 0;
  std::vector<logic::Cover> nextStateLogic;  ///< one cover per state bit
  std::vector<logic::Cover> outputLogic;     ///< one cover per output signal

  /// Total literals of the minimized next-state + output network.
  int totalLiterals() const;
};

/// Every unit controller of one distributed control unit, synthesized once
/// under one encoding.
struct SynthesizedControllers {
  EncodingStyle style = EncodingStyle::Binary;
  std::vector<SynthesizedFsm> controllers;  ///< indexed like dcu.controllers

  /// `controllers`, checked to be `dcu`'s synthesis under `s`: throws
  /// tauhls::Error on an encoding or controller-count mismatch.
  const std::vector<SynthesizedFsm>& under(
      EncodingStyle s, const fsm::DistributedControlUnit& dcu) const;
};

/// States reachable from the initial state through any transition.  This is
/// exactly the care-set predicate of the minimizer's don't-care rows, so the
/// don't-care-soundness checker (verify/dcs_check.hpp) can re-derive the
/// care set the covers were minimized against.
std::vector<bool> reachableStates(const fsm::Fsm& fsm);

/// Synthesize `fsm` (which must be valid: deterministic and complete).
/// Functions with identical specifications are minimized once.  Throws
/// tauhls::Error past 22 logic variables (state bits + inputs).
SynthesizedFsm synthesize(const fsm::Fsm& fsm,
                          EncodingStyle style = EncodingStyle::Binary);

/// The reference regime: rows from stepping the machine (Fsm::step per
/// row), covers from logic::minimizeReference.  Cover-identical to
/// synthesize(); an oracle for the identity tests and the kernel
/// benchmark's naive regime.
SynthesizedFsm synthesizeReference(
    const fsm::Fsm& fsm, EncodingStyle style = EncodingStyle::Binary);

/// The synth passes: every controller of `dcu` under `style`.  Specs are
/// built in dcu.controllers order before anything is minimized, so the first
/// oversized controller fails with the same error as synthesize().
/// Controllers bound to identical unit shapes build identical specs; each
/// distinct spec is minimized once per call.  Covers equal per-controller
/// synthesize().
SynthesizedControllers synthesizeControllers(
    const fsm::DistributedControlUnit& dcu, EncodingStyle style);

}  // namespace tauhls::synth

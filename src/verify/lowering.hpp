// Shared AIG lowerings of one controller's four representations (FSM spec,
// minimized covers, gate netlist, reparsed emitted RTL), factored out of the
// equivalence checker so the X-propagation and don't-care-soundness passes
// reason over the *same* cones the equivalence proofs certify.
//
// All functions share a ControllerContext: inputs are the encoded state bits
// (state0..state{n-1}) followed by the FSM's declared input signals, and
// every function family is returned ns0..ns{n-1} first, then the declared
// outputs (FnMap order).
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "aig/aig.hpp"
#include "aig/cec.hpp"
#include "fsm/machine.hpp"
#include "logic/cover.hpp"
#include "netlist/netlist.hpp"
#include "synth/encoding.hpp"
#include "synth/extract.hpp"
#include "vsim/ast.hpp"

namespace tauhls::verify::lowering {

/// Ordered function family of one representation: ns0..ns{n-1} first, then
/// the FSM's declared outputs.
using FnMap = std::vector<std::pair<std::string, aig::Lit>>;

/// The FSM specification of one machine lowered into a caller's graph:
/// `stateBits` are the literals of the encoded state register (LSB first)
/// and `inputOf` the cones of the FSM's declared input signals.  The
/// equivalence and don't-care-soundness passes lower over a
/// ControllerContext; X-propagation over its network model.
struct SpecLowering {
  aig::Aig& g;
  const fsm::Fsm& fsm;
  const synth::Encoding& enc;
  const std::vector<aig::Lit>& stateBits;
  const std::map<std::string, aig::Lit>& inputOf;

  /// state == the encoding of state id `s`.
  aig::Lit stateMatch(int s) const;
  /// The guard's sum-of-products over the input cones.
  aig::Lit guardLit(const fsm::Guard& guard) const;
  /// OR of all encoded-state matches.
  aig::Lit valid() const;
  /// ns0..ns{n-1} then the declared outputs (FnMap order).
  FnMap functions() const;
};

/// Shared AIG context of one controller: inputs are the encoded state bits
/// (state0.. state{n-1}) followed by the FSM's declared input signals.
struct ControllerContext {
  aig::Aig g;
  const fsm::Fsm* fsm = nullptr;
  synth::Encoding enc;
  std::vector<aig::Lit> stateBits;
  std::map<std::string, aig::Lit> inputOf;
  aig::Lit valid = aig::kLitFalse;  ///< OR of all encoded-state matches

  ControllerContext(const fsm::Fsm& f, synth::EncodingStyle style);

  /// The specification lowering over this context's inputs.
  SpecLowering spec() { return {g, *fsm, enc, stateBits, inputOf}; }
};

/// Representation 1: the FSM specification itself.
FnMap specFunctions(ControllerContext& ctx);

/// One minimized cover as a literal (cover variable order: state bits LSB
/// first, then the declared input signals -- synth/extract.hpp).
aig::Lit coverLit(ControllerContext& ctx, const logic::Cover& cover);

/// Representation 2: the minimized two-level covers of `syn`.
FnMap coverFunctions(ControllerContext& ctx, const synth::SynthesizedFsm& syn);

/// Representation 3: the gate netlist.  Netlist inputs unknown to the
/// context become fresh free variables, so any dependence on them surfaces
/// as a counterexample.
FnMap netlistFunctions(ControllerContext& ctx, const netlist::Netlist& net);

/// Symbolic evaluation of a vsim module's combinational behaviour: signals
/// are LSB-first literal vectors; if/else and case merge per-branch
/// environments through muxes.
class SymbolicEval {
 public:
  using Env = std::map<std::string, std::vector<aig::Lit>>;

  SymbolicEval(aig::Aig& g, const vsim::Module& m);

  int widthOf(const std::string& name) const;

  /// Execute every combinational construct (wire inits, continuous assigns,
  /// always @* blocks) once, in order, over `env`.
  void runCombinational(Env& env);

  /// Execute the sequential blocks as a next-state function: the returned
  /// env maps each register to its post-edge value (hold when unassigned).
  void runSequential(Env& env);

  aig::Lit nonzero(const std::vector<aig::Lit>& bits);

  std::vector<aig::Lit> eval(const vsim::Expr& e, const Env& env);

 private:
  std::vector<aig::Lit> resize(std::vector<aig::Lit> bits, int width);
  void exec(const std::vector<vsim::StmtPtr>& stmts, Env& env);
  void execArms(const std::vector<vsim::CaseArm>& arms, std::size_t idx,
                const std::vector<aig::Lit>& subject,
                const vsim::CaseArm* defaultArm, Env& env);
  void mergeEnv(aig::Lit cond, const Env& thenEnv, const Env& elseEnv,
                Env& out);

  aig::Aig& g_;
  const vsim::Module& module_;
  std::map<std::string, int> width_;
};

/// Representation 4: the reparsed emitted Verilog of the controller module.
FnMap rtlFunctions(ControllerContext& ctx, const vsim::Module& m);

/// Decode a CEC counterexample back to "state=<name>, in1=0, ..." text.
std::string describeCounterexample(const ControllerContext& ctx,
                                   const aig::CecResult& r);

}  // namespace tauhls::verify::lowering

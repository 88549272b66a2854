#include "verify/dcs_check.hpp"

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "aig/aig.hpp"
#include "aig/cec.hpp"
#include "aig/sat.hpp"
#include "aig/unroll.hpp"
#include "common/parallel.hpp"
#include "synth/extract.hpp"
#include "verify/lowering.hpp"
#include "verify/symbolic_check.hpp"

namespace tauhls::verify {

namespace {

using aig::Aig;
using aig::Lit;
using lowering::ControllerContext;
using lowering::describeCounterexample;
using lowering::FnMap;

/// Frame-by-frame decoding of a DCS002 BMC model back to state and input
/// names (the symbolic_check.cpp TraceDecoder idiom over the controller
/// context's smaller graph).
class DcsTrace {
 public:
  DcsTrace(ControllerContext& ctx, aig::Unroller& unroller,
           const aig::CnfEncoder& enc, const aig::SatSolver& solver)
      : ctx_(ctx), unroller_(unroller) {
    vals_.assign(ctx.g.numInputs(), false);
    for (std::size_t i = 0; i < ctx.g.numInputs(); ++i) {
      const std::uint32_t node =
          aig::nodeOf(ctx.g.findInput(ctx.g.inputNames()[i]));
      const int var = enc.varIfEncoded(node);
      if (var != 0) vals_[i] = solver.modelValue(var);
    }
  }

  bool eval(int frame, Lit templateLit) {
    const Lit l = unroller_.at(frame, templateLit);
    if (ctx_.g.numInputs() > vals_.size()) {
      vals_.resize(ctx_.g.numInputs(), false);  // unconstrained: pick 0
    }
    return ctx_.g.evaluate(l, vals_);
  }

  /// "\n  cycle f: state=Sx in1=0 ..." rows of frames 0..depth; the final
  /// frame lands on the don't-care row.
  std::string waveform(int depth) {
    std::ostringstream os;
    for (int f = 0; f <= depth; ++f) {
      os << "\n  cycle " << f << ": state=" << stateAt(f);
      for (const std::string& in : ctx_.fsm->inputs()) {
        os << " " << in << "=" << (eval(f, ctx_.inputOf.at(in)) ? "1" : "0");
      }
    }
    return os.str();
  }

  std::string stateAt(int frame) {
    std::uint32_t code = 0;
    for (std::size_t b = 0; b < ctx_.stateBits.size(); ++b) {
      if (eval(frame, ctx_.stateBits[b])) code |= std::uint32_t{1} << b;
    }
    const int s = ctx_.enc.stateOf(code);
    if (s >= 0) return ctx_.fsm->stateName(s);
    return "<code " + std::to_string(code) + ">";
  }

 private:
  ControllerContext& ctx_;
  aig::Unroller& unroller_;
  std::vector<bool> vals_;
};

}  // namespace

std::map<std::string, RuleCost> DcsStats::ruleCost() const {
  std::map<std::string, RuleCost> out;
  for (const XpropPropertyStat& p : properties) out[p.rule] += p.cost;
  return out;
}

DcsStats& DcsStats::operator+=(const DcsStats& o) {
  controllers += o.controllers;
  functionsChecked += o.functionsChecked;
  dcFunctions += o.dcFunctions;
  properties.insert(properties.end(), o.properties.begin(),
                    o.properties.end());
  return *this;
}

DcsStats checkDcsFsm(const fsm::Fsm& fsm, const synth::SynthesizedFsm& syn,
                     const std::string& artifact, Report& report,
                     const DcsOptions& options) {
  DcsStats stats;
  stats.artifact = artifact;
  stats.controllers = 1;

  ControllerContext ctx(fsm, options.style);
  const std::vector<bool> reachable = synth::reachableStates(fsm);
  // The exact care predicate synthesize() minimized against: a row is care
  // iff its state-bit pattern decodes to a reachable state.
  Lit careLit = aig::kLitFalse;
  std::size_t careStates = 0;
  for (std::size_t s = 0; s < fsm.numStates(); ++s) {
    if (!reachable[s]) continue;
    careLit =
        ctx.g.orLit(careLit, ctx.spec().stateMatch(static_cast<int>(s)));
    ++careStates;
  }

  FnMap spec = lowering::specFunctions(ctx);
  FnMap cover = lowering::coverFunctions(ctx, syn);
  stats.functionsChecked += spec.size();

  // DCS001: on care rows the minimized cover must equal the specification.
  XpropPropertyStat careRow;
  careRow.artifact = artifact;
  careRow.rule = "DCS001";
  careRow.verdict = propertyVerdictName(PropertyVerdict::Proved);
  careRow.depth = 0;
  XpropPropertyStat dcRow;
  dcRow.artifact = artifact;
  dcRow.rule = "DCS003";
  dcRow.verdict = propertyVerdictName(PropertyVerdict::Proved);
  std::vector<bool> careEqual(spec.size(), false);
  for (std::size_t i = 0; i < spec.size(); ++i) {
    const aig::CecResult r = aig::proveEquivalent(
        ctx.g, spec[i].second, cover[i].second, careLit, options.maxConflicts);
    careRow.cost += ruleCostOf(r.stats, 1);
    if (r.status == aig::SatResult::Unsat) {
      careEqual[i] = true;
    } else if (r.status == aig::SatResult::Sat) {
      careRow.verdict = propertyVerdictName(PropertyVerdict::Counterexample);
      careRow.cexCycle = 0;
      report.add("DCS001", artifact, spec[i].first,
                 "minimized cover differs from the FSM specification on a "
                 "reachable (care) row: " +
                     describeCounterexample(ctx, r) +
                     "; the minimizer changed observable behaviour, not just "
                     "don't-cares");
    } else if (careRow.cexCycle < 0) {
      careRow.verdict = propertyVerdictName(PropertyVerdict::Unknown);
    }
    // Does this cover actually *exploit* a don't-care row?  (Differs
    // globally while agreeing on the care set.)
    const aig::CecResult g = aig::proveEquivalent(
        ctx.g, spec[i].second, cover[i].second, aig::kLitTrue,
        options.maxConflicts);
    dcRow.cost += ruleCostOf(g.stats, 1);
    if (careEqual[i] && g.status == aig::SatResult::Sat) ++stats.dcFunctions;
  }
  stats.properties.push_back(careRow);

  // DCS002: in the state space the *implemented* covers induce, is a
  // don't-care row (an unreachable or undecodable state code) reachable from
  // the encoded initial state?  BMC finds the driving input sequence;
  // k-induction closes the proof -- at k = 1 when DCS001 holds, because then
  // the care set is inductive (cover == spec on care rows and the spec maps
  // reachable states to reachable states).
  XpropPropertyStat reachRow;
  reachRow.artifact = artifact;
  reachRow.rule = "DCS002";
  reachRow.verdict = propertyVerdictName(PropertyVerdict::Unknown);
  aig::SeqModel seq;
  const std::uint32_t initCode =
      ctx.enc.codeOf[static_cast<std::size_t>(fsm.initial())];
  for (std::size_t b = 0; b < ctx.stateBits.size(); ++b) {
    seq.vars.push_back({"state" + std::to_string(b), ctx.stateBits[b],
                        cover[b].second, ((initCode >> b) & 1u) != 0});
  }
  const Lit bad = aig::negate(careLit);

  aig::SatSolver solver;
  aig::CnfEncoder enc(ctx.g, solver);
  aig::Unroller bmc(ctx.g, seq, "b", true);
  aig::Unroller ind(ctx.g, seq, "i", false);
  for (int depth = 0; depth <= options.maxDepth; ++depth) {
    aig::SatStats before = solver.stats();
    const int badLit = enc.encode(bmc.at(depth, bad));
    const aig::SatResult res =
        solver.solve(std::vector<int>{badLit}, options.maxConflicts);
    reachRow.cost += ruleCostOf(solver.stats() - before, 1);
    if (res == aig::SatResult::Sat) {
      reachRow.verdict = propertyVerdictName(PropertyVerdict::Counterexample);
      reachRow.cexCycle = depth;
      DcsTrace trace(ctx, bmc, enc, solver);
      report.add("DCS002", artifact, trace.stateAt(depth),
                 "the implemented next-state covers reach a don't-care row "
                 "after " +
                     std::to_string(depth) +
                     " cycle(s) -- a row the minimizer assumed impossible "
                     "(care set: " +
                     std::to_string(careStates) + " of " +
                     std::to_string(fsm.numStates()) + " states):" +
                     trace.waveform(depth));
      break;
    }
    if (res == aig::SatResult::Unknown) break;
    solver.addClause({-badLit});

    // Induction step at k = depth + 1: care at frames 0..depth forces care
    // at frame depth+1.  With the BMC prefix above, Unsat proves the
    // don't-care rows unreachable at every depth.
    const int k = depth + 1;
    std::vector<int> assumptions;
    before = solver.stats();
    for (int f = 0; f < k; ++f) {
      assumptions.push_back(enc.encode(ind.at(f, careLit)));
    }
    assumptions.push_back(enc.encode(ind.at(k, bad)));
    const aig::SatResult step = solver.solve(assumptions, options.maxConflicts);
    reachRow.cost += ruleCostOf(solver.stats() - before, 1);
    if (step == aig::SatResult::Unsat) {
      reachRow.verdict = propertyVerdictName(PropertyVerdict::Proved);
      reachRow.depth = k;
      break;
    }
  }
  stats.properties.push_back(reachRow);

  // DCS003: info summary -- and the certification statement when everything
  // above proved out.
  dcRow.depth = reachRow.depth;
  stats.properties.push_back(dcRow);
  const bool proved =
      careRow.verdict == propertyVerdictName(PropertyVerdict::Proved) &&
      reachRow.verdict == propertyVerdictName(PropertyVerdict::Proved);
  if (proved) {
    report.add("DCS003", artifact, "",
               std::to_string(stats.dcFunctions) + " of " +
                   std::to_string(stats.functionsChecked) +
                   " minimized cover(s) exploit don't-care rows; every "
                   "divergence is confined to rows proven unreachable "
                   "(k-induction closed at k=" +
                   std::to_string(reachRow.depth) + ")");
  }
  return stats;
}

DcsStats checkDcs(const fsm::DistributedControlUnit& dcu,
                  const synth::SynthesizedControllers& syn,
                  const std::string& artifact, Report& report,
                  const DcsOptions& options) {
  const std::vector<synth::SynthesizedFsm>& controllers =
      syn.under(options.style, dcu);
  std::vector<DcsStats> perController(dcu.controllers.size());
  std::vector<Report> perReport(dcu.controllers.size());
  common::parallelFor(dcu.controllers.size(), [&](std::size_t i) {
    // Per-controller anchors ("fsm <name>"), matching the equivalence
    // checker's convention, so DCS and EQV diagnostics line up.
    perController[i] =
        checkDcsFsm(dcu.controllers[i].fsm, controllers[i],
                    "fsm " + dcu.controllers[i].fsm.name(), perReport[i],
                    options);
  });
  DcsStats stats;
  stats.artifact = artifact;
  for (std::size_t i = 0; i < dcu.controllers.size(); ++i) {
    stats += perController[i];
    report.merge(perReport[i]);
  }
  return stats;
}

DcsStats checkDcs(const fsm::DistributedControlUnit& dcu,
                  const std::string& artifact, Report& report,
                  const DcsOptions& options) {
  return checkDcs(dcu, synth::synthesizeControllers(dcu, options.style),
                  artifact, report, options);
}

}  // namespace tauhls::verify

// Mutation tests: inject controlled faults into generated artifacts and
// assert that the repository's verification layers actually *detect* them --
// guarding against vacuous checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <iterator>
#include <map>
#include <set>
#include <string>

#include "common/error.hpp"
#include "dfg/benchmarks.hpp"
#include "fsm/distributed.hpp"
#include "fsm/product.hpp"
#include "fsm/signal.hpp"
#include "logic/minimize.hpp"
#include "netlist/build.hpp"
#include "rtl/verilog.hpp"
#include "sim/interp.hpp"
#include "synth/extract.hpp"
#include "testutil.hpp"
#include "verify/equiv_check.hpp"
#include "verify/symbolic_check.hpp"

namespace tauhls {
namespace {

using dfg::ResourceClass;
using sched::Allocation;

sched::ScheduledDfg scheduledDiffeq() {
  return sched::scheduleAndBind(dfg::diffeq(),
                                Allocation{{ResourceClass::Multiplier, 2},
                                           {ResourceClass::Adder, 1},
                                           {ResourceClass::Subtractor, 1}},
                                tau::paperLibrary());
}

/// Rebuild `fsm` with one transition's target redirected.
fsm::Fsm retargetTransition(const fsm::Fsm& original, std::size_t index,
                            int newTarget) {
  fsm::Fsm out(original.name());
  for (std::size_t s = 0; s < original.numStates(); ++s) {
    out.addState(original.stateName(static_cast<int>(s)));
  }
  for (const std::string& in : original.inputs()) out.addInput(in);
  for (const std::string& o : original.outputs()) out.addOutput(o);
  const auto& ts = original.transitions();
  for (std::size_t i = 0; i < ts.size(); ++i) {
    out.addTransition(ts[i].from, i == index ? newTarget : ts[i].to,
                      ts[i].guard, ts[i].outputs);
  }
  out.setInitial(original.initial());
  return out;
}

/// Rebuild `fsm` with one output signal stripped from every transition
/// (the register enable never fires on any path).
fsm::Fsm dropSignalEverywhere(const fsm::Fsm& original,
                              const std::string& signal) {
  fsm::Fsm out(original.name());
  for (std::size_t s = 0; s < original.numStates(); ++s) {
    out.addState(original.stateName(static_cast<int>(s)));
  }
  for (const std::string& in : original.inputs()) out.addInput(in);
  for (const std::string& o : original.outputs()) out.addOutput(o);
  for (const fsm::Transition& t : original.transitions()) {
    std::vector<std::string> outputs;
    for (const std::string& o : t.outputs) {
      if (o != signal) outputs.push_back(o);
    }
    out.addTransition(t.from, t.to, t.guard, std::move(outputs));
  }
  out.setInitial(original.initial());
  return out;
}

TEST(Mutation, ProductComparisonCatchesRetargetedTransition) {
  auto s = scheduledDiffeq();
  fsm::DistributedControlUnit dcu = fsm::buildDistributed(s);
  fsm::Fsm product = fsm::buildProduct(dcu);
  // Mutate: redirect the first completing transition (one with outputs) of
  // the first telescopic controller to its own source state.
  fsm::DistributedControlUnit mutated = dcu;
  for (fsm::UnitController& c : mutated.controllers) {
    if (!c.telescopic) continue;
    const auto& ts = c.fsm.transitions();
    for (std::size_t i = 0; i < ts.size(); ++i) {
      if (!ts[i].outputs.empty() && ts[i].to != ts[i].from) {
        c.fsm = retargetTransition(c.fsm, i, ts[i].from);
        goto mutated_done;
      }
    }
  }
mutated_done:
  EXPECT_NE(sim::compareProductToDistributed(mutated, product, 3, 10, 40), -1)
      << "the trace comparison must notice the retargeted transition";
}

TEST(Mutation, InterpreterCatchesDroppedRegisterEnable) {
  auto s = scheduledDiffeq();
  fsm::DistributedControlUnit dcu = fsm::buildDistributed(s);
  // Strip one op's RE from every transition: it never fires on any path, so
  // one-iteration simulation cannot terminate and must report the stall.
  fsm::UnitController& victim = dcu.controllers.front();
  std::string reSignal;
  for (const std::string& o : victim.fsm.outputs()) {
    if (o.starts_with("RE_")) {
      reSignal = o;
      break;
    }
  }
  ASSERT_FALSE(reSignal.empty());
  victim.fsm = dropSignalEverywhere(victim.fsm, reSignal);
  EXPECT_THROW(sim::runDistributed(dcu, s, sim::allShort(s), 200), Error);
}

TEST(Mutation, NetlistVerifierCatchesCorruptedGate) {
  auto s = scheduledDiffeq();
  fsm::DistributedControlUnit dcu = fsm::buildDistributed(s);
  const fsm::Fsm& f = dcu.controllers[0].fsm;
  netlist::ControllerNetlist cn =
      netlist::buildControllerNetlist(f, synth::synthesize(f));
  ASSERT_TRUE(netlist::verifyAgainstFsm(cn, f));
  // Corrupt: invert the first output's net.
  netlist::ControllerNetlist bad;
  bad.stateBits = cn.stateBits;
  bad.net = netlist::Netlist(cn.net.name());
  // Rebuild by copying gates then inverting the first output.
  std::vector<netlist::NetId> remap;
  for (netlist::NetId i = 0; i < cn.net.numGates(); ++i) {
    const netlist::Gate& g = cn.net.gate(i);
    switch (g.kind) {
      case netlist::GateKind::Input:
        remap.push_back(bad.net.addInput(g.name));
        break;
      case netlist::GateKind::Const0:
        remap.push_back(bad.net.constant(false));
        break;
      case netlist::GateKind::Const1:
        remap.push_back(bad.net.constant(true));
        break;
      case netlist::GateKind::Inv:
        remap.push_back(bad.net.addInv(remap[g.fanins[0]]));
        break;
      case netlist::GateKind::And:
      case netlist::GateKind::Or: {
        std::vector<netlist::NetId> fanins;
        for (netlist::NetId fin : g.fanins) fanins.push_back(remap[fin]);
        remap.push_back(g.kind == netlist::GateKind::And
                            ? bad.net.addAnd(std::move(fanins))
                            : bad.net.addOr(std::move(fanins)));
        break;
      }
    }
  }
  bool first = true;
  for (const auto& [name, net] : cn.net.outputs()) {
    bad.net.markOutput(name, first ? bad.net.addInv(remap[net]) : remap[net]);
    first = false;
  }
  EXPECT_FALSE(netlist::verifyAgainstFsm(bad, f));
}

TEST(Mutation, ImplementsCatchesCorruptedCover) {
  logic::TruthTable tt(4);
  for (std::uint64_t m : {1, 3, 7, 11, 15}) tt.set(m, logic::Ternary::One);
  const logic::CubeSpec spec = test::specOf(tt);
  logic::Cover good = logic::minimize(spec);
  ASSERT_TRUE(logic::implements(good, tt));
  ASSERT_TRUE(logic::implements(good, spec));
  // Drop one cube: some onset row goes uncovered.
  logic::Cover bad(4);
  for (std::size_t i = 1; i < good.cubes().size(); ++i) bad.add(good.cubes()[i]);
  EXPECT_FALSE(logic::implements(bad, tt));
  EXPECT_FALSE(logic::implements(bad, spec));
  // Add a cube covering an offset row.
  logic::Cover tooBig = good;
  tooBig.add(logic::Cube::minterm(4, 0));
  EXPECT_FALSE(logic::implements(tooBig, tt));
  EXPECT_FALSE(logic::implements(tooBig, spec));
}

/// Gate-by-gate copy of a controller netlist.  `remapFanin` may redirect any
/// gate's fanin; `finishOutput` may tamper with an output net before it is
/// marked.  Both default to the identity, giving a faithful clone.
netlist::ControllerNetlist cloneNetlist(
    const netlist::ControllerNetlist& cn,
    const std::function<netlist::NetId(netlist::NetId gate, std::size_t slot,
                                       netlist::NetId mapped)>& remapFanin,
    const std::function<netlist::NetId(netlist::Netlist&, netlist::NetId)>&
        finishOutput) {
  netlist::ControllerNetlist out;
  out.stateBits = cn.stateBits;
  out.net = netlist::Netlist(cn.net.name());
  std::vector<netlist::NetId> remap;
  for (netlist::NetId i = 0; i < cn.net.numGates(); ++i) {
    const netlist::Gate& g = cn.net.gate(i);
    std::vector<netlist::NetId> fanins;
    for (std::size_t slot = 0; slot < g.fanins.size(); ++slot) {
      fanins.push_back(remapFanin(i, slot, remap[g.fanins[slot]]));
    }
    switch (g.kind) {
      case netlist::GateKind::Input:
        remap.push_back(out.net.addInput(g.name));
        break;
      case netlist::GateKind::Const0:
        remap.push_back(out.net.constant(false));
        break;
      case netlist::GateKind::Const1:
        remap.push_back(out.net.constant(true));
        break;
      case netlist::GateKind::Inv:
        remap.push_back(out.net.addInv(fanins[0]));
        break;
      case netlist::GateKind::And:
        remap.push_back(out.net.addAnd(std::move(fanins)));
        break;
      case netlist::GateKind::Or:
        remap.push_back(out.net.addOr(std::move(fanins)));
        break;
    }
  }
  for (const auto& [name, net] : cn.net.outputs()) {
    out.net.markOutput(name, finishOutput(out.net, remap[net]));
  }
  return out;
}

const auto kKeepFanin = [](netlist::NetId, std::size_t, netlist::NetId m) {
  return m;
};
const auto kKeepOutput = [](netlist::Netlist&, netlist::NetId n) { return n; };

int countRule(const verify::Report& report, const std::string& rule) {
  int n = 0;
  for (const auto& d : report.diagnostics()) {
    if (d.code == rule) ++n;
  }
  return n;
}

TEST(Mutation, EquivCatchesDroppedInverter) {
  auto s = scheduledDiffeq();
  fsm::DistributedControlUnit dcu = fsm::buildDistributed(s);
  const fsm::Fsm& f = dcu.controllers[0].fsm;
  const synth::SynthesizedFsm syn = synth::synthesize(f);
  const netlist::ControllerNetlist cn = netlist::buildControllerNetlist(f, syn);

  // Baseline: the faithful clone proves clean.
  verify::Report clean;
  verify::checkControllerNetlist(
      f, syn, cloneNetlist(cn, kKeepFanin, kKeepOutput), clean);
  ASSERT_FALSE(clean.hasErrors());

  // Mutant: the first inverter becomes a wire (its users read the uninverted
  // net) -- the classic dropped-bubble fault.
  netlist::NetId invGate = netlist::kNoNet;
  for (netlist::NetId i = 0; i < cn.net.numGates(); ++i) {
    if (cn.net.gate(i).kind == netlist::GateKind::Inv) {
      invGate = i;
      break;
    }
  }
  ASSERT_NE(invGate, netlist::kNoNet);
  const netlist::NetId bypassed = cn.net.gate(invGate).fanins[0];
  // Rebuild with every fanin referencing the inverter redirected to its
  // input instead.  (Gate ids survive the clone: the copy is 1:1 in order,
  // so `mapped == invGate` identifies references to the inverter.)
  const netlist::ControllerNetlist dropped = cloneNetlist(
      cn,
      [&](netlist::NetId, std::size_t, netlist::NetId mapped) {
        return mapped == invGate ? bypassed : mapped;
      },
      kKeepOutput);
  verify::Report report;
  verify::checkControllerNetlist(f, syn, dropped, report);
  EXPECT_TRUE(report.hasErrors());
  EXPECT_GE(countRule(report, "EQV002"), 1);
}

TEST(Mutation, EquivCatchesSwappedFanin) {
  auto s = scheduledDiffeq();
  fsm::DistributedControlUnit dcu = fsm::buildDistributed(s);
  const fsm::Fsm& f = dcu.controllers[0].fsm;
  const synth::SynthesizedFsm syn = synth::synthesize(f);
  const netlist::ControllerNetlist cn = netlist::buildControllerNetlist(f, syn);

  // Mutant: one AND gate reads a different input net in its first slot --
  // a miswired fanin.  (Reordering fanins would be masked by commutativity,
  // so the fault substitutes a *different* net.)
  netlist::NetId victim = netlist::kNoNet;
  for (netlist::NetId i = 0; i < cn.net.numGates(); ++i) {
    if (cn.net.gate(i).kind == netlist::GateKind::And &&
        cn.net.gate(i).fanins.size() >= 2) {
      victim = i;
      break;
    }
  }
  ASSERT_NE(victim, netlist::kNoNet);
  // Substitute a state-register input net that is not already a fanin.
  const netlist::NetId substitute = cn.net.findInput("state0");
  ASSERT_NE(substitute, netlist::kNoNet);
  const netlist::ControllerNetlist swapped = cloneNetlist(
      cn,
      [&](netlist::NetId gate, std::size_t slot, netlist::NetId mapped) {
        if (gate == victim && slot == 0 && mapped != substitute) {
          return substitute;
        }
        return mapped;
      },
      kKeepOutput);
  verify::Report report;
  verify::checkControllerNetlist(f, syn, swapped, report);
  EXPECT_TRUE(report.hasErrors());
  EXPECT_GE(countRule(report, "EQV002"), 1);
}

TEST(Mutation, EquivCatchesEmitterTampering) {
  auto s = scheduledDiffeq();
  fsm::DistributedControlUnit dcu = fsm::buildDistributed(s);
  const fsm::Fsm& f = dcu.controllers[0].fsm;
  const std::string good = rtl::emitFsm(f, "mut_ctrl");

  verify::Report clean;
  verify::checkControllerRtl(f, good, "mut_ctrl", clean);
  ASSERT_FALSE(clean.hasErrors());

  // Mutant: drop the first asserted output inside a case arm (the dead-code
  // default `state_next = state;` would be masked by the full case, so the
  // fault targets a live assignment).
  const std::string needle = "= 1'b1;";
  const auto pos = good.find(needle);
  ASSERT_NE(pos, std::string::npos) << good;
  std::string bad = good;
  bad.replace(pos, needle.size(), "= 1'b0;");
  verify::Report report;
  verify::checkControllerRtl(f, bad, "mut_ctrl", report);
  EXPECT_TRUE(report.hasErrors());
  EXPECT_GE(countRule(report, "EQV003"), 1);
}

TEST(Mutation, EquivCatchesWrongLatchBypass) {
  auto s = scheduledDiffeq();
  const fsm::DistributedControlUnit dcu = fsm::buildDistributed(s);
  const std::string good = rtl::emitPackage(dcu, "mut_pkg");

  verify::Report clean;
  verify::checkCompletionLatch(good, clean);
  ASSERT_FALSE(clean.hasErrors());

  // Mutant 1: the level output loses the live-pulse bypass, delaying
  // same-cycle consumers by one cycle.
  const std::string bypass = "assign level = held | pulse;";
  auto pos = good.find(bypass);
  ASSERT_NE(pos, std::string::npos);
  std::string noBypass = good;
  noBypass.replace(pos, bypass.size(), "assign level = held;");
  verify::Report report1;
  verify::checkCompletionLatch(noBypass, report1);
  EXPECT_TRUE(report1.hasErrors());
  EXPECT_GE(countRule(report1, "EQV004"), 1);

  // Mutant 2: the hold register ignores the restart strobe.
  const std::string resetTerm = "if (rst || restart)";
  pos = good.find(resetTerm);
  ASSERT_NE(pos, std::string::npos);
  std::string noRestart = good;
  noRestart.replace(pos, resetTerm.size(), "if (rst)");
  verify::Report report2;
  verify::checkCompletionLatch(noRestart, report2);
  EXPECT_TRUE(report2.hasErrors());
  EXPECT_GE(countRule(report2, "EQV004"), 1);
}

TEST(Mutation, ValidateFsmCatchesGuardTampering) {
  auto s = scheduledDiffeq();
  fsm::DistributedControlUnit dcu = fsm::buildDistributed(s);
  const fsm::Fsm& f = dcu.controllers[0].fsm;
  // Widen one guard to `always`: it now overlaps its sibling -> rejected.
  fsm::Fsm bad(f.name());
  for (std::size_t st = 0; st < f.numStates(); ++st) {
    bad.addState(f.stateName(static_cast<int>(st)));
  }
  for (const std::string& in : f.inputs()) bad.addInput(in);
  for (const std::string& o : f.outputs()) bad.addOutput(o);
  bool tampered = false;
  for (const fsm::Transition& t : f.transitions()) {
    if (!tampered && !t.guard.isAlways()) {
      bad.addTransition(t.from, t.to, fsm::Guard::always(), t.outputs);
      tampered = true;
    } else {
      bad.addTransition(t.from, t.to, t.guard, t.outputs);
    }
  }
  bad.setInitial(f.initial());
  ASSERT_TRUE(tampered);
  EXPECT_THROW(fsm::validateFsm(bad), Error);
}

// ---------------------------------------------------------------------------
// Controller-fault mutations against the symbolic model checker
// (verify/symbolic_check.hpp): each canonical controller bug class must
// produce a BMC counterexample under the right MDL rule, decodable to a
// per-cycle waveform.
// ---------------------------------------------------------------------------

fsm::Guard renameInGuard(const fsm::Guard& g, const std::string& from,
                         const std::string& to) {
  fsm::Guard out = fsm::Guard::never();
  for (const fsm::GuardTerm& term : g.terms()) {
    fsm::Guard product = fsm::Guard::always();
    for (const auto& [sig, positive] : term.literals) {
      product = product.conjoin(
          fsm::Guard::literal(sig == from ? to : sig, positive));
    }
    out = out.disjoin(product);
  }
  return out;
}

fsm::Fsm renameFsmInput(const fsm::Fsm& src, const std::string& from,
                        const std::string& to) {
  fsm::Fsm out(src.name());
  for (std::size_t s = 0; s < src.numStates(); ++s) {
    out.addState(src.stateName(static_cast<int>(s)));
  }
  for (const std::string& in : src.inputs()) {
    out.addInput(in == from ? to : in);
  }
  for (const std::string& o : src.outputs()) out.addOutput(o);
  for (const fsm::Transition& t : src.transitions()) {
    out.addTransition(t.from, t.to, renameInGuard(t.guard, from, to),
                      t.outputs);
  }
  out.setInitial(src.initial());
  return out;
}

/// The CEX-verdict property for `rule`, with the waveform sanity-checked.
const verify::SymbolicProperty& expectCex(const verify::SymbolicArtifact& art,
                                          const std::string& rule) {
  const verify::SymbolicProperty* found = nullptr;
  for (const verify::SymbolicProperty& p : art.stats.properties) {
    if (p.rule == rule) found = &p;
  }
  EXPECT_NE(found, nullptr) << "no property " << rule;
  EXPECT_EQ(found->verdict, verify::PropertyVerdict::Counterexample) << rule;
  EXPECT_GE(found->cexLength, 1) << rule;
  bool decoded = false;
  for (const verify::Diagnostic& d : art.report.diagnostics()) {
    if (d.code != rule) continue;
    EXPECT_NE(d.message.find("BMC counterexample"), std::string::npos);
    EXPECT_NE(d.message.find("cycle 0:"), std::string::npos) << d.message;
    decoded = true;
  }
  EXPECT_TRUE(decoded) << "no decodable counterexample diagnostic for "
                       << rule;
  return *found;
}

TEST(Mutation, SymbolicCatchesDroppedCompletionPulseEdge) {
  auto s = scheduledDiffeq();
  fsm::DistributedControlUnit dcu = fsm::buildDistributed(s);
  // Silence one cross-controller completion signal at its producer: the
  // pulse edge disappears from every transition, so the consumer's latch is
  // never set and it waits forever.
  std::string victim;
  for (const auto& [signal, consumers] : dcu.consumersOf) {
    const auto producer = dcu.producerOf.find(signal);
    if (producer == dcu.producerOf.end()) continue;
    for (int c : consumers) {
      if (c != producer->second) {
        victim = signal;
        break;
      }
    }
    if (!victim.empty()) break;
  }
  ASSERT_FALSE(victim.empty());
  fsm::UnitController& producer = dcu.controllers[dcu.producerOf.at(victim)];
  producer.fsm = dropSignalEverywhere(producer.fsm, victim);

  const verify::SymbolicArtifact art =
      verify::symbolicModelCheck(dcu, s, nullptr);
  expectCex(art, "MDL002");  // circular/starved wait: progress dies
}

TEST(Mutation, SymbolicCatchesSwappedGuardLiterals) {
  auto s = scheduledDiffeq();
  fsm::DistributedControlUnit dcu = fsm::buildDistributed(s);
  // Find a controller whose guards test two different completion latches in
  // different states and swap the two literals: one wait is now satisfied by
  // the wrong producer, firing its op before the true data predecessor.
  fsm::UnitController* victim = nullptr;
  std::string a, b;
  for (fsm::UnitController& c : dcu.controllers) {
    std::map<std::string, std::set<int>> statesOf;
    for (const fsm::Transition& t : c.fsm.transitions()) {
      for (const fsm::GuardTerm& term : t.guard.terms()) {
        for (const auto& [sig, positive] : term.literals) {
          const auto& latched = c.latchedInputs;
          if (std::find(latched.begin(), latched.end(), sig) != latched.end()) {
            statesOf[sig].insert(t.from);
          }
        }
      }
    }
    for (auto i = statesOf.begin(); i != statesOf.end() && !victim; ++i) {
      for (auto j = std::next(i); j != statesOf.end(); ++j) {
        std::set<int> both;
        std::set_intersection(i->second.begin(), i->second.end(),
                              j->second.begin(), j->second.end(),
                              std::inserter(both, both.begin()));
        if (both.empty()) {
          victim = &c;
          a = i->first;
          b = j->first;
          break;
        }
      }
    }
    if (victim) break;
  }
  ASSERT_NE(victim, nullptr) << "no controller waits on two distinct latches";
  victim->fsm = renameFsmInput(
      renameFsmInput(renameFsmInput(victim->fsm, a, "__swap__"), b, a),
      "__swap__", b);

  const verify::SymbolicArtifact art =
      verify::symbolicModelCheck(dcu, s, nullptr);
  expectCex(art, "MDL004");  // causality: RE before its data predecessor
}

TEST(Mutation, SymbolicCatchesOffByOneRestartState) {
  auto s = scheduledDiffeq();
  fsm::DistributedControlUnit dcu = fsm::buildDistributed(s);
  // Retarget a non-wrap completing transition of a multi-op controller back
  // to the initial state: the controller restarts its sequence one op early
  // and re-fires an RE it already issued this iteration.  The source must
  // not itself be the initial state, or the loop-back is a no-op (the
  // initial state's completing pulse fires on every exit path anyway).
  fsm::UnitController* victim = nullptr;
  std::size_t index = 0;
  for (fsm::UnitController& c : dcu.controllers) {
    if (c.ops.size() < 2) continue;
    const std::string lastRe =
        fsm::registerEnableSignal(s.graph.node(c.ops.back()).name);
    const auto& ts = c.fsm.transitions();
    for (std::size_t i = 0; i < ts.size(); ++i) {
      const bool wraps = std::find(ts[i].outputs.begin(), ts[i].outputs.end(),
                                   lastRe) != ts[i].outputs.end();
      if (!wraps && !ts[i].outputs.empty() &&
          ts[i].from != c.fsm.initial() && ts[i].to != ts[i].from &&
          ts[i].to != c.fsm.initial()) {
        victim = &c;
        index = i;
        break;
      }
    }
    if (victim) break;
  }
  ASSERT_NE(victim, nullptr) << "no retargetable completing transition";
  victim->fsm =
      retargetTransition(victim->fsm, index, victim->fsm.initial());

  const verify::SymbolicArtifact art =
      verify::symbolicModelCheck(dcu, s, nullptr);
  expectCex(art, "MDL003");  // lock-step: an RE fires twice in one iteration
}

}  // namespace
}  // namespace tauhls

// Tests for the symbolic model checker (verify/symbolic_check.hpp) and the
// sequential unrolling machinery it is built on (aig/unroll.hpp).
//
// Three families:
//   - unroller: BMC and k-induction on tiny hand-built sequential circuits;
//   - engine agreement: on every paper benchmark under both binding
//     strategies the symbolic and explicit engines report the same MDL
//     verdict set (both clean), and every safety property closes by
//     k-induction with a PROVED verdict;
//   - mutations: rewired completion waits produce BMC counterexamples with
//     decodable per-cycle waveforms, matching the explicit engine's codes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "aig/aig.hpp"
#include "aig/sat.hpp"
#include "aig/unroll.hpp"
#include "dfg/benchmarks.hpp"
#include "dfg/random.hpp"
#include "fsm/cent_sync.hpp"
#include "fsm/distributed.hpp"
#include "fsm/guard.hpp"
#include "fsm/signal_opt.hpp"
#include "sched/scheduled_dfg.hpp"
#include "tau/library.hpp"
#include "verify/diagnostic.hpp"
#include "verify/model_check.hpp"
#include "verify/symbolic_check.hpp"

namespace tauhls::verify {
namespace {

using dfg::ResourceClass;
using sched::Allocation;

sched::ScheduledDfg fig2Scheduled() {
  return sched::scheduleAndBind(dfg::paperFig2(),
                                Allocation{{ResourceClass::Multiplier, 2},
                                           {ResourceClass::Adder, 1}},
                                tau::paperLibrary());
}

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

void rewireWait(fsm::DistributedControlUnit& dcu, std::size_t idx,
                const std::string& from, const std::string& to) {
  fsm::UnitController& ctl = dcu.controllers[idx];
  ctl.fsm = renameFsmInput(ctl.fsm, from, to);
  for (std::string& sig : ctl.latchedInputs) {
    if (sig == from) sig = to;
  }
  std::sort(ctl.latchedInputs.begin(), ctl.latchedInputs.end());
  ctl.latchedInputs.erase(
      std::unique(ctl.latchedInputs.begin(), ctl.latchedInputs.end()),
      ctl.latchedInputs.end());
}

int consumerOf(const fsm::DistributedControlUnit& dcu,
               const std::string& signal) {
  for (std::size_t i = 0; i < dcu.controllers.size(); ++i) {
    const auto& latched = dcu.controllers[i].latchedInputs;
    if (std::find(latched.begin(), latched.end(), signal) != latched.end()) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

/// Error/warning rule codes of a report (the verdict set both engines must
/// agree on; MDL007 is excluded -- it only marks the explicit engine giving
/// up, which is exactly what the symbolic engine retires).
std::set<std::string> verdictCodes(const Report& r) {
  std::set<std::string> out;
  for (const Diagnostic& d : r.diagnostics()) {
    if (d.severity == Severity::Info) continue;
    if (d.code == "MDL007") continue;
    out.insert(d.code);
  }
  return out;
}

const SymbolicProperty& propertyOf(const SymbolicArtifact& a,
                                   const std::string& rule) {
  for (const SymbolicProperty& p : a.stats.properties) {
    if (p.rule == rule) return p;
  }
  ADD_FAILURE() << "no property " << rule;
  static SymbolicProperty none;
  return none;
}

// ---- unroller -------------------------------------------------------------

TEST(Unroller, BmcReachesCounterTarget) {
  // 2-bit counter from 00: next0 = !b0, next1 = b0 ^ b1.  The state 11 is
  // reachable exactly at frame 3.
  aig::Aig g;
  const aig::Lit b0 = g.addInput("b0");
  const aig::Lit b1 = g.addInput("b1");
  aig::SeqModel m;
  m.vars.push_back(aig::SeqVar{"b0", b0, aig::negate(b0), false});
  m.vars.push_back(aig::SeqVar{"b1", b1, g.xorLit(b0, b1), false});
  const aig::Lit bad = g.andLit(b0, b1);

  aig::SatSolver solver;
  aig::CnfEncoder enc(g, solver);
  aig::Unroller bmc(g, m, "b", /*initFrame0=*/true);
  for (int depth = 0; depth < 3; ++depth) {
    const int lit = enc.encode(bmc.at(depth, bad));
    EXPECT_EQ(solver.solve(std::vector<int>{lit}), aig::SatResult::Unsat)
        << "depth " << depth;
    solver.addClause({-lit});
  }
  const int lit = enc.encode(bmc.at(3, bad));
  EXPECT_EQ(solver.solve(std::vector<int>{lit}), aig::SatResult::Sat);
}

TEST(Unroller, InductionClosesStuckAtZero) {
  // A register holding its value, initialised 0: "never 1" is 1-inductive.
  aig::Aig g;
  const aig::Lit b = g.addInput("b");
  aig::SeqModel m;
  m.vars.push_back(aig::SeqVar{"b", b, b, false});

  aig::SatSolver solver;
  aig::CnfEncoder enc(g, solver);
  aig::Unroller bmc(g, m, "b", /*initFrame0=*/true);
  aig::Unroller ind(g, m, "i", /*initFrame0=*/false);

  const int base = enc.encode(bmc.at(0, b));
  EXPECT_EQ(solver.solve(std::vector<int>{base}), aig::SatResult::Unsat);

  // Induction step: !b @ frame0, b @ frame1 -- unsatisfiable since next = cur.
  const std::vector<int> step = {-enc.encode(ind.at(0, b)),
                                 enc.encode(ind.at(1, b))};
  EXPECT_EQ(solver.solve(step), aig::SatResult::Unsat);

  // The free frame 0 really is free: b @ frame0 alone is satisfiable.
  EXPECT_EQ(solver.solve(std::vector<int>{enc.encode(ind.at(0, b))}),
            aig::SatResult::Sat);
}

// ---- engine agreement on clean designs ------------------------------------

TEST(SymbolicClean, AllPaperBenchmarksBothStrategies) {
  for (const dfg::NamedBenchmark& b : dfg::paperTable2Suite()) {
    for (const sched::BindingStrategy strategy :
         {sched::BindingStrategy::LeftEdge,
          sched::BindingStrategy::CliqueCover}) {
      const sched::ScheduledDfg s = sched::scheduleAndBind(
          b.graph, b.allocation, tau::paperLibrary(), strategy);
      const fsm::DistributedControlUnit dcu =
          fsm::optimizeSignals(fsm::buildDistributed(s));
      const fsm::Fsm cent = fsm::buildCentSync(s);

      Report explicitReport;
      modelCheckControllers(dcu, s, cent, explicitReport);
      const SymbolicArtifact sym = symbolicModelCheck(dcu, s, &cent);

      const std::string label =
          b.name + " strategy " + std::to_string(static_cast<int>(strategy));
      EXPECT_EQ(verdictCodes(explicitReport), verdictCodes(sym.report))
          << label << "\nexplicit:\n"
          << renderText(explicitReport) << "symbolic:\n"
          << renderText(sym.report);
      EXPECT_FALSE(sym.report.hasErrors())
          << label << ":\n" << renderText(sym.report);
      EXPECT_TRUE(sym.stats.invariantHolds) << label;
      EXPECT_TRUE(sym.report.has("MDL008")) << label;
      ASSERT_EQ(sym.stats.properties.size(), 5u) << label;
      for (const SymbolicProperty& p : sym.stats.properties) {
        EXPECT_EQ(p.verdict, PropertyVerdict::Proved)
            << label << " " << p.rule << " "
            << propertyVerdictName(p.verdict) << " depth " << p.depthReached;
        EXPECT_GE(p.inductionK, 1) << label << " " << p.rule;
      }
    }
  }
}

TEST(SymbolicClean, Fig2StatsAreFilled) {
  const sched::ScheduledDfg s = fig2Scheduled();
  const fsm::DistributedControlUnit dcu =
      fsm::optimizeSignals(fsm::buildDistributed(s));
  const SymbolicArtifact sym = symbolicModelCheck(dcu, s, nullptr);

  EXPECT_EQ(sym.stats.artifact, "product " + s.graph.name());
  EXPECT_EQ(sym.stats.controllers, dcu.controllers.size());
  EXPECT_GT(sym.stats.stateBits, 0u);
  EXPECT_GT(sym.stats.templateNodes, 0u);

  // The proof did real SAT work and it is attributed per rule.
  const auto cost = sym.stats.ruleCost();
  ASSERT_TRUE(cost.contains("MDL001"));
  EXPECT_GT(cost.at("MDL001").queries, 0u);
  ASSERT_TRUE(cost.contains("MDL008"));
  EXPECT_GT(cost.at("MDL008").queries, 0u);

  // Flattened JSON rows mirror the properties.
  const auto rows = sym.stats.jsonStats();
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_EQ(rows[0].rule, "MDL001");
  EXPECT_EQ(rows[0].artifact, sym.stats.artifact);
  EXPECT_EQ(rows[0].verdict, std::string("PROVED"));
}

TEST(SymbolicClean, Layered32OpsProvedWithPinnedCost) {
  // The 32-op rung of the lint ladder: RandomDfgSpec layered, 8 ranks of 4
  // ops, half multiplies, spec seed 1, two multipliers, one adder and one
  // subtractor.  Unlike the paper designs, its network is large enough for
  // the solver's cost per decision to matter; the pinned per-property SAT
  // counters hold the solver's trajectory on it.
  dfg::RandomDfgSpec spec;
  spec.numLayers = 8;
  spec.layerWidth = 4;
  spec.mulPermille = 500;
  spec.seed = 1;
  const sched::ScheduledDfg s = sched::scheduleAndBind(
      dfg::randomDfg(spec),
      Allocation{{ResourceClass::Multiplier, 2},
                 {ResourceClass::Adder, 1},
                 {ResourceClass::Subtractor, 1}},
      tau::paperLibrary());
  ASSERT_EQ(s.graph.numOps(), 32u);
  const fsm::DistributedControlUnit dcu =
      fsm::optimizeSignals(fsm::buildDistributed(s));
  const fsm::Fsm cent = fsm::buildCentSync(s);
  const SymbolicArtifact sym = symbolicModelCheck(dcu, s, &cent);

  EXPECT_FALSE(sym.report.hasErrors()) << renderText(sym.report);
  EXPECT_TRUE(sym.stats.invariantHolds);
  // rule, then decisions propagations conflicts learned restarts queries.
  const std::vector<std::string> expectedCost = {
      "MDL001 13522 841086 1914 1888 5 2", "MDL002 312 63456 109 109 0 2",
      "MDL003 828 135757 273 273 1 2",     "MDL004 301 39835 43 42 0 2",
      "MDL005 129 39439 34 33 0 2"};
  ASSERT_EQ(sym.stats.properties.size(), expectedCost.size());
  for (std::size_t i = 0; i < expectedCost.size(); ++i) {
    const SymbolicProperty& p = sym.stats.properties[i];
    EXPECT_EQ(p.verdict, PropertyVerdict::Proved) << p.rule;
    EXPECT_EQ(p.inductionK, 1) << p.rule;
    const RuleCost& c = p.cost;
    std::string got = p.rule;
    for (const std::uint64_t n : {c.decisions, c.propagations, c.conflicts,
                                  c.learned, c.restarts, c.queries}) {
      got += " " + std::to_string(n);
    }
    EXPECT_EQ(got, expectedCost[i]);
    EXPECT_EQ(c.simDischarged, 0u) << p.rule;
  }
}

// ---- mutations produce decodable counterexamples --------------------------

TEST(SymbolicMutation, CircularWaitIsMDL002Cex) {
  const sched::ScheduledDfg s = fig2Scheduled();
  fsm::DistributedControlUnit dcu = fsm::buildDistributed(s);
  const int adder = consumerOf(dcu, "CCO_O0");
  ASSERT_GE(adder, 0);
  rewireWait(dcu, static_cast<std::size_t>(adder), "CCO_O0", "CCO_O2");

  const SymbolicArtifact sym = symbolicModelCheck(dcu, s, nullptr);
  EXPECT_TRUE(sym.report.has("MDL002")) << renderText(sym.report);
  EXPECT_EQ(propertyOf(sym, "MDL002").verdict,
            PropertyVerdict::Counterexample);
  const Diagnostic d = sym.report.withCode("MDL002").front();
  EXPECT_NE(d.message.find("BMC counterexample"), std::string::npos)
      << d.message;
  EXPECT_NE(d.message.find("cycle 0:"), std::string::npos) << d.message;

  Report explicitReport;
  modelCheckDistributed(dcu, s, explicitReport);
  EXPECT_EQ(verdictCodes(explicitReport), verdictCodes(sym.report))
      << "explicit:\n" << renderText(explicitReport) << "symbolic:\n"
      << renderText(sym.report);
}

TEST(SymbolicMutation, DroppedPredecessorWaitIsMDL004Cex) {
  const sched::ScheduledDfg s = fig2Scheduled();
  fsm::DistributedControlUnit dcu = fsm::buildDistributed(s);
  const int adder = consumerOf(dcu, "CCO_O0");
  ASSERT_GE(adder, 0);
  rewireWait(dcu, static_cast<std::size_t>(adder), "CCO_O0", "CCO_O3");

  const SymbolicArtifact sym = symbolicModelCheck(dcu, s, nullptr);
  EXPECT_TRUE(sym.report.has("MDL004")) << renderText(sym.report);
  EXPECT_FALSE(sym.report.has("MDL002")) << renderText(sym.report);
  const SymbolicProperty& p = propertyOf(sym, "MDL004");
  EXPECT_EQ(p.verdict, PropertyVerdict::Counterexample);
  EXPECT_GE(p.cexLength, 1);
  const Diagnostic d = sym.report.withCode("MDL004").front();
  EXPECT_EQ(d.where, "O1") << d.where;
  EXPECT_NE(d.message.find("data predecessor O0"), std::string::npos)
      << d.message;
  EXPECT_NE(d.message.find("cycle 0:"), std::string::npos) << d.message;

  Report explicitReport;
  modelCheckDistributed(dcu, s, explicitReport);
  EXPECT_EQ(verdictCodes(explicitReport), verdictCodes(sym.report))
      << "explicit:\n" << renderText(explicitReport) << "symbolic:\n"
      << renderText(sym.report);
}

TEST(Symbolic, WrongBaselineIsMDL006) {
  const sched::ScheduledDfg s = fig2Scheduled();
  const fsm::DistributedControlUnit dcu =
      fsm::optimizeSignals(fsm::buildDistributed(s));
  const sched::ScheduledDfg other = sched::scheduleAndBind(
      dfg::fir(3),
      Allocation{{ResourceClass::Multiplier, 2}, {ResourceClass::Adder, 1}},
      tau::paperLibrary());
  const fsm::Fsm wrongBaseline = fsm::buildCentSync(other);
  const SymbolicArtifact sym = symbolicModelCheck(dcu, s, &wrongBaseline);
  EXPECT_TRUE(sym.report.has("MDL006")) << renderText(sym.report);
}

TEST(Symbolic, ExhaustedBudgetDegradesToUnknown) {
  const sched::ScheduledDfg s = fig2Scheduled();
  const fsm::DistributedControlUnit dcu =
      fsm::optimizeSignals(fsm::buildDistributed(s));
  SymbolicCheckOptions options;
  options.maxDepth = -1;  // loop body never runs: every property stays open
  const SymbolicArtifact sym = symbolicModelCheck(dcu, s, nullptr, options);
  EXPECT_FALSE(sym.report.hasErrors()) << renderText(sym.report);
  ASSERT_EQ(sym.stats.properties.size(), 5u);
  for (const SymbolicProperty& p : sym.stats.properties) {
    EXPECT_EQ(p.verdict, PropertyVerdict::Unknown) << p.rule;
    EXPECT_EQ(p.depthReached, -1) << p.rule;
  }
  EXPECT_TRUE(sym.report.has("MDL008")) << renderText(sym.report);
}

}  // namespace
}  // namespace tauhls::verify

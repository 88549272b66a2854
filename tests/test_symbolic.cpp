// Tests for the symbolic model checker (verify/symbolic_check.hpp) and the
// sequential unrolling machinery it is built on (aig/unroll.hpp).
//
// Four families:
//   - unroller: BMC and k-induction on tiny hand-built sequential circuits;
//   - safety engine: aig::proveSafety's verdicts, depths and query counts
//     on the same kind of hand-built circuits;
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
#include <utility>
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

// ---- safety engine ---------------------------------------------------------

/// 2-bit counter from 00: next0 = !b0, next1 = b0 ^ b1, so 11 is first
/// reached at frame 3.
struct Counter {
  aig::Aig g;
  aig::Lit b0 = g.addInput("b0");
  aig::Lit b1 = g.addInput("b1");
  aig::SeqModel m;
  Counter() {
    m.vars.push_back(aig::SeqVar{"b0", b0, aig::negate(b0), false});
    m.vars.push_back(aig::SeqVar{"b1", b1, g.xorLit(b0, b1), false});
  }
};

void ignoreCex(std::size_t, int, aig::FrameModel&) {}

aig::SafetyProblem problemOf(std::vector<aig::Lit> bad, int maxDepth) {
  aig::SafetyProblem problem;
  problem.bad = std::move(bad);
  problem.maxDepth = maxDepth;
  problem.maxConflicts = 100000;
  return problem;
}

TEST(Safety, CounterexampleAtExactFrame) {
  Counter c;
  const aig::SafetyProblem problem = problemOf({c.g.andLit(c.b0, c.b1)}, 10);
  std::vector<std::string> frames;
  const aig::SafetyResult r = aig::proveSafety(
      c.g, c.m, problem,
      [&](std::size_t p, int frame, aig::FrameModel& model) {
        EXPECT_EQ(p, 0u);
        EXPECT_EQ(frame, 3);
        for (int f = 0; f <= frame; ++f) {
          frames.push_back(std::string(model.eval(f, c.b1) ? "1" : "0") +
                           (model.eval(f, c.b0) ? "1" : "0"));
        }
      });
  ASSERT_EQ(r.properties.size(), 1u);
  const aig::SafetyVerdict& v = r.properties[0];
  EXPECT_EQ(v.verdict, aig::PropertyVerdict::Counterexample);
  EXPECT_EQ(v.cexFrame, 3);
  EXPECT_EQ(v.depthReached, 2);
  EXPECT_EQ(v.inductionK, 0);
  // BMC at frames 0..3; induction at k = 1..3, each step satisfiable
  // (10 -> 11 at k = 1).
  EXPECT_EQ(v.cost.queries, 7u);
  EXPECT_EQ(frames, (std::vector<std::string>{"00", "01", "10", "11"}));
  EXPECT_TRUE(r.invariantHolds);
  EXPECT_EQ(r.invariantCost.queries, 0u);  // no invariant, no base check
}

TEST(Safety, StuckAtZeroProvedAtK1) {
  aig::Aig g;
  const aig::Lit b = g.addInput("b");
  aig::SeqModel m;
  m.vars.push_back(aig::SeqVar{"b", b, b, false});
  const aig::SafetyResult r =
      aig::proveSafety(g, m, problemOf({b}, 10), ignoreCex);
  const aig::SafetyVerdict& v = r.properties.at(0);
  EXPECT_EQ(v.verdict, aig::PropertyVerdict::Proved);
  EXPECT_EQ(v.inductionK, 1);
  EXPECT_EQ(v.depthReached, 0);
  EXPECT_EQ(v.cexFrame, -1);
  EXPECT_EQ(v.cost.queries, 2u);  // one BMC frame, one induction step
}

TEST(Safety, LoopingUnreachableStateClosesOnlyWithSimplePath) {
  // States (a, b) from 00: a' = a | (b & i), b' = b.  Only 00 is reachable,
  // so "never 11" holds, but the unreachable 01 loops on itself and may step
  // to 11: without simple-path constraints 01, 01, ..., 01, 11 refutes every
  // induction step.  Distinct states leave no predecessor of 01 but 01, so
  // the step closes at k = 2.
  auto run = [](bool simplePath) {
    aig::Aig g;
    const aig::Lit a = g.addInput("a");
    const aig::Lit b = g.addInput("b");
    const aig::Lit i = g.addInput("i");
    aig::SeqModel m;
    m.vars.push_back(aig::SeqVar{"a", a, g.orLit(a, g.andLit(b, i)), false});
    m.vars.push_back(aig::SeqVar{"b", b, b, false});
    aig::SafetyProblem problem = problemOf({g.andLit(a, b)}, 6);
    problem.simplePath = simplePath;
    return aig::proveSafety(g, m, problem, ignoreCex).properties.at(0);
  };
  const aig::SafetyVerdict open = run(false);
  EXPECT_EQ(open.verdict, aig::PropertyVerdict::Unknown);
  EXPECT_EQ(open.depthReached, 6);
  const aig::SafetyVerdict closed = run(true);
  EXPECT_EQ(closed.verdict, aig::PropertyVerdict::Proved);
  EXPECT_EQ(closed.inductionK, 2);
  EXPECT_EQ(closed.depthReached, 1);
}

TEST(Safety, BrokenInvariantTurnsInductionOffButBmcStillFindsCex) {
  // The counter plus a register stuck at 0.  The stuck register's proof
  // needs induction, so an invariant false at reset (b0) leaves it UNKNOWN;
  // the counter's counterexample is BMC's and still shows.
  auto run = [](aig::Lit (*invariant)(const Counter&), int& cexCalls) {
    Counter c;
    const aig::Lit stuck = c.g.addInput("s");
    c.m.vars.push_back(aig::SeqVar{"s", stuck, stuck, false});
    aig::SafetyProblem problem = problemOf({c.g.andLit(c.b0, c.b1), stuck}, 5);
    problem.invariant = invariant(c);
    return aig::proveSafety(c.g, c.m, problem,
                            [&](std::size_t p, int frame, aig::FrameModel&) {
                              ++cexCalls;
                              EXPECT_EQ(p, 0u);
                              EXPECT_EQ(frame, 3);
                            });
  };
  int cexCalls = 0;
  const aig::SafetyResult r =
      run([](const Counter& c) { return c.b0; }, cexCalls);
  EXPECT_EQ(cexCalls, 1);
  EXPECT_FALSE(r.invariantHolds);
  EXPECT_EQ(r.invariantCost.queries, 1u);  // base check at frame 0 only
  EXPECT_EQ(r.properties.at(0).verdict, aig::PropertyVerdict::Counterexample);
  EXPECT_EQ(r.properties.at(0).cost.queries, 4u);  // BMC frames 0..3 only
  EXPECT_EQ(r.properties.at(1).verdict, aig::PropertyVerdict::Unknown);
  EXPECT_EQ(r.properties.at(1).depthReached, 5);
  EXPECT_EQ(r.properties.at(1).cost.queries, 6u);

  // Without the invariant the same problem proves the stuck register.
  const aig::SafetyResult plain =
      run([](const Counter&) { return aig::kLitTrue; }, cexCalls);
  EXPECT_EQ(cexCalls, 2);
  EXPECT_TRUE(plain.invariantHolds);
  EXPECT_EQ(plain.properties.at(1).verdict, aig::PropertyVerdict::Proved);
  EXPECT_EQ(plain.properties.at(1).inductionK, 1);
}

TEST(Safety, UndecidedBmcQueryIsRetriedOneFrameDeeper) {
  // s' = s | ((i & j) & (i & !j)): s stays 0, but the AIG does not fold the
  // contradiction, so refuting s at frame 1 and later takes a conflict.  With
  // no conflict allowed, frame 0 is refuted by propagation alone, every later
  // BMC query is undecided, and the property stays open to the end.
  aig::Aig g;
  const aig::Lit s = g.addInput("s");
  const aig::Lit i = g.addInput("i");
  const aig::Lit j = g.addInput("j");
  aig::SeqModel m;
  const aig::Lit never = g.andLit(g.andLit(i, j), g.andLit(i, aig::negate(j)));
  m.vars.push_back(aig::SeqVar{"s", s, g.orLit(s, never), false});
  aig::SafetyProblem problem = problemOf({s}, 3);
  problem.maxConflicts = 0;
  const aig::SafetyVerdict v =
      aig::proveSafety(g, m, problem, ignoreCex).properties.at(0);
  EXPECT_EQ(v.verdict, aig::PropertyVerdict::Unknown);
  EXPECT_EQ(v.depthReached, 0);
  // BMC at frames 0..3 plus the k = 1 induction step after frame 0; the
  // undecided frames 1..3 run no induction step.
  EXPECT_EQ(v.cost.queries, 5u);
}

TEST(Safety, NoInductionStepRunsPastAnUndecidedFrame) {
  // bad = (m & never) | e over e' = e, n' = e, m' = n, reset m = e = 0 and
  // n = 1: BMC refutes frames 0 and 2 by propagation, but frame 1 reads
  // `never` and is undecided with no conflict allowed.  The k = 3 step
  // would close by propagation (m at the last frame is e two frames back,
  // which the hypothesis holds at 0), yet the base never covered frame 1,
  // so it must not run and the property stays UNKNOWN.
  aig::Aig g;
  const aig::Lit e = g.addInput("e");
  const aig::Lit n = g.addInput("n");
  const aig::Lit m = g.addInput("m");
  const aig::Lit i = g.addInput("i");
  const aig::Lit j = g.addInput("j");
  aig::SeqModel model;
  model.vars.push_back(aig::SeqVar{"e", e, e, false});
  model.vars.push_back(aig::SeqVar{"n", n, e, true});
  model.vars.push_back(aig::SeqVar{"m", m, n, false});
  const aig::Lit never = g.andLit(g.andLit(i, j), g.andLit(i, aig::negate(j)));
  aig::SafetyProblem problem = problemOf({g.orLit(g.andLit(m, never), e)}, 2);
  problem.maxConflicts = 0;
  const aig::SafetyVerdict v =
      aig::proveSafety(g, model, problem, ignoreCex).properties.at(0);
  EXPECT_EQ(v.verdict, aig::PropertyVerdict::Unknown);
  EXPECT_EQ(v.depthReached, 0);
  EXPECT_EQ(v.inductionK, 0);
  // BMC at frames 0..2 plus the undecided k = 1 step after frame 0; no step
  // after the refuted frame 2.
  EXPECT_EQ(v.cost.queries, 4u);
}

TEST(Safety, NegativeDepthBudgetIsUnknown) {
  Counter c;
  const aig::SafetyResult r =
      aig::proveSafety(c.g, c.m, problemOf({c.g.andLit(c.b0, c.b1)}, -1),
                       ignoreCex);
  const aig::SafetyVerdict& v = r.properties.at(0);
  EXPECT_EQ(v.verdict, aig::PropertyVerdict::Unknown);
  EXPECT_EQ(v.depthReached, -1);
  EXPECT_EQ(v.cost.queries, 0u);
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

  // Equality sees every field, the invariant's cost included.
  SymbolicArtifact other = sym;
  other.stats.invariantCost.queries += 1;
  EXPECT_FALSE(other == sym);

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
  EXPECT_EQ(d.where, "ONESHOT_D_FSM_adder1");
  EXPECT_EQ(d.message,
            "BMC counterexample after 2 cycle(s): ONESHOT_D_FSM_adder1 is "
            "stuck waiting for a completion that never comes\n"
            "  cycle 0: C_mult1=1 C_mult2=1 | ONESHOT_D_FSM_adder1@R0 "
            "ONESHOT_D_FSM_mult1@S0 ONESHOT_D_FSM_mult2@S0 | pulses CCO_O0 "
            "CCO_O3\n"
            "  cycle 1: C_mult1=0 C_mult2=0 | ONESHOT_D_FSM_adder1@R0 "
            "ONESHOT_D_FSM_mult1@R1 ONESHOT_D_FSM_mult2@R1");

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
  EXPECT_EQ(d.message,
            "BMC counterexample after 2 cycle(s): O1 completes although data "
            "predecessor O0 has not completed\n"
            "  cycle 0: C_mult1=0 C_mult2=1 | ONESHOT_D_FSM_adder1@R0 "
            "ONESHOT_D_FSM_mult1@S0 ONESHOT_D_FSM_mult2@S0 | pulses CCO_O3\n"
            "  cycle 1: C_mult1=0 C_mult2=0 | ONESHOT_D_FSM_adder1@S0 "
            "ONESHOT_D_FSM_mult1@S0p ONESHOT_D_FSM_mult2@R1 | pulses CCO_O0 "
            "CCO_O1 | latched ONESHOT_D_FSM_adder1:CCO_O3");

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

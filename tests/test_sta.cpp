// Static timing analysis tests (netlist/sta.hpp): hand-computed arrival /
// required / slack values on small circuits, worst-path extraction, and the
// relationship to the naive depth bound on real controller netlists.
#include "netlist/sta.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "fsm/machine.hpp"
#include "netlist/analyze.hpp"
#include "netlist/build.hpp"

namespace tauhls::netlist {
namespace {

constexpr double kEps = 1e-9;

TEST(Sta, SingleInputPassThrough) {
  Netlist net("wire");
  const NetId a = net.addInput("a");
  net.markOutput("y", a);
  const StaResult sta = runSta(net, 10.0);
  // Input arrival only; single fanout adds no load.
  EXPECT_NEAR(sta.worstArrivalNs, 0.20, kEps);
  EXPECT_NEAR(sta.worstSlackNs, 10.0 - 0.20, kEps);
  EXPECT_EQ(sta.worstOutput, "y");
  EXPECT_TRUE(sta.meetsClock());
  EXPECT_EQ(formatWorstPath(sta), "a");
}

TEST(Sta, InverterChainArrival) {
  Netlist net("chain");
  const NetId a = net.addInput("a");
  const NetId n1 = net.addInv(a);
  const NetId n2 = net.addInv(n1);
  net.markOutput("y", n2);
  const StaResult sta = runSta(net, 10.0);
  // 0.20 input + 2 * 0.30 inverter.
  EXPECT_NEAR(sta.worstArrivalNs, 0.80, kEps);
  ASSERT_EQ(sta.worstPath.size(), 3u);
  EXPECT_EQ(sta.worstPath.front().label, "a");
  EXPECT_NEAR(sta.worstPath.back().arrivalNs, 0.80, kEps);
}

TEST(Sta, GateTreeLevels) {
  // A 4-input AND costs ceil(log2 4) = 2 levels; a 5-input OR costs 3.
  Netlist net("tree");
  std::vector<NetId> ins;
  for (int i = 0; i < 5; ++i) ins.push_back(net.addInput("i" + std::to_string(i)));
  const NetId a4 = net.addAnd({ins[0], ins[1], ins[2], ins[3]});
  net.markOutput("and4", a4);
  const NetId o5 = net.addOr(ins);
  net.markOutput("or5", o5);
  const StaResult sta = runSta(net, 10.0);
  // Inputs i0..i3 feed two gates (fanout 2): +0.05 load on each.
  const double inArrival = 0.20 + 0.05;
  EXPECT_NEAR(sta.arrivalNs[a4], inArrival + 2 * 0.50, kEps);
  EXPECT_NEAR(sta.arrivalNs[o5], inArrival + 3 * 0.55, kEps);
  EXPECT_EQ(sta.worstOutput, "or5");
}

TEST(Sta, FanoutLoadSlowsDriver) {
  Netlist fan1("fan1");
  NetId a = fan1.addInput("a");
  fan1.markOutput("y", fan1.addInv(a));
  Netlist fan3("fan3");
  a = fan3.addInput("a");
  const NetId inv = fan3.addInv(a);
  fan3.markOutput("y0", inv);
  fan3.markOutput("y1", fan3.addInv(inv));
  fan3.markOutput("y2", fan3.addInv(inv));
  // In fan3 the first inverter drives two more inverters plus an output tap
  // (fanout 3): its delay gains 2 * 0.05 over the fanout-1 version.
  const double lone = runSta(fan1, 10.0).arrivalNs[1];
  const double loaded = runSta(fan3, 10.0).arrivalNs[1];
  EXPECT_NEAR(loaded - lone, 2 * 0.05, kEps);
}

TEST(Sta, RequiredAndSlack) {
  Netlist net("slack");
  const NetId a = net.addInput("a");
  const NetId b = net.addInput("b");
  const NetId g = net.addAnd({a, b});
  net.markOutput("y", g);
  const StaResult sta = runSta(net, 5.0, 1.0);
  // Output must settle by clock - margin = 4.0.
  EXPECT_NEAR(sta.requiredNs[g], 4.0, kEps);
  EXPECT_NEAR(sta.requiredNs[a], 4.0 - 0.50, kEps);
  EXPECT_NEAR(sta.slackNs[g], 4.0 - 0.70, kEps);
  EXPECT_NEAR(sta.worstSlackNs, 4.0 - 0.70, kEps);
}

TEST(Sta, NegativeSlackFailsClock) {
  Netlist net("slow");
  NetId cur = net.addInput("a");
  for (int i = 0; i < 10; ++i) cur = net.addInv(cur);
  net.markOutput("y", cur);
  // Arrival = 0.2 + 10 * 0.3 = 3.2 > 3.0.
  const StaResult sta = runSta(net, 3.0);
  EXPECT_FALSE(sta.meetsClock());
  EXPECT_LT(sta.worstSlackNs, 0.0);
  EXPECT_NEAR(sta.worstArrivalNs, 3.2, kEps);
}

TEST(Sta, NetsOutsideOutputConesAreUnconstrained) {
  Netlist net("dangling");
  const NetId a = net.addInput("a");
  const NetId b = net.addInput("b");
  net.markOutput("y", net.addInv(a));
  const NetId orphan = net.addInv(b);
  const StaResult sta = runSta(net, 10.0);
  EXPECT_TRUE(std::isinf(sta.requiredNs[orphan]));
  EXPECT_TRUE(std::isinf(sta.slackNs[orphan]));
  EXPECT_FALSE(std::isinf(sta.worstSlackNs));
}

TEST(Sta, CustomDelayModel) {
  DelayModel model;
  model.invNs = 1.0;
  model.inputArrivalNs = 0.0;
  model.loadNsPerFanout = 0.0;
  Netlist net("model");
  net.markOutput("y", net.addInv(net.addInput("a")));
  EXPECT_NEAR(runSta(net, 10.0, 0.0, model).worstArrivalNs, 1.0, kEps);
}

TEST(Sta, RejectsNonPositiveClock) {
  Netlist net("bad");
  net.markOutput("y", net.addInput("a"));
  EXPECT_THROW(runSta(net, 0.0), Error);
}

TEST(Sta, WorstPathFollowsLatestFanin) {
  Netlist net("path");
  const NetId fast = net.addInput("fast");
  NetId slow = net.addInput("slow");
  for (int i = 0; i < 3; ++i) slow = net.addInv(slow);
  const NetId g = net.addAnd({fast, slow});
  net.markOutput("y", g);
  const StaResult sta = runSta(net, 10.0);
  ASSERT_GE(sta.worstPath.size(), 2u);
  EXPECT_EQ(sta.worstPath.front().label, "slow");
  // Arrivals along the path are non-decreasing.
  for (std::size_t i = 1; i < sta.worstPath.size(); ++i) {
    EXPECT_GE(sta.worstPath[i].arrivalNs, sta.worstPath[i - 1].arrivalNs);
  }
}

fsm::Fsm sampleController() {
  fsm::Fsm m("ctrl");
  m.addInput("go");
  m.addOutput("busy");
  const auto s0 = m.addState("S0");
  const auto s1 = m.addState("S1");
  const auto s2 = m.addState("S2");
  m.setInitial(s0);
  m.addTransition(s0, s1, fsm::Guard::literal("go", true), {"busy"});
  m.addTransition(s0, s0, fsm::Guard::literal("go", false), {});
  m.addTransition(s1, s2, fsm::Guard::always(), {"busy"});
  m.addTransition(s2, s0, fsm::Guard::always(), {});
  return m;
}

TEST(Sta, ControllerNetlistEndToEnd) {
  const fsm::Fsm ctrl = sampleController();
  const ControllerNetlist cn =
      buildControllerNetlist(ctrl, synth::synthesize(ctrl));
  const StaResult sta = runSta(cn.net, 15.0, 2.0);
  EXPECT_GT(sta.worstArrivalNs, 0.0);
  EXPECT_TRUE(sta.meetsClock());
  EXPECT_FALSE(sta.worstOutput.empty());
  EXPECT_FALSE(formatWorstPath(sta).empty());
}

TEST(Sta, RefinesNaiveDepthBound) {
  // The naive bound prices every level at a uniform 0.5 ns and ignores both
  // fanout load and input arrival; STA on the same netlist must still be in
  // the same ballpark (within the same order of magnitude), and meetsClock
  // must now be the STA verdict.
  const fsm::Fsm ctrl = sampleController();
  const ControllerNetlist cn =
      buildControllerNetlist(ctrl, synth::synthesize(ctrl));
  const GateStats stats = analyze(cn.net);
  const double naive = stats.depth * 0.5;
  const StaResult sta = runSta(cn.net, 15.0, 2.0);
  EXPECT_GT(sta.worstArrivalNs, 0.0);
  EXPECT_LT(sta.worstArrivalNs, naive * 3 + 1.0);
  EXPECT_EQ(meetsClock(cn.net, 15.0, 2.0), sta.meetsClock());
  EXPECT_EQ(meetsClockNaive(stats, 15.0, 0.5, 2.0),
            stats.depth * 0.5 <= 15.0 - 2.0);
}

}  // namespace
}  // namespace tauhls::netlist

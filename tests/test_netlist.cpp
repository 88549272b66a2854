#include <gtest/gtest.h>

#include "common/error.hpp"
#include "dfg/benchmarks.hpp"
#include "dfg/random.hpp"
#include "fsm/cent_sync.hpp"
#include "fsm/distributed.hpp"
#include "netlist/analyze.hpp"
#include "netlist/build.hpp"
#include "netlist/emit.hpp"
#include "netlist/netlist.hpp"
#include "testutil.hpp"

namespace tauhls::netlist {
namespace {

using dfg::ResourceClass;
using sched::Allocation;

Netlist xorNetlist() {
  // a^b = (a & !b) | (!a & b)
  Netlist n("xor");
  NetId a = n.addInput("a");
  NetId b = n.addInput("b");
  NetId na = n.addInv(a);
  NetId nb = n.addInv(b);
  NetId t1 = n.addAnd({a, nb});
  NetId t2 = n.addAnd({na, b});
  n.markOutput("y", n.addOr({t1, t2}));
  return n;
}

TEST(Netlist, EvaluateXor) {
  Netlist n = xorNetlist();
  n.validate();
  EXPECT_FALSE(n.evaluateOutput("y", {}));
  EXPECT_TRUE(n.evaluateOutput("y", {"a"}));
  EXPECT_TRUE(n.evaluateOutput("y", {"b"}));
  EXPECT_FALSE(n.evaluateOutput("y", {"a", "b"}));
}

TEST(Netlist, ConstantsAreCached) {
  Netlist n("c");
  EXPECT_EQ(n.constant(true), n.constant(true));
  EXPECT_EQ(n.constant(false), n.constant(false));
  EXPECT_NE(n.constant(true), n.constant(false));
}

TEST(Netlist, SingleFaninPassesThrough) {
  Netlist n("p");
  NetId a = n.addInput("a");
  EXPECT_EQ(n.addAnd({a}), a);
  EXPECT_EQ(n.addOr({a}), a);
}

TEST(Netlist, Guards) {
  Netlist n("g");
  n.addInput("a");
  EXPECT_THROW(n.addInput("a"), Error);
  EXPECT_THROW(n.addInv(NetId{99}), Error);
  EXPECT_THROW(n.addAnd({}), Error);
  EXPECT_THROW(n.evaluateOutput("nope", {}), Error);
  n.markOutput("y", 0);
  EXPECT_THROW(n.markOutput("y", 0), Error);
}

TEST(Analyze, XorStats) {
  GateStats s = analyze(xorNetlist());
  EXPECT_EQ(s.inputs, 2);
  EXPECT_EQ(s.inverters, 2);
  EXPECT_EQ(s.andGates, 2);
  EXPECT_EQ(s.orGates, 1);
  EXPECT_EQ(s.gateEquivalents, 2 + 2 * 1 + 1);  // 2 INV + 2 AND2 + 1 OR2
  EXPECT_EQ(s.depth, 3);                        // inv -> and -> or
  EXPECT_EQ(s.maxFanin, 2);
}

TEST(Analyze, WideGateDecomposition) {
  Netlist n("wide");
  std::vector<NetId> ins;
  for (int i = 0; i < 8; ++i) ins.push_back(n.addInput("i" + std::to_string(i)));
  n.markOutput("y", n.addAnd(ins));
  GateStats s = analyze(n);
  EXPECT_EQ(s.gateEquivalents, 7);  // 8-input AND = 7 two-input equivalents
  EXPECT_EQ(s.depth, 3);            // ceil(log2 8)
  EXPECT_EQ(s.maxFanin, 8);
}

TEST(Analyze, MeetsClockNaive) {
  GateStats s;
  s.depth = 10;
  EXPECT_TRUE(meetsClockNaive(s, 15.0, 1.0, 2.0));   // 10 + 2 <= 15
  EXPECT_FALSE(meetsClockNaive(s, 15.0, 1.5, 2.0));  // 15 + 2 > 15
  EXPECT_THROW(meetsClockNaive(s, 0.0, 1.0), Error);
}

TEST(Build, ControllerNetlistsEquivalentToFsms) {
  auto s = sched::scheduleAndBind(dfg::diffeq(),
                                  Allocation{{ResourceClass::Multiplier, 2},
                                             {ResourceClass::Adder, 1},
                                             {ResourceClass::Subtractor, 1}},
                                  tau::paperLibrary());
  fsm::DistributedControlUnit dcu = fsm::buildDistributed(s);
  for (const fsm::UnitController& c : dcu.controllers) {
    ControllerNetlist cn =
        buildControllerNetlist(c.fsm, synth::synthesize(c.fsm));
    EXPECT_TRUE(verifyAgainstFsm(cn, c.fsm)) << c.fsm.name();
    GateStats stats = analyze(cn.net);
    EXPECT_GT(stats.gateEquivalents, 0);
  }
  fsm::Fsm sync = fsm::buildCentSync(s);
  ControllerNetlist cn = buildControllerNetlist(sync, synth::synthesize(sync));
  EXPECT_TRUE(verifyAgainstFsm(cn, sync));
}

TEST(Build, OneHotEncodingAlsoEquivalent) {
  auto s = sched::scheduleAndBind(
      dfg::fir(3),
      Allocation{{ResourceClass::Multiplier, 2}, {ResourceClass::Adder, 1}},
      tau::paperLibrary());
  fsm::DistributedControlUnit dcu = fsm::buildDistributed(s);
  for (const fsm::UnitController& c : dcu.controllers) {
    ControllerNetlist cn = buildControllerNetlist(
        c.fsm, synth::synthesize(c.fsm, synth::EncodingStyle::OneHot));
    EXPECT_TRUE(verifyAgainstFsm(cn, c.fsm, synth::EncodingStyle::OneHot));
  }
}

TEST(Build, CubeSharingAcrossFunctions) {
  // The shared AND plane must not duplicate identical cubes: build twice the
  // same function under different output names and compare gate counts.
  auto s = sched::scheduleAndBind(dfg::diffeq(),
                                  Allocation{{ResourceClass::Multiplier, 2},
                                             {ResourceClass::Adder, 1},
                                             {ResourceClass::Subtractor, 1}},
                                  tau::paperLibrary());
  fsm::DistributedControlUnit dcu = fsm::buildDistributed(s);
  const fsm::Fsm& f = dcu.controllers[0].fsm;
  const synth::SynthesizedFsm syn = synth::synthesize(f);
  ControllerNetlist cn = buildControllerNetlist(f, syn);
  // Count distinct cubes across all covers; AND gates must not exceed that.
  std::set<std::pair<std::uint64_t, std::uint64_t>> distinct;
  auto collect = [&distinct](const logic::Cover& cover) {
    for (const logic::Cube& c : cover.cubes()) {
      if (c.numLiterals() >= 2) distinct.insert({c.careMask(), c.valueMask()});
    }
  };
  for (const auto& c : syn.nextStateLogic) collect(c);
  for (const auto& c : syn.outputLogic) collect(c);
  EXPECT_LE(static_cast<std::size_t>(analyze(cn.net).andGates),
            distinct.size());
}

TEST(Emit, StructuralVerilogShape) {
  Netlist n = xorNetlist();
  std::string v = emitStructuralVerilog(n, "xor2");
  EXPECT_NE(v.find("module xor2 ("), std::string::npos);
  EXPECT_NE(v.find("input  wire a"), std::string::npos);
  EXPECT_NE(v.find("output wire y"), std::string::npos);
  EXPECT_NE(v.find("not g"), std::string::npos);
  EXPECT_NE(v.find("and g"), std::string::npos);
  EXPECT_NE(v.find("or g"), std::string::npos);
  EXPECT_NE(v.find("assign y = "), std::string::npos);
  EXPECT_NE(v.find("endmodule"), std::string::npos);
}

class NetlistProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NetlistProperty, RandomControllersVerify) {
  dfg::RandomDfgSpec spec;
  spec.seed = GetParam() * 271;
  spec.numOps = 6 + static_cast<int>(GetParam() % 8);
  dfg::Dfg g = dfg::randomDfg(spec);
  auto s = sched::scheduleAndBind(g,
                                  Allocation{{ResourceClass::Multiplier, 2},
                                             {ResourceClass::Adder, 1},
                                             {ResourceClass::Subtractor, 1}},
                                  tau::paperLibrary());
  fsm::DistributedControlUnit dcu = fsm::buildDistributed(s);
  for (const fsm::UnitController& c : dcu.controllers) {
    ControllerNetlist cn =
        buildControllerNetlist(c.fsm, synth::synthesize(c.fsm));
    EXPECT_TRUE(verifyAgainstFsm(cn, c.fsm)) << c.fsm.name();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetlistProperty,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace tauhls::netlist

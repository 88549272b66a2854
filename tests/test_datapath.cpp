// Value-accurate datapath execution tests: the generated controllers driving
// a real register-transfer datapath with bit-level telescopic multipliers.
#include <gtest/gtest.h>

#include <random>

#include "common/error.hpp"
#include "datapath/engine.hpp"
#include "datapath/value.hpp"
#include "dfg/benchmarks.hpp"
#include "dfg/random.hpp"
#include "fsm/distributed.hpp"
#include "sim/makespan.hpp"
#include "testutil.hpp"

namespace tauhls::datapath {
namespace {

using dfg::NodeId;
using dfg::ResourceClass;
using sched::Allocation;

std::vector<Value> randomInputs(const dfg::Dfg& g, int width,
                                std::uint64_t seed, bool lowMagnitude) {
  std::mt19937_64 rng(seed);
  const Value mask = (Value{1} << width) - 1;
  std::vector<Value> in(g.numNodes(), 0);
  for (NodeId v : g.inputIds()) {
    if (lowMagnitude) {
      const int len = std::uniform_int_distribution<int>(1, width)(rng);
      in[v] = rng() & ((Value{1} << len) - 1);
    } else {
      in[v] = rng() & mask;
    }
  }
  return in;
}

TEST(Value, ApplyOpSemantics) {
  EXPECT_EQ(applyOp(dfg::OpKind::Add, 200, 100, 8), 44u);
  EXPECT_EQ(applyOp(dfg::OpKind::Sub, 5, 9, 8), 252u);
  EXPECT_EQ(applyOp(dfg::OpKind::Mul, 20, 20, 8), 144u);  // 400 mod 256
  EXPECT_EQ(applyOp(dfg::OpKind::Compare, 3, 9, 8), 1u);
  EXPECT_EQ(applyOp(dfg::OpKind::Compare, 9, 3, 8), 0u);
  EXPECT_EQ(applyOp(dfg::OpKind::Neg, 1, 0, 8), 255u);
  EXPECT_EQ(applyOp(dfg::OpKind::Div, 7, 0, 8), 255u);  // saturates
  EXPECT_EQ(applyOp(dfg::OpKind::Xor, 0xF0, 0x0F, 8), 0xFFu);
  EXPECT_THROW(applyOp(dfg::OpKind::Add, 256, 0, 8), Error);
}

TEST(Value, EvaluateDiamond) {
  dfg::Dfg g = test::diamond();
  std::vector<Value> in(g.numNodes(), 0);
  in[g.findByName("a")] = 6;
  in[g.findByName("b")] = 7;
  auto values = evaluateDfg(g, in, 16);
  EXPECT_EQ(values[g.findByName("m1")], 42u);
  EXPECT_EQ(values[g.findByName("m2")], 42u);
  EXPECT_EQ(values[g.findByName("s")], 84u);
}

TEST(Units, LibraryBasics) {
  BitLevelLibrary lib(16, 20);
  EXPECT_EQ(lib.width(), 16);
  EXPECT_EQ(lib.compute(dfg::OpKind::Mul, 3, 5), 15u);
  EXPECT_TRUE(lib.multiplierShortClass(3, 5));
  EXPECT_FALSE(lib.multiplierShortClass(0x8000, 0x8000));
  EXPECT_THROW(BitLevelLibrary(40, 20), Error);
}

TEST(Engine, DiffeqComputesGoldenValues) {
  auto s = sched::scheduleAndBind(dfg::diffeq(),
                                  Allocation{{ResourceClass::Multiplier, 2},
                                             {ResourceClass::Adder, 1},
                                             {ResourceClass::Subtractor, 1}},
                                  tau::paperLibrary());
  fsm::DistributedControlUnit dcu = fsm::buildDistributed(s);
  const BitLevelLibrary lib(16, 20);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto inputs = randomInputs(s.graph, 16, seed, seed % 2 == 0);
    const ExecutionResult r = execute(dcu, s, inputs, lib);
    const auto golden = evaluateDfg(s.graph, inputs, 16);
    for (NodeId v : s.graph.opIds()) {
      EXPECT_EQ(r.values[v], golden[v])
          << s.graph.node(v).name << " seed=" << seed;
    }
  }
}

TEST(Engine, RealizedClassesMatchCompletionGenerator) {
  auto s = sched::scheduleAndBind(dfg::diffeq(),
                                  Allocation{{ResourceClass::Multiplier, 2},
                                             {ResourceClass::Adder, 1},
                                             {ResourceClass::Subtractor, 1}},
                                  tau::paperLibrary());
  fsm::DistributedControlUnit dcu = fsm::buildDistributed(s);
  const BitLevelLibrary lib(16, 20);
  const auto inputs = randomInputs(s.graph, 16, 99, true);
  const ExecutionResult r = execute(dcu, s, inputs, lib);
  const auto golden = evaluateDfg(s.graph, inputs, 16);
  for (NodeId v : s.graph.opsOfClass(ResourceClass::Multiplier)) {
    const auto& node = s.graph.node(v);
    const Value a = golden[node.operands[0]];
    const Value b = golden[node.operands[1]];
    EXPECT_EQ(r.realizedClasses.isShort(v), lib.multiplierShortClass(a, b))
        << node.name;
  }
}

TEST(Engine, LatencyMatchesAbstractMakespanUnderRealizedClasses) {
  auto s = sched::scheduleAndBind(dfg::diffeq(),
                                  Allocation{{ResourceClass::Multiplier, 2},
                                             {ResourceClass::Adder, 1},
                                             {ResourceClass::Subtractor, 1}},
                                  tau::paperLibrary());
  fsm::DistributedControlUnit dcu = fsm::buildDistributed(s);
  const BitLevelLibrary lib(16, 20);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto inputs = randomInputs(s.graph, 16, seed * 17, seed % 2 == 0);
    const ExecutionResult r = execute(dcu, s, inputs, lib);
    EXPECT_EQ(r.latencyCycles,
              sim::distributedMakespanCycles(s, r.realizedClasses))
        << "seed=" << seed;
  }
}

TEST(Engine, LowMagnitudeInputsRunFasterThanWide) {
  // With log-uniform (small) operands the multiplier hits SD more often, so
  // the same DFG finishes in (weakly) fewer cycles.
  auto s = sched::scheduleAndBind(
      dfg::fir(5),
      Allocation{{ResourceClass::Multiplier, 2}, {ResourceClass::Adder, 1}},
      tau::paperLibrary());
  fsm::DistributedControlUnit dcu = fsm::buildDistributed(s);
  const BitLevelLibrary lib(16, 16);
  long lowTotal = 0;
  long wideTotal = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    lowTotal += execute(dcu, s, randomInputs(s.graph, 16, seed, true), lib)
                    .latencyCycles;
    wideTotal += execute(dcu, s, randomInputs(s.graph, 16, seed, false), lib)
                     .latencyCycles;
  }
  EXPECT_LT(lowTotal, wideTotal);
}

class EngineProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineProperty, GoldenEquivalenceOnRandomGraphs) {
  dfg::RandomDfgSpec spec;
  spec.seed = GetParam() * 1009;
  spec.numOps = 6 + static_cast<int>(GetParam() % 10);
  const BitLevelLibrary lib(16, 18);
  for (const sched::ScheduledDfg& s :
       test::propertySchedules(spec, tau::paperLibrary())) {
    fsm::DistributedControlUnit dcu = fsm::buildDistributed(s);
    const auto inputs =
        randomInputs(s.graph, 16, GetParam(), GetParam() % 2 == 0);
    const ExecutionResult r = execute(dcu, s, inputs, lib);
    const auto golden = evaluateDfg(s.graph, inputs, 16);
    for (NodeId v : s.graph.opIds()) {
      EXPECT_EQ(r.values[v], golden[v])
          << s.graph.name() << " " << s.graph.node(v).name;
    }
    EXPECT_EQ(r.latencyCycles,
              sim::distributedMakespanCycles(s, r.realizedClasses))
        << s.graph.name() << " units=" << s.binding.numUnits();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineProperty,
                         ::testing::Range<std::uint64_t>(1, 16));

}  // namespace
}  // namespace tauhls::datapath

#include "sim/classes.hpp"

#include <random>

#include "common/error.hpp"
#include "fsm/distributed.hpp"

namespace tauhls::sim {

OperandClasses allShort(const sched::ScheduledDfg& s) {
  OperandClasses c;
  c.shortClass.assign(s.graph.numNodes(), true);
  return c;
}

OperandClasses allLong(const sched::ScheduledDfg& s) {
  OperandClasses c;
  c.shortClass.assign(s.graph.numNodes(), false);
  return c;
}

std::vector<dfg::NodeId> tauOps(const sched::ScheduledDfg& s) {
  std::vector<dfg::NodeId> out;
  for (dfg::NodeId v : s.graph.opIds()) {
    const int u = s.binding.unitOf(v);
    TAUHLS_ASSERT(u >= 0, "unbound op in scheduled DFG");
    if (s.unitIsTelescopic(u)) out.push_back(v);
  }
  return out;
}

OperandClasses fromMask(const sched::ScheduledDfg& s, std::uint64_t mask) {
  const std::vector<dfg::NodeId> taus = tauOps(s);
  TAUHLS_CHECK(taus.size() <= 64, "mask enumeration limited to 64 TAU ops");
  OperandClasses c = allShort(s);
  for (std::size_t i = 0; i < taus.size(); ++i) {
    c.shortClass[taus[i]] = (mask >> i) & 1;
  }
  return c;
}

OperandClasses randomClasses(const sched::ScheduledDfg& s, double p,
                             std::uint64_t seed) {
  OperandClasses c;
  randomClasses(s, tauOps(s), p, seed, c);
  return c;
}

void randomClasses(const sched::ScheduledDfg& s,
                   const std::vector<dfg::NodeId>& taus, double p,
                   std::uint64_t seed, OperandClasses& out) {
  TAUHLS_CHECK(p >= 0.0 && p <= 1.0, "P must lie in [0,1]");
  std::mt19937_64 rng(seed);
  std::bernoulli_distribution sd(p);
  // Reset to all-SD in place; assign() only reallocates on a size change.
  out.shortClass.assign(s.graph.numNodes(), true);
  for (dfg::NodeId v : taus) out.shortClass[v] = sd(rng);
}

std::uint64_t randomClassMask(int n, double p, std::uint64_t seed) {
  TAUHLS_CHECK(p >= 0.0 && p <= 1.0, "P must lie in [0,1]");
  TAUHLS_CHECK(n >= 0 && n <= 64, "mask sampling limited to 64 TAU ops");
  std::mt19937_64 rng(seed);
  std::bernoulli_distribution sd(p);
  std::uint64_t mask = 0;
  for (int i = 0; i < n; ++i) {
    if (sd(rng)) mask |= std::uint64_t{1} << i;
  }
  return mask;
}

LevelClasses allFastest(const sched::ScheduledDfg& s) {
  return LevelClasses{std::vector<int>(s.graph.numNodes(), 0)};
}

LevelClasses allSlowest(const sched::ScheduledDfg& s,
                        const tau::MultiLevelLibrary& overrides) {
  LevelClasses c = allFastest(s);
  for (dfg::NodeId v : s.graph.opIds()) {
    c.levelOf[v] = fsm::levelsOfUnit(s, overrides, s.binding.unitOf(v)) - 1;
  }
  return c;
}

LevelClasses randomLevels(const sched::ScheduledDfg& s,
                          const tau::MultiLevelLibrary& overrides,
                          std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  LevelClasses c = allFastest(s);
  for (dfg::NodeId v : s.graph.opIds()) {
    const int unitId = s.binding.unitOf(v);
    const dfg::ResourceClass cls = s.binding.unit(unitId).cls;
    auto it = overrides.find(cls);
    if (it != overrides.end()) {
      std::discrete_distribution<int> d(it->second.levelProbabilities.begin(),
                                        it->second.levelProbabilities.end());
      c.levelOf[v] = d(rng);
    } else if (s.unitIsTelescopic(unitId)) {
      std::bernoulli_distribution slow(
          1.0 - s.library.typeFor(cls).sdProbability);
      c.levelOf[v] = slow(rng) ? 1 : 0;
    }
  }
  return c;
}

LevelClasses levelsOf(const sched::ScheduledDfg& s,
                      const OperandClasses& classes) {
  TAUHLS_CHECK(classes.shortClass.size() == s.graph.numNodes(),
               "operand-class vector size mismatch");
  LevelClasses c = allFastest(s);
  for (dfg::NodeId v : tauOps(s)) c.levelOf[v] = classes.isShort(v) ? 0 : 1;
  return c;
}

dfg::DurationFn levelCycles(const LevelClasses& classes) {
  return [&classes](dfg::NodeId v) { return classes.level(v) + 1; };
}

}  // namespace tauhls::sim

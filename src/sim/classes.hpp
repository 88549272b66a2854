// Operand-class assignment: for every TAU-bound operation, whether its input
// operands fall in the short-delay (SD) class.  This is the paper's workload
// abstraction -- each TAU op is SD with probability P, i.i.d. (§2.3, §5).
#pragma once

#include <cstdint>
#include <vector>

#include "dfg/analysis.hpp"
#include "sched/scheduled_dfg.hpp"
#include "tau/unit.hpp"

namespace tauhls::sim {

struct OperandClasses {
  /// Per-node flag (indexed by NodeId); meaningful only for TAU-bound ops.
  std::vector<bool> shortClass;

  bool isShort(dfg::NodeId v) const { return shortClass[v]; }
};

/// All ops in the SD class (the best case).
OperandClasses allShort(const sched::ScheduledDfg& s);

/// All ops in the LD class (the worst case).
OperandClasses allLong(const sched::ScheduledDfg& s);

/// The TAU-bound ops of `s` in ascending NodeId order (the enumeration basis
/// for exact latency statistics).
std::vector<dfg::NodeId> tauOps(const sched::ScheduledDfg& s);

/// Classes from a bitmask over tauOps(s): bit i set => tauOps[i] is SD.
OperandClasses fromMask(const sched::ScheduledDfg& s, std::uint64_t mask);

/// Seeded Bernoulli(p) sample.
OperandClasses randomClasses(const sched::ScheduledDfg& s, double p,
                             std::uint64_t seed);

/// As above, writing into a caller-provided buffer so sampling loops reuse
/// one allocation.  `taus` must be tauOps(s) (precomputed once by the caller);
/// the draw sequence is identical to the allocating overload bit-for-bit.
void randomClasses(const sched::ScheduledDfg& s,
                   const std::vector<dfg::NodeId>& taus, double p,
                   std::uint64_t seed, OperandClasses& out);

/// Seeded Bernoulli(p) sample as a bitmask over n TAU ops (bit i set => TAU
/// op i is SD).  Draws the same mt19937_64(seed) Bernoulli sequence as
/// randomClasses, so mask-native Monte-Carlo estimates match it bit-for-bit.
std::uint64_t randomClassMask(int n, double p, std::uint64_t seed);

/// Delay-level assignment for multi-level units (paper §6): level k of an
/// op takes k+1 cycles; fixed-unit ops carry level 0.  SD/LD are levels 0/1.
struct LevelClasses {
  std::vector<int> levelOf;  ///< per node (indexed by NodeId)

  int level(dfg::NodeId v) const { return levelOf[v]; }
};

/// Every op at its fastest / slowest level (levels per fsm::levelsOfUnit).
LevelClasses allFastest(const sched::ScheduledDfg& s);
LevelClasses allSlowest(const sched::ScheduledDfg& s,
                        const tau::MultiLevelLibrary& overrides);

/// Seeded sample: overridden classes draw from their level pmf, the other
/// telescopic classes are LD with probability 1 - P.
LevelClasses randomLevels(const sched::ScheduledDfg& s,
                          const tau::MultiLevelLibrary& overrides,
                          std::uint64_t seed);

/// The two-level classes as levels (LD TAU ops at level 1, the rest 0).
LevelClasses levelsOf(const sched::ScheduledDfg& s,
                      const OperandClasses& classes);

/// Op durations under `classes` (level k => k+1 cycles), for the makespans;
/// the function refers to `classes`, which must outlive it.
dfg::DurationFn levelCycles(const LevelClasses& classes);

}  // namespace tauhls::sim

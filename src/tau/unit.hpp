// Arithmetic-unit delay models (paper §2.1, Fig. 1).
//
// A *telescopic* arithmetic unit (TAU) completes in SD (short delay) for a
// conservative subset of input operands and LD (long delay, the worst case)
// otherwise; its completion-signal generator raises C within the first clock
// cycle exactly for the SD class.  A *fixed* unit always takes its fixed
// delay FD.  The fraction of operands falling in the SD class is the unit's
// `sdProbability` P -- the paper's key workload parameter.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "dfg/op.hpp"

namespace tauhls::tau {

struct UnitType {
  std::string name;                                     ///< e.g. "tau_mult"
  dfg::ResourceClass cls = dfg::ResourceClass::None;    ///< ops it executes
  bool telescopic = false;                              ///< has SD/LD behaviour
  double shortDelayNs = 0.0;                            ///< SD (or FD when fixed)
  double longDelayNs = 0.0;                             ///< LD (== SD when fixed)
  double sdProbability = 1.0;                           ///< P; 1.0 for fixed units

  /// Worst-case delay (LD for TAUs, FD for fixed units).
  double worstDelayNs() const { return longDelayNs; }
};

/// Build a fixed-delay unit type (FD = `delayNs`).
UnitType fixedUnit(std::string name, dfg::ResourceClass cls, double delayNs);

/// Build a telescopic unit type.  Requires 0 < sdNs <= ldNs and 0 <= p <= 1.
UnitType telescopicUnit(std::string name, dfg::ResourceClass cls, double sdNs,
                        double ldNs, double p);

/// Validate invariants (positive delays, SD <= LD, P in [0,1], class set);
/// throws tauhls::Error on violation.
void validateUnitType(const UnitType& type);

/// Multi-level variable-computation-time unit (the paper's §6 "other kinds
/// of synchronous VCAUs"): level k completes within k+1 clock cycles and its
/// completion generator raises C in cycle k exactly for level-k operands.
/// The two-level TAU is the L = 2 case.
struct MultiLevelUnitType {
  std::string name;
  dfg::ResourceClass cls = dfg::ResourceClass::None;
  std::vector<double> levelDelaysNs;       ///< strictly increasing
  std::vector<double> levelProbabilities;  ///< P(level k); sums to 1

  int numLevels() const { return static_cast<int>(levelDelaysNs.size()); }
};

/// Per-class override of a schedule's unit types; absent classes keep their
/// two-level / fixed UnitType.
using MultiLevelLibrary = std::map<dfg::ResourceClass, MultiLevelUnitType>;

/// Build and validate a multi-level unit type.
MultiLevelUnitType multiLevelUnit(std::string name, dfg::ResourceClass cls,
                                  std::vector<double> levelDelaysNs,
                                  std::vector<double> levelProbabilities);

/// Validate invariants; with `clockNs` > 0 also require level k to take
/// exactly k+1 cycles of that clock.
void validateMultiLevelUnit(const MultiLevelUnitType& type,
                            double clockNs = 0.0);

}  // namespace tauhls::tau

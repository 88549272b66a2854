#include "tau/unit.hpp"

#include <cmath>
#include <numeric>

#include "common/error.hpp"

namespace tauhls::tau {

UnitType fixedUnit(std::string name, dfg::ResourceClass cls, double delayNs) {
  UnitType t;
  t.name = std::move(name);
  t.cls = cls;
  t.telescopic = false;
  t.shortDelayNs = delayNs;
  t.longDelayNs = delayNs;
  t.sdProbability = 1.0;
  validateUnitType(t);
  return t;
}

UnitType telescopicUnit(std::string name, dfg::ResourceClass cls, double sdNs,
                        double ldNs, double p) {
  UnitType t;
  t.name = std::move(name);
  t.cls = cls;
  t.telescopic = true;
  t.shortDelayNs = sdNs;
  t.longDelayNs = ldNs;
  t.sdProbability = p;
  validateUnitType(t);
  return t;
}

void validateUnitType(const UnitType& type) {
  TAUHLS_CHECK(!type.name.empty(), "unit type needs a name");
  TAUHLS_CHECK(type.cls != dfg::ResourceClass::None,
               "unit type needs a resource class");
  TAUHLS_CHECK(type.shortDelayNs > 0.0, "unit delay must be positive");
  TAUHLS_CHECK(type.longDelayNs >= type.shortDelayNs,
               "long delay must be >= short delay");
  TAUHLS_CHECK(type.sdProbability >= 0.0 && type.sdProbability <= 1.0,
               "SD probability must be within [0,1]");
  if (!type.telescopic) {
    TAUHLS_CHECK(type.longDelayNs == type.shortDelayNs,
                 "fixed units have a single delay");
  }
}

MultiLevelUnitType multiLevelUnit(std::string name, dfg::ResourceClass cls,
                                  std::vector<double> levelDelaysNs,
                                  std::vector<double> levelProbabilities) {
  MultiLevelUnitType t{std::move(name), cls, std::move(levelDelaysNs),
                       std::move(levelProbabilities)};
  validateMultiLevelUnit(t);
  return t;
}

void validateMultiLevelUnit(const MultiLevelUnitType& type, double clockNs) {
  TAUHLS_CHECK(!type.name.empty(), "multi-level unit needs a name");
  TAUHLS_CHECK(type.cls != dfg::ResourceClass::None,
               "multi-level unit needs a resource class");
  TAUHLS_CHECK(!type.levelDelaysNs.empty(), "at least one delay level");
  TAUHLS_CHECK(type.levelDelaysNs.size() == type.levelProbabilities.size(),
               "one probability per delay level");
  for (std::size_t k = 0; k < type.levelDelaysNs.size(); ++k) {
    TAUHLS_CHECK(type.levelDelaysNs[k] > 0.0, "level delays must be positive");
    TAUHLS_CHECK(k == 0 || type.levelDelaysNs[k] > type.levelDelaysNs[k - 1],
                 "level delays must be strictly increasing");
    TAUHLS_CHECK(type.levelProbabilities[k] >= 0.0 &&
                     type.levelProbabilities[k] <= 1.0,
                 "level probabilities must lie in [0,1]");
    TAUHLS_CHECK(clockNs <= 0.0 ||
                     std::ceil(type.levelDelaysNs[k] / clockNs - 1e-9) ==
                         static_cast<double>(k + 1),
                 "level " + std::to_string(k) + " of '" + type.name +
                     "' must take exactly " + std::to_string(k + 1) +
                     " cycles at the given clock");
  }
  const double sum = std::accumulate(type.levelProbabilities.begin(),
                                     type.levelProbabilities.end(), 0.0);
  TAUHLS_CHECK(std::abs(sum - 1.0) < 1e-9,
               "level probabilities must sum to 1");
}

}  // namespace tauhls::tau

// Transition guards: sums of products over named boolean signals.
//
// The guard shapes Algorithm 1 needs are conjunctions (C_T AND all C_POs) and
// their negations (NOT(all C_POs) = OR of negated literals), so a small SOP
// representation covers everything, including the synchronized-product guards
// of the centralized baselines.
#pragma once

#include <map>
#include <string>
#include <unordered_set>
#include <vector>

namespace tauhls::fsm {

/// One product term: signal name -> required polarity.
struct GuardTerm {
  std::map<std::string, bool> literals;

  /// True when every literal matches; `isAsserted(signal)` gives the inputs.
  template <typename IsAsserted>
  bool holds(const IsAsserted& isAsserted) const {
    for (const auto& [signal, positive] : literals) {
      if (isAsserted(signal) != positive) return false;
    }
    return true;
  }

  friend bool operator==(const GuardTerm&, const GuardTerm&) = default;
};

/// Disjunction of product terms.  An empty term list is the constant false;
/// a list containing an empty term is the constant true.
class Guard {
 public:
  /// Constant true.
  static Guard always();
  /// Constant false.
  static Guard never();
  /// Single literal.
  static Guard literal(const std::string& signal, bool positive);
  /// Conjunction of positive literals; empty list -> always().
  static Guard allOf(const std::vector<std::string>& signals);
  /// NOT(allOf(signals)): one negated-literal term per signal; empty -> never().
  static Guard notAllOf(const std::vector<std::string>& signals);

  const std::vector<GuardTerm>& terms() const { return terms_; }

  /// Logical AND (product of sums of products; contradictory terms dropped).
  Guard conjoin(const Guard& other) const;
  /// Logical OR (term concatenation).
  Guard disjoin(const Guard& other) const;

  bool evaluate(const std::unordered_set<std::string>& asserted) const;
  /// As evaluate, with `isAsserted(signal)` giving the inputs.
  template <typename IsAsserted>
  bool holds(const IsAsserted& isAsserted) const {
    for (const GuardTerm& t : terms_) {
      if (t.holds(isAsserted)) return true;
    }
    return false;
  }

  /// All signal names referenced, sorted, deduped.
  std::vector<std::string> signals() const;

  bool isAlways() const;
  bool isNever() const { return terms_.empty(); }

  /// Human-readable form, e.g. "C_mult1&!CCO_O3 | !C_mult1".
  std::string toString() const;

  friend bool operator==(const Guard&, const Guard&) = default;

 private:
  std::vector<GuardTerm> terms_;
};

}  // namespace tauhls::fsm

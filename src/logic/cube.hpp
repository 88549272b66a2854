// A cube (product term) over up to 64 boolean variables.
//
// Represented as a pair of bitmasks: `care` marks variables that appear as
// literals; for those, the matching bit of `value` selects the positive (1)
// or negative (0) literal.  A cube with empty care set is the constant 1.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace tauhls::logic {

class Cube {
 public:
  /// The tautology cube over `numVars` variables (no literals).
  static Cube full(int numVars);

  /// The minterm cube matching exactly `assignment` (all variables care).
  static Cube minterm(int numVars, std::uint64_t assignment);

  /// The cube whose literals are the `care` variables, positive where
  /// `value` is 1 (value bits outside `care` are ignored).
  static Cube fromMasks(int numVars, std::uint64_t care, std::uint64_t value);

  int numVars() const { return numVars_; }
  std::uint64_t careMask() const { return care_; }
  std::uint64_t valueMask() const { return value_; }

  /// Add/replace the literal of `var` (0-based).
  void setLiteral(int var, bool positive);
  /// Remove the literal of `var` (variable becomes don't-care in the cube).
  void dropLiteral(int var);
  /// True when `var` appears as a literal.
  bool hasLiteral(int var) const;
  /// True when `var` appears as a *positive* literal (requires hasLiteral).
  bool literalPositive(int var) const;

  /// Number of literals in the product term.
  int numLiterals() const;

  /// True when the cube evaluates to 1 under the given variable assignment.
  bool covers(std::uint64_t assignment) const;

  /// True when every minterm of `other` is also a minterm of this cube.
  bool contains(const Cube& other) const;

  /// True when the two cubes share at least one minterm.
  bool intersects(const Cube& other) const;

  /// Quine-McCluskey adjacency merge: succeeds when both cubes have the same
  /// care set and differ in exactly one care bit; the result drops that bit.
  std::optional<Cube> merge(const Cube& other) const;

  /// Number of minterms covered (2^(numVars - numLiterals)).
  std::uint64_t size() const;

  /// Enumerate covered minterms in ascending order.
  std::vector<std::uint64_t> minterms() const;

  /// "1-0" positional string (index 0 leftmost; '-' = absent).
  std::string toString() const;

  friend bool operator==(const Cube&, const Cube&) = default;

 private:
  Cube(int numVars, std::uint64_t care, std::uint64_t value);

  int numVars_ = 0;
  std::uint64_t care_ = 0;
  std::uint64_t value_ = 0;
};

}  // namespace tauhls::logic

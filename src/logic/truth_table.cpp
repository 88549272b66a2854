#include "logic/truth_table.hpp"

#include "common/error.hpp"

namespace tauhls::logic {

TruthTable::TruthTable(int numVars, Ternary fill) : numVars_(numVars) {
  TAUHLS_CHECK(numVars >= 0 && numVars <= 24,
               "truth table supports 0..24 variables");
  rows_.assign(std::size_t{1} << numVars, static_cast<std::uint8_t>(fill));
}

Ternary TruthTable::get(std::uint64_t row) const {
  TAUHLS_CHECK(row < numRows(), "truth-table row out of range");
  return static_cast<Ternary>(rows_[row]);
}

void TruthTable::set(std::uint64_t row, Ternary v) {
  TAUHLS_CHECK(row < numRows(), "truth-table row out of range");
  rows_[row] = static_cast<std::uint8_t>(v);
}

std::vector<std::uint64_t> TruthTable::onset() const {
  std::vector<std::uint64_t> out;
  for (std::uint64_t r = 0; r < numRows(); ++r) {
    if (rows_[r] == static_cast<std::uint8_t>(Ternary::One)) out.push_back(r);
  }
  return out;
}

std::vector<std::uint64_t> TruthTable::offset() const {
  std::vector<std::uint64_t> out;
  for (std::uint64_t r = 0; r < numRows(); ++r) {
    if (rows_[r] == static_cast<std::uint8_t>(Ternary::Zero)) out.push_back(r);
  }
  return out;
}

std::vector<std::uint64_t> TruthTable::dcset() const {
  std::vector<std::uint64_t> out;
  for (std::uint64_t r = 0; r < numRows(); ++r) {
    if (rows_[r] == static_cast<std::uint8_t>(Ternary::DontCare)) out.push_back(r);
  }
  return out;
}

bool TruthTable::constantOverCareSet(bool& valueOut) const {
  bool sawOne = false;
  bool sawZero = false;
  for (std::uint64_t r = 0; r < numRows(); ++r) {
    if (rows_[r] == static_cast<std::uint8_t>(Ternary::One)) sawOne = true;
    if (rows_[r] == static_cast<std::uint8_t>(Ternary::Zero)) sawZero = true;
    if (sawOne && sawZero) return false;
  }
  valueOut = sawOne;  // all-DC counts as constant 0
  return true;
}

}  // namespace tauhls::logic

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "common/error.hpp"
#include "logic/cover.hpp"
#include "logic/cube.hpp"
#include "logic/minimize.hpp"
#include "logic/truth_table.hpp"
#include "testutil.hpp"

namespace tauhls::logic {
namespace {

using test::minimizeExpandTable;
using test::specOf;

TEST(Cube, FullCoversEverything) {
  Cube c = Cube::full(4);
  EXPECT_EQ(c.numLiterals(), 0);
  for (std::uint64_t m = 0; m < 16; ++m) EXPECT_TRUE(c.covers(m));
  EXPECT_EQ(c.size(), 16u);
}

TEST(Cube, MintermCoversExactlyOne) {
  Cube c = Cube::minterm(4, 0b1010);
  EXPECT_EQ(c.numLiterals(), 4);
  EXPECT_EQ(c.size(), 1u);
  for (std::uint64_t m = 0; m < 16; ++m) {
    EXPECT_EQ(c.covers(m), m == 0b1010);
  }
}

TEST(Cube, LiteralManipulation) {
  Cube c = Cube::full(3);
  c.setLiteral(0, true);
  c.setLiteral(2, false);
  EXPECT_TRUE(c.hasLiteral(0));
  EXPECT_FALSE(c.hasLiteral(1));
  EXPECT_TRUE(c.literalPositive(0));
  EXPECT_FALSE(c.literalPositive(2));
  EXPECT_EQ(c.toString(), "1-0");
  EXPECT_TRUE(c.covers(0b001));
  EXPECT_TRUE(c.covers(0b011));
  EXPECT_FALSE(c.covers(0b101));
  c.dropLiteral(2);
  EXPECT_TRUE(c.covers(0b101));
  EXPECT_THROW(c.literalPositive(2), Error);
}

TEST(Cube, Containment) {
  Cube big = Cube::full(3);
  big.setLiteral(0, true);  // x0
  Cube small = Cube::minterm(3, 0b101);
  EXPECT_TRUE(big.contains(small));
  EXPECT_FALSE(small.contains(big));
  EXPECT_TRUE(big.contains(big));
}

TEST(Cube, Intersection) {
  Cube a = Cube::full(3);
  a.setLiteral(0, true);
  Cube b = Cube::full(3);
  b.setLiteral(0, false);
  EXPECT_FALSE(a.intersects(b));
  Cube c = Cube::full(3);
  c.setLiteral(1, true);
  EXPECT_TRUE(a.intersects(c));
}

TEST(Cube, QmMerge) {
  Cube a = Cube::minterm(3, 0b000);
  Cube b = Cube::minterm(3, 0b001);
  auto m = a.merge(b);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->toString(), "-00");
  EXPECT_TRUE(m->covers(0b000));
  EXPECT_TRUE(m->covers(0b001));
  EXPECT_FALSE(m->covers(0b010));
  // Distance-2 minterms don't merge.
  EXPECT_FALSE(Cube::minterm(3, 0b000).merge(Cube::minterm(3, 0b011)).has_value());
  // Different care sets don't merge.
  Cube wide = Cube::full(3);
  wide.setLiteral(0, true);
  EXPECT_FALSE(wide.merge(a).has_value());
}

TEST(Cube, MintermEnumeration) {
  Cube c = Cube::full(3);
  c.setLiteral(1, true);
  auto ms = c.minterms();
  EXPECT_EQ(ms.size(), 4u);
  for (std::uint64_t m : ms) EXPECT_TRUE(c.covers(m));
}

TEST(Cover, EvaluateAndLiterals) {
  Cover cov(3);
  Cube a = Cube::full(3);
  a.setLiteral(0, true);
  Cube b = Cube::full(3);
  b.setLiteral(1, false);
  b.setLiteral(2, true);
  cov.add(a);
  cov.add(b);
  EXPECT_EQ(cov.literalCount(), 3);
  EXPECT_TRUE(cov.evaluate(0b001));   // a
  EXPECT_TRUE(cov.evaluate(0b100));   // b
  EXPECT_FALSE(cov.evaluate(0b010));
}

TEST(Cover, RemoveContained) {
  Cover cov(3);
  Cube big = Cube::full(3);
  big.setLiteral(0, true);
  cov.add(big);
  cov.add(Cube::minterm(3, 0b001));
  cov.add(Cube::minterm(3, 0b111));
  cov.removeContained();
  EXPECT_EQ(cov.numCubes(), 1u);
  // Equal duplicates collapse to one.
  Cover dup(2);
  dup.add(Cube::minterm(2, 0b01));
  dup.add(Cube::minterm(2, 0b01));
  dup.removeContained();
  EXPECT_EQ(dup.numCubes(), 1u);
}

TEST(TruthTable, SetsAndSets) {
  TruthTable tt(3);
  tt.set(0, Ternary::One);
  tt.set(5, Ternary::One);
  tt.set(7, Ternary::DontCare);
  EXPECT_EQ(tt.onset(), (std::vector<std::uint64_t>{0, 5}));
  EXPECT_EQ(tt.dcset(), (std::vector<std::uint64_t>{7}));
  EXPECT_EQ(tt.offset().size(), 5u);
  bool v;
  EXPECT_FALSE(tt.constantOverCareSet(v));
}

TEST(TruthTable, ConstantDetection) {
  TruthTable tt(2);
  bool v = true;
  EXPECT_TRUE(tt.constantOverCareSet(v));
  EXPECT_FALSE(v);
  tt.set(1, Ternary::DontCare);
  EXPECT_TRUE(tt.constantOverCareSet(v));
  tt.set(2, Ternary::One);
  tt.set(0, Ternary::DontCare);
  tt.set(3, Ternary::DontCare);
  EXPECT_TRUE(tt.constantOverCareSet(v));
  EXPECT_TRUE(v);
}

TEST(Minimize, XorHasFourPrimes) {
  // 2-var XOR: primes are the two minterms themselves... actually each
  // onset minterm is prime (no adjacent onset), so 2 primes of 2 literals.
  TruthTable tt(2);
  tt.set(1, Ternary::One);
  tt.set(2, Ternary::One);
  auto primes = primeImplicants(tt);
  EXPECT_EQ(primes.size(), 2u);
  Cover cov = minimizeExact(tt);
  EXPECT_EQ(cov.numCubes(), 2u);
  EXPECT_EQ(cov.literalCount(), 4);
}

TEST(Minimize, ClassicQmExample) {
  // f(a,b,c,d) = sum m(4,8,10,11,12,15) + dc(9,14)  -- classic textbook case.
  TruthTable tt(4);
  for (std::uint64_t m : {4, 8, 10, 11, 12, 15}) tt.set(m, Ternary::One);
  for (std::uint64_t m : {9, 14}) tt.set(m, Ternary::DontCare);
  Cover cov = minimizeExact(tt);
  EXPECT_TRUE(implements(cov, tt));
  // Known minimal solution has 3 product terms.
  EXPECT_EQ(cov.numCubes(), 3u);
}

TEST(Minimize, DontCaresEnableCollapse) {
  // Onset {0}, rest don't-care -> constant-1 single empty cube.
  TruthTable tt(3);
  tt.set(0, Ternary::One);
  for (std::uint64_t r = 1; r < 8; ++r) tt.set(r, Ternary::DontCare);
  Cover cov = minimizeExact(tt);
  EXPECT_EQ(cov.numCubes(), 1u);
  EXPECT_EQ(cov.literalCount(), 0);
}

TEST(Minimize, EmptyOnsetGivesEmptyCover) {
  TruthTable tt(3);
  EXPECT_TRUE(minimizeExact(tt).empty());
  EXPECT_TRUE(minimizeExpand(specOf(tt)).empty());
}

class MinimizeProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MinimizeProperty, BothEnginesImplementRandomFunctions) {
  std::mt19937_64 rng(GetParam());
  const int nv = 2 + static_cast<int>(GetParam() % 7);  // 2..8 vars
  TruthTable tt(nv);
  for (std::uint64_t r = 0; r < tt.numRows(); ++r) {
    int roll = std::uniform_int_distribution<int>(0, 9)(rng);
    tt.set(r, roll < 4   ? Ternary::One
              : roll < 8 ? Ternary::Zero
                         : Ternary::DontCare);
  }
  Cover exact = minimizeExact(tt);
  Cover expand = minimizeExpand(specOf(tt));
  EXPECT_TRUE(implements(exact, tt));
  EXPECT_TRUE(implements(expand, tt));
  // The exact engine never loses to the heuristic by more than a little;
  // at minimum it must not produce more cubes than there are onset rows.
  EXPECT_LE(exact.numCubes(), tt.onset().size());
  EXPECT_LE(expand.numCubes(), tt.onset().size());
}

TEST_P(MinimizeProperty, PrimesCoverOnsetAndAvoidOffset) {
  std::mt19937_64 rng(GetParam() * 977);
  TruthTable tt(5);
  for (std::uint64_t r = 0; r < tt.numRows(); ++r) {
    tt.set(r, std::uniform_int_distribution<int>(0, 1)(rng) ? Ternary::One
                                                            : Ternary::Zero);
  }
  auto primes = primeImplicants(tt);
  for (const Cube& p : primes) {
    for (std::uint64_t off : tt.offset()) {
      EXPECT_FALSE(p.covers(off)) << "prime covers offset row";
    }
  }
  for (std::uint64_t on : tt.onset()) {
    bool covered = false;
    for (const Cube& p : primes) covered |= p.covers(on);
    EXPECT_TRUE(covered) << "onset row uncovered by primes";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinimizeProperty,
                         ::testing::Range<std::uint64_t>(1, 26));

/// A random table mixing onset/offset/don't-care rows; variable count and
/// density vary with the seed so both sparse and dense shapes appear.
TruthTable randomTable(std::uint64_t seed) {
  std::mt19937_64 rng(seed * 7919);
  const int nv = 3 + static_cast<int>(seed % 8);  // 3..10 vars
  const int dcWeight = static_cast<int>(seed % 5);
  TruthTable tt(nv);
  for (std::uint64_t r = 0; r < tt.numRows(); ++r) {
    const int roll = std::uniform_int_distribution<int>(0, 9)(rng);
    tt.set(r, roll < 3              ? Ternary::One
              : roll < 6 + dcWeight ? Ternary::DontCare
                                    : Ternary::Zero);
  }
  return tt;
}

class MinimizerImplIdentity : public ::testing::TestWithParam<std::uint64_t> {
};

// The fast QM must emit the reference's primes in the reference's order --
// not just the same set -- because prime order feeds the greedy cover
// selection and therefore the final covers.
TEST_P(MinimizerImplIdentity, FastPrimesMatchReferenceOrderExactly) {
  const TruthTable tt = randomTable(GetParam());
  const auto fast = primeImplicants(tt);
  const auto ref = primeImplicantsReference(tt);
  ASSERT_EQ(fast.size(), ref.size());
  for (std::size_t i = 0; i < fast.size(); ++i) {
    EXPECT_EQ(fast[i], ref[i]) << "prime " << i << " diverges";
  }
}

// The cube expand on the table's minterm spec and the bit-parallel table
// oracle both make the scalar reference's decisions: the same cover, cube
// for cube.
TEST_P(MinimizerImplIdentity, FastExpandMatchesReferenceCover) {
  const TruthTable tt = randomTable(GetParam());
  const Cover ref = minimizeExpandReference(tt);
  EXPECT_EQ(minimizeExpand(specOf(tt)).cubes(), ref.cubes());
  EXPECT_EQ(minimizeExpandTable(tt).cubes(), ref.cubes());
}

// minimize() against the reference dispatch, minimizeReference(): the same
// engine choice over the fast and the scalar implementations must give the
// same cover, call after call (minimize() keeps no state between calls).
TEST_P(MinimizerImplIdentity, DispatchIsImplIndependent) {
  const TruthTable tt = randomTable(GetParam());
  const Cover ref = minimizeReference(tt);
  for (int call = 0; call < 2; ++call) {
    const Cover fast = minimize(specOf(tt));
    ASSERT_EQ(fast.numCubes(), ref.numCubes());
    for (std::size_t i = 0; i < fast.numCubes(); ++i) {
      EXPECT_EQ(fast.cubes()[i], ref.cubes()[i]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinimizerImplIdentity,
                         ::testing::Range<std::uint64_t>(1, 21));

// The 3^n-bit dedup of the fast QM at the largest size minimizeExact admits:
// 14 variables, 4096 onset + don't-care rows.
TEST(MinimizerImplIdentity, FastPrimesMatchReferenceAt14Variables) {
  std::mt19937_64 rng(14);
  TruthTable tt(14);
  for (int k = 0; k < 4096; ++k) {
    const std::uint64_t r = rng() & (tt.numRows() - 1);
    tt.set(r, (k & 1) ? Ternary::One : Ternary::DontCare);
  }
  EXPECT_EQ(primeImplicants(tt), primeImplicantsReference(tt));
}

TEST(CubeSpec, TablePaintsOnsetOffsetAndDontCares) {
  CubeSpec spec{3, {}, {}};
  spec.on.push_back(Cube::fromMasks(3, 0b011, 0b001));   // 1 and 5
  spec.off.push_back(Cube::fromMasks(3, 0b001, 0b000));  // even rows
  const TruthTable tt = spec.table();
  const std::vector<Ternary> want = {
      Ternary::Zero, Ternary::One, Ternary::Zero, Ternary::DontCare,
      Ternary::Zero, Ternary::One, Ternary::Zero, Ternary::DontCare};
  for (std::uint64_t r = 0; r < 8; ++r) EXPECT_EQ(tt.get(r), want[r]) << r;
  EXPECT_EQ(specOf(tt).on.size(), 2u);
  EXPECT_EQ(specOf(tt).off.size(), 4u);
}

/// A random spec over `nv` variables: cubes of 4..nv literals, each placed
/// in the onset or the offset unless it meets a cube of the other list.
CubeSpec randomCubeSpec(std::uint64_t seed, int nv) {
  std::mt19937_64 rng(seed);
  CubeSpec spec{nv, {}, {}};
  const std::uint64_t all = (std::uint64_t{1} << nv) - 1;
  for (int k = 0; k < 60; ++k) {
    std::uint64_t care = all;
    const int drops = std::uniform_int_distribution<int>(0, nv - 4)(rng);
    for (int d = 0; d < drops; ++d) {
      const int v = std::uniform_int_distribution<int>(0, nv - 1)(rng);
      care &= ~(std::uint64_t{1} << v);
    }
    const Cube c = Cube::fromMasks(nv, care, rng());
    const bool on = rng() & 1;
    const std::vector<Cube>& other = on ? spec.off : spec.on;
    if (std::none_of(other.begin(), other.end(),
                     [&](const Cube& o) { return o.intersects(c); })) {
      (on ? spec.on : spec.off).push_back(c);
    }
  }
  return spec;
}

class CubeExpandIdentity : public ::testing::TestWithParam<std::uint64_t> {};

// Above 14 variables minimize() runs the cube expand on the spec; it must
// give the table oracle's cover on the painted table, cube for cube.
TEST_P(CubeExpandIdentity, MatchesTableExpandAbove14Variables) {
  const int nv = 15 + static_cast<int>(GetParam() % 6);  // 15..20
  const CubeSpec spec = randomCubeSpec(GetParam(), nv);
  const Cover cubes = minimize(spec);
  EXPECT_EQ(cubes.cubes(), minimizeExpandTable(spec.table()).cubes());
  EXPECT_TRUE(implements(cubes, spec));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CubeExpandIdentity,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace tauhls::logic

// CDCL SAT solver unit tests (aig/sat.hpp): DIMACS regressions, edge cases,
// and a randomized differential check against brute-force enumeration.
// This suite has its own binary so CI can additionally run it under
// asan/ubsan without paying for the whole test tree.
#include "aig/sat.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace tauhls::aig {
namespace {

TEST(Sat, EmptyInstanceIsSat) {
  SatSolver s;
  EXPECT_EQ(s.solve(), SatResult::Sat);
}

TEST(Sat, SingleUnit) {
  SatSolver s;
  s.addClause({1});
  EXPECT_EQ(s.solve(), SatResult::Sat);
  EXPECT_TRUE(s.modelValue(1));
}

TEST(Sat, ContradictoryUnits) {
  SatSolver s;
  s.addClause({1});
  s.addClause({-1});
  EXPECT_EQ(s.solve(), SatResult::Unsat);
}

TEST(Sat, EmptyClauseIsUnsat) {
  SatSolver s;
  s.addClause({1, 2});
  s.addClause({});
  EXPECT_EQ(s.solve(), SatResult::Unsat);
}

TEST(Sat, TautologyIsDropped) {
  SatSolver s;
  s.addClause({1, -1});
  s.addClause({-2});
  EXPECT_EQ(s.solve(), SatResult::Sat);
  EXPECT_FALSE(s.modelValue(2));
}

TEST(Sat, ImplicationChainPropagates) {
  // 1 and a chain 1->2->...->20 forces every variable true.
  SatSolver s;
  s.addClause({1});
  for (int v = 1; v < 20; ++v) s.addClause({-v, v + 1});
  EXPECT_EQ(s.solve(), SatResult::Sat);
  for (int v = 1; v <= 20; ++v) EXPECT_TRUE(s.modelValue(v)) << "var " << v;
}

TEST(Sat, ModelSatisfiesAllClauses) {
  // A small structured instance with several solutions; whatever model the
  // solver picks must satisfy every clause.
  const std::vector<std::vector<int>> clauses = {
      {1, 2, 3}, {-1, -2}, {-2, -3}, {-1, -3}, {2, 4}, {-4, 5}, {3, -5, 6}};
  SatSolver s;
  for (const auto& c : clauses) s.addClause(c);
  ASSERT_EQ(s.solve(), SatResult::Sat);
  for (const auto& c : clauses) {
    bool satisfied = false;
    for (int lit : c) {
      const bool value = s.modelValue(lit > 0 ? lit : -lit);
      if ((lit > 0) == value) satisfied = true;
    }
    EXPECT_TRUE(satisfied);
  }
}

/// CNF for the pigeonhole principle PHP(pigeons, holes): unsatisfiable
/// whenever pigeons > holes, and known to require genuine conflict-driven
/// search (no polynomial resolution proofs exist).
std::vector<std::vector<int>> pigeonhole(int pigeons, int holes) {
  auto var = [&](int p, int h) { return p * holes + h + 1; };
  std::vector<std::vector<int>> cnf;
  for (int p = 0; p < pigeons; ++p) {
    std::vector<int> atLeast;
    for (int h = 0; h < holes; ++h) atLeast.push_back(var(p, h));
    cnf.push_back(atLeast);
  }
  for (int h = 0; h < holes; ++h) {
    for (int p1 = 0; p1 < pigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
        cnf.push_back({-var(p1, h), -var(p2, h)});
      }
    }
  }
  return cnf;
}

TEST(Sat, PigeonholeUnsat) {
  for (int holes = 2; holes <= 5; ++holes) {
    SatSolver s;
    for (auto& c : pigeonhole(holes + 1, holes)) s.addClause(c);
    EXPECT_EQ(s.solve(), SatResult::Unsat) << "PHP(" << holes + 1 << ","
                                           << holes << ")";
    EXPECT_GT(s.stats().conflicts, 0u);
  }
}

TEST(Sat, PigeonholeSatWhenEnoughHoles) {
  SatSolver s;
  for (auto& c : pigeonhole(5, 5)) s.addClause(c);
  EXPECT_EQ(s.solve(), SatResult::Sat);
}

TEST(Sat, ConflictBudgetYieldsUnknown) {
  // PHP(8,7) needs far more than 5 conflicts; the bounded call must give up
  // cleanly instead of claiming either answer.
  SatSolver s;
  for (auto& c : pigeonhole(8, 7)) s.addClause(c);
  EXPECT_EQ(s.solve(5), SatResult::Unknown);
}

TEST(Sat, ParseDimacs) {
  int numVars = 0;
  const auto clauses = parseDimacs(
      "c a comment\n"
      "p cnf 3 2\n"
      "1 -2 0\n"
      "2 3 0\n",
      numVars);
  EXPECT_EQ(numVars, 3);
  ASSERT_EQ(clauses.size(), 2u);
  EXPECT_EQ(clauses[0], (std::vector<int>{1, -2}));
  EXPECT_EQ(clauses[1], (std::vector<int>{2, 3}));
}

TEST(Sat, DimacsRegressions) {
  // (x1 | x2) & (!x1 | x2) & (x1 | !x2) & (!x1 | !x2) -- classic unsat core.
  EXPECT_EQ(solveDimacs("p cnf 2 4\n1 2 0\n-1 2 0\n1 -2 0\n-1 -2 0\n"),
            SatResult::Unsat);
  // Same minus one clause: satisfiable.
  EXPECT_EQ(solveDimacs("p cnf 2 3\n1 2 0\n-1 2 0\n1 -2 0\n"), SatResult::Sat);
  // XOR chain x1^x2^x3 = 1 as CNF (odd parity), satisfiable.
  EXPECT_EQ(solveDimacs("p cnf 3 4\n"
                        "1 2 3 0\n1 -2 -3 0\n-1 2 -3 0\n-1 -2 3 0\n"),
            SatResult::Sat);
  // ...conjoined with even parity: unsat.
  EXPECT_EQ(solveDimacs("p cnf 3 8\n"
                        "1 2 3 0\n1 -2 -3 0\n-1 2 -3 0\n-1 -2 3 0\n"
                        "-1 -2 -3 0\n-1 2 3 0\n1 -2 3 0\n1 2 -3 0\n"),
            SatResult::Unsat);
}

/// Deterministic xorshift PRNG so the differential test is reproducible.
std::uint64_t nextRand(std::uint64_t& state) {
  state ^= state << 13;
  state ^= state >> 7;
  state ^= state << 17;
  return state;
}

bool bruteForceSat(const std::vector<std::vector<int>>& clauses, int numVars) {
  for (std::uint32_t mask = 0; mask < (1u << numVars); ++mask) {
    bool all = true;
    for (const auto& c : clauses) {
      bool sat = false;
      for (int lit : c) {
        const int v = lit > 0 ? lit : -lit;
        const bool value = (mask >> (v - 1)) & 1u;
        if ((lit > 0) == value) sat = true;
      }
      if (!sat) {
        all = false;
        break;
      }
    }
    if (all) return true;
  }
  return false;
}

TEST(Sat, RandomDifferentialAgainstBruteForce) {
  // 200 random 3-SAT instances around the phase-transition ratio, 8 vars
  // each: the solver must agree with exhaustive enumeration on every one.
  std::uint64_t rng = 0x9e3779b97f4a7c15ull;
  const int numVars = 8;
  int satCount = 0;
  for (int instance = 0; instance < 200; ++instance) {
    const int numClauses = 28 + static_cast<int>(nextRand(rng) % 14);
    std::vector<std::vector<int>> clauses;
    for (int c = 0; c < numClauses; ++c) {
      std::vector<int> clause;
      for (int k = 0; k < 3; ++k) {
        const int v = 1 + static_cast<int>(nextRand(rng) % numVars);
        clause.push_back((nextRand(rng) & 1) ? v : -v);
      }
      clauses.push_back(clause);
    }
    SatSolver s;
    for (const auto& c : clauses) s.addClause(c);
    const SatResult got = s.solve();
    const bool expected = bruteForceSat(clauses, numVars);
    ASSERT_EQ(got, expected ? SatResult::Sat : SatResult::Unsat)
        << "instance " << instance;
    if (expected) {
      ++satCount;
      for (const auto& c : clauses) {
        bool sat = false;
        for (int lit : c) {
          if ((lit > 0) == s.modelValue(lit > 0 ? lit : -lit)) sat = true;
        }
        ASSERT_TRUE(sat) << "model violates clause, instance " << instance;
      }
    }
  }
  // Sanity: the mix actually exercises both outcomes.
  EXPECT_GT(satCount, 20);
  EXPECT_LT(satCount, 180);
}

TEST(Sat, IncrementalClauseAddition) {
  SatSolver s;
  s.addClause({1, 2});
  EXPECT_EQ(s.solve(), SatResult::Sat);
  s.addClause({-1});
  EXPECT_EQ(s.solve(), SatResult::Sat);
  EXPECT_TRUE(s.modelValue(2));
  s.addClause({-2});
  EXPECT_EQ(s.solve(), SatResult::Unsat);
}

TEST(Sat, StatsAccumulate) {
  SatSolver s;
  for (auto& c : pigeonhole(6, 5)) s.addClause(c);
  ASSERT_EQ(s.solve(), SatResult::Unsat);
  EXPECT_GT(s.stats().conflicts, 0u);
  EXPECT_GT(s.stats().propagations, 0u);
  EXPECT_GT(s.stats().learned, 0u);
}

TEST(Sat, SolveUnderAssumptionsMatchesUnitClauses) {
  // Differential: solving under assumptions must give the same verdict as a
  // fresh solver with the assumptions added as unit clauses -- and the
  // assumptions must not stick to later calls.
  std::uint64_t rng = 0xabcdef0123456789ull;
  const int numVars = 8;
  int unsatUnderAssumptions = 0;
  for (int instance = 0; instance < 100; ++instance) {
    const int numClauses = 26 + static_cast<int>(nextRand(rng) % 14);
    std::vector<std::vector<int>> clauses;
    for (int cl = 0; cl < numClauses; ++cl) {
      std::vector<int> clause;
      for (int k = 0; k < 3; ++k) {
        const int v = 1 + static_cast<int>(nextRand(rng) % numVars);
        clause.push_back((nextRand(rng) & 1) ? v : -v);
      }
      clauses.push_back(clause);
    }
    std::vector<int> assumptions;
    for (int k = 0; k < 2; ++k) {
      const int v = 1 + static_cast<int>(nextRand(rng) % numVars);
      assumptions.push_back((nextRand(rng) & 1) ? v : -v);
    }

    SatSolver incremental;
    for (const auto& cl : clauses) incremental.addClause(cl);
    const SatResult base = incremental.solve();
    const SatResult assumed = incremental.solve(assumptions);

    SatSolver fresh;
    for (const auto& cl : clauses) fresh.addClause(cl);
    for (int a : assumptions) fresh.addClause({a});
    ASSERT_EQ(assumed, fresh.solve()) << "instance " << instance;
    if (assumed == SatResult::Unsat) ++unsatUnderAssumptions;
    if (assumed == SatResult::Sat) {
      for (int a : assumptions) {
        ASSERT_EQ(incremental.modelValue(a > 0 ? a : -a), a > 0)
            << "assumption not honoured, instance " << instance;
      }
    }
    // The assumptions are scoped to the one call: re-solving without them
    // must reproduce the unconstrained verdict.
    ASSERT_EQ(incremental.solve(), base) << "instance " << instance;
  }
  EXPECT_GT(unsatUnderAssumptions, 5);  // the mix exercises both outcomes
}

TEST(Sat, ActivationLiteralScoping) {
  // MiniSat-style clause groups: clauses guarded by an activation literal
  // are live only while the literal is assumed, and a unit clause retires
  // the group for good.
  SatSolver s;
  s.addClause({1, 2});
  const int actA = s.newVar();
  const int actB = s.newVar();
  s.addClause({-actA, -1});
  s.addClause({-actA, -2});
  s.addClause({-actB, 1});
  EXPECT_EQ(s.solve(std::vector<int>{actA}), SatResult::Unsat);
  EXPECT_EQ(s.solve(std::vector<int>{actB}), SatResult::Sat);
  EXPECT_TRUE(s.modelValue(1));
  EXPECT_EQ(s.solve(), SatResult::Sat);
  s.addClause({-actA});  // retire group A
  EXPECT_EQ(s.solve(std::vector<int>{actB}), SatResult::Sat);
}

TEST(Sat, FalsifiedAssumptionIsUnsat) {
  SatSolver s;
  s.addClause({1});
  EXPECT_EQ(s.solve(std::vector<int>{-1}), SatResult::Unsat);
  EXPECT_EQ(s.solve(), SatResult::Sat);
}

TEST(Sat, LearnedClauseDbReductionKeepsVerdicts) {
  // A tiny learned-clause budget forces many reduceDB rounds; the verdict
  // and the model discipline must be unaffected.
  {
    SatSolver s;
    s.setLearnedLimit(16);
    for (auto& cl : pigeonhole(7, 6)) s.addClause(cl);
    EXPECT_EQ(s.solve(), SatResult::Unsat);
    EXPECT_GT(s.stats().learned, 16u);  // far more learned than ever live
  }
  std::uint64_t rng = 0x5ca1ab1e0ddba11ull;
  const int numVars = 8;
  for (int instance = 0; instance < 60; ++instance) {
    const int numClauses = 28 + static_cast<int>(nextRand(rng) % 14);
    std::vector<std::vector<int>> clauses;
    for (int cl = 0; cl < numClauses; ++cl) {
      std::vector<int> clause;
      for (int k = 0; k < 3; ++k) {
        const int v = 1 + static_cast<int>(nextRand(rng) % numVars);
        clause.push_back((nextRand(rng) & 1) ? v : -v);
      }
      clauses.push_back(clause);
    }
    SatSolver s;
    s.setLearnedLimit(4);
    for (const auto& cl : clauses) s.addClause(cl);
    const bool expected = bruteForceSat(clauses, numVars);
    ASSERT_EQ(s.solve(), expected ? SatResult::Sat : SatResult::Unsat)
        << "instance " << instance;
  }
}

TEST(Sat, RestartsAreCounted) {
  SatSolver s;
  for (auto& cl : pigeonhole(7, 6)) s.addClause(cl);
  ASSERT_EQ(s.solve(), SatResult::Unsat);
  EXPECT_GT(s.stats().restarts, 0u);
}

// ---- trajectory pins -------------------------------------------------------
// The solver is deterministic: the same clause and query stream must take
// the same decisions, propagations, conflicts, learned clauses and restarts.
// These pins hold the exact counters, so any change to the decision order
// (highest activity first, lowest variable index on ties), the learned-clause
// database or the restart schedule shows up here, not only in lint output.

TEST(Sat, TrajectoryPinnedThroughActivityRescale) {
  // Two PHP(8,7) copies on one solver, each scoped by its own activation
  // literal (appended to every clause of its copy).  Together they take
  // 7,048 conflicts, past the ~4,490th where the activity increment
  // (x 1/0.95 per conflict) crosses 1e100 and every activity is rescaled.
  const int copyVars = 8 * 7;
  const int actA = 2 * copyVars + 1;
  const int actB = actA + 1;
  SatSolver s;
  for (int copy = 0; copy < 2; ++copy) {
    const int offset = copy * copyVars;
    for (std::vector<int> cl : pigeonhole(8, 7)) {
      for (int& l : cl) l = l > 0 ? l + offset : l - offset;
      cl.push_back(copy == 0 ? -actA : -actB);
      s.addClause(cl);
    }
  }
  EXPECT_EQ(s.solve(std::vector<int>{actA}), SatResult::Unsat);
  EXPECT_EQ(s.solve(std::vector<int>{actB}), SatResult::Unsat);
  const SatStats& st = s.stats();
  EXPECT_EQ(st.decisions, 8264u);
  EXPECT_EQ(st.propagations, 113156u);
  EXPECT_EQ(st.conflicts, 7048u);
  EXPECT_EQ(st.learned, 7046u);
  EXPECT_EQ(st.restarts, 12u);
}

TEST(Sat, TrajectoryPinnedOverAssumptionStream) {
  // One seeded random 3-SAT instance near the phase transition, then a
  // stream of queries under random assumptions on the same solver: learned
  // clauses, activities and saved phases carry from query to query.
  std::uint64_t rng = 0x1f2e3d4c5b6a7988ull;
  const int numVars = 120;
  SatSolver s;
  for (int c = 0; c < 500; ++c) {
    std::vector<int> clause;
    for (int k = 0; k < 3; ++k) {
      const int v = 1 + static_cast<int>(nextRand(rng) % numVars);
      clause.push_back((nextRand(rng) & 1) ? v : -v);
    }
    s.addClause(clause);
  }
  std::string verdicts;
  for (int query = 0; query < 40; ++query) {
    std::vector<int> assumptions;
    for (int k = 0; k < 4; ++k) {
      const int v = 1 + static_cast<int>(nextRand(rng) % numVars);
      assumptions.push_back((nextRand(rng) & 1) ? v : -v);
    }
    verdicts += s.solve(assumptions) == SatResult::Sat ? 'S' : 'U';
  }
  EXPECT_EQ(verdicts, "SUUSUUSSUUUUUSSUSSUUUSSUUUUUSUUSUUSSSUUS");
  const SatStats& st = s.stats();
  EXPECT_EQ(st.decisions, 3283u);
  EXPECT_EQ(st.propagations, 90569u);
  EXPECT_EQ(st.conflicts, 2549u);
  EXPECT_EQ(st.learned, 2549u);
  EXPECT_EQ(st.restarts, 5u);
}

TEST(Sat, StatsDifferenceIsComponentWise) {
  SatStats a;
  a.decisions = 10;
  a.propagations = 20;
  a.conflicts = 5;
  a.learned = 4;
  a.restarts = 2;
  SatStats b = a;
  b.decisions = 25;
  b.conflicts = 9;
  const SatStats d = b - a;
  EXPECT_EQ(d.decisions, 15u);
  EXPECT_EQ(d.propagations, 0u);
  EXPECT_EQ(d.conflicts, 4u);
  EXPECT_EQ(d.learned, 0u);
  EXPECT_EQ(d.restarts, 0u);
}

TEST(Sat, ResultNames) {
  EXPECT_STREQ(satResultName(SatResult::Sat), "sat");
  EXPECT_STREQ(satResultName(SatResult::Unsat), "unsat");
  EXPECT_STREQ(satResultName(SatResult::Unknown), "unknown");
}

}  // namespace
}  // namespace tauhls::aig

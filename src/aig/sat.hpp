// A small self-contained CDCL SAT solver for combinational equivalence
// queries (cec.hpp) and guard/cover reasoning.
//
// Standard architecture, deliberately compact: two-watched-literal
// propagation, first-UIP conflict analysis with clause learning and
// non-chronological backjumping, exponentially-decayed variable activity
// (VSIDS) for decisions, phase saving, and geometric restarts.
//
// Decisions come from an order heap (MiniSat's scheme): a binary max-heap of
// variables keyed by activity, ties broken by the lower variable index, so
// the branch variable is the unassigned variable of highest activity and,
// among equals, lowest index -- a deterministic choice in O(log n) per
// decision.  Every unassigned variable is in the heap; assigned ones are
// dropped lazily when they surface at the top and re-inserted when a
// backjump unassigns them.  A bump sifts its variable up; the 1e100 activity
// rescale rebuilds the heap, since rounding can turn two distinct
// activities into a tie whose index order is the reverse.  The learned
// clause database is size-bounded: clause activities are bumped whenever a
// learned clause participates in conflict analysis and the lowest-activity
// half is periodically dropped (binary and locked clauses are exempt), so a
// long incremental query stream cannot grow the solver without bound.
//
// `solve(assumptions)` provides real incremental solving: assumptions are
// enqueued as successive decision levels ahead of ordinary branching (the
// MiniSat scheme), so the clause set -- including everything learned by
// earlier queries -- persists across calls.  Callers scope per-query
// constraints with activation literals: add the query clauses as
// {-act, ...}, solve({act}), and retire the query with addClause({-act}).
//
// Literal convention matches DIMACS: variables are 1-based ints, a negative
// int is the negated literal.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace tauhls::aig {

enum class SatResult { Sat, Unsat, Unknown };

const char* satResultName(SatResult r);

struct SatStats {
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t learned = 0;
  std::uint64_t restarts = 0;

  SatStats& operator+=(const SatStats& o) {
    decisions += o.decisions;
    propagations += o.propagations;
    conflicts += o.conflicts;
    learned += o.learned;
    restarts += o.restarts;
    return *this;
  }
  /// Component-wise difference (for per-query deltas of a shared solver).
  SatStats operator-(const SatStats& o) const {
    return {decisions - o.decisions, propagations - o.propagations,
            conflicts - o.conflicts, learned - o.learned,
            restarts - o.restarts};
  }
};

class SatSolver {
 public:
  /// Allocate a fresh variable; returns its (1-based) index.
  int newVar();
  int numVars() const { return static_cast<int>(assign_.size()); }

  /// Add a clause of DIMACS literals.  Out-of-range variables are allocated
  /// implicitly; an empty clause makes the instance trivially unsatisfiable.
  void addClause(std::vector<int> lits);

  /// Solve the current clause set.  `maxConflicts` bounds the search; when
  /// exceeded the result is Unknown (the caller reports an unproven check
  /// rather than looping forever on an adversarial miter).
  SatResult solve(std::uint64_t maxConflicts = ~std::uint64_t{0});

  /// Solve under `assumptions` (DIMACS literals, each held true for this
  /// call only).  Unsat means unsatisfiable *under the assumptions*; the
  /// clause set itself is untouched, so the solver -- including its learned
  /// clauses -- is reusable for the next query.
  SatResult solve(const std::vector<int>& assumptions,
                  std::uint64_t maxConflicts = ~std::uint64_t{0});

  /// Model value of a variable after a Sat result.
  bool modelValue(int var) const;

  const SatStats& stats() const { return stats_; }

  /// Learned clauses currently alive (deleted ones excluded).
  std::size_t numLearnedClauses() const { return liveLearned_; }
  /// Cap on live learned clauses before activity-based reduction kicks in
  /// (the cap grows geometrically as the instance proves hard).
  void setLearnedLimit(std::size_t limit) { learnedLimit_ = limit; }

 private:
  struct Clause {
    std::vector<int> lits;  ///< internal literals
    double activity = 0.0;
    bool learned = false;
    bool deleted = false;
  };

  // Internal literal encoding: var index v (0-based) -> 2v (positive),
  // 2v+1 (negated).
  static int toInternal(int dimacsLit);
  bool valueOf(int lit) const;         ///< current assignment of internal lit
  bool isUnassigned(int lit) const;
  void assignLit(int lit, int reasonClause);
  bool propagate(int& conflictClause);
  int analyze(int conflictClause, std::vector<int>& learnedOut);
  void backjump(int level);
  void bumpVar(int var);
  void bumpClause(int clauseId);
  void decayActivities();
  bool clauseLocked(int clauseId) const;
  void reduceLearnedDb();
  bool heapBefore(int a, int b) const;  ///< decision order of two vars
  void heapInsert(int var);
  void heapSiftUp(std::size_t pos);
  void heapSiftDown(std::size_t pos);
  int pickBranchVar();
  SatResult search(const std::vector<int>& assumptions,
                   std::uint64_t maxConflicts);

  std::vector<Clause> clauses_;
  std::vector<std::vector<int>> watchers_;      ///< per internal lit: clause ids
  std::vector<signed char> assign_;             ///< per var: -1 unset, 0/1 value
  std::vector<signed char> phase_;              ///< saved phase per var
  std::vector<int> level_;                      ///< decision level per var
  std::vector<int> reason_;                     ///< antecedent clause per var (-1)
  std::vector<double> activity_;
  std::vector<int> heap_;                       ///< decision order heap of vars
  std::vector<int> heapPos_;                    ///< per var: slot in heap_, -1
  std::vector<char> seen_;                      ///< analyze() scratch, all 0
  std::vector<int> trail_;                      ///< assigned internal lits
  std::vector<int> trailLim_;                   ///< trail size per decision level
  std::size_t propagateHead_ = 0;
  double activityInc_ = 1.0;
  double clauseActivityInc_ = 1.0;
  bool unsat_ = false;                          ///< empty clause was added
  std::size_t liveLearned_ = 0;
  std::size_t learnedLimit_ = 4096;
  SatStats stats_;
};

/// Parse a DIMACS CNF document ("c" comments, "p cnf V C" header, clauses
/// terminated by 0).  Returns the clause list; `numVars` receives the
/// header's variable count (grown to fit any larger literal seen).
std::vector<std::vector<int>> parseDimacs(const std::string& text,
                                          int& numVars);

/// Convenience: parse and solve a DIMACS document.
SatResult solveDimacs(const std::string& text,
                      std::uint64_t maxConflicts = ~std::uint64_t{0});

}  // namespace tauhls::aig

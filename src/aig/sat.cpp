#include "aig/sat.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/error.hpp"

namespace tauhls::aig {

const char* satResultName(SatResult r) {
  switch (r) {
    case SatResult::Sat: return "sat";
    case SatResult::Unsat: return "unsat";
    case SatResult::Unknown: return "unknown";
  }
  return "invalid";
}

int SatSolver::toInternal(int dimacsLit) {
  TAUHLS_CHECK(dimacsLit != 0, "DIMACS literal 0 inside a clause");
  const int var = std::abs(dimacsLit) - 1;
  return var * 2 + (dimacsLit < 0 ? 1 : 0);
}

int SatSolver::newVar() {
  assign_.push_back(-1);
  phase_.push_back(0);
  level_.push_back(0);
  reason_.push_back(-1);
  activity_.push_back(0.0);
  heapPos_.push_back(-1);
  seen_.push_back(0);
  watchers_.emplace_back();
  watchers_.emplace_back();
  heapInsert(static_cast<int>(assign_.size()) - 1);
  return static_cast<int>(assign_.size());
}

bool SatSolver::valueOf(int lit) const {
  const signed char a = assign_[static_cast<std::size_t>(lit >> 1)];
  TAUHLS_ASSERT(a >= 0, "valueOf on unassigned literal");
  return (a != 0) != ((lit & 1) != 0);
}

bool SatSolver::isUnassigned(int lit) const {
  return assign_[static_cast<std::size_t>(lit >> 1)] < 0;
}

void SatSolver::assignLit(int lit, int reasonClause) {
  const std::size_t var = static_cast<std::size_t>(lit >> 1);
  TAUHLS_ASSERT(assign_[var] < 0, "double assignment");
  assign_[var] = (lit & 1) ? 0 : 1;
  phase_[var] = assign_[var];
  level_[var] = static_cast<int>(trailLim_.size());
  reason_[var] = reasonClause;
  trail_.push_back(lit);
  ++stats_.propagations;
}

void SatSolver::backjump(int targetLevel) {
  if (static_cast<int>(trailLim_.size()) <= targetLevel) return;
  const std::size_t keep =
      static_cast<std::size_t>(trailLim_[static_cast<std::size_t>(targetLevel)]);
  for (std::size_t i = trail_.size(); i > keep; --i) {
    const int var = trail_[i - 1] >> 1;
    assign_[static_cast<std::size_t>(var)] = -1;
    heapInsert(var);
  }
  trail_.resize(keep);
  trailLim_.resize(static_cast<std::size_t>(targetLevel));
  propagateHead_ = std::min(propagateHead_, trail_.size());
}

void SatSolver::addClause(std::vector<int> lits) {
  backjump(0);
  // Grow the variable set to cover every referenced literal.
  for (const int l : lits) {
    while (std::abs(l) > numVars()) newVar();
  }
  // Normalize against the permanent (level-0) assignment: drop false
  // literals, drop the clause when satisfied, reject duplicates/tautologies.
  std::vector<int> clause;
  for (const int dl : lits) {
    const int l = toInternal(dl);
    if (!isUnassigned(l)) {
      if (valueOf(l)) return;  // permanently satisfied
      continue;                // permanently false literal: drop it
    }
    if (std::find(clause.begin(), clause.end(), l) != clause.end()) continue;
    if (std::find(clause.begin(), clause.end(), l ^ 1) != clause.end()) {
      return;  // tautology
    }
    clause.push_back(l);
  }
  if (clause.empty()) {
    unsat_ = true;
    return;
  }
  if (clause.size() == 1) {
    assignLit(clause[0], -1);  // level-0 fact; propagated at the next solve
    return;
  }
  const int id = static_cast<int>(clauses_.size());
  watchers_[static_cast<std::size_t>(clause[0])].push_back(id);
  watchers_[static_cast<std::size_t>(clause[1])].push_back(id);
  clauses_.push_back(Clause{std::move(clause), 0.0, false, false});
}

bool SatSolver::propagate(int& conflictClause) {
  while (propagateHead_ < trail_.size()) {
    const int p = trail_[propagateHead_++];
    const int falseLit = p ^ 1;
    std::vector<int>& ws = watchers_[static_cast<std::size_t>(falseLit)];
    std::size_t keep = 0;
    for (std::size_t wi = 0; wi < ws.size(); ++wi) {
      const int ci = ws[wi];
      Clause& cl = clauses_[static_cast<std::size_t>(ci)];
      if (cl.deleted) continue;  // tombstone: drop the watcher lazily
      std::vector<int>& c = cl.lits;
      if (c[0] == falseLit) std::swap(c[0], c[1]);
      // Invariant now: c[1] == falseLit.
      if (!isUnassigned(c[0]) && valueOf(c[0])) {
        ws[keep++] = ci;  // satisfied by the other watch
        continue;
      }
      bool moved = false;
      for (std::size_t k = 2; k < c.size(); ++k) {
        if (isUnassigned(c[k]) || valueOf(c[k])) {
          std::swap(c[1], c[k]);
          watchers_[static_cast<std::size_t>(c[1])].push_back(ci);
          moved = true;
          break;
        }
      }
      if (moved) continue;
      ws[keep++] = ci;  // stays watched on falseLit
      if (!isUnassigned(c[0])) {
        // c[0] false too: conflict.  Preserve the remaining watchers.
        for (std::size_t rest = wi + 1; rest < ws.size(); ++rest) {
          ws[keep++] = ws[rest];
        }
        ws.resize(keep);
        conflictClause = ci;
        return false;
      }
      assignLit(c[0], ci);
    }
    ws.resize(keep);
  }
  return true;
}

void SatSolver::bumpVar(int var) {
  const std::size_t v = static_cast<std::size_t>(var);
  activity_[v] += activityInc_;
  if (activity_[v] > 1e100) {
    for (double& act : activity_) act *= 1e-100;
    activityInc_ *= 1e-100;
    // Rounding can tie two activities against their index order: re-heapify.
    for (std::size_t i = heap_.size() / 2; i-- > 0;) heapSiftDown(i);
  } else if (heapPos_[v] >= 0) {
    heapSiftUp(static_cast<std::size_t>(heapPos_[v]));
  }
}

void SatSolver::bumpClause(int clauseId) {
  Clause& c = clauses_[static_cast<std::size_t>(clauseId)];
  if (!c.learned) return;
  c.activity += clauseActivityInc_;
  if (c.activity > 1e100) {
    for (Clause& cl : clauses_) cl.activity *= 1e-100;
    clauseActivityInc_ *= 1e-100;
  }
}

void SatSolver::decayActivities() {
  activityInc_ /= 0.95;
  clauseActivityInc_ /= 0.999;
}

bool SatSolver::heapBefore(int a, int b) const {
  const double actA = activity_[static_cast<std::size_t>(a)];
  const double actB = activity_[static_cast<std::size_t>(b)];
  return actA > actB || (actA == actB && a < b);
}

void SatSolver::heapInsert(int var) {
  if (heapPos_[static_cast<std::size_t>(var)] >= 0) return;
  heap_.push_back(var);
  heapSiftUp(heap_.size() - 1);
}

void SatSolver::heapSiftUp(std::size_t pos) {
  const int var = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!heapBefore(var, heap_[parent])) break;
    heap_[pos] = heap_[parent];
    heapPos_[static_cast<std::size_t>(heap_[pos])] = static_cast<int>(pos);
    pos = parent;
  }
  heap_[pos] = var;
  heapPos_[static_cast<std::size_t>(var)] = static_cast<int>(pos);
}

void SatSolver::heapSiftDown(std::size_t pos) {
  const int var = heap_[pos];
  while (true) {
    std::size_t child = 2 * pos + 1;
    if (child >= heap_.size()) break;
    if (child + 1 < heap_.size() && heapBefore(heap_[child + 1], heap_[child])) {
      ++child;
    }
    if (!heapBefore(heap_[child], var)) break;
    heap_[pos] = heap_[child];
    heapPos_[static_cast<std::size_t>(heap_[pos])] = static_cast<int>(pos);
    pos = child;
  }
  heap_[pos] = var;
  heapPos_[static_cast<std::size_t>(var)] = static_cast<int>(pos);
}

int SatSolver::pickBranchVar() {
  // Assigned variables leave the heap here, lazily; backjump re-inserts them.
  while (!heap_.empty()) {
    const int top = heap_.front();
    heapPos_[static_cast<std::size_t>(top)] = -1;
    const int last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
      heap_.front() = last;
      heapSiftDown(0);
    }
    if (assign_[static_cast<std::size_t>(top)] < 0) return top;
  }
  return -1;
}

int SatSolver::analyze(int conflictClause, std::vector<int>& learnedOut) {
  learnedOut.assign(1, 0);  // slot 0: the asserting (first-UIP) literal
  const int currentLevel = static_cast<int>(trailLim_.size());
  int counter = 0;
  int pVar = -1;
  std::size_t index = trail_.size();

  while (true) {
    TAUHLS_ASSERT(conflictClause >= 0, "conflict analysis hit a decision");
    bumpClause(conflictClause);
    const std::vector<int>& c =
        clauses_[static_cast<std::size_t>(conflictClause)].lits;
    // For reason clauses c[0] is the literal being resolved on; skip it.
    for (std::size_t i = (pVar < 0 ? 0 : 1); i < c.size(); ++i) {
      const int q = c[i];
      const std::size_t v = static_cast<std::size_t>(q >> 1);
      if (seen_[v] || level_[v] == 0) continue;
      seen_[v] = 1;
      bumpVar(static_cast<int>(v));
      if (level_[v] == currentLevel) {
        ++counter;
      } else {
        learnedOut.push_back(q);
      }
    }
    do {
      --index;
    } while (!seen_[static_cast<std::size_t>(trail_[index] >> 1)]);
    const int p = trail_[index];
    pVar = p >> 1;
    seen_[static_cast<std::size_t>(pVar)] = 0;
    --counter;
    if (counter == 0) {
      learnedOut[0] = p ^ 1;
      break;
    }
    conflictClause = reason_[static_cast<std::size_t>(pVar)];
  }
  // Every current-level variable was unmarked as it was resolved; the tail
  // literals' variables are the only ones still marked.
  for (std::size_t i = 1; i < learnedOut.size(); ++i) {
    seen_[static_cast<std::size_t>(learnedOut[i] >> 1)] = 0;
  }

  // Backjump destination: the highest level among the tail literals; move
  // one literal of that level to slot 1 so it is watched after learning.
  int backLevel = 0;
  for (std::size_t i = 1; i < learnedOut.size(); ++i) {
    const int lv = level_[static_cast<std::size_t>(learnedOut[i] >> 1)];
    if (lv > backLevel) {
      backLevel = lv;
      std::swap(learnedOut[1], learnedOut[i]);
    }
  }
  return backLevel;
}

bool SatSolver::clauseLocked(int clauseId) const {
  const Clause& c = clauses_[static_cast<std::size_t>(clauseId)];
  if (c.lits.empty()) return false;
  const std::size_t var = static_cast<std::size_t>(c.lits[0] >> 1);
  return assign_[var] >= 0 && reason_[var] == clauseId;
}

void SatSolver::reduceLearnedDb() {
  // Candidates: live learned clauses that are neither binary (cheap to keep,
  // expensive to relearn) nor locked (the reason of a current assignment).
  std::vector<int> candidates;
  for (std::size_t ci = 0; ci < clauses_.size(); ++ci) {
    const Clause& c = clauses_[ci];
    if (!c.learned || c.deleted || c.lits.size() <= 2) continue;
    if (clauseLocked(static_cast<int>(ci))) continue;
    candidates.push_back(static_cast<int>(ci));
  }
  // Drop the lowest-activity half.  The sort key is (activity, id), so the
  // reduction is deterministic for a given query stream.
  std::sort(candidates.begin(), candidates.end(), [&](int a, int b) {
    const Clause& ca = clauses_[static_cast<std::size_t>(a)];
    const Clause& cb = clauses_[static_cast<std::size_t>(b)];
    if (ca.activity != cb.activity) return ca.activity < cb.activity;
    return a < b;
  });
  const std::size_t toDrop = candidates.size() / 2;
  for (std::size_t i = 0; i < toDrop; ++i) {
    Clause& c = clauses_[static_cast<std::size_t>(candidates[i])];
    c.deleted = true;
    c.lits.clear();
    c.lits.shrink_to_fit();  // tombstone: watcher lists are pruned lazily
    --liveLearned_;
  }
  // Let the database grow before the next reduction: a stream of hard
  // queries keeps more context, easy ones stay small.
  learnedLimit_ += learnedLimit_ / 2;
}

SatResult SatSolver::search(const std::vector<int>& assumptions,
                            std::uint64_t maxConflicts) {
  if (unsat_) return SatResult::Unsat;
  for (const int a : assumptions) {
    while (std::abs(a) > numVars()) newVar();
  }
  backjump(0);
  propagateHead_ = 0;

  std::uint64_t conflictsThisCall = 0;
  std::uint64_t restartLimit = 128;
  std::uint64_t conflictsSinceRestart = 0;
  std::vector<int> learned;

  while (true) {
    int conflictClause = -1;
    if (!propagate(conflictClause)) {
      ++stats_.conflicts;
      ++conflictsThisCall;
      ++conflictsSinceRestart;
      if (trailLim_.empty()) return SatResult::Unsat;
      if (conflictsThisCall > maxConflicts) {
        backjump(0);
        return SatResult::Unknown;
      }
      const int backLevel = analyze(conflictClause, learned);
      backjump(backLevel);
      if (learned.size() == 1) {
        assignLit(learned[0], -1);  // level-0 fact
      } else {
        const int id = static_cast<int>(clauses_.size());
        watchers_[static_cast<std::size_t>(learned[0])].push_back(id);
        watchers_[static_cast<std::size_t>(learned[1])].push_back(id);
        clauses_.push_back(Clause{learned, 0.0, true, false});
        ++stats_.learned;
        ++liveLearned_;
        bumpClause(id);
        assignLit(learned[0], id);
      }
      decayActivities();
      continue;
    }
    if (conflictsSinceRestart >= restartLimit) {
      ++stats_.restarts;
      conflictsSinceRestart = 0;
      restartLimit += restartLimit / 2;
      backjump(0);
      if (liveLearned_ > learnedLimit_) reduceLearnedDb();
      continue;
    }
    // Assumptions occupy the first decision levels; re-enqueue any that a
    // backjump removed before ordinary branching resumes.
    if (trailLim_.size() < assumptions.size()) {
      const int lit = toInternal(assumptions[trailLim_.size()]);
      if (!isUnassigned(lit) && !valueOf(lit)) {
        // The clause set forces this assumption false: Unsat under the
        // assumptions, with the permanent clauses untouched.
        backjump(0);
        return SatResult::Unsat;
      }
      trailLim_.push_back(static_cast<int>(trail_.size()));
      if (isUnassigned(lit)) assignLit(lit, -1);
      continue;  // dummy level when already true, keeping indices aligned
    }
    const int branchVar = pickBranchVar();
    // Full assignment: a model.  It stays in place for modelValue(); the
    // next solve/addClause call backjumps to level 0 first.
    if (branchVar < 0) return SatResult::Sat;
    ++stats_.decisions;
    trailLim_.push_back(static_cast<int>(trail_.size()));
    assignLit(branchVar * 2 + (phase_[static_cast<std::size_t>(branchVar)]
                                   ? 0
                                   : 1),
              -1);
  }
}

SatResult SatSolver::solve(std::uint64_t maxConflicts) {
  return search({}, maxConflicts);
}

SatResult SatSolver::solve(const std::vector<int>& assumptions,
                           std::uint64_t maxConflicts) {
  return search(assumptions, maxConflicts);
}

bool SatSolver::modelValue(int var) const {
  TAUHLS_CHECK(var >= 1 && var <= numVars(), "modelValue variable out of range");
  const signed char a = assign_[static_cast<std::size_t>(var - 1)];
  TAUHLS_CHECK(a >= 0, "modelValue without a satisfying assignment");
  return a != 0;
}

std::vector<std::vector<int>> parseDimacs(const std::string& text,
                                          int& numVars) {
  numVars = 0;
  std::vector<std::vector<int>> clauses;
  std::vector<int> current;
  std::istringstream in(text);
  std::string token;
  bool sawHeader = false;
  while (in >> token) {
    if (token == "c") {
      std::string rest;
      std::getline(in, rest);
      continue;
    }
    if (token == "p") {
      std::string fmt;
      int declaredClauses = 0;
      TAUHLS_CHECK(static_cast<bool>(in >> fmt >> numVars >> declaredClauses) &&
                       fmt == "cnf",
                   "malformed DIMACS header");
      sawHeader = true;
      continue;
    }
    if (token == "%") break;  // SATLIB end-of-instance marker
    int lit = 0;
    try {
      lit = std::stoi(token);
    } catch (const std::exception&) {
      TAUHLS_FAIL("malformed DIMACS token '" + token + "'");
    }
    if (lit == 0) {
      clauses.push_back(current);
      current.clear();
    } else {
      numVars = std::max(numVars, std::abs(lit));
      current.push_back(lit);
    }
  }
  TAUHLS_CHECK(sawHeader, "DIMACS document lacks a 'p cnf' header");
  TAUHLS_CHECK(current.empty(), "DIMACS clause not terminated by 0");
  return clauses;
}

SatResult solveDimacs(const std::string& text, std::uint64_t maxConflicts) {
  int numVars = 0;
  const std::vector<std::vector<int>> clauses = parseDimacs(text, numVars);
  SatSolver solver;
  while (solver.numVars() < numVars) solver.newVar();
  for (const std::vector<int>& c : clauses) solver.addClause(c);
  return solver.solve(maxConflicts);
}

}  // namespace tauhls::aig

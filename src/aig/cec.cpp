#include "aig/cec.hpp"

#include <optional>

#include "aig/unroll.hpp"
#include "common/error.hpp"

namespace tauhls::aig {

namespace {

/// A miter AIG rewriting/hashing already decided; a constant-true miter has
/// no support, so its witness is the empty assignment.
std::optional<CecResult> constantMiter(Lit miter) {
  if (miter != kLitFalse && miter != kLitTrue) return std::nullopt;
  CecResult result;
  result.status = miter == kLitFalse ? SatResult::Unsat : SatResult::Sat;
  return result;
}

/// Each support input of `miter` by name with its solver variable, encoded
/// before the miter is asserted so a model can be read back.
using SupportVars = std::vector<std::pair<std::string, int>>;
SupportVars supportVars(const Aig& g, Lit miter, CnfEncoder& encoder) {
  SupportVars out;
  for (const std::size_t idx : g.support(miter)) {
    const std::string& name = g.inputNames()[idx];
    out.emplace_back(name, encoder.encode(g.findInput(name)));
  }
  return out;
}

/// A query's answer, its solver delta since `before`, and on Sat the model
/// of each support input.
CecResult answer(SatResult status, const SatSolver& solver,
                 const SatStats& before, const SupportVars& support) {
  CecResult result;
  result.status = status;
  result.stats = solver.stats() - before;
  if (status != SatResult::Sat) return result;
  for (const auto& [name, var] : support) {
    result.counterexample.emplace_back(name, solver.modelValue(var));
  }
  return result;
}

}  // namespace

CecResult proveEquivalent(Aig& g, Lit a, Lit b, Lit constraint,
                          std::uint64_t maxConflicts) {
  return checkSatisfiable(g, g.andLit(constraint, g.xorLit(a, b)),
                          maxConflicts);
}

CecResult checkSatisfiable(const Aig& g, Lit root,
                           std::uint64_t maxConflicts) {
  if (auto done = constantMiter(root)) return *done;
  SatSolver solver;
  CnfEncoder encoder(g, solver);
  const SupportVars support = supportVars(g, root, encoder);
  solver.addClause({encoder.encode(root)});
  return answer(solver.solve(maxConflicts), solver, SatStats{}, support);
}

struct IncrementalCec::Impl {
  explicit Impl(Aig& graph) : g(&graph), encoder(graph, solver) {}

  Aig* g;
  SatSolver solver;
  CnfEncoder encoder;
};

IncrementalCec::IncrementalCec(Aig& g) : impl_(std::make_unique<Impl>(g)) {}

IncrementalCec::~IncrementalCec() = default;

const SatStats& IncrementalCec::totalStats() const {
  return impl_->solver.stats();
}

CecResult IncrementalCec::prove(Lit a, Lit b, Lit constraint,
                                std::uint64_t maxConflicts) {
  Aig& g = *impl_->g;
  const Lit miter = g.andLit(constraint, g.xorLit(a, b));
  if (auto done = constantMiter(miter)) return *done;
  SatSolver& solver = impl_->solver;
  const SatStats before = solver.stats();
  const SupportVars support = supportVars(g, miter, impl_->encoder);
  // Scope the miter assertion behind a fresh activation literal: solving
  // assumes it, retiring it afterwards permanently satisfies the clause.
  const int act = solver.newVar();
  solver.addClause({-act, impl_->encoder.encode(miter)});
  CecResult result = answer(solver.solve(std::vector<int>{act}, maxConflicts),
                            solver, before, support);
  solver.addClause({-act});  // retire the query
  return result;
}

}  // namespace tauhls::aig

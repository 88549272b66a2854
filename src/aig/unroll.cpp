#include "aig/unroll.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace tauhls::aig {

int CnfEncoder::varOf(std::uint32_t node) {
  const auto it = var_.find(node);
  if (it != var_.end()) return it->second;
  // Materialize fanins first; the AIG is acyclic so recursion is bounded by
  // cone depth.
  if (g_->isAnd(node)) {
    const int a = encode(g_->fanin0(node));
    const int b = encode(g_->fanin1(node));
    const int v = solver_->newVar();
    var_.emplace(node, v);
    solver_->addClause({-v, a});
    solver_->addClause({-v, b});
    solver_->addClause({v, -a, -b});
    return v;
  }
  const int v = solver_->newVar();
  var_.emplace(node, v);
  if (node == 0) solver_->addClause({-v});  // the constant-false node
  return v;
}

Unroller::Unroller(Aig& g, const SeqModel& model, std::string tag,
                   bool initFrame0)
    : g_(&g), model_(&model), tag_(std::move(tag)), initFrame0_(initFrame0) {
  for (std::size_t v = 0; v < model.vars.size(); ++v) {
    const Lit cur = model.vars[v].cur;
    TAUHLS_CHECK(!isNegated(cur) && g.isInput(nodeOf(cur)),
                 "SeqVar::cur must be a positive template input literal: " +
                     model.vars[v].name);
    const bool fresh = stateVarOfInput_.emplace(nodeOf(cur), v).second;
    TAUHLS_CHECK(fresh, "duplicate SeqVar::cur literal: " + model.vars[v].name);
  }
  frame0Free_.assign(model.vars.size(), kLitFalse);
}

Lit Unroller::state(int frame, std::size_t v) {
  TAUHLS_ASSERT(v < model_->vars.size(), "state var index out of range");
  if (frame == 0) {
    if (initFrame0_) return model_->vars[v].init ? kLitTrue : kLitFalse;
    if (frame0Free_[v] == kLitFalse) {
      frame0Free_[v] = g_->addInput(model_->vars[v].name + "@" + tag_ + "0");
    }
    return frame0Free_[v];
  }
  return at(frame - 1, model_->vars[v].next);
}

Lit Unroller::at(int frame, Lit templateLit) {
  const std::uint32_t node = nodeOf(templateLit);
  Lit base = kLitFalse;
  const auto key = std::make_pair(node, frame);
  const auto it = memo_.find(key);
  if (it != memo_.end()) {
    base = it->second;
  } else if (node == 0) {
    base = kLitFalse;  // constants are frame-independent
  } else if (g_->isAnd(node)) {
    const Lit a = at(frame, g_->fanin0(node));
    const Lit b = at(frame, g_->fanin1(node));
    base = g_->andLit(a, b);
    memo_.emplace(key, base);
  } else {
    const auto sv = stateVarOfInput_.find(node);
    if (sv != stateVarOfInput_.end()) {
      base = state(frame, sv->second);
    } else {  // free input: fresh instance per frame
      base = g_->addInput(g_->inputNames()[g_->inputIndexOf(node)] + "@" +
                          tag_ + std::to_string(frame));
    }
    memo_.emplace(key, base);
  }
  return isNegated(templateLit) ? negate(base) : base;
}

std::vector<Lit> Unroller::stateVector(int frame) {
  std::vector<Lit> out;
  out.reserve(model_->vars.size());
  for (std::size_t v = 0; v < model_->vars.size(); ++v) {
    out.push_back(state(frame, v));
  }
  return out;
}

const char* propertyVerdictName(PropertyVerdict v) {
  switch (v) {
    case PropertyVerdict::Proved: return "PROVED";
    case PropertyVerdict::Counterexample: return "CEX";
    case PropertyVerdict::Unknown: return "UNKNOWN";
  }
  return "UNKNOWN";
}

FrameModel::FrameModel(Aig& g, Unroller& unroller, const CnfEncoder& enc,
                       const SatSolver& solver)
    : g_(&g), unroller_(&unroller), vals_(g.numInputs(), false) {
  for (std::size_t i = 0; i < g.numInputs(); ++i) {
    const int var = enc.varIfEncoded(nodeOf(g.findInput(g.inputNames()[i])));
    if (var != 0) vals_[i] = solver.modelValue(var);
  }
}

bool FrameModel::eval(int frame, Lit templateLit) {
  const Lit l = unroller_->at(frame, templateLit);
  if (g_->numInputs() > vals_.size()) {
    vals_.resize(g_->numInputs(), false);  // unconstrained: pick 0
  }
  return g_->evaluate(l, vals_);
}

SafetyResult proveSafety(Aig& g, const SeqModel& model,
                         const SafetyProblem& problem,
                         const CounterexampleFn& onCounterexample) {
  SafetyResult out;
  out.properties.resize(problem.bad.size());
  // The induction hypothesis per property; just !bad without an invariant.
  std::vector<Lit> good;
  for (const Lit bad : problem.bad) {
    good.push_back(g.andLit(problem.invariant, negate(bad)));
  }

  SatSolver solver;
  CnfEncoder enc(g, solver);
  Unroller bmc(g, model, "b", /*initFrame0=*/true);
  Unroller ind(g, model, "i", /*initFrame0=*/false);
  // A query's cost runs from before its literals are encoded to its answer.
  auto charge = [&](SatCost& cost, const SatStats& before) {
    cost.stats += solver.stats() - before;
    ++cost.queries;
  };
  // Is `cone` true `depth` steps from reset?  A refutation is kept as a
  // clause: implied, and it helps the later frames.
  auto reachable = [&](Lit cone, int depth, SatCost& cost) {
    const SatStats before = solver.stats();
    const int lit = enc.encode(bmc.at(depth, cone));
    const SatResult res =
        solver.solve(std::vector<int>{lit}, problem.maxConflicts);
    charge(cost, before);
    if (res == SatResult::Unsat) solver.addClause({-lit});
    return res;
  };
  auto open = [](const SafetyVerdict& v) {
    return v.verdict == PropertyVerdict::Unknown;
  };

  // Simple-path difference literals over the free unrolling, built on demand.
  std::map<std::pair<int, int>, int> diffLit;
  auto pathDiff = [&](int i, int j) {
    const auto [it, fresh] = diffLit.try_emplace({i, j}, 0);
    if (fresh) {
      const Lit eq = g.eqVec(ind.stateVector(i), ind.stateVector(j));
      it->second = enc.encode(negate(eq));
    }
    return it->second;
  };

  for (int depth = 0;
       depth <= problem.maxDepth && std::ranges::any_of(out.properties, open);
       ++depth) {
    for (std::size_t p = 0; p < problem.bad.size(); ++p) {
      SafetyVerdict& r = out.properties[p];
      if (!open(r)) continue;
      const SatResult res = reachable(problem.bad[p], depth, r.cost);
      if (res == SatResult::Unsat && r.depthReached == depth - 1) {
        r.depthReached = depth;
      }
      if (res != SatResult::Sat) continue;  // Unknown: retried deeper
      r.verdict = PropertyVerdict::Counterexample;
      r.cexFrame = depth;
      FrameModel frames(g, bmc, enc, solver);
      onCounterexample(p, depth, frames);
    }

    if (out.invariantHolds && problem.invariant != kLitTrue) {
      out.invariantHolds =
          reachable(negate(problem.invariant), depth, out.invariantCost) ==
          SatResult::Unsat;
    }
    if (!out.invariantHolds) continue;

    const int k = depth + 1;
    for (std::size_t p = 0; p < problem.bad.size(); ++p) {
      SafetyVerdict& r = out.properties[p];
      if (r.depthReached != depth) continue;  // closed, or base not 0..depth
      const SatStats before = solver.stats();
      std::vector<int> assumptions;
      for (int i = 0; i < k; ++i) {
        assumptions.push_back(enc.encode(ind.at(i, good[p])));
      }
      assumptions.push_back(-enc.encode(ind.at(k, good[p])));
      for (int i = 0; i < k && problem.simplePath; ++i) {
        for (int j = i + 1; j <= k; ++j) assumptions.push_back(pathDiff(i, j));
      }
      const SatResult res = solver.solve(assumptions, problem.maxConflicts);
      charge(r.cost, before);
      if (res == SatResult::Unsat) {
        r.verdict = PropertyVerdict::Proved;
        r.inductionK = k;
      }
    }
  }
  return out;
}

}  // namespace tauhls::aig

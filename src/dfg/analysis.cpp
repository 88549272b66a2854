#include "dfg/analysis.hpp"

#include <algorithm>
#include <cstdint>
#include <queue>

#include "common/error.hpp"

namespace tauhls::dfg {

DurationFn unitDurations(const Dfg& g) {
  return [&g](NodeId id) { return g.isInput(id) ? 0 : 1; };
}

std::vector<NodeId> topologicalOrder(const Dfg& g) {
  const std::size_t n = g.numNodes();
  std::vector<int> indeg(n, 0);
  for (NodeId i = 0; i < n; ++i) {
    indeg[i] = static_cast<int>(g.combinedPredecessors(i).size());
  }
  std::queue<NodeId> ready;
  for (NodeId i = 0; i < n; ++i) {
    if (indeg[i] == 0) ready.push(i);
  }
  std::vector<NodeId> order;
  order.reserve(n);
  while (!ready.empty()) {
    NodeId v = ready.front();
    ready.pop();
    order.push_back(v);
    for (NodeId s : g.combinedSuccessors(v)) {
      if (--indeg[s] == 0) ready.push(s);
    }
  }
  return order;
}

std::vector<int> longestPathTo(const Dfg& g, const DurationFn& dur) {
  const std::vector<NodeId> order = topologicalOrder(g);
  TAUHLS_CHECK(order.size() == g.numNodes(), "longestPathTo requires a DAG");
  std::vector<int> dist(g.numNodes(), 0);
  for (NodeId v : order) {
    int best = 0;
    for (NodeId p : g.combinedPredecessors(v)) {
      best = std::max(best, dist[p]);
    }
    dist[v] = best + dur(v);
  }
  return dist;
}

int criticalPathLength(const Dfg& g, const DurationFn& dur) {
  if (g.numNodes() == 0) return 0;
  const std::vector<int> dist = longestPathTo(g, dur);
  return *std::max_element(dist.begin(), dist.end());
}

bool reaches(const Dfg& g, NodeId from, NodeId to) {
  if (from == to) return false;
  // Search backwards from `to`: each node stores its operands, and one pass
  // indexes the sequencing edges by head (CSR), so a query costs O(V + E).
  const std::size_t n = g.numNodes();
  std::vector<std::uint32_t> offsets(n + 1, 0);
  for (const auto* edges : {&g.scheduleArcs(), &g.stateEdges()}) {
    for (const ScheduleArc& a : *edges) ++offsets[a.to + 1];
  }
  for (std::size_t i = 0; i < n; ++i) offsets[i + 1] += offsets[i];
  std::vector<NodeId> tails(offsets[n]);
  std::vector<std::uint32_t> next(offsets.begin(), offsets.end() - 1);
  for (const auto* edges : {&g.scheduleArcs(), &g.stateEdges()}) {
    for (const ScheduleArc& a : *edges) tails[next[a.to]++] = a.from;
  }
  std::vector<bool> seen(n, false);
  std::vector<NodeId> stack;
  const auto push = [&](NodeId v) {
    if (!seen[v]) {
      seen[v] = true;
      stack.push_back(v);
    }
  };
  push(to);
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    if (v == from) return true;
    for (NodeId u : g.node(v).operands) push(u);
    for (std::uint32_t k = offsets[v]; k < offsets[v + 1]; ++k) push(tails[k]);
  }
  return false;
}

std::vector<std::vector<bool>> reachabilityClosure(const Dfg& g) {
  const std::size_t n = g.numNodes();
  std::vector<std::vector<bool>> reach(n, std::vector<bool>(n, false));
  const std::vector<NodeId> order = topologicalOrder(g);
  TAUHLS_CHECK(order.size() == n, "reachabilityClosure requires a DAG");
  // Process in reverse topological order so successor closures are complete.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    NodeId v = *it;
    for (NodeId s : g.combinedSuccessors(v)) {
      reach[v][s] = true;
      for (std::size_t t = 0; t < n; ++t) {
        if (reach[s][t]) reach[v][t] = true;
      }
    }
  }
  return reach;
}

}  // namespace tauhls::dfg

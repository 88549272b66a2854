// Structural analyses over Dfg: topological order, longest paths, depths.
#pragma once

#include <functional>
#include <vector>

#include "dfg/graph.hpp"

namespace tauhls::dfg {

/// Per-node integer duration (in clock cycles) used by path analyses.
/// Input nodes must map to 0.
using DurationFn = std::function<int(NodeId)>;

/// Duration function assigning 1 cycle to every operation, 0 to inputs.
DurationFn unitDurations(const Dfg& g);

/// Kahn topological order over data edges + schedule arcs.  When the graph is
/// cyclic the returned order is truncated (size < numNodes) -- callers that
/// require a DAG should check or call Dfg::validate() first.
std::vector<NodeId> topologicalOrder(const Dfg& g);

/// Longest path (sum of durations) from any source to each node, inclusive of
/// the node's own duration.  Follows data edges and schedule arcs.
std::vector<int> longestPathTo(const Dfg& g, const DurationFn& dur);

/// Critical-path length of the whole graph under `dur`.
int criticalPathLength(const Dfg& g, const DurationFn& dur);

/// True when `from` reaches `to` through data edges, schedule arcs and
/// state edges.  O(V + E) per query.
bool reaches(const Dfg& g, NodeId from, NodeId to);

/// All-pairs reachability closure (data + schedule arcs); entry [a][b] is true
/// when a reaches b (a != b).  O(V*E/64) bitset-free implementation, fine for
/// HLS-sized graphs.
std::vector<std::vector<bool>> reachabilityClosure(const Dfg& g);

}  // namespace tauhls::dfg

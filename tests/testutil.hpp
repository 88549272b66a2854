// Shared helpers for the test suites.
#pragma once

#include <string>
#include <vector>

#include "dfg/graph.hpp"
#include "dfg/random.hpp"
#include "sched/scheduled_dfg.hpp"

namespace tauhls::test {

/// Names of the given nodes, in order (readable gtest failure messages).
std::vector<std::string> namesOf(const dfg::Dfg& g,
                                 const std::vector<dfg::NodeId>& ids);

/// True when `order` is a valid topological order of g (data + schedule arcs).
bool isTopologicalOrder(const dfg::Dfg& g, const std::vector<dfg::NodeId>& order);

/// Simple diamond DFG used by many unit tests:
///   in a,b ; m1=a*b ; m2=a*b ; s=m1+m2 ; out s
dfg::Dfg diamond();

/// A chain of `n` multiplications (each feeding the next).
dfg::Dfg mulChain(int n);

/// `n` independent multiplications (maximal concurrency).
dfg::Dfg parallelMuls(int n);

/// A layered graph of 6 ranks of 4 ops (RandomDfgSpec seed 2, 800 per-mille
/// multiplies): 24 ops, 21 of them multiplications, so its exact latency
/// sweep walks 2^21 masks -- more than any paper design.
dfg::Dfg layered21Muls();

/// The schedules the engine-agreement properties sweep for one spec:
/// randomDfg(spec) and a layered graph of 2-3 ranks of 2-4 ops drawn from the
/// same seed, each bound by left-edge and by clique cover (2 multipliers,
/// 1 adder, 1 subtractor).
std::vector<sched::ScheduledDfg> propertySchedules(
    const dfg::RandomDfgSpec& spec, const tau::ResourceLibrary& lib);

}  // namespace tauhls::test

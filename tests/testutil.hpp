// Shared helpers for the test suites.
#pragma once

#include <string>
#include <vector>

#include "dfg/graph.hpp"
#include "dfg/random.hpp"
#include "fsm/machine.hpp"
#include "logic/cover.hpp"
#include "logic/minimize.hpp"
#include "logic/truth_table.hpp"
#include "sched/scheduled_dfg.hpp"
#include "synth/extract.hpp"

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

// --- the truth-table synthesis oracle ----------------------------------------
//
// Controller logic through explicit tables: one 2^numVars table per
// function, and above 14 variables (or 4096 onset + don't-care rows) a
// bit-parallel expand over row bitsets.  The cube engines in src/ never
// build those tables and must reproduce these covers cube for cube.

/// The bit-parallel table expand: row sets are 64-rows-per-word bitsets, so
/// each trial literal drop is tested against the offset in O(rows/64) word
/// operations.  Makes logic::minimizeExpandReference's decisions in the
/// same order, so the covers are identical.
logic::Cover minimizeExpandTable(const logic::TruthTable& tt);

/// The spec of `tt` as minterm cubes: one onset cube per 1 row, one offset
/// cube per 0 row, in row order.
logic::CubeSpec specOf(const logic::TruthTable& tt);

/// `fsm` under `style` through explicit tables: a sweep of all 2^numVars
/// rows over guards compiled to bitmask terms (rows of no reachable state
/// are don't-cares), each table minimized by logic::minimizeExact or
/// minimizeExpandTable under logic::minimize's dispatch rule.  No
/// 22-variable wall, no deduplication.
synth::SynthesizedFsm synthesizeFromTables(const fsm::Fsm& fsm,
                                           synth::EncodingStyle style);

}  // namespace tauhls::test

// The reference simulator: the original per-node std::priority_queue
// implementation with its reference-counting MemoryTracker, kept test-side
// as the differential oracle for the library's data-oriented core
// (src/sim/sim_core.cpp). The library ships one simulator; the sim, simdiff
// and fuzz suites run this one beside it and demand bit-identical results.
// Both pop ready nodes and drain events through the comparators in
// sim/sim_order.h. Beside it sits the original extra-edge fixpoint for the
// scheduler's resource-chained ranks, the oracle for sched::rank_priorities.
#pragma once

#include <vector>

#include "compile/dist_graph.h"
#include "sim/simulator.h"

namespace heterog::testing {

/// Runs `graph` under `options.policy` with the given priorities. Rejects
/// the inputs sim::Simulator rejects (sim::validate_for_simulation), then
/// simulates from scratch.
sim::SimResult reference_run(const compile::DistGraph& graph,
                             const std::vector<double>& priorities,
                             const sim::SimOptions& options = sim::SimOptions());

/// Like sim::Simulator::run: the priorities sched::priorities gives
/// `options.policy`.
sim::SimResult reference_run(const compile::DistGraph& graph,
                             const sim::SimOptions& options = sim::SimOptions());

/// The resource-chained upward ranks sched::rank_priorities returns, computed
/// the way the library first did: the communication nodes of each resource
/// chained in `topo` order as extra edges, one reverse sweep of `topo`, then
/// further sweeps until no rank changes.
std::vector<double> reference_rank_priorities(
    const compile::DistGraph& graph, const std::vector<compile::DistNodeId>& topo);

}  // namespace heterog::testing

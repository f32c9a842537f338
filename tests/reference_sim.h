// The reference simulator: the original per-node std::priority_queue
// implementation with its reference-counting MemoryTracker, kept test-side
// as the differential oracle for the library's data-oriented core
// (src/sim/sim_core.cpp). The library ships one simulator; the sim, simdiff
// and fuzz suites run this one beside it and demand bit-identical results.
// Both pop ready nodes and drain events through the comparators in
// sim/sim_order.h.
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

}  // namespace heterog::testing

// Data-oriented simulator core (DESIGN.md §5i).
//
// The original simulator (kept test-side as the differential oracle,
// tests/reference_sim.h) allocates per run: a vector<vector<int>> of
// resource sets, one std::priority_queue per resource, and a per-device
// memory tracker, over all D + D^2 + 1 + 2H ResourceModel ids. This core
// runs over flat state instead:
//
//   * CompactGraph — a view of a finalized DistGraph's arrays (durations,
//     output bytes, adjacency rows, dense resource sets, memory targets);
//     binding it copies nothing;
//   * SimWorkspace — every per-run buffer, sized by the graph's nodes and
//     the resources it uses, and reused across runs so repeated
//     simulate_iteration_ms / evaluate_plan calls in one search allocate
//     nothing once warm;
//   * run_core — one from-scratch discrete-event run, bit-identical to the
//     reference simulator (tests/sim_diff_test.cpp pins this).
//
// Everything here is an implementation detail of sim::Simulator; include
// simulator.h unless you need a long-lived workspace.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "compile/dist_graph.h"
#include "sim/sim_order.h"
#include "sim/sim_types.h"

namespace heterog::sim {

/// The simulator's view of a finalized DistGraph, addressed by DistNodeId
/// and by dense resource id (DistGraph::used_resources). build() binds it to
/// the graph's arrays; the graph must outlive every run over the view.
struct CompactGraph {
  int32_t n = 0;             // node count
  int32_t r = 0;             // resources the graph uses
  int32_t device_count = 0;

  const double* duration = nullptr;       // per node
  const int64_t* output_bytes = nullptr;  // per node
  const int32_t* queue_res = nullptr;     // dense resource a node queues on

  // Dense resource sets, order preserved (the first busy resource in set
  // order decides where a blocked node migrates).
  const int32_t* res_off = nullptr;  // n + 1
  const int32_t* res_dat = nullptr;

  const int32_t* succ_off = nullptr;  // n + 1
  const int32_t* succ_dat = nullptr;
  const int32_t* pred_off = nullptr;  // n + 1
  const int32_t* pred_dat = nullptr;

  // The devices a node's output occupies while live; empty rows when
  // output_bytes <= 0.
  const int32_t* mem_off = nullptr;  // n + 1
  const int32_t* mem_dat = nullptr;

  const int32_t* used_resources = nullptr;  // r ResourceModel ids, ascending
  std::span<const int64_t> static_params;   // per device; may be short

  void build(const compile::DistGraph& graph);

  int32_t res_begin(int32_t v) const { return res_off[static_cast<size_t>(v)]; }
  int32_t res_end(int32_t v) const { return res_off[static_cast<size_t>(v) + 1]; }
};

/// All per-run buffers of the data-oriented core. Reusing one workspace
/// across runs makes repeated simulations allocation-free once warm. Not
/// thread-safe; use one workspace per thread (Simulator keeps one per thread
/// internally).
struct SimWorkspace {
  CompactGraph graph;  // view of the graph being simulated

  std::vector<std::vector<ReadyEntry>> ready;  // per-resource binary heaps
  std::vector<Event> events;                   // min-heap on (time, node)
  std::vector<uint8_t> busy;                   // per resource
  std::vector<int32_t> in_degree;              // per node

  // Dispatch worklist: resources touched (freed or pushed to) since the last
  // dispatch pass. Avoids scanning every resource per event batch; sorted
  // ascending before each pass so the visit order matches the reference
  // simulator's full scan (see dispatch_all in sim_core.cpp).
  std::vector<int32_t> dirty;
  std::vector<uint8_t> in_dirty;               // per resource: in `dirty`

  // Memory tracking (reference-counted live tensors per device).
  std::vector<int64_t> mem_current;            // per device
  std::vector<int32_t> remaining_consumers;    // per node
};

/// Runs `compact` under `priorities` / `options.policy` / `track_memory`
/// from scratch. Bit-identical to the reference simulator. The unnamed
/// trailing parameter only keeps planbench/replay.cpp, which passes
/// `nullptr`, compiling: planbench changes only with the benchmark, and that
/// change drops both the argument and this parameter.
SimResult run_core(const CompactGraph& compact, const std::vector<double>& priorities,
                   const SimOptions& options, SimWorkspace& ws,
                   std::nullptr_t = nullptr);

/// The calling thread's lazily-constructed workspace (one per thread; reused
/// across all runs on that thread).
SimWorkspace& thread_workspace();

}  // namespace heterog::sim

// Data-oriented simulator core (DESIGN.md §5i).
//
// The original simulator (kept test-side as the differential oracle,
// tests/reference_sim.h) allocates per run: a vector<vector<int>> of
// resource sets, one std::priority_queue per resource, and a per-device
// memory tracker. This core replaces all of that with flat
// structure-of-arrays state over the DistNodeId / resource index spaces:
//
//   * CompactGraph — a string-free SoA snapshot of a DistGraph (durations,
//     output bytes, CSR adjacency, CSR resource sets, CSR memory targets);
//   * SimWorkspace — every per-run buffer, reused across runs so repeated
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
#include <vector>

#include "compile/dist_graph.h"
#include "sim/sim_order.h"
#include "sim/sim_types.h"

namespace heterog::sim {

/// String-free structure-of-arrays snapshot of a DistGraph, addressed by
/// DistNodeId. Cheap to copy (flat vectors only); rebuilt in place without
/// allocating once capacity is warm.
struct CompactGraph {
  int32_t n = 0;             // node count
  int32_t r = 0;             // resource count
  int32_t device_count = 0;

  std::vector<double> duration;        // per node
  std::vector<int64_t> output_bytes;   // per node
  std::vector<int32_t> queue_res;      // resource a node queues on

  // CSR resource sets (ResourceModel::resources_of, order preserved — the
  // first busy resource in set order decides where a blocked node migrates).
  std::vector<int32_t> res_off;  // n + 1
  std::vector<int32_t> res_dat;

  // CSR adjacency.
  std::vector<int32_t> succ_off, succ_dat;  // succ_off: n + 1
  std::vector<int32_t> pred_off, pred_dat;  // pred_off: n + 1

  // CSR memory targets: the devices a node's output occupies while live
  // (compute: its device; transfer: link_to; collective: every participant).
  // Empty span when output_bytes <= 0.
  std::vector<int32_t> mem_off, mem_dat;  // mem_off: n + 1

  std::vector<int64_t> static_params;  // per device; may be shorter than device_count

  void build(const compile::DistGraph& graph);

  int32_t res_begin(int32_t v) const { return res_off[static_cast<size_t>(v)]; }
  int32_t res_end(int32_t v) const { return res_off[static_cast<size_t>(v) + 1]; }
};

/// All per-run buffers of the data-oriented core. Reusing one workspace
/// across runs makes repeated simulations allocation-free once warm. Not
/// thread-safe; use one workspace per thread (Simulator keeps one per thread
/// internally).
struct SimWorkspace {
  CompactGraph graph;  // snapshot of the graph being simulated

  std::vector<std::vector<ReadyEntry>> ready;  // per-resource binary heaps
  std::vector<Event> events;                   // min-heap on (time, node)
  std::vector<uint8_t> busy;                   // per resource
  std::vector<int32_t> in_degree;              // per node

  // Dispatch worklist: resources touched (freed or pushed to) since the last
  // dispatch pass. Avoids scanning all R resources per event batch; sorted
  // ascending before each pass so the visit order matches the reference
  // simulator's full 0..R-1 scan (see dispatch_all in sim_core.cpp).
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

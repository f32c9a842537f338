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
//   * SimBaseline + run_core / resimulate_core — an execution log of the
//     baseline run (push/pop/dispatch/complete) enabling incremental
//     re-simulation: a delta graph is diffed against the baseline snapshot,
//     the unaffected schedule prefix is replayed with cheap array arithmetic
//     (no heap operations), the ready/event heaps are rebuilt with
//     make_heap, and the normal event loop resumes from the first affected
//     batch. Results are bit-identical to a from-scratch run
//     (tests/sim_diff_test.cpp + the property wall pin this).
//
// Everything here is an implementation detail of sim::Simulator; include
// simulator.h unless you need baselines or a long-lived workspace.
#pragma once

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

/// Baseline execution log for incremental re-simulation. Captured by
/// run_core(record=...); consumed by resimulate_core. Holds the graph
/// snapshot it was recorded against so deltas can be diffed without keeping
/// the original DistGraph alive.
struct SimBaseline {
  enum Op : uint8_t { kPush, kPop, kDispatch, kComplete };
  struct LogEntry {
    uint8_t op = kPush;
    int32_t res = -1;   // kPush/kPop: the queue operated on
    int32_t node = -1;
    int64_t seq = -1;   // kPush/kPop: the ready-entry's arrival sequence
  };

  bool valid = false;
  CompactGraph graph;
  std::vector<double> priorities;
  sched::OrderPolicy policy = sched::OrderPolicy::kRankPriority;
  bool track_memory = true;
  SimResult result;

  std::vector<LogEntry> log;
  /// Log positions where an outer drain-batch iteration begins (safe resume
  /// points: all pending dispatch work is done, events are the only state in
  /// flight). Incremental runs cut at the last batch start before the first
  /// divergent log entry.
  std::vector<int32_t> batch_starts;
};

/// All per-run buffers of the data-oriented core. Reusing one workspace
/// across runs makes repeated simulations allocation-free once warm. Not
/// thread-safe; use one workspace per thread (Simulator keeps one per thread
/// internally).
struct SimWorkspace {
  CompactGraph graph;  // scratch snapshot for runs that don't record a baseline

  std::vector<std::vector<ReadyEntry>> ready;  // per-resource binary heaps
  std::vector<Event> events;                   // min-heap on (time, node)
  std::vector<uint8_t> busy;                   // per resource
  std::vector<int32_t> in_degree;              // per node

  // Dispatch worklist: resources touched (freed or pushed to) since the last
  // dispatch pass. Avoids scanning all R resources per event batch; sorted
  // ascending before each pass so the visit order matches the reference
  // simulator's full 0..R-1 scan (see event_loop in sim_core.cpp).
  std::vector<int32_t> dirty;
  std::vector<uint8_t> in_dirty;               // per resource: in `dirty`

  // Memory tracking (reference-counted live tensors per device).
  std::vector<int64_t> mem_current;            // per device
  std::vector<int32_t> remaining_consumers;    // per node

  // Replay scratch (resimulate_core).
  std::vector<uint8_t> seq_live;       // per sequence: entry sits in a queue
  std::vector<int32_t> seq_res;        // per sequence: which queue
  std::vector<int32_t> seq_node;       // per sequence: the node
  std::vector<uint8_t> node_running;   // dispatched, not yet completed
  std::vector<uint8_t> affected;       // per node: signature differs
  std::vector<uint8_t> affected_adj;   // per node: an affected pred or succ
};

/// Runs `compact` under `priorities` / `options.policy` / `track_memory`.
/// When `record` is non-null the execution log + graph snapshot + result are
/// captured into it for later incremental runs (`record->graph` must BE
/// `compact`; pass the baseline's own graph member). Bit-identical to the
/// reference simulator.
SimResult run_core(const CompactGraph& compact, const std::vector<double>& priorities,
                   const SimOptions& options, SimWorkspace& ws,
                   SimBaseline* record);

/// Incremental re-simulation of `graph` (typically a small delta of the
/// baseline's graph: scaled durations, flipped priorities, a re-compiled
/// strategy). Diffs against `baseline.graph`, replays the unaffected prefix
/// of the log, and resumes the event loop; falls back to a full run when the
/// delta is structurally incompatible (different resource model, policy or
/// memory mode). The result is bit-identical to run_core on `graph` from
/// scratch.
SimResult resimulate_core(const compile::DistGraph& graph,
                          const std::vector<double>& priorities,
                          const SimOptions& options, const SimBaseline& baseline,
                          SimWorkspace& ws);

/// The calling thread's lazily-constructed workspace (one per thread; reused
/// across all runs on that thread).
SimWorkspace& thread_workspace();

}  // namespace heterog::sim

#include "sim/sim_core.h"

#include <algorithm>

#include "common/check.h"

namespace heterog::sim {

namespace {

using compile::DistNodeId;
using compile::NodeKind;

void mem_alloc_output(const CompactGraph& g, SimWorkspace& ws, SimResult& result,
                      int32_t v) {
  const int64_t bytes = g.output_bytes[static_cast<size_t>(v)];
  for (int32_t k = g.mem_off[static_cast<size_t>(v)];
       k < g.mem_off[static_cast<size_t>(v) + 1]; ++k) {
    const int32_t d = g.mem_dat[static_cast<size_t>(k)];
    const int64_t cur = (ws.mem_current[static_cast<size_t>(d)] += bytes);
    auto& peak = result.peak_memory_bytes[static_cast<size_t>(d)];
    if (cur > peak) peak = cur;
  }
}

void mem_release_output(const CompactGraph& g, SimWorkspace& ws, int32_t v) {
  const int64_t bytes = g.output_bytes[static_cast<size_t>(v)];
  for (int32_t k = g.mem_off[static_cast<size_t>(v)];
       k < g.mem_off[static_cast<size_t>(v) + 1]; ++k) {
    ws.mem_current[static_cast<size_t>(g.mem_dat[static_cast<size_t>(k)])] -= bytes;
  }
}

/// A finished node's output: released immediately when it has no
/// consumers; otherwise it lives until the last consumer finishes.
void mem_on_finish(const CompactGraph& g, SimWorkspace& ws, int32_t v) {
  if (ws.remaining_consumers[static_cast<size_t>(v)] == 0) mem_release_output(g, ws, v);
  for (int32_t k = g.pred_off[static_cast<size_t>(v)];
       k < g.pred_off[static_cast<size_t>(v) + 1]; ++k) {
    const int32_t p = g.pred_dat[static_cast<size_t>(k)];
    if (--ws.remaining_consumers[static_cast<size_t>(p)] == 0) {
      mem_release_output(g, ws, p);
    }
  }
}

void init_memory(const CompactGraph& g, SimWorkspace& ws, SimResult& result) {
  ws.mem_current.assign(static_cast<size_t>(g.device_count), 0);
  result.peak_memory_bytes.assign(static_cast<size_t>(g.device_count), 0);
  for (size_t d = 0; d < ws.mem_current.size() && d < g.static_params.size(); ++d) {
    ws.mem_current[d] = g.static_params[d];
    result.peak_memory_bytes[d] = g.static_params[d];
  }
  ws.remaining_consumers.assign(static_cast<size_t>(g.n), 0);
  for (int32_t v = 0; v < g.n; ++v) {
    ws.remaining_consumers[static_cast<size_t>(v)] =
        g.succ_off[static_cast<size_t>(v) + 1] - g.succ_off[static_cast<size_t>(v)];
  }
}

void mark_dirty(SimWorkspace& ws, int32_t res) {
  if (!ws.in_dirty[static_cast<size_t>(res)]) {
    ws.in_dirty[static_cast<size_t>(res)] = 1;
    ws.dirty.push_back(res);
  }
}

template <bool kRecord>
void heap_push(SimWorkspace& ws, SimBaseline* rec, const auto& order, int32_t res,
               int32_t v, int64_t seq, double priority) {
  auto& q = ws.ready[static_cast<size_t>(res)];
  q.push_back(ReadyEntry{priority, seq, v});
  std::push_heap(q.begin(), q.end(), order);
  mark_dirty(ws, res);
  if constexpr (kRecord) {
    rec->log.push_back({SimBaseline::kPush, res, v, seq});
  }
}

/// The main discrete-event loop, shared by full runs (initial_dispatch=true)
/// and incremental resumes (state already replayed; initial_dispatch=false).
/// Mirrors the reference simulator statement-for-statement — any change here
/// must keep tests/sim_diff_test.cpp bit-identical.
template <typename Order, bool kRecord>
void event_loop(const CompactGraph& g, const std::vector<double>& priorities,
                bool track_memory, SimWorkspace& ws, SimResult& result, double& now,
                int& completed, int64_t& sequence, SimBaseline* rec,
                bool initial_dispatch) {
  const Order order{};
  const int32_t r = g.r;

  auto push_ready = [&](int32_t v) {
    heap_push<kRecord>(ws, rec, order, g.queue_res[static_cast<size_t>(v)], v,
                       sequence++, priorities[static_cast<size_t>(v)]);
  };

  // Dispatch on one resource: start queued nodes whose resource sets are
  // entirely free; a node blocked on another resource migrates to that
  // resource's queue (it will be reconsidered when that resource frees).
  auto dispatch_resource = [&](int32_t res, double time) {
    auto& q = ws.ready[static_cast<size_t>(res)];
    while (!ws.busy[static_cast<size_t>(res)] && !q.empty()) {
      const ReadyEntry entry = q.front();
      int32_t blocking = -1;
      for (int32_t k = g.res_begin(entry.node); k < g.res_end(entry.node); ++k) {
        const int32_t nr = g.res_dat[static_cast<size_t>(k)];
        if (ws.busy[static_cast<size_t>(nr)]) {
          blocking = nr;
          break;
        }
      }
      std::pop_heap(q.begin(), q.end(), order);
      q.pop_back();
      if constexpr (kRecord) {
        rec->log.push_back({SimBaseline::kPop, res, entry.node, entry.sequence});
      }
      if (blocking >= 0) {
        heap_push<kRecord>(ws, rec, order, blocking, entry.node, entry.sequence,
                           entry.priority);
        continue;
      }
      const double duration = g.duration[static_cast<size_t>(entry.node)];
      for (int32_t k = g.res_begin(entry.node); k < g.res_end(entry.node); ++k) {
        const int32_t nr = g.res_dat[static_cast<size_t>(k)];
        ws.busy[static_cast<size_t>(nr)] = 1;
        result.resource_busy_ms[static_cast<size_t>(nr)] += duration;
      }
      result.start_ms[static_cast<size_t>(entry.node)] = time;
      result.finish_ms[static_cast<size_t>(entry.node)] = time + duration;
      if (track_memory) mem_alloc_output(g, ws, result, entry.node);
      ws.events.push_back(Event{time + duration, entry.node});
      std::push_heap(ws.events.begin(), ws.events.end(), EventAfter{});
      if constexpr (kRecord) {
        rec->log.push_back({SimBaseline::kDispatch, -1, entry.node, -1});
      }
    }
  };

  // Visit only resources freed or pushed to since the last pass, in ascending
  // index order — equivalent to the reference's full 0..R-1 scan because
  // every other resource is busy or has an empty queue (after a pass each
  // resource is busy-or-empty; only a completion free or a ready push can
  // break that, and both mark the resource dirty). Migration pushes during
  // the pass target the blocking (busy) resource, so entries appended past
  // the snapshot would be no-ops; they are re-marked when that resource
  // frees, and can be dropped here.
  auto dispatch_all = [&](double time) {
    auto& d = ws.dirty;
    // Ascending order matches the reference's 0..R-1 scan. The dirty set is
    // tiny (the resources freed/pushed since the last pass) and this runs
    // once per event batch, so an inline insertion sort beats std::sort's
    // call overhead.
    for (size_t i = 1; i < d.size(); ++i) {
      const int32_t x = d[i];
      size_t j = i;
      for (; j > 0 && d[j - 1] > x; --j) d[j] = d[j - 1];
      d[j] = x;
    }
    const size_t snapshot = d.size();
    for (size_t i = 0; i < snapshot; ++i) dispatch_resource(d[i], time);
    for (const int32_t res : d) ws.in_dirty[static_cast<size_t>(res)] = 0;
    d.clear();
  };
  (void)r;

  if (initial_dispatch) dispatch_all(0.0);
  while (!ws.events.empty()) {
    if constexpr (kRecord) {
      rec->batch_starts.push_back(static_cast<int32_t>(rec->log.size()));
    }
    // Drain all events at the same timestamp before dispatching, so freed
    // resources see every newly-ready node.
    const double time = ws.events.front().time;
    while (!ws.events.empty() && ws.events.front().time == time) {
      const Event ev = ws.events.front();
      std::pop_heap(ws.events.begin(), ws.events.end(), EventAfter{});
      ws.events.pop_back();
      now = ev.time;
      ++completed;
      for (int32_t k = g.res_begin(ev.node); k < g.res_end(ev.node); ++k) {
        const int32_t nr = g.res_dat[static_cast<size_t>(k)];
        ws.busy[static_cast<size_t>(nr)] = 0;
        mark_dirty(ws, nr);
      }
      if (track_memory) mem_on_finish(g, ws, ev.node);
      if constexpr (kRecord) {
        rec->log.push_back({SimBaseline::kComplete, -1, ev.node, -1});
      }
      for (int32_t k = g.succ_off[static_cast<size_t>(ev.node)];
           k < g.succ_off[static_cast<size_t>(ev.node) + 1]; ++k) {
        const int32_t s = g.succ_dat[static_cast<size_t>(k)];
        if (--ws.in_degree[static_cast<size_t>(s)] == 0) push_ready(s);
      }
    }
    dispatch_all(now);
  }
}

void finish_result(const CompactGraph& g, const SimOptions& options, SimResult& result,
                   double now, int completed) {
  check(completed == g.n, "simulation deadlocked (cycle or unreachable node)");
  result.makespan_ms = now;
  for (int32_t res = 0; res < g.r; ++res) {
    const double t = result.resource_busy_ms[static_cast<size_t>(res)];
    if (res < g.device_count) {  // ResourceModel::is_gpu_resource
      result.computation_time_ms = std::max(result.computation_time_ms, t);
    } else {
      result.communication_time_ms = std::max(result.communication_time_ms, t);
    }
  }
  if (!options.track_memory) {
    result.peak_memory_bytes.assign(static_cast<size_t>(g.device_count), 0);
  }
}

void reset_workspace(const CompactGraph& g, SimWorkspace& ws, SimResult& result) {
  result.resource_busy_ms.assign(static_cast<size_t>(g.r), 0.0);
  result.start_ms.assign(static_cast<size_t>(g.n), 0.0);
  result.finish_ms.assign(static_cast<size_t>(g.n), 0.0);
  if (ws.ready.size() < static_cast<size_t>(g.r)) ws.ready.resize(static_cast<size_t>(g.r));
  for (int32_t res = 0; res < g.r; ++res) ws.ready[static_cast<size_t>(res)].clear();
  ws.events.clear();
  ws.busy.assign(static_cast<size_t>(g.r), 0);
  ws.dirty.clear();
  ws.in_dirty.assign(static_cast<size_t>(g.r), 0);
  ws.in_degree.assign(static_cast<size_t>(g.n), 0);
  for (int32_t v = 0; v < g.n; ++v) {
    ws.in_degree[static_cast<size_t>(v)] =
        g.pred_off[static_cast<size_t>(v) + 1] - g.pred_off[static_cast<size_t>(v)];
  }
}

template <typename Order, bool kRecord>
SimResult run_impl(const CompactGraph& g, const std::vector<double>& priorities,
                   const SimOptions& options, SimWorkspace& ws, SimBaseline* rec) {
  SimResult result;
  if (g.n == 0) {
    result.resource_busy_ms.assign(static_cast<size_t>(g.r), 0.0);
    result.peak_memory_bytes.assign(static_cast<size_t>(g.device_count), 0);
    return result;
  }
  reset_workspace(g, ws, result);
  init_memory(g, ws, result);

  double now = 0.0;
  int completed = 0;
  int64_t sequence = 0;
  {
    const Order order{};
    for (int32_t v = 0; v < g.n; ++v) {
      if (ws.in_degree[static_cast<size_t>(v)] == 0) {
        heap_push<kRecord>(ws, rec, order, g.queue_res[static_cast<size_t>(v)], v,
                           sequence++, priorities[static_cast<size_t>(v)]);
      }
    }
  }
  event_loop<Order, kRecord>(g, priorities, options.track_memory, ws, result, now,
                             completed, sequence, rec, /*initial_dispatch=*/true);
  finish_result(g, options, result, now, completed);
  return result;
}

/// True when the compact span `v` of (off, dat) holds exactly `values`.
template <typename Range>
bool span_matches(const std::vector<int32_t>& off, const std::vector<int32_t>& dat,
                  int32_t v, const Range& values) {
  const int32_t b = off[static_cast<size_t>(v)], e = off[static_cast<size_t>(v) + 1];
  if (e - b != static_cast<int32_t>(values.size())) return false;
  return std::equal(dat.begin() + b, dat.begin() + e, values.begin());
}

/// The memory-target span build() would extract for `node` (its device /
/// link_to / participants when output_bytes > 0, else empty) — compared
/// against the baseline snapshot without materialising it.
bool mem_span_matches(const CompactGraph& og, int32_t v, const compile::DistNode& node) {
  const int32_t b = og.mem_off[static_cast<size_t>(v)];
  const int32_t e = og.mem_off[static_cast<size_t>(v) + 1];
  if (node.output_bytes <= 0) return b == e;
  switch (node.kind) {
    case NodeKind::kCompute:
      return e - b == 1 && og.mem_dat[static_cast<size_t>(b)] == node.device;
    case NodeKind::kTransfer:
      return e - b == 1 && og.mem_dat[static_cast<size_t>(b)] == node.link_to;
    case NodeKind::kCollective:
      return e - b == static_cast<int32_t>(node.participants.size()) &&
             std::equal(og.mem_dat.begin() + b, og.mem_dat.begin() + e,
                        node.participants.begin());
  }
  return false;
}

/// Cheap first diff pass over the DistGraph without building a snapshot:
/// scalar fields only (duration, output bytes, priority). Any hit proves the
/// frontier non-empty, so the caller can go straight to the snapshot build
/// and the compact diff below; a clean scan still needs the structural
/// confirm (direct_structural_diff) before the baseline may answer.
bool scalar_diff(const compile::DistGraph& graph,
                 const std::vector<double>& priorities, const SimBaseline& base) {
  const CompactGraph& og = base.graph;
  const int32_t n = og.n;
  if (n != graph.node_count()) return true;
  for (int32_t v = 0; v < n; ++v) {
    const auto sv = static_cast<size_t>(v);
    const compile::DistNode& node = graph.node(v);
    if (og.duration[sv] != node.duration_ms ||
        og.output_bytes[sv] != node.output_bytes ||
        base.priorities[sv] != priorities[sv]) {
      return true;
    }
  }
  return false;
}

/// Structural confirm for a scalar-clean graph: compares field-for-field what
/// CompactGraph::build would extract (queue resource, resource set,
/// adjacency, memory targets) directly against the baseline snapshot. Fills
/// ws.affected. A clean result means an empty frontier — the common
/// fault-sweep case of a delta that only touches devices the plan never uses
/// — detected without paying for a snapshot build or any simulation.
bool direct_structural_diff(const compile::DistGraph& graph, const SimBaseline& base,
                            SimWorkspace& ws) {
  const CompactGraph& og = base.graph;
  const compile::ResourceModel& resources = graph.resources();
  const int32_t n = og.n;
  ws.affected.assign(static_cast<size_t>(n), 0);
  bool any_affected = false;
  std::vector<int> res_scratch;
  res_scratch.reserve(4);
  for (int32_t v = 0; v < n; ++v) {
    const compile::DistNode& node = graph.node(v);
    resources.resources_of(node, res_scratch);
    const bool same = og.queue_res[static_cast<size_t>(v)] == resources.resource_of(node) &&
                      span_matches(og.res_off, og.res_dat, v, res_scratch) &&
                      span_matches(og.succ_off, og.succ_dat, v, graph.successors(v)) &&
                      span_matches(og.pred_off, og.pred_dat, v, graph.predecessors(v)) &&
                      mem_span_matches(og, v, node);
    if (!same) {
      ws.affected[static_cast<size_t>(v)] = 1;
      any_affected = true;
    }
  }
  return any_affected;
}

bool span_equal(const std::vector<int32_t>& a_off, const std::vector<int32_t>& a_dat,
                const std::vector<int32_t>& b_off, const std::vector<int32_t>& b_dat,
                int32_t v) {
  const int32_t ab = a_off[static_cast<size_t>(v)], ae = a_off[static_cast<size_t>(v) + 1];
  const int32_t bb = b_off[static_cast<size_t>(v)], be = b_off[static_cast<size_t>(v) + 1];
  if (ae - ab != be - bb) return false;
  return std::equal(a_dat.begin() + ab, a_dat.begin() + ae, b_dat.begin() + bb);
}

/// Full diff over two compact snapshots. Fills ws.affected: a node is
/// affected when anything the scheduler or memory tracker reads about it
/// changed — duration, bytes, queue resource, resource set, adjacency,
/// memory targets, or its priority.
bool compact_diff(const CompactGraph& og, const CompactGraph& ng,
                  const std::vector<double>& priorities, const SimBaseline& base,
                  SimWorkspace& ws) {
  const int32_t n_old = og.n;
  const int32_t n_new = ng.n;
  const int32_t n_common = std::min(n_old, n_new);
  ws.affected.assign(static_cast<size_t>(n_old), 0);
  bool any_affected = n_old != n_new;
  for (int32_t v = 0; v < n_common; ++v) {
    const auto sv = static_cast<size_t>(v);
    const bool same =
        og.duration[sv] == ng.duration[sv] &&
        og.output_bytes[sv] == ng.output_bytes[sv] &&
        og.queue_res[sv] == ng.queue_res[sv] &&
        base.priorities[sv] == priorities[sv] &&
        span_equal(og.res_off, og.res_dat, ng.res_off, ng.res_dat, v) &&
        span_equal(og.succ_off, og.succ_dat, ng.succ_off, ng.succ_dat, v) &&
        span_equal(og.pred_off, og.pred_dat, ng.pred_off, ng.pred_dat, v) &&
        span_equal(og.mem_off, og.mem_dat, ng.mem_off, ng.mem_dat, v);
    if (!same) {
      ws.affected[sv] = 1;
      any_affected = true;
    }
  }
  for (int32_t v = n_common; v < n_old; ++v) ws.affected[static_cast<size_t>(v)] = 1;
  return any_affected;
}

/// Replay + resume against a non-empty affected frontier (ws.affected is
/// already filled by diff_against_baseline).
template <typename Order>
SimResult resimulate_impl(const CompactGraph& ng, const std::vector<double>& priorities,
                          const SimOptions& options, const SimBaseline& base,
                          SimWorkspace& ws) {
  const CompactGraph& og = base.graph;
  const int32_t n_old = og.n;
  const int32_t n_new = ng.n;

  // A completion's side effects reach its neighbours: it may release an
  // affected predecessor's output and its successors' readiness (hence push
  // order) depends on their pred sets. Conservatively treat completions with
  // any affected neighbour as divergent.
  ws.affected_adj.assign(static_cast<size_t>(n_old), 0);
  for (int32_t v = 0; v < n_old; ++v) {
    if (!ws.affected[static_cast<size_t>(v)]) continue;
    for (int32_t k = og.pred_off[static_cast<size_t>(v)];
         k < og.pred_off[static_cast<size_t>(v) + 1]; ++k) {
      ws.affected_adj[static_cast<size_t>(og.pred_dat[static_cast<size_t>(k)])] = 1;
    }
    for (int32_t k = og.succ_off[static_cast<size_t>(v)];
         k < og.succ_off[static_cast<size_t>(v) + 1]; ++k) {
      ws.affected_adj[static_cast<size_t>(og.succ_dat[static_cast<size_t>(k)])] = 1;
    }
  }

  // The initial ready set must match the baseline's leading id-order pushes;
  // a node that became source-ready only in the new graph would otherwise
  // never be pushed by the replayed prefix.
  {
    size_t lead = 0;
    while (lead < base.log.size() && base.log[lead].op == SimBaseline::kPush) ++lead;
    size_t li = 0;
    int32_t id = 0;
    bool match = true;
    for (;;) {
      while (id < n_new &&
             ng.pred_off[static_cast<size_t>(id) + 1] != ng.pred_off[static_cast<size_t>(id)]) {
        ++id;
      }
      const bool have_new = id < n_new;
      const bool have_old = li < lead;
      if (!have_new && !have_old) break;
      if (have_new != have_old || base.log[li].node != id) {
        match = false;
        break;
      }
      ++li;
      ++id;
    }
    if (!match) return run_core(ng, priorities, options, ws, nullptr);
  }

  // First divergent log position, then the last safe resume point before it.
  size_t divergence = base.log.size();
  for (size_t i = 0; i < base.log.size(); ++i) {
    const auto& e = base.log[i];
    const auto sv = static_cast<size_t>(e.node);
    if (ws.affected[sv] ||
        (e.op == SimBaseline::kComplete && ws.affected_adj[sv])) {
      divergence = i;
      break;
    }
  }
  size_t cut = 0;
  for (const int32_t b : base.batch_starts) {
    if (static_cast<size_t>(b) <= divergence) {
      cut = static_cast<size_t>(b);
    } else {
      break;
    }
  }
  if (cut == 0) return run_core(ng, priorities, options, ws, nullptr);

  // ---- Replay log[0..cut) with plain array arithmetic (no heap work). ----
  SimResult result;
  reset_workspace(ng, ws, result);
  if (options.track_memory) init_memory(ng, ws, result);

  ws.seq_live.assign(static_cast<size_t>(n_old), 0);
  ws.seq_res.assign(static_cast<size_t>(n_old), -1);
  ws.seq_node.assign(static_cast<size_t>(n_old), -1);
  ws.node_running.assign(static_cast<size_t>(n_old), 0);

  double now = 0.0;
  int completed = 0;
  int64_t sequence = 0;
  for (size_t i = 0; i < cut; ++i) {
    const auto& e = base.log[i];
    const auto sv = static_cast<size_t>(e.node);
    switch (e.op) {
      case SimBaseline::kPush: {
        const auto ss = static_cast<size_t>(e.seq);
        ws.seq_live[ss] = 1;
        ws.seq_res[ss] = e.res;
        ws.seq_node[ss] = e.node;
        if (e.seq >= sequence) sequence = e.seq + 1;
        break;
      }
      case SimBaseline::kPop:
        ws.seq_live[static_cast<size_t>(e.seq)] = 0;
        break;
      case SimBaseline::kDispatch: {
        const double duration = ng.duration[sv];
        for (int32_t k = ng.res_begin(e.node); k < ng.res_end(e.node); ++k) {
          const int32_t nr = ng.res_dat[static_cast<size_t>(k)];
          ws.busy[static_cast<size_t>(nr)] = 1;
          result.resource_busy_ms[static_cast<size_t>(nr)] += duration;
        }
        result.start_ms[sv] = base.result.start_ms[sv];
        result.finish_ms[sv] = base.result.finish_ms[sv];
        ws.node_running[sv] = 1;
        if (options.track_memory) mem_alloc_output(ng, ws, result, e.node);
        break;
      }
      case SimBaseline::kComplete: {
        now = result.finish_ms[sv];
        ++completed;
        ws.node_running[sv] = 0;
        for (int32_t k = ng.res_begin(e.node); k < ng.res_end(e.node); ++k) {
          ws.busy[static_cast<size_t>(ng.res_dat[static_cast<size_t>(k)])] = 0;
        }
        if (options.track_memory) mem_on_finish(ng, ws, e.node);
        for (int32_t k = ng.succ_off[sv]; k < ng.succ_off[sv + 1]; ++k) {
          --ws.in_degree[static_cast<size_t>(ng.succ_dat[static_cast<size_t>(k)])];
        }
        break;
      }
    }
  }

  // Rebuild the ready heaps and the event heap from the replayed live sets.
  // The comparators are strict total orders, so any valid heap arrangement
  // of the same entries pops in the same sequence as the baseline's
  // incrementally-built heaps would.
  const Order order{};
  for (int32_t s = 0; s < n_old; ++s) {
    if (!ws.seq_live[static_cast<size_t>(s)]) continue;
    const int32_t v = ws.seq_node[static_cast<size_t>(s)];
    ws.ready[static_cast<size_t>(ws.seq_res[static_cast<size_t>(s)])].push_back(
        ReadyEntry{priorities[static_cast<size_t>(v)], s, v});
  }
  for (int32_t res = 0; res < ng.r; ++res) {
    auto& q = ws.ready[static_cast<size_t>(res)];
    if (q.size() > 1) std::make_heap(q.begin(), q.end(), order);
  }
  for (int32_t v = 0; v < n_old; ++v) {
    if (ws.node_running[static_cast<size_t>(v)]) {
      ws.events.push_back(Event{result.finish_ms[static_cast<size_t>(v)], v});
    }
  }
  if (ws.events.size() > 1) {
    std::make_heap(ws.events.begin(), ws.events.end(), EventAfter{});
  }

  event_loop<Order, false>(ng, priorities, options.track_memory, ws, result, now,
                           completed, sequence, nullptr, /*initial_dispatch=*/false);
  finish_result(ng, options, result, now, completed);
  return result;
}

}  // namespace

void CompactGraph::build(const compile::DistGraph& graph) {
  const compile::ResourceModel& resources = graph.resources();
  n = graph.node_count();
  r = resources.resource_count();
  device_count = resources.device_count();

  const auto sn = static_cast<size_t>(n);
  duration.resize(sn);
  output_bytes.resize(sn);
  queue_res.resize(sn);
  res_off.resize(sn + 1);
  succ_off.resize(sn + 1);
  pred_off.resize(sn + 1);
  mem_off.resize(sn + 1);
  res_dat.clear();
  succ_dat.clear();
  pred_dat.clear();
  mem_dat.clear();

  std::vector<int> scratch;
  scratch.reserve(4);
  for (DistNodeId id = 0; id < n; ++id) {
    const auto sv = static_cast<size_t>(id);
    const compile::DistNode& node = graph.node(id);
    duration[sv] = node.duration_ms;
    output_bytes[sv] = node.output_bytes;
    queue_res[sv] = resources.resource_of(node);

    res_off[sv] = static_cast<int32_t>(res_dat.size());
    resources.resources_of(node, scratch);
    res_dat.insert(res_dat.end(), scratch.begin(), scratch.end());

    succ_off[sv] = static_cast<int32_t>(succ_dat.size());
    const auto& succ = graph.successors(id);
    succ_dat.insert(succ_dat.end(), succ.begin(), succ.end());

    pred_off[sv] = static_cast<int32_t>(pred_dat.size());
    const auto& pred = graph.predecessors(id);
    pred_dat.insert(pred_dat.end(), pred.begin(), pred.end());

    mem_off[sv] = static_cast<int32_t>(mem_dat.size());
    if (node.output_bytes > 0) {
      switch (node.kind) {
        case NodeKind::kCompute:
          mem_dat.push_back(node.device);
          break;
        case NodeKind::kTransfer:
          mem_dat.push_back(node.link_to);
          break;
        case NodeKind::kCollective:
          mem_dat.insert(mem_dat.end(), node.participants.begin(),
                         node.participants.end());
          break;
      }
    }
  }
  res_off[sn] = static_cast<int32_t>(res_dat.size());
  succ_off[sn] = static_cast<int32_t>(succ_dat.size());
  pred_off[sn] = static_cast<int32_t>(pred_dat.size());
  mem_off[sn] = static_cast<int32_t>(mem_dat.size());
  static_params = graph.static_param_bytes();
}

SimResult run_core(const CompactGraph& compact, const std::vector<double>& priorities,
                   const SimOptions& options, SimWorkspace& ws, SimBaseline* record) {
  check(record == nullptr || &compact == &record->graph,
        "run_core: a recording run must simulate the baseline's own graph snapshot");
  if (record != nullptr) {
    record->valid = false;
    record->log.clear();
    record->batch_starts.clear();
  }
  const bool rank = options.policy == sched::OrderPolicy::kRankPriority;
  SimResult result;
  if (record != nullptr) {
    result = rank ? run_impl<RankOrder, true>(compact, priorities, options, ws, record)
                  : run_impl<FifoOrder, true>(compact, priorities, options, ws, record);
    record->priorities = priorities;
    record->policy = options.policy;
    record->track_memory = options.track_memory;
    record->result = result;
    record->valid = true;
  } else {
    result = rank ? run_impl<RankOrder, false>(compact, priorities, options, ws, nullptr)
                  : run_impl<FifoOrder, false>(compact, priorities, options, ws, nullptr);
  }
  return result;
}

SimResult resimulate_core(const compile::DistGraph& graph,
                          const std::vector<double>& priorities,
                          const SimOptions& options, const SimBaseline& baseline,
                          SimWorkspace& ws) {
  check(baseline.valid, "resimulate_core: baseline was never recorded");
  const CompactGraph& og = baseline.graph;
  const compile::ResourceModel& resources = graph.resources();
  if (og.r != resources.resource_count() ||
      og.device_count != resources.device_count() ||
      baseline.policy != options.policy ||
      baseline.track_memory != options.track_memory ||
      og.static_params != graph.static_param_bytes() || og.n == 0 ||
      graph.node_count() == 0) {
    ws.graph.build(graph);
    return run_core(ws.graph, priorities, options, ws, nullptr);
  }
  if (!scalar_diff(graph, priorities, baseline)) {
    // No duration/bytes/priority change. Structurally confirm before letting
    // the baseline answer: an empty affected frontier means the delta is a
    // no-op for this plan (e.g. a fault scaling on devices the plan never
    // touches) and costs neither a snapshot build nor any simulation.
    if (!direct_structural_diff(graph, baseline, ws)) return baseline.result;
    ws.graph.build(graph);
    const CompactGraph& ng = ws.graph;
    return options.policy == sched::OrderPolicy::kRankPriority
               ? resimulate_impl<RankOrder>(ng, priorities, options, baseline, ws)
               : resimulate_impl<FifoOrder>(ng, priorities, options, baseline, ws);
  }
  // A scalar already proves the frontier non-empty: build the snapshot and
  // complete the diff compact-vs-compact (cheaper than structural compares
  // against fat DistNodes).
  ws.graph.build(graph);
  const CompactGraph& ng = ws.graph;
  compact_diff(og, ng, priorities, baseline, ws);
  return options.policy == sched::OrderPolicy::kRankPriority
             ? resimulate_impl<RankOrder>(ng, priorities, options, baseline, ws)
             : resimulate_impl<FifoOrder>(ng, priorities, options, baseline, ws);
}

SimWorkspace& thread_workspace() {
  static thread_local SimWorkspace ws;
  return ws;
}

}  // namespace heterog::sim

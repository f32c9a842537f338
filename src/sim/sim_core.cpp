#include "sim/sim_core.h"

#include <algorithm>

#include "common/check.h"

namespace heterog::sim {

namespace {

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

void heap_push(SimWorkspace& ws, const auto& order, int32_t res, int32_t v, int64_t seq,
               double priority) {
  auto& q = ws.ready[static_cast<size_t>(res)];
  q.push_back(ReadyEntry{priority, seq, v});
  std::push_heap(q.begin(), q.end(), order);
  mark_dirty(ws, res);
}

void finish_result(const CompactGraph& g, const SimOptions& options, SimResult& result,
                   double now, int completed) {
  check(completed == g.n, "simulation deadlocked (cycle or unreachable node)");
  result.makespan_ms = now;
  for (const ResourceBusy& busy : result.resource_busy) {
    if (busy.resource < g.device_count) {  // ResourceModel::is_gpu_resource
      result.computation_time_ms = std::max(result.computation_time_ms, busy.busy_ms);
    } else {
      result.communication_time_ms = std::max(result.communication_time_ms, busy.busy_ms);
    }
  }
  if (!options.track_memory) {
    result.peak_memory_bytes.assign(static_cast<size_t>(g.device_count), 0);
  }
}

void reset_workspace(const CompactGraph& g, SimWorkspace& ws, SimResult& result) {
  result.resource_busy.resize(static_cast<size_t>(g.r));
  for (int32_t res = 0; res < g.r; ++res) {
    result.resource_busy[static_cast<size_t>(res)] = {g.used_resources[res], 0.0};
  }
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

/// One from-scratch run: the source nodes are queued in id order, then the
/// discrete-event loop runs to quiescence. Mirrors the reference simulator
/// statement-for-statement — any change here must keep
/// tests/sim_diff_test.cpp bit-identical.
template <typename Order>
SimResult run_impl(const CompactGraph& g, const std::vector<double>& priorities,
                   const SimOptions& options, SimWorkspace& ws) {
  SimResult result;
  if (g.n == 0) {
    result.peak_memory_bytes.assign(static_cast<size_t>(g.device_count), 0);
    return result;
  }
  reset_workspace(g, ws, result);
  init_memory(g, ws, result);

  const Order order{};
  const bool track_memory = options.track_memory;
  double now = 0.0;
  int completed = 0;
  int64_t sequence = 0;

  auto push_ready = [&](int32_t v) {
    heap_push(ws, order, g.queue_res[static_cast<size_t>(v)], v, sequence++,
              priorities[static_cast<size_t>(v)]);
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
      if (blocking >= 0) {
        heap_push(ws, order, blocking, entry.node, entry.sequence, entry.priority);
        continue;
      }
      const double duration = g.duration[static_cast<size_t>(entry.node)];
      for (int32_t k = g.res_begin(entry.node); k < g.res_end(entry.node); ++k) {
        const int32_t nr = g.res_dat[static_cast<size_t>(k)];
        ws.busy[static_cast<size_t>(nr)] = 1;
        result.resource_busy[static_cast<size_t>(nr)].busy_ms += duration;
      }
      result.start_ms[static_cast<size_t>(entry.node)] = time;
      result.finish_ms[static_cast<size_t>(entry.node)] = time + duration;
      if (track_memory) mem_alloc_output(g, ws, result, entry.node);
      ws.events.push_back(Event{time + duration, entry.node});
      std::push_heap(ws.events.begin(), ws.events.end(), EventAfter{});
    }
  };

  // Visit only resources freed or pushed to since the last pass, in ascending
  // dense order — equivalent to the reference's full scan of every
  // ResourceModel id because dense ids keep that order, no node ever queues
  // on a resource the graph does not use, and every other resource is busy
  // or has an empty queue (after a pass each resource is busy-or-empty;
  // only a completion free or a ready push can break that, and both mark
  // the resource dirty). Migration pushes during the pass target the
  // blocking (busy) resource, so entries appended past the snapshot would be
  // no-ops; they are re-marked when that resource frees, and can be dropped
  // here.
  auto dispatch_all = [&](double time) {
    auto& d = ws.dirty;
    // Ascending order matches the reference's full scan. The dirty set is
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

  for (int32_t v = 0; v < g.n; ++v) {
    if (ws.in_degree[static_cast<size_t>(v)] == 0) push_ready(v);
  }
  dispatch_all(0.0);
  while (!ws.events.empty()) {
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
      for (int32_t k = g.succ_off[static_cast<size_t>(ev.node)];
           k < g.succ_off[static_cast<size_t>(ev.node) + 1]; ++k) {
        const int32_t s = g.succ_dat[static_cast<size_t>(k)];
        if (--ws.in_degree[static_cast<size_t>(s)] == 0) push_ready(s);
      }
    }
    dispatch_all(now);
  }
  finish_result(g, options, result, now, completed);
  return result;
}

}  // namespace

void CompactGraph::build(const compile::DistGraph& graph) {
  n = graph.node_count();
  r = graph.used_resource_count();
  device_count = graph.resources().device_count();
  duration = graph.durations().data();
  output_bytes = graph.output_sizes().data();
  queue_res = graph.queue_resources().data();
  res_off = graph.resource_rows().off.data();
  res_dat = graph.resource_rows().dat.data();
  succ_off = graph.successor_rows().off.data();
  succ_dat = graph.successor_rows().dat.data();
  pred_off = graph.predecessor_rows().off.data();
  pred_dat = graph.predecessor_rows().dat.data();
  mem_off = graph.memory_rows().off.data();
  mem_dat = graph.memory_rows().dat.data();
  used_resources = graph.used_resources().data();
  static_params = graph.static_param_bytes();
}

SimResult run_core(const CompactGraph& compact, const std::vector<double>& priorities,
                   const SimOptions& options, SimWorkspace& ws, std::nullptr_t) {
  return options.policy == sched::OrderPolicy::kFifo
             ? run_impl<FifoOrder>(compact, priorities, options, ws)
             : run_impl<RankOrder>(compact, priorities, options, ws);
}

SimWorkspace& thread_workspace() {
  static thread_local SimWorkspace ws;
  return ws;
}

}  // namespace heterog::sim

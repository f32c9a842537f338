#include "rl/eval_engine.h"

#include "common/check.h"
#include "common/hash.h"

namespace heterog::rl {

EvalEngine::EvalEngine(const profiler::CostProvider& costs, EvalEngineOptions options)
    : costs_(&costs), options_(options) {
  check(options_.threads >= 1, "EvalEngine: thread count must be >= 1");
  if (options_.threads > 1) pool_ = std::make_unique<ThreadPool>(options_.threads);
}

uint64_t EvalEngine::plan_key(const graph::GraphDef& graph,
                              const strategy::Grouping& grouping,
                              const strategy::StrategyMap& strategy,
                              const sim::PlanEvalOptions& options) {
  Hash64 h;
  // Graph identity: the model builders give every graph a distinct name and
  // the grouping assignment below covers the op structure the evaluation
  // depends on, so (name, op count, batch, assignment) identifies the input.
  h.mix_string(graph.name());
  h.mix_signed(graph.op_count());
  h.mix_double(graph.global_batch());
  for (strategy::GroupId g : grouping.assignment()) {
    h.mix_signed(g);
  }
  for (const auto& a : strategy.group_actions) {
    if (a.is_mp) {
      h.mix_signed(1 + static_cast<int64_t>(a.mp_device));
    } else {
      h.mix_signed(-1 - (static_cast<int64_t>(a.replication) * 2 +
                         static_cast<int64_t>(a.comm)));
    }
  }
  // Everything in PlanEvalOptions / CompilerOptions that changes the result.
  // collect_utilization is deliberately absent (cache-bypassing deployment
  // path only), as is the engine's PlanEvalScratch (pure memoization).
  h.mix_signed(static_cast<int64_t>(options.policy));
  h.mix_signed(options.unroll_iterations);
  h.mix_double(options.usable_memory_fraction);
  h.mix_signed(options.compiler.allreduce_fusion_bytes);
  h.mix_double(options.compiler.ps_rpc_overhead_ms);
  h.mix_signed(options.compiler.forced_ps_device);
  // Mixed only when set so keys (and durable-store entries) from runs
  // predating the flag stay valid for the default behaviour.
  if (options.skip_unroll_on_oom) h.mix(0x6f6f6d736b6970ULL);  // "oomskip"
  return h.digest();
}

uint64_t EvalEngine::store_key(uint64_t key) const {
  return Hash64().mix(options_.store_context).mix(key).digest();
}

bool EvalEngine::lookup_lru(uint64_t key, sim::PlanEvaluation* out) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!cache_enabled()) return false;
  const auto it = index_.find(key);
  if (it == index_.end()) return false;
  lru_.splice(lru_.begin(), lru_, it->second);
  ++stats_.hits;
  *out = it->second->second;
  return true;
}

bool EvalEngine::lookup(uint64_t key, sim::PlanEvaluation* out) {
  if (lookup_lru(key, out)) return true;
  // LRU miss: consult the durable cross-run tier (own mutex; never held
  // together with mu_). A store hit promotes into the LRU so repeats stay
  // in-process.
  if (options_.plan_store != nullptr &&
      options_.plan_store->lookup(store_key(key), out)) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.hits;
    ++stats_.store_hits;
    if (cache_enabled()) insert_lru_locked(key, *out);
    return true;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (options_.plan_store != nullptr) ++stats_.store_misses;
  ++stats_.misses;  // misses count full evaluations (cache on or off)
  return false;
}

void EvalEngine::insert(uint64_t key, const sim::PlanEvaluation& eval,
                        bool from_store) {
  // Write-behind into the durable tier (its own lock; cheap append
  // buffering). Entries read *from* the store are not echoed back.
  if (!from_store && options_.plan_store != nullptr) {
    options_.plan_store->put(store_key(key), eval);
  }
  if (!cache_enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  insert_lru_locked(key, eval);
}

void EvalEngine::insert_lru_locked(uint64_t key, const sim::PlanEvaluation& eval) {
  const auto it = index_.find(key);
  if (it != index_.end()) {
    // Another worker computed the same key concurrently; results are
    // identical (evaluate_plan is pure), keep the resident entry.
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(key, eval);
  index_[key] = lru_.begin();
  while (lru_.size() > options_.cache_capacity) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

sim::PlanEvaluation EvalEngine::evaluate(const graph::GraphDef& graph,
                                         const strategy::Grouping& grouping,
                                         const strategy::StrategyMap& strategy,
                                         const sim::PlanEvalOptions& options) {
  const uint64_t key = plan_key(graph, grouping, strategy, options);
  sim::PlanEvaluation cached;
  if (lookup(key, &cached)) return cached;
  sim::PlanEvaluation eval =
      sim::evaluate_plan(*costs_, graph, grouping, strategy, options, &scratch_);
  insert(key, eval, /*from_store=*/false);
  return eval;
}

std::vector<sim::PlanEvaluation> EvalEngine::evaluate_batch(
    const graph::GraphDef& graph, const strategy::Grouping& grouping,
    const std::vector<strategy::StrategyMap>& strategies,
    const sim::PlanEvalOptions& options) {
  std::vector<sim::PlanEvaluation> results(strategies.size());
  parallel_for(strategies.size(), [&](size_t i) {
    results[i] = evaluate(graph, grouping, strategies[i], options);
  });
  return results;
}

void EvalEngine::parallel_for(size_t n, const std::function<void(size_t)>& body) {
  if (pool_ != nullptr) {
    pool_->parallel_for(n, body);
  } else {
    for (size_t i = 0; i < n; ++i) body(i);
  }
}

void EvalEngine::poison(uint64_t key, const sim::PlanEvaluation& eval) {
  check(cache_enabled(), "EvalEngine::poison: cache is disabled");
  // LRU tier only: a poisoned test entry must never become durable.
  insert(key, eval, /*from_store=*/true);
}

EvalEngineStats EvalEngine::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace heterog::rl

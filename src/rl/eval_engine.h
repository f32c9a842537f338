// Parallel, memoized plan evaluation for the RL search.
//
// Trainer::search evaluates every sampled strategy and every heuristic
// warm-start candidate with a full compile + rank-order simulation — a
// serial hot path even though the evaluations are mutually independent. The
// EvalEngine is that hot path made concurrent and cached:
//
//   * fan-out — evaluate_batch runs independent evaluations across a
//     fixed-size ThreadPool (compile + simulate share no mutable state; see
//     the thread-safety notes in compiler.h / simulator.h);
//   * memoization — results are kept in a bounded LRU cache keyed by a
//     64-bit hash of (graph identity, grouping, strategy, compiler +
//     evaluation options), so re-sampled strategies skip compile+simulate
//     entirely;
//   * determinism — results are written to per-index slots and reduced in
//     input order, and evaluate_plan itself is a pure function, so rewards,
//     baselines and the incumbent trace are bit-identical to the serial
//     path whatever the thread count. tests/eval_engine_test.cpp pins this.
//
// The cache is scoped to one engine and therefore to one CostProvider (one
// cluster + cost model): Trainer owns an engine per instance, and a cluster
// change means a new CostProvider, a new Trainer, and hence a fresh cache —
// stale cross-cluster hits are impossible by construction.
//
// An optional store::PlanStore adds a durable cross-run tier behind the LRU
// (read-through on miss, write-behind on every full evaluation). Because
// plan_key deliberately omits cluster / cost-model identity (the LRU is
// scoped by construction, above), store keys mix in `store_context` — a
// caller-supplied hash of exactly that identity (heterog's planning stage
// derives it from the cluster fingerprint + profiler seed) — so persisted
// entries can never leak across clusters or cost models.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/thread_pool.h"
#include "profiler/cost_provider.h"
#include "sim/plan_eval.h"
#include "store/plan_store.h"
#include "strategy/strategy.h"

namespace heterog::rl {

struct EvalEngineOptions {
  /// Worker threads for evaluate_batch / parallel_for; <= 1 runs inline.
  int threads = 1;
  /// Maximum memoized evaluations (LRU-evicted beyond); 0 disables caching.
  size_t cache_capacity = 4096;
  /// Durable cross-run cache tier (non-owning; must outlive the engine).
  /// Consulted on LRU miss; every full evaluation is written behind. Null
  /// disables the tier — behaviour is then bit-for-bit the pre-store engine.
  store::PlanStore* plan_store = nullptr;
  /// Salt mixed into every store key, carrying the cost-model identity that
  /// plan_key omits (see the header comment). Callers wiring a store MUST
  /// set this to a hash of the cluster + cost-model configuration.
  uint64_t store_context = 0;
};

struct EvalEngineStats {
  uint64_t hits = 0;      // answered without compile+simulate (either tier)
  uint64_t misses = 0;    // == full compile+simulate evaluations
  uint64_t evictions = 0;
  uint64_t store_hits = 0;    // subset of hits answered by the durable store
  uint64_t store_misses = 0;  // store probes that fell through to evaluation
};

class EvalEngine {
 public:
  EvalEngine(const profiler::CostProvider& costs, EvalEngineOptions options);

  /// Evaluates one strategy, consulting the cache first. Thread-safe.
  sim::PlanEvaluation evaluate(const graph::GraphDef& graph,
                               const strategy::Grouping& grouping,
                               const strategy::StrategyMap& strategy,
                               const sim::PlanEvalOptions& options);

  /// Evaluates a batch of strategies across the pool; result i corresponds
  /// to strategies[i] regardless of completion order.
  std::vector<sim::PlanEvaluation> evaluate_batch(
      const graph::GraphDef& graph, const strategy::Grouping& grouping,
      const std::vector<strategy::StrategyMap>& strategies,
      const sim::PlanEvalOptions& options);

  /// Generic fan-out over the engine's pool (serial when threads <= 1).
  /// Used by Trainer for independent multi-evaluation jobs (OOM repair of
  /// several candidates); `body` may call evaluate() but not parallel_for.
  void parallel_for(size_t n, const std::function<void(size_t)>& body);

  /// The cache key: a 64-bit hash of graph identity (name, op count, global
  /// batch), the grouping assignment, every group action, and the options
  /// that change the result (order policy, unroll, memory fraction,
  /// collective fusion, PS RPC overhead, forced PS device). Exposed so
  /// tests can verify keys distinguish near-identical strategies.
  static uint64_t plan_key(const graph::GraphDef& graph,
                           const strategy::Grouping& grouping,
                           const strategy::StrategyMap& strategy,
                           const sim::PlanEvalOptions& options);

  /// Test hook: plants `eval` under `key`, as a real result would be. Used
  /// to prove the cache is actually consulted (a poisoned entry surfaces)
  /// and that near-identical strategies do not collide (they do not surface
  /// the poison).
  void poison(uint64_t key, const sim::PlanEvaluation& eval);

  EvalEngineStats stats() const;

  int threads() const { return options_.threads; }
  bool cache_enabled() const { return options_.cache_capacity > 0; }
  store::PlanStore* plan_store() const { return options_.plan_store; }

  /// The durable-tier key for a plan_key: store_context mixed in so entries
  /// from different clusters / cost models can never collide meaningfully.
  uint64_t store_key(uint64_t key) const;

 private:
  bool lookup(uint64_t key, sim::PlanEvaluation* out);
  bool lookup_lru(uint64_t key, sim::PlanEvaluation* out);
  void insert(uint64_t key, const sim::PlanEvaluation& eval, bool from_store);
  void insert_lru_locked(uint64_t key, const sim::PlanEvaluation& eval);

  const profiler::CostProvider* costs_;
  EvalEngineOptions options_;
  std::unique_ptr<ThreadPool> pool_;  // null when threads <= 1

  // Cross-evaluation scratch for evaluate_plan (unrolled-graph cache; own
  // lock, thread-safe). Deliberately NOT part of plan_key: results are
  // bit-identical with and without it.
  sim::PlanEvalScratch scratch_;

  // LRU cache: most-recently-used at the front of lru_.
  mutable std::mutex mu_;
  std::list<std::pair<uint64_t, sim::PlanEvaluation>> lru_;
  std::unordered_map<uint64_t,
                     std::list<std::pair<uint64_t, sim::PlanEvaluation>>::iterator>
      index_;
  EvalEngineStats stats_;
};

}  // namespace heterog::rl

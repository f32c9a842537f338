#include "rl/trainer.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>

#include "common/check.h"
#include "common/log.h"
#include "sim/plan_eval.h"

namespace heterog::rl {

namespace {

using strategy::Action;
using strategy::CommMethod;
using strategy::ReplicationMode;

double wall_ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                   t0)
      .count();
}

/// Closes a search of `model` begun at `t0`: copies the engine traffic since
/// `before` into `result` and emits the search_end event.
void end_search(const EvalEngine& engine, const EvalEngineStats& before,
                obs::EventLog* events, const std::string& model,
                std::chrono::steady_clock::time_point t0, SearchResult* result) {
  const EvalEngineStats after = engine.stats();
  result->eval_cache_hits = after.hits - before.hits;
  result->eval_cache_misses = after.misses - before.misses;
  result->eval_store_hits = after.store_hits - before.store_hits;
  result->eval_store_misses = after.store_misses - before.store_misses;
  if (events == nullptr) return;
  events->emit(obs::Event("search_end")
                   .with("model", model)
                   .with("episodes_run", result->episodes_run)
                   .with("best_ms", result->best_time_ms)
                   .with("best_reward", result->best_reward)
                   .with("best_feasible", result->best_feasible)
                   .with("episode_of_best", result->episode_of_best)
                   .with("cache_hits", result->eval_cache_hits)
                   .with("cache_misses", result->eval_cache_misses)
                   .with("wall_ms", wall_ms_since(t0)));
}

}  // namespace

Trainer::Trainer(const profiler::CostProvider& costs, TrainConfig config)
    : costs_(&costs), config_(config) {
  check(config_.episodes >= 0 && config_.samples_per_episode >= 1,
        "Trainer: bad episode configuration");
  check(config_.threads >= 1, "Trainer: thread count must be >= 1");
  EvalEngineOptions engine_options;
  engine_options.threads = config_.threads;
  engine_options.cache_capacity = config_.eval_cache_capacity;
  engine_options.plan_store = config_.plan_store;
  engine_options.store_context = config_.plan_store_context;
  engine_ = std::make_unique<EvalEngine>(costs, engine_options);
}

double Trainer::reward_from(double time_ms, bool oom) const {
  // R = -sqrt(T seconds); x penalty factor when the plan overflows memory.
  double reward = -std::sqrt(std::max(time_ms, 0.0) / 1000.0);
  if (oom) reward *= config_.oom_penalty_factor;
  return reward;
}

sim::PlanEvalOptions Trainer::eval_options() const {
  sim::PlanEvalOptions options;
  options.compiler = config_.compiler;
  options.skip_unroll_on_oom = config_.skip_unroll_on_oom;
  return options;
}

Evaluation Trainer::to_evaluation(const sim::PlanEvaluation& plan) const {
  Evaluation eval;
  eval.time_ms = plan.per_iteration_ms;
  eval.oom = plan.oom;
  eval.reward = reward_from(plan.per_iteration_ms, plan.oom);
  return eval;
}

Evaluation Trainer::evaluate(const graph::GraphDef& graph,
                             const strategy::Grouping& grouping,
                             const strategy::StrategyMap& strategy) const {
  return to_evaluation(engine_->evaluate(graph, grouping, strategy, eval_options()));
}

std::vector<Evaluation> Trainer::evaluate_batch(
    const graph::GraphDef& graph, const strategy::Grouping& grouping,
    const std::vector<strategy::StrategyMap>& strategies) const {
  const auto plans =
      engine_->evaluate_batch(graph, grouping, strategies, eval_options());
  std::vector<Evaluation> evals;
  evals.reserve(plans.size());
  for (const auto& plan : plans) evals.push_back(to_evaluation(plan));
  return evals;
}

std::vector<strategy::StrategyMap> Trainer::heuristic_candidates(
    const graph::GraphDef& graph, const strategy::Grouping& grouping) const {
  const auto& cluster = costs_->cluster();
  const int groups = grouping.group_count();
  std::vector<strategy::StrategyMap> candidates;

  // The four uniform DP strategies.
  for (ReplicationMode mode : {ReplicationMode::kEven, ReplicationMode::kProportional}) {
    for (CommMethod comm : {CommMethod::kPS, CommMethod::kAllReduce}) {
      candidates.push_back(strategy::StrategyMap::uniform(groups, Action::dp(mode, comm)));
    }
  }

  // Capacity-balanced MP: greedily pack groups onto devices in proportion to
  // memory capacity (feasibility fallback for models where DP overflows).
  {
    std::vector<std::pair<double, strategy::GroupId>> weights;  // bytes, group
    for (strategy::GroupId g = 0; g < groups; ++g) {
      double bytes = 0.0;
      for (graph::OpId op : grouping.members(g)) {
        bytes += static_cast<double>(graph.op(op).out_bytes(graph.global_batch()));
        bytes += 2.0 * static_cast<double>(graph.op(op).param_bytes);
      }
      weights.emplace_back(bytes, g);
    }
    std::sort(weights.rbegin(), weights.rend());
    std::vector<double> free_bytes;
    for (const auto& d : cluster.devices()) {
      free_bytes.push_back(0.92 * static_cast<double>(d.memory_bytes));
    }
    strategy::StrategyMap mp_map = strategy::StrategyMap::uniform(groups, Action::mp(0));
    for (const auto& [bytes, g] : weights) {
      // Device with the most free memory, weighted mildly by compute power.
      int best = 0;
      double best_key = -1e300;
      for (const auto& d : cluster.devices()) {
        const double key = free_bytes[static_cast<size_t>(d.id)] +
                           1e6 * cluster.relative_power(d.id);
        if (key > best_key) {
          best_key = key;
          best = d.id;
        }
      }
      free_bytes[static_cast<size_t>(best)] -= bytes;
      mp_map.group_actions[static_cast<size_t>(g)] = Action::mp(best);
    }
    candidates.push_back(std::move(mp_map));
  }

  // Contiguous capacity split: walk groups in graph order and cut them into
  // contiguous spans whose activation+parameter footprint is proportional to
  // device memory. Keeps adjacent layers co-located (few transfers) while
  // fitting models whose DP replicas overflow — the dominant pattern in the
  // paper's Table 3 plans.
  {
    std::vector<double> group_bytes(static_cast<size_t>(groups), 0.0);
    std::vector<double> group_min_topo(static_cast<size_t>(groups), 1e18);
    const auto topo = graph.topological_order();
    std::vector<double> topo_pos(static_cast<size_t>(graph.op_count()), 0.0);
    for (size_t i = 0; i < topo.size(); ++i) {
      topo_pos[static_cast<size_t>(topo[i])] = static_cast<double>(i);
    }
    double total_bytes = 0.0;
    for (strategy::GroupId g = 0; g < groups; ++g) {
      for (graph::OpId op : grouping.members(g)) {
        group_bytes[static_cast<size_t>(g)] +=
            static_cast<double>(graph.op(op).out_bytes(graph.global_batch())) +
            2.0 * static_cast<double>(graph.op(op).param_bytes);
        group_min_topo[static_cast<size_t>(g)] = std::min(
            group_min_topo[static_cast<size_t>(g)], topo_pos[static_cast<size_t>(op)]);
      }
      total_bytes += group_bytes[static_cast<size_t>(g)];
    }
    std::vector<strategy::GroupId> order(static_cast<size_t>(groups));
    for (strategy::GroupId g = 0; g < groups; ++g) order[static_cast<size_t>(g)] = g;
    std::sort(order.begin(), order.end(), [&](strategy::GroupId a, strategy::GroupId b) {
      return group_min_topo[static_cast<size_t>(a)] < group_min_topo[static_cast<size_t>(b)];
    });
    double capacity_total = 0.0;
    for (const auto& d : cluster.devices()) {
      capacity_total += static_cast<double>(d.memory_bytes);
    }
    // Assign each group to the device whose cumulative-capacity window
    // contains the group's weight midpoint; proportional by construction and
    // immune to a single oversized group starving later devices.
    std::vector<double> capacity_prefix;
    double capacity_acc = 0.0;
    for (const auto& d : cluster.devices()) {
      capacity_acc += static_cast<double>(d.memory_bytes);
      capacity_prefix.push_back(capacity_acc / capacity_total);
    }
    strategy::StrategyMap contiguous = strategy::StrategyMap::uniform(groups, Action::mp(0));
    double weight_acc = 0.0;
    size_t device_index = 0;
    for (strategy::GroupId g : order) {
      const double midpoint =
          (weight_acc + 0.5 * group_bytes[static_cast<size_t>(g)]) / total_bytes;
      while (device_index + 1 < capacity_prefix.size() &&
             midpoint > capacity_prefix[device_index]) {
        ++device_index;
      }
      contiguous.group_actions[static_cast<size_t>(g)] =
          Action::mp(static_cast<int>(device_index));
      weight_acc += group_bytes[static_cast<size_t>(g)];
    }
    // Mixed MP/DP family: keep a contiguous MP span (memory relief) and data-
    // parallelise the rest (compute parallelism) — the mixture Table 3
    // reports for the large models. Several span fractions are offered; the
    // evaluator picks whichever fits and runs fastest.
    for (double mp_fraction : {0.25, 0.5, 0.75}) {
      for (CommMethod comm : {CommMethod::kAllReduce, CommMethod::kPS}) {
        strategy::StrategyMap mixed = contiguous;
        const auto span = static_cast<size_t>(mp_fraction * groups);
        for (size_t i = span; i < order.size(); ++i) {
          mixed.group_actions[static_cast<size_t>(order[i])] =
              Action::dp(ReplicationMode::kProportional, comm);
        }
        candidates.push_back(std::move(mixed));
      }
    }
    candidates.push_back(std::move(contiguous));
  }

  // Alternating PS/AllReduce: gradient sync alternates between the NCCL
  // channel and the parameter-server links group by group, halving the load
  // on the serialised NCCL channel while PS traffic hides in its waiting
  // stages — the hybrid the paper observes in Table 2.
  for (ReplicationMode mode : {ReplicationMode::kEven, ReplicationMode::kProportional}) {
    strategy::StrategyMap alternating = strategy::StrategyMap::uniform(
        groups, Action::dp(mode, CommMethod::kAllReduce));
    for (strategy::GroupId g = 0; g < groups; g += 2) {
      alternating.group_actions[static_cast<size_t>(g)] =
          Action::dp(mode, CommMethod::kPS);
    }
    candidates.push_back(std::move(alternating));
  }

  // Hybrid: CP-AR everywhere, but pin parameter-heavy groups (no gradient
  // aggregation) to the fastest device — the pattern Table 2 reports.
  {
    strategy::StrategyMap hybrid = strategy::StrategyMap::uniform(
        groups, Action::dp(ReplicationMode::kProportional, CommMethod::kAllReduce));
    int fastest = 0;
    for (const auto& d : cluster.devices()) {
      if (d.gflops_per_ms > cluster.device(fastest).gflops_per_ms) fastest = d.id;
    }
    constexpr int64_t kHeavyParams = 64LL << 20;
    for (strategy::GroupId g = 0; g < groups; ++g) {
      int64_t params = 0;
      for (graph::OpId op : grouping.members(g)) params += graph.op(op).param_bytes;
      if (params > kHeavyParams) {
        hybrid.group_actions[static_cast<size_t>(g)] = Action::mp(fastest);
      }
    }
    candidates.push_back(std::move(hybrid));
  }

  return candidates;
}

std::pair<strategy::StrategyMap, Evaluation> Trainer::repair_oom(
    const graph::GraphDef& graph, const strategy::Grouping& grouping,
    strategy::StrategyMap map, int max_iterations) const {
  const auto& cluster = costs_->cluster();
  const int groups = grouping.group_count();

  std::vector<double> group_weight(static_cast<size_t>(groups), 0.0);
  for (strategy::GroupId g = 0; g < groups; ++g) {
    for (graph::OpId op : grouping.members(g)) {
      group_weight[static_cast<size_t>(g)] +=
          static_cast<double>(graph.op(op).out_bytes(graph.global_batch())) +
          2.0 * static_cast<double>(graph.op(op).param_bytes);
    }
  }

  Evaluation eval;
  sim::PlanEvalOptions repair_opts;
  repair_opts.compiler = config_.compiler;
  repair_opts.unroll_iterations = 1;  // memory is what matters here
  // Repair against a slightly tighter memory bound than the real check so
  // the final plan carries slack instead of sitting on the knife edge.
  repair_opts.usable_memory_fraction = 0.90;
  for (int iter = 0; iter < max_iterations; ++iter) {
    // Memoized like every evaluation: repeated repairs of similar candidates
    // share intermediate results (the repair options are part of the key).
    const auto result = engine_->evaluate(graph, grouping, map, repair_opts);
    eval.time_ms = result.per_iteration_ms;
    eval.oom = result.oom;
    eval.reward = reward_from(result.per_iteration_ms, result.oom);
    if (!result.oom) return {std::move(map), eval};

    // Calibrate the static weight proxy against the simulated peaks (the
    // proxy misses backward working sets and transfer staging).
    double peak_total = 0.0, proxy_total = 0.0;
    for (const auto& d : cluster.devices()) {
      peak_total += static_cast<double>(
          result.peak_memory_bytes[static_cast<size_t>(d.id)]);
    }
    for (double w : group_weight) proxy_total += w;
    const double scale = proxy_total > 0.0 ? peak_total / proxy_total : 1.0;

    std::vector<double> headroom(static_cast<size_t>(cluster.device_count()), 0.0);
    for (const auto& d : cluster.devices()) {
      headroom[static_cast<size_t>(d.id)] =
          0.90 * static_cast<double>(d.memory_bytes) -
          static_cast<double>(result.peak_memory_bytes[static_cast<size_t>(d.id)]);
    }

    bool moved = false;
    for (cluster::DeviceId oom_dev : result.oom_devices) {
      const double overflow = -headroom[static_cast<size_t>(oom_dev)];
      // Victim: among MP groups on the overflowing device, the lightest one
      // that alone covers the overflow; otherwise the heaviest. If no MP
      // group lives there, demote the heaviest DP group to MP.
      strategy::GroupId victim = -1;
      strategy::GroupId heaviest = -1;
      for (strategy::GroupId g = 0; g < groups; ++g) {
        const auto& a = map.group_actions[static_cast<size_t>(g)];
        if (!(a.is_mp && a.mp_device == oom_dev)) continue;
        const double w = group_weight[static_cast<size_t>(g)] * scale;
        if (heaviest < 0 ||
            group_weight[static_cast<size_t>(g)] > group_weight[static_cast<size_t>(heaviest)]) {
          heaviest = g;
        }
        if (w >= overflow &&
            (victim < 0 || group_weight[static_cast<size_t>(g)] <
                               group_weight[static_cast<size_t>(victim)])) {
          victim = g;
        }
      }
      if (victim < 0) victim = heaviest;
      bool victim_is_mp = victim >= 0;
      if (victim < 0) {
        for (strategy::GroupId g = 0; g < groups; ++g) {
          if (map.group_actions[static_cast<size_t>(g)].is_mp) continue;
          if (victim < 0 || group_weight[static_cast<size_t>(g)] >
                                group_weight[static_cast<size_t>(victim)]) {
            victim = g;
          }
        }
      }
      if (victim < 0) continue;
      const double victim_bytes = group_weight[static_cast<size_t>(victim)] * scale;

      // Target: the device with the most headroom after the move; prefer
      // devices the victim actually fits on.
      int target = -1;
      double best_remaining = -1e300;
      for (const auto& d : cluster.devices()) {
        if (victim_is_mp && d.id == oom_dev) continue;
        const double remaining = headroom[static_cast<size_t>(d.id)] - victim_bytes;
        if (remaining > best_remaining) {
          best_remaining = remaining;
          target = d.id;
        }
      }
      if (target < 0) continue;
      map.group_actions[static_cast<size_t>(victim)] = strategy::Action::mp(target);
      headroom[static_cast<size_t>(target)] -= victim_bytes;
      headroom[static_cast<size_t>(oom_dev)] += victim_bytes;
      moved = true;
    }
    if (!moved) break;
  }
  return {std::move(map), eval};
}

EpisodeStats Trainer::reinforce_step(agent::PolicyNetwork& policy,
                                     const agent::EncodedGraph& encoded,
                                     MovingAverage& baseline, Rng& rng,
                                     SearchResult* result) {
  nn::Tape tape;
  const auto forward = policy.forward(tape, encoded);
  const nn::Matrix& logits_value = forward.logits.value();

  const nn::Var log_probs = tape.log_softmax_rows(forward.logits);
  const nn::Var probs = tape.softmax_rows(forward.logits);
  // Entropy H = -sum p log p, averaged over groups.
  const nn::Var entropy = tape.scale(
      tape.sum_all(tape.hadamard(probs, log_probs)),
      -1.0 / static_cast<double>(encoded.group_count()));

  // Sample every strategy first (the RNG is consumed in sample order, same
  // as a fully serial loop — evaluation draws nothing from it), fan the
  // evaluations out across the engine's workers, then reduce in sample
  // order: baseline updates, incumbent updates and loss terms see results
  // in exactly the serial sequence, so the search is bit-identical whatever
  // the thread count.
  std::vector<std::vector<int>> sampled(static_cast<size_t>(config_.samples_per_episode));
  std::vector<strategy::StrategyMap> maps(static_cast<size_t>(config_.samples_per_episode));
  for (int s = 0; s < config_.samples_per_episode; ++s) {
    sampled[static_cast<size_t>(s)] =
        policy.sample_actions(logits_value, rng, policy.config().sample_temperature);
    auto& map = maps[static_cast<size_t>(s)];
    map.group_actions.reserve(sampled[static_cast<size_t>(s)].size());
    for (int a : sampled[static_cast<size_t>(s)]) {
      map.group_actions.push_back(Action::from_index(a, policy.device_count()));
    }
  }
  const std::vector<Evaluation> evals =
      evaluate_batch(*encoded.graph, encoded.grouping, maps);

  EpisodeStats episode_stats;
  nn::Var policy_loss;
  for (int s = 0; s < config_.samples_per_episode; ++s) {
    const std::vector<int>& actions = sampled[static_cast<size_t>(s)];
    const strategy::StrategyMap& map = maps[static_cast<size_t>(s)];
    const Evaluation& eval = evals[static_cast<size_t>(s)];
    const double prev_baseline =
        baseline.initialised() ? baseline.value() : eval.reward;
    const double advantage = eval.reward - prev_baseline;
    baseline.update(eval.reward);
    episode_stats.mean_reward += eval.reward / config_.samples_per_episode;
    if (eval.oom) ++episode_stats.oom_samples;

    if (result != nullptr) {
      const bool better = !eval.oom && (!result->best_feasible ||
                                        eval.time_ms < result->best_time_ms);
      if (better || result->best_strategy.group_actions.empty()) {
        result->best_strategy = map;
        result->best_time_ms = eval.time_ms;
        result->best_feasible = !eval.oom;
        result->episode_of_best = result->episodes_run;
      }
    }

    // -advantage * mean_g log pi(a_g)
    const nn::Var picked = tape.pick_per_row(log_probs, actions);
    const nn::Var mean_logp =
        tape.scale(tape.sum_all(picked), 1.0 / static_cast<double>(actions.size()));
    const nn::Var sample_loss =
        tape.scale(mean_logp, -advantage / config_.samples_per_episode);
    policy_loss = policy_loss.defined() ? tape.add(policy_loss, sample_loss) : sample_loss;
  }

  const nn::Var loss =
      tape.subtract(policy_loss, tape.scale(entropy, config_.entropy_weight));
  tape.backward(loss);
  optimizer_->step();

  episode_stats.baseline = baseline.value();
  episode_stats.entropy = entropy.scalar();
  return episode_stats;
}

SearchResult Trainer::search(agent::PolicyNetwork& policy,
                             const agent::EncodedGraph& encoded) {
  check(encoded.graph != nullptr, "search: encoded graph missing source");
  if (optimizer_ == nullptr || bound_policy_ != &policy) {
    nn::AdamOptimizer::Options opts;
    opts.learning_rate = config_.learning_rate;
    optimizer_ = std::make_unique<nn::AdamOptimizer>(policy.params(), opts);
    bound_policy_ = &policy;
  }

  SearchResult result;
  Rng rng(config_.seed);
  const EvalEngineStats stats_before = engine_->stats();
  const auto search_t0 = std::chrono::steady_clock::now();

  // Telemetry is write-only: events carry copies of values the search
  // computes anyway, so the result is bit-identical with or without a log.
  obs::EventLog* events = config_.events;
  const auto cache_traffic = [&](uint64_t* hits, uint64_t* misses) {
    const EvalEngineStats now = engine_->stats();
    *hits = now.hits - stats_before.hits;
    *misses = now.misses - stats_before.misses;
  };
  if (events != nullptr) {
    events->emit(obs::Event("search_start")
                     .with("model", encoded.graph->name())
                     .with("groups", encoded.group_count())
                     .with("devices", policy.device_count())
                     .with("episode_budget", config_.episodes)
                     .with("samples_per_episode", config_.samples_per_episode)
                     .with("threads", config_.threads)
                     .with("cache_capacity",
                           static_cast<int64_t>(config_.eval_cache_capacity)));
  }

  if (config_.seed_heuristics) {
    const auto phase_t0 = std::chrono::steady_clock::now();
    auto consider = [&](const strategy::StrategyMap& candidate, const Evaluation& eval) {
      const bool better = !eval.oom && (!result.best_feasible ||
                                        eval.time_ms < result.best_time_ms);
      if (better || result.best_strategy.group_actions.empty()) {
        result.best_strategy = candidate;
        result.best_time_ms = eval.time_ms;
        result.best_feasible = !eval.oom;
      }
    };
    // Evaluate every warm-start candidate as one parallel batch, then reduce
    // in candidate order — the incumbent after this loop is the one the
    // serial path would have picked.
    std::vector<strategy::StrategyMap> candidates =
        heuristic_candidates(*encoded.graph, encoded.grouping);
    const std::vector<Evaluation> evals =
        evaluate_batch(*encoded.graph, encoded.grouping, candidates);
    std::vector<std::pair<double, strategy::StrategyMap>> oom_candidates;
    for (size_t i = 0; i < candidates.size(); ++i) {
      consider(candidates[i], evals[i]);
      if (evals[i].oom) {
        oom_candidates.emplace_back(evals[i].time_ms, std::move(candidates[i]));
      }
    }
    // Memory-repair the most promising infeasible candidates (greedy moves
    // guided by simulated peaks) — this is what rescues the large models
    // whose every heuristic overflows somewhere.
    std::sort(oom_candidates.begin(), oom_candidates.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    // Even with a feasible incumbent, repairing the fastest infeasible
    // candidates can yield better hybrids (e.g. CP-PS that only overflows
    // the V100s). When nothing is feasible yet, repair generously — the
    // large models depend on it.
    const size_t repair_budget = std::min(
        result.best_feasible ? size_t{2} : oom_candidates.size(), oom_candidates.size());
    // Repairs are independent per candidate (each is a deterministic local
    // fixpoint that never reads the incumbent), so fan them out across the
    // pool — workers call engine_->evaluate() inline, never parallel_for —
    // and consider the repaired plans in candidate order afterwards.
    std::vector<std::pair<strategy::StrategyMap, Evaluation>> repaired_slots(repair_budget);
    std::vector<Evaluation> refined_slots(repair_budget);
    engine_->parallel_for(repair_budget, [&](size_t i) {
      repaired_slots[i] =
          repair_oom(*encoded.graph, encoded.grouping, oom_candidates[i].second, 40);
      if (!repaired_slots[i].second.oom) {
        // Re-evaluate at full fidelity (steady-state unrolling).
        refined_slots[i] =
            evaluate(*encoded.graph, encoded.grouping, repaired_slots[i].first);
      }
    });
    for (size_t i = 0; i < repair_budget; ++i) {
      if (repaired_slots[i].second.oom) continue;
      consider(repaired_slots[i].first, refined_slots[i]);
    }
    if (events != nullptr) {
      events->emit(obs::Event("search_phase")
                       .with("phase", "heuristics")
                       .with("wall_ms", wall_ms_since(phase_t0))
                       .with("candidates", static_cast<int64_t>(evals.size()))
                       .with("repaired", static_cast<int64_t>(repair_budget))
                       .with("best_ms", result.best_time_ms)
                       .with("best_feasible", result.best_feasible));
    }
  }

  MovingAverage baseline(config_.baseline_decay);
  int stale = 0;
  double last_best = result.best_feasible ? result.best_time_ms : 1e300;
  for (int episode = 0; episode < config_.episodes; ++episode) {
    result.episodes_run = episode + 1;
    const auto episode_t0 = std::chrono::steady_clock::now();
    const EpisodeStats ep = reinforce_step(policy, encoded, baseline, rng, &result);
    result.episode_best_ms.push_back(result.best_feasible ? result.best_time_ms : -1.0);
    if (events != nullptr) {
      uint64_t hits = 0, misses = 0;
      cache_traffic(&hits, &misses);
      events->emit(obs::Event("search_episode")
                       .with("episode", episode + 1)
                       .with("best_ms", result.best_time_ms)
                       .with("best_feasible", result.best_feasible)
                       .with("best_reward",
                             reward_from(result.best_time_ms, !result.best_feasible))
                       .with("mean_reward", ep.mean_reward)
                       .with("baseline", ep.baseline)
                       .with("entropy", ep.entropy)
                       .with("oom_samples", ep.oom_samples)
                       .with("cache_hits", hits)
                       .with("cache_misses", misses)
                       .with("wall_ms", wall_ms_since(episode_t0)));
    }
    if (result.best_feasible && result.best_time_ms < last_best - 1e-9) {
      last_best = result.best_time_ms;
      stale = 0;
    } else if (config_.patience > 0 && ++stale >= config_.patience) {
      break;
    }
  }

  // Final polish: greedy single-group moves on the incumbent. Each move
  // re-assigns one group to a random alternative action and keeps the change
  // only when the plan stays feasible and gets faster. The moves are drawn
  // up front (every move consumes its (g, a) pair from the RNG whether or
  // not it is accepted, so the draw sequence is fixed), then evaluated in
  // speculative batches against the current incumbent: the first improving
  // move in scan order is accepted, and the rest of its batch — evaluated
  // against a now-stale incumbent — is discarded and redrawn from the move
  // list. That reproduces the serial hill climb exactly: a candidate after
  // an accepted move never contributes a result computed off the old base.
  if (result.best_feasible && config_.polish_moves > 0 &&
      !result.best_strategy.group_actions.empty()) {
    const auto polish_t0 = std::chrono::steady_clock::now();
    int accepted = 0;
    Rng polish_rng(config_.seed ^ 0x9E3779B9);
    const int groups = static_cast<int>(result.best_strategy.group_actions.size());
    const int actions = strategy::Action::action_count(costs_->cluster().device_count());
    std::vector<std::pair<int, int>> moves;
    moves.reserve(static_cast<size_t>(config_.polish_moves));
    for (int move = 0; move < config_.polish_moves; ++move) {
      const int g = polish_rng.uniform_int(0, groups - 1);
      const int a = polish_rng.uniform_int(0, actions - 1);
      moves.emplace_back(g, a);
    }
    const size_t batch_size = static_cast<size_t>(std::max(config_.threads, 1));
    size_t next = 0;
    while (next < moves.size()) {
      const size_t n = std::min(batch_size, moves.size() - next);
      std::vector<strategy::StrategyMap> batch;
      batch.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        strategy::StrategyMap candidate = result.best_strategy;
        candidate.group_actions[static_cast<size_t>(moves[next + i].first)] =
            strategy::Action::from_index(moves[next + i].second,
                                         costs_->cluster().device_count());
        batch.push_back(std::move(candidate));
      }
      const std::vector<Evaluation> evals =
          evaluate_batch(*encoded.graph, encoded.grouping, batch);
      size_t advanced = n;
      for (size_t i = 0; i < n; ++i) {
        if (!evals[i].oom && evals[i].time_ms < result.best_time_ms - 1e-9) {
          result.best_strategy = std::move(batch[i]);
          result.best_time_ms = evals[i].time_ms;
          ++accepted;
          advanced = i + 1;  // later slots were speculated off the old base
          break;
        }
      }
      next += advanced;
    }
    if (events != nullptr) {
      events->emit(obs::Event("search_phase")
                       .with("phase", "polish")
                       .with("wall_ms", wall_ms_since(polish_t0))
                       .with("moves", config_.polish_moves)
                       .with("accepted", accepted)
                       .with("best_ms", result.best_time_ms)
                       .with("best_feasible", result.best_feasible));
    }
  }

  result.best_reward = reward_from(result.best_time_ms, !result.best_feasible);
  end_search(*engine_, stats_before, events, encoded.graph->name(), search_t0, &result);

  log_info() << "search(" << encoded.graph->name() << "): best "
             << result.best_time_ms << " ms after " << result.episodes_run
             << " episodes (feasible=" << result.best_feasible << ", eval cache "
             << result.eval_cache_hits << " hits / " << result.eval_cache_misses
             << " misses)";
  return result;
}

SearchResult Trainer::search_heuristic(const graph::GraphDef& graph,
                                       const strategy::Grouping& grouping) const {
  const EvalEngineStats stats_before = engine_->stats();
  const auto t0 = std::chrono::steady_clock::now();
  // The reduce reads only `oom` and the feasible winner's time, so rejected
  // candidates skip the steady-state unroll (~40% of an evaluation at 1000
  // GPUs).
  sim::PlanEvalOptions options = eval_options();
  options.skip_unroll_on_oom = true;
  const std::vector<strategy::StrategyMap> candidates =
      heuristic_candidates(graph, grouping);
  const std::vector<sim::PlanEvaluation> plans =
      engine_->evaluate_batch(graph, grouping, candidates, options);

  SearchResult result;
  for (size_t i = 0; i < candidates.size(); ++i) {
    const Evaluation eval = to_evaluation(plans[i]);
    const bool better =
        !eval.oom && (!result.best_feasible || eval.time_ms < result.best_time_ms);
    if (better || result.best_strategy.group_actions.empty()) {
      result.best_strategy = candidates[i];
      result.best_time_ms = eval.time_ms;
      result.best_reward = eval.reward;
      result.best_feasible = !eval.oom;
    }
  }
  end_search(*engine_, stats_before, config_.events, graph.name(), t0, &result);
  return result;
}

double Trainer::pretrain_round(agent::PolicyNetwork& policy,
                               const std::vector<const agent::EncodedGraph*>& graphs) {
  check(!graphs.empty(), "pretrain_round: no graphs");
  if (optimizer_ == nullptr || bound_policy_ != &policy) {
    nn::AdamOptimizer::Options opts;
    opts.learning_rate = config_.learning_rate;
    optimizer_ = std::make_unique<nn::AdamOptimizer>(policy.params(), opts);
    bound_policy_ = &policy;
  }
  Rng rng(config_.seed ^ 0xABCDEF);
  double total_reward = 0.0;
  int samples = 0;
  for (const auto* encoded : graphs) {
    nn::Tape tape;
    const auto forward = policy.forward(tape, *encoded);
    const nn::Var log_probs = tape.log_softmax_rows(forward.logits);
    const nn::Var probs = tape.softmax_rows(forward.logits);
    const nn::Var entropy =
        tape.scale(tape.sum_all(tape.hadamard(probs, log_probs)),
                   -1.0 / static_cast<double>(encoded->group_count()));

    const auto actions = policy.sample_actions(forward.logits.value(), rng,
                                               policy.config().sample_temperature);
    strategy::StrategyMap map;
    for (int a : actions) {
      map.group_actions.push_back(Action::from_index(a, policy.device_count()));
    }
    const Evaluation eval = evaluate(*encoded->graph, encoded->grouping, map);
    total_reward += eval.reward;
    ++samples;
    const double prev = pretrain_baseline_.initialised() ? pretrain_baseline_.value()
                                                         : eval.reward;
    const double advantage = eval.reward - prev;
    pretrain_baseline_.update(eval.reward);

    const nn::Var picked = tape.pick_per_row(log_probs, actions);
    const nn::Var mean_logp = tape.scale(
        tape.sum_all(picked), 1.0 / static_cast<double>(actions.size()));
    const nn::Var loss =
        tape.subtract(tape.scale(mean_logp, -advantage),
                      tape.scale(entropy, config_.entropy_weight));
    tape.backward(loss);
    optimizer_->step();
  }
  const double mean_reward = total_reward / samples;
  if (config_.events != nullptr) {
    config_.events->emit(obs::Event("pretrain_round")
                             .with("graphs", static_cast<int64_t>(graphs.size()))
                             .with("mean_reward", mean_reward));
  }
  return mean_reward;
}

}  // namespace heterog::rl

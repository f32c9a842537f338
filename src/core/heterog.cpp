#include "core/heterog.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <map>
#include <numeric>

#include "common/check.h"
#include "common/crc32.h"
#include "common/hash.h"
#include "common/log.h"
#include "common/shutdown.h"
#include "sim/fault_sim.h"
#include "strategy/serialize.h"

namespace heterog {

namespace {

/// The choose stage's output: the grouping the Strategy Maker encoded and
/// the search that picked a strategy for it.
struct Choice {
  strategy::Grouping grouping;
  rl::SearchResult search;
};

/// Choose stage: profile -> encode -> search. RL when `rl_episodes` > 0,
/// else the heuristic-only search. Deterministic in (graph, cluster, config,
/// rl_episodes).
Choice choose_plan(const graph::GraphDef& training_graph,
                   const cluster::ClusterSpec& cluster, const HeteroGConfig& config,
                   int rl_episodes) {
  // Profiler: regression cost models over the (synthetic) hardware.
  const profiler::HardwareModel hardware(cluster);
  profiler::Profiler prof(hardware, config.profiler_seed);
  const auto cost_model = prof.profile(training_graph);

  // Strategy Maker.
  agent::EncodedGraph encoded =
      agent::encode_graph(training_graph, *cost_model, config.agent.max_groups);

  rl::TrainConfig train_config = config.train;
  train_config.episodes = rl_episodes;
  if (config.plan_store != nullptr) {
    // The engine's plan_key deliberately omits cluster / cost-model identity
    // (its LRU is scoped per Trainer); the durable store is not, so salt its
    // keys with exactly that identity. Covers mid-run re-plans too: a
    // survivor cluster fingerprints differently, so its entries are disjoint.
    train_config.plan_store = config.plan_store;
    train_config.plan_store_context =
        Hash64()
            .mix(cluster::cluster_fingerprint(cluster))
            .mix(config.profiler_seed)
            .mix_string("profiled-cost-model-v1")
            .digest();
  }
  rl::Trainer trainer(*cost_model, train_config);
  Choice choice;
  if (rl_episodes > 0) {
    agent::PolicyNetwork policy(cluster.device_count(), config.agent);
    choice.search = trainer.search(policy, encoded);
  } else {
    choice.search = trainer.search_heuristic(training_graph, encoded.grouping);
  }
  check(!choice.search.best_strategy.group_actions.empty(),
        "choose_plan: search produced no strategy");
  choice.grouping = std::move(encoded.grouping);
  return choice;
}

/// The deploy stage's output: the plan compiled and evaluated against the
/// ground-truth hardware.
struct Deployment {
  std::shared_ptr<compile::CompileResult> compiled;
  sim::PlanEvaluation evaluation;
};

/// Deploy stage: ground-truth compile -> evaluate_plan with utilization ->
/// `schedule` events. Deterministic in (graph, cluster, config, plan).
Deployment deploy_plan(const graph::GraphDef& training_graph,
                       const cluster::ClusterSpec& cluster, const HeteroGConfig& config,
                       const strategy::Grouping& grouping,
                       const strategy::StrategyMap& strategy) {
  const profiler::HardwareModel hardware(cluster);
  const profiler::GroundTruthCosts ground_truth(hardware);
  Deployment deployment;
  deployment.compiled = std::make_shared<compile::CompileResult>(
      compile::GraphCompiler(ground_truth).compile(training_graph, grouping, strategy));

  sim::PlanEvalOptions options;
  options.policy = config.use_order_scheduling ? sched::OrderPolicy::kRankPriority
                                               : sched::OrderPolicy::kFifo;
  options.collect_utilization = true;  // deployment path: one extra rank pass
  deployment.evaluation =
      sim::evaluate_plan(ground_truth, training_graph, grouping, strategy, options);
  emit_schedule_events(config.events, deployment.evaluation, cluster.device_count());
  return deployment;
}

/// new_id_of[d] after removing `failed` (sorted ascending) from a
/// `device_count`-device cluster with dense ids.
std::vector<int> survivor_id_map(int device_count,
                                 const std::vector<cluster::DeviceId>& failed) {
  std::vector<int> map(static_cast<size_t>(device_count));
  int next = 0;
  for (int d = 0; d < device_count; ++d) {
    const bool dead =
        std::binary_search(failed.begin(), failed.end(), static_cast<cluster::DeviceId>(d));
    map[static_cast<size_t>(d)] = dead ? -1 : next++;
  }
  return map;
}

ckpt::RecoveryRecord to_record(const RecoveryReport& report) {
  ckpt::RecoveryRecord record;
  record.fault_step = report.fault_step;
  record.failed_devices = report.failed_devices;
  record.steps_lost = report.steps_lost;
  record.replan_wall_ms = report.replan_wall_ms;
  record.pre_fault_iteration_ms = report.pre_fault_iteration_ms;
  record.post_fault_iteration_ms = report.post_fault_iteration_ms;
  record.surviving_devices = report.surviving_devices;
  record.post_plan_oom = report.post_plan_oom;
  record.escalated_transient = report.escalated_transient;
  record.detection_attempts = report.detection_attempts;
  record.degraded = report.degraded;
  return record;
}

}  // namespace

void emit_schedule_events(obs::EventLog* events, const sim::PlanEvaluation& eval,
                          int device_count) {
  if (events == nullptr || !events->ok()) return;
  const double makespan = eval.cold_iteration_ms;
  const double denom = makespan > 0.0 ? makespan : 1.0;
  events->emit(obs::Event("schedule")
                   .with("makespan_ms", makespan)
                   .with("per_iteration_ms", eval.per_iteration_ms)
                   .with("computation_ms", eval.computation_ms)
                   .with("communication_ms", eval.communication_ms)
                   .with("critical_path_ms", eval.critical_path_ms)
                   .with("critical_path_share", eval.critical_path_ms / denom)
                   .with("devices", device_count)
                   .with("oom", eval.oom));
  for (size_t d = 0; d < eval.device_busy_ms.size(); ++d) {
    events->emit(obs::Event("device_utilization")
                     .with("device", static_cast<int>(d))
                     .with("busy_ms", eval.device_busy_ms[d])
                     .with("utilization", eval.device_busy_ms[d] / denom));
  }
  for (const auto& link : eval.comm_busy) {
    events->emit(obs::Event("link_utilization")
                     .with("resource", link.resource)
                     .with("busy_ms", link.busy_ms)
                     .with("utilization", link.busy_ms / denom));
  }
}

RunStats DistRunner::run(int steps) const {
  check(steps >= 0, "DistRunner::run: negative steps");
  RunStats stats;
  stats.steps = steps;
  stats.per_iteration_ms = deployment_.per_iteration_ms;
  stats.total_ms = deployment_.per_iteration_ms * steps;
  stats.computation_ms = deployment_.computation_ms;
  stats.communication_ms = deployment_.communication_ms;
  stats.oom = deployment_.oom;
  if (config_.events != nullptr && config_.events->ok()) {
    obs::EventLog& events = *config_.events;
    events.emit(obs::Event("run_start")
                    .with("steps", steps)
                    .with("start_step", 0)
                    .with("devices", cluster_.device_count())
                    .with("per_iteration_ms", stats.per_iteration_ms)
                    .with("faults", 0)
                    .with("checkpointing", false));
    // The fast path never simulates individual steps; every step costs the
    // steady-state per-iteration time.
    for (int s = 0; s < steps; ++s) {
      events.emit(obs::Event("run_step")
                      .with("step", s)
                      .with("step_ms", stats.per_iteration_ms));
    }
    events.emit(obs::Event("run_end")
                    .with("steps_executed", steps)
                    .with("total_ms", stats.total_ms)
                    .with("per_iteration_ms", stats.per_iteration_ms)
                    .with("transient_retries", 0)
                    .with("retry_backoff_ms", 0.0)
                    .with("recoveries", 0)
                    .with("completed", true));
  }
  return stats;
}

RunStats DistRunner::run(int steps, const faults::FaultPlan& plan) const {
  check(steps >= 0, "DistRunner::run: negative steps");
  if (plan.empty()) return run(steps);
  return run_impl(steps, plan, 0, ckpt::CheckpointOptions{}, nullptr);
}

RunStats DistRunner::run(int steps, const ckpt::CheckpointOptions& ckpt) const {
  return run_impl(steps, faults::FaultPlan{}, 0, ckpt, nullptr);
}

RunStats DistRunner::run(int steps, const faults::FaultPlan& plan,
                         const ckpt::CheckpointOptions& ckpt) const {
  return run_impl(steps, plan, 0, ckpt, nullptr);
}

RunStats DistRunner::run_impl(int steps, const faults::FaultPlan& plan, int start_step,
                              const ckpt::CheckpointOptions& copts,
                              const ckpt::RunJournal* prior) const {
  check(steps >= 0, "DistRunner::run: negative steps");
  check(start_step >= 0 && start_step <= steps, "DistRunner::run: bad start step");
  if (!plan.empty()) plan.validate(cluster_);

  RunStats stats;
  stats.steps = steps - start_step;
  stats.computation_ms = deployment_.computation_ms;
  stats.communication_ms = deployment_.communication_ms;
  stats.oom = deployment_.oom;
  stats.step_ms.reserve(static_cast<size_t>(steps - start_step));

  const FaultHandlingConfig& fh = config_.fault_handling;
  const health::HealthPolicy& hp = config_.health;
  // Online = reaction from measurements only (health monitor); off = the
  // PR-1 oracle path that reads the injected plan directly.
  const bool online = hp.enabled;
  const bool det_walls = fh.deterministic_wall_times;

  std::unique_ptr<health::HealthMonitor> monitor;
  if (online) {
    monitor = std::make_unique<health::HealthMonitor>(cluster_.device_count(), hp,
                                                      config_.events);
    if (cluster_.has_topology()) {
      // Rack ids let the monitor attribute coincident same-rack failures to
      // a domain event — still measurement-only: the map describes where
      // devices live, not what faults are scheduled.
      const cluster::TopologySpec& topo = cluster_.topology();
      std::vector<int> racks(static_cast<size_t>(cluster_.device_count()), -1);
      for (const auto& d : cluster_.devices()) {
        racks[static_cast<size_t>(d.id)] =
            topo.rack_of_host[static_cast<size_t>(d.host)];
      }
      monitor->set_rack_map(std::move(racks));
    }
  }

  // Journal bookkeeping. The journal always describes the run from step 0:
  // a resumed run extends `prior`'s history, a fresh run starts its own, so
  // a crash during a resumed run resumes again from a complete record.
  const bool ckpt_on = copts.enabled();
  ckpt::RunJournal journal;
  if (ckpt_on) {
    if (prior) {
      journal = *prior;
    } else {
      journal.model_name = training_graph_.name();
      journal.meta = copts.meta;
      journal.cluster = cluster_;
      journal.cluster_crc = cluster::cluster_fingerprint(cluster_);
      journal.profiler_seed = config_.profiler_seed;
      journal.use_order_scheduling = config_.use_order_scheduling;
      journal.max_groups = config_.agent.max_groups;
      journal.fh_max_retries = fh.max_retries;
      journal.fh_retry_backoff_ms = fh.retry_backoff_ms;
      journal.fh_max_backoff_ms = fh.max_backoff_ms;
      journal.fh_replan_rl_episodes = fh.replan_rl_episodes;
      journal.fh_deterministic_walls = det_walls;
      journal.plan_text = strategy::to_text(strategy_, cluster_);
      journal.grouping_assignment = grouping_.assignment();
      if (!plan.empty()) journal.fault_plan_json = faults::fault_plan_to_json(plan);
    }
    journal.total_steps = steps;
    journal.ckpt_every = copts.every;
    journal.watermark = start_step;
  }
  const int prior_retries = prior ? prior->transient_retries : 0;
  const double prior_backoff = prior ? prior->retry_backoff_total_ms : 0.0;

  obs::EventLog* events = config_.events;
  const bool log_events = events != nullptr && events->ok();

  const auto save_snapshot = [&](int completed_steps) {
    if (!ckpt_on) return;
    journal.watermark = completed_steps;
    journal.transient_retries = prior_retries + stats.transient_retries;
    journal.retry_backoff_total_ms = prior_backoff + stats.retry_backoff_total_ms;
    if (monitor) journal.health_state = monitor->serialize();
    const std::string path = copts.journal_path();
    const auto t0 = std::chrono::steady_clock::now();
    const bool saved = ckpt::save_journal(path, journal);
    if (log_events) {
      const double wall_ms =
          det_walls ? 0.0
                    : std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
      events->emit(obs::Event("run_checkpoint")
                       .with("step", completed_steps)
                       .with("wall_ms", wall_ms)
                       .with("path", path)
                       .with("ok", saved));
    }
    if (!saved) {
      log_info() << "DistRunner: failed to write checkpoint journal to " << path
                 << " — continuing without this snapshot";
    } else if (copts.after_checkpoint) {
      copts.after_checkpoint(completed_steps, path);
    }
  };

  if (log_events) {
    events->emit(obs::Event("run_start")
                     .with("steps", steps)
                     .with("start_step", start_step)
                     .with("devices", cluster_.device_count())
                     .with("per_iteration_ms", deployment_.per_iteration_ms)
                     .with("faults", static_cast<int>(plan.events.size()))
                     .with("checkpointing", ckpt_on));
  }

  // Mutable execution state; replaced wholesale on every re-plan. The
  // injector owns the fault plan and the fault-scaled simulations — the
  // *injection* half of the pipeline. On the oracle path the loop below is
  // allowed to query it (oracle_scaling / oracle_plan); on the online path
  // the loop consumes only the health::Observations it hands out.
  cluster::ClusterSpec active_cluster = cluster_;
  double active_iter_ms = deployment_.per_iteration_ms;
  double active_cold_ms = deployment_.cold_iteration_ms;

  sim::SimOptions sim_options;
  sim_options.policy = config_.use_order_scheduling ? sched::OrderPolicy::kRankPriority
                                                    : sched::OrderPolicy::kFifo;
  sim_options.track_memory = false;
  sim::FaultInjector injector(compiled_->graph, cluster_, plan, sim_options);

  int step = 0;
  int transients_done_through = -1;  // avoid double-charging retries when a
                                     // re-plan re-enters the same step

  // Resume determinism proof for online runs: once the replayed prefix
  // reaches the watermark, the rebuilt monitor must match the journalled
  // snapshot byte for byte.
  bool health_checked = false;
  const auto check_replayed_health = [&] {
    if (!online || health_checked) return;
    health_checked = true;
    if (prior != nullptr && !prior->health_state.empty() &&
        monitor->serialize() != prior->health_state) {
      throw ckpt::JournalError(
          "resume_run: replayed health monitor state diverges from the journal "
          "snapshot — the journal was written by a different policy or code version");
    }
  };

  // Cooperative shutdown (SIGTERM/SIGINT routed through common/shutdown):
  // stop at the next *live* step boundary — never mid-step, never during
  // replay — so the final save_snapshot below leaves a resumable journal and
  // the store/event-log flush in the caller runs through destructors.
  const auto shutdown_poll = [&](bool live) {
    if (!live || !shutdown_requested()) return false;
    stats.interrupted = true;
    stats.completed = false;
    log_info() << "DistRunner: shutdown requested — stopping at step " << step
               << " with state flushed";
    return true;
  };

  while (!online && step < steps) {
    // Steps before start_step are replayed: state transitions (escalation,
    // re-planning, fault-plan remapping) are applied so execution state at
    // the watermark matches an uninterrupted run's, but nothing is charged
    // to stats — those steps completed before the crash.
    const bool live = step >= start_step;
    if (shutdown_poll(live)) break;

    // Transient faults first: capped exponential backoff. A device still
    // failing at the retry cap is escalated to a permanent failure below.
    std::vector<cluster::DeviceId> escalated;
    for (const auto& event : injector.oracle_plan().events) {
      if (event.kind != faults::FaultKind::kTransient || event.onset_step != step ||
          step <= transients_done_through) {
        continue;
      }
      int attempts = 0;
      double backoff = fh.retry_backoff_ms;
      double backoff_spent_ms = 0.0;
      while (attempts < event.failed_attempts && attempts < fh.max_retries) {
        backoff_spent_ms += backoff;
        backoff = std::min(backoff * 2.0, fh.max_backoff_ms);
        ++attempts;
      }
      if (live) {
        stats.retry_backoff_total_ms += backoff_spent_ms;
        stats.transient_retries += attempts;
        if (attempts > 0 && log_events) {
          events->emit(obs::Event("run_retry")
                           .with("step", step)
                           .with("device", static_cast<int>(event.device))
                           .with("attempts", attempts)
                           .with("backoff_ms", backoff_spent_ms));
        }
      }
      if (attempts < event.failed_attempts) {
        if (live) {
          log_info() << "DistRunner: transient fault on G" << event.device
                     << " still failing after " << attempts
                     << " retries at step " << step << " — escalating to failure";
        }
        escalated.push_back(event.device);
      }
    }
    transients_done_through = std::max(transients_done_through, step);

    faults::FaultScaling scaling = injector.oracle_scaling(step);
    for (auto d : escalated) scaling.failed.push_back(d);
    std::sort(scaling.failed.begin(), scaling.failed.end());
    scaling.failed.erase(std::unique(scaling.failed.begin(), scaling.failed.end()),
                         scaling.failed.end());

    if (!scaling.failed.empty()) {
      // Graceful degradation: re-plan on the survivors, resume at `step`.
      if (static_cast<int>(scaling.failed.size()) >= active_cluster.device_count()) {
        log_info() << "DistRunner: all devices failed at step " << step
                   << "; cannot recover";
        stats.completed = false;
        break;
      }
      const auto t0 = std::chrono::steady_clock::now();
      cluster::ClusterSpec survivors = active_cluster;
      for (auto it = scaling.failed.rbegin(); it != scaling.failed.rend(); ++it) {
        survivors = survivors.remove_device(*it);
      }
      const Choice choice =
          choose_plan(training_graph_, survivors, config_, fh.replan_rl_episodes);
      const Deployment replanned = deploy_plan(training_graph_, survivors, config_,
                                               choice.grouping,
                                               choice.search.best_strategy);
      const double wall_ms =
          det_walls ? 0.0
                    : std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();

      RecoveryReport report;
      report.fault_step = step;
      report.failed_devices = scaling.failed;
      report.steps_lost = 1;  // the in-flight step is re-executed on resume
      report.replan_wall_ms = wall_ms;
      report.pre_fault_iteration_ms = active_iter_ms;
      report.post_fault_iteration_ms = replanned.evaluation.per_iteration_ms;
      report.surviving_devices = survivors.device_count();
      report.post_plan_oom = replanned.evaluation.oom;
      report.escalated_transient = !escalated.empty();
      stats.oom = stats.oom || replanned.evaluation.oom;
      if (live) {
        stats.recoveries.push_back(report);
        if (ckpt_on) journal.recoveries.push_back(to_record(report));
        if (log_events) {
          events->emit(obs::Event("run_recovery")
                           .with("step", step)
                           .with("failed_devices",
                                 static_cast<int>(scaling.failed.size()))
                           .with("steps_lost", report.steps_lost)
                           .with("replan_wall_ms", wall_ms)
                           .with("pre_fault_iteration_ms",
                                 report.pre_fault_iteration_ms)
                           .with("post_fault_iteration_ms",
                                 report.post_fault_iteration_ms)
                           .with("surviving_devices", report.surviving_devices)
                           .with("post_plan_oom", report.post_plan_oom)
                           .with("escalated_transient", report.escalated_transient));
        }
        log_info() << "DistRunner: recovered from failure of " << scaling.failed.size()
                   << " device(s) at step " << step << " in " << wall_ms
                   << " ms; plan " << active_iter_ms << " -> "
                   << replanned.evaluation.per_iteration_ms << " ms/iteration on "
                   << survivors.device_count() << " survivors";
      }

      injector.apply_replan(replanned.compiled->graph, survivors,
                            survivor_id_map(active_cluster.device_count(),
                                            scaling.failed));
      active_cluster = std::move(survivors);
      active_iter_ms = replanned.evaluation.per_iteration_ms;
      active_cold_ms = replanned.evaluation.cold_iteration_ms;
      continue;  // re-execute this step under the new plan
    }

    if (!live) {
      ++step;
      continue;
    }

    double step_time_ms = active_iter_ms;
    if (scaling.any()) {
      // Scale the steady-state time by the degraded/baseline makespan ratio
      // of a single iteration (the pipeline-overlap correction of
      // evaluate_plan carries over unchanged).
      const double scaled_ms = injector.measure(scaling).makespan_ms;
      if (active_cold_ms > 0.0) {
        step_time_ms = active_iter_ms * scaled_ms / active_cold_ms;
      } else {
        step_time_ms = scaled_ms;
      }
    }
    stats.step_ms.push_back(step_time_ms);
    stats.total_ms += step_time_ms;
    if (ckpt_on) journal.step_ms.push_back(step_time_ms);
    if (log_events) {
      events->emit(
          obs::Event("run_step").with("step", step).with("step_ms", step_time_ms));
    }
    ++step;
    // Mid-run snapshots are anchored at absolute step counts so an
    // interrupted and an uninterrupted run checkpoint at the same steps.
    if (ckpt_on && step % copts.every == 0 && step < steps) save_snapshot(step);
  }

  // Online path: *reaction* from measurements only. This loop never reads
  // the injected FaultPlan — the injector hands out one health::Observation
  // per attempt and every decision below (retry, escalation, quarantine,
  // re-plan, degradation) is the monitor's inference over those.
  std::vector<uint8_t> straggler_handled(
      static_cast<size_t>(active_cluster.device_count()), 0);
  while (online && step < steps) {
    const bool live = step >= start_step;
    if (shutdown_poll(live)) break;
    if (live) check_replayed_health();

    // Attempt the step until it completes, a permanent failure is confirmed
    // (phi accrual over missed heartbeats) or a persistently erroring device
    // is escalated. Retry arithmetic mirrors the oracle path so per-step
    // stats stay comparable — but the decisions come from observed error
    // attributions, never the plan.
    const bool transients_active = step > transients_done_through;
    std::vector<int> error_count(static_cast<size_t>(active_cluster.device_count()),
                                 0);
    std::vector<double> next_backoff(
        static_cast<size_t>(active_cluster.device_count()), fh.retry_backoff_ms);
    health::Observation obs;
    std::vector<cluster::DeviceId> confirmed;
    int attempts_spent = 0;
    bool escalated = false;
    for (int attempt = 0;; ++attempt) {
      check(attempt < 100000, "DistRunner: online recovery failed to terminate");
      obs = injector.attempt_step(step, attempt, transients_active);
      monitor->observe(obs, live);
      if (!obs.completed && obs.error_device < 0) {
        // Timed-out attempt: waiting out the heartbeat interval is detection
        // overhead, and each timeout draws from the retry budget so
        // detection terminates even when phi accrues slowly.
        if (live) stats.detection_overhead_ms += hp.heartbeat_timeout_ms;
        monitor->charge_retry();
      }
      confirmed = monitor->take_confirmed_failures();
      attempts_spent = attempt + 1;
      if (obs.completed || !confirmed.empty()) break;
      if (obs.error_device >= 0) {
        const int d = obs.error_device;
        const int n = ++error_count[static_cast<size_t>(d)];
        if (n > fh.max_retries || !monitor->charge_retry()) {
          if (live) {
            log_info() << "DistRunner: G" << d << " still erroring after " << (n - 1)
                       << " retries at step " << step << " — escalating to failure";
          }
          monitor->force_failure(d, step, "error");
          confirmed = monitor->take_confirmed_failures();
          escalated = true;
          break;
        }
        if (live) {
          stats.transient_retries += 1;
          stats.retry_backoff_total_ms += next_backoff[static_cast<size_t>(d)];
          if (log_events) {
            events->emit(obs::Event("run_retry")
                             .with("step", step)
                             .with("device", d)
                             .with("attempts", n)
                             .with("backoff_ms", next_backoff[static_cast<size_t>(d)]));
          }
        }
        next_backoff[static_cast<size_t>(d)] =
            std::min(next_backoff[static_cast<size_t>(d)] * 2.0, fh.max_backoff_ms);
      }
    }

    bool charged = false;
    if (obs.completed) {
      transients_done_through = std::max(transients_done_through, step);
      // Calibrate the measured makespan against the deployment's cold
      // makespan: a clean step costs exactly active_iter_ms (measured/cold
      // == 1) and a degraded step scales by the observed ratio — the same
      // arithmetic as the oracle path, fed by measurement.
      double step_time_ms = obs.makespan_ms;
      if (active_cold_ms > 0.0) {
        step_time_ms = active_iter_ms * obs.makespan_ms / active_cold_ms;
      }
      if (live) {
        stats.step_ms.push_back(step_time_ms);
        stats.total_ms += step_time_ms;
        if (ckpt_on) journal.step_ms.push_back(step_time_ms);
        if (log_events) {
          events->emit(
              obs::Event("run_step").with("step", step).with("step_ms", step_time_ms));
        }
      }
      charged = true;
    }

    if (!confirmed.empty()) {
      // Mandatory failure re-plan. The breaker / deadline can degrade it to
      // the heuristic path but never suppress it — running without the
      // failed devices is not optional.
      if (static_cast<int>(confirmed.size()) >= active_cluster.device_count()) {
        log_info() << "DistRunner: all devices failed at step " << step
                   << "; cannot recover";
        stats.completed = false;
        break;
      }
      const bool breaker = monitor->breaker_open();
      const bool want_rl = fh.replan_rl_episodes > 0;
      const bool over_deadline =
          want_rl && hp.replan_deadline_ms > 0.0 &&
          fh.replan_rl_episodes * active_iter_ms > hp.replan_deadline_ms;
      const bool degraded = want_rl && (breaker || over_deadline);
      const bool use_rl = want_rl && !degraded;

      const auto t0 = std::chrono::steady_clock::now();
      cluster::ClusterSpec survivors = active_cluster;
      for (auto it = confirmed.rbegin(); it != confirmed.rend(); ++it) {
        survivors = survivors.remove_device(*it);
      }
      const Choice choice = choose_plan(training_graph_, survivors, config_,
                                        use_rl ? fh.replan_rl_episodes : 0);
      const Deployment replanned = deploy_plan(training_graph_, survivors, config_,
                                               choice.grouping,
                                               choice.search.best_strategy);
      const double wall_ms =
          det_walls ? 0.0
                    : std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
      monitor->record_replan(step, live);
      // Racks the monitor attributed this batch to (consumed before
      // on_replan clears them). A domain verdict means the whole rack went
      // into `confirmed` at once — one replan, not N serial ones.
      const std::vector<int> domain_racks = monitor->take_domain_verdicts();

      RecoveryReport report;
      report.fault_step = step;
      report.failed_devices = confirmed;
      report.steps_lost = charged ? 0 : 1;
      report.replan_wall_ms = wall_ms;
      report.pre_fault_iteration_ms = active_iter_ms;
      report.post_fault_iteration_ms = replanned.evaluation.per_iteration_ms;
      report.surviving_devices = survivors.device_count();
      report.post_plan_oom = replanned.evaluation.oom;
      report.escalated_transient = escalated;
      report.detection_attempts = attempts_spent;
      report.degraded = degraded;
      report.domain_rack = domain_racks.empty() ? -1 : domain_racks.front();
      stats.oom = stats.oom || replanned.evaluation.oom;
      if (live) {
        stats.recoveries.push_back(report);
        if (ckpt_on) journal.recoveries.push_back(to_record(report));
        if (log_events) {
          events->emit(obs::Event("run_recovery")
                           .with("step", step)
                           .with("failed_devices", static_cast<int>(confirmed.size()))
                           .with("steps_lost", report.steps_lost)
                           .with("replan_wall_ms", wall_ms)
                           .with("pre_fault_iteration_ms",
                                 report.pre_fault_iteration_ms)
                           .with("post_fault_iteration_ms",
                                 report.post_fault_iteration_ms)
                           .with("surviving_devices", report.surviving_devices)
                           .with("post_plan_oom", report.post_plan_oom)
                           .with("escalated_transient", report.escalated_transient));
          if (degraded) {
            events->emit(obs::Event("degraded_replan")
                             .with("step", step)
                             .with("reason", breaker ? "breaker_open" : "deadline")
                             .with("devices", static_cast<int>(confirmed.size()))
                             .with("replan", true));
          }
          for (const int rack : domain_racks) {
            events->emit(obs::Event("domain_replan")
                             .with("step", step)
                             .with("rack", rack)
                             .with("devices", static_cast<int>(confirmed.size()))
                             .with("surviving_devices", report.surviving_devices)
                             .with("degraded", degraded));
          }
        }
        log_info() << "DistRunner: online detection confirmed failure of "
                   << confirmed.size() << " device(s) at step " << step << " after "
                   << attempts_spent << " attempt(s); plan " << active_iter_ms
                   << " -> " << replanned.evaluation.per_iteration_ms
                   << " ms/iteration on " << survivors.device_count()
                   << " survivors" << (degraded ? " (degraded re-plan)" : "");
      }

      const std::vector<int> id_map =
          survivor_id_map(active_cluster.device_count(), confirmed);
      injector.apply_replan(replanned.compiled->graph, survivors, id_map);
      monitor->on_replan(id_map);
      std::vector<uint8_t> handled_remapped(
          static_cast<size_t>(survivors.device_count()), 0);
      for (size_t d = 0; d < straggler_handled.size(); ++d) {
        if (id_map[d] >= 0) {
          handled_remapped[static_cast<size_t>(id_map[d])] = straggler_handled[d];
        }
      }
      straggler_handled = std::move(handled_remapped);
      active_cluster = std::move(survivors);
      active_iter_ms = replanned.evaluation.per_iteration_ms;
      active_cold_ms = replanned.evaluation.cold_iteration_ms;
      if (charged) {
        ++step;
        if (live && ckpt_on && step % copts.every == 0 && step < steps) {
          save_snapshot(step);
        }
      }
      continue;  // failure mid-step: re-execute it under the new plan
    }

    // Straggler reaction: devices the monitor quarantined while observing
    // this step. Each quarantine episode is handled once; a reinstated
    // device becomes reactive again.
    std::vector<int> quarantined_now;
    for (int d = 0; d < active_cluster.device_count(); ++d) {
      const health::DeviceState st = monitor->state(d);
      if (st == health::DeviceState::kQuarantined &&
          !straggler_handled[static_cast<size_t>(d)]) {
        quarantined_now.push_back(d);
        straggler_handled[static_cast<size_t>(d)] = 1;
      } else if (st == health::DeviceState::kHealthy) {
        straggler_handled[static_cast<size_t>(d)] = 0;
      }
    }
    if (!quarantined_now.empty() && hp.replan_on_straggler) {
      if (monitor->breaker_open()) {
        // Breaker open: keep the current plan and absorb the slowdown
        // (derate in place) instead of piling more re-plans on a run that is
        // already thrashing.
        if (live && log_events) {
          events->emit(obs::Event("degraded_replan")
                           .with("step", step)
                           .with("reason", "derate_in_place")
                           .with("devices",
                                 static_cast<int>(quarantined_now.size()))
                           .with("replan", false));
        }
      } else {
        // Optimisation re-plan against the *believed* cluster: derate the
        // quarantined devices by their measured slowdown estimates (all
        // reaction-side knowledge) and choose a plan for that. The chosen
        // strategy is then deployed on the real cluster — the injector keeps
        // applying the true slowdown, so deploying on the derated spec would
        // double-apply it.
        faults::FaultScaling believed;
        believed.step = step;
        believed.compute_slowdown.assign(
            static_cast<size_t>(active_cluster.device_count()), 1.0);
        for (int d : quarantined_now) {
          believed.compute_slowdown[static_cast<size_t>(d)] =
              std::max(1.0, monitor->estimated_slowdown(d));
        }
        const cluster::ClusterSpec derated =
            faults::degraded_cluster(active_cluster, believed);
        const Choice choice = choose_plan(training_graph_, derated, config_, 0);
        const Deployment redeployed =
            deploy_plan(training_graph_, active_cluster, config_, choice.grouping,
                        choice.search.best_strategy);
        monitor->record_replan(step, live);
        std::vector<int> identity(
            static_cast<size_t>(active_cluster.device_count()));
        std::iota(identity.begin(), identity.end(), 0);
        injector.apply_replan(redeployed.compiled->graph, active_cluster, identity);
        monitor->on_replan(identity);
        stats.oom = stats.oom || redeployed.evaluation.oom;
        if (live) {
          if (log_events) {
            events->emit(obs::Event("degraded_replan")
                             .with("step", step)
                             .with("reason", "straggler_replan")
                             .with("devices",
                                   static_cast<int>(quarantined_now.size()))
                             .with("replan", true));
          }
          log_info() << "DistRunner: re-planned around " << quarantined_now.size()
                     << " quarantined straggler(s) at step " << step << "; plan "
                     << active_iter_ms << " -> "
                     << redeployed.evaluation.per_iteration_ms << " ms/iteration";
        }
        active_iter_ms = redeployed.evaluation.per_iteration_ms;
        active_cold_ms = redeployed.evaluation.cold_iteration_ms;
      }
    }

    ++step;
    if (live && ckpt_on && step % copts.every == 0 && step < steps) {
      save_snapshot(step);
    }
  }
  check_replayed_health();

  stats.total_ms += stats.retry_backoff_total_ms + stats.detection_overhead_ms;
  if (monitor) stats.health = monitor->summary();
  const int executed = static_cast<int>(stats.step_ms.size());
  stats.per_iteration_ms = executed > 0 ? stats.total_ms / executed : 0.0;
  save_snapshot(step);  // final snapshot: run end, or the step recovery died at
  if (log_events) {
    events->emit(obs::Event("run_end")
                     .with("steps_executed", executed)
                     .with("total_ms", stats.total_ms)
                     .with("per_iteration_ms", stats.per_iteration_ms)
                     .with("transient_retries", stats.transient_retries)
                     .with("retry_backoff_ms", stats.retry_backoff_total_ms)
                     .with("recoveries", static_cast<int>(stats.recoveries.size()))
                     .with("completed", stats.completed)
                     .with("interrupted", stats.interrupted));
  }
  return stats;
}

strategy::StrategyBreakdown DistRunner::breakdown() const {
  return strategy::summarize_strategy(training_graph_, grouping_, strategy_,
                                      cluster_.device_count());
}

DistRunner::DistRunner(cluster::ClusterSpec cluster, HeteroGConfig config,
                       graph::GraphDef training_graph, strategy::Grouping grouping,
                       rl::SearchResult search)
    : cluster_(std::move(cluster)),
      config_(std::move(config)),
      training_graph_(std::move(training_graph)),
      grouping_(std::move(grouping)),
      strategy_(search.best_strategy),
      search_(std::move(search)) {
  Deployment deployment =
      deploy_plan(training_graph_, cluster_, config_, grouping_, strategy_);
  compiled_ = std::move(deployment.compiled);
  deployment_ = std::move(deployment.evaluation);
  per_iteration_ms_ = deployment_.per_iteration_ms;
  feasible_ = !deployment_.oom;
}

DistRunner get_runner(const std::function<graph::GraphDef()>& model_func,
                      const cluster::ClusterSpec& device_info,
                      const HeteroGConfig& config) {
  check(static_cast<bool>(model_func), "get_runner: model_func is empty");

  // Graph Analyzer: single-GPU forward graph -> full training DAG.
  const graph::GraphDef forward = model_func();
  graph::GraphDef training_graph = graph::build_training_graph(forward);

  Choice choice = choose_plan(training_graph, device_info, config,
                              config.search_with_rl ? config.train.episodes : 0);
  DistRunner runner(device_info, config, std::move(training_graph),
                    std::move(choice.grouping), std::move(choice.search));

  log_info() << "get_runner(" << forward.name() << "): deployed plan runs "
             << runner.per_iteration_ms_ << " ms/iteration (feasible="
             << runner.feasible_ << ")";
  return runner;
}

RunStats resume_run(const std::string& journal_path,
                    const std::function<graph::GraphDef()>& model_func,
                    const ckpt::CheckpointOptions& ckpt, obs::EventLog* events,
                    store::PlanStore* plan_store) {
  check(static_cast<bool>(model_func), "resume_run: model_func is empty");

  const ckpt::RunJournal journal = ckpt::load_journal(journal_path);

  // The journal CRC already proved the bytes are intact; the fingerprint
  // check proves the *cluster* is the one the plan was deployed on (it would
  // catch, e.g., a hand-edited journal re-checksummed over different
  // hardware).
  const uint32_t fp = cluster::cluster_fingerprint(journal.cluster);
  if (fp != journal.cluster_crc) {
    throw ckpt::JournalError(
        "resume_run: cluster fingerprint mismatch (journal says " +
        crc32_hex(journal.cluster_crc) + ", embedded cluster hashes to " +
        crc32_hex(fp) + ")");
  }

  const graph::GraphDef forward = model_func();
  graph::GraphDef training_graph = graph::build_training_graph(forward);
  if (training_graph.name() != journal.model_name) {
    throw ckpt::JournalError("resume_run: model mismatch — journal was written for '" +
                             journal.model_name + "', model_func built '" +
                             training_graph.name() + "'");
  }
  if (static_cast<int>(journal.grouping_assignment.size()) !=
      training_graph.op_count()) {
    throw ckpt::JournalError(
        "resume_run: model mismatch — journal grouping covers " +
        std::to_string(journal.grouping_assignment.size()) + " ops, model_func built " +
        std::to_string(training_graph.op_count()));
  }

  HeteroGConfig config;
  config.profiler_seed = journal.profiler_seed;
  config.use_order_scheduling = journal.use_order_scheduling;
  config.agent.max_groups = journal.max_groups;
  config.fault_handling.max_retries = journal.fh_max_retries;
  config.fault_handling.retry_backoff_ms = journal.fh_retry_backoff_ms;
  config.fault_handling.max_backoff_ms = journal.fh_max_backoff_ms;
  config.fault_handling.replan_rl_episodes = journal.fh_replan_rl_episodes;
  config.fault_handling.deterministic_wall_times = journal.fh_deterministic_walls;
  // An online-monitored run journals its serialized monitor; the embedded
  // policy re-enables monitoring on resume so the tail replays the same
  // detection decisions (run_impl cross-checks the replayed state).
  if (!journal.health_state.empty()) {
    try {
      config.health = health::HealthMonitor::deserialize(journal.health_state).policy();
    } catch (const health::HealthError& e) {
      throw ckpt::JournalError(
          std::string("resume_run: embedded health state invalid: ") + e.what());
    }
  }
  config.events = events;  // schedule + run_* telemetry of the resumed tail
  config.plan_store = plan_store;  // durable eval cache for mid-run re-plans

  // Re-hydrate the deployed plan. These artifacts live *inside* the
  // CRC-valid journal, so a failure here is journal corruption, not a
  // plan-file problem — re-surface as JournalError.
  strategy::StrategyMap strategy;
  strategy::Grouping grouping;
  faults::FaultPlan fault_plan;
  try {
    strategy = strategy::parse_plan(journal.plan_text, journal.cluster);
    grouping = strategy::Grouping::from_assignment(journal.grouping_assignment);
    if (!journal.fault_plan_json.empty()) {
      fault_plan = faults::parse_fault_plan_json(journal.fault_plan_json);
    }
  } catch (const std::exception& e) {
    throw ckpt::JournalError(std::string("resume_run: embedded artifact invalid: ") +
                             e.what());
  }

  // Recompile the dist graph from the journalled plan — no strategy search
  // (and no profiling) is repeated, so resume cost is the deploy stage only.
  // The runner reports the journalled plan's deployment as its search result.
  rl::SearchResult search;
  search.best_strategy = std::move(strategy);
  DistRunner runner(journal.cluster, config, std::move(training_graph),
                    std::move(grouping), std::move(search));
  runner.search_.best_time_ms = runner.per_iteration_ms_;
  runner.search_.best_feasible = runner.feasible_;

  // The resumed run keeps checkpointing: explicit options win, the journal's
  // own directory and cadence are the default.
  ckpt::CheckpointOptions copts = ckpt;
  if (copts.dir.empty()) {
    const std::string parent =
        std::filesystem::path(journal_path).parent_path().string();
    copts.dir = parent.empty() ? std::string(".") : parent;
  }
  if (copts.every <= 0) copts.every = journal.ckpt_every;
  if (copts.meta.empty()) copts.meta = journal.meta;

  log_info() << "resume_run(" << journal_path << "): resuming '"
             << journal.model_name << "' at step " << journal.watermark << "/"
             << journal.total_steps << " with " << journal.recoveries.size()
             << " prior recover" << (journal.recoveries.size() == 1 ? "y" : "ies");

  return runner.run_impl(journal.total_steps, fault_plan, journal.watermark, copts,
                         &journal);
}

}  // namespace heterog

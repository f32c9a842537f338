#include "core/heterog.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <numeric>
#include <optional>

#include "common/check.h"
#include "common/crc32.h"
#include "common/hash.h"
#include "common/log.h"
#include "common/shutdown.h"
#include "sim/fault_sim.h"
#include "strategy/serialize.h"

namespace heterog {

PlannerInput profile_and_encode(const graph::GraphDef& training_graph,
                                const cluster::ClusterSpec& cluster,
                                const HeteroGConfig& config) {
  // Profiler: regression cost models over the (synthetic) hardware.
  const profiler::HardwareModel hardware(cluster);
  profiler::Profiler prof(hardware, config.profiler_seed);
  PlannerInput input;
  input.costs = prof.profile(training_graph);
  // Strategy Maker's input: features and the op grouping.
  input.encoded =
      agent::encode_graph(training_graph, *input.costs, config.agent.max_groups);
  return input;
}

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
  PlannerInput input = profile_and_encode(training_graph, cluster, config);

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
  rl::Trainer trainer(*input.costs, train_config);
  Choice choice;
  if (rl_episodes > 0) {
    agent::PolicyNetwork policy(cluster.device_count(), config.agent);
    choice.search = trainer.search(policy, input.encoded);
  } else {
    choice.search = trainer.search_heuristic(training_graph, input.encoded.grouping);
  }
  check(!choice.search.best_strategy.group_actions.empty(),
        "choose_plan: search produced no strategy");
  choice.grouping = std::move(input.encoded.grouping);
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

using Clock = std::chrono::steady_clock;

/// Owns a run's RunStats, its checkpoint journal and every run_* event (plus
/// degraded_replan and domain_replan), for run_impl and the fault-free fast
/// path alike. While `live` is false — steps a resumed run replays up to its
/// watermark — the per-step calls charge, journal, emit and log nothing;
/// only stats.oom still follows every re-plan.
class RunRecorder {
 public:
  /// Sets up the journal (a resumed run extends `prior`'s) and emits run_start.
  RunRecorder(const DistRunner& runner, const HeteroGConfig& config,
              const faults::FaultPlan& plan, const ckpt::CheckpointOptions& copts,
              const ckpt::RunJournal* prior, int steps, int start_step);

  RunStats stats;
  bool live = true;  // false while replaying steps before the watermark

  /// Wall time since `t0`, or zero under deterministic_wall_times.
  double wall_ms_since(Clock::time_point t0) const {
    return det_walls_ ? 0.0
                      : std::chrono::duration<double, std::milli>(Clock::now() - t0)
                            .count();
  }

  /// Cooperative shutdown (SIGTERM/SIGINT routed through common/shutdown):
  /// true at a live step boundary once a stop was requested — never mid-step,
  /// never during replay — so the final snapshot leaves a resumable journal.
  bool shutdown(int step) {
    if (!live || !shutdown_requested()) return false;
    stats.interrupted = true;
    stats.completed = false;
    log_info() << "DistRunner: shutdown requested — stopping at step " << step
               << " with state flushed";
    return true;
  }

  /// `retries` failed attempts that cost `backoff_ms`; the run_retry event
  /// reports the device's `attempts` so far.
  void retry(int step, int device, int attempts, double backoff_ms, int retries) {
    if (!live) return;
    stats.transient_retries += retries;
    stats.retry_backoff_total_ms += backoff_ms;
    if (events_ != nullptr) {
      events_->emit(obs::Event("run_retry")
                        .with("step", step)
                        .with("device", device)
                        .with("attempts", attempts)
                        .with("backoff_ms", backoff_ms));
    }
  }

  void escalation(int step, int device, int retries) const {
    if (!live) return;
    log_info() << "DistRunner: G" << device << " still failing after " << retries
               << " retries at step " << step << " — escalating to failure";
  }

  void detection_overhead(double ms) {
    if (live) stats.detection_overhead_ms += ms;
  }

  /// Charges one executed step.
  void step(int step, double ms) {
    if (!live) return;
    stats.step_ms.push_back(ms);
    stats.total_ms += ms;
    if (copts_.enabled()) journal_.step_ms.push_back(ms);
    step_event(step, ms);
  }

  void step_event(int step, double ms) {
    if (events_ != nullptr) {
      events_->emit(obs::Event("run_step").with("step", step).with("step_ms", ms));
    }
  }

  /// A failure re-plan: run_recovery, then degraded_replan when `degraded`
  /// names why RL was skipped, then one domain_replan per attributed rack.
  void recovery(const RecoveryReport& report, const char* degraded,
                const std::vector<int>& racks);

  void degraded_replan(int step, const char* reason, int devices, bool replan) {
    if (!live || events_ == nullptr) return;
    events_->emit(obs::Event("degraded_replan")
                      .with("step", step)
                      .with("reason", reason)
                      .with("devices", devices)
                      .with("replan", replan));
  }

  /// Mid-run snapshots are anchored at absolute step counts, so an
  /// interrupted and an uninterrupted run checkpoint at the same steps.
  bool checkpoint_due(int completed_steps, int steps) const {
    return live && copts_.enabled() && completed_steps % copts_.every == 0 &&
           completed_steps < steps;
  }

  /// Saves the journal at `completed_steps` with the detector's state, emits
  /// run_checkpoint and, when the save succeeded, calls after_checkpoint.
  void snapshot(int completed_steps, const std::string& health_state);

  /// Ends a run_impl run: charges backoff and detection overhead, writes the
  /// final snapshot (run end, or the step recovery died at) and run_end.
  RunStats finish(int step, const std::string& health_state) {
    stats.total_ms += stats.retry_backoff_total_ms + stats.detection_overhead_ms;
    const int executed = static_cast<int>(stats.step_ms.size());
    stats.per_iteration_ms = executed > 0 ? stats.total_ms / executed : 0.0;
    snapshot(step, health_state);
    return end(executed);
  }

  /// Emits run_end, always a run's last event, and hands the stats over.
  RunStats end(int steps_executed) {
    if (events_ != nullptr) {
      events_->emit(obs::Event("run_end")
                        .with("steps_executed", steps_executed)
                        .with("total_ms", stats.total_ms)
                        .with("per_iteration_ms", stats.per_iteration_ms)
                        .with("transient_retries", stats.transient_retries)
                        .with("retry_backoff_ms", stats.retry_backoff_total_ms)
                        .with("recoveries", static_cast<int>(stats.recoveries.size()))
                        .with("completed", stats.completed)
                        .with("interrupted", stats.interrupted));
    }
    return std::move(stats);
  }

 private:
  obs::EventLog* events_;  // null when no sink is attached or it failed to open
  const ckpt::CheckpointOptions copts_;
  const bool det_walls_;
  const int prior_retries_;
  const double prior_backoff_;
  ckpt::RunJournal journal_;
};

RunRecorder::RunRecorder(const DistRunner& runner, const HeteroGConfig& config,
                         const faults::FaultPlan& plan,
                         const ckpt::CheckpointOptions& copts,
                         const ckpt::RunJournal* prior, int steps, int start_step)
    : events_(config.events != nullptr && config.events->ok() ? config.events : nullptr),
      copts_(copts),
      det_walls_(config.fault_handling.deterministic_wall_times),
      prior_retries_(prior ? prior->transient_retries : 0),
      prior_backoff_(prior ? prior->retry_backoff_total_ms : 0.0) {
  stats.steps = steps - start_step;
  stats.computation_ms = runner.deployment().computation_ms;
  stats.communication_ms = runner.deployment().communication_ms;
  stats.oom = runner.deployment().oom;

  // The journal always describes the run from step 0: a resumed run extends
  // `prior`'s history, a fresh run starts its own, so a crash during a
  // resumed run resumes again from a complete record.
  if (copts.enabled()) {
    if (prior) {
      journal_ = *prior;
    } else {
      const FaultHandlingConfig& fh = config.fault_handling;
      journal_.model_name = runner.training_graph().name();
      journal_.meta = copts.meta;
      journal_.cluster = runner.cluster();
      journal_.cluster_crc = cluster::cluster_fingerprint(runner.cluster());
      journal_.profiler_seed = config.profiler_seed;
      journal_.use_order_scheduling = config.use_order_scheduling;
      journal_.max_groups = config.agent.max_groups;
      journal_.fh_max_retries = fh.max_retries;
      journal_.fh_retry_backoff_ms = fh.retry_backoff_ms;
      journal_.fh_max_backoff_ms = fh.max_backoff_ms;
      journal_.fh_replan_rl_episodes = fh.replan_rl_episodes;
      journal_.fh_deterministic_walls = det_walls_;
      journal_.plan_text = strategy::to_text(runner.strategy(), runner.cluster());
      journal_.grouping_assignment = runner.grouping().assignment();
      if (!plan.empty()) journal_.fault_plan_json = faults::fault_plan_to_json(plan);
    }
    journal_.total_steps = steps;
    journal_.ckpt_every = copts.every;
    journal_.watermark = start_step;
  }

  if (events_ != nullptr) {
    events_->emit(obs::Event("run_start")
                      .with("steps", steps)
                      .with("start_step", start_step)
                      .with("devices", runner.cluster().device_count())
                      .with("per_iteration_ms", runner.deployment().per_iteration_ms)
                      .with("faults", static_cast<int>(plan.events.size()))
                      .with("checkpointing", copts.enabled()));
  }
}

void RunRecorder::recovery(const RecoveryReport& report, const char* degraded,
                           const std::vector<int>& racks) {
  stats.oom = stats.oom || report.post_plan_oom;
  if (!live) return;
  stats.recoveries.push_back(report);
  if (copts_.enabled()) journal_.recoveries.push_back(report);
  const int failed = static_cast<int>(report.failed_devices.size());
  if (events_ != nullptr) {
    events_->emit(obs::Event("run_recovery")
                      .with("step", report.fault_step)
                      .with("failed_devices", failed)
                      .with("steps_lost", report.steps_lost)
                      .with("replan_wall_ms", report.replan_wall_ms)
                      .with("pre_fault_iteration_ms", report.pre_fault_iteration_ms)
                      .with("post_fault_iteration_ms", report.post_fault_iteration_ms)
                      .with("surviving_devices", report.surviving_devices)
                      .with("post_plan_oom", report.post_plan_oom)
                      .with("escalated_transient", report.escalated_transient));
    if (degraded != nullptr) degraded_replan(report.fault_step, degraded, failed, true);
    for (const int rack : racks) {
      events_->emit(obs::Event("domain_replan")
                        .with("step", report.fault_step)
                        .with("rack", rack)
                        .with("devices", failed)
                        .with("surviving_devices", report.surviving_devices)
                        .with("degraded", report.degraded));
    }
  }
  log_info() << "DistRunner: re-planned around the failure of " << failed
             << " device(s) at step " << report.fault_step << " after "
             << report.detection_attempts << " detection attempt(s) in "
             << report.replan_wall_ms << " ms; plan " << report.pre_fault_iteration_ms
             << " -> " << report.post_fault_iteration_ms << " ms/iteration on "
             << report.surviving_devices << " survivors"
             << (report.degraded ? " (degraded re-plan)" : "");
}

void RunRecorder::snapshot(int completed_steps, const std::string& health_state) {
  if (!copts_.enabled()) return;
  journal_.watermark = completed_steps;
  journal_.transient_retries = prior_retries_ + stats.transient_retries;
  journal_.retry_backoff_total_ms = prior_backoff_ + stats.retry_backoff_total_ms;
  journal_.health_state = health_state;
  const std::string path = copts_.journal_path();
  const auto t0 = Clock::now();
  const bool saved = ckpt::save_journal(path, journal_);
  if (events_ != nullptr) {
    events_->emit(obs::Event("run_checkpoint")
                      .with("step", completed_steps)
                      .with("wall_ms", wall_ms_since(t0))
                      .with("path", path)
                      .with("ok", saved));
  }
  if (!saved) {
    log_info() << "DistRunner: failed to write checkpoint journal to " << path
               << " — continuing without this snapshot";
  } else if (copts_.after_checkpoint) {
    copts_.after_checkpoint(completed_steps, path);
  }
}

/// The deployment run_impl's step loop is executing; every re-plan replaces it.
struct ActiveDeployment {
  cluster::ClusterSpec cluster;
  double iter_ms = 0.0;
  double cold_ms = 0.0;
};

/// How one step ended, as its detector saw it.
struct StepOutcome {
  bool completed = false;
  /// Measured makespan of the completed step; empty when it costs exactly
  /// the active iteration time (a fault-free or replayed oracle step).
  std::optional<double> makespan_ms;
  /// Devices to re-plan around (sorted, ids of the active cluster).
  std::vector<cluster::DeviceId> failed;
  bool escalated = false;      // a transient outlived its retries
  int detection_attempts = 0;  // failed attempts spent confirming `failed`
  /// Why the failure re-plan skips RL; null when it does not.
  const char* degraded = nullptr;
};

/// A straggler re-plan: the believed cluster to choose on and how many
/// quarantined devices it derates.
struct StragglerReplan {
  cluster::ClusterSpec derated;
  int devices = 0;
};

/// Where run_impl's step loop gets each step's outcome from. The loop owns
/// the deployment and every change to it; a detector only reports what it
/// saw and hears about each re-plan, so the loop never asks which one it
/// runs.
class Detector {
 public:
  Detector() = default;
  Detector(const Detector&) = delete;
  Detector& operator=(const Detector&) = delete;
  virtual ~Detector() = default;
  /// Runs `step` until it completes or a failure is confirmed. Retries are
  /// charged through `rec`.
  virtual StepOutcome attempt(int step, const ActiveDeployment& active,
                              RunRecorder& rec) = 0;
  /// After a step with no failure: a straggler re-plan to deploy, if any.
  virtual std::optional<StragglerReplan> stragglers(int /*step*/,
                                                    const ActiveDeployment& /*active*/,
                                                    RunRecorder& /*rec*/) {
    return std::nullopt;
  }
  /// A re-plan was deployed at `step` (`live` unless replayed); device d is
  /// now new_id_of[d], -1 = removed. Returns the racks a failure batch was
  /// attributed to.
  virtual std::vector<int> replanned(int /*step*/, bool /*live*/,
                                     const std::vector<int>& /*new_id_of*/) {
    return {};
  }
  /// Detector state a checkpoint journals (RunJournal::health_state).
  virtual std::string serialize() const { return {}; }
  /// RunStats::health, read once at run end.
  virtual health::HealthSummary summary() { return {}; }
};

/// The oracle: reads each step's faults from the plan through the injector —
/// the reference the monitor is measured against. It knows every
/// transient's attempt count up front (one run_retry per step and transient
/// event), treats isolation as failure, never re-admits a device and
/// reports no stragglers.
class OracleDetector final : public Detector {
 public:
  OracleDetector(sim::FaultInjector& injector, const FaultHandlingConfig& fh)
      : injector_(injector), fh_(fh) {}

  StepOutcome attempt(int step, const ActiveDeployment& active,
                      RunRecorder& rec) override {
    StepOutcome out;
    // Transients first, with capped exponential backoff; one still failing
    // at the retry cap escalates to a failure. They count as done before any
    // re-plan, so re-executing the step does not retry them again.
    if (step > transients_done_through_) {
      for (const faults::FaultEvent& event : injector_.oracle_plan().events) {
        if (event.kind != faults::FaultKind::kTransient || event.onset_step != step) {
          continue;
        }
        int attempts = 0;
        double backoff = fh_.retry_backoff_ms;
        double spent_ms = 0.0;
        while (attempts < event.failed_attempts && attempts < fh_.max_retries) {
          spent_ms += backoff;
          backoff = std::min(backoff * 2.0, fh_.max_backoff_ms);
          ++attempts;
        }
        if (attempts > 0) rec.retry(step, event.device, attempts, spent_ms, attempts);
        if (attempts < event.failed_attempts) {
          rec.escalation(step, event.device, attempts);
          out.failed.push_back(event.device);
          out.escalated = true;
        }
      }
      transients_done_through_ = step;
    }

    const faults::FaultScaling scaling =
        faults::scaling_at(injector_.oracle_plan(), active.cluster, step);
    out.failed.insert(out.failed.end(), scaling.failed.begin(), scaling.failed.end());
    out.failed.insert(out.failed.end(), scaling.isolated.begin(),
                      scaling.isolated.end());
    std::sort(out.failed.begin(), out.failed.end());
    out.failed.erase(std::unique(out.failed.begin(), out.failed.end()), out.failed.end());
    out.completed = out.failed.empty();
    if (out.completed && rec.live && scaling.any()) {
      out.makespan_ms = injector_.measure(scaling).makespan_ms;
    }
    return out;
  }

 private:
  sim::FaultInjector& injector_;
  const FaultHandlingConfig& fh_;
  int transients_done_through_ = -1;
};

/// The monitor: sees only the injector's per-attempt observations, through
/// a health::HealthMonitor — never the fault plan. It learns about retries
/// one failed attempt at a time (one run_retry each), confirms failures from
/// missed heartbeats, and turns quarantined stragglers into re-plans.
class MonitorDetector final : public Detector {
 public:
  MonitorDetector(sim::FaultInjector& injector, const HeteroGConfig& config,
                  const cluster::ClusterSpec& cluster, const ckpt::RunJournal* prior)
      : injector_(injector),
        fh_(config.fault_handling),
        policy_(config.health),
        monitor_(cluster.device_count(), config.health, config.events),
        straggler_handled_(static_cast<size_t>(cluster.device_count()), 0),
        prior_(prior) {
    if (cluster.has_topology()) {
      // Rack ids let the monitor attribute coincident same-rack failures to
      // a domain event — still measurement-only: the map describes where
      // devices live, not what faults are scheduled.
      const cluster::TopologySpec& topo = cluster.topology();
      std::vector<int> racks(static_cast<size_t>(cluster.device_count()), -1);
      for (const auto& d : cluster.devices()) {
        racks[static_cast<size_t>(d.id)] = topo.rack_of_host[static_cast<size_t>(d.host)];
      }
      monitor_.set_rack_map(std::move(racks));
    }
    // Sized once, so that capturing a failing step's starting state reuses
    // this buffer instead of allocating mid-run.
    step_start_state_.reserve(2 * monitor_.serialize().size());
  }

  StepOutcome attempt(int step, const ActiveDeployment& active,
                      RunRecorder& rec) override {
    if (rec.live) check_replay();
    // Attempt the step until it completes, a permanent failure is confirmed
    // (phi accrual over missed heartbeats) or a persistently erroring device
    // is escalated.
    const size_t devices = static_cast<size_t>(active.cluster.device_count());
    std::vector<int> errors(devices, 0);
    std::vector<double> backoff(devices, fh_.retry_backoff_ms);
    StepOutcome out;
    for (int attempt = 0;; ++attempt) {
      check(attempt < 100000, "DistRunner: monitor detection failed to terminate");
      const health::Observation obs = injector_.attempt_step(step, attempt);
      if (!obs.completed && unfinished_step_ != step) {
        unfinished_step_ = step;
        const std::string state = monitor_.serialize();
        step_start_state_.assign(state);
      }
      monitor_.observe(obs, rec.live);
      if (!obs.completed && obs.error_device < 0) {
        // Timed-out attempt: waiting out the heartbeat interval is detection
        // overhead, and each timeout draws from the retry budget so
        // detection terminates even when phi accrues slowly.
        rec.detection_overhead(policy_.heartbeat_timeout_ms);
        monitor_.charge_retry();
      }
      out.failed = monitor_.take_confirmed_failures();
      out.detection_attempts = attempt + 1;
      if (obs.completed) {
        out.completed = true;
        out.makespan_ms = obs.makespan_ms;
        unfinished_step_ = -1;
      }
      if (obs.completed || !out.failed.empty()) break;
      if (obs.error_device < 0) continue;
      const size_t d = static_cast<size_t>(obs.error_device);
      const int n = ++errors[d];
      if (n > fh_.max_retries || !monitor_.charge_retry()) {
        rec.escalation(step, obs.error_device, n - 1);
        monitor_.force_failure(obs.error_device, step, "error");
        out.failed = monitor_.take_confirmed_failures();
        out.escalated = true;
        break;
      }
      rec.retry(step, obs.error_device, n, backoff[d], 1);
      backoff[d] = std::min(backoff[d] * 2.0, fh_.max_backoff_ms);
    }
    // A failure re-plan is mandatory; an open breaker or a blown deadline
    // only degrades it to the heuristic path.
    if (!out.failed.empty() && fh_.replan_rl_episodes > 0) {
      if (monitor_.breaker_open()) {
        out.degraded = "breaker_open";
      } else if (policy_.replan_deadline_ms > 0.0 &&
                 fh_.replan_rl_episodes * active.iter_ms > policy_.replan_deadline_ms) {
        out.degraded = "deadline";
      }
    }
    return out;
  }

  std::optional<StragglerReplan> stragglers(int step, const ActiveDeployment& active,
                                            RunRecorder& rec) override {
    // Devices quarantined while observing this step. Each quarantine episode
    // is handled once; a reinstated device becomes reactive again.
    std::vector<int> quarantined;
    for (int d = 0; d < active.cluster.device_count(); ++d) {
      const health::DeviceState state = monitor_.state(d);
      if (state == health::DeviceState::kQuarantined &&
          !straggler_handled_[static_cast<size_t>(d)]) {
        quarantined.push_back(d);
        straggler_handled_[static_cast<size_t>(d)] = 1;
      } else if (state == health::DeviceState::kHealthy) {
        straggler_handled_[static_cast<size_t>(d)] = 0;
      }
    }
    if (quarantined.empty() || !policy_.replan_on_straggler) return std::nullopt;
    const int count = static_cast<int>(quarantined.size());
    if (monitor_.breaker_open()) {
      // Keep the plan and absorb the slowdown (derate in place) rather than
      // pile more re-plans on a run that is already thrashing.
      rec.degraded_replan(step, "derate_in_place", count, false);
      return std::nullopt;
    }
    // Re-plan against the *believed* cluster: the quarantined devices
    // derated by their measured slowdown estimates.
    faults::FaultScaling believed;
    believed.step = step;
    believed.compute_slowdown.assign(static_cast<size_t>(active.cluster.device_count()),
                                     1.0);
    for (const int d : quarantined) {
      believed.compute_slowdown[static_cast<size_t>(d)] =
          std::max(1.0, monitor_.estimated_slowdown(d));
    }
    return StragglerReplan{faults::degraded_cluster(active.cluster, believed), count};
  }

  std::vector<int> replanned(int step, bool live,
                             const std::vector<int>& new_id_of) override {
    monitor_.record_replan(step, live);
    // Taken before on_replan clears them. A domain verdict put the whole rack
    // into one failure batch: one re-plan, not one per member.
    std::vector<int> racks = monitor_.take_domain_verdicts();
    monitor_.on_replan(new_id_of);
    std::vector<uint8_t> handled(
        static_cast<size_t>(std::count_if(new_id_of.begin(), new_id_of.end(),
                                          [](int id) { return id >= 0; })),
        0);
    for (size_t d = 0; d < straggler_handled_.size(); ++d) {
      if (new_id_of[d] >= 0) {
        handled[static_cast<size_t>(new_id_of[d])] = straggler_handled_[d];
      }
    }
    straggler_handled_ = std::move(handled);
    return racks;
  }

  /// The monitor at the last step boundary. A run that stops inside a step
  /// (every device failed) journals the state that step started from: its
  /// resume replays up to that step, checks this snapshot and runs the step
  /// again, as the oracle's resume does.
  std::string serialize() const override {
    return unfinished_step_ >= 0 ? step_start_state_ : monitor_.serialize();
  }

  /// The policy a journalled serialize() was written under.
  static health::HealthPolicy journalled_policy(const std::string& health_state) {
    try {
      return health::HealthMonitor::deserialize(health_state).policy();
    } catch (const health::HealthError& e) {
      throw ckpt::JournalError(
          std::string("resume_run: embedded health state invalid: ") + e.what());
    }
  }

  health::HealthSummary summary() override {
    check_replay();  // a run with no live step has not checked yet
    return monitor_.summary();
  }

 private:
  /// Resume determinism proof: at the first live step the monitor rebuilt
  /// by replay must match the journalled snapshot byte for byte.
  void check_replay() {
    if (replay_checked_) return;
    replay_checked_ = true;
    if (prior_ != nullptr && !prior_->health_state.empty() &&
        monitor_.serialize() != prior_->health_state) {
      throw ckpt::JournalError(
          "resume_run: replayed health monitor state diverges from the journal "
          "snapshot — the journal was written by a different policy or code version");
    }
  }

  sim::FaultInjector& injector_;
  const FaultHandlingConfig& fh_;
  const health::HealthPolicy& policy_;
  health::HealthMonitor monitor_;
  std::vector<uint8_t> straggler_handled_;
  const ckpt::RunJournal* prior_;
  /// The step whose attempts have not completed yet (-1 between steps), and
  /// the monitor state serialized before its first attempt was observed.
  int unfinished_step_ = -1;
  std::string step_start_state_;
  bool replay_checked_ = false;
};

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
  RunRecorder rec(*this, config_, faults::FaultPlan{}, ckpt::CheckpointOptions{}, nullptr,
                  steps, 0);
  // The fast path never simulates individual steps; every step costs the
  // steady-state per-iteration time.
  rec.stats.per_iteration_ms = deployment_.per_iteration_ms;
  rec.stats.total_ms = deployment_.per_iteration_ms * steps;
  for (int s = 0; s < steps; ++s) rec.step_event(s, deployment_.per_iteration_ms);
  return rec.end(steps);
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

  // The injector owns the fault plan and the fault-scaled simulations — the
  // *injection* half of the pipeline; the detector is the only reader. It
  // runs every step in the order the deployment's tryout chose.
  sim::FaultInjector injector(compiled_->graph, cluster_, plan, deployment_.order);
  std::unique_ptr<Detector> detector;
  if (config_.health.enabled) {
    detector = std::make_unique<MonitorDetector>(injector, config_, cluster_, prior);
  } else {
    detector = std::make_unique<OracleDetector>(injector, config_.fault_handling);
  }
  RunRecorder rec(*this, config_, plan, copts, prior, steps, start_step);

  ActiveDeployment active{cluster_, deployment_.per_iteration_ms,
                          deployment_.cold_iteration_ms};
  int step = 0;
  while (step < steps) {
    // Steps before start_step are replayed: every state transition is
    // applied so the state at the watermark matches an uninterrupted run's,
    // but nothing is charged — those steps completed before the crash.
    rec.live = step >= start_step;
    if (rec.shutdown(step)) break;

    const StepOutcome outcome = detector->attempt(step, active, rec);
    if (outcome.completed) {
      // A measured step scales the steady-state time by its makespan over
      // the deployment's cold makespan (evaluate_plan's pipeline-overlap
      // correction carries over unchanged). One that ran exactly as long as
      // the cold iteration costs the steady-state time itself, as an
      // unmeasured step does: iter * cold / cold can round away from iter.
      double step_ms = active.iter_ms;
      if (outcome.makespan_ms && *outcome.makespan_ms != active.cold_ms) {
        step_ms = active.cold_ms > 0.0
                      ? active.iter_ms * *outcome.makespan_ms / active.cold_ms
                      : *outcome.makespan_ms;
      }
      rec.step(step, step_ms);
    }

    if (!outcome.failed.empty()) {
      // Graceful degradation: re-plan on the survivors. An in-flight step is
      // re-executed under the new plan.
      if (static_cast<int>(outcome.failed.size()) >= active.cluster.device_count()) {
        log_info() << "DistRunner: all devices failed at step " << step
                   << "; cannot recover";
        rec.stats.completed = false;
        break;
      }
      const auto t0 = Clock::now();
      cluster::ClusterSpec survivors = active.cluster;
      for (auto it = outcome.failed.rbegin(); it != outcome.failed.rend(); ++it) {
        survivors = survivors.remove_device(*it);
      }
      const Choice choice =
          choose_plan(training_graph_, survivors, config_,
                      outcome.degraded ? 0 : config_.fault_handling.replan_rl_episodes);
      const Deployment replanned = deploy_plan(training_graph_, survivors, config_,
                                               choice.grouping,
                                               choice.search.best_strategy);
      RecoveryReport report;
      report.replan_wall_ms = rec.wall_ms_since(t0);
      report.fault_step = step;
      report.failed_devices = outcome.failed;
      report.steps_lost = outcome.completed ? 0 : 1;
      report.pre_fault_iteration_ms = active.iter_ms;
      report.post_fault_iteration_ms = replanned.evaluation.per_iteration_ms;
      report.surviving_devices = survivors.device_count();
      report.post_plan_oom = replanned.evaluation.oom;
      report.escalated_transient = outcome.escalated;
      report.detection_attempts = outcome.detection_attempts;
      report.degraded = outcome.degraded != nullptr;

      const std::vector<int> id_map =
          survivor_id_map(active.cluster.device_count(), outcome.failed);
      injector.apply_replan(replanned.compiled->graph, survivors, id_map,
                            replanned.evaluation.order);
      const std::vector<int> racks = detector->replanned(step, rec.live, id_map);
      report.domain_rack = racks.empty() ? -1 : racks.front();
      rec.recovery(report, outcome.degraded, racks);
      active = {std::move(survivors), replanned.evaluation.per_iteration_ms,
                replanned.evaluation.cold_iteration_ms};
      if (!outcome.completed) continue;
    } else if (const auto stragglers = detector->stragglers(step, active, rec)) {
      // Choose on the believed cluster, deploy on the real one: the injector
      // keeps applying the true slowdown, so deploying on the derated spec
      // would double-apply it.
      const Choice choice = choose_plan(training_graph_, stragglers->derated, config_, 0);
      const Deployment redeployed =
          deploy_plan(training_graph_, active.cluster, config_, choice.grouping,
                      choice.search.best_strategy);
      std::vector<int> identity(static_cast<size_t>(active.cluster.device_count()));
      std::iota(identity.begin(), identity.end(), 0);
      injector.apply_replan(redeployed.compiled->graph, active.cluster, identity,
                            redeployed.evaluation.order);
      detector->replanned(step, rec.live, identity);
      rec.stats.oom = rec.stats.oom || redeployed.evaluation.oom;
      rec.degraded_replan(step, "straggler_replan", stragglers->devices, true);
      if (rec.live) {
        log_info() << "DistRunner: re-planned around " << stragglers->devices
                   << " quarantined straggler(s) at step " << step << "; plan "
                   << active.iter_ms << " -> " << redeployed.evaluation.per_iteration_ms
                   << " ms/iteration";
      }
      active.iter_ms = redeployed.evaluation.per_iteration_ms;
      active.cold_ms = redeployed.evaluation.cold_iteration_ms;
    }

    ++step;
    if (rec.checkpoint_due(step, steps)) rec.snapshot(step, detector->serialize());
  }
  rec.stats.health = detector->summary();
  return rec.finish(step, detector->serialize());
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
  // A monitor-detector run journals its serialized monitor; the embedded
  // policy re-enables monitoring on resume so the tail replays the same
  // detection decisions (the detector cross-checks the replayed state).
  if (!journal.health_state.empty()) {
    config.health = MonitorDetector::journalled_policy(journal.health_state);
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

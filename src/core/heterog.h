// HeteroG public API — the C++ analogue of the paper's Fig. 5 programming
// interface.
//
//   auto runner = heterog::get_runner(
//       [] { return my_forward_graph(batch); },   // model_func (single-GPU)
//       cluster::make_paper_testbed_8gpu(),       // device_info
//       heterog::HeteroGConfig{});                // optional config
//   auto stats = runner.run(steps);
//
// get_runner performs the full pipeline: Graph Analyzer (training-graph
// expansion), Profiler (regression cost models over the synthetic hardware),
// Strategy Maker (GNN agent + REINFORCE search + order scheduling) and Graph
// Compiler, returning a DistRunner holding the deployed plan. run() executes
// the plan on the simulated cluster (the execution-engine substitute; see
// DESIGN.md §2) and reports per-iteration statistics.
#pragma once

#include <functional>
#include <memory>

#include "agent/features.h"
#include "agent/policy.h"
#include "baselines/baselines.h"
#include "ckpt/journal.h"
#include "cluster/cluster.h"
#include "compile/compiler.h"
#include "faults/faults.h"
#include "graph/training.h"
#include "health/health.h"
#include "obs/event_log.h"
#include "profiler/profiler.h"
#include "rl/trainer.h"
#include "sim/plan_eval.h"
#include "sim/simulator.h"
#include "strategy/strategy.h"

namespace heterog {

/// Knobs of the detect -> retry -> re-plan loop (DESIGN.md "Fault model &
/// recovery").
struct FaultHandlingConfig {
  /// Transient-fault retry cap; a device still failing after this many
  /// attempts is escalated to a permanent failure (graceful degradation).
  int max_retries = 5;
  /// First retry backoff; doubles per attempt, capped at max_backoff_ms.
  double retry_backoff_ms = 50.0;
  double max_backoff_ms = 2000.0;
  /// RL episodes for the re-plan after a device failure. 0 = heuristic-only
  /// re-planning (fast; the common choice — a mid-run re-plan should not
  /// stall training on a long search).
  int replan_rl_episodes = 0;
  /// Record wall-clock fields (replan_wall_ms, checkpoint wall_ms) as zero
  /// so identical executions produce byte-identical journals and event logs
  /// — the chaos harness's per-seed determinism contract. Off by default:
  /// real runs want the real walls.
  bool deterministic_wall_times = false;
};

struct HeteroGConfig {
  agent::AgentConfig agent;
  /// Online health monitoring (DESIGN.md "Online health & degraded modes").
  /// Picks the detector a fault-aware run's step loop takes each step's
  /// outcome from. When `health.enabled`, the monitor detector infers
  /// failures and stragglers from per-attempt measurements only and never
  /// reads the injected FaultPlan; off, the oracle detector reads the plan.
  health::HealthPolicy health;
  /// Search configuration. `train.threads` fans strategy evaluation across a
  /// worker pool and `train.eval_cache_capacity` memoizes repeated plans —
  /// both change only wall-clock time, never the chosen plan (the search is
  /// bit-identical for any thread count; see DESIGN.md "Parallel evaluation
  /// & memoization").
  rl::TrainConfig train;
  FaultHandlingConfig fault_handling;
  /// Seed for the synthetic profiling noise.
  uint64_t profiler_seed = 42;
  /// Use HeteroG's execution-order scheduling (vs TF FIFO) — the Fig. 5
  /// heterog_config knob evaluated in Table 7.
  bool use_order_scheduling = true;
  /// Skip RL and deploy the best heuristic candidate only (fast mode for
  /// examples and smoke tests).
  bool search_with_rl = true;
  /// Telemetry sink for the runner and deployment layers (non-owning; must
  /// outlive every run). When set, get_runner emits schedule /
  /// device_utilization / link_utilization events for each deployed plan and
  /// DistRunner::run streams run_* events (docs/observability.md). Set
  /// train.events as well to also capture the strategy search. Write-only:
  /// results are bit-identical with or without a sink.
  obs::EventLog* events = nullptr;
  /// Durable cross-run evaluation cache (non-owning; must outlive every
  /// plan/re-plan — docs/persistence.md). get_runner and every mid-run
  /// re-plan consult it read-through/write-behind, keyed with a context hash
  /// of (cluster fingerprint, profiler seed) so entries never leak across
  /// clusters or seeds. Null disables persistence; results are bit-identical
  /// with the store hot, cold, corrupted, or absent.
  store::PlanStore* plan_store = nullptr;
};

/// What one recovery from a permanent device failure cost: the journalled
/// record plus an in-memory diagnostic.
struct RecoveryReport : ckpt::RecoveryRecord {
  /// Monitor detector only: rack the monitor attributed this batch of
  /// failures to (-1 = independent failures). Not journalled.
  int domain_rack = -1;
};

struct RunStats {
  int steps = 0;
  double per_iteration_ms = 0.0;
  double total_ms = 0.0;
  double computation_ms = 0.0;
  double communication_ms = 0.0;
  bool oom = false;

  /// Step-by-step runs only (run(steps, plan) and the checkpointing
  /// overloads): per-step times, retry bookkeeping and one report per
  /// failure re-plan. `completed` goes false only when recovery is
  /// impossible (no surviving devices) or the run was interrupted.
  std::vector<double> step_ms;
  int transient_retries = 0;
  double retry_backoff_total_ms = 0.0;
  std::vector<RecoveryReport> recoveries;
  bool completed = true;

  /// The run stopped early at a step boundary because a cooperative shutdown
  /// was requested (common/shutdown: SIGTERM/SIGINT routed through
  /// install_shutdown_handlers, or request_shutdown). A final checkpoint
  /// snapshot was written first when checkpointing is on, so the run is
  /// resumable; `completed` is false. Never set in processes that don't
  /// install the handlers.
  bool interrupted = false;

  /// Monitor detector only (HeteroGConfig::health.enabled): wall time
  /// spent waiting out heartbeat timeouts while confirming failures
  /// (included in total_ms but kept out of step_ms so per-step times stay
  /// comparable to the oracle detector's), and the monitor's aggregate outcome.
  /// On a resumed run the summary covers the whole run including the
  /// replayed prefix (the monitor is rebuilt by replay).
  double detection_overhead_ms = 0.0;
  health::HealthSummary health;
};

/// A deployed distributed training model (Fig. 5's dist_runner).
class DistRunner {
 public:
  /// Executes `steps` training iterations on the (simulated) cluster.
  RunStats run(int steps) const;

  /// Fault-aware execution: steps through `plan`, retrying transient faults
  /// with capped exponential backoff and recovering from permanent device
  /// failures by re-planning on the surviving ClusterSpec subset (heuristic
  /// Strategy Maker, plus an optional short RL refinement — see
  /// FaultHandlingConfig::replan_rl_episodes) and resuming from the last
  /// completed step. Each recovery is surfaced as a RecoveryReport.
  RunStats run(int steps, const faults::FaultPlan& plan) const;

  /// Checkpointing variants: same execution, plus a crash-consistent run
  /// journal snapshot every `ckpt.every` completed steps (and at run end).
  /// A process killed at any instant leaves a loadable journal from which
  /// resume_run continues deterministically. Per-step times are recorded
  /// even for an empty fault plan so resumed tails are comparable.
  RunStats run(int steps, const ckpt::CheckpointOptions& ckpt) const;
  RunStats run(int steps, const faults::FaultPlan& plan,
               const ckpt::CheckpointOptions& ckpt) const;

  double per_iteration_ms() const { return per_iteration_ms_; }
  bool feasible() const { return feasible_; }
  const cluster::ClusterSpec& cluster() const { return cluster_; }

  const strategy::StrategyMap& strategy() const { return strategy_; }
  const strategy::Grouping& grouping() const { return grouping_; }
  const graph::GraphDef& training_graph() const { return training_graph_; }
  const compile::DistGraph& dist_graph() const { return compiled_->graph; }
  const rl::SearchResult& search_result() const { return search_; }
  /// Ground-truth evaluation of the deployed plan, including per-device /
  /// per-link busy times and the critical path (collect_utilization is always
  /// on for deployments — benches read utilization columns from here).
  const sim::PlanEvaluation& deployment() const { return deployment_; }

  /// Table 2/3-style per-strategy op fractions of the deployed plan.
  strategy::StrategyBreakdown breakdown() const;

 private:
  friend DistRunner get_runner(const std::function<graph::GraphDef()>&,
                               const cluster::ClusterSpec&, const HeteroGConfig&);
  friend RunStats resume_run(const std::string&,
                             const std::function<graph::GraphDef()>&,
                             const ckpt::CheckpointOptions&, obs::EventLog*,
                             store::PlanStore*);

  /// Deploys `search.best_strategy` (over `grouping`) on `cluster` — the
  /// deploy stage get_runner and resume_run share: ground-truth compile,
  /// evaluate_plan with utilization, `schedule` events to config.events.
  DistRunner(cluster::ClusterSpec cluster, HeteroGConfig config,
             graph::GraphDef training_graph, strategy::Grouping grouping,
             rl::SearchResult search);

  /// Engine behind resume_run and every run() overload but the fault-free
  /// fast path: one step loop that takes each step's outcome from the oracle
  /// or the monitor detector. Steps in [0, start_step) are *replayed*: every
  /// state transition (transient escalation, device-failure re-planning,
  /// fault-plan remapping) is applied so the execution state at start_step
  /// is bit-identical to an uninterrupted run's, but no time or stats are
  /// charged — those steps already happened before the crash. `prior`
  /// carries the journal history a resumed run extends; null for fresh runs.
  RunStats run_impl(int steps, const faults::FaultPlan& plan, int start_step,
                    const ckpt::CheckpointOptions& ckpt,
                    const ckpt::RunJournal* prior) const;

  cluster::ClusterSpec cluster_;
  HeteroGConfig config_;  // kept for mid-run re-planning
  graph::GraphDef training_graph_;
  strategy::Grouping grouping_;
  strategy::StrategyMap strategy_;
  std::shared_ptr<compile::CompileResult> compiled_;  // against ground truth
  rl::SearchResult search_;
  sim::PlanEvaluation deployment_;
  double per_iteration_ms_ = 0.0;
  bool feasible_ = false;
};

/// The paper's get_runner: converts a single-GPU model into an optimised
/// distributed deployment for the given device set.
DistRunner get_runner(const std::function<graph::GraphDef()>& model_func,
                      const cluster::ClusterSpec& device_info,
                      const HeteroGConfig& config = HeteroGConfig());

/// What the choose stage plans on: `training_graph` profiled on `cluster`
/// under config.profiler_seed, and encoded against that cost model into at
/// most config.agent.max_groups op groups, seeded by the longest-running
/// ops. A saved plan holds one action per group, so it means something only
/// under `encoded.grouping`: get_runner plans with it, and `heterog_cli
/// evaluate` rebuilds it. `training_graph` and `cluster` must outlive the
/// result.
struct PlannerInput {
  std::shared_ptr<const profiler::CostModel> costs;
  agent::EncodedGraph encoded;
};
PlannerInput profile_and_encode(const graph::GraphDef& training_graph,
                                const cluster::ClusterSpec& cluster,
                                const HeteroGConfig& config);

/// Streams one `schedule` event plus one `device_utilization` per GPU and
/// one `link_utilization` per busy communication resource for an evaluated
/// plan (docs/observability.md; ratios are against the cold single-iteration
/// makespan, so the evaluation should have been produced with
/// PlanEvalOptions::collect_utilization set). No-op when `events` is null or
/// failed to open. get_runner emits this for every deployment; heterog_cli
/// reuses it for ad-hoc `evaluate --metrics` runs.
void emit_schedule_events(obs::EventLog* events, const sim::PlanEvaluation& eval,
                          int device_count);

/// Deterministic recovery from a checkpointed run (DESIGN.md "Crash
/// consistency & resume"). Loads and CRC-validates the journal, re-validates
/// the cluster fingerprint of the embedded cluster, rebuilds the training
/// graph via `model_func` (cross-checked against the journal's model name
/// and op count), recompiles the dist graph from the journal's deployed
/// plan — no strategy search is repeated — and resumes execution from the
/// completed-step watermark, replaying any pre-watermark fault recoveries so
/// a crash *during* a device-failure recovery resumes mid-recovery.
///
/// Returns the RunStats of the tail (steps [watermark, total)); the
/// journal's own history covers the prefix. The resumed run keeps
/// checkpointing: `ckpt` overrides, defaulting to the journal's directory
/// and cadence. The headline guarantee, enforced by tests/ckpt_test.cpp: a
/// run killed at an arbitrary checkpointed step and resumed produces
/// per-step times bit-identical to the uninterrupted run's tail, with or
/// without an active FaultPlan.
///
/// Throws ckpt::JournalError on a missing/corrupt journal, fingerprint
/// mismatch, or a model_func inconsistent with the journal.
///
/// `events` (non-owning, optional) streams the resumed tail's schedule and
/// run_* telemetry, exactly as HeteroGConfig::events does for a fresh run.
/// `plan_store` (non-owning, optional) attaches the durable evaluation cache
/// to any mid-run re-planning the resumed tail performs, exactly as
/// HeteroGConfig::plan_store does for a fresh run.
RunStats resume_run(const std::string& journal_path,
                    const std::function<graph::GraphDef()>& model_func,
                    const ckpt::CheckpointOptions& ckpt = {},
                    obs::EventLog* events = nullptr,
                    store::PlanStore* plan_store = nullptr);

}  // namespace heterog

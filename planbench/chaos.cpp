// run_chaos (planbench/README.md): a heuristic MobileNet-v2 deployment on
// the generated pod64 topology, run through seeded chaos schedules with
// online health monitoring and a checkpoint every few steps. Re-plans use
// real wall times (deterministic_wall_times off).
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.h"
#include "cluster/topology.h"
#include "core/heterog.h"
#include "faults/chaos.h"
#include "graph/training.h"
#include "models/models.h"
#include "obs/event_log.h"
#include "replay.h"
#include "strategy/serialize.h"

namespace planbench {
namespace {

using namespace heterog;

constexpr int kSchedules = 12;  // chaos schedules per pass
constexpr int kSteps = 20;      // training steps per schedule
constexpr int kCheckpointEvery = 4;

struct ChaosInputs {
  cluster::ClusterSpec cluster;
  graph::GraphDef forward;
  HeteroGConfig config;
  std::optional<DistRunner> runner;
  std::vector<faults::FaultPlan> plans;
  double generate_ms = 0.0;
  double chaos_plan_ms = 0.0;
};

/// Schedules differ in how many re-plans they force and on how many
/// survivors, and re-plans take most of a run's wall. Keeping only schedules
/// of one shape (one device failure, one straggler, no rack failure or
/// switch outage) makes a pass's work depend far less on the seed than on
/// the program.
bool fixed_shape(const faults::FaultPlan& plan) {
  int failures = 0, stragglers = 0, domain = 0;
  for (const faults::FaultEvent& e : plan.events) {
    failures += e.kind == faults::FaultKind::kDeviceFailure;
    stragglers += e.kind == faults::FaultKind::kStraggler;
    domain += e.kind == faults::FaultKind::kRackFailure ||
              e.kind == faults::FaultKind::kSwitchOutage;
  }
  return failures == 1 && stragglers == 1 && domain == 0;
}

void build_inputs(uint64_t seed, ChaosInputs& in) {
  auto t0 = Clock::now();
  in.cluster = cluster::generate_cluster(*cluster::topo_preset("pod64"));
  in.generate_ms = ms_since(t0);
  in.forward = models::build_forward(models::ModelKind::kMobileNetV2, 0,
                                     2.0 * in.cluster.device_count());
  in.config = HeteroGConfig{};
  in.config.search_with_rl = false;
  in.config.train.episodes = 0;
  in.config.health.enabled = true;
  in.runner.emplace(get_runner([&in] { return in.forward; }, in.cluster, in.config));

  t0 = Clock::now();
  in.plans.clear();
  for (uint64_t salt = 0; static_cast<int>(in.plans.size()) < kSchedules; ++salt) {
    if (salt == 100000) throw std::runtime_error("too few chaos schedules of the fixed shape");
    faults::ChaosOptions options;
    options.seed = derive_seed(seed, salt);
    options.steps = kSteps;
    options.device_count = in.cluster.device_count();
    faults::FaultPlan plan = faults::make_chaos_plan(in.cluster, options);
    if (fixed_shape(plan)) in.plans.push_back(std::move(plan));
  }
  in.chaos_plan_ms = ms_since(t0);
}

struct ChaosRun {
  RunStats stats;
  double wall_ms = 0.0;
  double ckpt_bytes = 0.0;
  int ckpt_writes = 0;
};

ChaosRun run_schedule(const DistRunner& runner, const faults::FaultPlan& plan,
                      const std::string& ckpt_dir) {
  ChaosRun out;
  ckpt::CheckpointOptions ckpt;
  ckpt.dir = ckpt_dir;
  ckpt.every = kCheckpointEvery;
  ckpt.after_checkpoint = [&out](int, const std::string& path) {
    ++out.ckpt_writes;
    out.ckpt_bytes += static_cast<double>(std::filesystem::file_size(path));
  };
  const auto t0 = Clock::now();
  out.stats = runner.run(kSteps, plan, ckpt);
  out.wall_ms = ms_since(t0);
  return out;
}

/// Counts the run and checks it: complete, and (against `reference`) the
/// same per-step and total times.
void check_run(size_t schedule, const ChaosRun& run, const ChaosRun* reference,
               const char* pass, Report& report) {
  const bool complete = run.stats.completed && !run.stats.interrupted;
  report.attempt(complete);
  const std::string name = "chaos schedule " + std::to_string(schedule);
  if (!complete) report.violation(name + " did not complete");
  if (reference != nullptr && (run.stats.step_ms != reference->stats.step_ms ||
                               run.stats.total_ms != reference->stats.total_ms)) {
    report.violation(name + ": step times differ in " + pass);
  }
}

std::string ckpt_dir(const Args& args, size_t schedule) {
  return args.tmp + "/ckpt-" + std::to_string(schedule);
}

std::vector<ChaosRun> untraced_pass(const Args& args, const ChaosInputs& in,
                                    const std::vector<ChaosRun>* reference, double* wall_ms,
                                    Report& report) {
  std::vector<ChaosRun> out;
  for (size_t i = 0; i < in.plans.size(); ++i) {
    out.push_back(run_schedule(*in.runner, in.plans[i], ckpt_dir(args, i)));
    check_run(i, out.back(), reference ? &(*reference)[i] : nullptr, "a repeated pass",
              report);
    *wall_ms += out.back().wall_ms;
  }
  return out;
}

/// One untraced pass (the reference; it also warms the process up), the
/// traced pass, and a second untraced pass that the traced one is timed
/// against.
void trace_chaos(const Args& args, const ChaosInputs& in, Report& report) {
  double plain_ms = 0.0, steps = 0.0, train_ms = 0.0;
  const std::vector<ChaosRun> plain = untraced_pass(args, in, nullptr, &plain_ms, report);
  std::vector<double> replans;
  for (const ChaosRun& run : plain) {
    steps += static_cast<double>(run.stats.step_ms.size());
    train_ms += run.stats.total_ms;
    for (const RecoveryReport& r : run.stats.recoveries) replans.push_back(r.replan_wall_ms);
  }
  report.set("core.recovery_p50_ms", median(replans));
  report.set("core.steps_per_s", steps / (plain_ms / 1000.0));
  report.set("core.train_s", train_ms / 1000.0);

  // The traced pass: the same deployment, built with the event log attached.
  const std::string path = args.tmp + "/chaos-events.jsonl";
  double traced_ms = 0.0, replan_ms = 0.0, retries = 0.0, steps_lost = 0.0;
  double recoveries = 0.0, ckpt_writes = 0.0, ckpt_bytes = 0.0;
  double detections = 0.0, detect_steps = 0.0, quarantines = 0.0, overhead_ms = 0.0;
  uint64_t first_run_event = 0;
  {
    obs::EventLog log(path);
    HeteroGConfig config = in.config;
    config.events = &log;
    config.train.events = &log;
    const DistRunner runner = get_runner([&in] { return in.forward; }, in.cluster, config);
    if (strategy::to_text(runner.strategy(), in.cluster) !=
        strategy::to_text(in.runner->strategy(), in.cluster)) {
      report.violation("the traced pass deployed a different initial plan");
    }
    first_run_event = log.events_emitted();
    for (size_t i = 0; i < in.plans.size(); ++i) {
      const ChaosRun run = run_schedule(runner, in.plans[i], ckpt_dir(args, i));
      check_run(i, run, &plain[i], "the traced pass", report);
      traced_ms += run.wall_ms;
      ckpt_writes += run.ckpt_writes;
      ckpt_bytes += run.ckpt_bytes;
      retries += run.stats.transient_retries;
      overhead_ms += run.stats.detection_overhead_ms;
      quarantines += run.stats.health.quarantines;
      for (const RecoveryReport& r : run.stats.recoveries) {
        replan_ms += r.replan_wall_ms;
        steps_lost += r.steps_lost;
        recoveries += 1.0;
      }
      for (const health::DetectionRecord& d : run.stats.health.detections) {
        detections += 1.0;
        detect_steps += d.confirmed_step - d.onset_step;
      }
    }
  }
  double ckpt_ms = 0.0, straggler_replans = 0.0, heuristics_ms = 0.0;
  for (const obs::ParsedEvent& e : obs::read_events(path)) {
    if (e.seq < first_run_event) continue;  // the initial deployment's events
    if (e.type == "run_checkpoint") {
      ckpt_ms += e.number("wall_ms");
    } else if (e.type == "degraded_replan" && e.str("reason") == "straggler_replan") {
      straggler_replans += 1.0;
    } else if (e.type == "search_end") {
      heuristics_ms += e.number("wall_ms");
    }
  }

  report.set("core.replan_ms", replan_ms);
  report.set("core.run_self_ms", traced_ms - replan_ms - ckpt_ms);
  report.set("core.recoveries", recoveries);
  report.set("core.retries", retries);
  report.set("core.steps_lost", steps_lost);
  report.set("health.detections", detections);
  report.set("health.detect_latency_steps", detections > 0.0 ? detect_steps / detections : 0.0);
  report.set("health.quarantines", quarantines);
  report.set("health.detection_overhead_ms", overhead_ms);
  double fault_events = 0.0;
  for (const faults::FaultPlan& plan : in.plans) fault_events += plan.events.size();
  report.set("faults.events", fault_events);
  report.set("faults.chaos_plan_ms", in.chaos_plan_ms);
  report.set("ckpt.write_ms", ckpt_ms);
  report.set("ckpt.writes", ckpt_writes);
  report.set("ckpt.bytes", ckpt_bytes);
  report.set("cluster.generate_ms", in.generate_ms);
  report.set("rl.heuristics_ms", heuristics_ms);
  double again_ms = 0.0;
  untraced_pass(args, in, &plain, &again_ms, report);
  report.set("bench.trace_overhead_ratio", traced_ms / again_ms);

  // Every mid-run re-plan is a heuristic plan on the survivors (a straggler
  // re-plan also redeploys, profiling twice); split the initial deployment,
  // the same path on the full cluster, and scale it by those counts.
  const graph::GraphDef training = graph::build_training_graph(in.forward);
  const PlanSplit split =
      replay_heuristic_plan(training, in.cluster, in.config.profiler_seed, report);
  if (split.plan_text != strategy::to_text(in.runner->strategy(), in.cluster) ||
      split.per_iteration_ms != in.runner->per_iteration_ms()) {
    report.violation("replayed initial deployment differs from the deployed plan");
  }
  const double plans = recoveries + straggler_replans;
  const double profiles = recoveries + 2.0 * straggler_replans;
  add_split(report, split, {plans, profiles, profiles, plans * split.evals.evals});
  report.set("rl.evals", plans * split.evals.evals);
  std::printf("traced chaos pass: %.0f recoveries, %.0f straggler re-plans, %.0f "
              "checkpoints, wall %.1f ms (untraced %.1f ms)\n",
              recoveries, straggler_replans, ckpt_writes, traced_ms, again_ms);
}

}  // namespace

void run_chaos(const Args& args, Report& report) {
  ChaosInputs in;
  const double setup_s = median_setup_s([&] { build_inputs(args.seed, in); });
  if (!in.runner->feasible()) report.violation("initial pod64 deployment is infeasible");
  if (args.trace) {
    trace_chaos(args, in, report);
    return;
  }

  // Medians over schedules for walls and rates: one schedule whose straggler
  // lingers or whose detection waits pile up must not move them. Each
  // pass calibrates the host before its first schedule and after each one,
  // and rescales its walls by those calibrations (HostSpeed).
  std::vector<ChaosRun> first;
  std::vector<double> replans, calibration_ms;
  std::vector<std::vector<double>> rates(in.plans.size());
  const int passes = run_passes(args.seconds, [&](int pass) {
    HostSpeed speed;
    speed.calibrate();
    std::vector<ChaosRun> runs;
    for (size_t i = 0; i < in.plans.size(); ++i) {
      runs.push_back(run_schedule(*in.runner, in.plans[i], ckpt_dir(args, i)));
      speed.calibrate();
      check_run(i, runs.back(), pass == 0 ? nullptr : &first[i], "a repeated pass", report);
    }
    for (size_t i = 0; i < runs.size(); ++i) {
      for (const RecoveryReport& r : runs[i].stats.recoveries) {
        replans.push_back(r.replan_wall_ms * speed.scale());
      }
      rates[i].push_back(static_cast<double>(runs[i].stats.step_ms.size()) /
                         (runs[i].wall_ms * speed.scale() / 1000.0));
    }
    calibration_ms.push_back(speed.mean_ms());
    if (pass == 0) first = std::move(runs);
  });

  std::vector<double> schedule_rates, recovered_ms;
  std::printf("%-9s %6s %10s %12s %16s %12s\n", "schedule", "events", "re-plans", "train sim s",
              "re-planned ms", "steps/s p50");
  for (size_t i = 0; i < first.size(); ++i) {
    schedule_rates.push_back(median(rates[i]));
    for (const RecoveryReport& r : first[i].stats.recoveries) {
      recovered_ms.push_back(r.post_fault_iteration_ms);
    }
    std::printf("%-9zu %6zu %10zu %12.3f %16.3f %12.2f\n", i, in.plans[i].events.size(),
                first[i].stats.recoveries.size(), first[i].stats.total_ms / 1000.0,
                first[i].stats.recoveries.empty()
                    ? 0.0
                    : first[i].stats.recoveries.back().post_fault_iteration_ms,
                schedule_rates.back());
  }
  std::printf("passes %d, %zu re-plans; calibration p50 %.2f ms (reference %.1f ms)\n", passes,
              replans.size(), median(calibration_ms), kReferenceCalibrationMs);
  if (replans.empty()) report.violation("no chaos schedule triggered a re-plan");
  report.set("setup_s", setup_s);
  report.set("plan_wall_s", median(replans) / 1000.0);
  report.set("tail_wall_s", quantile(replans, 0.9) / 1000.0);
  report.set("rate_per_s", median(schedule_rates));
  report.set("plan_iter_ms", geomean(recovered_ms));
  report.set("peak_rss_mb", peak_rss_mb());
}

}  // namespace planbench

// Recovery bench: DistRunner's monitor detector vs its oracle detector.
//
// Five fault mixes are driven through DistRunner twice — once with the
// oracle detector (the step loop reads the fault plan's verdicts) and once
// with the monitor detector (the loop sees only per-attempt measurements,
// through a HealthMonitor). Three run on MobileNet-v2 on the fig3 testbed,
// whose deployment the scheduler's tryout gives chained ranks; two run on
// 8-GPU deployments it gives plain ranks and FIFO, so parity covers every
// order the run loop can enforce. Reported per mix: the deployed order,
// detection latency in steps from fault onset to the monitor's verdict, and
// the total-time overhead the measurement-only detector pays over the
// oracle (heartbeat timeouts spent confirming failures).
//
// Parity gate: on each hand-written mix the two detectors must agree
// exactly — bitwise-equal per-step times, recoveries at the same fault
// steps, equal retry counts and backoff, and totals that differ by the
// detection overhead alone (within 1e-6 ms). The bench exits 1 otherwise.
//
// deterministic_wall_times is on, so both columns are bit-stable run to run
// and the overhead column isolates detection cost from replan wall time.
//
// Extra knob: HETEROG_CHAOS_SEED adds a seed-generated chaos mix on fig3
// (faults::make_chaos_plan) on top of the hand-written ones. The seed
// and the full scenario shape land in the HETEROG_BENCH_JSON "config" block
// so any perf trajectory is attributable to a reproducible schedule.
#include "bench_util.h"

#include <cmath>

#include "core/heterog.h"
#include "faults/chaos.h"
#include "faults/faults.h"

using namespace heterog;
using namespace heterog::bench;

namespace {

constexpr int kSteps = 24;

faults::FaultEvent device_failure(cluster::DeviceId device, int onset) {
  faults::FaultEvent e;
  e.kind = faults::FaultKind::kDeviceFailure;
  e.device = device;
  e.onset_step = onset;
  return e;
}

faults::FaultEvent straggler(cluster::DeviceId device, double slowdown, int onset,
                             int recovery = -1) {
  faults::FaultEvent e;
  e.kind = faults::FaultKind::kStraggler;
  e.device = device;
  e.slowdown = slowdown;
  e.onset_step = onset;
  e.recovery_step = recovery;
  return e;
}

faults::FaultEvent transient(cluster::DeviceId device, int onset, int failed_attempts) {
  faults::FaultEvent e;
  e.kind = faults::FaultKind::kTransient;
  e.device = device;
  e.onset_step = onset;
  e.failed_attempts = failed_attempts;
  return e;
}

faults::FaultEvent link_degradation(cluster::DeviceId a, cluster::DeviceId b,
                                    double factor, int onset, int recovery) {
  faults::FaultEvent e;
  e.kind = faults::FaultKind::kLinkDegradation;
  e.device_a = a;
  e.device_b = b;
  e.bandwidth_factor = factor;
  e.onset_step = onset;
  e.recovery_step = recovery;
  return e;
}

HeteroGConfig recovery_config(bool online) {
  HeteroGConfig config;
  config.search_with_rl = false;
  config.train.episodes = 0;
  config.agent.max_groups = max_groups();
  config.fault_handling.deterministic_wall_times = true;
  config.health.enabled = online;
  return config;
}

/// A fault mix and the deployment it runs on.
struct Mix {
  std::string label;
  faults::FaultPlan plan;
  models::ModelKind model = models::ModelKind::kMobileNetV2;
  double batch = 96;
  cluster::ClusterSpec (*cluster)() = cluster::make_fig3_testbed;
};

DistRunner deploy(const Mix& mix, bool online) {
  return get_runner([&] { return models::build_forward(mix.model, 0, mix.batch); },
                    mix.cluster(), recovery_config(online));
}

const char* order_name(sched::OrderPolicy order) {
  switch (order) {
    case sched::OrderPolicy::kRankPriority:
      return "chained ranks";
    case sched::OrderPolicy::kPlainRanks:
      return "plain ranks";
    case sched::OrderPolicy::kFifo:
      return "FIFO";
  }
  return "?";
}

/// Why the two detectors disagree on a mix; empty when they have parity.
std::string parity_violation(const RunStats& oracle, const RunStats& online) {
  const auto fault_steps = [](const RunStats& s) {
    std::vector<int> steps;
    for (const RecoveryReport& r : s.recoveries) steps.push_back(r.fault_step);
    return steps;
  };
  if (online.step_ms != oracle.step_ms) return "per-step times differ";
  if (fault_steps(online) != fault_steps(oracle)) {
    return "recoveries happen at different steps";
  }
  if (online.transient_retries != oracle.transient_retries ||
      online.retry_backoff_total_ms != oracle.retry_backoff_total_ms) {
    return "retries or backoff differ";
  }
  if (std::abs(online.total_ms - oracle.total_ms - online.detection_overhead_ms) > 1e-6) {
    return "totals differ by more than the detection overhead";
  }
  return "";
}

}  // namespace

int main() {
  print_header(
      "Recovery bench: oracle-free detection latency and overhead",
      "DESIGN.md \"Online health & degraded modes\" — the online monitor "
      "must reach the oracle's verdicts from measurements alone, paying "
      "only heartbeat-timeout wall time for the privilege");

  std::vector<Mix> mixes(5);
  mixes[0].label = "fail-stop";
  mixes[0].plan.events = {device_failure(1, 6)};
  mixes[1].label = "stragglers";
  mixes[1].plan.events = {straggler(0, 3.0, 5, 14), straggler(2, 2.5, 16)};
  mixes[2].label = "mixed";
  mixes[2].plan.events = {transient(2, 3, 2), straggler(0, 3.0, 8, 18),
                          link_degradation(0, 3, 0.5, 4, 12),
                          device_failure(1, 15)};
  // MobileNet-v2 b64 and Inception-v3 b32 on the 8-GPU testbed: the tryout
  // deploys them in plain-rank and FIFO order.
  mixes[3].label = "8gpu-mnv2";
  mixes[3].model = models::ModelKind::kMobileNetV2;
  mixes[3].batch = 64;
  mixes[4].label = "8gpu-incv3";
  mixes[4].model = models::ModelKind::kInceptionV3;
  mixes[4].batch = 32;
  for (size_t m = 3; m < 5; ++m) {
    mixes[m].cluster = cluster::make_paper_testbed_8gpu;
    mixes[m].plan.events = {straggler(0, 2.5, 4, 12), device_failure(5, 16)};
  }
  const size_t hand_written = mixes.size();  // the mixes the parity gate covers

  // HETEROG_CHAOS_SEED adds a seed-generated schedule as one more mix; the
  // same seed always reproduces the same schedule (chaos.h pins this).
  const int chaos_seed = env_int("HETEROG_CHAOS_SEED", -1, 0, kNoLimit);
  if (chaos_seed >= 0) {
    faults::ChaosOptions chaos;
    chaos.seed = static_cast<uint64_t>(chaos_seed);
    chaos.steps = kSteps;
    chaos.device_count = cluster::make_fig3_testbed().device_count();
    Mix chaos_mix;
    chaos_mix.label = "chaos(seed=" + std::to_string(chaos_seed) + ")";
    chaos_mix.plan = faults::make_chaos_plan(chaos);
    mixes.push_back(std::move(chaos_mix));
  }

  int violations = 0;

  obs::MetricsRegistry& metrics = obs::MetricsRegistry::global();
  TextTable table({"Mix", "Order", "Oracle (ms)", "Online (ms)", "Overhead (ms / %)",
                   "Detect (steps)", "Detections", "Quarantines"});
  for (size_t m = 0; m < mixes.size(); ++m) {
    const Mix& mix = mixes[m];
    const DistRunner oracle_runner = deploy(mix, /*online=*/false);
    const RunStats oracle = oracle_runner.run(kSteps, mix.plan);
    const RunStats online = deploy(mix, /*online=*/true).run(kSteps, mix.plan);
    if (m < hand_written) {
      const std::string violation = parity_violation(oracle, online);
      if (!violation.empty()) {
        std::fprintf(stderr, "parity violation on mix %s: %s\n", mix.label.c_str(),
                     violation.c_str());
        ++violations;
      }
    }

    // Detection latency: steps from the first anomalous observation to the
    // monitor's verdict, averaged over every detection of the mix.
    double latency_sum = 0.0;
    for (const auto& d : online.health.detections) {
      latency_sum += static_cast<double>(d.confirmed_step - d.onset_step);
    }
    const size_t detections = online.health.detections.size();
    const double latency_mean =
        detections == 0 ? 0.0 : latency_sum / static_cast<double>(detections);

    const double overhead_ms = online.total_ms - oracle.total_ms;
    const double overhead_pct =
        oracle.total_ms <= 0.0 ? 0.0 : 100.0 * overhead_ms / oracle.total_ms;

    const std::string prefix = std::string("bench.recovery.") + mix.label;
    metrics.set(prefix + ".oracle_total.ms", oracle.total_ms);
    metrics.set(prefix + ".online_total.ms", online.total_ms);
    metrics.set(prefix + ".overhead.ms", overhead_ms);
    metrics.set(prefix + ".detection_overhead.ms", online.detection_overhead_ms);
    metrics.set(prefix + ".detection_latency_mean.steps", latency_mean);
    metrics.set(prefix + ".detections.count",
                static_cast<double>(detections));
    metrics.set(prefix + ".quarantines.count",
                static_cast<double>(online.health.quarantines));
    metrics.set(prefix + ".retries_charged.count",
                static_cast<double>(online.health.retries_charged));

    table.add_row({mix.label, order_name(oracle_runner.deployment().order),
                   fmt_double(oracle.total_ms, 2),
                   fmt_double(online.total_ms, 2),
                   fmt_double(overhead_ms, 2) + " / " +
                       fmt_double(overhead_pct, 2) + "%",
                   fmt_double(latency_mean, 1),
                   std::to_string(detections),
                   std::to_string(online.health.quarantines)});
  }
  std::printf("%s\n", table.render().c_str());

  BenchConfig config;
  config.emplace_back("steps", std::to_string(kSteps));
  config.emplace_back("max_groups", std::to_string(max_groups()));
  config.emplace_back("deterministic_wall_times", "true");
  config.emplace_back("chaos_seed", chaos_seed >= 0 ? std::to_string(chaos_seed)
                                                    : std::string("null"));
  std::string scenario = "[";
  for (size_t i = 0; i < mixes.size(); ++i) {
    if (i != 0) scenario += ",";
    scenario += config_str(mixes[i].label + ":" +
                           std::to_string(mixes[i].plan.events.size()) +
                           " events");
  }
  scenario += "]";
  config.emplace_back("scenarios", scenario);
  write_bench_json("recovery", config);
  if (violations > 0) {
    std::fprintf(stderr, "FAIL: %d mix(es) broke oracle/monitor parity\n", violations);
    return 1;
  }
  std::printf("parity: oracle and monitor detectors agree on all %zu hand-written mixes\n",
              hand_written);
  return 0;
}

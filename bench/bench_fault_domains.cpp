// Fault-domain bench: correlated failures at generated-topology scale.
//
// Pins the acceptance criteria of the correlated-fault-domain work, exiting
// nonzero when a gate fails so CI catches regressions:
//   * a ToR switch degradation on pod64 measurably lengthens the steps whose
//     cross-rack AllReduce traffic crosses it (and only those steps);
//   * the health monitor attributes a staggered rack burst to the rack
//     domain from heartbeat evidence alone, and the runner replans around
//     the whole domain in ONE recovery where per-device attribution pays one
//     replan per burst wave (one-shot vs serial);
//   * a rack burst at pod256 completes with a sane post-fault makespan;
//   * dc1000 smoke: domain expansion and survivor-cluster derivation at
//     1000 GPUs stay cheap (no runner, just the cluster math);
//   * determinism: warm repeats are bit-identical, and a crash at a
//     checkpoint mid-burst resumes to the byte-identical journal.
//
// deterministic_wall_times is on throughout, so every column is bit-stable
// run to run.
#include "bench_util.h"

#include <filesystem>

#include "ckpt/journal.h"
#include "cluster/topology.h"
#include "core/heterog.h"
#include "faults/faults.h"

using namespace heterog;
using namespace heterog::bench;

namespace {

constexpr int kSteps = 14;

int failures = 0;

void gate(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "GATE FAILED: %s\n", what);
    ++failures;
  }
}

graph::GraphDef bench_model() {
  return models::build_forward(models::ModelKind::kMobileNetV2, 0, 96);
}

HeteroGConfig domain_config(bool domain_attribution) {
  HeteroGConfig config;
  config.search_with_rl = false;
  config.train.episodes = 0;
  config.agent.max_groups = max_groups();
  config.fault_handling.deterministic_wall_times = true;
  config.health.enabled = true;
  config.health.domain_attribution = domain_attribution;
  return config;
}

faults::FaultEvent device_failure(cluster::DeviceId device, int onset) {
  faults::FaultEvent e;
  e.kind = faults::FaultKind::kDeviceFailure;
  e.device = device;
  e.onset_step = onset;
  return e;
}

faults::FaultEvent rack_failure(int rack, int onset) {
  faults::FaultEvent e;
  e.kind = faults::FaultKind::kRackFailure;
  e.rack = rack;
  e.onset_step = onset;
  return e;
}

faults::FaultEvent switch_degradation(int level, int index, double factor,
                                      int onset, int recovery) {
  faults::FaultEvent e;
  e.kind = faults::FaultKind::kSwitchDegradation;
  e.level = level;
  e.switch_index = index;
  e.bandwidth_factor = factor;
  e.onset_step = onset;
  e.recovery_step = recovery;
  return e;
}

faults::FaultEvent switch_outage(int level, int index, int onset) {
  faults::FaultEvent e;
  e.kind = faults::FaultKind::kSwitchOutage;
  e.level = level;
  e.switch_index = index;
  e.onset_step = onset;
  return e;
}

std::vector<cluster::DeviceId> devices_in_rack(const cluster::ClusterSpec& c,
                                               int rack) {
  std::vector<cluster::DeviceId> out;
  for (const auto& d : c.devices()) {
    if (c.topology().rack_of_host[static_cast<size_t>(d.host)] == rack) {
      out.push_back(d.id);
    }
  }
  return out;
}

/// A staggered rack-0 burst: 60%+ of the rack at `onset`, the rest two steps
/// later — inside the monitor's attribution window, but two separate waves
/// for a per-device detector.
faults::FaultPlan staggered_burst(const cluster::ClusterSpec& c, int onset) {
  const auto rack0 = devices_in_rack(c, 0);
  const size_t first_wave = (rack0.size() * 2 + 2) / 3;  // ~2/3 > 0.6 fraction
  faults::FaultPlan plan;
  for (size_t i = 0; i < rack0.size(); ++i) {
    plan.events.push_back(
        device_failure(rack0[i], i < first_wave ? onset : onset + 2));
  }
  return plan;
}

}  // namespace

int main() {
  print_header(
      "Fault-domain bench: correlated faults at generated-topology scale",
      "DESIGN.md \"Correlated fault domains\" — switch faults re-price the "
      "comm model, rack bursts are attributed from heartbeats alone, and "
      "domain-wide recovery replans once, not once per device");

  obs::MetricsRegistry& metrics = obs::MetricsRegistry::global();
  TextTable table({"Scenario", "Cluster", "Result", "Gate"});

  // --- 1. ToR degradation lengthens cross-rack steps (pod64) ---------------
  const auto pod64 = cluster::generate_cluster(*cluster::topo_preset("pod64"));
  {
    const DistRunner runner = get_runner(bench_model, pod64, domain_config(true));
    faults::FaultPlan plan;
    plan.events = {switch_degradation(0, 0, 0.1, 4, 8)};
    const RunStats stats = runner.run(kSteps, plan);
    gate(stats.completed, "pod64 ToR-degradation run completes");
    const double healthy = stats.step_ms[0];
    const double degraded = stats.step_ms[5];
    const double after = stats.step_ms[10];
    gate(degraded > healthy * 1.001,
         "ToR at 10% measurably lengthens cross-rack steps on pod64");
    gate(after == healthy, "step time recovers when the ToR does");
    metrics.set("bench.fault_domains.pod64_healthy_step.ms", healthy);
    metrics.set("bench.fault_domains.pod64_degraded_step.ms", degraded);
    table.add_row({"ToR x0.1 window", "pod64",
                   fmt_double(healthy, 2) + " -> " + fmt_double(degraded, 2) +
                       " ms/step",
                   degraded > healthy ? "slower, recovers" : "FAIL"});
  }

  // --- 2. One-shot domain replan vs serial per-wave replans (pod64) --------
  double detect_latency_mean = 0.0;
  {
    const faults::FaultPlan burst = staggered_burst(pod64, 5);
    const DistRunner on_runner = get_runner(bench_model, pod64, domain_config(true));
    const DistRunner off_runner =
        get_runner(bench_model, pod64, domain_config(false));
    const RunStats on = on_runner.run(kSteps, burst);
    const RunStats off = off_runner.run(kSteps, burst);
    gate(on.completed && off.completed, "pod64 rack-burst runs complete");
    gate(on.health.domain_suspicions >= 1,
         "monitor attributes the staggered burst to the rack domain");
    gate(on.health.domain_failures > 0,
         "attribution fails the rest of the rack without waiting for phi");
    gate(!on.recoveries.empty() && on.recoveries.front().domain_rack == 0,
         "recovery report carries the attributed rack");
    gate(on.recoveries.size() < off.recoveries.size(),
         "domain attribution replans once where serial detection replans per wave");

    double latency_sum = 0.0;
    int counted = 0;
    for (const auto& d : on.health.detections) {
      if (d.kind == "domain") continue;  // attributed, not individually timed
      latency_sum += static_cast<double>(d.confirmed_step - d.onset_step);
      ++counted;
    }
    detect_latency_mean =
        counted == 0 ? 0.0 : latency_sum / static_cast<double>(counted);
    metrics.set("bench.fault_domains.detection_latency_mean.steps",
                detect_latency_mean);
    metrics.set("bench.fault_domains.replans_one_shot.count",
                static_cast<double>(on.recoveries.size()));
    metrics.set("bench.fault_domains.replans_serial.count",
                static_cast<double>(off.recoveries.size()));
    metrics.set("bench.fault_domains.domain_suspicions.count",
                static_cast<double>(on.health.domain_suspicions));
    double replan_wall_on = 0.0, replan_wall_off = 0.0;
    for (const auto& r : on.recoveries) replan_wall_on += r.replan_wall_ms;
    for (const auto& r : off.recoveries) replan_wall_off += r.replan_wall_ms;
    metrics.set("bench.fault_domains.replan_wall_one_shot.ms", replan_wall_on);
    metrics.set("bench.fault_domains.replan_wall_serial.ms", replan_wall_off);
    table.add_row({"staggered rack burst", "pod64",
                   std::to_string(on.recoveries.size()) + " vs " +
                       std::to_string(off.recoveries.size()) + " replans, " +
                       fmt_double(detect_latency_mean, 1) + " step latency",
                   on.recoveries.size() < off.recoveries.size() ? "one-shot"
                                                                : "FAIL"});

    // Determinism: a warm repeat of the attribution run is bit-identical.
    const RunStats warm = on_runner.run(kSteps, burst);
    bool identical = warm.total_ms == on.total_ms &&
                     warm.step_ms.size() == on.step_ms.size();
    for (size_t i = 0; identical && i < warm.step_ms.size(); ++i) {
      identical = warm.step_ms[i] == on.step_ms[i];
    }
    gate(identical, "warm repeat of the domain-recovery run is bit-identical");
  }

  // --- 3. Crash at a checkpoint mid-burst, resume to identical bytes ------
  {
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::temp_directory_path() / "heterog_bench_fault_domains";
    fs::remove_all(dir);
    fs::create_directories(dir / "full");
    fs::create_directories(dir / "crash");
    const faults::FaultPlan burst = staggered_burst(pod64, 5);
    const DistRunner runner = get_runner(bench_model, pod64, domain_config(true));

    ckpt::CheckpointOptions full_opts;
    full_opts.dir = (dir / "full").string();
    full_opts.every = 2;
    const RunStats full = runner.run(kSteps, burst, full_opts);
    gate(full.completed, "uninterrupted checkpointed run completes");

    struct Crash {};
    ckpt::CheckpointOptions crash_opts;
    crash_opts.dir = (dir / "crash").string();
    crash_opts.every = 2;
    constexpr int kCrashStep = 10;
    crash_opts.after_checkpoint = [](int completed, const std::string&) {
      if (completed == kCrashStep) throw Crash();
    };
    bool crashed = false;
    try {
      runner.run(kSteps, burst, crash_opts);
    } catch (const Crash&) {
      crashed = true;
    }
    gate(crashed, "simulated crash fires at the mid-burst checkpoint");
    const RunStats tail =
        resume_run((dir / "crash" / "journal.heterog").string(), bench_model);
    gate(tail.completed, "resumed run completes");
    const std::string full_bytes =
        read_file((dir / "full" / "journal.heterog").string()).value_or("");
    const std::string crash_bytes =
        read_file((dir / "crash" / "journal.heterog").string()).value_or("");
    gate(!full_bytes.empty() && full_bytes == crash_bytes,
         "crash + resume leaves a byte-identical journal");
    table.add_row({"crash at ckpt 10 + resume", "pod64",
                   std::to_string(full_bytes.size()) + " journal bytes",
                   full_bytes == crash_bytes ? "bit-identical" : "FAIL"});
    fs::remove_all(dir);
  }

  // --- 4. Post-fault makespan after a rack burst (pod256) ------------------
  {
    const auto pod256 =
        cluster::generate_cluster(*cluster::topo_preset("pod256"));
    const DistRunner runner = get_runner(bench_model, pod256, domain_config(true));
    faults::FaultPlan plan;
    plan.events = {rack_failure(1, 5)};
    const RunStats stats = runner.run(kSteps, plan);
    gate(stats.completed, "pod256 rack-failure run completes");
    gate(!stats.recoveries.empty(), "pod256 rack failure triggers a recovery");
    const auto& rec = stats.recoveries.front();
    gate(rec.surviving_devices ==
             pod256.device_count() -
                 static_cast<int>(devices_in_rack(pod256, 1).size()),
         "the whole rack left the cluster in one recovery");
    metrics.set("bench.fault_domains.pod256_pre_fault_iteration.ms",
                rec.pre_fault_iteration_ms);
    metrics.set("bench.fault_domains.pod256_post_fault_iteration.ms",
                rec.post_fault_iteration_ms);
    metrics.set("bench.fault_domains.pod256_replan_wall.ms", rec.replan_wall_ms);
    table.add_row({"rack burst", "pod256",
                   fmt_double(rec.pre_fault_iteration_ms, 2) + " -> " +
                       fmt_double(rec.post_fault_iteration_ms, 2) + " ms/iter",
                   stats.completed ? "completes" : "FAIL"});
  }

  // --- 5. dc1000 smoke: expansion + survivor derivation only ---------------
  {
    const auto dc =
        cluster::generate_cluster(*cluster::topo_preset("dc1000"));
    const faults::FaultEvent outage = switch_outage(1, 0, 3);
    const auto domain = faults::domain_devices(dc, outage);
    gate(!domain.empty() && static_cast<int>(domain.size()) < dc.device_count(),
         "dc1000 aggregation-switch outage strands a proper subset");
    faults::FaultPlan plan;
    plan.events = {outage};
    const auto scaling = faults::scaling_at(plan, dc, 3);
    const auto survivors = faults::degraded_cluster(dc, scaling);
    gate(survivors.device_count() ==
             dc.device_count() - static_cast<int>(domain.size()),
         "dc1000 survivor cluster drops exactly the stranded domain");
    metrics.set("bench.fault_domains.dc1000_domain.count",
                static_cast<double>(domain.size()));
    table.add_row({"L1 switch outage (expansion only)", "dc1000",
                   std::to_string(domain.size()) + " of 1000 GPUs stranded",
                   survivors.device_count() > 0 ? "ok" : "FAIL"});
  }

  std::printf("%s\n", table.render().c_str());

  BenchConfig config;
  config.emplace_back("steps", std::to_string(kSteps));
  config.emplace_back("max_groups", std::to_string(max_groups()));
  config.emplace_back("deterministic_wall_times", "true");
  config.emplace_back("clusters", "[\"pod64\",\"pod256\",\"dc1000\"]");
  write_bench_json("fault_domains", config);

  if (failures != 0) {
    std::fprintf(stderr, "bench_fault_domains: %d gate(s) failed\n", failures);
    return 1;
  }
  std::printf("bench_fault_domains: all gates passed\n");
  return 0;
}

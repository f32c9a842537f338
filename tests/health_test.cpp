// Online health monitoring (src/health/): monitor-level unit tests for the
// EWMA/z-score straggler detector, phi-accrual failure confirmation,
// quarantine/probation hysteresis, retry budget and circuit breaker, plus
// end-to-end acceptance of DistRunner's monitor detector — it never reads
// the injected FaultPlan, yet detection latency and per-step times are
// pinned against the oracle detector, and both detectors' retry events and
// all-devices-failed stop are pinned side by side.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "core/heterog.h"
#include "faults/faults.h"
#include "health/health.h"
#include "models/models.h"
#include "obs/event_log.h"
#include "sim/fault_sim.h"

namespace heterog {
namespace {

namespace fs = std::filesystem;
using health::DeviceState;
using health::HealthMonitor;
using health::HealthPolicy;
using health::Observation;

HealthPolicy monitor_policy() {
  HealthPolicy p;
  p.enabled = true;
  return p;
}

/// A completed attempt with the given per-device busy times; all devices
/// respond, the makespan is the max busy time.
Observation completed_obs(int step, const std::vector<double>& busy) {
  Observation obs;
  obs.step = step;
  obs.completed = true;
  obs.responded.assign(busy.size(), 1);
  obs.device_busy_ms = busy;
  for (const double b : busy) obs.makespan_ms = std::max(obs.makespan_ms, b);
  return obs;
}

/// A timed-out attempt where `silent` missed the heartbeat round.
Observation timeout_obs(int step, int attempt, int devices, int silent) {
  Observation obs;
  obs.step = step;
  obs.attempt = attempt;
  obs.completed = false;
  obs.responded.assign(static_cast<size_t>(devices), 1);
  obs.responded[static_cast<size_t>(silent)] = 0;
  return obs;
}

// Policy validation -----------------------------------------------------------

TEST(HealthPolicy, ValidateRejectsOutOfRangeKnobs) {
  HealthPolicy p;
  EXPECT_NO_THROW(p.validate());
  p.ewma_alpha = 0.0;
  EXPECT_THROW(p.validate(), health::HealthError);
  p = HealthPolicy{};
  p.z_threshold = -1.0;
  EXPECT_THROW(p.validate(), health::HealthError);
  p = HealthPolicy{};
  p.min_slowdown_ratio = 0.5;
  EXPECT_THROW(p.validate(), health::HealthError);
  p = HealthPolicy{};
  p.hysteresis_steps = 0;
  EXPECT_THROW(p.validate(), health::HealthError);
  p = HealthPolicy{};
  p.heartbeat_loss_probability = 1.0;
  EXPECT_THROW(p.validate(), health::HealthError);
  p = HealthPolicy{};
  p.phi_threshold = 0.0;
  EXPECT_THROW(p.validate(), health::HealthError);
  EXPECT_THROW(HealthMonitor(0, HealthPolicy{}), health::HealthError);
}

// Phi accrual -----------------------------------------------------------------

TEST(HealthMonitor, PhiAccrualConfirmsAfterThreeConsecutiveMisses) {
  // Default policy: p_miss = 0.1 => each miss adds exactly 1 phi; threshold 3
  // confirms on the third consecutive miss.
  HealthMonitor monitor(4, monitor_policy());
  monitor.observe(timeout_obs(5, 0, 4, 2));
  EXPECT_DOUBLE_EQ(monitor.phi(2), 1.0);
  EXPECT_TRUE(monitor.take_confirmed_failures().empty());
  monitor.observe(timeout_obs(5, 1, 4, 2));
  EXPECT_DOUBLE_EQ(monitor.phi(2), 2.0);
  EXPECT_TRUE(monitor.take_confirmed_failures().empty());
  monitor.observe(timeout_obs(5, 2, 4, 2));
  EXPECT_EQ(monitor.state(2), DeviceState::kFailed);
  const auto confirmed = monitor.take_confirmed_failures();
  ASSERT_EQ(confirmed.size(), 1u);
  EXPECT_EQ(confirmed[0], 2);
  EXPECT_TRUE(monitor.take_confirmed_failures().empty());  // consumed

  ASSERT_EQ(monitor.summary().detections.size(), 1u);
  const auto& det = monitor.summary().detections[0];
  EXPECT_EQ(det.device, 2);
  EXPECT_EQ(det.kind, "failure");
  EXPECT_EQ(det.onset_step, 5);
  EXPECT_EQ(det.confirmed_step, 5);
}

TEST(HealthMonitor, HeartbeatRecoveryResetsPhi) {
  HealthMonitor monitor(4, monitor_policy());
  monitor.observe(timeout_obs(3, 0, 4, 1));
  monitor.observe(timeout_obs(3, 1, 4, 1));
  EXPECT_DOUBLE_EQ(monitor.phi(1), 2.0);
  monitor.observe(completed_obs(3, {10, 10, 10, 10}));  // device responds again
  EXPECT_DOUBLE_EQ(monitor.phi(1), 0.0);
  EXPECT_EQ(monitor.state(1), DeviceState::kHealthy);
  EXPECT_TRUE(monitor.take_confirmed_failures().empty());
}

// Correlated domain attribution -----------------------------------------------

/// A timed-out attempt where every device in `silent` missed the round.
Observation multi_timeout_obs(int step, int attempt, int devices,
                              const std::vector<int>& silent) {
  Observation obs;
  obs.step = step;
  obs.attempt = attempt;
  obs.completed = false;
  obs.responded.assign(static_cast<size_t>(devices), 1);
  for (const int d : silent) obs.responded[static_cast<size_t>(d)] = 0;
  return obs;
}

TEST(HealthDomain, PolicyValidatesDomainKnobs) {
  HealthPolicy p;
  p.domain_rack_fraction = 0.0;
  EXPECT_THROW(p.validate(), health::HealthError);
  p = HealthPolicy{};
  p.domain_rack_fraction = 1.5;
  EXPECT_THROW(p.validate(), health::HealthError);
  p = HealthPolicy{};
  p.domain_window_steps = -1;
  EXPECT_THROW(p.validate(), health::HealthError);
}

TEST(HealthDomain, SetRackMapValidatesSize) {
  HealthMonitor monitor(4, monitor_policy());
  EXPECT_THROW(monitor.set_rack_map({0, 0, 1}), health::HealthError);
  EXPECT_NO_THROW(monitor.set_rack_map({0, 0, 1, 1}));
}

TEST(HealthDomain, CoincidentRackFailuresAttributedAndRestFailedInOneBatch) {
  // 8 devices over two 4-device racks. Three of rack 0's members go silent
  // at once: with the default fraction (0.6 -> ceil(0.6*4) = 3 needed), the
  // third confirmation crosses the threshold, the burst is attributed to
  // rack 0, and the still-live fourth member is failed with kind "domain" in
  // the SAME confirmed batch — the runner sees one replan, not four.
  HealthMonitor monitor(8, monitor_policy());
  monitor.set_rack_map({0, 0, 0, 0, 1, 1, 1, 1});
  for (int attempt = 0; attempt < 3; ++attempt) {
    monitor.observe(multi_timeout_obs(5, attempt, 8, {0, 1, 2}));
  }
  const auto confirmed = monitor.take_confirmed_failures();
  EXPECT_EQ(confirmed, (std::vector<cluster::DeviceId>{0, 1, 2, 3}));
  EXPECT_EQ(monitor.summary().domain_suspicions, 1);
  EXPECT_EQ(monitor.summary().domain_failures, 1);  // device 3, by attribution
  EXPECT_EQ(monitor.take_domain_verdicts(), (std::vector<int>{0}));
  EXPECT_TRUE(monitor.take_domain_verdicts().empty());  // consumed
  EXPECT_EQ(monitor.state(3), DeviceState::kFailed);
  // Rack 1 is untouched.
  for (int d = 4; d < 8; ++d) EXPECT_EQ(monitor.state(d), DeviceState::kHealthy);
}

TEST(HealthDomain, BelowFractionStaysIndividual) {
  // Two of four members is under the 0.6 threshold: both fail individually,
  // no domain verdict, and the remaining members stay live.
  HealthMonitor monitor(8, monitor_policy());
  monitor.set_rack_map({0, 0, 0, 0, 1, 1, 1, 1});
  for (int attempt = 0; attempt < 3; ++attempt) {
    monitor.observe(multi_timeout_obs(5, attempt, 8, {0, 1}));
  }
  EXPECT_EQ(monitor.take_confirmed_failures(),
            (std::vector<cluster::DeviceId>{0, 1}));
  EXPECT_EQ(monitor.summary().domain_suspicions, 0);
  EXPECT_TRUE(monitor.take_domain_verdicts().empty());
  EXPECT_EQ(monitor.state(2), DeviceState::kHealthy);
}

TEST(HealthDomain, AttributionCanBeDisabled) {
  HealthPolicy policy = monitor_policy();
  policy.domain_attribution = false;
  HealthMonitor monitor(8, policy);
  monitor.set_rack_map({0, 0, 0, 0, 1, 1, 1, 1});
  for (int attempt = 0; attempt < 3; ++attempt) {
    monitor.observe(multi_timeout_obs(5, attempt, 8, {0, 1, 2}));
  }
  EXPECT_EQ(monitor.take_confirmed_failures(),
            (std::vector<cluster::DeviceId>{0, 1, 2}));
  EXPECT_EQ(monitor.summary().domain_suspicions, 0);
  EXPECT_EQ(monitor.state(3), DeviceState::kHealthy);
}

TEST(HealthDomain, SerializeRoundTripsDomainState) {
  // With a rack map the snapshot carries the domain section and must
  // round-trip byte-exactly; without one, no domain lines appear at all so
  // flat-cluster snapshots keep their pre-domain bytes.
  HealthMonitor flat(4, monitor_policy());
  EXPECT_EQ(flat.serialize().find("domain"), std::string::npos);

  HealthMonitor monitor(8, monitor_policy());
  monitor.set_rack_map({0, 0, 0, 0, 1, 1, 1, 1});
  for (int s = 0; s < 4; ++s) {
    monitor.observe(completed_obs(s, {10, 10, 10, 10, 10, 10, 10, 10}));
  }
  for (int attempt = 0; attempt < 3; ++attempt) {
    monitor.observe(multi_timeout_obs(4, attempt, 8, {0, 1, 2}));
  }
  const std::string bytes = monitor.serialize();
  EXPECT_NE(bytes.find("domain"), std::string::npos);
  HealthMonitor restored = HealthMonitor::deserialize(bytes);
  EXPECT_EQ(restored.serialize(), bytes);
  EXPECT_EQ(restored.state(3), DeviceState::kFailed);
  EXPECT_EQ(restored.rack_map(), monitor.rack_map());
  // The un-consumed verdict survives the round trip.
  EXPECT_EQ(restored.take_domain_verdicts(), (std::vector<int>{0}));
}

// Straggler detection ---------------------------------------------------------

TEST(HealthMonitor, StragglerQuarantinedAfterHysteresisAndReinstatedOnProbation) {
  // Defaults: warmup 3, hysteresis 3, probation 4. Constant healthy samples
  // give a near-zero variance baseline, so a 3x sample is anomalous the
  // moment warmup ends.
  HealthMonitor monitor(2, monitor_policy());
  for (int s = 0; s < 4; ++s) monitor.observe(completed_obs(s, {10, 10}));
  EXPECT_EQ(monitor.state(0), DeviceState::kHealthy);

  monitor.observe(completed_obs(4, {30, 10}));
  EXPECT_EQ(monitor.state(0), DeviceState::kSuspect);
  monitor.observe(completed_obs(5, {30, 10}));
  EXPECT_EQ(monitor.state(0), DeviceState::kSuspect);
  monitor.observe(completed_obs(6, {30, 10}));
  EXPECT_EQ(monitor.state(0), DeviceState::kQuarantined);
  EXPECT_EQ(monitor.summary().quarantines, 1);
  // The frozen healthy baseline puts the latest sample at 3x.
  EXPECT_NEAR(monitor.estimated_slowdown(0), 3.0, 1e-9);
  ASSERT_FALSE(monitor.summary().detections.empty());
  const auto& det = monitor.summary().detections.back();
  EXPECT_EQ(det.kind, "straggler");
  EXPECT_EQ(det.onset_step, 4);
  EXPECT_EQ(det.confirmed_step, 6);

  // Probation: 4 consecutive healthy samples against the frozen baseline.
  for (int s = 7; s < 10; ++s) {
    monitor.observe(completed_obs(s, {10, 10}));
    EXPECT_EQ(monitor.state(0), DeviceState::kQuarantined) << s;
  }
  monitor.observe(completed_obs(10, {10, 10}));
  EXPECT_EQ(monitor.state(0), DeviceState::kHealthy);
  EXPECT_EQ(monitor.summary().reinstatements, 1);
  EXPECT_DOUBLE_EQ(monitor.estimated_slowdown(0), 1.0);
}

TEST(HealthMonitor, FlappingBelowHysteresisNeverQuarantines) {
  HealthMonitor monitor(2, monitor_policy());
  for (int s = 0; s < 4; ++s) monitor.observe(completed_obs(s, {10, 10}));
  for (int s = 4; s < 12; ++s) {
    // Alternating slow/normal: the streak never reaches hysteresis_steps.
    const double busy = (s % 2 == 0) ? 30.0 : 10.0;
    monitor.observe(completed_obs(s, {busy, 10}));
  }
  EXPECT_NE(monitor.state(0), DeviceState::kQuarantined);
  EXPECT_EQ(monitor.summary().quarantines, 0);
  EXPECT_GT(monitor.summary().suspicion_events, 0);
}

// Retry budget and circuit breaker -------------------------------------------

TEST(HealthMonitor, RetryBudgetExhaustionForcesImmediateEscalation) {
  HealthPolicy policy = monitor_policy();
  policy.retry_budget = 2;
  HealthMonitor monitor(4, policy);
  EXPECT_TRUE(monitor.charge_retry());
  EXPECT_TRUE(monitor.charge_retry());
  EXPECT_FALSE(monitor.charge_retry());  // budget spent
  EXPECT_TRUE(monitor.retry_budget_exhausted());
  EXPECT_TRUE(monitor.summary().retry_budget_exhausted);

  // With the budget gone, a single missed heartbeat confirms immediately —
  // detection must terminate even below the phi threshold.
  monitor.observe(timeout_obs(7, 0, 4, 3));
  const auto confirmed = monitor.take_confirmed_failures();
  ASSERT_EQ(confirmed.size(), 1u);
  EXPECT_EQ(confirmed[0], 3);
}

TEST(HealthMonitor, BreakerOpensAfterMaxReplans) {
  HealthPolicy policy = monitor_policy();
  policy.max_replans = 2;
  HealthMonitor monitor(4, policy);
  monitor.record_replan(3);
  EXPECT_FALSE(monitor.breaker_open());
  monitor.record_replan(6);
  EXPECT_TRUE(monitor.breaker_open());
  EXPECT_TRUE(monitor.summary().breaker_opened);
}

// Serialization ---------------------------------------------------------------

TEST(HealthMonitor, SerializeRoundTripsByteExact) {
  HealthPolicy policy = monitor_policy();
  policy.replan_on_straggler = true;
  policy.replan_deadline_ms = 123.456;
  HealthMonitor monitor(3, policy);
  for (int s = 0; s < 4; ++s) monitor.observe(completed_obs(s, {10, 11.5, 9.25}));
  monitor.observe(timeout_obs(4, 0, 3, 2));
  monitor.observe(completed_obs(4, {31, 11.5, 9.25}));
  monitor.charge_retry();
  monitor.record_replan(4);

  const std::string text = monitor.serialize();
  const HealthMonitor rebuilt = HealthMonitor::deserialize(text);
  EXPECT_EQ(rebuilt.serialize(), text);
  EXPECT_EQ(rebuilt.device_count(), 3);
  EXPECT_EQ(rebuilt.state(0), monitor.state(0));
  EXPECT_TRUE(rebuilt.policy().replan_on_straggler);
  EXPECT_DOUBLE_EQ(rebuilt.policy().replan_deadline_ms, 123.456);
}

TEST(HealthMonitor, DeserializeRejectsMalformedState) {
  EXPECT_THROW(HealthMonitor::deserialize(""), health::HealthError);
  EXPECT_THROW(HealthMonitor::deserialize("not-a-header\n"), health::HealthError);
  const std::string good = HealthMonitor(2, monitor_policy()).serialize();
  // Truncate mid-way: every strict prefix must be rejected, never crash.
  // (good.size() - 1 would only drop the trailing newline, and a final line
  // without one still counts — everything shorter must throw.)
  for (size_t cut = 1; cut + 1 < good.size(); cut += 7) {
    EXPECT_THROW(HealthMonitor::deserialize(good.substr(0, cut)),
                 health::HealthError)
        << "prefix of " << cut << " bytes accepted";
  }
  // Corrupt the device state enum out of range.
  std::string bad = good;
  const size_t pos = bad.find("device 0");
  ASSERT_NE(pos, std::string::npos);
  bad.replace(pos, 8, "device 9");
  EXPECT_THROW(HealthMonitor::deserialize(bad), health::HealthError);

  // Malformed: a leading '+', a flag other than 0 or 1, a trailing token,
  // a blank line, and anything after the domain section.
  HealthMonitor racked(2, monitor_policy());
  racked.set_rack_map({0, 1});
  const std::string domain = racked.serialize();
  const auto replaced = [](std::string text, const std::string& from,
                           const std::string& to) {
    const size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return at == std::string::npos ? text : text.replace(at, from.size(), to);
  };
  for (const std::string& accepted_before : {
           replaced(good, "devices 2\n", "devices +2\n"),
           replaced(good, "policy 1 ", "policy 2 "),
           replaced(good, "\nrun 0 0 0 ", "\nrun 0 0 3 "),
           replaced(good, "pending 0\n", "pending 0 junk\n"),
           good + "\njunk\n",
           replaced(domain, "domain 1 ", "domain 7 "),
           domain + "junk\n",
       }) {
    EXPECT_THROW(HealthMonitor::deserialize(accepted_before), health::HealthError)
        << accepted_before;
  }
}

TEST(HealthMonitor, OnReplanRemapsSurvivorsAndResetsBaselines) {
  HealthMonitor monitor(3, monitor_policy());
  for (int s = 0; s < 4; ++s) monitor.observe(completed_obs(s, {10, 10, 10}));
  for (int s = 4; s < 7; ++s) monitor.observe(completed_obs(s, {10, 10, 30}));
  EXPECT_EQ(monitor.state(2), DeviceState::kQuarantined);

  // Device 1 failed and was removed: old 2 becomes new 1.
  monitor.on_replan({0, -1, 1});
  EXPECT_EQ(monitor.device_count(), 2);
  EXPECT_EQ(monitor.state(0), DeviceState::kHealthy);
  EXPECT_EQ(monitor.state(1), DeviceState::kQuarantined);  // state survives
  // Baselines re-learn under the new plan: no samples yet, so the slowdown
  // estimate falls back to 1.
  EXPECT_DOUBLE_EQ(monitor.estimated_slowdown(1), 1.0);
}

// End-to-end: oracle-free detection through DistRunner -----------------------

HeteroGConfig fast_config() {
  HeteroGConfig config;
  config.search_with_rl = false;
  config.train.episodes = 0;
  config.agent.max_groups = 16;
  return config;
}

HeteroGConfig online_config() {
  HeteroGConfig config = fast_config();
  config.health.enabled = true;
  return config;
}

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

DistRunner fig3_runner(const HeteroGConfig& config) {
  return get_runner(
      [] { return models::build_forward(models::ModelKind::kMobileNetV2, 0, 96); },
      cluster::make_fig3_testbed(), config);
}

TEST(OnlineHealth, DetectsFailureWithinBoundAndMatchesOracleStepTimes) {
  // THE acceptance test of the PR: the online path is handed no FaultPlan —
  // only per-attempt measurements — yet it must confirm the permanent
  // failure at the same step as the oracle path, within the pinned
  // phi-threshold attempt bound, and execute the surviving steps at the same
  // per-step times.
  faults::FaultPlan plan;
  plan.events = {device_failure(1, 4)};

  const RunStats oracle = fig3_runner(fast_config()).run(12, plan);
  const RunStats online = fig3_runner(online_config()).run(12, plan);

  EXPECT_TRUE(online.completed);
  ASSERT_EQ(online.recoveries.size(), 1u);
  ASSERT_EQ(oracle.recoveries.size(), 1u);
  const RecoveryReport& rec = online.recoveries[0];
  EXPECT_EQ(rec.fault_step, oracle.recoveries[0].fault_step);  // parity: step 4
  ASSERT_EQ(rec.failed_devices.size(), 1u);
  EXPECT_EQ(rec.failed_devices[0], 1);
  // Detection bound: default phi_threshold 3 with p_miss 0.1 confirms on the
  // third consecutive missed heartbeat — never more.
  EXPECT_GT(rec.detection_attempts, 0);
  EXPECT_LE(rec.detection_attempts, 3);
  EXPECT_FALSE(rec.degraded);  // heuristic re-plan requested; nothing degraded

  // Per-step parity with the oracle path (detection overhead is kept out of
  // step_ms by design).
  ASSERT_EQ(online.step_ms.size(), oracle.step_ms.size());
  for (size_t s = 0; s < oracle.step_ms.size(); ++s) {
    EXPECT_NEAR(online.step_ms[s], oracle.step_ms[s], 1e-9 + 1e-9 * oracle.step_ms[s])
        << "step " << s;
  }
  // Total = steps + detection overhead (one heartbeat timeout per attempt).
  EXPECT_DOUBLE_EQ(online.detection_overhead_ms, rec.detection_attempts * 100.0);
  EXPECT_NEAR(online.total_ms, oracle.total_ms + online.detection_overhead_ms,
              1e-6 + 1e-9 * oracle.total_ms);

  // The monitor saw it as a failure detection.
  EXPECT_EQ(online.health.failures_confirmed, 1);
  ASSERT_FALSE(online.health.detections.empty());
  EXPECT_EQ(online.health.detections[0].kind, "failure");
  EXPECT_EQ(online.health.detections[0].confirmed_step, 4);
}

TEST(OnlineHealth, TransientRetryArithmeticMatchesOraclePins) {
  // Mirror of RunnerFaults.TransientFaultRetriesWithoutReplanning: the same
  // pinned values must emerge from per-attempt error observations.
  faults::FaultPlan plan;
  plan.events = {transient(2, 3, 2)};  // 2 failed attempts < default cap 5
  const RunStats stats = fig3_runner(online_config()).run(10, plan);

  EXPECT_TRUE(stats.completed);
  EXPECT_TRUE(stats.recoveries.empty());
  EXPECT_EQ(stats.step_ms.size(), 10u);
  EXPECT_EQ(stats.transient_retries, 2);
  EXPECT_DOUBLE_EQ(stats.retry_backoff_total_ms, 150.0);  // 50 + 100
  EXPECT_DOUBLE_EQ(stats.detection_overhead_ms, 0.0);     // errors, not timeouts
  EXPECT_EQ(stats.health.retries_charged, 2);
}

TEST(OnlineHealth, PersistentErrorsEscalateAtTheRetryCap) {
  HeteroGConfig config = online_config();
  config.fault_handling.max_retries = 3;
  faults::FaultPlan plan;
  plan.events = {transient(2, 4, 100)};  // never recovers within the cap
  const RunStats stats = fig3_runner(config).run(12, plan);

  EXPECT_TRUE(stats.completed);
  EXPECT_EQ(stats.transient_retries, 3);
  ASSERT_EQ(stats.recoveries.size(), 1u);
  EXPECT_TRUE(stats.recoveries[0].escalated_transient);
  EXPECT_EQ(stats.recoveries[0].surviving_devices, 3);
  EXPECT_EQ(stats.step_ms.size(), 12u);
  ASSERT_FALSE(stats.health.detections.empty());
  EXPECT_EQ(stats.health.detections.back().kind, "error");
}

TEST(OnlineHealth, StragglerQuarantinedFromTimingsAloneAndReinstated) {
  // Straggler onset after warmup: constant healthy busy times give a
  // near-zero-variance baseline, so detection confirms exactly
  // hysteresis_steps - 1 steps after onset. Recovery then passes probation
  // and reinstates the device.
  faults::FaultPlan plan;
  plan.events = {straggler(0, 4.0, 6, 10)};
  const RunStats stats = fig3_runner(online_config()).run(16, plan);

  EXPECT_TRUE(stats.completed);
  EXPECT_TRUE(stats.recoveries.empty());  // replan_on_straggler off by default
  EXPECT_EQ(stats.health.quarantines, 1);
  EXPECT_EQ(stats.health.reinstatements, 1);
  bool found = false;
  for (const auto& det : stats.health.detections) {
    if (det.kind != "straggler") continue;
    found = true;
    EXPECT_EQ(det.device, 0);
    EXPECT_EQ(det.onset_step, 6);
    EXPECT_EQ(det.confirmed_step, 8);  // pinned detection latency: 2 steps
  }
  EXPECT_TRUE(found);
}

TEST(OnlineHealth, EmptyPlanRunsCleanlyUnderMonitoring) {
  const auto runner = fig3_runner(online_config());
  const RunStats stats = runner.run(6, faults::FaultPlan{}, ckpt::CheckpointOptions{});
  EXPECT_TRUE(stats.completed);
  EXPECT_EQ(stats.step_ms.size(), 6u);
  EXPECT_EQ(stats.health.failures_confirmed, 0);
  EXPECT_EQ(stats.health.quarantines, 0);
  EXPECT_EQ(stats.health.suspicion_events, 0);
  EXPECT_DOUBLE_EQ(stats.detection_overhead_ms, 0.0);
  for (const double ms : stats.step_ms) {
    EXPECT_NEAR(ms, runner.per_iteration_ms(), 1e-9 + 1e-9 * ms);
  }
}

// The execution order the deploy stage's tryout chose is the order every
// step runs in, under either detector. One deployment per order the tryout
// can choose, at the default group count.
struct DeployedOrderCase {
  const char* label;
  models::ModelKind model;
  double batch;
  cluster::ClusterSpec (*cluster)();
  sched::OrderPolicy order;
  cluster::DeviceId fails;  // a device the plan uses
};

void PrintTo(const DeployedOrderCase& c, std::ostream* os) { *os << c.label; }

class DeployedOrder : public ::testing::TestWithParam<DeployedOrderCase> {};

TEST_P(DeployedOrder, EveryStepRunsInTheTryoutsOrder) {
  const DeployedOrderCase& c = GetParam();
  const auto runner = [&](bool online) {
    HeteroGConfig config;
    config.search_with_rl = false;
    config.train.episodes = 0;
    config.health.enabled = online;
    return get_runner([&] { return models::build_forward(c.model, 0, c.batch); },
                      c.cluster(), config);
  };
  const DistRunner oracle_runner = runner(false);
  const sim::PlanEvaluation& deployment = oracle_runner.deployment();
  ASSERT_EQ(deployment.order, c.order);

  // Simulated in that order, the deployed graph reproduces the tryout's
  // cold makespan bit for bit: what traces and the run loop simulate.
  sim::SimOptions options;
  options.policy = deployment.order;
  options.track_memory = false;
  const sim::Simulator simulator(options);
  const double cold = deployment.cold_iteration_ms;
  EXPECT_EQ(simulator.run(oracle_runner.dist_graph()).makespan_ms, cold);

  // A straggler for steps 3-4, then a device failure and a re-plan at step
  // 5. Fault-free steps cost the deployed per-iteration time exactly, before
  // and after the re-plan; straggler steps scale it by the makespan, in the
  // same order, of the fault-scaled graph.
  faults::FaultPlan plan;
  plan.events = {straggler(0, 2.0, 3, 5), device_failure(c.fails, 5)};
  const faults::FaultScaling scaling =
      faults::scaling_at(plan, oracle_runner.cluster(), 3);
  const double slow =
      simulator
          .run(sim::apply_fault_scaling(oracle_runner.dist_graph(),
                                        oracle_runner.cluster(), scaling))
          .makespan_ms;
  const double iter = deployment.per_iteration_ms;
  const RunStats oracle = oracle_runner.run(7, plan);
  const RunStats monitor = runner(true).run(7, plan);
  for (const RunStats* stats : {&oracle, &monitor}) {
    SCOPED_TRACE(stats == &oracle ? "oracle" : "monitor");
    ASSERT_EQ(stats->step_ms.size(), 7u);
    ASSERT_EQ(stats->recoveries.size(), 1u);
    EXPECT_EQ(stats->recoveries[0].fault_step, 5);
    const double replanned = stats->recoveries[0].post_fault_iteration_ms;
    for (size_t s = 0; s < 3; ++s) EXPECT_EQ(stats->step_ms[s], iter) << "step " << s;
    for (size_t s = 3; s < 5; ++s) {
      EXPECT_EQ(stats->step_ms[s], iter * slow / cold) << "step " << s;
    }
    for (size_t s = 5; s < 7; ++s) EXPECT_EQ(stats->step_ms[s], replanned) << "step " << s;
  }
}

INSTANTIATE_TEST_SUITE_P(
    OnlineHealth, DeployedOrder,
    ::testing::Values(
        DeployedOrderCase{"ChainedRanks", models::ModelKind::kMobileNetV2, 96,
                          cluster::make_fig3_testbed, sched::OrderPolicy::kRankPriority,
                          1},
        DeployedOrderCase{"PlainRanks", models::ModelKind::kMobileNetV2, 64,
                          cluster::make_paper_testbed_8gpu,
                          sched::OrderPolicy::kPlainRanks, 5},
        DeployedOrderCase{"Fifo", models::ModelKind::kInceptionV3, 32,
                          cluster::make_paper_testbed_8gpu, sched::OrderPolicy::kFifo,
                          5}),
    [](const ::testing::TestParamInfo<DeployedOrderCase>& info) {
      return std::string(info.param.label);
    });

TEST(OnlineHealth, ReplanDeadlineDegradesToHeuristicReplan) {
  HeteroGConfig config = online_config();
  config.fault_handling.replan_rl_episodes = 3;   // a full re-plan is wanted...
  config.health.replan_deadline_ms = 0.001;       // ...but can never fit
  faults::FaultPlan plan;
  plan.events = {device_failure(2, 3)};
  const RunStats stats = fig3_runner(config).run(8, plan);

  EXPECT_TRUE(stats.completed);
  ASSERT_EQ(stats.recoveries.size(), 1u);
  EXPECT_TRUE(stats.recoveries[0].degraded);
  EXPECT_EQ(stats.step_ms.size(), 8u);
}

TEST(OnlineHealth, BreakerDegradesTheSecondReplan) {
  HeteroGConfig config = online_config();
  config.fault_handling.replan_rl_episodes = 2;
  config.health.max_replans = 1;  // breaker opens after the first re-plan
  faults::FaultPlan plan;
  plan.events = {device_failure(1, 3), device_failure(2, 6)};
  const RunStats stats = fig3_runner(config).run(10, plan);

  EXPECT_TRUE(stats.completed);
  ASSERT_EQ(stats.recoveries.size(), 2u);
  EXPECT_FALSE(stats.recoveries[0].degraded);  // breaker still closed
  EXPECT_TRUE(stats.recoveries[1].degraded);   // breaker open: heuristic only
  EXPECT_TRUE(stats.health.breaker_opened);
}

TEST(OnlineHealth, StragglerReplanReactsToQuarantineWhenEnabled) {
  // With replan_on_straggler, a quarantine triggers an optimisation re-plan
  // against the believed (derated) cluster; the degraded_replan event records
  // the reaction.
  const fs::path log_path =
      fs::temp_directory_path() /
      ("heterog_health_straggler_" + std::to_string(::getpid()) + ".jsonl");
  fs::remove(log_path);

  HeteroGConfig config = online_config();
  config.health.replan_on_straggler = true;
  faults::FaultPlan plan;
  plan.events = {straggler(0, 4.0, 6)};  // permanent
  {
    obs::EventLog log(log_path.string());
    ASSERT_TRUE(log.ok());
    config.events = &log;
    const RunStats stats = fig3_runner(config).run(14, plan);
    EXPECT_TRUE(stats.completed);
    EXPECT_EQ(stats.step_ms.size(), 14u);
    EXPECT_GE(stats.health.quarantines, 1);
  }

  // Each re-plan chooses on the derated cluster and deploys once, on the
  // real one: exactly one `schedule` event between the step that triggered
  // it and its degraded_replan event, and none anywhere else but the
  // initial deployment's.
  int straggler_replans = 0, schedules = 0, schedules_since_step = 0;
  for (const auto& event : obs::read_events(log_path.string())) {
    if (event.type == "schedule") {
      ++schedules;
      ++schedules_since_step;
      EXPECT_EQ(event.number("devices"), 4.0);
    } else if (event.type == "run_step") {
      schedules_since_step = 0;
    }
    if (event.type != "degraded_replan") continue;
    EXPECT_TRUE(event.has("reason"));
    if (event.str("reason") == "straggler_replan") {
      ++straggler_replans;
      EXPECT_EQ(schedules_since_step, 1) << "re-plan " << straggler_replans;
    }
  }
  EXPECT_GE(straggler_replans, 1);
  EXPECT_EQ(schedules, 1 + straggler_replans);
  fs::remove(log_path);
}

TEST(OnlineHealth, AllDevicesFailedStopsWithoutHanging) {
  faults::FaultPlan plan;
  plan.events = {device_failure(0, 2), device_failure(1, 2), device_failure(2, 2),
                 device_failure(3, 2)};
  for (const HeteroGConfig& config : {fast_config(), online_config()}) {
    SCOPED_TRACE(config.health.enabled ? "monitor detector" : "oracle detector");
    const RunStats stats = fig3_runner(config).run(8, plan);
    EXPECT_FALSE(stats.completed);
    EXPECT_FALSE(stats.interrupted);
    EXPECT_EQ(stats.step_ms.size(), 2u);  // steps 0 and 1 completed
    EXPECT_TRUE(stats.recoveries.empty());
  }
}

TEST(OnlineHealth, RetryEventsFollowEachDetectorsGranularity) {
  // Same transient, same totals, different run_retry granularity: the
  // oracle knows the attempt count up front and writes one event with the
  // total attempts and backoff; the monitor learns of each failed attempt
  // as it happens and writes one event per attempt with the device's
  // running count and that attempt's backoff.
  faults::FaultPlan plan;
  plan.events = {transient(2, 3, 2)};
  const fs::path log_path =
      fs::temp_directory_path() /
      ("heterog_health_retries_" + std::to_string(::getpid()) + ".jsonl");
  using Retries = std::vector<std::pair<double, double>>;  // (attempts, backoff_ms)
  for (const bool monitor : {false, true}) {
    SCOPED_TRACE(monitor ? "monitor detector" : "oracle detector");
    HeteroGConfig config = monitor ? online_config() : fast_config();
    {
      obs::EventLog log(log_path.string());
      ASSERT_TRUE(log.ok());
      config.events = &log;
      const RunStats stats = fig3_runner(config).run(10, plan);
      EXPECT_EQ(stats.transient_retries, 2);
      EXPECT_DOUBLE_EQ(stats.retry_backoff_total_ms, 150.0);
    }
    Retries retries;
    for (const auto& event : obs::read_events(log_path.string())) {
      if (event.type != "run_retry") continue;
      EXPECT_EQ(event.number("step"), 3.0);
      EXPECT_EQ(event.number("device"), 2.0);
      retries.emplace_back(event.number("attempts"), event.number("backoff_ms"));
    }
    const Retries expected =
        monitor ? Retries{{1, 50.0}, {2, 100.0}} : Retries{{2, 150.0}};
    EXPECT_EQ(retries, expected);
  }
  fs::remove(log_path);
}

}  // namespace
}  // namespace heterog

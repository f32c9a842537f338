// Online health monitoring: oracle-free failure / straggler detection
// (DESIGN.md "Online health & degraded modes").
//
// The HealthMonitor is the *reaction* half of the fault pipeline. It never
// sees the injected faults::FaultPlan — that stays simulator-side, inside
// sim::FaultInjector. All the monitor consumes is what a real runtime could
// measure about a training step:
//
//   * per-device heartbeats (did device d respond this attempt?);
//   * per-device busy times of completed steps;
//   * the step makespan;
//   * error attributions (an attempt aborted with an exception from rank d).
//
// From those it maintains, per device:
//
//   * an EWMA mean/variance of busy time and a z-score per new sample;
//   * a phi-accrual-style suspicion score over consecutive missed
//     heartbeats (phi = misses * -log10(p_miss); crossing phi_threshold
//     confirms a permanent failure);
//   * hysteresis counters: `hysteresis_steps` consecutive anomalous samples
//     before a straggler verdict, `probation_steps` consecutive healthy
//     samples before a quarantined straggler is reinstated (flap damping).
//
// Run-level guards keep recovery itself from becoming the failure mode: a
// per-run retry budget (exhaustion forces immediate escalation so detection
// always terminates) and a circuit breaker that opens after `max_replans`
// re-plans and suppresses further optimisation re-plans (mandatory
// failure re-plans still run, degraded to the heuristic path).
//
// Determinism: the monitor is a pure function of its observation sequence —
// no clocks, no RNG — and serialize()/deserialize() round-trip its state
// byte-exactly, so a resumed run replays to bit-identical decisions
// (tests/chaos_test.cpp pins this per chaos seed).
//
// Layering: health sits below sim and core and must not depend on faults/ —
// oracle-freedom is enforced by the link graph, not just by convention.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/event_log.h"

namespace heterog::health {

/// Thrown for malformed serialized monitor state and invalid policies.
class HealthError : public std::runtime_error {
 public:
  explicit HealthError(const std::string& what) : std::runtime_error(what) {}
};

/// Detection / recovery knobs. Defaults are tuned so a permanent failure is
/// confirmed within 3 heartbeat rounds and a x2 straggler within ~5 steps of
/// onset on the paper testbeds.
struct HealthPolicy {
  /// Master switch: off = DistRunner's oracle detector reads the fault plan;
  /// on = its monitor detector infers from measurements via this monitor.
  bool enabled = false;

  /// EWMA smoothing factor for per-device busy-time baselines (weight of the
  /// newest sample).
  double ewma_alpha = 0.2;
  /// z-score a busy-time sample must exceed to count as anomalous.
  double z_threshold = 3.0;
  /// A sample must also be at least this multiple of its baseline mean to
  /// count as anomalous (guards against tiny-variance false positives).
  double min_slowdown_ratio = 1.3;
  /// Consecutive anomalous samples before a straggler verdict.
  int hysteresis_steps = 3;
  /// Consecutive healthy samples before a quarantined straggler is
  /// reinstated (probation; damps flapping devices).
  int probation_steps = 4;
  /// Healthy samples per device before z-scores are trusted.
  int warmup_steps = 3;

  /// Assumed per-round heartbeat-loss probability of a *healthy* device;
  /// phi(d) = misses(d) * -log10(p). Smaller p => each miss is stronger
  /// evidence.
  double heartbeat_loss_probability = 0.1;
  /// phi at which consecutive missed heartbeats confirm a permanent
  /// failure. With p = 0.1 each miss adds exactly 1 phi, so the default
  /// confirms after 3 straight misses.
  double phi_threshold = 3.0;
  /// Wall-clock charge per timed-out attempt (the heartbeat interval the
  /// runner waits before declaring the attempt dead).
  double heartbeat_timeout_ms = 100.0;

  /// Per-run budget of failed attempts (timeouts + errors). Exhaustion
  /// forces immediate escalation instead of further retries, so detection
  /// terminates even under adversarial schedules. <= 0 disables the budget.
  int retry_budget = 64;
  /// Circuit breaker: re-plans allowed per run before it opens. <= 0
  /// disables the breaker.
  int max_replans = 4;
  /// When a quarantined straggler persists, re-plan against a derated
  /// cluster instead of just derating in place. Off by default: the re-plan
  /// pays replan_wall cost for a device that may recover.
  bool replan_on_straggler = false;
  /// Deadline for a full (RL) re-plan, in simulated milliseconds: when the
  /// estimated search cost (`replan_rl_episodes * current iteration time`)
  /// exceeds it, the runner degrades to the heuristic re-plan path and emits
  /// `degraded_replan`. Deliberately a *model* of the cost, not a wall-clock
  /// measurement, so the decision is deterministic. <= 0 disables.
  double replan_deadline_ms = 0.0;

  /// Correlated-domain attribution (only active once set_rack_map() gave the
  /// monitor a rack id per device — i.e. on topology-generated clusters).
  /// When at least `domain_rack_fraction` of a rack's member devices confirm
  /// failure within `domain_window_steps` of each other, the burst is
  /// attributed to the rack as a whole: a `domain_suspicion` event is
  /// emitted and the rack's remaining devices are failed in the same batch,
  /// so the runner replans around the domain once instead of N times.
  bool domain_attribution = true;
  double domain_rack_fraction = 0.6;
  int domain_window_steps = 2;

  /// Throws HealthError when a knob is out of range.
  void validate() const;
};

/// Everything the runner observed about one attempt of one step. Produced by
/// sim::FaultInjector (simulation) — in a real deployment this would come
/// from the execution engine's telemetry.
struct Observation {
  int step = 0;
  int attempt = 0;  // 0 = first try; > 0 = retry of the same step
  /// The attempt ran to completion (no timeout, no error).
  bool completed = false;
  /// Device whose worker raised an error this attempt; -1 when none (a
  /// timeout has no attribution — that is what heartbeats are for).
  int error_device = -1;
  /// Per-device heartbeat: responded[d] == false means device d missed this
  /// attempt's heartbeat round.
  std::vector<uint8_t> responded;
  /// Measured makespan of the attempt (only meaningful when completed).
  double makespan_ms = 0.0;
  /// Per-device busy time of the attempt (only meaningful when completed).
  std::vector<double> device_busy_ms;
};

enum class DeviceState : uint8_t {
  kHealthy = 0,
  kSuspect = 1,      // anomalous samples accruing, below hysteresis
  kQuarantined = 2,  // straggler verdict reached; on probation
  kFailed = 3,       // permanent failure confirmed (terminal)
};

/// One confirmed detection, for reports and the recovery bench (detection
/// latency = confirmed_step - onset_step).
struct DetectionRecord {
  int device = -1;
  /// "failure" (missed heartbeats), "straggler" (timing), or "error"
  /// (escalated transient errors).
  std::string kind;
  int onset_step = -1;      // first anomalous observation
  int confirmed_step = -1;  // step the verdict was reached at
};

/// Aggregate monitor outcome carried in heterog::RunStats.
struct HealthSummary {
  int suspicion_events = 0;
  int quarantines = 0;
  int reinstatements = 0;
  int failures_confirmed = 0;
  int retries_charged = 0;  // failed attempts charged to the budget
  bool retry_budget_exhausted = false;
  bool breaker_opened = false;
  int domain_suspicions = 0;  // rack bursts attributed to a domain event
  int domain_failures = 0;    // devices failed by domain attribution alone
  std::vector<DetectionRecord> detections;
};

class HealthMonitor {
 public:
  /// `events` (non-owning, may be null) receives suspicion / quarantine /
  /// breaker_open telemetry; emission is additionally gated per observe()
  /// call so journal replays stay silent.
  HealthMonitor(int device_count, HealthPolicy policy,
                obs::EventLog* events = nullptr);

  /// Feeds one attempt's measurements. `emit` gates telemetry (pass false
  /// while replaying pre-watermark steps on resume). State transitions are
  /// identical either way.
  void observe(const Observation& obs, bool emit = true);

  /// Devices whose permanent failure was confirmed since the last call
  /// (sorted; consumed). The runner reacts by re-planning on the survivors.
  std::vector<int> take_confirmed_failures();

  /// Rack id per device (same indexing as devices). Enables domain
  /// attribution; pass what the cluster's TopologySpec says. Throws
  /// HealthError when the size disagrees with device_count(). Entries < 0
  /// opt a device out of any domain.
  void set_rack_map(std::vector<int> rack_of_device);
  const std::vector<int>& rack_map() const { return rack_of_device_; }

  /// Racks attributed to a correlated domain event since the last call
  /// (sorted, unique; consumed). Each came with a `domain_suspicion` event
  /// and the rack's devices queued in take_confirmed_failures().
  std::vector<int> take_domain_verdicts();

  /// Escalates `device` to a confirmed failure immediately (transient error
  /// retries exhausted). Idempotent for already-failed devices.
  void force_failure(int device, int step, const std::string& kind);

  /// Current per-device state / suspicion.
  DeviceState state(int device) const;
  double phi(int device) const;
  /// Measured slowdown estimate of a quarantined straggler (latest busy
  /// sample over its frozen healthy baseline); 1.0 for healthy devices.
  double estimated_slowdown(int device) const;
  int device_count() const { return static_cast<int>(devices_.size()); }

  /// Retry budget: charge one failed attempt; returns false when the budget
  /// was already exhausted (caller must escalate instead of retrying).
  bool charge_retry();
  bool retry_budget_exhausted() const;

  /// Circuit breaker. record_replan() counts one re-plan and opens the
  /// breaker (emitting `breaker_open` once) when the budget is spent.
  void record_replan(int step, bool emit = true);
  bool breaker_open() const;

  /// Remaps per-device state after a re-plan re-densified ids (new_id_of[d]
  /// = new id or -1 for removed devices). Failed devices drop out.
  void on_replan(const std::vector<int>& new_id_of);

  const HealthPolicy& policy() const { return policy_; }
  const HealthSummary& summary() const { return summary_; }

  /// Byte-exact state snapshot (doubles via common/record_io's
  /// format_double). The journal embeds this so resume can prove replay
  /// determinism.
  std::string serialize() const;
  /// Rebuilds a monitor from serialize() output. Throws HealthError on
  /// malformed input.
  static HealthMonitor deserialize(const std::string& text,
                                   obs::EventLog* events = nullptr);

 private:
  struct DeviceStats {
    DeviceState state = DeviceState::kHealthy;
    // EWMA baseline of busy-time (frozen while quarantined so recovery is
    // measured against the healthy norm).
    double mean = 0.0;
    double var = 0.0;
    int samples = 0;
    double last_busy_ms = 0.0;
    int consecutive_slow = 0;
    int consecutive_normal = 0;
    int consecutive_misses = 0;
    int anomaly_onset_step = -1;  // first step of the current streak
    int confirmed_step = -1;      // step a failure verdict landed; -1 = alive
  };

  void emit_suspicion(int step, int device, const char* kind, double score,
                      int streak, bool emit);
  void confirm_failure(int device, int step, const std::string& kind, bool emit);
  /// After a failure in `rack`: when enough of the rack failed inside the
  /// attribution window, fail the rest and record a domain verdict.
  void maybe_attribute_domain(int step, int rack, bool emit);
  void quarantine_device(int device, int step, bool emit);
  void reinstate_device(int device, int step, bool emit);
  void observe_step_time(const Observation& obs, bool any_device_anomalous,
                         bool emit);

  HealthPolicy policy_;
  obs::EventLog* events_ = nullptr;
  std::vector<DeviceStats> devices_;
  // Step-makespan EWMA for comm-path suspicion (slow step, healthy devices).
  double step_mean_ = 0.0;
  double step_var_ = 0.0;
  int step_samples_ = 0;
  int retries_charged_ = 0;
  int replans_ = 0;
  bool breaker_open_ = false;
  std::vector<int> pending_failures_;
  std::vector<int> rack_of_device_;   // empty = no domain attribution
  std::vector<int> domain_verdicts_;  // racks attributed since last take
  HealthSummary summary_;
};

}  // namespace heterog::health

#include "health/health.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/record_io.h"

namespace heterog::health {

namespace {

[[noreturn]] void bad_state(const std::string& why) {
  throw HealthError("health state: " + why);
}

}  // namespace

void HealthPolicy::validate() const {
  auto fail = [](const std::string& why) { throw HealthError("health policy: " + why); };
  if (!(ewma_alpha > 0.0 && ewma_alpha <= 1.0)) fail("ewma_alpha must be in (0, 1]");
  if (z_threshold <= 0.0) fail("z_threshold must be positive");
  if (min_slowdown_ratio < 1.0) fail("min_slowdown_ratio must be >= 1");
  if (hysteresis_steps < 1) fail("hysteresis_steps must be >= 1");
  if (probation_steps < 1) fail("probation_steps must be >= 1");
  if (warmup_steps < 1) fail("warmup_steps must be >= 1");
  if (!(heartbeat_loss_probability > 0.0 && heartbeat_loss_probability < 1.0)) {
    fail("heartbeat_loss_probability must be in (0, 1)");
  }
  if (phi_threshold <= 0.0) fail("phi_threshold must be positive");
  if (heartbeat_timeout_ms < 0.0) fail("heartbeat_timeout_ms must be >= 0");
  if (!(domain_rack_fraction > 0.0 && domain_rack_fraction <= 1.0)) {
    fail("domain_rack_fraction must be in (0, 1]");
  }
  if (domain_window_steps < 0) fail("domain_window_steps must be >= 0");
}

HealthMonitor::HealthMonitor(int device_count, HealthPolicy policy,
                             obs::EventLog* events)
    : policy_(policy), events_(events) {
  if (device_count < 1) throw HealthError("HealthMonitor: device_count must be >= 1");
  policy_.validate();
  devices_.resize(static_cast<size_t>(device_count));
}

void HealthMonitor::emit_suspicion(int step, int device, const char* kind,
                                   double score, int streak, bool emit) {
  ++summary_.suspicion_events;
  if (!emit || events_ == nullptr || !events_->ok()) return;
  events_->emit(obs::Event("suspicion")
                    .with("step", step)
                    .with("device", device)
                    .with("kind", kind)
                    .with("score", score)
                    .with("streak", streak));
}

void HealthMonitor::confirm_failure(int device, int step, const std::string& kind,
                                    bool emit) {
  DeviceStats& d = devices_[static_cast<size_t>(device)];
  if (d.state == DeviceState::kFailed) return;
  const int onset = d.anomaly_onset_step >= 0 ? d.anomaly_onset_step : step;
  d.state = DeviceState::kFailed;
  d.consecutive_slow = 0;
  d.consecutive_normal = 0;
  d.confirmed_step = step;
  pending_failures_.push_back(device);
  ++summary_.failures_confirmed;
  if (kind == "domain") ++summary_.domain_failures;
  summary_.detections.push_back({device, kind, onset, step});
  if (emit && events_ != nullptr && events_->ok()) {
    events_->emit(obs::Event("quarantine")
                      .with("step", step)
                      .with("device", device)
                      .with("action", "fail")
                      .with("kind", kind)
                      .with("onset_step", onset)
                      .with("phi", phi(device)));
  }
  // Per-device verdicts ("failure", "error") can be the first visible edge
  // of a correlated burst; domain verdicts themselves never recurse.
  if (policy_.domain_attribution && kind != "domain" &&
      static_cast<size_t>(device) < rack_of_device_.size()) {
    maybe_attribute_domain(step, rack_of_device_[static_cast<size_t>(device)], emit);
  }
}

void HealthMonitor::maybe_attribute_domain(int step, int rack, bool emit) {
  if (rack < 0) return;
  // Members = rack devices still alive plus those that failed inside the
  // window (a device failed long ago belongs to an older incident).
  int members = 0;
  int recent = 0;
  for (size_t i = 0; i < devices_.size() && i < rack_of_device_.size(); ++i) {
    if (rack_of_device_[i] != rack) continue;
    const DeviceStats& d = devices_[i];
    if (d.state == DeviceState::kFailed) {
      if (d.confirmed_step >= 0 && d.confirmed_step + policy_.domain_window_steps >= step) {
        ++members;
        ++recent;
      }
    } else {
      ++members;
    }
  }
  if (members < 2 || recent >= members) return;  // nothing left to attribute
  const int needed =
      static_cast<int>(std::ceil(policy_.domain_rack_fraction * members));
  if (recent < needed) return;

  ++summary_.domain_suspicions;
  domain_verdicts_.push_back(rack);
  if (emit && events_ != nullptr && events_->ok()) {
    events_->emit(obs::Event("domain_suspicion")
                      .with("step", step)
                      .with("rack", rack)
                      .with("confirmed", recent)
                      .with("members", members));
  }
  // Fail the rest of the rack in the same batch so the runner replans around
  // the whole domain in one shot.
  for (size_t i = 0; i < devices_.size() && i < rack_of_device_.size(); ++i) {
    if (rack_of_device_[i] != rack) continue;
    if (devices_[i].state == DeviceState::kFailed) continue;
    confirm_failure(static_cast<int>(i), step, "domain", emit);
  }
}

void HealthMonitor::quarantine_device(int device, int step, bool emit) {
  DeviceStats& d = devices_[static_cast<size_t>(device)];
  d.state = DeviceState::kQuarantined;
  d.consecutive_normal = 0;
  ++summary_.quarantines;
  const int onset = d.anomaly_onset_step >= 0 ? d.anomaly_onset_step : step;
  summary_.detections.push_back({device, "straggler", onset, step});
  if (emit && events_ != nullptr && events_->ok()) {
    events_->emit(obs::Event("quarantine")
                      .with("step", step)
                      .with("device", device)
                      .with("action", "enter")
                      .with("kind", "straggler")
                      .with("onset_step", onset)
                      .with("slowdown", estimated_slowdown(device)));
  }
}

void HealthMonitor::reinstate_device(int device, int step, bool emit) {
  DeviceStats& d = devices_[static_cast<size_t>(device)];
  d.state = DeviceState::kHealthy;
  d.consecutive_slow = 0;
  d.consecutive_normal = 0;
  d.anomaly_onset_step = -1;
  ++summary_.reinstatements;
  if (emit && events_ != nullptr && events_->ok()) {
    events_->emit(obs::Event("quarantine")
                      .with("step", step)
                      .with("device", device)
                      .with("action", "reinstate")
                      .with("kind", "straggler")
                      .with("onset_step", step)
                      .with("slowdown", 1.0));
  }
}

void HealthMonitor::observe_step_time(const Observation& obs,
                                      bool any_device_anomalous, bool emit) {
  const double x = obs.makespan_ms;
  if (step_samples_ >= policy_.warmup_steps && !any_device_anomalous) {
    const double sd = std::sqrt(std::max(step_var_, 1e-12));
    const double z = (x - step_mean_) / sd;
    if (z > policy_.z_threshold &&
        x > step_mean_ * policy_.min_slowdown_ratio) {
      // Every device looks healthy but the step as a whole stalled: the
      // anomaly lives on the communication path.
      emit_suspicion(obs.step, -1, "comm", z, 1, emit);
    }
  }
  const double a = policy_.ewma_alpha;
  if (step_samples_ == 0) {
    step_mean_ = x;
    step_var_ = 0.0;
  } else {
    const double delta = x - step_mean_;
    step_mean_ += a * delta;
    step_var_ = (1.0 - a) * (step_var_ + a * delta * delta);
  }
  ++step_samples_;
}

void HealthMonitor::observe(const Observation& obs, bool emit) {
  // Heartbeats first: a missed round accrues phi on the device whatever the
  // attempt outcome was.
  const size_t n = devices_.size();
  for (size_t i = 0; i < n && i < obs.responded.size(); ++i) {
    DeviceStats& d = devices_[i];
    if (d.state == DeviceState::kFailed) continue;
    if (!obs.responded[i]) {
      if (d.consecutive_misses == 0) d.anomaly_onset_step = obs.step;
      ++d.consecutive_misses;
      const double score = phi(static_cast<int>(i));
      emit_suspicion(obs.step, static_cast<int>(i), "timeout", score,
                     d.consecutive_misses, emit);
      const bool budget_out = retry_budget_exhausted();
      if (score >= policy_.phi_threshold || budget_out) {
        confirm_failure(static_cast<int>(i), obs.step, "failure", emit);
      }
    } else if (d.consecutive_misses > 0) {
      d.consecutive_misses = 0;
      if (d.state == DeviceState::kHealthy) d.anomaly_onset_step = -1;
    }
  }

  // Error attribution: the worker that raised this attempt's exception.
  if (obs.error_device >= 0 &&
      static_cast<size_t>(obs.error_device) < n &&
      devices_[static_cast<size_t>(obs.error_device)].state != DeviceState::kFailed) {
    DeviceStats& d = devices_[static_cast<size_t>(obs.error_device)];
    if (d.anomaly_onset_step < 0) d.anomaly_onset_step = obs.step;
    emit_suspicion(obs.step, obs.error_device, "error", 1.0, obs.attempt + 1, emit);
  }

  if (!obs.completed) return;

  // Timing statistics only advance on completed attempts.
  bool any_anomalous = false;
  for (size_t i = 0; i < n && i < obs.device_busy_ms.size(); ++i) {
    DeviceStats& d = devices_[i];
    if (d.state == DeviceState::kFailed) continue;
    const double x = obs.device_busy_ms[i];
    d.last_busy_ms = x;

    bool anomalous = false;
    if (d.samples >= policy_.warmup_steps) {
      const double sd = std::sqrt(std::max(d.var, 1e-12));
      const double z = (x - d.mean) / sd;
      anomalous = z > policy_.z_threshold && x > d.mean * policy_.min_slowdown_ratio;
      if (anomalous) any_anomalous = true;

      if (d.state == DeviceState::kQuarantined) {
        // Probation against the frozen healthy baseline.
        if (!anomalous) {
          ++d.consecutive_normal;
          if (d.consecutive_normal >= policy_.probation_steps) {
            reinstate_device(static_cast<int>(i), obs.step, emit);
          }
        } else {
          d.consecutive_normal = 0;
        }
        continue;  // baseline stays frozen while quarantined
      }

      if (anomalous) {
        if (d.consecutive_slow == 0) d.anomaly_onset_step = obs.step;
        ++d.consecutive_slow;
        d.state = DeviceState::kSuspect;
        emit_suspicion(obs.step, static_cast<int>(i), "slow", z, d.consecutive_slow,
                       emit);
        if (d.consecutive_slow >= policy_.hysteresis_steps) {
          quarantine_device(static_cast<int>(i), obs.step, emit);
        }
        continue;  // anomalous samples do not poison the baseline
      }
      if (d.state == DeviceState::kSuspect) {
        d.state = DeviceState::kHealthy;
        d.anomaly_onset_step = -1;
      }
      d.consecutive_slow = 0;
    }

    const double a = policy_.ewma_alpha;
    if (d.samples == 0) {
      d.mean = x;
      d.var = 0.0;
    } else {
      const double delta = x - d.mean;
      d.mean += a * delta;
      d.var = (1.0 - a) * (d.var + a * delta * delta);
    }
    ++d.samples;
  }

  observe_step_time(obs, any_anomalous, emit);
}

std::vector<int> HealthMonitor::take_confirmed_failures() {
  std::vector<int> out = std::move(pending_failures_);
  pending_failures_.clear();
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void HealthMonitor::set_rack_map(std::vector<int> rack_of_device) {
  if (static_cast<int>(rack_of_device.size()) != device_count()) {
    throw HealthError("HealthMonitor::set_rack_map: expected " +
                      std::to_string(device_count()) + " entries, got " +
                      std::to_string(rack_of_device.size()));
  }
  rack_of_device_ = std::move(rack_of_device);
}

std::vector<int> HealthMonitor::take_domain_verdicts() {
  std::vector<int> out = std::move(domain_verdicts_);
  domain_verdicts_.clear();
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void HealthMonitor::force_failure(int device, int step, const std::string& kind) {
  if (device < 0 || static_cast<size_t>(device) >= devices_.size()) return;
  confirm_failure(device, step, kind, true);
}

DeviceState HealthMonitor::state(int device) const {
  if (device < 0 || static_cast<size_t>(device) >= devices_.size()) {
    throw HealthError("HealthMonitor::state: device out of range");
  }
  return devices_[static_cast<size_t>(device)].state;
}

double HealthMonitor::phi(int device) const {
  if (device < 0 || static_cast<size_t>(device) >= devices_.size()) return 0.0;
  const int misses = devices_[static_cast<size_t>(device)].consecutive_misses;
  return static_cast<double>(misses) * -std::log10(policy_.heartbeat_loss_probability);
}

double HealthMonitor::estimated_slowdown(int device) const {
  if (device < 0 || static_cast<size_t>(device) >= devices_.size()) return 1.0;
  const DeviceStats& d = devices_[static_cast<size_t>(device)];
  if (d.state != DeviceState::kQuarantined || d.mean <= 0.0) return 1.0;
  return std::max(1.0, d.last_busy_ms / d.mean);
}

bool HealthMonitor::charge_retry() {
  if (retry_budget_exhausted()) return false;
  ++retries_charged_;
  ++summary_.retries_charged;
  if (retry_budget_exhausted()) summary_.retry_budget_exhausted = true;
  return true;
}

bool HealthMonitor::retry_budget_exhausted() const {
  return policy_.retry_budget > 0 && retries_charged_ >= policy_.retry_budget;
}

void HealthMonitor::record_replan(int step, bool emit) {
  ++replans_;
  if (breaker_open_ || policy_.max_replans <= 0 || replans_ < policy_.max_replans) {
    return;
  }
  breaker_open_ = true;
  summary_.breaker_opened = true;
  if (emit && events_ != nullptr && events_->ok()) {
    events_->emit(obs::Event("breaker_open")
                      .with("step", step)
                      .with("replans", replans_)
                      .with("max_replans", policy_.max_replans));
  }
}

bool HealthMonitor::breaker_open() const { return breaker_open_; }

void HealthMonitor::on_replan(const std::vector<int>& new_id_of) {
  std::vector<DeviceStats> remapped;
  int survivors = 0;
  for (const int id : new_id_of) survivors = std::max(survivors, id + 1);
  remapped.resize(static_cast<size_t>(std::max(survivors, 1)));
  for (size_t old_id = 0; old_id < devices_.size() && old_id < new_id_of.size();
       ++old_id) {
    const int new_id = new_id_of[old_id];
    if (new_id < 0) continue;
    remapped[static_cast<size_t>(new_id)] = devices_[old_id];
  }
  devices_ = std::move(remapped);
  if (!rack_of_device_.empty()) {
    std::vector<int> racks(devices_.size(), -1);
    for (size_t old_id = 0;
         old_id < rack_of_device_.size() && old_id < new_id_of.size(); ++old_id) {
      const int new_id = new_id_of[old_id];
      if (new_id < 0 || static_cast<size_t>(new_id) >= racks.size()) continue;
      racks[static_cast<size_t>(new_id)] = rack_of_device_[old_id];
    }
    rack_of_device_ = std::move(racks);
  }
  // The workload per device changes under the new plan; baselines re-learn.
  for (DeviceStats& d : devices_) {
    d.mean = 0.0;
    d.var = 0.0;
    d.samples = 0;
    d.consecutive_slow = 0;
    d.consecutive_normal = 0;
    d.last_busy_ms = 0.0;
    if (d.state == DeviceState::kSuspect) d.state = DeviceState::kHealthy;
  }
  step_mean_ = 0.0;
  step_var_ = 0.0;
  step_samples_ = 0;
  pending_failures_.clear();
  domain_verdicts_.clear();
}

std::string HealthMonitor::serialize() const {
  std::ostringstream os;
  os << "health-v1\n";
  os << "policy " << (policy_.enabled ? 1 : 0) << " "
     << format_double(policy_.ewma_alpha) << " " << format_double(policy_.z_threshold)
     << " " << format_double(policy_.min_slowdown_ratio) << " "
     << policy_.hysteresis_steps << " " << policy_.probation_steps << " "
     << policy_.warmup_steps << " " << format_double(policy_.heartbeat_loss_probability)
     << " " << format_double(policy_.phi_threshold) << " "
     << format_double(policy_.heartbeat_timeout_ms) << " "
     << policy_.retry_budget << " " << policy_.max_replans << " "
     << (policy_.replan_on_straggler ? 1 : 0) << " "
     << format_double(policy_.replan_deadline_ms) << "\n";
  os << "run " << retries_charged_ << " " << replans_ << " " << (breaker_open_ ? 1 : 0)
     << " " << format_double(step_mean_) << " " << format_double(step_var_) << " "
     << step_samples_ << "\n";
  os << "devices " << devices_.size() << "\n";
  for (const DeviceStats& d : devices_) {
    os << "device " << static_cast<int>(d.state) << " " << format_double(d.mean) << " "
       << format_double(d.var) << " " << d.samples << " "
       << format_double(d.last_busy_ms) << " "
       << d.consecutive_slow << " " << d.consecutive_normal << " "
       << d.consecutive_misses << " " << d.anomaly_onset_step << "\n";
  }
  os << "pending " << pending_failures_.size();
  for (const int p : pending_failures_) os << " " << p;
  os << "\n";
  // Domain section only when a rack map was set (topology runs). Flat-run
  // snapshots stay byte-identical to every journal written before domain
  // attribution existed — the resume cross-check depends on that.
  if (!rack_of_device_.empty()) {
    os << "domain " << (policy_.domain_attribution ? 1 : 0) << " "
       << format_double(policy_.domain_rack_fraction) << " "
       << policy_.domain_window_steps << "\n";
    os << "rackmap " << rack_of_device_.size();
    for (const int r : rack_of_device_) os << " " << r;
    os << "\n";
    os << "confirmed " << devices_.size();
    for (const DeviceStats& d : devices_) os << " " << d.confirmed_step;
    os << "\n";
    os << "verdicts " << domain_verdicts_.size();
    for (const int r : domain_verdicts_) os << " " << r;
    os << "\n";
  }
  return os.str();
}

HealthMonitor HealthMonitor::deserialize(const std::string& text,
                                         obs::EventLog* events) {
  try {
    LineCursor in(text);
    in.expect("health-v1");
    HealthPolicy policy;
    {
      Fields f = in.field("policy");
      policy.enabled = f.flag("enabled");
      policy.ewma_alpha = f.real("ewma_alpha");
      policy.z_threshold = f.real("z_threshold");
      policy.min_slowdown_ratio = f.real("min_slowdown_ratio");
      policy.hysteresis_steps = f.integer("hysteresis_steps");
      policy.probation_steps = f.integer("probation_steps");
      policy.warmup_steps = f.integer("warmup_steps");
      policy.heartbeat_loss_probability = f.real("heartbeat_loss_probability");
      policy.phi_threshold = f.real("phi_threshold");
      policy.heartbeat_timeout_ms = f.real("heartbeat_timeout_ms");
      policy.retry_budget = f.integer("retry_budget");
      policy.max_replans = f.integer("max_replans");
      policy.replan_on_straggler = f.flag("replan_on_straggler");
      policy.replan_deadline_ms = f.real("replan_deadline_ms");
      f.finish();
    }
    Fields run = in.field("run");
    const int retries = run.integer("retries charged");
    const int replans = run.integer("re-plans");
    const bool breaker = run.flag("breaker");
    const double step_mean = run.real("step mean");
    const double step_var = run.real("step variance");
    const int step_samples = run.integer("step samples");
    run.finish();
    const int n_devices = in.integer("devices", 1, 1'000'000);

    HealthMonitor monitor(n_devices, policy, events);
    monitor.retries_charged_ = retries;
    monitor.replans_ = replans;
    monitor.breaker_open_ = breaker;
    monitor.step_mean_ = step_mean;
    monitor.step_var_ = step_var;
    monitor.step_samples_ = step_samples;
    for (DeviceStats& d : monitor.devices_) {
      Fields f = in.field("device");
      d.state = static_cast<DeviceState>(
          f.integer("device state", 0, static_cast<int>(DeviceState::kFailed)));
      d.mean = f.real("device mean");
      d.var = f.real("device variance");
      d.samples = f.integer("device samples");
      d.last_busy_ms = f.real("device busy");
      d.consecutive_slow = f.integer("consecutive slow");
      d.consecutive_normal = f.integer("consecutive normal");
      d.consecutive_misses = f.integer("consecutive misses");
      d.anomaly_onset_step = f.integer("anomaly onset");
      f.finish();
    }
    {
      Fields f = in.field("pending");
      const int n = f.integer("pending count", 0, n_devices);
      for (int i = 0; i < n; ++i) {
        monitor.pending_failures_.push_back(f.integer("pending device"));
      }
      f.finish();
    }
    // Optional domain section (present iff the run had a rack map).
    if (!in.done()) {
      Fields domain = in.field("domain");
      monitor.policy_.domain_attribution = domain.flag("domain attribution");
      monitor.policy_.domain_rack_fraction = domain.real("domain rack fraction");
      monitor.policy_.domain_window_steps = domain.integer("domain window");
      domain.finish();
      Fields racks = in.field("rackmap");
      racks.integer("rackmap count", n_devices, n_devices);
      monitor.rack_of_device_.resize(static_cast<size_t>(n_devices));
      for (int& rack : monitor.rack_of_device_) rack = racks.integer("rack");
      racks.finish();
      Fields confirmed = in.field("confirmed");
      confirmed.integer("confirmed count", n_devices, n_devices);
      for (DeviceStats& d : monitor.devices_) {
        d.confirmed_step = confirmed.integer("confirmed step");
      }
      confirmed.finish();
      Fields verdicts = in.field("verdicts");
      const int n = verdicts.integer("verdict count", 0, 1'000'000);
      for (int i = 0; i < n; ++i) {
        monitor.domain_verdicts_.push_back(verdicts.integer("verdict rack"));
      }
      verdicts.finish();
    }
    in.finish();
    return monitor;
  } catch (const ParseError& e) {
    bad_state(e.what());
  }
}

}  // namespace heterog::health

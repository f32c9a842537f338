// Shared plumbing of the planner benchmark (planbench/README.md): run
// arguments, timing, summary statistics and the per-run report.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace planbench {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// The calibration kernel's wall on the reference host (a quiet 4-core VM).
constexpr double kReferenceCalibrationMs = 24.0;

/// Host-speed normalisation (planbench/README.md). The benchmark's host is
/// shared, and its speed drifts by tens of percent over minutes with the
/// neighbours' load. So a run also times a fixed calibration kernel (a list
/// scheduler over a seeded random DAG, written here so that no change to the
/// program moves it) between its timed operations, never during one, and
/// reports each wall at the reference host speed:
///   wall * kReferenceCalibrationMs / mean calibration wall around it.
class HostSpeed {
 public:
  /// Times the calibration kernel a few times. Call it between timed
  /// operations: before the first and after each.
  void calibrate();
  /// Mean calibration wall so far (kReferenceCalibrationMs before any).
  double mean_ms() const;
  /// kReferenceCalibrationMs / mean_ms(): multiplies a wall, divides a rate.
  double scale() const;

 private:
  std::vector<double> walls_ms_;
};

/// Arguments every workload receives (planbench/run.py passes them).
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Empty scratch directory of this run, relative to the checkout root.
  std::string tmp;
};

/// What one run reports. Values accumulate by metric name; main() checks
/// every name against the declared metric lists before printing.
class Report {
 public:
  void set(const std::string& name, double value) { values_[name] = value; }
  void add(const std::string& name, double delta) { values_[name] += delta; }
  const std::map<std::string, double>& values() const { return values_; }

  /// Counts one attempted operation; `ok` false also counts it failed.
  void attempt(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  /// Records a wrong output (printed to stderr). The run then reports
  /// correct=false and exits nonzero.
  void violation(const std::string& what);
  bool correct() const { return violations_ == 0; }

 private:
  std::map<std::string, double> values_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  int violations_ = 0;
};

/// Summaries; each returns 0 for empty input.
double median(std::vector<double> values);
double quantile(std::vector<double> values, double q);  // q in [0, 1]
double geomean(const std::vector<double>& values);

/// Peak resident set of this process so far, in MB.
double peak_rss_mb();

/// Per-item seeds derived from the workload seed.
uint64_t derive_seed(uint64_t seed, uint64_t salt);

/// Runs `setup` at least five times and for at least a second, and returns
/// the median wall in seconds at the reference host speed (calibrated before
/// and after the repetitions). Between repetitions the untimed `teardown`
/// releases what the previous one built.
double median_setup_s(const std::function<void()>& setup,
                      const std::function<void()>& teardown = {});

/// Runs `pass(i)` while the measurement budget lasts: pass i+1 starts only
/// when the time left still covers the median pass so far. At least two, so
/// no result rests on the process's first, cold pass alone.
int run_passes(double seconds, const std::function<void(int)>& pass);

void run_search_testbed(const Args& args, Report& report);
void run_plan_scale(const Args& args, Report& report);
void run_serve_mixed(const Args& args, Report& report);
void run_chaos(const Args& args, Report& report);

}  // namespace planbench

#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <queue>
#include <random>
#include <unordered_map>
#include <utility>

#include "common/hash.h"
#include "common/stats.h"

namespace planbench {

void Report::violation(const std::string& what) {
  ++violations_;
  std::fprintf(stderr, "planbench: CHECK FAILED: %s\n", what.c_str());
}

double median(std::vector<double> values) {
  return values.empty() ? 0.0 : heterog::median(std::move(values));
}

double quantile(std::vector<double> values, double q) {
  return values.empty() ? 0.0 : heterog::percentile(std::move(values), 100.0 * q);
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

namespace {

constexpr int kCalibrationOps = 20000;
constexpr int kCalibrationRounds = 10;  // about 24 ms on the reference host
constexpr int kCalibrationDevices = 8;
/// Kernel runs per HostSpeed::calibrate(): single runs scatter by about 10%.
constexpr int kCalibrationsPerGap = 3;

/// The calibration kernel's input: a random DAG of kCalibrationOps
/// operations, each feeding up to three of the next 64, drawn once from a
/// fixed seed.
struct CalibrationDag {
  std::vector<std::vector<int>> successors;
  std::vector<int> in_degree;
  std::vector<double> cost;
};

const CalibrationDag& calibration_dag() {
  static const CalibrationDag dag = [] {
    std::mt19937_64 rng(20240601);
    CalibrationDag d;
    d.successors.resize(kCalibrationOps);
    d.in_degree.assign(kCalibrationOps, 0);
    d.cost.resize(kCalibrationOps);
    for (int i = 0; i < kCalibrationOps; ++i) {
      d.cost[i] = 1.0 + static_cast<double>(rng() % 1000) / 100.0;
      const int fanout = 1 + static_cast<int>(rng() % 3);
      for (int k = 0; k < fanout; ++k) {
        const int to = i + 1 + static_cast<int>(rng() % 64);
        if (to < kCalibrationOps) {
          d.successors[i].push_back(to);
          ++d.in_degree[to];
        }
      }
    }
    return d;
  }();
  return dag;
}

/// One run of the calibration kernel: kCalibrationRounds list schedules of
/// the DAG, ready operations in start-time order, each on device
/// (op mod kCalibrationDevices) once that device is free. Returns its wall.
double calibration_ms() {
  const CalibrationDag& dag = calibration_dag();
  double makespan = 0.0;
  const auto t0 = Clock::now();
  for (int round = 0; round < kCalibrationRounds; ++round) {
    std::vector<int> in_degree = dag.in_degree;
    std::vector<double> ready(dag.cost.size(), 0.0);
    std::unordered_map<int, double> device_free;
    using Entry = std::pair<double, int>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> queue;
    for (int i = 0; i < kCalibrationOps; ++i) {
      if (in_degree[i] == 0) queue.push({0.0, i});
    }
    while (!queue.empty()) {
      const auto [at, op] = queue.top();
      queue.pop();
      double& free_at = device_free[op % kCalibrationDevices];
      free_at = std::max(at, free_at) + dag.cost[op];
      makespan = std::max(makespan, free_at);
      for (const int next : dag.successors[op]) {
        ready[next] = std::max(ready[next], free_at);
        if (--in_degree[next] == 0) queue.push({ready[next], next});
      }
    }
  }
  const double wall_ms = ms_since(t0);
  // The makespan is fixed by the DAG; using it keeps the loop from being
  // optimised away.
  if (!(makespan > 0.0)) std::fprintf(stderr, "planbench: calibration makespan %g\n", makespan);
  return wall_ms;
}

}  // namespace

void HostSpeed::calibrate() {
  for (int i = 0; i < kCalibrationsPerGap; ++i) walls_ms_.push_back(calibration_ms());
}

double HostSpeed::mean_ms() const {
  double sum = 0.0;
  for (const double ms : walls_ms_) sum += ms;
  return walls_ms_.empty() ? kReferenceCalibrationMs : sum / static_cast<double>(walls_ms_.size());
}

double HostSpeed::scale() const { return kReferenceCalibrationMs / mean_ms(); }

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

uint64_t derive_seed(uint64_t seed, uint64_t salt) {
  return heterog::Hash64().mix(seed).mix(salt).digest();
}

double median_setup_s(const std::function<void()>& setup,
                      const std::function<void()>& teardown) {
  // At least five set-ups and one second of them, so a set-up of a few
  // milliseconds still reports a median over many.
  constexpr int kMinRepeats = 5;
  constexpr int kMaxRepeats = 1000;
  HostSpeed speed;
  speed.calibrate();
  const auto start = Clock::now();
  std::vector<double> walls;
  for (int i = 0; i < kMinRepeats || (i < kMaxRepeats && ms_since(start) < 1000.0); ++i) {
    if (i > 0 && teardown) teardown();
    const auto t0 = Clock::now();
    setup();
    walls.push_back(ms_since(t0) / 1000.0);
  }
  speed.calibrate();
  return median(walls) * speed.scale();
}

int run_passes(double seconds, const std::function<void(int)>& pass) {
  const auto t0 = Clock::now();
  std::vector<double> walls;
  for (int i = 0;; ++i) {
    if (i > 1 && ms_since(t0) + median(walls) > 1000.0 * seconds) return i;
    const auto p0 = Clock::now();
    pass(i);
    walls.push_back(ms_since(p0));
  }
}

}  // namespace planbench

// Small statistics helpers used by the profiler (regression fits) and the
// benches (summaries over repeated runs).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace heterog {

/// Ordinary least squares fit of y = slope * x + intercept.
struct LinearFit {
  double slope = 0.0;
  double intercept = 0.0;
  double r_squared = 1.0;

  double predict(double x) const { return slope * x + intercept; }
};

/// Fits a line through (x, y) samples. Requires >= 2 samples; with all-equal
/// x the fit degenerates to slope 0 / intercept mean(y).
LinearFit fit_linear(std::span<const double> x, std::span<const double> y);

double mean(const std::vector<double>& values);
double stddev(const std::vector<double>& values);
double median(std::vector<double> values);
double percentile(std::vector<double> values, double p);  // p in [0, 100]

/// Exponential moving average, used as the RL reward baseline.
class MovingAverage {
 public:
  explicit MovingAverage(double decay = 0.9) : decay_(decay) {}

  double update(double value) {
    if (!initialised_) {
      value_ = value;
      initialised_ = true;
    } else {
      value_ = decay_ * value_ + (1.0 - decay_) * value;
    }
    return value_;
  }

  double value() const { return value_; }
  bool initialised() const { return initialised_; }

 private:
  double decay_;
  double value_ = 0.0;
  bool initialised_ = false;
};

}  // namespace heterog

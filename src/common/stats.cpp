#include "common/stats.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace heterog {

LinearFit fit_linear(std::span<const double> x, std::span<const double> y) {
  check(x.size() == y.size(), "fit_linear: size mismatch");
  check(x.size() >= 2, "fit_linear: need at least two samples");
  const double n = static_cast<double>(x.size());
  double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    sx += x[i];
    sy += y[i];
    sxx += x[i] * x[i];
    sxy += x[i] * y[i];
  }
  const double denom = n * sxx - sx * sx;
  LinearFit fit;
  if (std::abs(denom) < 1e-12) {
    fit.slope = 0.0;
    fit.intercept = sy / n;
    fit.r_squared = 0.0;
    return fit;
  }
  fit.slope = (n * sxy - sx * sy) / denom;
  fit.intercept = (sy - fit.slope * sx) / n;

  const double ybar = sy / n;
  double ss_res = 0.0, ss_tot = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    const double pred = fit.predict(x[i]);
    ss_res += (y[i] - pred) * (y[i] - pred);
    ss_tot += (y[i] - ybar) * (y[i] - ybar);
  }
  fit.r_squared = ss_tot < 1e-12 ? 1.0 : 1.0 - ss_res / ss_tot;
  return fit;
}

double mean(const std::vector<double>& values) {
  check(!values.empty(), "mean: empty");
  double total = 0.0;
  for (double v : values) total += v;
  return total / static_cast<double>(values.size());
}

double stddev(const std::vector<double>& values) {
  if (values.size() < 2) return 0.0;
  const double m = mean(values);
  double acc = 0.0;
  for (double v : values) acc += (v - m) * (v - m);
  return std::sqrt(acc / static_cast<double>(values.size() - 1));
}

double median(std::vector<double> values) { return percentile(std::move(values), 50.0); }

double percentile(std::vector<double> values, double p) {
  check(!values.empty(), "percentile: empty");
  check(p >= 0.0 && p <= 100.0, "percentile: p out of range");
  std::sort(values.begin(), values.end());
  const double idx = (p / 100.0) * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(idx);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

}  // namespace heterog

#include "obs/metrics.h"

#include <algorithm>
#include <chrono>

#include "common/check.h"
#include "common/record_io.h"

namespace heterog::obs {

namespace {

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void append_json_key(std::string& out, const std::string& key) {
  out += '"';
  out += key;  // metric names are dot/alnum only; no escaping needed
  out += "\":";
}

}  // namespace

const std::vector<double>& default_histogram_bounds() {
  static const std::vector<double> bounds = {0.1, 0.25, 0.5,  1.0,   2.5,   5.0,
                                             10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
                                             1000.0, 2500.0, 5000.0, 10000.0};
  return bounds;
}

void MetricsRegistry::add(const std::string& name, uint64_t delta) {
  std::lock_guard<std::mutex> lock(mu_);
  counters_[name] += delta;
}

void MetricsRegistry::set(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  gauges_[name] = value;
}

void MetricsRegistry::define_histogram(const std::string& name,
                                       std::vector<double> upper_bounds) {
  check(!upper_bounds.empty(), "define_histogram: no bucket bounds");
  check(std::is_sorted(upper_bounds.begin(), upper_bounds.end()) &&
            std::adjacent_find(upper_bounds.begin(), upper_bounds.end()) ==
                upper_bounds.end(),
        "define_histogram: bounds must be strictly increasing");
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = histograms_.try_emplace(name);
  if (!inserted) return;
  it->second.upper_bounds = std::move(upper_bounds);
  it->second.counts.assign(it->second.upper_bounds.size() + 1, 0);
}

void MetricsRegistry::observe(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = histograms_.try_emplace(name);
  Histogram& h = it->second;
  if (inserted) {
    h.upper_bounds = default_histogram_bounds();
    h.counts.assign(h.upper_bounds.size() + 1, 0);
  }
  // First bucket whose upper bound is >= value; values above every bound go
  // to the trailing overflow bucket (tests pin the <=-edge semantics).
  const auto bound =
      std::lower_bound(h.upper_bounds.begin(), h.upper_bounds.end(), value);
  h.counts[static_cast<size_t>(bound - h.upper_bounds.begin())] += 1;
  if (h.count == 0 || value < h.min) h.min = value;
  if (h.count == 0 || value > h.max) h.max = value;
  h.count += 1;
  h.sum += value;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  snap.counters = counters_;
  snap.gauges = gauges_;
  for (const auto& [name, h] : histograms_) {
    HistogramSnapshot hs;
    hs.upper_bounds = h.upper_bounds;
    hs.counts = h.counts;
    hs.count = h.count;
    hs.sum = h.sum;
    hs.min = h.min;
    hs.max = h.max;
    snap.histograms.emplace(name, std::move(hs));
  }
  return snap;
}

void MetricsRegistry::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

std::string MetricsSnapshot::to_json() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters) {
    if (!first) out += ',';
    first = false;
    append_json_key(out, name);
    out += std::to_string(value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : gauges) {
    if (!first) out += ',';
    first = false;
    append_json_key(out, name);
    out += format_shortest(value);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms) {
    if (!first) out += ',';
    first = false;
    append_json_key(out, name);
    out += "{\"count\":" + std::to_string(h.count) + ",\"sum\":";
    out += format_shortest(h.sum);
    out += ",\"min\":";
    out += format_shortest(h.min);
    out += ",\"max\":";
    out += format_shortest(h.max);
    out += ",\"bounds\":[";
    for (size_t i = 0; i < h.upper_bounds.size(); ++i) {
      if (i > 0) out += ',';
      out += format_shortest(h.upper_bounds[i]);
    }
    out += "],\"buckets\":[";
    for (size_t i = 0; i < h.counts.size(); ++i) {
      if (i > 0) out += ',';
      out += std::to_string(h.counts[i]);
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

ScopedTimer::ScopedTimer(MetricsRegistry& registry, std::string name)
    : registry_(&registry), name_(std::move(name)), start_ns_(now_ns()) {}

double ScopedTimer::elapsed_ms() const {
  return static_cast<double>(now_ns() - start_ns_) / 1e6;
}

double ScopedTimer::stop() {
  const double ms = elapsed_ms();
  if (armed_) {
    armed_ = false;
    registry_->observe(name_, ms);
  }
  return ms;
}

ScopedTimer::~ScopedTimer() {
  if (armed_) stop();
}

}  // namespace heterog::obs

#include "profiler/profiler.h"

#include <algorithm>

#include "common/check.h"

namespace heterog::profiler {

double CostModel::op_time_ms(const graph::OpDef& op, double batch,
                             cluster::DeviceId dev) const {
  check(dev >= 0 && dev < device_count_, "op_time_ms: bad device");
  if (op.id >= 0 && op.id < profiled_op_count_) {
    const double t =
        op_fits_[static_cast<size_t>(op.id) * static_cast<size_t>(device_count_) +
                 static_cast<size_t>(dev)]
            .predict(batch);
    return std::max(t, 0.0);
  }
  // Synthesised op: fall back to the per-kind flops fit.
  const KindFit& kind = kind_fits_[static_cast<size_t>(op.kind) *
                                       static_cast<size_t>(device_count_) +
                                   static_cast<size_t>(dev)];
  const double flops = std::max(op.flops(batch), 0.0);
  if (kind.fitted) {
    return std::max(kind.fit.predict(flops), 0.0);
  }
  // Kind never observed during profiling: use a conservative generic rate
  // derived from the device's base compute throughput.
  const auto& d = cluster_->device(dev);
  return 0.004 + flops / (d.gflops_per_ms * 1e9 * 0.25);
}

double CostModel::transfer_time_ms(int64_t bytes, cluster::DeviceId from,
                                   cluster::DeviceId to) const {
  if (from == to) return 0.0;
  const double t = link_fit(from, to).predict(static_cast<double>(bytes));
  return std::max(t, 0.0);
}

const LinearFit& CostModel::op_fit(graph::OpId id, cluster::DeviceId dev) const {
  check(id >= 0 && id < profiled_op_count_, "op_fit: unprofiled op");
  check(dev >= 0 && dev < device_count_, "op_fit: bad device");
  return op_fits_[static_cast<size_t>(id) * static_cast<size_t>(device_count_) +
                  static_cast<size_t>(dev)];
}

const LinearFit& CostModel::link_fit(cluster::DeviceId from, cluster::DeviceId to) const {
  check(from != to, "link_fit: same device");
  check(from >= 0 && from < device_count_, "link_fit: bad from");
  check(to >= 0 && to < device_count_, "link_fit: bad to");
  return link_fits_[static_cast<size_t>(from) * static_cast<size_t>(device_count_) +
                    static_cast<size_t>(to)];
}

Profiler::Profiler(const HardwareModel& hardware, uint64_t seed, ProfilerOptions options)
    : hardware_(&hardware), rng_(seed), options_(std::move(options)) {
  check(options_.batch_fractions.size() >= 2,
        "Profiler: need >= 2 batch fractions for a regression fit");
  check(options_.repetitions >= 1, "Profiler: repetitions must be >= 1");
}

std::shared_ptr<const CostModel> Profiler::profile(const graph::GraphDef& graph) {
  const auto& cluster = hardware_->cluster();
  const auto n = static_cast<size_t>(cluster.device_count());
  auto model = std::make_shared<CostModel>();
  model->cluster_ = &cluster;
  model->profiled_op_count_ = graph.op_count();
  model->device_count_ = cluster.device_count();
  model->op_fits_.assign(static_cast<size_t>(graph.op_count()) * n, LinearFit{});

  // The hardware model is deterministic: one call per measurement point,
  // then `repetitions` noise draws around it, averaged.
  const auto measure = [&](double truth) {
    double total = 0.0;
    for (int r = 0; r < options_.repetitions; ++r) {
      const double noise = 1.0 + rng_.normal(0.0, options_.noise_stddev);
      total += truth * std::max(noise, 0.5);
    }
    return total / options_.repetitions;
  };

  // Samples for the synthesised-op fallback fits, in the fits' layout:
  // (kind, device) slot after slot, each holding the kind's ops in op order
  // with one sample per batch fraction.
  const size_t fractions = options_.batch_fractions.size();
  std::vector<size_t> ops_of_kind(graph::kOpKindCount, 0);
  for (const auto& op : graph.ops()) ++ops_of_kind[static_cast<size_t>(op.kind)];
  std::vector<size_t> kind_begin(graph::kOpKindCount + 1, 0);
  for (size_t k = 0; k < ops_of_kind.size(); ++k) {
    kind_begin[k + 1] = kind_begin[k] + ops_of_kind[k] * n * fractions;
  }
  std::vector<double> kind_flops(kind_begin.back());
  std::vector<double> kind_times(kind_begin.back());
  std::vector<size_t> seen_of_kind(graph::kOpKindCount, 0);

  std::vector<double> xs(fractions), ys(fractions);
  for (const auto& op : graph.ops()) {
    const auto k = static_cast<size_t>(op.kind);
    const size_t rank = seen_of_kind[k]++;
    for (const auto& dev : cluster.devices()) {
      const size_t slot = kind_begin[k] + (static_cast<size_t>(dev.id) * ops_of_kind[k] + rank) *
                                              fractions;
      for (size_t f = 0; f < fractions; ++f) {
        const double batch = graph.global_batch() * options_.batch_fractions[f];
        xs[f] = batch;
        ys[f] = measure(hardware_->op_time_ms(op, batch, dev.id));
        kind_flops[slot + f] = std::max(op.flops(batch), 0.0);
        kind_times[slot + f] = ys[f];
      }
      model->op_fits_[static_cast<size_t>(op.id) * n + static_cast<size_t>(dev.id)] =
          fit_linear(xs, ys);
    }
  }

  model->kind_fits_.assign(static_cast<size_t>(graph::kOpKindCount) * n, CostModel::KindFit{});
  for (size_t k = 0; k < ops_of_kind.size(); ++k) {
    const size_t samples = ops_of_kind[k] * fractions;
    if (samples < 2) continue;
    for (size_t d = 0; d < n; ++d) {
      const size_t begin = kind_begin[k] + d * samples;
      model->kind_fits_[k * n + d] = {
          fit_linear({kind_flops.data() + begin, samples}, {kind_times.data() + begin, samples}),
          true};
    }
  }

  // Link probes.
  model->link_fits_.assign(n * n, LinearFit{});
  const size_t probes = options_.transfer_probe_bytes.size();
  xs.resize(probes);
  ys.resize(probes);
  for (const auto& a : cluster.devices()) {
    for (const auto& b : cluster.devices()) {
      if (a.id == b.id) continue;
      for (size_t p = 0; p < probes; ++p) {
        const int64_t bytes = options_.transfer_probe_bytes[p];
        xs[p] = static_cast<double>(bytes);
        ys[p] = measure(hardware_->transfer_time_ms(bytes, a.id, b.id));
      }
      model->link_fits_[static_cast<size_t>(a.id) * n + static_cast<size_t>(b.id)] =
          fit_linear(xs, ys);
    }
  }

  return model;
}

}  // namespace heterog::profiler

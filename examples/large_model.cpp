// Large-model deployment: training a model that pure data parallelism cannot
// fit (Table 1 bottom / Table 3).
//
// BERT-large with 48 layers at batch 24 overflows every GPU under all four
// DP strategies; HeteroG finds a mostly-model-parallel plan that spreads
// layers across the heterogeneous devices in proportion to their memory and
// compute, and keeps a data-parallel slice where it fits.
//
//   $ ./large_model [episodes]
#include <cstdio>

#include "baselines/baselines.h"
#include "core/heterog.h"
#include "example_args.h"
#include "models/models.h"

int main(int argc, char** argv) {
  using namespace heterog;
  const int episodes = examples::count_arg(argc, argv, 1, "episodes", 80);

  const cluster::ClusterSpec devices = cluster::make_paper_testbed_8gpu();
  auto model_func = [] {
    return models::build_forward(models::ModelKind::kBertLarge, 48, 24);
  };

  // First show that naive DP is infeasible.
  std::printf("BERT-large (48 layers), global batch 24, on %s\n\n",
              devices.summary().c_str());
  profiler::HardwareModel hw(devices);
  profiler::GroundTruthCosts costs(hw);
  baselines::Evaluator evaluator(costs);
  const auto train_graph = graph::build_training_graph(model_func());
  const auto grouping = strategy::Grouping::build(train_graph, costs, 48);
  for (const auto& [name, mode, comm] :
       {std::tuple{"EV-PS", strategy::ReplicationMode::kEven, strategy::CommMethod::kPS},
        std::tuple{"EV-AR", strategy::ReplicationMode::kEven,
                   strategy::CommMethod::kAllReduce},
        std::tuple{"CP-PS", strategy::ReplicationMode::kProportional,
                   strategy::CommMethod::kPS},
        std::tuple{"CP-AR", strategy::ReplicationMode::kProportional,
                   strategy::CommMethod::kAllReduce}}) {
    const auto outcome =
        baselines::run_uniform_dp(evaluator, train_graph, grouping, mode, comm);
    std::printf("  %-6s -> %s\n", name,
                outcome.oom ? "OOM (cannot train)"
                            : (std::to_string(outcome.time_ms) + " ms").c_str());
  }

  // HeteroG finds a feasible hybrid plan.
  HeteroGConfig config;
  config.train.episodes = episodes;
  DistRunner runner = get_runner(model_func, devices, config);
  std::printf("\nHeteroG -> %.1f ms / iteration, feasible=%s\n",
              runner.per_iteration_ms(), runner.feasible() ? "yes" : "no");

  const auto bd = runner.breakdown();
  std::printf("Plan structure (Table 3 style):\n");
  double mp_total = 0.0;
  for (size_t d = 0; d < bd.mp_fraction.size(); ++d) {
    mp_total += bd.mp_fraction[d];
    if (bd.mp_fraction[d] > 0.0) {
      std::printf("  G%zu (%s): %.1f%% of ops\n", d,
                  cluster::gpu_model_name(devices.device(static_cast<int>(d)).model),
                  bd.mp_fraction[d] * 100);
    }
  }
  std::printf("  model-parallel total: %.1f%%; data-parallel: EV %.1f%% / CP %.1f%%\n",
              mp_total * 100, (bd.ev_ps + bd.ev_ar) * 100, (bd.cp_ps + bd.cp_ar) * 100);

  // Peak memory of the deployed plan per device.
  const std::vector<int64_t>& peaks = runner.deployment().peak_memory_bytes;
  std::printf("\nPer-device peak memory of the deployed plan:\n");
  for (const auto& d : devices.devices()) {
    std::printf("  G%d (%s): %.1f / %.1f GB\n", d.id, cluster::gpu_model_name(d.model),
                static_cast<double>(peaks[static_cast<size_t>(d.id)]) / (1 << 30),
                static_cast<double>(d.memory_bytes) / (1 << 30));
  }
  return 0;
}

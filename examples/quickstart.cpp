// Quickstart: the paper's Fig. 5 workflow in C++.
//
// Build a single-GPU model, hand it to heterog::get_runner together with the
// device set, and run the resulting distributed deployment. Compares the
// deployed plan against naive data parallelism.
//
//   $ ./quickstart [episodes]
#include <algorithm>
#include <cstdio>
#include <string>

#include "baselines/baselines.h"
#include "common/table.h"
#include "core/heterog.h"
#include "example_args.h"
#include "models/models.h"

int main(int argc, char** argv) {
  using namespace heterog;

  const int episodes = examples::count_arg(argc, argv, 1, "episodes", 60);

  // 1. The "single-GPU model": VGG-19 at global batch 192 (Table 1's
  //    configuration). Any graph::GraphDef works — see src/models for the
  //    paper's eight benchmark generators or build your own.
  auto model_func = [] {
    return models::build_forward(models::ModelKind::kVgg19, 0, 192);
  };

  // 2. The device set: the paper's 8-GPU heterogeneous testbed
  //    (2x V100, 4x 1080Ti, 2x P100 across four machines).
  const cluster::ClusterSpec devices = cluster::make_paper_testbed_8gpu();
  std::printf("Cluster: %s\n\n", devices.summary().c_str());

  // 3. Deploy. get_runner profiles the model, runs the GNN+RL strategy
  //    search, schedules the execution order, and compiles the distributed
  //    graph.
  HeteroGConfig config;
  config.train.episodes = episodes;
  DistRunner runner = get_runner(model_func, devices, config);

  std::printf("HeteroG plan: %.1f ms / iteration (feasible=%s)\n",
              runner.per_iteration_ms(), runner.feasible() ? "yes" : "no");

  // 4. Inspect the plan (Table 2-style breakdown).
  const auto bd = runner.breakdown();
  std::printf("  op fractions: EV-PS %.1f%%  EV-AR %.1f%%  CP-PS %.1f%%  CP-AR %.1f%%\n",
              bd.ev_ps * 100, bd.ev_ar * 100, bd.cp_ps * 100, bd.cp_ar * 100);
  for (size_t d = 0; d < bd.mp_fraction.size(); ++d) {
    if (bd.mp_fraction[d] > 0.0) {
      std::printf("  MP on G%zu: %.1f%%\n", d, bd.mp_fraction[d] * 100);
    }
  }

  // 5. Train for a few steps on the (simulated) cluster.
  const RunStats stats = runner.run(500);
  std::printf("\n500 steps -> %.1f s total, computation %.1f ms / comm %.1f ms per iter\n",
              stats.total_ms / 1000.0, stats.computation_ms, stats.communication_ms);

  // 5b. How the plan uses the cluster: the deployment's single-iteration
  //     schedule, with per-device and per-link busy times.
  {
    const sim::PlanEvaluation& deployed = runner.deployment();
    const double span = std::max(deployed.cold_iteration_ms, 1e-9);
    double nccl_ms = 0.0;
    double busiest_nic_ms = 0.0;
    for (const auto& busy : deployed.comm_busy) {
      if (busy.resource == "nccl") nccl_ms = busy.busy_ms;
      if (busy.resource.rfind("nic ", 0) == 0) {
        busiest_nic_ms = std::max(busiest_nic_ms, busy.busy_ms);
      }
    }
    TextTable table({"device", "busy (ms)", "utilization"});
    double fraction_total = 0.0;
    for (size_t d = 0; d < deployed.device_busy_ms.size(); ++d) {
      const double busy = deployed.device_busy_ms[d];
      fraction_total += busy / span;
      table.add_row(
          {"G" + std::to_string(d), fmt_double(busy, 1), fmt_percent(busy / span)});
    }
    const size_t devices = std::max<size_t>(deployed.device_busy_ms.size(), 1);
    const double utilization = fraction_total / static_cast<double>(devices);
    std::printf("\nmakespan %s ms, mean GPU utilization %s, NCCL busy %s ms, "
                "busiest NIC %s ms\n%s\n",
                fmt_double(deployed.cold_iteration_ms, 1).c_str(),
                fmt_percent(utilization).c_str(), fmt_double(nccl_ms, 1).c_str(),
                fmt_double(busiest_nic_ms, 1).c_str(), table.render().c_str());
  }

  // 6. Compare with the best pure-DP baseline.
  profiler::HardwareModel hw(devices);
  profiler::GroundTruthCosts costs(hw);
  baselines::Evaluator evaluator(costs);
  const auto train_graph = runner.training_graph();
  const auto& grouping = runner.grouping();
  double best_dp = 1e300;
  const char* best_name = "";
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
    std::printf("  %s: %.1f ms%s\n", name, outcome.time_ms, outcome.oom ? " (OOM)" : "");
    if (!outcome.oom && outcome.time_ms < best_dp) {
      best_dp = outcome.time_ms;
      best_name = name;
    }
  }
  std::printf("\nSpeed-up over best DP baseline (%s): %.1f%%\n", best_name,
              100.0 * (best_dp - runner.per_iteration_ms()) / runner.per_iteration_ms());
  return 0;
}

// Strategy drift across cluster shapes: the same model deployed on a
// homogeneous cluster vs the paper's heterogeneous testbed.
//
// On homogeneous devices HeteroG converges to AllReduce-heavy data
// parallelism (Horovod-like); on the heterogeneous testbed the plan shifts
// toward proportional replication, hybrid PS/AllReduce, and MP placement for
// parameter-heavy ops (Sec. 2.2's opportunities).
//
//   $ ./hetero_cluster_compare [episodes]
#include <cstdio>

#include "core/heterog.h"
#include "example_args.h"
#include "models/models.h"

namespace {

void report(const char* title, const heterog::DistRunner& runner,
            const heterog::cluster::ClusterSpec& devices) {
  const auto bd = runner.breakdown();
  double mp = 0.0;
  for (double f : bd.mp_fraction) mp += f;
  std::printf("%s\n", title);
  std::printf("  cluster: %s\n", devices.summary().c_str());
  std::printf("  per-iteration: %.1f ms\n", runner.per_iteration_ms());
  std::printf("  plan: MP %.1f%% | EV-PS %.1f%% | EV-AR %.1f%% | CP-PS %.1f%% | CP-AR %.1f%%\n\n",
              mp * 100, bd.ev_ps * 100, bd.ev_ar * 100, bd.cp_ps * 100, bd.cp_ar * 100);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace heterog;
  const int episodes = examples::count_arg(argc, argv, 1, "episodes", 60);

  auto model_func = [] {
    return models::build_forward(models::ModelKind::kResNet200, 0, 192);
  };

  HeteroGConfig config;
  config.train.episodes = episodes;

  // Homogeneous: 8x 1080Ti.
  const auto homo = cluster::make_homogeneous(8, cluster::GpuModel::kGtx1080Ti, 2);
  const auto homo_runner = get_runner(model_func, homo, config);
  report("ResNet200 on a homogeneous cluster:", homo_runner, homo);

  // Heterogeneous: the paper's testbed.
  const auto hetero = cluster::make_paper_testbed_8gpu();
  const auto hetero_runner = get_runner(model_func, hetero, config);
  report("ResNet200 on the heterogeneous testbed:", hetero_runner, hetero);

  // Headline comparison: what naive (even, AllReduce) DP would cost on the
  // heterogeneous cluster vs what HeteroG deploys.
  profiler::HardwareModel hw(hetero);
  profiler::GroundTruthCosts costs(hw);
  rl::Trainer trainer(costs, config.train);
  const auto train_graph = hetero_runner.training_graph();
  const auto eval = trainer.evaluate(
      train_graph, hetero_runner.grouping(),
      strategy::StrategyMap::uniform(hetero_runner.grouping().group_count(),
                                     strategy::Action::dp(strategy::ReplicationMode::kEven,
                                                          strategy::CommMethod::kAllReduce)));
  std::printf("Heterogeneous cluster, naive EV-AR: %.1f ms -> HeteroG: %.1f ms (%.1f%% faster)\n",
              eval.time_ms, hetero_runner.per_iteration_ms(),
              100.0 * (eval.time_ms - hetero_runner.per_iteration_ms()) /
                  hetero_runner.per_iteration_ms());
  return 0;
}

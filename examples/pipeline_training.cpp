// Micro-batch pipelining on top of HeteroG plans (paper Sec. 7's suggested
// integration: "split a mini-batch into micro-batches, carry out pipelined
// training across operations deployed on different devices").
//
// Large models force HeteroG toward model-parallel plans; without
// pipelining, a layer chain split across devices serialises. This example
// deploys BERT-large (48 layers) — infeasible under any pure-DP strategy —
// and sweeps the micro-batch count, showing stages overlapping. Gradient
// accumulation keeps synchronous-SGD semantics exact.
//
//   $ ./pipeline_training [episodes]
#include <cstdio>

#include "core/heterog.h"
#include "example_args.h"
#include "graph/pipeline.h"
#include "models/models.h"
#include "sim/plan_eval.h"

int main(int argc, char** argv) {
  using namespace heterog;
  const int episodes = examples::count_arg(argc, argv, 1, "episodes", 60);

  const auto devices = cluster::make_paper_testbed_8gpu();
  HeteroGConfig config;
  config.train.episodes = episodes;
  const auto runner = get_runner(
      [] { return models::build_forward(models::ModelKind::kBertLarge, 48, 24); },
      devices, config);

  std::printf("BERT-large (48 layers), batch 24 — HeteroG plan: %.0f ms/iter\n",
              runner.per_iteration_ms());
  const auto bd = runner.breakdown();
  double mp = 0.0;
  for (double f : bd.mp_fraction) mp += f;
  std::printf("plan is %.0f%% model-parallel -> stages serialise without pipelining\n\n",
              mp * 100);

  profiler::HardwareModel hw(devices);
  profiler::GroundTruthCosts costs(hw);
  const auto& train = runner.training_graph();
  const auto& base_grouping = runner.grouping();

  std::printf("%-14s %-18s %-10s\n", "micro-batches", "per-iteration (ms)", "speed-up");
  double reference = 0.0;
  for (int m : {1, 2, 4, 8}) {
    const auto piped = graph::pipeline_microbatches(train, m);
    const auto grouping = strategy::Grouping::from_origin(base_grouping, piped.origin);
    const auto eval =
        sim::evaluate_plan(costs, piped.graph, grouping, runner.strategy());
    if (m == 1) reference = eval.per_iteration_ms;
    std::printf("%-14d %-18.0f %+.1f%%%s\n", m, eval.per_iteration_ms,
                100.0 * (reference - eval.per_iteration_ms) / eval.per_iteration_ms,
                eval.oom ? "  (OOM)" : "");
  }
  std::printf(
      "\nGradients of all micro-batches are accumulated before the single apply, so\n"
      "the update equals plain synchronous SGD on the full mini-batch.\n");
  return 0;
}

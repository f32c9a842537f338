// Generalisation to unseen graphs (paper Sec. 6.5 / Table 6).
//
// Pre-trains the GNN policy on a set of model graphs, then fine-tunes it on
// a model family it has never seen, and compares the episodes needed to
// reach a good plan against training from scratch.
//
//   $ ./unseen_graph [pretrain_rounds] [episodes]
#include <chrono>
#include <cstdio>

#include "agent/policy.h"
#include "example_args.h"
#include "models/models.h"
#include "profiler/hardware_model.h"
#include "rl/trainer.h"

int main(int argc, char** argv) {
  using namespace heterog;
  const int pretrain_rounds = examples::count_arg(argc, argv, 1, "pretrain_rounds", 40);
  const int episodes = examples::count_arg(argc, argv, 2, "episodes", 60);

  const auto devices = cluster::make_paper_testbed_8gpu();
  profiler::HardwareModel hw(devices);
  profiler::GroundTruthCosts costs(hw);

  agent::AgentConfig agent_config;
  agent_config.max_groups = 32;

  // Pre-training set: four families; the unseen graph is Inception-v3
  // (branching structure absent from the pre-training set).
  struct Spec {
    models::ModelKind kind;
    int layers;
    double batch;
  };
  const Spec pretrain_set[] = {
      {models::ModelKind::kVgg19, 0, 96},
      {models::ModelKind::kResNet200, 0, 96},
      {models::ModelKind::kMobileNetV2, 0, 96},
      {models::ModelKind::kTransformer, 6, 256},
  };

  std::vector<graph::GraphDef> graphs;
  std::vector<agent::EncodedGraph> encoded;
  for (const auto& spec : pretrain_set) {
    graphs.push_back(models::build_training(spec.kind, spec.layers, spec.batch));
  }
  for (const auto& g : graphs) {
    encoded.push_back(agent::encode_graph(g, costs, agent_config.max_groups));
  }
  std::vector<const agent::EncodedGraph*> encoded_ptrs;
  for (const auto& e : encoded) encoded_ptrs.push_back(&e);

  rl::TrainConfig train_config;
  train_config.episodes = episodes;
  train_config.patience = 0;

  // Pre-train.
  agent::PolicyNetwork policy(devices.device_count(), agent_config);
  rl::Trainer trainer(costs, train_config);
  const auto t0 = std::chrono::steady_clock::now();
  double reward = 0.0;
  for (int round = 0; round < pretrain_rounds; ++round) {
    reward = trainer.pretrain_round(policy, encoded_ptrs);
  }
  const double pretrain_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  std::printf("Pre-trained on %zu graphs for %d rounds (%.1f s), final mean reward %.3f\n\n",
              graphs.size(), pretrain_rounds, pretrain_s, reward);

  // Unseen graph.
  const auto unseen = models::build_training(models::ModelKind::kInceptionV3, 0, 96);
  const auto unseen_encoded = agent::encode_graph(unseen, costs, agent_config.max_groups);

  // Fine-tune the pre-trained policy.
  auto t1 = std::chrono::steady_clock::now();
  rl::Trainer finetune_trainer(costs, train_config);
  const auto finetuned = finetune_trainer.search(policy, unseen_encoded);
  const double finetune_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t1).count();

  // Train a fresh policy from scratch.
  agent::PolicyNetwork fresh(devices.device_count(), agent_config);
  auto t2 = std::chrono::steady_clock::now();
  rl::Trainer scratch_trainer(costs, train_config);
  const auto scratch = scratch_trainer.search(fresh, unseen_encoded);
  const double scratch_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t2).count();

  std::printf("Unseen graph (Inception-v3):\n");
  std::printf("  fine-tune:     best %.1f ms, found at episode %d (%.1f s wall)\n",
              finetuned.best_time_ms, finetuned.episode_of_best, finetune_s);
  std::printf("  from scratch:  best %.1f ms, found at episode %d (%.1f s wall)\n",
              scratch.best_time_ms, scratch.episode_of_best, scratch_s);
  std::printf(
      "\nThe pre-trained policy reaches comparable quality while re-using structure\n"
      "learned from other graphs (paper Table 6: fine-tuning needs ~15-26%% of the\n"
      "from-scratch time).\n");
  return 0;
}

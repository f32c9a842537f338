#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <set>
#include <string>

#include "agent/features.h"
#include "core/heterog.h"
#include "models/models.h"
#include "obs/event_log.h"
#include "profiler/profiler.h"

namespace heterog {
namespace {

HeteroGConfig fast_config() {
  HeteroGConfig config;
  config.train.episodes = 6;
  config.train.samples_per_episode = 1;
  config.train.patience = 0;
  config.agent.max_groups = 16;
  return config;
}

TEST(Core, GetRunnerDeploysFeasiblePlan) {
  const auto runner = get_runner(
      [] { return models::build_forward(models::ModelKind::kMobileNetV2, 0, 96); },
      cluster::make_paper_testbed_8gpu(), fast_config());
  EXPECT_TRUE(runner.feasible());
  EXPECT_GT(runner.per_iteration_ms(), 0.0);
  EXPECT_FALSE(runner.strategy().group_actions.empty());
}

TEST(Core, RunAccumulatesSteps) {
  const auto runner = get_runner(
      [] { return models::build_forward(models::ModelKind::kMobileNetV2, 0, 96); },
      cluster::make_paper_testbed_8gpu(), fast_config());
  const RunStats stats = runner.run(100);
  EXPECT_EQ(stats.steps, 100);
  EXPECT_NEAR(stats.total_ms, 100.0 * stats.per_iteration_ms, 1e-6);
  EXPECT_GT(stats.computation_ms, 0.0);
  EXPECT_FALSE(stats.oom);
}

TEST(Core, HeuristicOnlyModeIsFastAndFeasible) {
  HeteroGConfig config = fast_config();
  config.search_with_rl = false;
  const auto runner = get_runner(
      [] { return models::build_forward(models::ModelKind::kVgg19, 0, 192); },
      cluster::make_paper_testbed_8gpu(), config);
  EXPECT_TRUE(runner.feasible());
}

// A heuristic-only get_runner runs exactly Trainer::search_heuristic on the
// profiled, encoded graph, and its event log carries that search's single
// search_end (planbench's traced pass reads its wall) and no RL events.
TEST(Core, HeuristicGetRunnerRunsSearchHeuristic) {
  const auto model = [] {
    return models::build_forward(models::ModelKind::kInceptionV3, 0, 96);
  };
  const cluster::ClusterSpec cluster = cluster::make_paper_testbed_8gpu();
  const std::filesystem::path log_path =
      std::filesystem::temp_directory_path() /
      ("heterog_core_heuristic_" + std::to_string(::getpid()) + ".jsonl");
  std::filesystem::remove(log_path);

  HeteroGConfig config = fast_config();
  config.search_with_rl = false;
  rl::SearchResult deployed;
  {
    obs::EventLog log(log_path.string());
    ASSERT_TRUE(log.ok());
    config.train.events = &log;
    deployed = get_runner(model, cluster, config).search_result();
  }

  const graph::GraphDef training = graph::build_training_graph(model());
  const profiler::HardwareModel hardware(cluster);
  profiler::Profiler prof(hardware, config.profiler_seed);
  const auto costs = prof.profile(training);
  const agent::EncodedGraph encoded =
      agent::encode_graph(training, *costs, config.agent.max_groups);
  rl::TrainConfig train = config.train;
  train.events = nullptr;
  const rl::SearchResult direct =
      rl::Trainer(*costs, train).search_heuristic(training, encoded.grouping);

  EXPECT_EQ(deployed.best_strategy.group_actions, direct.best_strategy.group_actions);
  EXPECT_EQ(deployed.best_time_ms, direct.best_time_ms);
  EXPECT_EQ(deployed.best_reward, direct.best_reward);
  EXPECT_EQ(deployed.best_feasible, direct.best_feasible);
  EXPECT_EQ(deployed.episodes_run, 0);
  EXPECT_EQ(deployed.episode_of_best, 0);
  EXPECT_TRUE(deployed.episode_best_ms.empty());
  EXPECT_EQ(deployed.eval_cache_hits, direct.eval_cache_hits);
  EXPECT_EQ(deployed.eval_cache_misses, direct.eval_cache_misses);
  EXPECT_GT(deployed.eval_cache_misses, 0u);

  int search_ends = 0;
  for (const obs::ParsedEvent& e : obs::read_events(log_path.string())) {
    EXPECT_NE(e.type, "search_start");
    EXPECT_NE(e.type, "search_phase");
    EXPECT_NE(e.type, "search_episode");
    if (e.type != "search_end") continue;
    ++search_ends;
    std::set<std::string> keys;
    for (const auto& [key, value] : e.fields) keys.insert(key);
    EXPECT_EQ(keys, (std::set<std::string>{"model", "episodes_run", "best_ms",
                                           "best_reward", "best_feasible",
                                           "episode_of_best", "cache_hits",
                                           "cache_misses", "wall_ms"}));
    EXPECT_EQ(e.str("model"), training.name());
    EXPECT_EQ(e.number("episodes_run", -1.0), 0.0);
    EXPECT_EQ(e.number("best_ms"), direct.best_time_ms);
    EXPECT_EQ(e.number("cache_misses"), static_cast<double>(direct.eval_cache_misses));
    EXPECT_GE(e.number("wall_ms", -1.0), 0.0);
  }
  EXPECT_EQ(search_ends, 1);
  std::filesystem::remove(log_path);
}

TEST(Core, BreakdownFractionsSumToOne) {
  const auto runner = get_runner(
      [] { return models::build_forward(models::ModelKind::kMobileNetV2, 0, 96); },
      cluster::make_paper_testbed_8gpu(), fast_config());
  const auto bd = runner.breakdown();
  double total = bd.ev_ps + bd.ev_ar + bd.cp_ps + bd.cp_ar;
  for (double f : bd.mp_fraction) total += f;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Core, OrderSchedulingKnobChangesPolicy) {
  HeteroGConfig with = fast_config();
  HeteroGConfig without = fast_config();
  without.use_order_scheduling = false;
  const auto runner_with = get_runner(
      [] { return models::build_forward(models::ModelKind::kInceptionV3, 0, 96); },
      cluster::make_paper_testbed_8gpu(), with);
  const auto runner_without = get_runner(
      [] { return models::build_forward(models::ModelKind::kInceptionV3, 0, 96); },
      cluster::make_paper_testbed_8gpu(), without);
  // HeteroG ordering must not be slower than FIFO.
  EXPECT_LE(runner_with.per_iteration_ms(), runner_without.per_iteration_ms() * 1.05);
}

TEST(Core, EmptyModelFuncRejected) {
  EXPECT_THROW(get_runner(std::function<graph::GraphDef()>(),
                          cluster::make_paper_testbed_8gpu(), fast_config()),
               CheckError);
}

TEST(Core, TwelveGpuClusterSupported) {
  const auto runner = get_runner(
      [] { return models::build_forward(models::ModelKind::kMobileNetV2, 0, 144); },
      cluster::make_paper_testbed_12gpu(), fast_config());
  EXPECT_TRUE(runner.feasible());
  EXPECT_EQ(runner.breakdown().mp_fraction.size(), 12u);
}

// A saved plan holds group actions only; evaluating it means rebuilding the
// grouping the planner used. profile_and_encode is that recipe: it groups
// on the profiled cost model, as get_runner does, not on ground truth (on
// Inception-v3 b32 the two put 70 of 380 ops in different groups).
TEST(Core, ProfileAndEncodeGroupsAsTheRunnerPlanned) {
  const cluster::ClusterSpec cluster = cluster::make_paper_testbed_8gpu();
  HeteroGConfig config = fast_config();
  config.search_with_rl = false;
  config.agent.max_groups = 48;
  const auto model = [] {
    return models::build_forward(models::ModelKind::kInceptionV3, 0, 32);
  };
  const auto runner = get_runner(model, cluster, config);
  const graph::GraphDef training = graph::build_training_graph(model());
  const PlannerInput input = profile_and_encode(training, cluster, config);
  EXPECT_EQ(input.encoded.grouping.assignment(), runner.grouping().assignment());

  const profiler::HardwareModel hardware(cluster);
  const profiler::GroundTruthCosts ground_truth(hardware);
  EXPECT_NE(strategy::Grouping::build(training, ground_truth, 48).assignment(),
            runner.grouping().assignment());
}

}  // namespace
}  // namespace heterog

// Golden pin for the policy network's numerics.
//
// A seeded three-episode REINFORCE search drives every nn kernel forward
// and backward, the Adam update and the action sampling. Its incumbent
// time, its plan, and hashes over the final parameter bytes and the final
// policy's logits are pinned to the values the straightforward nn loops
// produced, so a kernel change that moves a floating-point result fails
// here.
//
// This binary carries the `nn` ctest label and runs under ASan/UBSan in CI.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "agent/features.h"
#include "agent/policy.h"
#include "models/models.h"
#include "rl/trainer.h"
#include "strategy/serialize.h"
#include "test_util.h"

namespace heterog::rl {
namespace {

/// FNV-1a over the raw bytes of `m`, continuing from `h`.
uint64_t fnv1a(const nn::Matrix& m, uint64_t h = 14695981039346656037ull) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(m.data());
  const size_t n = static_cast<size_t>(m.size()) * sizeof(double);
  for (size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ull;
  }
  return h;
}

/// FNV-1a over every parameter value, in registration order.
uint64_t params_hash(const nn::ParameterSet& params) {
  uint64_t h = 14695981039346656037ull;
  for (const nn::Var& p : params.all()) h = fnv1a(p.value(), h);
  return h;
}

std::string exact(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// The plan text with its line breaks as spaces, so a pin fits on one line.
std::string one_line(std::string text) {
  for (char& ch : text) {
    if (ch == '\n') ch = ' ';
  }
  return text;
}

struct GoldenCase {
  const char* name;
  models::ModelKind kind;
  double batch;
  const char* best_time_ms;
  uint64_t params_fnv;
  uint64_t logits_fnv;
  const char* plan_text;  // one_line() of the v2 plan text
};

void run_golden(const GoldenCase& c) {
  SCOPED_TRACE(c.name);
  const cluster::ClusterSpec cluster = cluster::make_paper_testbed_8gpu();
  heterog::testing::TestRig rig(cluster);
  const auto graph = models::build_training(c.kind, 0, c.batch);

  agent::AgentConfig agent_config;
  const auto encoded = agent::encode_graph(graph, *rig.costs, agent_config.max_groups);
  agent::PolicyNetwork policy(cluster.device_count(), agent_config);

  TrainConfig config;
  config.episodes = 3;
  config.threads = 1;
  Trainer trainer(*rig.costs, config);
  const SearchResult result = trainer.search(policy, encoded);
  nn::Tape tape;
  const uint64_t logits_fnv = fnv1a(policy.forward(tape, encoded).logits.value());

  EXPECT_EQ(exact(result.best_time_ms), c.best_time_ms);
  EXPECT_EQ(params_hash(policy.params()), c.params_fnv);
  EXPECT_EQ(logits_fnv, c.logits_fnv);
  EXPECT_EQ(one_line(strategy::to_text(result.best_strategy, cluster)), c.plan_text);
}

TEST(NnGolden, MobileNetV2SearchPinned) {
  run_golden({"mobilenet_v2/b64", models::ModelKind::kMobileNetV2, 64.0,
              "48.238556359494787", 0x860b4cc858228b97ull, 0x34968e4dd8667bf0ull,
              "heterog-plan v2 cluster 9301c32f devices 8 groups 48 "
              "10 11 10 11 10 11 10 11 10 11 10 11 10 11 10 11 10 11 10 11 10 11 10 11 "
              "10 11 10 11 10 11 10 11 10 11 10 11 10 11 10 11 10 11 10 11 10 11 10 11 "
              "crc 69668886 "});
}

TEST(NnGolden, InceptionV3SearchPinned) {
  run_golden({"inception_v3/b32", models::ModelKind::kInceptionV3, 32.0,
              "82.391575556642621", 0x910dab4049931e4eull, 0x806802e72be48f24ull,
              "heterog-plan v2 cluster 9301c32f devices 8 groups 48 "
              "10 11 10 11 10 11 10 11 10 11 10 11 10 11 10 11 10 11 10 11 10 11 10 11 "
              "10 11 10 11 10 11 10 11 10 11 11 11 10 11 10 11 10 11 10 11 10 11 10 11 "
              "crc 81711827 "});
}

}  // namespace
}  // namespace heterog::rl

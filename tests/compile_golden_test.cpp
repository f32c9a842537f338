// Golden wall for the Graph Compiler's output and its evaluation.
//
// Every heuristic warm-start candidate (rl::Trainer::heuristic_candidates)
// of five cases is compiled, single-iteration and 2-step unrolled, under the
// grouping heterog::profile_and_encode builds, and digested. Three cases are
// (model, cluster) pairs under the default compiler options; two more run
// MobileNet-v2 on the 8-GPU testbed with Horovod-style gradient fusion on
// and with every PS group forced onto the slowest GPU (Fig. 2(a)), the two
// compiler paths the defaults never reach. The first digest covers every
// node's fields in id order (names included), its successors and
// predecessors in stored order, and the static parameter bytes. A second digest covers evaluate_plan's cold and per-iteration time
// bits, chosen order and peak-memory vector; a third covers encode_graph's
// feature matrix. A change to the compiler's data layout, the simulator or
// the encoder must leave all three unchanged; a change meant to move plans
// re-records them on purpose and says so.
//
// ctest label: compile
#include <cstdint>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "cluster/topology.h"
#include "common/hash.h"
#include "compile/compiler.h"
#include "core/heterog.h"
#include "graph/training.h"
#include "models/models.h"
#include "rl/trainer.h"
#include "sim/plan_eval.h"

namespace heterog {
namespace {

void mix_graph(Hash64& h, const compile::DistGraph& graph) {
  h.mix(static_cast<uint64_t>(graph.node_count()));
  for (compile::DistNodeId id = 0; id < graph.node_count(); ++id) {
    const compile::DistNode node = graph.node(id);
    h.mix_signed(node.id);
    h.mix_string(node.name);
    h.mix(static_cast<uint64_t>(node.kind));
    h.mix_signed(node.device);
    h.mix_signed(node.link_from);
    h.mix_signed(node.link_to);
    h.mix(node.participants.size());
    for (const auto d : node.participants) h.mix_signed(d);
    h.mix_double(node.duration_ms);
    h.mix_signed(node.output_bytes);
    h.mix_signed(node.origin);
    h.mix(static_cast<uint64_t>(node.op_kind));
    h.mix(static_cast<uint64_t>(node.role));
    h.mix_signed(node.replica_index);
    const auto& succ = graph.successors(id);
    h.mix(succ.size());
    for (const auto s : succ) h.mix_signed(s);
    const auto& pred = graph.predecessors(id);
    h.mix(pred.size());
    for (const auto p : pred) h.mix_signed(p);
  }
  const auto& params = graph.static_param_bytes();
  h.mix(params.size());
  for (const auto b : params) h.mix_signed(b);
}

void mix_evaluation(Hash64& h, const sim::PlanEvaluation& eval) {
  h.mix_double(eval.cold_iteration_ms);
  h.mix_double(eval.per_iteration_ms);
  h.mix(static_cast<uint64_t>(eval.order));
  h.mix(eval.peak_memory_bytes.size());
  for (const auto b : eval.peak_memory_bytes) h.mix_signed(b);
}

struct Digests {
  uint64_t graphs = 0;
  uint64_t evaluations = 0;
  uint64_t features = 0;
  size_t candidates = 0;
};

Digests digest_case(models::ModelKind kind, double batch, const cluster::ClusterSpec& cluster,
                    const compile::CompilerOptions& options = {}) {
  const graph::GraphDef training = models::build_training(kind, 0, batch);
  const PlannerInput input = profile_and_encode(training, cluster, HeteroGConfig{});
  const strategy::Grouping& grouping = input.encoded.grouping;
  const rl::Trainer trainer(*input.costs, rl::TrainConfig{});
  const auto candidates = trainer.heuristic_candidates(training, grouping);

  const graph::GraphDef unrolled_graph = graph::unroll_iterations(training, 2);
  const strategy::Grouping unrolled_grouping = strategy::Grouping::unroll(grouping, 2);
  const compile::GraphCompiler compiler(*input.costs, options);
  sim::PlanEvalOptions eval_options;
  eval_options.compiler = options;
  Hash64 graphs;
  Hash64 evaluations;
  for (const auto& candidate : candidates) {
    mix_graph(graphs, compiler.compile(training, grouping, candidate).graph);
    mix_graph(graphs,
              compiler.compile(unrolled_graph, unrolled_grouping, candidate).graph);
    mix_evaluation(evaluations,
                   sim::evaluate_plan(*input.costs, training, grouping, candidate,
                                      eval_options));
  }

  Hash64 features;
  const nn::Matrix& matrix = input.encoded.features;
  features.mix(static_cast<uint64_t>(matrix.rows()));
  features.mix(static_cast<uint64_t>(matrix.cols()));
  for (int r = 0; r < matrix.rows(); ++r) {
    for (int c = 0; c < matrix.cols(); ++c) features.mix_double(matrix.at(r, c));
  }
  return {graphs.digest(), evaluations.digest(), features.digest(), candidates.size()};
}

void expect_golden(const std::string& name, const Digests& got, const Digests& want) {
  SCOPED_TRACE(name);
  std::printf("%s: candidates %zu graphs 0x%016llxULL evaluations 0x%016llxULL "
              "features 0x%016llxULL\n",
              name.c_str(), got.candidates, static_cast<unsigned long long>(got.graphs),
              static_cast<unsigned long long>(got.evaluations),
              static_cast<unsigned long long>(got.features));
  EXPECT_EQ(got.candidates, want.candidates);
  EXPECT_EQ(got.graphs, want.graphs);
  EXPECT_EQ(got.evaluations, want.evaluations);
  EXPECT_EQ(got.features, want.features);
}

TEST(CompileGolden, MobileNetV2On8Gpu) {
  expect_golden("mobilenet_v2 b64 8gpu",
                digest_case(models::ModelKind::kMobileNetV2, 64.0,
                            cluster::make_paper_testbed_8gpu()),
                {0xf121bdaf71c9dfa4ULL, 0xced4934fccfd8e16ULL, 0xa0742caa3fca8b88ULL, 15});
}

TEST(CompileGolden, InceptionV3On8Gpu) {
  expect_golden("inception_v3 b32 8gpu",
                digest_case(models::ModelKind::kInceptionV3, 32.0,
                            cluster::make_paper_testbed_8gpu()),
                {0x7e1ca21cd93a42feULL, 0x71b852e81ce20ef8ULL, 0x14ac7217e9947f59ULL, 15});
}

TEST(CompileGolden, Vgg19OnPod64) {
  expect_golden("vgg19 b128 pod64",
                digest_case(models::ModelKind::kVgg19, 128.0,
                            cluster::generate_cluster(*cluster::topo_preset("pod64"))),
                {0xd750ccd700947812ULL, 0x52b6e9044004aba3ULL, 0x05215910ea859bc8ULL, 15});
}

TEST(CompileGolden, MobileNetV2On8GpuFused) {
  compile::CompilerOptions options;
  options.allreduce_fusion_bytes = 64LL << 20;  // the Horovod baseline's setting
  expect_golden("mobilenet_v2 b64 8gpu fused",
                digest_case(models::ModelKind::kMobileNetV2, 64.0,
                            cluster::make_paper_testbed_8gpu(), options),
                {0x6d8b40c9afa904a6ULL, 0x20ff6f84548e06e5ULL, 0xa0742caa3fca8b88ULL, 15});
}

TEST(CompileGolden, MobileNetV2On8GpuForcedPs) {
  const cluster::ClusterSpec cluster = cluster::make_paper_testbed_8gpu();
  compile::CompilerOptions options;
  for (const auto& d : cluster.devices()) {
    if (options.forced_ps_device < 0 ||
        d.gflops_per_ms < cluster.device(options.forced_ps_device).gflops_per_ms) {
      options.forced_ps_device = d.id;  // the slowest GPU, lowest id on ties
    }
  }
  expect_golden("mobilenet_v2 b64 8gpu forced ps",
                digest_case(models::ModelKind::kMobileNetV2, 64.0, cluster, options),
                {0x2af0fba13717ab90ULL, 0x196a28bbd50a3472ULL, 0xa0742caa3fca8b88ULL, 15});
}

}  // namespace
}  // namespace heterog

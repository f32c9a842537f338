// Allocation wall for the Graph Compiler: global operator new calls per
// compiled node, counted while compiling every heuristic warm-start
// candidate of the three default CompileGolden cases, single-iteration and
// 2-step unrolled, under the options evaluate_plan compiles with (no node
// names, no validation). A compile allocates a few arrays per pass; a map, a
// set or a per-node temporary back on a per-op or per-parameter path pushes
// the count past the bound.
//
// This binary replaces the global operator new, so it holds this test alone.
// ctest label: compile
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "cluster/topology.h"
#include "compile/compiler.h"
#include "core/heterog.h"
#include "graph/training.h"
#include "models/models.h"
#include "rl/trainer.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

}  // namespace

// Every unaligned form, so that under a sanitizer no pointer crosses
// between its allocator and this one (std::stable_sort's buffer comes from
// the nothrow form); out of line, so that no inlined free() meets a
// new-expression's pointer.
[[gnu::noinline]] void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
[[gnu::noinline]] void* operator new(std::size_t size) {
  if (void* p = ::operator new(size, std::nothrow)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t size) { return ::operator new(size); }
[[gnu::noinline]] void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return ::operator new(size, std::nothrow);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace heterog {
namespace {

/// operator new calls per node of the compiled graphs.
double allocations_per_node(models::ModelKind kind, double batch,
                            const cluster::ClusterSpec& cluster) {
  const graph::GraphDef training = models::build_training(kind, 0, batch);
  const PlannerInput input = profile_and_encode(training, cluster, HeteroGConfig{});
  const strategy::Grouping& grouping = input.encoded.grouping;
  const rl::Trainer trainer(*input.costs, rl::TrainConfig{});
  const auto candidates = trainer.heuristic_candidates(training, grouping);
  const graph::GraphDef unrolled_graph = graph::unroll_iterations(training, 2);
  const strategy::Grouping unrolled_grouping = strategy::Grouping::unroll(grouping, 2);

  compile::CompilerOptions options;
  options.emit_node_names = false;
  options.validate_output = false;
  const compile::GraphCompiler compiler(*input.costs, options);
  uint64_t allocations = 0;
  uint64_t nodes = 0;
  for (const auto& candidate : candidates) {
    for (const bool unrolled : {false, true}) {
      const uint64_t before = g_allocations.load(std::memory_order_relaxed);
      const compile::CompileResult result =
          unrolled ? compiler.compile(unrolled_graph, unrolled_grouping, candidate)
                   : compiler.compile(training, grouping, candidate);
      allocations += g_allocations.load(std::memory_order_relaxed) - before;
      nodes += static_cast<uint64_t>(result.graph.node_count());
    }
  }
  const double per_node = static_cast<double>(allocations) / static_cast<double>(nodes);
  std::printf("%zu candidates: %llu allocations over %llu nodes, %.3f per node\n",
              candidates.size(), static_cast<unsigned long long>(allocations),
              static_cast<unsigned long long>(nodes), per_node);
  return per_node;
}

// Bounds: a quarter of what the compiler made before its passes moved onto
// flat scratch (2.52, 2.46 and 1.18 per node).
TEST(CompileAllocations, MobileNetV2On8Gpu) {
  EXPECT_LE(allocations_per_node(models::ModelKind::kMobileNetV2, 64.0,
                                 cluster::make_paper_testbed_8gpu()),
            0.63);
}

TEST(CompileAllocations, InceptionV3On8Gpu) {
  EXPECT_LE(allocations_per_node(models::ModelKind::kInceptionV3, 32.0,
                                 cluster::make_paper_testbed_8gpu()),
            0.61);
}

TEST(CompileAllocations, Vgg19OnPod64) {
  EXPECT_LE(allocations_per_node(models::ModelKind::kVgg19, 128.0,
                                 cluster::generate_cluster(*cluster::topo_preset("pod64"))),
            0.29);
}

}  // namespace
}  // namespace heterog

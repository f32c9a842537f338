// Serial vs parallel strategy search: wall-clock speedup of the memoized
// EvalEngine at 1/2/4 worker threads, plus cache traffic. The plans are
// bit-identical across thread counts (tests/eval_engine_test.cpp pins it);
// this bench reports the identical best time once and the wall clock per
// thread count. Knobs: HETEROG_EPISODES (default 30 here — the search cost
// is what's measured, not plan quality), HETEROG_BENCH_FAST, and
// HETEROG_PLAN_STORE=DIR which adds two serial rows backed by the durable
// plan store (cold: populates DIR; warm: re-runs the same search answered
// from disk — the "store hits" column shows the cross-run traffic).
#include <chrono>
#include <thread>

#include "bench_util.h"
#include "store/plan_store.h"

using namespace heterog;
using namespace heterog::bench;

namespace {

struct BenchCase {
  const char* name;
  models::ModelKind kind;
  int layers;
  double batch;
};

double wall_ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main() {
  print_header("Parallel, memoized plan evaluation: search speedup by thread count",
               "EvalEngine (DESIGN.md \"Parallel evaluation & memoization\")");

  const BenchCase cases[] = {
      {"MobileNet-v2 (b64)", models::ModelKind::kMobileNetV2, 0, 64.0},
      {"Inception-v3 (b32)", models::ModelKind::kInceptionV3, 0, 32.0},
      {"Bert-large 48L (b24)", models::ModelKind::kBertLarge, 48, 24.0},
  };
  const int search_episodes =
      env_int("HETEROG_EPISODES", fast_mode() ? 8 : 30, 0, kNoLimit);
  const int thread_counts[] = {1, 2, 4};
  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("host cores: %u%s\nsearch episodes: %d\n\n", cores,
              cores < 4 ? "  (speedup is core-bound: >1x needs >1 core; "
                          "the plans stay identical regardless)"
                        : "",
              search_episodes);

  // HETEROG_PLAN_STORE=DIR adds store-backed serial rows (cold then warm).
  const char* store_dir = std::getenv("HETEROG_PLAN_STORE");
  std::unique_ptr<store::PlanStore> plan_store;
  if (store_dir != nullptr && *store_dir != '\0') {
    store::PlanStoreOptions store_options;
    store_options.dir = store_dir;
    store_options.metrics = &obs::MetricsRegistry::global();
    plan_store = std::make_unique<store::PlanStore>(store_options);
  }
  constexpr size_t kCacheCapacity = 4096;

  BenchRig rig(cluster::make_paper_testbed_8gpu());
  TextTable table({"model", "threads", "search wall (ms)", "speedup vs serial/uncached",
                   "cache hits", "cache misses", "store hits", "best (ms)"});

  for (const auto& c : cases) {
    const auto graph = models::build_training(c.kind, c.layers, c.batch);
    const auto encoded = agent::encode_graph(graph, *rig.costs, max_groups());
    double serial_ms = 0.0;
    bool first_row = true;
    auto time_search = [&](int threads, size_t cache_capacity, const char* label,
                           store::PlanStore* store) {
      rl::TrainConfig config;
      config.episodes = search_episodes;
      config.patience = 0;
      config.threads = threads;
      config.eval_cache_capacity = cache_capacity;
      config.plan_store = store;

      agent::AgentConfig agent_config;
      agent_config.max_groups = max_groups();
      agent::PolicyNetwork policy(rig.cluster.device_count(), agent_config);
      rl::Trainer trainer(*rig.costs, config);

      const auto t0 = std::chrono::steady_clock::now();
      const auto result = trainer.search(policy, encoded);
      const double wall = wall_ms_since(t0);
      if (serial_ms == 0.0) serial_ms = wall;  // first row = the baseline

      table.add_row({first_row ? c.name : "", label, fmt_double(wall, 0),
                     fmt_double(serial_ms / wall, 2) + "x",
                     std::to_string(result.eval_cache_hits),
                     std::to_string(result.eval_cache_misses),
                     store != nullptr ? std::to_string(result.eval_store_hits) : "-",
                     fmt_double(result.best_time_ms, 1)});
      first_row = false;
    };
    time_search(1, 0, "1 (no cache)", nullptr);
    for (const int threads : thread_counts) {
      time_search(threads, kCacheCapacity, std::to_string(threads).c_str(), nullptr);
    }
    if (plan_store != nullptr) {
      time_search(1, kCacheCapacity, "1 +store (cold)", plan_store.get());
      time_search(1, kCacheCapacity, "1 +store (warm)", plan_store.get());
    }
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "Same seed => same plan at every thread count; speedup is wall clock only.\n"
      "Cache hits are evaluations answered without compile+simulate.\n\n");

  if (plan_store != nullptr) {
    plan_store->flush();
    const store::PlanStoreStats store_stats = plan_store->stats();
    std::printf(
        "Plan store %s: %llu cross-run hit(s), %llu record(s), generation %llu.\n",
        store_dir, static_cast<unsigned long long>(store_stats.hits),
        static_cast<unsigned long long>(plan_store->size()),
        static_cast<unsigned long long>(store_stats.generation));
  }

  BenchConfig config;
  config.emplace_back("episodes", std::to_string(search_episodes));
  config.emplace_back("max_groups", std::to_string(max_groups()));
  config.emplace_back("eval_cache_capacity", std::to_string(kCacheCapacity));
  config.emplace_back("threads", "[1,2,4]");
  config.emplace_back("plan_store",
                      plan_store != nullptr ? config_str(store_dir)
                                            : std::string("null"));
  write_bench_json("eval_engine", config);
  return 0;
}

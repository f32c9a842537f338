// Unified observability tests (docs/observability.md).
//
// Covers the metrics registry (bucket-edge semantics, concurrency under the
// TSan `obs` ctest label, scoped timers), the JSONL event log (envelope,
// scalar round-trips, malformed-input rejection), the report renderer
// (aggregation matches the SearchResult the search returned), and the two
// structural guarantees of the layer: attaching telemetry never changes a
// search result (bit-identical pin), and docs/observability.md documents
// exactly the event vocabulary the code can emit.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "agent/policy.h"
#include "cluster/topology.h"
#include "core/heterog.h"
#include "models/models.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "rl/trainer.h"
#include "test_util.h"

namespace heterog::obs {
namespace {

namespace fs = std::filesystem;

std::string temp_path(const char* name) {
  return (fs::temp_directory_path() / name).string();
}

// ---------------------------------------------------------------------------
// MetricsRegistry

TEST(MetricsRegistry, CountersGaugesAndSnapshots) {
  MetricsRegistry registry;
  registry.add("obs.events.count");
  registry.add("obs.events.count", 4);
  registry.set("sim.device_util_mean.ratio", 0.5);
  registry.set("sim.device_util_mean.ratio", 0.75);  // last write wins

  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("obs.events.count"), 5u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("sim.device_util_mean.ratio"), 0.75);

  registry.clear();
  EXPECT_TRUE(registry.snapshot().counters.empty());
  EXPECT_TRUE(registry.snapshot().gauges.empty());
}

TEST(MetricsRegistry, HistogramBucketEdges) {
  MetricsRegistry registry;
  registry.define_histogram("t.lat.ms", {1.0, 2.0, 4.0});

  // v lands in the first bucket with v <= upper_bounds[i]; the edge itself
  // belongs to the bucket it bounds.
  registry.observe("t.lat.ms", 0.5);   // bucket 0
  registry.observe("t.lat.ms", 1.0);   // bucket 0 (edge inclusive)
  registry.observe("t.lat.ms", 1.5);   // bucket 1
  registry.observe("t.lat.ms", 4.0);   // bucket 2 (edge inclusive)
  registry.observe("t.lat.ms", 99.0);  // overflow

  const HistogramSnapshot h = registry.snapshot().histograms.at("t.lat.ms");
  ASSERT_EQ(h.upper_bounds.size(), 3u);
  ASSERT_EQ(h.counts.size(), 4u);  // bounds + overflow
  EXPECT_EQ(h.counts[0], 2u);
  EXPECT_EQ(h.counts[1], 1u);
  EXPECT_EQ(h.counts[2], 1u);
  EXPECT_EQ(h.counts[3], 1u);
  EXPECT_EQ(h.count, 5u);
  EXPECT_DOUBLE_EQ(h.min, 0.5);
  EXPECT_DOUBLE_EQ(h.max, 99.0);
  EXPECT_DOUBLE_EQ(h.sum, 0.5 + 1.0 + 1.5 + 4.0 + 99.0);
  EXPECT_DOUBLE_EQ(h.mean(), h.sum / 5.0);
}

TEST(MetricsRegistry, ObserveWithoutDefineUsesDefaultBounds) {
  MetricsRegistry registry;
  registry.observe("x.y.ms", 3.0);
  const HistogramSnapshot h = registry.snapshot().histograms.at("x.y.ms");
  EXPECT_EQ(h.upper_bounds, default_histogram_bounds());
  EXPECT_EQ(h.count, 1u);
}

TEST(MetricsRegistry, DefineHistogramRejectsBadBounds) {
  MetricsRegistry registry;
  EXPECT_THROW(registry.define_histogram("bad.bounds.ms", {}), std::exception);
  EXPECT_THROW(registry.define_histogram("bad.bounds.ms", {2.0, 1.0}),
               std::exception);
}

// The TSan `obs` ctest label exists for this test: every registry entry
// point hammered from many threads at once.
TEST(MetricsRegistry, ConcurrentMutationIsSafeAndLosesNothing) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kOps = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t] {
      for (int i = 0; i < kOps; ++i) {
        registry.add("c.total.count");
        registry.set("g.last.ms", static_cast<double>(t));
        registry.observe("h.lat.ms", static_cast<double>(i % 7));
        if (i % 64 == 0) (void)registry.snapshot();  // readers race writers
      }
    });
  }
  for (auto& t : threads) t.join();

  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("c.total.count"),
            static_cast<uint64_t>(kThreads) * kOps);
  EXPECT_EQ(snap.histograms.at("h.lat.ms").count,
            static_cast<uint64_t>(kThreads) * kOps);
  EXPECT_GE(snap.gauges.at("g.last.ms"), 0.0);
  EXPECT_LT(snap.gauges.at("g.last.ms"), static_cast<double>(kThreads));
}

TEST(ScopedTimer, RecordsElapsedOnceIntoHistogram) {
  MetricsRegistry registry;
  {
    ScopedTimer timer(registry, "t.scope.ms");
    EXPECT_GE(timer.elapsed_ms(), 0.0);
  }
  EXPECT_EQ(registry.snapshot().histograms.at("t.scope.ms").count, 1u);

  ScopedTimer timer(registry, "t.scope.ms");
  const double recorded = timer.stop();
  EXPECT_GE(recorded, 0.0);
  // stop() disarms the destructor: only one more observation.
  EXPECT_EQ(registry.snapshot().histograms.at("t.scope.ms").count, 2u);
}

TEST(MetricsSnapshot, JsonIsDeterministic) {
  MetricsRegistry a, b;
  for (MetricsRegistry* r : {&a, &b}) {
    r->add("z.last.count", 2);
    r->add("a.first.count", 1);
    r->set("m.gauge.ratio", 0.25);
    r->define_histogram("h.lat.ms", {1.0, 10.0});
    r->observe("h.lat.ms", 0.5);
  }
  EXPECT_EQ(a.snapshot().to_json(), b.snapshot().to_json());
  EXPECT_NE(a.snapshot().to_json().find("\"a.first.count\":1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// EventLog

TEST(EventLog, RejectsUndocumentedEventTypes) {
  EXPECT_THROW(Event("totally_new_event"), std::exception);
  for (const std::string& type : all_event_types()) {
    EXPECT_NO_THROW(Event{type});
  }
}

TEST(EventLog, JsonlRoundTripPreservesEveryScalarKind) {
  const std::string path = temp_path("obs_roundtrip.jsonl");
  {
    EventLog log(path);
    ASSERT_TRUE(log.ok());
    log.emit(Event("search_episode")
                 .with("episode", 7)
                 .with("best_ms", 412.6251823471)
                 .with("best_feasible", true)
                 .with("cache_hits", static_cast<uint64_t>(123456789012345ull))
                 .with("wall_ms", -0.5));
    log.emit(Event("run_checkpoint")
                 .with("path", "dir/with \"quotes\" and \\slashes\\\n")
                 .with("ok", false));
    EXPECT_EQ(log.events_emitted(), 2u);
  }

  const std::vector<ParsedEvent> events = read_events(path);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].version, EventLog::kSchemaVersion);
  EXPECT_EQ(events[0].seq, 0u);
  EXPECT_EQ(events[1].seq, 1u);
  EXPECT_EQ(events[0].type, "search_episode");
  EXPECT_DOUBLE_EQ(events[0].number("episode"), 7.0);
  // Doubles survive the write -> parse round trip bit-exactly (the writer
  // emits shortest-round-trip decimal).
  EXPECT_EQ(events[0].number("best_ms"), 412.6251823471);
  EXPECT_EQ(events[0].number("best_feasible"), 1.0);
  EXPECT_EQ(events[0].number("cache_hits"), 123456789012345.0);
  EXPECT_EQ(events[0].number("wall_ms"), -0.5);
  EXPECT_EQ(events[1].str("path"), "dir/with \"quotes\" and \\slashes\\\n");
  EXPECT_EQ(events[1].number("ok"), 0.0);
  EXPECT_EQ(events[1].number("missing", -3.0), -3.0);
  fs::remove(path);
}

TEST(EventLog, NonFiniteDoublesRoundTrip) {
  // NaN has no shortest round-trip form; it is written "nan", as infinity
  // is written "inf", so the line stays readable.
  const std::string path = temp_path("obs_nonfinite.jsonl");
  {
    EventLog log(path);
    ASSERT_TRUE(log.ok());
    log.emit(Event("schedule")
                 .with("makespan_ms", std::numeric_limits<double>::quiet_NaN())
                 .with("comm_ms", std::numeric_limits<double>::infinity())
                 .with("compute_ms", -std::numeric_limits<double>::infinity()));
  }
  const std::vector<ParsedEvent> events = read_events(path);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].str("makespan_ms"), "nan");
  EXPECT_TRUE(std::isnan(events[0].number("makespan_ms")));
  EXPECT_EQ(events[0].number("comm_ms"), std::numeric_limits<double>::infinity());
  EXPECT_EQ(events[0].number("compute_ms"), -std::numeric_limits<double>::infinity());
  fs::remove(path);
}

TEST(EventLog, UnopenableSinkDegradesWithoutThrowing) {
  EventLog log("/no/such/directory/events.jsonl");
  EXPECT_FALSE(log.ok());
  EXPECT_NO_THROW(log.emit(Event("run_start").with("steps", 1)));
  EXPECT_EQ(log.events_emitted(), 0u);
}

TEST(EventLog, ReaderRejectsMalformedLines) {
  const std::string path = temp_path("obs_malformed.jsonl");
  const auto write = [&](const std::string& text) {
    std::ofstream out(path, std::ios::trunc);
    out << text;
  };

  write("not json at all\n");
  EXPECT_THROW(read_events(path), EventLogError);
  write("{\"v\":1,\"seq\":0}\n");  // no type
  EXPECT_THROW(read_events(path), EventLogError);
  write("{\"v\":999,\"seq\":0,\"type\":\"run_start\"}\n");  // future schema
  EXPECT_THROW(read_events(path), EventLogError);
  write("{\"v\":1,\"seq\":0,\"type\":\"run_start\",\"nested\":{\"x\":1}}\n");
  EXPECT_THROW(read_events(path), EventLogError);
  EXPECT_THROW(read_events("/no/such/file.jsonl"), EventLogError);
  fs::remove(path);
}

TEST(EventLog, ReaderReadsNumbersInFull) {
  const std::string path = temp_path("obs_numbers.jsonl");
  const auto write = [&](const std::string& text) {
    std::ofstream out(path, std::ios::trunc);
    out << text;
  };
  const auto rejected_on_line_2 = [&](const std::string& line) {
    write("{\"v\":1,\"seq\":0,\"type\":\"run_start\"}\n" + line + "\n");
    try {
      read_events(path);
    } catch (const EventLogError& e) {
      return std::string(e.what()).find("line 2:") != std::string::npos;
    }
    return false;
  };

  EXPECT_TRUE(rejected_on_line_2("{\"v\":1x,\"seq\":1,\"type\":\"run_start\"}"));
  EXPECT_TRUE(rejected_on_line_2("{\"v\":1,\"seq\":7abc,\"type\":\"run_start\"}"));
  EXPECT_TRUE(rejected_on_line_2(
      "{\"v\":1,\"seq\":1,\"type\":\"schedule\",\"makespan_ms\":12.5ms}"));
  EXPECT_TRUE(rejected_on_line_2("{\"v\":0,\"seq\":1,\"type\":\"run_start\"}"));
  EXPECT_TRUE(rejected_on_line_2("{\"v\":\"1\",\"seq\":1,\"type\":\"run_start\"}"));
  EXPECT_TRUE(rejected_on_line_2("{\"v\":1,\"seq\":-1,\"type\":\"run_start\"}"));
  EXPECT_TRUE(rejected_on_line_2("{\"v\":1,\"seq\":+1,\"type\":\"run_start\"}"));
  EXPECT_TRUE(rejected_on_line_2("{\"v\":1,\"seq\":1,\"type\":\"run_start\",\"ok\":yes}"));

  // Every scalar the writer emits still reads back, the extremes included.
  {
    EventLog log(path);
    ASSERT_TRUE(log.ok());
    log.emit(Event("schedule")
                 .with("makespan_ms", std::numeric_limits<double>::quiet_NaN())
                 .with("comm_ms", -std::numeric_limits<double>::infinity())
                 .with("compute_ms", std::numeric_limits<double>::denorm_min())
                 .with("devices", std::numeric_limits<int64_t>::min())
                 .with("feasible", true));
  }
  const std::vector<ParsedEvent> events = read_events(path);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_TRUE(std::isnan(events[0].number("makespan_ms")));
  EXPECT_EQ(events[0].number("comm_ms"), -std::numeric_limits<double>::infinity());
  EXPECT_EQ(events[0].number("compute_ms"), std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(events[0].number("devices"), -9223372036854775808.0);
  EXPECT_EQ(events[0].number("feasible"), 1.0);
  fs::remove(path);
}

TEST(EventLog, ConcurrentEmitsNeverTearLines) {
  const std::string path = temp_path("obs_concurrent.jsonl");
  constexpr int kThreads = 8;
  constexpr int kEvents = 500;
  {
    EventLog log(path);
    ASSERT_TRUE(log.ok());
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&log, t] {
        for (int i = 0; i < kEvents; ++i) {
          log.emit(Event("run_step").with("step", i).with("step_ms", t + 0.25));
        }
      });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(log.events_emitted(), static_cast<uint64_t>(kThreads) * kEvents);
  }

  // Every line parses and the per-log seq is a permutation of 0..N-1.
  const std::vector<ParsedEvent> events = read_events(path);
  ASSERT_EQ(events.size(), static_cast<size_t>(kThreads) * kEvents);
  std::set<uint64_t> seqs;
  for (const ParsedEvent& e : events) {
    EXPECT_EQ(e.type, "run_step");
    seqs.insert(e.seq);
  }
  EXPECT_EQ(seqs.size(), events.size());
  EXPECT_EQ(*seqs.rbegin(), events.size() - 1);
  fs::remove(path);
}

// ---------------------------------------------------------------------------
// Report pipeline

class ObsSearchTest : public ::testing::Test {
 protected:
  heterog::testing::TestRig rig_{cluster::make_paper_testbed_8gpu()};
  graph::GraphDef graph_ = heterog::testing::make_toy_training_graph();

  rl::TrainConfig fast_config() const {
    rl::TrainConfig config;
    config.episodes = 6;
    config.samples_per_episode = 2;
    config.patience = 0;
    config.polish_moves = 8;
    return config;
  }

  rl::SearchResult run_search(const rl::TrainConfig& config) const {
    agent::AgentConfig agent_config;
    agent_config.max_groups = 16;
    agent::PolicyNetwork policy(rig_.cluster.device_count(), agent_config);
    const auto encoded = agent::encode_graph(graph_, *rig_.costs, 16);
    rl::Trainer trainer(*rig_.costs, config);
    return trainer.search(policy, encoded);
  }
};

// The acceptance pin: the report a JSONL log renders must agree with the
// SearchResult the search returned — episode count, best reward, cache
// hit-rate.
TEST_F(ObsSearchTest, ReportMatchesSearchResult) {
  const std::string path = temp_path("obs_search.jsonl");
  rl::TrainConfig config = fast_config();
  EventLog log(path);
  ASSERT_TRUE(log.ok());
  config.events = &log;
  const rl::SearchResult result = run_search(config);
  log.flush();

  const ReportSummary summary = summarize_events({path});
  ASSERT_TRUE(summary.has_search);
  EXPECT_EQ(summary.search_episodes, result.episodes_run);
  EXPECT_EQ(summary.best_time_ms, result.best_time_ms);
  EXPECT_EQ(summary.best_reward, result.best_reward);
  EXPECT_EQ(summary.best_feasible, result.best_feasible);
  EXPECT_EQ(summary.episode_of_best, result.episode_of_best);
  EXPECT_EQ(summary.cache_hits, result.eval_cache_hits);
  EXPECT_EQ(summary.cache_misses, result.eval_cache_misses);
  const uint64_t total = result.eval_cache_hits + result.eval_cache_misses;
  ASSERT_GT(total, 0u);
  EXPECT_DOUBLE_EQ(summary.cache_hit_rate(),
                   static_cast<double>(result.eval_cache_hits) / total);

  // One search_episode event per episode run, and the renderer shows the
  // headline numbers.
  int episode_events = 0;
  for (const ParsedEvent& e : read_events(path)) {
    if (e.type == "search_episode") ++episode_events;
  }
  EXPECT_EQ(episode_events, result.episodes_run);
  const std::string rendered = render_report(summary);
  EXPECT_NE(rendered.find("episodes run"), std::string::npos);
  EXPECT_NE(rendered.find(std::to_string(result.episodes_run)), std::string::npos);
  fs::remove(path);
}

// The write-only invariant: attaching an EventLog never changes the search.
TEST_F(ObsSearchTest, SearchIsBitIdenticalWithAndWithoutMetrics) {
  const std::string path = temp_path("obs_pin.jsonl");
  const rl::SearchResult plain = run_search(fast_config());

  rl::TrainConfig with_events = fast_config();
  EventLog log(path);
  ASSERT_TRUE(log.ok());
  with_events.events = &log;
  const rl::SearchResult logged = run_search(with_events);

  EXPECT_EQ(plain.best_time_ms, logged.best_time_ms);  // bit-identical
  EXPECT_EQ(plain.best_reward, logged.best_reward);
  EXPECT_EQ(plain.best_feasible, logged.best_feasible);
  EXPECT_EQ(plain.episodes_run, logged.episodes_run);
  EXPECT_EQ(plain.episode_of_best, logged.episode_of_best);
  EXPECT_EQ(plain.episode_best_ms, logged.episode_best_ms);
  ASSERT_EQ(plain.best_strategy.group_actions.size(),
            logged.best_strategy.group_actions.size());
  for (size_t g = 0; g < plain.best_strategy.group_actions.size(); ++g) {
    const auto& a = plain.best_strategy.group_actions[g];
    const auto& b = logged.best_strategy.group_actions[g];
    EXPECT_EQ(a.is_mp, b.is_mp);
    EXPECT_EQ(a.mp_device, b.mp_device);
    EXPECT_EQ(a.replication, b.replication);
    EXPECT_EQ(a.comm, b.comm);
  }
  EXPECT_GT(log.events_emitted(), 0u);
  fs::remove(path);
}

TEST(Report, AggregatesRunAndScheduleEvents) {
  const std::string path = temp_path("obs_run.jsonl");
  {
    EventLog log(path);
    ASSERT_TRUE(log.ok());
    log.emit(Event("run_start").with("steps", 4).with("start_step", 0));
    for (int s = 0; s < 4; ++s) {
      log.emit(Event("run_step").with("step", s).with("step_ms", 10.0 + s));
    }
    log.emit(Event("run_retry").with("step", 1).with("attempts", 2).with(
        "backoff_ms", 150.0));
    log.emit(Event("run_checkpoint").with("step", 2).with("wall_ms", 3.0).with(
        "ok", true));
    log.emit(Event("run_recovery").with("step", 3).with("replan_wall_ms", 42.0));
    log.emit(Event("run_end").with("steps_executed", 4).with("completed", true));
    log.emit(Event("schedule")
                 .with("makespan_ms", 20.0)
                 .with("critical_path_share", 0.5));
    log.emit(Event("device_utilization")
                 .with("device", 0)
                 .with("busy_ms", 15.0)
                 .with("utilization", 0.75));
    log.emit(Event("link_utilization")
                 .with("resource", "link G0->G1")
                 .with("busy_ms", 5.0)
                 .with("utilization", 0.25));
  }

  const ReportSummary s = summarize_events({path});
  EXPECT_TRUE(s.has_run);
  EXPECT_EQ(s.run_steps, 4);
  EXPECT_DOUBLE_EQ(s.run_total_ms, 10.0 + 11.0 + 12.0 + 13.0);
  EXPECT_DOUBLE_EQ(s.step_max_ms, 13.0);
  EXPECT_EQ(s.transient_retries, 2);
  EXPECT_DOUBLE_EQ(s.retry_backoff_ms, 150.0);
  EXPECT_EQ(s.checkpoints, 1);
  EXPECT_DOUBLE_EQ(s.checkpoint_mean_ms, 3.0);
  EXPECT_EQ(s.recoveries, 1);
  EXPECT_DOUBLE_EQ(s.replan_wall_ms, 42.0);
  EXPECT_TRUE(s.run_completed);
  EXPECT_TRUE(s.has_schedule);
  EXPECT_DOUBLE_EQ(s.makespan_ms, 20.0);
  EXPECT_DOUBLE_EQ(s.critical_path_share, 0.5);
  ASSERT_EQ(s.devices.size(), 1u);
  EXPECT_DOUBLE_EQ(s.devices[0].utilization, 0.75);
  ASSERT_EQ(s.links.size(), 1u);
  EXPECT_EQ(s.links[0].resource, "link G0->G1");

  const std::string rendered = render_report(s);
  EXPECT_NE(rendered.find("link G0->G1"), std::string::npos);
  EXPECT_NE(rendered.find("critical-path share"), std::string::npos);
  fs::remove(path);
}

TEST(Report, ConvergenceCsvHasOneRowPerEpisode) {
  const std::string jsonl = temp_path("obs_csv.jsonl");
  const std::string csv = temp_path("obs_csv.csv");
  {
    EventLog log(jsonl);
    ASSERT_TRUE(log.ok());
    for (int e = 1; e <= 3; ++e) {
      log.emit(Event("search_episode")
                   .with("episode", e)
                   .with("best_ms", 100.0 - e)
                   .with("best_feasible", true)
                   .with("mean_reward", -1.0)
                   .with("baseline", -1.1)
                   .with("entropy", 2.0)
                   .with("cache_hits", 0)
                   .with("cache_misses", 5)
                   .with("wall_ms", 1.5));
    }
  }
  ASSERT_TRUE(write_convergence_csv(csv, read_events(jsonl)));
  std::ifstream in(csv);
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 4u);  // header + 3 episodes
  EXPECT_EQ(lines[0],
            "episode,best_ms,best_feasible,mean_reward,baseline,entropy,"
            "cache_hits,cache_misses,wall_ms");
  EXPECT_EQ(lines[1].substr(0, 2), "1,");
  fs::remove(jsonl);
  fs::remove(csv);
}

TEST(Report, SurvivesCrashMidSearch) {
  // A log that ends mid-search (no search_end) still reports the episode
  // stream's count and incumbents.
  const std::string path = temp_path("obs_crash.jsonl");
  {
    EventLog log(path);
    for (int e = 1; e <= 2; ++e) {
      log.emit(Event("search_episode")
                   .with("episode", e)
                   .with("best_ms", 50.0)
                   .with("best_reward", -0.2)
                   .with("best_feasible", true)
                   .with("cache_hits", 1)
                   .with("cache_misses", 9));
    }
  }
  const ReportSummary s = summarize_events({path});
  EXPECT_TRUE(s.has_search);
  EXPECT_EQ(s.search_episodes, 2);
  EXPECT_DOUBLE_EQ(s.best_time_ms, 50.0);
  EXPECT_DOUBLE_EQ(s.cache_hit_rate(), 0.1);
  fs::remove(path);
}

// ---------------------------------------------------------------------------
// Docs <-> code schema sync

std::string read_file(const fs::path& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// docs/observability.md must document every event type the code can emit
// (one "### `type`" heading each), and must not document types the code
// does not know — the doc and all_event_types() are the same vocabulary.
TEST(Docs, ObservabilityDocCoversExactlyTheEventVocabulary) {
  const fs::path doc_path = fs::path(HETEROG_SOURCE_DIR) / "docs/observability.md";
  const std::string doc = read_file(doc_path);
  ASSERT_FALSE(doc.empty());

  for (const std::string& type : all_event_types()) {
    EXPECT_NE(doc.find("### `" + type + "`"), std::string::npos)
        << "docs/observability.md lacks a section for event type `" << type << "`";
  }

  // Reverse direction: every documented `### `x`` heading names a real type.
  const std::vector<std::string>& known = all_event_types();
  size_t pos = 0;
  int documented = 0;
  while ((pos = doc.find("### `", pos)) != std::string::npos) {
    pos += 5;
    const size_t end = doc.find('`', pos);
    ASSERT_NE(end, std::string::npos);
    const std::string name = doc.substr(pos, end - pos);
    ++documented;
    EXPECT_NE(std::find(known.begin(), known.end(), name), known.end())
        << "docs/observability.md documents `" << name
        << "`, which all_event_types() does not know";
  }
  EXPECT_EQ(documented, static_cast<int>(known.size()));
}

/// The field names of `type`'s docs/observability.md table: the backticked
/// first cell of each row between its heading and the next heading.
std::set<std::string> documented_fields(const std::string& doc, const std::string& type) {
  const size_t start = doc.find("### `" + type + "`");
  EXPECT_NE(start, std::string::npos) << type;
  const size_t end = doc.find("\n#", start + 1);
  std::set<std::string> fields;
  std::istringstream section(doc.substr(start, end - start));
  for (std::string line; std::getline(section, line);) {
    if (line.rfind("| `", 0) != 0) continue;
    fields.insert(line.substr(3, line.find('`', 3) - 3));
  }
  return fields;
}

faults::FaultEvent fault(faults::FaultKind kind, int device, int onset) {
  faults::FaultEvent e;
  e.kind = kind;
  e.device = device;
  e.onset_step = onset;
  return e;
}

// Every runner event — the fault-free fast path, the oracle detector and
// the monitor detector, with retries, failures, checkpoints, a straggler
// re-plan, a degraded re-plan and a rack-wide re-plan — carries exactly the
// fields its docs/observability.md table lists.
TEST(Docs, RunnerEventsCarryExactlyTheDocumentedFields) {
  const fs::path dir =
      fs::temp_directory_path() / ("heterog_obs_runner_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  const auto model = [] {
    return models::build_forward(models::ModelKind::kMobileNetV2, 0, 96);
  };
  ckpt::CheckpointOptions ckpt;
  ckpt.dir = (dir / "ckpt").string();
  ckpt.every = 2;
  faults::FaultEvent transient = fault(faults::FaultKind::kTransient, 2, 3);
  transient.failed_attempts = 2;
  faults::FaultEvent straggler = fault(faults::FaultKind::kStraggler, 0, 5);
  straggler.slowdown = 4.0;
  faults::FaultPlan plan;
  plan.events = {transient, straggler, fault(faults::FaultKind::kDeviceFailure, 1, 8)};
  faults::FaultEvent rack = fault(faults::FaultKind::kRackFailure, -1, 4);
  rack.rack = 1;
  faults::FaultPlan rack_plan;
  rack_plan.events = {rack};
  {
    EventLog log((dir / "events.jsonl").string());
    ASSERT_TRUE(log.ok());
    HeteroGConfig config;
    config.search_with_rl = false;
    config.train.episodes = 0;
    config.agent.max_groups = 16;
    config.fault_handling.deterministic_wall_times = true;
    config.events = &log;
    const DistRunner oracle = get_runner(model, cluster::make_fig3_testbed(), config);
    oracle.run(3);
    oracle.run(12, plan, ckpt);

    config.health.enabled = true;
    config.health.replan_on_straggler = true;
    get_runner(model, cluster::make_fig3_testbed(), config).run(12, plan, ckpt);
    config.fault_handling.replan_rl_episodes = 1;
    config.health.replan_deadline_ms = 0.001;  // the rack re-plan degrades
    get_runner(model, cluster::generate_cluster(*cluster::topo_preset("rack16")), config)
        .run(8, rack_plan, ckpt);
  }

  const std::string doc =
      read_file(fs::path(HETEROG_SOURCE_DIR) / "docs/observability.md");
  const std::set<std::string> runner_types = {
      "run_start", "run_step",        "run_retry",    "run_recovery", "run_checkpoint",
      "run_end",   "degraded_replan", "domain_replan"};
  std::set<std::string> seen;
  for (const ParsedEvent& event : read_events((dir / "events.jsonl").string())) {
    if (runner_types.count(event.type) == 0) continue;
    seen.insert(event.type);
    std::set<std::string> fields;
    for (const auto& [key, value] : event.fields) {
      if (key != "v" && key != "seq" && key != "type") fields.insert(key);
    }
    EXPECT_EQ(fields, documented_fields(doc, event.type)) << "seq " << event.seq;
  }
  EXPECT_EQ(seen, runner_types);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace heterog::obs

// heterog_cli — command-line front end for the HeteroG library. Run it
// without arguments for the subcommands and their flags, each declared once
// in tools/cli.cpp and read through common/flags.
//
// `--metrics FILE` streams JSONL telemetry (docs/observability.md) that
// `report` aggregates; `--plan-store DIR` attaches the durable cross-run
// evaluation cache (docs/persistence.md). Results are bit-identical with or
// without either, and with the store hot, cold, corrupted or absent.
//
// Exit codes: 0 success, 1 bad usage, 2 runtime failure, 3 unusable
// --plan-store directory, 4 --plan-store held by a live writer, 5 run/resume
// interrupted by SIGTERM/SIGINT (state flushed; the journal is resumable).
// tools/CMakeLists.txt pins them with ctests.
#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli.h"
#include "cluster/topology.h"
#include "common/shutdown.h"
#include "core/heterog.h"
#include "faults/chaos.h"
#include "graph/pipeline.h"
#include "obs/report.h"
#include "server/plan_server.h"
#include "sim/trace.h"
#include "store/plan_store.h"
#include "strategy/serialize.h"

namespace {

using namespace heterog;
using cli::Workload;

constexpr int kExitStoreEnv = 3;
constexpr int kExitStoreLocked = 4;
constexpr int kExitInterrupted = 5;

/// The sinks `plan`, `run`, `resume` and `serve` share, each null without its
/// flag. A metrics path that cannot be opened is a runtime error, never
/// silently dropped telemetry; an unusable store throws store::StoreError.
/// `serve` leaves --plan-store to its daemon.
struct Session {
  std::unique_ptr<obs::EventLog> metrics;
  std::unique_ptr<store::PlanStore> plan_store;

  Session(const FlagValues& flags, bool open_store) {
    if (flags.has("metrics")) {
      metrics = std::make_unique<obs::EventLog>(flags.text("metrics"));
      if (!metrics->ok()) {
        throw std::runtime_error("cannot write metrics to " + flags.text("metrics"));
      }
    }
    if (open_store && flags.has("plan-store")) {
      store::PlanStoreOptions opts;
      opts.dir = flags.text("plan-store");
      opts.events = metrics.get();
      plan_store = std::make_unique<store::PlanStore>(opts);
    }
  }
};

void print_store_stats(const store::PlanStore* plan_store) {
  if (plan_store == nullptr) return;
  const store::PlanStoreStats s = plan_store->stats();
  std::string suffix = s.healed ? ", healed on open" : "";
  if (s.records_quarantined > 0) {
    suffix += " (" + std::to_string(s.records_quarantined) + " record(s) quarantined)";
  }
  std::printf("plan store: %s — %llu cross-run hit(s) / %llu miss(es), "
              "%zu record(s), generation %d%s\n",
              plan_store->dir().c_str(), static_cast<unsigned long long>(s.hits),
              static_cast<unsigned long long>(s.misses), plan_store->size(),
              s.generation, suffix.c_str());
}

void print_metrics(const obs::EventLog* metrics) {
  if (metrics == nullptr) return;
  std::printf("metrics: %llu events written to %s\n",
              static_cast<unsigned long long>(metrics->events_emitted()),
              metrics->path().c_str());
}

void print_headline(const DistRunner& runner) {
  std::printf("plan: %.1f ms / iteration, feasible=%s\n", runner.per_iteration_ms(),
              runner.feasible() ? "yes" : "no");
}

void print_run_stats(const RunStats& stats, int steps) {
  std::printf("run: %d/%d steps, %.1f ms total (%.2f ms/step), completed=%s\n",
              static_cast<int>(stats.step_ms.size()), steps, stats.total_ms,
              stats.per_iteration_ms, stats.completed ? "yes" : "no");
  if (stats.transient_retries > 0) {
    std::printf("transient retries: %d (%.0f ms backoff)\n", stats.transient_retries,
                stats.retry_backoff_total_ms);
  }
  for (const auto& r : stats.recoveries) {
    std::string failed;
    for (const auto d : r.failed_devices) {
      failed += (failed.empty() ? "G" : ",G") + std::to_string(d);
    }
    std::printf(
        "recovery at step %d: lost %s%s, re-planned onto %d device(s) in %.1f ms, "
        "iteration %.2f -> %.2f ms%s\n",
        r.fault_step, failed.c_str(),
        r.escalated_transient ? " (transient escalated)" : "", r.surviving_devices,
        r.replan_wall_ms, r.pre_fault_iteration_ms, r.post_fault_iteration_ms,
        r.post_plan_oom ? " (OOM!)" : "");
  }
}

/// The fault-aware run `plan` and `run` end with: --steps under --fault-plan
/// (checked against the cluster before any search), journalled per
/// --checkpoint-dir and --ckpt-every with the workload as the metadata
/// `resume` rebuilds the model from.
struct RunLoop {
  int steps;
  faults::FaultPlan fault_plan;
  ckpt::CheckpointOptions ckpt;

  RunLoop(const FlagValues& flags, const Workload& w)
      : steps(flags.integer<int>("steps")) {
    if (flags.has("fault-plan")) {
      fault_plan = faults::load_fault_plan(flags.text("fault-plan"));
      fault_plan.validate(w.cluster);
    }
    ckpt.dir = flags.text("checkpoint-dir");
    ckpt.every = flags.integer<int>("ckpt-every");
    ckpt.meta = {{"model", w.name},
                 {"layers", std::to_string(w.layers)},
                 {"batch", w.batch_text},
                 {"cluster", w.cluster_label}};
  }

  /// Prints the fault events, "<source> N fault event(s) over S steps:"
  /// first, then runs them and prints the run.
  RunStats run(const DistRunner& runner, const std::string& source) const {
    if (!fault_plan.empty()) {
      std::printf("%s %zu fault event(s) over %d steps:\n", source.c_str(),
                  fault_plan.events.size(), steps);
      for (const auto& e : fault_plan.events) std::printf("  %s\n", e.describe().c_str());
    }
    const RunStats stats = runner.run(steps, fault_plan, ckpt);
    print_run_stats(stats, steps);
    return stats;
  }

  void print_journal() const {
    if (!ckpt.enabled()) return;
    std::printf("journal: %s (every %d steps)\n", ckpt.journal_path().c_str(),
                ckpt.every);
  }
};

int cmd_models() {
  std::printf("%-14s %-8s %s\n", "name", "layers", "notes");
  for (const std::string& name : models::known_model_names()) {
    models::ModelKind kind{};
    int layers = 0;
    models::parse_model_name(name, &kind, &layers);
    std::printf("%-14s %-8d %s\n", name.c_str(), layers, models::model_note(kind));
  }
  return 0;
}

int cmd_clusters() {
  for (const std::string& name : cluster::known_cluster_names()) {
    const auto c = cluster::cluster_from_name(name);
    std::printf("%-8s %s\n", name.c_str(), c->summary().c_str());
  }
  std::printf("generator presets (--cluster-gen NAME [--cluster-seed N]):\n");
  for (const auto& name : cluster::topo_preset_names()) {
    const auto c = cluster::generate_cluster(*cluster::topo_preset(name));
    std::printf("%-8s %s\n", name.c_str(), c.summary().c_str());
  }
  return 0;
}

int cmd_plan(const FlagValues& flags) {
  const Workload w = cli::resolve_workload(flags);
  HeteroGConfig config;
  config.train.episodes = flags.integer<int>("episodes");
  config.agent.max_groups = w.groups;
  // Wall-clock knobs only: the plan is bit-identical whatever --threads, and
  // --eval-cache 0 disables memoization without changing results.
  config.train.threads = flags.integer<int>("threads");
  config.train.eval_cache_capacity = flags.integer<size_t>("eval-cache");
  const RunLoop loop(flags, w);
  // The search, the deployed schedule and any run below stream into one
  // telemetry file; the store heals before the possibly minutes-long search.
  const Session session(flags, true);
  config.train.events = config.events = session.metrics.get();
  config.plan_store = session.plan_store.get();

  const auto runner = get_runner([&] { return w.forward(); }, w.cluster, config);
  std::printf("model=%s layers=%d batch=%g cluster=%s\n", w.name.c_str(), w.layers,
              w.batch, w.cluster_label.c_str());
  print_headline(runner);
  const auto& search = runner.search_result();
  if (search.eval_cache_hits + search.eval_cache_misses > 0) {
    std::printf("search: %d episodes, eval cache %llu hits / %llu misses (%d thread%s)\n",
                search.episodes_run,
                static_cast<unsigned long long>(search.eval_cache_hits),
                static_cast<unsigned long long>(search.eval_cache_misses),
                config.train.threads, config.train.threads == 1 ? "" : "s");
  }
  print_store_stats(session.plan_store.get());
  const strategy::StrategyBreakdown bd = runner.breakdown();
  double mp = 0.0;
  for (double f : bd.mp_fraction) mp += f;
  std::printf("  MP %.1f%% | EV-PS %.1f%% | EV-AR %.1f%% | CP-PS %.1f%% | CP-AR %.1f%%\n",
              mp * 100, bd.ev_ps * 100, bd.ev_ar * 100, bd.cp_ps * 100, bd.cp_ar * 100);
  for (size_t d = 0; d < bd.mp_fraction.size(); ++d) {
    if (bd.mp_fraction[d] > 0.0) {
      std::printf("    G%zu: %.1f%%\n", d, bd.mp_fraction[d] * 100);
    }
  }
  if (flags.has("out")) {
    if (!strategy::save_plan(flags.text("out"), runner.strategy(), w.cluster)) {
      throw std::runtime_error("cannot write " + flags.text("out"));
    }
    std::printf("plan saved to %s\n", flags.text("out").c_str());
  }

  if (flags.has("fault-plan") || loop.ckpt.enabled() ||
      (session.metrics != nullptr && flags.has("steps"))) {
    loop.run(runner, "\ninjecting");
    loop.print_journal();
  }
  print_metrics(session.metrics.get());
  return 0;
}

/// `run`: a heuristic deployment under a fault schedule, from --fault-plan or
/// the seeded chaos harness, optionally with online health monitoring (the
/// recovery loop then sees measurements only, never the schedule).
int cmd_run(const FlagValues& flags) {
  // SIGTERM/SIGINT stop the run at the next step boundary, with everything
  // flushed, even during the search.
  install_shutdown_handlers();
  const Workload w = cli::resolve_workload(flags);
  if (flags.has("fault-plan") && flags.has("chaos-seed")) {
    throw UsageError("--fault-plan and --chaos-seed are exclusive");
  }
  HeteroGConfig config;
  config.search_with_rl = false;  // heuristic deployment: `run` is about faults
  config.agent.max_groups = w.groups;
  config.health.enabled = flags.has("health");
  if ((flags.has("detect-threshold") || flags.has("retry-budget")) &&
      !config.health.enabled) {
    throw UsageError("--detect-threshold/--retry-budget tune the health monitor; add "
                     "--health");
  }
  if (flags.has("detect-threshold")) {
    config.health.z_threshold = flags.real("detect-threshold");
    config.health.phi_threshold = config.health.z_threshold;
  }
  if (flags.has("retry-budget")) {
    config.health.retry_budget = flags.integer<int>("retry-budget");
  }

  RunLoop loop(flags, w);
  if (flags.has("chaos-seed")) {
    // The device count comes from the resolved cluster; --chaos-devices may
    // only confirm it.
    faults::ChaosOptions chaos;
    chaos.seed = flags.integer<uint64_t>("chaos-seed");
    chaos.steps = loop.steps;
    chaos.device_count = w.cluster.device_count();
    if (flags.has("chaos-devices") &&
        flags.integer<int>("chaos-devices") != chaos.device_count) {
      throw UsageError("--chaos-devices " + flags.text("chaos-devices") +
                       " does not match the resolved cluster's " +
                       std::to_string(chaos.device_count) + " devices");
    }
    loop.fault_plan = faults::make_chaos_plan(w.cluster, chaos);
    // Zero the wall-clock journal fields: a seed reproduces its journal and
    // event log byte for byte.
    config.fault_handling.deterministic_wall_times = true;
  } else if (flags.has("chaos-devices")) {
    throw UsageError("--chaos-devices requires --chaos-seed");
  }
  const Session session(flags, true);
  config.events = session.metrics.get();
  config.plan_store = session.plan_store.get();

  const auto runner = get_runner([&] { return w.forward(); }, w.cluster, config);
  std::printf("model=%s layers=%d batch=%g cluster=%s health=%s\n", w.name.c_str(),
              w.layers, w.batch, w.cluster_label.c_str(),
              config.health.enabled ? "on" : "off");
  print_headline(runner);
  const RunStats stats = loop.run(
      runner, flags.has("chaos-seed") ? "chaos seed " + flags.text("chaos-seed") + " ->"
                                      : "injecting");
  print_store_stats(session.plan_store.get());
  if (config.health.enabled) {
    const health::HealthSummary& h = stats.health;
    std::printf(
        "health: %d suspicion event(s), %d quarantine(s), %d reinstatement(s), "
        "%d failure(s) confirmed, %d retr%s charged%s%s\n",
        h.suspicion_events, h.quarantines, h.reinstatements, h.failures_confirmed,
        h.retries_charged, h.retries_charged == 1 ? "y" : "ies",
        h.retry_budget_exhausted ? ", retry budget exhausted" : "",
        h.breaker_opened ? ", circuit breaker opened" : "");
    for (const auto& d : h.detections) {
      std::printf("  G%d %s: onset step %d, confirmed step %d (latency %d)\n", d.device,
                  d.kind.c_str(), d.onset_step, d.confirmed_step,
                  d.confirmed_step - d.onset_step);
    }
    if (stats.detection_overhead_ms > 0.0) {
      std::printf("detection overhead: %.0f ms of heartbeat timeouts\n",
                  stats.detection_overhead_ms);
    }
  }
  loop.print_journal();
  print_metrics(session.metrics.get());
  if (!stats.interrupted) return 0;
  std::printf("interrupted by signal; state flushed%s\n",
              loop.ckpt.enabled() ? " (resume with `heterog_cli resume`)" : "");
  return kExitInterrupted;
}

int cmd_resume(const FlagValues& flags) {
  install_shutdown_handlers();  // same cooperative-stop contract as `run`
  const std::string& path = flags.text("journal");
  // The model comes from the journal's metadata; resume_run re-validates the
  // whole journal.
  const ckpt::RunJournal journal = ckpt::load_journal(path);
  cli::Model model;
  try {
    model = cli::model_from_meta(journal.meta);
  } catch (const UsageError& e) {  // e.g. a journal not written by heterog_cli
    throw std::runtime_error(path + ": model metadata: " + e.what() +
                             " (resume it through heterog::resume_run)");
  }
  ckpt::CheckpointOptions copts;  // dir/cadence default to the journal's own
  if (flags.has("ckpt-every")) copts.every = flags.integer<int>("ckpt-every");
  const Session session(flags, true);

  std::printf("resuming %s: model=%s layers=%d batch=%g at step %d/%d\n", path.c_str(),
              model.name.c_str(), model.layers, model.batch, journal.watermark,
              journal.total_steps);
  const auto stats = resume_run(path, [&] { return model.forward(); }, copts,
                                session.metrics.get(), session.plan_store.get());
  print_run_stats(stats, journal.total_steps - journal.watermark);
  print_store_stats(session.plan_store.get());
  print_metrics(session.metrics.get());
  if (!stats.interrupted) return 0;
  std::printf("interrupted by signal; state flushed (resume again to finish)\n");
  return kExitInterrupted;
}

/// `serve`: run the multi-tenant plan daemon (docs/server.md) until SIGTERM/
/// SIGINT, then drain gracefully and report what it served.
int cmd_serve(const FlagValues& flags) {
  if (!flags.has("socket") && !flags.has("port")) {
    throw UsageError("serve needs --socket PATH and/or --port N");
  }
  const Session session(flags, false);
  server::ServerOptions opts;
  opts.unix_path = flags.text("socket");
  if (flags.has("port")) opts.tcp_port = flags.integer<int>("port");
  opts.threads = flags.integer<int>("threads");
  opts.queue_capacity = flags.integer<size_t>("queue");
  opts.read_timeout_ms = flags.integer<int>("read-timeout-ms");
  opts.episode_cost_ms = flags.real("episode-cost-ms");
  opts.store_dir = flags.text("plan-store");
  opts.events = session.metrics.get();

  server::PlanServer daemon(std::move(opts));  // StoreError/ServerError -> main
  install_shutdown_handlers();
  if (!daemon.unix_path().empty()) {
    std::printf("serving on %s\n", daemon.unix_path().c_str());
  }
  if (daemon.tcp_port() >= 0) std::printf("serving on 127.0.0.1:%d\n", daemon.tcp_port());
  std::fflush(stdout);  // scripts poll for these lines before connecting
  daemon.run();  // returns after SIGTERM/SIGINT + graceful drain

  const server::ServerStats s = daemon.stats();
  std::printf("served: %llu ok (%llu degraded), %llu error, %llu rejected, "
              "%llu disconnect(s)\n",
              static_cast<unsigned long long>(s.replies_ok),
              static_cast<unsigned long long>(s.degraded),
              static_cast<unsigned long long>(s.replies_error),
              static_cast<unsigned long long>(s.rejected),
              static_cast<unsigned long long>(s.disconnects));
  print_store_stats(daemon.plan_store());
  print_metrics(session.metrics.get());
  return 0;
}

/// The training graph of `w` and the grouping `plan` deployed its plan over:
/// a saved plan holds only group actions, so `evaluate` and `baselines`
/// rebuild the choose stage's grouping (heterog::profile_and_encode).
struct Grouped {
  graph::GraphDef train;
  strategy::Grouping grouping;

  explicit Grouped(const Workload& w) : train(graph::build_training_graph(w.forward())) {
    HeteroGConfig config;
    config.agent.max_groups = w.groups;
    grouping = profile_and_encode(train, w.cluster, config).encoded.grouping;
  }
};

/// "ev-ps", "ev-ar", "cp-ps" or "cp-ar": even or proportional replication,
/// parameter server or AllReduce.
strategy::Action uniform_strategy(const std::string& name) {
  return strategy::Action::dp(name.rfind("ev-", 0) == 0
                                  ? strategy::ReplicationMode::kEven
                                  : strategy::ReplicationMode::kProportional,
                              name.substr(3) == "ps" ? strategy::CommMethod::kPS
                                                     : strategy::CommMethod::kAllReduce);
}

int cmd_evaluate(const FlagValues& flags) {
  const Workload w = cli::resolve_workload(flags);
  if (flags.has("plan") && flags.has("strategy")) {
    throw UsageError("--plan and --strategy are exclusive");
  }
  // A missing, corrupt or wrong-cluster plan fails (PlanFormatError, exit 2)
  // before the grouping work.
  std::optional<strategy::StrategyMap> map;
  if (flags.has("plan")) map = strategy::load_plan_checked(flags.text("plan"), w.cluster);
  const Grouped grouped(w);
  const int groups = grouped.grouping.group_count();
  if (!map) {
    map = strategy::StrategyMap::uniform(groups,
                                         uniform_strategy(flags.text("strategy")));
  } else if (static_cast<int>(map->group_actions.size()) != groups) {
    throw std::runtime_error("plan " + flags.text("plan") + " has " +
                             std::to_string(map->group_actions.size()) +
                             " group actions, model groups into " +
                             std::to_string(groups));
  }

  const graph::GraphDef* graph = &grouped.train;
  strategy::Grouping grouping = grouped.grouping;
  graph::PipelineResult piped;
  if (const int micro_batches = flags.integer<int>("microbatches"); micro_batches > 1) {
    piped = graph::pipeline_microbatches(grouped.train, micro_batches);
    grouping = strategy::Grouping::from_origin(grouped.grouping, piped.origin);
    graph = &piped.graph;
  }

  const profiler::HardwareModel hardware(w.cluster);
  const profiler::GroundTruthCosts costs(hardware);
  const Session session(flags, false);
  sim::PlanEvalOptions options;
  if (flags.text("order") == "fifo") options.policy = sched::OrderPolicy::kFifo;
  options.collect_utilization = session.metrics != nullptr;
  const auto eval = sim::evaluate_plan(costs, *graph, grouping, *map, options);
  emit_schedule_events(session.metrics.get(), eval, w.cluster.device_count());

  std::printf("per-iteration: %.2f ms (cold %.2f ms)  oom=%s\n", eval.per_iteration_ms,
              eval.cold_iteration_ms, eval.oom ? "yes" : "no");
  std::printf("computation %.2f ms | communication %.2f ms\n", eval.computation_ms,
              eval.communication_ms);
  for (const auto& d : w.cluster.devices()) {
    // The simulator reports peaks up to the highest device it placed work on.
    const auto idx = static_cast<size_t>(d.id);
    const int64_t peak =
        idx < eval.peak_memory_bytes.size() ? eval.peak_memory_bytes[idx] : 0;
    std::printf("  G%d peak memory %.2f / %.1f GB\n", d.id,
                static_cast<double>(peak) / (1 << 30),
                static_cast<double>(d.memory_bytes) / (1 << 30));
  }

  if (flags.has("trace") || flags.has("timeline")) {
    const auto compiled = compile::GraphCompiler(costs).compile(*graph, grouping, *map);
    sim::SimOptions sim_options;
    sim_options.policy = eval.order;
    const auto result = sim::Simulator(sim_options).run(compiled.graph);
    if (flags.has("trace")) {
      if (!sim::write_chrome_trace(flags.text("trace"), compiled.graph, result)) {
        throw std::runtime_error("cannot write " + flags.text("trace"));
      }
      std::printf("chrome trace written to %s (open in ui.perfetto.dev)\n",
                  flags.text("trace").c_str());
    }
    if (flags.has("timeline")) {
      std::printf("%s", sim::ascii_timeline(compiled.graph, result).c_str());
    }
  }
  print_metrics(session.metrics.get());
  return 0;
}

int cmd_baselines(const FlagValues& flags) {
  const Workload w = cli::resolve_workload(flags);
  const profiler::HardwareModel hardware(w.cluster);
  const profiler::GroundTruthCosts costs(hardware);
  const baselines::Evaluator evaluator(costs);
  const Grouped grouped(w);
  for (const char* name : {"ev-ps", "ev-ar", "cp-ps", "cp-ar"}) {
    const auto outcome = evaluator.evaluate(
        grouped.train, grouped.grouping,
        strategy::StrategyMap::uniform(grouped.grouping.group_count(),
                                       uniform_strategy(name)),
        sched::OrderPolicy::kFifo);
    std::printf("%-6s %8.2f ms %s\n", name, outcome.time_ms, outcome.oom ? "(OOM)" : "");
  }
  return 0;
}

int cmd_report(const FlagValues& flags) {
  if (flags.operands().empty()) throw UsageError("needs at least one FILE.jsonl");
  // read_events throws a typed EventLogError (exit 2) on a missing file, a
  // malformed line or an unsupported schema version.
  std::vector<obs::ParsedEvent> events;
  for (const auto& path : flags.operands()) {
    auto file_events = obs::read_events(path);
    events.insert(events.end(), std::make_move_iterator(file_events.begin()),
                  std::make_move_iterator(file_events.end()));
  }
  std::printf("%s", obs::render_report(obs::summarize_events(events)).c_str());
  if (flags.has("csv")) {
    if (!obs::write_convergence_csv(flags.text("csv"), events)) {
      throw std::runtime_error("cannot write " + flags.text("csv"));
    }
    std::printf("convergence csv written to %s\n", flags.text("csv").c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string command = argc > 1 ? argv[1] : "";
  const Flags* declared = cli::command_flags(command);
  if (declared == nullptr) {
    std::fprintf(stderr, "%s", cli::usage().c_str());
    return 1;
  }
  try {
    const FlagValues flags = declared->parse({argv + 2, argv + argc});
    if (command == "models") return cmd_models();
    if (command == "clusters") return cmd_clusters();
    if (command == "plan" || command == "search") return cmd_plan(flags);
    if (command == "run") return cmd_run(flags);
    if (command == "resume") return cmd_resume(flags);
    if (command == "serve") return cmd_serve(flags);
    if (command == "evaluate") return cmd_evaluate(flags);
    if (command == "baselines") return cmd_baselines(flags);
    return cmd_report(flags);
  } catch (const UsageError& e) {
    std::fprintf(stderr, "error: heterog_cli %s: %s\n", command.c_str(), e.what());
    return 1;
  } catch (const store::StoreError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return e.kind() == store::StoreError::Kind::kLocked ? kExitStoreLocked
                                                        : kExitStoreEnv;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}

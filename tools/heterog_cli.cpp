// heterog_cli — command-line front end for the HeteroG library.
//
//   heterog_cli models
//   heterog_cli clusters
//   heterog_cli plan     --model vgg19 --batch 192 [--cluster 8gpu]
//                        [--cluster-gen rack16|pod64|pod256|dc1000|spec.json]
//                        [--cluster-seed N]
//                        [--layers L] [--episodes 150] [--groups 48]
//                        [--out plan.txt] [--threads N] [--eval-cache N]
//                        [--fault-plan faults.json] [--steps 20]
//                        [--checkpoint-dir DIR] [--ckpt-every K]
//                        [--metrics m.jsonl] [--plan-store DIR]
//   heterog_cli search   ... (alias of plan)
//   heterog_cli run      --model vgg19 --batch 192 [--cluster 8gpu]
//                        [--layers L] [--steps 20] [--groups 48]
//                        [--fault-plan faults.json | --chaos-seed N]
//                        [--health] [--detect-threshold X] [--retry-budget N]
//                        [--checkpoint-dir DIR] [--ckpt-every K]
//                        [--metrics m.jsonl] [--plan-store DIR]
//   heterog_cli resume   --journal DIR/journal.heterog [--ckpt-every K]
//                        [--metrics m.jsonl] [--plan-store DIR]
//   heterog_cli serve    (--socket PATH | --port N) [--plan-store DIR]
//                        [--threads N] [--queue N] [--read-timeout-ms N]
//                        [--episode-cost-ms X] [--metrics m.jsonl]
//   heterog_cli evaluate --model vgg19 --batch 192 [--cluster 8gpu]
//                        (--plan plan.txt | --strategy ev-ar|ev-ps|cp-ar|cp-ps)
//                        [--layers L] [--groups N] [--order rank|fifo]
//                        [--microbatches m] [--trace out.json] [--timeline]
//                        [--metrics m.jsonl]
//   heterog_cli baselines --model vgg19 --batch 192 [--cluster 8gpu]
//                        [--layers L] [--groups N]
//   heterog_cli report   m.jsonl [more.jsonl ...] [--csv convergence.csv]
//
// `--metrics FILE` streams JSONL telemetry (docs/observability.md) that
// `report` aggregates into a run report. Telemetry is write-only: results
// are bit-identical with or without it.
//
// `--plan-store DIR` attaches the durable cross-run evaluation cache
// (docs/persistence.md): searches read evaluations written by earlier
// invocations and persist their own. Results are bit-identical with the
// store hot, cold, corrupted, or absent.
//
// Exit codes: 0 success, 1 bad usage, 2 runtime failure, 3 unusable
// --plan-store directory, 4 --plan-store held by a live writer, 5 run/resume
// interrupted by SIGTERM/SIGINT (state flushed; the journal is resumable).
// Every error path exits nonzero; tools/CMakeLists.txt pins the codes with
// ctests.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/topology.h"
#include "common/shutdown.h"
#include "core/heterog.h"
#include "faults/chaos.h"
#include "faults/faults.h"
#include "graph/pipeline.h"
#include "models/models.h"
#include "obs/report.h"
#include "server/plan_server.h"
#include "sim/trace.h"
#include "store/plan_store.h"
#include "strategy/serialize.h"

namespace {

using namespace heterog;

struct Args {
  std::string command;
  std::map<std::string, std::string> flags;
  std::vector<std::string> positionals;  // non-flag operands (report's files)

  bool has(const std::string& key) const { return flags.count(key) > 0; }
  std::string get(const std::string& key, const std::string& fallback = "") const {
    const auto it = flags.find(key);
    return it != flags.end() ? it->second : fallback;
  }
  int get_int(const std::string& key, int fallback) const {
    const auto it = flags.find(key);
    return it != flags.end() ? std::atoi(it->second.c_str()) : fallback;
  }
};

std::optional<Args> parse(int argc, char** argv) {
  if (argc < 2) return std::nullopt;
  Args args;
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0) {
      args.positionals.push_back(flag);
      continue;
    }
    flag = flag.substr(2);
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      args.flags[flag] = argv[++i];
    } else {
      args.flags[flag] = "1";
    }
  }
  return args;
}

// --plan-store failures get exit codes of their own so scripts (and the
// ctests in tools/CMakeLists.txt) can tell an unusable directory from a
// legitimately held lock.
constexpr int kExitStoreEnv = 3;
constexpr int kExitStoreLocked = 4;
// A long-running subcommand (run/resume) stopped cleanly at a step boundary
// because SIGTERM/SIGINT arrived: checkpoints/journals/stores are flushed and
// the journal is resumable, but the requested work is not complete.
constexpr int kExitInterrupted = 5;

/// Opens the `--plan-store` directory when requested; *out stays null
/// without the flag. Returns false (a usage error) when the flag carries no
/// path. An unusable directory or live lock throws store::StoreError, which
/// main() maps to kExitStoreEnv / kExitStoreLocked.
bool open_plan_store(const Args& args, obs::EventLog* events,
                     std::unique_ptr<store::PlanStore>* out) {
  out->reset();
  if (!args.has("plan-store")) return true;
  const std::string dir = args.get("plan-store");
  if (dir.empty() || dir == "1") {  // bare flag: parse() fills "1"
    std::fprintf(stderr, "error: --plan-store needs a directory path\n");
    return false;
  }
  store::PlanStoreOptions opts;
  opts.dir = dir;
  opts.events = events;
  *out = std::make_unique<store::PlanStore>(opts);
  return true;
}

void print_store_stats(const store::PlanStore& plan_store) {
  const store::PlanStoreStats s = plan_store.stats();
  std::string suffix = s.healed ? ", healed on open" : "";
  if (s.records_quarantined > 0) {
    suffix += " (" + std::to_string(s.records_quarantined) + " record(s) quarantined)";
  }
  std::printf("plan store: %s — %llu cross-run hit(s) / %llu miss(es), "
              "%zu record(s), generation %d%s\n",
              plan_store.dir().c_str(), static_cast<unsigned long long>(s.hits),
              static_cast<unsigned long long>(s.misses), plan_store.size(),
              s.generation, suffix.c_str());
}

/// Opens the `--metrics` sink when requested; null without the flag.
/// A path that cannot be opened is an environment error: surface it and
/// fail (*failed = true) instead of silently dropping telemetry.
std::unique_ptr<obs::EventLog> open_metrics(const Args& args, bool* failed) {
  *failed = false;
  if (!args.has("metrics")) return nullptr;
  auto log = std::make_unique<obs::EventLog>(args.get("metrics"));
  if (!log->ok()) {
    std::fprintf(stderr, "error: cannot write metrics to %s\n",
                 args.get("metrics").c_str());
    *failed = true;
    return nullptr;
  }
  return log;
}

struct ModelChoice {
  std::string name;
  models::ModelKind kind = models::ModelKind::kVgg19;
  int default_layers = 0;
};

std::optional<ModelChoice> find_model(const std::string& name) {
  ModelChoice m;
  m.name = name;
  if (!models::parse_model_name(name, &m.kind, &m.default_layers)) return std::nullopt;
  return m;
}

/// Resolves the target cluster: --cluster-gen takes a generator preset name
/// ("rack16", ..., "dc1000") or a JSON options file (docs/topology.md), with
/// --cluster-seed overriding the spec's seed; otherwise --cluster names a
/// fixed testbed. Prints the failure and returns nullopt (a usage error).
std::optional<cluster::ClusterSpec> resolve_cluster(const Args& args) {
  if (args.has("cluster-gen")) {
    const std::string gen = args.get("cluster-gen");
    try {
      auto options = cluster::topo_preset(gen);
      if (!options) options = cluster::load_topo_gen_options(gen);
      if (args.has("cluster-seed")) {
        const int seed = args.get_int("cluster-seed", -1);
        if (seed < 0) {
          std::fprintf(stderr, "error: --cluster-seed needs a non-negative integer\n");
          return std::nullopt;
        }
        options->seed = static_cast<uint64_t>(seed);
      }
      return cluster::generate_cluster(*options);
    } catch (const cluster::ClusterSpecError& e) {
      std::fprintf(stderr, "error: --cluster-gen %s: %s\n", gen.c_str(), e.what());
      return std::nullopt;
    }
  }
  return cluster::cluster_from_name(args.get("cluster", "8gpu"));
}

/// The cluster name recorded in telemetry / printed in summaries.
std::string cluster_label(const Args& args) {
  if (args.has("cluster-gen")) {
    std::string label = "gen:" + args.get("cluster-gen");
    if (args.has("cluster-seed")) label += "@" + args.get("cluster-seed");
    return label;
  }
  return args.get("cluster", "8gpu");
}

int usage() {
  std::fprintf(
      stderr,
      "usage: heterog_cli "
      "<models|clusters|plan|search|run|resume|serve|evaluate|baselines|report> "
      "[flags]\n"
      "  plan      --model NAME --batch B [--cluster 8gpu|12gpu|fig3|homog8]\n"
      "            [--cluster-gen PRESET|FILE.json] [--cluster-seed N]\n"
      "            [--layers L] [--episodes N] [--groups N] [--out FILE]\n"
      "            [--threads N] [--eval-cache N]\n"
      "            [--fault-plan FILE] [--steps N]\n"
      "            [--checkpoint-dir DIR] [--ckpt-every K] [--metrics FILE]\n"
      "            [--plan-store DIR]\n"
      "  search    alias of plan\n"
      "  run       --model NAME --batch B [--cluster ...] [--layers L]\n"
      "            [--steps N] [--groups N]\n"
      "            [--fault-plan FILE | --chaos-seed N [--chaos-devices D]]\n"
      "            [--health] [--detect-threshold X] [--retry-budget N]\n"
      "            [--checkpoint-dir DIR] [--ckpt-every K] [--metrics FILE]\n"
      "            [--plan-store DIR]\n"
      "  resume    --journal FILE [--ckpt-every K] [--metrics FILE]\n"
      "            [--plan-store DIR]\n"
      "  serve     (--socket PATH | --port N) [--plan-store DIR] [--threads N]\n"
      "            [--queue N] [--read-timeout-ms N] [--episode-cost-ms X]\n"
      "            [--metrics FILE]\n"
      "  evaluate  --model NAME --batch B [--cluster ...] [--layers L]\n"
      "            (--plan FILE | --strategy ev-ar|ev-ps|cp-ar|cp-ps)\n"
      "            [--groups N] [--order rank|fifo] [--microbatches M]\n"
      "            [--trace FILE] [--timeline] [--metrics FILE]\n"
      "  baselines --model NAME --batch B [--cluster ...] [--layers L] [--groups N]\n"
      "  report    FILE.jsonl [MORE.jsonl ...] [--csv FILE]\n"
      "\n"
      "--metrics streams JSONL telemetry (docs/observability.md); `report`\n"
      "renders it as a run report. --plan-store persists evaluated plans\n"
      "across invocations (docs/persistence.md).\n"
      "\n"
      "--cluster-gen generates a rack/pod-structured cluster from a preset\n"
      "(rack16|pod64|pod256|dc1000) or a JSON spec file (docs/topology.md);\n"
      "--cluster-seed overrides the spec's seed. Same spec + seed -> the\n"
      "byte-identical cluster, on every run, in `plan`, `run`, `evaluate`\n"
      "and `baselines`.\n");
  return 1;
}

void print_run_stats(const heterog::RunStats& stats, int steps) {
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

void print_breakdown(const strategy::StrategyBreakdown& bd) {
  double mp = 0.0;
  for (double f : bd.mp_fraction) mp += f;
  std::printf("  MP %.1f%% | EV-PS %.1f%% | EV-AR %.1f%% | CP-PS %.1f%% | CP-AR %.1f%%\n",
              mp * 100, bd.ev_ps * 100, bd.ev_ar * 100, bd.cp_ps * 100, bd.cp_ar * 100);
  for (size_t d = 0; d < bd.mp_fraction.size(); ++d) {
    if (bd.mp_fraction[d] > 0.0) {
      std::printf("    G%zu: %.1f%%\n", d, bd.mp_fraction[d] * 100);
    }
  }
}

int cmd_models() {
  std::printf("%-14s %-8s %s\n", "name", "layers", "notes");
  for (const std::string& name : models::known_model_names()) {
    const ModelChoice m = *find_model(name);
    std::printf("%-14s %-8d %s\n", name.c_str(), m.default_layers,
                models::model_note(m.kind));
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

int cmd_plan(const Args& args) {
  const auto model = find_model(args.get("model"));
  const double batch = std::atof(args.get("batch", "0").c_str());
  const auto cluster_spec = resolve_cluster(args);
  if (!model || batch <= 0.0 || !cluster_spec) return usage();

  const int layers = args.get_int("layers", model->default_layers);
  HeteroGConfig config;
  config.train.episodes = args.get_int("episodes", 150);
  config.agent.max_groups = args.get_int("groups", 48);
  // Parallel evaluation + memoization: wall-clock knobs only — the chosen
  // plan is bit-identical whatever --threads, and --eval-cache 0 disables
  // memoization without changing results.
  config.train.threads = args.get_int("threads", 1);
  const int eval_cache = args.get_int("eval-cache", 4096);
  if (config.train.threads < 1 || eval_cache < 0) {
    std::fprintf(stderr, "error: --threads needs a positive count and "
                         "--eval-cache a non-negative capacity\n");
    return 1;
  }
  config.train.eval_cache_capacity = static_cast<size_t>(eval_cache);

  // Checkpointing knobs; validated before the (possibly minutes-long)
  // strategy search so mistakes fail fast.
  ckpt::CheckpointOptions copts;
  copts.dir = args.get("checkpoint-dir");
  copts.every = args.get_int("ckpt-every", 5);
  if ((args.has("checkpoint-dir") && copts.dir.empty()) || copts.every <= 0) {
    std::fprintf(stderr, "error: --checkpoint-dir needs a path and --ckpt-every "
                         "a positive step count\n");
    return 1;
  }
  copts.meta = {{"model", model->name},
                {"layers", std::to_string(layers)},
                {"batch", args.get("batch")},
                {"cluster", cluster_label(args)}};

  // Same fail-fast treatment for the fault plan.
  faults::FaultPlan fault_plan;
  if (args.has("fault-plan")) {
    fault_plan = faults::load_fault_plan(args.get("fault-plan"));
    fault_plan.validate(*cluster_spec);
  }

  // Telemetry sink: the search, the deployed schedule and any run below all
  // stream into one JSONL file (`heterog_cli report` aggregates it).
  bool metrics_failed = false;
  const std::unique_ptr<obs::EventLog> metrics = open_metrics(args, &metrics_failed);
  if (metrics_failed) return 2;
  config.train.events = metrics.get();
  config.events = metrics.get();

  // Durable cross-run evaluation cache; opened (and self-healed) before the
  // possibly minutes-long search so an unusable directory fails fast.
  std::unique_ptr<store::PlanStore> plan_store;
  if (!open_plan_store(args, metrics.get(), &plan_store)) return 1;
  config.plan_store = plan_store.get();

  const auto runner = get_runner(
      [&] { return models::build_forward(model->kind, layers, batch); }, *cluster_spec,
      config);
  std::printf("model=%s layers=%d batch=%g cluster=%s\n", model->name.c_str(), layers,
              batch, cluster_label(args).c_str());
  std::printf("plan: %.1f ms / iteration, feasible=%s\n", runner.per_iteration_ms(),
              runner.feasible() ? "yes" : "no");
  const auto& search = runner.search_result();
  if (search.eval_cache_hits + search.eval_cache_misses > 0) {
    std::printf("search: %d episodes, eval cache %llu hits / %llu misses "
                "(%d thread%s)\n",
                search.episodes_run,
                static_cast<unsigned long long>(search.eval_cache_hits),
                static_cast<unsigned long long>(search.eval_cache_misses),
                config.train.threads, config.train.threads == 1 ? "" : "s");
  }
  if (plan_store != nullptr) print_store_stats(*plan_store);
  print_breakdown(runner.breakdown());

  if (args.has("out")) {
    if (!strategy::save_plan(args.get("out"), runner.strategy(), *cluster_spec)) {
      std::fprintf(stderr, "error: cannot write %s\n", args.get("out").c_str());
      return 2;
    }
    std::printf("plan saved to %s\n", args.get("out").c_str());
  }

  if (args.has("fault-plan") || copts.enabled() ||
      (metrics != nullptr && args.has("steps"))) {
    const int steps = args.get_int("steps", 20);
    if (!fault_plan.empty()) {
      std::printf("\ninjecting %zu fault event(s) over %d steps:\n",
                  fault_plan.events.size(), steps);
      for (const auto& event : fault_plan.events) {
        std::printf("  %s\n", event.describe().c_str());
      }
    }
    const auto stats = runner.run(steps, fault_plan, copts);
    print_run_stats(stats, steps);
    if (copts.enabled()) {
      std::printf("journal: %s (every %d steps)\n", copts.journal_path().c_str(),
                  copts.every);
    }
  }
  if (metrics != nullptr) {
    std::printf("metrics: %llu events written to %s\n",
                static_cast<unsigned long long>(metrics->events_emitted()),
                metrics->path().c_str());
  }
  return 0;
}

void print_health_summary(const health::HealthSummary& h) {
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
}

/// `run`: execute a deployed plan under an injected fault schedule — from a
/// file (--fault-plan) or generated by the seeded chaos harness
/// (--chaos-seed) — optionally with online health monitoring (--health: the
/// recovery loop sees measurements only, never the schedule). Searches with
/// the fast heuristic path; `plan` is the subcommand for RL-quality plans.
int cmd_run(const Args& args) {
  // Route SIGTERM/SIGINT into a cooperative stop at the next step boundary
  // instead of dying mid-write. Installed before the (possibly long) search:
  // a signal during it stops the run at step 0 with everything flushed.
  install_shutdown_handlers();
  const auto model = find_model(args.get("model"));
  const double batch = std::atof(args.get("batch", "0").c_str());
  const auto cluster_spec = resolve_cluster(args);
  if (!model || batch <= 0.0 || !cluster_spec) return usage();
  const int layers = args.get_int("layers", model->default_layers);

  const int steps = args.get_int("steps", 20);
  if (steps <= 0) {
    std::fprintf(stderr, "error: --steps needs a positive step count\n");
    return 1;
  }
  if (args.has("fault-plan") && args.has("chaos-seed")) {
    std::fprintf(stderr,
                 "error: --fault-plan and --chaos-seed are exclusive (one fault "
                 "schedule per run)\n");
    return 1;
  }

  HeteroGConfig config;
  config.search_with_rl = false;  // heuristic deployment: `run` is about faults
  config.agent.max_groups = args.get_int("groups", 48);

  // Online health monitoring knobs. --detect-threshold and --retry-budget
  // tune the monitor, so they require --health.
  config.health.enabled = args.has("health");
  if ((args.has("detect-threshold") || args.has("retry-budget")) &&
      !config.health.enabled) {
    std::fprintf(stderr,
                 "error: --detect-threshold/--retry-budget tune the health "
                 "monitor; add --health\n");
    return 1;
  }
  if (args.has("detect-threshold")) {
    const double threshold = std::atof(args.get("detect-threshold").c_str());
    if (threshold <= 0.0) {
      std::fprintf(stderr, "error: --detect-threshold needs a positive score\n");
      return 1;
    }
    config.health.z_threshold = threshold;
    config.health.phi_threshold = threshold;
  }
  if (args.has("retry-budget")) {
    const int budget = args.get_int("retry-budget", 0);
    if (budget <= 0) {
      std::fprintf(stderr, "error: --retry-budget needs a positive count\n");
      return 1;
    }
    config.health.retry_budget = budget;
  }

  ckpt::CheckpointOptions copts;
  copts.dir = args.get("checkpoint-dir");
  copts.every = args.get_int("ckpt-every", 5);
  if ((args.has("checkpoint-dir") && copts.dir.empty()) || copts.every <= 0) {
    std::fprintf(stderr, "error: --checkpoint-dir needs a path and --ckpt-every "
                         "a positive step count\n");
    return 1;
  }
  copts.meta = {{"model", model->name},
                {"layers", std::to_string(layers)},
                {"batch", args.get("batch")},
                {"cluster", cluster_label(args)}};

  faults::FaultPlan fault_plan;
  if (args.has("fault-plan")) {
    fault_plan = faults::load_fault_plan(args.get("fault-plan"));
    fault_plan.validate(*cluster_spec);
  } else if (args.has("chaos-seed")) {
    faults::ChaosOptions chaos;
    chaos.seed = static_cast<uint64_t>(
        std::strtoull(args.get("chaos-seed").c_str(), nullptr, 10));
    chaos.steps = steps;
    // Derived from the resolved cluster, never guessed: with --cluster-gen
    // the generated device count is only known after resolution. An explicit
    // --chaos-devices must agree — a silent mismatch used to generate plans
    // targeting devices that don't exist (or missing most that do).
    chaos.device_count = cluster_spec->device_count();
    if (args.has("chaos-devices")) {
      const int requested = args.get_int("chaos-devices", -1);
      if (requested != cluster_spec->device_count()) {
        std::fprintf(stderr,
                     "error: --chaos-devices %d does not match the resolved "
                     "cluster's %d devices (drop the flag to derive it)\n",
                     requested, cluster_spec->device_count());
        return 1;
      }
    }
    fault_plan = faults::make_chaos_plan(*cluster_spec, chaos);
    // Chaos runs are for reproduction: zero the wall-clock journal fields so
    // the same seed yields byte-identical journals and event logs.
    config.fault_handling.deterministic_wall_times = true;
  } else if (args.has("chaos-devices")) {
    std::fprintf(stderr, "error: --chaos-devices requires --chaos-seed\n");
    return 1;
  }

  bool metrics_failed = false;
  const std::unique_ptr<obs::EventLog> metrics = open_metrics(args, &metrics_failed);
  if (metrics_failed) return 2;
  config.events = metrics.get();

  std::unique_ptr<store::PlanStore> plan_store;
  if (!open_plan_store(args, metrics.get(), &plan_store)) return 1;
  config.plan_store = plan_store.get();

  const auto runner = get_runner(
      [&] { return models::build_forward(model->kind, layers, batch); }, *cluster_spec,
      config);
  std::printf("model=%s layers=%d batch=%g cluster=%s health=%s\n", model->name.c_str(),
              layers, batch, cluster_label(args).c_str(),
              config.health.enabled ? "on" : "off");
  std::printf("plan: %.1f ms / iteration, feasible=%s\n", runner.per_iteration_ms(),
              runner.feasible() ? "yes" : "no");
  if (!fault_plan.empty()) {
    if (args.has("chaos-seed")) {
      std::printf("chaos seed %s -> %zu fault event(s) over %d steps:\n",
                  args.get("chaos-seed").c_str(), fault_plan.events.size(), steps);
    } else {
      std::printf("injecting %zu fault event(s) over %d steps:\n",
                  fault_plan.events.size(), steps);
    }
    for (const auto& event : fault_plan.events) {
      std::printf("  %s\n", event.describe().c_str());
    }
  }

  const auto stats = runner.run(steps, fault_plan, copts);
  print_run_stats(stats, steps);
  if (plan_store != nullptr) print_store_stats(*plan_store);
  if (config.health.enabled) {
    print_health_summary(stats.health);
    if (stats.detection_overhead_ms > 0.0) {
      std::printf("detection overhead: %.0f ms of heartbeat timeouts\n",
                  stats.detection_overhead_ms);
    }
  }
  if (copts.enabled()) {
    std::printf("journal: %s (every %d steps)\n", copts.journal_path().c_str(),
                copts.every);
  }
  if (metrics != nullptr) {
    std::printf("metrics: %llu events written to %s\n",
                static_cast<unsigned long long>(metrics->events_emitted()),
                metrics->path().c_str());
  }
  if (stats.interrupted) {
    std::printf("interrupted by signal; state flushed%s\n",
                copts.enabled() ? " (resume with `heterog_cli resume`)" : "");
    return kExitInterrupted;
  }
  return 0;
}

int cmd_resume(const Args& args) {
  install_shutdown_handlers();  // same cooperative-stop contract as `run`
  if (!args.has("journal")) return usage();
  const std::string path = args.get("journal");

  // Peek at the journal's metadata to rebuild the model without flags; the
  // library re-loads and fully re-validates it inside resume_run.
  const ckpt::RunJournal journal = ckpt::load_journal(path);
  const auto model_it = journal.meta.find("model");
  const auto batch_it = journal.meta.find("batch");
  if (model_it == journal.meta.end() || batch_it == journal.meta.end()) {
    std::fprintf(stderr,
                 "error: %s carries no model metadata (not written by heterog_cli "
                 "plan?); resume it through heterog::resume_run instead\n",
                 path.c_str());
    return 2;
  }
  const auto model = find_model(model_it->second);
  const double batch = std::atof(batch_it->second.c_str());
  if (!model || batch <= 0.0) {
    std::fprintf(stderr, "error: %s names unknown model '%s' (batch %s)\n",
                 path.c_str(), model_it->second.c_str(), batch_it->second.c_str());
    return 2;
  }
  int layers = model->default_layers;
  if (const auto it = journal.meta.find("layers"); it != journal.meta.end()) {
    layers = std::atoi(it->second.c_str());
  }

  ckpt::CheckpointOptions copts;  // dir/cadence default to the journal's own
  copts.every = args.get_int("ckpt-every", 0);

  bool metrics_failed = false;
  const std::unique_ptr<obs::EventLog> metrics = open_metrics(args, &metrics_failed);
  if (metrics_failed) return 2;

  std::unique_ptr<store::PlanStore> plan_store;
  if (!open_plan_store(args, metrics.get(), &plan_store)) return 1;

  std::printf("resuming %s: model=%s layers=%d batch=%g at step %d/%d\n", path.c_str(),
              model->name.c_str(), layers, batch, journal.watermark, journal.total_steps);
  const auto stats = resume_run(
      path, [&] { return models::build_forward(model->kind, layers, batch); }, copts,
      metrics.get(), plan_store.get());
  print_run_stats(stats, journal.total_steps - journal.watermark);
  if (plan_store != nullptr) print_store_stats(*plan_store);
  if (metrics != nullptr) {
    std::printf("metrics: %llu events written to %s\n",
                static_cast<unsigned long long>(metrics->events_emitted()),
                metrics->path().c_str());
  }
  if (stats.interrupted) {
    std::printf("interrupted by signal; state flushed (resume again to finish)\n");
    return kExitInterrupted;
  }
  return 0;
}

/// `serve`: run the multi-tenant plan daemon (docs/server.md) until SIGTERM/
/// SIGINT, then drain gracefully and report what it served.
int cmd_serve(const Args& args) {
  server::ServerOptions opts;
  opts.unix_path = args.get("socket");
  if (args.has("socket") && (opts.unix_path.empty() || opts.unix_path == "1")) {
    std::fprintf(stderr, "error: --socket needs a path\n");
    return 1;
  }
  if (args.has("port")) opts.tcp_port = args.get_int("port", -1);
  if (!args.has("socket") && !args.has("port")) {
    std::fprintf(stderr, "error: serve needs --socket PATH and/or --port N\n");
    return 1;
  }
  opts.threads = args.get_int("threads", 4);
  const int queue = args.get_int("queue", 16);
  opts.read_timeout_ms = args.get_int("read-timeout-ms", 5000);
  if (args.has("episode-cost-ms")) {
    opts.episode_cost_ms = std::atof(args.get("episode-cost-ms").c_str());
  }
  if (opts.threads < 1 || queue < 0 || opts.read_timeout_ms <= 0 ||
      opts.episode_cost_ms <= 0.0) {
    std::fprintf(stderr,
                 "error: --threads >= 1, --queue >= 0, --read-timeout-ms > 0 and "
                 "--episode-cost-ms > 0 required\n");
    return 1;
  }
  opts.queue_capacity = static_cast<size_t>(queue);
  if (args.has("plan-store")) {
    opts.store_dir = args.get("plan-store");
    if (opts.store_dir.empty() || opts.store_dir == "1") {
      std::fprintf(stderr, "error: --plan-store needs a directory path\n");
      return 1;
    }
  }

  bool metrics_failed = false;
  const std::unique_ptr<obs::EventLog> metrics = open_metrics(args, &metrics_failed);
  if (metrics_failed) return 2;
  opts.events = metrics.get();

  server::PlanServer daemon(std::move(opts));  // StoreError/ServerError -> main
  install_shutdown_handlers();
  if (!daemon.unix_path().empty()) {
    std::printf("serving on %s\n", daemon.unix_path().c_str());
  }
  if (daemon.tcp_port() >= 0) {
    std::printf("serving on 127.0.0.1:%d\n", daemon.tcp_port());
  }
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
  if (daemon.plan_store() != nullptr) print_store_stats(*daemon.plan_store());
  if (metrics != nullptr) {
    std::printf("metrics: %llu events written to %s\n",
                static_cast<unsigned long long>(metrics->events_emitted()),
                metrics->path().c_str());
  }
  return 0;
}

std::optional<strategy::Action> parse_uniform_strategy(const std::string& name) {
  using strategy::Action;
  using strategy::CommMethod;
  using strategy::ReplicationMode;
  if (name == "ev-ps") return Action::dp(ReplicationMode::kEven, CommMethod::kPS);
  if (name == "ev-ar") return Action::dp(ReplicationMode::kEven, CommMethod::kAllReduce);
  if (name == "cp-ps") return Action::dp(ReplicationMode::kProportional, CommMethod::kPS);
  if (name == "cp-ar") {
    return Action::dp(ReplicationMode::kProportional, CommMethod::kAllReduce);
  }
  return std::nullopt;
}

int cmd_evaluate(const Args& args) {
  const auto model = find_model(args.get("model"));
  const double batch = std::atof(args.get("batch", "0").c_str());
  const auto cluster_spec = resolve_cluster(args);
  if (!model || batch <= 0.0 || !cluster_spec) return usage();
  const int layers = args.get_int("layers", model->default_layers);
  const int micro_batches = args.get_int("microbatches", 1);

  // Load the plan before the expensive grouping work: a missing, corrupt or
  // wrong-cluster file surfaces immediately as a typed PlanFormatError
  // (caught in main, exit 2) instead of after seconds of profiling.
  std::optional<strategy::StrategyMap> loaded;
  if (args.has("plan")) {
    loaded = strategy::load_plan_checked(args.get("plan"), *cluster_spec);
  }

  profiler::HardwareModel hardware(*cluster_spec);
  profiler::GroundTruthCosts costs(hardware);

  auto train = models::build_training(model->kind, layers, batch);
  auto base_grouping =
      strategy::Grouping::build(train, costs, args.get_int("groups", 48));

  strategy::StrategyMap map;
  if (loaded) {
    if (static_cast<int>(loaded->group_actions.size()) != base_grouping.group_count()) {
      std::fprintf(stderr, "error: plan %s has %zu group actions, model groups into %d\n",
                   args.get("plan").c_str(), loaded->group_actions.size(),
                   base_grouping.group_count());
      return 2;
    }
    map = *loaded;
  } else {
    const auto action = parse_uniform_strategy(args.get("strategy", "ev-ar"));
    if (!action) return usage();
    map = strategy::StrategyMap::uniform(base_grouping.group_count(), *action);
  }

  graph::GraphDef* eval_graph = &train;
  strategy::Grouping grouping = base_grouping;
  graph::PipelineResult piped;
  if (micro_batches > 1) {
    piped = graph::pipeline_microbatches(train, micro_batches);
    grouping = strategy::Grouping::from_origin(base_grouping, piped.origin);
    eval_graph = &piped.graph;
  }

  bool metrics_failed = false;
  const std::unique_ptr<obs::EventLog> metrics = open_metrics(args, &metrics_failed);
  if (metrics_failed) return 2;

  sim::PlanEvalOptions options;
  if (args.get("order", "rank") == "fifo") options.policy = sched::OrderPolicy::kFifo;
  options.collect_utilization = metrics != nullptr;
  const auto eval = sim::evaluate_plan(costs, *eval_graph, grouping, map, options);
  emit_schedule_events(metrics.get(), eval, cluster_spec->device_count());

  std::printf("per-iteration: %.2f ms (cold %.2f ms)  oom=%s\n", eval.per_iteration_ms,
              eval.cold_iteration_ms, eval.oom ? "yes" : "no");
  std::printf("computation %.2f ms | communication %.2f ms\n", eval.computation_ms,
              eval.communication_ms);
  for (const auto& d : cluster_spec->devices()) {
    // The simulator only reports peaks up to the highest device it placed
    // work on; devices past the end of the vector used no memory.
    const auto idx = static_cast<size_t>(d.id);
    const int64_t peak =
        d.id >= 0 && idx < eval.peak_memory_bytes.size() ? eval.peak_memory_bytes[idx] : 0;
    std::printf("  G%d peak memory %.2f / %.1f GB\n", d.id,
                static_cast<double>(peak) / (1 << 30),
                static_cast<double>(d.memory_bytes) / (1 << 30));
  }

  if (args.has("trace") || args.has("timeline")) {
    const compile::GraphCompiler compiler(costs);
    const auto compiled = compiler.compile(*eval_graph, grouping, map);
    sim::SimOptions sim_options;
    sim_options.policy = eval.order;
    const auto result = sim::Simulator(sim_options).run(compiled.graph);
    if (args.has("trace")) {
      if (!sim::write_chrome_trace(args.get("trace"), compiled.graph, result)) {
        std::fprintf(stderr, "error: cannot write %s\n", args.get("trace").c_str());
        return 2;
      }
      std::printf("chrome trace written to %s (open in ui.perfetto.dev)\n",
                  args.get("trace").c_str());
    }
    if (args.has("timeline")) {
      std::printf("%s", sim::ascii_timeline(compiled.graph, result).c_str());
    }
  }
  if (metrics != nullptr) {
    std::printf("metrics: %llu events written to %s\n",
                static_cast<unsigned long long>(metrics->events_emitted()),
                metrics->path().c_str());
  }
  return 0;
}

int cmd_baselines(const Args& args) {
  const auto model = find_model(args.get("model"));
  const double batch = std::atof(args.get("batch", "0").c_str());
  const auto cluster_spec = resolve_cluster(args);
  if (!model || batch <= 0.0 || !cluster_spec) return usage();
  const int layers = args.get_int("layers", model->default_layers);

  profiler::HardwareModel hardware(*cluster_spec);
  profiler::GroundTruthCosts costs(hardware);
  baselines::Evaluator evaluator(costs);
  const auto train = models::build_training(model->kind, layers, batch);
  const auto grouping = strategy::Grouping::build(train, costs, args.get_int("groups", 48));

  for (const char* name : {"ev-ps", "ev-ar", "cp-ps", "cp-ar"}) {
    const auto action = parse_uniform_strategy(name);
    const auto outcome = evaluator.evaluate(
        train, grouping,
        strategy::StrategyMap::uniform(grouping.group_count(), *action),
        sched::OrderPolicy::kFifo);
    std::printf("%-6s %8.2f ms %s\n", name, outcome.time_ms,
                outcome.oom ? "(OOM)" : "");
  }
  return 0;
}

int cmd_report(const Args& args) {
  if (args.positionals.empty()) return usage();

  // read_events throws a typed EventLogError (caught in main, exit 2) on a
  // missing file, a malformed line or an unsupported schema version.
  std::vector<obs::ParsedEvent> events;
  for (const auto& path : args.positionals) {
    auto file_events = obs::read_events(path);
    events.insert(events.end(), std::make_move_iterator(file_events.begin()),
                  std::make_move_iterator(file_events.end()));
  }

  const obs::ReportSummary summary = obs::summarize_events(events);
  std::printf("%s", obs::render_report(summary).c_str());

  if (args.has("csv")) {
    if (!obs::write_convergence_csv(args.get("csv"), events)) {
      std::fprintf(stderr, "error: cannot write %s\n", args.get("csv").c_str());
      return 2;
    }
    std::printf("convergence csv written to %s\n", args.get("csv").c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = parse(argc, argv);
  if (!args) return usage();
  // Only `report` takes positional operands; a stray one anywhere else is a
  // usage error, not a silently ignored token.
  if (!args->positionals.empty() && args->command != "report") return usage();
  try {
    if (args->command == "models") return cmd_models();
    if (args->command == "clusters") return cmd_clusters();
    if (args->command == "plan" || args->command == "search") return cmd_plan(*args);
    if (args->command == "run") return cmd_run(*args);
    if (args->command == "resume") return cmd_resume(*args);
    if (args->command == "serve") return cmd_serve(*args);
    if (args->command == "evaluate") return cmd_evaluate(*args);
    if (args->command == "baselines") return cmd_baselines(*args);
    if (args->command == "report") return cmd_report(*args);
  } catch (const store::StoreError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return e.kind() == store::StoreError::Kind::kLocked ? kExitStoreLocked
                                                        : kExitStoreEnv;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  return usage();
}

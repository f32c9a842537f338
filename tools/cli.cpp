#include "cli.h"

#include <cstdint>
#include <limits>
#include <vector>

#include "cluster/topology.h"
#include "core/heterog.h"
#include "server/plan_client.h"
#include "server/plan_server.h"

namespace heterog::cli {

namespace {

constexpr int kMaxInt = std::numeric_limits<int>::max();
constexpr uint64_t kMaxU64 = std::numeric_limits<uint64_t>::max();
constexpr size_t kMaxSize = std::numeric_limits<size_t>::max();
constexpr double kInf = std::numeric_limits<double>::infinity();

Flags model_flags() {
  Flags flags;
  flags.text("model", "NAME").required().real("batch", "B", 0.0, 1e9).required();
  return flags.integer<int>("layers", 0, 4096);
}

using Command = std::pair<std::string, Flags>;

const std::vector<Command>& commands() {
  static const std::vector<Command> table = [] {
    const HeteroGConfig config;
    const server::ServerOptions daemon;
    Flags workload = model_flags();
    workload.text("cluster", "NAME", "8gpu")
        .path("cluster-gen", "PRESET|FILE")
        .integer<uint64_t>("cluster-seed", 0, kMaxU64)
        .integer<int>("groups", 1, kMaxInt, std::to_string(config.agent.max_groups));
    Flags session;
    session.path("metrics").path("plan-store", "DIR");
    Flags run_loop;  // the fault-aware run `plan` and `run` end with
    run_loop.integer<int>("steps", 1, kMaxInt, "20")
        .path("fault-plan")
        .path("checkpoint-dir", "DIR")
        .integer<int>("ckpt-every", 1, kMaxInt, "5");

    Flags plan = workload;
    plan.integer<int>("episodes", 0, kMaxInt, std::to_string(config.train.episodes))
        .path("out")
        .integer<int>("threads", 1, kMaxInt, std::to_string(config.train.threads))
        .integer<size_t>("eval-cache", 0, kMaxSize,
                         std::to_string(config.train.eval_cache_capacity))
        .add(run_loop)
        .add(session);
    Flags run = workload;
    run.add(run_loop)
        .integer<uint64_t>("chaos-seed", 0, kMaxU64)
        .integer<int>("chaos-devices", 1, kMaxInt)
        .toggle("health")
        .real("detect-threshold", "X", 0.0, kInf)
        .integer<int>("retry-budget", 1, kMaxInt)
        .add(session);
    Flags resume;
    resume.path("journal").required().integer<int>("ckpt-every", 1, kMaxInt).add(session);
    Flags serve;
    serve.path("socket", "PATH")
        .integer<int>("port", 0, 65535)
        .integer<int>("threads", 1, kMaxInt, std::to_string(daemon.threads))
        .integer<size_t>("queue", 0, kMaxSize, std::to_string(daemon.queue_capacity))
        .integer<int>("read-timeout-ms", 1, kMaxInt,
                      std::to_string(daemon.read_timeout_ms))
        .real("episode-cost-ms", "X", 0.0, kInf, format_shortest(daemon.episode_cost_ms))
        .add(session);
    Flags evaluate = workload;
    evaluate.path("plan")
        .choice("strategy", {"ev-ar", "ev-ps", "cp-ar", "cp-ps"})
        .choice("order", {"rank", "fifo"})
        .integer<int>("microbatches", 1, kMaxInt, "1")
        .path("trace")
        .toggle("timeline")
        .path("metrics");
    Flags report;
    report.path("csv").operands("FILE.jsonl");
    return std::vector<Command>{{"models", {}},        {"clusters", {}},
                                {"plan", plan},        {"search", plan},
                                {"run", run},          {"resume", resume},
                                {"serve", serve},      {"evaluate", evaluate},
                                {"baselines", workload}, {"report", report}};
  }();
  return table;
}

Model resolve_model(const FlagValues& flags) {
  Model m;
  m.name = flags.text("model");
  if (!models::parse_model_name(m.name, &m.kind, &m.layers)) {
    throw UsageError("unknown model \"" + m.name + "\" (see heterog_cli models)");
  }
  if (flags.has("layers")) m.layers = flags.integer<int>("layers");
  m.batch = flags.real("batch");
  m.batch_text = flags.text("batch");
  return m;
}

}  // namespace

const Flags* command_flags(std::string_view command) {
  for (const auto& [name, flags] : commands()) {
    if (name == command) return &flags;
  }
  return nullptr;
}

std::string usage() {
  std::string out = "usage: heterog_cli <command> [flags]\n";
  for (const auto& [name, flags] : commands()) {
    const std::string text = name == "search" ? "alias of plan" : flags.usage(12);
    std::string line = "  " + name;
    if (!text.empty()) line.resize(12, ' ');
    out += line + text + "\n";
  }
  return out + "N=V shows a default. README.md and docs/*.md describe each command.\n";
}

const Flags& plan_client_flags() {
  static const Flags flags = [] {
    const server::PlanRequest request;
    Flags f;
    f.path("socket", "PATH").integer<int>("port", 0, 65535).add(model_flags());
    return f.text("cluster", "NAME", request.cluster)
        .integer<int>("episodes", 0, 1'000'000, std::to_string(request.episodes))
        .real("deadline-ms", "X", -kInf, 1e15, format_shortest(request.deadline_ms))
        .integer<uint64_t>("seed", 0, kMaxU64, std::to_string(request.seed))
        .integer<int>("timeout-ms", 1, kMaxInt,
                      std::to_string(server::ClientOptions{}.timeout_ms))
        .toggle("quiet");
  }();
  return flags;
}

Workload resolve_workload(const FlagValues& flags) {
  Workload w;
  static_cast<Model&>(w) = resolve_model(flags);
  w.groups = flags.integer<int>("groups");
  const std::string& gen = flags.text("cluster-gen");
  if (gen.empty()) {
    if (flags.has("cluster-seed")) throw UsageError("--cluster-seed needs --cluster-gen");
    w.cluster_label = flags.text("cluster");
    const auto spec = cluster::cluster_from_name(w.cluster_label);
    if (!spec) throw UsageError("unknown cluster \"" + w.cluster_label + "\"");
    w.cluster = *spec;
    return w;
  }
  if (flags.has("cluster")) throw UsageError("--cluster and --cluster-gen are exclusive");
  try {
    auto options = cluster::topo_preset(gen);
    if (!options) options = cluster::load_topo_gen_options(gen);
    if (flags.has("cluster-seed")) {
      options->seed = flags.integer<uint64_t>("cluster-seed");
    }
    w.cluster = cluster::generate_cluster(*options);
  } catch (const cluster::ClusterSpecError& e) {
    throw UsageError("--cluster-gen " + gen + ": " + e.what());
  }
  w.cluster_label = "gen:" + gen;
  if (flags.has("cluster-seed")) w.cluster_label += "@" + flags.text("cluster-seed");
  return w;
}

Model model_from_meta(const std::map<std::string, std::string>& meta) {
  std::vector<std::string> args;
  for (const std::string key : {"model", "layers", "batch"}) {
    if (meta.count(key) > 0) args.insert(args.end(), {"--" + key, meta.at(key)});
  }
  return resolve_model(model_flags().parse(args));
}

}  // namespace heterog::cli

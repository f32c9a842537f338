// The two planning workloads (planbench/README.md). search_testbed runs RL
// searches on the paper's 8-GPU testbed; plan_scale runs heuristic plans on
// generated 64..1000-GPU topologies. Both time heterog::get_runner from
// request to deployed plan. The traced run repeats one pass with the
// library's event log attached and splits each plan into layers by replay.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench.h"
#include "cluster/topology.h"
#include "core/heterog.h"
#include "graph/training.h"
#include "models/models.h"
#include "obs/event_log.h"
#include "replay.h"
#include "rl/trainer.h"
#include "strategy/serialize.h"

namespace planbench {
namespace {

using namespace heterog;

/// RL budget per search: a fixed episode count with early stopping off, so
/// every pass does the same work.
constexpr int kEpisodes = 20;
/// REINFORCE episodes the traced run replays per search for the nn split.
constexpr int kReplayEpisodes = 2;

/// One plan the workload requests in every pass.
struct PlanCase {
  std::string label;
  graph::GraphDef forward;
  cluster::ClusterSpec cluster;
  HeteroGConfig config;
  /// Plans of this case per timed pass (the traced run plans each once).
  int repeats = 1;
};

struct PlanOutcome {
  double wall_ms = 0.0;
  std::string plan_text;
  double per_iteration_ms = 0.0;
  bool feasible = false;
  rl::SearchResult search;
  strategy::StrategyMap strategy;
};

PlanOutcome plan_once(const PlanCase& c, obs::EventLog* events) {
  HeteroGConfig config = c.config;
  config.events = events;
  config.train.events = events;
  const auto t0 = Clock::now();
  const DistRunner runner = get_runner([&c] { return c.forward; }, c.cluster, config);
  PlanOutcome out;
  out.wall_ms = ms_since(t0);
  out.plan_text = strategy::to_text(runner.strategy(), runner.cluster());
  out.per_iteration_ms = runner.per_iteration_ms();
  out.feasible = runner.feasible();
  out.search = runner.search_result();
  out.strategy = runner.strategy();
  return out;
}

/// Counts the plan and checks it: feasible, and (when `reference` is set)
/// the same plan as the reference pass deployed.
void check_plan(const PlanCase& c, const PlanOutcome& plan, const PlanOutcome* reference,
                const char* pass, Report& report) {
  report.attempt(plan.feasible);
  if (!plan.feasible) report.violation(c.label + ": deployed plan is infeasible");
  if (reference != nullptr && (plan.plan_text != reference->plan_text ||
                               plan.per_iteration_ms != reference->per_iteration_ms)) {
    report.violation(c.label + ": " + pass + " deployed a different plan");
  }
}

/// Walls of the search phases, read back from the traced pass's event log.
struct SearchEvents {
  double heuristics_ms = 0.0;
  double episodes_ms = 0.0;
  double polish_ms = 0.0;
  double search_ms = 0.0;
  double episodes = 0.0;
  double oom_samples = 0.0;
};

SearchEvents read_search_events(const std::string& path) {
  SearchEvents out;
  for (const obs::ParsedEvent& e : obs::read_events(path)) {
    if (e.type == "search_phase") {
      (e.str("phase") == "heuristics" ? out.heuristics_ms : out.polish_ms) +=
          e.number("wall_ms");
    } else if (e.type == "search_episode") {
      out.episodes_ms += e.number("wall_ms");
      out.oom_samples += e.number("oom_samples");
      out.episodes += 1.0;
    } else if (e.type == "search_end") {
      out.search_ms += e.number("wall_ms");
    }
  }
  return out;
}

/// RL search: replay the profile, the warm-start candidates and a few
/// policy episodes with their samples; scale per-evaluation and per-episode
/// times by the untraced pass's counts.
void split_search(const PlanCase& c, const PlanOutcome& plan, const SearchEvents& events,
                  Report& report) {
  const graph::GraphDef training = graph::build_training_graph(c.forward);
  const Profiled profiled = profile_and_encode(training, c.cluster, c.config.profiler_seed);
  const strategy::Grouping& grouping = profiled.encoded.grouping;
  const rl::Trainer trainer(*profiled.costs, c.config.train);
  std::vector<strategy::StrategyMap> strategies =
      trainer.heuristic_candidates(training, grouping);
  const NnSplit nn = replay_episodes(profiled.encoded, c.cluster.device_count(),
                                     kReplayEpisodes, c.config.train.seed, &strategies);

  PlanSplit split = start_split(profiled);
  const Unrolled unrolled = unroll(training, grouping);
  split.unroll_ms = unrolled.build_ms;
  sim::PlanEvalOptions options;
  options.compiler = c.config.train.compiler;
  for (const strategy::StrategyMap& s : strategies) {
    bool oom = false;
    replay_evaluation(*profiled.costs, training, grouping, s, options, unrolled,
                      split.evals, &oom, report);
  }
  replay_deployment(profiled, training, plan.strategy, split);
  if (split.per_iteration_ms != plan.per_iteration_ms) {
    report.violation(c.label + ": replayed deployment differs from the deployed plan");
  }

  const double evals = static_cast<double>(plan.search.eval_cache_misses);
  add_split(report, split, {1.0, 1.0, 1.0, evals});
  const double episodes = plan.search.episodes_run;
  const double k = episodes / nn.episodes;
  report.add("nn.policy_fwd_ms", nn.fwd_ms * k);
  report.add("nn.policy_bwd_ms", nn.bwd_ms * k);
  report.add("nn.optim_ms", nn.optim_ms * k);
  report.add("nn.sample_ms", nn.sample_ms * k);
  report.add("nn.tape_ops", nn.tape_ops * k);
  report.add("rl.episodes", episodes);
  report.add("rl.heuristics_ms", events.heuristics_ms);
  report.add("rl.episodes_ms", events.episodes_ms);
  report.add("rl.polish_ms", events.polish_ms);
  report.add("rl.other_ms", events.search_ms -
                                split.evals.total_ms() * evals / split.evals.evals -
                                nn.total_ms() * k);
}

/// Heuristic plan: the whole zero-episode path is replayed, and the replayed
/// plan must be the deployed one.
void split_heuristic(const PlanCase& c, const PlanOutcome& plan,
                     const SearchEvents& events, Report& report) {
  const graph::GraphDef training = graph::build_training_graph(c.forward);
  const PlanSplit split =
      replay_heuristic_plan(training, c.cluster, c.config.profiler_seed, report);
  if (split.plan_text != plan.plan_text || split.per_iteration_ms != plan.per_iteration_ms) {
    report.violation(c.label + ": replayed heuristic plan differs from the deployed plan");
  }
  const double evals = static_cast<double>(plan.search.eval_cache_misses);
  add_split(report, split, {1.0, 1.0, 1.0, evals});
  report.add("rl.heuristics_ms", events.search_ms);
  if (split.evals.evals > 0) {
    report.add("rl.other_ms",
               events.search_ms - split.evals.total_ms() * evals / split.evals.evals);
  }
}

std::vector<PlanOutcome> untraced_pass(const std::vector<PlanCase>& cases,
                                       const std::vector<PlanOutcome>* reference,
                                       double* wall_ms, Report& report) {
  std::vector<PlanOutcome> out;
  for (size_t i = 0; i < cases.size(); ++i) {
    out.push_back(plan_once(cases[i], nullptr));
    check_plan(cases[i], out.back(), reference ? &(*reference)[i] : nullptr,
               "a repeated pass", report);
    *wall_ms += out.back().wall_ms;
  }
  return out;
}

/// One untraced pass (the reference; it also warms the process up), the
/// traced pass, and a second untraced pass that the traced one is timed
/// against.
void trace_plans(const Args& args, bool rl, const std::vector<PlanCase>& cases,
                 Report& report) {
  double first_ms = 0.0, plain_ms = 0.0;
  const std::vector<PlanOutcome> plain = untraced_pass(cases, nullptr, &first_ms, report);
  double traced_ms = 0.0, hits = 0.0, misses = 0.0, oom_samples = 0.0, samples = 0.0;
  for (size_t i = 0; i < cases.size(); ++i) {
    const std::string path = args.tmp + "/events-" + std::to_string(i) + ".jsonl";
    PlanOutcome traced;
    {
      obs::EventLog log(path);
      traced = plan_once(cases[i], &log);
    }
    check_plan(cases[i], traced, &plain[i], "the traced pass", report);
    traced_ms += traced.wall_ms;
    const SearchEvents events = read_search_events(path);
    if (rl) {
      split_search(cases[i], plain[i], events, report);
    } else {
      split_heuristic(cases[i], plain[i], events, report);
    }
    hits += static_cast<double>(plain[i].search.eval_cache_hits);
    misses += static_cast<double>(plain[i].search.eval_cache_misses);
    oom_samples += events.oom_samples;
    samples += events.episodes * rl::TrainConfig{}.samples_per_episode;
    std::printf("traced %-20s wall %.1f ms, %.0f evaluations\n", cases[i].label.c_str(),
                traced.wall_ms, static_cast<double>(plain[i].search.eval_cache_misses));
  }
  untraced_pass(cases, &plain, &plain_ms, report);
  report.set("rl.evals", misses);
  report.set("rl.eval_hits", hits);
  report.set("rl.eval_hit_ratio", hits + misses > 0.0 ? hits / (hits + misses) : 0.0);
  report.set("rl.oom_ratio", samples > 0.0 ? oom_samples / samples : 0.0);
  report.set("bench.trace_overhead_ratio", traced_ms / plain_ms);
}

void run_plans(const Args& args, Report& report, bool rl,
               const std::function<std::vector<PlanCase>(double* generate_ms)>& build) {
  std::vector<PlanCase> cases;
  double generate_ms = 0.0;
  const double setup_s = median_setup_s([&] {
    generate_ms = 0.0;
    cases = build(&generate_ms);
  });
  if (args.trace) {
    report.set("cluster.generate_ms", generate_ms);
    trace_plans(args, rl, cases, report);
    return;
  }

  // Each pass calibrates the host before its first plan and after each one,
  // and rescales its walls by those calibrations (HostSpeed).
  std::vector<PlanOutcome> first(cases.size());
  std::vector<std::vector<double>> walls(cases.size()), raw_walls(cases.size());
  std::vector<double> rates, calibration_ms;
  const int passes = run_passes(args.seconds, [&](int pass) {
    HostSpeed speed;
    speed.calibrate();
    std::vector<std::vector<double>> pass_ms(cases.size());
    double work = 0.0;
    for (size_t i = 0; i < cases.size(); ++i) {
      for (int r = 0; r < cases[i].repeats; ++r) {
        PlanOutcome out = plan_once(cases[i], nullptr);
        speed.calibrate();
        const bool reference = pass == 0 && r == 0;
        check_plan(cases[i], out, reference ? nullptr : &first[i], "a repeated plan", report);
        pass_ms[i].push_back(out.wall_ms);
        work += rl ? out.search.episodes_run : cases[i].cluster.device_count();
        if (reference) first[i] = std::move(out);
      }
    }
    double wall_ms = 0.0;
    for (size_t i = 0; i < cases.size(); ++i) {
      for (const double ms : pass_ms[i]) {
        walls[i].push_back(ms * speed.scale());
        raw_walls[i].push_back(ms);
        wall_ms += ms * speed.scale();
      }
    }
    rates.push_back(work / (wall_ms / 1000.0));
    calibration_ms.push_back(speed.mean_ms());
  });

  std::vector<double> medians_s, iteration_ms;
  std::printf("%-20s %6s %14s %14s %14s %12s %10s\n", "plan", "plans", "wall p50 ms",
              "raw p50 ms", "plan_iter ms", "evaluations", "hits");
  for (size_t i = 0; i < cases.size(); ++i) {
    medians_s.push_back(median(walls[i]) / 1000.0);
    iteration_ms.push_back(first[i].per_iteration_ms);
    std::printf("%-20s %6zu %14.1f %14.1f %14.3f %12llu %10llu\n", cases[i].label.c_str(),
                walls[i].size(), 1000.0 * medians_s.back(), median(raw_walls[i]),
                first[i].per_iteration_ms,
                static_cast<unsigned long long>(first[i].search.eval_cache_misses),
                static_cast<unsigned long long>(first[i].search.eval_cache_hits));
  }
  std::printf("%d passes; calibration p50 %.2f ms (reference %.1f ms)\n", passes,
              median(calibration_ms), kReferenceCalibrationMs);
  report.set("setup_s", setup_s);
  report.set("plan_wall_s", geomean(medians_s));
  report.set("tail_wall_s", *std::max_element(medians_s.begin(), medians_s.end()));
  report.set("rate_per_s", median(rates));
  report.set("plan_iter_ms", geomean(iteration_ms));
  report.set("peak_rss_mb", peak_rss_mb());
}

}  // namespace

void run_search_testbed(const Args& args, Report& report) {
  struct Model {
    const char* label;
    models::ModelKind kind;
    int layers;
    double batch;
  };
  static const Model kModels[] = {
      {"mobilenet_v2/b64", models::ModelKind::kMobileNetV2, 0, 64.0},
      {"inception_v3/b32", models::ModelKind::kInceptionV3, 0, 32.0},
      {"bert_large_48l/b24", models::ModelKind::kBertLarge, 48, 24.0},
  };
  run_plans(args, report, /*rl=*/true, [&](double* generate_ms) {
    std::vector<PlanCase> cases;
    for (size_t i = 0; i < std::size(kModels); ++i) {
      const Model& m = kModels[i];
      const auto t0 = Clock::now();
      cluster::ClusterSpec testbed = cluster::make_paper_testbed_8gpu();
      *generate_ms += ms_since(t0);
      PlanCase c{m.label, models::build_forward(m.kind, m.layers, m.batch),
                 std::move(testbed), HeteroGConfig{}};
      c.config.train.episodes = kEpisodes;
      c.config.train.patience = 0;
      c.config.train.threads = 1;
      // The seed drives the policy's sampling and the polish moves; the
      // profile and the warm start stay those of the paper's setup. Bert's
      // search keeps the default seed: its memory repair makes its work
      // swing with the samples, and it alone sets tail_wall_s.
      if (m.kind != models::ModelKind::kBertLarge) {
        c.config.train.seed = derive_seed(args.seed, i);
      }
      cases.push_back(std::move(c));
    }
    return cases;
  });
}

void run_plan_scale(const Args& args, Report& report) {
  static const char* const kPresets[] = {"pod64", "pod256", "dc1000"};
  // Repeats per pass, so that the short plans get more samples than dc1000's
  // single 7-10 s plan gives them.
  static const int kRepeats[] = {4, 2, 1};
  run_plans(args, report, /*rl=*/false, [&](double* generate_ms) {
    std::vector<PlanCase> cases;
    for (size_t i = 0; i < std::size(kPresets); ++i) {
      // The preset fixes the shape (racks, hosts, GPUs, fabric); the seed
      // draws the GPU SKU and link mixes and the profiling noise of pod64
      // and pod256. dc1000 keeps the preset's mixes and the default
      // profiling seed: under other draws its heuristic picks one of two
      // plans whose deployment differs by ~18% in wall and ~12% in peak RSS.
      const bool pinned = std::string(kPresets[i]) == "dc1000";
      cluster::TopoGenOptions options = *cluster::topo_preset(kPresets[i]);
      if (!pinned) options.seed = derive_seed(args.seed, i);
      const auto t0 = Clock::now();
      cluster::ClusterSpec generated = cluster::generate_cluster(options);
      *generate_ms += ms_since(t0);
      const double batch = 2.0 * generated.device_count();
      PlanCase c{kPresets[i], models::build_forward(models::ModelKind::kVgg19, 0, batch),
                 std::move(generated), HeteroGConfig{}};
      c.config.search_with_rl = false;
      c.config.train.episodes = 0;
      if (!pinned) c.config.profiler_seed = derive_seed(args.seed, 100 + i);
      c.repeats = kRepeats[i];
      cases.push_back(std::move(c));
    }
    return cases;
  });
}

}  // namespace planbench

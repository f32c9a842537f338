#include "obs/report.h"

#include <algorithm>
#include <cstdio>

#include "common/record_io.h"
#include "common/stats.h"
#include "common/table.h"

namespace heterog::obs {

double ReportSummary::cache_hit_rate() const {
  const uint64_t total = cache_hits + cache_misses;
  return total > 0 ? static_cast<double>(cache_hits) / static_cast<double>(total)
                   : 0.0;
}

ReportSummary summarize_events(const std::vector<std::string>& paths) {
  std::vector<ParsedEvent> events;
  for (const auto& path : paths) {
    auto file_events = read_events(path);
    events.insert(events.end(), std::make_move_iterator(file_events.begin()),
                  std::make_move_iterator(file_events.end()));
  }
  return summarize_events(events);
}

ReportSummary summarize_events(const std::vector<ParsedEvent>& events) {
  ReportSummary s;
  s.total_events = static_cast<int>(events.size());
  std::vector<double> step_ms;
  std::vector<double> ckpt_ms;
  int episode_events = 0;

  for (const ParsedEvent& e : events) {
    if (e.type == "search_start" || e.type == "search_phase") {
      s.has_search = true;
    } else if (e.type == "search_episode") {
      s.has_search = true;
      ++episode_events;
      // A log may carry several searches (e.g. re-plans after a device
      // failure); the trailing search_end wins, and episode events only
      // fill in when no search_end was written (crash mid-search).
      s.best_time_ms = e.number("best_ms");
      s.best_reward = e.number("best_reward");
      s.best_feasible = e.number("best_feasible") != 0.0;
      s.cache_hits = static_cast<uint64_t>(e.number("cache_hits"));
      s.cache_misses = static_cast<uint64_t>(e.number("cache_misses"));
    } else if (e.type == "search_end") {
      s.has_search = true;
      s.search_episodes = static_cast<int>(e.number("episodes_run"));
      s.best_time_ms = e.number("best_ms");
      s.best_reward = e.number("best_reward");
      s.best_feasible = e.number("best_feasible") != 0.0;
      s.episode_of_best = static_cast<int>(e.number("episode_of_best"));
      s.cache_hits = static_cast<uint64_t>(e.number("cache_hits"));
      s.cache_misses = static_cast<uint64_t>(e.number("cache_misses"));
      s.search_wall_ms = e.number("wall_ms");
      episode_events = 0;  // consumed by this search
    } else if (e.type == "pretrain_round") {
      ++s.pretrain_rounds;
      s.pretrain_last_mean_reward = e.number("mean_reward");
    } else if (e.type == "run_start") {
      s.has_run = true;
    } else if (e.type == "run_step") {
      s.has_run = true;
      step_ms.push_back(e.number("step_ms"));
    } else if (e.type == "run_retry") {
      s.has_run = true;
      s.transient_retries += static_cast<int>(e.number("attempts"));
      s.retry_backoff_ms += e.number("backoff_ms");
    } else if (e.type == "run_recovery") {
      s.has_run = true;
      ++s.recoveries;
      s.replan_wall_ms += e.number("replan_wall_ms");
    } else if (e.type == "run_checkpoint") {
      s.has_run = true;
      ++s.checkpoints;
      ckpt_ms.push_back(e.number("wall_ms"));
    } else if (e.type == "run_end") {
      s.has_run = true;
      s.run_completed = e.number("completed", 1.0) != 0.0;
    } else if (e.type == "schedule") {
      s.has_schedule = true;
      s.makespan_ms = e.number("makespan_ms");
      s.critical_path_share = e.number("critical_path_share");
      s.devices.clear();  // a re-plan re-emits the schedule; last wins
      s.links.clear();
    } else if (e.type == "device_utilization") {
      s.has_schedule = true;
      ReportSummary::DeviceUtilization d;
      d.device = static_cast<int>(e.number("device", -1.0));
      d.busy_ms = e.number("busy_ms");
      d.utilization = e.number("utilization");
      s.devices.push_back(d);
    } else if (e.type == "link_utilization") {
      s.has_schedule = true;
      ReportSummary::LinkUtilization l;
      l.resource = e.str("resource");
      l.busy_ms = e.number("busy_ms");
      l.utilization = e.number("utilization");
      s.links.push_back(std::move(l));
    }
  }

  // Crash tolerance: a log that ends mid-search still reports what the
  // episode stream established.
  if (s.has_search && s.search_episodes == 0) s.search_episodes = episode_events;

  s.run_steps = static_cast<int>(step_ms.size());
  if (!step_ms.empty()) {
    s.step_mean_ms = mean(step_ms);
    s.step_p50_ms = percentile(step_ms, 50.0);
    s.step_p95_ms = percentile(step_ms, 95.0);
    s.step_max_ms = *std::max_element(step_ms.begin(), step_ms.end());
    for (const double t : step_ms) s.run_total_ms += t;
  }
  if (!ckpt_ms.empty()) {
    s.checkpoint_mean_ms = mean(ckpt_ms);
    s.checkpoint_max_ms = *std::max_element(ckpt_ms.begin(), ckpt_ms.end());
  }
  std::sort(s.links.begin(), s.links.end(),
            [](const auto& a, const auto& b) { return a.busy_ms > b.busy_ms; });
  return s;
}

std::string render_report(const ReportSummary& s) {
  std::string out;
  if (s.has_search) {
    TextTable table({"search", "value"});
    table.add_row({"episodes run", std::to_string(s.search_episodes)});
    table.add_row({"best time (ms/iter)", fmt_double(s.best_time_ms, 2)});
    table.add_row({"best reward", fmt_double(s.best_reward, 4)});
    table.add_row({"feasible", s.best_feasible ? "yes" : "no"});
    table.add_row({"episode of best", std::to_string(s.episode_of_best)});
    table.add_row({"eval cache hits", std::to_string(s.cache_hits)});
    table.add_row({"eval cache misses", std::to_string(s.cache_misses)});
    table.add_row({"eval cache hit-rate", fmt_percent(s.cache_hit_rate())});
    if (s.search_wall_ms > 0.0) {
      table.add_row({"search wall (ms)", fmt_double(s.search_wall_ms, 1)});
    }
    out += table.render();
    out += '\n';
  }
  if (s.pretrain_rounds > 0) {
    TextTable table({"pretrain", "value"});
    table.add_row({"rounds", std::to_string(s.pretrain_rounds)});
    table.add_row({"last mean reward", fmt_double(s.pretrain_last_mean_reward, 4)});
    out += table.render();
    out += '\n';
  }
  if (s.has_run) {
    TextTable table({"run", "value"});
    table.add_row({"steps", std::to_string(s.run_steps)});
    table.add_row({"total (ms)", fmt_double(s.run_total_ms, 1)});
    table.add_row({"step mean (ms)", fmt_double(s.step_mean_ms, 2)});
    table.add_row({"step p50 / p95 (ms)", fmt_double(s.step_p50_ms, 2) + " / " +
                                              fmt_double(s.step_p95_ms, 2)});
    table.add_row({"step max (ms)", fmt_double(s.step_max_ms, 2)});
    table.add_row({"transient retries", std::to_string(s.transient_retries)});
    table.add_row({"retry backoff (ms)", fmt_double(s.retry_backoff_ms, 1)});
    table.add_row({"recoveries", std::to_string(s.recoveries)});
    if (s.recoveries > 0) {
      table.add_row({"re-plan wall (ms)", fmt_double(s.replan_wall_ms, 1)});
    }
    table.add_row({"checkpoints", std::to_string(s.checkpoints)});
    if (s.checkpoints > 0) {
      table.add_row({"ckpt latency mean / max (ms)",
                     fmt_double(s.checkpoint_mean_ms, 2) + " / " +
                         fmt_double(s.checkpoint_max_ms, 2)});
    }
    table.add_row({"completed", s.run_completed ? "yes" : "NO"});
    out += table.render();
    out += '\n';
  }
  if (s.has_schedule) {
    TextTable table({"schedule", "value"});
    table.add_row({"makespan (ms)", fmt_double(s.makespan_ms, 2)});
    table.add_row({"critical-path share", fmt_percent(s.critical_path_share)});
    out += table.render();
    if (!s.devices.empty()) {
      TextTable devices({"device", "busy (ms)", "utilization"});
      for (const auto& d : s.devices) {
        devices.add_row({"G" + std::to_string(d.device), fmt_double(d.busy_ms, 2),
                         fmt_percent(d.utilization)});
      }
      out += devices.render();
    }
    if (!s.links.empty()) {
      TextTable links({"comm resource", "busy (ms)", "utilization"});
      const size_t shown = std::min<size_t>(s.links.size(), 10);
      for (size_t i = 0; i < shown; ++i) {
        links.add_row({s.links[i].resource, fmt_double(s.links[i].busy_ms, 2),
                       fmt_percent(s.links[i].utilization)});
      }
      if (s.links.size() > shown) {
        links.add_row({"(" + std::to_string(s.links.size() - shown) + " more)",
                       "", ""});
      }
      out += links.render();
    }
    out += '\n';
  }
  if (out.empty()) out = "no events\n";
  return out;
}

bool write_convergence_csv(const std::string& path,
                           const std::vector<ParsedEvent>& events) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file,
               "episode,best_ms,best_feasible,mean_reward,baseline,entropy,"
               "cache_hits,cache_misses,wall_ms\n");
  for (const ParsedEvent& e : events) {
    if (e.type != "search_episode") continue;
    const std::string row =
        std::to_string(static_cast<int>(e.number("episode"))) + "," +
        format_double(e.number("best_ms")) + "," +
        (e.number("best_feasible") != 0.0 ? "1" : "0") + "," +
        format_double(e.number("mean_reward")) + "," +
        format_double(e.number("baseline")) + "," +
        format_double(e.number("entropy")) + "," +
        std::to_string(static_cast<unsigned long long>(e.number("cache_hits"))) + "," +
        std::to_string(static_cast<unsigned long long>(e.number("cache_misses"))) + "," +
        format_double(e.number("wall_ms")) + "\n";
    std::fputs(row.c_str(), file);
  }
  std::fclose(file);
  return true;
}

}  // namespace heterog::obs

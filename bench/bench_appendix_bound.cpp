// Appendix: the list-scheduling bound T_LS <= (M + M^2) T* and the crafted
// worst-case instance (Fig. A3) where a no-backfill list schedule degrades to
// T_LS / T* ~= M + M^2.
//
// The instance: H - 1 chains, each k rounds of H operations round-robined
// across H schedulable resources; one operation per chain per round is
// expensive (p), the rest negligible (e -> 0); plus k independent expensive
// ops parked on the last resource. Under classic no-backfill list scheduling
// (tasks committed to their resource in priority order, no later task may
// slip into an idle gap) the appendix derives
//     T_LS = (k-1)((H-1)p + (2H-3)e) + (H-1)e + kp   ~=   ((k-1)H + 1) p
// against the pipelined optimum T* = k(p + (H-1)e) + (H-2)e ~= kp, i.e. a
// ratio of ~H (= M + M^2 with links counted as devices).
//
// Our executor is work-conserving (a free resource always starts its highest
// priority READY op, i.e. it backfills), so it sidesteps the construction:
// this bench shows the simulated schedule staying near T* on the very
// instance that defeats no-backfill list scheduling.
#include "bench_util.h"
#include "sim/simulator.h"

using namespace heterog;
using namespace heterog::bench;

namespace {

compile::DistGraph build_worst_case(int h, int k, double p, double e) {
  compile::DistGraph g(h);
  auto add_op = [&](int device, double duration) {
    compile::DistNode n;
    n.name = "op";
    n.kind = compile::NodeKind::kCompute;
    n.device = device;
    n.duration_ms = duration;
    return g.add_node(std::move(n));
  };
  for (int c = 0; c < h - 1; ++c) {
    compile::DistNodeId prev = -1;
    for (int r = 0; r < k; ++r) {
      for (int pos = 0; pos < h; ++pos) {
        const auto id = add_op(pos, pos == c ? p : e);
        if (prev >= 0) g.add_edge(prev, id);
        prev = id;
      }
    }
  }
  for (int i = 0; i < k; ++i) add_op(h - 1, p);
  g.finalize();
  return g;
}

}  // namespace

int main() {
  print_header(
      "Appendix: list-scheduling bound T_LS <= (M + M^2) T* and worst case",
      "Theorem 1: T_LS <= (M + M^2) T*; Theorem 2: an instance exists with "
      "T_LS / T* ~= M + M^2 (links counted as devices)");

  // Part 1: empirical bound check on random small graphs -- the rank list
  // schedule never exceeds (M + M^2) T*_exhaustive (and is usually optimal).
  {
    Rng rng(17);
    TextTable table({"instance", "M", "T_LS", "T*", "ratio", "bound M+M^2"});
    for (int trial = 0; trial < 6; ++trial) {
      const int m = 2 + trial % 2;  // 2..3 devices
      compile::DistGraph g(m);
      const int nodes = 7;
      for (int i = 0; i < nodes; ++i) {
        compile::DistNode n;
        n.name = "n" + std::to_string(i);
        n.kind = compile::NodeKind::kCompute;
        n.device = rng.uniform_int(0, m - 1);
        n.duration_ms = rng.uniform(0.5, 3.0);
        g.add_node(std::move(n));
      }
      for (int i = 0; i < nodes; ++i) {
        for (int j = i + 1; j < nodes; ++j) {
          if (rng.uniform() < 0.25) g.add_edge(i, j);
        }
      }
      g.finalize();
      const double t_ls = sim::simulate_iteration_ms(g);
      const double t_opt = sim::optimal_makespan_exhaustive(g);
      table.add_row({"random-" + std::to_string(trial), std::to_string(m),
                     fmt_double(t_ls, 2), fmt_double(t_opt, 2),
                     fmt_double(t_ls / t_opt, 2), std::to_string(m + m * m)});
    }
    std::printf("Theorem 1 (random instances, exhaustive optimum):\n%s\n",
                table.render().c_str());
  }

  // Part 2: the crafted worst-case instance. The appendix ratio applies to
  // no-backfill list scheduling; our work-conserving executor stays near the
  // optimum on the same DAG.
  {
    TextTable table({"H", "k", "paper T_LS (no backfill)", "T* (optimal)",
                     "paper ratio", "our simulator", "our ratio"});
    for (int h : {3, 4, 5, 6}) {
      const int k = 40;
      const double p = 1.0, e = 1e-6;
      const auto g = build_worst_case(h, k, p, e);
      sim::SimOptions options;
      options.track_memory = false;
      sim::Simulator simulator(options);
      const double t_sim = simulator.run(g).makespan_ms;  // rank priorities
      const double t_ls_paper =
          (k - 1) * ((h - 1) * p + (2 * h - 3) * e) + (h - 1) * e + k * p;
      const double t_opt = k * (p + (h - 1) * e) + (h - 2) * e;
      table.add_row({std::to_string(h), std::to_string(k), fmt_double(t_ls_paper, 1),
                     fmt_double(t_opt, 1), fmt_double(t_ls_paper / t_opt, 2),
                     fmt_double(t_sim, 1), fmt_double(t_sim / t_opt, 2)});
    }
    std::printf("Theorem 2 (crafted worst case, e -> 0):\n%s\n", table.render().c_str());
  }
  std::printf(
      "Expected shape: random-instance ratios stay far below the M+M^2 bound. On the\n"
      "crafted instance, the appendix\'s no-backfill list schedule pays ~H x the\n"
      "optimum, while our work-conserving executor (which backfills idle resources)\n"
      "stays close to T* -- a strict improvement over the analysed worst case.\n");
  write_bench_json("appendix_bound");
  return 0;
}

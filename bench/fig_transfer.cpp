// Oracle transfer matrix: train a safety-hijacker oracle per scenario
// family, evaluate every oracle on held-out launches from every family
// (predictive transfer), and deploy each oracle in closed-loop R-mode
// campaigns on every family (behavioral transfer). The cross-surface
// analogue of the paper's per-vector training (§IV-B), extended to the
// full scenario registry.

#include <chrono>
#include <cstdio>

#include "bench_util.hpp"
#include "experiments/reporting.hpp"
#include "experiments/transfer_matrix.hpp"

using namespace rt;

int main(int argc, char** argv) {
  const auto opts = bench::parse_options(argc, argv, /*default_seed=*/424242,
                                         bench::GridRoute::kInProcess);
  bench::header("Transfer matrix — train-on-X / eval-on-Y oracle transfer");

  experiments::LoopConfig loop;
  experiments::TransferConfig cfg;
  cfg.sh.seed = opts.seed;
  // Reduced launch grid: enough (delta_inject, k) spread to train a usable
  // per-family oracle while keeping the full matrix over every registered
  // family fast. The nn hyper-parameters stay at the paper defaults.
  cfg.sh.delta_triggers = {8.0, 16.0, 26.0};
  cfg.sh.ks = {8, 24, 48};
  cfg.sh.repeats = 2;
  cfg.campaign_runs = opts.runs;
  cfg.threads = opts.threads;

  const auto& registry = sim::ScenarioRegistry::global();
  std::printf("families: %zu   launches/family: %zu   campaign runs/cell: %d\n",
              registry.size(),
              cfg.sh.delta_triggers.size() * cfg.sh.ks.size() *
                  static_cast<std::size_t>(cfg.sh.repeats),
              cfg.campaign_runs);

  const auto t0 = std::chrono::steady_clock::now();
  const auto matrix = experiments::run_transfer_matrix(cfg, loop);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const auto head = experiments::TransferMatrix::csv_header();
  const auto rows = matrix.csv_rows();
  std::printf("%s", experiments::format_table(head, rows).c_str());
  bench::maybe_write_csv(opts, head, rows);
  int campaign_runs = 0;
  for (const auto& c : matrix.cells) campaign_runs += c.campaign_n;
  std::printf("matrix: %zu cells (%d campaign runs) in %.2f s\n",
              matrix.cells.size(), campaign_runs, elapsed);
  bench::maybe_write_bench_json(
      opts,
      {{"fig_transfer_matrix",
        elapsed > 0.0 ? campaign_runs / elapsed : 0.0, elapsed * 1000.0,
        opts.threads == 0 ? 0 : opts.threads, opts.seed}});

  // Transfer gap: on-diagonal (train == eval family) vs off-diagonal
  // predictive accuracy and behavioral trigger rate. The two metrics come
  // from different cell populations (a cell can have an empty holdout
  // split yet valid campaign results, and vice versa), so each keeps its
  // own denominator.
  struct Gap {
    double acc_sum{0.0};
    int acc_n{0};
    double trig_sum{0.0};
    int trig_n{0};
  };
  Gap diag;
  Gap off;
  for (const auto& c : matrix.cells) {
    Gap& g = c.train_set == c.eval_family ? diag : off;
    if (c.n_eval > 0) {
      g.acc_sum += c.accuracy;
      ++g.acc_n;
    }
    if (c.campaign_n > 0) {
      g.trig_sum += c.triggered_rate;
      ++g.trig_n;
    }
  }
  bench::header("transfer gap (diagonal = train family == eval family)");
  const auto print_gap = [](const char* label, const Gap& g) {
    std::printf("%s mean accuracy %.3f (%d cells)   mean trigger rate %.3f (%d cells)\n",
                label, g.acc_n > 0 ? g.acc_sum / g.acc_n : 0.0, g.acc_n,
                g.trig_n > 0 ? g.trig_sum / g.trig_n : 0.0, g.trig_n);
  };
  print_gap("diagonal:    ", diag);
  print_gap("off-diagonal:", off);
  bench::finish_observability(opts);
  return 0;
}

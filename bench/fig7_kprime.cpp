// Reproduces Fig. 7: K' — the number of frames the trajectory hijacker
// actively shifts the victim's bounding box before holding the faked
// trajectory — split by attack vector and victim class.

#include <cstdio>

#include "bench_util.hpp"
#include "experiments/reporting.hpp"
#include "stats/summary.hpp"

using namespace rt;

int main(int argc, char** argv) {
  const auto opts = bench::parse_options(argc, argv, /*default_seed=*/2468);
  bench::header("Fig. 7 — K' shift time per vector and victim class");
  experiments::LoopConfig loop;
  const auto oracles = bench::oracles(loop);
  experiments::CampaignRunner runner(loop, oracles);
  const auto svc = bench::make_service(runner, opts);
  const auto service_before = obs::MetricsRegistry::global().snapshot();
  const int n = opts.runs;

  struct Cell {
    const char* label;
    const char* scenario;
    core::AttackVector vector;
    double paper_median;
  };
  // Paper medians (Fig. 7): vehicle Move_Out 6, Move_In 10;
  // pedestrian Move_Out 5, Move_In 3 (Disappear has no shift phase in our
  // implementation; the paper lists its total perturbation instead).
  const Cell cells[] = {
      {"Vehicle / Move_Out (DS-1)", "DS-1", core::AttackVector::kMoveOut,
       6.0},
      {"Vehicle / Move_In  (DS-3)", "DS-3", core::AttackVector::kMoveIn,
       10.0},
      {"Pedestrian / Move_Out (DS-2)", "DS-2", core::AttackVector::kMoveOut,
       5.0},
      {"Pedestrian / Move_In  (DS-4)", "DS-4", core::AttackVector::kMoveIn,
       3.0},
  };

  std::vector<experiments::CampaignSpec> specs;
  for (const Cell& c : cells) {
    specs.push_back({c.label, c.scenario, c.vector,
                     experiments::AttackMode::kRobotack, n, opts.seed,
                     std::nullopt});
  }
  const auto results = svc->run_grid(specs);
  bench::report_service_stats(*svc, service_before);

  std::vector<std::string> csv_head{"cell",   "n_kprime", "min", "q1",
                                    "median", "q3",       "max"};
  std::vector<std::vector<std::string>> csv_rows;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Cell& c = cells[i];
    const auto ks = results[i].k_primes();
    std::printf("\n%s (paper median K' = %.0f)\n", c.label, c.paper_median);
    if (ks.empty()) {
      std::printf("  no triggered Move_* attacks in %d runs\n",
                  results[i].n());
      csv_rows.push_back({c.label, "0", "-", "-", "-", "-", "-"});
    } else {
      const auto box = stats::boxplot(ks);
      std::printf("  K': %s\n", box.to_string().c_str());
      csv_rows.push_back({c.label, std::to_string(box.n),
                          experiments::fmt(box.min),
                          experiments::fmt(box.q1),
                          experiments::fmt(box.median),
                          experiments::fmt(box.q3),
                          experiments::fmt(box.max)});
    }
  }
  bench::maybe_write_csv(opts, csv_head, csv_rows);

  std::printf(
      "\nNote: in this reproduction the IoU association gate binds harder\n"
      "for the pedestrian's small bbox, so the absolute K' ordering between\n"
      "classes can differ from the paper (see EXPERIMENTS.md); K' remaining\n"
      "a small fraction of the total attack K (stealth, §VI-E) holds.\n");
  bench::finish_observability(opts);
  return 0;
}

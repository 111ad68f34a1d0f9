// Reproduces Fig. 5: characterization of the (simulated) YOLOv3 detector.
//  (a-b) continuous misdetection streak distributions + Exp(loc=1) fits
//  (c-f) normalized bbox-center error distributions + Normal fits
// Prints paper-reported vs measured parameters and ASCII histograms.

#include <chrono>
#include <cstdio>

#include "bench_util.hpp"
#include "experiments/characterization.hpp"
#include "experiments/reporting.hpp"
#include "stats/histogram.hpp"
#include "stats/summary.hpp"

using namespace rt;

namespace {

struct PaperRow {
  const char* panel;
  double mu_or_lambda;
  double sigma;
  double p99;
};

void print_class(const char* name,
                 const experiments::ClassCharacterization& c,
                 const PaperRow& streak_paper, const PaperRow& x_paper,
                 const PaperRow& y_paper,
                 std::vector<std::vector<std::string>>& csv_rows) {
  std::printf("\n--- %s (object-frames: %zu, misdetection rate: %s) ---\n",
              name, c.object_frames,
              experiments::fmt_pct(c.misdetection_rate()).c_str());

  // Body fit of the streak distribution (the heavy tail is reported via the
  // empirical p99, exactly as the paper's numbers imply).
  std::vector<double> body;
  for (double s : c.streaks) {
    if (s <= 12.0) body.push_back(s);
  }
  const auto body_fit = stats::fit_exponential(body, 1.0);
  const double emp_p99 =
      c.streaks.empty() ? 0.0 : stats::percentile(c.streaks, 99.0);

  std::vector<std::string> head{"panel", "quantity", "paper", "measured"};
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"streaks", "Exp lambda (body fit)",
                  experiments::fmt(streak_paper.mu_or_lambda, 3),
                  experiments::fmt(body_fit.lambda, 3)});
  rows.push_back({"streaks", "empirical p99 (frames)",
                  experiments::fmt(streak_paper.p99, 1),
                  experiments::fmt(emp_p99, 1)});
  rows.push_back({"center dx", "Normal mu",
                  experiments::fmt(x_paper.mu_or_lambda, 3),
                  experiments::fmt(c.fit_x.mu, 3)});
  rows.push_back({"center dx", "Normal sigma (overlap-conditioned)",
                  experiments::fmt(x_paper.sigma, 3),
                  experiments::fmt(c.fit_x.sigma, 3)});
  rows.push_back({"center dy", "Normal mu",
                  experiments::fmt(y_paper.mu_or_lambda, 3),
                  experiments::fmt(c.fit_y.mu, 3)});
  rows.push_back({"center dy", "Normal sigma (overlap-conditioned)",
                  experiments::fmt(y_paper.sigma, 3),
                  experiments::fmt(c.fit_y.sigma, 3)});
  std::printf("%s", experiments::format_table(head, rows).c_str());
  for (const auto& row : rows) {
    std::vector<std::string> tagged{name};
    tagged.insert(tagged.end(), row.begin(), row.end());
    csv_rows.push_back(std::move(tagged));
  }

  std::printf("\nmisdetection streak length histogram (log scale):\n");
  stats::Histogram streak_hist(1.0, 61.0, 12);
  streak_hist.add_all(c.streaks);
  std::printf("%s", streak_hist.render(40, /*log_scale=*/true).c_str());

  std::printf("\nnormalized center dx histogram:\n");
  stats::Histogram dx_hist(-1.0, 1.0, 16);
  dx_hist.add_all(c.deltas_x);
  std::printf("%s", dx_hist.render(40).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = bench::parse_options(argc, argv, /*default_seed=*/20200613,
                                         bench::GridRoute::kInProcess);
  bench::header(
      "Fig. 5 — YOLOv3 detector characterization (paper vs measured)");

  experiments::CharacterizationConfig cfg;
  // --runs scales the characterization footage: the historical default of
  // 60 runs maps to the 400 s used since PR 1, so default invocations are
  // bit-identical to the pre-flag binary.
  cfg.duration_s = 400.0 * opts.runs / 60.0;
  cfg.seed = opts.seed;
  std::printf("footage: %.0f s at %.0f Hz, seed %llu (--runs/--seed)\n",
              cfg.duration_s, cfg.camera_hz,
              static_cast<unsigned long long>(cfg.seed));
  const auto t0 = std::chrono::steady_clock::now();
  const auto result = experiments::characterize_detector(
      cfg, perception::CameraModel{},
      perception::DetectorNoiseModel::paper_defaults());
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  std::vector<std::vector<std::string>> csv_rows;
  // Paper values from Fig. 5 captions.
  print_class("Vehicle", result.vehicle,
              {"streak", 0.327, 0.0, 59.4},
              {"dx", 0.023, 0.464, 1.145},
              {"dy", 0.094, 0.586, 1.775}, csv_rows);
  print_class("Pedestrian", result.pedestrian,
              {"streak", 0.717, 0.0, 31.0},
              {"dx", 0.254, 2.010, 5.235},
              {"dy", 0.186, 0.409, 1.868}, csv_rows);

  bench::maybe_write_csv(opts, {"class", "panel", "quantity", "paper",
                                "measured"},
                         csv_rows);
  bench::maybe_write_bench_json(
      opts, {{"fig5_characterization",
              elapsed > 0.0 ? cfg.duration_s * cfg.camera_hz / elapsed : 0.0,
              elapsed * 1000.0, 1, opts.seed}});

  std::printf(
      "\nNotes:\n"
      " - 'overlap-conditioned' sigma: like the paper, only detections that\n"
      "   overlap the ground truth enter the center-error population; the\n"
      "   attacker bound uses the full configured population fit.\n"
      " - streak p99 is empirical; the paper's own p99 (31 / 59.4) also far\n"
      "   exceeds its fitted exponential's analytic p99 (heavy tail).\n");
  bench::finish_observability(opts);
  return 0;
}

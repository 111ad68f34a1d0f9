// Reproduces Fig. 8:
//  (a) attack success probability vs binned NN prediction error
//      (DS-1/DS-2 Move_Out);
//  (b) predicted vs ground-truth safety potential after the attack
//      (DS-1 Move_Out), plus the §IV-B validation accuracies.

#include <cmath>
#include <cstdio>
#include <map>

#include "bench_util.hpp"
#include "experiments/reporting.hpp"
#include "experiments/sh_training.hpp"
#include "stats/summary.hpp"

using namespace rt;

int main(int argc, char** argv) {
  const auto opts = bench::parse_options(argc, argv, /*default_seed=*/97531);
  bench::header("Fig. 8 — safety hijacker NN accuracy");
  experiments::LoopConfig loop;

  // Freshly train (not cached) so we can report validation accuracy per
  // vector, matching §IV-B's "within 5 m (vehicles) / 1.5 m (pedestrians)".
  experiments::ShTrainingConfig cfg;
  for (const auto v : {core::AttackVector::kMoveOut,
                       core::AttackVector::kDisappear,
                       core::AttackVector::kMoveIn}) {
    nn::TrainResult tr;
    auto oracle = experiments::train_oracle(v, loop, cfg, &tr);
    std::printf("oracle %-10s val MSE %.2f  val MAE %.2f m  (epochs run: %zu)\n",
                core::to_string(v), tr.final_val_loss, tr.final_val_mae,
                tr.history.size());
  }

  // (b) predicted vs ground truth over k — DS-1 Move_Out.
  bench::header("(b) predicted vs ground-truth delta_{t+k}, DS-1 Move_Out");
  const auto oracles = bench::oracles(loop);
  auto oracle = oracles.at(core::AttackVector::kMoveOut);
  experiments::ShTrainingConfig probe;
  probe.delta_triggers = {16.0};
  probe.ks = {8, 16, 24, 32, 40, 48, 56, 64};
  probe.repeats = 2;
  probe.seed = 13579;
  // Ground truth labels come from scripted runs; predictions from the
  // trained oracle on the same launch features.
  const nn::Dataset ds = experiments::generate_sh_dataset(
      core::AttackVector::kMoveOut, loop, probe);
  std::printf("  k   ground-truth delta   predicted delta   |error|\n");
  std::map<int, std::pair<std::vector<double>, std::vector<double>>> by_k;
  std::vector<double> errors;
  for (std::size_t j = 0; j < ds.size(); ++j) {
    const double pred =
        oracle->predict(ds.x(0, j), {ds.x(1, j), ds.x(2, j)},
                        {ds.x(3, j), ds.x(4, j)}, ds.x(5, j));
    const int k = static_cast<int>(ds.x(5, j));
    by_k[k].first.push_back(ds.y(0, j));
    by_k[k].second.push_back(pred);
    errors.push_back(std::abs(pred - ds.y(0, j)));
  }
  for (const auto& [k, pair] : by_k) {
    std::printf("  %-3d %8.2f m %18.2f m %12.2f m\n", k,
                stats::mean(pair.first), stats::mean(pair.second),
                std::abs(stats::mean(pair.first) - stats::mean(pair.second)));
  }
  if (!errors.empty()) {
    std::printf("  overall |error|: %s\n",
                stats::boxplot(errors).to_string().c_str());
  }

  // (a) success probability vs binned prediction error, Move_Out campaigns.
  bench::header("(a) success probability vs NN prediction error (binned)");
  experiments::CampaignRunner runner(loop, oracles);
  const auto svc = bench::make_service(runner, opts);
  const auto service_before = obs::MetricsRegistry::global().snapshot();
  const int n = opts.runs;
  std::vector<experiments::CampaignSpec> specs;
  for (const char* name : {"DS-1", "DS-2"}) {
    specs.push_back({std::string(name) + "-Move_Out-R", name,
                     core::AttackVector::kMoveOut,
                     experiments::AttackMode::kRobotack, n, opts.seed,
                     std::nullopt});
  }
  std::vector<std::pair<double, bool>> samples;  // (|error|, success)
  for (const auto& result : svc->run_grid(specs)) {
    for (const auto& r : result.runs) {
      if (!r.attack.triggered) continue;
      const double err =
          std::abs(r.attack.predicted_delta - r.min_delta_since_attack);
      samples.emplace_back(err, r.crash || r.eb);
    }
  }
  bench::report_service_stats(*svc, service_before);
  // Bin by error and report success fraction (paper: decreasing).
  const double bins[] = {0.0, 2.0, 4.0, 6.0, 9.0, 13.0, 1e9};
  std::vector<std::string> csv_head{"err_lo", "err_hi", "n", "success_prob"};
  std::vector<std::vector<std::string>> csv_rows;
  std::printf("  |pred err| bin      n    success prob\n");
  for (std::size_t b = 0; b + 1 < std::size(bins); ++b) {
    int count = 0;
    int success = 0;
    for (const auto& [e, s] : samples) {
      if (e >= bins[b] && e < bins[b + 1]) {
        ++count;
        success += static_cast<int>(s);
      }
    }
    if (count == 0) continue;
    std::printf("  [%5.1f, %5.1f)  %5d    %.2f\n", bins[b],
                bins[b + 1] > 100 ? 99.9 : bins[b + 1], count,
                static_cast<double>(success) / count);
    csv_rows.push_back(
        {experiments::fmt(bins[b]),
         bins[b + 1] > 100 ? "inf" : experiments::fmt(bins[b + 1]),
         std::to_string(count),
         experiments::fmt(static_cast<double>(success) / count, 3)});
  }
  bench::maybe_write_csv(opts, csv_head, csv_rows);
  std::printf(
      "\npaper: success probability decreases as prediction error grows;\n"
      "NN within ~5 m (vehicles) / ~1.5 m (pedestrians) on validation.\n");
  bench::finish_observability(opts);
  return 0;
}

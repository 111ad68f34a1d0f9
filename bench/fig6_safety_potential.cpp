// Reproduces Fig. 6: minimum safety potential (from attack start to scenario
// end), RoboTack ("R") vs RoboTack-without-safety-hijacker ("R w/o SH"),
// plus the §VI-D improvement ratios.

#include <cstdio>
#include <string>

#include "bench_util.hpp"
#include "experiments/campaign_grid.hpp"
#include "experiments/reporting.hpp"
#include "stats/summary.hpp"

using namespace rt;

namespace {

struct Panel {
  const char* scenario;
  core::AttackVector vector;
  double paper_median_nosh;
  double paper_median_r;
};

}  // namespace

int main(int argc, char** argv) {
  const auto opts = bench::parse_options(argc, argv, /*default_seed=*/555);
  bench::header("Fig. 6 — min safety potential: R w/o SH vs R");
  experiments::LoopConfig loop;
  const auto oracles = bench::oracles(loop);
  experiments::CampaignRunner runner(loop, oracles);
  const auto svc = bench::make_service(runner, opts);
  const auto service_before = obs::MetricsRegistry::global().snapshot();

  // Every panel's R / R-w/o-SH pair as one grid: modes × vectors ×
  // scenarios, with the Move_In scenarios as a second block.
  const auto specs =
      experiments::CampaignGridBuilder()
          .runs(opts.runs)
          .seed(opts.seed)
          .modes({experiments::AttackMode::kNoSh,
                  experiments::AttackMode::kRobotack})
          .vectors({core::AttackVector::kDisappear,
                    core::AttackVector::kMoveOut})
          .scenarios({"DS-1", "DS-2"})
          .add_grid()
          .vectors({core::AttackVector::kMoveIn})
          .scenarios({"DS-3", "DS-4"})
          .build();
  const auto results = svc->run_grid(specs);
  bench::report_service_stats(*svc, service_before);
  const auto find = [&](const std::string& name)
      -> const experiments::CampaignResult& {
    for (const auto& r : results) {
      if (r.spec.name == name) return r;
    }
    std::fprintf(stderr, "campaign %s missing from grid\n", name.c_str());
    std::abort();
  };

  std::vector<std::string> csv_head{"panel", "median RwoSH", "median R",
                                    "EB RwoSH", "EB R", "crash RwoSH",
                                    "crash R"};
  std::vector<std::vector<std::string>> csv_rows;

  const Panel panels[] = {
      {"DS-1", core::AttackVector::kDisappear, 19.0, 9.0},
      {"DS-1", core::AttackVector::kMoveOut, 19.0, 13.0},
      {"DS-2", core::AttackVector::kDisappear, 7.0, 3.0},
      {"DS-2", core::AttackVector::kMoveOut, 9.0, 3.0},
  };

  for (const Panel& p : panels) {
    const std::string base =
        std::string(p.scenario) + "-" + core::to_string(p.vector);
    const auto& rn = find(base + "-RwoSH");
    const auto& rs = find(base + "-R");
    const auto dn = rn.min_deltas();
    const auto ds = rs.min_deltas();
    std::printf(
        "\n%s (paper medians: R w/o SH %.0f, R %.0f; delta<4 = accident)\n",
        base.c_str(), p.paper_median_nosh, p.paper_median_r);
    if (!dn.empty()) {
      std::printf("  R w/o SH: %s\n", stats::boxplot(dn).to_string().c_str());
    }
    if (!ds.empty()) {
      std::printf("  R:        %s\n", stats::boxplot(ds).to_string().c_str());
    }
    const double eb_ratio =
        rn.eb_rate() > 0 ? rs.eb_rate() / rn.eb_rate() : 0.0;
    const double crash_ratio =
        rn.crash_rate() > 0 ? rs.crash_rate() / rn.crash_rate() : 0.0;
    std::printf(
        "  EB: %s vs %s (x%.1f)   crashes: %s vs %s (x%.1f)\n",
        experiments::fmt_pct(rs.eb_rate()).c_str(),
        experiments::fmt_pct(rn.eb_rate()).c_str(), eb_ratio,
        experiments::fmt_pct(rs.crash_rate()).c_str(),
        experiments::fmt_pct(rn.crash_rate()).c_str(), crash_ratio);
    csv_rows.push_back({base,
                        experiments::fmt(dn.empty() ? 0.0 : stats::median(dn)),
                        experiments::fmt(ds.empty() ? 0.0 : stats::median(ds)),
                        experiments::fmt_pct(rn.eb_rate()),
                        experiments::fmt_pct(rs.eb_rate()),
                        experiments::fmt_pct(rn.crash_rate()),
                        experiments::fmt_pct(rs.crash_rate())});
  }

  // Move_In scenarios: EB-only comparison (paper: 1.9x / 1.6x more EB).
  bench::header("Move_In EB comparison (paper: DS-3 1.9x, DS-4 1.6x)");
  for (const char* scenario : {"DS-3", "DS-4"}) {
    const std::string base = std::string(scenario) + "-Move_In";
    const auto& rn = find(base + "-RwoSH");
    const auto& rs = find(base + "-R");
    std::printf("  %s: EB %s (R) vs %s (R w/o SH), ratio x%.1f\n",
                base.c_str(), experiments::fmt_pct(rs.eb_rate()).c_str(),
                experiments::fmt_pct(rn.eb_rate()).c_str(),
                rn.eb_rate() > 0 ? rs.eb_rate() / rn.eb_rate() : 0.0);
    csv_rows.push_back({base, "-", "-",
                        experiments::fmt_pct(rn.eb_rate()),
                        experiments::fmt_pct(rs.eb_rate()),
                        experiments::fmt_pct(rn.crash_rate()),
                        experiments::fmt_pct(rs.crash_rate())});
  }
  bench::maybe_write_csv(opts, csv_head, csv_rows);
  bench::finish_observability(opts);
  return 0;
}

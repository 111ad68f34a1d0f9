// Ablation: the role of sensor fusion (§I claims temporal tracking + fusion
// mask naive attacks). Compares attack success with normal LiDAR, degraded
// LiDAR, and camera-only perception on DS-1 (vehicle victim).

#include <cstdio>

#include "bench_util.hpp"
#include "experiments/reporting.hpp"

using namespace rt;

int main(int argc, char** argv) {
  const auto opts = bench::parse_options(argc, argv, /*default_seed=*/111,
                                         bench::GridRoute::kInProcess);
  bench::header("Ablation — sensor fusion (DS-1 Move_Out, vehicle victim)");
  experiments::LoopConfig base;
  const auto oracles = bench::oracles(base);
  const int n = opts.runs;

  struct Case {
    const char* label;
    double vehicle_range;
    double lidar_weight;
  };
  const Case cases[] = {
      {"full fusion (paper setup)", 80.0, 0.85},
      {"weak LiDAR (range 30 m)", 30.0, 0.85},
      {"camera-only (no LiDAR)", 0.0, 0.85},
  };

  std::vector<std::string> head{"configuration", "golden EB", "attack EB",
                                "attack crash"};
  std::vector<std::vector<std::string>> rows;
  for (const Case& c : cases) {
    experiments::LoopConfig loop = base;
    loop.lidar.vehicle_range = c.vehicle_range;
    loop.fusion.lidar_weight_vehicle = c.lidar_weight;
    experiments::CampaignRunner runner(loop, oracles);
    experiments::CampaignScheduler scheduler(runner, opts.threads);

    experiments::CampaignSpec golden{"golden", "DS-1",
                                     core::AttackVector::kMoveOut,
                                     experiments::AttackMode::kGolden,
                                     std::max(8, n / 2), opts.seed,
                                     std::nullopt};
    experiments::CampaignSpec attack{"attack", "DS-1",
                                     core::AttackVector::kMoveOut,
                                     experiments::AttackMode::kRobotack, n,
                                     opts.seed + 111, std::nullopt};
    const auto results = scheduler.run_all({golden, attack});
    const auto& g = results[0];
    const auto& a = results[1];
    rows.push_back({c.label, experiments::fmt_pct(g.eb_rate()),
                    experiments::fmt_pct(a.eb_rate()),
                    experiments::fmt_pct(a.crash_rate())});
  }
  std::printf("%s", experiments::format_table(head, rows).c_str());
  bench::maybe_write_csv(opts, head, rows);
  std::printf(
      "\nexpected: without LiDAR corroboration the camera-channel attack\n"
      "gets easier (and the golden runs less stable) — fusion is the\n"
      "defense the attacker must out-maneuver, not a full shield.\n");
  bench::finish_observability(opts);
  return 0;
}

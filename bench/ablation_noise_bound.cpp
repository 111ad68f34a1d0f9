// Ablation: the stealth/noise bound (§III-B's "within one standard
// deviation"). Sweeps the trajectory hijacker's sigma multiplier (and an
// unbounded variant) on DS-2 Move_Out with the IDS enabled, reporting both
// attack success and detectability — the trade-off the paper's bound sits on.

#include <cstdio>

#include "bench_util.hpp"
#include "experiments/reporting.hpp"
#include "runtime/thread_pool.hpp"

using namespace rt;

int main(int argc, char** argv) {
  const auto opts = bench::parse_options(argc, argv, /*default_seed=*/8642,
                                         bench::GridRoute::kInProcess);
  bench::header("Ablation — perturbation noise bound vs IDS detection");
  experiments::LoopConfig loop;
  loop.enable_ids = true;
  const auto oracles = bench::oracles(loop);
  const int n = opts.runs;

  struct Case {
    const char* label;
    double sigma_mult;
    bool enforce;
  };
  const Case cases[] = {
      {"0.5 sigma", 0.5, true},
      {"1.0 sigma (paper)", 1.0, true},
      {"2.0 sigma", 2.0, true},
      {"unbounded", 1.0, false},
  };

  std::vector<std::string> head{"bound", "EB", "crash", "IDS flagged"};
  std::vector<std::vector<std::string>> rows;
  for (const Case& c : cases) {
    std::vector<experiments::RunResult> results(
        static_cast<std::size_t>(n));
    // `derive` never advances the root, so each run's stream is a pure
    // function of (seed, index) and the sweep parallelizes bit-identically.
    const stats::Rng root(opts.seed);
    runtime::ThreadPool pool(opts.threads);
    pool.parallel_for(n, [&](int i) {
      stats::Rng run_rng = root.derive(static_cast<std::uint64_t>(i) + 1);
      const auto scenario_seed = run_rng.engine()();
      const auto loop_seed = run_rng.engine()();
      const auto attacker_seed = run_rng.engine()();
      stats::Rng srng(scenario_seed);
      sim::Scenario sc = sim::make_scenario("DS-2", srng);
      experiments::ClosedLoop cl(sc, loop, loop_seed);
      auto cfg = experiments::make_attacker_config(
          loop, core::AttackVector::kMoveOut,
          core::TimingPolicy::kSafetyHijacker);
      cfg.th.sigma_mult = c.sigma_mult;
      cfg.th.enforce_noise_bound = c.enforce;
      auto attacker = std::make_unique<core::Robotack>(
          cfg, loop.camera, loop.noise, loop.mot, attacker_seed);
      for (const auto& [v, o] : oracles) attacker->set_oracle(v, o);
      cl.set_attacker(std::move(attacker));
      results[static_cast<std::size_t>(i)] = cl.run();
    });
    int eb = 0;
    int crash = 0;
    int flagged = 0;
    for (const auto& r : results) {
      eb += r.eb;
      crash += r.crash;
      flagged += r.ids_flagged;
    }
    rows.push_back({c.label,
                    experiments::fmt_pct(static_cast<double>(eb) / n),
                    experiments::fmt_pct(static_cast<double>(crash) / n),
                    experiments::fmt_pct(static_cast<double>(flagged) / n)});
  }
  std::printf("%s", experiments::format_table(head, rows).c_str());
  bench::maybe_write_csv(opts, head, rows);
  std::printf(
      "\nexpected shape: tighter bounds slow the hijack (lower success);\n"
      "looser bounds raise IDS innovation alarms. The paper's 1-sigma rule\n"
      "sits at the stealth/effectiveness knee.\n");
  bench::finish_observability(opts);
  return 0;
}

// Ablations on the safety hijacker's two decision knobs:
//  - gamma_launch (the paper fixes ~10 m via simulation);
//  - K_max for Disappear (the paper ties it to the streak p99).

#include <cstdio>

#include "bench_util.hpp"
#include "experiments/reporting.hpp"
#include "runtime/thread_pool.hpp"

using namespace rt;

namespace {

experiments::CampaignResult run_with(
    const experiments::LoopConfig& base, const experiments::OracleSet& oracles,
    const std::string& scenario, core::AttackVector v, int n,
    std::uint64_t seed, unsigned threads, double gamma, double p99_mult,
    bool enable_ids) {
  experiments::LoopConfig loop = base;
  loop.enable_ids = enable_ids;
  experiments::CampaignResult result;
  result.runs.resize(static_cast<std::size_t>(n));
  // `derive` never advances the root, so each run's stream is a pure
  // function of (seed, index) and the sweep parallelizes bit-identically.
  const stats::Rng root(seed);
  runtime::ThreadPool pool(threads);
  pool.parallel_for(n, [&](int i) {
    stats::Rng run_rng = root.derive(static_cast<std::uint64_t>(i) + 1);
    const auto scenario_seed = run_rng.engine()();
    const auto loop_seed = run_rng.engine()();
    const auto attacker_seed = run_rng.engine()();
    stats::Rng srng(scenario_seed);
    sim::Scenario sc = sim::make_scenario(scenario, srng);
    experiments::ClosedLoop cl(sc, loop, loop_seed);
    auto cfg = experiments::make_attacker_config(
        loop, v, core::TimingPolicy::kSafetyHijacker);
    cfg.sh.gamma_launch = gamma;
    cfg.sh.disappear_p99_mult = p99_mult;
    auto attacker = std::make_unique<core::Robotack>(
        cfg, loop.camera, loop.noise, loop.mot, attacker_seed);
    for (const auto& [vec, o] : oracles) attacker->set_oracle(vec, o);
    cl.set_attacker(std::move(attacker));
    result.runs[static_cast<std::size_t>(i)] = cl.run();
  });
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = bench::parse_options(argc, argv, /*default_seed=*/1357,
                                         bench::GridRoute::kInProcess);
  experiments::LoopConfig loop;
  const auto oracles = bench::oracles(loop);
  const int n = opts.runs;

  std::vector<std::string> csv_head{"ablation", "param",     "triggered",
                                    "K_med",    "EB",        "crash",
                                    "IDS flagged"};
  std::vector<std::vector<std::string>> csv_rows;

  bench::header("Ablation — launch threshold gamma (DS-2 Move_Out)");
  {
    std::vector<std::string> head{"gamma", "triggered", "EB", "crash"};
    std::vector<std::vector<std::string>> rows;
    for (const double gamma : {3.0, 6.0, 10.0, 14.0, 20.0}) {
      const auto r = run_with(loop, oracles, "DS-2",
                              core::AttackVector::kMoveOut, n, opts.seed,
                              opts.threads, gamma, 1.0, false);
      rows.push_back({experiments::fmt(gamma, 0),
                      std::to_string(r.triggered_count()),
                      experiments::fmt_pct(r.eb_rate()),
                      experiments::fmt_pct(r.crash_rate())});
      csv_rows.push_back({"gamma", experiments::fmt(gamma, 0),
                          std::to_string(r.triggered_count()), "-",
                          experiments::fmt_pct(r.eb_rate()),
                          experiments::fmt_pct(r.crash_rate()), "-"});
    }
    std::printf("%s", experiments::format_table(head, rows).c_str());
    std::printf(
        "expected: tiny gamma rarely launches; huge gamma launches too\n"
        "early and wastes the attack window.\n");
  }

  bench::header("Ablation — Disappear K_max multiplier (DS-1, IDS on)");
  {
    std::vector<std::string> head{"p99 mult", "K(med)", "EB", "crash",
                                  "IDS flagged"};
    std::vector<std::vector<std::string>> rows;
    for (const double mult : {0.5, 1.0, 2.0}) {
      const auto r = run_with(loop, oracles, "DS-1",
                              core::AttackVector::kDisappear, n, opts.seed,
                              opts.threads, 6.0, mult, true);
      const std::string ids = experiments::fmt_pct(
          static_cast<double>(r.ids_flagged_count()) / std::max(1, r.n()));
      rows.push_back({experiments::fmt(mult, 1),
                      experiments::fmt(r.median_k(), 0),
                      experiments::fmt_pct(r.eb_rate()),
                      experiments::fmt_pct(r.crash_rate()), ids});
      csv_rows.push_back({"p99_mult", experiments::fmt(mult, 1), "-",
                          experiments::fmt(r.median_k(), 0),
                          experiments::fmt_pct(r.eb_rate()),
                          experiments::fmt_pct(r.crash_rate()), ids});
    }
    std::printf("%s", experiments::format_table(head, rows).c_str());
    std::printf(
        "expected: halving K_max weakens the blackout; doubling it raises\n"
        "the IDS absence-alarm rate (blackout beyond the natural tail).\n");
  }
  bench::maybe_write_csv(opts, csv_head, csv_rows);
  bench::finish_observability(opts);
  return 0;
}

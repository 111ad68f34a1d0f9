// The attack-vs-defense matrix: every registered scenario family × its
// natural attack vector × attack mode × runtime attack monitor, with
// detection rate, detection latency (frames from launch to first alert)
// and the false-positive rate on the no-attack golden baselines. The paper
// argues RoboTack's perturbations evade implicit safety checks (§III-B,
// §VI-E); this table makes the claim measurable monitor by monitor — and
// shows which defenses the crude baselines cannot evade.

#include <cstdio>

#include "bench_util.hpp"
#include "defense/monitor_registry.hpp"
#include "experiments/defense_grid.hpp"
#include "experiments/reporting.hpp"
#include "runtime/thread_pool.hpp"

using namespace rt;

int main(int argc, char** argv) {
  const auto opts = bench::parse_options(argc, argv, /*default_seed=*/20200613);
  bench::header("Attack vs defense — scenario × vector × mode × monitor");

  experiments::LoopConfig loop;
  const auto oracles = bench::oracles(loop);

  experiments::DefenseGridConfig cfg;
  cfg.runs = opts.runs;
  cfg.seed = opts.seed;

  // The grid runs through the campaign service; --cache-dir / --workers add
  // its content-hash cache and/or forked shards. Results are identical.
  experiments::CampaignRunner runner(loop, oracles);
  const auto svc = bench::make_service(runner, opts);
  const auto service_before = obs::MetricsRegistry::global().snapshot();
  const unsigned threads = opts.threads == 0
                               ? runtime::ThreadPool::default_threads()
                               : opts.threads;

  const auto& monitors = defense::MonitorRegistry::global();
  std::printf("monitors:\n");
  for (const auto& key : monitors.keys()) {
    std::printf("  %-20s %s\n", key.c_str(),
                monitors.get(key).description.c_str());
  }
  std::printf("runs per campaign: %d, seed %llu, threads %u\n", cfg.runs,
              static_cast<unsigned long long>(cfg.seed), threads);

  const obs::Stopwatch watch;
  const auto grid = experiments::run_defense_grid(cfg, svc->executor());
  const double elapsed = watch.elapsed_s();
  int total_runs = 0;
  for (const auto& c : grid.cells) total_runs += c.n;
  std::printf("grid: %zu cells, %d runs in %.2f s (%.1f runs/sec)\n",
              grid.cells.size(), total_runs, elapsed, total_runs / elapsed);
  bench::report_service_stats(*svc, service_before);
  bench::maybe_write_bench_json(
      opts, {{"defense_grid", total_runs / elapsed, elapsed * 1000.0, threads,
              opts.seed}});

  std::vector<std::string> head{"campaign", "monitor", "#runs",
                                "trig",     "det",     "det rate",
                                "med frames", "FP rate", "EB",
                                "crash"};
  std::vector<std::vector<std::string>> rows;
  for (const auto& c : grid.cells) {
    rows.push_back({c.campaign, c.monitor.empty() ? "none" : c.monitor,
                    std::to_string(c.n), std::to_string(c.triggered),
                    std::to_string(c.detected),
                    experiments::fmt_pct(c.detection_rate),
                    c.median_frames_to_detection < 0.0
                        ? "-"
                        : experiments::fmt(c.median_frames_to_detection, 0),
                    experiments::fmt_pct(c.false_alarm_rate),
                    experiments::fmt_pct(c.eb_rate),
                    experiments::fmt_pct(c.crash_rate)});
  }
  std::printf("%s", experiments::format_table(head, rows).c_str());
  bench::maybe_write_csv(opts, experiments::DefenseGrid::csv_header(),
                         grid.csv_rows());

  // Headline per-monitor aggregates: how well each defends against the
  // smart malware vs the crude baselines, and what it costs in false
  // alarms on clean runs.
  bench::header("per-monitor summary (aggregated over scenarios)");
  std::vector<std::string> shead{"monitor", "mode", "trig", "det",
                                 "det rate", "FP rate"};
  std::vector<std::vector<std::string>> srows;
  for (const auto& key : monitors.keys()) {
    struct Agg {
      int n{0};
      int triggered{0};
      int detected{0};
      int false_alarms{0};
    };
    std::vector<std::pair<std::string, Agg>> by_mode;
    for (const auto& c : grid.cells) {
      if (c.monitor != key) continue;
      Agg* agg = nullptr;
      for (auto& [mode, a] : by_mode) {
        if (mode == c.mode) agg = &a;
      }
      if (agg == nullptr) {
        by_mode.emplace_back(c.mode, Agg{});
        agg = &by_mode.back().second;
      }
      agg->n += c.n;
      agg->triggered += c.triggered;
      agg->detected += c.detected;
      agg->false_alarms += c.false_alarms;
    }
    for (const auto& [mode, a] : by_mode) {
      srows.push_back(
          {key, mode, std::to_string(a.triggered), std::to_string(a.detected),
           experiments::fmt_pct(
               a.triggered ? static_cast<double>(a.detected) / a.triggered
                           : 0.0),
           experiments::fmt_pct(
               a.n ? static_cast<double>(a.false_alarms) / a.n : 0.0)});
    }
  }
  std::printf("%s", experiments::format_table(shead, srows).c_str());
  std::printf(
      "\nreading the table: 'det rate' counts alerts at/after a triggered\n"
      "launch; 'FP rate' counts everything else the stack raised (golden\n"
      "rows are pure false-positive baselines). RoboTack is built to duck\n"
      "the per-frame gates; the CUSUM drift and sensor-consistency tests\n"
      "are the ones that make it pay for every perturbed frame.\n");
  bench::finish_observability(opts);
  return 0;
}

// Procedural scenario fuzzing: a coverage-guided search over the sampled
// scenario space of every registered family. Two searches share one budget
// shape — one maximizes attack damage (crash + EB under "R w/o SH", which
// needs no trained oracles and keeps this driver hermetic), one hunts for
// corners where a damaging attack evades the full monitor stack. The
// frontier rows print as corpus lines ("<template> <seed>") ready to pin in
// tests/corpus/scenarios.txt, and every frontier sample is then re-judged
// by the clean-run invariant suite (a frontier corner is where the *attack*
// hurts; the unattacked world must still be safe and alert-free).

#include <cstdio>

#include "bench_util.hpp"
#include "defense/monitor_registry.hpp"
#include "experiments/scenario_search.hpp"
#include "runtime/thread_pool.hpp"

using namespace rt;

namespace {

experiments::ScenarioSearchResult run_search(
    experiments::ScenarioSearchConfig cfg, const experiments::LoopConfig& loop,
    double& elapsed_s) {
  const obs::Stopwatch watch;
  const auto result =
      experiments::run_scenario_search(cfg, loop, /*oracles=*/{});
  elapsed_s = watch.elapsed_s();
  return result;
}

void print_frontier(const experiments::ScenarioSearchResult& result) {
  std::vector<std::string> head{"template", "corpus line", "score",
                                "crash",    "EB",          "det rate",
                                "#runs"};
  std::vector<std::vector<std::string>> rows;
  for (const auto& e : result.frontier) {
    rows.push_back({e.template_key, e.corpus_line(),
                    experiments::fmt(e.score, 3),
                    experiments::fmt_pct(e.crash_rate),
                    experiments::fmt_pct(e.eb_rate),
                    experiments::fmt_pct(e.detection_rate),
                    std::to_string(e.runs)});
  }
  std::printf("%s", experiments::format_table(head, rows).c_str());
  std::printf("evaluated %zu samples (%d rejected structurally), %d runs\n",
              result.evaluated.size(), result.rejected_samples,
              result.total_runs);
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = bench::parse_options(argc, argv, /*default_seed=*/20200613);
  bench::header("Scenario fuzzing — coverage-guided search frontier");

  experiments::LoopConfig loop;
  experiments::ScenarioSearchConfig cfg;
  cfg.runs_per_sample = opts.runs;
  cfg.seed = opts.seed;
  cfg.threads = opts.threads;
  cfg.monitors = defense::MonitorRegistry::global().keys();

  // --cache-dir / --workers score each round's specs through the campaign
  // service (the search itself passes oracles={}; the executor's runner
  // must match for bit-identical scoring).
  const experiments::CampaignRunner service_runner(loop, {});
  const auto svc = bench::make_service(service_runner, opts);
  const auto service_before = obs::MetricsRegistry::global().snapshot();
  if (!opts.cache_dir.empty() || opts.workers >= 1) {
    cfg.executor = svc->executor();
  }
  const unsigned threads = opts.threads == 0
                               ? runtime::ThreadPool::default_threads()
                               : opts.threads;
  std::printf("templates: %zu, %d rounds x %d samples, %d runs/sample, "
              "seed %llu, threads %u\n",
              sim::ScenarioRegistry::global().keys().size(), cfg.rounds,
              cfg.samples_per_round, cfg.runs_per_sample,
              static_cast<unsigned long long>(cfg.seed), threads);

  std::vector<experiments::BenchJsonRecord> records;
  std::vector<std::vector<std::string>> csv_rows;
  experiments::ScenarioSearchResult searches[2];
  const experiments::SearchObjective objectives[2] = {
      experiments::SearchObjective::kAttackSuccess,
      experiments::SearchObjective::kEvadeMonitors};
  for (int i = 0; i < 2; ++i) {
    cfg.objective = objectives[i];
    double elapsed = 0.0;
    searches[i] = run_search(cfg, loop, elapsed);
    bench::header((std::string("objective: ") + to_string(cfg.objective))
                      .c_str());
    print_frontier(searches[i]);
    records.push_back({std::string("fuzz_search_") + to_string(cfg.objective),
                       elapsed > 0.0 ? searches[i].total_runs / elapsed : 0.0,
                       elapsed * 1000.0, threads, opts.seed});
    for (const auto& row : searches[i].csv_rows()) {
      std::vector<std::string> tagged{to_string(cfg.objective)};
      tagged.insert(tagged.end(), row.begin(), row.end());
      csv_rows.push_back(std::move(tagged));
    }
  }

  // Clean-run invariant sweep over the union frontier: the search found the
  // corners where the malware wins; the same corners unattacked must stay
  // collision-free, inside the ego envelope, and raise zero alerts.
  bench::header("clean-run invariants on the frontier");
  const sim::ScenarioSampler sampler;
  int violations = 0;
  for (const auto& search : searches) {
    for (const auto& e : search.frontier) {
      const auto sample = sampler.sample(e.template_key, e.sample_seed);
      const auto check = experiments::check_clean_run(sample, loop);
      if (!check.ok()) {
        ++violations;
        std::printf("VIOLATION %s\n%s\n", sample.spec_string().c_str(),
                    check.report.to_string().c_str());
      }
    }
  }
  std::printf(violations == 0 ? "all frontier samples clean\n"
                              : "%d frontier samples violated invariants\n",
              violations);

  std::vector<std::string> csv_header{"objective"};
  for (const auto& col : experiments::ScenarioSearchResult::csv_header()) {
    csv_header.push_back(col);
  }
  bench::report_service_stats(*svc, service_before);
  bench::maybe_write_csv(opts, csv_header, csv_rows);
  bench::maybe_write_bench_json(opts, records);
  bench::finish_observability(opts);
  return violations == 0 ? 0 : 1;
}

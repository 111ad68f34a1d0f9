#pragma once

// Custom main for the google-benchmark binaries: adds the same `--json
// PATH` flag the grid drivers have, so CI can track microbenchmark numbers
// (BENCH_nn.json / BENCH_perception.json) alongside the campaign-grid
// records. Each benchmark becomes one BenchJsonRecord under its plain name:
// with --benchmark_repetitions=N (N > 1) the record is the `median`
// aggregate over the N repetitions, otherwise the single run. runs_per_sec
// is the benchmark's items_per_second counter when present (campaign
// runs/sec for the scheduler benchmark), otherwise iterations per second;
// wall_ms is the real time per iteration.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "experiments/reporting.hpp"

namespace rt::bench {

class JsonCollectingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.error_occurred) continue;
      const bool repeated = run.repetitions > 1;
      if (run.run_type == Run::RT_Iteration ? repeated
                                            : run.aggregate_name != "median") {
        continue;
      }
      experiments::BenchJsonRecord rec;
      rec.bench = run.run_name.str();
      const double wall_s = run.GetAdjustedRealTime() /
                            benchmark::GetTimeUnitMultiplier(run.time_unit);
      rec.wall_ms = wall_s * 1e3;
      const auto it = run.counters.find("items_per_second");
      rec.runs_per_sec = it != run.counters.end()
                             ? static_cast<double>(it->second)
                             : (wall_s > 0.0 ? 1.0 / wall_s : 0.0);
      rec.threads = static_cast<unsigned>(run.threads);
      rec.seed = 0;  // microbenchmarks fix their seeds internally
      records_.push_back(std::move(rec));
    }
    ConsoleReporter::ReportRuns(reports);
  }

  [[nodiscard]] const std::vector<experiments::BenchJsonRecord>& records()
      const {
    return records_;
  }

 private:
  std::vector<experiments::BenchJsonRecord> records_;
};

/// Drop-in replacement for BENCHMARK_MAIN()'s body: strips `--json PATH`
/// from argv, forwards the rest to google-benchmark, and writes the
/// collected records when the flag was given.
inline int bench_json_main(int argc, char** argv) {
  std::string json_path;
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
      continue;
    }
    args.push_back(argv[i]);
  }
  int forwarded = static_cast<int>(args.size());
  benchmark::Initialize(&forwarded, args.data());
  if (benchmark::ReportUnrecognizedArguments(forwarded, args.data())) {
    return 1;
  }
  JsonCollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!json_path.empty()) {
    experiments::write_bench_json(json_path, reporter.records());
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}

}  // namespace rt::bench

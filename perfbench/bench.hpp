#pragma once

// Shared pieces of the campaign-engine benchmark binary: options, the run
// report printed as the last stdout line, timing and statistics helpers.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "experiments/campaign.hpp"
#include "obs/clock.hpp"

namespace perfbench {

inline constexpr std::uint64_t kDefaultSeed = 20200613;

struct Options {
  std::string workload;
  std::uint64_t seed{kDefaultSeed};
  double seconds{25.0};  ///< BENCHMARK.json's run_seconds
  bool trace{false};
  /// CLOCK_MONOTONIC ns at which the launcher started this process (0 =
  /// use the entry of main); the printed launch time counts from here.
  std::uint64_t t0_ns{0};
  /// Pinned digest of the first grid at this seed (hex); empty = none.
  std::string expect_digest;
  /// Path of the campaign_server binary (service_mixed).
  std::string server;
  std::string commit{"unknown"};
};

inline std::uint64_t now_ns() { return rt::obs::MonotonicClock::now_ns(); }

/// What one run reports. Every failed check counts one failed operation and
/// clears `correct`; perfbench then exits non-zero.
class Report {
 public:
  void attempt(long n = 1) { attempted_ += n; }
  void fail(const std::string& why);
  /// A gate that is not an operation (coverage, replay): clears `correct`.
  void gate(bool ok, const std::string& why);
  void add(const std::string& name, double value, const std::string& unit);

  [[nodiscard]] bool correct() const { return correct_; }
  [[nodiscard]] long attempted() const { return attempted_; }
  [[nodiscard]] long failed() const { return failed_; }
  [[nodiscard]] std::string json() const;

 private:
  long attempted_{0};
  long failed_{0};
  bool correct_{true};
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics_;
};

/// Linear-interpolated percentile (q in [0, 1]); 0 for an empty sample.
double percentile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

/// Adds the q-th percentile of `values` as metric `name`, gated on at least
/// ten samples lying beyond it: n * (1 - q) >= 10.
void add_tail(Report& report, const std::string& name,
              const std::vector<double>& values, double q,
              const std::string& unit);

/// FNV-1a over serialize_campaign_result of every result, in order.
std::uint64_t grid_digest(const std::vector<rt::experiments::CampaignResult>&);
std::string hex64(std::uint64_t v);

/// A fixed CPU-bound job that shares no code with the program: four chains
/// of table lookups and floating-point updates over a 256 KiB table.
/// Returns its wall time in ns. Its fastest time over a run tracks how fast
/// the shared host ran; timings are scaled by kReferenceNominalMs over it.
std::uint64_t reference_job_ns();
/// Fastest time of reference_job_ns on the 4-core Xeon container the
/// benchmark was tuned on.
inline constexpr double kReferenceNominalMs = 1.2;

/// Peak resident set of this process, in MB.
double self_peak_rss_mb();

/// Deterministic seed of grid `rep` in a workload's pool: grid 0 has the
/// workload seed.
std::uint64_t rep_seed(std::uint64_t seed, std::uint64_t rep);

/// Prints the time from process start (`Options::t0_ns`) to now, the launch
/// cost that precedes the first set-up. setup_s does not include it.
void print_launch(const Options& opts);

/// Creates `dir` empty (removing anything there first).
void fresh_dir(const std::string& dir);

/// Times CampaignCellCache::lookup and deserialize_campaign_result against
/// a cache directory holding every spec; adds service.cache_lookup_us and
/// experiments.serde_decode_us.
void measure_cache_reads(const std::string& dir,
                         const std::vector<rt::experiments::CampaignSpec>& specs,
                         Report& report);

int run_grid_workload(const Options& opts, Report& report);
int run_service_workload(const Options& opts, Report& report);

}  // namespace perfbench

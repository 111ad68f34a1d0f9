#pragma once

// The traced run: each probed cell runs twice. First untraced through the
// public CampaignRunner::run_one (timed, allocation-counted: the
// reference), then composed here out of the same public calls
// ClosedLoop::run makes, with a timer around each. The composition must
// serialize byte-identically to the reference, and the ADS-bound camera
// frames it recorded are replayed through a fresh MotTracker whose tracks
// must equal the ADS's camera tracks on every frame.

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "experiments/campaign.hpp"

namespace perfbench {

/// Sums over all probed cells. Stage times are ns; `cell_ns` is the traced
/// cell wall time minus the benchmark's own bookkeeping (frame recording).
struct StageTotals {
  std::uint64_t ground_truth_ns{0};
  std::uint64_t step_ns{0};
  std::uint64_t detect_ns{0};
  std::uint64_t lidar_scan_ns{0};
  std::uint64_t robotack_ns{0};
  std::uint64_t ingest_lidar_ns{0};
  std::uint64_t ads_perception_ns{0};
  std::uint64_t ads_plan_ns{0};
  std::uint64_t defense_observe_ns{0};
  std::uint64_t safety_record_ns{0};
  std::uint64_t cell_setup_ns{0};
  std::uint64_t cell_ns{0};
  std::uint64_t frames{0};
  std::uint64_t cells{0};

  std::uint64_t mot_ns{0};
  std::uint64_t mot_frames{0};
  std::uint64_t mot_live_tracks{0};
  std::uint64_t mot_mismatched_frames{0};

  std::uint64_t ref_cells{0};
  std::uint64_t ref_ns{0};      ///< untraced run_one wall time, serial
  std::uint64_t ref_allocs{0};  ///< allocations inside run_one
  std::uint64_t byte_mismatches{0};

  [[nodiscard]] std::uint64_t attributed_ns() const;
  [[nodiscard]] double coverage() const;
};

class CellProbe {
 public:
  explicit CellProbe(const rt::experiments::CampaignRunner& runner)
      : runner_(runner) {}

  /// Probes the first `max_cells` cells of the grid (spec-major): every
  /// untraced reference first, serially, then the traced compositions. A
  /// traced cell that is not byte-identical to its reference, or whose MOT
  /// replay diverges, counts one failed operation in `report`.
  void probe_grid(const std::vector<rt::experiments::CampaignSpec>& specs,
                  std::size_t max_cells, Report& report);

  [[nodiscard]] const StageTotals& totals() const { return totals_; }

 private:
  bool probe_traced(const rt::experiments::CampaignSpec& spec, int run_index,
                    const std::string& reference, std::string& why);

  const rt::experiments::CampaignRunner& runner_;
  StageTotals totals_;
};

/// Heap allocations one untraced run_one makes on the calling thread.
std::uint64_t run_one_allocations(
    const rt::experiments::CampaignRunner& runner,
    const rt::experiments::CampaignSpec& spec, int run_index);

/// Adds the sim / perception / core / ads / defense / safety stage metrics
/// and experiments.{cell_setup_us, unattributed_frac} from `t`, and the
/// exact counts experiments.{frames_per_run, allocs_per_run} from `fixed`:
/// totals over a cell set that depends only on the seed, so the counts
/// repeat exactly between runs.
void add_stage_metrics(const StageTotals& t, const StageTotals& fixed,
                       Report& report);

}  // namespace perfbench

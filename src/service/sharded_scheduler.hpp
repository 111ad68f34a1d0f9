#pragma once

#include <vector>

#include "experiments/campaign.hpp"

namespace rt::service {

/// Knobs of the multi-process sharder.
struct ShardOptions {
  /// Forked worker processes. Clamped to [1, cell count]; 0 = one worker
  /// per hardware core (runtime::ThreadPool::default_threads()).
  unsigned workers{2};
  /// Re-fork attempts per shard after a worker death before the parent
  /// falls back to running the shard's missing cells in-process (so a
  /// crashing worker degrades to a re-run, never a lost result or a hung
  /// parent).
  int max_retries{2};
  /// Per-read poll timeout on a worker pipe. A worker that goes silent for
  /// longer is declared dead (killed + reaped) and its shard retried. The
  /// budget covers the whole read — EINTR storms cannot extend it.
  int read_timeout_ms{600000};
  /// Exponential backoff before each retry wave: attempt k sleeps
  /// min(retry_backoff_ms << k, 2000) ms. A worker killed by resource
  /// pressure (fork EAGAIN, OOM) gets breathing room instead of an
  /// immediate re-fork into the same pressure.
  int retry_backoff_ms{25};
  /// Test hooks: the first-wave worker for shard `crash_shard` calls
  /// _exit(42) after streaming `crash_after_cells` results. Retries are
  /// never crashed, so the harness can prove death -> retry -> identical
  /// results. -1 = disabled.
  int crash_shard{-1};
  int crash_after_cells{0};
};

/// Multi-process campaign grid execution: forks N workers over disjoint,
/// contiguous ranges of the grid's cell list (experiments::grid_cells),
/// each worker streaming one serialized RunResult frame per cell back over
/// a pipe, the parent merging frames into pre-assigned slots.
///
/// Because every run's randomness is a pure function of (spec.seed,
/// run_index) — the PR 1 counter-based contract — and doubles cross the
/// pipe as raw bit patterns, a sharded run is bit-identical to the
/// in-process CampaignScheduler at ANY worker count. Every frame carries an
/// FNV-1a payload checksum, so a corrupted pipe (bit flips, interposed
/// garbage) is detected and re-run, never merged. Worker death (crash,
/// kill, truncated frame, silence past the timeout) is detected per shard;
/// the missing cells are re-forked up to `max_retries` times (with capped
/// exponential backoff) and finally run in-process over a thread pool of
/// one thread per worker, so results are complete and identical even under
/// worker loss or total fork failure. All syscalls go through the
/// rt::service fault-injection shims (service/fault_injection.hpp); the
/// chaos suite drives every failure path above deterministically. Forks,
/// deaths, retry waves, fork failures, in-process recoveries and deadline
/// expiries are counted in the metrics registry (`rt_shard_*_total`) as
/// they happen, in the parent process.
class ShardedCampaignScheduler {
 public:
  explicit ShardedCampaignScheduler(const experiments::CampaignRunner& runner,
                                    ShardOptions opts = {});

  /// Runs every spec, stopping at `deadline`; failures become typed
  /// per-campaign error records instead of exceptions or hangs. Cells no
  /// worker delivered go through the same experiments::GridSlots fan-out
  /// and error pass as CampaignScheduler::run_all_checked.
  [[nodiscard]] experiments::GridOutcome run_all_checked(
      const std::vector<experiments::CampaignSpec>& specs,
      const experiments::GridDeadline& deadline) const;

 private:
  const experiments::CampaignRunner& runner_;
  ShardOptions opts_;
};

}  // namespace rt::service

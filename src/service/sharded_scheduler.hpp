#pragma once

#include <vector>

#include "experiments/campaign.hpp"

namespace rt::service {

/// Knobs of the multi-process sharder.
struct ShardOptions {
  /// Forked worker processes. Clamped to [1, drive count]; 0 = one worker
  /// per hardware core (runtime::ThreadPool::default_threads()).
  unsigned workers{2};
  /// Re-fork attempts per shard after a worker death before the parent
  /// falls back to running the shard's missing cells in-process (so a
  /// crashing worker degrades to a re-run, never a lost result or a hung
  /// parent).
  int max_retries{2};
  /// Silence budget of each worker: a worker that sends no byte for
  /// longer is declared dead (killed + reaped) and its missing cells
  /// retried. Only bytes received renew it — EINTR storms cannot extend
  /// it.
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

/// Multi-process campaign grid execution: forks N workers over striped
/// shards of the grid's drive list (experiments::GridSlots::drives; drive
/// i goes to worker i % N, so the member cells of a drive stay on one
/// worker), each worker simulating its drives in order and, after each,
/// streaming one serialized RunResult frame per member cell back over its
/// pipe. A grid without monitor variants has one drive per cell, so its
/// cells are striped one by one. The parent drains every worker pipe at
/// once with a single poll and merges each frame into its pre-assigned
/// experiments::GridSlots slot the moment it arrives, so the completion
/// hook hands a campaign over (CampaignService stages it for the cache)
/// while the workers are still computing the rest of the grid. A campaign's
/// drives are contiguous, so campaigns with at least N runs complete in
/// spec order (monitor variants sharing drives complete together).
///
/// Because every run's randomness is a pure function of (spec.seed,
/// run_index) — the counter-based seeding contract — and doubles cross the
/// pipe as raw bit patterns, a sharded run is bit-identical to the
/// in-process CampaignScheduler at ANY worker count. Every frame carries an
/// FNV-1a payload checksum, so a corrupted pipe (bit flips, interposed
/// garbage) is detected and re-run, never merged. Worker death (crash,
/// kill, truncated frame, silence past its own `read_timeout_ms`, or a
/// failed poll, which ends every stream it covered) is detected per
/// worker and the cells already received are kept; the missing cells are
/// regrouped into drives and re-forked up to `max_retries` times (with
/// capped exponential backoff) and finally run in-process over a thread
/// pool of one thread per worker, so results are complete and identical
/// even under worker loss or total fork failure. All syscalls go through
/// the rt::service fault-injection shims (service/fault_injection.hpp); the
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
  /// and error pass as CampaignScheduler::run_all_checked. `on_complete`
  /// fires once per completed campaign: on this thread for campaigns the
  /// workers finish, from pool threads for ones the fallback finishes.
  [[nodiscard]] experiments::GridOutcome run_all_checked(
      const std::vector<experiments::CampaignSpec>& specs,
      const experiments::GridDeadline& deadline,
      experiments::CampaignComplete on_complete = {}) const;

 private:
  const experiments::CampaignRunner& runner_;
  ShardOptions opts_;
};

}  // namespace rt::service

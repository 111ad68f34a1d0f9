#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>

#include "experiments/campaign.hpp"

namespace rt::service {

/// Simulation-semantics version baked into every cache key and cache-file
/// header. Bump whenever a change anywhere in the stack alters campaign
/// results for an unchanged spec (scenario generators, sensor/noise models,
/// planner, attacker, per-run seed derivation): entries written by another
/// code version are ignored — counted as `stale`, never served.
/// Version 2: the migration to counter-based noise streams changed every
/// campaign result, so entries written before it must not be served as
/// current.
inline constexpr std::uint64_t kCampaignCodeVersion = 2;

/// Content hash of one campaign cell: FNV-1a over the code version and the
/// spec's canonical bytes (experiments::serialize_spec), so the key covers
/// exactly the fields the serde layer writes, from the one field list the
/// serializer keeps per record (pinned by test_campaign_serde). Every
/// result-determining field is in it: scenario key, attack vector, mode,
/// runs, seed, explicit scenario params (so every sweep value gets its own
/// key) and the monitor stack, plus `name` (derived from the axes; keeping
/// it means a cached result's spec is exactly the requested spec). A
/// lookup also compares the stored spec's canonical bytes with the
/// requested spec's, so a collision or a renamed file is never served.
///
/// The key covers the spec and the code version only. Which oracles
/// computed an entry is checked through its header instead (see
/// CacheConfig::oracle_key), so every reader finds an entry at the same
/// path. Nothing covers the runner's LoopConfig: two services that share a
/// cache directory must run the same loop configuration, or they can
/// serve each other's results.
[[nodiscard]] std::uint64_t campaign_cell_fingerprint(
    const experiments::CampaignSpec& spec,
    std::uint64_t code_version = kCampaignCodeVersion);

struct CacheConfig {
  std::string dir;
  /// LRU byte budget. The cache keeps a running total of its entry bytes;
  /// when a store takes it past this budget, the oldest entries (by access
  /// counter — hits re-touch their sidecar) are evicted until the directory
  /// is back under 7/8 of it, so a full cache sweeps once per eighth of its
  /// budget rather than on every store. 0 = unbounded.
  std::size_t max_bytes{256ull * 1024 * 1024};
  /// Folded into every key and written into every entry header.
  std::uint64_t code_version{kCampaignCodeVersion};
  /// Identity of the oracles this cache's results are computed with
  /// (CampaignService sets it from its runner). When set, stores write it
  /// into the entry header and lookups count an entry that carries another
  /// key, or none, as `stale`: never served. Unset, no key is written or
  /// checked.
  std::optional<std::uint64_t> oracle_key{};
};

/// Content-addressed on-disk cache of campaign results:
/// `<dir>/cell_<fingerprint hex16>.rtcr`, each file one header line
/// (`RTCACHE 2 <code_version> <fingerprint> <content fnv64>`, then the
/// oracle key when the cache has one) plus the
/// serialized CampaignResult (experiments::serialize_campaign_result).
/// Damaged, stale or mismatched files are counted misses — never wrong
/// results: the header's FNV-1a content checksum catches byte corruption
/// that would still parse (a flipped bit inside a hex-encoded double), and
/// the serde layer underneath throws on any truncation, so a partial write
/// can never load as zeros. Stores are crash-durable: write a temp file
/// named for its writer (process and store), fsync, rename, then a
/// best-effort fsync of the directory, so a power cut leaves either the old
/// entry or the complete new one; a temp file whose writer died mid-store
/// is removed when a cache next opens the directory. All file IO goes
/// through the rt::service fault-injection shims; IO failures are absorbed
/// (a store declines, a lookup misses) and counted in
/// `rt_campaign_cache_io_errors_total`, never thrown. Every lookup
/// outcome, store and eviction is counted in the process-wide metrics
/// registry (`rt_campaign_cache_*_total`);
/// `rt_campaign_cache_stores_total` counts durable stores, which under
/// CampaignService may trail the reply that computed them. Instance methods
/// are safe from concurrent threads: the cache's bookkeeping (byte total,
/// access counter, sweeps) is mutex-serialized, but a store's write, fsyncs
/// and rename run outside the mutex, so a lookup never waits on another
/// thread's store I/O.
///
/// A hit or a store costs O(1) file operations, plus a directory sweep
/// once per eighth of the byte budget when the cache is full. The LRU
/// access counter in an entry's `.touch` sidecar is rewritten in place
/// (one fixed-width pwrite, no temp file, no rename); a torn counter write
/// can only misorder LRU — the entry then sorts by a wrong counter or by
/// mtime — and can never serve a wrong result, since lookups never read
/// sidecars.
/// The byte budget is a running total, not a directory walk per store: it
/// counts the directory as this process last measured it (at construction
/// or at its last sweep) plus this process's own stores. Entries another
/// process stores into the same directory become visible at the next sweep.
class CampaignCellCache {
 public:
  explicit CampaignCellCache(CacheConfig config);

  /// The cached result for this exact spec (at this cache's code version),
  /// or nullopt. A hit re-touches the entry for LRU: its `.touch` sidecar
  /// gets the next monotonic access counter, written in place over the old
  /// one (and the mtime is refreshed as a best-effort fallback).
  [[nodiscard]] std::optional<experiments::CampaignResult> lookup(
      const experiments::CampaignSpec& spec);

  /// Serializes and stores the result under the spec's fingerprint, then
  /// runs the LRU sweep down to 7/8 of the budget if the running byte
  /// total has crossed it. Returns false (and counts an I/O error) when
  /// the entry could not be durably written; the cache is unchanged in
  /// that case and the caller may decide to stop trying (see
  /// CampaignService's cache-off latch).
  bool store(const experiments::CampaignSpec& spec,
             const experiments::CampaignResult& result);

  /// Counts a hit that CampaignService served from memory while the
  /// entry still awaited its store: a cache hit, and a staged hit.
  void count_staged_hit();

  /// Evicts oldest entries until the directory is within `limit_bytes`
  /// (pass the configured budget via the no-arg overload), measuring the
  /// directory afresh. Returns the number of files removed.
  std::size_t evict_to_limit(std::size_t limit_bytes);
  std::size_t evict_to_limit();

  /// On-disk path an entry for this spec would use.
  [[nodiscard]] std::string entry_path(
      const experiments::CampaignSpec& spec) const;

  [[nodiscard]] const CacheConfig& config() const { return config_; }

 private:
  /// Sweep body; caller holds mutex_. Walks the directory, resets bytes_ to
  /// what it measured and evicted. Returns files removed.
  std::size_t evict_locked(std::size_t limit_bytes);

  /// `<dir>/cell_<fingerprint hex16>.rtcr`: the one place an entry's path
  /// is built.
  [[nodiscard]] std::string path_of(std::uint64_t fingerprint) const;

  /// Writes the next access counter into `cell_<hash>.rtcr.touch` in place
  /// (20 zero-padded digits + '\n' at offset 0); caller holds mutex_.
  void touch_locked(const std::string& entry_path);

  CacheConfig config_;
  std::mutex mutex_;
  /// Monotonic access sequence for LRU ordering. fs::last_write_time has
  /// 1 s granularity on some filesystems, so a hit and a cold store within
  /// the same second used to tie and fall through to the path tie-break —
  /// which could evict the just-hit entry before a cold one. Counters are
  /// persisted in per-entry `.touch` sidecars (fixed-width, rewritten in
  /// place) and re-seeded from their max at construction, so ordering
  /// survives process restarts; entries without a sidecar (legacy, or a
  /// lost write) fall back to mtime and sort before any counter-bearing
  /// entry.
  std::uint64_t touch_seq_{0};
  /// Running total of `cell_*.rtcr` bytes: seeded by the constructor's
  /// directory walk, moved by each store (minus any entry it replaced),
  /// reset by every sweep to what the sweep measured.
  std::uintmax_t bytes_{0};
  /// Per-store sequence in temp file names.
  std::atomic<std::uint64_t> tmp_seq_{0};
};

}  // namespace rt::service

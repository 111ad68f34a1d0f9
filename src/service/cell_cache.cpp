#include "service/cell_cache.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "experiments/campaign_serde.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/fault_injection.hpp"
#include "stats/hash.hpp"

namespace rt::service {

namespace fs = std::filesystem;

namespace {

/// The cache's counters, process-wide across every CampaignCellCache
/// instance; each is bumped where its event happens.
struct CacheCounters {
  obs::Counter hits;
  obs::Counter misses;
  obs::Counter stale;    ///< entry ignored: other version or oracle key
  obs::Counter corrupt;  ///< entry ignored: malformed/truncated/mismatched
  obs::Counter evictions;
  obs::Counter stores;
  obs::Counter staged_hits;  ///< of `hits`: served before their store
  /// IO failures (write/fsync/rename on store, read errors on lookup),
  /// absorbed: a failed store declines, a failed read misses.
  obs::Counter io_errors;
};

const CacheCounters& cache_counters() {
  static const CacheCounters c = [] {
    auto& reg = obs::MetricsRegistry::global();
    return CacheCounters{
        reg.counter("rt_campaign_cache_hits_total",
                    "Cell-cache lookups served from disk"),
        reg.counter("rt_campaign_cache_misses_total",
                    "Cell-cache lookups that fell through to execution"),
        reg.counter("rt_campaign_cache_stale_total",
                    "Entries ignored for version mismatch"),
        reg.counter("rt_campaign_cache_corrupt_total",
                    "Entries rejected by checksum/parse validation"),
        reg.counter("rt_campaign_cache_evictions_total",
                    "Entries evicted by the LRU size budget"),
        reg.counter("rt_campaign_cache_stores_total",
                    "Entries durably stored (may trail the reply that "
                    "computed them)"),
        reg.counter("rt_campaign_cache_staged_hits_total",
                    "Cache hits served from memory while their entry "
                    "awaited its durable store"),
        reg.counter("rt_campaign_cache_io_errors_total",
                    "Cache reads/writes declined on I/O failure")};
  }();
  return c;
}

constexpr const char* kCacheMagic = "RTCACHE";
/// A budget-triggered sweep evicts down to max_bytes minus this fraction,
/// so a full cache sweeps once per eighth of its budget instead of on
/// every store.
constexpr std::size_t kLowWaterDivisor = 8;
/// v2 added the content checksum column; v1 entries are counted `stale`
/// (ignored and re-stored), exactly like a code-version bump.
constexpr std::uint64_t kCacheHeaderVersion = 2;

/// The cell key: the code version plus the spec's canonical bytes.
std::uint64_t fingerprint_of(std::string_view spec_bytes,
                             std::uint64_t code_version) {
  std::uint64_t h = stats::kFnv1aOffset;
  h = stats::fnv1a_str(h, "rt.campaign.cell.v1");
  h = stats::fnv1a_u64(h, code_version);
  return stats::fnv1a_str(h, spec_bytes);
}

std::string fingerprint_hex(std::uint64_t fp) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, fp);
  return buf;
}

std::uint64_t content_checksum(std::string_view payload) {
  return stats::fnv1a_str(stats::kFnv1aOffset, payload);
}

enum class ReadOutcome { kOk, kNotFound, kIoError };

/// Whole-file read through the fault-injection shims, so a chaos schedule
/// can hit cache lookups with EIO/EINTR like any other syscall site.
ReadOutcome read_file(const fs::path& path, std::string& out) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return errno == ENOENT ? ReadOutcome::kNotFound : ReadOutcome::kIoError;
  }
  out.clear();
  char buf[1 << 16];
  for (;;) {
    const ssize_t n =
        sys_read(FaultSite::kCacheRead, fd, buf, sizeof buf);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return ReadOutcome::kIoError;
    }
    if (n == 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return ReadOutcome::kOk;
}

fs::path touch_sidecar(const fs::path& entry) {
  return fs::path(entry.string() + ".touch");
}

bool is_entry_file(const fs::path& path) {
  return path.filename().string().rfind("cell_", 0) == 0 &&
         path.extension() == ".rtcr";
}

/// True for a store's temp file whose writer is gone:
/// `cell_<fp>.rtcr.<pid>-<seq>.tmp` from a pid that names no live process
/// (a store cut short by a crash or a kill), or the fixed
/// `cell_<fp>.rtcr.tmp` of older versions. A live writer's file, this
/// process's included, is not an orphan.
bool is_orphan_tmp(const fs::path& path) {
  const std::string name = path.filename().string();
  if (name.rfind("cell_", 0) != 0 || path.extension() != ".tmp") return false;
  const std::size_t at = name.find(".rtcr.");
  if (at == std::string::npos) return false;
  const std::string_view tail = std::string_view(name).substr(at + 6);
  if (tail == "tmp") return true;
  pid_t pid = 0;
  const auto [end, err] =
      std::from_chars(tail.data(), tail.data() + tail.size(), pid);
  if (err != std::errc() || pid <= 0 || *end != '-') return false;
  return ::kill(pid, 0) != 0 && errno == ESRCH;
}

/// Access counter from an entry's `.touch` sidecar; 0 (== "no recorded
/// access, fall back to mtime") when absent or unreadable.
std::uint64_t read_touch(const fs::path& entry) {
  std::ifstream in(touch_sidecar(entry));
  std::uint64_t v = 0;
  if (in >> v) return v;
  return 0;
}

}  // namespace

std::uint64_t campaign_cell_fingerprint(
    const experiments::CampaignSpec& spec, std::uint64_t code_version) {
  return fingerprint_of(experiments::serialize_spec(spec), code_version);
}

CampaignCellCache::CampaignCellCache(CacheConfig config)
    : config_(std::move(config)) {
  if (config_.dir.empty()) {
    throw std::invalid_argument("CampaignCellCache: empty cache dir");
  }
  fs::create_directories(config_.dir);
  // Re-seed the monotonic access sequence from the max persisted counter,
  // so a restarted process keeps strictly increasing LRU order, and the
  // running byte total from the entries already on disk. Temp files whose
  // writer died mid-store are removed: nothing else would ever reclaim
  // them, and the byte budget does not count them.
  std::error_code ec;
  for (const auto& de : fs::directory_iterator(config_.dir, ec)) {
    if (is_orphan_tmp(de.path())) {
      std::error_code rec;
      fs::remove(de.path(), rec);
      continue;
    }
    if (is_entry_file(de.path())) {
      std::error_code sec;
      const auto size = de.file_size(sec);
      if (!sec) bytes_ += size;
      continue;
    }
    if (de.path().extension() != ".touch") continue;
    std::ifstream in(de.path());
    std::uint64_t v = 0;
    if (in >> v) touch_seq_ = std::max(touch_seq_, v);
  }
}

void CampaignCellCache::touch_locked(const std::string& entry_path) {
  // 20 digits is the width of the largest uint64, so this one write always
  // covers whatever the sidecar held before (legacy "<n>\n" included) and
  // needs neither O_TRUNC nor a temp file + rename, both of which force a
  // flush on ext4. A failed or torn write only misorders LRU.
  char line[22];
  std::snprintf(line, sizeof line, "%020" PRIu64 "\n", ++touch_seq_);
  const fs::path sidecar = touch_sidecar(entry_path);
  const int fd = ::open(sidecar.c_str(), O_WRONLY | O_CREAT, 0644);
  if (fd < 0) return;  // no counter: the entry falls back to mtime order
  (void)::pwrite(fd, line, 21, 0);
  ::close(fd);
}

std::string CampaignCellCache::path_of(std::uint64_t fingerprint) const {
  return (fs::path(config_.dir) /
          ("cell_" + fingerprint_hex(fingerprint) + ".rtcr"))
      .string();
}

std::string CampaignCellCache::entry_path(
    const experiments::CampaignSpec& spec) const {
  return path_of(campaign_cell_fingerprint(spec, config_.code_version));
}

std::optional<experiments::CampaignResult> CampaignCellCache::lookup(
    const experiments::CampaignSpec& spec) {
  RT_TRACE_SPAN("cache_lookup", "cache");
  std::lock_guard<std::mutex> lock(mutex_);
  const std::string spec_bytes = experiments::serialize_spec(spec);
  const std::uint64_t fp = fingerprint_of(spec_bytes, config_.code_version);
  const std::string path = path_of(fp);

  std::string blob;
  switch (read_file(path, blob)) {
    case ReadOutcome::kOk:
      break;
    case ReadOutcome::kNotFound:
      cache_counters().misses.inc();
      return std::nullopt;
    case ReadOutcome::kIoError:
      // Disk trouble reading an entry that exists: absorbed as a miss (the
      // grid re-runs the cell), counted so the service layer can notice.
      cache_counters().io_errors.inc();
      cache_counters().misses.inc();
      return std::nullopt;
  }

  // Header line:
  //   RTCACHE <header version> <code_version> <fingerprint> <content fnv>
  //   [<oracle key>]
  const std::size_t eol = blob.find('\n');
  if (eol == std::string::npos) {
    cache_counters().corrupt.inc();
    return std::nullopt;
  }
  const std::string header = blob.substr(0, eol);
  char magic[16] = {0};
  unsigned long long header_version = 0;
  if (std::sscanf(header.c_str(), "%15s %llu", magic, &header_version) != 2 ||
      std::string(magic) != kCacheMagic) {
    cache_counters().corrupt.inc();
    return std::nullopt;
  }
  if (header_version != kCacheHeaderVersion) {
    // A well-formed entry from another header generation (e.g. pre-checksum
    // v1): stale, not corrupt — nothing is damaged, the format just moved.
    cache_counters().stale.inc();
    return std::nullopt;
  }
  unsigned long long file_code_version = 0;
  unsigned long long file_fp = 0;
  unsigned long long file_checksum = 0;
  unsigned long long file_oracle_key = 0;
  const int fields = std::sscanf(
      header.c_str(), "%15s %llu %llu %llx %llx %llx", magic, &header_version,
      &file_code_version, &file_fp, &file_checksum, &file_oracle_key);
  if (fields < 5) {
    cache_counters().corrupt.inc();
    return std::nullopt;
  }
  if (file_code_version != config_.code_version) {
    // Written by a build with different simulation semantics: ignore it
    // (it will be overwritten by the store that follows the re-run).
    cache_counters().stale.inc();
    return std::nullopt;
  }
  if (config_.oracle_key &&
      (fields != 6 || file_oracle_key != *config_.oracle_key)) {
    // Computed with other oracles (or by a writer that recorded none):
    // well-formed, but not this cache's result.
    cache_counters().stale.inc();
    return std::nullopt;
  }
  if (file_fp != fp) {
    cache_counters().corrupt.inc();
    return std::nullopt;
  }
  const std::string_view payload = std::string_view(blob).substr(eol + 1);
  if (content_checksum(payload) != file_checksum) {
    // Byte rot that might still parse (e.g. a flipped bit inside a hex
    // double): without this check it would be served as a wrong result.
    cache_counters().corrupt.inc();
    return std::nullopt;
  }

  experiments::CampaignResult result;
  try {
    result = experiments::deserialize_campaign_result(
        std::string_view(blob).substr(eol + 1));
  } catch (const experiments::SerdeError&) {
    cache_counters().corrupt.inc();
    return std::nullopt;
  }
  // Against a fingerprint collision or a renamed file: the stored spec
  // must be the requested one, every field of it.
  if (experiments::serialize_spec(result.spec) != spec_bytes) {
    cache_counters().corrupt.inc();
    return std::nullopt;
  }

  cache_counters().hits.inc();
  // LRU re-touch: the authoritative order is the monotonic counter (mtime
  // has 1 s granularity on some filesystems, which let a hit tie with a
  // cold store and lose to the path tie-break); the mtime refresh stays as
  // the fallback signal for entries handled by older builds.
  touch_locked(path);
  std::error_code ec;
  fs::last_write_time(path, fs::file_time_type::clock::now(), ec);
  return result;
}

void CampaignCellCache::count_staged_hit() {
  cache_counters().hits.inc();
  cache_counters().staged_hits.inc();
}

bool CampaignCellCache::store(const experiments::CampaignSpec& spec,
                              const experiments::CampaignResult& result) {
  RT_TRACE_SPAN("cache_store", "cache");
  const std::uint64_t fp =
      campaign_cell_fingerprint(spec, config_.code_version);
  const std::string path = path_of(fp);
  // One temp name per writer (process and store), so stores of one entry
  // from two threads or two processes sharing the directory never write
  // into each other's temp file.
  const std::string tmp =
      path + '.' + std::to_string(::getpid()) + '-' +
      std::to_string(tmp_seq_.fetch_add(1, std::memory_order_relaxed)) +
      ".tmp";

  const std::string payload = experiments::serialize_campaign_result(result);
  std::string blob = std::string(kCacheMagic) + ' ' +
                     std::to_string(kCacheHeaderVersion) + ' ' +
                     std::to_string(config_.code_version) + ' ' +
                     fingerprint_hex(fp) + ' ' +
                     fingerprint_hex(content_checksum(payload));
  if (config_.oracle_key) blob += ' ' + fingerprint_hex(*config_.oracle_key);
  blob += '\n';
  blob += payload;

  // Crash-durable store: write the temp file, fsync IT, then rename over
  // the final name, then (best effort) fsync the directory so the rename
  // itself survives a power cut. Any failure declines the store — the tmp
  // file is removed, the previous entry (if any) is untouched. None of it
  // holds the mutex, so a lookup never waits for this disk I/O.
  const auto decline = [&](int fd) {
    if (fd >= 0) ::close(fd);
    std::error_code ec;
    fs::remove(tmp, ec);
    cache_counters().io_errors.inc();
    return false;
  };
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return decline(-1);
  if (!write_all_fd(FaultSite::kCacheWrite, fd, blob.data(), blob.size())) {
    return decline(fd);
  }
  if (sys_fsync(FaultSite::kCacheFsync, fd) != 0) return decline(fd);
  if (::close(fd) != 0) return decline(-1);
  // An overwritten entry (after a stale or corrupt miss) leaves the
  // running total when its replacement lands.
  struct stat old_entry {};
  const std::uintmax_t replaced =
      ::stat(path.c_str(), &old_entry) == 0
          ? static_cast<std::uintmax_t>(old_entry.st_size)
          : 0;
  if (sys_rename(FaultSite::kCacheRename, tmp.c_str(), path.c_str()) != 0) {
    return decline(-1);
  }
  const int dirfd = ::open(config_.dir.c_str(), O_RDONLY);
  if (dirfd >= 0) {
    // Directory fsync is best-effort: some filesystems refuse it, and the
    // entry itself is already durable and complete either way.
    (void)sys_fsync(FaultSite::kCacheFsync, dirfd);
    ::close(dirfd);
  }

  std::lock_guard<std::mutex> lock(mutex_);
  bytes_ -= std::min(bytes_, replaced);
  bytes_ += blob.size();
  cache_counters().stores.inc();
  touch_locked(path);
  if (config_.max_bytes > 0 && bytes_ > config_.max_bytes) {
    cache_counters().evictions.inc(evict_locked(
        config_.max_bytes - config_.max_bytes / kLowWaterDivisor));
  }
  return true;
}

std::size_t CampaignCellCache::evict_to_limit(std::size_t limit_bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t removed = evict_locked(limit_bytes);
  cache_counters().evictions.inc(removed);
  return removed;
}

std::size_t CampaignCellCache::evict_to_limit() {
  return config_.max_bytes > 0 ? evict_to_limit(config_.max_bytes) : 0;
}

std::size_t CampaignCellCache::evict_locked(std::size_t limit_bytes) {
  struct Entry {
    std::uint64_t touch;  ///< 0 = no counter, order by mtime
    fs::file_time_type mtime;
    std::uintmax_t size;
    fs::path path;
  };
  std::vector<Entry> entries;
  std::uintmax_t total = 0;
  std::error_code ec;
  for (const auto& de : fs::directory_iterator(config_.dir, ec)) {
    if (!is_entry_file(de.path())) continue;
    std::error_code fec;
    const auto size = fs::file_size(de.path(), fec);
    const auto mtime = fs::last_write_time(de.path(), fec);
    if (fec) continue;
    total += size;
    entries.push_back({read_touch(de.path()), mtime, size, de.path()});
  }
  if (total <= limit_bytes) {
    bytes_ = total;  // the walk is authoritative: resync the running total
    return 0;
  }

  // Oldest access first. Primary key: the monotonic touch counter (every
  // store and every hit bumps it), immune to the 1 s mtime granularity that
  // used to let a just-hit entry tie with — and evict before — a cold one.
  // Counterless entries sort first among themselves by mtime; path is the
  // final deterministic tie-break.
  std::sort(entries.begin(), entries.end(), [](const Entry& a,
                                               const Entry& b) {
    if (a.touch != b.touch) return a.touch < b.touch;
    if (a.mtime != b.mtime) return a.mtime < b.mtime;
    return a.path < b.path;
  });
  std::size_t removed = 0;
  for (const Entry& e : entries) {
    if (total <= limit_bytes) break;
    std::error_code rec;
    if (fs::remove(e.path, rec)) {
      total -= e.size;
      ++removed;
      fs::remove(touch_sidecar(e.path), rec);  // evicted entry's sidecar too
    }
  }
  bytes_ = total;
  return removed;
}

}  // namespace rt::service

#pragma once

#include <poll.h>
#include <sys/types.h>

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace rt::service {

/// Injection sites: every syscall boundary the service layer crosses. Each
/// site has its own operation counter, so a fault schedule names exactly
/// which operation of which site it hits.
enum class FaultSite : std::uint8_t {
  kPipeWrite = 0,  ///< worker streaming a result frame to the parent
  kPipeRead,       ///< parent reading a worker pipe
  kPipePoll,       ///< parent polling a worker pipe
  kFork,           ///< forking a shard worker
  kCacheWrite,     ///< cache store writing the tmp entry
  kCacheFsync,     ///< cache store fsyncing the tmp entry
  kCacheRename,    ///< cache store tmp -> final rename
  kCacheRead,      ///< cache lookup reading an entry
  kClientWrite,    ///< server writing a response to a client
};
inline constexpr std::size_t kFaultSiteCount = 9;
[[nodiscard]] const char* to_string(FaultSite site);

/// The fault taxonomy. Which types are meaningful depends on the site (the
/// chaos suite enumerates the valid pairs); an inapplicable type at a site
/// simply never fires.
enum class FaultType : std::uint8_t {
  kNone = 0,
  kShortWrite,     ///< write consumes only a prefix of the buffer
  kEintr,          ///< op fails with EINTR (storms arise from the schedule)
  kIoError,        ///< op fails with EIO
  kForkEagain,     ///< fork fails with EAGAIN
  /// op blocks until this process disarms the injector, then runs
  /// normally: forever in a forked worker (until the parent's timeout
  /// kills it), a held cache store in the parent
  kHang,
  kTruncateFrame,  ///< a prefix is written, then the op fails with EPIPE
  kCorruptFrame,   ///< one byte of the buffer is flipped before writing
  kEnospc,         ///< op fails with ENOSPC
  kDisconnect,     ///< op fails with EPIPE (peer vanished)
};
[[nodiscard]] const char* to_string(FaultType type);

/// One armed fault: `type` fires at `site` for operations n >= skip_ops,
/// each with probability `rate` (1.0 = always), at most `max_faults` times
/// (-1 = unlimited). Whether operation n faults is a pure function of
/// (plan seed, site, worker id, rule index, n) — see FaultInjector.
struct FaultRule {
  FaultSite site{FaultSite::kPipeWrite};
  FaultType type{FaultType::kNone};
  double rate{1.0};
  int max_faults{-1};
  int skip_ops{0};
};

struct FaultPlan {
  std::uint64_t seed{0};
  std::vector<FaultRule> rules{};
};

/// What `FaultInjector::next` decided for one operation.
struct FaultDecision {
  FaultType type{FaultType::kNone};
  std::uint64_t op{0};  ///< the operation's index at its site
};

/// Process-wide deterministic fault injector.
///
/// Every instrumented syscall wrapper (the `sys_*` shims below) asks
/// `next(site)` before touching the kernel. The answer for the site's n-th
/// operation is a pure, counter-based function of (plan seed, site, worker
/// id, rule index, n) via `stats::Rng::from_stream` — the same idiom the
/// campaign RNG uses — so a chaos run's fault sequence is bit-reproducible:
/// the same seed injects the same faults at the same operations, every run,
/// regardless of wall-clock timing. Forked workers inherit the armed plan;
/// `set_worker` folds the (deterministic) shard id into the stream so
/// distinct workers draw distinct schedules.
///
/// Disarmed (the default), every shim is a single relaxed atomic load away
/// from the raw syscall.
class FaultInjector {
 public:
  static FaultInjector& instance();

  /// Arms `plan` and zeroes all per-site counters.
  void arm(FaultPlan plan);
  void disarm();
  [[nodiscard]] bool armed() const {
    return armed_.load(std::memory_order_acquire);
  }

  /// Arms from the RT_CHAOS environment variable when set (format:
  /// `seed=7 site=client-write type=disconnect rate=0.5 max=4 skip=0`;
  /// site and type use the to_string names). Returns true when armed.
  bool arm_from_env(const char* var = "RT_CHAOS");

  /// Folds a deterministic worker id into the schedule stream (called by
  /// forked shard workers with their shard id, which is itself a pure
  /// function of the grid and worker count).
  void set_worker(std::uint64_t worker) {
    worker_.store(worker, std::memory_order_relaxed);
  }

  /// Decision for the next operation at `site`; advances the site counter.
  FaultDecision next(FaultSite site);

  /// Operations observed / faults injected at `site` since arm().
  [[nodiscard]] std::uint64_t ops(FaultSite site) const;
  [[nodiscard]] std::uint64_t injected(FaultSite site) const;
  /// Total faults injected across all sites since arm().
  [[nodiscard]] std::uint64_t injected_total() const;

 private:
  FaultInjector() = default;

  std::atomic<bool> armed_{false};
  std::atomic<std::uint64_t> worker_{0};
  FaultPlan plan_{};
  std::array<std::atomic<std::uint64_t>, kFaultSiteCount> ops_{};
  std::array<std::atomic<std::uint64_t>, kFaultSiteCount> injected_{};
};

/// RAII arming for tests: arms on construction, disarms on destruction.
struct ArmedFaults {
  explicit ArmedFaults(FaultPlan plan) {
    FaultInjector::instance().arm(std::move(plan));
  }
  ~ArmedFaults() { FaultInjector::instance().disarm(); }
  ArmedFaults(const ArmedFaults&) = delete;
  ArmedFaults& operator=(const ArmedFaults&) = delete;
};

// Syscall shims: identical to the raw calls when the injector is disarmed,
// and the only way service code is allowed to touch these syscalls.
ssize_t sys_read(FaultSite site, int fd, void* buf, std::size_t len);
ssize_t sys_write(FaultSite site, int fd, const void* buf, std::size_t len);
int sys_poll(FaultSite site, struct pollfd* fds, nfds_t n, int timeout_ms);
pid_t sys_fork();
int sys_fsync(FaultSite site, int fd);
int sys_rename(FaultSite site, const char* from, const char* to);

/// Writes all of [data, data+len) through sys_write, absorbing EINTR and
/// short writes. Returns false on any other error (errno preserved).
bool write_all_fd(FaultSite site, int fd, const void* data, std::size_t len);

}  // namespace rt::service

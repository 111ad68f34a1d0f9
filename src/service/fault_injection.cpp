#include "service/fault_injection.hpp"

#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "obs/metrics.hpp"
#include "stats/rng.hpp"

namespace rt::service {

namespace {

constexpr const char* kSiteNames[kFaultSiteCount] = {
    "pipe-write", "pipe-read",    "pipe-poll",  "fork",      "cache-write",
    "cache-fsync", "cache-rename", "cache-read", "client-write",
};

struct TypeName {
  FaultType type;
  const char* name;
};
constexpr TypeName kTypeNames[] = {
    {FaultType::kNone, "none"},
    {FaultType::kShortWrite, "short-write"},
    {FaultType::kEintr, "eintr"},
    {FaultType::kIoError, "io-error"},
    {FaultType::kForkEagain, "fork-eagain"},
    {FaultType::kHang, "hang"},
    {FaultType::kTruncateFrame, "truncate-frame"},
    {FaultType::kCorruptFrame, "corrupt-frame"},
    {FaultType::kEnospc, "enospc"},
    {FaultType::kDisconnect, "disconnect"},
};

/// Blocks in short sleeps until this process disarms the injector. A
/// forked worker's copy is never disarmed, so there the peer's timeout (and
/// SIGKILL) is the only way out — exactly what a wedged worker looks like
/// from outside; in the parent it holds an operation for as long as a test
/// keeps the plan armed.
void hang_while_armed() {
  struct timespec ts {};
  ts.tv_sec = 0;
  ts.tv_nsec = 1000 * 1000;
  while (FaultInjector::instance().armed()) ::nanosleep(&ts, nullptr);
}

/// Firings also go to the metrics registry so chaos harnesses can assert
/// on a snapshot instead of scraping text. Same caveat as
/// injected_total(): forked workers count in their own process. arm()
/// registers it, so no thread is still initializing it when another one
/// forks a worker that fires a fault.
const obs::Counter& injections_counter() {
  static const obs::Counter fired = obs::MetricsRegistry::global().counter(
      "rt_fault_injections_total",
      "Deterministic fault-injection firings in this process");
  return fired;
}

}  // namespace

const char* to_string(FaultSite site) {
  const auto i = static_cast<std::size_t>(site);
  return i < kFaultSiteCount ? kSiteNames[i] : "?";
}

const char* to_string(FaultType type) {
  for (const auto& tn : kTypeNames) {
    if (tn.type == type) return tn.name;
  }
  return "?";
}

FaultInjector& FaultInjector::instance() {
  static FaultInjector injector;
  return injector;
}

void FaultInjector::arm(FaultPlan plan) {
  (void)injections_counter();
  armed_.store(false, std::memory_order_release);
  plan_ = std::move(plan);
  worker_.store(0, std::memory_order_relaxed);
  for (auto& c : ops_) c.store(0, std::memory_order_relaxed);
  for (auto& c : injected_) c.store(0, std::memory_order_relaxed);
  armed_.store(true, std::memory_order_release);
}

void FaultInjector::disarm() { armed_.store(false, std::memory_order_release); }

bool FaultInjector::arm_from_env(const char* var) {
  const char* text = std::getenv(var);
  if (text == nullptr || text[0] == '\0') return false;
  FaultPlan plan;
  FaultRule rule;
  bool have_site = false;
  bool have_type = false;
  std::istringstream in(text);
  std::string word;
  while (in >> word) {
    const std::size_t eq = word.find('=');
    if (eq == std::string::npos) return false;
    const std::string key = word.substr(0, eq);
    const std::string value = word.substr(eq + 1);
    if (key == "seed") {
      plan.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "site") {
      for (std::size_t i = 0; i < kFaultSiteCount; ++i) {
        if (value == kSiteNames[i]) {
          rule.site = static_cast<FaultSite>(i);
          have_site = true;
        }
      }
      if (!have_site) return false;
    } else if (key == "type") {
      for (const auto& tn : kTypeNames) {
        if (value == tn.name) {
          rule.type = tn.type;
          have_type = true;
        }
      }
      if (!have_type) return false;
    } else if (key == "rate") {
      rule.rate = std::strtod(value.c_str(), nullptr);
    } else if (key == "max") {
      rule.max_faults = std::atoi(value.c_str());
    } else if (key == "skip") {
      rule.skip_ops = std::atoi(value.c_str());
    } else {
      return false;
    }
  }
  if (!have_site || !have_type) return false;
  plan.rules.push_back(rule);
  arm(std::move(plan));
  return true;
}

FaultDecision FaultInjector::next(FaultSite site) {
  const auto si = static_cast<std::size_t>(site);
  if (!armed_.load(std::memory_order_acquire)) return {FaultType::kNone, 0};
  const std::uint64_t n = ops_[si].fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t worker = worker_.load(std::memory_order_relaxed);
  for (std::size_t r = 0; r < plan_.rules.size(); ++r) {
    const FaultRule& rule = plan_.rules[r];
    if (rule.site != site || rule.type == FaultType::kNone) continue;
    if (n < static_cast<std::uint64_t>(rule.skip_ops)) continue;
    if (rule.max_faults >= 0 &&
        injected_[si].load(std::memory_order_relaxed) >=
            static_cast<std::uint64_t>(rule.max_faults)) {
      continue;
    }
    // Pure function of (seed, site, worker, rule, n): the same chaos seed
    // reproduces the same fault sequence on every run.
    std::uint64_t key = plan_.seed;
    key ^= (static_cast<std::uint64_t>(site) + 1) * 0x9E3779B97F4A7C15ull;
    key ^= (worker + 1) * 0xBF58476D1CE4E5B9ull;
    key ^= (static_cast<std::uint64_t>(r) + 1) * 0x94D049BB133111EBull;
    stats::Rng rng = stats::Rng::from_stream(key, n);
    if (rule.rate >= 1.0 || rng.uniform(0.0, 1.0) < rule.rate) {
      injected_[si].fetch_add(1, std::memory_order_relaxed);
      injections_counter().inc();
      return {rule.type, n};
    }
  }
  return {FaultType::kNone, n};
}

std::uint64_t FaultInjector::ops(FaultSite site) const {
  return ops_[static_cast<std::size_t>(site)].load(std::memory_order_relaxed);
}

std::uint64_t FaultInjector::injected(FaultSite site) const {
  return injected_[static_cast<std::size_t>(site)].load(
      std::memory_order_relaxed);
}

std::uint64_t FaultInjector::injected_total() const {
  std::uint64_t total = 0;
  for (const auto& c : injected_) total += c.load(std::memory_order_relaxed);
  return total;
}

ssize_t sys_read(FaultSite site, int fd, void* buf, std::size_t len) {
  switch (FaultInjector::instance().next(site).type) {
    case FaultType::kEintr:
      errno = EINTR;
      return -1;
    case FaultType::kIoError:
      errno = EIO;
      return -1;
    case FaultType::kHang:
      hang_while_armed();
      break;
    default:
      break;
  }
  return ::read(fd, buf, len);
}

ssize_t sys_write(FaultSite site, int fd, const void* buf, std::size_t len) {
  const FaultDecision d = FaultInjector::instance().next(site);
  switch (d.type) {
    case FaultType::kShortWrite: {
      // A prefix is consumed — a correct caller loops; an incorrect one
      // silently truncates, which the checksummed readers then catch.
      const std::size_t k = len > 1 ? (len + 1) / 2 : len;
      return ::write(fd, buf, k);
    }
    case FaultType::kEintr:
      errno = EINTR;
      return -1;
    case FaultType::kIoError:
      errno = EIO;
      return -1;
    case FaultType::kEnospc:
      errno = ENOSPC;
      return -1;
    case FaultType::kDisconnect:
      errno = EPIPE;
      return -1;
    case FaultType::kHang:
      hang_while_armed();
      break;
    case FaultType::kTruncateFrame: {
      // Mid-frame stream death: a prefix reaches the pipe, then the writer
      // is gone. The reader must see a truncated frame, never a short one
      // that parses.
      if (len > 1) {
        const ssize_t ignored = ::write(fd, buf, (len + 1) / 2);
        (void)ignored;
      }
      errno = EPIPE;
      return -1;
    }
    case FaultType::kCorruptFrame: {
      // One byte flipped at a schedule-determined offset: exercises the
      // frame/entry checksums (without them this would be silent result
      // corruption, the worst failure mode a result service can have).
      std::string copy(static_cast<const char*>(buf), len);
      if (!copy.empty()) {
        copy[static_cast<std::size_t>(d.op * 0x9E3779B1ull + 17) %
             copy.size()] ^= 0x20;
      }
      return ::write(fd, copy.data(), copy.size());
    }
    default:
      break;
  }
  return ::write(fd, buf, len);
}

int sys_poll(FaultSite site, struct pollfd* fds, nfds_t n, int timeout_ms) {
  switch (FaultInjector::instance().next(site).type) {
    case FaultType::kEintr:
      errno = EINTR;
      return -1;
    case FaultType::kIoError:
      errno = EIO;
      return -1;
    default:
      break;
  }
  return ::poll(fds, n, timeout_ms);
}

pid_t sys_fork() {
  if (FaultInjector::instance().next(FaultSite::kFork).type ==
      FaultType::kForkEagain) {
    errno = EAGAIN;
    return -1;
  }
  return ::fork();
}

int sys_fsync(FaultSite site, int fd) {
  switch (FaultInjector::instance().next(site).type) {
    case FaultType::kIoError:
      errno = EIO;
      return -1;
    case FaultType::kEnospc:
      errno = ENOSPC;
      return -1;
    default:
      break;
  }
  return ::fsync(fd);
}

int sys_rename(FaultSite site, const char* from, const char* to) {
  switch (FaultInjector::instance().next(site).type) {
    case FaultType::kIoError:
      errno = EIO;
      return -1;
    case FaultType::kEnospc:
      errno = ENOSPC;
      return -1;
    default:
      break;
  }
  return ::rename(from, to);
}

bool write_all_fd(FaultSite site, int fd, const void* data, std::size_t len) {
  const char* p = static_cast<const char*>(data);
  while (len > 0) {
    const ssize_t n = sys_write(site, fd, p, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace rt::service

// Campaign-engine benchmark binary. Usually started by perfbench/run.py,
// which builds it and supplies the launch time, the pinned digest and the
// server path:
//
//   perfbench --workload table2_1t|defense_2t|service_mixed --seed N
//             --seconds S --trace 0|1 [--t0-ns NS] [--expect-digest HEX]
//             [--server PATH] [--commit SHA]
//
// Prints an environment stamp, human-readable progress, and as the LAST
// stdout line one JSON object {"correct","attempted","failed","metrics"}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Exits 1 when any correctness check failed, 2 on a usage error or an
// unsuitable build.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "alloc_count.hpp"
#include "bench.hpp"
#include "experiments/campaign_serde.hpp"
#include "stats/hash.hpp"

namespace perfbench {

namespace {
constexpr int kReferenceSteps = 1 << 19;
}  // namespace

void Report::fail(const std::string& why) {
  ++failed_;
  correct_ = false;
  std::fprintf(stderr, "FAILED: %s\n", why.c_str());
}

void Report::gate(bool ok, const std::string& why) {
  if (ok) return;
  correct_ = false;
  std::fprintf(stderr, "GATE FAILED: %s\n", why.c_str());
}

void Report::add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
  std::printf("  %-32s %.6g %s\n", name.c_str(), value, unit.c_str());
}

std::string Report::json() const {
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, m] = metrics_[i];
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(m.first) ? m.first : 0.0);
    if (i > 0) out += ", ";
    out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
           m.second + "\"}";
  }
  out += "}}";
  return out;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

void add_tail(Report& report, const std::string& name,
              const std::vector<double>& values, double q,
              const std::string& unit) {
  const double beyond = static_cast<double>(values.size()) * (1.0 - q);
  report.gate(beyond + 1e-9 >= 10.0,  // 1 - 0.9 is just below 0.1
              name + " has " + std::to_string(values.size()) +
                  " samples, fewer than ten beyond the tail");
  report.add(name, percentile(values, q), unit);
}

std::uint64_t grid_digest(
    const std::vector<rt::experiments::CampaignResult>& results) {
  std::uint64_t h = rt::stats::kFnv1aOffset;
  for (const auto& r : results) {
    h = rt::stats::fnv1a_str(h,
                             rt::experiments::serialize_campaign_result(r));
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t reference_job_ns() {
  static const std::vector<double> table = [] {
    std::vector<double> t(32768);
    for (std::size_t i = 0; i < t.size(); ++i) {
      t[i] = 1.0 + 1e-6 * static_cast<double>(i);
    }
    return t;
  }();
  const std::uint64_t start = now_ns();
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  double acc[4] = {0.0, 0.0, 0.0, 0.0};
  for (int i = 0; i < kReferenceSteps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc[i & 3] = acc[i & 3] * 0.5 + table[x & (table.size() - 1)];
  }
  const std::uint64_t ns = now_ns() - start;
  volatile double sink = acc[0] + acc[1] + acc[2] + acc[3];
  (void)sink;
  return ns;
}

double self_peak_rss_mb() {
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t rep_seed(std::uint64_t seed, std::uint64_t rep) {
  if (rep == 0) return seed;
  // Specs inside one grid take seed + i * 1000, so repetitions start far
  // apart; the hash keeps them unrelated to the workload seed's neighbours.
  return rt::stats::fnv1a_u64(rt::stats::fnv1a_u64(rt::stats::kFnv1aOffset,
                                                   seed),
                              rep) >>
         8;
}

void print_launch(const Options& opts) {
  std::printf("launch: %.4f s from process start to the first set-up\n",
              static_cast<double>(now_ns() - opts.t0_ns) / 1e9);
}

void fresh_dir(const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
}

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(' '));
        return v;
      }
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

void print_stamp(const Options& opts) {
  std::printf(
      "stamp: {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"nproc\": %ld, \"cpu\": \"%s\", \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"RT_TRACING\": %d, \"RT_AVX2\": %d, "
      "\"RT_NATIVE_ARCH\": %d, \"commit\": \"%s\"}\n",
      opts.workload.c_str(), static_cast<unsigned long long>(opts.seed),
      opts.trace ? 1 : 0, ::sysconf(_SC_NPROCESSORS_ONLN),
      json_escape(cpu_model()).c_str(), json_escape(__VERSION__).c_str(),
      PERFBENCH_BUILD_TYPE, PERFBENCH_RT_TRACING, PERFBENCH_RT_AVX2,
      PERFBENCH_RT_NATIVE_ARCH, json_escape(opts.commit).c_str());
}

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload table2_1t|defense_2t|service_mixed "
               "--seed N --seconds S --trace 0|1 [--t0-ns NS] "
               "[--expect-digest HEX] [--server PATH] [--commit SHA]\n",
               argv0);
  std::exit(2);
}

unsigned long long parse_number(const char* argv0, const char* text) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') usage(argv0);
  return v;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const std::uint64_t main_ns = now_ns();
  Options opts;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) usage(argv[0]);
    const char* flag = argv[i];
    const char* value = argv[++i];
    if (std::strcmp(flag, "--workload") == 0) {
      opts.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      opts.seed = parse_number(argv[0], value);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      opts.seconds = static_cast<double>(parse_number(argv[0], value));
    } else if (std::strcmp(flag, "--trace") == 0) {
      opts.trace = parse_number(argv[0], value) != 0;
    } else if (std::strcmp(flag, "--t0-ns") == 0) {
      opts.t0_ns = parse_number(argv[0], value);
    } else if (std::strcmp(flag, "--expect-digest") == 0) {
      opts.expect_digest = value;
    } else if (std::strcmp(flag, "--server") == 0) {
      opts.server = value;
    } else if (std::strcmp(flag, "--commit") == 0) {
      opts.commit = value;
    } else {
      usage(argv[0]);
    }
  }
  if (opts.t0_ns == 0 || opts.t0_ns > main_ns) opts.t0_ns = main_ns;
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0 || kSanitized ||
      PERFBENCH_SANITIZE) {
    std::fprintf(stderr,
                 "refusing to measure a %s%s build: timings and allocation "
                 "counts are only meaningful in a plain Release build\n",
                 PERFBENCH_BUILD_TYPE,
                 (kSanitized || PERFBENCH_SANITIZE) ? " sanitizer" : "");
    return 2;
  }
  print_stamp(opts);
  std::fflush(stdout);

  Report report;
  int rc = 2;
  if (opts.workload == "table2_1t" || opts.workload == "defense_2t") {
    rc = run_grid_workload(opts, report);
  } else if (opts.workload == "service_mixed") {
    rc = run_service_workload(opts, report);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", opts.workload.c_str());
    return 2;
  }
  if (rc != 0) return rc;
  std::printf("failed_frac: %.6f (%ld of %ld operations)\n",
              report.attempted() > 0
                  ? static_cast<double>(report.failed()) /
                        static_cast<double>(report.attempted())
                  : 0.0,
              report.failed(), report.attempted());
  std::printf("%s\n", report.json().c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}

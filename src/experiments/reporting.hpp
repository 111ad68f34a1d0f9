#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace rt::experiments {

/// Renders an aligned ASCII table (header + rows) — the textual stand-in
/// for the paper's tables and figure axes.
[[nodiscard]] std::string format_table(
    const std::vector<std::string>& header,
    const std::vector<std::vector<std::string>>& rows);

/// Fixed-precision double formatting.
[[nodiscard]] std::string fmt(double value, int precision = 1);

/// Percentage formatting: fmt_pct(0.526) == "52.6%".
[[nodiscard]] std::string fmt_pct(double fraction, int precision = 1);

/// Joins parts with a separator ("DS-1,DS-2" for the curriculum labels).
[[nodiscard]] std::string join(const std::vector<std::string>& parts,
                               const std::string& sep);

/// RFC-4180 cell quoting: cells containing commas, double quotes, CR or LF
/// are wrapped in double quotes with embedded quotes doubled; clean cells
/// pass through unchanged.
[[nodiscard]] std::string csv_escape(const std::string& cell);

/// Strict unsigned parse for CLI flags, env knobs and request fields: the
/// WHOLE string must be base-10 digits and the value must land in
/// [lo, hi]. Unlike atoi/strtoull this rejects empty strings, signs,
/// whitespace, trailing junk ("12x") and overflow instead of silently
/// returning 0 or wrapping (strtoull reads "-1" as 2^64 - 1).
[[nodiscard]] std::optional<std::uint64_t> parse_uint(const std::string& s,
                                                      std::uint64_t lo,
                                                      std::uint64_t hi);

/// Writes rows as CSV with RFC-4180 quoting applied per cell.
void write_csv(const std::string& path,
               const std::vector<std::string>& header,
               const std::vector<std::vector<std::string>>& rows);

/// One machine-readable performance record emitted by a bench driver's
/// `--json` flag. `runs_per_sec` is the driver's primary throughput metric
/// (campaign runs/sec for grid drivers, iterations or items per second for
/// microbenchmarks); `wall_ms` the measured wall time of one unit.
struct BenchJsonRecord {
  std::string bench;        ///< stable record name, e.g. "table2_campaign_grid"
  double runs_per_sec{0.0};
  double wall_ms{0.0};
  unsigned threads{1};
  std::uint64_t seed{0};
};

/// Serializes records as a JSON array of flat objects (stable field order:
/// bench, runs_per_sec, wall_ms, threads, seed). CI appends these files to
/// the repository's perf trajectory (BENCH_campaign.json).
[[nodiscard]] std::string bench_json(const std::vector<BenchJsonRecord>& records);

/// Writes `bench_json(records)` to `path`.
void write_bench_json(const std::string& path,
                      const std::vector<BenchJsonRecord>& records);

}  // namespace rt::experiments

#include "experiments/reporting.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <stdexcept>

namespace rt::experiments {

std::string fmt(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

std::string fmt_pct(double fraction, int precision) {
  return fmt(fraction * 100.0, precision) + "%";
}

std::string format_table(const std::vector<std::string>& header,
                         const std::vector<std::vector<std::string>>& rows) {
  std::vector<std::size_t> widths(header.size());
  for (std::size_t c = 0; c < header.size(); ++c) {
    widths[c] = header[c].size();
  }
  for (const auto& row : rows) {
    for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  const auto render_row = [&](const std::vector<std::string>& row) {
    std::string line = "|";
    for (std::size_t c = 0; c < widths.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string{};
      line += ' ' + cell + std::string(widths[c] - cell.size(), ' ') + " |";
    }
    return line + '\n';
  };
  std::string sep = "+";
  for (const std::size_t w : widths) sep += std::string(w + 2, '-') + '+';
  sep += '\n';

  std::string out = sep + render_row(header) + sep;
  for (const auto& row : rows) out += render_row(row);
  out += sep;
  return out;
}

std::string join(const std::vector<std::string>& parts,
                 const std::string& sep) {
  std::string out;
  for (const auto& part : parts) {
    if (!out.empty()) out += sep;
    out += part;
  }
  return out;
}

std::string csv_escape(const std::string& cell) {
  if (cell.find_first_of(",\"\r\n") == std::string::npos) return cell;
  std::string out = "\"";
  for (const char c : cell) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

std::optional<std::uint64_t> parse_uint(const std::string& s,
                                        std::uint64_t lo,
                                        std::uint64_t hi) {
  if (s.empty()) return std::nullopt;
  std::uint64_t v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return std::nullopt;
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (v > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
      return std::nullopt;  // overflow
    }
    v = v * 10 + digit;
  }
  if (v < lo || v > hi) return std::nullopt;
  return v;
}

void write_csv(const std::string& path,
               const std::vector<std::string>& header,
               const std::vector<std::vector<std::string>>& rows) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("write_csv: cannot open " + path);
  const auto write_row = [&](const std::vector<std::string>& row) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i > 0) os << ',';
      os << csv_escape(row[i]);
    }
    os << '\n';
  };
  write_row(header);
  for (const auto& row : rows) write_row(row);
}

std::string bench_json(const std::vector<BenchJsonRecord>& records) {
  // The bench names are plain identifiers (benchmark symbol names, CLI
  // driver tags); escape quotes/backslashes anyway so exotic names cannot
  // produce invalid JSON.
  const auto escape = [](const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out;
  };
  std::string out = "[\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const BenchJsonRecord& r = records[i];
    char numbers[160];
    std::snprintf(numbers, sizeof numbers,
                  "\"runs_per_sec\": %.3f, \"wall_ms\": %.3f, "
                  "\"threads\": %u, \"seed\": %llu",
                  r.runs_per_sec, r.wall_ms, r.threads,
                  static_cast<unsigned long long>(r.seed));
    out += "  {\"bench\": \"" + escape(r.bench) + "\", " + numbers + "}";
    if (i + 1 < records.size()) out += ',';
    out += '\n';
  }
  out += "]\n";
  return out;
}

void write_bench_json(const std::string& path,
                      const std::vector<BenchJsonRecord>& records) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("write_bench_json: cannot open " + path);
  os << bench_json(records);
}

}  // namespace rt::experiments

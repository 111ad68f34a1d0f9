#pragma once

#include <span>
#include <string>
#include <vector>

namespace rt::stats {

/// Fixed-width-bin histogram used for the textual renderings of Fig. 5
/// (log-count misdetection histograms and density plots).
class Histogram {
 public:
  /// Builds `bins` equal-width bins spanning [lo, hi). Values outside the
  /// range are clamped into the first/last bin.
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);
  void add_all(std::span<const double> xs);

  [[nodiscard]] std::size_t count(std::size_t bin) const {
    return counts_.at(bin);
  }
  [[nodiscard]] std::size_t total() const { return total_; }
  /// Center of the given bin.
  [[nodiscard]] double bin_center(std::size_t bin) const;
  /// Empirical density of the given bin (count / (total * width)).
  [[nodiscard]] double density(std::size_t bin) const;

  /// Multi-line ASCII rendering with one row per bin; `log_scale` draws bar
  /// lengths proportional to log10(1+count), matching the paper's log axes.
  [[nodiscard]] std::string render(std::size_t width = 50,
                                   bool log_scale = false) const;

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<std::size_t> counts_;
  std::size_t total_{0};
};

}  // namespace rt::stats

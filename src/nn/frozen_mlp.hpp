#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "nn/mlp.hpp"

namespace rt::nn {

/// Read-only inference copy of an `Mlp`, for one query at a time.
///
/// Built once from a trained network (the source is not referenced
/// afterwards, so rebuild the copy after any weight change). Each Dense
/// layer is stored transposed (in x out, output count padded to a multiple
/// of four with zero weights), an inference ReLU is fused into the Dense
/// before it, and Dropout — an identity at inference — is dropped.
///
/// `predict` runs on stack buffers: every four consecutive outputs of a
/// layer are the lanes of one 256-bit accumulator, which sums over
/// ascending inputs k and skips exact-zero weights as a lane select, then
/// adds the bias. Per element these are the same IEEE operations
/// `math::multiply_into` / `math::affine_into` perform for
/// `Mlp::predict_into`, so the result equals `Mlp::predict_into` on the
/// same column bit for bit.
/// Const and allocation-free, hence safe to call concurrently.
class FrozenMlp {
 public:
  /// Widest layer (input or output) the stack buffers hold.
  static constexpr std::size_t kMaxWidth = 256;

  FrozenMlp() = default;
  /// Throws std::invalid_argument when `net` holds a layer kind other than
  /// Dense/Relu/Dropout, starts with a Relu, has no Dense, or has a layer
  /// wider than kMaxWidth.
  explicit FrozenMlp(const Mlp& net);

  [[nodiscard]] std::size_t input_size() const;
  [[nodiscard]] std::size_t output_size() const;

  /// y = net.predict_into(x, ws) for one input column. Throws
  /// std::invalid_argument when x or y does not match input_size() /
  /// output_size().
  void predict(std::span<const double> x, std::span<double> y) const;

 private:
  struct Stage {
    std::size_t in{0};
    std::size_t out{0};
    std::size_t padded_out{0};  ///< out rounded up to a multiple of 4
    std::size_t offset{0};      ///< start of this stage in weights_
    std::size_t bias_offset{0};  ///< start of this stage in biases_
    bool relu{false};
  };

  std::vector<Stage> stages_;
  std::vector<double> weights_;  ///< per stage: in rows of padded_out
  std::vector<double> biases_;   ///< per stage: padded_out
};

}  // namespace rt::nn

#pragma once

#include <cstring>

namespace rt::math::detail {

/// Four doubles in one 256-bit register: one vmulpd/vaddpd under RT_AVX2,
/// two SSE2 ops otherwise. Plain multiply then add, never contracted to FMA
/// (see CMakeLists.txt), so every lane rounds exactly as scalar code. The
/// training tile of `multiply_into` and `nn::FrozenMlp` run on it. (Kept
/// out of matrix.hpp: without AVX, GCC warns about the vector-returning
/// `load4` in every file that sees it.)
using V4 = double __attribute__((vector_size(32)));

inline V4 load4(const double* p) {
  V4 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void store4(double* p, V4 v) { std::memcpy(p, &v, sizeof v); }

}  // namespace rt::math::detail

#include "perception/hungarian.hpp"

#include <algorithm>
#include <limits>

namespace rt::perception {

namespace {
constexpr double kPadCost = 1e6;
}

void solve_assignment_into(const math::Matrix& cost,
                           AssignmentScratch& scratch,
                           AssignmentResult& out) {
  const std::size_t rows = cost.rows();
  const std::size_t cols = cost.cols();
  AssignmentResult& result = out;
  result.assignment.assign(rows, -1);
  result.total_cost = 0.0;
  if (rows == 0 || cols == 0) return;

  // Pad to square; the classic O(n^3) potentials formulation below assumes
  // rows <= cols, which padding guarantees.
  const std::size_t n = std::max(rows, cols);
  auto at = [&](std::size_t r, std::size_t c) -> double {
    if (r < rows && c < cols) return cost(r, c);
    return kPadCost;
  };

  // Potentials-based Hungarian algorithm (e-maxx formulation), 1-indexed.
  // `assign` reuses the scratch vectors' capacity across calls.
  auto& u = scratch.u;
  auto& v = scratch.v;
  auto& p = scratch.p;
  auto& way = scratch.way;
  auto& minv = scratch.minv;
  auto& used = scratch.used;
  u.assign(n + 1, 0.0);
  v.assign(n + 1, 0.0);
  p.assign(n + 1, 0);  // p[col] = row matched to col
  way.assign(n + 1, 0);
  for (std::size_t i = 1; i <= n; ++i) {
    p[0] = i;
    std::size_t j0 = 0;
    minv.assign(n + 1, std::numeric_limits<double>::infinity());
    used.assign(n + 1, false);
    do {
      used[j0] = true;
      const std::size_t i0 = p[j0];
      double delta = std::numeric_limits<double>::infinity();
      std::size_t j1 = 0;
      for (std::size_t j = 1; j <= n; ++j) {
        if (used[j]) continue;
        const double cur = at(i0 - 1, j - 1) - u[i0] - v[j];
        if (cur < minv[j]) {
          minv[j] = cur;
          way[j] = j0;
        }
        if (minv[j] < delta) {
          delta = minv[j];
          j1 = j;
        }
      }
      for (std::size_t j = 0; j <= n; ++j) {
        if (used[j]) {
          u[p[j]] += delta;
          v[j] -= delta;
        } else {
          minv[j] -= delta;
        }
      }
      j0 = j1;
    } while (p[j0] != 0);
    do {
      const std::size_t j1 = way[j0];
      p[j0] = p[j1];
      j0 = j1;
    } while (j0 != 0);
  }

  for (std::size_t j = 1; j <= n; ++j) {
    const std::size_t r = p[j];
    if (r == 0) continue;
    if (r - 1 < rows && j - 1 < cols) {
      result.assignment[r - 1] = static_cast<int>(j - 1);
      result.total_cost += cost(r - 1, j - 1);
    }
  }
}

}  // namespace rt::perception

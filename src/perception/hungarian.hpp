#pragma once

#include <cstddef>
#include <vector>

#include "math/matrix.hpp"

namespace rt::perception {

/// Result of an assignment: `assignment[r]` is the column matched to row r,
/// or -1 if row r is unassigned (possible when rows > cols).
struct AssignmentResult {
  std::vector<int> assignment;
  double total_cost{0.0};
};

/// Kuhn-Munkres (Hungarian) minimum-cost assignment ("M" in Fig. 1).
///
/// The tracker calls this with cost(i, j) = 1 - IoU(detection_i, track_j);
/// the trajectory hijacker reasons about the same cost when keeping its
/// perturbed detection associated with the victim's tracker (Eq. 4's
/// "M <= lambda" constraint).
///
/// Reusable working vectors of `solve_assignment_into` (potentials,
/// matching, augmenting-path bookkeeping). Callers keep one per tracker so
/// repeated solves allocate nothing.
struct AssignmentScratch {
  std::vector<double> u, v, minv;
  std::vector<std::size_t> p, way;
  std::vector<char> used;
};

/// Solves `cost` into `out`. Rectangular matrices are handled by padding
/// with a large cost; padded matches are reported as unassigned. O(n^3).
/// `out.assignment` reuses its capacity, so a caller holding both scratch
/// and result performs zero allocations per solve (the MOT trackers on the
/// campaign hot path do).
void solve_assignment_into(const math::Matrix& cost,
                           AssignmentScratch& scratch, AssignmentResult& out);

}  // namespace rt::perception

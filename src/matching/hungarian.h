// Minimum-cost assignment (Hungarian algorithm / Kuhn-Munkres).
//
// Used by the greedy GED upper bound and by the star-based competitor
// filters: each needs the cheapest one-to-one assignment between two sets
// of items under an arbitrary cost matrix.

#ifndef SIMJ_MATCHING_HUNGARIAN_H_
#define SIMJ_MATCHING_HUNGARIAN_H_

#include <span>
#include <vector>

namespace simj::matching {

// Solves min-cost assignment on a rows x cols cost matrix stored row-major
// in `cost` (entry (i, j) at cost[i * cols + j]; rows assigned to distinct
// columns). Requires rows <= cols and cost.size() == rows * cols; pad the
// matrix with dummy columns beforehand if needed. Returns the optimal total
// cost and, if `assignment` is non-null, fills assignment[row] = column.
//
// Costs may be any finite doubles (negative allowed). O(rows^2 cols).
double MinCostAssignment(std::span<const double> cost, int rows, int cols,
                         std::vector<int>* assignment = nullptr);

}  // namespace simj::matching

#endif  // SIMJ_MATCHING_HUNGARIAN_H_

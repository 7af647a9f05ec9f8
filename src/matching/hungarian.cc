#include "matching/hungarian.h"

#include <cstddef>
#include <limits>

#include "util/check.h"

namespace simj::matching {

double MinCostAssignment(std::span<const double> cost, int rows, int cols,
                         std::vector<int>* assignment) {
  const int n = rows;
  const int m = cols;
  if (n == 0) {
    if (assignment != nullptr) assignment->clear();
    return 0.0;
  }
  SIMJ_CHECK_LE(n, m);
  SIMJ_CHECK_EQ(cost.size(), static_cast<size_t>(n) * static_cast<size_t>(m));
  const auto at = [&](int i, int j) {
    return cost[static_cast<size_t>(i) * static_cast<size_t>(m) +
                static_cast<size_t>(j)];
  };

  // Classic O(n^2 m) potentials formulation (1-indexed internals).
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> u(n + 1, 0.0), v(m + 1, 0.0);
  std::vector<int> p(m + 1, 0);      // p[j] = row matched to column j
  std::vector<int> way(m + 1, 0);
  std::vector<double> minv(m + 1);
  std::vector<char> used(m + 1);

  for (int i = 1; i <= n; ++i) {
    p[0] = i;
    int j0 = 0;
    minv.assign(m + 1, kInf);
    used.assign(m + 1, 0);
    do {
      used[j0] = 1;
      int i0 = p[j0];
      double delta = kInf;
      int j1 = 0;
      for (int j = 1; j <= m; ++j) {
        if (used[j]) continue;
        double cur = at(i0 - 1, j - 1) - u[i0] - v[j];
        if (cur < minv[j]) {
          minv[j] = cur;
          way[j] = j0;
        }
        if (minv[j] < delta) {
          delta = minv[j];
          j1 = j;
        }
      }
      for (int j = 0; j <= m; ++j) {
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
      int j1 = way[j0];
      p[j0] = p[j1];
      j0 = j1;
    } while (j0 != 0);
  }

  if (assignment != nullptr) {
    assignment->assign(n, -1);
    for (int j = 1; j <= m; ++j) {
      if (p[j] > 0) (*assignment)[p[j] - 1] = j - 1;
    }
  }
  double total = 0.0;
  for (int j = 1; j <= m; ++j) {
    if (p[j] > 0) total += at(p[j] - 1, j - 1);
  }
  return total;
}

}  // namespace simj::matching

#include <algorithm>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "matching/bipartite.h"
#include "matching/hungarian.h"
#include "util/rng.h"

namespace simj::matching {
namespace {

// Brute-force maximum bipartite matching by trying all subsets of edges is
// exponential; instead recurse over left vertices.
int BruteForceMatching(const std::vector<std::vector<int>>& adj, int left,
                       std::vector<bool>& used) {
  if (left == static_cast<int>(adj.size())) return 0;
  int best = BruteForceMatching(adj, left + 1, used);  // leave `left` single
  for (int r : adj[left]) {
    if (used[r]) continue;
    used[r] = true;
    best = std::max(best, 1 + BruteForceMatching(adj, left + 1, used));
    used[r] = false;
  }
  return best;
}

TEST(BipartiteTest, EmptyGraph) {
  BipartiteGraph g(0, 0);
  EXPECT_EQ(g.MaxMatching(), 0);
}

TEST(BipartiteTest, PerfectMatching) {
  BipartiteGraph g(3, 3);
  g.AddEdge(0, 0);
  g.AddEdge(1, 1);
  g.AddEdge(2, 2);
  EXPECT_EQ(g.MaxMatching(), 3);
}

TEST(BipartiteTest, AugmentingPathNeeded) {
  // 0-{0}, 1-{0,1}: greedy could match 1 to 0 and strand 0.
  BipartiteGraph g(2, 2);
  g.AddEdge(0, 0);
  g.AddEdge(1, 0);
  g.AddEdge(1, 1);
  EXPECT_EQ(g.MaxMatching(), 2);
}

TEST(BipartiteTest, MatchingVectorIsConsistent) {
  BipartiteGraph g(3, 4);
  g.AddEdge(0, 1);
  g.AddEdge(1, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  std::vector<int> match;
  int size = g.MaxMatching(&match);
  EXPECT_EQ(size, 3);
  std::vector<bool> seen(4, false);
  int matched = 0;
  for (int l = 0; l < 3; ++l) {
    if (match[l] >= 0) {
      EXPECT_FALSE(seen[match[l]]);
      seen[match[l]] = true;
      ++matched;
    }
  }
  EXPECT_EQ(matched, size);
}

class BipartiteRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(BipartiteRandomTest, MatchesBruteForce) {
  Rng rng(1000 + GetParam());
  int n = static_cast<int>(rng.Uniform(1, 7));
  int m = static_cast<int>(rng.Uniform(1, 7));
  BipartiteGraph g(n, m);
  std::vector<std::vector<int>> adj(n);
  for (int l = 0; l < n; ++l) {
    for (int r = 0; r < m; ++r) {
      if (rng.Bernoulli(0.4)) {
        g.AddEdge(l, r);
        adj[l].push_back(r);
      }
    }
  }
  std::vector<bool> used(m, false);
  EXPECT_EQ(g.MaxMatching(), BruteForceMatching(adj, 0, used));
}

INSTANTIATE_TEST_SUITE_P(Sweep, BipartiteRandomTest,
                         ::testing::Range(0, 40));

// One graph reused through Reset() across differently sized inputs answers
// exactly like a fresh graph per input.
TEST(BipartiteTest, ResetReusesTheGraph) {
  Rng rng(2000);
  BipartiteGraph reused;
  for (int round = 0; round < 60; ++round) {
    int n = static_cast<int>(rng.Uniform(0, 7));
    int m = static_cast<int>(rng.Uniform(0, 7));
    reused.Reset(n, m);
    BipartiteGraph fresh(n, m);
    for (int l = 0; l < n; ++l) {
      for (int r = 0; r < m; ++r) {
        if (rng.Bernoulli(0.4)) {
          reused.AddEdge(l, r);
          fresh.AddEdge(l, r);
        }
      }
    }
    EXPECT_EQ(reused.num_left(), n);
    EXPECT_EQ(reused.num_right(), m);
    EXPECT_EQ(reused.MaxMatching(), fresh.MaxMatching()) << "round " << round;
  }
}

double BruteForceAssignment(const std::vector<std::vector<double>>& cost) {
  int n = static_cast<int>(cost.size());
  int m = static_cast<int>(cost[0].size());
  std::vector<int> columns(m);
  std::iota(columns.begin(), columns.end(), 0);
  double best = 1e100;
  // Try all permutations of columns, use the first n.
  std::sort(columns.begin(), columns.end());
  do {
    double total = 0.0;
    for (int i = 0; i < n; ++i) total += cost[i][columns[i]];
    best = std::min(best, total);
  } while (std::next_permutation(columns.begin(), columns.end()));
  return best;
}

// MinCostAssignment on a matrix given as rows.
double SolveRows(const std::vector<std::vector<double>>& rows,
                 std::vector<int>* assignment) {
  std::vector<double> flat;
  for (const auto& row : rows) flat.insert(flat.end(), row.begin(), row.end());
  return MinCostAssignment(flat, static_cast<int>(rows.size()),
                           static_cast<int>(rows[0].size()), assignment);
}

TEST(HungarianTest, EmptyMatrix) {
  std::vector<int> assignment;
  EXPECT_EQ(MinCostAssignment({}, 0, 0, &assignment), 0.0);
  EXPECT_TRUE(assignment.empty());
}

TEST(HungarianTest, IdentityIsOptimal) {
  std::vector<std::vector<double>> cost = {
      {0, 5, 5}, {5, 0, 5}, {5, 5, 0}};
  std::vector<int> assignment;
  EXPECT_DOUBLE_EQ(SolveRows(cost, &assignment), 0.0);
  EXPECT_EQ(assignment, (std::vector<int>{0, 1, 2}));
}

TEST(HungarianTest, RectangularMatrix) {
  std::vector<std::vector<double>> cost = {{4, 1, 3}, {2, 0, 5}};
  std::vector<int> assignment;
  double total = SolveRows(cost, &assignment);
  EXPECT_DOUBLE_EQ(total, 3.0);  // row0 -> col1 (1), row1 -> col0 (2)
  EXPECT_EQ(assignment[0], 1);
  EXPECT_EQ(assignment[1], 0);
}

class HungarianRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(HungarianRandomTest, MatchesBruteForce) {
  Rng rng(2000 + GetParam());
  int n = static_cast<int>(rng.Uniform(1, 5));
  int m = static_cast<int>(rng.Uniform(n, 6));
  std::vector<std::vector<double>> cost(n, std::vector<double>(m));
  for (auto& row : cost) {
    for (double& c : row) c = rng.Uniform(0, 20);
  }
  std::vector<int> assignment;
  double total = SolveRows(cost, &assignment);
  EXPECT_NEAR(total, BruteForceAssignment(cost), 1e-9);
  // Assignment must be a valid injective map achieving the reported cost.
  std::vector<bool> used(m, false);
  double check = 0.0;
  for (int i = 0; i < n; ++i) {
    ASSERT_GE(assignment[i], 0);
    ASSERT_LT(assignment[i], m);
    EXPECT_FALSE(used[assignment[i]]);
    used[assignment[i]] = true;
    check += cost[i][assignment[i]];
  }
  EXPECT_NEAR(check, total, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sweep, HungarianRandomTest,
                         ::testing::Range(0, 40));

}  // namespace
}  // namespace simj::matching

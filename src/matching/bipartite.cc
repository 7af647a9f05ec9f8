#include "matching/bipartite.h"

#include <algorithm>
#include <limits>

#include "util/check.h"

namespace simj::matching {

namespace {
constexpr int kInfinity = std::numeric_limits<int>::max();
}  // namespace

BipartiteGraph::BipartiteGraph(int num_left, int num_right) {
  Reset(num_left, num_right);
}

void BipartiteGraph::Reset(int num_left, int num_right) {
  SIMJ_CHECK_GE(num_left, 0);
  SIMJ_CHECK_GE(num_right, 0);
  if (adj_.size() < static_cast<size_t>(num_left)) {
    adj_.resize(static_cast<size_t>(num_left));
  }
  for (int l = 0; l < num_left; ++l) adj_[l].clear();
  num_left_ = num_left;
  num_right_ = num_right;
}

void BipartiteGraph::AddEdge(int left, int right) {
  SIMJ_CHECK(left >= 0 && left < num_left_);
  SIMJ_CHECK(right >= 0 && right < num_right_);
  adj_[left].push_back(right);
}

bool BipartiteGraph::BuildLayers() {
  queue_.clear();
  for (int l = 0; l < num_left_; ++l) {
    if (match_left_[l] == -1) {
      dist_[l] = 0;
      queue_.push_back(l);
    } else {
      dist_[l] = kInfinity;
    }
  }
  bool found_free = false;
  for (size_t head = 0; head < queue_.size(); ++head) {
    const int l = queue_[head];
    for (int r : adj_[l]) {
      const int next = match_right_[r];
      if (next == -1) {
        found_free = true;
      } else if (dist_[next] == kInfinity) {
        dist_[next] = dist_[l] + 1;
        queue_.push_back(next);
      }
    }
  }
  return found_free;
}

bool BipartiteGraph::Augment(int l) {
  for (int r : adj_[l]) {
    const int next = match_right_[r];
    if (next == -1 || (dist_[next] == dist_[l] + 1 && Augment(next))) {
      match_left_[l] = r;
      match_right_[r] = l;
      return true;
    }
  }
  dist_[l] = kInfinity;
  return false;
}

int BipartiteGraph::MaxMatching() {
  match_left_.assign(static_cast<size_t>(num_left_), -1);
  match_right_.assign(static_cast<size_t>(num_right_), -1);
  dist_.assign(static_cast<size_t>(num_left_), 0);
  // Greedy start: match each left vertex to its first free neighbor. On the
  // small, sparse label graphs of the CSS filter this is often already
  // maximum, and it saves Hopcroft-Karp phases otherwise.
  int matching = 0;
  int linked_left = 0;  // left vertices with at least one edge
  for (int l = 0; l < num_left_; ++l) {
    if (!adj_[l].empty()) ++linked_left;
    for (int r : adj_[l]) {
      if (match_right_[r] == -1) {
        match_left_[l] = r;
        match_right_[r] = l;
        ++matching;
        break;
      }
    }
  }
  // Hopcroft-Karp: repeatedly find a maximal set of shortest augmenting
  // paths via BFS layering + DFS augmentation. No augmenting path exists
  // once every linked left vertex (or every right vertex) is matched.
  const int most = std::min(linked_left, num_right_);
  while (matching < most && BuildLayers()) {
    for (int l = 0; l < num_left_; ++l) {
      if (match_left_[l] == -1 && Augment(l)) ++matching;
    }
  }
  return matching;
}

int BipartiteGraph::MaxMatching(std::vector<int>* match_of_left) {
  const int matching = MaxMatching();
  match_of_left->assign(match_left_.begin(), match_left_.end());
  return matching;
}

}  // namespace simj::matching

// Maximum-cardinality bipartite matching (Hopcroft-Karp).
//
// Used to evaluate lambda_V(q, g) for uncertain graphs: the size of a
// maximum matching in the vertex-label bipartite graph (paper Def. 10),
// which upper-bounds the number of common vertex labels across all possible
// worlds.

#ifndef SIMJ_MATCHING_BIPARTITE_H_
#define SIMJ_MATCHING_BIPARTITE_H_

#include <vector>

namespace simj::matching {

// Bipartite graph with `num_left` and `num_right` vertices; edges are added
// explicitly. MaxMatching() returns the size of a maximum matching.
//
// The graph keeps its adjacency and matching buffers across Reset(), so a
// graph reused for many small matchings (one per thread) allocates nothing
// once its buffers have grown to the largest input. Not thread-safe: even
// MaxMatching() writes the scratch buffers.
class BipartiteGraph {
 public:
  BipartiteGraph() = default;
  BipartiteGraph(int num_left, int num_right);

  // Removes every edge and resizes to `num_left` x `num_right`, keeping
  // the allocated capacity.
  void Reset(int num_left, int num_right);

  void AddEdge(int left, int right);

  int num_left() const { return num_left_; }
  int num_right() const { return num_right_; }

  // Size of a maximum-cardinality matching (Hopcroft-Karp, O(E sqrt(V))).
  int MaxMatching();

  // As MaxMatching(), and fills match_of_left[l] with the matched right
  // vertex of l or -1.
  int MaxMatching(std::vector<int>* match_of_left);

 private:
  // BFS layering from the free left vertices; true when some shortest
  // augmenting path reaches a free right vertex.
  bool BuildLayers();
  // DFS along the layers from left vertex l; true when it augmented.
  bool Augment(int l);

  // adj_[l] for l < num_left_; entries past num_left_ are spare capacity.
  std::vector<std::vector<int>> adj_;
  int num_left_ = 0;
  int num_right_ = 0;
  // Hopcroft-Karp state, reused across calls.
  std::vector<int> match_left_;
  std::vector<int> match_right_;
  std::vector<int> dist_;
  std::vector<int> queue_;
};

}  // namespace simj::matching

#endif  // SIMJ_MATCHING_BIPARTITE_H_

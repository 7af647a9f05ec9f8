// IndexedSimJoin is SimJoin: SimJoin's structural filter starts with the
// vertex/edge-count bound of [29] that a size index over D would apply.
// The name stays for existing callers; new code calls SimJoin.

#ifndef SIMJ_CORE_INDEX_H_
#define SIMJ_CORE_INDEX_H_

#include <vector>

#include "core/join.h"
#include "graph/label.h"
#include "graph/labeled_graph.h"
#include "graph/uncertain_graph.h"

namespace simj::core {

[[nodiscard]] inline JoinResult IndexedSimJoin(
    const std::vector<graph::LabeledGraph>& d,
    const std::vector<graph::UncertainGraph>& u, const SimJParams& params,
    const graph::LabelDictionary& dict) {
  return SimJoin(d, u, params, dict);
}

}  // namespace simj::core

#endif  // SIMJ_CORE_INDEX_H_

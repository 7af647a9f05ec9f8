#include "graph/uncertain_graph.h"

#include <cmath>
#include <limits>
#include <sstream>

namespace simj::graph {

namespace {
constexpr double kProbEpsilon = 1e-9;
}  // namespace

int UncertainGraph::AddVertex(std::vector<LabelAlternative> alternatives) {
  SIMJ_CHECK(!alternatives.empty());
  double sum = 0.0;
  for (const LabelAlternative& alt : alternatives) {
    SIMJ_CHECK_GT(alt.prob, 0.0);
    SIMJ_CHECK_LE(alt.prob, 1.0 + kProbEpsilon);
    sum += alt.prob;
  }
  SIMJ_CHECK_LE(sum, 1.0 + kProbEpsilon);
  alternatives_.push_back(std::move(alternatives));
  MutableStructure().AddVertex(kInvalidLabel);
  return num_vertices() - 1;
}

void UncertainGraph::AddEdge(int src, int dst, LabelId label) {
  MutableStructure().AddEdge(src, dst, label);
}

const LabeledGraph& UncertainGraph::EmptyStructure() {
  static const LabeledGraph empty;
  return empty;
}

LabeledGraph& UncertainGraph::MutableStructure() {
  if (structure_ == nullptr) {
    structure_ = std::make_shared<LabeledGraph>();
  } else if (structure_.use_count() > 1) {
    structure_ = std::make_shared<LabeledGraph>(*structure_);
  }
  return *structure_;
}

bool UncertainGraph::IsVertexCertain(int v) const {
  const auto& alts = alternatives(v);
  return alts.size() == 1 && alts[0].prob >= 1.0 - kProbEpsilon;
}

int64_t UncertainGraph::NumPossibleWorlds() const {
  int64_t total = 1;
  for (const auto& alts : alternatives_) {
    int64_t n = static_cast<int64_t>(alts.size());
    if (total > std::numeric_limits<int64_t>::max() / n) {
      return std::numeric_limits<int64_t>::max();
    }
    total *= n;
  }
  return total;
}

double UncertainGraph::TotalMass() const {
  double mass = 1.0;
  for (const auto& alts : alternatives_) {
    double sum = 0.0;
    for (const LabelAlternative& alt : alts) sum += alt.prob;
    mass *= sum;
  }
  return mass;
}

LabeledGraph UncertainGraph::Materialize(const std::vector<int>& choice) const {
  SIMJ_CHECK_EQ(static_cast<int>(choice.size()), num_vertices());
  LabeledGraph world;
  for (int v = 0; v < num_vertices(); ++v) {
    const auto& alts = alternatives_[v];
    SIMJ_CHECK(choice[v] >= 0 && choice[v] < static_cast<int>(alts.size()));
    world.AddVertex(alts[choice[v]].label);
  }
  for (const Edge& e : edges()) world.AddEdge(e.src, e.dst, e.label);
  return world;
}

double UncertainGraph::WorldProbability(const std::vector<int>& choice) const {
  SIMJ_CHECK_EQ(static_cast<int>(choice.size()), num_vertices());
  double prob = 1.0;
  for (int v = 0; v < num_vertices(); ++v) {
    prob *= alternatives_[v][choice[v]].prob;
  }
  return prob;
}

UncertainGraph UncertainGraph::RestrictVertex(
    int v, const std::vector<int>& keep) const {
  SIMJ_CHECK(v >= 0 && v < num_vertices());
  SIMJ_CHECK(!keep.empty());
  UncertainGraph restricted;
  restricted.alternatives_ = alternatives_;
  restricted.structure_ = structure_;
  std::vector<LabelAlternative>& subset = restricted.alternatives_[v];
  subset.clear();
  for (int idx : keep) {
    SIMJ_CHECK(idx >= 0 && idx < static_cast<int>(alternatives_[v].size()));
    subset.push_back(alternatives_[v][idx]);
  }
  return restricted;
}

Status UncertainGraph::Validate(const LabelDictionary& dict) const {
  Status topology = structure().ValidateTopology(dict);
  if (!topology.ok()) return topology;
  if (static_cast<int>(alternatives_.size()) != structure().num_vertices()) {
    return InternalError("alternative-set count disagrees with vertex count");
  }
  for (int v = 0; v < num_vertices(); ++v) {
    const std::vector<LabelAlternative>& alts = alternatives_[v];
    std::string where = "vertex ";
    where += std::to_string(v);
    if (alts.empty()) {
      return InvalidArgumentError(where + " has an empty alternative set");
    }
    double mass = 0.0;
    for (size_t a = 0; a < alts.size(); ++a) {
      if (alts[a].label < 0 ||
          alts[a].label >= static_cast<LabelId>(dict.size())) {
        return InvalidArgumentError(where +
                                    " has an alternative with an invalid "
                                    "label id");
      }
      if (!(alts[a].prob > 0.0) || alts[a].prob > 1.0 + kProbEpsilon) {
        std::string message = where;
        message += " alternative ";
        message += std::to_string(a);
        message += " has probability ";
        message += std::to_string(alts[a].prob);
        message += " outside (0, 1]";
        return InvalidArgumentError(std::move(message));
      }
      for (size_t b = 0; b < a; ++b) {
        if (alts[b].label == alts[a].label) {
          return InvalidArgumentError(
              where + " repeats a label in its alternative set (alternatives "
                      "must be mutually exclusive)");
        }
      }
      mass += alts[a].prob;
    }
    if (mass > 1.0 + kProbEpsilon) {
      std::string message = where;
      message += " has probability mass ";
      message += std::to_string(mass);
      message += " > 1";
      return InvalidArgumentError(std::move(message));
    }
  }
  return Status::Ok();
}

UncertainGraph UncertainGraph::FromCertain(const LabeledGraph& g) {
  UncertainGraph out;
  for (int v = 0; v < g.num_vertices(); ++v) {
    out.AddCertainVertex(g.vertex_label(v));
  }
  for (const Edge& e : g.edges()) out.AddEdge(e.src, e.dst, e.label);
  return out;
}

UncertainGraph UncertainGraph::FromParts(
    std::vector<std::vector<LabelAlternative>> alternatives,
    LabeledGraph structure) {
  UncertainGraph g;
  g.alternatives_ = std::move(alternatives);
  g.structure_ = std::make_shared<LabeledGraph>(std::move(structure));
  return g;
}

std::string UncertainGraph::DebugString(const LabelDictionary& dict) const {
  std::ostringstream out;
  out << "uncertain_graph(|V|=" << num_vertices() << ", |E|=" << num_edges()
      << ")\n";
  for (int v = 0; v < num_vertices(); ++v) {
    out << "  v" << v << ": {";
    for (size_t i = 0; i < alternatives_[v].size(); ++i) {
      if (i > 0) out << ", ";
      out << dict.Name(alternatives_[v][i].label) << ":"
          << alternatives_[v][i].prob;
    }
    out << "}\n";
  }
  for (const Edge& e : edges()) {
    out << "  v" << e.src << " -[" << dict.Name(e.label) << "]-> v" << e.dst
        << "\n";
  }
  return out.str();
}

PossibleWorldIterator::PossibleWorldIterator(const UncertainGraph& g)
    : g_(g), choice_(g.num_vertices(), 0), done_(false) {}

void PossibleWorldIterator::Next() {
  SIMJ_CHECK(!done_);
  for (int v = 0; v < g_.num_vertices(); ++v) {
    if (choice_[v] + 1 < static_cast<int>(g_.alternatives(v).size())) {
      ++choice_[v];
      return;
    }
    choice_[v] = 0;
  }
  done_ = true;
}

double PossibleWorldIterator::probability() const {
  return g_.WorldProbability(choice_);
}

UncertainGraph LiftUncertainEdges(
    const std::vector<std::vector<LabelAlternative>>& vertex_alternatives,
    const std::vector<Edge>& certain_edges,
    const std::vector<UncertainEdge>& uncertain_edges, LabelId link_label) {
  UncertainGraph out;
  for (const auto& alts : vertex_alternatives) out.AddVertex(alts);
  for (const Edge& e : certain_edges) out.AddEdge(e.src, e.dst, e.label);
  for (const UncertainEdge& ue : uncertain_edges) {
    int w = out.AddVertex(ue.alternatives);
    out.AddEdge(ue.src, w, link_label);
    out.AddEdge(w, ue.dst, link_label);
  }
  return out;
}

}  // namespace simj::graph

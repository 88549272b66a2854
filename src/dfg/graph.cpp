#include "dfg/graph.hpp"

#include <algorithm>
#include <unordered_set>

#include "common/error.hpp"
#include "dfg/analysis.hpp"

namespace tauhls::dfg {

namespace {
void sortUnique(std::vector<NodeId>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}
}  // namespace

NodeId Dfg::addInput(const std::string& name) {
  Node n;
  n.kind = OpKind::Input;
  n.name = name.empty() ? freshName("in") : name;
  return addNode(std::move(n));
}

NodeId Dfg::addOp(OpKind kind, std::span<const NodeId> operands,
                  const std::string& name) {
  TAUHLS_CHECK(kind != OpKind::Input, "use addInput for primary inputs");
  TAUHLS_CHECK(static_cast<int>(operands.size()) == opKindArity(kind),
               std::string("operand count mismatch for ") + opKindName(kind));
  Node n;
  n.kind = kind;
  n.name = name.empty() ? freshName(opKindName(kind)) : name;
  n.operands.assign(operands.begin(), operands.end());
  for (NodeId o : n.operands) {
    TAUHLS_CHECK(o < nodes_.size(), "operand refers to a nonexistent node");
  }
  return addNode(std::move(n));
}

NodeId Dfg::addOp(OpKind kind, std::initializer_list<NodeId> operands,
                  const std::string& name) {
  return addOp(kind, std::span<const NodeId>(operands.begin(), operands.size()),
               name);
}

NodeId Dfg::addNode(Node n) {
  TAUHLS_CHECK(findByName(n.name) == kNoNode,
               "duplicate node name: " + n.name);
  nodes_.push_back(std::move(n));
  return static_cast<NodeId>(nodes_.size() - 1);
}

void Dfg::markOutput(NodeId id) {
  TAUHLS_CHECK(id < nodes_.size(), "output id out of range");
  if (std::find(outputs_.begin(), outputs_.end(), id) == outputs_.end()) {
    outputs_.push_back(id);
  }
}

void Dfg::addSequencingEdge(std::vector<ScheduleArc>& edges, NodeId from,
                            NodeId to, const char* what) {
  TAUHLS_CHECK(from < nodes_.size() && to < nodes_.size(),
               std::string(what) + " endpoint out of range");
  TAUHLS_CHECK(from != to, std::string(what) + " must not be a self-loop");
  TAUHLS_CHECK(isOp(from) && isOp(to),
               std::string(what) + "s connect operations, not inputs");
  ScheduleArc arc{from, to};
  if (std::find(edges.begin(), edges.end(), arc) != edges.end()) {
    return;  // idempotent
  }
  // The graph is acyclic before the edge goes in, so the edge closes a
  // cycle exactly when `to` already reaches `from`.
  if (reaches(*this, to, from)) {
    TAUHLS_FAIL(std::string(what) + " " + nodes_[from].name + " -> " +
                nodes_[to].name + " would create a cycle");
  }
  edges.push_back(arc);
}

void Dfg::addScheduleArc(NodeId from, NodeId to) {
  addSequencingEdge(scheduleArcs_, from, to, "schedule arc");
}

void Dfg::addStateEdge(NodeId from, NodeId to) {
  addSequencingEdge(stateEdges_, from, to, "state edge");
}

const Node& Dfg::node(NodeId id) const {
  TAUHLS_CHECK(id < nodes_.size(), "node id out of range");
  return nodes_[id];
}

std::vector<NodeId> Dfg::opIds() const {
  std::vector<NodeId> out;
  for (NodeId i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].kind != OpKind::Input) out.push_back(i);
  }
  return out;
}

std::vector<NodeId> Dfg::inputIds() const {
  std::vector<NodeId> out;
  for (NodeId i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].kind == OpKind::Input) out.push_back(i);
  }
  return out;
}

std::vector<NodeId> Dfg::opsOfClass(ResourceClass cls) const {
  std::vector<NodeId> out;
  for (NodeId i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].kind != OpKind::Input && resourceClassOf(nodes_[i].kind) == cls) {
      out.push_back(i);
    }
  }
  return out;
}

std::size_t Dfg::numOps() const {
  std::size_t n = 0;
  for (const Node& node : nodes_) {
    if (node.kind != OpKind::Input) ++n;
  }
  return n;
}

std::vector<NodeId> Dfg::dataSuccessors(NodeId id) const {
  TAUHLS_CHECK(id < nodes_.size(), "node id out of range");
  std::vector<NodeId> out;
  for (NodeId i = 0; i < nodes_.size(); ++i) {
    for (NodeId o : nodes_[i].operands) {
      if (o == id) {
        out.push_back(i);
        break;
      }
    }
  }
  return out;
}

std::vector<NodeId> Dfg::dataPredecessors(NodeId id) const {
  std::vector<NodeId> out = node(id).operands;
  sortUnique(out);
  return out;
}

std::vector<NodeId> Dfg::dependencePredecessors(NodeId id) const {
  std::vector<NodeId> out = node(id).operands;
  for (const ScheduleArc& a : stateEdges_) {
    if (a.to == id) out.push_back(a.from);
  }
  sortUnique(out);
  return out;
}

std::vector<NodeId> Dfg::combinedPredecessors(NodeId id) const {
  std::vector<NodeId> out = node(id).operands;
  for (const ScheduleArc& a : scheduleArcs_) {
    if (a.to == id) out.push_back(a.from);
  }
  for (const ScheduleArc& a : stateEdges_) {
    if (a.to == id) out.push_back(a.from);
  }
  sortUnique(out);
  return out;
}

std::vector<NodeId> Dfg::combinedSuccessors(NodeId id) const {
  std::vector<NodeId> out = dataSuccessors(id);
  for (const ScheduleArc& a : scheduleArcs_) {
    if (a.from == id) out.push_back(a.to);
  }
  for (const ScheduleArc& a : stateEdges_) {
    if (a.from == id) out.push_back(a.to);
  }
  sortUnique(out);
  return out;
}

NodeId Dfg::findByName(const std::string& name) const {
  for (NodeId i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].name == name) return i;
  }
  return kNoNode;
}

bool Dfg::isAcyclic() const {
  return topologicalOrder(*this).size() == nodes_.size();
}

void Dfg::validate() const {
  std::unordered_set<std::string> names;
  for (NodeId i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    TAUHLS_CHECK(names.insert(n.name).second, "duplicate node name: " + n.name);
    TAUHLS_CHECK(static_cast<int>(n.operands.size()) == opKindArity(n.kind),
                 "operand arity mismatch on node " + n.name);
    for (NodeId o : n.operands) {
      TAUHLS_CHECK(o < nodes_.size(), "dangling operand on node " + n.name);
    }
  }
  for (const ScheduleArc& a : scheduleArcs_) {
    TAUHLS_CHECK(a.from < nodes_.size() && a.to < nodes_.size(),
                 "dangling schedule arc");
  }
  for (const ScheduleArc& a : stateEdges_) {
    TAUHLS_CHECK(a.from < nodes_.size() && a.to < nodes_.size(),
                 "dangling state edge");
  }
  for (NodeId o : outputs_) {
    TAUHLS_CHECK(o < nodes_.size(), "dangling output marker");
  }
  TAUHLS_CHECK(isAcyclic(), "graph contains a cycle");
}

std::string Dfg::freshName(const char* stem) const {
  for (std::size_t k = nodes_.size();; ++k) {
    std::string candidate = std::string(stem) + std::to_string(k);
    if (findByName(candidate) == kNoNode) return candidate;
  }
}

}  // namespace tauhls::dfg

#include "topo/graph.h"

#include <deque>
#include <stdexcept>

namespace eprons {

bool is_switch_type(NodeType type) { return type != NodeType::Host; }

NodeId Graph::add_node(NodeType type, int pod, int index, std::string name) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(Node{id, type, pod, index, std::move(name)});
  adjacency_.emplace_back();
  return id;
}

LinkId Graph::add_link(NodeId a, NodeId b, Bandwidth capacity) {
  if (a < 0 || b < 0 || static_cast<std::size_t>(a) >= nodes_.size() ||
      static_cast<std::size_t>(b) >= nodes_.size() || a == b) {
    throw std::invalid_argument("bad link endpoints");
  }
  if (capacity <= 0.0) throw std::invalid_argument("link capacity must be > 0");
  if (find_link(a, b) != kInvalidLink) {
    throw std::invalid_argument("duplicate link");
  }
  const LinkId id = static_cast<LinkId>(links_.size());
  links_.push_back(Link{id, a, b, capacity});
  adjacency_[static_cast<std::size_t>(a)].push_back(id);
  adjacency_[static_cast<std::size_t>(b)].push_back(id);
  return id;
}

const std::vector<LinkId>& Graph::links_of(NodeId id) const {
  return adjacency_[static_cast<std::size_t>(id)];
}

NodeId Graph::other_end(LinkId link_id, NodeId from) const {
  const Link& l = link(link_id);
  if (l.a == from) return l.b;
  if (l.b == from) return l.a;
  throw std::invalid_argument("node not an endpoint of link");
}

LinkId Graph::find_link(NodeId a, NodeId b) const {
  for (LinkId lid : links_of(a)) {
    const Link& l = link(lid);
    if ((l.a == a && l.b == b) || (l.a == b && l.b == a)) return lid;
  }
  return kInvalidLink;
}

std::vector<NodeId> Graph::switches() const {
  std::vector<NodeId> out;
  for (const Node& n : nodes_) {
    if (is_switch_type(n.type)) out.push_back(n.id);
  }
  return out;
}

std::vector<NodeId> Graph::hosts() const {
  std::vector<NodeId> out;
  for (const Node& n : nodes_) {
    if (n.type == NodeType::Host) out.push_back(n.id);
  }
  return out;
}

std::vector<LinkId> Graph::path_links(const Path& path) const {
  std::vector<LinkId> out;
  if (path.size() < 2) return out;
  out.reserve(path.size() - 1);
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const LinkId lid = find_link(path[i], path[i + 1]);
    if (lid == kInvalidLink) {
      throw std::invalid_argument("path nodes not adjacent");
    }
    out.push_back(lid);
  }
  return out;
}

bool Graph::connected(NodeId source, const std::vector<NodeId>& targets,
                      const std::vector<bool>& switch_on) const {
  return connected(source, targets, switch_on, nullptr);
}

bool Graph::connected(NodeId source, const std::vector<NodeId>& targets,
                      const std::vector<bool>& switch_on,
                      const FailureOverlay* overlay) const {
  auto node_up = [&](NodeId id) {
    if (overlay && overlay->node_failed(id)) return false;
    const Node& n = node(id);
    if (!is_switch_type(n.type)) return true;
    return static_cast<std::size_t>(id) < switch_on.size() &&
           switch_on[static_cast<std::size_t>(id)];
  };
  std::vector<bool> seen(nodes_.size(), false);
  std::deque<NodeId> frontier;
  if (!node_up(source)) return targets.empty();
  seen[static_cast<std::size_t>(source)] = true;
  frontier.push_back(source);
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop_front();
    for (LinkId lid : links_of(u)) {
      if (overlay && overlay->link_down(lid)) continue;
      const NodeId v = other_end(lid, u);
      if (seen[static_cast<std::size_t>(v)] || !node_up(v)) continue;
      seen[static_cast<std::size_t>(v)] = true;
      frontier.push_back(v);
    }
  }
  for (NodeId t : targets) {
    if (!seen[static_cast<std::size_t>(t)]) return false;
  }
  return true;
}

FailureOverlay::FailureOverlay(const Graph* graph)
    : graph_(graph),
      node_fail_count_(graph->num_nodes(), 0),
      link_fail_count_(graph->num_links(), 0) {}

void FailureOverlay::fail_node(NodeId id) {
  if (++node_fail_count_[static_cast<std::size_t>(id)] == 1) ++failed_nodes_;
}

void FailureOverlay::repair_node(NodeId id) {
  int& count = node_fail_count_[static_cast<std::size_t>(id)];
  if (count == 0) return;  // repair without a matching failure: no-op
  if (--count == 0) --failed_nodes_;
}

void FailureOverlay::fail_link(LinkId id) {
  if (++link_fail_count_[static_cast<std::size_t>(id)] == 1) ++failed_links_;
}

void FailureOverlay::repair_link(LinkId id) {
  int& count = link_fail_count_[static_cast<std::size_t>(id)];
  if (count == 0) return;
  if (--count == 0) --failed_links_;
}

void FailureOverlay::clear() {
  std::fill(node_fail_count_.begin(), node_fail_count_.end(), 0);
  std::fill(link_fail_count_.begin(), link_fail_count_.end(), 0);
  failed_nodes_ = 0;
  failed_links_ = 0;
}

bool FailureOverlay::node_failed(NodeId id) const {
  return static_cast<std::size_t>(id) < node_fail_count_.size() &&
         node_fail_count_[static_cast<std::size_t>(id)] > 0;
}

bool FailureOverlay::link_failed(LinkId id) const {
  return static_cast<std::size_t>(id) < link_fail_count_.size() &&
         link_fail_count_[static_cast<std::size_t>(id)] > 0;
}

bool FailureOverlay::link_down(LinkId id) const {
  if (link_failed(id)) return true;
  const Link& l = graph_->link(id);
  return node_failed(l.a) || node_failed(l.b);
}

int FailureOverlay::down_links() const {
  int down = 0;
  for (const Link& l : graph_->links()) {
    if (link_down(l.id)) ++down;
  }
  return down;
}

bool FailureOverlay::blocks(const Path& path) const {
  if (!any_failed()) return false;
  for (NodeId n : path) {
    if (node_failed(n)) return true;
  }
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    if (link_down(graph_->find_link(path[i], path[i + 1]))) return true;
  }
  return false;
}

std::vector<bool> FailureOverlay::surviving_switches() const {
  std::vector<bool> mask(graph_->num_nodes(), false);
  for (const Node& n : graph_->nodes()) {
    mask[static_cast<std::size_t>(n.id)] = !node_failed(n.id);
  }
  return mask;
}

std::vector<bool> FailureOverlay::down_link_mask() const {
  std::vector<bool> mask(graph_->num_links(), false);
  for (const Link& l : graph_->links()) {
    mask[static_cast<std::size_t>(l.id)] = link_down(l.id);
  }
  return mask;
}

}  // namespace eprons

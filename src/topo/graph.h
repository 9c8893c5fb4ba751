// Undirected network graph with typed nodes and capacitated links.
//
// This is the substrate under the fat-tree builder, the consolidation LP
// (which views each undirected link as two directed arcs), and the
// flow-level latency model.
#pragma once

#include <string>
#include <vector>

#include "util/types.h"

namespace eprons {

enum class NodeType { Host, EdgeSwitch, AggSwitch, CoreSwitch };

bool is_switch_type(NodeType type);

struct Node {
  NodeId id = kInvalidNode;
  NodeType type = NodeType::Host;
  /// Pod index for pod-local nodes; -1 for core switches.
  int pod = -1;
  /// Position within its (type, pod) group.
  int index = 0;
  std::string name;
};

struct Link {
  LinkId id = kInvalidLink;
  NodeId a = kInvalidNode;
  NodeId b = kInvalidNode;
  Bandwidth capacity = 0.0;  // Mbps, per direction
};

/// A path is a node sequence; adjacent nodes must be linked.
using Path = std::vector<NodeId>;

class FailureOverlay;

class Graph {
 public:
  NodeId add_node(NodeType type, int pod, int index, std::string name);
  /// Adds an undirected link; returns its id. Endpoints must exist.
  LinkId add_link(NodeId a, NodeId b, Bandwidth capacity);

  std::size_t num_nodes() const { return nodes_.size(); }
  std::size_t num_links() const { return links_.size(); }
  const Node& node(NodeId id) const { return nodes_[static_cast<std::size_t>(id)]; }
  const Link& link(LinkId id) const { return links_[static_cast<std::size_t>(id)]; }
  const std::vector<Node>& nodes() const { return nodes_; }
  const std::vector<Link>& links() const { return links_; }

  /// Links incident to `id`.
  const std::vector<LinkId>& links_of(NodeId id) const;
  /// The other endpoint of `link` relative to `from`.
  NodeId other_end(LinkId link, NodeId from) const;
  /// Link between a and b, or kInvalidLink.
  LinkId find_link(NodeId a, NodeId b) const;

  bool is_switch(NodeId id) const { return is_switch_type(node(id).type); }

  /// All switch node ids (hosts excluded).
  std::vector<NodeId> switches() const;
  /// All host node ids.
  std::vector<NodeId> hosts() const;

  /// Converts a node path to the link ids it traverses. Throws if two
  /// consecutive nodes are not adjacent.
  std::vector<LinkId> path_links(const Path& path) const;

  /// True if every node in `targets` is reachable from `source` using only
  /// links whose both endpoints pass `node_ok` (hosts always pass).
  bool connected(NodeId source, const std::vector<NodeId>& targets,
                 const std::vector<bool>& switch_on) const;

  /// As above, additionally skipping nodes/links failed in `overlay`
  /// (nullptr behaves like the overload without one).
  bool connected(NodeId source, const std::vector<NodeId>& targets,
                 const std::vector<bool>& switch_on,
                 const FailureOverlay* overlay) const;

 private:
  std::vector<Node> nodes_;
  std::vector<Link> links_;
  std::vector<std::vector<LinkId>> adjacency_;
};

/// Which nodes/links are currently *failed* — kept apart from Graph (the
/// physical wiring never changes) and from consolidation masks (which
/// encode the chosen power state, not availability). Failures are counted,
/// not flagged, so overlapping outages of the same element compose: the
/// element recovers only when every outstanding failure has been repaired,
/// and a repair restores exactly the capacity the matching failure removed.
/// A failed node takes every incident link down with it implicitly; those
/// links come back the moment the node is repaired unless they also failed
/// independently.
class FailureOverlay {
 public:
  FailureOverlay() = default;
  explicit FailureOverlay(const Graph* graph);

  void fail_node(NodeId id);
  void repair_node(NodeId id);
  void fail_link(LinkId id);
  void repair_link(LinkId id);
  void clear();

  bool node_failed(NodeId id) const;
  /// The link's own failure state (independent of its endpoints).
  bool link_failed(LinkId id) const;
  /// True when the link itself failed or either endpoint node has.
  bool link_down(LinkId id) const;

  bool any_failed() const { return failed_nodes_ + failed_links_ > 0; }
  int failed_nodes() const { return failed_nodes_; }
  int failed_links() const { return failed_links_; }
  /// Links unusable right now, including those implied by node failures.
  int down_links() const;

  /// True if any hop of `path` crosses a failed node or a down link.
  bool blocks(const Path& path) const;

  /// NodeId-indexed mask of surviving elements: hosts and non-failed
  /// switches true. Shaped for ConsolidationConfig::allowed_switches.
  std::vector<bool> surviving_switches() const;
  /// LinkId-indexed mask of down links (explicit or implied). Shaped for
  /// ConsolidationConfig::blocked_links.
  std::vector<bool> down_link_mask() const;

  const Graph* graph() const { return graph_; }

 private:
  const Graph* graph_ = nullptr;
  std::vector<int> node_fail_count_;
  std::vector<int> link_fail_count_;
  int failed_nodes_ = 0;
  int failed_links_ = 0;
};

}  // namespace eprons

#include "net/link_utilization.h"

#include <algorithm>
#include <stdexcept>

namespace eprons {

LinkUtilization::LinkUtilization(const Graph* graph)
    : graph_(graph),
      load_(graph->num_links() * 2, 0.0),
      bursty_load_(graph->num_links() * 2, 0.0) {}

std::size_t LinkUtilization::slot(LinkId link, bool forward) const {
  return static_cast<std::size_t>(link) * 2 + (forward ? 0 : 1);
}

void LinkUtilization::add_path_load(const Path& path, Bandwidth rate,
                                    bool bursty) {
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const NodeId from = path[i];
    const NodeId to = path[i + 1];
    const LinkId lid = graph_->find_link(from, to);
    if (lid == kInvalidLink) {
      throw std::invalid_argument("path hops not adjacent");
    }
    const bool forward = graph_->link(lid).a == from;
    Bandwidth& cell = load_[slot(lid, forward)];
    cell = std::max(0.0, cell + rate);
    if (bursty) {
      Bandwidth& bcell = bursty_load_[slot(lid, forward)];
      bcell = std::max(0.0, bcell + rate);
    }
  }
}

void LinkUtilization::clear() {
  std::fill(load_.begin(), load_.end(), 0.0);
  std::fill(bursty_load_.begin(), bursty_load_.end(), 0.0);
}

Bandwidth LinkUtilization::directed_load(NodeId from, NodeId to) const {
  const LinkId lid = graph_->find_link(from, to);
  if (lid == kInvalidLink) throw std::invalid_argument("nodes not adjacent");
  const bool forward = graph_->link(lid).a == from;
  return load_[slot(lid, forward)];
}

LinkUtilization::DirectedUtilization LinkUtilization::directed_utilizations(
    NodeId from, NodeId to) const {
  const LinkId lid = graph_->find_link(from, to);
  if (lid == kInvalidLink) throw std::invalid_argument("nodes not adjacent");
  const std::size_t at = slot(lid, graph_->link(lid).a == from);
  const Bandwidth capacity = graph_->link(lid).capacity;
  return {load_[at] / capacity, bursty_load_[at] / capacity};
}

double LinkUtilization::max_utilization() const {
  double worst = 0.0;
  for (const Link& link : graph_->links()) {
    worst = std::max(worst, load_[slot(link.id, true)] / link.capacity);
    worst = std::max(worst, load_[slot(link.id, false)] / link.capacity);
  }
  return worst;
}

}  // namespace eprons

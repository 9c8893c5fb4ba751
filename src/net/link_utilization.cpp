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

void LinkUtilization::accumulate(const Path& path, Bandwidth delta,
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
    cell = std::max(0.0, cell + delta);
    if (bursty) {
      Bandwidth& bcell = bursty_load_[slot(lid, forward)];
      bcell = std::max(0.0, bcell + delta);
    }
  }
}

void LinkUtilization::add_path_load(const Path& path, Bandwidth rate,
                                    bool bursty) {
  accumulate(path, rate, bursty);
}

void LinkUtilization::remove_path_load(const Path& path, Bandwidth rate,
                                       bool bursty) {
  accumulate(path, -rate, bursty);
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

double LinkUtilization::directed_utilization(NodeId from, NodeId to) const {
  const LinkId lid = graph_->find_link(from, to);
  if (lid == kInvalidLink) throw std::invalid_argument("nodes not adjacent");
  const bool forward = graph_->link(lid).a == from;
  return load_[slot(lid, forward)] / graph_->link(lid).capacity;
}

double LinkUtilization::directed_bursty_utilization(NodeId from,
                                                    NodeId to) const {
  const LinkId lid = graph_->find_link(from, to);
  if (lid == kInvalidLink) throw std::invalid_argument("nodes not adjacent");
  const bool forward = graph_->link(lid).a == from;
  return bursty_load_[slot(lid, forward)] / graph_->link(lid).capacity;
}

double LinkUtilization::max_path_utilization(const Path& path) const {
  double worst = 0.0;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    worst = std::max(worst, directed_utilization(path[i], path[i + 1]));
  }
  return worst;
}

double LinkUtilization::max_utilization() const {
  double worst = 0.0;
  for (const Link& link : graph_->links()) {
    worst = std::max(worst, load_[slot(link.id, true)] / link.capacity);
    worst = std::max(worst, load_[slot(link.id, false)] / link.capacity);
  }
  return worst;
}

int LinkUtilization::active_directed_links() const {
  int active = 0;
  for (const Bandwidth load : load_) {
    if (load > 0.0) ++active;
  }
  return active;
}

}  // namespace eprons

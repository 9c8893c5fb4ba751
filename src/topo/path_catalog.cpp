#include "topo/path_catalog.h"

#include <exception>
#include <stdexcept>
#include <utility>

namespace eprons {

CatalogPath::CatalogPath(const Graph& graph, const Path& path) {
  if (path.size() > kMaxNodes) {
    throw std::length_error(
        "CatalogPath: path has more nodes than CatalogPath::kMaxNodes");
  }
  node_count_ = static_cast<std::uint8_t>(path.size());
  hop_count_ = static_cast<std::uint8_t>(path.size() < 2 ? 0 : path.size() - 1);
  for (std::size_t i = 0; i < path.size(); ++i) {
    nodes_[i] = path[i];
    if (graph.is_switch(path[i])) switches_[switch_count_++] = path[i];
  }
  for (std::size_t h = 0; h < hop_count_; ++h) {
    const LinkId lid = graph.find_link(path[h], path[h + 1]);
    const bool forward = graph.link(lid).a == path[h];
    arc_slots_[h] = static_cast<std::uint32_t>(lid) * 2 + (forward ? 0u : 1u);
    links_[h] = lid;
    host_adjacent_[h] =
        !graph.is_switch(path[h]) || !graph.is_switch(path[h + 1]);
  }
}

PathCatalog::PathCatalog(const Topology* topo)
    : topo_(topo),
      hosts_(topo->num_hosts()),
      shards_(std::make_unique<Shard[]>(
          static_cast<std::size_t>(topo->num_hosts()))) {}

const std::vector<CatalogPath>& PathCatalog::pair(int src_host,
                                                  int dst_host) const {
  if (src_host < 0 || src_host >= hosts_ || dst_host < 0 ||
      dst_host >= hosts_) {
    throw std::out_of_range("PathCatalog::pair: host index out of range");
  }
  Shard& shard = shards_[static_cast<std::size_t>(src_host)];
  Entry* entry_ptr = nullptr;
  {
    const std::lock_guard<std::mutex> lock(shard.mu);
    std::unique_ptr<Entry>& slot = shard.by_dst[dst_host];
    if (slot == nullptr) slot = std::make_unique<Entry>();
    entry_ptr = slot.get();
  }
  Entry& entry = *entry_ptr;
  // The fill never lets an exception escape call_once: a once_flag left
  // mid-call by a throw makes a later call wait forever under some
  // pthread_once implementations (ThreadSanitizer's among them). The
  // failure is kept instead, and every lookup of the pair rethrows it.
  std::call_once(entry.once, [&] {
    try {
      const Graph& graph = topo_->graph();
      const std::vector<Path> paths = topo_->all_paths(src_host, dst_host);
      std::vector<CatalogPath> annotated;
      annotated.reserve(paths.size());
      for (const Path& path : paths) annotated.emplace_back(graph, path);
      entry.paths = std::move(annotated);
    } catch (...) {
      entry.failure = std::current_exception();
    }
  });
  if (entry.failure) std::rethrow_exception(entry.failure);
  return entry.paths;
}

}  // namespace eprons

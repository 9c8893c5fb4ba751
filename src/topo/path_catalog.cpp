#include "topo/path_catalog.h"

#include <exception>
#include <stdexcept>
#include <string>
#include <utility>

namespace eprons {

namespace {

constexpr std::uint32_t kNoIndex = ~std::uint32_t{0};

}  // namespace

SwitchRoute::SwitchRoute(const Graph& graph, const Path& path) {
  if (path.size() > kMaxSwitches + 2) {
    throw std::length_error(
        "SwitchRoute: path has more nodes than CatalogPath::kMaxNodes");
  }
  if (path.size() < 3) {
    throw std::invalid_argument("SwitchRoute: path has no switch");
  }
  switch_count_ = static_cast<std::uint8_t>(path.size() - 2);
  for (std::size_t i = 0; i < switch_count_; ++i) {
    const NodeId n = path[i + 1];
    if (!graph.is_switch(n)) {
      throw std::invalid_argument("SwitchRoute: a host between the path ends");
    }
    switches_[i] = n;
  }
  for (std::size_t h = 0; h < hop_count(); ++h) {
    const LinkId lid = graph.find_link(switches_[h], switches_[h + 1]);
    const bool forward = graph.link(lid).a == switches_[h];
    arc_slots_[h] = static_cast<std::uint32_t>(lid) * 2 + (forward ? 0u : 1u);
    links_[h] = lid;
  }
}

LinkId CatalogPath::link(std::size_t hop) const {
  if (hop == 0) return source_->link;
  if (hop + 1 == hop_count()) return destination_->link;
  return route_->links()[hop - 1];
}

std::uint32_t CatalogPath::arc_slot(std::size_t hop) const {
  if (hop == 0) return source_->uplink_slot;
  if (hop + 1 == hop_count()) return destination_->downlink_slot();
  return route_->arc_slots()[hop - 1];
}

Path CatalogPath::nodes() const {
  Path path;
  path.reserve(node_count());
  path.push_back(source_->host);
  for (NodeId n : route_->switches()) path.push_back(n);
  path.push_back(destination_->host);
  return path;
}

PathCatalog::PathCatalog(const Topology* topo)
    : topo_(topo),
      access_(static_cast<std::size_t>(topo->num_hosts())),
      access_index_(static_cast<std::size_t>(topo->num_hosts())) {
  const Graph& graph = topo->graph();
  std::vector<std::uint32_t> index_of_switch(graph.num_nodes(), kNoIndex);
  for (int h = 0; h < topo->num_hosts(); ++h) {
    HostAccess& access = access_[static_cast<std::size_t>(h)];
    access.host = topo->host(h);
    const std::vector<LinkId>& links = graph.links_of(access.host);
    const NodeId sw =
        links.size() == 1 ? graph.other_end(links.front(), access.host)
                          : kInvalidNode;
    if (sw == kInvalidNode || !graph.is_switch(sw)) {
      std::string what = "PathCatalog: host ";
      what += std::to_string(h);
      what += " is not attached to exactly one switch";
      throw std::invalid_argument(what);
    }
    access.access_switch = sw;
    access.link = links.front();
    access.uplink_slot = static_cast<std::uint32_t>(access.link) * 2 +
                         (graph.link(access.link).a == access.host ? 0u : 1u);
    std::uint32_t& index = index_of_switch[static_cast<std::size_t>(sw)];
    if (index == kNoIndex) {
      index = static_cast<std::uint32_t>(access_switches_++);
    }
    access_index_[static_cast<std::size_t>(h)] = index;
  }
}

PathCatalog::Paths PathCatalog::pair(int src_host, int dst_host) const {
  const int hosts = static_cast<int>(access_.size());
  if (src_host < 0 || src_host >= hosts || dst_host < 0 || dst_host >= hosts) {
    throw std::out_of_range("PathCatalog::pair: host index out of range");
  }
  if (src_host == dst_host) {
    throw std::invalid_argument(
        "PathCatalog::pair: src and dst hosts must differ");
  }
  const std::size_t slot =
      access_index_[static_cast<std::size_t>(src_host)] * access_switches_ +
      access_index_[static_cast<std::size_t>(dst_host)];
  const std::atomic<const Entry*>* entries =
      entries_.load(std::memory_order_acquire);
  const Entry* entry = entries != nullptr
                           ? entries[slot].load(std::memory_order_acquire)
                           : nullptr;
  if (entry == nullptr) entry = &fill(slot, src_host, dst_host);
  if (entry->failure) std::rethrow_exception(entry->failure);
  return Paths(access_[static_cast<std::size_t>(src_host)], entry->routes,
               access_[static_cast<std::size_t>(dst_host)]);
}

const PathCatalog::Entry& PathCatalog::fill(std::size_t slot, int src_host,
                                            int dst_host) const {
  const std::lock_guard<std::mutex> lock(fill_mu_);
  // The first fill allocates the (null) table, so a catalog that is never
  // asked costs only its access links.
  if (entry_table_ == nullptr) {
    entry_table_ = std::make_unique<std::atomic<const Entry*>[]>(
        access_switches_ * access_switches_);
    entries_.store(entry_table_.get(), std::memory_order_release);
  }
  // Another thread may have filled the slot while this one waited.
  if (const Entry* filled =
          entry_table_[slot].load(std::memory_order_relaxed)) {
    return *filled;
  }
  auto entry = std::make_unique<Entry>();
  // A failed fill is kept, so every later lookup of the access pair
  // rethrows it instead of enumerating again.
  try {
    const Graph& graph = topo_->graph();
    const std::vector<Path> paths = topo_->all_paths(src_host, dst_host);
    entry->routes.reserve(paths.size());
    for (const Path& path : paths) entry->routes.emplace_back(graph, path);
  } catch (...) {
    entry->routes.clear();
    entry->failure = std::current_exception();
  }
  const Entry& filled = *entry;
  owned_.push_back(std::move(entry));
  entry_table_[slot].store(&filled, std::memory_order_release);
  return filled;
}

}  // namespace eprons

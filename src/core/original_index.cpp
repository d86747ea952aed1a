#include "src/core/original_index.hpp"

#include <algorithm>

namespace confmask {

OriginalIndex::OriginalIndex(const Simulation& sim)
    : igp_(sim.igp_distances()) {
  const Topology& topo = sim.topology();
  router_count_ = topo.router_count();

  node_ids_.reserve(static_cast<std::size_t>(topo.node_count()));
  for (int id = 0; id < topo.node_count(); ++id) {
    node_ids_.emplace(topo.node(id).name, id);
  }
  for (int r = 0; r < router_count_; ++r) routers_.insert(topo.node(r).name);
  for (int host : topo.host_ids()) real_hosts_.insert(topo.node(host).name);

  // Router-router adjacency, both directions, deduplicated per router
  // (parallel links are one edge).
  std::vector<std::pair<std::int32_t, std::int32_t>> pairs;
  for (const auto& link : topo.links()) {
    if (!topo.is_router(link.a.node) || !topo.is_router(link.b.node)) {
      continue;
    }
    pairs.emplace_back(link.a.node, link.b.node);
    pairs.emplace_back(link.b.node, link.a.node);
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  adjacency_offset_.assign(static_cast<std::size_t>(router_count_) + 1, 0);
  adjacency_.reserve(pairs.size());
  for (const auto& [from, to] : pairs) {
    ++adjacency_offset_[static_cast<std::size_t>(from) + 1];
    adjacency_.push_back(to);
  }
  for (std::size_t r = 1; r < adjacency_offset_.size(); ++r) {
    adjacency_offset_[r] += adjacency_offset_[r - 1];
  }

  fib_.reserve(topo.host_ids().size());
  for (int host : topo.host_ids()) fib_.push_back(sim.fib_column(host));

  data_plane_ = sim.extract_data_plane();
}

OriginalIndex::OriginalIndex(const Simulation& sim,
                             const OriginalIndex& previous,
                             const std::vector<Ipv4Prefix>& dirty)
    : router_count_(previous.router_count_),
      adjacency_offset_(previous.adjacency_offset_),
      adjacency_(previous.adjacency_),
      node_ids_(previous.node_ids_),
      data_plane_(previous.data_plane_),
      real_hosts_(previous.real_hosts_),
      routers_(previous.routers_),
      igp_(previous.igp_) {
  const Topology& topo = sim.topology();
  fib_.reserve(topo.host_ids().size());
  for (int host : topo.host_ids()) fib_.push_back(sim.fib_column(host));

  std::vector<int> dirty_hosts;
  for (int host : topo.host_ids()) {
    const Ipv4Prefix& prefix = sim.host_prefix(host);
    for (const Ipv4Prefix& region : dirty) {
      if (region.overlaps(prefix)) {
        dirty_hosts.push_back(host);
        break;
      }
    }
  }
  if (dirty_hosts.empty()) return;

  // Flows are keyed (src, dst) and — absent ACLs — depend only on the FIB
  // columns toward dst, so only dirty DESTINATIONS need re-extraction.
  std::set<std::string> dirty_names;
  for (int host : dirty_hosts) dirty_names.insert(topo.node(host).name);
  for (auto it = data_plane_.flows.begin(); it != data_plane_.flows.end();) {
    if (dirty_names.count(it->first.second) != 0) {
      it = data_plane_.flows.erase(it);
    } else {
      ++it;
    }
  }
  DataPlane partial = sim.extract_data_plane(dirty_hosts);
  for (auto& [key, paths] : partial.flows) {
    data_plane_.flows.emplace(key, std::move(paths));
  }
}

int OriginalIndex::node_id(const std::string& name) const {
  const auto it = node_ids_.find(name);
  return it == node_ids_.end() ? -1 : it->second;
}

std::vector<int> OriginalIndex::original_ids(const Topology& topo) const {
  std::vector<int> ids(static_cast<std::size_t>(topo.node_count()), -1);
  for (int v = 0; v < topo.node_count(); ++v) {
    const int id = node_id(topo.node(v).name);
    if (id >= 0 && topo.is_router(v) == (id < router_count_)) {
      ids[static_cast<std::size_t>(v)] = id;
    }
  }
  return ids;
}

bool OriginalIndex::is_original_edge(int a, int b) const {
  if (a < 0 || a >= router_count_ || b < 0 || b >= router_count_) {
    return false;
  }
  const auto first = adjacency_.begin() +
                     adjacency_offset_[static_cast<std::size_t>(a)];
  const auto last = adjacency_.begin() +
                    adjacency_offset_[static_cast<std::size_t>(a) + 1];
  return std::find(first, last, b) != last;
}

bool OriginalIndex::is_original_next_hop(int router, int host,
                                         int next_hop) const {
  if (router < 0 || router >= router_count_ || host < router_count_) {
    return false;
  }
  const auto hidx = static_cast<std::size_t>(host - router_count_);
  if (hidx >= fib_.size() || fib_[hidx] == nullptr) return false;
  for (const NextHop& hop : fib_[hidx]->at(router)) {
    if (hop.neighbor == next_hop) return true;
  }
  return false;
}

bool OriginalIndex::is_original_edge(const std::string& a,
                                     const std::string& b) const {
  return is_original_edge(node_id(a), node_id(b));
}

bool OriginalIndex::is_original_next_hop(const std::string& router,
                                         const std::string& host,
                                         const std::string& next_hop) const {
  const int hop = node_id(next_hop);
  return hop >= 0 && is_original_next_hop(node_id(router), node_id(host), hop);
}

long OriginalIndex::igp_distance(const std::string& a,
                                 const std::string& b) const {
  const int ia = node_id(a);
  const int ib = node_id(b);
  if (ia < 0 || ia >= router_count_ || ib < 0 || ib >= router_count_) {
    return -1;
  }
  return igp_.distance(ia, ib);
}

}  // namespace confmask

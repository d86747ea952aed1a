// Preprocessing snapshot of the original network.
//
// The workflow's preprocessing step (paper Fig 3) simulates the input
// configurations once and records everything the later stages compare
// against: the original edge set (to recognize fake links), the original
// per-router FIBs (Algorithm 1's `DP[r̃, h̃_d]` lookup table), the original
// data plane (the functional-equivalence ground truth), a lazy IGP-distance
// handle (to price fake-router links at min_cost; rows are computed only
// for the routers queried, no R×R table is kept), and the real host roster
// (fake hosts are excluded from equivalence checks).
//
// Everything is keyed by ORIGINAL node id (routers first, then hosts, as
// in the original Topology). The per-router FIBs are the original
// Simulation's immutable FIB columns, borrowed by shared_ptr — no copy and
// no name-keyed table. The edges are a CSR adjacency over router ids. One
// name → id map translates names once: `original_ids` maps a whole
// anonymized topology (whose ids differ — fake routers shift every host
// id) so Algorithm 1's per-FIB-entry loop compares integers only. The
// name-keyed queries are thin wrappers over the id-keyed ones.
#pragma once

#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/routing/simulation.hpp"

namespace confmask {

class OriginalIndex {
 public:
  /// Snapshots `sim`, which must be a simulation of the ORIGINAL configs.
  explicit OriginalIndex(const Simulation& sim);

  /// Incremental re-snapshot for watch mode (DESIGN.md §14). `previous`
  /// must index the PRE-edit originals and `sim` the post-edit ones, where
  /// the edit is FILTER-ONLY (same devices, same topology, same link
  /// costs) with no packet-ACL change, and `dirty` is the diff's
  /// conservative dirty-prefix set. Everything destination-independent
  /// (edges, rosters, the IGP-distance handle) is shared with or copied
  /// from `previous`; the FIB columns are borrowed from `sim` exactly as
  /// the full snapshot borrows them, and data-plane flows are re-derived
  /// only toward destination hosts whose prefix overlaps `dirty` — the
  /// exact invalidation rule the incremental Simulation constructor
  /// applies to its FIB columns, so the result is bit-identical to
  /// OriginalIndex(sim). The ACL exclusion is load-bearing: an ACL edit
  /// reshapes data-plane flows for destinations that contribute NO dirty
  /// prefix (it can even resurrect flows absent before), so callers must
  /// fall back to a full snapshot when one is present
  /// (ConfigSetDiff::acls_changed).
  OriginalIndex(const Simulation& sim, const OriginalIndex& previous,
                const std::vector<Ipv4Prefix>& dirty);

  /// Number of original routers; original ids [0, router_count()) are
  /// routers, the rest hosts.
  [[nodiscard]] int router_count() const { return router_count_; }

  /// Original node id of a device name, or -1 if the original network has
  /// no such device.
  [[nodiscard]] int node_id(const std::string& name) const;

  /// For every node id of `topo` (a topology of some later config state,
  /// e.g. the anonymized configs), its original node id, or -1 for a
  /// device the original network lacks (fake routers and hosts). Routers
  /// map only to original routers and hosts only to original hosts. Ids
  /// are matched by name: fake routers shift host ids, so equal ids mean
  /// nothing across topologies.
  [[nodiscard]] std::vector<int> original_ids(const Topology& topo) const;

  /// True if original routers `a` and `b` were adjacent (ids).
  [[nodiscard]] bool is_original_edge(int a, int b) const;

  /// True if `next_hop` was an original FIB next hop of router `router`
  /// for destination host `host` (all original ids).
  [[nodiscard]] bool is_original_next_hop(int router, int host,
                                          int next_hop) const;

  /// True if the (router, router) adjacency existed in the original
  /// network. Order-insensitive.
  [[nodiscard]] bool is_original_edge(const std::string& a,
                                      const std::string& b) const;

  /// True if `next_hop` was an original FIB next hop of `router` for
  /// destination host `host` (all by name).
  [[nodiscard]] bool is_original_next_hop(const std::string& router,
                                          const std::string& host,
                                          const std::string& next_hop) const;

  [[nodiscard]] const DataPlane& data_plane() const { return data_plane_; }
  [[nodiscard]] const std::set<std::string>& real_hosts() const {
    return real_hosts_;
  }
  [[nodiscard]] const std::set<std::string>& routers() const {
    return routers_;
  }

  /// Original IGP distance between two routers by name (-1 unreachable /
  /// unknown router).
  [[nodiscard]] long igp_distance(const std::string& a,
                                  const std::string& b) const;

  /// The lazy distance handle behind igp_distance(), shared with the
  /// Simulation this index was built from.
  [[nodiscard]] const IgpDistances& igp_distances() const { return igp_; }

 private:
  int router_count_ = 0;
  // Original router-router adjacency as CSR: neighbors of router r at
  // adjacency_[adjacency_offset_[r] .. adjacency_offset_[r+1]), ascending.
  std::vector<std::uint32_t> adjacency_offset_;
  std::vector<std::int32_t> adjacency_;
  // Per original host index (host id - router_count_): the original
  // Simulation's FIB column toward it, borrowed (null = unrouted host).
  std::vector<std::shared_ptr<const FibColumn>> fib_;
  std::unordered_map<std::string, int> node_ids_;
  DataPlane data_plane_;
  std::set<std::string> real_hosts_;
  std::set<std::string> routers_;
  IgpDistances igp_;
};

}  // namespace confmask

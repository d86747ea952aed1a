// Lazily memoized IGP distances over a frozen topology (DESIGN.md §13).
//
// The pipeline prices fake links at min_cost(r, r') — the converged IGP
// distance between two routers — and needs it for a handful of pairs per
// run: the endpoints of the few fake edges k-degree anonymization picks,
// and the neighbors of fake routers. IgpDistances answers those queries
// with one Dijkstra row per distinct SOURCE, computed on first use and
// memoized; no R×R table is ever materialized.
//
// The handle is a cheap value: copies share the FlatTopology and the row
// cache by shared_ptr, so a handle outlives the Simulation that made it
// (OriginalIndex keeps one after its Simulation is gone) and incremental
// generations of a Simulation, the watch-mode OriginalIndex and the
// pipeline all read one cache. Link-state distances never see route
// filters, so the cache never invalidates while the topology is frozen.
//
// Thread safety: distance() may be called concurrently from any number of
// threads. Each row is filled exactly once under its own std::once_flag,
// so distinct rows compute in parallel and readers of a finished row take
// no lock.
#pragma once

#include <limits>
#include <memory>
#include <mutex>
#include <vector>

#include "src/routing/flat_topology.hpp"

namespace confmask {

class IgpDistances {
 public:
  /// Raw distance of an unreachable router in a shortest_paths() row.
  static constexpr long kUnreachable = std::numeric_limits<long>::max() / 4;

  /// An empty handle; distance() must not be called on it.
  IgpDistances() = default;
  /// A handle over the routers of `flat` (node ids 0 .. router_count-1).
  explicit IgpDistances(std::shared_ptr<const FlatTopology> flat);

  /// Converged IGP distance from router `from` to router `to` (node ids),
  /// or -1 when unreachable — different AS / IGP domain, or disconnected.
  /// Computes and memoizes `from`'s row on first use.
  [[nodiscard]] long distance(int from, int to) const;

  /// True if both handles read one shared row cache.
  [[nodiscard]] bool shares_rows_with(const IgpDistances& other) const {
    return memo_ != nullptr && memo_ == other.memo_;
  }

  /// Single-source Dijkstra over the IGP adjacencies of `flat` (OSPF
  /// per-direction costs, RIP hop count). With `toward_source` false,
  /// `dist[r]` is the distance FROM `source` to r; with it true, the
  /// distance from r TO `source` (each edge priced in the direction that
  /// forwards towards the source). `dist` is resized to the router count;
  /// unreachable routers hold kUnreachable.
  static void shortest_paths(const FlatTopology& flat, int source,
                             bool toward_source, std::vector<long>& dist);

 private:
  struct Memo {
    explicit Memo(std::size_t routers)
        : rows(routers), once(new std::once_flag[routers]) {}
    std::vector<std::vector<long>> rows;  // [from], filled under once[from]
    std::unique_ptr<std::once_flag[]> once;
  };

  std::shared_ptr<const FlatTopology> flat_;
  std::shared_ptr<Memo> memo_;
};

}  // namespace confmask

// Incremental re-simulation (SimulationDelta dirty sets): the incremental
// constructor must be bit-identical to a fresh build after any sequence of
// filter edits, reuse everything a filter cannot affect, and recompute
// distance vectors only where the protocol requires it (RIP embeds filters
// in Bellman-Ford; OSPF distances are filter-independent).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/core/filters.hpp"
#include "src/netgen/builder.hpp"
#include "src/netgen/networks.hpp"
#include "src/netgen/scale_families.hpp"
#include "src/routing/reference_sim.hpp"
#include "src/routing/simulation.hpp"
#include "src/util/ipv4.hpp"

namespace confmask {
namespace {

// FIB-level equality over every (router, destination) pair — stricter than
// comparing extracted data planes (it also covers black-holed entries).
void expect_same_fibs(const Simulation& actual, const Simulation& expected) {
  const auto& topo = expected.topology();
  for (int router = 0; router < topo.router_count(); ++router) {
    for (const int host : topo.host_ids()) {
      EXPECT_EQ(actual.fib(router, host), expected.fib(router, host))
          << "router " << topo.node(router).name << " -> host "
          << topo.node(host).name;
    }
  }
  EXPECT_TRUE(actual.extract_data_plane() == expected.extract_data_plane());
}

// FIB-level agreement with the independent reference oracle over the same
// configs (the oracle shares no code with either simulator shortcut).
void expect_matches_reference(const Simulation& sim,
                              const ConfigSet& configs) {
  const ReferenceSimulation reference(configs);
  const auto& topo = sim.topology();
  for (int router = 0; router < topo.router_count(); ++router) {
    for (const int host : topo.host_ids()) {
      const FibView fast = sim.fib(router, host);
      const auto& want = reference.fib(router, host);
      bool same = fast.size() == want.size();
      for (std::size_t i = 0; same && i < want.size(); ++i) {
        same = fast[i].link == want[i].link &&
               fast[i].neighbor == want[i].neighbor;
      }
      ASSERT_TRUE(same) << "router " << topo.node(router).name
                        << " -> host " << topo.node(host).name;
    }
  }
}

// Denies `host`'s prefix on the first router/next-hop where a filter
// actually takes (skipping the gateway's direct delivery), recording the
// edit in `delta`. Returns false if the network offers no such spot.
bool deny_first_transit_hop(ConfigSet& configs, const Simulation& sim,
                            int host, SimulationDelta& delta) {
  const auto& topo = sim.topology();
  const Ipv4Prefix prefix =
      configs.hosts[static_cast<std::size_t>(topo.node(host).config_index)]
          .prefix();
  for (int router = 0; router < topo.router_count(); ++router) {
    for (const NextHop& hop : sim.fib(router, host)) {
      if (hop.neighbor == host) continue;
      if (add_route_filter(configs, topo, router, topo.link(hop.link),
                           prefix)) {
        delta.record(router, prefix);
        return true;
      }
    }
  }
  return false;
}

TEST(IncrementalSim, EmptyDeltaReusesEverything) {
  const auto configs = make_figure2();
  const Simulation base(configs);
  const Simulation incremental(configs, base, SimulationDelta{});

  expect_same_fibs(incremental, base);
  const auto& stats = incremental.incremental_stats();
  EXPECT_EQ(stats.destinations_recomputed, 0);
  EXPECT_EQ(stats.destinations_reused, base.topology().host_count());
  EXPECT_EQ(stats.distance_vectors_recomputed, 0);
  EXPECT_EQ(stats.distance_vectors_reused, 0);
}

TEST(IncrementalSim, NonMatchingPrefixInvalidatesNothing) {
  const auto configs = make_figure2();
  const Simulation base(configs);
  SimulationDelta delta;
  delta.record(0, *Ipv4Prefix::parse("203.0.113.0/24"));
  const Simulation incremental(configs, base, delta);

  expect_same_fibs(incremental, base);
  EXPECT_EQ(incremental.incremental_stats().destinations_recomputed, 0);
}

TEST(IncrementalSim, OspfFilterReusesDistanceVectors) {
  auto configs = make_figure2();
  auto base = std::make_unique<const Simulation>(configs);
  const int h4 = base->topology().find_node("h4");
  ASSERT_GE(h4, 0);

  SimulationDelta delta;
  ASSERT_TRUE(deny_first_transit_hop(configs, *base, h4, delta));
  const Simulation incremental(configs, *base, delta);
  base.reset();  // incremental results must not alias the previous build
  const Simulation fresh(configs);

  expect_same_fibs(incremental, fresh);
  const auto& stats = incremental.incremental_stats();
  EXPECT_GT(stats.destinations_recomputed, 0);
  EXPECT_GT(stats.destinations_reused, 0);  // only h4's column was dirty
  // OSPF: link-state distances are filter-independent, so even the dirty
  // destination reuses its cached distance vector.
  EXPECT_GT(stats.distance_vectors_reused, 0);
  EXPECT_EQ(stats.distance_vectors_recomputed, 0);
}

TEST(IncrementalSim, RipFilterRecomputesDistanceVectors) {
  auto configs = make_isp_rip("rip", 8, 6, 12, 0x51D);
  const Simulation base(configs);
  const auto hosts = base.topology().host_ids();
  ASSERT_FALSE(hosts.empty());

  SimulationDelta delta;
  bool edited = false;
  for (const int host : hosts) {
    if (deny_first_transit_hop(configs, base, host, delta)) {
      edited = true;
      break;
    }
  }
  ASSERT_TRUE(edited);
  const Simulation incremental(configs, base, delta);
  const Simulation fresh(configs);

  expect_same_fibs(incremental, fresh);
  const auto& stats = incremental.incremental_stats();
  EXPECT_GT(stats.destinations_recomputed, 0);
  // RIP: filters participate in the distance-vector relaxation itself.
  EXPECT_GT(stats.distance_vectors_recomputed, 0);
  EXPECT_EQ(stats.distance_vectors_reused, 0);
}

TEST(IncrementalSim, RemovalIsInvalidatedLikeAddition) {
  auto configs = make_figure2();
  const Simulation original(configs);
  const int h1 = original.topology().find_node("h1");
  ASSERT_GE(h1, 0);

  SimulationDelta delta;
  ASSERT_TRUE(deny_first_transit_hop(configs, original, h1, delta));
  const Simulation filtered(configs, original, delta);

  // Undo the edit: the delta records the same (router, prefix) again.
  const auto change = delta.changes.front();
  delta.clear();
  const auto& topo = filtered.topology();
  bool removed = false;
  const int link_count = static_cast<int>(topo.links().size());
  for (int link_id = 0; link_id < link_count && !removed; ++link_id) {
    removed = remove_route_filter(configs, topo, change.router,
                                  topo.link(link_id), change.prefix);
  }
  ASSERT_TRUE(removed);
  delta.record(change.router, change.prefix);

  const Simulation back(configs, filtered, delta);
  const Simulation fresh(configs);
  expect_same_fibs(back, fresh);
  // Round trip: removing the only filter restores the original routing.
  expect_same_fibs(back, original);
}

TEST(IncrementalSim, ChainedIncrementalStepsStayExact) {
  // Algorithm 1 applies filters over many iterations, each re-simulating
  // incrementally from the last — drift would compound, so chain several
  // edits and compare against a fresh build only at the end.
  auto configs = make_figure2();
  auto current = std::make_unique<const Simulation>(configs);
  const auto hosts = current->topology().host_ids();
  int edits = 0;
  for (const int host : hosts) {
    SimulationDelta delta;
    if (!deny_first_transit_hop(configs, *current, host, delta)) continue;
    current = std::make_unique<const Simulation>(configs, *current, delta);
    ++edits;
  }
  ASSERT_GT(edits, 1);
  const Simulation fresh(configs);
  expect_same_fibs(*current, fresh);
}

// --- The two simulator shortcuts -------------------------------------------
//
// (1) A fresh build runs one reverse Dijkstra per OSPF gateway and lets the
// other destinations on that gateway adopt the leader's distance vector.
// (2) A dirty link-state destination in a BGP-free network re-derives only
// the routers whose own filters changed (plus static-route routers) and
// copies every other router's slot. Both must be bit-identical to a fresh
// build and to the reference oracle.

// Four OSPF routers with different costs per direction on every link, two
// hosts on gateway a and two on gateway c.
ConfigSet asymmetric_two_per_gateway() {
  NetworkBuilder builder;
  for (const char* name : {"a", "b", "c", "d"}) builder.enable_ospf(name);
  builder.link("a", "b", 1, 10);
  builder.link("b", "c", 2, 7);
  builder.link("c", "d", 3, 1);
  builder.link("d", "a", 9, 2);
  builder.link("b", "d", 4, 6);
  builder.host("h1", "a");
  builder.host("h2", "a");
  builder.host("h3", "c");
  builder.host("h4", "c");
  builder.host("h5", "d");
  return builder.take();
}

TEST(SimulationShortcuts, HostsOnOneGatewayShareOneDistanceVector) {
  const ConfigSet configs = asymmetric_two_per_gateway();
  const Simulation sim(configs);
  // h2 adopts h1's vector and h4 adopts h3's; h1, h3, h5 lead.
  EXPECT_EQ(sim.incremental_stats().distance_vectors_shared, 2);
  expect_matches_reference(sim, configs);
  // Distances differ per direction, so the shared vector must be the
  // reverse (toward-gateway) one: a's neighbors reach h1 and h2 alike.
  const auto& topo = sim.topology();
  const int h1 = topo.find_node("h1");
  const int h2 = topo.find_node("h2");
  for (int router = 0; router < topo.router_count(); ++router) {
    std::vector<int> via_h1;
    std::vector<int> via_h2;
    for (const NextHop& hop : sim.fib(router, h1)) {
      if (hop.neighbor != h1) via_h1.push_back(hop.neighbor);
    }
    for (const NextHop& hop : sim.fib(router, h2)) {
      if (hop.neighbor != h2) via_h2.push_back(hop.neighbor);
    }
    EXPECT_EQ(via_h1, via_h2) << topo.node(router).name;
  }
}

TEST(SimulationShortcuts, SharedGatewayVectorSurvivesIncrementalEdits) {
  ConfigSet configs = asymmetric_two_per_gateway();
  const Simulation base(configs);
  const int h2 = base.topology().find_node("h2");
  SimulationDelta delta;
  ASSERT_TRUE(deny_first_transit_hop(configs, base, h2, delta));
  const Simulation incremental(configs, base, delta);
  const Simulation fresh(configs);
  expect_same_fibs(incremental, fresh);
  expect_matches_reference(incremental, configs);
  EXPECT_EQ(incremental.incremental_stats().destinations_rederived_by_router,
            1);
}

TEST(SimulationShortcuts, PerRouterRederivationWithAndWithoutStatics) {
  ConfigSet configs =
      make_scale_network(ScaleFamily::kWaxman, 80, 0x5CA1Eull + 80);
  const Simulation probe(configs);
  const auto& topo = probe.topology();
  const auto& hosts = topo.host_ids();
  ASSERT_GE(hosts.size(), 2u);
  const int host = hosts.front();
  const Ipv4Prefix prefix = probe.host_prefix(host);

  // Two transit routers toward `host`, one of them given a static route
  // for the host's LAN (via a neighbor that is not its FIB next hop), plus
  // a static-route router the delta never names.
  std::vector<int> transit;
  for (int r = 0; r < topo.router_count() && transit.size() < 2; ++r) {
    const FibView hops = probe.fib(r, host);
    if (!hops.empty() && hops.front().neighbor != host &&
        topo.links_of(r).size() >= 2) {
      transit.push_back(r);
    }
  }
  ASSERT_EQ(transit.size(), 2u);
  const auto add_static = [&](int r, const Ipv4Prefix& destination) {
    const int link = topo.links_of(r).back();
    configs.routers[static_cast<std::size_t>(topo.node(r).config_index)]
        .static_routes.push_back(
            StaticRoute{destination, topo.link(link).other_end(r).address});
  };
  add_static(transit[0], prefix);
  add_static((transit[1] + 7) % topo.router_count(),
             Ipv4Prefix{prefix.network(), 16});

  const Simulation base(configs);
  ASSERT_FALSE(base.flat().routers_with_statics().empty());
  SimulationDelta delta;
  for (const int r : transit) {
    const FibView hops = base.fib(r, host);
    ASSERT_FALSE(hops.empty());
    for (const NextHop& hop : hops) {
      if (hop.neighbor == host) continue;
      if (add_route_filter(configs, topo, r, topo.link(hop.link), prefix)) {
        delta.record(r, prefix);
      }
    }
  }
  ASSERT_FALSE(delta.empty());

  const Simulation incremental(configs, base, delta);
  const Simulation fresh(configs);
  expect_same_fibs(incremental, fresh);
  expect_matches_reference(incremental, configs);
  const auto& stats = incremental.incremental_stats();
  EXPECT_EQ(stats.destinations_rederived_by_router,
            stats.destinations_recomputed);
  EXPECT_GT(stats.destinations_rederived_by_router, 0);
  EXPECT_EQ(stats.distance_vectors_recomputed, 0);

  // Undo every filter: the per-router rule must restore the base exactly.
  SimulationDelta undo;
  for (const int r : transit) {
    for (const int link : topo.links_of(r)) {
      if (remove_route_filter(configs, topo, r, topo.link(link), prefix)) {
        undo.record(r, prefix);
      }
    }
  }
  const Simulation restored(configs, incremental, undo);
  expect_same_fibs(restored, base);
}

TEST(SimulationShortcuts, MultiAsTakesTheFullPath) {
  ConfigSet configs =
      make_scale_network(ScaleFamily::kMultiAs, 60, 0x5CA1Eull + 60);
  const Simulation base(configs);
  ASSERT_FALSE(base.flat().sessions().empty());
  SimulationDelta delta;
  int edited = 0;
  for (const int host : base.topology().host_ids()) {
    if (deny_first_transit_hop(configs, base, host, delta)) ++edited;
    if (edited == 3) break;
  }
  ASSERT_GT(edited, 0);
  const Simulation incremental(configs, base, delta);
  const Simulation fresh(configs);
  expect_same_fibs(incremental, fresh);
  expect_matches_reference(incremental, configs);
  const auto& stats = incremental.incremental_stats();
  EXPECT_GT(stats.destinations_recomputed, 0);
  EXPECT_EQ(stats.destinations_rederived_by_router, 0);
}

TEST(SimulationShortcuts, RipRecomputesDistancesAndSharesNothing) {
  ConfigSet configs =
      make_scale_network(ScaleFamily::kWaxmanRip, 60, 0x5CA1Eull + 60);
  const Simulation base(configs);
  EXPECT_EQ(base.incremental_stats().distance_vectors_shared, 0);
  SimulationDelta delta;
  int edited = 0;
  for (const int host : base.topology().host_ids()) {
    if (deny_first_transit_hop(configs, base, host, delta)) ++edited;
    if (edited == 3) break;
  }
  ASSERT_GT(edited, 0);
  const Simulation incremental(configs, base, delta);
  const Simulation fresh(configs);
  expect_same_fibs(incremental, fresh);
  expect_matches_reference(incremental, configs);
  const auto& stats = incremental.incremental_stats();
  EXPECT_GT(stats.distance_vectors_recomputed, 0);
  EXPECT_EQ(stats.destinations_rederived_by_router, 0);
}

}  // namespace
}  // namespace confmask

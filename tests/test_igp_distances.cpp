// The lazy IGP-distance handle (src/routing/igp_distances.hpp): its rows
// agree with the reference simulator's eager Bellman-Ford, a handle
// outlives the Simulation that made it, incremental generations and
// watch-mode indexes share one row cache, and concurrent readers on pool
// workers see the same distances as a serial reader.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/filters.hpp"
#include "src/core/original_index.hpp"
#include "src/netgen/builder.hpp"
#include "src/netgen/scale_families.hpp"
#include "src/routing/igp_distances.hpp"
#include "src/routing/reference_sim.hpp"
#include "src/routing/simulation.hpp"
#include "src/util/thread_pool.hpp"

namespace confmask {
namespace {

ConfigSet scale_network(ScaleFamily family, int routers) {
  return make_scale_network(family, routers,
                            0x5CA1Eull + static_cast<std::uint64_t>(routers));
}

struct Agreement {
  int pairs = 0;
  int mismatches = 0;
  int unreachable = 0;
  int cross_as = 0;
};

// Every (from, to) pair with `from` on a stride, checked against the
// reference oracle over the same configs.
Agreement compare_with_reference(const ConfigSet& configs,
                                 const IgpDistances& handle, int stride) {
  const ReferenceSimulation reference(configs);
  const Topology& topo = reference.topology();
  const FlatTopology flat = FlatTopology::build(topo, configs);
  Agreement agreement;
  for (int from = 0; from < topo.router_count(); from += stride) {
    for (int to = 0; to < topo.router_count(); ++to) {
      const long got = handle.distance(from, to);
      const long want = reference.igp_distance(from, to);
      ++agreement.pairs;
      if (got != want) {
        ++agreement.mismatches;
        ADD_FAILURE() << "igp distance " << topo.node(from).name << " -> "
                      << topo.node(to).name << ": handle " << got
                      << ", reference " << want;
      }
      if (want < 0) ++agreement.unreachable;
      if (flat.router_as(from) != flat.router_as(to)) {
        ++agreement.cross_as;
        EXPECT_EQ(got, -1) << "cross-AS pair " << topo.node(from).name
                           << " -> " << topo.node(to).name;
      }
      if (agreement.mismatches > 10) return agreement;
    }
  }
  return agreement;
}

TEST(IgpDistances, MatchesReferenceOnWaxmanOspf) {
  const ConfigSet configs = scale_network(ScaleFamily::kWaxman, 316);
  const Simulation sim(configs);
  const auto agreement = compare_with_reference(configs, sim.igp_distances(),
                                                /*stride=*/3);
  EXPECT_EQ(agreement.mismatches, 0);
  EXPECT_GT(agreement.pairs, 30000);
}

TEST(IgpDistances, MatchesReferenceOnWaxmanRip) {
  const ConfigSet configs = scale_network(ScaleFamily::kWaxmanRip, 316);
  const Simulation sim(configs);
  const auto agreement = compare_with_reference(configs, sim.igp_distances(),
                                                /*stride=*/3);
  EXPECT_EQ(agreement.mismatches, 0);
}

TEST(IgpDistances, MatchesReferenceOnMultiAsWithCrossAsPairs) {
  const ConfigSet configs = scale_network(ScaleFamily::kMultiAs, 316);
  const Simulation sim(configs);
  const auto agreement = compare_with_reference(configs, sim.igp_distances(),
                                                /*stride=*/3);
  EXPECT_EQ(agreement.mismatches, 0);
  // Several ASes: most pairs cross an AS boundary and read -1.
  EXPECT_GT(agreement.cross_as, agreement.pairs / 4);
  EXPECT_GE(agreement.unreachable, agreement.cross_as);
}

TEST(IgpDistances, UnreachableWithinOneDomainIsMinusOne) {
  NetworkBuilder builder;
  for (const char* name : {"a1", "a2", "a3", "b1", "b2"}) {
    builder.router(name);
    builder.enable_ospf(name);
  }
  builder.link("a1", "a2", 5, 7);  // asymmetric costs
  builder.link("a2", "a3");
  builder.link("b1", "b2");  // second island, no bridge
  builder.host("ha", "a1");
  builder.host("hb", "b1");
  const ConfigSet configs = builder.take();
  const Simulation sim(configs);
  const Topology& topo = sim.topology();
  const auto id = [&](const char* name) { return topo.find_node(name); };

  EXPECT_EQ(sim.igp_distance(id("a1"), id("a2")), 5);
  EXPECT_EQ(sim.igp_distance(id("a2"), id("a1")), 7);
  EXPECT_EQ(sim.igp_distance(id("a1"), id("a3")), 15);
  EXPECT_EQ(sim.igp_distance(id("a1"), id("a1")), 0);
  EXPECT_EQ(sim.igp_distance(id("a1"), id("b2")), -1);
  EXPECT_EQ(sim.igp_distance(id("b2"), id("a3")), -1);
  const auto agreement = compare_with_reference(configs, sim.igp_distances(),
                                                /*stride=*/1);
  EXPECT_EQ(agreement.mismatches, 0);
  EXPECT_EQ(agreement.unreachable, 12);  // 2·3 ordered pairs each way
}

OriginalIndex index_of(const ConfigSet& configs) {
  const Simulation sim(configs);  // destroyed on return
  return OriginalIndex(sim);
}

TEST(IgpDistances, HandleOutlivesItsSimulation) {
  const ConfigSet configs = scale_network(ScaleFamily::kWaxman, 100);
  IgpDistances handle;
  {
    const Simulation sim(configs);
    handle = sim.igp_distances();
  }
  const auto agreement = compare_with_reference(configs, handle,
                                                /*stride=*/7);
  EXPECT_EQ(agreement.mismatches, 0);
}

TEST(IgpDistances, OriginalIndexOutlivesItsSimulation) {
  const ConfigSet configs = scale_network(ScaleFamily::kMultiAs, 100);
  const OriginalIndex index = index_of(configs);
  const OriginalIndex copy = index;  // copies share the handle
  EXPECT_TRUE(copy.igp_distances().shares_rows_with(index.igp_distances()));

  const ReferenceSimulation reference(configs);
  const Topology& topo = reference.topology();
  int checked = 0;
  for (int from = 0; from < topo.router_count(); from += 9) {
    for (int to = 0; to < topo.router_count(); to += 4) {
      EXPECT_EQ(copy.igp_distance(topo.node(from).name, topo.node(to).name),
                reference.igp_distance(from, to));
      ++checked;
    }
  }
  EXPECT_GT(checked, 100);
  EXPECT_EQ(index.igp_distance("no-such-router", topo.node(0).name), -1);
}

TEST(IgpDistances, IncrementalGenerationsShareOneCache) {
  const ConfigSet configs = scale_network(ScaleFamily::kWaxman, 100);
  const Simulation sim(configs);
  const OriginalIndex base(sim);

  // A filter-only edit: the watch-mode incremental path.
  ConfigSet edited = configs;
  const Topology& topo = sim.topology();
  const Ipv4Prefix target = edited.hosts.front().prefix();
  SimulationDelta delta;
  for (int r = 0; r < topo.router_count() && delta.empty(); ++r) {
    const auto& incident = topo.links_of(r);
    if (incident.empty()) continue;
    if (add_route_filter(edited, topo, r, topo.link(incident.front()),
                         target)) {
      delta.record(r, target);
    }
  }
  ASSERT_FALSE(delta.empty());
  const Simulation next_sim(edited, sim, delta);
  const OriginalIndex next(next_sim, base, {target});

  EXPECT_TRUE(next_sim.igp_distances().shares_rows_with(sim.igp_distances()));
  EXPECT_TRUE(next.igp_distances().shares_rows_with(base.igp_distances()));
  EXPECT_TRUE(next.igp_distances().shares_rows_with(sim.igp_distances()));
  // A fresh build of the same configs has its own cache.
  const Simulation fresh(edited);
  EXPECT_FALSE(fresh.igp_distances().shares_rows_with(sim.igp_distances()));
  for (int from = 0; from < topo.router_count(); from += 11) {
    for (int to = 0; to < topo.router_count(); to += 3) {
      EXPECT_EQ(next.igp_distance(topo.node(from).name, topo.node(to).name),
                fresh.igp_distance(from, to));
    }
  }
}

TEST(IgpDistances, ConcurrentReadersOnPoolWorkers) {
  const ConfigSet configs = scale_network(ScaleFamily::kMultiAs, 316);
  const Simulation sim(configs);
  const int n = sim.topology().router_count();
  // Many tasks per source row, so first-use computation races with
  // readers of the same row and of neighboring rows.
  constexpr int kSources = 24;
  constexpr int kTasks = 960;
  const IgpDistances shared = sim.igp_distances();
  std::vector<long> parallel(static_cast<std::size_t>(kTasks) *
                             static_cast<std::size_t>(n));
  ThreadPool pool(4);
  pool.parallel_for(kTasks, [&](std::size_t task) {
    const int from = static_cast<int>((task * 13) % kSources) * (n / kSources);
    for (int to = 0; to < n; ++to) {
      parallel[task * static_cast<std::size_t>(n) +
               static_cast<std::size_t>(to)] = shared.distance(from, to);
    }
  });

  const Simulation serial_sim(configs);  // its own, cold cache
  for (std::size_t task = 0; task < kTasks; ++task) {
    const int from = static_cast<int>((task * 13) % kSources) * (n / kSources);
    for (int to = 0; to < n; ++to) {
      ASSERT_EQ(parallel[task * static_cast<std::size_t>(n) +
                         static_cast<std::size_t>(to)],
                serial_sim.igp_distance(from, to))
          << "task " << task << " from " << from << " to " << to;
    }
  }
}

}  // namespace
}  // namespace confmask

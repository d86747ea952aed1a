// The id-keyed OriginalIndex (src/core/original_index.hpp): every answer of
// `is_original_edge` / `is_original_next_hop`, by id and by name, equals a
// brute-force name-keyed oracle built from Simulation::fib; ids of a later
// topology whose host ids shifted (fake routers) map back by name; and the
// watch-mode incremental constructor equals a full rebuild.
#include "src/core/original_index.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/core/filters.hpp"
#include "src/core/node_addition.hpp"
#include "src/netgen/scale_families.hpp"
#include "src/routing/simulation.hpp"
#include "src/util/prefix_allocator.hpp"
#include "src/util/rng.hpp"

namespace confmask {
namespace {

// The pre-id OriginalIndex semantics, by name: (min, max) router-name
// pairs, and (router, host) -> set of next-hop names.
struct NameOracle {
  std::set<std::pair<std::string, std::string>> edges;
  std::map<std::pair<std::string, std::string>, std::set<std::string>> fib;

  explicit NameOracle(const Simulation& sim) {
    const Topology& topo = sim.topology();
    for (const auto& link : topo.links()) {
      if (!topo.is_router(link.a.node) || !topo.is_router(link.b.node)) {
        continue;
      }
      edges.insert(std::minmax(topo.node(link.a.node).name,
                               topo.node(link.b.node).name));
    }
    for (int r = 0; r < topo.router_count(); ++r) {
      for (const int host : topo.host_ids()) {
        for (const NextHop& hop : sim.fib(r, host)) {
          fib[{topo.node(r).name, topo.node(host).name}].insert(
              topo.node(hop.neighbor).name);
        }
      }
    }
  }

  [[nodiscard]] bool edge(const std::string& a, const std::string& b) const {
    return edges.count(std::minmax(a, b)) != 0;
  }
  [[nodiscard]] bool next_hop(const std::string& router,
                              const std::string& host,
                              const std::string& hop) const {
    const auto it = fib.find({router, host});
    return it != fib.end() && it->second.count(hop) != 0;
  }
};

ConfigSet scale_network(ScaleFamily family, int routers) {
  return make_scale_network(family, routers,
                            0x1D5ull + static_cast<std::uint64_t>(routers));
}

// Every query the pipeline can ask over `topo` (a topology of the original
// configs or of a later state), by id through `original_ids` and by name,
// against the oracle. Candidate next hops: every neighbor of the router,
// the destination host, and one node that is no neighbor.
void expect_index_matches_oracle(const OriginalIndex& index,
                                 const NameOracle& oracle,
                                 const Topology& topo) {
  const std::vector<int> ids = index.original_ids(topo);
  const auto name = [&](int v) -> const std::string& {
    return topo.node(v).name;
  };
  int checked = 0;
  for (int r = 0; r < topo.router_count(); ++r) {
    for (int s = 0; s < topo.router_count(); ++s) {
      const bool want = oracle.edge(name(r), name(s));
      ASSERT_EQ(index.is_original_edge(name(r), name(s)), want)
          << name(r) << " - " << name(s);
      ASSERT_EQ(index.is_original_edge(ids[static_cast<std::size_t>(r)],
                                       ids[static_cast<std::size_t>(s)]),
                want)
          << name(r) << " - " << name(s) << " by id";
    }
    std::vector<int> candidates;
    for (const int link : topo.links_of(r)) {
      candidates.push_back(topo.link(link).other_end(r).node);
    }
    candidates.push_back((r + topo.router_count() / 2) % topo.router_count());
    for (const int host : topo.host_ids()) {
      candidates.push_back(host);
      for (const int hop : candidates) {
        const bool want = oracle.next_hop(name(r), name(host), name(hop));
        ASSERT_EQ(index.is_original_next_hop(name(r), name(host), name(hop)),
                  want)
            << name(r) << " -> " << name(host) << " via " << name(hop);
        const int original_hop = ids[static_cast<std::size_t>(hop)];
        ASSERT_EQ(original_hop >= 0 &&
                      index.is_original_next_hop(
                          ids[static_cast<std::size_t>(r)],
                          ids[static_cast<std::size_t>(host)], original_hop),
                  want)
            << name(r) << " -> " << name(host) << " via " << name(hop)
            << " by id";
        ++checked;
      }
      candidates.pop_back();
    }
  }
  EXPECT_GT(checked, 0);
}

// The FIB next hops an oracle knows must all answer true (the sweep above
// is dominated by negatives).
int count_positive_next_hops(const OriginalIndex& index,
                             const NameOracle& oracle) {
  int positives = 0;
  for (const auto& [key, hops] : oracle.fib) {
    for (const auto& hop : hops) {
      EXPECT_TRUE(index.is_original_next_hop(key.first, key.second, hop));
      ++positives;
    }
  }
  return positives;
}

class OriginalIndexFamilies : public ::testing::TestWithParam<ScaleFamily> {};

TEST_P(OriginalIndexFamilies, AnswersEqualTheNameKeyedOracle) {
  const ConfigSet configs = scale_network(GetParam(), 60);
  const Simulation sim(configs);
  const OriginalIndex index(sim);
  const NameOracle oracle(sim);
  expect_index_matches_oracle(index, oracle, sim.topology());
  EXPECT_GT(count_positive_next_hops(index, oracle), 0);
  // On the original topology the id map is the identity.
  const std::vector<int> ids = index.original_ids(sim.topology());
  for (int v = 0; v < sim.topology().node_count(); ++v) {
    EXPECT_EQ(ids[static_cast<std::size_t>(v)], v);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, OriginalIndexFamilies,
    ::testing::Values(ScaleFamily::kWaxman, ScaleFamily::kWaxmanRip,
                      ScaleFamily::kMultiAs),
    [](const ::testing::TestParamInfo<ScaleFamily>& info) {
      std::string name = scale_family_name(info.param);
      std::erase(name, '-');
      return name;
    });

TEST(OriginalIndex, FakeRoutersShiftHostIdsButNamesMapBack) {
  const ConfigSet original = scale_network(ScaleFamily::kWaxman, 60);
  const Simulation sim(original);
  const OriginalIndex index(sim);
  const NameOracle oracle(sim);

  ConfigSet anonymized = original;
  PrefixAllocator allocator;
  for (const auto& prefix : original.used_prefixes()) {
    allocator.reserve(prefix);
  }
  Rng rng(7);
  NodeAdditionOptions options;
  options.fake_routers = 3;
  const auto outcome =
      add_fake_routers(anonymized, index, options, rng, allocator);
  ASSERT_EQ(outcome.fake_routers.size(), 3u);
  const Simulation later(anonymized);
  const Topology& topo = later.topology();
  ASSERT_GT(topo.router_count(), sim.topology().router_count());

  const std::vector<int> ids = index.original_ids(topo);
  int shifted = 0;
  for (int v = 0; v < topo.node_count(); ++v) {
    const int want = sim.topology().find_node(topo.node(v).name);
    EXPECT_EQ(ids[static_cast<std::size_t>(v)], want) << topo.node(v).name;
    if (want >= 0 && want != v) ++shifted;
  }
  EXPECT_GT(shifted, 0) << "fake routers must shift host ids";
  for (const auto& fake : outcome.fake_routers) {
    EXPECT_EQ(ids[static_cast<std::size_t>(topo.find_node(fake))], -1);
  }
  for (const auto& fake : outcome.fake_hosts) {
    EXPECT_EQ(ids[static_cast<std::size_t>(topo.find_node(fake))], -1);
  }
  expect_index_matches_oracle(index, oracle, topo);
}

TEST(OriginalIndex, WatchModeSpliceEqualsFullRebuild) {
  const ConfigSet base_configs = scale_network(ScaleFamily::kWaxman, 60);
  const auto base_sim = std::make_shared<const Simulation>(base_configs);
  const OriginalIndex base_index(*base_sim);

  // A filter-only edit: deny three host prefixes on a transit hop each.
  ConfigSet edited = base_configs;
  const Topology& topo = base_sim->topology();
  SimulationDelta delta;
  std::vector<Ipv4Prefix> dirty;
  for (const int host : topo.host_ids()) {
    if (dirty.size() == 3) break;
    const Ipv4Prefix prefix = base_sim->host_prefix(host);
    for (int r = 0; r < topo.router_count() && dirty.size() < 3; ++r) {
      const FibView hops = base_sim->fib(r, host);
      if (hops.empty() || hops.front().neighbor == host) continue;
      if (add_route_filter(edited, topo, r, topo.link(hops.front().link),
                           prefix)) {
        delta.record(r, prefix);
        dirty.push_back(prefix);
        break;
      }
    }
  }
  ASSERT_EQ(dirty.size(), 3u);

  const Simulation incremental_sim(edited, *base_sim, delta);
  const OriginalIndex spliced(incremental_sim, base_index, dirty);
  const Simulation fresh_sim(edited);
  const OriginalIndex rebuilt(fresh_sim);

  EXPECT_TRUE(spliced.data_plane() == rebuilt.data_plane());
  EXPECT_FALSE(spliced.data_plane() == base_index.data_plane())
      << "the edit must change some flow, or the splice is untested";
  EXPECT_EQ(spliced.real_hosts(), rebuilt.real_hosts());
  EXPECT_EQ(spliced.routers(), rebuilt.routers());
  const NameOracle oracle(fresh_sim);
  expect_index_matches_oracle(spliced, oracle, fresh_sim.topology());
  expect_index_matches_oracle(rebuilt, oracle, fresh_sim.topology());
}

}  // namespace
}  // namespace confmask

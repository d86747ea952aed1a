// Differential tests: the fast simulation engine against the independent
// reference oracle (src/routing/reference_sim) — on the curated paper
// networks, on scale-family networks, on a seeded random corpus, and on
// the repro-minimization machinery itself. See DESIGN.md §10 for the
// modeling rules the two engines share by contract.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "src/config/emit.hpp"
#include "src/netgen/networks.hpp"
#include "src/netgen/random_network.hpp"
#include "src/netgen/scale_families.hpp"
#include "src/routing/dataplane.hpp"
#include "src/routing/reference_sim.hpp"
#include "src/routing/simulation.hpp"
#include "src/testing/differential.hpp"

namespace confmask {
namespace {

/// FIB-level then data-plane-level agreement between the two engines.
void expect_oracle_agrees(const ConfigSet& configs, const std::string& label) {
  const Simulation fast(configs);
  const ReferenceSimulation ref(configs);
  const std::string mismatch = first_fib_mismatch(fast, ref);
  ASSERT_TRUE(mismatch.empty()) << label << ": " << mismatch;
  const DataPlane ref_dp = ref.extract_data_plane();
  ASSERT_FALSE(ref.last_extraction_truncated()) << label;
  const auto diff = fast.extract_data_plane().diff(ref_dp, 4);
  EXPECT_TRUE(diff.empty()) << label << ": " << diff.size()
                            << " data-plane divergence(s), first at "
                            << diff.front().source << " -> "
                            << diff.front().destination;
}

TEST(DifferentialOracle, AgreesOnFigure2) {
  expect_oracle_agrees(make_figure2(), "figure2");
}

// Acceptance gate: the oracle must agree with the fast engine on all eight
// Table-2 evaluation networks A–H (BGP+OSPF, ISP OSPF, and fat trees).
TEST(DifferentialOracle, AgreesOnAllEvaluationNetworks) {
  for (const auto& net : evaluation_networks()) {
    expect_oracle_agrees(net.configs, net.id + " (" + net.name + ")");
  }
}

// Undecorated scale networks, larger than any curated one: OSPF at 500
// routers, RIP at 200, and eBGP hot-potato across AS blocks at 300.
TEST(DifferentialOracle, AgreesOnUndecoratedScaleNetworks) {
  expect_oracle_agrees(make_scale_network(ScaleFamily::kWaxman, 500, 21),
                       "waxman-ospf-500");
  expect_oracle_agrees(make_scale_network(ScaleFamily::kWaxmanRip, 200, 22),
                       "waxman-rip-200");
  expect_oracle_agrees(make_scale_network(ScaleFamily::kMultiAs, 300, 23),
                       "multi-as-300");
}

// A deterministic slice of the fuzz corpus: every seed runs the full check
// ladder (oracle, incremental ≡ full after edits, jobs-1 ≡ jobs-N). The CI
// `differential` job runs the same corpus two hundred seeds deep. The
// slice must reach the incremental constructor's per-router rule on a
// network with static routes, or that rule's incremental ≡ full check
// would be vacuous.
TEST(DifferentialOracle, RandomCorpusAgrees) {
  DifferentialOptions options;  // empty repro_dir: tests write no artifacts
  int per_router_with_statics = 0;
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const DifferentialResult result = run_differential_case(seed, options);
    EXPECT_TRUE(result.ok)
        << "seed " << seed << ": "
        << (result.finding
                ? result.finding->check + " — " + result.finding->detail
                : std::string{});
    if (result.per_router_with_statics) ++per_router_with_statics;
  }
  EXPECT_GT(per_router_with_statics, 0);
}

// Every scale family at 500 routers, decorated, through the same ladder
// (seed i picks family i%4, as `fuzz_differential --scale` does):
// flat ≡ oracle on the FIBs and data plane, incremental ≡ full after
// random filter edits, jobs-1 ≡ jobs-N. This is where the CSR/SoA core's
// layout tricks (interned filter slots, column arenas, lazy IGP rows)
// face networks three times deeper than the curated set.
TEST(DifferentialOracle, ScaleFamilyCorpusAgrees) {
  constexpr ScaleFamily kFamilies[] = {
      ScaleFamily::kWaxman, ScaleFamily::kWaxmanRip, ScaleFamily::kMultiAs,
      ScaleFamily::kPreferentialAttachment};
  DifferentialOptions options;  // empty repro_dir: tests write no artifacts
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    ConfigSet configs = make_scale_network(kFamilies[seed % 4], 500, seed);
    decorate_scale_network(configs, seed);
    const DifferentialResult result =
        run_differential_checks(configs, seed, options);
    EXPECT_TRUE(result.ok)
        << "seed " << seed << " (" << scale_family_name(kFamilies[seed % 4])
        << "): "
        << (result.finding
                ? result.finding->check + " — " + result.finding->detail
                : std::string{});
  }
}

// Replaying a repro requires the seed to fully determine the decorated
// network, byte for byte.
TEST(DifferentialOracle, GenerationAndDecorationAreDeterministic) {
  const DifferentialOptions options;
  for (const std::uint64_t seed : {3ull, 11ull, 17ull}) {
    ConfigSet first = make_random_network(options.network, seed);
    decorate_random_network(first, seed, options);
    ConfigSet second = make_random_network(options.network, seed);
    decorate_random_network(second, seed, options);
    ASSERT_EQ(first.routers.size(), second.routers.size()) << seed;
    ASSERT_EQ(first.hosts.size(), second.hosts.size()) << seed;
    for (std::size_t i = 0; i < first.routers.size(); ++i) {
      EXPECT_EQ(emit_router(first.routers[i]), emit_router(second.routers[i]))
          << "seed " << seed << " router " << i;
    }
    for (std::size_t i = 0; i < first.hosts.size(); ++i) {
      EXPECT_EQ(emit_host(first.hosts[i]), emit_host(second.hosts[i]))
          << "seed " << seed << " host " << i;
    }
  }
}

// Regression (mutation test, seed 2): the greedy minimizer held a
// reference into the config set across shrink attempts, but a successful
// attempt replaces the set wholesale, so the reference dangled — a
// heap-use-after-free under ASan the moment any real divergence was being
// minimized. An always-true predicate makes every deletion "succeed" and
// walks every shrink loop through the replacement path.
TEST(DifferentialOracle, MinimizerSurvivesEveryShrinkSucceeding) {
  const DifferentialOptions options;
  ConfigSet configs = make_random_network(options.network, 2);
  decorate_random_network(configs, 2, options);
  const ConfigSet minimized = minimize_failing_config(
      std::move(configs), [](const ConfigSet&) { return true; });
  EXPECT_TRUE(minimized.routers.empty());
  EXPECT_TRUE(minimized.hosts.empty());
}

// The minimizer must keep exactly what the predicate pins and drop the
// rest (hosts go first, so none survive a router-only predicate).
TEST(DifferentialOracle, MinimizerKeepsOnlyFailureRelevantElements) {
  const DifferentialOptions options;
  ConfigSet configs = make_random_network(options.network, 7);
  decorate_random_network(configs, 7, options);
  const std::string keep = configs.routers.front().hostname;
  const ConfigSet minimized = minimize_failing_config(
      std::move(configs), [&](const ConfigSet& candidate) {
        for (const auto& router : candidate.routers) {
          if (router.hostname == keep) return true;
        }
        return false;
      });
  ASSERT_EQ(minimized.routers.size(), 1u);
  EXPECT_EQ(minimized.routers.front().hostname, keep);
  EXPECT_TRUE(minimized.hosts.empty());
  EXPECT_TRUE(minimized.routers.front().static_routes.empty());
}

}  // namespace
}  // namespace confmask

// Output pins for the pipeline on fixed-seed scale bundles.
//
// Each case runs run_pipeline on a decorated, canonicalized scale-family
// network and compares the FNV-1a/64 digest of the canonical anonymized
// bundle (plus the verification verdict) against a value recorded before
// the IGP-distance layer was made lazy. Any change to how fake links are
// priced, how fake routers are wired or which RNG draws happen shows up
// here as a digest mismatch. The cases cover both cost-policy branches
// that read IGP distances (kMinCost over OSPF costs, RIP hop counts and
// several ASes) and the one that reads none (kLarge), plus the
// node-addition extension, whose fake-router link costs come from
// OriginalIndex::igp_distance.
//
// A deliberate output change must re-record the digests (the failure
// message prints the new value) and say why in CHANGES.md.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "src/config/emit.hpp"
#include "src/core/confmask.hpp"
#include "src/netgen/scale_families.hpp"
#include "src/testing/differential.hpp"
#include "src/util/hash.hpp"

namespace confmask {
namespace {

struct GoldenCase {
  ScaleFamily family;
  int routers;
  std::uint64_t network_seed;
  FakeLinkCostPolicy policy;
  int fake_routers;
};

struct GoldenOutcome {
  std::string digest;
  bool verified;
};

GoldenOutcome run_case(const GoldenCase& golden) {
  ConfigSet configs = make_scale_network(golden.family, golden.routers,
                                         golden.network_seed);
  decorate_scale_network(configs, golden.network_seed);
  configs = canonicalize(std::move(configs));
  ConfMaskOptions options;
  options.k_r = 6;
  options.k_h = 2;
  options.noise_p = 0.1;
  options.seed = 1;
  options.cost_policy = golden.policy;
  options.fake_routers = golden.fake_routers;
  const PipelineResult result =
      run_pipeline(configs, options, EquivalenceStrategy::kConfMask);
  return {hex64(fnv1a64(canonical_config_set_text(result.anonymized))),
          result.functionally_equivalent};
}

TEST(GoldenDigests, WaxmanOspfMinCost316) {
  const auto outcome = run_case({ScaleFamily::kWaxman, 316, 0x5CA1E + 316,
                                 FakeLinkCostPolicy::kMinCost, 0});
  EXPECT_EQ(outcome.digest, "a83a2b3cce1602ee");
  EXPECT_TRUE(outcome.verified);
}

TEST(GoldenDigests, WaxmanRipMinCost316) {
  const auto outcome = run_case({ScaleFamily::kWaxmanRip, 316, 0x5CA1E + 316,
                                 FakeLinkCostPolicy::kMinCost, 0});
  EXPECT_EQ(outcome.digest, "2ae5129bb0f563c5");
  EXPECT_TRUE(outcome.verified);
}

TEST(GoldenDigests, MultiAsMinCost316) {
  const auto outcome = run_case({ScaleFamily::kMultiAs, 316, 0x5CA1E + 316,
                                 FakeLinkCostPolicy::kMinCost, 0});
  EXPECT_EQ(outcome.digest, "2c355878a2749396");
  EXPECT_TRUE(outcome.verified);
}

TEST(GoldenDigests, WaxmanOspfFakeRouters) {
  const auto outcome = run_case({ScaleFamily::kWaxman, 316, 0x5CA1E + 316,
                                 FakeLinkCostPolicy::kMinCost, 4});
  EXPECT_EQ(outcome.digest, "b9fa908dd11a1c4b");
  EXPECT_TRUE(outcome.verified);
}

TEST(GoldenDigests, MultiAsLargeCost316) {
  const auto outcome = run_case({ScaleFamily::kMultiAs, 316, 0x5CA1E + 316,
                                 FakeLinkCostPolicy::kLarge, 0});
  EXPECT_EQ(outcome.digest, "add1914c2ae98763");
  EXPECT_TRUE(outcome.verified);
}

}  // namespace
}  // namespace confmask

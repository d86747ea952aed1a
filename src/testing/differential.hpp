// Cross-engine differential testing: the fast simulation engine checked
// against the independent reference oracle on randomized networks.
//
// One differential case, from one seed:
//   1. generate a random network (netgen/random_network) and decorate it
//      with random packet ACLs, static routes and route filters — the
//      semantic features the curated Table-2 networks barely exercise;
//   2. assert fast engine ≡ reference oracle, both at the FIB level and on
//      the extracted data plane (DataPlane::diff);
//   3. apply random filter edits and assert incremental re-simulation ≡
//      full re-simulation, and that the edited network still matches the
//      oracle;
//   4. assert the engine is worker-count invariant (--jobs 1 ≡ --jobs N).
// On mismatch the case is minimized (greedy config-element removal while
// the failure reproduces) and dumped as a repro artifact: the emitted
// configuration files plus a README naming the seed and the failing check
// — exactly what DESIGN.md §10 describes turning into a regression test.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/netgen/random_network.hpp"
#include "src/routing/dataplane.hpp"

namespace confmask {

class ReferenceSimulation;
class Simulation;

/// First FIB mismatch between the fast engine and the oracle as
/// human-readable text, or empty when every (router, destination) column
/// agrees entry for entry and in order. Stricter than comparing extracted
/// data planes: it also covers black-holed and loop-forming entries that
/// never become a complete path.
[[nodiscard]] std::string first_fib_mismatch(const Simulation& fast,
                                             const ReferenceSimulation& ref);

struct DifferentialOptions {
  RandomNetworkOptions network;  ///< topology / protocol-mix knobs
  int max_route_filters = 4;     ///< random pre-decoration filters
  int max_static_routes = 2;
  int max_acl_bindings = 2;
  int incremental_edits = 3;     ///< filter edits for the incremental check
  unsigned jobs_high = 4;        ///< worker count for the jobs-N check
  bool check_incremental = true;
  bool check_jobs = true;
  /// When non-empty, failing cases are minimized and dumped under
  /// `<repro_dir>/seed-<seed>/`.
  std::string repro_dir;
};

/// One confirmed divergence. `check` is which invariant broke: "oracle",
/// "fib", "oracle_after_edits", "fib_after_edits", "incremental", "jobs".
struct DifferentialFinding {
  std::uint64_t seed = 0;
  std::string check;
  std::string detail;                    ///< human-readable first mismatch
  std::vector<DataPlaneDiffEntry> diff;  ///< data-plane divergences, if any
  std::string repro_path;                ///< artifact directory, if written
};

struct DifferentialResult {
  std::uint64_t seed = 0;
  bool ok = true;
  /// True when the reference enumeration hit the path/depth caps and the
  /// oracle comparison was skipped (truncated sets are order-dependent).
  bool truncated_skip = false;
  /// True when the incremental ≡ full check re-derived at least one dirty
  /// link-state destination router by router (the incremental
  /// constructor's per-router rule) in a network with static routes.
  bool per_router_with_statics = false;
  std::optional<DifferentialFinding> finding;
};

/// Runs the full check ladder for one seed.
[[nodiscard]] DifferentialResult run_differential_case(
    std::uint64_t seed, const DifferentialOptions& options = {});

/// Runs the check ladder over an EXISTING configuration set — the seed only
/// labels findings and drives the incremental-edit stream. This is what
/// run_differential_case calls after generating its random network; the
/// scale corpora (netgen/scale_families) feed their networks through the
/// same ladder here. `options.network` is ignored.
[[nodiscard]] DifferentialResult run_differential_checks(
    const ConfigSet& configs, std::uint64_t seed,
    const DifferentialOptions& options = {});

/// Semantic decoration scaled to network size (route filters ≈ R/20,
/// statics and ACL bindings ≈ R/50) for scale-family networks, reusing the
/// same decoration machinery as the random fuzz corpus. Deterministic in
/// (configs, seed).
void decorate_scale_network(ConfigSet& configs, std::uint64_t seed);

struct DifferentialCorpusStats {
  int cases = 0;
  int failures = 0;
  int truncated_skips = 0;
  int per_router_with_statics = 0;  ///< cases with that flag set
  std::vector<DifferentialFinding> findings;
};

/// Runs cases for seeds [start_seed, start_seed + cases). A positive
/// `budget_seconds` stops early (after the current case) once exceeded —
/// the CI job uses this to pin wall-clock cost while keeping seeds fixed.
[[nodiscard]] DifferentialCorpusStats run_differential_corpus(
    std::uint64_t start_seed, int cases, const DifferentialOptions& options,
    double budget_seconds = 0.0);

/// The random semantic decoration applied on top of make_random_network
/// (exposed for tests that need a decorated network without the checks).
void decorate_random_network(ConfigSet& configs, std::uint64_t seed,
                             const DifferentialOptions& options);

/// Greedy repro minimizer: repeatedly deletes one config element at a time
/// (hosts, routers, static routes, ACL bindings / entries, prefix-list
/// entries, distribute lists) and keeps every deletion under which
/// `still_fails` holds, until a fixpoint. `still_fails` must tolerate any
/// subset of the original elements, including empty router / host sets.
[[nodiscard]] ConfigSet minimize_failing_config(
    ConfigSet configs,
    const std::function<bool(const ConfigSet&)>& still_fails);

}  // namespace confmask

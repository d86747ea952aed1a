#include "perfbench/staged.hpp"

#include <algorithm>
#include <memory>

#include "perfbench/common.hpp"
#include "perfbench/trace.hpp"
#include "src/config/emit.hpp"
#include "src/core/original_index.hpp"
#include "src/core/route_anonymity.hpp"
#include "src/core/route_equivalence.hpp"
#include "src/core/topology_anonymization.hpp"
#include "src/routing/simulation.hpp"
#include "src/util/prefix_allocator.hpp"

namespace perfbench {

using namespace confmask;

PipelineResult staged_pipeline(const ConfigSet& original,
                               const ConfMaskOptions& options,
                               const PatchContext* patch_base,
                               PatchCapture* patch_capture) {
  if (patch_capture != nullptr) {
    patch_capture->reset();
    patch_capture->options = options;
  }
  const std::uint64_t runs_before = Simulation::runs_on_this_thread();
  PipelineResult result;
  result.anonymized = original;
  result.stats.original_lines = config_set_line_stats(original);

  const auto stage_seed_from = [&](const PatchSnapshot& snapshot,
                                   const ConfigSet& configs) {
    auto seeded = seed_simulation(configs, snapshot);
    ++(seeded != nullptr ? result.stats.patched_stages
                         : result.stats.patch_fallbacks);
    return seeded;
  };

  // Preprocess: the original network's simulation (seeded from the patch
  // base when the diff allows), then its OriginalIndex.
  OriginalReusePlan reuse_plan;
  std::shared_ptr<const Simulation> sim;
  traced("routing.original_sim", [&] {
    run_stage(PipelineStage::kPreprocess, [&] {
      if (patch_base != nullptr) {
        reuse_plan = plan_original_reuse(original, *patch_base);
        sim = reuse_plan.sim;
        ++(sim != nullptr ? result.stats.patched_stages
                          : result.stats.patch_fallbacks);
      }
      if (sim == nullptr) sim = std::make_shared<const Simulation>(original);
    });
  });
  const bool seeded = reuse_plan.sim != nullptr;
  const OriginalIndex index = traced("core.original_index", [&] {
    return run_stage(PipelineStage::kPreprocess, [&]() -> OriginalIndex {
      if (patch_capture != nullptr) {
        patch_capture->original.configs =
            std::make_shared<const ConfigSet>(original);
        patch_capture->original.live = sim;
      }
      if (seeded && reuse_plan.index_reusable &&
          patch_base->index != nullptr) {
        return OriginalIndex(*sim, *patch_base->index, reuse_plan.dirty);
      }
      return OriginalIndex(*sim);
    });
  });
  if (patch_capture != nullptr) {
    patch_capture->index = std::make_shared<const OriginalIndex>(index);
  }
  result.original_dp = index.data_plane();

  // Step 1: topology anonymization, replayed from the base when proven
  // unchanged.
  PrefixAllocator allocator(
      options.link_pool.value_or(PrefixAllocator::default_link_pool()),
      options.host_pool.value_or(PrefixAllocator::default_host_pool()));
  Rng rng(options.seed);
  const auto topo_outcome = traced("core.topology_anon", [&] {
    for (const auto& prefix : original.used_prefixes()) {
      allocator.reserve(prefix);
    }
    return run_stage(PipelineStage::kTopologyAnon, [&] {
      if (patch_base != nullptr && seeded && patch_base->options == options) {
        TopologyAnonymizationOutcome grafted;
        if (graft_topology(result.anonymized, *patch_base, rng, allocator,
                           grafted)) {
          ++result.stats.patched_stages;
          return grafted;
        }
      }
      if (patch_base != nullptr) ++result.stats.patch_fallbacks;
      return anonymize_topology(result.anonymized, options.k_r,
                                options.cost_policy, rng, allocator);
    });
  });
  if (patch_capture != nullptr) {
    patch_capture->topology.result =
        std::make_shared<const ConfigSet>(result.anonymized);
    patch_capture->topology.rng = rng;
    patch_capture->topology.allocator = allocator;
    patch_capture->topology.outcome = topo_outcome;
    patch_capture->topology.valid = true;
  }
  result.stats.fake_intra_links = topo_outcome.intra_as_links.size();
  result.stats.fake_inter_links = topo_outcome.inter_as_links.size();

  // Step 2.1: Algorithm 1.
  const bool patching = patch_base != nullptr || patch_capture != nullptr;
  StageSeed equivalence_seed;
  const auto equivalence = traced("core.equivalence", [&] {
    return run_stage(PipelineStage::kRouteEquivalence, [&] {
      if (patch_capture != nullptr) {
        patch_capture->equivalence.configs =
            std::make_shared<const ConfigSet>(result.anonymized);
      }
      if (patch_base != nullptr) {
        equivalence_seed.initial =
            stage_seed_from(patch_base->equivalence, result.anonymized);
      }
      return enforce_route_equivalence(
          result.anonymized, index, options.max_equivalence_iterations,
          options.incremental_simulation,
          patching ? &equivalence_seed : nullptr);
    });
  });
  if (patch_capture != nullptr) {
    patch_capture->equivalence.live = equivalence_seed.entry_sim;
  }
  result.stats.equivalence_iterations = equivalence.iterations;
  result.stats.equivalence_filters = equivalence.filters_added;
  result.equivalence_converged = equivalence.converged;

  // Step 2.2: fake hosts, then Algorithm 2.
  traced("core.fake_hosts", [&] {
    run_stage(PipelineStage::kRouteAnonymity, [&] {
      result.fake_hosts =
          add_fake_hosts(result.anonymized, index, options.k_h, allocator);
    });
  });
  result.stats.fake_hosts = result.fake_hosts.size();
  std::shared_ptr<Simulation> final_simulation;
  StageSeed anonymity_seed;
  traced("core.anonymity", [&] {
    run_stage(PipelineStage::kRouteAnonymity, [&] {
      if (patch_capture != nullptr) {
        patch_capture->anonymity.configs =
            std::make_shared<const ConfigSet>(result.anonymized);
      }
      if (patch_base != nullptr && !result.fake_hosts.empty() &&
          options.noise_p > 0.0) {
        anonymity_seed.initial =
            stage_seed_from(patch_base->anonymity, result.anonymized);
      }
      const auto anonymity = anonymize_routes(
          result.anonymized, result.fake_hosts, options.noise_p, rng,
          options.incremental_simulation, &final_simulation,
          patching ? &anonymity_seed : nullptr);
      result.stats.anonymity_filters = anonymity.filters_added;
      result.stats.anonymity_rollbacks = anonymity.filters_rolled_back;
    });
  });
  if (patch_capture != nullptr) {
    patch_capture->anonymity.live = anonymity_seed.entry_sim;
  }

  // Verification: anonymized data plane over real hosts == original.
  traced("core.verify", [&] {
    run_stage(PipelineStage::kVerification, [&] {
      if (final_simulation != nullptr) {
        result.anonymized_dp = final_simulation->extract_data_plane();
      } else {
        const Simulation fresh(result.anonymized);
        result.anonymized_dp = fresh.extract_data_plane();
      }
      final_simulation.reset();
    });
    result.functionally_equivalent = result.anonymized_dp.equals_restricted(
        result.original_dp, index.real_hosts());
  });

  result.stats.anonymized_lines = config_set_line_stats(result.anonymized);
  result.stats.simulations = Simulation::runs_on_this_thread() - runs_before;
  return result;
}

namespace {

// The guarded runner's ladder arithmetic (pipeline_runner.cpp).
std::uint64_t next_seed(std::uint64_t seed) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Ipv4Prefix widen(const Ipv4Prefix& pool, int bits) {
  return Ipv4Prefix(pool.network(), std::max(4, pool.length() - bits));
}

}  // namespace

StagedOutcome staged_guarded(const ConfigSet& original,
                             const ConfMaskOptions& options,
                             const RetryPolicy& policy,
                             const PatchContext* patch_base,
                             PatchCapture* patch_capture) {
  StagedOutcome out;
  ConfMaskOptions opts = options;
  int reseeds = 0;
  int pool_expansions = 0;
  const auto try_reseed = [&] {
    if (reseeds >= policy.max_reseeds) return false;
    ++reseeds;
    opts.seed = next_seed(opts.seed);
    return true;
  };
  const auto try_relax_kr = [&] {
    if (opts.k_r - policy.k_r_step < policy.k_r_floor) return false;
    opts.k_r -= policy.k_r_step;
    return true;
  };
  const auto try_expand_pools = [&] {
    if (pool_expansions >= policy.max_pool_expansions) return false;
    ++pool_expansions;
    opts.link_pool = widen(
        opts.link_pool.value_or(PrefixAllocator::default_link_pool()),
        policy.pool_widen_bits);
    opts.host_pool = widen(
        opts.host_pool.value_or(PrefixAllocator::default_host_pool()),
        policy.pool_widen_bits);
    return true;
  };
  const auto try_escalate_iterations = [&] {
    int best = 0;
    for (const int value : policy.equivalence_iteration_ladder) {
      if (value > opts.max_equivalence_iterations &&
          (best == 0 || value < best)) {
        best = value;
      }
    }
    if (best == 0) return false;
    opts.max_equivalence_iterations = best;
    return true;
  };
  const auto finish = [&](bool ok, ErrorCategory category) {
    out.ok = ok;
    out.category = category;
    out.effective_options = opts;
    return out;
  };

  while (out.attempts < policy.max_attempts) {
    ++out.attempts;
    try {
      out.last = traced("core.attempt", [&] {
        return staged_pipeline(original, opts, patch_base, patch_capture);
      });
    } catch (const PipelineError& error) {
      out.last.reset();
      bool acted = false;
      if (error.retryable()) {
        switch (error.category()) {
          case ErrorCategory::kInfeasibleParams:
          case ErrorCategory::kNonConvergent:
            acted = try_reseed() || try_relax_kr();
            break;
          case ErrorCategory::kResourceExhausted:
            acted = try_expand_pools();
            break;
          default:
            break;
        }
      }
      if (!acted) return finish(false, error.category());
      continue;
    }
    const PipelineResult& result = *out.last;
    add_stats(out.totals, result.stats);
    if (!result.equivalence_converged) {
      if (try_escalate_iterations()) continue;
      out.divergence = result.original_dp.diff(
          result.anonymized_dp.restricted_to(result.original_dp.hosts()),
          policy.diff_limit);
      return finish(false, ErrorCategory::kNonConvergent);
    }
    if (!result.functionally_equivalent) {
      if (try_reseed()) continue;
      out.divergence = result.original_dp.diff(
          result.anonymized_dp.restricted_to(result.original_dp.hosts()),
          policy.diff_limit);
      return finish(false, ErrorCategory::kNonConvergent);
    }
    return finish(true, ErrorCategory::kInternal);
  }
  return finish(false, ErrorCategory::kNonConvergent);
}

std::string compare_with_library(const StagedOutcome& replay,
                                 const GuardedPipelineResult& lib) {
  const auto& diag = lib.diagnostics;
  if (replay.ok != lib.ok()) return "verdict differs";
  if (replay.attempts != diag.attempts) {
    return "attempts differ (" + std::to_string(replay.attempts) + " vs " +
           std::to_string(diag.attempts) + ")";
  }
  if (replay.effective_options.seed != lib.effective_options.seed ||
      replay.effective_options.k_r != lib.effective_options.k_r) {
    return "effective options differ";
  }
  if (!replay.ok) {
    if (replay.category != diag.category) return "error category differs";
    if (replay.divergence != diag.divergence) return "divergence differs";
    return "";
  }
  if (canonical_config_set_text(replay.last->anonymized) !=
      canonical_config_set_text(lib.result->anonymized)) {
    return "anonymized bytes differ";
  }
  return "";
}

}  // namespace perfbench

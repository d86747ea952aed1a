// The benchmark's workloads. Each fills a Report; main prints it.
#pragma once

#include <utility>
#include <vector>

#include "perfbench/common.hpp"

namespace perfbench {

struct FamilyCount {
  confmask::ScaleFamily family;
  int count;
};

/// What the cold workloads' cpu_s_per_op divides by.
enum class ColdCost {
  /// Per family, the CPU of all its operations in the run ÷ their
  /// pipeline attempts: the cost of one attempt. Steady across seeds when
  /// a run holds only a few bundles, whose attempt counts (1 to 3, the
  /// fail-closed ladder) would swing a per-bundle figure.
  kPerAttempt,
  /// Per family, the mean over bundles of the bundle's CPU across all its
  /// attempts: the ladder's extra attempts count. Needs enough distinct
  /// bundles per run to average their attempt counts, and every run
  /// covers all of them.
  kPerBundle,
};

/// Cold anonymization of a fixed bundle mix: canonical text in, verified
/// canonical text (or a fail-closed verdict) out.
void run_cold(const Args& args, const std::vector<FamilyCount>& mix,
              int routers, ColdCost cost, Report& report);

/// A chain of random edits to one bundle, each re-anonymized with patching
/// against the previous cycle's captured context.
void run_watch(const Args& args, int routers, Report& report);

/// An in-process confmaskd under an open-loop mix of cache hits and
/// misses.
void run_serve(const Args& args, int routers, Report& report);

}  // namespace perfbench

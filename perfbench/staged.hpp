// The traced replay of the guarded pipeline.
//
// run_pipeline_guarded is one call; to see its layers, the traced runs
// replay it here from the library's public stage functions (the same
// sequence run_pipeline performs, watch-mode reuse included) with a span
// around each call, and repeat the guarded runner's retry ladder over
// those attempts. Every replay is checked against the library's own entry
// points, so a drift between this file and the library fails the run
// instead of skewing the layer numbers.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "src/core/confmask.hpp"
#include "src/core/errors.hpp"
#include "src/core/patch_mode.hpp"
#include "src/core/pipeline_runner.hpp"

namespace perfbench {

/// One pipeline attempt, stage by stage (run_pipeline with the kConfMask
/// strategy, no fake routers, incremental simulation).
[[nodiscard]] confmask::PipelineResult staged_pipeline(
    const confmask::ConfigSet& original,
    const confmask::ConfMaskOptions& options,
    const confmask::PatchContext* patch_base,
    confmask::PatchCapture* patch_capture);

struct StagedOutcome {
  bool ok = false;
  int attempts = 0;
  confmask::ErrorCategory category = confmask::ErrorCategory::kInternal;
  confmask::ConfMaskOptions effective_options;
  /// The last attempt's result (also when it failed verification).
  std::optional<confmask::PipelineResult> last;
  std::vector<confmask::DataPlaneDiffEntry> divergence;
  /// Work counters summed over every attempt that ran to completion.
  confmask::PipelineStats totals;
};

/// run_pipeline_guarded's ladder over staged_pipeline attempts, each in a
/// "core.attempt" span.
[[nodiscard]] StagedOutcome staged_guarded(
    const confmask::ConfigSet& original,
    const confmask::ConfMaskOptions& options,
    const confmask::RetryPolicy& policy,
    const confmask::PatchContext* patch_base,
    confmask::PatchCapture* patch_capture);

/// Empty when the replay agrees with the library's guarded run of the
/// same input: verdict, attempts, terminal error category, effective
/// options' seed and k_r, anonymized bytes or divergence triples.
[[nodiscard]] std::string compare_with_library(
    const StagedOutcome& replay, const confmask::GuardedPipelineResult& lib);

}  // namespace perfbench

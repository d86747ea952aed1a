// Watch workload: one bundle, captured once during set-up, then a chain of
// random edits. Each cycle renders the edit as a confmask-diff/1 script,
// applies it, re-anonymizes the result with patching against the previous
// cycle's context, and captures the context for the next cycle.
//
// The chain is one block of the edit-class schedule (10 edits). Every run
// goes through it once, however long that takes, and then replays it from
// the base while the window lasts; a replayed cycle must reproduce its
// first output byte for byte.
//
// A cycle is one pipeline attempt (run_pipeline, not the guarded ladder):
// the ladder's reseeds run with other options, which the patcher never
// reuses across, so a ladder cycle would time cold attempts instead of the
// patch machinery. A cycle whose output does not verify is counted as a
// failed operation; its stage snapshots still seed the next cycle, since
// reuse is proven by the diff, not by the verdict. The retry ladder is
// measured on the cold workloads.
//
// The edit classes follow a fixed sequence (scheduled_class), so the share
// of cheap and of cold-fallback cycles does not vary from run to run; the
// seed draws the edits within each class.
#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/staged.hpp"
#include "perfbench/workloads.hpp"
#include "src/config/diff.hpp"
#include "src/config/emit.hpp"
#include "src/core/patch_mode.hpp"
#include "src/testing/watch_fuzz.hpp"
#include "src/util/rng.hpp"

namespace perfbench {

using namespace confmask;

namespace {

/// The edit classes: how much of the previous cycle's state a cycle can
/// reuse depends on which one its edit falls in.
enum class EditClass {
  kList,        ///< prefix-list / distribute-list edit: filter-only
  kAcl,         ///< packet-ACL edit: filter-only, but the index is rebuilt
  kStructural,  ///< cost change, rename, host removal: cold fallback
};

const char* class_name(EditClass edit_class) {
  switch (edit_class) {
    case EditClass::kList: return "list";
    case EditClass::kAcl: return "acl";
    case EditClass::kStructural: return "structural";
  }
  return "?";
}

/// The class sequence, fixed so that every run, whatever its length, has
/// the same mix: per 10 cycles 6 list, 1 ACL and 3 structural edits (the
/// edit generator's own odds: 70% filter-only, 1 in 6 of those an ACL
/// edit).
constexpr std::array<EditClass, 10> kPattern = {
    EditClass::kList,       EditClass::kList, EditClass::kStructural,
    EditClass::kList,       EditClass::kAcl,  EditClass::kList,
    EditClass::kStructural, EditClass::kList, EditClass::kList,
    EditClass::kStructural};

EditClass scheduled_class(std::size_t cycle) {
  return kPattern[cycle % kPattern.size()];
}

/// Mean per class weighed by the class's share of the schedule: the cost
/// of an edit within its class varies about twofold with the destinations
/// it dirties, so per class the mean is the steadier summary, and the
/// fixed weights keep a run's partial last block from moving it.
double scheduled_mean(const Strata& by_class) {
  double sum = 0.0;
  double weight = 0.0;
  for (const auto& [name, values] : by_class) {
    const double share = static_cast<double>(std::count_if(
        kPattern.begin(), kPattern.end(),
        [&](EditClass c) { return name == class_name(c); }));
    double total = 0.0;
    for (const double value : values) total += value;
    sum += share * total / static_cast<double>(values.size());
    weight += share;
  }
  return weight > 0 ? sum / weight : 0.0;
}

/// Draws random edits (one per draw) until one of the wanted class comes
/// up; bounded, keeping the last draw when the class never does.
ConfigSet next_bundle(const ConfigSet& current, EditClass wanted, Rng& rng,
                      std::string* description) {
  ConfigSet edited;
  for (int tries = 0; tries < 64; ++tries) {
    edited = current;
    bool structural = false;
    const auto log = apply_random_edits(edited, rng, 1, &structural);
    *description = log.empty() ? "" : log.front();
    const EditClass drawn =
        structural ? EditClass::kStructural
        : description->find("acl") != std::string::npos ? EditClass::kAcl
                                                        : EditClass::kList;
    if (drawn == wanted) break;
  }
  return canonicalize(std::move(edited));
}

struct Cycle {
  PipelineResult result;
  std::shared_ptr<const PatchContext> context;
  std::string out;  ///< canonical anonymized bundle
};

}  // namespace

void run_watch(const Args& args, int routers, Report& report) {
  // The first cold-ospf-3162 bundle with its pipeline options.
  const std::uint64_t net_seed = mix_seed(
      args.seed, static_cast<std::uint64_t>(ScaleFamily::kWaxman) * 1000);
  const ConfMaskOptions options = pipeline_options(mix_seed(net_seed, 0xC0DE));

  ConfigSet base;
  std::shared_ptr<const PatchContext> base_context;
  bool base_verified = false;
  time_setup(report, 3, [&] {
    base = make_bundle(ScaleFamily::kWaxman, routers, net_seed);
    PatchCapture capture;
    const auto run = run_pipeline(base, options, EquivalenceStrategy::kConfMask,
                                  nullptr, &capture);
    base_verified = run.functionally_equivalent;
    base_context = finish_capture(capture);
  });
  report.check(base_context != nullptr, "set-up captured no watch context");
  if (base_context == nullptr) return;
  report.note(std::string("watch base routers=") +
              std::to_string(base.routers.size()) +
              " hosts=" + std::to_string(base.hosts.size()) +
              " verified=" + (base_verified ? "1" : "0"));

  const std::uint64_t edit_seed = mix_seed(args.seed, 0xED17);
  const std::size_t chain = kPattern.size();
  Rng edit_rng(edit_seed);
  ConfigSet current;
  std::shared_ptr<const PatchContext> context;
  std::vector<std::string> chain_digest;  // first pass, per cycle

  std::vector<double> cycle_s;
  Strata cycle_s_by_class;
  Strata cycle_cpu_s_by_class;
  std::vector<double> untraced_s;
  std::uint64_t unverified = 0;
  PipelineStats totals;
  // The edited bundle and output of the first cycle, checked against a
  // cold run after the timed loop.
  ConfigSet first_edited;
  std::string first_out;
  bool first_verified = false;

  const auto cold_check = [&](const ConfigSet& edited, const std::string& out,
                              bool verified, std::size_t cycle) {
    const PipelineResult cold =
        run_pipeline(edited, options, EquivalenceStrategy::kConfMask);
    report.check(cold.functionally_equivalent == verified &&
                     canonical_config_set_text(cold.anonymized) == out,
                 "watch cycle " + std::to_string(cycle) +
                     ": patched output differs from a cold run");
  };

  const double start = now_s();
  std::size_t cycles = 0;
  while (cycles < chain ||
         now_s() - start + cycle_s.back() <= args.seconds) {
    const std::size_t step = cycles % chain;
    if (step == 0) {
      edit_rng = Rng(edit_seed);
      current = base;
      context = base_context;
    }
    const EditClass edit_class = scheduled_class(step);
    std::string edit;
    const ConfigSet edited =
        next_bundle(current, edit_class, edit_rng, &edit);

    Cycle cycle;
    const double cpu_start = cpu_seconds();
    const double t0 = now_s();
    if (!args.trace) {
      const std::string diff = render_bundle_diff(current, edited);
      const ConfigSet applied = apply_bundle_diff(current, diff);
      PatchCapture capture;
      cycle.result = run_pipeline(applied, options,
                                  EquivalenceStrategy::kConfMask,
                                  context.get(), &capture);
      cycle.context = finish_capture(capture);
      cycle.out = canonical_config_set_text(cycle.result.anonymized);
      cycle_s.push_back(now_s() - t0);
      report.check(canonical_config_set_text(applied) ==
                       canonical_config_set_text(edited),
                   "diff round trip changed the edited bundle");
    } else {
      std::string diff;
      ConfigSet applied;
      {
        const OpScope op_scope(cycles + 1);
        const ScopedSpan op_span("op");
        diff = traced("config.diff_render",
                      [&] { return render_bundle_diff(current, edited); });
        applied = traced("config.diff_apply",
                         [&] { return apply_bundle_diff(current, diff); });
        PatchCapture capture;
        cycle.result = traced("core.attempt", [&] {
          return staged_pipeline(applied, options, context.get(), &capture);
        });
        cycle.context =
            traced("core.capture", [&] { return finish_capture(capture); });
        cycle.out = traced("config.emit", [&] {
          return canonical_config_set_text(cycle.result.anonymized);
        });
      }
      cycle_s.push_back(now_s() - t0);
      // The library's own patched cycle: the replay check and the
      // untraced reference for the tracing overhead.
      const double t1 = now_s();
      const ConfigSet lib_applied =
          apply_bundle_diff(current, render_bundle_diff(current, edited));
      PatchCapture lib_capture;
      const PipelineResult lib =
          run_pipeline(lib_applied, options, EquivalenceStrategy::kConfMask,
                       context.get(), &lib_capture);
      const auto lib_context = finish_capture(lib_capture);
      const std::string lib_out = canonical_config_set_text(lib.anonymized);
      untraced_s.push_back(now_s() - t1);
      report.check(lib_out == cycle.out && lib.functionally_equivalent ==
                                               cycle.result.functionally_equivalent,
                   "watch cycle " + std::to_string(cycles) +
                       ": staged replay differs from run_pipeline");
      report.check(canonical_config_set_text(applied) ==
                       canonical_config_set_text(edited),
                   "diff round trip changed the edited bundle");
      cold_check(edited, cycle.out, cycle.result.functionally_equivalent,
                 cycles);
      add_stats(totals, cycle.result.stats);
    }

    cycle_s_by_class[class_name(edit_class)].push_back(cycle_s.back());
    cycle_cpu_s_by_class[class_name(edit_class)].push_back(cpu_seconds() -
                                                          cpu_start);
    const bool verified = cycle.result.functionally_equivalent;
    const std::string digest =
        hex_digest(cycle.out) + (verified ? "" : ":unverified");
    if (cycles < chain) {
      // An operation is one cycle of the chain, judged on its first pass,
      // so the counts do not depend on how many replays fit.
      unverified += verified ? 0 : 1;
      chain_digest.push_back(digest);
      report.note("cycle " + std::to_string(cycles) + " class=" +
                  class_name(edit_class) + " edit=\"" + edit + "\" s=" +
                  std::to_string(cycle_s.back()) + " verified=" +
                  (verified ? "1" : "0") + " digest=" + digest +
                  " patched_stages=" +
                  std::to_string(cycle.result.stats.patched_stages));
    } else {
      report.check(digest == chain_digest[step],
                   "watch cycle " + std::to_string(step) +
                       ": output differs between repeats (" +
                       chain_digest[step] + " vs " + digest + ")");
    }
    if (cycles == 0) {
      first_edited = edited;
      first_out = cycle.out;
      first_verified = verified;
    }
    if (cycle.context != nullptr) context = cycle.context;
    current = edited;
    ++cycles;
  }
  if (!args.trace) cold_check(first_edited, first_out, first_verified, 0);

  const double n = static_cast<double>(cycles);
  report.attempted = chain;
  report.failed = unverified;
  report.e2e("cpu_s_per_op", scheduled_mean(cycle_cpu_s_by_class), "s");
  report.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  const Tail tail = tail_of(cycle_s);
  report.add_info("cycle_ms", scheduled_mean(cycle_s_by_class) * 1e3, "ms");
  report.add_info("resubmit_s", median(cycle_s), "s");
  report.add_info("resubmit_tail_s", tail.value, "s");
  report.add_info("resubmit_tail_pct", tail.pct, "pct");
  report.add_info("samples", n, "count");
  report.add_info("failed_share",
                  static_cast<double>(unverified) / static_cast<double>(chain),
                  "share");

  if (args.trace) {
    report_span_layers(report, cycles);
    report_pipeline_counters(report, totals, cycles, cycles);
    report.layer("trace.overhead_s", median(cycle_s) - median(untraced_s),
                 "s");
  }
}

}  // namespace perfbench

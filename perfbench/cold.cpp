// Cold workloads: every operation anonymizes one bundle from scratch
// through the guarded runner. The untraced loop calls the library's entry
// points; the traced loop replays each operation stage by stage
// (staged.hpp) and then checks the replay against the library's own run of
// the same bundle.
#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "perfbench/staged.hpp"
#include "perfbench/workloads.hpp"
#include "src/config/emit.hpp"
#include "src/config/parse.hpp"
#include "src/core/pipeline_runner.hpp"
#include "src/util/thread_pool.hpp"

namespace perfbench {

using namespace confmask;

namespace {

struct Bundle {
  std::string family;
  std::string label;
  std::string text;  ///< canonical bundle: what a user submits
  ConfMaskOptions options;
  int routers = 0;
  int hosts = 0;
};

/// Per-bundle outcome of one operation.
struct Verdict {
  bool ok = false;
  int attempts = 0;
  std::string digest;  ///< anonymized bytes, or the refusal's category
};

/// Seconds spent on a family's operations and their pipeline attempts.
struct AttemptTotal {
  double seconds = 0.0;
  int attempts = 0;
  void add(double op_seconds, int op_attempts) {
    seconds += op_seconds;
    attempts += op_attempts;
  }
};
using Attempts = std::map<std::string, AttemptTotal>;

/// Per family, the seconds of all its operations ÷ their attempts; then
/// the mean over families. A ratio of sums weighs every second of the
/// run alike, so it averages over the host's slower and faster spells
/// instead of picking one operation's.
double per_attempt(const Attempts& totals) {
  double sum = 0.0;
  for (const auto& [family, total] : totals) {
    sum += total.seconds / total.attempts;
  }
  return totals.empty() ? 0.0 : sum / static_cast<double>(totals.size());
}

Verdict verdict_of(const GuardedPipelineResult& run, const std::string& out) {
  Verdict verdict;
  verdict.ok = run.ok();
  verdict.attempts = run.diagnostics.attempts;
  verdict.digest = run.ok() ? hex_digest(out)
                            : std::string("refused:") +
                                  to_string(run.diagnostics.category);
  return verdict;
}

/// The untraced operation: parse, guarded pipeline, emit.
Verdict library_op(const Bundle& bundle, const RetryPolicy& policy) {
  const ConfigSet configs = parse_config_set(bundle.text);
  const auto run = run_pipeline_guarded(configs, bundle.options, policy);
  const std::string out =
      run.ok() ? canonical_config_set_text(run.result->anonymized) : "";
  return verdict_of(run, out);
}

std::vector<Bundle> make_bundles(const Args& args,
                                 const std::vector<FamilyCount>& mix,
                                 int routers) {
  // Interleave the families so a short run still sees each of them.
  struct Spec {
    ScaleFamily family;
    int index;
  };
  std::vector<Spec> specs;
  int max_count = 0;
  for (const auto& entry : mix) max_count = std::max(max_count, entry.count);
  for (int i = 0; i < max_count; ++i) {
    for (const auto& entry : mix) {
      if (i < entry.count) specs.push_back({entry.family, i});
    }
  }
  // Generated on every pool worker: a single thread's CPU time swings
  // with the one vCPU it lands on, more than the sum over all of them.
  std::vector<Bundle> bundles(specs.size());
  ThreadPool::shared().parallel_for(specs.size(), [&](std::size_t k) {
    const Spec& spec = specs[k];
    const auto family_id = static_cast<std::uint64_t>(spec.family);
    const std::uint64_t net_seed = mix_seed(
        args.seed, family_id * 1000 + static_cast<std::uint64_t>(spec.index));
    const ConfigSet configs = make_bundle(spec.family, routers, net_seed);
    Bundle& bundle = bundles[k];
    bundle.family = scale_family_name(spec.family);
    bundle.label = bundle.family + "#" + std::to_string(spec.index);
    bundle.text = canonical_config_set_text(configs);
    bundle.options = pipeline_options(mix_seed(net_seed, 0xC0DE));
    bundle.routers = static_cast<int>(configs.routers.size());
    bundle.hosts = static_cast<int>(configs.hosts.size());
  });
  return bundles;
}

}  // namespace

void run_cold(const Args& args, const std::vector<FamilyCount>& mix,
              int routers, ColdCost cost, Report& report) {
  std::vector<Bundle> bundles;
  time_setup(report, 11,
             [&] { bundles = make_bundles(args, mix, routers); });
  const RetryPolicy policy;

  std::vector<double> op_s;  // per bundle
  // Per family: wall and CPU seconds of all its operations, and their
  // pipeline attempts.
  Attempts family_s;
  Attempts family_cpu_s;
  // Per bundle: CPU seconds of each of its operations, whole ladder.
  std::map<std::size_t, std::vector<double>> bundle_cpu_s;
  std::vector<double> untraced_s;  // traced run: the library's own op
  std::map<std::size_t, Verdict> first_verdict;
  std::map<std::size_t, int> runs_of;
  PipelineStats totals;
  std::uint64_t attempts_total = 0;

  const auto record = [&](std::size_t index, const Verdict& verdict) {
    ++runs_of[index];
    const auto [it, fresh] = first_verdict.emplace(index, verdict);
    if (!fresh) {
      report.check(it->second.digest == verdict.digest &&
                       it->second.attempts == verdict.attempts,
                   bundles[index].label + ": output differs between repeats (" +
                       it->second.digest + " vs " + verdict.digest + ")");
    }
  };

  // Every run covers every bundle once, however long that takes, so a
  // faster or slower build sees the same inputs and reports the same
  // verdicts. Further operations repeat the bundles in order and start
  // while one more attempt is expected to fit in the window.
  const double start = now_s();
  std::size_t ops = 0;
  double last_attempt_s = 0.0;
  while (ops < bundles.size() ||
         now_s() - start + last_attempt_s <= args.seconds) {
    const std::size_t index = ops % bundles.size();
    const Bundle& bundle = bundles[index];
    const double cpu_start = cpu_seconds();
    int attempts = 0;
    if (!args.trace) {
      const double t0 = now_s();
      const Verdict verdict = library_op(bundle, policy);
      op_s.push_back(now_s() - t0);
      attempts = verdict.attempts;
      record(index, verdict);
    } else {
      // Traced: the staged replay is the operation; the library's run of
      // the same bundle follows outside the op span as its check and as
      // the untraced reference for the tracing overhead.
      StagedOutcome replay;
      std::string out;
      const double t0 = now_s();
      {
        const OpScope op_scope(ops + 1);
        const ScopedSpan op_span("op");
        const ConfigSet configs = traced(
            "config.parse", [&] { return parse_config_set(bundle.text); });
        replay = staged_guarded(configs, bundle.options, policy, nullptr,
                                nullptr);
        if (replay.ok) {
          out = traced("config.emit", [&] {
            return canonical_config_set_text(replay.last->anonymized);
          });
        }
      }
      op_s.push_back(now_s() - t0);
      attempts = std::max(1, replay.attempts);
      const double t1 = now_s();
      const ConfigSet configs = parse_config_set(bundle.text);
      const auto lib = run_pipeline_guarded(configs, bundle.options, policy);
      const std::string lib_out =
          lib.ok() ? canonical_config_set_text(lib.result->anonymized) : "";
      untraced_s.push_back(now_s() - t1);
      const std::string mismatch = compare_with_library(replay, lib);
      report.check(mismatch.empty(),
                   bundle.label + ": staged replay vs run_pipeline_guarded: " +
                       mismatch);
      record(index, verdict_of(lib, lib_out));
      add_stats(totals, replay.totals);
    }
    last_attempt_s = op_s.back() / attempts;
    const double op_cpu_s = cpu_seconds() - cpu_start;
    family_s[bundle.family].add(op_s.back(), attempts);
    family_cpu_s[bundle.family].add(op_cpu_s, attempts);
    bundle_cpu_s[index].push_back(op_cpu_s);
    attempts_total += static_cast<std::uint64_t>(attempts);
    ++ops;
  }

  // Every run compares at least one repeat of a bundle.
  bool repeated = false;
  for (const auto& [index, count] : runs_of) repeated = repeated || count > 1;
  if (!repeated) record(0, library_op(bundles[0], policy));

  // An operation is one bundle, judged once: a repeat must reproduce the
  // first verdict byte for byte (checked above), so the counts are a pure
  // function of the seed and the code, not of how many repeats fit.
  std::uint64_t refusals = 0;
  for (const auto& [index, verdict] : first_verdict) {
    refusals += verdict.ok ? 0 : 1;
  }
  const double n = static_cast<double>(ops);
  report.attempted = bundles.size();
  report.failed = refusals;
  // Both summaries are stratified by family, so the families' share of
  // the window does not move them (see ColdCost).
  Strata per_bundle_cpu_s;
  for (const auto& [index, cpu] : bundle_cpu_s) {
    per_bundle_cpu_s[bundles[index].family].push_back(median(cpu));
  }
  const double attempts = static_cast<double>(attempts_total);
  report.e2e("cpu_s_per_op",
             cost == ColdCost::kPerBundle ? stratified_mean(per_bundle_cpu_s)
                                          : per_attempt(family_cpu_s),
             "s");
  report.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  report.add_info("attempt_cpu_s", per_attempt(family_cpu_s), "s");
  report.add_info("bundle_cpu_s", stratified_mean(per_bundle_cpu_s), "s");
  const Tail tail = tail_of(op_s);
  report.add_info("attempt_ms", per_attempt(family_s) * 1e3, "ms");
  report.add_info("anonymize_s", median(op_s), "s");
  report.add_info("anonymize_tail_s", tail.value, "s");
  report.add_info("anonymize_tail_pct", tail.pct, "pct");
  report.add_info("samples", n, "count");
  report.add_info("attempts_per_bundle", attempts / n, "count");
  report.add_info("failed_share",
                  static_cast<double>(refusals) /
                      static_cast<double>(bundles.size()),
                  "share");

  for (std::size_t i = 0; i < bundles.size(); ++i) {
    const Bundle& bundle = bundles[i];
    const auto it = first_verdict.find(i);
    if (it == first_verdict.end()) continue;
    char line[512];
    std::snprintf(line, sizeof line,
                  "bundle %s routers=%d hosts=%d seed=%llu verdict=%s "
                  "attempts=%d digest=%s runs=%d",
                  bundle.label.c_str(), bundle.routers, bundle.hosts,
                  static_cast<unsigned long long>(bundle.options.seed),
                  it->second.ok ? "verified" : "refused", it->second.attempts,
                  it->second.digest.c_str(), runs_of[i]);
    report.note(line);
  }

  if (args.trace) {
    report_span_layers(report, ops);
    report_pipeline_counters(report, totals, ops, attempts_total);
    report.layer("trace.overhead_s", median(op_s) - median(untraced_s), "s");
  }
}

}  // namespace perfbench

#include "perfbench/common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/config/emit.hpp"
#include "src/testing/differential.hpp"
#include "src/util/hash.hpp"

namespace perfbench {

const std::vector<MetricSpec> kEndToEnd = {
    {"cpu_s_per_op", "s"},
    {"peak_rss_mb", "MB"},
    {"setup_s", "s"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"routing.original_sim_s", "s"},
    {"core.original_index_s", "s"},
    {"core.topology_anon_s", "s"},
    {"core.fake_links", "count/op"},
    {"core.equivalence_s", "s"},
    {"core.equivalence_iterations", "count/op"},
    {"core.fake_hosts_s", "s"},
    {"core.anonymity_s", "s"},
    {"core.anonymity_kept_ratio", "ratio"},
    {"routing.simulations", "count/op"},
    {"core.verify_s", "s"},
    {"core.runner_attempts", "count/op"},
    {"config.diff_render_s", "s"},
    {"config.diff_apply_s", "s"},
    {"core.patch_reuse_ratio", "ratio"},
    {"core.capture_s", "s"},
    {"config.parse_s", "s"},
    {"config.emit_s", "s"},
    {"service.cache_key_s", "s"},
    {"service.cache_lookup_s", "s"},
    {"service.json_encode_s", "s"},
    {"service.json_parse_s", "s"},
    {"service.hit.ack_ms", "ms"},
    {"service.miss.ack_ms", "ms"},
    {"service.hit.wait_ms", "ms"},
    {"service.miss.wait_ms", "ms"},
    {"service.hit.result_ms", "ms"},
    {"service.miss.result_ms", "ms"},
    {"service.cache_store_s", "s"},
    {"service.journal_append_s", "s"},
    {"service.cache_hit_ratio", "ratio"},
    {"service.rejected", "count"},
    {"gen.lateness_ms", "ms"},
    {"trace.overhead_s", "s"},
    {"trace.uncovered_s", "s"},
};

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  notes.push_back("check failed: " + what);
}

void Report::note(std::string line) { notes.push_back(std::move(line)); }

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double stratified_mean(const Strata& strata) {
  double sum = 0.0;
  for (const auto& [name, values] : strata) {
    double total = 0.0;
    for (const double value : values) total += value;
    sum += values.empty() ? 0.0 : total / static_cast<double>(values.size());
  }
  return strata.empty() ? 0.0 : sum / static_cast<double>(strata.size());
}

Tail tail_of(std::vector<double> values) {
  Tail tail{percentile(values, 50.0), 50.0};
  const double n = static_cast<double>(values.size());
  for (const double p : {75.0, 80.0, 90.0, 95.0, 99.0, 99.9}) {
    const double beyond = n - std::ceil(p / 100.0 * n);
    if (beyond < 10.0) break;
    tail = {percentile(values, p), p};
  }
  return tail;
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + salt + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

confmask::ConfMaskOptions pipeline_options(std::uint64_t seed) {
  confmask::ConfMaskOptions options;
  options.k_r = 6;
  options.k_h = 2;
  options.noise_p = 0.1;
  options.seed = seed;
  return options;
}

confmask::ConfigSet make_bundle(confmask::ScaleFamily family, int routers,
                                std::uint64_t seed) {
  confmask::ConfigSet configs =
      confmask::make_scale_network(family, routers, seed);
  confmask::decorate_scale_network(configs, seed);
  return confmask::canonicalize(std::move(configs));
}

std::string hex_digest(std::string_view bytes) {
  return confmask::hex64(confmask::fnv1a64(bytes));
}

void add_stats(confmask::PipelineStats& totals,
               const confmask::PipelineStats& attempt) {
  totals.fake_intra_links += attempt.fake_intra_links;
  totals.fake_inter_links += attempt.fake_inter_links;
  totals.equivalence_iterations += attempt.equivalence_iterations;
  totals.anonymity_filters += attempt.anonymity_filters;
  totals.anonymity_rollbacks += attempt.anonymity_rollbacks;
  totals.patched_stages += attempt.patched_stages;
  totals.patch_fallbacks += attempt.patch_fallbacks;
  totals.simulations += attempt.simulations;
}

void report_pipeline_counters(Report& report,
                              const confmask::PipelineStats& totals,
                              std::uint64_t ops, std::uint64_t attempts) {
  if (ops == 0) return;
  const double n = static_cast<double>(ops);
  const auto ratio = [](double part, double whole) {
    return whole > 0 ? part / whole : 0.0;
  };
  report.layer("core.fake_links",
               static_cast<double>(totals.fake_intra_links +
                                   totals.fake_inter_links) / n,
               "count/op");
  report.layer("core.equivalence_iterations",
               totals.equivalence_iterations / n, "count/op");
  report.layer("core.anonymity_kept_ratio",
               ratio(totals.anonymity_filters,
                     totals.anonymity_filters + totals.anonymity_rollbacks),
               "ratio");
  report.layer("routing.simulations", static_cast<double>(totals.simulations) / n,
               "count/op");
  report.layer("core.runner_attempts", static_cast<double>(attempts) / n,
               "count/op");
  report.layer("core.patch_reuse_ratio",
               ratio(totals.patched_stages,
                     totals.patched_stages + totals.patch_fallbacks),
               "ratio");
}

void report_span_layers(Report& report, std::uint64_t ops) {
  const Tracer* tracer = Tracer::active();
  if (tracer == nullptr || ops == 0) return;
  const double per_op = 1.0 / static_cast<double>(ops);
  double uncovered = 0.0;
  for (const auto& [name, self_s] : self_times(tracer->spans())) {
    // Container spans: an operation and one ladder attempt. Their self
    // time is what no layer span covers.
    if (name == "op" || name == "core.attempt") {
      uncovered += self_s;
      continue;
    }
    const std::string metric = name + "_s";
    for (const MetricSpec& spec : kPerLayer) {
      if (metric == spec.name) report.layer(metric, self_s * per_op, "s");
    }
  }
  report.layer("trace.uncovered_s", uncovered * per_op, "s");
}

}  // namespace perfbench

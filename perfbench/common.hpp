// Shared pieces of the benchmark: arguments, the result report, summary
// statistics, process resource usage and seeded input generation.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/config/model.hpp"
#include "src/core/confmask.hpp"
#include "src/netgen/scale_families.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";  ///< spans, results, daemon state
};

struct MetricValue {
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports. `end_to_end` and `layers` are the metrics
/// of BENCHMARK.json; `info` holds the workload-specific figures printed
/// by name beside them (verdicts, percentiles used, environment).
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, MetricValue> end_to_end;
  std::map<std::string, MetricValue> layers;
  std::map<std::string, MetricValue> info;
  std::vector<std::string> notes;  ///< per-input verdicts and digests

  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end[name] = {value, unit};
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    layers[name] = {value, unit};
  }
  void add_info(const std::string& name, double value,
                const std::string& unit) {
    info[name] = {value, unit};
  }
  /// A failed correctness check: the run exits nonzero.
  void check(bool ok, const std::string& what);
  void note(std::string line);
};

/// The end-to-end and per-layer metric tables of BENCHMARK.json, in order.
struct MetricSpec {
  const char* name;
  const char* unit;
};
extern const std::vector<MetricSpec> kEndToEnd;
extern const std::vector<MetricSpec> kPerLayer;

// ---- statistics ---------------------------------------------------------

[[nodiscard]] double median(std::vector<double> values);
/// Nearest-rank percentile (p in [0, 100]) of unsorted values.
[[nodiscard]] double percentile(std::vector<double> values, double p);

/// Samples grouped by stratum (input family, edit class, request class).
using Strata = std::map<std::string, std::vector<double>>;
/// Mean over strata of each stratum's mean: a run's mix of strata does
/// not move it.
[[nodiscard]] double stratified_mean(const Strata& strata);

/// The highest of p75/p80/p90/p95/p99/p99.9 with at least ten samples above
/// it (p50 when there are too few samples for any).
struct Tail {
  double value = 0.0;
  double pct = 50.0;
};
[[nodiscard]] Tail tail_of(std::vector<double> values);

// ---- process resources --------------------------------------------------

[[nodiscard]] double cpu_seconds();  ///< user + system, whole process
[[nodiscard]] double peak_rss_mb();  ///< high-water resident set

// ---- inputs -------------------------------------------------------------

/// splitmix64 of (seed, salt): independent streams per input.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

/// Paper defaults (k_R=6, k_H=2, noise 0.1) with the given pipeline seed.
[[nodiscard]] confmask::ConfMaskOptions pipeline_options(std::uint64_t seed);

/// A decorated, canonical scale-family network (the bench_scale corpus).
[[nodiscard]] confmask::ConfigSet make_bundle(confmask::ScaleFamily family,
                                              int routers,
                                              std::uint64_t seed);

[[nodiscard]] std::string hex_digest(std::string_view bytes);

/// Runs `setup` `repeats` times and reports the median process CPU time
/// as `setup_s`, and the median wall time as the `setup_wall_s` info
/// figure. The state the last repeat leaves behind is what the run
/// measures. `reset`, if given, runs untimed before each repeat.
template <typename Reset, typename Fn>
void time_setup(Report& report, int repeats, Reset&& reset, Fn&& setup);
template <typename Fn>
void time_setup(Report& report, int repeats, Fn&& setup);

/// Adds the work counters of one pipeline attempt to `totals`.
void add_stats(confmask::PipelineStats& totals,
               const confmask::PipelineStats& attempt);

/// The pipeline's per-op work counters and ratios, from `totals` summed
/// over `ops` operations and `attempts` pipeline attempts.
void report_pipeline_counters(Report& report,
                              const confmask::PipelineStats& totals,
                              std::uint64_t ops, std::uint64_t attempts);

/// Per-op self time of every span-derived layer metric, the uncovered
/// remainder of the operations, and their count, from the active tracer.
void report_span_layers(Report& report, std::uint64_t ops);

}  // namespace perfbench

#include "perfbench/trace.hpp"

namespace perfbench {

template <typename Reset, typename Fn>
void time_setup(Report& report, int repeats, Reset&& reset, Fn&& setup) {
  std::vector<double> cpu_times;
  std::vector<double> wall_times;
  for (int i = 0; i < repeats; ++i) {
    reset();
    const double cpu_start = cpu_seconds();
    const double start = now_s();
    setup();
    wall_times.push_back(now_s() - start);
    cpu_times.push_back(cpu_seconds() - cpu_start);
  }
  report.e2e("setup_s", median(cpu_times), "s");
  report.add_info("setup_wall_s", median(wall_times), "s");
}

template <typename Fn>
void time_setup(Report& report, int repeats, Fn&& setup) {
  time_setup(report, repeats, [] {}, setup);
}

}  // namespace perfbench

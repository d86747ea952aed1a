// perfbench — the ConfMask benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--out-dir DIR]
//
// Workloads (README.md says why each exists):
//   cold-ospf-3162   cold anonymization of 4 waxman-ospf bundles
//   cold-mixed-1000  cold anonymization of multi-as, pref-attach and
//                    waxman-rip bundles
//   watch-ospf-3162  a chain of edits re-anonymized with patching
//   serve-316        an in-process confmaskd under an open-loop hit/miss mix
//
// Prints the per-input verdicts and every metric by name, then, as the
// last line, one JSON object: {"correct", "attempted", "failed",
// "metrics"} with the end-to-end metrics (--trace 0) or the per-layer
// metrics (--trace 1). A failed correctness check prints the object with
// "correct": false and exits 1. Spans of a traced run and the full result
// go under --out-dir.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>

#include "perfbench/workloads.hpp"
#include "src/util/observability.hpp"
#include "src/util/thread_pool.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR]\n");
  std::exit(2);
}

std::string number(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.10g", value);
  return buffer;
}

std::string metrics_object(const std::map<std::string, MetricValue>& values,
                           const std::vector<MetricSpec>& specs) {
  std::string out = "{";
  bool first = true;
  for (const MetricSpec& spec : specs) {
    const auto it = values.find(spec.name);
    const double value = it == values.end() ? 0.0 : it->second.value;
    out += std::string(first ? "" : ", ") + "\"" + spec.name +
           "\": {\"value\": " + number(value) + ", \"unit\": \"" + spec.unit +
           "\"}";
    first = false;
  }
  return out + "}";
}

std::string all_metrics_object(
    const std::map<std::string, MetricValue>& values) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, metric] : values) {
    out += std::string(first ? "" : ", ") + "\"" +
           confmask::obs::json_escape(name) + "\": {\"value\": " +
           number(metric.value) + ", \"unit\": \"" + metric.unit + "\"}";
    first = false;
  }
  return out + "}";
}

void print_metrics(const char* kind,
                   const std::map<std::string, MetricValue>& values) {
  for (const auto& [name, metric] : values) {
    std::printf("%s %s %s %s\n", kind, name.c_str(),
                number(metric.value).c_str(), metric.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      args.workload = value;
    } else if (arg == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      args.trace = value == "1";
    } else if (arg == "--out-dir") {
      args.out_dir = value;
    } else {
      usage();
    }
  }
  if (args.workload.empty() || args.seconds <= 0) usage();

  // One pool worker per core: the library's default, pinned so runs on
  // the same box always use the same parallelism.
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  confmask::ThreadPool::configure(nproc);
  std::filesystem::create_directories(args.out_dir);

  std::printf("perfbench workload=%s seed=%llu seconds=%s trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              number(args.seconds).c_str(), args.trace ? 1 : 0);
  std::printf("env nproc=%u build_type=%s pool_workers=%u\n", nproc,
              PERFBENCH_BUILD_TYPE, confmask::ThreadPool::shared().workers());
  std::fflush(stdout);

  std::unique_ptr<Tracer> tracer;
  if (args.trace) tracer = std::make_unique<Tracer>();
  Report report;
  try {
    using confmask::ScaleFamily;
    if (args.workload == "cold-ospf-3162") {
      run_cold(args, {{ScaleFamily::kWaxman, 4}}, 3162, ColdCost::kPerAttempt,
               report);
    } else if (args.workload == "cold-mixed-1000") {
      // Enough bundles that their attempt counts average out, few enough
      // that one pass over them fits in the window.
      run_cold(args,
               {{ScaleFamily::kMultiAs, 10},
                {ScaleFamily::kPreferentialAttachment, 10},
                {ScaleFamily::kWaxmanRip, 10}},
               1000, ColdCost::kPerBundle, report);
    } else if (args.workload == "watch-ospf-3162") {
      run_watch(args, 3162, report);
    } else if (args.workload == "serve-316") {
      run_serve(args, 316, report);
    } else {
      std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
      return 2;
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "workload %s aborted: %s\n", args.workload.c_str(),
                 error.what());
    return 1;
  }

  if (report.attempted == 0) {
    std::fprintf(stderr, "workload %s ran no operation\n",
                 args.workload.c_str());
    return 1;
  }
  for (const std::string& line : report.notes) {
    std::printf("%s\n", line.c_str());
  }
  print_metrics("metric", report.end_to_end);
  print_metrics("info", report.info);
  if (args.trace) print_metrics("layer", report.layers);

  const std::string stem = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + "-trace" +
                           (args.trace ? "1" : "0");
  if (tracer != nullptr) {
    std::ofstream spans(stem + ".spans.ndjson");
    tracer->write_ndjson(spans);
  }
  {
    std::ofstream full(stem + ".json");
    full << "{\"workload\": \"" << args.workload << "\", \"seed\": "
         << args.seed << ", \"trace\": " << (args.trace ? 1 : 0)
         << ", \"nproc\": " << nproc << ", \"build_type\": \""
         << PERFBENCH_BUILD_TYPE << "\", \"pool_workers\": "
         << confmask::ThreadPool::shared().workers()
         << ", \"correct\": " << (report.correct ? "true" : "false")
         << ", \"attempted\": " << report.attempted
         << ", \"failed\": " << report.failed
         << ",\n \"end_to_end\": " << all_metrics_object(report.end_to_end)
         << ",\n \"info\": " << all_metrics_object(report.info)
         << ",\n \"layers\": " << all_metrics_object(report.layers)
         << ",\n \"notes\": [";
    for (std::size_t i = 0; i < report.notes.size(); ++i) {
      full << (i > 0 ? ",\n  \"" : "\n  \"")
           << confmask::obs::json_escape(report.notes[i]) << "\"";
    }
    full << "]}\n";
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              metrics_object(args.trace ? report.layers : report.end_to_end,
                             args.trace ? kPerLayer : kEndToEnd)
                  .c_str());
  return report.correct ? 0 : 1;
}

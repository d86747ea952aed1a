// Scale sweep of the simulation core on the netgen scale families
// (10²–10⁴ routers): topology build, flat fresh simulation, the serial
// reference oracle (src/routing/reference_sim) on the same network,
// incremental vs full re-simulation after a filter edit, and the full
// ConfMask pipeline with per-span metrics (DESIGN.md §9) on the sizes it
// can afford.
//
//   bench_scale [--max-routers N] [--pipeline-max N] [--jobs N]
//               [--families LIST] [--out FILE]
//
// --families takes comma-separated name prefixes (default: all four).
//
// Writes BENCH_scale.json (schema confmask.bench-scale/3). Sizes above the
// caps are skipped and logged, never silently dropped: the oracle runs up
// to 3162 routers (its Bellman-Ford convergence grows steeply with size);
// --pipeline-max (default 316) bounds the full anonymization pipeline.
// The pipeline holds no R×R table (IGP rows are lazy, DESIGN.md §13), so
// raising --pipeline-max to 3162 is cheap enough for CI, which gates
// pipeline_s / fresh_sim_s there. With --jobs 1 both engines run serially,
// so reference_sim_s / fresh_sim_s is a same-run, core-count-independent
// ratio; CI gates it at the points of 316 routers or more.
//
// Each pipeline point runs in a child process (this binary re-executed
// with --pipeline-point FAMILY ROUTERS REPETITIONS) that builds the
// network and runs the pipeline; the row records the child's verdict
// (verified, or the error category it refused with), its best-of-N wall
// time and the spans of that run (every path, child spans included), and
// its peak RSS (the child's own VmHWM, which covers network generation
// plus the pipeline runs). A fresh process per point keeps one point's
// high-water mark out of the next. A refusal is data, not a failure:
// only a child that dies or prints no result makes the exit nonzero.
// Wherever the oracle runs, every FIB column must match it entry for
// entry and in order — any mismatch makes the exit status nonzero, so
// the sweep doubles as a correctness gate.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.hpp"
#include "src/core/errors.hpp"
#include "src/core/filters.hpp"
#include "src/core/pipeline_trace.hpp"
#include "src/netgen/scale_families.hpp"
#include "src/routing/reference_sim.hpp"
#include "src/routing/simulation.hpp"
#include "src/routing/topology.hpp"
#include "src/testing/differential.hpp"
#include "src/util/thread_pool.hpp"

namespace {

using namespace confmask;

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--max-routers N] [--pipeline-max N] [--jobs N]"
               " [--families LIST] [--out FILE]\n",
               argv0);
  std::exit(2);
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Minimum wall time of `repetitions` runs of `body`.
template <typename Body>
double min_time(int repetitions, Body&& body) {
  double best = 1e30;
  for (int rep = 0; rep < repetitions; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    body();
    best = std::min(best, seconds_since(start));
  }
  return best;
}

/// Largest size the reference oracle is timed and compared at.
constexpr int kReferenceMaxRouters = 3162;

/// A JSON number with nine significant digits, so sub-microsecond timings
/// keep theirs.
std::string json_number(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.9g", value);
  return buffer;
}

/// One table cell: `value` printed with `format`, or "--" when absent.
std::string cell(double value, const char* format = "%.4f") {
  if (value < 0) return "--";
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, format, value);
  return buffer;
}

/// This process's peak resident set (VmHWM) in MB, -1 if unavailable.
/// Unlike getrusage/wait4's ru_maxrss, which a fork+exec child inherits
/// from the parent's address space before exec, VmHWM covers only the
/// current image.
double peak_rss_mb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return -1.0;
  char line[256];
  double mb = -1.0;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    long kib = 0;
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) {
      mb = static_cast<double>(kib) / 1024.0;
      break;
    }
  }
  std::fclose(status);
  return mb;
}

struct FamilySpec {
  ScaleFamily family;
  const char* name;
};
constexpr FamilySpec kAllFamilies[] = {
    {ScaleFamily::kWaxman, "waxman-ospf"},
    {ScaleFamily::kWaxmanRip, "waxman-rip"},
    {ScaleFamily::kMultiAs, "multi-as"},
    {ScaleFamily::kPreferentialAttachment, "pref-attach"},
};

/// The decorated network of one sweep point (same bytes in parent and
/// pipeline child).
ConfigSet point_network(ScaleFamily family, int routers) {
  const std::uint64_t seed = 0x5CA1Eull + static_cast<std::uint64_t>(routers);
  ConfigSet configs = make_scale_network(family, routers, seed);
  decorate_scale_network(configs, seed);
  return configs;
}

/// Child side of a pipeline point: best-of-`repetitions` pipeline wall time
/// with the spans of the fastest run (every path, child spans included),
/// and the (seeded, so repeatable) verdict. Prints one line:
/// `<verified 0|1> <category|-> <seconds> <peak RSS MB> <phases JSON>`.
int run_pipeline_point(const char* family_name, int routers,
                       int repetitions) {
  const FamilySpec* spec = nullptr;
  for (const auto& candidate : kAllFamilies) {
    if (std::string(candidate.name) == family_name) spec = &candidate;
  }
  if (spec == nullptr || routers < 2 || repetitions < 1) return 2;
  const ConfigSet configs = point_network(spec->family, routers);
  bool verified = false;
  std::string category;
  double best = 1e30;
  std::string phases = "null";
  for (int rep = 0; rep < repetitions; ++rep) {
    PipelineTrace trace;
    const auto start = std::chrono::steady_clock::now();
    bool threw = false;
    try {
      const auto outcome = run_confmask(configs, bench::default_options());
      verified =
          outcome.equivalence_converged && outcome.functionally_equivalent;
    } catch (const PipelineError& error) {
      category = to_string(error.category());
      threw = true;
    } catch (const std::exception&) {
      category = to_string(ErrorCategory::kInternal);
      threw = true;
    }
    const double seconds = seconds_since(start);
    if (seconds < best) {
      best = seconds;
      phases = "{";
      bool first_phase = true;
      for (const auto& span : trace.metrics()) {
        phases += std::string(first_phase ? "" : ", ") + "\"" + span.path +
                  "\": " +
                  json_number(static_cast<double>(span.total_ns) * 1e-9);
        first_phase = false;
      }
      phases += "}";
    }
    if (threw) break;  // seeded and deterministic: it would throw again
  }
  // The guarded runner's category for an unconverged or diverged run.
  if (!verified && category.empty()) {
    category = to_string(ErrorCategory::kNonConvergent);
  }
  std::printf("%d %s %.9f %.3f %s\n", verified ? 1 : 0,
              category.empty() ? "-" : category.c_str(), best, peak_rss_mb(),
              phases.c_str());
  return 0;
}

struct PipelinePoint {
  bool ok = false;  ///< the child printed a result
  bool verified = false;
  std::string category;  ///< empty when verified
  double seconds = -1.0;
  double peak_rss_mb = -1.0;
  std::string phases = "null";
};

/// Parent side: re-executes this binary for one pipeline point and reads
/// its result line.
PipelinePoint measure_pipeline_point(const char* family_name, int routers,
                                     int repetitions) {
  PipelinePoint point;
  const std::string routers_arg = std::to_string(routers);
  const std::string reps_arg = std::to_string(repetitions);
  const std::string jobs_arg = std::to_string(ThreadPool::shared().workers());
  // Everything the child needs is built before fork(): between fork and
  // exec only async-signal-safe calls are allowed (the pool's threads are
  // not copied into the child).
  std::vector<char*> child_argv = {
      const_cast<char*>("bench_scale"),
      const_cast<char*>("--jobs"),
      const_cast<char*>(jobs_arg.c_str()),
      const_cast<char*>("--pipeline-point"),
      const_cast<char*>(family_name),
      const_cast<char*>(routers_arg.c_str()),
      const_cast<char*>(reps_arg.c_str()),
      nullptr};
  int fds[2];
  if (pipe(fds) != 0) return point;
  std::fflush(stdout);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return point;
  }
  if (pid == 0) {
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    execv("/proc/self/exe", child_argv.data());
    _exit(127);
  }
  close(fds[1]);
  std::string line;
  char buffer[4096];
  ssize_t got = 0;
  while ((got = read(fds[0], buffer, sizeof buffer)) > 0) {
    line.append(buffer, static_cast<std::size_t>(got));
  }
  close(fds[0]);
  int status = 0;
  if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    return point;
  }
  char category[64] = {};
  int verified = 0;
  int consumed = 0;
  if (std::sscanf(line.c_str(), "%d %63s %lf %lf %n", &verified, category,
                  &point.seconds, &point.peak_rss_mb, &consumed) != 4 ||
      consumed == 0) {
    return point;
  }
  point.ok = true;
  point.verified = verified != 0;
  if (std::string(category) != "-") point.category = category;
  point.phases = line.substr(static_cast<std::size_t>(consumed));
  while (!point.phases.empty() && point.phases.back() == '\n') {
    point.phases.pop_back();
  }
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  int max_routers = 10000;
  int pipeline_max = 316;
  unsigned jobs = 0;
  std::string out_path = "BENCH_scale.json";
  std::string families_arg = "waxman-ospf,waxman-rip,multi-as,pref-attach";

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--pipeline-point" && i + 3 < argc) {
      if (jobs > 0) ThreadPool::configure(jobs);
      return run_pipeline_point(argv[i + 1], std::atoi(argv[i + 2]),
                                std::atoi(argv[i + 3]));
    }
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--max-routers") {
      max_routers = std::atoi(value());
    } else if (arg == "--pipeline-max") {
      pipeline_max = std::atoi(value());
    } else if (arg == "--jobs") {
      jobs = static_cast<unsigned>(std::atoi(value()));
    } else if (arg == "--families") {
      families_arg = value();
    } else if (arg == "--out") {
      out_path = value();
    } else {
      usage(argv[0]);
    }
  }
  if (max_routers < 2) usage(argv[0]);
  if (jobs > 0) ThreadPool::configure(jobs);

  // Each comma-separated item selects the families whose name it
  // prefixes ("waxman" = waxman-ospf and waxman-rip).
  std::vector<FamilySpec> families;
  for (const auto& spec : kAllFamilies) {
    std::size_t begin = 0;
    while (begin <= families_arg.size()) {
      const std::size_t end =
          std::min(families_arg.find(',', begin), families_arg.size());
      const std::string item = families_arg.substr(begin, end - begin);
      if (!item.empty() && std::string(spec.name).rfind(item, 0) == 0) {
        families.push_back(spec);
        break;
      }
      begin = end + 1;
    }
  }
  if (families.empty()) usage(argv[0]);

  const int sizes[] = {100, 316, 1000, 3162, 10000};

  bench::header("Simulation core scale sweep (flat CSR/SoA vs reference "
                "oracle)",
                "fresh simulation against the serial oracle, FIBs matching "
                "entry for entry");
  std::printf("jobs=%u hardware_concurrency=%u max_routers=%d "
              "reference_max=%d pipeline_max=%d\n\n",
              ThreadPool::shared().workers(),
              std::thread::hardware_concurrency(), max_routers,
              kReferenceMaxRouters, pipeline_max);
  std::printf("%-12s %6s %6s %6s | %8s %8s %8s | %7s %5s | %8s %8s %8s | "
              "%8s %7s %s\n",
              "family", "R", "hosts", "links", "topo (s)", "flat (s)",
              "ref (s)", "ref/fl", "fib=", "inc (s)", "full (s)",
              "full/inc", "pipe (s)", "rss MB", "verdict");

  bool all_fibs_match = true;
  bool all_points_ran = true;
  std::string json =
      std::string("{\n  \"schema\": \"confmask.bench-scale/3\",\n") +
      "  \"jobs\": " + std::to_string(ThreadPool::shared().workers()) +
      ",\n  \"hardware_concurrency\": " +
      std::to_string(std::thread::hardware_concurrency()) +
      ",\n  \"max_routers\": " + std::to_string(max_routers) +
      ",\n  \"reference_max_routers\": " +
      std::to_string(kReferenceMaxRouters) +
      ",\n  \"pipeline_max_routers\": " + std::to_string(pipeline_max) +
      ",\n  \"sweep\": [";
  bool first = true;

  for (const auto& spec : families) {
    for (const int routers : sizes) {
      if (routers > max_routers) {
        std::printf("%-12s %6d  -- skipped (--max-routers %d)\n", spec.name,
                    routers, max_routers);
        continue;
      }
      const ConfigSet configs = point_network(spec.family, routers);
      const int repetitions = routers <= 3162 ? 3 : 1;

      const double topo_s =
          min_time(repetitions, [&] { Topology::build(configs); });
      const Topology topo = Topology::build(configs);
      const auto links = topo.links().size();
      const int hosts = topo.host_count();

      const double flat_s =
          min_time(repetitions, [&] { Simulation sim(configs); });
      const Simulation sim(configs);

      // The serial reference oracle on the same network: the speed
      // denominator and the FIB check.
      double ref_s = -1.0;
      std::string fib_mismatch;
      const bool reference_ran = routers <= kReferenceMaxRouters;
      if (reference_ran) {
        ref_s = min_time(repetitions,
                         [&] { ReferenceSimulation ref(configs); });
        fib_mismatch = first_fib_mismatch(sim, ReferenceSimulation(configs));
        if (!fib_mismatch.empty()) {
          std::fprintf(stderr, "%s R=%d: FIB mismatch: %s\n", spec.name,
                       routers, fib_mismatch.c_str());
          all_fibs_match = false;
        }
      }

      // Incremental vs full re-simulation after one route-filter edit.
      ConfigSet edited = configs;
      SimulationDelta delta;
      for (int r = 0; r < topo.router_count() && delta.empty(); ++r) {
        const auto& incident = topo.links_of(r);
        if (incident.empty()) continue;
        const Ipv4Prefix target =
            edited.hosts.front().prefix();
        if (add_route_filter(edited, topo, r, topo.link(incident.front()),
                             target)) {
          delta.record(r, target);
        }
      }
      double incremental_s = -1.0;
      double full_s = -1.0;
      if (!delta.empty()) {
        incremental_s = min_time(
            repetitions, [&] { Simulation inc(edited, sim, delta); });
        full_s = min_time(repetitions, [&] { Simulation fresh(edited); });
      }

      // Full pipeline with per-span metrics, on affordable sizes, in a
      // child process so its peak RSS is its own.
      PipelinePoint pipeline;
      if (routers <= pipeline_max) {
        pipeline = measure_pipeline_point(spec.name, routers, repetitions);
        if (!pipeline.ok) {
          std::fprintf(stderr, "%s R=%d: pipeline child produced no result\n",
                       spec.name, routers);
          all_points_ran = false;
        }
      } else {
        std::printf("%-12s %6d  -- pipeline skipped (--pipeline-max %d)\n",
                    spec.name, routers, pipeline_max);
      }

      const double speedup = reference_ran ? ref_s / flat_s : -1.0;
      const std::string verdict =
          !pipeline.ok ? "--"
          : pipeline.verified ? "verified"
                              : "refused:" + pipeline.category;
      std::printf(
          "%-12s %6d %6d %6zu | %8.4f %8.4f %8s | %7s %5s | %8s %8s %8s | "
          "%8s %7s %s\n",
          spec.name, routers, hosts, links, topo_s, flat_s,
          cell(ref_s).c_str(), cell(speedup, "%.2fx").c_str(),
          !reference_ran ? "--" : fib_mismatch.empty() ? "ok" : "FAIL",
          cell(incremental_s, "%.6f").c_str(), cell(full_s).c_str(),
          cell(incremental_s > 0 && full_s > 0 ? full_s / incremental_s
                                               : -1.0,
               "%.0fx")
              .c_str(),
          cell(pipeline.ok ? pipeline.seconds : -1.0, "%.3f").c_str(),
          cell(pipeline.ok ? pipeline.peak_rss_mb : -1.0, "%.0f").c_str(),
          verdict.c_str());
      bench::csv("scale," + std::string(spec.name) + "," +
                 std::to_string(routers) + "," + json_number(flat_s) + "," +
                 (reference_ran ? json_number(ref_s) : "") + "," +
                 (reference_ran ? json_number(speedup) : ""));

      json += std::string(first ? "" : ",") + "\n    {\"family\": \"" +
              spec.name + "\", \"routers\": " + std::to_string(routers) +
              ", \"hosts\": " + std::to_string(hosts) +
              ", \"links\": " + std::to_string(links) +
              ", \"repetitions\": " + std::to_string(repetitions) +
              ", \"topology_build_s\": " + json_number(topo_s) +
              ", \"fresh_sim_s\": " + json_number(flat_s) +
              ", \"reference_sim_s\": " +
              (reference_ran ? json_number(ref_s) : "null") +
              ", \"speedup_vs_reference\": " +
              (reference_ran ? json_number(speedup) : "null") +
              ", \"fib_matches_reference\": " +
              (reference_ran ? (fib_mismatch.empty() ? "true" : "false")
                             : "null") +
              ", \"incremental_sim_s\": " +
              (incremental_s >= 0 ? json_number(incremental_s) : "null") +
              ", \"full_resim_s\": " +
              (full_s >= 0 ? json_number(full_s) : "null") +
              ", \"pipeline_s\": " +
              (pipeline.ok ? json_number(pipeline.seconds) : "null") +
              ", \"pipeline_verified\": " +
              (pipeline.ok ? (pipeline.verified ? "true" : "false")
                           : "null") +
              ", \"pipeline_category\": " +
              (pipeline.ok && !pipeline.verified
                   ? "\"" + pipeline.category + "\""
                   : "null") +
              ", \"pipeline_peak_rss_mb\": " +
              (pipeline.ok ? json_number(pipeline.peak_rss_mb) : "null") +
              ", \"pipeline_phases_s\": " + pipeline.phases + "}";
      first = false;
    }
  }
  json += "\n  ]\n}\n";

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "failed to open %s for writing\n", out_path.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), out);
  std::fclose(out);
  std::printf("\nwrote %s\n", out_path.c_str());
  if (!all_fibs_match) {
    std::fprintf(stderr,
                 "FIB MISMATCH: flat engine diverged from the reference "
                 "oracle (see above)\n");
    return 1;
  }
  if (!all_points_ran) {
    std::fprintf(stderr, "a pipeline child failed (see above)\n");
    return 1;
  }
  return 0;
}

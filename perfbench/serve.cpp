// Serve workload: an in-process confmaskd (journal on, so every admission
// is fsync'd) under an open loop. One generator thread releases requests
// on a fixed schedule; nproc client threads run each one as submit ->
// subscribe to the terminal event -> result, through the client library.
// (The library opens one connection per call and the daemon closes a
// subscribe stream at its terminal event, so connections are per call;
// concurrency is bounded by the nproc client threads.)
//
// The mix, fixed per block of 10 requests in a seeded order: 8 repeats of
// a warm (bundle, seed) pair the set-up published, which the cache
// answers, and 2 fresh requests, each on a network of its own, which run
// the pipeline and write the cache and the journal. Every latency is timed from the request's due
// time, so a stall also charges the requests queued behind it.
//
// The traced run records a span around the client calls of every other
// request (the rest are its untraced reference) and, after the load,
// replays the daemon's admission and hit path for the first requests from
// the service library's public functions (JSON parse, bundle parse and
// canonical emit, cache key, journal append, cache lookup or store,
// response encode) against a side cache and journal.
#include <unistd.h>

#include <algorithm>
#include <array>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "perfbench/workloads.hpp"
#include "src/config/emit.hpp"
#include "src/config/parse.hpp"
#include "src/core/pipeline_runner.hpp"
#include "src/service/artifact_cache.hpp"
#include "src/service/cache_key.hpp"
#include "src/service/client.hpp"
#include "src/service/daemon.hpp"
#include "src/service/job_journal.hpp"
#include "src/service/json_line.hpp"
#include "src/util/rng.hpp"

namespace perfbench {

using namespace confmask;
namespace fs = std::filesystem;

namespace {

constexpr int kWarmBundles = 8;      // networks of the warm (bundle, seed) pairs
constexpr int kSeedsPerBundle = 2;   // warm pairs per network
constexpr double kRatePerS = 5.0;  // open-loop arrival rate (see README)
constexpr double kHitLimitMs = 100.0;   // latency limit of a cache read
constexpr double kMissLimitMs = 1000.0; // latency limit of a pipeline run
constexpr double kMaxLatenessMs = 100.0;  // p99 generator lateness bound
constexpr std::uint32_t kTimeoutMs = 60'000;

struct Line {
  std::string submit;  ///< pre-encoded submit request
  ConfMaskOptions options;
  std::size_t bundle = 0;
};

struct Request {
  std::size_t line = 0;
  bool hit = false;  ///< intended class: warm pair (true) or fresh seed
  double due = 0, dispatched = 0, started = 0, acked = 0, terminal = 0,
         done = 0;
  bool ok = false;  ///< verified result received
  bool cache_hit = false;
  bool rejected = false;
  bool traced = false;  ///< traced run: spans were recorded for it
  std::string state;    ///< terminal job state, empty if none was seen
  std::string key;      ///< cache key from the submit ack
  std::string digest;   ///< digest of the result's configs
  CacheArtifacts artifacts;  ///< set-up warm-up only: the result payload
};

/// A running daemon plus its state directory.
class DaemonHandle {
 public:
  DaemonHandle(const fs::path& dir, const std::string& socket) : dir_(dir) {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    Daemon::Options options;
    options.socket_path = socket;
    options.cache_dir = dir_ / "cache";
    options.journal_path = dir_ / "journal.ndjson";
    daemon_ = std::make_unique<Daemon>(options);
    thread_ = std::thread([this] { (void)daemon_->run(); });
    for (int i = 0; i < 500; ++i) {
      const auto pong = client_roundtrip(
          socket, JsonLineWriter{}.string("op", "ping").str(),
          static_cast<std::string*>(nullptr), 1000);
      if (pong) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    stop();
    throw std::runtime_error("daemon did not come up on " + socket);
  }
  ~DaemonHandle() { stop(); }
  DaemonHandle(const DaemonHandle&) = delete;
  DaemonHandle& operator=(const DaemonHandle&) = delete;

 private:
  void stop() {
    if (!thread_.joinable()) return;
    daemon_->request_stop();
    thread_.join();
    std::error_code ignored;
    fs::remove_all(dir_, ignored);
  }

  fs::path dir_;
  std::unique_ptr<Daemon> daemon_;
  std::thread thread_;
};

std::string submit_line(const std::string& configs,
                        const ConfMaskOptions& options) {
  return JsonLineWriter{}
      .string("op", "submit")
      .string("configs", configs)
      .number("k_r", options.k_r)
      .number("k_h", options.k_h)
      .real("noise_p", options.noise_p)
      .number_u64("seed", options.seed)
      .str();
}

/// submit -> subscribe to the terminal event -> result.
void execute(const std::string& socket, const Line& line, Request& request,
             bool keep_artifacts = false) {
  request.started = now_s();
  const auto ack = traced("client.submit", [&] {
    return client_roundtrip(socket, line.submit,
                            static_cast<std::string*>(nullptr), kTimeoutMs);
  });
  request.acked = now_s();
  if (!ack) return;
  const auto ack_object = parse_json_line(*ack);
  if (!ack_object || get_bool(*ack_object, "ok") != true) {
    request.rejected = ack_object && get_u64(*ack_object, "retry_after_ms");
    return;
  }
  const auto job = get_u64(*ack_object, "job");
  request.key = get_string(*ack_object, "cache_key").value_or("");
  if (!job) return;

  std::string state;
  traced("client.subscribe", [&] {
    const bool streamed = client_stream(
        socket,
        JsonLineWriter{}.string("op", "subscribe").number_u64("job", *job).str(),
        [&](const std::string& event) {
          const auto object = parse_json_line(event);
          if (object && get_string(*object, "type") == "state") {
            state = get_string(*object, "state").value_or("");
            return state != "done" && state != "failed" &&
                   state != "cancelled";
          }
          return true;
        },
        nullptr, kTimeoutMs);
    (void)streamed;
  });
  request.terminal = now_s();
  request.state = state;
  if (state != "done") return;

  const auto result = traced("client.result", [&] {
    return client_roundtrip(
        socket,
        JsonLineWriter{}.string("op", "result").number_u64("job", *job).str(),
        static_cast<std::string*>(nullptr), kTimeoutMs);
  });
  if (!result) return;
  const auto object =
      traced("client.parse", [&] { return parse_json_line(*result); });
  request.done = now_s();
  if (!object || get_bool(*object, "ok") != true) return;
  const auto configs = get_string(*object, "configs");
  if (!configs || configs->empty()) return;
  request.ok = true;
  request.cache_hit = get_bool(*object, "cache_hit").value_or(false);
  request.digest = hex_digest(*configs);
  if (keep_artifacts) {
    request.artifacts.anonymized_configs = *configs;
    request.artifacts.original_configs =
        get_string(*object, "original").value_or("");
    request.artifacts.diagnostics_json =
        get_string(*object, "diagnostics").value_or("");
    request.artifacts.metrics_json =
        get_string(*object, "metrics").value_or("");
  }
}

struct ServeSetup {
  std::vector<Line> warm;
  std::vector<Line> fresh;
  std::vector<Request> warmups;  ///< the warm-up miss of every warm pair
  std::unique_ptr<DaemonHandle> daemon;
};

/// The daemon's admission and hit path for one request line, call by call
/// (protocol.cpp, job_scheduler.cpp): parse the line and the bundle,
/// canonicalize, key, journal the submission, look the key up, and on a
/// miss store `artifacts` as the pipeline would; then encode the result
/// response. Returns the cache key.
std::string replay_request(const Line& line, ArtifactCache& cache,
                           JobJournal& journal, std::uint64_t id,
                           const CacheArtifacts& artifacts) {
  const auto object = traced("service.json_parse",
                             [&] { return *parse_json_line(line.submit); });
  const ConfigSet configs = traced("config.parse", [&] {
    return parse_config_set(*get_string(object, "configs"));
  });
  JobRequest job;
  job.options = line.options;
  const std::string canonical = traced("config.emit", [&] {
    job.configs = canonicalize(configs);
    return canonical_config_set_text(job.configs);
  });
  const CacheKey key = traced("service.cache_key", [&] {
    return compute_cache_key(canonical, job.options, job.policy, job.strategy,
                             job.tenant);
  });
  traced("service.journal_append",
         [&] { (void)journal.append_submit(id, job, key); });
  auto found = traced("service.cache_lookup", [&] { return cache.lookup(key); });
  if (!found && !artifacts.anonymized_configs.empty()) {
    traced("service.cache_store", [&] { cache.store(key, artifacts); });
    found = artifacts;
  }
  if (found) {
    const std::string response = traced("service.json_encode", [&] {
      return JsonLineWriter{}
          .boolean("ok", true)
          .string("op", "result")
          .number_u64("job", id)
          .string("state", "done")
          .string("tenant", job.tenant)
          .boolean("cache_hit", true)
          .string("configs", found->anonymized_configs)
          .string("original", found->original_configs)
          .string("diagnostics", found->diagnostics_json)
          .string("metrics", found->metrics_json)
          .str();
    });
    (void)response;
  }
  return key.hex();
}

}  // namespace

void run_serve(const Args& args, int routers, Report& report) {
  const std::string socket =
      args.out_dir + "/serve-" + std::to_string(::getpid()) + ".sock";
  const fs::path state_dir =
      fs::path(args.out_dir) / ("serve-" + std::to_string(::getpid()));
  const auto fresh_lines =
      static_cast<std::size_t>(kRatePerS * args.seconds * 0.2) + 8;
  const unsigned clients = std::max(1u, std::thread::hardware_concurrency());

  // Set-up, five times: inputs, pre-encoded request lines, a fresh daemon,
  // and one anonymization of every warm pair through it.
  ServeSetup setup;
  const auto build_setup = [&] {
    // Each fresh request anonymizes a network of its own: whether a
    // network fails closed (three attempts instead of one) is a property
    // of the network, so many of them keep the miss load steady.
    const auto network = [&](std::uint64_t salt) {
      return canonical_config_set_text(make_bundle(
          ScaleFamily::kWaxman, routers, mix_seed(args.seed, salt)));
    };
    for (int b = 0; b < kWarmBundles; ++b) {
      const std::string text = network(0x5E00 + static_cast<std::uint64_t>(b));
      for (int s = 0; s < kSeedsPerBundle; ++s) {
        Line line;
        line.bundle = static_cast<std::size_t>(b);
        line.options = pipeline_options(mix_seed(
            args.seed, 0x5EED00 + static_cast<std::uint64_t>(b * 16 + s)));
        line.submit = submit_line(text, line.options);
        setup.warm.push_back(std::move(line));
      }
    }
    for (std::size_t k = 0; k < fresh_lines; ++k) {
      Line line;
      line.bundle = kWarmBundles + k;
      line.options = pipeline_options(mix_seed(args.seed, 0xF7E500 + k));
      line.submit = submit_line(network(0xF7E5000 + k), line.options);
      setup.fresh.push_back(std::move(line));
    }
    setup.daemon = std::make_unique<DaemonHandle>(state_dir, socket);
    // Warm the cache: all warm pairs at once, as concurrent clients.
    setup.warmups.resize(setup.warm.size());
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < setup.warm.size(); ++i) {
      threads.emplace_back([&, i] {
        execute(socket, setup.warm[i], setup.warmups[i], true);
      });
    }
    for (auto& thread : threads) thread.join();
  };
  // Each repeat first stops the previous repeat's daemon, untimed.
  time_setup(report, 5, [&] { setup = ServeSetup{}; }, build_setup);
  for (std::size_t i = 0; i < setup.warm.size(); ++i) {
    const Request& warmup = setup.warmups[i];
    report.note("warm pair " + std::to_string(i) + " bundle=" +
                std::to_string(setup.warm[i].bundle) +
                " seed=" + std::to_string(setup.warm[i].options.seed) +
                " verdict=" + (warmup.ok ? "verified" : "refused") +
                " digest=" + warmup.digest);
  }

  // The request schedule: per block of 10, 8 repeats and 2 fresh seeds in
  // a seeded order. A repeat asks again for a result the set-up published;
  // a pair the set-up refused has no cached result to repeat, and its
  // refusal stays on record in the set-up verdicts above.
  std::vector<std::size_t> published;
  for (std::size_t i = 0; i < setup.warmups.size(); ++i) {
    if (setup.warmups[i].ok) published.push_back(i);
  }
  if (published.empty()) {
    throw std::runtime_error("the set-up published no warm result");
  }
  Rng rng(mix_seed(args.seed, 0x10AD));
  const auto total = static_cast<std::size_t>(kRatePerS * args.seconds);
  std::vector<Request> requests(total);
  std::size_t next_fresh = 0;
  std::array<bool, 10> block{};
  for (std::size_t k = 0; k < total; ++k) {
    if (k % 10 == 0) {
      block = {true, true, true, true, true, true, true, true, false, false};
      for (std::size_t i = block.size() - 1; i > 0; --i) {
        std::swap(block[i], block[rng.below(i + 1)]);
      }
    }
    Request& request = requests[k];
    request.hit = block[k % 10];
    request.line =
        request.hit ? published[rng.below(published.size())] : next_fresh++;
    request.due = static_cast<double>(k) / kRatePerS;
  }

  // Open loop: the generator releases each request at its due time; the
  // client threads run them.
  std::mutex mutex;
  std::condition_variable ready;
  std::deque<std::size_t> queue;
  bool closed = false;
  std::vector<std::thread> workers;
  for (unsigned c = 0; c < clients; ++c) {
    workers.emplace_back([&] {
      for (;;) {
        std::size_t index = 0;
        {
          std::unique_lock<std::mutex> lock(mutex);
          ready.wait(lock, [&] { return closed || !queue.empty(); });
          if (queue.empty()) return;
          index = queue.front();
          queue.pop_front();
        }
        // A traced run records spans for every other request only; the
        // rest, under identical load, give the untraced reference.
        Request& request = requests[index];
        std::optional<Tracer::Suspend> untraced;
        if (index % 2 == 0) untraced.emplace();
        request.traced = Tracer::active() != nullptr;
        const OpScope op_scope(index + 1);
        const ScopedSpan span(request.hit ? "serve.hit" : "serve.miss");
        execute(socket,
                request.hit ? setup.warm[request.line]
                            : setup.fresh[request.line],
                request);
      }
    });
  }
  const double cpu_start = cpu_seconds();
  const double start = now_s();
  for (std::size_t k = 0; k < total; ++k) {
    requests[k].due += start;
    const double wait = requests[k].due - now_s();
    if (wait > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(wait));
    }
    requests[k].dispatched = now_s();
    {
      const std::lock_guard<std::mutex> lock(mutex);
      queue.push_back(k);
    }
    ready.notify_one();
  }
  {
    const std::lock_guard<std::mutex> lock(mutex);
    closed = true;
  }
  ready.notify_all();
  for (auto& worker : workers) worker.join();
  const double cpu_s = cpu_seconds() - cpu_start;

  // Per-class figures. A request that fails counts against the SLO.
  std::vector<double> latency[2], ack[2], wait[2], result[2], lateness;
  std::uint64_t failed = 0, rejected = 0, within = 0, cache_hits = 0;
  for (const Request& request : requests) {
    const int cls = request.hit ? 1 : 0;
    lateness.push_back((request.dispatched - request.due) * 1e3);
    rejected += request.rejected ? 1 : 0;
    if (!request.ok) {
      ++failed;
      report.note("request " + std::to_string(&request - requests.data()) +
                  " class=" + (request.hit ? "hit" : "miss") +
                  " line=" + std::to_string(request.line) + " failed state=" +
                  (request.rejected ? "rejected"
                   : request.state.empty() ? "none"
                                           : request.state));
      continue;
    }
    const double ms = (request.done - request.due) * 1e3;
    latency[cls].push_back(ms);
    ack[cls].push_back((request.acked - request.started) * 1e3);
    wait[cls].push_back((request.terminal - request.acked) * 1e3);
    result[cls].push_back((request.done - request.terminal) * 1e3);
    within += ms <= (request.hit ? kHitLimitMs : kMissLimitMs) ? 1 : 0;
    cache_hits += request.cache_hit ? 1 : 0;
    // request.line indexes setup.warm only for hits.
    if (request.hit && setup.warmups[request.line].ok) {
      report.check(request.digest == setup.warmups[request.line].digest,
                   "serve hit result differs from the miss result of key " +
                       request.key);
    }
  }
  const double n = static_cast<double>(total);
  const double lateness_p99 = percentile(lateness, 99.0);
  report.check(lateness_p99 <= kMaxLatenessMs,
               "generator lateness p99 " + std::to_string(lateness_p99) +
                   " ms exceeds " + std::to_string(kMaxLatenessMs) +
                   " ms: the run is invalid");

  report.attempted = total;
  report.failed = failed;
  report.e2e("cpu_s_per_op", cpu_s / n, "s");
  report.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  const Tail hit_tail = tail_of(latency[1]);
  const Tail miss_tail = tail_of(latency[0]);
  report.add_info("hit_p50_ms", median(latency[1]), "ms");
  report.add_info("hit_tail_ms", hit_tail.value, "ms");
  report.add_info("hit_tail_pct", hit_tail.pct, "pct");
  report.add_info("hit_samples", static_cast<double>(latency[1].size()),
                  "count");
  report.add_info("miss_p50_ms", median(latency[0]), "ms");
  report.add_info("miss_tail_ms", miss_tail.value, "ms");
  report.add_info("miss_tail_pct", miss_tail.pct, "pct");
  report.add_info("miss_samples", static_cast<double>(latency[0].size()),
                  "count");
  report.add_info("slo_share", static_cast<double>(within) / n, "share");
  report.add_info("failed_share", static_cast<double>(failed) / n, "share");
  report.add_info("rate", kRatePerS, "1/s");
  report.add_info("hit_limit_ms", kHitLimitMs, "ms");
  report.add_info("miss_limit_ms", kMissLimitMs, "ms");
  report.add_info("lateness_max_ms",
                  *std::max_element(lateness.begin(), lateness.end()), "ms");

  report.add_info("hit_ack_ms", median(ack[1]), "ms");
  report.add_info("hit_wait_ms", median(wait[1]), "ms");
  report.add_info("hit_result_ms", median(result[1]), "ms");
  if (args.trace) {
    report.layer("service.hit.ack_ms", median(ack[1]), "ms");
    report.layer("service.miss.ack_ms", median(ack[0]), "ms");
    report.layer("service.hit.wait_ms", median(wait[1]), "ms");
    report.layer("service.miss.wait_ms", median(wait[0]), "ms");
    report.layer("service.hit.result_ms", median(result[1]), "ms");
    report.layer("service.miss.result_ms", median(result[0]), "ms");
    report.layer("service.cache_hit_ratio",
                 static_cast<double>(cache_hits) / n, "ratio");
    report.layer("service.rejected", static_cast<double>(rejected), "count");
    report.layer("gen.lateness_ms", lateness_p99, "ms");
    std::vector<double> traced_hits;
    std::vector<double> untraced_hits;
    for (const Request& request : requests) {
      if (!request.hit || !request.ok) continue;
      (request.traced ? traced_hits : untraced_hits)
          .push_back(request.done - request.due);
    }
    report.layer("trace.overhead_s",
                 median(traced_hits) - median(untraced_hits), "s");

    // The hit path, layer by layer, for the first requests of the
    // schedule, against a side cache primed with the warm results.
    ArtifactCache cache(state_dir / "side-cache");
    JobJournal journal(state_dir / "side-journal.ndjson");
    for (std::size_t i = 0; i < setup.warm.size(); ++i) {
      const Request& warmup = setup.warmups[i];
      if (!warmup.ok) continue;
      const Tracer::Suspend untraced;
      report.check(replay_request(setup.warm[i], cache, journal, i + 1,
                                  warmup.artifacts) == warmup.key,
                   "replayed cache key differs from the daemon's");
    }
    const std::size_t replays = std::min<std::size_t>(requests.size(), 40);
    for (std::size_t k = 0; k < replays; ++k) {
      const Request& request = requests[k];
      const Line& line = request.hit ? setup.warm[request.line]
                                     : setup.fresh[request.line];
      // A miss stores a published result of a network of the same size
      // as a stand-in: the replay times the store, not the pipeline.
      const OpScope op_scope(1'000'000 + k);
      const ScopedSpan span("op");
      (void)replay_request(line, cache, journal, 1'000 + k,
                           setup.warmups[published.front()].artifacts);
    }
    report_span_layers(report, replays);
  }
}

}  // namespace perfbench

// In-memory span recorder for the benchmark's traced runs.
//
// Spans are opened by the benchmark around its calls into the library's
// public functions (parser, pipeline stages, diff, client), never inside
// the library. Each span records its name, monotonic start and end, the
// span that was open on the same thread when it started (its parent) and
// the id of the benchmark operation it belongs to. With no tracer
// installed every ScopedSpan is inert, so untraced runs pay one pointer
// test per call site.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/// Seconds on the monotonic clock since the process started measuring.
double now_s();

class Tracer {
 public:
  struct Span {
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    std::int64_t parent = -1;  ///< index into spans(), -1 for a root
    std::uint64_t op = 0;      ///< benchmark operation id (0 = none)
  };

  /// Installs this tracer as the process-wide active one.
  Tracer();
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The installed tracer, or nullptr in an untraced run or on a thread
  /// inside a Suspend scope.
  static Tracer* active();

  /// Turns span recording off on the calling thread while alive: how a
  /// traced run times untraced operations beside traced ones.
  class Suspend {
   public:
    Suspend();
    ~Suspend();
    Suspend(const Suspend&) = delete;
    Suspend& operator=(const Suspend&) = delete;

   private:
    bool previous_;
  };

  std::int64_t open(std::string_view name);
  void close(std::int64_t id);

  /// Ends and returns the recorded spans (call after all spans closed).
  [[nodiscard]] std::vector<Span> spans() const;

  /// Writes one NDJSON line per span.
  void write_ndjson(std::ostream& out) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span; inert when no tracer is installed.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string_view name)
      : tracer_(Tracer::active()),
        id_(tracer_ != nullptr ? tracer_->open(name) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  std::int64_t id_;
};

/// Marks every span opened on this thread while alive as belonging to
/// operation `op`.
class OpScope {
 public:
  explicit OpScope(std::uint64_t op);
  ~OpScope();
  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

 private:
  std::uint64_t previous_;
};

/// Runs `body` inside a span named `name`.
template <typename Fn>
decltype(auto) traced(std::string_view name, Fn&& body) {
  ScopedSpan span(name);
  return body();
}

/// Self time per span name: the spans' summed durations minus the time
/// their direct children cover.
[[nodiscard]] std::map<std::string, double> self_times(
    const std::vector<Tracer::Span>& spans);

}  // namespace perfbench

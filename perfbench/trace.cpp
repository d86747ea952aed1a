#include "perfbench/trace.hpp"

#include <atomic>
#include <chrono>
#include <iomanip>

#include "src/util/observability.hpp"

namespace perfbench {

namespace {

std::atomic<Tracer*> g_active{nullptr};
thread_local std::vector<std::int64_t> t_open;
thread_local std::uint64_t t_op = 0;
thread_local bool t_suspended = false;

const std::chrono::steady_clock::time_point g_epoch =
    std::chrono::steady_clock::now();

}  // namespace

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       g_epoch)
      .count();
}

Tracer::Tracer() { g_active.store(this, std::memory_order_release); }

Tracer::~Tracer() { g_active.store(nullptr, std::memory_order_release); }

Tracer* Tracer::active() {
  return t_suspended ? nullptr : g_active.load(std::memory_order_acquire);
}

Tracer::Suspend::Suspend() : previous_(t_suspended) { t_suspended = true; }

Tracer::Suspend::~Suspend() { t_suspended = previous_; }

std::int64_t Tracer::open(std::string_view name) {
  Span span;
  span.name = std::string(name);
  span.parent = t_open.empty() ? -1 : t_open.back();
  span.op = t_op;
  std::int64_t id = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    id = static_cast<std::int64_t>(spans_.size());
    spans_.push_back(std::move(span));
  }
  t_open.push_back(id);
  const double start = now_s();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].start_s = start;
  return id;
}

void Tracer::close(std::int64_t id) {
  const double end = now_s();
  if (!t_open.empty() && t_open.back() == id) t_open.pop_back();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end_s = end;
}

std::vector<Tracer::Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

void Tracer::write_ndjson(std::ostream& out) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  out << std::fixed << std::setprecision(9);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << "{\"id\": " << i << ", \"name\": \""
        << confmask::obs::json_escape(span.name)
        << "\", \"start_s\": " << span.start_s
        << ", \"end_s\": " << span.end_s << ", \"parent\": " << span.parent
        << ", \"op\": " << span.op << "}\n";
  }
}

OpScope::OpScope(std::uint64_t op) : previous_(t_op) { t_op = op; }

OpScope::~OpScope() { t_op = previous_; }

std::map<std::string, double> self_times(
    const std::vector<Tracer::Span>& spans) {
  std::map<std::string, double> out;
  for (const Tracer::Span& span : spans) {
    const double duration = span.end_s - span.start_s;
    out[span.name] += duration;
    if (span.parent >= 0) {
      out[spans[static_cast<std::size_t>(span.parent)].name] -= duration;
    }
  }
  return out;
}

}  // namespace perfbench

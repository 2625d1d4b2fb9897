#include "obs/trace.hpp"

#include <sstream>
#include <unordered_set>

#include "util/env.hpp"

namespace c56::obs {

void set_trace_enabled(bool on) noexcept {
  detail::g_trace_enabled.store(on, std::memory_order_relaxed);
}

TraceRecorder::TraceRecorder(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  ring_.reserve(capacity_);
}

TraceRecorder& TraceRecorder::global() {
  static TraceRecorder* rec = [] {
    if (const auto v = util::env_int("C56_TRACE", 0, 1); v && *v != 0) {
      set_trace_enabled(true);
    }
    return new TraceRecorder();
  }();
  return *rec;
}

void TraceRecorder::record(TraceSpan span) {
  std::lock_guard lk(mu_);
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(span));
  } else {
    ring_[next_] = std::move(span);
  }
  next_ = (next_ + 1) % capacity_;
  ++total_;
}

std::vector<TraceSpan> TraceRecorder::snapshot() const {
  std::lock_guard lk(mu_);
  std::vector<TraceSpan> out;
  out.reserve(ring_.size());
  if (ring_.size() < capacity_) {
    out = ring_;
  } else {
    // Ring is full: the slot at next_ is the oldest span.
    for (std::size_t i = 0; i < capacity_; ++i) {
      out.push_back(ring_[(next_ + i) % capacity_]);
    }
  }
  return out;
}

std::uint64_t TraceRecorder::dropped() const {
  std::lock_guard lk(mu_);
  return total_ > capacity_ ? total_ - capacity_ : 0;
}

void TraceRecorder::clear() {
  std::lock_guard lk(mu_);
  ring_.clear();
  next_ = 0;
  total_ = 0;
}

std::string TraceRecorder::to_json() const {
  const std::vector<TraceSpan> spans = snapshot();
  // Parent links only render when the parent survived the ring — a
  // wrapped ring must never leave a child pointing at an evicted span.
  std::unordered_set<std::uint64_t> present;
  for (const TraceSpan& s : spans) {
    if (s.span_id != 0) present.insert(s.span_id);
  }
  std::ostringstream out;
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const TraceSpan& s = spans[i];
    out << "  {\"name\": \"" << s.name << "\", \"ph\": \"X\", \"ts\": "
        << s.start_us << ", \"dur\": " << s.dur_us << ", \"pid\": 1, "
        << "\"tid\": " << s.tid;
    if (s.trace_id != 0 || s.span_id != 0) {
      out << ", \"args\": {\"trace\": " << s.trace_id << ", \"span\": "
          << s.span_id;
      if (s.parent_id != 0 && present.contains(s.parent_id)) {
        out << ", \"parent\": " << s.parent_id;
      }
      if (s.tenant >= 0) out << ", \"tenant\": " << s.tenant;
      if (s.volume >= 0) out << ", \"volume\": " << s.volume;
      if (s.bytes >= 0) out << ", \"bytes\": " << s.bytes;
      out << "}";
    }
    out << "}" << (i + 1 < spans.size() ? "," : "") << "\n";
  }
  out << "]}\n";
  return out.str();
}

}  // namespace c56::obs

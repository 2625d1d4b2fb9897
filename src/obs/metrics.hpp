#pragma once
// Observability layer: a lock-light metrics registry.
//
// Three metric primitives — monotonic Counter, settable Gauge, and a
// log2-bucketed latency Histogram with p50/p95/p99/max extraction —
// are plain structs of relaxed atomics, so updating one is a handful
// of uncontended instructions and is safe from any thread. They can
// live in two places:
//
//  * owned by a Registry (counter(name)/gauge(name)/histogram(name),
//    find-or-create, stable addresses for the registry's lifetime), or
//  * embedded in a subsystem (DiskArray's per-disk counters, the
//    controller's planner counters, ...) and exported at snapshot time
//    through a registered *collector* callback. Collectors keep the
//    subsystem's existing accessor APIs authoritative — the registry
//    never owns or copies their state, it just reads it when asked.
//
// The global on/off switch is one relaxed atomic bool read through
// metrics_enabled(): every optional hot-path observation (latency
// clocks, planner decision counts, pool aggregates) is gated behind
// that single branch, so a disabled registry costs one predictable
// branch and nothing else. Pre-existing accounting that callers rely
// on (DiskArray I/O counters, OnlineStats) keeps counting regardless
// of the switch.
//
// snapshot() serializes everything — owned metrics plus collectors —
// into a name-sorted Snapshot that the JSON and Prometheus-text
// exporters render deterministically, so the two formats always agree.
// Metric names use Prometheus conventions; per-instance dimensions go
// in a trailing label block the caller appends to the name, e.g.
// "disk_array_reads{disk=\"3\"}". Histograms may carry a label block
// too (the Prometheus exporter merges its quantile label into it).
// The Prometheus exporter is exposition-format conformant: counters
// gain a _total suffix (inserted before the label block unless the
// base already ends in _total), and every family is preceded by
// # HELP and # TYPE lines. Help text comes from set_metric_help(),
// falling back to the family name with underscores spaced out.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace c56::obs {

namespace detail {
inline std::atomic<bool> g_metrics_enabled{false};

/// JSON string escaping shared by every obs serializer (metric names
/// embed quoted label blocks; event messages are arbitrary text).
std::string json_escape(const std::string& s);
}  // namespace detail

/// The one hot-path branch: true when optional observations (latency
/// histograms, planner counters, trace spans' metric twins) should run.
inline bool metrics_enabled() noexcept {
  return detail::g_metrics_enabled.load(std::memory_order_relaxed);
}
void set_metrics_enabled(bool on) noexcept;

/// Monotonic counter. Relaxed increments; reset() is for tests/benches.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Settable signed gauge.
class Gauge {
 public:
  void set(std::int64_t v) noexcept { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) noexcept {
    v_.fetch_add(d, std::memory_order_relaxed);
  }
  std::int64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> v_{0};
};

struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;
  double p50 = 0, p95 = 0, p99 = 0;
  /// Non-empty buckets as (inclusive upper bound, count).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> buckets;

  /// Quantile from the bucket boundaries (linear interpolation inside
  /// the winning bucket). Exact for values that landed on a boundary.
  double quantile(double q) const;

  /// Interval delta: this snapshot minus an earlier `prev` of the same
  /// histogram, with p50/p95/p99 recomputed over the interval's
  /// samples — the primitive behind rate windows (c56cli top) and the
  /// SLO tracker's interval quantiles. If the histogram was reset
  /// between the two snapshots (count, sum or any bucket would go
  /// negative), the delta is *this unchanged: after a reset the
  /// current snapshot IS the interval. max is carried from *this (a
  /// lifetime max — the interval's true max is not recoverable).
  HistogramSnapshot minus(const HistogramSnapshot& prev) const;

  /// Estimated number of samples strictly above `threshold`, counting
  /// whole buckets above it plus a linear fraction of the straddling
  /// bucket. Feeds SLO violation estimates.
  double count_above(std::uint64_t threshold) const;
};

/// Log2-bucketed histogram over non-negative integer samples (latency
/// in microseconds, queue depths, ...). Bucket k holds values whose
/// bit width is k, i.e. [2^(k-1), 2^k - 1]; bucket 0 holds zero. A
/// sample is three relaxed atomic ops plus a CAS-loop max.
class Histogram {
 public:
  static constexpr int kBuckets = 65;  // bit widths 0..64

  void observe(std::uint64_t v) noexcept;
  HistogramSnapshot snapshot() const;
  void reset() noexcept;

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
};

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

struct Metric {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t counter = 0;  // kCounter
  std::int64_t gauge = 0;     // kGauge
  HistogramSnapshot hist;     // kHistogram
};

/// Point-in-time view of every metric, sorted by name.
struct Snapshot {
  std::vector<Metric> metrics;

  /// nullptr when `name` is absent.
  const Metric* find(const std::string& name) const;
};

/// Builder handed to collector callbacks at snapshot time.
class Collection {
 public:
  void counter(std::string name, std::uint64_t v);
  void gauge(std::string name, std::int64_t v);
  void histogram(std::string name, HistogramSnapshot h);

 private:
  friend class Registry;
  explicit Collection(std::vector<Metric>& out) : out_(out) {}
  std::vector<Metric>& out_;
};

class Registry;

/// RAII registration token: removing it (or destroying it) detaches
/// the collector. The Registry must outlive the handle.
class CollectorHandle {
 public:
  CollectorHandle() = default;
  CollectorHandle(CollectorHandle&& o) noexcept;
  CollectorHandle& operator=(CollectorHandle&& o) noexcept;
  CollectorHandle(const CollectorHandle&) = delete;
  CollectorHandle& operator=(const CollectorHandle&) = delete;
  ~CollectorHandle();

  void remove() noexcept;
  explicit operator bool() const noexcept { return reg_ != nullptr; }

 private:
  friend class Registry;
  CollectorHandle(Registry* reg, std::uint64_t id) : reg_(reg), id_(id) {}
  Registry* reg_ = nullptr;
  std::uint64_t id_ = 0;
};

class Registry {
 public:
  Registry();
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Process-wide default registry (what c56cli and the benches dump).
  static Registry& global();

  /// Find-or-create an owned metric. The reference stays valid for the
  /// registry's lifetime; names are per-kind namespaces.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Register a snapshot-time callback exporting externally-owned
  /// metrics; the handle detaches it. The callback runs under the
  /// registry lock — it must not call back into this registry.
  [[nodiscard]] CollectorHandle add_collector(
      std::function<void(Collection&)> fn);

  Snapshot snapshot() const;
  std::string to_json() const;
  std::string to_prometheus() const;

  /// Zero every owned metric (collector-backed state is untouched).
  void reset();

 private:
  friend class CollectorHandle;
  void remove_collector(std::uint64_t id) noexcept;

  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Deterministic renderings of a snapshot. Both sort by metric name;
/// a snapshot rendered through either format carries the same values.
std::string to_json(const Snapshot& snap);
std::string to_prometheus(const Snapshot& snap);

/// Register Prometheus # HELP text for a metric family, keyed by the
/// label-free base name as callers write it (pre-_total; the exporter
/// resolves either spelling). Process-wide; later calls overwrite.
void set_metric_help(const std::string& base, const std::string& help);

}  // namespace c56::obs

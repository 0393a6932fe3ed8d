// One metrics registry for the whole stack.
//
// The registry gives every layer one namespace and one export path (a
// Prometheus-style text dump, plus structured snapshots for tests, the
// alert engine, the scenario timeline and the bench tooling): hot paths
// write the registry's instruments directly, or register a *collector* —
// a callback run at snapshot time that reports current values (the
// Prometheus collector pattern).
//
// Instruments are sharded like the KMS: a family owns `cells` independent
// cache-line-padded atomic slots (one per shard/lane), written with
// relaxed operations — no cross-shard locks, no contention on the grant
// path — and aggregated only when read. Every instrument also stands
// alone: the KMS lists its Stats fields once in a CounterField table
// whose rows' Counters are the fields' only store, keeps its queue depth
// in a Gauge with one cell per shard, reads both by value in its accessors
// and exports the same cells from its collector.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace qkd::obs {

/// A monotonically increasing count, sharded across cells. Writers pass
/// their own cell index; value() sums all cells with relaxed loads (the
/// counters are statistically consistent, not a synchronization point).
class Counter {
 public:
  explicit Counter(std::size_t cells);

  void add(std::uint64_t n = 1, std::size_t cell = 0) {
    slot(cell).fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const;
  std::uint64_t cell_value(std::size_t cell) const {
    return slot(cell).load(std::memory_order_relaxed);
  }
  std::size_t cells() const { return cells_.size(); }

 private:
  struct Slot {
    alignas(64) std::atomic<std::uint64_t> v{0};
  };
  std::atomic<std::uint64_t>& slot(std::size_t cell) {
    return cells_[cell < cells_.size() ? cell : cells_.size() - 1].v;
  }
  const std::atomic<std::uint64_t>& slot(std::size_t cell) const {
    return cells_[cell < cells_.size() ? cell : cells_.size() - 1].v;
  }
  std::vector<Slot> cells_;
};

/// A point-in-time signed value; per-cell set/add, summed on read.
class Gauge {
 public:
  explicit Gauge(std::size_t cells);

  void set(std::int64_t v, std::size_t cell = 0) {
    slot(cell).store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t delta, std::size_t cell = 0) {
    slot(cell).fetch_add(delta, std::memory_order_relaxed);
  }
  std::int64_t value() const;
  std::size_t cells() const { return cells_.size(); }

 private:
  struct Slot {
    alignas(64) std::atomic<std::int64_t> v{0};
  };
  std::atomic<std::int64_t>& slot(std::size_t cell) {
    return cells_[cell < cells_.size() ? cell : cells_.size() - 1].v;
  }
  const std::atomic<std::int64_t>& slot(std::size_t cell) const {
    return cells_[cell < cells_.size() ? cell : cells_.size() - 1].v;
  }
  std::vector<Slot> cells_;
};

/// Fixed-bucket latency/size histogram: power-of-two buckets (value v
/// lands in bucket bit_width(v)), O(1) memory over million-sample runs,
/// sharded per cell like Counter. Quantiles report the bucket's upper
/// bound — conservative (0 for the zero-value bucket). Usable standalone
/// (the KMS keeps one per QoS class, one cell per shard) or registered.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  explicit Histogram(std::size_t cells);

  void record(std::uint64_t value, std::size_t cell = 0);
  std::uint64_t count() const;
  std::uint64_t sum() const;
  /// Conservative quantile (upper bucket bound), 0 when empty.
  double quantile(double q) const;
  /// Bucket counts summed across cells (export path).
  std::vector<std::uint64_t> bucket_counts() const;
  std::size_t cells() const { return cells_.size(); }

 private:
  struct Slot {
    alignas(64) std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> buckets[kBuckets]{};
  };
  std::vector<std::unique_ptr<Slot>> cells_;
};

/// One row of a counter table: a field of a Stats struct and the name it
/// exports under. The KMS keeps the field only in the Counter it holds for
/// the row; a layer with a plain Stats struct exports the field itself.
template <typename S>
struct CounterField {
  const char* name;
  std::uint64_t S::*member;
};

/// The row of `table` that stores `member`, resolved at compile time.
template <typename S, std::size_t N>
consteval std::size_t counter_row(const CounterField<S> (&table)[N],
                                  std::uint64_t S::*member) {
  for (std::size_t row = 0; row < N; ++row)
    if (table[row].member == member) return row;
  throw "counter_row: not a row of this table";
}

/// The struct `table` describes, read from `counters` (one per row): each
/// field is its counter summed over every cell, or only `cell`'s share
/// (std::out_of_range when there is no such cell).
template <typename S, std::size_t N>
S read_counters(const CounterField<S> (&table)[N],
                const std::vector<Counter>& counters,
                std::optional<std::size_t> cell = std::nullopt) {
  if (cell.has_value() && *cell >= counters.at(0).cells())
    throw std::out_of_range("read_counters: no cell " + std::to_string(*cell));
  S out{};
  for (std::size_t row = 0; row < N; ++row)
    out.*table[row].member = cell.has_value()
                                 ? counters[row].cell_value(*cell)
                                 : counters[row].value();
  return out;
}

enum class MetricKind { kCounter, kGauge, kHistogram };

/// One exported value at snapshot time.
struct MetricSample {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  double value = 0.0;  // counter/gauge value; histogram count
  double sum = 0.0;    // histograms only
  double p50 = 0.0;    // histograms only (conservative)
  double p99 = 0.0;    // histograms only (conservative)
};

/// Throws std::logic_error naming the first metric that appears twice in
/// `samples` (sorted by name, as snapshot() returns them). Readers that key
/// samples by name call it on every snapshot: with two samples under one
/// name, the value they would read depends on collector order.
void require_unique_names(const std::vector<MetricSample>& samples,
                          const char* reader);

class MetricsRegistry {
 public:
  /// `cells` is the default sharding degree of newly created instruments
  /// (pass the shard/lane count of whatever writes hottest).
  explicit MetricsRegistry(std::size_t cells = 1);

  /// Finds or creates the named instrument. The returned reference is
  /// stable for the registry's lifetime — resolve once at bind time, then
  /// write lock-free forever. Name collisions across kinds throw.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// The named histogram if one is registered, else nullptr (never
  /// creates). Readers — the alert engine's quantile conditions — use this
  /// to query arbitrary quantiles beyond the exported p50/p99.
  const Histogram* find_histogram(const std::string& name) const;

  /// Pull-model bridge: the callback runs inside snapshot() /
  /// to_prometheus() and reports current values through the emit
  /// functions. Values it emits appear alongside the direct instruments
  /// (same name rules).
  class Collect {
   public:
    virtual ~Collect() = default;
    virtual void counter(const std::string& name, std::uint64_t value) = 0;
    virtual void gauge(const std::string& name, double value) = 0;
  };
  using Collector = std::function<void(Collect&)>;
  void add_collector(Collector collector);

  /// Every instrument plus every collector-reported value, sorted by
  /// name. Reads are relaxed; call anytime (the satellite TSan test reads
  /// while shard lanes write).
  std::vector<MetricSample> snapshot() const;

  /// Prometheus-style text exposition (one "# TYPE" line per family;
  /// histograms export _count/_sum plus conservative p50/p99 gauges).
  std::string to_prometheus() const;

  std::size_t default_cells() const { return default_cells_; }

 private:
  struct Entry {
    MetricKind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& entry_for(const std::string& name, MetricKind kind);

  std::size_t default_cells_;
  mutable std::mutex mu_;  // registration + collector list; not the hot path
  std::map<std::string, Entry> entries_;
  std::vector<Collector> collectors_;
};

}  // namespace qkd::obs

#include "src/obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <sstream>
#include <stdexcept>

namespace qkd::obs {

// ---- Counter ---------------------------------------------------------------

Counter::Counter(std::size_t cells) : cells_(cells == 0 ? 1 : cells) {}

std::uint64_t Counter::value() const {
  std::uint64_t total = 0;
  for (const Slot& slot : cells_) total += slot.v.load(std::memory_order_relaxed);
  return total;
}

// ---- Gauge -----------------------------------------------------------------

Gauge::Gauge(std::size_t cells) : cells_(cells == 0 ? 1 : cells) {}

std::int64_t Gauge::value() const {
  std::int64_t total = 0;
  for (const Slot& slot : cells_) total += slot.v.load(std::memory_order_relaxed);
  return total;
}

// ---- Histogram -------------------------------------------------------------

Histogram::Histogram(std::size_t cells) {
  if (cells == 0) cells = 1;
  cells_.reserve(cells);
  for (std::size_t i = 0; i < cells; ++i)
    cells_.push_back(std::make_unique<Slot>());
}

void Histogram::record(std::uint64_t value, std::size_t cell) {
  if (cell >= cells_.size()) cell = cells_.size() - 1;
  Slot& slot = *cells_[cell];
  std::size_t index = std::bit_width(value);
  if (index >= kBuckets) index = kBuckets - 1;
  slot.buckets[index].fetch_add(1, std::memory_order_relaxed);
  slot.count.fetch_add(1, std::memory_order_relaxed);
  slot.sum.fetch_add(value, std::memory_order_relaxed);
}

std::uint64_t Histogram::count() const {
  std::uint64_t total = 0;
  for (const auto& slot : cells_)
    total += slot->count.load(std::memory_order_relaxed);
  return total;
}

std::uint64_t Histogram::sum() const {
  std::uint64_t total = 0;
  for (const auto& slot : cells_)
    total += slot->sum.load(std::memory_order_relaxed);
  return total;
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> buckets(kBuckets, 0);
  for (const auto& slot : cells_)
    for (std::size_t i = 0; i < kBuckets; ++i)
      buckets[i] += slot->buckets[i].load(std::memory_order_relaxed);
  return buckets;
}

double Histogram::quantile(double q) const {
  const auto buckets = bucket_counts();
  std::uint64_t total = 0;
  for (std::uint64_t b : buckets) total += b;
  if (total == 0) return 0.0;
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(q * static_cast<double>(total)));
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    cumulative += buckets[i];
    if (cumulative >= rank)
      return static_cast<double>(i == 0 ? 0ULL : (1ULL << i));
  }
  return 0.0;
}

void require_unique_names(const std::vector<MetricSample>& samples,
                          const char* reader) {
  const auto twice = std::adjacent_find(
      samples.begin(), samples.end(),
      [](const MetricSample& a, const MetricSample& b) {
        return a.name == b.name;
      });
  if (twice != samples.end())
    throw std::logic_error(std::string(reader) + ": metric \"" +
                           twice->name + "\" is reported twice");
}

// ---- MetricsRegistry -------------------------------------------------------

MetricsRegistry::MetricsRegistry(std::size_t cells)
    : default_cells_(cells == 0 ? 1 : cells) {}

MetricsRegistry::Entry& MetricsRegistry::entry_for(const std::string& name,
                                                   MetricKind kind) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it != entries_.end()) {
    if (it->second.kind != kind)
      throw std::invalid_argument("MetricsRegistry: \"" + name +
                                  "\" already registered with another kind");
    return it->second;
  }
  Entry entry;
  entry.kind = kind;
  switch (kind) {
    case MetricKind::kCounter:
      entry.counter.reset(new Counter(default_cells_));
      break;
    case MetricKind::kGauge:
      entry.gauge.reset(new Gauge(default_cells_));
      break;
    case MetricKind::kHistogram:
      entry.histogram.reset(new Histogram(default_cells_));
      break;
  }
  return entries_.emplace(name, std::move(entry)).first->second;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  return *entry_for(name, MetricKind::kCounter).counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  return *entry_for(name, MetricKind::kGauge).gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  return *entry_for(name, MetricKind::kHistogram).histogram;
}

const Histogram* MetricsRegistry::find_histogram(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(name);
  if (it == entries_.end() || it->second.kind != MetricKind::kHistogram)
    return nullptr;
  return it->second.histogram.get();
}

void MetricsRegistry::add_collector(Collector collector) {
  std::lock_guard<std::mutex> lock(mu_);
  collectors_.push_back(std::move(collector));
}

namespace {
/// Accumulates collector output as plain samples.
class SampleCollect final : public MetricsRegistry::Collect {
 public:
  explicit SampleCollect(std::vector<MetricSample>& out) : out_(out) {}
  void counter(const std::string& name, std::uint64_t value) override {
    MetricSample sample;
    sample.name = name;
    sample.kind = MetricKind::kCounter;
    sample.value = static_cast<double>(value);
    out_.push_back(std::move(sample));
  }
  void gauge(const std::string& name, double value) override {
    MetricSample sample;
    sample.name = name;
    sample.kind = MetricKind::kGauge;
    sample.value = value;
    out_.push_back(std::move(sample));
  }

 private:
  std::vector<MetricSample>& out_;
};
}  // namespace

std::vector<MetricSample> MetricsRegistry::snapshot() const {
  std::vector<MetricSample> samples;
  std::vector<Collector> collectors;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, entry] : entries_) {
      MetricSample sample;
      sample.name = name;
      sample.kind = entry.kind;
      switch (entry.kind) {
        case MetricKind::kCounter:
          sample.value = static_cast<double>(entry.counter->value());
          break;
        case MetricKind::kGauge:
          sample.value = static_cast<double>(entry.gauge->value());
          break;
        case MetricKind::kHistogram:
          sample.value = static_cast<double>(entry.histogram->count());
          sample.sum = static_cast<double>(entry.histogram->sum());
          sample.p50 = entry.histogram->quantile(0.5);
          sample.p99 = entry.histogram->quantile(0.99);
          break;
      }
      samples.push_back(std::move(sample));
    }
    collectors = collectors_;
  }
  // Collectors run outside the registry lock: they read other layers'
  // stats and may themselves resolve instruments.
  SampleCollect sink(samples);
  for (const Collector& collector : collectors) collector(sink);
  std::sort(samples.begin(), samples.end(),
            [](const MetricSample& a, const MetricSample& b) {
              return a.name < b.name;
            });
  return samples;
}

std::string MetricsRegistry::to_prometheus() const {
  std::ostringstream out;
  for (const MetricSample& sample : snapshot()) {
    switch (sample.kind) {
      case MetricKind::kCounter:
        out << "# TYPE " << sample.name << " counter\n"
            << sample.name << " " << sample.value << "\n";
        break;
      case MetricKind::kGauge:
        out << "# TYPE " << sample.name << " gauge\n"
            << sample.name << " " << sample.value << "\n";
        break;
      case MetricKind::kHistogram:
        out << "# TYPE " << sample.name << " summary\n"
            << sample.name << "_count " << sample.value << "\n"
            << sample.name << "_sum " << sample.sum << "\n"
            << sample.name << "{quantile=\"0.5\"} " << sample.p50 << "\n"
            << sample.name << "{quantile=\"0.99\"} " << sample.p99 << "\n";
        break;
    }
  }
  return out.str();
}

}  // namespace qkd::obs

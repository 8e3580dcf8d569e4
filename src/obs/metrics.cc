#include "src/obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "src/common/logging.h"

namespace swope {

namespace {

// Shortest exact rendering of a double for exposition (%.17g round-trips
// IEEE doubles, so equal values always render identically).
std::string RenderDouble(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

// Bucket bound rendering favours human-readable short forms ("0.25",
// "100") over the exact form, which is safe because bounds come from
// static tables, not computation.
std::string RenderBound(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%g", value);
  return buffer;
}

std::string EscapeLabelValue(const std::string& value) {
  std::string escaped;
  escaped.reserve(value.size());
  for (char c : value) {
    if (c == '\\' || c == '"') escaped += '\\';
    if (c == '\n') {
      escaped += "\\n";
      continue;
    }
    escaped += c;
  }
  return escaped;
}

// Renders sorted labels as `{k="v",k2="v2"}` (empty string for no
// labels). This string is the canonical instance identity within a
// family.
std::string RenderLabels(const MetricLabels& labels) {
  if (labels.empty()) return "";
  std::string text = "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) text += ",";
    first = false;
    text += key + "=\"" + EscapeLabelValue(value) + "\"";
  }
  text += "}";
  return text;
}

// Splices an extra label (the histogram `le`) into a rendered label
// string: `{a="b"}` + `le="x"` -> `{a="b",le="x"}`.
std::string WithLeLabel(const std::string& rendered, const std::string& le) {
  if (rendered.empty()) return "{le=\"" + le + "\"}";
  return rendered.substr(0, rendered.size() - 1) + ",le=\"" + le + "\"}";
}

std::string JsonEscapeString(const std::string& text) {
  std::string escaped;
  escaped.reserve(text.size());
  for (char c : text) {
    if (c == '"' || c == '\\') escaped += '\\';
    escaped += c;
  }
  return escaped;
}

}  // namespace

size_t Counter::ShardIndex() {
  static std::atomic<size_t> next_thread{0};
  thread_local const size_t index =
      next_thread.fetch_add(1, std::memory_order_relaxed) % kShards;
  return index;
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      buckets_(std::make_unique<std::atomic<uint64_t>[]>(bounds_.size() +
                                                         1)) {}

void Histogram::Observe(double value) {
  const size_t bucket =
      static_cast<size_t>(std::upper_bound(bounds_.begin(), bounds_.end(),
                                           value) -
                          bounds_.begin());
  // upper_bound finds the first bound > value; Prometheus `le` is
  // inclusive, so step back when the value sits exactly on a bound.
  const size_t index =
      (bucket > 0 && bounds_[bucket - 1] == value) ? bucket - 1 : bucket;
  buckets_[index].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double sum = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(sum, sum + value,
                                     std::memory_order_relaxed)) {
  }
}

Histogram::Snapshot Histogram::GetSnapshot() const {
  Snapshot snapshot;
  snapshot.bounds = bounds_;
  snapshot.cumulative.reserve(bounds_.size() + 1);
  uint64_t running = 0;
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    running += buckets_[i].load(std::memory_order_relaxed);
    snapshot.cumulative.push_back(running);
  }
  snapshot.count = count_.load(std::memory_order_relaxed);
  snapshot.sum = sum_.load(std::memory_order_relaxed);
  return snapshot;
}

const std::vector<double>& DefaultLatencyBucketsMs() {
  static const std::vector<double> kBuckets = {
      0.05, 0.1, 0.25, 0.5, 1,   2.5,  5,    10,
      25,   50,  100,  250, 500, 1000, 2500, 10000};
  return kBuckets;
}

MetricsRegistry::Entry& MetricsRegistry::GetOrCreate(const std::string& name,
                                                     MetricLabels labels,
                                                     Type type) {
  std::sort(labels.begin(), labels.end());
  const Key key{name, RenderLabels(labels)};
  MutexLock lock(mutex_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    if (it->second.type != type) {
      SWOPE_LOG(kError) << "metric " << name << key.second
                        << " re-registered with a different type";
      std::abort();
    }
    return it->second;
  }
  return entries_.emplace(key, Entry{type, nullptr, nullptr, nullptr})
      .first->second;
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     MetricLabels labels) {
  Entry& entry = GetOrCreate(name, std::move(labels), Type::kCounter);
  if (entry.counter == nullptr) entry.counter = std::make_unique<Counter>();
  return entry.counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 MetricLabels labels) {
  Entry& entry = GetOrCreate(name, std::move(labels), Type::kGauge);
  if (entry.gauge == nullptr) entry.gauge = std::make_unique<Gauge>();
  return entry.gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         MetricLabels labels,
                                         std::vector<double> bounds) {
  Entry& entry = GetOrCreate(name, std::move(labels), Type::kHistogram);
  if (entry.histogram == nullptr) {
    entry.histogram = std::make_unique<Histogram>(std::move(bounds));
  }
  return entry.histogram.get();
}

std::string MetricsRegistry::RenderPrometheusText() const {
  MutexLock lock(mutex_);
  std::string text;
  std::string last_family;
  for (const auto& [key, entry] : entries_) {
    const auto& [name, labels] = key;
    if (name != last_family) {
      last_family = name;
      text += "# TYPE " + name;
      switch (entry.type) {
        case Type::kCounter:
          text += " counter\n";
          break;
        case Type::kGauge:
          text += " gauge\n";
          break;
        case Type::kHistogram:
          text += " histogram\n";
          break;
      }
    }
    switch (entry.type) {
      case Type::kCounter:
        text += name + labels + " " +
                std::to_string(entry.counter->Value()) + "\n";
        break;
      case Type::kGauge:
        text +=
            name + labels + " " + std::to_string(entry.gauge->Value()) + "\n";
        break;
      case Type::kHistogram: {
        const Histogram::Snapshot snapshot = entry.histogram->GetSnapshot();
        for (size_t i = 0; i < snapshot.bounds.size(); ++i) {
          text += name + "_bucket" +
                  WithLeLabel(labels, RenderBound(snapshot.bounds[i])) + " " +
                  std::to_string(snapshot.cumulative[i]) + "\n";
        }
        text += name + "_bucket" + WithLeLabel(labels, "+Inf") + " " +
                std::to_string(snapshot.cumulative.back()) + "\n";
        text += name + "_sum" + labels + " " + RenderDouble(snapshot.sum) +
                "\n";
        text += name + "_count" + labels + " " +
                std::to_string(snapshot.count) + "\n";
        break;
      }
    }
  }
  return text;
}

std::string MetricsRegistry::RenderJson() const {
  MutexLock lock(mutex_);
  std::string counters, gauges, histograms;
  for (const auto& [key, entry] : entries_) {
    const std::string id =
        "\"" + JsonEscapeString(key.first + key.second) + "\"";
    switch (entry.type) {
      case Type::kCounter:
        if (!counters.empty()) counters += ",";
        counters += id + ":" + std::to_string(entry.counter->Value());
        break;
      case Type::kGauge:
        if (!gauges.empty()) gauges += ",";
        gauges += id + ":" + std::to_string(entry.gauge->Value());
        break;
      case Type::kHistogram: {
        const Histogram::Snapshot snapshot = entry.histogram->GetSnapshot();
        if (!histograms.empty()) histograms += ",";
        histograms += id + ":{\"count\":" + std::to_string(snapshot.count) +
                      ",\"sum\":" + RenderDouble(snapshot.sum) +
                      ",\"buckets\":[";
        for (size_t i = 0; i < snapshot.bounds.size(); ++i) {
          if (i > 0) histograms += ",";
          histograms += "{\"le\":\"" + RenderBound(snapshot.bounds[i]) +
                        "\",\"count\":" +
                        std::to_string(snapshot.cumulative[i]) + "}";
        }
        if (!snapshot.bounds.empty()) histograms += ",";
        histograms += "{\"le\":\"+Inf\",\"count\":" +
                      std::to_string(snapshot.cumulative.back()) + "}]}";
        break;
      }
    }
  }
  return "{\"counters\":{" + counters + "},\"gauges\":{" + gauges +
         "},\"histograms\":{" + histograms + "}}";
}

}  // namespace swope

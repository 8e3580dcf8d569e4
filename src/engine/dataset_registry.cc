#include "src/engine/dataset_registry.h"

#include <utility>

#include "src/obs/event_log.h"
#include "src/obs/metrics.h"
#include "src/table/fingerprint.h"

namespace swope {

void DatasetRegistry::BindMetrics(MetricsRegistry* metrics) {
  MutexLock lock(mutex_);
  evictions_metric_ = metrics->GetCounter("swope_registry_evictions_total");
  resident_datasets_metric_ =
      metrics->GetGauge("swope_registry_resident_datasets");
  resident_bytes_metric_ = metrics->GetGauge("swope_registry_resident_bytes");
  mapped_bytes_metric_ = metrics->GetGauge("swope_engine_mapped_bytes");
  sketch_bytes_metric_ = metrics->GetGauge("swope_sketch_memory_bytes");
  UpdateGauges();
}

void DatasetRegistry::BindEventLog(EventLog* events) {
  MutexLock lock(mutex_);
  event_log_ = events;
}

void DatasetRegistry::UpdateGauges() {
  if (resident_datasets_metric_ == nullptr) return;
  resident_datasets_metric_->Set(static_cast<int64_t>(datasets_.size()));
  resident_bytes_metric_->Set(static_cast<int64_t>(resident_bytes_));
  mapped_bytes_metric_->Set(static_cast<int64_t>(mapped_bytes_));
  sketch_bytes_metric_->Set(static_cast<int64_t>(sketch_bytes_));
}

Status DatasetRegistry::Put(const std::string& name, Table table) {
  if (name.empty()) {
    return Status::InvalidArgument("registry: dataset name must be non-empty");
  }
  // Fingerprint outside the lock: a column's first digest hashes all its
  // payload words (an ingest's successor columns arrive with theirs
  // extended, so only names and labels remain to hash).
  auto dataset = std::make_shared<Dataset>();
  dataset->name = name;
  dataset->fingerprint = TableFingerprint(table);
  dataset->memory_bytes = table.MemoryBytes();
  dataset->mapped_bytes = table.MappedBytes();
  dataset->sketch_bytes = table.SketchMemoryBytes();
  dataset->table = std::move(table);

  MutexLock lock(mutex_);
  Slot& slot = datasets_[name];
  if (slot.dataset != nullptr) {
    resident_bytes_ -= slot.dataset->memory_bytes;
    mapped_bytes_ -= slot.dataset->mapped_bytes;
    sketch_bytes_ -= slot.dataset->sketch_bytes;
  }
  resident_bytes_ += dataset->memory_bytes;
  mapped_bytes_ += dataset->mapped_bytes;
  sketch_bytes_ += dataset->sketch_bytes;
  slot.dataset = std::move(dataset);
  slot.last_used = ++tick_;
  EvictToBudget(name);
  UpdateGauges();
  return Status::OK();
}

Result<DatasetHandle> DatasetRegistry::Get(const std::string& name) {
  MutexLock lock(mutex_);
  auto it = datasets_.find(name);
  if (it == datasets_.end()) {
    return Status::NotFound("registry: no dataset named '" + name + "'");
  }
  it->second.last_used = ++tick_;
  return it->second.dataset;
}

Status DatasetRegistry::Remove(const std::string& name) {
  MutexLock lock(mutex_);
  auto it = datasets_.find(name);
  if (it == datasets_.end()) {
    return Status::NotFound("registry: no dataset named '" + name + "'");
  }
  resident_bytes_ -= it->second.dataset->memory_bytes;
  mapped_bytes_ -= it->second.dataset->mapped_bytes;
  sketch_bytes_ -= it->second.dataset->sketch_bytes;
  datasets_.erase(it);
  if (event_log_ != nullptr) {
    event_log_->Append(EventKind::kDatasetEvict, name, "unload");
  }
  UpdateGauges();
  return Status::OK();
}

std::vector<std::string> DatasetRegistry::Names() const {
  MutexLock lock(mutex_);
  std::vector<std::string> names;
  names.reserve(datasets_.size());
  for (const auto& [name, slot] : datasets_) names.push_back(name);
  return names;
}

DatasetRegistry::Stats DatasetRegistry::GetStats() const {
  MutexLock lock(mutex_);
  Stats stats;
  stats.resident_datasets = datasets_.size();
  stats.resident_bytes = resident_bytes_;
  stats.mapped_bytes = mapped_bytes_;
  stats.sketch_bytes = sketch_bytes_;
  stats.memory_budget_bytes = budget_;
  stats.evictions = evictions_;
  return stats;
}

void DatasetRegistry::EvictToBudget(const std::string& keep) {
  if (budget_ == 0) return;
  while (resident_bytes_ > budget_ && datasets_.size() > 1) {
    auto victim = datasets_.end();
    for (auto it = datasets_.begin(); it != datasets_.end(); ++it) {
      if (it->first == keep) continue;
      if (victim == datasets_.end() ||
          it->second.last_used < victim->second.last_used) {
        victim = it;
      }
    }
    if (victim == datasets_.end()) return;
    resident_bytes_ -= victim->second.dataset->memory_bytes;
    mapped_bytes_ -= victim->second.dataset->mapped_bytes;
    sketch_bytes_ -= victim->second.dataset->sketch_bytes;
    if (event_log_ != nullptr) {
      event_log_->Append(
          EventKind::kDatasetEvict, victim->first,
          "budget (freed=" +
              std::to_string(victim->second.dataset->memory_bytes) +
              " heap, unmapped=" +
              std::to_string(victim->second.dataset->mapped_bytes) +
              " bytes)");
    }
    datasets_.erase(victim);
    ++evictions_;
    if (evictions_metric_ != nullptr) evictions_metric_->Increment();
  }
}

}  // namespace swope

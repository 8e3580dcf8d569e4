#include "src/core/shared_prefix.h"

#include <algorithm>

#include "src/common/math.h"
#include "src/core/bounds.h"
#include "src/table/table.h"

namespace swope {

void ColumnPrefix::AddCodes(const ValueCode* codes, uint64_t count) {
  if (counts_.size() != support_) {
    counts_.resize(support_);
    entropies_.reserve(reserved_points_);
  }
  uint64_t* counts = counts_.data();
  for (uint64_t i = 0; i < count; ++i) ++counts[codes[i]];
  depth_ += count;
}

void ColumnPrefix::RecordPoint() {
  entropies_.push_back(
      EntropyFromCounts(counts_.data(), counts_.size(), depth_));
}

EntropyPrefix::EntropyPrefix(const Table& table,
                             const SampleSchedule& schedule,
                             std::pmr::memory_resource* memory)
    : columns_(memory != nullptr ? memory
                                 : std::pmr::get_default_resource()) {
  const uint32_t points = MaxIterations(table.num_rows(), schedule.m0);
  for (const Column& column : table.columns()) {
    columns_.emplace_back(column.support(), points, memory);
  }
}

bool EntropyPrefix::Fits(const Table& table) const {
  if (table.num_columns() != columns_.size()) return false;
  for (size_t j = 0; j < columns_.size(); ++j) {
    if (table.column(j).support() != columns_[j].support()) return false;
  }
  return true;
}

Result<std::shared_ptr<EntropyPrefix>> SharedPrefix::Entropy(
    const Table& table, const SampleSchedule& schedule) {
  MutexLock lock(mutex_);
  auto it = entropy_.find(schedule);
  if (it == entropy_.end()) {
    if (entropy_.size() >= kMaxSchedules) {
      entropy_.erase(std::min_element(
          entropy_.begin(), entropy_.end(), [](const auto& a, const auto& b) {
            return a.second.last_used < b.second.last_used;
          }));
    }
    it = entropy_
             .emplace(schedule,
                      State{std::make_shared<EntropyPrefix>(table, schedule,
                                                            nullptr)})
             .first;
  } else if (!it->second.prefix->Fits(table)) {
    return Status::InvalidArgument(
        "shared prefix: built for a table with other columns");
  }
  it->second.last_used = ++tick_;
  return it->second.prefix;
}

}  // namespace swope

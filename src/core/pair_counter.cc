#include "src/core/pair_counter.h"

#include <algorithm>
#include <cassert>

#include "src/common/math.h"

namespace swope {

PairCounter::PairCounter(uint32_t support_a, uint32_t support_b,
                         uint64_t dense_limit,
                         std::pmr::memory_resource* memory)
    : support_b_(support_b),
      cells_(static_cast<uint64_t>(support_a) * support_b),
      dense_limit_(dense_limit),
      is_dense_(cells_ <= dense_limit && cells_ <= kImmediateDenseCells),
      memory_(memory != nullptr ? memory : std::pmr::get_default_resource()),
      dense_(memory_),
      sparse_(is_dense_ ? 0 : 64, memory_) {
  if (is_dense_) dense_.assign(cells_, 0);
}

void PairCounter::Bump(uint64_t& slot) {
  const uint64_t old_count = slot++;
  if (old_count == 0) ++distinct_pairs_;
  sum_xlog2x_ += XLog2XIncrement(old_count);
  ++sample_count_;
}

void PairCounter::AddSparse(ValueCode a, ValueCode b) {
  assert(b < support_b_);
  Bump(sparse_[Key(a, b)]);
  // Migrate once the hash holds enough distinct pairs that the dense
  // array's O(1)-no-probing updates pay for its allocation. 1/8 of the
  // domain is the break-even load observed in the micro benches.
  if (cells_ <= dense_limit_ && distinct_pairs_ * 8 >= cells_) {
    MigrateToDense();
  }
}

void PairCounter::MigrateToDense() {
  dense_.assign(cells_, 0);
  sparse_.ForEach(
      [&](uint64_t key, uint64_t count) { dense_[key] = count; });
  // Shrink the hash to its floor on the same resource (an arena reclaims
  // the old slots only at rewind; that is the bump-allocator bargain).
  sparse_ = FlatHashMap<uint64_t, uint64_t>(0, memory_);
  is_dense_ = true;
}

double PairCounter::SampleJointEntropy() const {
  return EntropyFromXLog2XSum(sum_xlog2x_, sample_count_);
}

uint64_t PairCounter::count(ValueCode a, ValueCode b) const {
  if (is_dense_) return dense_[Key(a, b)];
  const uint64_t* found = sparse_.Find(Key(a, b));
  return found != nullptr ? *found : 0;
}

}  // namespace swope

#include "src/core/pair_counter.h"

#include <algorithm>
#include <bit>
#include <cassert>

#include "src/common/math.h"

namespace swope {

namespace {

// Adds m log2 m (m >= 2) to `sum`, a fixed-point accumulator with 64
// fractional bits. The term is the double XLog2X returns, converted
// exactly: its 53-bit significand shifted by its exponent. For m >= 2 the
// term is at least 2 and, for m < 2^58, below 2^64, so the shift lies in
// [13, 75] and drops no bit. The integer sum therefore does not depend on
// the order of the terms, so the dense and hashed layouts, which visit
// their keys in different orders, agree bit for bit.
inline void AddXLog2X(uint64_t m, unsigned __int128& sum) {
  assert(m >= 2);
  const auto bits = std::bit_cast<uint64_t>(XLog2X(static_cast<double>(m)));
  const uint64_t significand =
      (bits & ((uint64_t{1} << 52) - 1)) | (uint64_t{1} << 52);
  // value = significand * 2^(biased exponent - 1075); the sign bit is 0.
  const uint64_t shift = (bits >> 52) + 64 - 1075;
  sum += static_cast<unsigned __int128>(significand) << shift;
}

}  // namespace

PairCounter::PairCounter(uint32_t support_a, uint32_t support_b,
                         uint64_t dense_limit,
                         std::pmr::memory_resource* memory)
    : support_a_(support_a),
      support_b_(support_b),
      cells_(static_cast<uint64_t>(support_a) * support_b),
      dense_limit_(dense_limit),
      is_dense_(cells_ <= dense_limit && cells_ <= kImmediateDenseCells),
      memory_(memory != nullptr ? memory : std::pmr::get_default_resource()),
      dense_(memory_),
      sparse_(is_dense_ ? 0 : 64, memory_) {
  if (is_dense_) dense_.assign(cells_, 0);
}

void PairCounter::AddCodesSparse(const ValueCode* a, const ValueCode* b,
                                 uint64_t count) {
  // Migrate once the hash holds enough distinct pairs that the dense
  // array's O(1)-no-probing updates pay for its allocation. 1/8 of the
  // domain is the break-even load observed in the micro benches.
  const bool may_migrate = cells_ <= dense_limit_;
  for (uint64_t i = 0; i < count; ++i) {
    assert(b[i] < support_b_);
    ++sparse_[Key(a[i], b[i])];
    if (may_migrate && sparse_.size() * 8 >= cells_) {
      sample_count_ += i + 1;
      MigrateToDense();
      AddCodes(a + i + 1, b + i + 1, count - i - 1);
      return;
    }
  }
  sample_count_ += count;
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

double PairCounter::SampleJointEntropy(uint64_t* b_counts) const {
  if (b_counts != nullptr) std::fill_n(b_counts, support_b_, uint64_t{0});
  unsigned __int128 sum = 0;
  if (is_dense_) {
    const uint64_t* row = dense_.data();
    for (uint32_t a = 0; a < support_a_; ++a, row += support_b_) {
      if (b_counts != nullptr) {
        for (uint32_t b = 0; b < support_b_; ++b) b_counts[b] += row[b];
      }
      for (uint32_t b = 0; b < support_b_; ++b) {
        if (row[b] > 1) AddXLog2X(row[b], sum);
      }
    }
  } else {
    sparse_.ForEach([&](uint64_t key, uint64_t m) {
      if (b_counts != nullptr) b_counts[key % support_b_] += m;
      if (m > 1) AddXLog2X(m, sum);
    });
  }
  return EntropyFromXLog2XSum(static_cast<double>(sum) * 0x1p-64,
                              sample_count_);
}

uint64_t PairCounter::count(ValueCode a, ValueCode b) const {
  if (is_dense_) return dense_[Key(a, b)];
  const uint64_t* found = sparse_.Find(Key(a, b));
  return found != nullptr ? *found : 0;
}

}  // namespace swope

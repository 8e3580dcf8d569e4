// CountMinSketch: cache-line-aware conservative-update count-min sketch.
//
// A depth x width matrix of uint64 counters answers point frequency
// queries over a stream of 64-bit keys in O(depth) time and
// depth * width * 8 bytes of space, independent of the number of distinct
// keys -- the frequency substrate for columns whose support exceeds
// QueryOptions::sketch_threshold (see docs/SKETCH.md). Estimates never
// undercount; with width w >= e / eps and depth d >= ln(1 / delta) the
// overcount stays below eps * N with probability >= 1 - delta (Cormode &
// Muthukrishnan), and the conservative-update rule (increment only the
// minimal counters) tightens that further in practice.
//
// Layout: rows are stored back to back in one allocation whose base is
// 64-byte aligned, and the width is a power of two of at least one cache
// line of counters (8), so every row starts on a cache-line boundary and
// indexing is a mask, not a modulo.
//
// Determinism: hashing is seeded double hashing (SplitMix64-finalized),
// so two sketches with equal shape and seed absorb equal streams into
// byte-identical counter arrays, and Merge (element-wise sum) is
// associative and commutative -- any fixed split-and-merge plan is
// bitwise reproducible run to run. Split-and-merged counters are NOT
// bitwise equal to a serial absorb of the same stream (conservative
// update is order- and partition-sensitive); both still never undercount
// (tests/count_min_test.cc mirrors parallel_determinism_test).

#ifndef SWOPE_SKETCH_COUNT_MIN_H_
#define SWOPE_SKETCH_COUNT_MIN_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/result.h"
#include "src/common/status.h"

namespace swope {

class CountMinSketch {
 public:
  /// One cache line of uint64 counters: the minimum row width.
  static constexpr uint32_t kMinWidth = 8;
  /// Row widths above this are refused (16M counters per row is far past
  /// any useful epsilon and keeps depth * width arithmetic overflow-free).
  static constexpr uint32_t kMaxWidth = 1u << 24;
  static constexpr uint32_t kMinDepth = 1;
  static constexpr uint32_t kMaxDepth = 16;

  /// Builds a sketch meeting the (epsilon, delta) guarantee: width is the
  /// smallest power of two >= e / epsilon (clamped to
  /// [kMinWidth, kMaxWidth]) and depth is ceil(ln(1 / delta)) clamped to
  /// [kMinDepth, kMaxDepth]. Requires epsilon in (0, 1) and delta in
  /// (0, 1).
  static Result<CountMinSketch> Make(double epsilon, double delta,
                                     uint64_t seed);

  /// Builds a sketch with an explicit shape. `width` must be a power of
  /// two in [kMinWidth, kMaxWidth]; `depth` in [kMinDepth, kMaxDepth].
  static Result<CountMinSketch> MakeWithShape(uint32_t depth, uint32_t width,
                                              uint64_t seed);

  /// Reconstructs a sketch from serialized parts (binary_io sidecars).
  /// Validates the shape, that `counters` holds exactly depth * width
  /// entries, and the conservative-update invariant that every row's
  /// counter sum is <= total_count -- a corrupted payload fails with
  /// Corruption instead of producing impossible estimates.
  static Result<CountMinSketch> FromParts(uint32_t depth, uint32_t width,
                                          uint64_t seed, uint64_t total_count,
                                          std::vector<uint64_t> counters);

  CountMinSketch(CountMinSketch&&) = default;
  CountMinSketch& operator=(CountMinSketch&&) = default;
  // Copies must be explicit (Clone): the aligned base offset is
  // allocation-specific and may not survive a buffer-for-buffer copy.
  CountMinSketch(const CountMinSketch&) = delete;
  CountMinSketch& operator=(const CountMinSketch&) = delete;

  /// A deep copy over a fresh aligned allocation (ingest clones a
  /// column's sidecar before absorbing appended codes).
  CountMinSketch Clone() const;

  uint32_t depth() const { return depth_; }
  uint32_t width() const { return width_; }
  uint64_t seed() const { return seed_; }
  /// Number of keys absorbed (the stream length N).
  uint64_t total_count() const { return total_count_; }
  /// The additive error bound width implies: e / width. Overcounts exceed
  /// epsilon() * total_count() with probability <= exp(-depth).
  double epsilon() const;

  /// Absorbs one key (conservative update: only counters equal to the
  /// current minimum advance). Returns the post-update estimate.
  uint64_t Add(uint64_t key);

  /// Absorbs a span of 32-bit codes (a gathered column slice).
  void AddCodes(const uint32_t* codes, uint64_t count) {
    for (uint64_t i = 0; i < count; ++i) Add(codes[i]);
  }

  /// Point estimate: min over rows, >= the true count of `key`.
  uint64_t Estimate(uint64_t key) const;

  /// True when `other` has this sketch's shape and seed (the precondition
  /// for Merge and for bitwise comparisons).
  bool SameShape(const CountMinSketch& other) const {
    return depth_ == other.depth_ && width_ == other.width_ &&
           seed_ == other.seed_;
  }

  /// Element-wise counter sum. Estimates from a merged sketch still never
  /// undercount the concatenated streams (each cell only grows), though
  /// they can exceed what one sketch absorbing both streams under
  /// conservative update would hold. InvalidArgument unless SameShape.
  Status Merge(const CountMinSketch& other);

  /// The counter matrix, row-major (depth() * width() entries). Stable
  /// across processes for equal shape/seed/stream; binary_io serializes
  /// exactly these words.
  const uint64_t* counters() const { return words_.data() + base_offset_; }
  uint64_t num_counters() const {
    return static_cast<uint64_t>(depth_) * width_;
  }

  /// Resident bytes of the counter allocation (includes alignment slack).
  uint64_t MemoryBytes() const { return words_.size() * sizeof(uint64_t); }

 private:
  CountMinSketch(uint32_t depth, uint32_t width, uint64_t seed);

  uint64_t* mutable_counters() { return words_.data() + base_offset_; }
  /// Writes the key's row indices into idx[0..depth_).
  void Index(uint64_t key, uint32_t* idx) const;

  uint32_t depth_ = 0;
  uint32_t width_ = 0;
  uint64_t mask_ = 0;  // width_ - 1
  uint64_t seed_ = 0;
  uint64_t total_count_ = 0;
  /// Counter storage plus up to 7 slack words; the matrix starts at
  /// base_offset_, chosen so its address is 64-byte aligned. Moves keep
  /// the allocation (offset stays valid); copies go through Clone.
  std::vector<uint64_t> words_;
  size_t base_offset_ = 0;
};

}  // namespace swope

#endif  // SWOPE_SKETCH_COUNT_MIN_H_

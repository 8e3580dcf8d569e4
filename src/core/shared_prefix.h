// SharedPrefix: one row order, plus the entropy counts that queries
// sampling it have already taken.
//
// The engine gives every query on one table version and seed the same row
// order (PermutationCache; the paper's Section 6.1 observation that one
// exchangeable order serves every query). A query whose schedule is
// (M0, growth) reads the prefix of M_i rows of that order at its round i,
// so the sample entropy H_S(alpha) at every schedule point is one fixed
// number per (version, order, schedule). Only the first query to reach a
// point has to count it. Per schedule and per column, a SharedPrefix keeps
// the value counts at the deepest prefix any query has counted and H_S at
// every schedule point up to that depth (ColumnPrefix). A later query
// reads H_S for the rounds already covered and counts only the rounds
// beyond them, which extends the state for the next query.
//
// Answers do not change. Counts are integers, equal whoever counted them,
// and H_S is a pure function of them (EntropyFromCounts), so each query's
// intervals, decisions and QueryStats are byte-identical to a run that
// counted its whole prefix itself. docs/CORE.md has the argument,
// docs/ENGINE.md the lifetime and memory.
//
// Only the entropy kinds read this state; sketched columns and the MI/NMI
// joints keep their query-private counters.

#ifndef SWOPE_CORE_SHARED_PREFIX_H_
#define SWOPE_CORE_SHARED_PREFIX_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <memory_resource>
#include <utility>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/result.h"
#include "src/common/thread_annotations.h"
#include "src/table/packed_codes.h"

namespace swope {

class Counter;
class Table;

/// A query's sample-size schedule: M_1 = m0, then
/// M_{i+1} = min(N, max(M_i + 1, ceil(M_i * growth))). Queries over one
/// table and order with equal schedules read equal prefixes at equal
/// rounds.
struct SampleSchedule {
  uint64_t m0 = 0;
  double growth = 2.0;

  bool operator<(const SampleSchedule& other) const {
    if (m0 != other.m0) return m0 < other.m0;
    return growth < other.growth;
  }
};

/// One column's value counts over the deepest schedule prefix counted so
/// far, and H_S at every schedule point up to it. A query holds mutex()
/// while it reads a point or extends the counts by the next round's slice.
class ColumnPrefix {
 public:
  /// Allocates from `memory` (null: global heap), and nothing until the
  /// first AddCodes, so a column no query counts exactly (a sketched one)
  /// costs no counts.
  ColumnPrefix(uint32_t support, uint32_t reserved_points,
               std::pmr::memory_resource* memory)
      : support_(support),
        reserved_points_(reserved_points),
        counts_(memory != nullptr ? memory
                                  : std::pmr::get_default_resource()),
        entropies_(counts_.get_allocator()) {}

  ColumnPrefix(const ColumnPrefix&) = delete;
  ColumnPrefix& operator=(const ColumnPrefix&) = delete;

  uint32_t support() const { return support_; }
  Mutex& mutex() RETURN_CAPABILITY(mutex_) { return mutex_; }

  /// Schedule points counted so far; point i is the query's round i.
  size_t points() const REQUIRES(mutex_) { return entropies_.size(); }
  /// H_S at schedule point `point` < points().
  double entropy(size_t point) const REQUIRES(mutex_) {
    return entropies_[point];
  }
  /// Rows counted: M at the deepest point.
  uint64_t depth() const REQUIRES(mutex_) { return depth_; }

  /// Absorbs the next round's slice of decoded codes. The first call
  /// sizes the counts and reserves every schedule point, so later calls
  /// never allocate.
  void AddCodes(const ValueCode* codes, uint64_t count) REQUIRES(mutex_);
  /// Records H_S of the counted prefix as the next schedule point.
  void RecordPoint() REQUIRES(mutex_);

 private:
  const uint32_t support_;
  const uint32_t reserved_points_;
  Mutex mutex_;
  std::pmr::vector<uint64_t> counts_ GUARDED_BY(mutex_);
  std::pmr::vector<double> entropies_ GUARDED_BY(mutex_);
  uint64_t depth_ GUARDED_BY(mutex_) = 0;
};

/// The ColumnPrefix of every column of one table under one schedule.
class EntropyPrefix {
 public:
  /// Every column's state allocates from `memory` (null: global heap) and
  /// reserves the doubling schedule's i_max points.
  EntropyPrefix(const Table& table, const SampleSchedule& schedule,
                std::pmr::memory_resource* memory);

  EntropyPrefix(const EntropyPrefix&) = delete;
  EntropyPrefix& operator=(const EntropyPrefix&) = delete;

  ColumnPrefix& column(size_t j) { return columns_[j]; }

  /// True when `table` has the column supports this state was built for.
  bool Fits(const Table& table) const;

 private:
  // A deque never relocates its elements, so each column's mutex stays put.
  std::pmr::deque<ColumnPrefix> columns_;
};

/// A shared row order and the entropy states of the queries that read it.
/// Internally synchronized; hand it to queries as QueryOptions::
/// shared_prefix.
class SharedPrefix {
 public:
  /// States kept per order. Schedule overrides (m0=, growth=, pf=) come
  /// from clients, so an unbounded map would let them pin memory without
  /// limit; beyond this the least recently used schedule's state is
  /// dropped, and a query still reading it keeps it alive.
  static constexpr size_t kMaxSchedules = 4;

  /// `order` must be a permutation of [0, N). `counted_cells` and
  /// `reused_cells` (may be null) tally the cells queries count into the
  /// states and the cells they read from them; the caller keeps both
  /// alive as long as this object.
  explicit SharedPrefix(std::vector<uint32_t> order,
                        Counter* counted_cells = nullptr,
                        Counter* reused_cells = nullptr)
      : order_(std::move(order)),
        counted_cells_(counted_cells),
        reused_cells_(reused_cells) {}

  SharedPrefix(const SharedPrefix&) = delete;
  SharedPrefix& operator=(const SharedPrefix&) = delete;

  const std::vector<uint32_t>& order() const { return order_; }
  Counter* counted_cells() const { return counted_cells_; }
  Counter* reused_cells() const { return reused_cells_; }

  /// The entropy state of `schedule`, built on first use from the global
  /// heap. Every query handed this object must be over the same table
  /// contents; a table whose column supports differ from the state's gets
  /// InvalidArgument.
  Result<std::shared_ptr<EntropyPrefix>> Entropy(
      const Table& table, const SampleSchedule& schedule) REQUIRES(!mutex_);

 private:
  struct State {
    std::shared_ptr<EntropyPrefix> prefix;
    uint64_t last_used = 0;
  };

  const std::vector<uint32_t> order_;
  Counter* const counted_cells_;
  Counter* const reused_cells_;
  Mutex mutex_;
  std::map<SampleSchedule, State> entropy_ GUARDED_BY(mutex_);
  uint64_t tick_ GUARDED_BY(mutex_) = 0;
};

}  // namespace swope

#endif  // SWOPE_CORE_SHARED_PREFIX_H_

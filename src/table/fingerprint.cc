#include "src/table/fingerprint.h"

#include <algorithm>
#include <string_view>
#include <vector>

namespace swope {

namespace {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

// SplitMix64 finalizer: breaks up the linearity of plain FNV so similar
// tables (e.g. one code incremented) diverge in every output bit.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

class Hasher {
 public:
  void Add(uint64_t value) {
    state_ = (state_ ^ Mix(value)) * kFnvPrime;
  }

  void Add(std::string_view text) {
    Add(static_cast<uint64_t>(text.size()));
    for (unsigned char c : text) state_ = (state_ ^ c) * kFnvPrime;
  }

  uint64_t Finish() const { return Mix(state_); }

 private:
  uint64_t state_ = kFnvOffset;
};

}  // namespace

uint64_t TableFingerprint(const Table& table) {
  Hasher hasher;
  hasher.Add(table.num_rows());
  hasher.Add(static_cast<uint64_t>(table.num_columns()));
  std::vector<ValueCode> scratch;
  for (const Column& column : table.columns()) {
    hasher.Add(column.name());
    hasher.Add(static_cast<uint64_t>(column.support()));
    // Decode in chunks; the hash consumes codes in row order, so the
    // fingerprint is a function of the logical values, not the packing.
    const uint64_t rows = column.size();
    scratch.resize(std::min<uint64_t>(rows, 4096));
    for (uint64_t begin = 0; begin < rows; begin += scratch.size()) {
      const uint64_t end = std::min<uint64_t>(rows, begin + scratch.size());
      column.packed().Decode(begin, end, scratch.data());
      for (uint64_t i = 0; i < end - begin; ++i) {
        hasher.Add(static_cast<uint64_t>(scratch[i]));
      }
    }
    hasher.Add(static_cast<uint64_t>(column.labels().size()));
    for (const std::string& label : column.labels()) hasher.Add(label);
  }
  return hasher.Finish();
}

}  // namespace swope

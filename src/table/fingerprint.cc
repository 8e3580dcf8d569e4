#include "src/table/fingerprint.h"

#include <string_view>

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
  for (const Column& column : table.columns()) {
    hasher.Add(column.name());
    hasher.Add(static_cast<uint64_t>(column.support()));
    // Every Column holds its codes at the canonical width for its
    // support, with zero bits past the last code, so the payload words
    // are a function of the codes: hashing them word by word covers the
    // logical values without decoding one.
    const PackedCodes& packed = column.packed();
    hasher.Add(static_cast<uint64_t>(packed.width()));
    const uint64_t* words = packed.data_words();
    const uint64_t num_words = packed.num_data_words();
    for (uint64_t i = 0; i < num_words; ++i) hasher.Add(words[i]);
    hasher.Add(static_cast<uint64_t>(column.labels().size()));
    for (const std::string& label : column.labels()) hasher.Add(label);
  }
  return hasher.Finish();
}

}  // namespace swope

// ContentHasher: the streaming 64-bit hash behind table identity.
//
// TableFingerprint (src/table/fingerprint.h) and Column::PayloadDigest
// (src/table/column.h) both feed it integer fields: FNV-1a over the
// fields, each field first passed through a SplitMix64 finalizer, so
// similar inputs (one code incremented) diverge in every output bit.
// Values are mixed as integers, never as raw memory. The whole state is
// one word, so a hash can stop after some fields and resume later from
// state(): that is how an append extends its parent column's digest over
// the new payload words only.

#ifndef SWOPE_TABLE_CONTENT_HASH_H_
#define SWOPE_TABLE_CONTENT_HASH_H_

#include <cstdint>
#include <string_view>

namespace swope {

class ContentHasher {
 public:
  ContentHasher() = default;
  /// Resumes a hash from the state() of an earlier one.
  explicit ContentHasher(uint64_t state) : state_(state) {}

  void Add(uint64_t value) { state_ = (state_ ^ Mix(value)) * kFnvPrime; }

  void Add(std::string_view text) {
    Add(static_cast<uint64_t>(text.size()));
    for (unsigned char c : text) state_ = (state_ ^ c) * kFnvPrime;
  }

  /// Adds words[begin..end), one field per word.
  void AddWords(const uint64_t* words, uint64_t begin, uint64_t end) {
    for (uint64_t i = begin; i < end; ++i) Add(words[i]);
  }

  uint64_t state() const { return state_; }
  uint64_t Finish() const { return Mix(state_); }

 private:
  static constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
  static constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

  // SplitMix64 finalizer: breaks up the linearity of plain FNV.
  static uint64_t Mix(uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  uint64_t state_ = kFnvOffset;
};

}  // namespace swope

#endif  // SWOPE_TABLE_CONTENT_HASH_H_

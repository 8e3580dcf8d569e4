// PackedCodes: bit-packed storage for dictionary codes.
//
// A column with support u only needs ceil(log2(u)) bits per value, and
// real categorical attributes (Table 2's CDC/HUS/PUS columns) mostly fit
// in 8 bits or fewer, so packing shrinks the resident working set 4-8x
// versus 4-bytes-per-value vectors. That is what makes the paper's
// columnar-storage argument (Section 6.1) bite: the sampled prefix of
// every column stays cache-resident. Values are stored little-endian
// within consecutive uint64_t words; width 0 encodes a constant column
// (support <= 1) with no payload at all. The bits of the last payload
// word past the final code are always zero (Pack and Append write none,
// FromWords and BorrowWords reject any), so at a given width the payload
// words are a function of the codes alone: TableFingerprint hashes them
// directly, and Append can OR a tail into the last word.
//
// Batch decode goes through width-specialized kernels -- one template
// instantiation per width, dispatched once per batch -- so the shift and
// mask are compile-time constants and the inner loops stay branch-free.
// docs/STORAGE.md documents the layout, the accessor contract, and the
// byte-accounting rules built on top of it.

#ifndef SWOPE_TABLE_PACKED_CODES_H_
#define SWOPE_TABLE_PACKED_CODES_H_

#include <bit>
#include <cstdint>
#include <vector>

#include "src/common/result.h"
#include "src/common/status.h"

namespace swope {

/// Value code type: a dictionary-encoded attribute value in [0, support).
using ValueCode = uint32_t;

/// Immutable bit-packed sequence of codes, all below 2^width.
class PackedCodes {
 public:
  /// Bits needed to store any code in [0, support): ceil(log2(support)),
  /// with 0 for constant columns (support <= 1).
  static uint32_t WidthForSupport(uint32_t support) {
    return support <= 1
               ? 0u
               : static_cast<uint32_t>(std::bit_width(support - 1u));
  }

  /// Number of payload words a sequence occupies (excludes the padding
  /// word the in-memory representation appends). Precondition:
  /// size <= MaxSizeForWidth(width), or the bit count overflows uint64.
  static uint64_t NumDataWords(uint64_t size, uint32_t width) {
    return (size * width + 63) / 64;
  }

  /// Largest sequence length whose bit count size * width + 63 still fits
  /// in uint64 -- the precondition for NumDataWords. Untrusted sizes
  /// (e.g. file headers) must be checked against this before any word
  /// count is computed; FromWords rejects larger sizes itself. Width 0
  /// stores no payload, so any size is representable.
  static uint64_t MaxSizeForWidth(uint32_t width) {
    return width == 0 ? UINT64_MAX : (UINT64_MAX - 63) / width;
  }

  PackedCodes() = default;

  /// Packs `codes`, all of which must be < 2^width (the caller validates
  /// against its support before packing).
  static PackedCodes Pack(const std::vector<ValueCode>& codes,
                          uint32_t width);

  /// Reconstructs from serialized payload words (binary format v2).
  /// Validates the width, the word count, and that no bit past the last
  /// code is set; decoded values still need a support check by the
  /// caller (Column::FromPacked).
  static Result<PackedCodes> FromWords(uint64_t size, uint32_t width,
                                       std::vector<uint64_t> words);

  /// Borrowed-words mode: references `words` (NumDataWords(size, width)
  /// payload words, 8-byte aligned) without copying -- the mmap-loaded
  /// column path. The caller guarantees the pointed-at memory outlives
  /// this object (Column keeps the MappedFile alive) and that at least
  /// 8 bytes past the payload stay dereferenceable, standing in for the
  /// padding word the owned layout appends (see docs/STORAGE.md). Rejects
  /// a set bit past the last code, as FromWords does.
  static Result<PackedCodes> BorrowWords(uint64_t size, uint32_t width,
                                         const uint64_t* words);

  uint64_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  uint32_t width() const { return width_; }

  /// Single-value decode. Cold-path accessor: batch loops should call
  /// Decode/Gather instead, which hoist the width dispatch out of the
  /// loop.
  ValueCode Get(uint64_t i) const {
    if (width_ == 0) return 0;
    const uint64_t* words = word_base();
    const uint64_t bit = i * width_;
    const uint64_t mask = (uint64_t{1} << width_) - 1;
    // The trailing padding word (or the borrowed guard bytes) keeps the
    // two-word read in bounds.
    const unsigned __int128 pair =
        (static_cast<unsigned __int128>(words[(bit >> 6) + 1]) << 64) |
        words[bit >> 6];
    return static_cast<ValueCode>(
        static_cast<uint64_t>(pair >> (bit & 63)) & mask);
  }

  /// Decodes the contiguous range [begin, end) into `out` (which must
  /// hold end - begin values). Width-specialized.
  void Decode(uint64_t begin, uint64_t end, ValueCode* out) const;

  /// Decodes the `count` values at positions order[0..count) into `out`.
  /// Width-specialized; this is the sampled-prefix hot path.
  void Gather(const uint32_t* order, uint64_t count, ValueCode* out) const;

  /// Decodes everything into a fresh vector (tests / cold paths).
  std::vector<ValueCode> ToVector() const;

  /// Returns a new sequence holding this sequence's values followed by
  /// `tail`, stored at `width` bits (which must be >= the current width;
  /// every tail code must be < 2^width). When the width is unchanged the
  /// existing payload words are copied verbatim and only the tail is
  /// packed -- the streaming-ingest fast path; a wider width (support
  /// crossed a power-of-two boundary) repacks everything.
  PackedCodes Append(const std::vector<ValueCode>& tail,
                     uint32_t width) const;

  /// Serialized payload (NumDataWords entries; the padding word is not
  /// part of the wire format).
  const uint64_t* data_words() const { return word_base(); }
  uint64_t num_data_words() const { return NumDataWords(size_, width_); }

  /// True when the payload references external (mmap-backed) memory
  /// instead of owned heap words.
  bool borrowed() const { return external_ != nullptr; }

  /// Exact resident heap payload bytes (including the in-memory padding
  /// word); 0 for a borrowed sequence, whose bytes are MappedBytes().
  uint64_t MemoryBytes() const {
    return words_.size() * sizeof(uint64_t);
  }

  /// Payload bytes referenced in a mapped region; 0 for owned storage.
  uint64_t MappedBytes() const {
    return borrowed() ? num_data_words() * sizeof(uint64_t) : 0;
  }

 private:
  PackedCodes(uint64_t size, uint32_t width, std::vector<uint64_t> words)
      : size_(size), width_(width), words_(std::move(words)) {}
  PackedCodes(uint64_t size, uint32_t width, const uint64_t* external)
      : size_(size), width_(width), external_(external) {}

  const uint64_t* word_base() const {
    return external_ != nullptr ? external_ : words_.data();
  }

  uint64_t size_ = 0;
  uint32_t width_ = 0;
  /// Owned mode: payload words plus one zero padding word (when
  /// non-empty), so the unaligned two-word reads in the decode kernels
  /// never run off the end. Empty in borrowed mode.
  std::vector<uint64_t> words_;
  /// Borrowed mode: externally owned payload words (the caller
  /// guarantees lifetime and the 8-byte read guard). Null in owned mode.
  const uint64_t* external_ = nullptr;
};

}  // namespace swope

#endif  // SWOPE_TABLE_PACKED_CODES_H_

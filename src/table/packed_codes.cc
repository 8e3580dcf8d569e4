#include "src/table/packed_codes.h"

#include <array>
#include <cassert>
#include <cstring>
#include <utility>

namespace swope {

namespace {

// One decode step with the width a compile-time constant. Widths that
// divide 64 never straddle a word boundary, so they take the single-word
// path; the rest byte-align the bit offset and do one unaligned 64-bit
// load -- the in-byte remainder is at most 7 bits, so any width up to 32
// fits in the loaded word (7 + 32 < 64), and the padding word keeps the
// read in bounds. Either way the loop body is branch-free.
template <uint32_t W>
inline ValueCode Extract(const uint64_t* words, uint64_t i) {
  if constexpr (W == 0) {
    (void)words;
    (void)i;
    return 0;
  } else if constexpr (64 % W == 0) {
    constexpr uint32_t kPerWord = 64 / W;
    constexpr uint64_t kMask = (uint64_t{1} << W) - 1;
    const uint64_t word = words[i / kPerWord];
    const uint32_t shift = static_cast<uint32_t>(i % kPerWord) * W;
    return static_cast<ValueCode>((word >> shift) & kMask);
  } else {
    constexpr uint64_t kMask = (uint64_t{1} << W) - 1;
    const uint64_t bit = i * W;
    uint64_t word;  // little-endian host, as binary_io already requires
    std::memcpy(&word, reinterpret_cast<const char*>(words) + (bit >> 3),
                sizeof(word));
    return static_cast<ValueCode>((word >> (bit & 7)) & kMask);
  }
}

template <uint32_t W>
void GatherKernel(const uint64_t* words, const uint32_t* order,
                  uint64_t count, ValueCode* out) {
  for (uint64_t i = 0; i < count; ++i) {
    out[i] = Extract<W>(words, order[i]);
  }
}

template <uint32_t W>
void DecodeKernel(const uint64_t* words, uint64_t begin, uint64_t end,
                  ValueCode* out) {
  for (uint64_t i = begin; i < end; ++i) {
    out[i - begin] = Extract<W>(words, i);
  }
}

using GatherFn = void (*)(const uint64_t*, const uint32_t*, uint64_t,
                          ValueCode*);
using DecodeFn = void (*)(const uint64_t*, uint64_t, uint64_t, ValueCode*);

template <uint32_t... Ws>
constexpr std::array<GatherFn, sizeof...(Ws)> MakeGatherTable(
    std::integer_sequence<uint32_t, Ws...>) {
  return {&GatherKernel<Ws>...};
}

template <uint32_t... Ws>
constexpr std::array<DecodeFn, sizeof...(Ws)> MakeDecodeTable(
    std::integer_sequence<uint32_t, Ws...>) {
  return {&DecodeKernel<Ws>...};
}

// One instantiation per width 0..32; dispatch is a single indexed call
// per batch.
constexpr auto kGatherKernels =
    MakeGatherTable(std::make_integer_sequence<uint32_t, 33>{});
constexpr auto kDecodeKernels =
    MakeDecodeTable(std::make_integer_sequence<uint32_t, 33>{});

// Rejects a payload whose last word has a bit set past the final code.
// Pack and Append never write there, so words read from a file are the
// only way such bits get in; left in place, Append would OR the next
// codes into them and the payload words would stop being a function of
// the logical codes. A full last word has no tail to check.
Status CheckZeroTail(uint64_t size, uint32_t width, const uint64_t* words) {
  const uint32_t used_bits = static_cast<uint32_t>((size * width) & 63);
  if (used_bits == 0) return Status::OK();
  const uint64_t last = PackedCodes::NumDataWords(size, width) - 1;
  if ((words[last] >> used_bits) != 0) {
    return Status::InvalidArgument(
        "packed codes: bits set past the last code in payload word " +
        std::to_string(last));
  }
  return Status::OK();
}

}  // namespace

PackedCodes PackedCodes::Pack(const std::vector<ValueCode>& codes,
                              uint32_t width) {
  assert(width <= 32);
  const uint64_t n = codes.size();
  std::vector<uint64_t> words;
  if (width > 0 && n > 0) {
    words.assign(NumDataWords(n, width) + 1, 0);
    for (uint64_t i = 0; i < n; ++i) {
      assert(width == 32 ||
             codes[i] < (uint64_t{1} << width));
      const uint64_t bit = i * width;
      const uint64_t word = bit >> 6;
      const uint32_t shift = static_cast<uint32_t>(bit & 63);
      words[word] |= static_cast<uint64_t>(codes[i]) << shift;
      if (shift + width > 64) {
        words[word + 1] |= static_cast<uint64_t>(codes[i]) >> (64 - shift);
      }
    }
  }
  return PackedCodes(n, width, std::move(words));
}

Result<PackedCodes> PackedCodes::FromWords(uint64_t size, uint32_t width,
                                           std::vector<uint64_t> words) {
  if (width > 32) {
    return Status::InvalidArgument("packed codes: width " +
                                   std::to_string(width) + " > 32");
  }
  if (size > MaxSizeForWidth(width)) {
    // Without this, NumDataWords wraps uint64 and a tiny words vector
    // would pass the count check below while size_ claims billions of
    // values -- every later Decode would then read out of bounds.
    return Status::InvalidArgument(
        "packed codes: size " + std::to_string(size) +
        " overflows the bit count for width " + std::to_string(width));
  }
  const uint64_t expect =
      (width == 0 || size == 0) ? 0 : NumDataWords(size, width);
  if (words.size() != expect) {
    return Status::InvalidArgument(
        "packed codes: got " + std::to_string(words.size()) +
        " payload words, expected " + std::to_string(expect));
  }
  SWOPE_RETURN_NOT_OK(CheckZeroTail(size, width, words.data()));
  if (expect > 0) words.push_back(0);  // in-memory padding word
  return PackedCodes(size, width, std::move(words));
}

Result<PackedCodes> PackedCodes::BorrowWords(uint64_t size, uint32_t width,
                                             const uint64_t* words) {
  if (width > 32) {
    return Status::InvalidArgument("packed codes: width " +
                                   std::to_string(width) + " > 32");
  }
  if (size > MaxSizeForWidth(width)) {
    return Status::InvalidArgument(
        "packed codes: size " + std::to_string(size) +
        " overflows the bit count for width " + std::to_string(width));
  }
  if (width == 0 || size == 0) {
    // No payload to borrow; an owned empty sequence behaves identically.
    return PackedCodes(size, width, std::vector<uint64_t>{});
  }
  if (words == nullptr ||
      (reinterpret_cast<uintptr_t>(words) % alignof(uint64_t)) != 0) {
    return Status::InvalidArgument(
        "packed codes: borrowed words must be 8-byte aligned");
  }
  SWOPE_RETURN_NOT_OK(CheckZeroTail(size, width, words));
  return PackedCodes(size, width, words);
}

void PackedCodes::Decode(uint64_t begin, uint64_t end,
                         ValueCode* out) const {
  assert(begin <= end && end <= size_);
  kDecodeKernels[width_](word_base(), begin, end, out);
}

void PackedCodes::Gather(const uint32_t* order, uint64_t count,
                         ValueCode* out) const {
  kGatherKernels[width_](word_base(), order, count, out);
}

std::vector<ValueCode> PackedCodes::ToVector() const {
  std::vector<ValueCode> codes(size_);
  if (size_ > 0) Decode(0, size_, codes.data());
  return codes;
}

PackedCodes PackedCodes::Append(const std::vector<ValueCode>& tail,
                                uint32_t width) const {
  assert(width >= width_ && width <= 32);
  if (width != width_) {
    // Width grew: decode everything once and repack at the new width.
    std::vector<ValueCode> codes = ToVector();
    codes.insert(codes.end(), tail.begin(), tail.end());
    return Pack(codes, width);
  }
  const uint64_t n = size_ + tail.size();
  std::vector<uint64_t> words;
  if (width > 0 && n > 0) {
    // Copy the old payload (dropping the padding word, which the loop
    // below may turn into real payload) and pack the tail behind it.
    // word_base() so borrowed (mapped) payloads append into an owned
    // copy.
    words.assign(NumDataWords(n, width) + 1, 0);
    const uint64_t* base = word_base();
    std::copy(base, base + NumDataWords(size_, width), words.begin());
    for (uint64_t i = 0; i < tail.size(); ++i) {
      assert(width == 32 || tail[i] < (uint64_t{1} << width));
      const uint64_t bit = (size_ + i) * width;
      const uint64_t word = bit >> 6;
      const uint32_t shift = static_cast<uint32_t>(bit & 63);
      words[word] |= static_cast<uint64_t>(tail[i]) << shift;
      if (shift + width > 64) {
        words[word + 1] |= static_cast<uint64_t>(tail[i]) >> (64 - shift);
      }
    }
  }
  return PackedCodes(n, width, std::move(words));
}

}  // namespace swope

// Property tests for PackedCodes: every decode route (Get, Decode,
// Gather, ToVector) must agree with a plain std::vector<uint32_t>
// reference across random widths, width 0 (constant columns), exact
// power-of-two supports, and empty sequences; FromWords and BorrowWords
// must reject malformed serialized payloads.

#include "src/table/packed_codes.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/table/shuffle.h"

namespace swope {
namespace {

std::vector<ValueCode> RandomCodes(uint64_t size, uint32_t support,
                                   uint64_t seed) {
  Rng rng(seed);
  std::vector<ValueCode> codes(size);
  for (auto& code : codes) {
    code = static_cast<ValueCode>(rng.UniformU64(support));
  }
  return codes;
}

// Pack, then decode through every route and compare element-wise to the
// unpacked reference vector.
void ExpectAllRoutesMatch(const std::vector<ValueCode>& reference,
                          uint32_t width) {
  const PackedCodes packed = PackedCodes::Pack(reference, width);
  ASSERT_EQ(packed.size(), reference.size());
  ASSERT_EQ(packed.width(), width);

  for (uint64_t i = 0; i < reference.size(); ++i) {
    ASSERT_EQ(packed.Get(i), reference[i]) << "Get at " << i;
  }

  EXPECT_EQ(packed.ToVector(), reference);

  // Decode over a few sub-ranges, including empty and full.
  std::vector<ValueCode> out(reference.size());
  const uint64_t n = reference.size();
  const uint64_t cuts[] = {0, n / 3, n / 2, n};
  for (uint64_t begin : cuts) {
    for (uint64_t end : cuts) {
      if (end < begin) continue;
      std::fill(out.begin(), out.end(), ValueCode{0xdeadbeef});
      packed.Decode(begin, end, out.data());
      for (uint64_t i = begin; i < end; ++i) {
        ASSERT_EQ(out[i - begin], reference[i])
            << "Decode [" << begin << "," << end << ") at " << i;
      }
    }
  }

  // Gather over a shuffled permutation must equal permuted reference.
  if (n > 0) {
    const auto order = ShuffledRowOrder(static_cast<uint32_t>(n), 77);
    std::vector<ValueCode> gathered(n);
    packed.Gather(order.data(), n, gathered.data());
    for (uint64_t i = 0; i < n; ++i) {
      ASSERT_EQ(gathered[i], reference[order[i]]) << "Gather at " << i;
    }
  }

  // Round-trip through the serialized payload words.
  std::vector<uint64_t> words(packed.data_words(),
                              packed.data_words() + packed.num_data_words());
  auto restored = PackedCodes::FromWords(packed.size(), width,
                                         std::move(words));
  ASSERT_TRUE(restored.ok()) << restored.status().message();
  EXPECT_EQ(restored->ToVector(), reference);
}

TEST(PackedCodesTest, WidthForSupportMatchesCeilLog2) {
  EXPECT_EQ(PackedCodes::WidthForSupport(0), 0u);
  EXPECT_EQ(PackedCodes::WidthForSupport(1), 0u);
  EXPECT_EQ(PackedCodes::WidthForSupport(2), 1u);
  EXPECT_EQ(PackedCodes::WidthForSupport(3), 2u);
  EXPECT_EQ(PackedCodes::WidthForSupport(4), 2u);
  EXPECT_EQ(PackedCodes::WidthForSupport(5), 3u);
  EXPECT_EQ(PackedCodes::WidthForSupport(256), 8u);
  EXPECT_EQ(PackedCodes::WidthForSupport(257), 9u);
  EXPECT_EQ(PackedCodes::WidthForSupport(0xffffffffu), 32u);
}

TEST(PackedCodesTest, NumDataWordsRoundsUpBits) {
  EXPECT_EQ(PackedCodes::NumDataWords(0, 7), 0u);
  EXPECT_EQ(PackedCodes::NumDataWords(100, 0), 0u);
  EXPECT_EQ(PackedCodes::NumDataWords(1, 1), 1u);
  EXPECT_EQ(PackedCodes::NumDataWords(64, 1), 1u);
  EXPECT_EQ(PackedCodes::NumDataWords(65, 1), 2u);
  EXPECT_EQ(PackedCodes::NumDataWords(10, 32), 5u);
}

TEST(PackedCodesTest, RandomWidthsAgreeWithReferenceVector) {
  Rng rng(1234);
  for (int trial = 0; trial < 60; ++trial) {
    // Support drawn across the whole representable range of widths; sizes
    // hit word boundaries (multiples of 64 values) and off-by-one cases.
    const uint32_t width = static_cast<uint32_t>(rng.UniformU64(33));
    // Supports needing exactly `width` bits lie in [2^(width-1)+1, 2^width]
    // (capped at 2^32 - 1 for width 32).
    const uint64_t lo = width == 0 ? 1 : (uint64_t{1} << (width - 1)) + 1;
    const uint64_t hi =
        width == 0 ? 1
                   : std::min<uint64_t>(uint64_t{1} << width, 0xffffffffu);
    const uint32_t support =
        static_cast<uint32_t>(lo + rng.UniformU64(hi - lo + 1));
    const uint64_t size = rng.UniformU64(600);
    ASSERT_EQ(PackedCodes::WidthForSupport(support), width);
    ExpectAllRoutesMatch(RandomCodes(size, support, 999 + trial), width);
  }
}

// The fused count kernel against a count over the reference vector, at
// every width from 0 to 20 (count arrays of up to 2^20 entries) and at
// sizes around the four-code batch, with skewed values so runs of one
// value exercise the partial arrays.
TEST(PackedCodesTest, CountValuesMatchesReferenceCount) {
  Rng rng(4321);
  for (uint32_t width = 0; width <= 20; ++width) {
    const uint32_t support = width == 0 ? 1 : (1u << width) - (width > 1);
    for (uint64_t size : {0, 1, 3, 4, 5, 63, 64, 65, 1027}) {
      std::vector<ValueCode> codes(size);
      for (ValueCode& code : codes) {
        code = static_cast<ValueCode>(
            rng.UniformU64(4) == 0 ? rng.UniformU64(support) : support - 1);
      }
      std::vector<uint64_t> reference(support, 0);
      for (ValueCode code : codes) ++reference[code];
      const PackedCodes packed = PackedCodes::Pack(codes, width);
      std::vector<uint64_t> counts(support, 5);  // added to, not overwritten
      packed.CountValues(counts.data(), counts.size());
      for (uint64_t& count : counts) count -= 5;
      ASSERT_EQ(counts, reference) << "width " << width << " size " << size;
    }
  }
}

TEST(PackedCodesTest, PowerOfTwoSupportsUseExactWidth) {
  for (uint32_t log2u : {1u, 2u, 3u, 8u, 16u}) {
    const uint32_t support = 1u << log2u;
    ASSERT_EQ(PackedCodes::WidthForSupport(support), log2u);
    // Include the extreme codes 0 and support - 1 explicitly.
    std::vector<ValueCode> codes = RandomCodes(321, support, 42 + log2u);
    codes[0] = 0;
    codes[1] = support - 1;
    ExpectAllRoutesMatch(codes, log2u);
  }
}

TEST(PackedCodesTest, WidthZeroConstantColumnHasNoPayload) {
  const std::vector<ValueCode> zeros(1000, 0);
  const PackedCodes packed = PackedCodes::Pack(zeros, 0);
  EXPECT_EQ(packed.size(), 1000u);
  EXPECT_EQ(packed.num_data_words(), 0u);
  ExpectAllRoutesMatch(zeros, 0);
}

TEST(PackedCodesTest, EmptySequence) {
  const std::vector<ValueCode> empty;
  for (uint32_t width : {0u, 5u, 32u}) {
    const PackedCodes packed = PackedCodes::Pack(empty, width);
    EXPECT_TRUE(packed.empty());
    EXPECT_EQ(packed.num_data_words(), 0u);
    ExpectAllRoutesMatch(empty, width);
  }
}

TEST(PackedCodesTest, FromWordsRejectsBadWidth) {
  auto packed = PackedCodes::FromWords(10, 33, std::vector<uint64_t>(6, 0));
  EXPECT_FALSE(packed.ok());
}

TEST(PackedCodesTest, FromWordsRejectsWrongWordCount) {
  // 10 values * 7 bits = 70 bits -> 2 words required.
  EXPECT_FALSE(
      PackedCodes::FromWords(10, 7, std::vector<uint64_t>(1, 0)).ok());
  EXPECT_FALSE(
      PackedCodes::FromWords(10, 7, std::vector<uint64_t>(3, 0)).ok());
  EXPECT_TRUE(
      PackedCodes::FromWords(10, 7, std::vector<uint64_t>(2, 0)).ok());
}

TEST(PackedCodesTest, FromWordsRejectsOverflowingSize) {
  // size * width wraps uint64 exactly (2^59 * 32 = 2^64), so the naive
  // word count is 0 and an empty payload would match it; FromWords must
  // reject the size outright instead of constructing a PackedCodes whose
  // decodes read out of bounds.
  EXPECT_FALSE(
      PackedCodes::FromWords(uint64_t{1} << 59, 32, {}).ok());
  // Just past the largest representable size for the width.
  EXPECT_FALSE(
      PackedCodes::FromWords(PackedCodes::MaxSizeForWidth(7) + 1, 7, {})
          .ok());
}

// The bits of the last payload word past the final code must be zero:
// Append ORs the next codes into them, and TableFingerprint hashes the
// words as they are. Both ways in for words read from a file check it.
TEST(PackedCodesTest, SetBitPastLastCodeIsRejected) {
  // (size, width) pairs whose last word is only partly used.
  const std::pair<uint64_t, uint32_t> partial[] = {
      {10, 3}, {10, 7}, {1, 1}, {63, 1}, {5, 13}, {3, 32}, {7, 8}};
  for (const auto& [size, width] : partial) {
    SCOPED_TRACE("size=" + std::to_string(size) +
                 " width=" + std::to_string(width));
    const uint32_t used_bits = static_cast<uint32_t>((size * width) % 64);
    ASSERT_NE(used_bits, 0u);
    const PackedCodes packed =
        PackedCodes::Pack(RandomCodes(size, 1u << std::min(width, 31u), 5),
                          width);
    std::vector<uint64_t> words(packed.data_words(),
                                packed.data_words() + packed.num_data_words());
    // The clean payload is accepted by both ways in.
    ASSERT_TRUE(PackedCodes::FromWords(size, width, words).ok());
    words.push_back(0);  // the guard word BorrowWords may read
    ASSERT_TRUE(PackedCodes::BorrowWords(size, width, words.data()).ok());
    words.pop_back();
    // One set bit anywhere past the last code is rejected.
    for (uint32_t bit : {used_bits, (used_bits + 63) / 2, 63u}) {
      std::vector<uint64_t> dirty = words;
      dirty.back() |= uint64_t{1} << bit;
      EXPECT_FALSE(PackedCodes::FromWords(size, width, dirty).ok())
          << "bit " << bit;
      dirty.push_back(0);
      EXPECT_FALSE(PackedCodes::BorrowWords(size, width, dirty.data()).ok())
          << "bit " << bit;
    }
  }
}

TEST(PackedCodesTest, FullLastWordHasNoTailToCheck) {
  // size * width a multiple of 64: every bit of the last word is payload,
  // so an all-ones word is a valid run of codes.
  const std::pair<uint64_t, uint32_t> full[] = {
      {64, 1}, {8, 8}, {64, 3}, {2, 32}, {128, 13}};
  for (const auto& [size, width] : full) {
    SCOPED_TRACE("size=" + std::to_string(size) +
                 " width=" + std::to_string(width));
    ASSERT_EQ((size * width) % 64, 0u);
    std::vector<uint64_t> words(PackedCodes::NumDataWords(size, width),
                                ~uint64_t{0});
    auto owned = PackedCodes::FromWords(size, width, words);
    ASSERT_TRUE(owned.ok()) << owned.status().ToString();
    EXPECT_EQ(owned->Get(size - 1), (uint64_t{1} << width) - 1);
    words.push_back(0);
    EXPECT_TRUE(PackedCodes::BorrowWords(size, width, words.data()).ok());
  }
}

TEST(PackedCodesTest, MemoryBytesCountsWordsIncludingPadding) {
  // 100 values * 6 bits = 600 bits -> 10 payload words + 1 padding word.
  const PackedCodes packed =
      PackedCodes::Pack(RandomCodes(100, 64, 8), 6);
  EXPECT_EQ(packed.num_data_words(), 10u);
  EXPECT_EQ(packed.MemoryBytes(), 11u * sizeof(uint64_t));
  // Far below the 400 bytes of the unpacked vector.
  EXPECT_LT(packed.MemoryBytes(), 100 * sizeof(ValueCode));
}

}  // namespace
}  // namespace swope

// The streaming word checksum behind the wire frames, spill files and
// archive segments: pinned digests (they fix the on-disk formats), split
// invariance, and detection of every single-bit flip and of word swaps.
#include "util/checksum.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace drapid {
namespace {

std::string pattern(std::size_t n) {
  std::string s(n, '\0');
  for (std::size_t i = 0; i < n; ++i) {
    s[i] = static_cast<char>((i * 131 + 7) & 0xff);
  }
  return s;
}

std::uint64_t digest_of(const std::string& bytes) {
  Checksum sum;
  sum.update(bytes.data(), bytes.size());
  return sum.digest();
}

TEST(Checksum, KnownAnswers) {
  // Recorded once from this implementation. A change here changes every
  // spill file and archive segment on disk: bump their magics with it.
  // The empty digest is also XXH64's published empty-input value.
  const std::pair<std::size_t, std::uint64_t> cases[] = {
      {0, 0xEF46DB3751D8E999ULL},  {1, 0xFE34349E418E73D7ULL},
      {31, 0x682E9549CC5D8891ULL}, {32, 0x36758651506B8A80ULL},
      {33, 0xFF1B18D4414D691BULL}, {1000, 0x744877BF549F0976ULL},
  };
  for (const auto& [size, expected] : cases) {
    EXPECT_EQ(digest_of(pattern(size)), expected) << size << " bytes";
  }
}

TEST(Checksum, SplitUpdatesMatchOneShot) {
  Rng rng(17);
  for (const std::size_t size : {0, 1, 7, 31, 32, 33, 64, 65, 200, 4099}) {
    const std::string bytes = pattern(size);
    const std::uint64_t expected = digest_of(bytes);
    for (int trial = 0; trial < 50; ++trial) {
      Checksum sum;
      std::size_t pos = 0;
      while (pos < size) {
        // Spans of 0..40 bytes: empty ones, sub-word ones, and ones that
        // straddle the 32-byte stripes at every offset.
        const std::size_t take =
            std::min<std::size_t>(size - pos, rng.below(41));
        sum.update(bytes.data() + pos, take);
        pos += take;
      }
      sum.update(bytes.data() + size, 0);
      ASSERT_EQ(sum.digest(), expected) << size << " bytes, trial " << trial;
    }
  }
  // u64 updates are their 8 in-memory bytes.
  Checksum words;
  const std::uint64_t v = 0x0123456789abcdefULL;
  words.update_u64(v);
  std::string raw(sizeof(v), '\0');
  std::memcpy(raw.data(), &v, sizeof(v));
  EXPECT_EQ(words.digest(), digest_of(raw));
}

TEST(Checksum, EverySingleBitFlipIsDetected) {
  for (std::size_t size = 0; size <= 130; ++size) {
    const std::string bytes = pattern(size);
    const std::uint64_t clean = digest_of(bytes);
    for (std::size_t bit = 0; bit < 8 * size; ++bit) {
      std::string flipped = bytes;
      flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
      ASSERT_NE(digest_of(flipped), clean) << size << " bytes, bit " << bit;
    }
  }
}

TEST(Checksum, SampledBitFlipsInAMebibyteAreDetected) {
  std::string bytes = pattern(1 << 20);
  const std::uint64_t clean = digest_of(bytes);
  Rng rng(29);
  std::vector<std::size_t> bits = {0, 8 * bytes.size() - 1};
  for (int i = 0; i < 200; ++i) bits.push_back(rng.below(8 * bytes.size()));
  for (const std::size_t bit : bits) {
    char& byte = bytes[bit / 8];
    byte = static_cast<char>(byte ^ (1 << (bit % 8)));
    EXPECT_NE(digest_of(bytes), clean) << "bit " << bit;
    byte = static_cast<char>(byte ^ (1 << (bit % 8)));
  }
  EXPECT_EQ(digest_of(bytes), clean);
}

TEST(Checksum, AdjacentWordSwapIsDetected) {
  // 13 distinct words, three stripes and a tail word: swaps inside a
  // stripe, across a stripe boundary, and between a stripe and the tail.
  const std::string bytes = pattern(13 * 8);
  const std::uint64_t clean = digest_of(bytes);
  for (std::size_t w = 0; w + 1 < 13; ++w) {
    std::string swapped = bytes;
    std::memcpy(swapped.data() + 8 * w, bytes.data() + 8 * (w + 1), 8);
    std::memcpy(swapped.data() + 8 * (w + 1), bytes.data() + 8 * w, 8);
    ASSERT_NE(swapped, bytes);
    EXPECT_NE(digest_of(swapped), clean) << "words " << w << "," << w + 1;
  }
}

TEST(Checksum, SeedAndLengthChangeTheDigest) {
  const std::string bytes = pattern(40);
  Checksum seeded(1);
  seeded.update(bytes.data(), bytes.size());
  EXPECT_NE(seeded.digest(), digest_of(bytes));
  // Trailing zero bytes are not absorbed by the zero-padded tail word.
  EXPECT_NE(digest_of(bytes + std::string(1, '\0')), digest_of(bytes));
  EXPECT_NE(digest_of(std::string(8, '\0')), digest_of(std::string()));
}

}  // namespace
}  // namespace drapid

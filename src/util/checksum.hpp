// Streaming word checksum shared by every checksummed byte format: the
// worker-pool wire frames (dataflow/ipc/wire.cpp), the dataflow spill files
// (dataflow/spill.cpp) and the candidate-archive segments
// (serve/segment.cpp).
//
// The lanes and the round are XXH64's, written from its published
// description: four 64-bit lanes consume the input in 32-byte stripes, one
// little-endian word per lane, each step `acc = rotl(acc + w * P2, 31) * P1`.
// `digest()` adds the rotated lanes, folds in the total length and then the
// tail words (a final partial word zero-padded), and avalanches. The merge
// and the tail are simpler than XXH64's so that every step is a bijection
// in the one word that feeds it with everything else fixed: any change
// confined to one 8-byte word of the input — every single-bit flip included
// — changes the digest. (So the digests are not XXH64's; only the empty
// input's coincides.) It runs several times faster than a byte-serial fold.
//
// Updates may split the input anywhere: the digest of a stream depends only
// on its bytes, not on how they were handed over, so writers can checksum
// fields as they append them or an assembled buffer once.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace drapid {

class Checksum {
 public:
  explicit Checksum(std::uint64_t seed = 0)
      : lanes_{seed + kP1 + kP2, seed + kP2, seed, seed - kP1}, seed_(seed) {}

  void update(const void* data, std::size_t size) {
    if (size == 0) return;
    const auto* p = static_cast<const unsigned char*>(data);
    total_ += size;
    if (buffered_ > 0) {
      const std::size_t take = size < kStripe - buffered_
                                   ? size
                                   : kStripe - buffered_;
      std::memcpy(buffer_ + buffered_, p, take);
      buffered_ += take;
      p += take;
      size -= take;
      if (buffered_ < kStripe) return;
      consume_stripes(buffer_, 1);
      buffered_ = 0;
    }
    const std::size_t stripes = size / kStripe;
    consume_stripes(p, stripes);
    p += stripes * kStripe;
    size -= stripes * kStripe;
    std::memcpy(buffer_, p, size);
    buffered_ = size;
  }

  void update_u64(std::uint64_t v) { update(&v, sizeof(v)); }

  std::uint64_t digest() const {
    std::uint64_t h;
    if (total_ >= kStripe) {
      h = rotl(lanes_[0], 1) + rotl(lanes_[1], 7) + rotl(lanes_[2], 12) +
          rotl(lanes_[3], 18);
    } else {
      h = seed_ + kP5;
    }
    h += total_;
    std::size_t pos = 0;
    for (; pos < buffered_; pos += 8) {
      std::uint64_t w = 0;  // a final partial word is zero-padded
      std::memcpy(&w, buffer_ + pos,
                  buffered_ - pos < 8 ? buffered_ - pos : 8);
      h = rotl(h ^ round(0, w), 27) * kP1 + kP4;
    }
    h ^= h >> 33;
    h *= kP2;
    h ^= h >> 29;
    h *= kP3;
    h ^= h >> 32;
    return h;
  }

 private:
  static constexpr std::size_t kStripe = 32;
  static constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ULL;
  static constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4FULL;
  static constexpr std::uint64_t kP3 = 0x165667B19E3779F9ULL;
  static constexpr std::uint64_t kP4 = 0x85EBCA77C2B2AE63ULL;
  static constexpr std::uint64_t kP5 = 0x27D4EB2F165667C5ULL;

  static std::uint64_t rotl(std::uint64_t x, int r) {
    return (x << r) | (x >> (64 - r));
  }
  static std::uint64_t round(std::uint64_t acc, std::uint64_t w) {
    return rotl(acc + w * kP2, 31) * kP1;
  }

  void consume_stripes(const unsigned char* p, std::size_t stripes) {
    std::uint64_t v0 = lanes_[0], v1 = lanes_[1], v2 = lanes_[2],
                  v3 = lanes_[3];
    for (std::size_t s = 0; s < stripes; ++s, p += kStripe) {
      std::uint64_t w[4];
      std::memcpy(w, p, kStripe);
      v0 = round(v0, w[0]);
      v1 = round(v1, w[1]);
      v2 = round(v2, w[2]);
      v3 = round(v3, w[3]);
    }
    lanes_[0] = v0;
    lanes_[1] = v1;
    lanes_[2] = v2;
    lanes_[3] = v3;
  }

  std::uint64_t lanes_[4];
  std::uint64_t seed_;
  std::uint64_t total_ = 0;
  unsigned char buffer_[kStripe] = {};
  std::size_t buffered_ = 0;
};

/// Kept for callers that fingerprint whole buffers (perfbench's output
/// digests): the one-shot digest of `size` bytes under `seed`. It does not
/// chain; checksum a stream with a Checksum instead.
inline constexpr std::uint64_t kChecksumSeed = 0xcbf29ce484222325ULL;
inline std::uint64_t checksum_fold(std::uint64_t seed, const void* data,
                                   std::size_t size) {
  Checksum sum(seed);
  sum.update(data, size);
  return sum.digest();
}

}  // namespace drapid

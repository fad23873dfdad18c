#include "common/crc32.h"

#include <gtest/gtest.h>

#include <array>
#include <string>

namespace complydb {
namespace {

// The bytewise table-driven CRC-32 (reflected 0xEDB88320, init and xorout
// 0xFFFFFFFF) the slicing kernel must agree with on every input.
uint32_t ReferenceCrc32Extend(uint32_t crc, const char* p, size_t n) {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t c = crc ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    c = table[(c ^ static_cast<unsigned char>(p[i])) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

std::string Patterned(size_t n, uint32_t seed) {
  std::string s(n, '\0');
  uint32_t x = seed;
  for (size_t i = 0; i < n; ++i) {
    x = x * 1664525u + 1013904223u;
    s[i] = static_cast<char>(x >> 24);
  }
  return s;
}

TEST(Crc32Test, KnownVectors) {
  // Standard CRC-32 (IEEE) test vectors.
  EXPECT_EQ(Crc32(""), 0x00000000u);
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32("The quick brown fox jumps over the lazy dog"), 0x414FA339u);
}

TEST(Crc32Test, ExtendMatchesOneShot) {
  std::string data = "compliance log record payload";
  for (size_t split = 0; split <= data.size(); ++split) {
    uint32_t a = Crc32Extend(Crc32(Slice(data.data(), split)),
                             Slice(data.data() + split, data.size() - split));
    EXPECT_EQ(a, Crc32(data)) << "split at " << split;
  }
}

// Every length 0..1100 at every start offset 0..7: covers the 8-byte main
// loop, each tail length, and unaligned word loads.
TEST(Crc32Test, MatchesReferenceAtEveryLengthAndAlignment) {
  const std::string buf = Patterned(1100 + 8, 1);
  for (size_t off = 0; off < 8; ++off) {
    for (size_t len = 0; len <= 1100; ++len) {
      ASSERT_EQ(Crc32(Slice(buf.data() + off, len)),
                ReferenceCrc32Extend(0, buf.data() + off, len))
          << "offset " << off << " length " << len;
    }
  }
}

TEST(Crc32Test, ExtendMatchesReferenceAtEverySplit) {
  const std::string buf = Patterned(1024, 2);
  const uint32_t whole = ReferenceCrc32Extend(0, buf.data(), buf.size());
  for (size_t split = 0; split <= buf.size(); ++split) {
    uint32_t head = Crc32(Slice(buf.data(), split));
    ASSERT_EQ(head, ReferenceCrc32Extend(0, buf.data(), split));
    ASSERT_EQ(Crc32Extend(head, Slice(buf.data() + split, buf.size() - split)),
              whole)
        << "split at " << split;
  }
}

TEST(Crc32Test, MatchesReferenceOnOneMegabyte) {
  const std::string buf = Patterned(1 << 20, 3);
  EXPECT_EQ(Crc32(buf), ReferenceCrc32Extend(0, buf.data(), buf.size()));
}

TEST(Crc32Test, DetectsSingleBitFlip) {
  std::string data(256, '\0');
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<char>(i);
  uint32_t base = Crc32(data);
  for (size_t byte : {0u, 17u, 128u, 255u}) {
    std::string tampered = data;
    tampered[byte] ^= 0x01;
    EXPECT_NE(Crc32(tampered), base) << "flip at byte " << byte;
  }
}

}  // namespace
}  // namespace complydb

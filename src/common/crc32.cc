#include "common/crc32.h"

#include <array>
#include <bit>
#include <cstring>

#include "common/coding.h"

namespace complydb {

namespace {

// Slicing-by-8 (Kounavis & Berry): kTables[0] is the classic bytewise
// table; kTables[k][i] is the CRC of byte i followed by k zero bytes, so
// one 8-byte step folds eight table lookups into the running value.
using Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Tables MakeTables() {
  Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t k = 1; k < 8; ++k) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
  }
  return t;
}

constexpr Tables kTables = MakeTables();

// Little-endian 32-bit load; memcpy keeps it alignment- and alias-safe.
inline uint32_t LoadLE32(const unsigned char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap32(v);
  }
  return v;
}

}  // namespace

uint32_t Crc32Extend(uint32_t crc, Slice data) {
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  size_t n = data.size();
  uint32_t c = crc ^ 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = LoadLE32(p) ^ c;
    const uint32_t hi = LoadLE32(p + 4);
    c = kTables[7][lo & 0xFF] ^ kTables[6][(lo >> 8) & 0xFF] ^
        kTables[5][(lo >> 16) & 0xFF] ^ kTables[4][lo >> 24] ^
        kTables[3][hi & 0xFF] ^ kTables[2][(hi >> 8) & 0xFF] ^
        kTables[1][(hi >> 16) & 0xFF] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = kTables[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

uint32_t Crc32(Slice data) { return Crc32Extend(0, data); }

size_t BeginFrame(std::string* dst) {
  const size_t start = dst->size();
  dst->append(8, '\0');
  return start;
}

void EndFrame(std::string* dst, size_t start) {
  char* header = dst->data() + start;
  const size_t len = dst->size() - start - 8;
  EncodeFixed32(header, static_cast<uint32_t>(len));
  EncodeFixed32(header + 4, Crc32(Slice(header + 8, len)));
}

}  // namespace complydb

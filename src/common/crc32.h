#ifndef COMPLYDB_COMMON_CRC32_H_
#define COMPLYDB_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/slice.h"

namespace complydb {

/// CRC-32 (IEEE 802.3: reflected polynomial 0xEDB88320, init and xorout
/// 0xFFFFFFFF, check value 0xCBF43926). Used as the integrity checksum on
/// WAL and compliance-log records; *not* a security primitive — tamper
/// detection relies on the crypto module, CRC only catches torn writes.
uint32_t Crc32(Slice data);

/// Extends a running CRC with more data (crc is the value returned by a
/// previous Crc32/Crc32Extend call).
uint32_t Crc32Extend(uint32_t crc, Slice data);

/// In-place framing of one record as `len u32 | crc u32 | payload` (the
/// WAL, compliance-log and epoch-chain record format). BeginFrame reserves
/// the 8-byte header at the end of *dst and returns its offset; the caller
/// appends the payload; EndFrame checksums the payload where it sits and
/// patches the header. No temporary copy of the payload is made.
size_t BeginFrame(std::string* dst);
void EndFrame(std::string* dst, size_t start);

}  // namespace complydb

#endif  // COMPLYDB_COMMON_CRC32_H_

#ifndef COMPLYDB_COMMON_CODING_H_
#define COMPLYDB_COMMON_CODING_H_

#include <cstdint>
#include <string>

#include "common/slice.h"
#include "common/status.h"

namespace complydb {

// Little-endian fixed-width integer codecs. All on-disk and on-log integers
// in complydb go through these, so file formats are endian-stable.

void PutFixed16(std::string* dst, uint16_t v);
void PutFixed32(std::string* dst, uint32_t v);
void PutFixed64(std::string* dst, uint64_t v);

void EncodeFixed16(char* dst, uint16_t v);
void EncodeFixed32(char* dst, uint32_t v);
void EncodeFixed64(char* dst, uint64_t v);

uint16_t DecodeFixed16(const char* p);
uint32_t DecodeFixed32(const char* p);
uint64_t DecodeFixed64(const char* p);

/// Appends a length-prefixed (Fixed32) byte string.
void PutLengthPrefixed(std::string* dst, const Slice& s);

/// Big-endian codecs: used for composite B+-tree keys so that
/// lexicographic byte order equals numeric order.
void PutBigEndian32(std::string* dst, uint32_t v);
void PutBigEndian64(std::string* dst, uint64_t v);
uint32_t DecodeBigEndian32(const char* p);
uint64_t DecodeBigEndian64(const char* p);

/// Cursor-style decoder over a byte buffer; every Get* checks bounds and
/// returns Corruption on truncation (log records are parsed through this).
class Decoder {
 public:
  explicit Decoder(Slice input) : input_(input) {}

  Status GetFixed8(uint8_t* v);
  Status GetFixed16(uint16_t* v);
  Status GetFixed32(uint32_t* v);
  Status GetFixed64(uint64_t* v);
  Status GetLengthPrefixed(std::string* out);
  Status GetBytes(size_t n, std::string* out);
  Status Skip(size_t n);

  bool Done() const { return input_.empty(); }
  size_t remaining() const { return input_.size(); }

 private:
  Slice input_;
};

}  // namespace complydb

#endif  // COMPLYDB_COMMON_CODING_H_

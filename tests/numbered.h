#ifndef COMPLYDB_TESTS_NUMBERED_H_
#define COMPLYDB_TESTS_NUMBERED_H_

// Numbered keys and values ("k17", "v3") for test loops.
//
// A function rather than `"k" + std::to_string(i)`: GCC 12's libstdc++
// reports that expression (operator+ on a literal and a temporary string)
// as a -Wrestrict overlap once it is inlined in an optimized build — a
// false positive that would otherwise fail the warnings-as-errors build.

#include <cstdint>
#include <string>

namespace complydb {
namespace testutil {

/// `prefix` followed by the decimal digits of `n`.
inline std::string Numbered(std::string prefix, uint64_t n) {
  prefix += std::to_string(n);
  return prefix;
}

}  // namespace testutil
}  // namespace complydb

#endif  // COMPLYDB_TESTS_NUMBERED_H_

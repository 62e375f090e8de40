// Small string helpers shared across modules.
#ifndef CONFLLVM_SRC_SUPPORT_STRINGS_H_
#define CONFLLVM_SRC_SUPPORT_STRINGS_H_

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

namespace confllvm {

// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, const std::string& sep);

// printf-like formatting into std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

// Renders n as a hex literal 0x....
std::string Hex(uint64_t n);

// Parses all of `s` as an unsigned integer (decimal, 0x hex or 0 octal,
// as strtoull's base 0). Rejects an empty string, a sign, whitespace,
// trailing characters and overflow; `*out` is only written on success.
bool ParseU64(const std::string& s, uint64_t* out);

// True if `s` starts with `prefix`.
bool StartsWith(const std::string& s, const std::string& prefix);

}  // namespace confllvm

#endif  // CONFLLVM_SRC_SUPPORT_STRINGS_H_

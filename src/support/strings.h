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

// True if `s` starts with `prefix`.
bool StartsWith(const std::string& s, const std::string& prefix);

// Appends `s` to `out` as a quoted JSON string: quotes, backslashes and
// control characters are escaped, everything else is copied byte for byte.
void AppendEscaped(const std::string& s, std::string* out);

}  // namespace confllvm

#endif  // CONFLLVM_SRC_SUPPORT_STRINGS_H_

#include "src/support/strings.h"

#include <cctype>
#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace confllvm {

std::string Join(const std::vector<std::string>& parts, const std::string& sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) {
      out += sep;
    }
    out += parts[i];
  }
  return out;
}

bool ParseU64(const std::string& s, uint64_t* out) {
  // strtoull alone skips leading whitespace and wraps a '-' into a huge
  // value, so require a digit up front and the whole string consumed.
  if (s.empty() || !isdigit(static_cast<unsigned char>(s[0]))) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = strtoull(s.c_str(), &end, 0);
  if (errno == ERANGE || *end != '\0') {
    return false;
  }
  *out = v;
  return true;
}

std::string StrFormat(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  va_list ap2;
  va_copy(ap2, ap);
  const int n = vsnprintf(nullptr, 0, fmt, ap);
  va_end(ap);
  std::string out(static_cast<size_t>(n), '\0');
  vsnprintf(out.data(), out.size() + 1, fmt, ap2);
  va_end(ap2);
  return out;
}

std::string Hex(uint64_t n) {
  char buf[32];
  snprintf(buf, sizeof(buf), "0x%llx", static_cast<unsigned long long>(n));
  return buf;
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
}

}  // namespace confllvm

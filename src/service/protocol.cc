#include "src/service/protocol.h"

#include <cerrno>

#include <sys/socket.h>
#include <unistd.h>

namespace confllvm {

// ---- Framing ----

namespace {

// kEof only when the peer closed before the first byte arrived.
FrameRead ReadExact(int fd, void* buf, size_t n) {
  uint8_t* p = static_cast<uint8_t*>(buf);
  const size_t want = n;
  while (n > 0) {
    const ssize_t r = ::read(fd, p, n);
    if (r > 0) {
      p += r;
      n -= static_cast<size_t>(r);
      continue;
    }
    if (r < 0 && errno == EINTR) {
      continue;
    }
    return r == 0 && n == want ? FrameRead::kEof : FrameRead::kBad;
  }
  return FrameRead::kOk;
}

bool WriteExact(int fd, const void* buf, size_t n) {
  const uint8_t* p = static_cast<const uint8_t*>(buf);
  while (n > 0) {
    // MSG_NOSIGNAL: a vanished peer is a return value, not a SIGPIPE.
    const ssize_t r = ::send(fd, p, n, MSG_NOSIGNAL);
    if (r > 0) {
      p += r;
      n -= static_cast<size_t>(r);
      continue;
    }
    if (r < 0 && errno == EINTR) {
      continue;
    }
    return false;
  }
  return true;
}

}  // namespace

FrameRead ReadFrame(int fd, std::string* payload, size_t max_bytes) {
  uint8_t hdr[4];
  const FrameRead h = ReadExact(fd, hdr, sizeof hdr);
  if (h != FrameRead::kOk) {
    return h;
  }
  const uint32_t len = static_cast<uint32_t>(hdr[0]) |
                       static_cast<uint32_t>(hdr[1]) << 8 |
                       static_cast<uint32_t>(hdr[2]) << 16 |
                       static_cast<uint32_t>(hdr[3]) << 24;
  if (len > max_bytes) {
    return FrameRead::kBad;
  }
  payload->resize(len);
  // EOF after the header is a torn frame, not a goodbye.
  return (len == 0 || ReadExact(fd, &(*payload)[0], len) == FrameRead::kOk)
             ? FrameRead::kOk
             : FrameRead::kBad;
}

bool WriteFrame(int fd, const std::string& payload) {
  if (payload.size() > 0xffffffffull) {
    return false;
  }
  const uint32_t len = static_cast<uint32_t>(payload.size());
  const uint8_t hdr[4] = {
      static_cast<uint8_t>(len), static_cast<uint8_t>(len >> 8),
      static_cast<uint8_t>(len >> 16), static_cast<uint8_t>(len >> 24)};
  return WriteExact(fd, hdr, sizeof hdr) &&
         WriteExact(fd, payload.data(), payload.size());
}

std::string HexEncode(const std::vector<uint8_t>& bytes) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

bool HexDecode(const std::string& hex, std::vector<uint8_t>* out) {
  if (hex.size() % 2 != 0) {
    return false;
  }
  out->clear();
  out->reserve(hex.size() / 2);
  auto nib = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  for (size_t i = 0; i < hex.size(); i += 2) {
    const int hi = nib(hex[i]);
    const int lo = nib(hex[i + 1]);
    if (hi < 0 || lo < 0) {
      return false;
    }
    out->push_back(static_cast<uint8_t>(hi << 4 | lo));
  }
  return true;
}

}  // namespace confllvm

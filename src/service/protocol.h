// Wire protocol for the confccd compile-and-run service (ARCHITECTURE.md
// "confccd service").
//
// Framing: every message — request or response — is one *frame*: a 4-byte
// little-endian payload length followed by that many bytes of UTF-8 JSON.
// Frames are self-delimiting, so one connection can carry any number of
// requests; responses carry the request's `id` back so clients may pipeline.
// A frame longer than the receiver's cap is a protocol violation and closes
// the connection (a daemon must bound untrusted input before parsing it).
//
// Payloads are `Json` documents (src/support/json.h); this header adds only
// the framing and the hex codec for binary blobs.
#ifndef CONFLLVM_SRC_SERVICE_PROTOCOL_H_
#define CONFLLVM_SRC_SERVICE_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/support/json.h"

namespace confllvm {

// ---- Framing over a (socket) file descriptor ----
//
// Both directions handle partial transfers and EINTR; writes use
// MSG_NOSIGNAL so a peer that vanished mid-response surfaces as an error
// return, never a fatal SIGPIPE in the daemon.

enum class FrameRead {
  kOk,
  kEof,  // the peer closed cleanly before a frame header: a normal goodbye
  kBad,  // torn frame, declared length exceeding `max_bytes`, or I/O error
};

FrameRead ReadFrame(int fd, std::string* payload, size_t max_bytes);

// False when the peer is gone or the payload exceeds the 32-bit length field.
bool WriteFrame(int fd, const std::string& payload);

// Hex <-> bytes for binary blobs carried inside JSON strings (--emit-bin
// over the wire). Decode returns false on odd length or a non-hex digit.
std::string HexEncode(const std::vector<uint8_t>& bytes);
bool HexDecode(const std::string& hex, std::vector<uint8_t>* out);

}  // namespace confllvm

#endif  // CONFLLVM_SRC_SERVICE_PROTOCOL_H_

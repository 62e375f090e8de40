#include "src/service/client.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace confllvm {

ConfccdClient::~ConfccdClient() { Close(); }

bool ConfccdClient::Connect(const std::string& socket_path, std::string* err) {
  Close();
  sockaddr_un addr;
  memset(&addr, 0, sizeof addr);
  addr.sun_family = AF_UNIX;
  if (socket_path.empty() || socket_path.size() >= sizeof addr.sun_path) {
    *err = "socket path empty or too long: '" + socket_path + "'";
    return false;
  }
  memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    *err = std::string("socket: ") + strerror(errno);
    return false;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    *err = "connect " + socket_path + ": " + strerror(errno);
    ::close(fd);
    return false;
  }
  fd_ = fd;
  socket_path_ = socket_path;
  return true;
}

void ConfccdClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool ConfccdClient::Call(Json req, Json* resp, std::string* err) {
  if (fd_ < 0) {
    *err = "not connected";
    return false;
  }
  const uint64_t id = next_id_++;
  req.Set("id", Json::UInt(id));
  if (!WriteFrame(fd_, req.Dump())) {
    *err = "send failed (daemon gone?)";
    Close();
    return false;
  }
  // Read until the response carrying our id: Call() is used strictly
  // request-response today, but tolerating out-of-order frames keeps the
  // protocol honest about its id field.
  while (true) {
    std::string payload;
    if (ReadFrame(fd_, &payload, max_frame_bytes_) != FrameRead::kOk) {
      *err = "connection closed by daemon";
      Close();
      return false;
    }
    std::string perr;
    if (!Json::Parse(payload, resp, &perr)) {
      *err = "bad response frame: " + perr;
      Close();
      return false;
    }
    if (resp->GetUInt("id") == id || resp->Find("id") == nullptr) {
      return true;
    }
  }
}

bool ConfccdClient::CallWithRetry(const Json& req, Json* resp, std::string* err,
                                  int max_attempts, int* retries_out) {
  int retries = 0;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    if (attempt > 0) {
      ++retries;
      // Linear backoff: cheap, bounded, and enough to clear a momentarily
      // full queue without synchronizing the herd.
      std::this_thread::sleep_for(std::chrono::milliseconds(5 * attempt));
    }
    if (fd_ < 0 && !Connect(socket_path_, err)) {
      continue;  // daemon may be mid-restart; the backoff covers us
    }
    if (!Call(req, resp, err)) {
      continue;  // transport failure: reconnect on the next attempt
    }
    if (resp->GetString("status") == "retry") {
      *err = "daemon asked to retry: " + resp->GetString("error");
      continue;
    }
    if (retries_out != nullptr) {
      *retries_out = retries;
    }
    return true;
  }
  if (retries_out != nullptr) {
    *retries_out = retries;
  }
  return false;
}

}  // namespace confllvm

#include "serve/client.hpp"

#include <cerrno>
#include <cstring>
#include <string_view>
#include <utility>

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

namespace arl::serve {

Client::Client(const std::string& socket_path, unsigned timeout_seconds) {
  sockaddr_un address{};
  if (socket_path.empty() || socket_path.size() >= sizeof(address.sun_path)) {
    throw ClientError("submit: bad socket path '" + socket_path + "'");
  }
  fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    throw ClientError(std::string("submit: socket() failed: ") + std::strerror(errno));
  }
  if (timeout_seconds > 0) {
    // Bound both directions: a wedged server neither reads requests nor
    // writes responses.  recv()/send() then fail with EAGAIN/EWOULDBLOCK,
    // which the I/O loops turn into a timeout ClientError.
    const timeval timeout{static_cast<time_t>(timeout_seconds), 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
    timeout_seconds_ = timeout_seconds;
  }
  address.sun_family = AF_UNIX;
  std::memcpy(address.sun_path, socket_path.c_str(), socket_path.size() + 1);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&address), sizeof(address)) != 0) {
    const int saved = errno;
    ::close(fd_);
    fd_ = -1;
    throw ClientError("submit: cannot connect to '" + socket_path +
                      "': " + std::strerror(saved) + " (is the server running?)");
  }
}

Client::~Client() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

void Client::send_all(std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t sent = ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        throw ClientError("submit: server did not accept the request within " +
                          std::to_string(timeout_seconds_) + "s (wedged server?)");
      }
      throw ClientError(std::string("submit: send failed: ") + std::strerror(errno));
    }
    bytes.remove_prefix(static_cast<std::size_t>(sent));
  }
}

std::string Client::next_line() {
  for (;;) {
    if (std::optional<std::string> line = framer_.pop()) {
      return std::move(*line);
    }
    char buffer[4096];
    const ssize_t got = ::recv(fd_, buffer, sizeof(buffer), 0);
    if (got == 0) {
      throw ClientError("submit: server closed the connection mid-response");
    }
    if (got < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        throw ClientError("submit: no response from the server within " +
                          std::to_string(timeout_seconds_) + "s (wedged server?)");
      }
      throw ClientError(std::string("submit: recv failed: ") + std::strerror(errno));
    }
    framer_.feed(std::string_view(buffer, static_cast<std::size_t>(got)));
  }
}

Response Client::next_protocol_line() {
  const std::string line = next_line();
  std::optional<Response> response;
  try {
    response = match_response(line);
  } catch (const ProtoError& violation) {
    throw ClientError(std::string("submit: malformed response: ") + violation.what());
  }
  if (!response) {
    throw ClientError("submit: expected a protocol line, got '" + line + "'");
  }
  return *response;
}

Response Client::ping() {
  Request request;
  request.kind = Request::Kind::Ping;
  send_all(format_request(request) + "\n");
  const Response response = next_protocol_line();
  if (response.kind == Response::Kind::Error) {
    throw ClientError("submit: ping answered with error: " + response.message);
  }
  if (response.kind != Response::Kind::Pong) {
    throw ClientError("submit: ping answered with an unexpected response");
  }
  return response;
}

ServerStats Client::stats() {
  Request request;
  request.kind = Request::Kind::Stats;
  send_all(format_request(request) + "\n");
  const Response response = next_protocol_line();
  if (response.kind == Response::Kind::Error) {
    throw ClientError("submit: stats answered with error: " + response.message);
  }
  if (response.kind != Response::Kind::Stats) {
    throw ClientError("submit: stats answered with an unexpected response");
  }
  return response.stats;
}

SubmitResult Client::submit(const SweepRequest& sweep) {
  Request request;
  request.kind = Request::Kind::Sweep;
  request.sweep = sweep;
  send_all(format_request(request) + "\n");

  const Response first = next_protocol_line();
  if (first.kind == Response::Kind::Busy || first.kind == Response::Kind::Error) {
    return {first, {}};
  }
  if (first.kind != Response::Kind::Ack) {
    throw ClientError("submit: expected ack, busy or error as the first response");
  }

  SubmitResult result;
  bool begun = false;
  for (;;) {
    const std::string line = next_line();
    std::optional<Response> response;
    try {
      response = match_response(line);
    } catch (const ProtoError& violation) {
      throw ClientError(std::string("submit: malformed response: ") + violation.what());
    }
    if (!response) {
      // A raw shard-report line: protocol lines may not interleave a body.
      if (!begun) {
        throw ClientError("submit: report body before the begin line");
      }
      result.report += line;
      result.report += '\n';
      continue;
    }
    switch (response->kind) {
      case Response::Kind::Begin:
        if (begun || response->id != first.id) {
          throw ClientError("submit: unexpected begin line");
        }
        begun = true;
        break;
      case Response::Kind::Done:
        if (!begun || response->id != first.id || result.report.empty()) {
          throw ClientError("submit: done line without a complete report body");
        }
        result.outcome = *response;
        return result;
      case Response::Kind::Error:
        result.outcome = *response;
        result.report.clear();
        return result;
      case Response::Kind::Pong:
      case Response::Kind::Busy:
      case Response::Kind::Ack:
      case Response::Kind::Stats:
        throw ClientError("submit: unexpected response inside a sweep stream");
    }
  }
}

}  // namespace arl::serve

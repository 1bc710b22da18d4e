#include "serve/net/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace cumf::serve::net {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::runtime_error(std::string("net::Client: ") + what + ": " +
                           std::strerror(errno));
}

}  // namespace

Client::Client(const std::string& host, std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) throw_errno("socket");

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("net::Client: bad IPv4 address: " + host);
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const int saved = errno;
    ::close(fd_);
    fd_ = -1;
    errno = saved;
    throw_errno("connect");
  }
  int one = 1;
  (void)setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

Client::Client(Client&& other) noexcept
    : fd_(other.fd_), buf_(std::move(other.buf_)) {
  other.fd_ = -1;
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

void Client::send_all(const std::uint8_t* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd_, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("send");
    }
    sent += static_cast<std::size_t>(n);
  }
}

void Client::read_frame(std::size_t* payload_off, std::size_t* payload_len) {
  char chunk[4096];
  for (;;) {
    if (try_frame(buf_.data(), buf_.size(), payload_off, payload_len)) return;
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("recv");
    }
    if (n == 0) {
      throw std::runtime_error("net::Client: server closed the connection");
    }
    buf_.insert(buf_.end(), chunk, chunk + n);
  }
}

MsgType Client::read_response(QueryResponse* query, std::string* metrics,
                              HealthResponse* health) {
  std::size_t off = 0, len = 0;
  read_frame(&off, &len);
  const MsgType type =
      decode_response(buf_.data() + off, len, query, metrics, health);
  buf_.erase(buf_.begin(),
             buf_.begin() + static_cast<std::ptrdiff_t>(off + len));
  return type;
}

void Client::send_query(idx_t user, int k) {
  std::vector<std::uint8_t> frame;
  encode_query_request(QueryRequest{user, k}, &frame);
  send_all(frame.data(), frame.size());
}

QueryResponse Client::read_query_response() {
  QueryResponse query;
  if (read_response(&query) != MsgType::kQuery) {
    throw ProtocolError("expected a query response");
  }
  return query;
}

QueryResponse Client::query(idx_t user, int k) {
  send_query(user, k);
  return read_query_response();
}

void Client::send_add_rating(idx_t user, idx_t item, double value) {
  std::vector<std::uint8_t> frame;
  encode_add_rating_request(AddRatingRequest{user, item, value}, &frame);
  send_all(frame.data(), frame.size());
}

Status Client::read_add_rating_response() {
  QueryResponse query;
  if (read_response(&query) != MsgType::kAddRating) {
    throw ProtocolError("expected an add-rating response");
  }
  return query.status;
}

Status Client::add_rating(idx_t user, idx_t item, double value) {
  send_add_rating(user, item, value);
  return read_add_rating_response();
}

std::string Client::metrics() {
  std::vector<std::uint8_t> frame;
  encode_metrics_request(&frame);
  send_all(frame.data(), frame.size());

  QueryResponse query;
  std::string text;
  if (read_response(&query, &text) != MsgType::kMetrics) {
    throw ProtocolError("expected a metrics response");
  }
  return text;
}

HealthResponse Client::health() {
  std::vector<std::uint8_t> frame;
  encode_health_request(&frame);
  send_all(frame.data(), frame.size());

  QueryResponse query;
  HealthResponse health;
  if (read_response(&query, nullptr, &health) != MsgType::kHealth) {
    throw ProtocolError("expected a health response");
  }
  return health;
}

}  // namespace cumf::serve::net

#pragma once

// Blocking client for the serving TCP front-end.
//
// One connection, synchronous by default: query() writes a QueryRequest
// frame and blocks until the response frame arrives. For load generators
// that need many requests in flight on one connection, send_query() and
// read_query_response() split the two halves — the server pipelines and
// answers in request order, so a caller that sends N requests reads exactly
// N responses back in the same order.

#include <cstdint>
#include <string>

#include "serve/net/protocol.hpp"
#include "util/types.hpp"

namespace cumf::serve::net {

class Client {
 public:
  /// Connects (blocking) to a TcpServer. Throws std::runtime_error when the
  /// connection cannot be established.
  Client(const std::string& host, std::uint16_t port);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  Client(Client&& other) noexcept;
  Client& operator=(Client&&) = delete;

  /// Synchronous round trip: top-k recommendations for `user`.
  QueryResponse query(idx_t user, int k);

  /// Synchronous round trip: the server's counters in the Prometheus text
  /// exposition format (the GetMetrics op); obs::metric_value() reads one
  /// series out of it.
  std::string metrics();

  /// Synchronous round trip: the server's SLO health view — alert states,
  /// burn rates, slow-query exemplars, recent events (the GetHealth op).
  HealthResponse health();

  /// Synchronous round trip: hands one rating delta to the server's ingest
  /// sink (the retrain orchestrator's RatingLog). kOk = accepted, kBadUser =
  /// out-of-range ids, kBadRequest = server has no ingest sink.
  Status add_rating(idx_t user, idx_t item, double value);

  // --- pipelined half-calls (responses arrive in request order) -----------
  void send_query(idx_t user, int k);
  QueryResponse read_query_response();
  void send_add_rating(idx_t user, idx_t item, double value);
  Status read_add_rating_response();

 private:
  void send_all(const std::uint8_t* data, std::size_t size);
  /// Reads until a complete frame is buffered; returns its payload within
  /// buf_ (valid until the next read call).
  void read_frame(std::size_t* payload_off, std::size_t* payload_len);
  /// Reads and decodes the next response frame (see decode_response) and
  /// drops it from buf_; returns its type for the caller to check.
  MsgType read_response(QueryResponse* query, std::string* metrics = nullptr,
                        HealthResponse* health = nullptr);

  int fd_ = -1;
  std::vector<std::uint8_t> buf_;  // receive accumulation
};

}  // namespace cumf::serve::net

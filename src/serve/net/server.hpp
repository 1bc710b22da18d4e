#pragma once

// Sharded epoll TCP front-end for the RequestBatcher.
//
// Everything the serving stack already does — micro-batching, the hot-user
// ScoreCache, live hot swaps — works unchanged behind a socket: the server
// parses protocol.hpp frames off client connections and feeds each query to
// RequestBatcher::submit(), so queries from many connections coalesce into
// the same micro-batches in-process callers ride.
//
// Threading model (2·io_threads threads per server, none per connection):
//
//  - io shards: `io_threads` epoll loops, each owning a disjoint set of
//    client sockets. Shard 0 additionally owns the listen fd; accepted
//    connections are handed off round-robin to the shards through a small
//    queue + self-wake pipe, so load spreads without SO_REUSEPORT kernel
//    luck. Reads accumulate per-connection until full frames are available;
//    writes drain per-connection send buffers; interest (EPOLLIN/EPOLLOUT)
//    is re-armed only when it changes. Responses that are ready at submit
//    time (cache hits, rejected requests, shed queries) are answered inline
//    without a hand-off.
//  - completion lanes: one per io shard. A lane resolves its shard's
//    in-flight futures in FIFO order — a connection lives on exactly one
//    shard, and the io thread enqueues replies in request order, so
//    per-connection reply order is preserved by construction. Metrics and
//    health responses are *encoded on the lane* too: rendering a Prometheus
//    exposition on the io thread would head-of-line block every connection
//    on that shard. Each completed reply lands in its connection's outbox
//    and the owning shard is woken with the connection marked dirty, so a
//    wake touches only connections with fresh output (not all of them).
//
// Admission control and backpressure (the knobs live in ServerOptions):
//
//  - max_connections: accepted-and-closed beyond the cap, counted as
//    connections_rejected.
//  - max_in_buffer: a shard stops recv()ing a connection whose buffered
//    input exceeds the cap and pauses its EPOLLIN until the backlog drains —
//    a flooding writer is throttled by TCP flow control, not by server RAM.
//  - max_inflight: frames beyond this many unanswered replies per connection
//    stay buffered (and reading pauses), bounding both the completion lane
//    and the batcher's pending queue per connection.
//  - max_queued_replies: when a lane holds this many unresolved *query*
//    replies, further queries on that shard are answered Status::kOverloaded
//    immediately — shed at the edge instead of queueing unboundedly.
//  - max_out_buffer: a connection whose unread replies exceed the cap is
//    closed (slow_client_closes) — a reader that never drains cannot pin
//    server memory.
//
// Hard recv() errors (ECONNRESET and friends) close the connection
// immediately and count as recv_errors; previously the dead connection
// lingered until a later epoll error event.
//
// Per-query accept→reply latency — request frame fully parsed to response
// handed to the connection's send buffer — is recorded into a LatencyTracker
// and surfaced as ServeStats::net_e2e by stats(); the front-end counters
// ride along as ServeStats::net.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/batcher.hpp"
#include "serve/net/protocol.hpp"
#include "serve/serve_stats.hpp"

namespace cumf::obs {
class SloMonitor;
}  // namespace cumf::obs

namespace cumf::serve::net {

struct ServerOptions {
  /// TCP port to bind; 0 picks an ephemeral port (see TcpServer::port()).
  std::uint16_t port = 0;
  /// Bind 127.0.0.1 (default) or all interfaces.
  bool loopback_only = true;
  /// listen(2) backlog.
  int backlog = 128;
  /// Connections beyond this are accepted and closed immediately (counted
  /// as NetMetrics::connections_rejected).
  std::size_t max_connections = 1024;
  /// Epoll io shards (and completion lanes). Clamped to >= 1.
  int io_threads = 2;
  /// Per-connection receive-buffer cap: reading pauses above it until the
  /// buffered frames are consumed. Clamped up so one maximum frame always
  /// fits.
  std::size_t max_in_buffer = 2u << 20;
  /// Per-connection unread-reply cap (send buffer + outbox): exceeding it
  /// closes the connection (NetMetrics::slow_client_closes).
  std::size_t max_out_buffer = 4u << 20;
  /// Per-connection in-flight reply cap: frames beyond it stay buffered and
  /// reading pauses until replies drain. Clamped to >= 1.
  int max_inflight = 512;
  /// Per-shard bound on unresolved query replies in the completion lane:
  /// at the bound, new queries are answered Status::kOverloaded
  /// (NetMetrics::overload_sheds) instead of being submitted to the batcher.
  std::size_t max_queued_replies = 4096;
  /// SO_SNDBUF for accepted sockets; 0 keeps the kernel default. Small
  /// values make slow-reader backpressure observable quickly (tests).
  int so_sndbuf = 0;
  /// Sink for AddRating frames (the retrain orchestrator's RatingLog).
  /// Returning false answers kBadUser (out-of-range ids); an unset sink
  /// answers every AddRating with kBadRequest. Called on an io thread, so
  /// it must be cheap and thread-safe (RatingLog::append is both).
  std::function<bool(idx_t user, idx_t item, double value)> ingest;
  /// Merges extra counters into stats() snapshots before they are rendered
  /// for the GetMetrics op (Orchestrator::merge_into). Must be thread-safe.
  std::function<void(ServeStats&)> augment_stats;
  /// SLO monitor behind the GetHealth op. When set, edge sheds feed its
  /// availability objective (shed queries never reach the batcher, so the
  /// batcher's own observe() hook cannot see them) and health responses
  /// carry its burn rates / exemplars. Must outlive the server. Optional:
  /// unset, GetHealth answers with zero states and the event tail alone.
  obs::SloMonitor* slo = nullptr;
};

/// Serves a RequestBatcher over TCP. The batcher (and everything behind it)
/// must outlive the server. Construction binds, listens, and starts the io
/// shards and completion lanes; stop() (or destruction) drains and shuts
/// down.
class TcpServer {
 public:
  explicit TcpServer(RequestBatcher& batcher, ServerOptions opt = {});
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// The port actually bound (resolves opt.port == 0).
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Flushes the batcher, resolves every in-flight reply, joins every shard
  /// and lane, and closes all sockets. Idempotent.
  void stop();

  /// Batcher/engine snapshot with net_e2e (accept→reply) and the front-end
  /// counter slice (ServeStats::net) filled in.
  [[nodiscard]] ServeStats stats() const;

  /// The front-end counter slice alone (cheap; no batcher snapshot).
  [[nodiscard]] NetMetrics net_metrics() const;

  [[nodiscard]] std::uint64_t connections_accepted() const {
    return connections_.load(std::memory_order_relaxed);
  }
  /// Connections dropped for malformed frames.
  [[nodiscard]] std::uint64_t protocol_errors() const {
    return protocol_errors_.load(std::memory_order_relaxed);
  }
  /// Connections closed on hard recv() errors.
  [[nodiscard]] std::uint64_t recv_errors() const {
    return recv_errors_.load(std::memory_order_relaxed);
  }
  /// Connections closed for unread reply backlog.
  [[nodiscard]] std::uint64_t slow_client_closes() const {
    return slow_closes_.load(std::memory_order_relaxed);
  }
  /// Queries answered kOverloaded at the admission bound.
  [[nodiscard]] std::uint64_t overload_sheds() const {
    return overload_sheds_.load(std::memory_order_relaxed);
  }
  /// Connections turned away by max_connections.
  [[nodiscard]] std::uint64_t connections_rejected() const {
    return conns_rejected_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] int io_shards() const {
    return static_cast<int>(shards_.size());
  }

 private:
  struct Conn {
    int fd = -1;
    int shard = 0;                  // owning io shard (never migrates)
    std::vector<std::uint8_t> in;   // read accumulation (io thread only)
    std::vector<std::uint8_t> out;  // send buffer (io thread only)
    std::size_t out_off = 0;
    /// EPOLLIN/EPOLLOUT mask currently registered (io thread only).
    std::uint32_t armed = 0;
    /// Reading paused for backpressure (io thread only): in-buffer over cap
    /// or inflight at cap.
    bool paused = false;
    /// Replies for this connection routed through the completion lane
    /// (future-backed or pre-encoded) and not yet appended to its outbox;
    /// the inline fast path requires 0 so replies never overtake each other.
    std::atomic<int> inflight{0};
    std::mutex outbox_mu;
    std::vector<std::uint8_t> outbox;  // completion lane appends frames
    bool dead = false;                 // guarded by outbox_mu; set on close
  };

  /// One pending reply on a shard's completion lane, in request order.
  struct Reply {
    enum class Kind : std::uint8_t {
      kEncoded,  // already-encoded frame held behind earlier replies
      kQuery,    // future still resolving in the batcher
      kMetrics,  // exposition: rendered + encoded on the lane
      kHealth,   // SLO snapshot + event tail: taken + encoded on the lane
    };
    std::shared_ptr<Conn> conn;
    Kind kind = Kind::kEncoded;
    std::future<BatchedAnswer> fut;  // valid when kind == kQuery
    std::chrono::steady_clock::time_point t0;
    int k = 0;                          // requested k (list truncated to it)
    std::vector<std::uint8_t> encoded;  // valid when kind == kEncoded
  };

  /// One epoll io loop plus its completion lane.
  struct Shard {
    int epoll_fd = -1;
    int wake_rd = -1;
    int wake_wr = -1;
    std::unordered_map<int, std::shared_ptr<Conn>> conns;  // io thread only

    /// Accepted connections handed off by shard 0, adopted on wake.
    std::mutex pending_mu;
    std::vector<std::shared_ptr<Conn>> pending;

    /// Connections with fresh completion output; flushed on wake.
    std::mutex dirty_mu;
    std::vector<std::shared_ptr<Conn>> dirty;

    std::mutex replies_mu;
    std::condition_variable replies_cv;
    std::deque<Reply> replies;
    /// Unresolved kQuery entries on the lane — the admission-control level.
    std::atomic<std::size_t> queued_queries{0};

    std::thread io_thread;
    std::thread lane_thread;
  };

  void io_loop(int shard_index);
  void completion_loop(int shard_index);
  static void wake(Shard& sh);
  void accept_loop(Shard& sh0);
  void add_conn(Shard& sh, const std::shared_ptr<Conn>& conn);
  void on_readable(Shard& sh, const std::shared_ptr<Conn>& conn);
  /// Parses and handles every complete frame buffered on `conn`, honouring
  /// the inflight cap. Returns false when the connection must close
  /// (protocol violation).
  bool process_in(Shard& sh, const std::shared_ptr<Conn>& conn);
  /// Handles one decoded frame; returns false on a protocol violation.
  bool handle_frame(Shard& sh, const std::shared_ptr<Conn>& conn,
                    const std::uint8_t* payload, std::size_t len);
  void queue_reply(Shard& sh, Reply reply);
  /// Delivers an already-encoded reply: appended straight to the send buffer
  /// when the inline fast path is allowed, else routed through the
  /// completion lane behind this connection's in-flight replies. io thread
  /// only; the caller must have flushed the outbox when can_inline.
  void respond(Shard& sh, const std::shared_ptr<Conn>& conn, bool can_inline,
               std::chrono::steady_clock::time_point t0,
               std::vector<std::uint8_t> encoded);
  /// Splices completion-lane output onto the io-thread send buffer. Must
  /// run before any inline append so replies keep request order. The
  /// max_out_buffer cap is enforced by the event loop after writes drain.
  void flush_outbox(Conn& conn);
  /// Drains as much of conn.out to the socket as it accepts; returns false
  /// on a hard send error (caller closes).
  bool try_write(Conn& conn);
  /// Re-arms epoll interest when it changed (reads unless paused; writes
  /// while output is pending).
  void update_interest(Shard& sh, Conn& conn);
  void close_conn(Shard& sh, const std::shared_ptr<Conn>& conn);
  [[nodiscard]] QueryResponse resolve(std::future<BatchedAnswer>& fut,
                                      int k) const;

  RequestBatcher& batcher_;
  ServerOptions opt_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t next_shard_ = 0;  // round-robin hand-off cursor (shard 0 only)

  std::atomic<bool> stop_{false};
  bool stopped_ = false;  // stop() already ran (main-thread use only)
  std::atomic<std::size_t> open_conns_{0};
  std::atomic<std::uint64_t> connections_{0};
  std::atomic<std::uint64_t> conns_rejected_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
  std::atomic<std::uint64_t> recv_errors_{0};
  std::atomic<std::uint64_t> slow_closes_{0};
  std::atomic<std::uint64_t> overload_sheds_{0};
  LatencyTracker net_e2e_;
};

}  // namespace cumf::serve::net

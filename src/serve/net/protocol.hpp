#pragma once

// Wire protocol for the serving TCP front-end.
//
// A deliberately small, length-prefixed binary protocol: every message is one
// frame, `u32 payload_len` followed by `payload_len` bytes of payload, all
// integers little-endian (doubles are IEEE-754 bit patterns carried in a
// little-endian u64). Four operations, one type byte each:
//
//   QueryRequest  { u8 type=1, i32 user, i32 k }
//   QueryResponse { u8 type=1, u8 status, u64 generation, u32 count,
//                   count × { i32 item, f64 score } }
//
//   AddRatingRequest  { u8 type=3, i32 user, i32 item, f64 value }
//   AddRatingResponse { u8 type=3, u8 status }
//
//   MetricsRequest  { u8 type=4 }
//   MetricsResponse { u8 type=4, u8 status=0, u32 len, len bytes of UTF-8 }
//
//   HealthRequest  { u8 type=5 }
//   HealthResponse { u8 type=5, u8 status=0,
//                    u8 latency_state, u8 availability_state,
//                    f64 latency_threshold_ms,
//                    f64 latency_fast_burn, f64 latency_slow_burn,
//                    f64 availability_fast_burn, f64 availability_slow_burn,
//                    u64 latency_violations, u64 availability_errors,
//                    u64 latency_transitions, u64 availability_transitions,
//                    u64 events_recorded, u64 events_dropped,
//                    u32 n_exemplars, n × { u64 ticket, u64 user, f64 e2e_ms,
//                                           f64 queue_ms, f64 engine_ms,
//                                           f64 finish_ms },
//                    u32 events_len, events_len bytes of UTF-8 }
//
// Type 2 is retired and must not be reused: a frame carrying it is an
// unknown type and a ProtocolError like any other.
//
// GetMetrics (type=4) is the only way counters leave the process: the
// server's ServeStats snapshot rendered in the Prometheus text exposition
// format (serve/metrics_export.hpp) as labeled counter/gauge/histogram
// families; obs::metric_value() reads one series back out. The text rides
// as a length-prefixed byte string inside the frame; kMaxPayload bounds it
// like every other payload.
//
// GetHealth (type=5) is the SLO/incident view (obs/slo.hpp, obs/events.hpp):
// alert states (0 ok / 1 warn / 2 page) and fast/slow burn rates for the
// latency and availability objectives, the slowest-query exemplars with
// their per-stage breakdown, and a JSON-lines tail of recent operational
// events. Like GetMetrics it is length-capped: exemplars are bounded by
// kMaxHealthExemplars and the event text is trimmed (oldest lines first) to
// keep the frame within kMaxPayload. A server with no SloMonitor attached
// answers with all-zero states and burns — the events tail still rides.
//
// AddRating feeds the retrain orchestrator's RatingLog (src/orchestrate/):
// a server without an ingest sink attached answers kBadRequest; one with a
// sink answers kOk when the delta was accepted and kBadUser when the user
// or item id falls outside the training matrix. GetMetrics reports the
// orchestrator counters (all-zero without an orchestrator) so promotion /
// rejection activity is observable over the same socket queries ride.
//
// Responses arrive in request order on each connection (the server pipelines
// but never reorders), so no request id is needed. A query's `k` may be at
// most the batcher's configured k: top-k lists are totally ordered
// (score desc, item asc), so the first k' entries of a top-k list *are* the
// top-k' list, and the server truncates; k > configured is kBadRequest.
//
// Frames larger than kMaxPayload are a protocol violation — decoding fails
// rather than allocating unbounded memory off a corrupt length prefix.

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "serve/topk.hpp"
#include "util/types.hpp"

namespace cumf::serve::net {

/// Payload cap: a query response is 14 bytes of header plus 12 per item, so
/// this admits top-k lists beyond any sane k while still rejecting garbage
/// length prefixes immediately.
inline constexpr std::uint32_t kMaxPayload = 1u << 20;

/// Bytes of the length prefix that fronts every frame.
inline constexpr std::size_t kFramePrefix = 4;

enum class MsgType : std::uint8_t {
  kQuery = 1,
  // 2 is retired; never reuse it.
  kAddRating = 3,
  kMetrics = 4,
  kHealth = 5,
};

/// Most slow-query exemplars a health response carries. The SloMonitor's own
/// ring is typically smaller; the cap exists so a corrupt count can never
/// expand past the payload bound.
inline constexpr std::uint32_t kMaxHealthExemplars = 32;

enum class Status : std::uint8_t {
  kOk = 0,
  kBadUser = 1,     // user id outside the serving generation's range
  kBadRequest = 2,  // malformed field (k < 1 or k > the server's configured k)
  kError = 3,       // engine failure (e.g. refresh shrank the model mid-batch)
  /// The server's completion lane is at its admission bound: the query was
  /// shed at the edge instead of queueing unboundedly behind the batcher.
  /// The connection stays open — back off and retry.
  kOverloaded = 4,
};

/// Malformed frame or payload; the server closes the offending connection and
/// the client surfaces it to the caller.
class ProtocolError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct QueryRequest {
  idx_t user = 0;
  std::int32_t k = 0;
};

/// One rating delta bound for the orchestrator's RatingLog. The value rides
/// as f64 on the wire (protocol uniformity) and narrows to real_t at the
/// ingest sink.
struct AddRatingRequest {
  idx_t user = 0;
  idx_t item = 0;
  double value = 0.0;
};

struct QueryResponse {
  Status status = Status::kOk;
  std::uint64_t generation = 0;  // model generation that answered (from 1)
  std::vector<Recommendation> items;
};

/// One slow-query exemplar on the wire: a traced query whose end-to-end time
/// crossed the latency SLO threshold, with its per-stage breakdown
/// (queue + engine + finish ≈ e2e by construction).
struct HealthExemplar {
  std::uint64_t ticket = 0;
  std::uint64_t user = 0;
  double e2e_ms = 0.0;
  double queue_ms = 0.0;
  double engine_ms = 0.0;
  double finish_ms = 0.0;
};

/// Wire form of the GetHealth reply: SLO alert states and burn rates, the
/// slowest traced queries, and a JSON-lines tail of recent events. States are
/// 0 ok / 1 warn / 2 page (obs::AlertState).
struct HealthResponse {
  std::uint8_t latency_state = 0;
  std::uint8_t availability_state = 0;
  double latency_threshold_ms = 0.0;
  double latency_fast_burn = 0.0;
  double latency_slow_burn = 0.0;
  double availability_fast_burn = 0.0;
  double availability_slow_burn = 0.0;
  std::uint64_t latency_violations = 0;
  std::uint64_t availability_errors = 0;
  std::uint64_t latency_transitions = 0;
  std::uint64_t availability_transitions = 0;
  std::uint64_t events_recorded = 0;
  std::uint64_t events_dropped = 0;
  std::vector<HealthExemplar> exemplars;  // slowest first
  std::string events_json;                // JSON lines, newest last
};

/// A decoded request frame (the server side of the protocol).
struct Request {
  MsgType type = MsgType::kQuery;
  QueryRequest query;       // valid when type == kQuery
  AddRatingRequest rating;  // valid when type == kAddRating
};

// --- encoding: append one complete frame (length prefix included) ----------
void encode_query_request(const QueryRequest& req,
                          std::vector<std::uint8_t>* out);
void encode_metrics_request(std::vector<std::uint8_t>* out);
void encode_health_request(std::vector<std::uint8_t>* out);
void encode_add_rating_request(const AddRatingRequest& req,
                               std::vector<std::uint8_t>* out);
void encode_query_response(const QueryResponse& resp,
                           std::vector<std::uint8_t>* out);
/// Truncates `text` to fit kMaxPayload (headers included) — a metrics dump
/// must never make the frame undecodable.
void encode_metrics_response(const std::string& text,
                             std::vector<std::uint8_t>* out);
void encode_add_rating_response(Status status, std::vector<std::uint8_t>* out);
/// Caps exemplars at kMaxHealthExemplars and trims the events text — oldest
/// (front) lines first, at line boundaries — until the frame fits kMaxPayload.
void encode_health_response(const HealthResponse& resp,
                            std::vector<std::uint8_t>* out);

// --- framing ---------------------------------------------------------------

/// Inspects the front of a receive buffer. Returns true when a complete frame
/// is available, setting *payload_off / *payload_len to its payload bytes
/// within `data`; false when more bytes are needed. Throws ProtocolError on
/// an oversized or zero-length payload.
bool try_frame(const std::uint8_t* data, std::size_t size,
               std::size_t* payload_off, std::size_t* payload_len);

// --- decoding (payload bytes, prefix already stripped) ---------------------
Request decode_request(const std::uint8_t* payload, std::size_t len);
/// Decodes a response payload; *metrics (when non-null) is filled for a
/// metrics response, *health (when non-null) for a health response; for
/// everything but kQuery the returned QueryResponse carries only `status`.
MsgType decode_response(const std::uint8_t* payload, std::size_t len,
                        QueryResponse* query, std::string* metrics = nullptr,
                        HealthResponse* health = nullptr);

}  // namespace cumf::serve::net

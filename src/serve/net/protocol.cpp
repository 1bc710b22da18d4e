#include "serve/net/protocol.hpp"

#include <cstring>

namespace cumf::serve::net {

namespace {

// Explicit little-endian serialization: the wire format is identical across
// hosts regardless of native byte order, and doubles travel as their IEEE-754
// bit pattern in a u64.

void put_u8(std::vector<std::uint8_t>* out, std::uint8_t v) {
  out->push_back(v);
}

void put_u32(std::vector<std::uint8_t>* out, std::uint32_t v) {
  out->push_back(static_cast<std::uint8_t>(v));
  out->push_back(static_cast<std::uint8_t>(v >> 8));
  out->push_back(static_cast<std::uint8_t>(v >> 16));
  out->push_back(static_cast<std::uint8_t>(v >> 24));
}

void put_u64(std::vector<std::uint8_t>* out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
}

void put_i32(std::vector<std::uint8_t>* out, std::int32_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
}

void put_f64(std::vector<std::uint8_t>* out, double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(out, bits);
}

/// Cursor over a payload; every read is bounds-checked so a truncated or
/// corrupt payload raises ProtocolError instead of reading past the buffer.
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }

  std::uint32_t u32() {
    need(4);
    const std::uint32_t v = static_cast<std::uint32_t>(data_[pos_]) |
                            static_cast<std::uint32_t>(data_[pos_ + 1]) << 8 |
                            static_cast<std::uint32_t>(data_[pos_ + 2]) << 16 |
                            static_cast<std::uint32_t>(data_[pos_ + 3]) << 24;
    pos_ += 4;
    return v;
  }

  std::uint64_t u64() {
    const std::uint64_t lo = u32();
    const std::uint64_t hi = u32();
    return lo | hi << 32;
  }

  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }

  double f64() {
    const std::uint64_t bits = u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  /// Returns a pointer to the next `n` payload bytes and advances past them.
  const std::uint8_t* bytes(std::size_t n) {
    need(n);
    const std::uint8_t* p = data_ + pos_;
    pos_ += n;
    return p;
  }

  void expect_done() const {
    if (pos_ != size_) throw ProtocolError("trailing bytes in payload");
  }

 private:
  void need(std::size_t n) const {
    if (size_ - pos_ < n) throw ProtocolError("truncated payload");
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// Writes the length prefix for everything appended after `mark`.
void seal_frame(std::vector<std::uint8_t>* out, std::size_t mark) {
  const std::size_t payload = out->size() - mark - kFramePrefix;
  if (payload > kMaxPayload) throw ProtocolError("payload exceeds kMaxPayload");
  const auto len = static_cast<std::uint32_t>(payload);
  (*out)[mark] = static_cast<std::uint8_t>(len);
  (*out)[mark + 1] = static_cast<std::uint8_t>(len >> 8);
  (*out)[mark + 2] = static_cast<std::uint8_t>(len >> 16);
  (*out)[mark + 3] = static_cast<std::uint8_t>(len >> 24);
}

std::size_t open_frame(std::vector<std::uint8_t>* out) {
  const std::size_t mark = out->size();
  out->resize(mark + kFramePrefix);
  return mark;
}

}  // namespace

void encode_query_request(const QueryRequest& req,
                          std::vector<std::uint8_t>* out) {
  const std::size_t mark = open_frame(out);
  put_u8(out, static_cast<std::uint8_t>(MsgType::kQuery));
  put_i32(out, req.user);
  put_i32(out, req.k);
  seal_frame(out, mark);
}

void encode_metrics_request(std::vector<std::uint8_t>* out) {
  const std::size_t mark = open_frame(out);
  put_u8(out, static_cast<std::uint8_t>(MsgType::kMetrics));
  seal_frame(out, mark);
}

void encode_health_request(std::vector<std::uint8_t>* out) {
  const std::size_t mark = open_frame(out);
  put_u8(out, static_cast<std::uint8_t>(MsgType::kHealth));
  seal_frame(out, mark);
}

void encode_add_rating_request(const AddRatingRequest& req,
                               std::vector<std::uint8_t>* out) {
  const std::size_t mark = open_frame(out);
  put_u8(out, static_cast<std::uint8_t>(MsgType::kAddRating));
  put_i32(out, req.user);
  put_i32(out, req.item);
  put_f64(out, req.value);
  seal_frame(out, mark);
}

void encode_add_rating_response(Status status,
                                std::vector<std::uint8_t>* out) {
  const std::size_t mark = open_frame(out);
  put_u8(out, static_cast<std::uint8_t>(MsgType::kAddRating));
  put_u8(out, static_cast<std::uint8_t>(status));
  seal_frame(out, mark);
}

void encode_query_response(const QueryResponse& resp,
                           std::vector<std::uint8_t>* out) {
  const std::size_t mark = open_frame(out);
  put_u8(out, static_cast<std::uint8_t>(MsgType::kQuery));
  put_u8(out, static_cast<std::uint8_t>(resp.status));
  put_u64(out, resp.generation);
  put_u32(out, static_cast<std::uint32_t>(resp.items.size()));
  for (const auto& rec : resp.items) {
    put_i32(out, rec.item);
    put_f64(out, rec.score);
  }
  seal_frame(out, mark);
}

void encode_metrics_response(const std::string& text,
                             std::vector<std::uint8_t>* out) {
  // u8 type + u8 status + u32 len ahead of the text itself.
  constexpr std::size_t kHeader = 6;
  std::size_t n = text.size();
  if (n > kMaxPayload - kHeader) n = kMaxPayload - kHeader;
  const std::size_t mark = open_frame(out);
  put_u8(out, static_cast<std::uint8_t>(MsgType::kMetrics));
  put_u8(out, static_cast<std::uint8_t>(Status::kOk));
  put_u32(out, static_cast<std::uint32_t>(n));
  out->insert(out->end(), text.begin(),
              text.begin() + static_cast<std::ptrdiff_t>(n));
  seal_frame(out, mark);
}

void encode_health_response(const HealthResponse& resp,
                            std::vector<std::uint8_t>* out) {
  // 4 × u8, 5 × f64, 6 × u64, u32 exemplar count: bytes ahead of exemplars.
  constexpr std::size_t kHeader = 4 + 5 * 8 + 6 * 8 + 4;
  constexpr std::size_t kExemplarBytes = 2 * 8 + 4 * 8;
  std::size_t n_ex = resp.exemplars.size();
  if (n_ex > kMaxHealthExemplars) n_ex = kMaxHealthExemplars;
  // Events budget after the fixed part and the trailing u32 text length.
  const std::size_t budget = kMaxPayload - kHeader - n_ex * kExemplarBytes - 4;
  // Trim oldest lines first: keep the largest suffix that fits, then advance
  // past the partial first line so every surviving line is intact JSON.
  std::size_t start = 0;
  if (resp.events_json.size() > budget) {
    start = resp.events_json.size() - budget;
    const std::size_t nl = resp.events_json.find('\n', start);
    start = nl == std::string::npos ? resp.events_json.size() : nl + 1;
  }
  const std::size_t text_len = resp.events_json.size() - start;

  const std::size_t mark = open_frame(out);
  put_u8(out, static_cast<std::uint8_t>(MsgType::kHealth));
  put_u8(out, static_cast<std::uint8_t>(Status::kOk));
  put_u8(out, resp.latency_state);
  put_u8(out, resp.availability_state);
  put_f64(out, resp.latency_threshold_ms);
  put_f64(out, resp.latency_fast_burn);
  put_f64(out, resp.latency_slow_burn);
  put_f64(out, resp.availability_fast_burn);
  put_f64(out, resp.availability_slow_burn);
  put_u64(out, resp.latency_violations);
  put_u64(out, resp.availability_errors);
  put_u64(out, resp.latency_transitions);
  put_u64(out, resp.availability_transitions);
  put_u64(out, resp.events_recorded);
  put_u64(out, resp.events_dropped);
  put_u32(out, static_cast<std::uint32_t>(n_ex));
  for (std::size_t i = 0; i < n_ex; ++i) {
    const auto& ex = resp.exemplars[i];
    put_u64(out, ex.ticket);
    put_u64(out, ex.user);
    put_f64(out, ex.e2e_ms);
    put_f64(out, ex.queue_ms);
    put_f64(out, ex.engine_ms);
    put_f64(out, ex.finish_ms);
  }
  put_u32(out, static_cast<std::uint32_t>(text_len));
  out->insert(out->end(),
              resp.events_json.begin() + static_cast<std::ptrdiff_t>(start),
              resp.events_json.end());
  seal_frame(out, mark);
}

bool try_frame(const std::uint8_t* data, std::size_t size,
               std::size_t* payload_off, std::size_t* payload_len) {
  if (size < kFramePrefix) return false;
  const std::uint32_t len = static_cast<std::uint32_t>(data[0]) |
                            static_cast<std::uint32_t>(data[1]) << 8 |
                            static_cast<std::uint32_t>(data[2]) << 16 |
                            static_cast<std::uint32_t>(data[3]) << 24;
  if (len == 0) throw ProtocolError("zero-length payload");
  if (len > kMaxPayload) throw ProtocolError("payload length exceeds cap");
  if (size < kFramePrefix + len) return false;
  *payload_off = kFramePrefix;
  *payload_len = len;
  return true;
}

Request decode_request(const std::uint8_t* payload, std::size_t len) {
  Reader r(payload, len);
  Request req;
  const auto type = r.u8();
  switch (static_cast<MsgType>(type)) {
    case MsgType::kQuery:
      req.type = MsgType::kQuery;
      req.query.user = r.i32();
      req.query.k = r.i32();
      break;
    case MsgType::kMetrics:
      req.type = MsgType::kMetrics;
      break;
    case MsgType::kHealth:
      req.type = MsgType::kHealth;
      break;
    case MsgType::kAddRating:
      req.type = MsgType::kAddRating;
      req.rating.user = r.i32();
      req.rating.item = r.i32();
      req.rating.value = r.f64();
      break;
    default:
      throw ProtocolError("unknown request type " + std::to_string(type));
  }
  r.expect_done();
  return req;
}

MsgType decode_response(const std::uint8_t* payload, std::size_t len,
                        QueryResponse* query, std::string* metrics,
                        HealthResponse* health) {
  Reader r(payload, len);
  const auto type = r.u8();
  switch (static_cast<MsgType>(type)) {
    case MsgType::kQuery: {
      query->status = static_cast<Status>(r.u8());
      query->generation = r.u64();
      const std::uint32_t count = r.u32();
      // Each item is 12 payload bytes; validate the count against what the
      // frame can actually hold before reserving, so a corrupt count raises
      // ProtocolError instead of attempting a multi-GB allocation.
      if (count > len / 12) throw ProtocolError("item count exceeds payload");
      query->items.clear();
      query->items.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        Recommendation rec;
        rec.item = r.i32();
        rec.score = r.f64();
        query->items.push_back(rec);
      }
      r.expect_done();
      return MsgType::kQuery;
    }
    case MsgType::kMetrics: {
      query->status = static_cast<Status>(r.u8());
      query->generation = 0;
      query->items.clear();
      const std::uint32_t count = r.u32();
      // The declared text length can never exceed what the frame holds; a
      // corrupt count is a protocol violation, not a giant allocation.
      if (count > len) throw ProtocolError("metrics text exceeds payload");
      const std::uint8_t* text = r.bytes(count);
      if (metrics != nullptr) {
        metrics->assign(reinterpret_cast<const char*>(text), count);
      }
      r.expect_done();
      return MsgType::kMetrics;
    }
    case MsgType::kHealth: {
      query->status = static_cast<Status>(r.u8());
      query->generation = 0;
      query->items.clear();
      HealthResponse scratch;
      HealthResponse& h = health != nullptr ? *health : scratch;
      h.latency_state = r.u8();
      h.availability_state = r.u8();
      h.latency_threshold_ms = r.f64();
      h.latency_fast_burn = r.f64();
      h.latency_slow_burn = r.f64();
      h.availability_fast_burn = r.f64();
      h.availability_slow_burn = r.f64();
      h.latency_violations = r.u64();
      h.availability_errors = r.u64();
      h.latency_transitions = r.u64();
      h.availability_transitions = r.u64();
      h.events_recorded = r.u64();
      h.events_dropped = r.u64();
      const std::uint32_t n_ex = r.u32();
      // 48 payload bytes per exemplar; reject counts the frame cannot hold
      // (and anything past the encoder's own cap) before reserving.
      if (n_ex > kMaxHealthExemplars || n_ex > len / 48) {
        throw ProtocolError("exemplar count exceeds payload");
      }
      h.exemplars.clear();
      h.exemplars.reserve(n_ex);
      for (std::uint32_t i = 0; i < n_ex; ++i) {
        HealthExemplar ex;
        ex.ticket = r.u64();
        ex.user = r.u64();
        ex.e2e_ms = r.f64();
        ex.queue_ms = r.f64();
        ex.engine_ms = r.f64();
        ex.finish_ms = r.f64();
        h.exemplars.push_back(ex);
      }
      const std::uint32_t text_len = r.u32();
      if (text_len > len) throw ProtocolError("events text exceeds payload");
      const std::uint8_t* text = r.bytes(text_len);
      h.events_json.assign(reinterpret_cast<const char*>(text), text_len);
      r.expect_done();
      return MsgType::kHealth;
    }
    case MsgType::kAddRating: {
      query->status = static_cast<Status>(r.u8());
      query->generation = 0;
      query->items.clear();
      r.expect_done();
      return MsgType::kAddRating;
    }
    default:
      throw ProtocolError("unknown response type " + std::to_string(type));
  }
}

}  // namespace cumf::serve::net

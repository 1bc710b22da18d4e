#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "serve/batcher.hpp"
#include "serve/factor_store.hpp"
#include "serve/live_store.hpp"
#include "serve/net/client.hpp"
#include "serve/net/protocol.hpp"
#include "serve/net/server.hpp"
#include "serve/topk.hpp"
#include "serve_test_util.hpp"

namespace cumf {
namespace {

using serve_test::brute_force_topk;
using serve_test::random_factors;
using namespace serve::net;
using obs::metric_value;

// ------------------------------------------------------------- protocol ----

TEST(NetProtocol, QueryRequestRoundTrip) {
  std::vector<std::uint8_t> wire;
  encode_query_request(QueryRequest{42, 7}, &wire);

  std::size_t off = 0, len = 0;
  ASSERT_TRUE(try_frame(wire.data(), wire.size(), &off, &len));
  EXPECT_EQ(off + len, wire.size());

  const Request req = decode_request(wire.data() + off, len);
  EXPECT_EQ(req.type, MsgType::kQuery);
  EXPECT_EQ(req.query.user, 42);
  EXPECT_EQ(req.query.k, 7);
}

TEST(NetProtocol, QueryResponseRoundTrip) {
  QueryResponse resp;
  resp.status = Status::kOk;
  resp.generation = 3;
  resp.items = {{10, 1.5}, {4, 1.5}, {99, -0.25}};

  std::vector<std::uint8_t> wire;
  encode_query_response(resp, &wire);

  std::size_t off = 0, len = 0;
  ASSERT_TRUE(try_frame(wire.data(), wire.size(), &off, &len));
  QueryResponse got;
  ASSERT_EQ(decode_response(wire.data() + off, len, &got), MsgType::kQuery);
  EXPECT_EQ(got.status, Status::kOk);
  EXPECT_EQ(got.generation, 3u);
  EXPECT_EQ(got.items, resp.items);  // scores bit-exact through the f64 path
}

TEST(NetProtocol, EmptyResponseRoundTrip) {
  QueryResponse resp;
  resp.status = Status::kBadUser;
  std::vector<std::uint8_t> wire;
  encode_query_response(resp, &wire);

  std::size_t off = 0, len = 0;
  ASSERT_TRUE(try_frame(wire.data(), wire.size(), &off, &len));
  QueryResponse got;
  ASSERT_EQ(decode_response(wire.data() + off, len, &got), MsgType::kQuery);
  EXPECT_EQ(got.status, Status::kBadUser);
  EXPECT_TRUE(got.items.empty());
}

TEST(NetProtocol, FramingRejectsGarbageAndReportsIncomplete) {
  std::vector<std::uint8_t> wire;
  encode_query_request(QueryRequest{1, 2}, &wire);

  std::size_t off = 0, len = 0;
  // Incomplete prefix and incomplete payload want more bytes, not an error.
  EXPECT_FALSE(try_frame(wire.data(), 2, &off, &len));
  EXPECT_FALSE(try_frame(wire.data(), wire.size() - 1, &off, &len));

  // Zero-length and oversized payloads are violations, not retries.
  const std::uint8_t zero[4] = {0, 0, 0, 0};
  EXPECT_THROW((void)try_frame(zero, 4, &off, &len), ProtocolError);
  const std::uint8_t huge[4] = {0xff, 0xff, 0xff, 0xff};
  EXPECT_THROW((void)try_frame(huge, 4, &off, &len), ProtocolError);

  // Truncated / trailing-byte / unknown-type payloads all fail decode.
  const std::uint8_t query_type = 1;
  EXPECT_THROW((void)decode_request(&query_type, 1), ProtocolError);
  std::vector<std::uint8_t> padded(wire.begin() + 4, wire.end());
  padded.push_back(0);
  EXPECT_THROW((void)decode_request(padded.data(), padded.size()),
               ProtocolError);
  const std::uint8_t unknown = 9;
  EXPECT_THROW((void)decode_request(&unknown, 1), ProtocolError);
}

TEST(NetProtocol, AddRatingRoundTrip) {
  std::vector<std::uint8_t> wire;
  encode_add_rating_request(AddRatingRequest{42, 17, 4.5}, &wire);

  std::size_t off = 0, len = 0;
  ASSERT_TRUE(try_frame(wire.data(), wire.size(), &off, &len));
  const Request req = decode_request(wire.data() + off, len);
  EXPECT_EQ(req.type, MsgType::kAddRating);
  EXPECT_EQ(req.rating.user, 42);
  EXPECT_EQ(req.rating.item, 17);
  EXPECT_DOUBLE_EQ(req.rating.value, 4.5);

  wire.clear();
  encode_add_rating_response(Status::kBadUser, &wire);
  ASSERT_TRUE(try_frame(wire.data(), wire.size(), &off, &len));
  QueryResponse got;
  ASSERT_EQ(decode_response(wire.data() + off, len, &got), MsgType::kAddRating);
  EXPECT_EQ(got.status, Status::kBadUser);

  // Truncated add-rating payload is a violation like any other.
  wire.clear();
  encode_add_rating_request(AddRatingRequest{1, 2, 3.0}, &wire);
  EXPECT_THROW((void)decode_request(wire.data() + 4, wire.size() - 5),
               ProtocolError);
}

TEST(NetProtocol, MetricsRoundTrip) {
  std::vector<std::uint8_t> wire;
  encode_metrics_request(&wire);
  std::size_t off = 0, len = 0;
  ASSERT_TRUE(try_frame(wire.data(), wire.size(), &off, &len));
  EXPECT_EQ(decode_request(wire.data() + off, len).type, MsgType::kMetrics);

  const std::string text =
      "# HELP cumf_serve_queries_total User queries answered\n"
      "# TYPE cumf_serve_queries_total counter\n"
      "cumf_serve_queries_total 42\n";
  wire.clear();
  encode_metrics_response(text, &wire);
  ASSERT_TRUE(try_frame(wire.data(), wire.size(), &off, &len));
  QueryResponse query;
  std::string got;
  ASSERT_EQ(decode_response(wire.data() + off, len, &query, &got),
            MsgType::kMetrics);
  EXPECT_EQ(got, text);  // byte-exact through the length-prefixed path

  // A decode with no metrics sink still consumes the frame cleanly.
  ASSERT_EQ(decode_response(wire.data() + off, len, &query), MsgType::kMetrics);
}

TEST(NetProtocol, MetricsResponseTruncatesToMaxPayload) {
  const std::string huge(2 * kMaxPayload, 'x');
  std::vector<std::uint8_t> wire;
  encode_metrics_response(huge, &wire);
  // The frame stays within protocol bounds and decodes.
  ASSERT_LE(wire.size(), static_cast<std::size_t>(kMaxPayload) + 4);
  std::size_t off = 0, len = 0;
  ASSERT_TRUE(try_frame(wire.data(), wire.size(), &off, &len));
  QueryResponse query;
  std::string got;
  ASSERT_EQ(decode_response(wire.data() + off, len, &query, &got),
            MsgType::kMetrics);
  EXPECT_EQ(got.size(), static_cast<std::size_t>(kMaxPayload) - 6);
  EXPECT_EQ(got, huge.substr(0, got.size()));
}

TEST(NetProtocol, MalformedMetricsFramesAreViolations) {
  std::vector<std::uint8_t> wire;
  encode_metrics_response("hello", &wire);
  std::size_t off = 0, len = 0;
  ASSERT_TRUE(try_frame(wire.data(), wire.size(), &off, &len));
  QueryResponse query;
  std::string got;

  // Truncated payload: the declared text length exceeds the bytes present.
  EXPECT_THROW((void)decode_response(wire.data() + off, len - 1, &query, &got),
               ProtocolError);
  // Trailing garbage after the text is a violation, not ignored padding.
  std::vector<std::uint8_t> padded(wire.begin() + 4, wire.end());
  padded.push_back(0);
  EXPECT_THROW((void)decode_response(padded.data(), padded.size(), &query,
                                     &got),
               ProtocolError);
  // A bare type byte with no header is truncated too.
  const std::uint8_t type_only = 4;
  EXPECT_THROW((void)decode_response(&type_only, 1, &query, &got),
               ProtocolError);
  // Metrics *requests* carry nothing after the type byte.
  const std::uint8_t padded_req[2] = {4, 0};
  EXPECT_THROW((void)decode_request(padded_req, 2), ProtocolError);
}

TEST(NetProtocol, HealthRoundTrip) {
  std::vector<std::uint8_t> wire;
  encode_health_request(&wire);
  std::size_t off = 0, len = 0;
  ASSERT_TRUE(try_frame(wire.data(), wire.size(), &off, &len));
  EXPECT_EQ(decode_request(wire.data() + off, len).type, MsgType::kHealth);

  HealthResponse h;
  h.latency_state = 2;
  h.availability_state = 1;
  h.latency_threshold_ms = 25.0;
  h.latency_fast_burn = 14.5;
  h.latency_slow_burn = 11.0;
  h.availability_fast_burn = 3.25;
  h.availability_slow_burn = 2.5;
  h.latency_violations = 120;
  h.availability_errors = 7;
  h.latency_transitions = 4;
  h.availability_transitions = 2;
  h.events_recorded = 900;
  h.events_dropped = 12;
  h.exemplars = {{5, 17, 80.0, 30.0, 45.0, 5.0}, {3, 9, 60.0, 10.0, 48.0, 2.0}};
  h.events_json =
      "{\"ticket\":0,\"message\":\"overload_shed\"}\n"
      "{\"ticket\":1,\"message\":\"latency_slo_state\"}\n";

  wire.clear();
  encode_health_response(h, &wire);
  ASSERT_TRUE(try_frame(wire.data(), wire.size(), &off, &len));
  QueryResponse query;
  HealthResponse got;
  ASSERT_EQ(decode_response(wire.data() + off, len, &query, nullptr, &got),
            MsgType::kHealth);
  EXPECT_EQ(got.latency_state, 2);
  EXPECT_EQ(got.availability_state, 1);
  EXPECT_DOUBLE_EQ(got.latency_threshold_ms, 25.0);
  EXPECT_DOUBLE_EQ(got.latency_fast_burn, 14.5);
  EXPECT_DOUBLE_EQ(got.latency_slow_burn, 11.0);
  EXPECT_DOUBLE_EQ(got.availability_fast_burn, 3.25);
  EXPECT_DOUBLE_EQ(got.availability_slow_burn, 2.5);
  EXPECT_EQ(got.latency_violations, 120u);
  EXPECT_EQ(got.availability_errors, 7u);
  EXPECT_EQ(got.latency_transitions, 4u);
  EXPECT_EQ(got.availability_transitions, 2u);
  EXPECT_EQ(got.events_recorded, 900u);
  EXPECT_EQ(got.events_dropped, 12u);
  ASSERT_EQ(got.exemplars.size(), 2u);
  EXPECT_EQ(got.exemplars[0].ticket, 5u);
  EXPECT_EQ(got.exemplars[0].user, 17u);
  EXPECT_DOUBLE_EQ(got.exemplars[0].e2e_ms, 80.0);
  EXPECT_DOUBLE_EQ(got.exemplars[0].queue_ms, 30.0);
  EXPECT_DOUBLE_EQ(got.exemplars[0].engine_ms, 45.0);
  EXPECT_DOUBLE_EQ(got.exemplars[0].finish_ms, 5.0);
  EXPECT_EQ(got.exemplars[1].user, 9u);
  EXPECT_EQ(got.events_json, h.events_json);

  // A decode with no health sink still consumes the frame cleanly.
  ASSERT_EQ(decode_response(wire.data() + off, len, &query), MsgType::kHealth);
}

TEST(NetProtocol, HealthResponseTrimsEventsAtLineBoundaries) {
  HealthResponse h;
  for (std::uint64_t i = 0; i < 40; ++i) {
    h.exemplars.push_back({i, i, 100.0 - static_cast<double>(i), 1.0, 2.0,
                           3.0});
  }
  std::string huge;
  while (huge.size() < 2 * kMaxPayload) {
    huge += "{\"ticket\":" + std::to_string(huge.size()) + ",\"pad\":\"" +
            std::string(100, 'x') + "\"}\n";
  }
  h.events_json = huge;

  std::vector<std::uint8_t> wire;
  encode_health_response(h, &wire);
  ASSERT_LE(wire.size(), static_cast<std::size_t>(kMaxPayload) + 4);
  std::size_t off = 0, len = 0;
  ASSERT_TRUE(try_frame(wire.data(), wire.size(), &off, &len));
  QueryResponse query;
  HealthResponse got;
  ASSERT_EQ(decode_response(wire.data() + off, len, &query, nullptr, &got),
            MsgType::kHealth);

  // Exemplars cap at the wire bound, keeping the front (slowest-first) ones.
  ASSERT_EQ(got.exemplars.size(), kMaxHealthExemplars);
  EXPECT_EQ(got.exemplars[0].ticket, 0u);
  EXPECT_EQ(got.exemplars[kMaxHealthExemplars - 1].ticket,
            static_cast<std::uint64_t>(kMaxHealthExemplars - 1));

  // The events text is trimmed oldest-first to a *suffix* of the original,
  // and the cut lands on a line boundary so every surviving line is intact.
  ASSERT_FALSE(got.events_json.empty());
  ASSERT_LT(got.events_json.size(), huge.size());
  EXPECT_EQ(huge.compare(huge.size() - got.events_json.size(),
                         got.events_json.size(), got.events_json),
            0);
  EXPECT_EQ(huge[huge.size() - got.events_json.size() - 1], '\n');
  EXPECT_EQ(got.events_json.front(), '{');
  EXPECT_EQ(got.events_json.back(), '\n');
}

TEST(NetProtocol, MalformedHealthFramesAreViolations) {
  HealthResponse h;
  h.exemplars = {{1, 2, 30.0, 10.0, 15.0, 5.0}};
  h.events_json = "{\"ticket\":0}\n";
  std::vector<std::uint8_t> wire;
  encode_health_response(h, &wire);
  std::size_t off = 0, len = 0;
  ASSERT_TRUE(try_frame(wire.data(), wire.size(), &off, &len));
  QueryResponse query;
  HealthResponse got;

  // Truncated payload: the trailing events text is cut short.
  EXPECT_THROW((void)decode_response(wire.data() + off, len - 1, &query,
                                     nullptr, &got),
               ProtocolError);
  // Trailing garbage after the events text is a violation.
  std::vector<std::uint8_t> padded(wire.begin() + 4, wire.end());
  padded.push_back(0);
  EXPECT_THROW((void)decode_response(padded.data(), padded.size(), &query,
                                     nullptr, &got),
               ProtocolError);
  // A corrupt exemplar count can never expand past the payload: huge counts
  // trip the bound check, small lies exhaust the frame.
  std::vector<std::uint8_t> corrupt(wire.begin() + 4, wire.end());
  const std::size_t n_ex_off = 4 + 5 * 8 + 6 * 8;  // fixed header before n_ex
  corrupt[n_ex_off] = 0xff;
  corrupt[n_ex_off + 1] = 0xff;
  corrupt[n_ex_off + 2] = 0xff;
  corrupt[n_ex_off + 3] = 0xff;
  EXPECT_THROW((void)decode_response(corrupt.data(), corrupt.size(), &query,
                                     nullptr, &got),
               ProtocolError);
  corrupt.assign(wire.begin() + 4, wire.end());
  corrupt[n_ex_off] = 2;  // claims one more exemplar than the frame holds
  EXPECT_THROW((void)decode_response(corrupt.data(), corrupt.size(), &query,
                                     nullptr, &got),
               ProtocolError);
  // A bare type byte is truncated; health *requests* carry nothing after it.
  const std::uint8_t type_only = 5;
  EXPECT_THROW((void)decode_response(&type_only, 1, &query, nullptr, &got),
               ProtocolError);
  const std::uint8_t padded_req[2] = {5, 0};
  EXPECT_THROW((void)decode_request(padded_req, 2), ProtocolError);
}

/// Valid frames of all four operations, requests and responses both: the
/// seeds the mutation fuzz loop below starts from.
std::vector<std::vector<std::uint8_t>> seed_frames() {
  std::vector<std::vector<std::uint8_t>> frames(8);
  encode_query_request(QueryRequest{42, 7}, &frames[0]);
  QueryResponse q;
  q.generation = 9;
  q.items = {{10, 1.5}, {4, 1.25}, {99, -0.25}};
  encode_query_response(q, &frames[1]);
  encode_add_rating_request(AddRatingRequest{3, 17, 4.5}, &frames[2]);
  encode_add_rating_response(Status::kBadUser, &frames[3]);
  encode_metrics_request(&frames[4]);
  encode_metrics_response("cumf_serve_queries_total 42\n", &frames[5]);
  encode_health_request(&frames[6]);
  HealthResponse h;
  h.latency_state = 2;
  h.exemplars = {{5, 17, 80.0, 30.0, 45.0, 5.0}, {3, 9, 60.0, 10.0, 48.0, 2.0}};
  h.events_json = "{\"ticket\":0}\n{\"ticket\":1}\n";
  encode_health_response(h, &frames[7]);
  return frames;
}

/// Feeds one (possibly corrupt) frame to every decoder: the framer, then
/// both payload decoders on what it framed and on the raw bytes after the
/// prefix. Each call must return or throw ProtocolError; anything else is a
/// failure (and a sanitizer build flags any out-of-bounds read).
void decode_everything(const std::vector<std::uint8_t>& wire) {
  auto guarded = [](const char* what, auto&& call) {
    try {
      call();
    } catch (const ProtocolError&) {
      // The one allowed way to refuse a frame.
    } catch (const std::exception& e) {
      ADD_FAILURE() << what << " threw a non-protocol error: " << e.what();
    } catch (...) {
      ADD_FAILURE() << what << " threw a non-std exception";
    }
  };
  auto decode_both = [&](const std::uint8_t* payload, std::size_t len) {
    guarded("decode_request", [&] { (void)decode_request(payload, len); });
    guarded("decode_response", [&] {
      QueryResponse query;
      std::string metrics;
      HealthResponse health;
      (void)decode_response(payload, len, &query, &metrics, &health);
    });
  };
  guarded("try_frame", [&] {
    std::size_t off = 0, len = 0;
    if (try_frame(wire.data(), wire.size(), &off, &len)) {
      decode_both(wire.data() + off, len);
    }
  });
  if (wire.size() > kFramePrefix) {
    decode_both(wire.data() + kFramePrefix, wire.size() - kFramePrefix);
  }
}

TEST(NetProtocol, MutatedFramesEitherDecodeOrThrowProtocolError) {
  std::mt19937_64 rng(0x5eed);
  auto below = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  // Flips one random bit at or after byte `from`.
  auto flip_bit = [&below](std::vector<std::uint8_t>* w, std::size_t from) {
    (*w)[from + below(w->size() - from)] ^=
        static_cast<std::uint8_t>(1u << below(8));
  };
  auto set_prefix = [](std::vector<std::uint8_t>* w, std::size_t len) {
    for (std::size_t b = 0; b < kFramePrefix; ++b) {
      (*w)[b] = static_cast<std::uint8_t>(len >> (8 * b));
    }
  };

  for (const auto& seed : seed_frames()) {
    // Type-byte sweep, the retired 2 included: only the four live types may
    // decode at all.
    for (int t = 0; t < 256; ++t) {
      std::vector<std::uint8_t> wire = seed;
      wire[kFramePrefix] = static_cast<std::uint8_t>(t);
      decode_everything(wire);
      if (t != 1 && t != 3 && t != 4 && t != 5) {
        const std::uint8_t* payload = wire.data() + kFramePrefix;
        const std::size_t len = wire.size() - kFramePrefix;
        QueryResponse query;
        EXPECT_THROW((void)decode_request(payload, len), ProtocolError) << t;
        EXPECT_THROW((void)decode_response(payload, len, &query), ProtocolError)
            << t;
      }
    }

    for (int iter = 0; iter < 600; ++iter) {
      std::vector<std::uint8_t> wire = seed;
      switch (iter % 4) {
        case 0:  // bit flips anywhere, the prefix included
          for (std::size_t n = 1 + below(4); n > 0; --n) flip_bit(&wire, 0);
          break;
        case 1:  // truncation
          wire.resize(below(wire.size()));
          break;
        case 2: {  // corrupted length prefix: near miss, random, or extreme
          const std::size_t near = wire.size() - kFramePrefix + below(7) - 3;
          const std::size_t picks[] = {near, rng(), 0, kMaxPayload + 1};
          set_prefix(&wire, picks[below(4)]);
          break;
        }
        default:  // a payload bit flip plus trailing garbage, prefix resealed
          flip_bit(&wire, kFramePrefix);
          for (std::size_t n = below(9); n > 0; --n) {
            wire.push_back(static_cast<std::uint8_t>(rng()));
          }
          set_prefix(&wire, wire.size() - kFramePrefix);
          break;
      }
      decode_everything(wire);
    }
  }
}

// ---------------------------------------------------- loopback serving -----

struct LoopbackFixture {
  static constexpr idx_t kUsers = 30;
  static constexpr idx_t kItems = 120;
  static constexpr int kK = 6;

  LoopbackFixture(std::size_t cache_capacity = 0,
                  std::chrono::microseconds max_delay =
                      std::chrono::microseconds(2000),
                  ServerOptions sopt = {})
      : x(random_factors(kUsers, 8, 601)),
        theta(random_factors(kItems, 8, 602)),
        store(x, theta, 3),
        engine(store) {
    serve::BatcherOptions opt;
    opt.k = kK;
    opt.max_batch = 8;
    opt.max_delay = max_delay;
    opt.cache_capacity = cache_capacity;
    batcher = std::make_unique<serve::RequestBatcher>(engine, opt);
    server = std::make_unique<TcpServer>(*batcher, std::move(sopt));
  }

  linalg::FactorMatrix x, theta;
  serve::FactorStore store;
  serve::TopKEngine engine;
  std::unique_ptr<serve::RequestBatcher> batcher;
  std::unique_ptr<TcpServer> server;
};

TEST(TcpServer, LoopbackAnswersBitIdenticalToDirectEngine) {
  LoopbackFixture fx;
  Client client("127.0.0.1", fx.server->port());

  for (idx_t u = 0; u < LoopbackFixture::kUsers; ++u) {
    const QueryResponse resp = client.query(u, LoopbackFixture::kK);
    ASSERT_EQ(resp.status, Status::kOk) << "user=" << u;
    EXPECT_EQ(resp.generation, 1u);  // fixed store: generation 1 for life
    EXPECT_EQ(resp.items, fx.engine.recommend_one(u, LoopbackFixture::kK))
        << "user=" << u;
  }
  EXPECT_EQ(fx.server->connections_accepted(), 1u);
}

TEST(TcpServer, SmallerKTruncatesTheSameRanking) {
  LoopbackFixture fx;
  Client client("127.0.0.1", fx.server->port());

  const auto full = fx.engine.recommend_one(5, LoopbackFixture::kK);
  const QueryResponse resp = client.query(5, 3);
  ASSERT_EQ(resp.status, Status::kOk);
  ASSERT_EQ(resp.items.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(resp.items[static_cast<std::size_t>(i)],
              full[static_cast<std::size_t>(i)]);
  }
}

TEST(TcpServer, RejectsBadUsersAndBadK) {
  LoopbackFixture fx;
  Client client("127.0.0.1", fx.server->port());

  EXPECT_EQ(client.query(LoopbackFixture::kUsers, 3).status, Status::kBadUser);
  EXPECT_EQ(client.query(-1, 3).status, Status::kBadUser);
  EXPECT_EQ(client.query(0, 0).status, Status::kBadRequest);
  EXPECT_EQ(client.query(0, LoopbackFixture::kK + 1).status,
            Status::kBadRequest);
  // The connection survives rejected requests.
  EXPECT_EQ(client.query(0, LoopbackFixture::kK).status, Status::kOk);
}

TEST(TcpServer, PipelinedResponsesKeepRequestOrder) {
  // Cache on: hits resolve at submit time while earlier misses are still in
  // flight, which is exactly the reordering hazard the server must suppress.
  LoopbackFixture fx(/*cache_capacity=*/16);
  Client client("127.0.0.1", fx.server->port());

  // Warm the cache closed-loop so the pipelined stream below mixes instant
  // hits (users 0–4) among misses still waiting on the flusher.
  for (idx_t u = 0; u < 5; ++u) {
    ASSERT_EQ(client.query(u, LoopbackFixture::kK).status, Status::kOk);
  }

  std::vector<idx_t> users;
  for (int round = 0; round < 5; ++round) {
    for (idx_t u = 0; u < 10; ++u) users.push_back(u);
  }
  for (const idx_t u : users) client.send_query(u, LoopbackFixture::kK);
  for (const idx_t u : users) {
    const QueryResponse resp = client.read_query_response();
    ASSERT_EQ(resp.status, Status::kOk) << "user=" << u;
    EXPECT_EQ(resp.items, fx.engine.recommend_one(u, LoopbackFixture::kK))
        << "user=" << u;
  }

  const auto stats = fx.server->stats();
  EXPECT_EQ(stats.queries, users.size() + 5);
  EXPECT_GT(stats.cache_hits, 0u);
}

TEST(TcpServer, ConcurrentConnectionsShareTheBatcher) {
  LoopbackFixture fx;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 40;

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Client client("127.0.0.1", fx.server->port());
      for (int i = 0; i < kPerThread; ++i) {
        const idx_t u = static_cast<idx_t>((t * 7 + i) %
                                           LoopbackFixture::kUsers);
        const QueryResponse resp = client.query(u, LoopbackFixture::kK);
        if (resp.status != Status::kOk ||
            resp.items != fx.engine.recommend_one(u, LoopbackFixture::kK)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(fx.server->connections_accepted(),
            static_cast<std::uint64_t>(kThreads));
  EXPECT_EQ(fx.server->stats().queries,
            static_cast<std::uint64_t>(kThreads * kPerThread));
}

TEST(TcpServer, StatsOverTheWireAndE2eCoversBatchWall) {
  // Cache off: every query is scored, so e2e and batch_wall cover the same
  // miss population and each query's e2e contains its batch's wall time —
  // the p99 ordering holds by construction.
  LoopbackFixture fx;
  Client client("127.0.0.1", fx.server->port());

  constexpr int kQueries = 120;
  for (int i = 0; i < kQueries; ++i) {
    (void)client.query(static_cast<idx_t>(i % LoopbackFixture::kUsers),
                       LoopbackFixture::kK);
  }

  // The stage quantiles of one exposition snapshot keep the ordering.
  const std::string text = client.metrics();
  auto quantile = [&text](const std::string& stage, const char* q) {
    const std::string series = "cumf_serve_latency_quantile_ms{stage=\"" +
                               stage + "\",q=\"" + q + "\"}";
    return metric_value(text, series).value_or(-1.0);
  };
  EXPECT_EQ(metric_value(text, "cumf_serve_queries_total"),
            static_cast<double>(kQueries));
  EXPECT_EQ(metric_value(text, "cumf_serve_latency_ms_count{stage=\"e2e\"}"),
            static_cast<double>(kQueries));
  EXPECT_GT(quantile("e2e", "0.99"), 0.0);
  EXPECT_GE(quantile("e2e", "0.99"), quantile("batch_wall", "0.99"));
  EXPECT_GE(quantile("net_e2e", "0.99"), quantile("e2e", "0.99"));
  EXPECT_GE(quantile("e2e", "0.5"), quantile("queue", "0.5"));
  EXPECT_GE(quantile("queue", "0.5"), 0.0);

  const serve::ServeStats stats = fx.server->stats();
  EXPECT_EQ(stats.e2e.total_recorded, static_cast<std::uint64_t>(kQueries));
  EXPECT_EQ(stats.queue_delay.total_recorded,
            static_cast<std::uint64_t>(kQueries));
  EXPECT_GE(stats.e2e.p99_ms, stats.batch_wall.p99_ms);
  EXPECT_GE(stats.net_e2e.p99_ms, stats.e2e.p99_ms);
}

TEST(TcpServer, MetricsOverTheWireAgreeWithStats) {
  // Cache on so the hit/miss split is non-trivial.
  LoopbackFixture fx(/*cache_capacity=*/16);
  Client client("127.0.0.1", fx.server->port());
  for (int i = 0; i < 60; ++i) {
    ASSERT_EQ(client.query(static_cast<idx_t>(i % 10), LoopbackFixture::kK)
                  .status,
              Status::kOk);
  }

  const std::string text = client.metrics();
  const serve::ServeStats stats = fx.server->stats();

  // The exposition is rendered from a stats() snapshot, so with no traffic
  // in between the headline counters must agree exactly.
  EXPECT_EQ(metric_value(text, "cumf_serve_queries_total"),
            static_cast<double>(stats.queries));
  EXPECT_EQ(metric_value(text, "cumf_serve_batches_total"),
            static_cast<double>(stats.batches));
  EXPECT_EQ(
      metric_value(text, "cumf_serve_cache_requests_total{result=\"hit\"}"),
      static_cast<double>(stats.cache_hits));
  EXPECT_EQ(
      metric_value(text, "cumf_serve_cache_requests_total{result=\"miss\"}"),
      static_cast<double>(stats.cache_misses));
  EXPECT_EQ(metric_value(text, "cumf_serve_generation"),
            static_cast<double>(stats.generation));
  EXPECT_EQ(metric_value(text, "cumf_net_connections_total"), 1.0);
  EXPECT_EQ(metric_value(text, "cumf_net_protocol_errors_total"), 0.0);

  // Latency histograms ride along: every query contributed one e2e sample.
  EXPECT_EQ(metric_value(text, "cumf_serve_latency_ms_count{stage=\"e2e\"}"),
            static_cast<double>(stats.queries));
  EXPECT_GE(
      metric_value(text, "cumf_serve_latency_quantile_ms{stage=\"e2e\",q=\"0.99\"}"),
      0.0);

  // Metrics requests and queries share one connection in request order.
  EXPECT_EQ(metric_value(client.metrics(), "cumf_serve_queries_total"),
            static_cast<double>(stats.queries));
  EXPECT_EQ(client.query(3, LoopbackFixture::kK).status, Status::kOk);
}

TEST(TcpServer, MetricsCarryOrchestratorCountersThroughAugmentStats) {
  ServerOptions sopt;
  sopt.augment_stats = [](serve::ServeStats& s) {
    serve::OrchestratorStats& o = s.orchestrator;
    o.retrains_full = 2;
    o.retrains_incremental = 3;
    o.promotions_full = 1;
    o.promotions_incremental = 2;
    o.rejections_full = 4;
    o.rejections_incremental = 5;
    o.escalations = 6;
    o.consolidations = 7;
    o.last_train_tier = 1;
    o.rollbacks = 8;
    o.deltas_ingested = 4096;
    o.deltas_rejected = 9;
    o.last_gate_rmse = 0.91;
    o.last_gate_recall = 0.22;
    o.baseline_rmse = 0.89;
    o.baseline_recall = 0.25;
    o.last_train_wall_ms = 130.5;
    o.last_train_modeled_s = 0.004;
  };
  LoopbackFixture fx(0, std::chrono::microseconds(2000), sopt);
  Client client("127.0.0.1", fx.server->port());
  const std::string text = client.metrics();

  const struct {
    const char* series;
    double want;
  } expected[] = {
      {"cumf_orchestrator_retrains_total{tier=\"full\"}", 2},
      {"cumf_orchestrator_retrains_total{tier=\"incremental\"}", 3},
      {"cumf_orchestrator_promotions_total{tier=\"full\"}", 1},
      {"cumf_orchestrator_promotions_total{tier=\"incremental\"}", 2},
      {"cumf_orchestrator_rejections_total{tier=\"full\"}", 4},
      {"cumf_orchestrator_rejections_total{tier=\"incremental\"}", 5},
      {"cumf_orchestrator_escalations_total", 6},
      {"cumf_orchestrator_consolidations_total", 7},
      {"cumf_orchestrator_train_tier", 1},
      {"cumf_orchestrator_rollbacks_total", 8},
      {"cumf_orchestrator_deltas_total{result=\"ingested\"}", 4096},
      {"cumf_orchestrator_deltas_total{result=\"rejected\"}", 9},
      {"cumf_orchestrator_gate_rmse", 0.91},
      {"cumf_orchestrator_gate_recall", 0.22},
      {"cumf_orchestrator_baseline_rmse", 0.89},
      {"cumf_orchestrator_baseline_recall", 0.25},
      {"cumf_orchestrator_train_wall_ms", 130.5},
      {"cumf_orchestrator_train_modeled_s", 0.004},
  };
  for (const auto& e : expected) {
    const std::optional<double> got = metric_value(text, e.series);
    ASSERT_TRUE(got.has_value()) << e.series;
    EXPECT_DOUBLE_EQ(*got, e.want) << e.series;
  }
}

TEST(TcpServer, RetiredStatsTypeClosesOnlyThatConnection) {
  LoopbackFixture fx;
  Client good("127.0.0.1", fx.server->port());
  ASSERT_EQ(good.query(1, LoopbackFixture::kK).status, Status::kOk);

  // A raw socket sends the retired stats request: one frame, type byte 2.
  {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(fx.server->port());
    ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    const std::uint8_t retired[5] = {1, 0, 0, 0, 2};
    ASSERT_EQ(::send(fd, retired, sizeof(retired), MSG_NOSIGNAL), 5);
    char byte = 0;
    EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);  // closed without a reply
    ::close(fd);
  }

  // The violation is counted, and the other connection is still served.
  EXPECT_EQ(metric_value(good.metrics(), "cumf_net_protocol_errors_total"),
            1.0);
  EXPECT_EQ(good.query(2, LoopbackFixture::kK).status, Status::kOk);
}

TEST(TcpServer, AbruptClientDisconnectLeavesServerServing) {
  LoopbackFixture fx;
  {
    Client doomed("127.0.0.1", fx.server->port());
    // In-flight queries whose responses are never read.
    for (int i = 0; i < 20; ++i) doomed.send_query(0, LoopbackFixture::kK);
  }  // closed with replies pending

  Client client("127.0.0.1", fx.server->port());
  const QueryResponse resp = client.query(1, LoopbackFixture::kK);
  EXPECT_EQ(resp.status, Status::kOk);
  EXPECT_EQ(resp.items, fx.engine.recommend_one(1, LoopbackFixture::kK));
}

TEST(TcpServer, MalformedFrameClosesOnlyThatConnection) {
  LoopbackFixture fx;
  Client good("127.0.0.1", fx.server->port());

  // A raw socket writes a length prefix far over kMaxPayload: the server
  // must close that connection without waiting for the phantom payload.
  {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(fx.server->port());
    ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    const std::uint8_t garbage[4] = {0xff, 0xff, 0xff, 0x7f};
    ASSERT_EQ(::send(fd, garbage, sizeof(garbage), MSG_NOSIGNAL), 4);
    char byte = 0;
    EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);  // orderly close from the server
    ::close(fd);
  }
  EXPECT_EQ(fx.server->protocol_errors(), 1u);

  // The well-behaved connection is unaffected.
  EXPECT_EQ(good.query(2, LoopbackFixture::kK).status, Status::kOk);
}

// ------------------------------------- backpressure & admission control ----

/// Spins until `pred()` holds or ~2s elapse; returns the final value.
template <typename Pred>
bool eventually(Pred pred) {
  for (int i = 0; i < 400; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

TEST(TcpServer, MetricsReportNetSliceOverTheWire) {
  ServerOptions sopt;
  sopt.io_threads = 3;
  LoopbackFixture fx(0, std::chrono::microseconds(2000), sopt);
  Client client("127.0.0.1", fx.server->port());
  ASSERT_EQ(client.query(0, LoopbackFixture::kK).status, Status::kOk);

  const std::string text = client.metrics();
  EXPECT_EQ(metric_value(text, "cumf_net_connections_total"), 1.0);
  EXPECT_EQ(metric_value(text, "cumf_net_io_shards"), 3.0);
  EXPECT_EQ(metric_value(text, "cumf_net_open_connections"), 1.0);
  EXPECT_EQ(metric_value(text, "cumf_net_connections_rejected_total"), 0.0);
  EXPECT_EQ(metric_value(text, "cumf_net_overload_sheds_total"), 0.0);
  EXPECT_EQ(metric_value(text, "cumf_net_protocol_errors_total"), 0.0);

  const serve::ServeStats stats = fx.server->stats();
  EXPECT_EQ(stats.net.connections_accepted, 1u);
  EXPECT_EQ(stats.net.io_shards, 3u);
  EXPECT_EQ(stats.net.open_connections, 1u);
}

TEST(TcpServer, SlowReaderIsDisconnectedAtTheOutBufferCap) {
  // Tiny server-side send buffer and out cap so a reader that never drains
  // trips the bound with a few hundred replies instead of megabytes.
  ServerOptions sopt;
  sopt.so_sndbuf = 4096;
  sopt.max_out_buffer = 32 << 10;
  LoopbackFixture fx(0, std::chrono::microseconds(200), sopt);

  // Raw socket with a tiny receive buffer (set before connect so the window
  // stays small): the kernel can only absorb a few KB of replies, so the
  // backlog lands in the server's out buffer, not in TCP.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  int rcvbuf = 4096;
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf)),
            0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(fx.server->port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);

  // Pipeline far more reply bytes than sndbuf + rcvbuf + out cap can hold
  // and never read; the server must cut the connection, not buffer without
  // bound. A send error just means it already did.
  std::vector<std::uint8_t> frames;
  for (int i = 0; i < 4000; ++i) {
    encode_query_request(
        QueryRequest{static_cast<idx_t>(i % LoopbackFixture::kUsers),
                     LoopbackFixture::kK},
        &frames);
  }
  std::size_t sent = 0;
  while (sent < frames.size()) {
    const ssize_t n = ::send(fd, frames.data() + sent, frames.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  EXPECT_TRUE(eventually([&] { return fx.server->slow_client_closes() > 0; }))
      << "slow reader was never disconnected";
  ::close(fd);

  // The rest of the server is unaffected.
  Client healthy("127.0.0.1", fx.server->port());
  EXPECT_EQ(healthy.query(1, LoopbackFixture::kK).status, Status::kOk);
  EXPECT_GT(fx.server->stats().net.slow_client_closes, 0u);
}

TEST(TcpServer, FloodingWriterIsThrottledNotKilled) {
  // A tight inflight cap forces the server to stop reading (backpressure)
  // instead of queueing every parsed frame; a client that floods then drains
  // still gets every reply, in order.
  ServerOptions sopt;
  sopt.max_inflight = 8;
  LoopbackFixture fx(0, std::chrono::microseconds(2000), sopt);
  Client client("127.0.0.1", fx.server->port());

  constexpr int kQueries = 500;
  for (int i = 0; i < kQueries; ++i) {
    client.send_query(static_cast<idx_t>(i % LoopbackFixture::kUsers),
                      LoopbackFixture::kK);
  }
  for (int i = 0; i < kQueries; ++i) {
    const idx_t u = static_cast<idx_t>(i % LoopbackFixture::kUsers);
    const QueryResponse resp = client.read_query_response();
    ASSERT_EQ(resp.status, Status::kOk) << "query " << i;
    EXPECT_EQ(resp.items, fx.engine.recommend_one(u, LoopbackFixture::kK))
        << "query " << i;
  }
  EXPECT_EQ(fx.server->stats().queries,
            static_cast<std::uint64_t>(kQueries));
  EXPECT_EQ(fx.server->slow_client_closes(), 0u);
}

TEST(TcpServer, OverloadShedsAtTheEdgeAndRecovers) {
  // A slow batcher (50ms deadline, nothing fills a 1024 batch) holds every
  // future, so the lane's query bound (4) trips almost immediately.
  ServerOptions sopt;
  sopt.max_queued_replies = 4;
  serve::BatcherOptions bopt;
  bopt.k = 6;
  bopt.max_batch = 1024;
  bopt.max_delay = std::chrono::microseconds(50000);

  const auto x = random_factors(30, 8, 601);
  const auto theta = random_factors(120, 8, 602);
  const serve::FactorStore store(x, theta, 3);
  const serve::TopKEngine engine(store);
  serve::RequestBatcher batcher(engine, bopt);
  TcpServer server(batcher, sopt);
  Client client("127.0.0.1", server.port());

  constexpr int kQueries = 100;
  for (int i = 0; i < kQueries; ++i) client.send_query(i % 30, 6);
  int ok = 0, shed = 0;
  for (int i = 0; i < kQueries; ++i) {
    const QueryResponse resp = client.read_query_response();
    if (resp.status == Status::kOk) {
      ++ok;
      EXPECT_FALSE(resp.items.empty());
    } else {
      ASSERT_EQ(resp.status, Status::kOverloaded) << "query " << i;
      ++shed;
      EXPECT_TRUE(resp.items.empty());
    }
  }
  EXPECT_EQ(ok + shed, kQueries);
  EXPECT_GE(ok, 4);       // everything admitted before the bound was answered
  EXPECT_GT(shed, 0);     // the bound tripped
  EXPECT_EQ(server.overload_sheds(), static_cast<std::uint64_t>(shed));

  // Recovery: with the lane drained the same connection is served again.
  const QueryResponse after = client.query(3, 6);
  EXPECT_EQ(after.status, Status::kOk);
  EXPECT_EQ(server.overload_sheds(), static_cast<std::uint64_t>(shed));
}

TEST(TcpServer, HardRecvErrorsAreCountedAndCloseTheConnection) {
  LoopbackFixture fx;
  {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(fx.server->port());
    ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    // Half a frame so the server has seen the connection readable at least
    // once before the abort.
    std::vector<std::uint8_t> frame;
    encode_query_request(QueryRequest{0, LoopbackFixture::kK}, &frame);
    ASSERT_EQ(::send(fd, frame.data(), 2, MSG_NOSIGNAL), 2);
    // SO_LINGER(1, 0): close() sends RST instead of FIN, so the server's
    // next recv() fails hard (ECONNRESET) instead of reading EOF.
    const linger lg{1, 0};
    ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg)), 0);
    ::close(fd);
  }
  EXPECT_TRUE(eventually([&] { return fx.server->recv_errors() > 0; }))
      << "RST was not surfaced as a recv error";
  EXPECT_EQ(fx.server->protocol_errors(), 0u);

  // Served traffic continues.
  Client client("127.0.0.1", fx.server->port());
  EXPECT_EQ(client.query(0, LoopbackFixture::kK).status, Status::kOk);
}

// ------------------------------------------- live refresh under traffic ----

TEST(TcpServer, AnswersStayGenerationConsistentAcrossHotSwap) {
  const idx_t users = 24, items = 90;
  const int f = 8, k = 5;
  const auto x1 = random_factors(users, f, 611);
  const auto t1 = random_factors(items, f, 612);
  const auto x2 = random_factors(users, f, 613);
  const auto t2 = random_factors(items, f, 614);

  serve::LiveFactorStore live(serve::FactorStore(x1, t1, 2));
  const serve::TopKEngine engine(live);
  serve::BatcherOptions opt;
  opt.k = k;
  opt.max_batch = 8;
  opt.cache_capacity = 32;
  serve::RequestBatcher batcher(engine, opt);
  TcpServer server(batcher);

  const serve_test::TempCheckpointDir dir("cumf_net_swap_ckpt");
  dir.write(x2, t2, 2);

  // A client pipelines queries while the refresh lands mid-stream: every
  // response must be bit-identical to the brute-force answer of the
  // generation that tags it — never a torn mix, never a drop.
  constexpr int kInFlight = 64;
  Client client("127.0.0.1", server.port());
  std::vector<idx_t> sent;
  for (int i = 0; i < kInFlight; ++i) {
    const idx_t u = static_cast<idx_t>(i % users);
    client.send_query(u, k);
    sent.push_back(u);
    if (i == kInFlight / 2) {
      const auto outcome = live.refresh_from_checkpoint(dir.path());
      ASSERT_TRUE(outcome.swapped) << outcome.error;
      ASSERT_EQ(outcome.generation, 2u);
    }
  }
  int gen1 = 0, gen2 = 0;
  for (const idx_t u : sent) {
    const QueryResponse resp = client.read_query_response();
    ASSERT_EQ(resp.status, Status::kOk) << "user=" << u;
    if (resp.generation == 1) {
      ++gen1;
      EXPECT_EQ(resp.items, brute_force_topk(x1, t1, u, k)) << "user=" << u;
    } else {
      ASSERT_EQ(resp.generation, 2u) << "user=" << u;
      ++gen2;
      EXPECT_EQ(resp.items, brute_force_topk(x2, t2, u, k)) << "user=" << u;
    }
  }
  EXPECT_EQ(gen1 + gen2, kInFlight);  // nothing dropped
  EXPECT_GT(gen2, 0);                 // the swap landed mid-stream

  // Post-swap queries can never be answered from the superseded generation,
  // cached or not.
  for (idx_t u = 0; u < users; ++u) {
    const QueryResponse resp = client.query(u, k);
    ASSERT_EQ(resp.status, Status::kOk);
    EXPECT_EQ(resp.generation, 2u) << "user=" << u;
    EXPECT_EQ(resp.items, brute_force_topk(x2, t2, u, k)) << "user=" << u;
  }

  const auto stats = server.stats();
  EXPECT_EQ(stats.generation, 2u);
  EXPECT_EQ(stats.refreshes, 1u);
}

// --------------------------------------------------- rating ingestion ------

TEST(TcpServer, AddRatingWithoutSinkIsBadRequest) {
  LoopbackFixture fx;
  Client client("127.0.0.1", fx.server->port());
  EXPECT_EQ(client.add_rating(1, 2, 5.0), Status::kBadRequest);
  // The connection stays healthy for queries afterwards.
  EXPECT_EQ(client.query(1, LoopbackFixture::kK).status, Status::kOk);
}

TEST(TcpServer, AddRatingFeedsIngestSinkInOrder) {
  const auto x = random_factors(16, 8, 621);
  const auto theta = random_factors(40, 8, 622);
  const serve::FactorStore store(x, theta, 2);
  const serve::TopKEngine engine(store);
  serve::BatcherOptions bopt;
  bopt.k = 4;
  serve::RequestBatcher batcher(engine, bopt);

  std::mutex mu;
  std::vector<std::tuple<idx_t, idx_t, double>> seen;
  ServerOptions sopt;
  sopt.ingest = [&](idx_t user, idx_t item, double value) {
    if (user >= 16 || item >= 40) return false;
    std::lock_guard<std::mutex> lock(mu);
    seen.emplace_back(user, item, value);
    return true;
  };
  sopt.augment_stats = [](serve::ServeStats& s) {
    s.orchestrator.deltas_ingested = 77;
  };
  TcpServer server(batcher, sopt);

  Client client("127.0.0.1", server.port());
  EXPECT_EQ(client.add_rating(3, 7, 4.25), Status::kOk);
  EXPECT_EQ(client.add_rating(99, 7, 1.0), Status::kBadUser);
  // Pipelined deltas interleaved with a query keep request order per
  // connection, so the sink sees them in send order.
  client.send_add_rating(1, 1, 1.0);
  client.send_query(2, 4);
  client.send_add_rating(2, 2, 2.0);
  EXPECT_EQ(client.read_add_rating_response(), Status::kOk);
  EXPECT_EQ(client.read_query_response().status, Status::kOk);
  EXPECT_EQ(client.read_add_rating_response(), Status::kOk);

  {
    std::lock_guard<std::mutex> lock(mu);
    const std::vector<std::tuple<idx_t, idx_t, double>> want = {
        {3, 7, 4.25}, {1, 1, 1.0}, {2, 2, 2.0}};
    EXPECT_EQ(seen, want);
  }
  // GetMetrics reports the augmented orchestrator slice.
  const std::string text = client.metrics();
  EXPECT_EQ(
      metric_value(text, "cumf_orchestrator_deltas_total{result=\"ingested\"}"),
      77.0);
}

// ------------------------------------------------------ SLO health op ------

TEST(TcpServer, HealthWithoutMonitorAnswersZeroStates) {
  LoopbackFixture fx;
  Client client("127.0.0.1", fx.server->port());
  ASSERT_EQ(client.query(0, LoopbackFixture::kK).status, Status::kOk);

  const HealthResponse h = client.health();
  EXPECT_EQ(h.latency_state, 0);
  EXPECT_EQ(h.availability_state, 0);
  EXPECT_DOUBLE_EQ(h.latency_threshold_ms, 0.0);
  EXPECT_DOUBLE_EQ(h.latency_fast_burn, 0.0);
  EXPECT_EQ(h.latency_violations, 0u);
  EXPECT_TRUE(h.exemplars.empty());
  // The process-wide event tail rides even without a monitor.
  EXPECT_EQ(h.events_recorded, obs::EventLog::global().recorded());
}

TEST(TcpServer, SloHealthPagesUnderLoadAndDecaysWhenItStops) {
  // Trace every query so each SLO violation captures an exemplar with its
  // stage breakdown.
  obs::TraceCollector::Options topt;
  topt.sample_every = 1;
  obs::TraceCollector::global().enable(topt);

  // A monitor on a fake clock: the whole load burst lands in one 1-second
  // bucket, and decay is driven by advancing the clock, not by sleeping.
  std::atomic<std::uint64_t> fake_ms{0};
  obs::SloOptions slo_opt;
  slo_opt.latency_threshold_ms = 1e-3;  // every served query violates
  slo_opt.latency_objective = 0.99;
  slo_opt.fast_window_s = 1;
  slo_opt.slow_window_s = 1;
  obs::SloMonitor mon(slo_opt, &obs::EventLog::global(),
                      [&fake_ms] { return fake_ms.load(); });

  ServerOptions sopt;
  sopt.slo = &mon;
  LoopbackFixture fx(0, std::chrono::microseconds(2000), sopt);
  fx.batcher->set_slo(&mon);
  Client client("127.0.0.1", fx.server->port());

  constexpr int kQueries = 40;
  for (int i = 0; i < kQueries; ++i) {
    ASSERT_EQ(client.query(static_cast<idx_t>(i % LoopbackFixture::kUsers),
                           LoopbackFixture::kK)
                  .status,
              Status::kOk);
  }

  // Under load: every query blew the threshold, so the latency SLO pages
  // with a saturated fast burn, and the slowest offenders were captured.
  const HealthResponse paged = client.health();
  EXPECT_EQ(paged.latency_state, 2);  // page
  EXPECT_EQ(paged.availability_state, 0);
  EXPECT_GT(paged.latency_fast_burn, 0.0);
  EXPECT_NEAR(paged.latency_fast_burn, 100.0, 1e-6);  // all bad, budget 0.01
  EXPECT_EQ(paged.latency_violations, static_cast<std::uint64_t>(kQueries));
  EXPECT_DOUBLE_EQ(paged.latency_threshold_ms, 1e-3);
  ASSERT_FALSE(paged.exemplars.empty());
  for (const HealthExemplar& ex : paged.exemplars) {
    EXPECT_GT(ex.e2e_ms, 0.0);
    // The stage breakdown sums back to the end-to-end time by construction.
    EXPECT_NEAR(ex.queue_ms + ex.engine_ms + ex.finish_ms, ex.e2e_ms, 1e-3);
  }
  // Slowest first.
  for (std::size_t i = 1; i < paged.exemplars.size(); ++i) {
    EXPECT_LE(paged.exemplars[i].e2e_ms, paged.exemplars[i - 1].e2e_ms);
  }
  EXPECT_NE(paged.events_json.find("latency_slo_state"), std::string::npos);
  EXPECT_GT(paged.events_recorded, 0u);

  // Load stops and the windows empty: each health evaluation steps the
  // alert down one state — page, then warn, then ok. Hysteresis in reverse.
  fake_ms.store(10 * 1000);
  EXPECT_EQ(client.health().latency_state, 1);  // warn
  const HealthResponse cleared = client.health();
  EXPECT_EQ(cleared.latency_state, 0);  // ok
  EXPECT_DOUBLE_EQ(cleared.latency_fast_burn, 0.0);
  EXPECT_EQ(cleared.latency_transitions, 3u);  // ok->page->warn->ok

  // The incident trail is ordered in the event log: paged before cleared.
  const std::string events = obs::EventLog::global().export_json_lines();
  const std::size_t page_at = events.find(
      "\"message\":\"latency_slo_state\",\"args\":{\"from\":0,\"to\":2");
  const std::size_t ok_at = events.find(
      "\"message\":\"latency_slo_state\",\"args\":{\"from\":1,\"to\":0");
  EXPECT_NE(page_at, std::string::npos);
  EXPECT_NE(ok_at, std::string::npos);
  EXPECT_LT(page_at, ok_at);

  fx.batcher->set_slo(nullptr);  // detach before the monitor dies
  obs::TraceCollector::global().disable();
}

TEST(TcpServer, EdgeShedsFeedTheAvailabilitySlo) {
  // Same overload shape as OverloadShedsAtTheEdgeAndRecovers, now with a
  // monitor attached: every kOverloaded reply must burn availability budget.
  std::atomic<std::uint64_t> fake_ms{0};
  obs::SloOptions slo_opt;
  slo_opt.availability_objective = 0.99;
  slo_opt.fast_window_s = 1;
  slo_opt.slow_window_s = 1;
  obs::SloMonitor mon(slo_opt, nullptr, [&fake_ms] { return fake_ms.load(); });

  ServerOptions sopt;
  sopt.max_queued_replies = 4;
  sopt.slo = &mon;
  serve::BatcherOptions bopt;
  bopt.k = 6;
  bopt.max_batch = 1024;
  bopt.max_delay = std::chrono::microseconds(50000);

  const auto x = random_factors(30, 8, 601);
  const auto theta = random_factors(120, 8, 602);
  const serve::FactorStore store(x, theta, 3);
  const serve::TopKEngine engine(store);
  serve::RequestBatcher batcher(engine, bopt);
  batcher.set_slo(&mon);
  TcpServer server(batcher, sopt);
  Client client("127.0.0.1", server.port());

  constexpr int kQueries = 100;
  for (int i = 0; i < kQueries; ++i) client.send_query(i % 30, 6);
  int shed = 0;
  for (int i = 0; i < kQueries; ++i) {
    if (client.read_query_response().status == Status::kOverloaded) ++shed;
  }
  ASSERT_GT(shed, 0);
  EXPECT_EQ(mon.availability_errors(), static_cast<std::uint64_t>(shed));
  const HealthResponse h = client.health();
  EXPECT_GT(h.availability_fast_burn, 0.0);
  EXPECT_EQ(h.availability_errors, static_cast<std::uint64_t>(shed));
  batcher.set_slo(nullptr);
}

}  // namespace
}  // namespace cumf

// Network serving load generator: end-to-end latency over the wire.
//
// The serving benches so far measured the engine and batcher in-process;
// this one measures what a *user* sees — accept→reply across a real TCP
// socket — and what the queueing path adds on top of batch service time.
// Two load shapes against the same loopback server:
//
//  - closed loop: N connections, each waiting for its reply before sending
//    the next query. Concurrency is the lever: one connection pays the full
//    batcher deadline per query; many connections fill micro-batches and
//    ride the same flush.
//  - open loop: queries arrive on a schedule (offered qps) regardless of
//    completions, pipelined on one connection — the shape that exposes
//    queueing delay as load approaches capacity.
//
// Mid-run a fresh model generation is hot-swapped into the live store, so
// the CSV also shows the generation advancing under load. Client-measured
// e2e percentiles ride next to the server's own latency quantiles
// (queue-delay p99, batch-wall p99, net e2e) read from the GetMetrics
// exposition with obs::metric_value, and every row carries the latency SLO's
// fast-window burn rate plus lifetime violations fetched via the GetHealth
// op.
//
// The overload row doubles as a detect-and-recover check on the alerting
// pipeline: the dump must drive the availability SLO into `page` (sheds
// burn the error budget through 1 s / 2 s windows) and the quiet aftermath
// must decay it back out of `page` — the bench fails on either miss.
//
// ServeStats e2e p99 >= batch-wall p99 holds by construction on these runs
// (cache off: every query's end-to-end time contains its batch's wall time);
// the bench prints the check but, per repo convention, perf-shaped numbers
// never gate — correctness is pinned in tests/serve_net_test.cpp.
//
// Usage:
//   serve_netload                          # in-process loopback server
//   serve_netload --connect HOST PORT [USERS [K]]
//       client side only, against an external server (e.g.
//       `serve_recommendations --port 7070` in another terminal).
//   serve_netload --trace-out FILE
//       enable request tracing (sample_every=1) and dump the run's Chrome
//       trace-event JSON to FILE — load it in Perfetto/chrome://tracing to
//       see the mid-sweep hot swap land between decomposed queries.
//   serve_netload --devices N
//       in-process mode only: serve from a MultiDeviceScoringBackend over N
//       simulated devices (model-parallel scatter-gather path), wired into
//       the live store's admission hook so the mid-run hot swap exercises
//       all-or-nothing multi-device generation charging.
//   serve_netload --conns N
//       connection count for the sharded open-loop sweep (default 1000).
//   serve_netload --slo-report
//       print an end-of-run SLO health summary fetched over the wire with
//       the GetHealth op (alert states, burn rates, slow-query exemplars).
//   serve_netload --events-out FILE
//       dump the structured event log (obs/events.hpp) as JSON lines to
//       FILE on the way out — the overload phase's shed events included.
//
// Beyond the closed/open loops, a sharded sweep drives the server the way a
// real edge does: N concurrent connections (default 1000) fed from one
// epoll-based load generator, with two open-loop arrival shapes —
//
//  - bursty: on/off traffic, 25 ms bursts at 4× the mean rate then silence,
//    the shape that stresses accept→reply tail latency through the io
//    shards' completion lanes;
//  - diurnal: a sinusoidal rate swinging ±80% around the mean (one "day"
//    per 400 ms), the slow swell a fleet planner provisions for.
//
// The run then snapshots ServeStats and feeds measured_serving_profile →
// plan_serving_fleet, so the printed fleet plan's queue floor reflects the
// sharded front-end tail (net_e2e p99 minus one median batch), not just
// in-process batcher queueing. Finally an *overload* row floods a second
// server (same batcher, max_queued_replies=32) with an unthrottled dump:
// the expected outcome is kOverloaded shedding at the edge — bounded
// memory, connection kept, immediate recovery — and the bench fails if no
// shed is observed.
//
// CSV: bench_results/serve_netload.csv

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <arpa/inet.h>
#include <sys/epoll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "costmodel/machines.hpp"
#include "costmodel/serving_fleet.hpp"
#include "gpusim/device_group.hpp"
#include "gpusim/device_spec.hpp"
#include "gpusim/topology.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "serve/batcher.hpp"
#include "serve/multi_device_backend.hpp"
#include "serve/factor_store.hpp"
#include "serve/live_store.hpp"
#include "serve/net/client.hpp"
#include "serve/net/server.hpp"
#include "serve/topk.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace cumf;
using serve::net::Client;
using serve::net::Status;

constexpr int kF = 16;
constexpr int kTopK = 10;

linalg::FactorMatrix random_factors(idx_t rows, int f, std::uint64_t seed) {
  linalg::FactorMatrix m(rows, f);
  util::Rng rng(seed);
  m.randomize_uniform(rng, -1.0f, 1.0f);
  return m;
}

std::vector<idx_t> zipf_stream(idx_t users, int n, std::uint64_t seed) {
  std::vector<idx_t> stream(static_cast<std::size_t>(n));
  util::Rng rng(seed);
  for (auto& u : stream) {
    u = static_cast<idx_t>(rng.zipf(static_cast<std::uint64_t>(users), 1.1));
  }
  return stream;
}

/// A model generation change observed in a connection's reply stream — the
/// client-side view of a hot swap landing (promotion timing, satellite of
/// the retrain orchestrator: with --connect against a --daemon server these
/// are the orchestrator's promotions/rollbacks as the wire reports them).
struct GenTransition {
  int conn = 0;
  int query = 0;  // 0-based index within that connection's stream
  std::uint64_t from = 0;
  std::uint64_t to = 0;
};

struct LoadResult {
  int queries = 0;
  int errors = 0;
  int overloaded = 0;  // replies shed with Status::kOverloaded (not errors)
  double wall_s = 0.0;
  double achieved_qps = 0.0;
  serve::LatencySummary e2e;  // client-measured send→reply
  std::vector<GenTransition> transitions;
};

void print_transitions(const LoadResult& r) {
  for (const auto& t : r.transitions) {
    std::printf("    generation %llu -> %llu observed at conn %d query #%d "
                "of %d\n",
                static_cast<unsigned long long>(t.from),
                static_cast<unsigned long long>(t.to), t.conn, t.query,
                r.queries);
  }
}

/// N connections, one outstanding query each.
LoadResult closed_loop(const std::string& host, std::uint16_t port, int conns,
                       int per_conn, idx_t users, int k) {
  LoadResult r;
  serve::LatencyTracker e2e;
  std::atomic<int> errors{0};
  std::mutex transitions_mu;
  std::vector<GenTransition> transitions;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(conns));
  util::Stopwatch wall;
  for (int c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      Client client(host, port);
      const auto stream =
          zipf_stream(users, per_conn, 900 + static_cast<std::uint64_t>(c));
      std::uint64_t last_gen = 0;
      int idx = 0;
      for (const idx_t u : stream) {
        util::Stopwatch q;
        const auto resp = client.query(u, k);
        e2e.record(q.milliseconds());
        if (resp.status != Status::kOk) errors.fetch_add(1);
        if (resp.generation != last_gen) {
          if (last_gen != 0) {  // first reply just establishes the baseline
            std::lock_guard<std::mutex> lock(transitions_mu);
            transitions.push_back({c, idx, last_gen, resp.generation});
          }
          last_gen = resp.generation;
        }
        ++idx;
      }
    });
  }
  for (auto& t : threads) t.join();
  r.transitions = std::move(transitions);
  r.wall_s = wall.seconds();
  r.queries = conns * per_conn;
  r.errors = errors.load();
  r.achieved_qps = r.queries / r.wall_s;
  r.e2e = e2e.summary();
  return r;
}

/// One pipelined connection, queries sent on a fixed schedule. The sender
/// and reader share the Client: its send and receive paths touch disjoint
/// state, so one writer thread plus one reader thread is safe.
LoadResult open_loop(const std::string& host, std::uint16_t port,
                     double offered_qps, int total, idx_t users, int k) {
  LoadResult r;
  serve::LatencyTracker e2e;
  Client client(host, port);

  std::mutex mu;
  std::deque<std::chrono::steady_clock::time_point> sent;
  std::atomic<int> errors{0};

  std::vector<GenTransition> transitions;
  std::thread reader([&] {
    std::uint64_t last_gen = 0;
    for (int i = 0; i < total; ++i) {
      const auto resp = client.read_query_response();
      std::chrono::steady_clock::time_point t0;
      {
        std::lock_guard<std::mutex> lock(mu);
        t0 = sent.front();
        sent.pop_front();
      }
      e2e.record(std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0)
                     .count());
      if (resp.status != Status::kOk) errors.fetch_add(1);
      if (resp.generation != last_gen) {
        if (last_gen != 0) transitions.push_back({0, i, last_gen, resp.generation});
        last_gen = resp.generation;
      }
    }
  });

  const auto stream = zipf_stream(users, total, 950);
  const auto period = std::chrono::duration_cast<
      std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(1.0 / offered_qps));
  util::Stopwatch wall;
  auto next = std::chrono::steady_clock::now();
  for (const idx_t u : stream) {
    std::this_thread::sleep_until(next);  // no-op once the sender is behind
    next += period;
    {
      std::lock_guard<std::mutex> lock(mu);
      sent.push_back(std::chrono::steady_clock::now());
    }
    client.send_query(u, k);
  }
  reader.join();
  r.wall_s = wall.seconds();
  r.queries = total;
  r.errors = errors.load();
  r.achieved_qps = total / r.wall_s;
  r.e2e = e2e.summary();
  r.transitions = std::move(transitions);
  return r;
}

// ---- sharded sweep: many connections, one epoll load generator ------------

enum class Shape { kBursty, kDiurnal, kUnthrottled };

const char* shape_name(Shape s) {
  switch (s) {
    case Shape::kBursty:
      return "bursty";
    case Shape::kDiurnal:
      return "diurnal";
    case Shape::kUnthrottled:
      return "overload";
  }
  return "?";
}

/// Arrival offsets (seconds from run start) for `total` queries at mean rate
/// `offered`. Bursty: 25 ms on at 4× the mean, 75 ms off. Diurnal: rate
/// swings ±80% around the mean, one period per 400 ms. Unthrottled: all due
/// immediately (the overload dump).
std::vector<double> arrival_schedule(Shape shape, double offered, int total) {
  std::vector<double> at(static_cast<std::size_t>(total), 0.0);
  if (shape == Shape::kUnthrottled) return at;
  if (shape == Shape::kBursty) {
    constexpr double kCycle = 0.100, kOn = 0.025;
    const double burst_rate = offered * (kCycle / kOn);
    int i = 0;
    double cycle_start = 0.0;
    while (i < total) {
      double t = cycle_start;
      while (i < total && t < cycle_start + kOn) {
        at[static_cast<std::size_t>(i++)] = t;
        t += 1.0 / burst_rate;
      }
      cycle_start += kCycle;
    }
    return at;
  }
  constexpr double kPi = 3.14159265358979323846;
  constexpr double kDay = 0.400;
  double t = 0.0;
  for (int i = 0; i < total; ++i) {
    const double rate = offered * (1.0 + 0.8 * std::sin(2.0 * kPi * t / kDay));
    t += 1.0 / std::max(rate, offered * 0.05);
    at[static_cast<std::size_t>(i)] = t;
  }
  return at;
}

struct RawConn {
  int fd = -1;
  std::vector<std::uint8_t> out;  // encoded frames not yet written
  std::size_t out_off = 0;
  std::vector<std::uint8_t> in;  // read accumulation
  std::deque<std::chrono::steady_clock::time_point> t0s;  // send times, FIFO
  std::uint32_t armed = EPOLLIN;
};

/// Drains conn.out into the socket; false on a hard send error.
bool raw_flush(RawConn& c) {
  while (c.out.size() > c.out_off) {
    const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                             c.out.size() - c.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      c.out_off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  if (c.out_off == c.out.size()) {
    c.out.clear();
    c.out_off = 0;
  }
  return true;
}

void raw_arm(int epfd, int index, RawConn& c) {
  std::uint32_t want = EPOLLIN;
  if (c.out.size() > c.out_off) want |= EPOLLOUT;
  if (want == c.armed) return;
  epoll_event ev{};
  ev.events = want;
  ev.data.u32 = static_cast<std::uint32_t>(index);
  (void)::epoll_ctl(epfd, EPOLL_CTL_MOD, c.fd, &ev);
  c.armed = want;
}

/// Open-loop load over `conns` concurrent connections from a single epoll
/// loop: arrivals follow `shape`, each assigned round-robin, replies parsed
/// per connection in order. kOverloaded replies are counted separately from
/// errors — shedding is the protocol working, not a failure.
LoadResult open_loop_sharded(const std::string& host, std::uint16_t port,
                             Shape shape, int conns, double offered, int total,
                             idx_t users, int k) {
  LoadResult r;
  serve::LatencyTracker e2e;
  const int epfd = ::epoll_create1(EPOLL_CLOEXEC);
  if (epfd < 0) {
    std::fprintf(stderr, "FATAL: epoll_create1: %s\n", std::strerror(errno));
    std::exit(1);
  }

  std::vector<RawConn> pool(static_cast<std::size_t>(conns));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    std::fprintf(stderr, "FATAL: bad host %s\n", host.c_str());
    std::exit(1);
  }
  for (int i = 0; i < conns; ++i) {
    RawConn& c = pool[static_cast<std::size_t>(i)];
    c.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (c.fd < 0 ||
        ::connect(c.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
            0) {
      std::fprintf(stderr, "FATAL: connect %d/%d: %s\n", i, conns,
                   std::strerror(errno));
      std::exit(1);
    }
    int one = 1;
    (void)setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    (void)::fcntl(c.fd, F_SETFL, O_NONBLOCK);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u32 = static_cast<std::uint32_t>(i);
    if (::epoll_ctl(epfd, EPOLL_CTL_ADD, c.fd, &ev) < 0) {
      std::fprintf(stderr, "FATAL: epoll_ctl: %s\n", std::strerror(errno));
      std::exit(1);
    }
  }

  const auto schedule = arrival_schedule(shape, offered, total);
  const auto stream = zipf_stream(users, total, 960);
  int sent = 0, answered = 0, lost = 0, ok = 0, overloaded = 0, errors = 0;
  epoll_event events[256];
  util::Stopwatch wall;
  const auto start = std::chrono::steady_clock::now();

  auto on_readable = [&](RawConn& c) {
    char buf[16384];
    for (;;) {
      const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
      if (n > 0) {
        c.in.insert(c.in.end(), buf, buf + n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      // Server closed (or reset) the connection: its pending replies are
      // lost. Under these sweeps that is a failure — the server is expected
      // to shed with kOverloaded, not by killing connections.
      lost += static_cast<int>(c.t0s.size());
      errors += static_cast<int>(c.t0s.size());
      c.t0s.clear();
      (void)::epoll_ctl(epfd, EPOLL_CTL_DEL, c.fd, nullptr);
      ::close(c.fd);
      c.fd = -1;
      return;
    }
    std::size_t consumed = 0;
    for (;;) {
      std::size_t off = 0, len = 0;
      if (!serve::net::try_frame(c.in.data() + consumed,
                                 c.in.size() - consumed, &off, &len)) {
        break;
      }
      serve::net::QueryResponse query;
      (void)serve::net::decode_response(c.in.data() + consumed + off, len,
                                        &query);
      e2e.record(std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - c.t0s.front())
                     .count());
      c.t0s.pop_front();
      ++answered;
      if (query.status == Status::kOk) {
        ++ok;
      } else if (query.status == Status::kOverloaded) {
        ++overloaded;
      } else {
        ++errors;
      }
      consumed += off + len;
    }
    if (consumed > 0) {
      c.in.erase(c.in.begin(),
                 c.in.begin() + static_cast<std::ptrdiff_t>(consumed));
    }
  };

  while (answered + lost < total) {
    const auto now = std::chrono::steady_clock::now();
    // Queue every arrival that is due onto its connection.
    while (sent < total) {
      const auto due =
          start + std::chrono::duration_cast<
                      std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(
                          schedule[static_cast<std::size_t>(sent)]));
      if (due > now) break;
      RawConn& c = pool[static_cast<std::size_t>(sent % conns)];
      if (c.fd < 0) {  // connection already lost; count and move on
        ++lost;
        ++errors;
        ++sent;
        continue;
      }
      serve::net::encode_query_request(
          {stream[static_cast<std::size_t>(sent)], static_cast<std::int32_t>(k)},
          &c.out);
      c.t0s.push_back(now);
      ++sent;
      if (!raw_flush(c)) {
        lost += static_cast<int>(c.t0s.size());
        errors += static_cast<int>(c.t0s.size());
        c.t0s.clear();
        (void)::epoll_ctl(epfd, EPOLL_CTL_DEL, c.fd, nullptr);
        ::close(c.fd);
        c.fd = -1;
        continue;
      }
      raw_arm(epfd, (sent - 1) % conns, c);
    }

    int timeout_ms = 100;
    if (sent < total) {
      const double dt =
          schedule[static_cast<std::size_t>(sent)] -
          std::chrono::duration<double>(now - start).count();
      timeout_ms = std::clamp(static_cast<int>(dt * 1e3) + 1, 0, 100);
    }
    const int nev = ::epoll_wait(epfd, events, 256, timeout_ms);
    for (int i = 0; i < nev; ++i) {
      RawConn& c = pool[events[i].data.u32];
      if (c.fd < 0) continue;
      if ((events[i].events & EPOLLIN) != 0) on_readable(c);
      if (c.fd < 0) continue;
      if ((events[i].events & (EPOLLOUT | EPOLLERR | EPOLLHUP)) != 0) {
        if (!raw_flush(c)) {
          lost += static_cast<int>(c.t0s.size());
          errors += static_cast<int>(c.t0s.size());
          c.t0s.clear();
          (void)::epoll_ctl(epfd, EPOLL_CTL_DEL, c.fd, nullptr);
          ::close(c.fd);
          c.fd = -1;
          continue;
        }
      }
      raw_arm(epfd, static_cast<int>(events[i].data.u32), c);
    }
  }

  r.wall_s = wall.seconds();
  for (auto& c : pool) {
    if (c.fd >= 0) ::close(c.fd);
  }
  ::close(epfd);
  r.queries = total;
  r.errors = errors;
  r.overloaded = overloaded;
  r.achieved_qps = answered > 0 ? answered / r.wall_s : 0.0;
  r.e2e = e2e.summary();
  (void)ok;
  return r;
}

/// The server-side figures a CSV row carries, read from the GetMetrics
/// exposition — the same series a dashboard scrapes.
struct ServerView {
  double queue_p50_ms = 0.0;
  double queue_p99_ms = 0.0;
  double batch_wall_p99_ms = 0.0;
  double net_e2e_p99_ms = 0.0;
  double e2e_p99_ms = 0.0;
  std::uint64_t e2e_total = 0;  // lifetime e2e samples recorded
  std::uint64_t generation = 0;
  std::uint64_t overload_sheds = 0;
};

/// One series of the exposition. A missing series means a metric family was
/// renamed under the bench, so it fails loudly instead of writing zeros.
double series(const std::string& text, const std::string& name) {
  const auto v = obs::metric_value(text, name);
  if (!v) throw std::runtime_error("serve_netload: exposition lacks " + name);
  return *v;
}

double quantile_ms(const std::string& text, const char* stage, const char* q) {
  return series(text, std::string("cumf_serve_latency_quantile_ms{stage=\"") +
                          stage + "\",q=\"" + q + "\"}");
}

ServerView server_view(Client& client) {
  const std::string text = client.metrics();
  ServerView v;
  v.queue_p50_ms = quantile_ms(text, "queue", "0.5");
  v.queue_p99_ms = quantile_ms(text, "queue", "0.99");
  v.batch_wall_p99_ms = quantile_ms(text, "batch_wall", "0.99");
  v.net_e2e_p99_ms = quantile_ms(text, "net_e2e", "0.99");
  v.e2e_p99_ms = quantile_ms(text, "e2e", "0.99");
  v.e2e_total = static_cast<std::uint64_t>(
      series(text, "cumf_serve_latency_ms_count{stage=\"e2e\"}"));
  v.generation =
      static_cast<std::uint64_t>(series(text, "cumf_serve_generation"));
  v.overload_sheds =
      static_cast<std::uint64_t>(series(text, "cumf_net_overload_sheds_total"));
  return v;
}

ServerView wire_view(const std::string& host, std::uint16_t port) {
  Client client(host, port);
  return server_view(client);
}

serve::net::HealthResponse wire_health(const std::string& host,
                                       std::uint16_t port) {
  Client client(host, port);
  return client.health();
}

void emit(util::CsvWriter& csv, const char* mode, int conns,
          double offered_qps, const LoadResult& r, const ServerView& s,
          const serve::net::HealthResponse& h) {
  std::printf("  %-8s %6d %11.0f %11.0f %9.2f %9.2f %9.2f %11.2f %13.2f %6d "
              "%4llu\n",
              mode, conns, offered_qps, r.achieved_qps, r.e2e.p50_ms,
              r.e2e.p95_ms, r.e2e.p99_ms, s.queue_p99_ms, s.batch_wall_p99_ms,
              r.overloaded, static_cast<unsigned long long>(s.generation));
  csv.row(mode, conns, offered_qps, r.achieved_qps, r.queries, r.e2e.p50_ms,
          r.e2e.p95_ms, r.e2e.p99_ms, r.e2e.samples, r.e2e.total_recorded,
          s.queue_p50_ms, s.queue_p99_ms, s.batch_wall_p99_ms,
          s.net_e2e_p99_ms, s.e2e_p99_ms, r.overloaded, s.generation,
          h.latency_fast_burn, h.latency_violations);
}

const char* wire_state_name(std::uint8_t state) {
  return obs::alert_state_name(static_cast<obs::AlertState>(state));
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  idx_t users = 1500;
  int k = kTopK;

  // Strip --trace-out FILE / --devices N / --conns N / --slo-report /
  // --events-out FILE before the positional --connect parsing.
  std::string trace_out;
  std::string events_out;
  bool slo_report = false;
  int devices = 1;
  int sweep_conns = 1000;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
      continue;
    }
    if (std::strcmp(argv[i], "--events-out") == 0 && i + 1 < argc) {
      events_out = argv[++i];
      continue;
    }
    if (std::strcmp(argv[i], "--slo-report") == 0) {
      slo_report = true;
      continue;
    }
    if (std::strcmp(argv[i], "--devices") == 0 && i + 1 < argc) {
      devices = std::max(1, std::atoi(argv[++i]));
      continue;
    }
    if (std::strcmp(argv[i], "--conns") == 0 && i + 1 < argc) {
      sweep_conns = std::max(4, std::atoi(argv[++i]));
      continue;
    }
    args.push_back(argv[i]);
  }

  // The sharded sweep holds sweep_conns client sockets plus the server's
  // side of each in one process; lift the fd ceiling to the hard limit.
  rlimit nofile{};
  if (::getrlimit(RLIMIT_NOFILE, &nofile) == 0 &&
      nofile.rlim_cur < nofile.rlim_max) {
    nofile.rlim_cur = nofile.rlim_max;
    (void)::setrlimit(RLIMIT_NOFILE, &nofile);
  }
  const int nargs = static_cast<int>(args.size());

  const bool external = nargs > 1 && std::strcmp(args[1], "--connect") == 0;
  if (external) {
    if (nargs < 4) {
      std::fprintf(stderr,
                   "usage: %s [--connect HOST PORT [USERS [K]]] "
                   "[--trace-out FILE]\n",
                   argv[0]);
      return 2;
    }
    host = args[2];
    port = static_cast<std::uint16_t>(std::atoi(args[3]));
    if (nargs > 4) users = static_cast<idx_t>(std::atoi(args[4]));
    if (nargs > 5) k = std::atoi(args[5]);
  }

  if (!trace_out.empty()) {
    // Trace everything: the point of a bench trace is one fully decomposed
    // timeline, not statistical sampling. The ring is sized to retain the
    // whole run, so the mid-sweep store.swap instant survives to the export
    // instead of being overwritten by the load that follows it.
    obs::TraceCollector::Options topt;
    topt.capacity = 1 << 18;
    obs::TraceCollector::global().enable(topt);
  }

  bench::print_header("serve_netload",
                      "TCP front-end: e2e latency & queueing vs offered load");

  // Latency + availability SLOs over the in-process server's traffic; every
  // CSV row carries its fast-window burn. The threshold sits at 25 ms so
  // ordinary sweeps stay inside budget while queueing spikes show up as
  // burn. Declared before the serving stack so it outlives the batcher's
  // flusher and the server's shed path.
  obs::SloOptions slo_opt;
  slo_opt.latency_threshold_ms = 25.0;
  obs::SloMonitor slo_main(slo_opt, &obs::EventLog::global());

  // In-process loopback stack (skipped with --connect): a live store so a
  // fresh generation can be hot-swapped in mid-run.
  std::unique_ptr<serve::LiveFactorStore> live;
  std::unique_ptr<gpusim::PcieTopology> topo;
  std::unique_ptr<gpusim::DeviceGroup> group;
  std::unique_ptr<serve::MultiDeviceScoringBackend> md_backend;
  std::unique_ptr<serve::TopKEngine> engine;
  std::unique_ptr<serve::RequestBatcher> batcher;
  std::unique_ptr<serve::net::TcpServer> server;
  if (!external) {
    constexpr idx_t kItems = 3000;
    live = std::make_unique<serve::LiveFactorStore>(
        serve::FactorStore(random_factors(users, kF, 701),
                           random_factors(kItems, kF, 702), 2));
    serve::TopKOptions topt_engine;
    if (devices > 1) {
      // Model-parallel serving: shards spread across the group, and the
      // admission hook makes hot swaps all-or-nothing across devices.
      topo = std::make_unique<gpusim::PcieTopology>(
          gpusim::PcieTopology::flat(devices));
      group = std::make_unique<gpusim::DeviceGroup>(devices, gpusim::titan_x(),
                                                    *topo);
      md_backend =
          std::make_unique<serve::MultiDeviceScoringBackend>(*group, *topo);
      topt_engine.backend = md_backend.get();
      live->set_admission_hook(
          [backend = md_backend.get()](
              const std::shared_ptr<const serve::FactorStore>& s) {
            backend->admit(s);
          });
    }
    engine = std::make_unique<serve::TopKEngine>(*live, topt_engine);
    serve::BatcherOptions opt;
    opt.k = k;
    opt.max_batch = 32;
    opt.max_delay = std::chrono::microseconds(1000);
    opt.cache_capacity = 0;  // pure queueing measurement, no hit shortcut
    batcher = std::make_unique<serve::RequestBatcher>(*engine, opt);
    batcher->set_slo(&slo_main);
    serve::net::ServerOptions sopt;
    sopt.io_threads = 4;
    sopt.backlog = 1024;
    sopt.max_connections =
        static_cast<std::size_t>(std::max(4096, sweep_conns * 2));
    sopt.slo = &slo_main;
    server = std::make_unique<serve::net::TcpServer>(*batcher, sopt);
    port = server->port();
    std::printf("  loopback server on 127.0.0.1:%u — %d users × %d items, "
                "f=%d, top-%d, max_batch 32, max_delay 1 ms, cache off, "
                "%d device(s), %d io shards\n",
                port, users, kItems, kF, k, devices, server->io_shards());
  } else {
    std::printf("  external server %s:%u — users=%d k=%d\n", host.c_str(),
                port, users, k);
  }

  util::CsvWriter csv(
      bench::results_dir() + "/serve_netload.csv",
      {"mode", "conns", "offered_qps", "achieved_qps", "queries", "e2e_p50_ms",
       "e2e_p95_ms", "e2e_p99_ms", "e2e_samples", "e2e_total", "queue_p50_ms",
       "queue_p99_ms", "batch_wall_p99_ms", "net_e2e_p99_ms",
       "server_e2e_p99_ms", "overloaded", "generation", "slo_latency_burn",
       "slo_violations"});

  std::printf("\n  %-8s %6s %11s %11s %9s %9s %9s %11s %13s %6s %4s\n", "mode",
              "conns", "offered", "achieved", "p50(ms)", "p95(ms)", "p99(ms)",
              "queue_p99", "batch_p99", "shed", "gen");

  int total_errors = 0;

  // ---- closed loop: concurrency fills micro-batches ----------------------
  for (const int conns : {1, 4, 16}) {
    const auto r = closed_loop(host, port, conns, 250, users, k);
    emit(csv, "closed", conns, 0.0, r, wire_view(host, port),
         wire_health(host, port));
    print_transitions(r);  // hot swaps visible from the client side
    total_errors += r.errors;
  }

  // ---- open loop: offered load sweeps toward capacity --------------------
  // A fresh generation lands mid-sweep (in-process mode): the generation
  // column advances while queries keep flowing.
  std::thread swapper;
  if (!external) {
    swapper = std::thread([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(150));
      (void)live->refresh(serve::FactorStore(random_factors(users, kF, 711),
                                             random_factors(3000, kF, 712),
                                             2));
    });
  }
  for (const double offered : {2000.0, 8000.0, 20000.0}) {
    const int total = std::min(6000, static_cast<int>(offered * 0.4));
    const auto r = open_loop(host, port, offered, total, users, k);
    emit(csv, "open", 1, offered, r, wire_view(host, port),
         wire_health(host, port));
    print_transitions(r);  // the mid-sweep swap (or a --daemon promotion)
    total_errors += r.errors;
  }
  if (swapper.joinable()) swapper.join();

  // ---- sharded sweep: 1k connections, bursty and diurnal arrivals --------
  // Mean offered load sits well under capacity (the "pre-PR" operating
  // point): the run must complete with zero errors and zero sheds — the
  // tail the CSV captures is pure accept→reply latency through the shards.
  const double sweep_qps = 2000.0;
  const int sweep_total = 3000;
  for (const auto& [shape, conns] :
       {std::pair<Shape, int>{Shape::kBursty, std::max(4, sweep_conns / 4)},
        {Shape::kBursty, sweep_conns},
        {Shape::kDiurnal, sweep_conns}}) {
    const auto r = open_loop_sharded(host, port, shape, conns, sweep_qps,
                                     sweep_total, users, k);
    emit(csv, shape_name(shape), conns, sweep_qps, r, wire_view(host, port),
         wire_health(host, port));
    total_errors += r.errors + r.overloaded;  // sheds are failures *here*
  }

  // ---- fleet plan fed from the live front-end ----------------------------
  // measured_serving_profile floors the planner's queueing on the wire tail
  // (net_e2e p99 − one median batch) the sharded sweep just produced.
  if (!external) {
    const serve::ServeStats live_stats = server->stats();
    const auto profile = costmodel::measured_serving_profile(live_stats, 32);
    costmodel::FleetRequirement req;
    req.target_qps = 4000.0;
    req.p99_ms = 25.0;
    req.max_fill_ms = 1.0;
    std::printf("\n  fleet plan @ %.0f qps, p99 ≤ %.0f ms (queue floor "
                "%.2f ms from the sharded front-end):\n",
                req.target_qps, req.p99_ms, profile.queue_floor_s * 1e3);
    for (const auto& pd : costmodel::priced_serving_devices()) {
      const auto plan = costmodel::plan_serving_fleet(
          req, pd.spec, pd.pricing.price_per_device_hr, profile);
      std::printf("    %-8s %s: %d device(s), modeled p99 %.2f ms, "
                  "$%.2f/hr, %.0f qps/$hr\n",
                  pd.spec.name.c_str(), plan.feasible ? "ok" : "infeasible",
                  plan.devices, plan.modeled_p99_ms, plan.dollars_per_hr,
                  plan.qps_per_dollar_hr);
    }
  }

  // ---- overload: unthrottled dump against a tight admission bound --------
  // A second server shares the batcher but caps each completion lane at 32
  // queued queries; dumping far more than capacity must surface as
  // kOverloaded sheds at the edge (bounded memory, connections kept) — not
  // as errors, closed sockets, or unbounded queueing.
  if (!external) {
    serve::net::ServerOptions oopt;
    oopt.io_threads = 2;
    oopt.backlog = 512;
    oopt.max_connections = 1024;
    oopt.max_queued_replies = 32;
    // A dedicated monitor with tight 1 s / 2 s windows watches the overload:
    // sheds must burn the availability budget into `page` during the dump,
    // and the quiet aftermath must decay the alert back out of `page` —
    // detect and recover, asserted below.
    obs::SloOptions oslo_opt;
    oslo_opt.latency_threshold_ms = 25.0;
    oslo_opt.fast_window_s = 1;
    oslo_opt.slow_window_s = 2;
    obs::SloMonitor overload_slo(oslo_opt, &obs::EventLog::global());
    oopt.slo = &overload_slo;
    batcher->set_slo(&overload_slo);
    serve::net::TcpServer overload_server(*batcher, oopt);
    const int oconns = 200, ototal = 4000;
    const auto r = open_loop_sharded("127.0.0.1", overload_server.port(),
                                     Shape::kUnthrottled, oconns, 0.0, ototal,
                                     users, k);
    const auto during = overload_slo.snapshot();
    ServerView os;
    serve::net::HealthResponse oh;
    {
      Client probe("127.0.0.1", overload_server.port());
      os = server_view(probe);
      oh = probe.health();
      // Recovery: with the dump drained the same admission bound serves
      // normally again.
      const auto after = probe.query(0, k);
      if (after.status != Status::kOk) {
        std::fprintf(stderr, "FATAL: no recovery after overload (status %d)\n",
                     static_cast<int>(after.status));
        return 1;
      }
    }
    emit(csv, "overload", oconns, 0.0, r, os, oh);
    std::printf("    overload dump: %d queries -> %d served, %d shed "
                "(server counter %llu), %d errors\n",
                ototal, ototal - r.overloaded - r.errors, r.overloaded,
                static_cast<unsigned long long>(os.overload_sheds),
                r.errors);
    total_errors += r.errors;
    if (r.overloaded == 0) {
      std::fprintf(stderr, "FATAL: overload dump produced no kOverloaded "
                           "sheds — admission control is not engaging\n");
      return 1;
    }
    if (during.availability.state != obs::AlertState::kPage) {
      std::fprintf(stderr,
                   "FATAL: overload dump did not page the availability SLO "
                   "(state %s, fast burn %.1f, slow burn %.1f)\n",
                   obs::alert_state_name(during.availability.state),
                   during.availability.fast_burn,
                   during.availability.slow_burn);
      return 1;
    }
    std::printf("    availability SLO paged during the dump (fast burn %.0f, "
                "slow burn %.0f); waiting for the alert to clear...\n",
                during.availability.fast_burn, during.availability.slow_burn);
    // Leave `page`: with the dump over, the 1 s / 2 s windows empty out and
    // the hysteretic state machine steps down one level per evaluation.
    obs::AlertState settled = obs::AlertState::kPage;
    for (int i = 0; i < 40 && settled == obs::AlertState::kPage; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(250));
      settled = overload_slo.snapshot().availability.state;
    }
    if (settled == obs::AlertState::kPage) {
      std::fprintf(stderr, "FATAL: availability SLO still paging 10 s after "
                           "the overload dump ended\n");
      return 1;
    }
    std::printf("    availability SLO recovered to %s after the dump "
                "(%llu transitions)\n",
                obs::alert_state_name(settled),
                static_cast<unsigned long long>(
                    overload_slo.snapshot().availability.transitions));
    batcher->set_slo(&slo_main);  // overload_slo dies with this block
  }

  // ---- the accounting invariant, printed for the record ------------------
  const auto s = wire_view(host, port);
  std::printf("\n  server e2e p99 %.2f ms >= batch-wall p99 %.2f ms: %s "
              "(holds by construction: cache off, every query contains its "
              "batch)\n",
              s.e2e_p99_ms, s.batch_wall_p99_ms,
              s.e2e_p99_ms >= s.batch_wall_p99_ms ? "yes" : "NO (?)");
  std::printf("  e2e percentiles over the recent window "
              "(%llu recorded lifetime); queue-delay p99 %.2f ms\n",
              static_cast<unsigned long long>(s.e2e_total), s.queue_p99_ms);
  if (!external) {
    std::printf("  final serving generation: %llu (one hot swap mid-sweep)\n",
                static_cast<unsigned long long>(s.generation));
  }
  if (slo_report) {
    // The same view a dashboard would poll: GetHealth over the wire.
    const auto h = wire_health(host, port);
    std::printf("\n  SLO report (GetHealth, threshold %.1f ms):\n"
                "    latency      %-4s  fast burn %6.2f  slow burn %6.2f  "
                "%llu violations, %llu transitions\n"
                "    availability %-4s  fast burn %6.2f  slow burn %6.2f  "
                "%llu errors, %llu transitions\n",
                h.latency_threshold_ms, wire_state_name(h.latency_state),
                h.latency_fast_burn, h.latency_slow_burn,
                static_cast<unsigned long long>(h.latency_violations),
                static_cast<unsigned long long>(h.latency_transitions),
                wire_state_name(h.availability_state),
                h.availability_fast_burn, h.availability_slow_burn,
                static_cast<unsigned long long>(h.availability_errors),
                static_cast<unsigned long long>(h.availability_transitions));
    for (const auto& ex : h.exemplars) {
      std::printf("    slow query: user %llu  e2e %.3f ms = queue %.3f + "
                  "engine %.3f + finish %.3f\n",
                  static_cast<unsigned long long>(ex.user), ex.e2e_ms,
                  ex.queue_ms, ex.engine_ms, ex.finish_ms);
    }
    std::printf("    events: %llu recorded, %llu dropped\n",
                static_cast<unsigned long long>(h.events_recorded),
                static_cast<unsigned long long>(h.events_dropped));
  }
  if (!events_out.empty()) {
    auto& events = obs::EventLog::global();
    if (events.write_json_lines(events_out)) {
      std::printf("  events: %llu recorded (%llu dropped by ring wrap) -> "
                  "%s\n",
                  static_cast<unsigned long long>(events.recorded()),
                  static_cast<unsigned long long>(events.dropped()),
                  events_out.c_str());
    } else {
      std::fprintf(stderr, "FATAL: could not write events to %s\n",
                   events_out.c_str());
      return 1;
    }
  }
  if (!trace_out.empty()) {
    auto& trace = obs::TraceCollector::global();
    trace.disable();
    if (trace.write_chrome_json(trace_out)) {
      std::printf("  trace: %llu events (%llu dropped by ring wrap) -> %s\n",
                  static_cast<unsigned long long>(trace.events_recorded()),
                  static_cast<unsigned long long>(trace.events_dropped()),
                  trace_out.c_str());
    } else {
      std::fprintf(stderr, "FATAL: could not write trace to %s\n",
                   trace_out.c_str());
      return 1;
    }
  }
  if (total_errors > 0) {
    std::fprintf(stderr, "FATAL: %d queries returned a non-OK status\n",
                 total_errors);
    return 1;
  }
  return 0;
}

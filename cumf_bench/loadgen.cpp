#include "loadgen.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <thread>

#include "obs/trace.hpp"
#include "serve/net/client.hpp"

namespace cumf::bench {

namespace net = serve::net;

Traffic uniform_reads(idx_t users) {
  const auto n = static_cast<std::uint64_t>(users);
  return {[n](util::Rng& rng) { return static_cast<idx_t>(rng.next_below(n)); },
          nullptr};
}

void LoadResult::tally(Report& rep, const char* phase) const {
  rep.attempted(reads_sent + writes_sent);
  const std::string p(phase);
  if (read_errors != 0) {
    rep.fail(p + ": " + std::to_string(read_errors) +
                 " reads not answered kOk with k items",
             read_errors);
  }
  if (write_errors != 0) {
    rep.fail(p + ": " + std::to_string(write_errors) +
                 " AddRating requests not answered kOk",
             write_errors);
  }
  if (stale_reads != 0) {
    rep.fail(p + ": " + std::to_string(stale_reads) +
                 " replies older than a generation already served on their "
                 "connection",
             stale_reads);
  }
  if (reordered_generations != 0) {
    rep.note(p + ": " + std::to_string(reordered_generations) +
             " replies older than the reply before them (cache hits beside "
             "a hot swap)");
  }
}

// Skips a trailing partial second, as windowed_quantile does.
double LoadResult::median_reads_per_second() const {
  const auto whole = static_cast<std::size_t>(seconds);
  Samples per_second;
  for (std::size_t i = 0; i < whole; ++i) {
    per_second.add(i < reads_ok_by_second.size() ? reads_ok_by_second[i]
                                                 : 0.0);
  }
  return per_second.median();
}

namespace {

Clock::duration seconds_to_duration(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

/// Gap to the next arrival of a Poisson process at `rate` per second.
Clock::duration poisson_gap(util::Rng& rng, double rate) {
  return seconds_to_duration(-std::log(1.0 - rng.next_double()) / rate);
}

struct Due {
  Clock::time_point due;
  std::uint64_t seq = 0;
  idx_t user = 0;
  std::size_t second = 0;  // whole second of the phase it was due in
  /// Newest generation the connection had received when this was sent.
  std::uint64_t floor = 0;
};

/// Checks one reply: kOk with exactly k items, never older than `d.floor`.
/// `newest` is the newest generation received on the connection so far.
/// Returns whether the reply was good.
bool check_read(const std::vector<serve::Recommendation>& items, bool ok_status,
                std::uint64_t generation, const Due& d, int k,
                int verify_every, std::uint64_t* newest, LoadResult& out) {
  if (!ok_status || items.size() != static_cast<std::size_t>(k)) {
    ++out.read_errors;
    return false;
  }
  if (generation < d.floor) ++out.stale_reads;
  if (generation < *newest) ++out.reordered_generations;
  *newest = std::max(*newest, generation);
  out.generations.insert(generation);
  if (verify_every > 0 &&
      d.seq % static_cast<std::uint64_t>(verify_every) == 0) {
    out.kept.push_back({d.user, items});
  }
  return true;
}

/// Adds `ms` to `all` and to the window of the second `d` was due in.
void add_timing(Samples& all, std::vector<Samples>& by_second, const Due& d,
                double ms) {
  all.add(ms);
  if (by_second.size() <= d.second) by_second.resize(d.second + 1);
  by_second[d.second].add(ms);
}

void add_read(LoadResult& out, const Due& d, double ms) {
  add_timing(out.read_ms, out.read_ms_by_second, d, ms);
}

void merge_windows(std::vector<Samples>& into,
                   const std::vector<Samples>& part) {
  into.resize(std::max(into.size(), part.size()));
  for (std::size_t i = 0; i < part.size(); ++i) into[i].append(part[i]);
}

/// The whole second of a phase that began at `start` in which `t` falls.
std::size_t second_of(Clock::time_point start, Clock::time_point t) {
  const auto s =
      std::chrono::duration_cast<std::chrono::seconds>(t - start).count();
  return static_cast<std::size_t>(std::max<decltype(s)>(s, 0));
}

void merge(LoadResult& into, LoadResult& part) {
  into.read_ms.append(part.read_ms);
  merge_windows(into.read_ms_by_second, part.read_ms_by_second);
  auto& ok = into.reads_ok_by_second;
  ok.resize(std::max(ok.size(), part.reads_ok_by_second.size()));
  for (std::size_t i = 0; i < part.reads_ok_by_second.size(); ++i) {
    ok[i] += part.reads_ok_by_second[i];
  }
  into.write_ms.append(part.write_ms);
  merge_windows(into.write_ms_by_second, part.write_ms_by_second);
  into.late_ms.append(part.late_ms);
  into.reads_sent += part.reads_sent;
  into.writes_sent += part.writes_sent;
  into.reads_ok += part.reads_ok;
  into.read_errors += part.read_errors;
  into.write_errors += part.write_errors;
  into.stale_reads += part.stale_reads;
  into.reordered_generations += part.reordered_generations;
  into.generations.insert(part.generations.begin(), part.generations.end());
  std::move(part.kept.begin(), part.kept.end(),
            std::back_inserter(into.kept));
}

/// One open-loop connection. The sender queues each request before sending
/// it; the receiver pops the matching entry when the reply arrives (replies
/// come back in request order on a connection).
struct Lane {
  Lane(std::uint16_t port, bool writes_only)
      : client("127.0.0.1", port), writes(writes_only) {}

  net::Client client;
  const bool writes;
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Due> sent;  // guarded by mu
  bool closed = false;   // guarded by mu: the sender is done
  /// Newest generation received; written by the receiver, read by the
  /// sender for each request's floor.
  std::atomic<std::uint64_t> newest{0};
  LoadResult part;  // receiver-owned until joined
};

void receive(Lane& lane, int k, int verify_every) {
  auto& trace = obs::TraceCollector::global();
  std::uint64_t newest = 0;
  for (;;) {
    Due d;
    {
      std::unique_lock<std::mutex> lock(lane.mu);
      lane.cv.wait(lock, [&] { return !lane.sent.empty() || lane.closed; });
      if (lane.sent.empty()) return;
      d = lane.sent.front();
      lane.sent.pop_front();
    }
    try {
      if (lane.writes) {
        const net::Status status = lane.client.read_add_rating_response();
        const auto now = Clock::now();
        add_timing(lane.part.write_ms, lane.part.write_ms_by_second, d,
                   ms_between(d.due, now));
        if (status != net::Status::kOk) ++lane.part.write_errors;
        trace.record_span("bench.write", trace.to_us(d.due), trace.to_us(now),
                          {"req", d.seq});
      } else {
        const net::QueryResponse resp = lane.client.read_query_response();
        const auto now = Clock::now();
        add_read(lane.part, d, ms_between(d.due, now));
        if (check_read(resp.items, resp.status == net::Status::kOk,
                       resp.generation, d, k, verify_every, &newest,
                       lane.part)) {
          ++lane.part.reads_ok;
        }
        lane.newest.store(newest, std::memory_order_release);
        trace.record_span("bench.read", trace.to_us(d.due), trace.to_us(now),
                          {"req", d.seq},
                          {"user", static_cast<std::uint64_t>(d.user)});
      }
    } catch (const std::exception&) {
      // The connection broke: this request and everything queued behind it
      // are lost (the sender's later entries are counted after the join).
      (lane.writes ? lane.part.write_errors : lane.part.read_errors) += 1;
      return;
    }
  }
}

}  // namespace

LoadResult run_open_loop(std::uint16_t port, const OpenLoopSpec& spec,
                         const Traffic& traffic, util::Rng& rng) {
  std::vector<std::unique_ptr<Lane>> lanes;
  for (int c = 0; c < spec.read_conns; ++c) {
    lanes.push_back(std::make_unique<Lane>(port, false));
  }
  const bool writes = spec.write_rate > 0.0;
  if (writes) lanes.push_back(std::make_unique<Lane>(port, true));
  std::vector<std::thread> receivers;
  for (auto& lane : lanes) {
    receivers.emplace_back(receive, std::ref(*lane), spec.k,
                           spec.verify_every);
  }

  LoadResult out;
  const auto start = Clock::now() + std::chrono::milliseconds(2);
  const auto end = start + seconds_to_duration(spec.seconds);
  auto next_read = start + poisson_gap(rng, spec.read_rate);
  auto next_write = writes ? start + poisson_gap(rng, spec.write_rate)
                           : Clock::time_point::max();
  std::uint64_t seq = 0;
  std::size_t rr = 0;
  for (;;) {
    const bool is_write = next_write < next_read;
    const auto due = is_write ? next_write : next_read;
    if (due >= end) break;
    std::this_thread::sleep_until(due);
    Lane& lane = is_write ? *lanes.back()
                          : *lanes[rr++ % static_cast<std::size_t>(
                                              spec.read_conns)];
    idx_t user = 0, item = 0;
    double value = 0.0;
    if (is_write) {
      traffic.rating(rng, &user, &item, &value);
    } else {
      user = traffic.user(rng);
    }
    out.late_ms.add(ms_between(due, Clock::now()));
    {
      std::lock_guard<std::mutex> lock(lane.mu);
      lane.sent.push_back({due, seq++, user, second_of(start, due),
                           lane.newest.load(std::memory_order_acquire)});
    }
    lane.cv.notify_one();
    try {
      if (is_write) {
        lane.client.send_add_rating(user, item, value);
      } else {
        lane.client.send_query(user, spec.k);
      }
    } catch (const std::exception&) {
      // The receiver fails on the same broken connection and counts it.
    }
    if (is_write) {
      ++out.writes_sent;
      next_write += poisson_gap(rng, spec.write_rate);
    } else {
      ++out.reads_sent;
      next_read += poisson_gap(rng, spec.read_rate);
    }
  }

  for (auto& lane : lanes) {
    {
      std::lock_guard<std::mutex> lock(lane->mu);
      lane->closed = true;
    }
    lane->cv.notify_one();
  }
  for (auto& t : receivers) t.join();
  for (auto& lane : lanes) {
    const std::uint64_t lost = lane->sent.size();
    (lane->writes ? lane->part.write_errors : lane->part.read_errors) += lost;
    merge(out, lane->part);
  }
  out.seconds = spec.seconds;
  return out;
}

LoadResult run_closed_loop(std::uint16_t port, int conns, int depth,
                           double seconds, int k, const Traffic& traffic,
                           std::uint64_t seed, int verify_every) {
  std::vector<std::unique_ptr<net::Client>> clients;
  for (int c = 0; c < conns; ++c) {
    clients.push_back(std::make_unique<net::Client>("127.0.0.1", port));
  }
  std::vector<LoadResult> parts(static_cast<std::size_t>(conns));
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  const auto end = start + seconds_to_duration(seconds);

  std::vector<std::thread> threads;
  for (int c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      auto& trace = obs::TraceCollector::global();
      net::Client& client = *clients[static_cast<std::size_t>(c)];
      LoadResult& part = parts[static_cast<std::size_t>(c)];
      util::Rng rng(seed ^ (0x9e3779b97f4a7c15ull *
                            static_cast<std::uint64_t>(c + 1)));
      std::deque<Due> inflight;
      std::uint64_t newest = 0;
      std::uint64_t seq = 0;
      auto send_one = [&] {
        const idx_t user = traffic.user(rng);
        const auto now = Clock::now();
        inflight.push_back({now, seq++, user, second_of(start, now), newest});
        client.send_query(user, k);
        ++part.reads_sent;
      };
      std::this_thread::sleep_until(start);
      try {
        for (int d = 0; d < depth; ++d) send_one();
        while (!inflight.empty()) {
          const net::QueryResponse resp = client.read_query_response();
          const auto now = Clock::now();
          const Due d = inflight.front();
          inflight.pop_front();
          const bool good =
              check_read(resp.items, resp.status == net::Status::kOk,
                         resp.generation, d, k, verify_every, &newest, part);
          if (good && now <= end) {
            ++part.reads_ok;
            add_read(part, d, ms_between(d.due, now));
            const std::size_t done = second_of(start, now);
            if (part.reads_ok_by_second.size() <= done) {
              part.reads_ok_by_second.resize(done + 1);
            }
            part.reads_ok_by_second[done] += 1.0;
            trace.record_span("bench.read", trace.to_us(d.due),
                              trace.to_us(now), {"req", d.seq},
                              {"user", static_cast<std::uint64_t>(d.user)});
          }
          if (now < end) send_one();
        }
      } catch (const std::exception&) {
        part.read_errors += inflight.size();
      }
    });
  }
  for (auto& t : threads) t.join();

  LoadResult out;
  for (auto& part : parts) merge(out, part);
  out.seconds = seconds;
  return out;
}

LoadResult run_inprocess_open_loop(serve::RequestBatcher& batcher,
                                   double rate, double seconds, int k,
                                   const Traffic& traffic, util::Rng& rng) {
  struct Entry {
    Due due;
    std::future<serve::BatchedAnswer> answer;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Entry> pending;  // guarded by mu
  bool closed = false;        // guarded by mu
  LoadResult out;
  LoadResult part;  // receiver-owned until joined

  std::thread receiver([&] {
    auto& trace = obs::TraceCollector::global();
    std::uint64_t newest = 0;
    for (;;) {
      Entry e;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !pending.empty() || closed; });
        if (pending.empty()) return;
        e = std::move(pending.front());
        pending.pop_front();
      }
      try {
        const serve::BatchedAnswer ans = e.answer.get();
        const auto now = Clock::now();
        add_read(part, e.due, ms_between(e.due.due, now));
        if (check_read(ans.items, true, ans.generation, e.due, k, 0, &newest,
                       part)) {
          ++part.reads_ok;
        }
        trace.record_span("bench.submit", trace.to_us(e.due.due),
                          trace.to_us(now), {"req", e.due.seq});
      } catch (const std::exception&) {
        ++part.read_errors;
      }
    }
  });

  const auto start = Clock::now() + std::chrono::milliseconds(2);
  const auto end = start + seconds_to_duration(seconds);
  std::uint64_t seq = 0;
  for (auto due = start + poisson_gap(rng, rate); due < end;
       due += poisson_gap(rng, rate)) {
    std::this_thread::sleep_until(due);
    const idx_t user = traffic.user(rng);
    out.late_ms.add(ms_between(due, Clock::now()));
    Entry e{{due, seq++, user, second_of(start, due)}, batcher.submit(user)};
    ++out.reads_sent;
    {
      std::lock_guard<std::mutex> lock(mu);
      pending.push_back(std::move(e));
    }
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    closed = true;
  }
  cv.notify_one();
  receiver.join();
  merge(out, part);
  out.seconds = seconds;
  return out;
}

}  // namespace cumf::bench

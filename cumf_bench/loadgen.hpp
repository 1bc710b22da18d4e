#pragma once

// Load generators for the serving workloads.
//
// Open loop: independent users arrive on a seeded Poisson schedule whatever
// the server does, so a stall queues later requests. One sender thread
// (the caller) keeps the schedule for every connection and one receiver
// thread per connection reads replies in order; each request is timed from
// when it was *due*, and how late the sender ran is reported separately.
// Closed loop: one thread per connection keeps a fixed number of requests
// in flight and sends the next only when a reply arrives — the saturation
// goodput probe.
//
// Load sizing: at most 3 connections in an open loop (1 sender + 3
// receivers) and at most 4 in a closed loop, so a workload never runs more
// than 4 generator threads on the 4-core machine it was sized for.

#include <cstdint>
#include <functional>
#include <set>
#include <vector>

#include "bench.hpp"
#include "serve/batcher.hpp"
#include "serve/topk.hpp"
#include "util/rng.hpp"

namespace cumf::bench {

/// How requests are drawn. `rating` is needed only when writes are sent.
struct Traffic {
  std::function<idx_t(util::Rng&)> user;
  std::function<void(util::Rng&, idx_t* user, idx_t* item, double* value)>
      rating;
};

/// Reads from users drawn uniformly from [0, users); no writes.
Traffic uniform_reads(idx_t users);

/// One read reply kept for verification after the phase.
struct KeptReply {
  idx_t user = 0;
  std::vector<serve::Recommendation> items;
};

/// What one generator phase observed. Latencies are in ms and cover only
/// this phase.
struct LoadResult {
  Samples read_ms;   // open loop: from the scheduled send time
  /// read_ms again, split by the whole second of the phase each read was
  /// due in (sent in, for a closed loop).
  std::vector<Samples> read_ms_by_second;
  /// Good reads completed in each whole second of a closed loop.
  std::vector<double> reads_ok_by_second;
  Samples write_ms;  // AddRating round trips, likewise
  std::vector<Samples> write_ms_by_second;
  Samples late_ms;   // open loop: send time minus scheduled time
  std::uint64_t reads_sent = 0;
  std::uint64_t writes_sent = 0;
  /// Reads answered kOk with exactly k items (closed loop: within the
  /// measured window).
  std::uint64_t reads_ok = 0;
  std::uint64_t read_errors = 0;   // any other reply, or a lost one
  std::uint64_t write_errors = 0;  // AddRating not answered kOk
  /// Replies older than a generation their connection had already received
  /// when the request was sent: stale reads, which the stack never gives.
  std::uint64_t stale_reads = 0;
  /// Replies older than the previous reply on their connection. Allowed,
  /// and only noted: a cache hit is answered from the generation serving at
  /// submit time, so it can be older than an earlier request that was still
  /// queued when a hot swap landed.
  std::uint64_t reordered_generations = 0;
  std::set<std::uint64_t> generations;  // every generation a read saw
  std::vector<KeptReply> kept;          // every verify_every-th read
  double seconds = 0.0;                 // measured interval

  /// Folds reads_sent/writes_sent and every failure kind into `rep`, and
  /// notes reordered generations.
  void tally(Report& rep, const char* phase) const;
  /// Read / write latency quantile `q`, windowed (see windowed_quantile).
  [[nodiscard]] double read_quantile(double q) const {
    return windowed_quantile(read_ms_by_second, seconds, q);
  }
  [[nodiscard]] double write_quantile(double q) const {
    return windowed_quantile(write_ms_by_second, seconds, q);
  }
  /// The median over a closed loop's seconds of the good reads per second.
  [[nodiscard]] double median_reads_per_second() const;
};

struct OpenLoopSpec {
  double read_rate = 0.0;  // reads/s over all read connections
  int read_conns = 1;      // 1..3
  double write_rate = 0.0;  // AddRating/s on one extra connection (0: none)
  double seconds = 1.0;
  int k = 10;
  int verify_every = 0;  // 0 keeps no replies
};

LoadResult run_open_loop(std::uint16_t port, const OpenLoopSpec& spec,
                         const Traffic& traffic, util::Rng& rng);

LoadResult run_closed_loop(std::uint16_t port, int conns, int depth,
                           double seconds, int k, const Traffic& traffic,
                           std::uint64_t seed, int verify_every);

/// The open loop again, against RequestBatcher::submit in this process: the
/// same schedule without the wire, so wire minus in-process is the network
/// layer's share.
LoadResult run_inprocess_open_loop(serve::RequestBatcher& batcher,
                                   double rate, double seconds, int k,
                                   const Traffic& traffic, util::Rng& rng);

}  // namespace cumf::bench

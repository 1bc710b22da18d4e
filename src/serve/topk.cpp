#include "serve/topk.hpp"

#include <algorithm>
#include <cstddef>
#include <memory>
#include <stdexcept>
#include <string>

#include "obs/trace.hpp"
#include "serve/live_store.hpp"
#include "serve/scoring_backend.hpp"
#include "util/stopwatch.hpp"

namespace cumf::serve {

namespace {

// A live store over a caller-owned snapshot, uncopied: the pointer does not
// own the store, and the live store keeps it current for life, so it never
// drains while the engine is alive.
std::unique_ptr<LiveFactorStore> borrow(const FactorStore& store) {
  return std::make_unique<LiveFactorStore>(
      std::shared_ptr<const FactorStore>(&store, [](const FactorStore*) {}));
}

}  // namespace

TopKEngine::TopKEngine(const FactorStore& store, TopKOptions opt)
    : TopKEngine(borrow(store), opt) {}

TopKEngine::TopKEngine(std::unique_ptr<LiveFactorStore> owned, TopKOptions opt)
    : TopKEngine(*owned, opt) {
  owned_live_ = std::move(owned);
}

TopKEngine::TopKEngine(const LiveFactorStore& live, TopKOptions opt)
    : live_(&live), opt_(opt) {
  if (opt_.user_block < 1) opt_.user_block = 1;
  if (opt_.backend != nullptr) {
    backend_ = opt_.backend;
  } else {
    owned_backend_ = std::make_unique<CpuScoringBackend>();
    backend_ = owned_backend_.get();
  }
}

TopKEngine::~TopKEngine() = default;

idx_t TopKEngine::num_users() const { return live_->pin()->num_users(); }

RecommendBatch TopKEngine::recommend_batch(std::span<const idx_t> users,
                                           int k) const {
  RecommendBatch out;
  const std::size_t n = users.size();
  out.lists.resize(n);

  // Pin one generation for the whole batch: every sweep, bound check, and
  // merge below reads this snapshot, no matter how many refreshes land while
  // the batch is in flight. The pin keeps it alive until we return.
  const LiveFactorStore::Pinned pinned = live_->pin();
  out.generation = pinned.generation;
  const FactorStore& store = *pinned;

  if (n == 0 || k <= 0) return out;
  util::Stopwatch watch;
  obs::TraceSpan batch_span(obs::TraceCollector::global(), "engine.batch");
  batch_span.arg("users", n);
  batch_span.arg("k", static_cast<std::uint64_t>(k));
  batch_span.arg("generation", out.generation);

  // Reject out-of-range ids before any factor access — the store indexes X
  // unchecked, and the batcher is the front door for untrusted traffic.
  for (const idx_t u : users) {
    if (u < 0 || u >= store.num_users()) {
      throw std::out_of_range("TopKEngine: user id " + std::to_string(u) +
                              " outside [0, " +
                              std::to_string(store.num_users()) + ")");
    }
  }

  // Let the backend account residency for this generation (a simulated
  // device group charges capacity on first sight of a new snapshot and
  // releases drained ones).
  backend_->begin_batch(pinned.store);

  auto& result = out.lists;

  // Per-user sorted rated lists, built once per call so the inner loop's
  // exclusion check is a binary search over a small array.
  std::vector<std::vector<idx_t>> rated(n);
  if (opt_.exclude_rated != nullptr) {
    const auto& R = *opt_.exclude_rated;
    for (std::size_t i = 0; i < n; ++i) {
      if (users[i] < R.rows) {
        const auto cols = R.row_cols(users[i]);
        rated[i].assign(cols.begin(), cols.end());
        std::sort(rated[i].begin(), rated[i].end());
      }
    }
  }

  const int num_shards = store.num_shards();
  const std::size_t block = static_cast<std::size_t>(opt_.user_block);
  const std::size_t num_blocks = (n + block - 1) / block;
  const std::size_t num_tasks =
      num_blocks * static_cast<std::size_t>(num_shards);

  // partial[block * num_shards + shard][user-in-block] = that shard's top-k.
  std::vector<std::vector<std::vector<Recommendation>>> partial(num_tasks);

  util::ThreadPool& pool =
      opt_.pool != nullptr ? *opt_.pool : util::ThreadPool::global();
  util::parallel_for(
      pool, 0, static_cast<nnz_t>(num_tasks),
      [&](nnz_t task) {
        const std::size_t t = static_cast<std::size_t>(task);
        const std::size_t b = t / static_cast<std::size_t>(num_shards);
        const int s =
            static_cast<int>(t % static_cast<std::size_t>(num_shards));
        // One span per shard×block sweep, on the worker that ran it — this
        // is the fan-out a slow engine.batch decomposes into.
        obs::TraceSpan sweep_span(obs::TraceCollector::global(),
                                  "engine.sweep");
        sweep_span.arg("shard", static_cast<std::uint64_t>(s));
        sweep_span.arg("block", b);
        auto& slots = partial[t];
        SweepTask sweep;
        sweep.store = &store;
        sweep.users = users;
        sweep.rated = &rated;
        sweep.first = static_cast<int>(b * block);
        sweep.last = static_cast<int>(std::min(n, (b + 1) * block));
        sweep.shard = &store.shard(s);
        sweep.k = k;
        sweep.prune = opt_.prune;
        sweep.exclude = opt_.exclude_rated != nullptr;
        slots.resize(static_cast<std::size_t>(sweep.last - sweep.first));
        for (auto& heap : slots) heap.reserve(static_cast<std::size_t>(k));
        const SweepCounters c = backend_->sweep(sweep, slots);
        sweep_span.arg("scored", c.scored);
        items_scored_.fetch_add(c.scored, std::memory_order_relaxed);
        items_pruned_.fetch_add(c.pruned, std::memory_order_relaxed);
      });

  // Scatter-gather merge. When the backend spreads shards across devices,
  // shard heaps first reduce per device (the partial top-k each device would
  // ship home), then the per-device partials merge into the final top-k.
  // ranks_before is a strict total order over distinct items, so top-k of
  // per-device top-ks equals the flat top-k over all shard heaps — grouping
  // changes the gather cost, never the answer.
  const std::vector<int> shard_dev = backend_->shard_devices(store);
  int num_devices = 1;
  for (const int d : shard_dev) num_devices = std::max(num_devices, d + 1);

  {
    obs::TraceSpan merge_span(obs::TraceCollector::global(), "engine.merge");
    merge_span.arg("users", n);
    merge_span.arg("devices", static_cast<std::uint64_t>(num_devices));

    const auto rank_truncate = [k](std::vector<Recommendation>& list) {
      std::sort(list.begin(), list.end(), ranks_before);
      if (list.size() > static_cast<std::size_t>(k)) {
        list.resize(static_cast<std::size_t>(k));
      }
    };

    std::vector<Recommendation> device_partial;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t b = i / block;
      const std::size_t bi = i % block;
      auto& merged = result[i];
      const auto heap_for = [&](int s) -> const std::vector<Recommendation>& {
        return partial[b * static_cast<std::size_t>(num_shards) +
                       static_cast<std::size_t>(s)][bi];
      };
      if (num_devices == 1) {
        for (int s = 0; s < num_shards; ++s) {
          const auto& heap = heap_for(s);
          merged.insert(merged.end(), heap.begin(), heap.end());
        }
      } else {
        for (int d = 0; d < num_devices; ++d) {
          device_partial.clear();
          for (int s = 0; s < num_shards; ++s) {
            if (shard_dev[static_cast<std::size_t>(s)] != d) continue;
            const auto& heap = heap_for(s);
            device_partial.insert(device_partial.end(), heap.begin(),
                                  heap.end());
          }
          rank_truncate(device_partial);
          merged.insert(merged.end(), device_partial.begin(),
                        device_partial.end());
        }
      }
      rank_truncate(merged);
    }
  }

  const BatchCost cost = backend_->finish_batch();
  if (cost.modeled_s > 0.0) batch_modeled_.record(cost.modeled_s * 1e3);
  if (cost.interconnect_s > 0.0) {
    batch_interconnect_.record(cost.interconnect_s * 1e3);
  }
  batch_wall_.record(watch.milliseconds());
  return out;
}

std::vector<Recommendation> TopKEngine::recommend_one(idx_t user, int k) const {
  return recommend(std::span<const idx_t>(&user, 1), k)[0];
}

}  // namespace cumf::serve

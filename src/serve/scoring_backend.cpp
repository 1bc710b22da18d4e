#include "serve/scoring_backend.hpp"

#include <algorithm>
#include <cstddef>

#include "linalg/hermitian.hpp"
#include "serve/topk.hpp"

namespace cumf::serve {

namespace {

// Bounded-heap comparator: "less" = ranks earlier, so the std::heap max — its
// front — is the *worst* kept entry, which a full heap evicts when a better
// candidate arrives.
bool heap_cmp(const Recommendation& a, const Recommendation& b) {
  return ranks_before(a, b);
}

// Relative padding on the Cauchy–Schwarz bound. Norms and dots are both
// accumulated in double from the same float inputs, so their rounding error
// is far below this; the padding keeps pruning strictly conservative.
constexpr double kBoundSlack = 1.0 + 1e-9;

bool is_rated(const std::vector<idx_t>& rated, idx_t item) {
  return std::binary_search(rated.begin(), rated.end(), item);
}

// Scores four users against one θ row in a single pass over f, keeping four
// independent accumulator chains in flight. A lone double accumulator is
// latency-bound on its add chain; four chains fill the pipeline — the serving
// analogue of the paper's register-blocked update kernels (§3.1, Fig. 7).
// Each chain accumulates in exactly linalg::dot's element order and widening,
// so the results are bit-identical to the one-user path.
void dot4(const real_t* x0, const real_t* x1, const real_t* x2,
          const real_t* x3, const real_t* t, int f, double out[4]) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  for (int j = 0; j < f; ++j) {
    const double tj = t[j];
    s0 += static_cast<double>(x0[j]) * tj;
    s1 += static_cast<double>(x1[j]) * tj;
    s2 += static_cast<double>(x2[j]) * tj;
    s3 += static_cast<double>(x3[j]) * tj;
  }
  out[0] = s0;
  out[1] = s1;
  out[2] = s2;
  out[3] = s3;
}

}  // namespace

SweepCounters reference_sweep(const SweepTask& task,
                              std::vector<std::vector<Recommendation>>& out) {
  const FactorStore& store = *task.store;
  const FactorShard& shard = *task.shard;
  const std::span<const idx_t> users = task.users;
  const int first = task.first;
  const int k = task.k;
  const int f = store.f();
  const std::size_t block = static_cast<std::size_t>(task.last - task.first);
  const std::size_t shard_items = shard.item_ids.size();
  std::vector<char> done(block, 0);
  std::size_t active = block;
  SweepCounters counters;

  const auto offer = [k](std::vector<Recommendation>& heap,
                         const Recommendation& cand) {
    if (static_cast<int>(heap.size()) < k) {
      heap.push_back(cand);
      std::push_heap(heap.begin(), heap.end(), heap_cmp);
    } else if (ranks_before(cand, heap.front())) {
      std::pop_heap(heap.begin(), heap.end(), heap_cmp);
      heap.back() = cand;
      std::push_heap(heap.begin(), heap.end(), heap_cmp);
    }
  };

  // Item-major sweep: each θ_v row is read once and scored against every
  // still-active user in the block while it is hot. Users that survive the
  // prune/exclude gates are scored four at a time (dot4) — the batching win.
  std::vector<std::size_t> cand;  // block slots to score for the current item
  cand.reserve(block);
  for (std::size_t slot = 0; slot < shard_items && active > 0; ++slot) {
    const idx_t gid = shard.item_ids[slot];
    const real_t* tv = shard.theta.row(static_cast<idx_t>(slot));
    const double item_norm = shard.norms[slot];
    ++counters.rows_swept;

    cand.clear();
    for (std::size_t bi = 0; bi < block; ++bi) {
      if (done[bi]) continue;
      const idx_t user = users[static_cast<std::size_t>(first) + bi];
      const auto& heap = out[bi];

      if (task.prune && static_cast<int>(heap.size()) == k) {
        const double bound = item_norm * store.user_norm(user) * kBoundSlack;
        // Items are in descending-norm order, so once the bound drops below
        // this user's k-th best the rest of the shard cannot place.
        if (bound < heap.front().score) {
          done[bi] = 1;
          --active;
          counters.pruned += shard_items - slot;
          continue;
        }
      }

      if (task.exclude &&
          is_rated((*task.rated)[static_cast<std::size_t>(first) + bi], gid)) {
        continue;
      }
      cand.push_back(bi);
    }

    counters.scored += cand.size();
    std::size_t c = 0;
    for (; c + 4 <= cand.size(); c += 4) {
      double scores[4];
      dot4(store.user(users[static_cast<std::size_t>(first) + cand[c]]),
           store.user(users[static_cast<std::size_t>(first) + cand[c + 1]]),
           store.user(users[static_cast<std::size_t>(first) + cand[c + 2]]),
           store.user(users[static_cast<std::size_t>(first) + cand[c + 3]]),
           tv, f, scores);
      for (int r = 0; r < 4; ++r) {
        offer(out[cand[c + static_cast<std::size_t>(r)]],
              Recommendation{gid, scores[r]});
      }
    }
    for (; c < cand.size(); ++c) {
      const idx_t user = users[static_cast<std::size_t>(first) + cand[c]];
      offer(out[cand[c]],
            Recommendation{gid, linalg::dot(store.user(user), tv, f)});
    }
  }
  return counters;
}

// ------------------------------------------------------ CpuScoringBackend --

SweepCounters CpuScoringBackend::sweep(
    const SweepTask& task, std::vector<std::vector<Recommendation>>& out) {
  return reference_sweep(task, out);
}

}  // namespace cumf::serve

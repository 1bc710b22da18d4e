#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <future>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "util/binary_io.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace cumf {
namespace {

// ---------------------------------------------------------------- Rng ------

TEST(Rng, DeterministicForSameSeed) {
  util::Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  util::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  util::Rng rng(7);
  double sum = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const double u = rng.next_double();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / kN, 0.5, 0.02);
}

TEST(Rng, NextBelowRespectsBound) {
  util::Rng rng(9);
  for (std::uint64_t bound : {1ull, 2ull, 17ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.next_below(bound), bound);
    }
  }
}

TEST(Rng, GaussianMoments) {
  util::Rng rng(11);
  constexpr int kN = 50000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < kN; ++i) {
    const double g = rng.gaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.03);
  EXPECT_NEAR(sum2 / kN, 1.0, 0.05);
}

TEST(Rng, ZipfSkewsTowardSmallRanks) {
  util::Rng rng(13);
  constexpr std::uint64_t kN = 1000;
  int low = 0, high = 0;
  for (int i = 0; i < 10000; ++i) {
    const auto k = rng.zipf(kN, 1.1);
    ASSERT_LT(k, kN);
    if (k < kN / 10) ++low;
    if (k >= 9 * kN / 10) ++high;
  }
  EXPECT_GT(low, 5 * high);  // heavy head, light tail
}

TEST(Rng, ZipfZeroExponentIsUniformish) {
  util::Rng rng(15);
  constexpr std::uint64_t kN = 10;
  std::vector<int> hist(kN, 0);
  for (int i = 0; i < 20000; ++i) ++hist[rng.zipf(kN, 0.0)];
  for (const int h : hist) {
    EXPECT_GT(h, 1000);  // each bucket near 2000
  }
}

TEST(Rng, SplitStreamsAreIndependent) {
  util::Rng base(21);
  util::Rng a = base.split();
  util::Rng b = base.split();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

// --------------------------------------------------------- ThreadPool ------

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  util::ThreadPool pool(4);
  constexpr nnz_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  util::parallel_for_chunks(pool, 0, kN, [&hits](nnz_t lo, nnz_t hi) {
    for (nnz_t i = lo; i < hi; ++i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1);
    }
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRange) {
  util::ThreadPool pool(2);
  bool ran = false;
  util::parallel_for_chunks(pool, 5, 5, [&ran](nnz_t, nnz_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  util::ThreadPool pool(2);
  std::atomic<int> total{0};
  util::parallel_for_chunks(pool, 0, 8, [&](nnz_t lo, nnz_t hi) {
    for (nnz_t i = lo; i < hi; ++i) {
      util::parallel_for_chunks(pool, 0, 16, [&](nnz_t a, nnz_t b) {
        total.fetch_add(static_cast<int>(b - a));
      });
    }
  });
  EXPECT_EQ(total.load(), 8 * 16);
}

TEST(ThreadPool, ChunksPartitionRange) {
  util::ThreadPool pool(3);
  std::atomic<nnz_t> sum{0};
  util::parallel_for_chunks(pool, 100, 1100, [&](nnz_t lo, nnz_t hi) {
    nnz_t local = 0;
    for (nnz_t i = lo; i < hi; ++i) local += i;
    sum.fetch_add(local);
  });
  nnz_t expect = 0;
  for (nnz_t i = 100; i < 1100; ++i) expect += i;
  EXPECT_EQ(sum.load(), expect);
}

// Starts a job of pool.size() + 1 chunks on its own thread and returns once
// every chunk has started: each pool worker, and that thread, then blocks in
// a chunk until `gate` opens.
std::thread occupy_pool(util::ThreadPool& pool, std::shared_future<void> gate) {
  const std::size_t chunks = pool.size() + 1;
  auto started = std::make_shared<std::atomic<std::size_t>>(0);
  std::thread t([&pool, gate, started, chunks] {
    util::parallel_for_chunks(
        pool, 0, static_cast<nnz_t>(chunks),
        [&](nnz_t, nnz_t) {
          started->fetch_add(1);
          gate.wait();
        },
        chunks);
  });
  while (started->load() < chunks) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return t;
}

// A caller waits only for its own started helpers: it must never pick up
// another job's queued helper and block inside that job's chunk.
TEST(ThreadPool, CallerNeverRunsAnotherJobsChunks) {
  util::ThreadPool pool(2);
  std::promise<void> open_c;
  std::thread c = occupy_pool(pool, open_c.get_future().share());

  // Job A: its caller blocks in chunk 0; its helper stays queued behind the
  // blocked workers, and the chunk it would claim blocks too.
  std::promise<void> open_a;
  const std::shared_future<void> gate_a = open_a.get_future().share();
  std::atomic<int> a_chunks{0};
  std::thread a([&] {
    util::parallel_for_chunks(pool, 0, 2, [&](nnz_t, nnz_t) {
      a_chunks.fetch_add(1);
      gate_a.wait();
    });
  });
  while (a_chunks.load() < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Job B: quick chunks from a third thread; its helpers queue behind A's.
  std::atomic<nnz_t> b_covered{0};
  std::promise<void> b_done;
  std::future<void> b_returned = b_done.get_future();
  std::thread b([&] {
    util::parallel_for_chunks(pool, 0, 4, [&](nnz_t lo, nnz_t hi) {
      b_covered.fetch_add(hi - lo);
    });
    b_done.set_value();
  });
  const bool b_in_time = b_returned.wait_for(std::chrono::seconds(2)) ==
                         std::future_status::ready;

  open_c.set_value();
  open_a.set_value();
  b.join();
  a.join();
  c.join();
  EXPECT_TRUE(b_in_time) << "job B's caller blocked behind job A";
  EXPECT_EQ(b_covered.load(), 4);
  EXPECT_EQ(a_chunks.load(), 2);
}

// A helper dequeued after its caller returned claims no chunk, so it never
// calls fn (whose captures may be gone by then).
TEST(ThreadPool, LateHelperNeverCallsFn) {
  std::atomic<int> calls{0};
  const std::function<void(nnz_t, nnz_t)> count = [&calls](nnz_t, nnz_t) {
    calls.fetch_add(1);
  };
  {
    util::ThreadPool pool(2);
    std::promise<void> open;
    std::thread c = occupy_pool(pool, open.get_future().share());
    // Both helpers queue behind the blocked workers, so the caller runs all
    // eight chunks itself and returns.
    util::parallel_for_chunks(pool, 0, 8, count, 8);
    EXPECT_EQ(calls.load(), 8);
    open.set_value();
    c.join();
  }  // ~ThreadPool runs the two late helpers before joining its workers.
  EXPECT_EQ(calls.load(), 8);
}

// ---------------------------------------------------------- binary io ------

TEST(BinaryIo, VectorRoundTrip) {
  const std::string path = testing::TempDir() + "/cumf_blob_test.bin";
  std::vector<float> payload(1000);
  std::iota(payload.begin(), payload.end(), 0.5f);
  util::write_vector(path, 0xABCD, payload);
  const auto back = util::read_vector<float>(path, 0xABCD);
  EXPECT_EQ(back, payload);
  std::remove(path.c_str());
}

TEST(BinaryIo, TagMismatchThrows) {
  const std::string path = testing::TempDir() + "/cumf_blob_tag.bin";
  util::write_vector<int>(path, 1, {1, 2, 3});
  EXPECT_THROW(util::read_vector<int>(path, 2), std::runtime_error);
  std::remove(path.c_str());
}

TEST(BinaryIo, CorruptionDetected) {
  const std::string path = testing::TempDir() + "/cumf_blob_corrupt.bin";
  util::write_vector<int>(path, 7, {10, 20, 30, 40});
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 20, SEEK_SET);  // inside the payload
    const char junk = 0x5A;
    std::fwrite(&junk, 1, 1, f);
    std::fclose(f);
  }
  EXPECT_THROW(util::read_vector<int>(path, 7), std::runtime_error);
  std::remove(path.c_str());
}

TEST(BinaryIo, MissingFileThrows) {
  EXPECT_THROW(util::read_blob("/nonexistent/cumf.bin", 0),
               std::runtime_error);
}

TEST(BinaryIo, Fnv1aStableAndSensitive) {
  const char a[] = "hello world";
  const char b[] = "hello worle";
  EXPECT_EQ(util::fnv1a(a, sizeof(a)), util::fnv1a(a, sizeof(a)));
  EXPECT_NE(util::fnv1a(a, sizeof(a)), util::fnv1a(b, sizeof(b)));
}

// ----------------------------------------------------------------- csv -----

TEST(Csv, WritesHeaderAndRows) {
  const std::string path = testing::TempDir() + "/cumf_csv_test.csv";
  {
    util::CsvWriter csv(path, {"a", "b", "c"});
    csv.row(1, 2.5, "x");
    csv.row(3, 4.5, "y");
  }
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buf[256] = {};
  const std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  const std::string content(buf, n);
  EXPECT_NE(content.find("a,b,c\n"), std::string::npos);
  EXPECT_NE(content.find("1,2.5,x\n"), std::string::npos);
  EXPECT_NE(content.find("3,4.5,y\n"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Csv, UnwritablePathThrows) {
  EXPECT_THROW(util::CsvWriter("/nonexistent_dir/x.csv", {"a"}),
               std::runtime_error);
}

}  // namespace
}  // namespace cumf

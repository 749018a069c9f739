// Concurrency regression for QuantileSketch: the const query methods
// (Quantile/Summary) share a lazily merged sample buffer, and before the
// internal sort mutex two concurrent readers could both see an unsorted
// tail and sort the same vector at once. Run under TSan (the CI
// race-check job) this catches any lost-mutex regression; under a plain
// build it still checks that concurrent readers agree on the quantiles.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/stats.h"
#include "common/thread_pool.h"

namespace ads::common {
namespace {

TEST(QuantileSketchTsanTest, ConcurrentReadersShareOneLazySort) {
  for (int round = 0; round < 10; ++round) {
    QuantileSketch sketch;
    const size_t kSamples = 5000;
    // Descending insertion order makes the lazy sort do real work, so the
    // race window (readers overlapping mid-sort) is wide open without the
    // mutex.
    for (size_t i = 0; i < kSamples; ++i) {
      sketch.Add(static_cast<double>(kSamples - i));
    }
    const int kReaders = 8;
    std::vector<double> medians(kReaders, 0.0);
    std::vector<QuantileSummary> summaries(kReaders);
    std::vector<std::thread> readers;
    readers.reserve(kReaders);
    for (int t = 0; t < kReaders; ++t) {
      readers.emplace_back([&sketch, &medians, &summaries, t]() {
        // Mix Quantile and Summary so both query paths race to sort first.
        medians[t] = sketch.Quantile(0.5);
        summaries[t] = sketch.Summary();
      });
    }
    for (auto& r : readers) r.join();
    for (int t = 0; t < kReaders; ++t) {
      EXPECT_DOUBLE_EQ(medians[t], (1.0 + kSamples) / 2.0) << t;
      EXPECT_EQ(summaries[t].count, kSamples) << t;
      EXPECT_DOUBLE_EQ(summaries[t].max, static_cast<double>(kSamples)) << t;
    }
  }
}

TEST(QuantileSketchTsanTest, ManyReadersCallSummaryConcurrently) {
  // Summary() computes its whole digest after a single EnsureSorted() —
  // one lock per digest instead of four. Many first-query readers racing
  // through that one sort must all see the same fully sorted buffer.
  for (int round = 0; round < 10; ++round) {
    QuantileSketch sketch;
    const size_t kSamples = 4000;
    for (size_t i = 0; i < kSamples; ++i) {
      sketch.Add(static_cast<double>(kSamples - i));
    }
    const int kReaders = 12;
    std::vector<QuantileSummary> summaries(kReaders);
    std::vector<std::thread> readers;
    readers.reserve(kReaders);
    for (int t = 0; t < kReaders; ++t) {
      readers.emplace_back(
          [&sketch, &summaries, t]() { summaries[t] = sketch.Summary(); });
    }
    for (auto& r : readers) r.join();
    for (int t = 0; t < kReaders; ++t) {
      EXPECT_EQ(summaries[t].count, kSamples) << t;
      EXPECT_DOUBLE_EQ(summaries[t].p50, summaries[0].p50) << t;
      EXPECT_DOUBLE_EQ(summaries[t].p95, summaries[0].p95) << t;
      EXPECT_DOUBLE_EQ(summaries[t].p99, summaries[0].p99) << t;
      EXPECT_DOUBLE_EQ(summaries[t].max, static_cast<double>(kSamples)) << t;
    }
  }
}

TEST(QuantileSketchTsanTest, ReadersRaceTheFirstTailMergeAfterAdd) {
  // After a query the sketch holds a sorted prefix; each Add leaves an
  // unsorted tail that the *first* subsequent reader merges in. Readers
  // racing for that merge (one-element tail, then a multi-element tail)
  // must serialize on the sort mutex and all see the merged buffer.
  QuantileSketch sketch;
  for (int i = 0; i < 3000; ++i) sketch.Add(static_cast<double>(3000 - i));
  ASSERT_DOUBLE_EQ(sketch.Quantile(1.0), 3000.0);  // sorts the prefix
  for (int round = 0; round < 20; ++round) {
    // Even rounds add one sample, odd rounds a burst: both merge paths.
    const int adds = round % 2 == 0 ? 1 : 17;
    for (int i = 0; i < adds; ++i) {
      sketch.Add(0.5 * static_cast<double>((round * 31 + i * 7) % 6000));
    }
    const int kReaders = 8;
    std::vector<double> p99s(kReaders, 0.0);
    std::vector<QuantileSummary> summaries(kReaders);
    std::vector<std::thread> readers;
    readers.reserve(kReaders);
    for (int t = 0; t < kReaders; ++t) {
      readers.emplace_back([&sketch, &p99s, &summaries, t]() {
        if (t % 2 == 0) {
          p99s[t] = sketch.Quantile(0.99);
          summaries[t] = sketch.Summary();
        } else {
          summaries[t] = sketch.Summary();
          p99s[t] = sketch.Quantile(0.99);
        }
      });
    }
    for (auto& r : readers) r.join();
    for (int t = 0; t < kReaders; ++t) {
      EXPECT_EQ(summaries[t].count, sketch.count()) << t;
      EXPECT_DOUBLE_EQ(p99s[t], p99s[0]) << t;
      EXPECT_DOUBLE_EQ(summaries[t].p99, p99s[0]) << t;
      EXPECT_DOUBLE_EQ(summaries[t].max, 3000.0) << t;
    }
  }
}

TEST(QuantileSketchTsanTest, PoolWorkersQueryWhileOthersCopy) {
  QuantileSketch sketch;
  for (int i = 0; i < 2000; ++i) sketch.Add(static_cast<double>(2000 - i));
  ThreadPool pool(4);
  // Queries and copies (the other lazy-sort-adjacent read path) in flight
  // together: copying locks the source, so no reader can observe a
  // half-sorted buffer.
  pool.ParallelFor(0, 64, /*grain=*/1, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      if (i % 2 == 0) {
        QuantileSummary s = sketch.Summary();
        EXPECT_EQ(s.count, 2000u);
        EXPECT_DOUBLE_EQ(s.max, 2000.0);
      } else {
        QuantileSketch copy = sketch;
        EXPECT_DOUBLE_EQ(copy.Quantile(0.0), 1.0);
      }
    }
  });
}

}  // namespace
}  // namespace ads::common

#include "common/event_queue.h"

#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <utility>
#include <vector>

namespace ads::common {
namespace {

TEST(EventQueueTest, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(3.0, [&](SimTime) { order.push_back(3); });
  q.ScheduleAt(1.0, [&](SimTime) { order.push_back(1); });
  q.ScheduleAt(2.0, [&](SimTime) { order.push_back(2); });
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
}

TEST(EventQueueTest, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(5.0, [&](SimTime) { order.push_back(1); });
  q.ScheduleAt(5.0, [&](SimTime) { order.push_back(2); });
  q.ScheduleAt(5.0, [&](SimTime) { order.push_back(3); });
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, ScheduleAfterUsesCurrentTime) {
  EventQueue q;
  std::vector<SimTime> times;
  q.ScheduleAt(10.0, [&](SimTime t) {
    times.push_back(t);
    q.ScheduleAfter(5.0, [&](SimTime t2) { times.push_back(t2); });
  });
  q.RunAll();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 10.0);
  EXPECT_DOUBLE_EQ(times[1], 15.0);
}

TEST(EventQueueTest, RunUntilStopsAtHorizon) {
  EventQueue q;
  int fired = 0;
  q.ScheduleAt(1.0, [&](SimTime) { ++fired; });
  q.ScheduleAt(2.0, [&](SimTime) { ++fired; });
  q.ScheduleAt(10.0, [&](SimTime) { ++fired; });
  q.RunUntil(5.0);
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(q.now(), 5.0);
  EXPECT_EQ(q.pending(), 1u);
  q.RunUntil(10.0);  // inclusive horizon
  EXPECT_EQ(fired, 3);
}

TEST(EventQueueTest, EventsCanCascade) {
  EventQueue q;
  int depth = 0;
  std::function<void(SimTime)> chain = [&](SimTime) {
    if (++depth < 5) q.ScheduleAfter(1.0, chain);
  };
  q.ScheduleAt(0.0, chain);
  q.RunAll();
  EXPECT_EQ(depth, 5);
  EXPECT_DOUBLE_EQ(q.now(), 4.0);
}

TEST(EventQueueTest, StepReturnsFalseWhenEmpty) {
  EventQueue q;
  EXPECT_FALSE(q.Step());
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, TimeHelpers) {
  EXPECT_DOUBLE_EQ(Minutes(2), 120.0);
  EXPECT_DOUBLE_EQ(Hours(1), 3600.0);
  EXPECT_DOUBLE_EQ(Days(1), 86400.0);
}

/// Counts copies of itself; moves are free. Captured by a callback, it
/// shows whether the queue ever copies the std::function it stores.
struct CopyCounter {
  explicit CopyCounter(int* copies) : copies(copies) {}
  CopyCounter(const CopyCounter& other) : copies(other.copies) { ++*copies; }
  CopyCounter(CopyCounter&& other) noexcept : copies(other.copies) {}
  CopyCounter& operator=(const CopyCounter& other) {
    copies = other.copies;
    ++*copies;
    return *this;
  }
  CopyCounter& operator=(CopyCounter&& other) noexcept {
    copies = other.copies;
    return *this;
  }
  int* copies;
};

TEST(EventQueueTest, ScheduleThenPopMakesNoCopiesOfTheCallback) {
  EventQueue q;
  int copies = 0;
  int ran = 0;
  // Enough events, scheduled out of time order, that the heap sifts.
  for (int i = 0; i < 64; ++i) {
    CopyCounter counter(&copies);
    q.ScheduleAt(static_cast<double>((i * 37) % 64),
                 [counter = std::move(counter), &ran](SimTime) { ++ran; });
  }
  q.RunAll();
  EXPECT_EQ(ran, 64);
  EXPECT_EQ(copies, 0) << "the queue copied a callback";
}

TEST(EventQueueTest, CascadingCallbacksPopInWhenSeqOrder) {
  // Every callback schedules 0-2 more events at delays that create
  // equal-time ties (including zero delay), so freed slots are reused
  // while the heap holds a mix of old and new keys. The oracle tracks the
  // pending (when, seq) set: each event that runs must be its minimum.
  EventQueue q;
  std::set<std::pair<SimTime, uint64_t>> pending;
  uint64_t next_seq = 0;
  size_t ran = 0;
  std::function<void(SimTime, int)> schedule = [&](SimTime when, int depth) {
    const uint64_t seq = next_seq++;
    pending.insert({when, seq});
    q.ScheduleAt(when, [&, when, seq, depth](SimTime now) {
      ASSERT_FALSE(pending.empty());
      EXPECT_EQ(*pending.begin(), std::make_pair(when, seq))
          << "popped out of (when, seq) order";
      EXPECT_DOUBLE_EQ(now, when);
      pending.erase(pending.begin());
      ++ran;
      if (depth >= 7) return;
      const int children = static_cast<int>(seq % 3);
      for (int c = 0; c < children; ++c) {
        schedule(now + 0.5 * static_cast<double>((seq + c) % 3), depth + 1);
      }
    });
  };
  for (int i = 0; i < 8; ++i) schedule(static_cast<double>(i % 3), 0);
  q.RunAll();
  EXPECT_TRUE(pending.empty());
  EXPECT_EQ(ran, next_seq);
  EXPECT_GT(ran, 50u) << "cascade too small to exercise slot reuse";
}

TEST(EventQueueTest, RunUntilHonorsHorizonWithTiesAndCascades) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(2.0, [&](SimTime) {
    order.push_back(1);
    // Same-time child: still at the horizon, runs after its tie.
    q.ScheduleAfter(0.0, [&](SimTime) { order.push_back(3); });
    q.ScheduleAfter(0.5, [&](SimTime) { order.push_back(4); });
  });
  q.ScheduleAt(2.0, [&](SimTime) { order.push_back(2); });
  q.ScheduleAt(1.0, [&](SimTime) { order.push_back(0); });
  q.RunUntil(2.0);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
  EXPECT_EQ(q.pending(), 1u);
  q.RunUntil(2.25);  // nothing due; time still advances to the horizon
  EXPECT_EQ(order.size(), 4u);
  EXPECT_DOUBLE_EQ(q.now(), 2.25);
  q.RunUntil(2.5);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace ads::common

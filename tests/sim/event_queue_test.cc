#include "src/sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <queue>
#include <random>
#include <string>
#include <vector>

namespace pdsp {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct Item {
  double time = 0.0;
  int64_t seq = 0;
};

// The order the simulator's event loop relied on before the radix queue: a
// binary heap on (time, push sequence).
struct ItemLater {
  bool operator()(const Item& a, const Item& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};
using ReferenceQueue = std::priority_queue<Item, std::vector<Item>, ItemLater>;

/// Pushes `item` into both queues; the radix queue must accept it.
void PushBoth(MonotoneRadixQueue<Item>* queue, ReferenceQueue* reference,
              const Item& item) {
  ASSERT_TRUE(queue->Push(item).ok()) << item.time;
  reference->push(item);
}

/// Pops one item from both queues and checks they agree bit for bit.
double PopBoth(MonotoneRadixQueue<Item>* queue, ReferenceQueue* reference) {
  const Item expected = reference->top();
  reference->pop();
  const Item got = queue->Pop();
  EXPECT_EQ(std::bit_cast<uint64_t>(got.time),
            std::bit_cast<uint64_t>(expected.time));
  EXPECT_EQ(got.seq, expected.seq) << "at t=" << expected.time;
  return expected.time;
}

TEST(TimeKeyTest, PreservesOrderAndFoldsNegativeZero) {
  const std::vector<double> ascending = {
      -kInf, -1e300, -1.0, -std::numeric_limits<double>::denorm_min(), 0.0,
      std::numeric_limits<double>::denorm_min(), 1e-300, 0.5, 1.0,
      std::nextafter(1.0, 2.0), 1e300, kInf};
  for (size_t i = 0; i + 1 < ascending.size(); ++i) {
    EXPECT_LT(TimeKey(ascending[i]), TimeKey(ascending[i + 1])) << i;
  }
  for (double t : ascending) EXPECT_EQ(KeyTime(TimeKey(t)), t);
  EXPECT_EQ(TimeKey(-0.0), TimeKey(0.0));
}

// Random monotone schedules as the engine produces them: every push lies at
// or after the last pop, with zero delays, bursts of equal times, +inf
// times, and pushes interleaved with pops. Pop order must equal the binary
// heap's (time, seq) order exactly.
TEST(MonotoneRadixQueueTest, MatchesBinaryHeapOnRandomMonotoneSchedules) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    MonotoneRadixQueue<Item> queue;
    ReferenceQueue reference;
    int64_t seq = 0;
    double now = 0.0;
    size_t peak = 0;
    size_t pops = 0;
    for (int step = 0; step < 4000; ++step) {
      const double r = unit(rng);
      if (r < 0.45 || reference.empty()) {
        // A burst of pushes: the same time for all of them or for none.
        const size_t burst =
            unit(rng) < 0.05 ? 1 + rng() % 4096 : 1 + rng() % 8;
        const bool equal_times = unit(rng) < 0.5;
        double shared = now;
        for (size_t i = 0; i < burst; ++i) {
          double t = now;
          if (!equal_times || i == 0) {
            const double kind = unit(rng);
            if (kind < 0.25) {
              t = now;  // zero delay
            } else if (kind < 0.35) {
              t = std::nextafter(now, kInf);  // one ulp later
            } else if (kind < 0.37) {
              t = kInf;
            } else if (kind < 0.7) {
              t = now + 4e-6 * static_cast<double>(rng() % 16);
            } else {
              t = now + std::exp(-20.0 * unit(rng)) * 10.0;
            }
            shared = t;
          } else {
            t = shared;
          }
          PushBoth(&queue, &reference, Item{t, seq++});
        }
      } else {
        const size_t n = 1 + rng() % 16;
        for (size_t i = 0; i < n && !reference.empty(); ++i) {
          now = PopBoth(&queue, &reference);
          ++pops;
        }
      }
      peak = std::max(peak, reference.size());
      ASSERT_EQ(queue.size(), reference.size());
    }
    while (!reference.empty()) {
      PopBoth(&queue, &reference);
      ++pops;
    }
    EXPECT_TRUE(queue.empty());
    EXPECT_EQ(pops, static_cast<size_t>(seq));
    // Memory bound: the live items plus two partial chunks per bucket (one
    // more while a bucket is redistributed).
    const size_t chunk = MonotoneRadixQueue<Item>::kChunkItems;
    EXPECT_LE(queue.NumChunks(), (peak + chunk - 1) / chunk + 2 * 65 + 1)
        << "seed " << seed << " peak " << peak;
  }
}

TEST(MonotoneRadixQueueTest, EqualTimesLeaveInPushOrder) {
  MonotoneRadixQueue<Item> queue;
  // -0.0 and 0.0 compare equal, so they tie and keep push order.
  ASSERT_TRUE(queue.Push(Item{1.0, 0}).ok());
  ASSERT_TRUE(queue.Push(Item{0.0, 1}).ok());
  ASSERT_TRUE(queue.Push(Item{-0.0, 2}).ok());
  ASSERT_TRUE(queue.Push(Item{0.0, 3}).ok());
  for (int64_t i = 0; i < 300; ++i) {
    ASSERT_TRUE(queue.Push(Item{kInf, 4 + i}).ok());
  }
  EXPECT_EQ(queue.Pop().seq, 1);
  EXPECT_EQ(queue.Pop().seq, 2);
  EXPECT_EQ(queue.Pop().seq, 3);
  EXPECT_EQ(queue.Pop().seq, 0);
  for (int64_t i = 0; i < 300; ++i) EXPECT_EQ(queue.Pop().seq, 4 + i);
  EXPECT_TRUE(queue.empty());
}

TEST(MonotoneRadixQueueTest, RejectsEventsBeforeTheLastPop) {
  MonotoneRadixQueue<Item> queue;
  ASSERT_TRUE(queue.Push(Item{2.0, 0}).ok());
  ASSERT_TRUE(queue.Push(Item{3.0, 1}).ok());
  EXPECT_EQ(queue.Pop().time, 2.0);
  const Status past = queue.Push(Item{std::nextafter(2.0, 0.0), 2});
  EXPECT_EQ(past.code(), StatusCode::kInternal);
  EXPECT_NE(past.message().find("precedes"), std::string::npos);
  EXPECT_EQ(queue.Push(Item{std::nan(""), 3}).code(), StatusCode::kInternal);
  EXPECT_EQ(queue.Push(Item{-kInf, 4}).code(), StatusCode::kInternal);
  EXPECT_EQ(queue.size(), 1u);  // rejected pushes leave the queue unchanged
  // An event at exactly the last popped time is not in the past.
  ASSERT_TRUE(queue.Push(Item{2.0, 5}).ok());
  EXPECT_EQ(queue.Pop().seq, 5);
  EXPECT_EQ(queue.Pop().seq, 1);
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.Push(Item{2.5, 6}).code(), StatusCode::kInternal);
}

TEST(MonotoneRadixQueueTest, DrainedChunksAreReused) {
  MonotoneRadixQueue<Item> queue;
  int64_t seq = 0;
  double now = 0.0;
  for (int round = 0; round < 200; ++round) {
    for (int i = 0; i < 1000; ++i) {
      ASSERT_TRUE(queue.Push(Item{now + 1e-3 * (i % 7), seq++}).ok());
    }
    while (!queue.empty()) now = queue.Pop().time;
  }
  // 1000 live items need 16 full chunks; the pool stays near that instead
  // of growing with the 200,000 items pushed in all.
  EXPECT_LE(queue.NumChunks(), 1000 / 64 + 2 * 65 + 1);
}

}  // namespace
}  // namespace pdsp

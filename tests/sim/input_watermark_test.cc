#include "src/sim/input_watermark.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <random>
#include <vector>

namespace pdsp {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// The incremental minimum must equal a full rescan of every channel after
// each update: random sender sets (with duplicates and gaps), raises,
// stale or equal values, unknown senders, many channels tied at the
// minimum, and +inf end-of-stream watermarks.
TEST(InputWatermarkTest, MatchesFullRescanOverRandomUpdates) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    std::mt19937_64 rng(seed);
    const size_t channels = 1 + rng() % 70;
    std::vector<int> senders;
    for (size_t i = 0; i < channels; ++i) {
      senders.push_back(static_cast<int>(rng() % (3 * channels)));
      if (rng() % 4 == 0) senders.push_back(senders.back());  // duplicate
    }
    std::map<int, double> reference;
    for (int s : senders) reference[s] = -kInf;
    InputWatermark wm(senders);
    EXPECT_EQ(wm.value(), -kInf);
    // Watermarks move on a coarse grid so that many channels tie.
    const int grid = 1 + static_cast<int>(rng() % 5);
    for (int step = 0; step < 3000; ++step) {
      const int sender = static_cast<int>(rng() % (3 * channels + 2)) - 1;
      double value;
      if (rng() % 50 == 0) {
        value = kInf;
      } else {
        const auto it = reference.find(sender);
        const double base =
            it == reference.end() || it->second == -kInf ? 0.0 : it->second;
        // Mostly raises, sometimes an equal or stale value.
        value = base + static_cast<double>(static_cast<int>(rng() % 4) - 1) *
                           grid * 0.05;
      }
      wm.Advance(sender, value);
      if (auto it = reference.find(sender); it != reference.end()) {
        it->second = std::max(it->second, value);
      }
      double rescan = kInf;
      for (const auto& [s, v] : reference) rescan = std::min(rescan, v);
      ASSERT_EQ(wm.value(), rescan) << "seed " << seed << " step " << step;
    }
  }
}

TEST(InputWatermarkTest, RisesOnlyWhenTheLastChannelAtTheMinimumRises) {
  InputWatermark wm({3, 1, 2});
  wm.Advance(1, 5.0);
  wm.Advance(2, 5.0);
  EXPECT_EQ(wm.value(), -kInf);
  wm.Advance(3, 4.0);
  EXPECT_EQ(wm.value(), 4.0);
  wm.Advance(3, 5.0);
  EXPECT_EQ(wm.value(), 5.0);
  wm.Advance(1, 6.0);
  wm.Advance(2, 7.0);
  EXPECT_EQ(wm.value(), 5.0);
  wm.Advance(3, 3.0);  // stale: channels never fall
  wm.Advance(9, 9.0);  // no such channel
  EXPECT_EQ(wm.value(), 5.0);
  wm.Advance(3, kInf);
  EXPECT_EQ(wm.value(), 6.0);
  InputWatermark none;
  none.Advance(1, 1.0);
  EXPECT_EQ(none.value(), -kInf);
}

}  // namespace
}  // namespace pdsp

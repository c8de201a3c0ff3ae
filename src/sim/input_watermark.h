// A task's input watermark: the minimum over the event-time watermarks of
// its upstream channels, kept up to date in O(1) amortized per channel
// advance. A window task at parallelism p has p upstream channels and sees
// each of them advance once per watermark interval; rescanning all p on
// every advance made watermark bookkeeping O(p^2) per interval.

#ifndef PDSP_SIM_INPUT_WATERMARK_H_
#define PDSP_SIM_INPUT_WATERMARK_H_

#include <algorithm>
#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

namespace pdsp {

/// \brief Per-channel watermarks of one task plus their minimum. Channel
/// watermarks only rise; the minimum is rescanned only when the last
/// channel holding it rises, so a round in which every channel advances
/// once costs one rescan rather than one per channel.
class InputWatermark {
 public:
  InputWatermark() = default;
  /// One channel per distinct sender task id, all at -infinity.
  explicit InputWatermark(std::vector<int> senders)
      : senders_(std::move(senders)) {
    std::sort(senders_.begin(), senders_.end());
    senders_.erase(std::unique(senders_.begin(), senders_.end()),
                   senders_.end());
    channels_.assign(senders_.size(), min_);
    at_min_ = senders_.size();
  }

  /// Raises the channel from `sender` to `wm` when `wm` is higher; senders
  /// without a channel are ignored.
  void Advance(int sender, double wm) {
    const auto it = std::lower_bound(senders_.begin(), senders_.end(), sender);
    if (it == senders_.end() || *it != sender) return;
    double& channel = channels_[it - senders_.begin()];
    if (wm <= channel) return;
    const bool held_min = channel == min_;
    channel = wm;
    if (!held_min || --at_min_ > 0) return;
    min_ = *std::min_element(channels_.begin(), channels_.end());
    at_min_ = static_cast<size_t>(
        std::count(channels_.begin(), channels_.end(), min_));
  }

  /// Minimum over the channel watermarks (-infinity before every channel
  /// has advanced, and for a task without channels).
  double value() const { return min_; }

 private:
  std::vector<int> senders_;  ///< sorted sender task ids
  std::vector<double> channels_;
  double min_ = -std::numeric_limits<double>::infinity();
  size_t at_min_ = 0;  ///< channels whose watermark equals min_
};

}  // namespace pdsp

#endif  // PDSP_SIM_INPUT_WATERMARK_H_

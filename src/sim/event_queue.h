// The simulator's event queue: a monotone radix queue over the events' time
// keys. Discrete-event time never runs backwards — every event the engine
// schedules lies at or after the event being processed — so a radix queue
// (Ahuja et al.'s radix heap) orders events with O(1) pushes and pops
// amortized over the 64 bits of the key, instead of a binary heap's
// O(log n) sift per operation.
//
// Layout: 65 FIFO buckets. Bucket 0 holds the events whose key equals the
// last popped key; bucket i >= 1 holds the events whose key first differs
// from it in bit i-1 (counting from the least significant bit). A pop takes
// the front of bucket 0; when bucket 0 is empty, the lowest non-empty
// bucket is redistributed around its minimum key, which becomes the new
// last key. Every bucket is appended to in push order and redistribution
// keeps relative order, so events of equal time leave in push order: the
// pop order is exactly (time, push sequence), a binary heap with a FIFO
// tie-break.
//
// Each bucket is a FIFO of fixed-size chunks drawn from one pool shared by
// all buckets. A chunk returns to the pool as soon as its last event is
// read, so the pool peaks at the live events plus at most two partially
// filled chunks per non-empty bucket, and never shrinks.

#ifndef PDSP_SIM_EVENT_QUEUE_H_
#define PDSP_SIM_EVENT_QUEUE_H_

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "src/common/status.h"
#include "src/common/string_util.h"

namespace pdsp {

/// Order-preserving image of a non-NaN double: a < b exactly when
/// TimeKey(a) < TimeKey(b), and -0.0 maps to the key of 0.0 (the two
/// compare equal).
inline uint64_t TimeKey(double time) {
  constexpr uint64_t kSign = uint64_t{1} << 63;
  // Adding +0.0 turns -0.0 into +0.0 and leaves every other value alone.
  const auto bits = std::bit_cast<uint64_t>(time + 0.0);
  return (bits & kSign) != 0 ? ~bits : bits | kSign;
}

/// Inverse of TimeKey.
inline double KeyTime(uint64_t key) {
  constexpr uint64_t kSign = uint64_t{1} << 63;
  return std::bit_cast<double>((key & kSign) != 0 ? key & ~kSign : ~key);
}

/// \brief Monotone radix queue of trivially copyable items ordered by their
/// `double time` member, FIFO among equal times. Items may not be pushed
/// earlier than the last popped item.
template <typename T>
class MonotoneRadixQueue {
 public:
  static_assert(std::is_trivially_copyable_v<T>);
  /// Items per pool chunk.
  static constexpr size_t kChunkItems = 64;

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }
  /// Chunks allocated so far (in use or free); the pool never shrinks.
  size_t NumChunks() const { return chunks_.size(); }

  /// Enqueues `item`. Fails with Internal, leaving the queue unchanged,
  /// when item.time is NaN or earlier than the last popped item's time.
  Status Push(const T& item) {
    const uint64_t key = TimeKey(item.time);
    if (key < last_ || std::isnan(item.time)) [[unlikely]] {
      return Status::Internal(StrFormat(
          "event queue: event at t=%.17g precedes the last dequeued event "
          "at t=%.17g",
          item.time, KeyTime(last_)));
    }
    Append(BucketOf(key), item);
    ++size_;
    return Status::OK();
  }

  /// Removes and returns the earliest item. Requires !empty().
  T Pop() {
    if (buckets_[0].head == nullptr) Refill();
    --size_;
    return PopFront(&buckets_[0]);
  }

 private:
  static constexpr int kBuckets = 65;

  struct Chunk {
    T items[kChunkItems];
    Chunk* next = nullptr;
  };
  /// FIFO of chunks: items [head_pos, end of head) ... [0, tail_pos) of
  /// tail. head == nullptr iff empty.
  struct Bucket {
    Chunk* head = nullptr;
    Chunk* tail = nullptr;
    size_t head_pos = 0;
    size_t tail_pos = 0;
  };

  int BucketOf(uint64_t key) const {
    return key == last_ ? 0 : 64 - std::countl_zero(key ^ last_);
  }

  Chunk* AcquireChunk() {
    if (free_ == nullptr) {
      chunks_.push_back(std::make_unique<Chunk>());
      return chunks_.back().get();
    }
    Chunk* chunk = free_;
    free_ = chunk->next;
    chunk->next = nullptr;
    return chunk;
  }

  void ReleaseChunk(Chunk* chunk) {
    chunk->next = free_;
    free_ = chunk;
  }

  void Append(int b, const T& item) {
    Bucket& bucket = buckets_[b];
    if (bucket.head == nullptr) {
      bucket.head = bucket.tail = AcquireChunk();
      bucket.head_pos = bucket.tail_pos = 0;
      if (b > 0) nonempty_ |= uint64_t{1} << (b - 1);
    } else if (bucket.tail_pos == kChunkItems) {
      Chunk* chunk = AcquireChunk();
      bucket.tail->next = chunk;
      bucket.tail = chunk;
      bucket.tail_pos = 0;
    }
    bucket.tail->items[bucket.tail_pos++] = item;
  }

  /// Pops the front of a non-empty bucket, returning drained chunks to
  /// the pool (the caller keeps `nonempty_` up to date).
  T PopFront(Bucket* bucket) {
    Chunk* head = bucket->head;
    const T item = head->items[bucket->head_pos++];
    if (head == bucket->tail) {
      if (bucket->head_pos == bucket->tail_pos) {
        ReleaseChunk(head);
        bucket->head = bucket->tail = nullptr;
      }
    } else if (bucket->head_pos == kChunkItems) {
      bucket->head = head->next;
      bucket->head_pos = 0;
      ReleaseChunk(head);
    }
    return item;
  }

  /// Bucket 0 is empty: makes the minimum of the lowest non-empty bucket
  /// the last key and redistributes that bucket below it (every item in
  /// bucket i differs from the new last key only below bit i-1, and
  /// buckets 0..i-1 are empty, so push order survives within each).
  void Refill() {
    const int b = std::countr_zero(nonempty_) + 1;
    Bucket& bucket = buckets_[b];
    uint64_t min_key = ~uint64_t{0};
    for (Chunk* c = bucket.head; c != nullptr; c = c->next) {
      const size_t begin = c == bucket.head ? bucket.head_pos : 0;
      const size_t end = c == bucket.tail ? bucket.tail_pos : kChunkItems;
      for (size_t i = begin; i < end; ++i) {
        min_key = std::min(min_key, TimeKey(c->items[i].time));
      }
    }
    last_ = min_key;
    nonempty_ &= ~(uint64_t{1} << (b - 1));
    Bucket moved = bucket;
    bucket = Bucket{};
    while (moved.head != nullptr) {
      const T item = PopFront(&moved);
      Append(BucketOf(TimeKey(item.time)), item);
    }
  }

  uint64_t last_ = 0;
  /// Bit i-1 set iff bucket i (1..64) is non-empty.
  uint64_t nonempty_ = 0;
  size_t size_ = 0;
  Bucket buckets_[kBuckets];
  Chunk* free_ = nullptr;
  std::vector<std::unique_ptr<Chunk>> chunks_;
};

}  // namespace pdsp

#endif  // PDSP_SIM_EVENT_QUEUE_H_

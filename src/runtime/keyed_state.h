// Keyed operator state: one open-addressing key index shared by window
// joins and window aggregates, and the columnar row store a join side keeps
// its buffered rows in.
//
// Key equality follows the Value ordering the operators used to key their
// std::map state with, made total:
//  - numeric keys (int or double cells) compare as their AsNumeric()
//    double, so ints above 2^53 that round to one double fold together and
//    -0.0 equals 0.0;
//  - string keys compare bytewise;
//  - NaN keys equal each other and nothing else;
//  - string keys never equal numeric keys.
// Promoted (dynamically typed) cells go through the same canonical form.
// KeyLess orders canonical keys for emission: numeric keys ascending with
// NaN last, then string keys in byte order. DESIGN.md, "Keyed state".

#ifndef PDSP_RUNTIME_KEYED_STATE_H_
#define PDSP_RUNTIME_KEYED_STATE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/data/batch.h"

namespace pdsp {

/// \brief Canonical form of one key cell. `str` views the cell's bytes and
/// is valid only while the batch or Value it came from is.
struct KeyRef {
  bool is_string = false;
  double num = 0.0;  ///< canonical numeric key: no -0.0, one NaN
  std::string_view str;
};

KeyRef NumericKey(double v);
KeyRef StringKey(std::string_view s);

uint64_t HashKey(const KeyRef& key);
bool KeyEqual(const KeyRef& a, const KeyRef& b);
/// Emission order (see file comment); a strict weak ordering.
bool KeyLess(const KeyRef& a, const KeyRef& b);

/// Canonical keys and their hashes of rows [begin, end) of column `col`
/// into (*keys)[0 .. end-begin) and (*hashes)[0 .. end-begin).
void KeyColumn(const data::Batch& in, size_t begin, size_t end, size_t col,
               std::vector<KeyRef>* keys, std::vector<uint64_t>* hashes);

/// \brief Open-addressing map from canonical key to a dense id (0, 1, ...
/// in first-insertion order). Owns copies of string keys.
class KeyIndex {
 public:
  size_t size() const { return entries_.size(); }

  /// Id of `key` (whose HashKey is `hash`), inserting it as id size() when
  /// absent; *inserted tells which happened.
  uint32_t Insert(const KeyRef& key, uint64_t hash, bool* inserted);

  /// The stored key; its `str` is valid until the next Insert.
  KeyRef key(uint32_t id) const;

 private:
  static constexpr uint32_t kEmpty = 0xFFFFFFFFu;

  struct Entry {
    uint64_t hash;
    double num;
    uint32_t str_begin;
    uint32_t str_len;
    bool is_string;
  };

  void Grow();

  std::vector<uint32_t> slots_;  // ids, kEmpty when free; power-of-two size
  std::vector<Entry> entries_;   // by id
  std::string bytes_;            // string key payloads
};

/// \brief The buffered rows of one join input: columnar in the input's
/// layout, threaded into one insertion-ordered list per key id. Rows leave
/// a list only from its front (prefix eviction); evicted rows stay in the
/// batch until MaybeCompact drops them, once they outnumber the live rows,
/// so the batch holds at most about 2x the live rows.
class KeyedRowStore {
 public:
  static constexpr uint32_t kNil = 0xFFFFFFFFu;
  /// Stores below this many rows are never compacted.
  static constexpr size_t kCompactSlack = 1024;

  explicit KeyedRowStore(data::BatchLayout layout);

  /// Every stored row, live or evicted; read rows through list walks.
  const data::Batch& rows() const { return rows_; }
  size_t live_rows() const { return live_rows_; }

  /// Makes key ids below `num_keys` valid (new keys start empty).
  void ReserveKeys(size_t num_keys) {
    if (lists_.size() < num_keys) lists_.resize(num_keys);
  }
  bool empty(uint32_t key) const { return lists_[key].count == 0; }
  /// First row id of `key`'s list (kNil when empty) and the row after
  /// `row` in its list.
  uint32_t head(uint32_t key) const { return lists_[key].head; }
  uint32_t next(uint32_t row) const { return next_[row]; }

  /// Appends row `row` of `src` at the back of `key`'s list.
  void Append(uint32_t key, const data::Batch& src, size_t row);
  /// Evicts from the front of `key`'s list while the row's event time is
  /// below `cutoff` (time policy).
  void EvictBefore(uint32_t key, double cutoff);
  /// Evicts from the front of `key`'s list until at most `cap` rows remain
  /// (count policy).
  void EvictToCount(uint32_t key, size_t cap);

  /// Rewrites the batch to its live rows when they are fewer than half of
  /// it (and it holds more than kCompactSlack rows). Row ids change; list
  /// order does not. Returns whether it compacted.
  bool MaybeCompact();

 private:
  static constexpr uint32_t kDead = 0xFFFFFFFEu;  // next_ of evicted rows

  struct List {
    uint32_t head = kNil;
    uint32_t tail = kNil;
    uint32_t count = 0;
  };

  void PopFront(List* list);

  data::Batch rows_;
  std::vector<uint32_t> next_;  // by row id: next row of its key, or kDead
  std::vector<List> lists_;     // by key id
  size_t live_rows_ = 0;
};

}  // namespace pdsp

#endif  // PDSP_RUNTIME_KEYED_STATE_H_

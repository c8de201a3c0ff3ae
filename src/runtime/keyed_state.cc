#include "src/runtime/keyed_state.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>

namespace pdsp {

namespace {

// splitmix64's finalizer: spreads a 64-bit pattern over all bits, so the
// table can index by the low bits.
uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

uint64_t DoubleBits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

constexpr size_t kMinSlots = 16;

}  // namespace

KeyRef NumericKey(double v) {
  KeyRef key;
  if (std::isnan(v)) {
    key.num = std::numeric_limits<double>::quiet_NaN();
  } else if (v != 0.0) {
    key.num = v;
  }  // else +0.0 for both zeros
  return key;
}

KeyRef StringKey(std::string_view s) {
  KeyRef key;
  key.is_string = true;
  key.str = s;
  return key;
}

uint64_t HashKey(const KeyRef& key) {
  if (key.is_string) {
    return Mix64(std::hash<std::string_view>{}(key.str) ^
                 0x9e3779b97f4a7c15ULL);
  }
  return Mix64(DoubleBits(key.num));
}

bool KeyEqual(const KeyRef& a, const KeyRef& b) {
  if (a.is_string != b.is_string) return false;
  if (a.is_string) return a.str == b.str;
  return DoubleBits(a.num) == DoubleBits(b.num);  // canonical: one NaN
}

bool KeyLess(const KeyRef& a, const KeyRef& b) {
  if (a.is_string != b.is_string) return b.is_string;  // numbers first
  if (a.is_string) return a.str < b.str;
  if (std::isnan(a.num)) return false;  // NaN sorts last
  if (std::isnan(b.num)) return true;
  return a.num < b.num;
}

void KeyColumn(const data::Batch& in, size_t begin, size_t end, size_t col,
               std::vector<KeyRef>* keys, std::vector<uint64_t>* hashes) {
  const size_t n = end - begin;
  keys->resize(n);
  hashes->resize(n);
  KeyRef* k = keys->data();
  if (const int64_t* ints = in.IntData(col)) {
    for (size_t i = 0; i < n; ++i) {
      k[i] = NumericKey(static_cast<double>(ints[begin + i]));
    }
  } else if (const double* doubles = in.DoubleData(col)) {
    for (size_t i = 0; i < n; ++i) k[i] = NumericKey(doubles[begin + i]);
  } else if (const std::string_view* strings = in.StringData(col)) {
    for (size_t i = 0; i < n; ++i) k[i] = StringKey(strings[begin + i]);
  } else {
    const Value* mixed = in.MixedData(col);
    for (size_t i = 0; i < n; ++i) {
      const Value& v = mixed[begin + i];
      k[i] = v.is_string() ? StringKey(v.AsString())
                           : NumericKey(v.AsNumeric());
    }
  }
  for (size_t i = 0; i < n; ++i) (*hashes)[i] = HashKey(k[i]);
}

// --- KeyIndex ---------------------------------------------------------------

uint32_t KeyIndex::Insert(const KeyRef& key, uint64_t hash, bool* inserted) {
  // Load factor at most 1/2 keeps linear-probe runs short.
  if (2 * (entries_.size() + 1) > slots_.size()) Grow();
  const size_t mask = slots_.size() - 1;
  size_t i = hash & mask;
  for (;; i = (i + 1) & mask) {
    const uint32_t id = slots_[i];
    if (id == kEmpty) break;
    if (entries_[id].hash == hash && KeyEqual(this->key(id), key)) {
      *inserted = false;
      return id;
    }
  }
  const auto id = static_cast<uint32_t>(entries_.size());
  Entry e{hash, key.num, 0, 0, key.is_string};
  if (key.is_string) {
    e.str_begin = static_cast<uint32_t>(bytes_.size());
    e.str_len = static_cast<uint32_t>(key.str.size());
    bytes_.append(key.str);
  }
  entries_.push_back(e);
  slots_[i] = id;
  *inserted = true;
  return id;
}

KeyRef KeyIndex::key(uint32_t id) const {
  const Entry& e = entries_[id];
  KeyRef key;
  key.is_string = e.is_string;
  key.num = e.num;
  if (e.is_string) key.str = std::string_view(bytes_.data() + e.str_begin,
                                              e.str_len);
  return key;
}

void KeyIndex::Grow() {
  const size_t size = std::max(kMinSlots, 2 * slots_.size());
  slots_.assign(size, kEmpty);
  const size_t mask = size - 1;
  for (uint32_t id = 0; id < entries_.size(); ++id) {
    size_t i = entries_[id].hash & mask;
    while (slots_[i] != kEmpty) i = (i + 1) & mask;
    slots_[i] = id;
  }
}

// --- KeyedRowStore ----------------------------------------------------------

KeyedRowStore::KeyedRowStore(data::BatchLayout layout)
    : rows_(std::move(layout)) {}

void KeyedRowStore::Append(uint32_t key, const data::Batch& src, size_t row) {
  const auto id = static_cast<uint32_t>(rows_.NumRows());
  rows_.AppendRow(src, row);
  next_.push_back(kNil);
  List& list = lists_[key];
  if (list.count == 0) {
    list.head = id;
  } else {
    next_[list.tail] = id;
  }
  list.tail = id;
  ++list.count;
  ++live_rows_;
}

void KeyedRowStore::PopFront(List* list) {
  const uint32_t row = list->head;
  list->head = next_[row];
  next_[row] = kDead;
  --list->count;
  --live_rows_;
  if (list->count == 0) list->tail = kNil;
}

void KeyedRowStore::EvictBefore(uint32_t key, double cutoff) {
  List& list = lists_[key];
  while (list.count > 0 && rows_.event_time(list.head) < cutoff) {
    PopFront(&list);
  }
}

void KeyedRowStore::EvictToCount(uint32_t key, size_t cap) {
  List& list = lists_[key];
  while (list.count > cap) PopFront(&list);
}

bool KeyedRowStore::MaybeCompact() {
  const size_t stored = rows_.NumRows();
  if (stored <= kCompactSlack || stored <= 2 * live_rows_) return false;
  // Lists are in increasing row id order (rows are appended in insertion
  // order), so keeping live rows in id order keeps every list's order.
  data::SelectionVector keep;
  keep.reserve(live_rows_);
  std::vector<uint32_t> new_id(stored, kNil);
  for (uint32_t row = 0; row < stored; ++row) {
    if (next_[row] == kDead) continue;
    new_id[row] = static_cast<uint32_t>(keep.size());
    keep.push_back(row);
  }
  data::Batch live(rows_.layout());
  live.AppendGather(rows_, keep);
  std::vector<uint32_t> next(keep.size());
  for (size_t i = 0; i < keep.size(); ++i) {
    const uint32_t n = next_[keep[i]];
    next[i] = n == kNil ? kNil : new_id[n];
  }
  for (List& list : lists_) {
    if (list.count == 0) continue;
    list.head = new_id[list.head];
    list.tail = new_id[list.tail];
  }
  rows_ = std::move(live);
  next_ = std::move(next);
  return true;
}

}  // namespace pdsp

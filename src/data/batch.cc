#include "src/data/batch.h"

#include <algorithm>
#include <utility>

namespace pdsp {
namespace data {

std::string_view StringArena::Add(std::string_view s) {
  if (s.empty()) return std::string_view();
  if (chunks_.empty() || chunks_.back().cap - chunks_.back().used < s.size()) {
    // Chunks grow geometrically from kMinChunkBytes to kChunkBytes: the
    // engine builds a fresh batch per operator firing, and a typical firing
    // holds a handful of short strings — an eager 64 KiB first chunk would
    // dominate the whole data plane's allocation volume (observed ~60x on
    // WC's bytes-per-tuple budget). Large batches still converge to full-
    // size chunks after a few doublings.
    Chunk chunk;
    const size_t last_cap = chunks_.empty() ? 0 : chunks_.back().cap;
    chunk.cap = std::min(std::max(kMinChunkBytes, last_cap * 2), kChunkBytes);
    chunk.cap = std::max(chunk.cap, s.size());
    chunk.bytes = std::make_unique<char[]>(chunk.cap);
    chunks_.push_back(std::move(chunk));
  }
  Chunk& chunk = chunks_.back();
  char* dest = chunk.bytes.get() + chunk.used;
  std::copy(s.begin(), s.end(), dest);
  chunk.used += s.size();
  total_bytes_ += s.size();
  return std::string_view(dest, s.size());
}

Batch::Batch(BatchLayout layout) : layout_(std::move(layout)) {
  columns_.resize(layout_.NumColumns());
  for (size_t i = 0; i < columns_.size(); ++i) {
    columns_[i].type = layout_.column_type(i);
  }
}

void Batch::Clear() {
  for (Column& c : columns_) {
    c.ints.clear();
    c.doubles.clear();
    c.strings.clear();
    c.mixed.clear();
    c.promoted = false;
  }
  event_time_.clear();
  birth_.clear();
  attr_id_.clear();
  arena_.Clear();
  if (intern_) intern_->clear();
  promotions_ = 0;
}

void Batch::Reserve(size_t rows) {
  for (Column& c : columns_) {
    switch (c.type) {
      case DataType::kInt:
        c.ints.reserve(rows);
        break;
      case DataType::kDouble:
        c.doubles.reserve(rows);
        break;
      case DataType::kString:
        c.strings.reserve(rows);
        break;
    }
  }
  event_time_.reserve(rows);
  birth_.reserve(rows);
  attr_id_.reserve(rows);
}

void Batch::AppendTuple(const Tuple& tuple, double birth, uint32_t attr_id) {
  assert(tuple.values.size() == columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) {
    AppendValue(c, tuple.values[c]);
  }
  FinishRow(tuple.event_time, birth, attr_id);
}

void Batch::AppendInt(size_t col, int64_t v) {
  Column& c = columns_[col];
  if (c.promoted || c.type != DataType::kInt) {
    AppendValue(col, Value(v));
    return;
  }
  c.ints.push_back(v);
}

void Batch::AppendDouble(size_t col, double v) {
  Column& c = columns_[col];
  if (c.promoted || c.type != DataType::kDouble) {
    AppendValue(col, Value(v));
    return;
  }
  c.doubles.push_back(v);
}

void Batch::AppendString(size_t col, std::string_view v) {
  Column& c = columns_[col];
  if (c.promoted || c.type != DataType::kString) {
    AppendValue(col, Value(std::string(v)));
    return;
  }
  c.strings.push_back(InternOrAdd(v));
}

void Batch::AppendValue(size_t col, const Value& v) {
  Column& c = columns_[col];
  if (!c.promoted && v.type() == c.type) {
    switch (c.type) {
      case DataType::kInt:
        c.ints.push_back(v.AsInt());
        return;
      case DataType::kDouble:
        c.doubles.push_back(v.AsDouble());
        return;
      case DataType::kString:
        c.strings.push_back(InternOrAdd(v.AsString()));
        return;
    }
  }
  if (!c.promoted) Promote(col);
  c.mixed.push_back(v);
}

void Batch::FinishRow(double event_time, double birth, uint32_t attr_id) {
#ifndef NDEBUG
  for (const Column& c : columns_) assert(c.size() == event_time_.size() + 1);
#endif
  event_time_.push_back(event_time);
  birth_.push_back(birth);
  attr_id_.push_back(attr_id);
}

void Batch::AppendRange(const Batch& src, size_t begin, size_t end) {
  assert(layout_ == src.layout_);
  assert(begin <= end && end <= src.NumRows());
  for (size_t col = 0; col < columns_.size(); ++col) {
    const Column& s = src.columns_[col];
    Column& d = columns_[col];
    if (s.promoted) {
      for (size_t r = begin; r < end; ++r) AppendValue(col, s.mixed[r]);
      continue;
    }
    if (d.promoted) {
      for (size_t r = begin; r < end; ++r) AppendValue(col, src.ValueAt(r, col));
      continue;
    }
    switch (d.type) {
      case DataType::kInt:
        d.ints.insert(d.ints.end(), s.ints.begin() + begin,
                      s.ints.begin() + end);
        break;
      case DataType::kDouble:
        d.doubles.insert(d.doubles.end(), s.doubles.begin() + begin,
                         s.doubles.begin() + end);
        break;
      case DataType::kString:
        // Re-copy payloads: views must point into this batch's arena.
        for (size_t r = begin; r < end; ++r) {
          d.strings.push_back(InternOrAdd(s.strings[r]));
        }
        break;
    }
  }
  event_time_.insert(event_time_.end(), src.event_time_.begin() + begin,
                     src.event_time_.begin() + end);
  birth_.insert(birth_.end(), src.birth_.begin() + begin,
                src.birth_.begin() + end);
  attr_id_.insert(attr_id_.end(), src.attr_id_.begin() + begin,
                  src.attr_id_.begin() + end);
}

void Batch::AppendGather(const Batch& src, const SelectionVector& sel) {
  assert(layout_ == src.layout_);
  for (size_t col = 0; col < columns_.size(); ++col) {
    const Column& s = src.columns_[col];
    Column& d = columns_[col];
    if (s.promoted || d.promoted) {
      for (uint32_t r : sel) AppendValue(col, src.ValueAt(r, col));
      continue;
    }
    switch (d.type) {
      case DataType::kInt:
        for (uint32_t r : sel) d.ints.push_back(s.ints[r]);
        break;
      case DataType::kDouble:
        for (uint32_t r : sel) d.doubles.push_back(s.doubles[r]);
        break;
      case DataType::kString:
        for (uint32_t r : sel) d.strings.push_back(InternOrAdd(s.strings[r]));
        break;
    }
  }
  for (uint32_t r : sel) {
    event_time_.push_back(src.event_time_[r]);
    birth_.push_back(src.birth_[r]);
    attr_id_.push_back(src.attr_id_[r]);
  }
}

void Batch::AppendRow(const Batch& src, size_t row) {
  assert(src.NumColumns() == columns_.size());
  for (size_t col = 0; col < columns_.size(); ++col) {
    AppendCell(col, src, col, row);
  }
  FinishRow(src.event_time_[row], src.birth_[row], src.attr_id_[row]);
}

void Batch::AppendCell(size_t col, const Batch& src, size_t src_col,
                       size_t row) {
  const Column& s = src.columns_[src_col];
  Column& d = columns_[col];
  if (s.promoted || d.promoted || s.type != d.type) {
    AppendValue(col, src.ValueAt(row, src_col));
    return;
  }
  switch (d.type) {
    case DataType::kInt:
      d.ints.push_back(s.ints[row]);
      break;
    case DataType::kDouble:
      d.doubles.push_back(s.doubles[row]);
      break;
    case DataType::kString:
      d.strings.push_back(InternOrAdd(s.strings[row]));
      break;
  }
}

void Batch::AppendColumnGather(size_t col, const Batch& src, size_t src_col,
                               const SelectionVector& sel) {
  const Column& s = src.columns_[src_col];
  Column& d = columns_[col];
  if (s.promoted || d.promoted || s.type != d.type) {
    for (uint32_t r : sel) AppendValue(col, src.ValueAt(r, src_col));
    return;
  }
  switch (d.type) {
    case DataType::kInt:
      for (uint32_t r : sel) d.ints.push_back(s.ints[r]);
      break;
    case DataType::kDouble:
      for (uint32_t r : sel) d.doubles.push_back(s.doubles[r]);
      break;
    case DataType::kString:
      for (uint32_t r : sel) d.strings.push_back(InternOrAdd(s.strings[r]));
      break;
  }
}

void Batch::FinishRows(const double* event_time, const double* birth,
                       const uint32_t* attr_id, size_t n) {
#ifndef NDEBUG
  for (const Column& c : columns_) assert(c.size() == event_time_.size() + n);
#endif
  event_time_.insert(event_time_.end(), event_time, event_time + n);
  birth_.insert(birth_.end(), birth, birth + n);
  attr_id_.insert(attr_id_.end(), attr_id, attr_id + n);
}

const int64_t* Batch::IntData(size_t col) const {
  const Column& c = columns_[col];
  if (c.promoted || c.type != DataType::kInt) return nullptr;
  return c.ints.data();
}

const double* Batch::DoubleData(size_t col) const {
  const Column& c = columns_[col];
  if (c.promoted || c.type != DataType::kDouble) return nullptr;
  return c.doubles.data();
}

const std::string_view* Batch::StringData(size_t col) const {
  const Column& c = columns_[col];
  if (c.promoted || c.type != DataType::kString) return nullptr;
  return c.strings.data();
}

const Value* Batch::MixedData(size_t col) const {
  const Column& c = columns_[col];
  return c.promoted ? c.mixed.data() : nullptr;
}

Value Batch::ValueAt(size_t row, size_t col) const {
  const Column& c = columns_[col];
  if (c.promoted) return c.mixed[row];
  switch (c.type) {
    case DataType::kInt:
      return Value(c.ints[row]);
    case DataType::kDouble:
      return Value(c.doubles[row]);
    case DataType::kString:
      return Value(std::string(c.strings[row]));
  }
  return Value();
}

double Batch::NumericAt(size_t row, size_t col) const {
  const Column& c = columns_[col];
  if (c.promoted) return c.mixed[row].AsNumeric();
  switch (c.type) {
    case DataType::kInt:
      return static_cast<double>(c.ints[row]);
    case DataType::kDouble:
      return c.doubles[row];
    case DataType::kString:
      return static_cast<double>(c.strings[row].size());
  }
  return 0.0;
}

Tuple Batch::RowTuple(size_t row) const {
  Tuple tuple;
  tuple.values.reserve(columns_.size());
  for (size_t col = 0; col < columns_.size(); ++col) {
    tuple.values.push_back(ValueAt(row, col));
  }
  tuple.event_time = event_time_[row];
  return tuple;
}

size_t Batch::WireSize(size_t begin, size_t end) const {
  assert(begin <= end && end <= NumRows());
  size_t bytes = 8 * (end - begin);  // timestamps
  for (const Column& c : columns_) {
    if (c.promoted) {
      for (size_t r = begin; r < end; ++r) bytes += c.mixed[r].WireSize();
      continue;
    }
    switch (c.type) {
      case DataType::kInt:
      case DataType::kDouble:
        bytes += 8 * (end - begin);
        break;
      case DataType::kString:
        for (size_t r = begin; r < end; ++r) {
          bytes += c.strings[r].size() + 4;  // length prefix
        }
        break;
    }
  }
  return bytes;
}

void Batch::Promote(size_t col) {
  Column& c = columns_[col];
  assert(!c.promoted);
  const size_t rows = c.size();
  c.mixed.reserve(rows);
  switch (c.type) {
    case DataType::kInt:
      for (int64_t v : c.ints) c.mixed.push_back(Value(v));
      c.ints.clear();
      break;
    case DataType::kDouble:
      for (double v : c.doubles) c.mixed.push_back(Value(v));
      c.doubles.clear();
      break;
    case DataType::kString:
      for (std::string_view v : c.strings) {
        c.mixed.push_back(Value(std::string(v)));
      }
      c.strings.clear();
      break;
  }
  c.promoted = true;
  ++promotions_;
}

std::string_view Batch::InternOrAdd(std::string_view v) {
  if (v.size() > kInternMaxBytes) return arena_.Add(v);
  if (!intern_) {
    intern_ = std::make_unique<
        std::unordered_map<std::string_view, std::string_view>>();
  }
  auto it = intern_->find(v);
  if (it != intern_->end()) return it->second;
  std::string_view stored = arena_.Add(v);
  intern_->emplace(stored, stored);
  return stored;
}

}  // namespace data
}  // namespace pdsp

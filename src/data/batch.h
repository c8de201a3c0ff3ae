// Columnar micro-batches: the unit of flow on the hot data path.
//
// A Batch holds N stream elements in schema-specialized columnar form —
// one typed vector per schema field (int64/double columns are contiguous
// arrays; string columns are views into an arena of stable chunks with
// short strings interned per batch) plus three per-row system columns:
// event time, birth (earliest contributing source tuple's production time)
// and the latency-attribution handle (StreamElement::attr_id). Vectorized
// kernels (src/runtime/kernels.h) filter, hash, aggregate and partition
// over columns directly; rows are materialized into dynamically typed
// Tuple/Value form only at type-erasure boundaries (UDOs, window/join
// state) via RowView.
//
// Layout rules:
//  - The column set and types come from a BatchLayout derived from the
//    operator's output Schema (query/batch_layout.h). Appends that match
//    the layout go to the typed vector; a value whose type disagrees with
//    its column promotes the whole column to a dynamically typed fallback
//    (`mixed`) so round-tripping is always exact — promotion is a
//    correctness escape hatch, counted via promotions(), not a hot path.
//  - Batches are move-only. Copying rows between batches goes through
//    AppendRange/AppendGather (selection-vector gather), which re-copies
//    string payloads into the destination arena.
//  - A SelectionVector is a list of row indices into a batch; kernels
//    produce and consume them (filter survivors, per-destination
//    partitions) so data is gathered once, at routing time.

#ifndef PDSP_DATA_BATCH_H_
#define PDSP_DATA_BATCH_H_

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/data/value.h"

namespace pdsp {
namespace data {

/// Row indices into a Batch (kernel currency: filter survivors, partition
/// membership). Indices are in increasing order unless a kernel documents
/// otherwise (FlatMap repeats indices to replicate rows).
using SelectionVector = std::vector<uint32_t>;

/// \brief Column types of a batch, derived from a Schema. Kept separate
/// from Schema so the data plane does not depend on field names.
class BatchLayout {
 public:
  BatchLayout() = default;
  explicit BatchLayout(const Schema& schema) {
    types_.reserve(schema.NumFields());
    for (const Field& f : schema.fields()) types_.push_back(f.type);
  }
  explicit BatchLayout(std::vector<DataType> types)
      : types_(std::move(types)) {}

  size_t NumColumns() const { return types_.size(); }
  DataType column_type(size_t i) const { return types_[i]; }
  const std::vector<DataType>& types() const { return types_; }

  bool operator==(const BatchLayout& other) const {
    return types_ == other.types_;
  }

 private:
  std::vector<DataType> types_;
};

/// \brief Append-only byte arena with stable storage: string payloads live
/// in fixed chunks that never reallocate, so string_views into the arena
/// stay valid for the life of the batch (including across moves).
class StringArena {
 public:
  /// Copies `s` into the arena and returns a stable view.
  std::string_view Add(std::string_view s);

  size_t TotalBytes() const { return total_bytes_; }

  void Clear() {
    chunks_.clear();
    total_bytes_ = 0;
  }

 private:
  // First chunk is small (a per-firing batch usually holds a handful of
  // short strings); subsequent chunks double up to kChunkBytes.
  static constexpr size_t kMinChunkBytes = 256;
  static constexpr size_t kChunkBytes = 64 * 1024;

  struct Chunk {
    std::unique_ptr<char[]> bytes;
    size_t used = 0;
    size_t cap = 0;
  };

  std::vector<Chunk> chunks_;
  size_t total_bytes_ = 0;
};

/// \brief One schema-specialized columnar micro-batch. See file comment.
class Batch {
 public:
  Batch() = default;
  explicit Batch(BatchLayout layout);

  Batch(Batch&&) = default;
  Batch& operator=(Batch&&) = default;
  Batch(const Batch&) = delete;
  Batch& operator=(const Batch&) = delete;

  const BatchLayout& layout() const { return layout_; }
  size_t NumColumns() const { return columns_.size(); }
  size_t NumRows() const { return event_time_.size(); }
  bool empty() const { return event_time_.empty(); }

  /// Drops all rows, promotions and interned strings; keeps the layout and
  /// the column vectors' capacity (the string arena is released). Appends
  /// to a cleared batch behave exactly like appends to a fresh
  /// Batch(layout) — the simulator's sub-batch slab relies on this.
  void Clear();
  void Reserve(size_t rows);

  // --- row appends (type-erasure boundary) -------------------------------

  /// Appends one dynamically typed row. Values that disagree with their
  /// column's layout type promote the column (exact round-trip preserved).
  void AppendTuple(const Tuple& tuple, double birth, uint32_t attr_id);

  // --- columnar appends (kernels, generator) -----------------------------
  // Append one value per column (in any column order), then FinishRow once
  // per row. FinishRow asserts all columns reached the new length.

  void AppendInt(size_t col, int64_t v);
  void AppendDouble(size_t col, double v);
  /// Strings of at most kInternMaxBytes are interned per batch (repeated
  /// keys/words share one arena copy); longer payloads are copied as-is.
  void AppendString(size_t col, std::string_view v);
  void AppendValue(size_t col, const Value& v);
  void FinishRow(double event_time, double birth, uint32_t attr_id);

  // --- batch-to-batch copies ---------------------------------------------

  /// Appends rows [begin, end) of `src`. Layout types must match
  /// column-for-column (checked with assert).
  void AppendRange(const Batch& src, size_t begin, size_t end);
  /// Appends the selected rows of `src` in selection order (indices may
  /// repeat: FlatMap replication).
  void AppendGather(const Batch& src, const SelectionVector& sel);
  /// Appends row `row` of `src`. Unlike AppendRange the layouts need not
  /// match: a cell whose type disagrees with its column promotes the column
  /// exactly as AppendValue does.
  void AppendRow(const Batch& src, size_t row);

  // --- cell and column-wise copies (keyed state) -------------------------
  // Like AppendInt & co., these append to one column; close rows with
  // FinishRow, or with FinishRows after AppendColumnGather has filled every
  // column with selections of one length n. Both copy with AppendValue's
  // promotion rule when the types disagree.

  /// Appends cell (row, src_col) of `src` to column `col`.
  void AppendCell(size_t col, const Batch& src, size_t src_col, size_t row);
  /// Appends `src` column `src_col` at the selected rows to column `col`.
  void AppendColumnGather(size_t col, const Batch& src, size_t src_col,
                          const SelectionVector& sel);
  void FinishRows(const double* event_time, const double* birth,
                  const uint32_t* attr_id, size_t n);

  // --- column reads -------------------------------------------------------

  DataType column_type(size_t col) const { return columns_[col].type; }
  /// True when the column fell back to dynamically typed storage.
  bool column_promoted(size_t col) const { return columns_[col].promoted; }

  /// Raw typed data; nullptr when the column is promoted or of another
  /// type. Valid until the next append.
  const int64_t* IntData(size_t col) const;
  const double* DoubleData(size_t col) const;
  const std::string_view* StringData(size_t col) const;
  /// The dynamically typed cells of a promoted column; nullptr otherwise.
  const Value* MixedData(size_t col) const;

  /// Dynamically typed read of one cell (exact: promotion preserves the
  /// original Value).
  Value ValueAt(size_t row, size_t col) const;
  /// Value::AsNumeric semantics: ints/doubles as double, strings by length.
  double NumericAt(size_t row, size_t col) const;

  double event_time(size_t row) const { return event_time_[row]; }
  double birth(size_t row) const { return birth_[row]; }
  uint32_t attr_id(size_t row) const { return attr_id_[row]; }

  const std::vector<double>& event_times() const { return event_time_; }
  const std::vector<double>& births() const { return birth_; }
  const std::vector<uint32_t>& attr_ids() const { return attr_id_; }

  /// Materializes one row back into dynamically typed form.
  Tuple RowTuple(size_t row) const;

  /// Wire bytes of rows [begin, end): 8 per timestamp plus per-value sizes,
  /// summed column-wise (must agree exactly with Tuple::WireSize).
  size_t WireSize(size_t begin, size_t end) const;

  /// Number of columns that fell back to dynamically typed storage.
  size_t promotions() const { return promotions_; }
  /// Bytes currently held by the string arena.
  size_t ArenaBytes() const { return arena_.TotalBytes(); }

  /// Strings longer than this are not interned (unique payloads like
  /// sentences would only bloat the intern map).
  static constexpr size_t kInternMaxBytes = 32;

 private:
  struct Column {
    DataType type = DataType::kInt;
    bool promoted = false;
    std::vector<int64_t> ints;
    std::vector<double> doubles;
    std::vector<std::string_view> strings;
    std::vector<Value> mixed;  // promotion fallback; empty on the hot path

    size_t size() const {
      if (promoted) return mixed.size();
      switch (type) {
        case DataType::kInt:
          return ints.size();
        case DataType::kDouble:
          return doubles.size();
        case DataType::kString:
          return strings.size();
      }
      return 0;
    }
  };

  /// Moves a column's typed data into dynamically typed storage so a
  /// mismatched value can be stored exactly.
  void Promote(size_t col);

  std::string_view InternOrAdd(std::string_view v);

  BatchLayout layout_;
  std::vector<Column> columns_;
  std::vector<double> event_time_;
  std::vector<double> birth_;
  std::vector<uint32_t> attr_id_;
  StringArena arena_;
  // Lazily created on the first interned string append.
  std::unique_ptr<std::unordered_map<std::string_view, std::string_view>>
      intern_;
  size_t promotions_ = 0;
};

/// \brief Cheap view of one batch row — the adapter stateful operators and
/// UDOs use to materialize dynamically typed elements at the type-erasure
/// boundary (see StreamElement helpers in src/runtime/element.h).
class RowView {
 public:
  RowView(const Batch& batch, size_t row) : batch_(&batch), row_(row) {}

  size_t NumValues() const { return batch_->NumColumns(); }
  Value value(size_t col) const { return batch_->ValueAt(row_, col); }
  double Numeric(size_t col) const { return batch_->NumericAt(row_, col); }
  double event_time() const { return batch_->event_time(row_); }
  double birth() const { return batch_->birth(row_); }
  uint32_t attr_id() const { return batch_->attr_id(row_); }

  Tuple ToTuple() const { return batch_->RowTuple(row_); }

 private:
  const Batch* batch_;
  size_t row_;
};

}  // namespace data
}  // namespace pdsp

#endif  // PDSP_DATA_BATCH_H_

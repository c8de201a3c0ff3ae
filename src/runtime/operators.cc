#include "src/runtime/operators.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <queue>

#include "src/common/rng.h"
#include "src/common/string_util.h"
#include "src/obs/prof.h"
#include "src/query/batch_layout.h"
#include "src/runtime/kernels.h"
#include "src/runtime/keyed_state.h"
#include "src/runtime/udo.h"

namespace pdsp {

bool EvaluateFilter(const Value& value, FilterOp op, const Value& literal) {
  switch (op) {
    case FilterOp::kLt:
      return value < literal;
    case FilterOp::kLe:
      return value <= literal;
    case FilterOp::kGt:
      return value > literal;
    case FilterOp::kGe:
      return value >= literal;
    case FilterOp::kEq:
      return value == literal;
    case FilterOp::kNe:
      return value != literal;
  }
  return false;
}

Status OperatorInstance::ProcessBatch(const data::Batch& in, size_t row_begin,
                                      size_t row_end, int input_port,
                                      double now, data::Batch* out) {
  // Row-view adapter: the type-erasure boundary for operators without a
  // columnar kernel (UDOs, joins). Each row is materialized once, processed
  // by the scalar path, and its outputs re-appended columnar.
  std::vector<StreamElement> scratch;
  for (size_t row = row_begin; row < row_end; ++row) {
    scratch.clear();
    StreamElement e;
    e.tuple = in.RowTuple(row);
    e.birth = in.birth(row);
    e.attr_id = in.attr_id(row);
    PDSP_RETURN_NOT_OK(Process(e, input_port, now, &scratch));
    for (const StreamElement& o : scratch) {
      if (o.tuple.values.size() != out->NumColumns()) {
        return Status::Internal(StrFormat(
            "operator emitted arity %zu but its output schema has %zu "
            "fields",
            o.tuple.values.size(), out->NumColumns()));
      }
      out->AppendTuple(o.tuple, o.birth, o.attr_id);
    }
  }
  return Status::OK();
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Kernel-level CPU-profiler marker, interned once per instance and only
// when a profiling session is active (id 0 makes every ProfScope a no-op).
uint32_t KernelMarker(const char* name) {
  return obs::prof::ProfilingActive() ? obs::prof::InternName(name) : 0u;
}

class FilterExec : public OperatorInstance {
 public:
  explicit FilterExec(const OperatorDescriptor& op) : op_(op) {}

  Status Process(const StreamElement& e, int, double,
                 std::vector<StreamElement>* out) override {
    if (op_.filter_field >= e.tuple.values.size()) {
      return Status::OutOfRange(
          StrFormat("filter field %zu beyond tuple arity %zu",
                    op_.filter_field, e.tuple.values.size()));
    }
    if (EvaluateFilter(e.tuple.values[op_.filter_field], op_.filter_op,
                       op_.filter_literal)) {
      out->push_back(e);
    }
    return Status::OK();
  }

  Status ProcessBatch(const data::Batch& in, size_t row_begin, size_t row_end,
                      int, double, data::Batch* out) override {
    obs::prof::ProfScope scope(obs::prof::FrameKind::kKernel, kernel_id_);
    sel_.clear();
    PDSP_RETURN_NOT_OK(kernels::FilterSelect(in, row_begin, row_end,
                                             op_.filter_field, op_.filter_op,
                                             op_.filter_literal, &sel_));
    out->AppendGather(in, sel_);
    return Status::OK();
  }

 private:
  OperatorDescriptor op_;
  data::SelectionVector sel_;  // scratch, reused across firings
  uint32_t kernel_id_ = KernelMarker("filter-kernel");
};

class MapExec : public OperatorInstance {
 public:
  Status Process(const StreamElement& e, int, double,
                 std::vector<StreamElement>* out) override {
    out->push_back(e);
    return Status::OK();
  }

  Status ProcessBatch(const data::Batch& in, size_t row_begin, size_t row_end,
                      int, double, data::Batch* out) override {
    out->AppendRange(in, row_begin, row_end);
    return Status::OK();
  }
};

class FlatMapExec : public OperatorInstance {
 public:
  FlatMapExec(const OperatorDescriptor& op, uint64_t seed)
      : fanout_(std::max(0.0, op.flatmap_fanout)), rng_(seed) {}

  Status Process(const StreamElement& e, int, double,
                 std::vector<StreamElement>* out) override {
    const int64_t copies = DrawCopies();
    for (int64_t i = 0; i < copies; ++i) out->push_back(e);
    return Status::OK();
  }

  Status ProcessBatch(const data::Batch& in, size_t row_begin, size_t row_end,
                      int, double, data::Batch* out) override {
    obs::prof::ProfScope scope(obs::prof::FrameKind::kKernel, kernel_id_);
    // Replication as a selection vector with repeated indices; the RNG is
    // drawn per row in row order, matching the scalar path draw for draw.
    sel_.clear();
    for (size_t row = row_begin; row < row_end; ++row) {
      const int64_t copies = DrawCopies();
      for (int64_t i = 0; i < copies; ++i) {
        sel_.push_back(static_cast<uint32_t>(row));
      }
    }
    out->AppendGather(in, sel_);
    return Status::OK();
  }

 private:
  int64_t DrawCopies() {
    const auto whole = static_cast<int64_t>(fanout_);
    return whole +
           (rng_.Bernoulli(fanout_ - static_cast<double>(whole)) ? 1 : 0);
  }

  double fanout_;
  Rng rng_;
  data::SelectionVector sel_;
  uint32_t kernel_id_ = KernelMarker("flatmap-kernel");
};

// Incremental aggregate over one pane/buffer.
struct AggState {
  int64_t count = 0;
  double sum = 0.0;
  double min = kInf;
  double max = -kInf;
  double first_birth = kInf;
  // Attribution handle of the earliest contributor: the fired result's
  // latency is measured against its birth, so its handle travels with it.
  uint32_t first_attr_id = kNoAttr;

  void Add(double v, double birth, uint32_t attr_id) {
    ++count;
    sum += v;
    min = std::min(min, v);
    max = std::max(max, v);
    if (birth < first_birth) {
      first_birth = birth;
      first_attr_id = attr_id;
    }
  }

  double Finish(AggregateFn fn) const {
    switch (fn) {
      case AggregateFn::kSum:
        return sum;
      case AggregateFn::kMin:
        return min;
      case AggregateFn::kMax:
        return max;
      case AggregateFn::kAvg:
      case AggregateFn::kMean:
        return count > 0 ? sum / static_cast<double>(count) : 0.0;
    }
    return 0.0;
  }
};

// Base of the keyed-state operators (window aggregates and joins), whose
// semantics live in ProcessBatch alone: Process runs the element through it
// as a one-row batch in its input port's layout and returns the output rows
// as elements.
class KeyedStateExec : public OperatorInstance {
 public:
  KeyedStateExec(const std::vector<data::BatchLayout>& in_layouts,
                 data::BatchLayout out_layout)
      : row_out_(std::move(out_layout)) {
    for (const data::BatchLayout& layout : in_layouts) {
      row_in_.emplace_back(layout);
    }
  }

  Status Process(const StreamElement& e, int input_port, double now,
                 std::vector<StreamElement>* out) override {
    if (input_port < 0 || static_cast<size_t>(input_port) >= row_in_.size()) {
      return Status::OutOfRange(
          StrFormat("input port %d of an operator with %zu inputs",
                    input_port, row_in_.size()));
    }
    data::Batch& in = row_in_[static_cast<size_t>(input_port)];
    if (e.tuple.values.size() != in.NumColumns()) {
      return Status::InvalidArgument(
          StrFormat("element arity %zu but the input schema has %zu fields",
                    e.tuple.values.size(), in.NumColumns()));
    }
    in.Clear();
    in.AppendTuple(e.tuple, e.birth, e.attr_id);
    row_out_.Clear();
    PDSP_RETURN_NOT_OK(ProcessBatch(in, 0, 1, input_port, now, &row_out_));
    for (size_t row = 0; row < row_out_.NumRows(); ++row) {
      StreamElement o;
      o.tuple = row_out_.RowTuple(row);
      o.birth = row_out_.birth(row);
      o.attr_id = row_out_.attr_id(row);
      out->push_back(std::move(o));
    }
    return Status::OK();
  }

 private:
  std::vector<data::Batch> row_in_;  // one-row scratch, per input port
  data::Batch row_out_;
};

// Time-policy window aggregation with sliding panes aligned to the slide.
// Each pane keeps its keys in a hash index; firing sorts them into KeyLess
// order, the ascending Value order an ordered map would iterate in.
class TimeWindowAggExec : public KeyedStateExec {
 public:
  TimeWindowAggExec(const OperatorDescriptor& op,
                    const std::vector<data::BatchLayout>& in_layouts,
                    data::BatchLayout out_layout)
      : KeyedStateExec(in_layouts, std::move(out_layout)),
        op_(op),
        keyed_(op.key_field != OperatorDescriptor::kNoKey),
        duration_(op.window.DurationSeconds()),
        slide_(std::max(1e-9, op.window.SlideSeconds())) {}

  Status ProcessBatch(const data::Batch& in, size_t row_begin, size_t row_end,
                      int, double, data::Batch* out) override {
    (void)out;  // time windows emit on timers, not on input
    obs::prof::ProfScope scope(obs::prof::FrameKind::kKernel, kernel_id_);
    if (op_.agg_field >= in.NumColumns()) {
      return Status::OutOfRange("aggregate field beyond tuple arity");
    }
    if (keyed_ && op_.key_field >= in.NumColumns()) {
      return Status::OutOfRange("key field beyond tuple arity");
    }
    // Columnar pre-pass: the aggregate column's numeric view and the key
    // column's canonical keys and hashes, each in one tight loop.
    vals_.resize(row_end - row_begin);
    kernels::NumericColumn(in, row_begin, row_end, op_.agg_field,
                           vals_.data());
    if (keyed_) {
      KeyColumn(in, row_begin, row_end, op_.key_field, &keys_, &hashes_);
    }
    for (size_t row = row_begin; row < row_end; ++row) {
      const size_t i = row - row_begin;
      AddRow(in, row, keyed_ ? keys_[i] : global_key_,
             keyed_ ? hashes_[i] : global_hash_, vals_[i]);
    }
    return Status::OK();
  }

  void OnTimer(double now, std::vector<StreamElement>* out) override {
    while (!panes_.empty()) {
      const int64_t pane = panes_.begin()->first;
      const double pane_end = static_cast<double>(pane) * slide_ + duration_;
      if (pane_end > now) break;
      const Pane& p = panes_.begin()->second;
      order_.resize(p.entries.size());
      for (uint32_t id = 0; id < order_.size(); ++id) order_[id] = id;
      std::sort(order_.begin(), order_.end(), [&p](uint32_t a, uint32_t b) {
        return KeyLess(p.keys.key(a), p.keys.key(b));
      });
      for (uint32_t id : order_) {
        const PaneEntry& entry = p.entries[id];
        StreamElement result;
        result.tuple.event_time = pane_end;
        result.birth = entry.state.first_birth;
        result.attr_id = entry.state.first_attr_id;
        if (keyed_) result.tuple.values.push_back(entry.key);
        result.tuple.values.push_back(Value(entry.state.Finish(op_.agg_fn)));
        out->push_back(std::move(result));
      }
      state_keys_ -= p.entries.size();
      panes_.erase(panes_.begin());
      watermark_ = std::max(watermark_, pane_end);
    }
    while (!timer_heap_.empty() && timer_heap_.top() <= now) {
      timer_heap_.pop();
    }
  }

  double NextTimerTime() const override {
    return timer_heap_.empty() ? kInf : timer_heap_.top();
  }

  void Flush(double now, std::vector<StreamElement>* out) override {
    OnTimer(kInf, out);
    (void)now;
  }

  size_t StateSize() const override { return state_keys_; }

  int64_t LateDrops() const override { return late_drops_; }

 private:
  struct PaneEntry {
    AggState state;
    // The first key cell the pane saw for this key is the key it emits, as
    // an ordered map keeps the first of several equal keys (3 and 3.0, -0.0
    // and 0.0, or ints that round to one double).
    Value key;
  };

  struct Pane {
    KeyIndex keys;
    std::vector<PaneEntry> entries;  // by key id
  };

  void AddRow(const data::Batch& in, size_t row, const KeyRef& key,
              uint64_t hash, double v) {
    const double t = in.event_time(row);
    // Panes containing t: starts in (t - duration, t], aligned to slide.
    const auto last_pane = static_cast<int64_t>(std::floor(t / slide_));
    bool contributed = false;
    for (int64_t pane = last_pane; pane >= 0; --pane) {
      const double start = static_cast<double>(pane) * slide_;
      if (start + duration_ <= t) break;  // pane closed before t
      if (start + duration_ <= watermark_) continue;  // pane already fired
      auto [it, inserted] = panes_.try_emplace(pane);
      if (inserted) timer_heap_.push(start + duration_);
      Pane& p = it->second;
      bool new_key = false;
      const uint32_t id = p.keys.Insert(key, hash, &new_key);
      if (new_key) {
        p.entries.push_back(
            {AggState{}, keyed_ ? in.ValueAt(row, op_.key_field) : Value()});
        ++state_keys_;
      }
      p.entries[id].state.Add(v, in.birth(row), in.attr_id(row));
      contributed = true;
    }
    if (!contributed) ++late_drops_;
  }

  OperatorDescriptor op_;
  bool keyed_;
  double duration_;
  double slide_;
  const KeyRef global_key_ = NumericKey(0.0);  // the unkeyed window's key
  uint64_t global_hash_ = HashKey(global_key_);
  double watermark_ = -kInf;  // end of the latest fired pane
  int64_t late_drops_ = 0;
  size_t state_keys_ = 0;  // (pane, key) entries held
  // Scratch for the columnar pre-pass and the fire-time sort.
  std::vector<double> vals_;
  std::vector<KeyRef> keys_;
  std::vector<uint64_t> hashes_;
  std::vector<uint32_t> order_;
  uint32_t kernel_id_ = KernelMarker("aggregate-kernel");
  // Pane index -> pane; ordered so firing pops from the front.
  std::map<int64_t, Pane> panes_;
  std::priority_queue<double, std::vector<double>, std::greater<>> timer_heap_;
};

// Count-policy window aggregation: per key, fire every SlideTuples() once
// the buffer holds length_tuples elements.
class CountWindowAggExec : public KeyedStateExec {
 public:
  CountWindowAggExec(const OperatorDescriptor& op,
                     const std::vector<data::BatchLayout>& in_layouts,
                     data::BatchLayout out_layout)
      : KeyedStateExec(in_layouts, std::move(out_layout)),
        op_(op),
        keyed_(op.key_field != OperatorDescriptor::kNoKey),
        length_(std::max<int64_t>(1, op.window.length_tuples)),
        slide_(static_cast<size_t>(
            std::max<int64_t>(1, op.window.SlideTuples()))) {}

  Status ProcessBatch(const data::Batch& in, size_t row_begin, size_t row_end,
                      int, double, data::Batch* out) override {
    obs::prof::ProfScope scope(obs::prof::FrameKind::kKernel, kernel_id_);
    if (op_.agg_field >= in.NumColumns()) {
      return Status::OutOfRange("aggregate field beyond tuple arity");
    }
    if (keyed_ && op_.key_field >= in.NumColumns()) {
      return Status::OutOfRange("key field beyond tuple arity");
    }
    const size_t agg_col = keyed_ ? 1 : 0;
    if (out->NumColumns() != agg_col + 1) {
      return Status::Internal(StrFormat(
          "count window emits %zu fields but its output schema has %zu",
          agg_col + 1, out->NumColumns()));
    }
    vals_.resize(row_end - row_begin);
    kernels::NumericColumn(in, row_begin, row_end, op_.agg_field,
                           vals_.data());
    if (keyed_) {
      KeyColumn(in, row_begin, row_end, op_.key_field, &keys_, &hashes_);
    }
    for (size_t row = row_begin; row < row_end; ++row) {
      const size_t i = row - row_begin;
      bool new_key = false;
      const uint32_t id =
          index_.Insert(keyed_ ? keys_[i] : global_key_,
                        keyed_ ? hashes_[i] : global_hash_, &new_key);
      if (new_key) buffers_.emplace_back();
      std::vector<Entry>& buf = buffers_[id];
      buf.push_back({vals_[i], in.birth(row), in.attr_id(row)});
      ++state_rows_;
      if (static_cast<int64_t>(buf.size()) < length_) continue;
      AggState state;
      for (const Entry& entry : buf) {
        state.Add(entry.value, entry.birth, entry.attr_id);
      }
      // The result carries the firing row's own key cell.
      if (keyed_) out->AppendCell(0, in, op_.key_field, row);
      out->AppendDouble(agg_col, state.Finish(op_.agg_fn));
      out->FinishRow(in.event_time(row), state.first_birth,
                     state.first_attr_id);
      const size_t drop = std::min(slide_, buf.size());
      buf.erase(buf.begin(), buf.begin() + static_cast<int64_t>(drop));
      state_rows_ -= drop;
    }
    return Status::OK();
  }

  size_t StateSize() const override { return state_rows_; }

 private:
  struct Entry {
    double value;
    double birth;
    uint32_t attr_id;
  };

  OperatorDescriptor op_;
  bool keyed_;
  int64_t length_;
  size_t slide_;
  const KeyRef global_key_ = NumericKey(0.0);  // the unkeyed window's key
  uint64_t global_hash_ = HashKey(global_key_);
  KeyIndex index_;
  std::vector<std::vector<Entry>> buffers_;  // by key id
  size_t state_rows_ = 0;
  std::vector<double> vals_;
  std::vector<KeyRef> keys_;
  std::vector<uint64_t> hashes_;
  uint32_t kernel_id_ = KernelMarker("aggregate-kernel");
};

// Windowed equi-join. Time policy: per-side keyed buffers holding the last
// `duration` seconds of elements (by event time); every arrival probes the
// opposite side. Count policy: per-side per-key buffers of the last
// length_tuples elements. Buffers are KeyedRowStores sharing one key index;
// matches are gathered as (arriving row, buffered row) pairs and written to
// the output column by column.
class WindowJoinExec : public KeyedStateExec {
 public:
  WindowJoinExec(const OperatorDescriptor& op,
                 const std::vector<data::BatchLayout>& in_layouts,
                 data::BatchLayout out_layout)
      : KeyedStateExec(in_layouts, std::move(out_layout)),
        op_(op),
        duration_(op.window.DurationSeconds()),
        cap_(static_cast<size_t>(
            std::max<int64_t>(1, op.window.length_tuples))),
        sides_{KeyedRowStore(in_layouts[0]), KeyedRowStore(in_layouts[1])} {}

  Status ProcessBatch(const data::Batch& in, size_t row_begin, size_t row_end,
                      int input_port, double, data::Batch* out) override {
    if (input_port < 0 || input_port > 1) {
      return Status::OutOfRange("join input port must be 0 or 1");
    }
    const size_t key_field =
        input_port == 0 ? op_.join_left_key : op_.join_right_key;
    if (key_field >= in.NumColumns()) {
      return Status::OutOfRange("join key beyond tuple arity");
    }
    KeyedRowStore& mine = sides_[input_port];
    KeyedRowStore& other = sides_[1 - input_port];
    if (in.NumColumns() != mine.rows().NumColumns()) {
      return Status::InvalidArgument(StrFormat(
          "join input %d has %zu fields but its schema has %zu", input_port,
          in.NumColumns(), mine.rows().NumColumns()));
    }
    const bool time_policy = op_.window.policy == WindowPolicy::kTime;
    KeyColumn(in, row_begin, row_end, key_field, &keys_, &hashes_);
    probe_.clear();
    match_.clear();
    for (size_t row = row_begin; row < row_end; ++row) {
      const size_t i = row - row_begin;
      const double t = in.event_time(row);
      bool new_key = false;
      const uint32_t key = index_.Insert(keys_[i], hashes_[i], &new_key);
      if (new_key) {
        sides_[0].ReserveKeys(index_.size());
        sides_[1].ReserveKeys(index_.size());
      }
      // Evict expired partners from the probed list, then match the rest.
      if (!other.empty(key)) {
        if (time_policy) other.EvictBefore(key, t - duration_);
        for (uint32_t r = other.head(key); r != KeyedRowStore::kNil;
             r = other.next(r)) {
          probe_.push_back(static_cast<uint32_t>(row));
          match_.push_back(r);
        }
      }
      mine.Append(key, in, row);
      if (time_policy) {
        mine.EvictBefore(key, t - duration_);
      } else {
        mine.EvictToCount(key, cap_);
      }
    }
    if (!probe_.empty()) {
      PDSP_RETURN_NOT_OK(WriteMatches(in, input_port, other.rows(), out));
    }
    // Matches are written, so buffered row ids may change now. (The key
    // index needs no compaction: with a positive window, which analysis
    // requires, a key keeps at least one buffered row on some side once
    // seen, as the arriving row outlives the evictions it triggers.)
    sides_[0].MaybeCompact();
    sides_[1].MaybeCompact();
    return Status::OK();
  }

  size_t StateSize() const override {
    return sides_[0].live_rows() + sides_[1].live_rows();
  }

 private:
  Status WriteMatches(const data::Batch& in, int input_port,
                      const data::Batch& buffered, data::Batch* out) {
    const data::Batch& left = input_port == 0 ? in : buffered;
    const data::Batch& right = input_port == 0 ? buffered : in;
    const data::SelectionVector& left_rows = input_port == 0 ? probe_ : match_;
    const data::SelectionVector& right_rows =
        input_port == 0 ? match_ : probe_;
    const size_t width = left.NumColumns() + right.NumColumns();
    if (width != out->NumColumns()) {
      return Status::Internal(StrFormat(
          "operator emitted arity %zu but its output schema has %zu fields",
          width, out->NumColumns()));
    }
    for (size_t col = 0; col < left.NumColumns(); ++col) {
      out->AppendColumnGather(col, left, col, left_rows);
    }
    for (size_t col = 0; col < right.NumColumns(); ++col) {
      out->AppendColumnGather(left.NumColumns() + col, right, col,
                              right_rows);
    }
    const size_t n = probe_.size();
    times_.resize(n);
    births_.resize(n);
    attrs_.resize(n);
    for (size_t k = 0; k < n; ++k) {
      const double e_birth = in.birth(probe_[k]);
      const double m_birth = buffered.birth(match_[k]);
      times_[k] = std::max(in.event_time(probe_[k]),
                           buffered.event_time(match_[k]));
      births_[k] = std::min(e_birth, m_birth);
      // Attribution follows the earliest contributor (the side latency is
      // measured against); the buffered partner's residency in the join
      // window is charged by the simulator when it sees the stale cursor.
      attrs_[k] = e_birth <= m_birth ? in.attr_id(probe_[k])
                                     : buffered.attr_id(match_[k]);
    }
    out->FinishRows(times_.data(), births_.data(), attrs_.data(), n);
    return Status::OK();
  }

  OperatorDescriptor op_;
  double duration_;
  size_t cap_;  // count policy: rows per key and side
  KeyIndex index_;
  KeyedRowStore sides_[2];
  // Scratch, reused across calls.
  std::vector<KeyRef> keys_;
  std::vector<uint64_t> hashes_;
  data::SelectionVector probe_;  // arriving row of each match
  data::SelectionVector match_;  // buffered partner of each match
  std::vector<double> times_;
  std::vector<double> births_;
  std::vector<uint32_t> attrs_;
};

class UdoExec : public OperatorInstance {
 public:
  UdoExec(std::unique_ptr<Udo> udo, int instance, uint64_t seed)
      : udo_(std::move(udo)), instance_(instance), rng_(seed) {}

  Status Process(const StreamElement& e, int, double now,
                 std::vector<StreamElement>* out) override {
    UdoContext ctx;
    ctx.now = now;
    ctx.instance = instance_;
    ctx.rng = &rng_;
    udo_->Process(e, &ctx, out);
    return Status::OK();
  }

  void Flush(double now, std::vector<StreamElement>* out) override {
    UdoContext ctx;
    ctx.now = now;
    ctx.instance = instance_;
    ctx.rng = &rng_;
    udo_->Flush(&ctx, out);
  }

 private:
  std::unique_ptr<Udo> udo_;
  int instance_;
  Rng rng_;
};

class SinkExec : public OperatorInstance {
 public:
  Status Process(const StreamElement& e, int, double,
                 std::vector<StreamElement>* out) override {
    out->push_back(e);  // the simulator records latency on sink output
    return Status::OK();
  }

  Status ProcessBatch(const data::Batch& in, size_t row_begin, size_t row_end,
                      int, double, data::Batch* out) override {
    out->AppendRange(in, row_begin, row_end);
    return Status::OK();
  }
};

}  // namespace

Result<std::unique_ptr<OperatorInstance>> CreateOperatorInstance(
    const LogicalPlan& plan, LogicalPlan::OpId op_id, int instance,
    uint64_t seed) {
  const OperatorDescriptor& op = plan.op(op_id);
  switch (op.type) {
    case OperatorType::kSource:
      return Status::InvalidArgument(
          "sources are driven by the simulator, not OperatorInstance");
    case OperatorType::kFilter:
      return {std::make_unique<FilterExec>(op)};
    case OperatorType::kMap:
      return {std::make_unique<MapExec>()};
    case OperatorType::kFlatMap:
      return {std::make_unique<FlatMapExec>(op, seed)};
    case OperatorType::kWindowAggregate:
    case OperatorType::kWindowJoin:
      break;
    case OperatorType::kUdo: {
      PDSP_ASSIGN_OR_RETURN(auto udo, UdoRegistry::Global().Create(op));
      return {std::make_unique<UdoExec>(std::move(udo), instance, seed)};
    }
    case OperatorType::kSink:
      return {std::make_unique<SinkExec>()};
  }
  // Keyed-state operators keep rows in their inputs' layouts, derived from
  // the schemas validation computes (which also fixes the input counts).
  if (!plan.validated()) {
    return Status::FailedPrecondition(StrFormat(
        "%s: window and join state needs a validated plan", op.name.c_str()));
  }
  std::vector<data::BatchLayout> in_layouts;
  for (LogicalPlan::OpId in : plan.Inputs(op_id)) {
    in_layouts.push_back(LayoutForSchema(plan.OutputSchema(in)));
  }
  data::BatchLayout out_layout = LayoutForSchema(plan.OutputSchema(op_id));
  if (op.type == OperatorType::kWindowJoin) {
    return {std::make_unique<WindowJoinExec>(op, in_layouts,
                                             std::move(out_layout))};
  }
  if (op.window.policy == WindowPolicy::kTime) {
    return {std::make_unique<TimeWindowAggExec>(op, in_layouts,
                                                std::move(out_layout))};
  }
  return {std::make_unique<CountWindowAggExec>(op, in_layouts,
                                               std::move(out_layout))};
}

}  // namespace pdsp

// Differential tests of the hash-indexed keyed state (src/runtime/
// keyed_state.h) behind window joins and window aggregates. The reference
// implementations below key their state with std::map<Value, ...>, as the
// operators once did; both sides see the same random batches and must
// produce the same rows, in the same order, bit for bit, and the same
// StateSize.

#include "src/runtime/keyed_state.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <limits>
#include <map>
#include <queue>

#include "src/common/rng.h"
#include "src/query/batch_layout.h"
#include "src/query/builder.h"
#include "src/runtime/operators.h"

namespace pdsp {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// ---------------------------------------------------------------------------
// Reference implementations (ordered maps keyed by Value).

struct RefAgg {
  int64_t count = 0;
  double sum = 0.0;
  double min = kInf;
  double max = -kInf;
  double first_birth = kInf;
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

class RefJoin {
 public:
  RefJoin(WindowSpec window, size_t left_key, size_t right_key)
      : window_(window),
        duration_(window.DurationSeconds()),
        keys_{left_key, right_key} {}

  void Process(const StreamElement& e, int port,
               std::vector<StreamElement>* out) {
    const Value key = e.tuple.values[keys_[port]];
    const double t = e.tuple.event_time;
    Side& mine = sides_[port];
    Side& other = sides_[1 - port];
    auto other_it = other.buffers.find(key);
    if (other_it != other.buffers.end()) {
      auto& buf = other_it->second;
      if (window_.policy == WindowPolicy::kTime) {
        size_t expired = 0;
        while (expired < buf.size() &&
               buf[expired].tuple.event_time < t - duration_) {
          ++expired;
        }
        buf.erase(buf.begin(), buf.begin() + static_cast<int64_t>(expired));
        other.total -= expired;
      }
      for (const StreamElement& match : buf) {
        StreamElement joined;
        joined.tuple.event_time = std::max(t, match.tuple.event_time);
        joined.birth = std::min(e.birth, match.birth);
        joined.attr_id = e.birth <= match.birth ? e.attr_id : match.attr_id;
        const StreamElement& left = port == 0 ? e : match;
        const StreamElement& right = port == 0 ? match : e;
        for (const Value& v : left.tuple.values)
          joined.tuple.values.push_back(v);
        for (const Value& v : right.tuple.values)
          joined.tuple.values.push_back(v);
        out->push_back(std::move(joined));
      }
      if (buf.empty()) other.buffers.erase(other_it);
    }
    auto& own = mine.buffers[key];
    own.push_back(e);
    ++mine.total;
    if (window_.policy == WindowPolicy::kTime) {
      size_t expired = 0;
      while (expired < own.size() &&
             own[expired].tuple.event_time < t - duration_) {
        ++expired;
      }
      own.erase(own.begin(), own.begin() + static_cast<int64_t>(expired));
      mine.total -= expired;
    } else {
      const auto cap =
          static_cast<size_t>(std::max<int64_t>(1, window_.length_tuples));
      while (own.size() > cap) {
        --mine.total;
        own.erase(own.begin());
      }
    }
  }

  size_t StateSize() const { return sides_[0].total + sides_[1].total; }

 private:
  struct Side {
    std::map<Value, std::vector<StreamElement>> buffers;
    size_t total = 0;
  };

  WindowSpec window_;
  double duration_;
  size_t keys_[2];
  Side sides_[2];
};

class RefTimeWindow {
 public:
  RefTimeWindow(WindowSpec window, AggregateFn fn, size_t agg_field,
                size_t key_field)
      : fn_(fn),
        agg_field_(agg_field),
        key_field_(key_field),
        duration_(window.DurationSeconds()),
        slide_(std::max(1e-9, window.SlideSeconds())) {}

  void Process(const StreamElement& e) {
    const bool keyed = key_field_ != OperatorDescriptor::kNoKey;
    const Value key = keyed ? e.tuple.values[key_field_] : Value(0);
    const double t = e.tuple.event_time;
    const auto last_pane = static_cast<int64_t>(std::floor(t / slide_));
    bool contributed = false;
    for (int64_t pane = last_pane; pane >= 0; --pane) {
      const double start = static_cast<double>(pane) * slide_;
      if (start + duration_ <= t) break;
      if (start + duration_ <= watermark_) continue;
      panes_[pane][key].Add(e.tuple.values[agg_field_].AsNumeric(), e.birth,
                            e.attr_id);
      contributed = true;
    }
    if (!contributed) ++late_drops_;
  }

  void OnTimer(double now, std::vector<StreamElement>* out) {
    const bool keyed = key_field_ != OperatorDescriptor::kNoKey;
    while (!panes_.empty()) {
      const double pane_end =
          static_cast<double>(panes_.begin()->first) * slide_ + duration_;
      if (pane_end > now) break;
      for (const auto& [key, state] : panes_.begin()->second) {
        StreamElement r;
        r.tuple.event_time = pane_end;
        r.birth = state.first_birth;
        r.attr_id = state.first_attr_id;
        if (keyed) r.tuple.values.push_back(key);
        r.tuple.values.push_back(Value(state.Finish(fn_)));
        out->push_back(std::move(r));
      }
      panes_.erase(panes_.begin());
      watermark_ = std::max(watermark_, pane_end);
    }
  }

  size_t StateSize() const {
    size_t total = 0;
    for (const auto& [pane, keys] : panes_) total += keys.size();
    return total;
  }
  int64_t late_drops() const { return late_drops_; }

 private:
  AggregateFn fn_;
  size_t agg_field_;
  size_t key_field_;
  double duration_;
  double slide_;
  double watermark_ = -kInf;
  int64_t late_drops_ = 0;
  std::map<int64_t, std::map<Value, RefAgg>> panes_;
};

class RefCountWindow {
 public:
  RefCountWindow(WindowSpec window, AggregateFn fn, size_t agg_field,
                 size_t key_field)
      : fn_(fn),
        agg_field_(agg_field),
        key_field_(key_field),
        length_(std::max<int64_t>(1, window.length_tuples)),
        slide_(std::max<int64_t>(1, window.SlideTuples())) {}

  void Process(const StreamElement& e, std::vector<StreamElement>* out) {
    const bool keyed = key_field_ != OperatorDescriptor::kNoKey;
    const Value key = keyed ? e.tuple.values[key_field_] : Value(0);
    auto& buf = buffers_[key];
    buf.push_back(e);
    if (static_cast<int64_t>(buf.size()) < length_) return;
    RefAgg state;
    for (const StreamElement& x : buf) {
      state.Add(x.tuple.values[agg_field_].AsNumeric(), x.birth, x.attr_id);
    }
    StreamElement r;
    r.tuple.event_time = e.tuple.event_time;
    r.birth = state.first_birth;
    r.attr_id = state.first_attr_id;
    if (keyed) r.tuple.values.push_back(key);
    r.tuple.values.push_back(Value(state.Finish(fn_)));
    out->push_back(std::move(r));
    for (int64_t i = 0; i < slide_ && !buf.empty(); ++i) buf.pop_front();
  }

  size_t StateSize() const {
    size_t total = 0;
    for (const auto& [key, buf] : buffers_) total += buf.size();
    return total;
  }

 private:
  AggregateFn fn_;
  size_t agg_field_;
  size_t key_field_;
  int64_t length_;
  int64_t slide_;
  std::map<Value, std::deque<StreamElement>> buffers_;
};

// ---------------------------------------------------------------------------
// Inputs.

enum class KeyKind { kInt, kBigInt, kDouble, kString, kPromoted };

// Key pools small enough that keys repeat. kBigInt keys sit above 2^53,
// where neighbouring ints round to one double and so fold together;
// kDouble includes both zeros; kPromoted mixes ints with equal and unequal
// doubles in an int column, which promotes it.
Value DrawKey(KeyKind kind, Rng* rng) {
  const int64_t k = rng->UniformInt(0, 11);
  switch (kind) {
    case KeyKind::kInt:
      return Value(k);
    case KeyKind::kBigInt:
      return Value((int64_t{1} << 53) + k % 5);
    case KeyKind::kDouble: {
      static const double kPool[] = {0.0, -0.0, 1.5, -2.25, 3.0, 7.0,
                                     1e300, -1e-300, 42.0, 0.1, 2.5, 3.0};
      return Value(kPool[k]);
    }
    case KeyKind::kString: {
      static const char* const kPool[] = {
          "a", "b", "ab", "", "zz", "Z", "\xc3\xa9t\xc3\xa9", "a\x01",
          "k9", "k10", "a key longer than thirty-two bytes, not interned",
          "b"};
      return Value(kPool[k]);
    }
    case KeyKind::kPromoted:
      if (k < 4) return Value(static_cast<double>(k));  // equals int k
      if (k < 6) return Value(static_cast<double>(k) + 0.5);
      return Value(k % 8);
  }
  return Value(0);
}

DataType ColumnType(KeyKind kind) {
  switch (kind) {
    case KeyKind::kDouble:
      return DataType::kDouble;
    case KeyKind::kString:
      return DataType::kString;
    default:
      return DataType::kInt;
  }
}

StreamSpec StreamWithKey(DataType key_type) {
  StreamSpec spec;
  (void)spec.schema.AddField({"key", key_type});
  (void)spec.schema.AddField({"val", DataType::kDouble});
  (void)spec.schema.AddField({"tag", DataType::kInt});
  FieldGeneratorSpec key_gen;
  key_gen.dist = key_type == DataType::kString ? FieldDistribution::kWordString
                 : key_type == DataType::kDouble
                     ? FieldDistribution::kUniformDouble
                     : FieldDistribution::kUniformKey;
  FieldGeneratorSpec val_gen;
  val_gen.dist = FieldDistribution::kUniformDouble;
  FieldGeneratorSpec tag_gen;
  spec.specs = {key_gen, val_gen, tag_gen};
  return spec;
}

ArrivalProcess::Options Arrival() {
  ArrivalProcess::Options a;
  a.rate = 100.0;
  return a;
}

// Random elements with out-of-order event times: mostly advancing, with
// some rows up to 0.4 s late.
std::vector<StreamElement> RandomElements(KeyKind kind, int n, uint64_t seed,
                                          double step = 0.01) {
  Rng rng(seed);
  std::vector<StreamElement> rows;
  for (int i = 0; i < n; ++i) {
    StreamElement e;
    const double jitter =
        rng.Bernoulli(0.2) ? -rng.Uniform(0.0, 0.4) : rng.Uniform(0.0, 0.02);
    e.tuple.event_time = std::max(0.0, i * step + jitter);
    e.tuple.values = {DrawKey(kind, &rng), Value(rng.Uniform(-50.0, 50.0)),
                      Value(static_cast<int64_t>(i))};
    e.birth = e.tuple.event_time - rng.Uniform(0.0, 0.01);
    e.attr_id = static_cast<uint32_t>(i);
    rows.push_back(std::move(e));
  }
  return rows;
}

data::Batch ToBatch(const data::BatchLayout& layout,
                    const std::vector<StreamElement>& rows, size_t begin,
                    size_t end) {
  data::Batch batch(layout);
  for (size_t i = begin; i < end; ++i) {
    batch.AppendTuple(rows[i].tuple, rows[i].birth, rows[i].attr_id);
  }
  return batch;
}

// Exact sameness: type and bits, so 3 vs 3.0 or 0.0 vs -0.0 differ.
bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

bool SameValue(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case DataType::kInt:
      return a.AsInt() == b.AsInt();
    case DataType::kDouble:
      return SameBits(a.AsDouble(), b.AsDouble());
    case DataType::kString:
      return a.AsString() == b.AsString();
  }
  return false;
}

std::vector<StreamElement> BatchRows(const data::Batch& batch) {
  std::vector<StreamElement> rows;
  for (size_t r = 0; r < batch.NumRows(); ++r) {
    StreamElement e;
    e.tuple = batch.RowTuple(r);
    e.birth = batch.birth(r);
    e.attr_id = batch.attr_id(r);
    rows.push_back(std::move(e));
  }
  return rows;
}

void ExpectSameRows(const std::vector<StreamElement>& want,
                    const std::vector<StreamElement>& got,
                    const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    const Tuple& w = want[i].tuple;
    const Tuple& g = got[i].tuple;
    ASSERT_EQ(w.values.size(), g.values.size()) << what << " row " << i;
    for (size_t c = 0; c < w.values.size(); ++c) {
      EXPECT_TRUE(SameValue(w.values[c], g.values[c]))
          << what << " row " << i << " col " << c << ": "
          << w.values[c].ToString() << " vs " << g.values[c].ToString();
    }
    EXPECT_TRUE(SameBits(w.event_time, g.event_time)) << what << " row " << i;
    EXPECT_TRUE(SameBits(want[i].birth, got[i].birth)) << what << " row " << i;
    EXPECT_EQ(want[i].attr_id, got[i].attr_id) << what << " row " << i;
  }
}

// One plan kept alive per test: CreateOperatorInstance copies what it
// needs, but the layouts come from the plan's derived schemas.
struct Built {
  LogicalPlan plan;
  LogicalPlan::OpId op = 0;
};

Built JoinPlan(DataType key_type, WindowSpec window) {
  PlanBuilder b;
  auto l = b.Source("l", StreamWithKey(key_type), Arrival());
  auto r = b.Source("r", StreamWithKey(key_type), Arrival());
  auto j = b.WindowJoin("j", l, r, 0, 0, window);
  b.Sink("k", j);
  auto plan = b.Build();
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  Built built{std::move(*plan), 0};
  built.op = *built.plan.FindOperator("j");
  return built;
}

Built AggPlan(DataType key_type, WindowSpec window, size_t key_field) {
  PlanBuilder b;
  auto s = b.Source("s", StreamWithKey(key_type), Arrival());
  auto a = b.WindowAggregate("a", s, window, AggregateFn::kSum, 1, key_field);
  b.Sink("k", a);
  auto plan = b.Build();
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  Built built{std::move(*plan), 0};
  built.op = *built.plan.FindOperator("a");
  return built;
}

std::unique_ptr<OperatorInstance> Instance(const Built& built) {
  auto inst = CreateOperatorInstance(built.plan, built.op, 0, 1);
  EXPECT_TRUE(inst.ok()) << inst.status().ToString();
  return std::move(*inst);
}

// The three ways rows reach an operator: a ProcessBatch call per random
// chunk, a ProcessBatch call per row, and the row entry point Process.
enum class Feed { kChunks, kOneRowChunks, kElements };
constexpr Feed kFeeds[] = {Feed::kChunks, Feed::kOneRowChunks,
                           Feed::kElements};

const char* FeedName(Feed feed) {
  switch (feed) {
    case Feed::kChunks:
      return "chunks";
    case Feed::kOneRowChunks:
      return "1-row chunks";
    case Feed::kElements:
      return "elements";
  }
  return "?";
}

// Runs rows [begin, end) (all on `port`) through `op` fed as `feed`.
void RunRows(OperatorInstance* op, Feed feed,
             const data::BatchLayout& in_layout,
             const data::BatchLayout& out_layout,
             const std::vector<StreamElement>& rows, size_t begin, size_t end,
             int port, std::vector<StreamElement>* out) {
  if (feed == Feed::kElements) {
    for (size_t i = begin; i < end; ++i) {
      ASSERT_TRUE(op->Process(rows[i], port, 0.0, out).ok());
    }
    return;
  }
  const data::Batch in = ToBatch(in_layout, rows, begin, end);
  data::Batch result(out_layout);
  if (feed == Feed::kChunks) {
    ASSERT_TRUE(op->ProcessBatch(in, 0, in.NumRows(), port, 0.0, &result)
                    .ok());
  } else {
    for (size_t r = 0; r < in.NumRows(); ++r) {
      ASSERT_TRUE(op->ProcessBatch(in, r, r + 1, port, 0.0, &result).ok());
    }
  }
  for (StreamElement& e : BatchRows(result)) out->push_back(std::move(e));
}

struct Case {
  KeyKind kind;
  const char* name;
};
constexpr Case kCases[] = {{KeyKind::kInt, "int"},
                           {KeyKind::kBigInt, "int above 2^53"},
                           {KeyKind::kDouble, "double with +-0"},
                           {KeyKind::kString, "string"},
                           {KeyKind::kPromoted, "promoted int/double"}};

// ---------------------------------------------------------------------------
// Differential tests.

void RunJoinDifferential(KeyKind kind, WindowSpec window, int n,
                         uint64_t seed, const std::string& what) {
  const Built built = JoinPlan(ColumnType(kind), window);
  const data::BatchLayout in_layout(StreamWithKey(ColumnType(kind)).schema);
  const data::BatchLayout out_layout =
      LayoutForSchema(built.plan.OutputSchema(built.op));
  const std::vector<StreamElement> rows = RandomElements(kind, n, seed);
  for (Feed feed : kFeeds) {
    const std::string label = what + ", " + FeedName(feed);
    RefJoin ref(window, 0, 0);
    auto op = Instance(built);
    Rng rng(seed ^ 0x5eed);
    std::vector<StreamElement> want;
    std::vector<StreamElement> got;
    for (size_t begin = 0; begin < rows.size();) {
      const auto len = static_cast<size_t>(rng.UniformInt(1, 40));
      const size_t end = std::min(rows.size(), begin + len);
      const int port = static_cast<int>(rng.UniformInt(0, 1));
      for (size_t i = begin; i < end; ++i) ref.Process(rows[i], port, &want);
      RunRows(op.get(), feed, in_layout, out_layout, rows, begin, end, port,
              &got);
      ASSERT_EQ(ref.StateSize(), op->StateSize()) << label << " @" << end;
      begin = end;
    }
    ExpectSameRows(want, got, label);
    EXPECT_GT(want.size(), 0u) << label;
  }
}

TEST(KeyedStateDifferentialTest, TimeJoinMatchesOrderedMapReference) {
  WindowSpec window;
  window.duration_ms = 150.0;
  for (const Case& c : kCases) {
    RunJoinDifferential(c.kind, window, 1500, 11,
                        std::string("time join, ") + c.name);
  }
}

TEST(KeyedStateDifferentialTest, CountJoinMatchesOrderedMapReference) {
  WindowSpec window;
  window.policy = WindowPolicy::kCount;
  window.length_tuples = 3;
  for (const Case& c : kCases) {
    RunJoinDifferential(c.kind, window, 1500, 12,
                        std::string("count join, ") + c.name);
  }
}

void RunTimeWindowDifferential(KeyKind kind, WindowSpec window,
                               size_t key_field, uint64_t seed,
                               const std::string& what) {
  const Built built = AggPlan(ColumnType(kind), window, key_field);
  const data::BatchLayout in_layout(StreamWithKey(ColumnType(kind)).schema);
  const data::BatchLayout out_layout =
      LayoutForSchema(built.plan.OutputSchema(built.op));
  const std::vector<StreamElement> rows = RandomElements(kind, 2000, seed);
  for (Feed feed : kFeeds) {
    const std::string label = what + ", " + FeedName(feed);
    RefTimeWindow ref(window, AggregateFn::kSum, 1, key_field);
    auto op = Instance(built);
    Rng rng(seed ^ 0x5eed);
    std::vector<StreamElement> want;
    std::vector<StreamElement> got;
    double max_t = 0.0;
    for (size_t begin = 0; begin < rows.size();) {
      const auto len = static_cast<size_t>(rng.UniformInt(1, 40));
      const size_t end = std::min(rows.size(), begin + len);
      for (size_t i = begin; i < end; ++i) {
        ref.Process(rows[i]);
        max_t = std::max(max_t, rows[i].tuple.event_time);
      }
      RunRows(op.get(), feed, in_layout, out_layout, rows, begin, end, 0, &got);
      // A watermark trailing the newest event time, so late rows both
      // land in open panes and miss fired ones.
      const double wm = max_t - 0.2;
      ref.OnTimer(wm, &want);
      if (op->NextTimerTime() <= wm) op->OnTimer(wm, &got);
      ASSERT_EQ(ref.StateSize(), op->StateSize()) << label << " @" << end;
      begin = end;
    }
    ref.OnTimer(kInf, &want);
    op->Flush(kInf, &got);
    EXPECT_EQ(op->StateSize(), 0u) << label;
    EXPECT_EQ(ref.late_drops(), op->LateDrops()) << label;
    EXPECT_GT(ref.late_drops(), 0) << label;
    ExpectSameRows(want, got, label);
  }
}

TEST(KeyedStateDifferentialTest, TimeWindowMatchesOrderedMapReference) {
  WindowSpec tumbling;
  tumbling.duration_ms = 100.0;
  WindowSpec sliding = tumbling;
  sliding.type = WindowType::kSliding;
  sliding.slide_ratio = 0.3;
  for (const Case& c : kCases) {
    RunTimeWindowDifferential(c.kind, tumbling, 0, 21,
                              std::string("tumbling, ") + c.name);
    RunTimeWindowDifferential(c.kind, sliding, 0, 22,
                              std::string("sliding, ") + c.name);
  }
  RunTimeWindowDifferential(KeyKind::kInt, sliding,
                            OperatorDescriptor::kNoKey, 23, "unkeyed");
}

void RunCountWindowDifferential(KeyKind kind, WindowSpec window,
                                size_t key_field, uint64_t seed,
                                const std::string& what) {
  const Built built = AggPlan(ColumnType(kind), window, key_field);
  const data::BatchLayout in_layout(StreamWithKey(ColumnType(kind)).schema);
  const data::BatchLayout out_layout =
      LayoutForSchema(built.plan.OutputSchema(built.op));
  const std::vector<StreamElement> rows = RandomElements(kind, 1500, seed);
  for (Feed feed : kFeeds) {
    const std::string label = what + ", " + FeedName(feed);
    RefCountWindow ref(window, AggregateFn::kSum, 1, key_field);
    auto op = Instance(built);
    Rng rng(seed ^ 0x5eed);
    std::vector<StreamElement> want;
    std::vector<StreamElement> got;
    for (size_t begin = 0; begin < rows.size();) {
      const auto len = static_cast<size_t>(rng.UniformInt(1, 40));
      const size_t end = std::min(rows.size(), begin + len);
      for (size_t i = begin; i < end; ++i) ref.Process(rows[i], &want);
      RunRows(op.get(), feed, in_layout, out_layout, rows, begin, end, 0, &got);
      ASSERT_EQ(ref.StateSize(), op->StateSize()) << label << " @" << end;
      begin = end;
    }
    ExpectSameRows(want, got, label);
    EXPECT_GT(want.size(), 0u) << label;
  }
}

TEST(KeyedStateDifferentialTest, CountWindowMatchesOrderedMapReference) {
  WindowSpec tumbling;
  tumbling.policy = WindowPolicy::kCount;
  tumbling.length_tuples = 4;
  WindowSpec sliding = tumbling;
  sliding.type = WindowType::kSliding;
  sliding.length_tuples = 5;
  sliding.slide_ratio = 0.4;
  for (const Case& c : kCases) {
    RunCountWindowDifferential(c.kind, tumbling, 0, 31,
                               std::string("tumbling, ") + c.name);
    RunCountWindowDifferential(c.kind, sliding, 0, 32,
                               std::string("sliding, ") + c.name);
  }
  RunCountWindowDifferential(KeyKind::kInt, sliding,
                             OperatorDescriptor::kNoKey, 33, "unkeyed");
}

// A long time-policy join whose keys recur well after the window: nearly
// every buffered row is evicted again, so the stores compact many times
// over, and the results must match the reference throughout.
TEST(KeyedStateDifferentialTest, LongTimeJoinMatchesReferenceAcrossCompaction) {
  WindowSpec window;
  window.duration_ms = 50.0;
  const Built built = JoinPlan(DataType::kInt, window);
  const data::BatchLayout in_layout(StreamWithKey(DataType::kInt).schema);
  const data::BatchLayout out_layout =
      LayoutForSchema(built.plan.OutputSchema(built.op));
  RefJoin ref(window, 0, 0);
  auto op = Instance(built);
  Rng rng(41);
  std::vector<StreamElement> want;
  std::vector<StreamElement> got;
  const int kChunks = 400;
  const int kRows = 50;
  for (int chunk = 0; chunk < kChunks; ++chunk) {
    std::vector<StreamElement> rows;
    for (int i = 0; i < kRows; ++i) {
      const int64_t n = chunk * kRows + i;
      StreamElement e;
      e.tuple.event_time = static_cast<double>(n) * 1e-3;
      e.tuple.values = {Value(rng.UniformInt(0, 199)), Value(1.0), Value(n)};
      e.birth = e.tuple.event_time;
      e.attr_id = static_cast<uint32_t>(n);
      rows.push_back(std::move(e));
    }
    const int port = chunk % 2;
    for (const StreamElement& e : rows) ref.Process(e, port, &want);
    RunRows(op.get(), Feed::kChunks, in_layout, out_layout, rows, 0,
            rows.size(), port, &got);
    ASSERT_EQ(ref.StateSize(), op->StateSize()) << "chunk " << chunk;
  }
  // Each side inserted far more rows than twice its live rows plus the
  // compaction slack, so both stores compacted repeatedly.
  ASSERT_LT(2 * ref.StateSize() + 2 * KeyedRowStore::kCompactSlack,
            static_cast<size_t>(kChunks * kRows / 4));
  ExpectSameRows(want, got, "long time join");
}

// ---------------------------------------------------------------------------
// The rules an ordered map left undefined.

data::BatchLayout DoubleKeyLayout() {
  return data::BatchLayout(StreamWithKey(DataType::kDouble).schema);
}

StreamElement Row(Value key, double t, int64_t tag = 0) {
  StreamElement e;
  e.tuple.values = {std::move(key), Value(1.0), Value(tag)};
  e.tuple.event_time = t;
  e.birth = t;
  return e;
}

TEST(KeyedStateRulesTest, NanKeysEqualEachOtherAndNothingElse) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const KeyRef a = NumericKey(nan);
  const KeyRef b = NumericKey(-nan);
  EXPECT_TRUE(KeyEqual(a, b));
  EXPECT_EQ(HashKey(a), HashKey(b));
  EXPECT_FALSE(KeyEqual(a, NumericKey(0.0)));
  EXPECT_FALSE(KeyEqual(a, NumericKey(kInf)));
  EXPECT_TRUE(KeyLess(NumericKey(kInf), a));  // NaN sorts last
  EXPECT_FALSE(KeyLess(a, b));

  WindowSpec window;
  window.duration_ms = 1000.0;
  auto join = Instance(JoinPlan(DataType::kDouble, window));
  std::vector<StreamElement> out;
  ASSERT_TRUE(join->Process(Row(Value(nan), 0.1), 0, 0.1, &out).ok());
  ASSERT_TRUE(join->Process(Row(Value(1.0), 0.2), 1, 0.2, &out).ok());
  EXPECT_TRUE(out.empty());
  ASSERT_TRUE(join->Process(Row(Value(-nan), 0.3), 1, 0.3, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(std::isnan(out[0].tuple.values[0].AsDouble()));

  auto agg = Instance(AggPlan(DataType::kDouble, window, 0));
  out.clear();
  for (double key : {nan, 2.0, nan, -1.0}) {
    ASSERT_TRUE(agg->Process(Row(Value(key), 0.5), 0, 0.5, &out).ok());
  }
  agg->OnTimer(1.0, &out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].tuple.values[0].AsDouble(), -1.0);
  EXPECT_EQ(out[1].tuple.values[0].AsDouble(), 2.0);
  EXPECT_TRUE(std::isnan(out[2].tuple.values[0].AsDouble()));
  EXPECT_EQ(out[2].tuple.values[1].AsDouble(), 2.0);  // both NaN rows
}

TEST(KeyedStateRulesTest, StringKeysNeverEqualNumericKeys) {
  // "abc" has AsNumeric() 3, which an ordered map keyed by Value took as
  // equal to 3.
  EXPECT_FALSE(KeyEqual(StringKey("abc"), NumericKey(3.0)));
  EXPECT_TRUE(KeyLess(NumericKey(1e300), StringKey("")));  // numbers first

  // A promoted int column holding a string: reachable only by bypassing
  // PDSP-E301's key type check.
  WindowSpec window;
  window.duration_ms = 1000.0;
  const Built join_plan = JoinPlan(DataType::kInt, window);
  auto join = Instance(join_plan);
  std::vector<StreamElement> out;
  ASSERT_TRUE(join->Process(Row(Value("abc"), 0.1), 0, 0.1, &out).ok());
  ASSERT_TRUE(join->Process(Row(Value(3), 0.2), 1, 0.2, &out).ok());
  EXPECT_TRUE(out.empty());
  ASSERT_TRUE(join->Process(Row(Value("abc"), 0.3), 1, 0.3, &out).ok());
  EXPECT_EQ(out.size(), 1u);

  auto agg = Instance(AggPlan(DataType::kInt, window, 0));
  out.clear();
  for (Value key : {Value("abc"), Value(3), Value(7), Value("b")}) {
    ASSERT_TRUE(agg->Process(Row(key, 0.5), 0, 0.5, &out).ok());
  }
  agg->OnTimer(1.0, &out);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0].tuple.values[0].AsInt(), 3);
  EXPECT_EQ(out[1].tuple.values[0].AsInt(), 7);
  EXPECT_EQ(out[2].tuple.values[0].AsString(), "abc");
  EXPECT_EQ(out[3].tuple.values[0].AsString(), "b");
}

TEST(KeyedStateRulesTest, EqualKeysEmitTheFirstCellThePaneSaw) {
  WindowSpec window;
  window.duration_ms = 1000.0;
  auto agg = Instance(AggPlan(DataType::kDouble, window, 0));
  std::vector<StreamElement> out;
  ASSERT_TRUE(agg->Process(Row(Value(-0.0), 0.2), 0, 0.2, &out).ok());
  ASSERT_TRUE(agg->Process(Row(Value(0.0), 0.3), 0, 0.3, &out).ok());
  ASSERT_TRUE(agg->Process(Row(Value(0.0), 1.3), 0, 1.3, &out).ok());
  agg->OnTimer(2.0, &out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_TRUE(std::signbit(out[0].tuple.values[0].AsDouble()));
  EXPECT_EQ(out[0].tuple.values[1].AsDouble(), 2.0);
  EXPECT_FALSE(std::signbit(out[1].tuple.values[0].AsDouble()));
}

// ---------------------------------------------------------------------------
// KeyIndex and KeyedRowStore.

TEST(KeyIndexTest, DenseIdsInFirstInsertionOrderAcrossGrowth) {
  KeyIndex index;
  std::vector<std::string> words;
  for (int i = 0; i < 5000; ++i) {
    // Built with append: GCC 12 at -O3 misreports `"w" + std::string&&`
    // as an overlapping memcpy (-Werror=restrict).
    std::string word = "w";
    word.append(std::to_string(i));
    words.push_back(std::move(word));
  }
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 5000; ++i) {
      bool inserted = false;
      const KeyRef key = i % 2 == 0 ? NumericKey(i) : StringKey(words[i]);
      EXPECT_EQ(index.Insert(key, HashKey(key), &inserted),
                static_cast<uint32_t>(i));
      EXPECT_EQ(inserted, round == 0);
    }
  }
  EXPECT_EQ(index.size(), 5000u);
  EXPECT_EQ(index.key(3).str, "w3");
  bool inserted = false;
  const KeyRef w0 = StringKey("w0");  // 0 went in as a number
  EXPECT_EQ(index.Insert(w0, HashKey(w0), &inserted), 5000u);
  EXPECT_TRUE(inserted);
}

// The store under a long time-policy join's access pattern: insert, evict
// the key's expired prefix, compact. It never holds more than about twice
// its live rows, and compaction keeps every list's rows and order.
TEST(KeyedRowStoreTest, LongTimeJoinRunStaysWithinCompactionBound) {
  const data::BatchLayout layout = DoubleKeyLayout();
  KeyedRowStore store(layout);
  const int kKeys = 64;
  store.ReserveKeys(kKeys);
  data::Batch row(layout);
  Rng rng(7);
  int compactions = 0;
  for (int n = 0; n < 200000; ++n) {
    const double t = n * 1e-4;
    const auto key = static_cast<uint32_t>(rng.UniformInt(0, kKeys - 1));
    row.Clear();
    row.AppendDouble(0, key);
    row.AppendDouble(1, t);
    row.AppendInt(2, n);
    row.FinishRow(t, t, static_cast<uint32_t>(n));
    store.Append(key, row, 0);
    store.EvictBefore(key, t - 0.05);
    compactions += store.MaybeCompact() ? 1 : 0;
    ASSERT_LE(store.rows().NumRows(),
              2 * store.live_rows() + KeyedRowStore::kCompactSlack)
        << "row " << n;
  }
  EXPECT_GT(compactions, 10);
  // Every list is in insertion order and holds only its own key's rows.
  size_t walked = 0;
  for (uint32_t key = 0; key < kKeys; ++key) {
    double last_t = -1.0;
    for (uint32_t r = store.head(key); r != KeyedRowStore::kNil;
         r = store.next(r)) {
      EXPECT_EQ(store.rows().DoubleData(0)[r], key);
      EXPECT_GT(store.rows().event_time(r), last_t);
      last_t = store.rows().event_time(r);
      ++walked;
    }
  }
  EXPECT_EQ(walked, store.live_rows());
}

}  // namespace
}  // namespace pdsp

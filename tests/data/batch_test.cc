#include "src/data/batch.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/data/generator.h"
#include "src/runtime/element.h"
#include "src/runtime/kernels.h"

namespace pdsp {
namespace {

data::BatchLayout KeyValueLayout() {
  return data::BatchLayout({DataType::kInt, DataType::kDouble});
}

Tuple MakeTuple(std::vector<Value> values, double event_time) {
  Tuple t;
  t.values = std::move(values);
  t.event_time = event_time;
  return t;
}

TEST(BatchTest, AppendTupleRoundTripsRows) {
  data::Batch b(KeyValueLayout());
  b.AppendTuple(MakeTuple({Value(7), Value(1.5)}, 0.25), 0.125, 3);
  b.AppendTuple(MakeTuple({Value(-2), Value(0.0)}, 0.5), 0.375, 4);
  ASSERT_EQ(b.NumRows(), 2u);
  EXPECT_EQ(b.promotions(), 0u);

  Tuple t0 = b.RowTuple(0);
  EXPECT_EQ(t0.values[0], Value(7));
  EXPECT_EQ(t0.values[1], Value(1.5));
  EXPECT_DOUBLE_EQ(t0.event_time, 0.25);
  EXPECT_DOUBLE_EQ(b.birth(0), 0.125);
  EXPECT_EQ(b.attr_id(0), 3u);
  EXPECT_EQ(b.RowTuple(1).values[0], Value(-2));
  EXPECT_EQ(b.attr_id(1), 4u);
}

TEST(BatchTest, TypeMismatchPromotesColumnExactly) {
  data::Batch b(KeyValueLayout());
  b.AppendTuple(MakeTuple({Value(1), Value(2.0)}, 0.0), 0.0, kNoAttr);
  // A string where the layout says int: the column must fall back rather
  // than coerce, preserving the value bit-for-bit.
  b.AppendTuple(MakeTuple({Value("oops"), Value(3.0)}, 1.0), 1.0, kNoAttr);
  EXPECT_EQ(b.promotions(), 1u);
  EXPECT_TRUE(b.column_promoted(0));
  EXPECT_FALSE(b.column_promoted(1));
  EXPECT_EQ(b.IntData(0), nullptr);
  EXPECT_EQ(b.ValueAt(0, 0), Value(1));
  EXPECT_EQ(b.ValueAt(1, 0), Value("oops"));
  EXPECT_EQ(b.ValueAt(1, 1), Value(3.0));
}

TEST(BatchTest, ShortStringsInternLongStringsDoNot) {
  data::Batch b(data::BatchLayout({DataType::kString}));
  const std::string repeated = "hello";
  const std::string long_payload(data::Batch::kInternMaxBytes + 1, 'x');
  for (int i = 0; i < 100; ++i) {
    b.AppendString(0, repeated);
    b.FinishRow(0.0, 0.0, kNoAttr);
  }
  const size_t interned_bytes = b.ArenaBytes();
  EXPECT_EQ(interned_bytes, repeated.size());  // one arena copy
  const std::string_view* d = b.StringData(0);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d[0].data(), d[99].data());  // all views share the copy
  b.AppendString(0, long_payload);
  b.FinishRow(0.0, 0.0, kNoAttr);
  b.AppendString(0, long_payload);
  b.FinishRow(0.0, 0.0, kNoAttr);
  // Long payloads are appended as-is, once per row.
  EXPECT_EQ(b.ArenaBytes(), interned_bytes + 2 * long_payload.size());
}

TEST(BatchTest, AppendGatherSelectsRepeatsAndHandlesEdgeCases) {
  data::Batch src(KeyValueLayout());
  for (int i = 0; i < 4; ++i) {
    src.AppendTuple(MakeTuple({Value(i), Value(i * 0.5)}, i), i, kNoAttr);
  }
  // Empty selection.
  data::Batch none(KeyValueLayout());
  none.AppendGather(src, {});
  EXPECT_EQ(none.NumRows(), 0u);
  // Full selection preserves order.
  data::Batch all(KeyValueLayout());
  all.AppendGather(src, {0, 1, 2, 3});
  ASSERT_EQ(all.NumRows(), 4u);
  for (size_t r = 0; r < 4; ++r) {
    EXPECT_EQ(all.RowTuple(r).values[0], src.RowTuple(r).values[0]);
  }
  // Single survivor.
  data::Batch one(KeyValueLayout());
  one.AppendGather(src, {2});
  ASSERT_EQ(one.NumRows(), 1u);
  EXPECT_EQ(one.RowTuple(0).values[0], Value(2));
  // Repeated indices (FlatMap replication).
  data::Batch twice(KeyValueLayout());
  twice.AppendGather(src, {1, 1, 3});
  ASSERT_EQ(twice.NumRows(), 3u);
  EXPECT_EQ(twice.RowTuple(0).values[0], Value(1));
  EXPECT_EQ(twice.RowTuple(1).values[0], Value(1));
  EXPECT_EQ(twice.RowTuple(2).values[0], Value(3));
}

// Column-wise copies across differing layouts follow AppendValue's rule: a
// matching cell stays typed, a mismatched one promotes the destination
// column, and the rows read back exactly as AppendTuple would have stored
// them.
TEST(BatchTest, ColumnWiseCopiesMatchAppendTuple) {
  data::Batch src(KeyValueLayout());
  src.AppendTuple(MakeTuple({Value(7), Value(1.5)}, 0.25), 0.125, 3);
  src.AppendTuple(MakeTuple({Value(-2), Value("x")}, 0.5), 0.375, 4);
  ASSERT_TRUE(src.column_promoted(1));
  const data::BatchLayout swapped({DataType::kDouble, DataType::kInt});

  data::Batch by_tuple(swapped);
  data::Batch by_column(swapped);
  data::Batch by_row(swapped);
  const data::SelectionVector sel = {1, 0, 1};
  for (uint32_t r : sel) {
    Tuple t = src.RowTuple(r);
    std::swap(t.values[0], t.values[1]);
    by_tuple.AppendTuple(t, src.birth(r), src.attr_id(r));
    by_row.AppendCell(0, src, 1, r);
    by_row.AppendCell(1, src, 0, r);
    by_row.FinishRow(src.event_time(r), src.birth(r), src.attr_id(r));
  }
  by_column.AppendColumnGather(0, src, 1, sel);
  by_column.AppendColumnGather(1, src, 0, sel);
  const std::vector<double> times = {0.5, 0.25, 0.5};
  const std::vector<double> births = {0.375, 0.125, 0.375};
  const std::vector<uint32_t> attrs = {4, 3, 4};
  by_column.FinishRows(times.data(), births.data(), attrs.data(), 3);

  for (const data::Batch* b : {&by_column, &by_row}) {
    ASSERT_EQ(b->NumRows(), 3u);
    EXPECT_EQ(b->promotions(), by_tuple.promotions());
    for (size_t r = 0; r < 3; ++r) {
      const Tuple want = by_tuple.RowTuple(r);
      const Tuple got = b->RowTuple(r);
      for (size_t c = 0; c < 2; ++c) {
        EXPECT_EQ(got.values[c].type(), want.values[c].type());
        EXPECT_EQ(got.values[c], want.values[c]);
      }
      EXPECT_EQ(got.event_time, want.event_time);
      EXPECT_EQ(b->birth(r), by_tuple.birth(r));
      EXPECT_EQ(b->attr_id(r), by_tuple.attr_id(r));
    }
  }
}

TEST(BatchTest, WireSizeMatchesTupleWireSize) {
  data::Batch b(data::BatchLayout(
      {DataType::kInt, DataType::kDouble, DataType::kString}));
  b.AppendTuple(MakeTuple({Value(1), Value(2.0), Value("abc")}, 0.0), 0.0,
                kNoAttr);
  b.AppendTuple(MakeTuple({Value(2), Value(3.0), Value("defghij")}, 1.0), 1.0,
                kNoAttr);
  size_t expected = 0;
  for (size_t r = 0; r < b.NumRows(); ++r) {
    expected += b.RowTuple(r).WireSize();
  }
  EXPECT_EQ(b.WireSize(0, b.NumRows()), expected);
  EXPECT_EQ(b.WireSize(1, 2), b.RowTuple(1).WireSize());
  EXPECT_EQ(b.WireSize(0, 0), 0u);
}

// The simulator recycles small sub-batches with Clear(), so a cleared batch
// must be indistinguishable from a fresh one: no leftover promotion, no
// interned views into the released arena, identical contents and sizes.
TEST(BatchTest, ClearedBatchBehavesLikeFreshBatch) {
  const data::BatchLayout layout(
      {DataType::kInt, DataType::kDouble, DataType::kString});
  const std::string long_payload(data::Batch::kInternMaxBytes + 5, 'y');
  data::Batch reused(layout);
  for (int i = 0; i < 40; ++i) {
    reused.AppendTuple(
        MakeTuple({Value(i), Value(0.5 * i), Value(i % 2 ? "hot" : "cold")},
                  i),
        i, static_cast<uint32_t>(i));
  }
  reused.AppendTuple(
      MakeTuple({Value("promoted"), Value(1.0), Value(long_payload)}, 99.0),
      99.0, kNoAttr);
  ASSERT_EQ(reused.promotions(), 1u);
  ASSERT_TRUE(reused.column_promoted(0));
  ASSERT_GT(reused.ArenaBytes(), 0u);

  reused.Clear();
  EXPECT_EQ(reused.NumRows(), 0u);
  EXPECT_EQ(reused.promotions(), 0u);
  EXPECT_EQ(reused.ArenaBytes(), 0u);
  for (size_t c = 0; c < reused.NumColumns(); ++c) {
    EXPECT_FALSE(reused.column_promoted(c)) << c;
  }

  // The same appends — per-row, range and gather — on both batches.
  data::Batch src(layout);
  for (int i = 0; i < 6; ++i) {
    src.AppendTuple(
        MakeTuple({Value(100 + i), Value(i * 0.25),
                   Value(i % 3 ? std::string("cold") : long_payload)},
                  10.0 + i),
        5.0 + i, static_cast<uint32_t>(7 * i));
  }
  data::Batch fresh(layout);
  for (data::Batch* b : {&reused, &fresh}) {
    b->AppendTuple(MakeTuple({Value(1), Value(2.0), Value("cold")}, 0.5),
                   0.25, 3);
    b->AppendInt(0, 2);
    b->AppendDouble(1, 3.0);
    b->AppendString(2, "hot");
    b->FinishRow(0.75, 0.5, kNoAttr);
    b->AppendRange(src, 1, 4);
    b->AppendGather(src, {5, 0, 0});
  }

  ASSERT_EQ(reused.NumRows(), fresh.NumRows());
  EXPECT_EQ(reused.promotions(), 0u);
  EXPECT_EQ(fresh.promotions(), 0u);
  for (size_t c = 0; c < layout.NumColumns(); ++c) {
    EXPECT_FALSE(reused.column_promoted(c)) << c;
  }
  EXPECT_NE(reused.IntData(0), nullptr);
  EXPECT_EQ(reused.ArenaBytes(), fresh.ArenaBytes());
  EXPECT_EQ(reused.WireSize(0, reused.NumRows()),
            fresh.WireSize(0, fresh.NumRows()));
  for (size_t r = 0; r < fresh.NumRows(); ++r) {
    for (size_t c = 0; c < layout.NumColumns(); ++c) {
      EXPECT_EQ(reused.ValueAt(r, c), fresh.ValueAt(r, c)) << r << "," << c;
    }
    EXPECT_EQ(reused.event_time(r), fresh.event_time(r)) << r;
    EXPECT_EQ(reused.birth(r), fresh.birth(r)) << r;
    EXPECT_EQ(reused.attr_id(r), fresh.attr_id(r)) << r;
  }
  // Interning restarted: repeated short keys share one copy in the new
  // arena rather than resolving to views into the released one.
  const std::string_view* d = reused.StringData(2);
  ASSERT_NE(d, nullptr);
  ASSERT_EQ(d[0], "cold");
  ASSERT_EQ(d[2], "cold");  // src row 1, appended by AppendRange
  EXPECT_EQ(d[0].data(), d[2].data());
}

// The property test of the tentpole contract: any tuple a randomized
// Table-3 stream can produce (1-15 columns, every type mix) survives a trip
// through a batch — including through gather and range copies — unchanged.
TEST(BatchPropertyTest, RoundTripOverRandomizedSchemas) {
  Rng rng(20240808);
  for (int trial = 0; trial < 50; ++trial) {
    SchemaRandomizerOptions opt;
    StreamSpec spec = RandomStreamSpec(opt, &rng);
    auto gen = TupleGenerator::Create(spec.schema, spec.specs,
                                      1000 + static_cast<uint64_t>(trial));
    ASSERT_TRUE(gen.ok()) << gen.status().ToString();
    data::Batch b{data::BatchLayout(spec.schema)};
    std::vector<Tuple> originals;
    for (int i = 0; i < 64; ++i) {
      Tuple t = gen->Next(i * 0.001);
      b.AppendTuple(t, i * 0.001, static_cast<uint32_t>(i));
      originals.push_back(std::move(t));
    }
    ASSERT_EQ(b.NumRows(), originals.size());
    EXPECT_EQ(b.promotions(), 0u) << "trial " << trial;
    // Direct round trip.
    for (size_t r = 0; r < originals.size(); ++r) {
      const Tuple back = b.RowTuple(r);
      ASSERT_EQ(back.values.size(), originals[r].values.size());
      for (size_t c = 0; c < back.values.size(); ++c) {
        EXPECT_EQ(back.values[c], originals[r].values[c])
            << "trial " << trial << " row " << r << " col " << c;
        EXPECT_EQ(back.values[c].type(), originals[r].values[c].type());
      }
      EXPECT_DOUBLE_EQ(back.event_time, originals[r].event_time);
      EXPECT_EQ(b.attr_id(r), static_cast<uint32_t>(r));
    }
    // Through a range copy and a reversing gather.
    data::Batch range{data::BatchLayout(spec.schema)};
    range.AppendRange(b, 16, 48);
    ASSERT_EQ(range.NumRows(), 32u);
    for (size_t r = 0; r < 32; ++r) {
      EXPECT_EQ(range.RowTuple(r).values, originals[16 + r].values);
    }
    data::SelectionVector reversed;
    for (size_t r = originals.size(); r > 0; --r) {
      reversed.push_back(static_cast<uint32_t>(r - 1));
    }
    data::Batch gathered{data::BatchLayout(spec.schema)};
    gathered.AppendGather(b, reversed);
    for (size_t r = 0; r < originals.size(); ++r) {
      EXPECT_EQ(gathered.RowTuple(r).values,
                originals[originals.size() - 1 - r].values);
    }
  }
}

// Generator equivalence: the columnar append path must draw the identical
// RNG sequence as the row path, so sources produce bit-identical streams
// whichever path the engine uses.
TEST(BatchPropertyTest, GeneratorAppendNextMatchesNext) {
  Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    SchemaRandomizerOptions opt;
    StreamSpec spec = RandomStreamSpec(opt, &rng);
    const uint64_t seed = 5000 + static_cast<uint64_t>(trial);
    auto row_gen = TupleGenerator::Create(spec.schema, spec.specs, seed);
    auto col_gen = TupleGenerator::Create(spec.schema, spec.specs, seed);
    ASSERT_TRUE(row_gen.ok() && col_gen.ok());
    data::Batch b{data::BatchLayout(spec.schema)};
    std::vector<Tuple> rows;
    for (int i = 0; i < 256; ++i) {
      rows.push_back(row_gen->Next(i * 0.01));
      col_gen->AppendNext(i * 0.01, i * 0.01, kNoAttr, &b);
    }
    ASSERT_EQ(b.NumRows(), rows.size());
    for (size_t r = 0; r < rows.size(); ++r) {
      const Tuple back = b.RowTuple(r);
      ASSERT_EQ(back.values.size(), rows[r].values.size());
      for (size_t c = 0; c < back.values.size(); ++c) {
        EXPECT_EQ(back.values[c], rows[r].values[c])
            << "trial " << trial << " row " << r << " col " << c;
      }
    }
  }
}

// Regression for the keying contract (satellite of the columnar refactor):
// Value::Hash must treat 1 and 1.0 as the same key, and the columnar hash
// kernel must agree with the scalar hash for every key type, or hash
// partitioning would route the same key to different instances depending on
// the data plane in use.
TEST(ValueHashRegressionTest, IntAndIntegralDoubleHashAlike) {
  EXPECT_EQ(Value(1).Hash(), Value(1.0).Hash());
  EXPECT_EQ(Value(-3).Hash(), Value(-3.0).Hash());
  EXPECT_EQ(Value(0).Hash(), Value(0.0).Hash());
  EXPECT_NE(Value(1.5).Hash(), Value(1).Hash());
  EXPECT_EQ(HashInt64Value(1), Value(1).Hash());
  EXPECT_EQ(HashDoubleValue(1.0), Value(1.0).Hash());
  EXPECT_EQ(HashStringValue("key"), Value("key").Hash());
}

TEST(ValueHashRegressionTest, ColumnarHashKernelMatchesScalarHash) {
  data::Batch b(data::BatchLayout(
      {DataType::kInt, DataType::kDouble, DataType::kString}));
  Rng rng(9);
  for (int i = 0; i < 128; ++i) {
    b.AppendInt(0, rng.UniformInt(-1000, 1000));
    // Mix integral and fractional doubles so the integral-double folding
    // path is exercised.
    b.AppendDouble(1, i % 2 == 0 ? static_cast<double>(i)
                                 : rng.Uniform(0.0, 100.0));
    b.AppendString(2, DictionaryWord(rng.UniformInt(0, 500)));
    b.FinishRow(0.0, 0.0, kNoAttr);
  }
  std::vector<uint64_t> hashes(b.NumRows());
  for (size_t col = 0; col < b.NumColumns(); ++col) {
    kernels::HashColumn(b, 0, b.NumRows(), col, hashes.data());
    for (size_t r = 0; r < b.NumRows(); ++r) {
      EXPECT_EQ(hashes[r], b.ValueAt(r, col).Hash())
          << "col " << col << " row " << r;
    }
  }
}

}  // namespace
}  // namespace pdsp

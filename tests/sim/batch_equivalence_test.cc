// The columnar data plane's core contract: kernel chunk size is purely an
// execution granularity. Running the same seeded simulation with
// batch_rows=1 (tuple-at-a-time through the row-view adapters) and
// batch_rows=256 (vectorized kernels over whole chunks) must produce
// bit-identical results for every application in the Table 2 suite —
// identical tuple counts, identical latency statistics, identical per-
// operator stats and identical latency-attribution telescoping.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "src/apps/apps.h"
#include "src/harness/synthetic_suite.h"
#include "src/sim/simulation.h"

namespace pdsp {
namespace {

ExecutionOptions AppOptionsFor(int64_t batch_rows) {
  ExecutionOptions opt;
  opt.sim.duration_s = 2.0;
  opt.sim.warmup_s = 0.5;
  opt.sim.seed = 17;
  opt.sim.batch_rows = batch_rows;
  opt.sim.attribute_latency = true;
  return opt;
}

// Bit-level double equality: NaN percentiles (an app whose windows never
// fire inside the horizon, like FD's sparse Markov-chain scorer at this
// data density) must still compare equal across the two legs.
::testing::AssertionResult SameBits(double x, double y) {
  if (std::memcmp(&x, &y, sizeof(double)) == 0) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure() << x << " vs " << y;
}

void ExpectBitIdentical(const SimResult& a, const SimResult& b,
                        const char* app) {
  EXPECT_EQ(a.source_tuples, b.source_tuples) << app;
  EXPECT_EQ(a.sink_tuples, b.sink_tuples) << app;
  EXPECT_EQ(a.late_drops, b.late_drops) << app;
  EXPECT_EQ(a.backpressure_skipped, b.backpressure_skipped) << app;
  EXPECT_EQ(a.events_processed, b.events_processed) << app;
  EXPECT_TRUE(SameBits(a.virtual_time_end, b.virtual_time_end)) << app;
  EXPECT_TRUE(SameBits(a.median_latency_s, b.median_latency_s)) << app;
  EXPECT_TRUE(SameBits(a.mean_latency_s, b.mean_latency_s)) << app;
  EXPECT_TRUE(SameBits(a.p95_latency_s, b.p95_latency_s)) << app;
  EXPECT_TRUE(SameBits(a.p99_latency_s, b.p99_latency_s)) << app;
  EXPECT_TRUE(SameBits(a.throughput_tps, b.throughput_tps)) << app;
  ASSERT_EQ(a.op_stats.size(), b.op_stats.size()) << app;
  for (size_t i = 0; i < a.op_stats.size(); ++i) {
    const OperatorRunStats& sa = a.op_stats[i];
    const OperatorRunStats& sb = b.op_stats[i];
    EXPECT_EQ(sa.tuples_in, sb.tuples_in) << app << " op " << sa.name;
    EXPECT_EQ(sa.tuples_out, sb.tuples_out) << app << " op " << sa.name;
    EXPECT_EQ(sa.late_drops, sb.late_drops) << app << " op " << sa.name;
    EXPECT_DOUBLE_EQ(sa.busy_time_s, sb.busy_time_s)
        << app << " op " << sa.name;
    EXPECT_EQ(sa.max_queue_tuples, sb.max_queue_tuples)
        << app << " op " << sa.name;
    EXPECT_DOUBLE_EQ(sa.latency.queue_wait_sum_s, sb.latency.queue_wait_sum_s)
        << app << " op " << sa.name;
    EXPECT_DOUBLE_EQ(sa.latency.service_sum_s, sb.latency.service_sum_s)
        << app << " op " << sa.name;
    EXPECT_DOUBLE_EQ(sa.latency.window_sum_s, sb.latency.window_sum_s)
        << app << " op " << sa.name;
  }
  EXPECT_EQ(a.breakdown.samples, b.breakdown.samples) << app;
  EXPECT_DOUBLE_EQ(a.breakdown.total_s, b.breakdown.total_s) << app;
  EXPECT_DOUBLE_EQ(a.breakdown.ComponentSum(), b.breakdown.ComponentSum())
      << app;
  // The attribution invariant itself must keep telescoping in both modes.
  if (a.breakdown.samples > 0) {
    EXPECT_NEAR(a.breakdown.ComponentSum(), a.breakdown.total_s,
                1e-9 + 1e-9 * std::abs(a.breakdown.total_s))
        << app;
  }
}

TEST(BatchEquivalenceTest, AllFourteenAppsBitIdenticalAcrossBatchSizes) {
  AppOptions app_opt;
  app_opt.event_rate = 4000.0;
  app_opt.parallelism = 2;
  for (const AppInfo& info : AllApps()) {
    auto plan = MakeApp(info.id, app_opt);
    ASSERT_TRUE(plan.ok()) << info.abbrev << ": "
                           << plan.status().ToString();
    auto row = ExecutePlan(*plan, Cluster::M510(4), AppOptionsFor(1));
    auto batch = ExecutePlan(*plan, Cluster::M510(4), AppOptionsFor(256));
    ASSERT_TRUE(row.ok()) << info.abbrev << ": " << row.status().ToString();
    ASSERT_TRUE(batch.ok()) << info.abbrev << ": "
                            << batch.status().ToString();
    // FD legitimately sinks nothing at this data density (its Markov-chain
    // scorer needs >4 tuples per account before it can flag); every app
    // must still push real traffic through the columnar plane.
    EXPECT_GT(row->source_tuples, 0) << info.abbrev;
    if (info.id != AppId::kFraudDetection) {
      EXPECT_GT(row->sink_tuples, 0) << info.abbrev;
    }
    ExpectBitIdentical(*row, *batch, info.abbrev);
  }
}

// Canonical plans at the parallelism where the engine's sub-batch slab
// matters: at p=64 the linear plan routes 1-row and watermark-only
// sub-batches to 64 instances, all of them recycled with their storage;
// the p=8 join adds a second output layout sharing the free lists, and
// ~4% of its sub-batches exceed the slab's 16-row retention limit, so
// they take the reset path.
void ExpectCanonicalBitIdentical(SyntheticStructure structure,
                                 int parallelism, const char* name) {
  CanonicalOptions canon;
  canon.event_rate = 200000.0;
  canon.parallelism = parallelism;
  auto plan = MakeCanonicalSynthetic(structure, canon);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ExecutionOptions one = AppOptionsFor(1);
  one.sim.duration_s = 0.5;
  one.sim.warmup_s = 0.1;
  ExecutionOptions wide = one;
  wide.sim.batch_rows = 1024;
  auto a = ExecutePlan(*plan, Cluster::M510(10), one);
  auto b = ExecutePlan(*plan, Cluster::M510(10), wide);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_GT(a->sink_tuples, 0) << name;
  ExpectBitIdentical(*a, *b, name);
}

TEST(BatchEquivalenceTest, CanonicalLinearAtP64BitIdenticalAcrossBatchSizes) {
  ExpectCanonicalBitIdentical(SyntheticStructure::kLinear, 64, "linear-p64");
}

TEST(BatchEquivalenceTest, CanonicalJoinAtP8BitIdenticalAcrossBatchSizes) {
  ExpectCanonicalBitIdentical(SyntheticStructure::kTwoWayJoin, 8,
                              "join2-p8");
}

TEST(BatchEquivalenceTest, DefaultBatchRowsMatchesTupleAtATime) {
  // The default (1024) must also be on the same bit-exact trajectory.
  AppOptions app_opt;
  app_opt.event_rate = 4000.0;
  app_opt.parallelism = 2;
  auto plan = MakeApp(AppId::kWordCount, app_opt);
  ASSERT_TRUE(plan.ok());
  auto one = ExecutePlan(*plan, Cluster::M510(4), AppOptionsFor(1));
  ExecutionOptions def = AppOptionsFor(1);
  def.sim.batch_rows = SimOptions{}.batch_rows;
  auto dflt = ExecutePlan(*plan, Cluster::M510(4), def);
  ASSERT_TRUE(one.ok() && dflt.ok());
  ExpectBitIdentical(*one, *dflt, "WC-default");
}

TEST(BatchEquivalenceTest, DataPlaneCountersPopulated) {
  AppOptions app_opt;
  app_opt.event_rate = 4000.0;
  app_opt.parallelism = 2;
  auto plan = MakeApp(AppId::kWordCount, app_opt);
  ASSERT_TRUE(plan.ok());
  auto r = ExecutePlan(*plan, Cluster::M510(4), AppOptionsFor(256));
  ASSERT_TRUE(r.ok());
  const auto batches =
      r->metrics->GetCounter("pdsp.data.batches")->value();
  const auto rows = r->metrics->GetCounter("pdsp.data.rows")->value();
  EXPECT_GT(batches, 0);
  EXPECT_GE(rows, batches);
  // The Table 2 apps declare their UDO outputs correctly, so no column may
  // ever promote on the hot path.
  EXPECT_EQ(r->metrics->GetCounter("pdsp.data.column_promotions")->value(),
            0);
}

TEST(BatchEquivalenceTest, BatchRowsValidated) {
  AppOptions app_opt;
  auto plan = MakeApp(AppId::kWordCount, app_opt);
  ASSERT_TRUE(plan.ok());
  ExecutionOptions opt = AppOptionsFor(0);
  auto r = ExecutePlan(*plan, Cluster::M510(4), opt);
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

}  // namespace
}  // namespace pdsp

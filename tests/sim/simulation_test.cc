#include "src/sim/simulation.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>

#include "src/apps/apps.h"
#include "src/harness/synthetic_suite.h"
#include "src/query/cardinality.h"
#include "tests/testing/test_plans.h"

namespace pdsp {
namespace {

using testing::KeyValueStream;
using testing::PoissonArrival;

// source -> filter(val>50) -> sink, no windows: latency should be tiny.
Result<LogicalPlan> FilterOnlyPlan(double rate, int parallelism) {
  PlanBuilder b;
  auto s = b.Source("src", KeyValueStream(), PoissonArrival(rate),
                    parallelism);
  auto f = b.Filter("filter", s, 1, FilterOp::kGt, Value(50.0), parallelism);
  b.Sink("sink", f, 1);
  return b.Build();
}

ExecutionOptions FastOptions(uint64_t seed = 42) {
  ExecutionOptions opt;
  opt.sim.duration_s = 4.0;
  opt.sim.warmup_s = 1.0;
  opt.sim.seed = seed;
  return opt;
}

TEST(SimulationTest, FilterOnlyThroughputMatchesSelectivity) {
  auto plan = FilterOnlyPlan(10000.0, 2);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto r = ExecutePlan(*plan, Cluster::M510(4), FastOptions());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Sink sees ~rate * 0.5 tuples/s.
  EXPECT_NEAR(r->throughput_tps, 5000.0, 500.0);
  EXPECT_GT(r->sink_tuples, 0);
  EXPECT_EQ(r->late_drops, 0);
}

TEST(SimulationTest, FilterOnlyLatencyIsSubSecond) {
  auto plan = FilterOnlyPlan(10000.0, 2);
  ASSERT_TRUE(plan.ok());
  auto r = ExecutePlan(*plan, Cluster::M510(4), FastOptions());
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->median_latency_s, 0.0);
  EXPECT_LT(r->median_latency_s, 0.2);
  EXPECT_LE(r->median_latency_s, r->p95_latency_s);
}

TEST(SimulationTest, DeterministicForSameSeed) {
  auto plan = FilterOnlyPlan(5000.0, 2);
  ASSERT_TRUE(plan.ok());
  auto a = ExecutePlan(*plan, Cluster::M510(4), FastOptions(7));
  auto b = ExecutePlan(*plan, Cluster::M510(4), FastOptions(7));
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->sink_tuples, b->sink_tuples);
  EXPECT_DOUBLE_EQ(a->median_latency_s, b->median_latency_s);
  EXPECT_EQ(a->events_processed, b->events_processed);
}

TEST(SimulationTest, DifferentSeedsDiffer) {
  auto plan = FilterOnlyPlan(5000.0, 2);
  ASSERT_TRUE(plan.ok());
  auto a = ExecutePlan(*plan, Cluster::M510(4), FastOptions(7));
  auto b = ExecutePlan(*plan, Cluster::M510(4), FastOptions(8));
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(a->sink_tuples, b->sink_tuples);
}

TEST(SimulationTest, WindowedPlanLatencyIncludesWindowTime) {
  // 1s tumbling window: median end-to-end latency must exceed ~0.5s (mean
  // residence) and be below a few seconds when unsaturated.
  auto plan = testing::LinearPlan(/*rate=*/5000.0, /*parallelism=*/4);
  ASSERT_TRUE(plan.ok());
  ExecutionOptions opt = FastOptions();
  opt.sim.duration_s = 6.0;
  auto r = ExecutePlan(*plan, Cluster::M510(4), opt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->median_latency_s, 0.4);
  EXPECT_LT(r->median_latency_s, 3.0);
}

TEST(SimulationTest, WindowedAggregateOutputRateMatchesKeys) {
  // 100 keys, 1s tumbling window -> ~100 results/s at the sink.
  auto plan = testing::LinearPlan(/*rate=*/20000.0, /*parallelism=*/4);
  ASSERT_TRUE(plan.ok());
  ExecutionOptions opt = FastOptions();
  opt.sim.duration_s = 6.0;
  auto r = ExecutePlan(*plan, Cluster::M510(4), opt);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->throughput_tps, 100.0, 30.0);
}

TEST(SimulationTest, SaturationRaisesLatency) {
  // One source instance at 150k/s runs at ~75% utilization on an m510 core
  // (5us/tuple); eight instances are far from saturation. Parallelism must
  // cut latency materially.
  auto slow = FilterOnlyPlan(150000.0, 1);
  auto fast = FilterOnlyPlan(150000.0, 8);
  ASSERT_TRUE(slow.ok() && fast.ok());
  auto r_slow = ExecutePlan(*slow, Cluster::M510(4), FastOptions());
  auto r_fast = ExecutePlan(*fast, Cluster::M510(4), FastOptions());
  ASSERT_TRUE(r_slow.ok() && r_fast.ok());
  EXPECT_GT(r_slow->median_latency_s, r_fast->median_latency_s * 2);
}

TEST(SimulationTest, JoinPlanProducesJoinedTuples) {
  auto plan = testing::TwoWayJoinPlan(/*rate=*/2000.0, /*parallelism=*/4);
  ASSERT_TRUE(plan.ok());
  ExecutionOptions opt = FastOptions();
  opt.sim.duration_s = 5.0;
  auto r = ExecutePlan(*plan, Cluster::M510(4), opt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // The skew-aware cardinality model and the DES must agree within ~2x.
  auto cards = CardinalityModel::Compute(*plan);
  ASSERT_TRUE(cards.ok());
  const double predicted = (*cards)[plan->SinkId()].output_rate;
  EXPECT_GT(r->throughput_tps, predicted / 2.0);
  EXPECT_LT(r->throughput_tps, predicted * 2.0);
}

TEST(SimulationTest, OperatorStatsAreCoherent) {
  auto plan = FilterOnlyPlan(10000.0, 2);
  ASSERT_TRUE(plan.ok());
  auto r = ExecutePlan(*plan, Cluster::M510(4), FastOptions());
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->op_stats.size(), 3u);  // src, filter, sink
  const auto& src = r->op_stats[0];
  const auto& filter = r->op_stats[1];
  const auto& sink = r->op_stats[2];
  EXPECT_EQ(src.name, "src");
  EXPECT_GT(src.tuples_out, 0);
  // Filter passes ~50%.
  EXPECT_NEAR(static_cast<double>(filter.tuples_out) / filter.tuples_in, 0.5,
              0.05);
  EXPECT_EQ(sink.tuples_in, r->sink_tuples);
  for (const auto& s : r->op_stats) {
    EXPECT_GE(s.utilization, 0.0);
    EXPECT_LE(s.utilization, 1.2);
    EXPECT_GE(s.max_instance_util, s.utilization - 1e-9);
  }
}

TEST(SimulationTest, BadOptionsRejected) {
  auto plan = FilterOnlyPlan(100.0, 1);
  ASSERT_TRUE(plan.ok());
  ExecutionOptions opt;
  opt.sim.duration_s = 0.0;
  EXPECT_FALSE(ExecutePlan(*plan, Cluster::M510(2), opt).ok());
  opt.sim.duration_s = 1.0;
  opt.sim.warmup_s = 2.0;
  EXPECT_FALSE(ExecutePlan(*plan, Cluster::M510(2), opt).ok());
}

TEST(SimulationTest, InvalidCostModelRejected) {
  auto plan = FilterOnlyPlan(100.0, 1);
  ASSERT_TRUE(plan.ok());
  ExecutionOptions opt = FastOptions();
  opt.costs.local_handoff_latency = -1e-6;
  const auto negative = ExecutePlan(*plan, Cluster::M510(2), opt);
  ASSERT_TRUE(negative.status().IsInvalidArgument());
  EXPECT_NE(negative.status().message().find("local_handoff_latency"),
            std::string::npos);
  opt.costs = CostModel{};
  opt.costs.filter_cost = std::nan("");
  EXPECT_TRUE(ExecutePlan(*plan, Cluster::M510(2), opt)
                  .status()
                  .IsInvalidArgument());
  opt.costs = CostModel{};
  opt.costs.batch_overhead = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(ExecutePlan(*plan, Cluster::M510(2), opt)
                  .status()
                  .IsInvalidArgument());
  opt.costs = CostModel{};
  opt.costs.local_handoff_latency = 0.0;  // zero is a valid cost
  EXPECT_TRUE(ExecutePlan(*plan, Cluster::M510(2), opt).ok());
}

TEST(SimulationTest, PlacementSizeMismatchRejected) {
  auto plan = FilterOnlyPlan(100.0, 1);
  ASSERT_TRUE(plan.ok());
  auto phys = PhysicalPlan::FromLogical(&*plan);
  ASSERT_TRUE(phys.ok());
  Placement bad;
  bad.node_of_task = {0};  // wrong size
  bad.tasks_per_node = {1};
  CostModel costs;
  SimOptions sim;
  EXPECT_TRUE(Simulation::Run(*phys, Cluster::M510(2), bad, costs, sim)
                  .status()
                  .IsInvalidArgument());
}

TEST(SimulationTest, BackpressureSkipsWhenSaturated) {
  // A heavy UDO (20us/tuple ~ 50k/s capacity) fed at 100k/s saturates; with
  // a low in-flight cap the sources must start skipping generation.
  PlanBuilder b;
  auto s = b.Source("src", KeyValueStream(), PoissonArrival(100000.0), 4);
  auto u = b.Udo("udo", s, "heavy", /*cost_factor=*/4.0, 1.0, false, 1);
  b.Sink("sink", u, 1);
  auto plan = b.Build();
  ASSERT_TRUE(plan.ok());
  ExecutionOptions opt = FastOptions();
  opt.sim.duration_s = 3.0;
  opt.sim.warmup_s = 0.5;
  opt.sim.max_in_flight_tuples = 20000;
  auto r = ExecutePlan(*plan, Cluster::M510(4), opt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->backpressure_skipped, 0);
}

TEST(SimulationTest, MeanMedianLatencyAveragesRuns) {
  auto plan = FilterOnlyPlan(5000.0, 2);
  ASSERT_TRUE(plan.ok());
  auto m = MeanMedianLatency(*plan, Cluster::M510(4), FastOptions(), 3);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EXPECT_GT(*m, 0.0);
  EXPECT_LT(*m, 1.0);
  EXPECT_FALSE(MeanMedianLatency(*plan, Cluster::M510(4), FastOptions(), 0)
                   .ok());
}

TEST(SimulationTest, SummaryMentionsLatency) {
  auto plan = FilterOnlyPlan(1000.0, 1);
  ASSERT_TRUE(plan.ok());
  auto r = ExecutePlan(*plan, Cluster::M510(2), FastOptions());
  ASSERT_TRUE(r.ok());
  EXPECT_NE(r->Summary().find("latency"), std::string::npos);
}

TEST(SimulationTest, HeterogeneousClusterRunsClean) {
  auto plan = testing::LinearPlan(10000.0, 8);
  ASSERT_TRUE(plan.ok());
  for (const Cluster& cluster :
       {Cluster::C6525(4), Cluster::C6320(4), Cluster::Mixed(6)}) {
    auto r = ExecutePlan(*plan, cluster, FastOptions());
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_GT(r->sink_tuples, 0);
  }
}

TEST(SimulationTest, FasterClusterGivesLowerOrEqualLatencyUnderLoad) {
  // Near-saturating a single m510 core; the faster EPYC cluster should cut
  // queueing delay.
  auto plan = FilterOnlyPlan(80000.0, 2);
  ASSERT_TRUE(plan.ok());
  auto slow = ExecutePlan(*plan, Cluster::M510(2), FastOptions());
  auto fast = ExecutePlan(*plan, Cluster::C6525(2), FastOptions());
  ASSERT_TRUE(slow.ok() && fast.ok());
  EXPECT_LT(fast->median_latency_s, slow->median_latency_s);
}

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// A pinned trajectory for the engine-bound canonical run (linear at p=64,
// 200k ev/s, seed 42): 1-row sub-batches broadcast to 64 instances, so any
// change to event order, routing or watermark propagation moves these
// numbers. The values were recorded before the engine's sub-batch slab
// replaced per-event allocations, and must not be re-recorded for an
// engine optimization — only for a deliberate model change.
TEST(SimulationGoldenTest, CanonicalLinearP64ReproducesRecordedRun) {
  CanonicalOptions canon;
  canon.event_rate = 200000.0;
  canon.parallelism = 64;
  auto plan = MakeCanonicalSynthetic(SyntheticStructure::kLinear, canon);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ExecutionOptions opt;
  opt.sim.duration_s = 0.5;
  opt.sim.warmup_s = 0.1;
  opt.sim.seed = 42;
  auto r = ExecutePlan(*plan, Cluster::M510(10), opt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->events_processed, 464882);
  EXPECT_EQ(r->sink_tuples, 1000);
  EXPECT_EQ(Bits(r->median_latency_s), 0x3fe014e0b6deebe4ULL)
      << r->median_latency_s;
  EXPECT_EQ(Bits(r->p99_latency_s), 0x3fe068c366c4ad20ULL)
      << r->p99_latency_s;
}

// Pinned trajectories for the two workloads whose cost is keyed operator
// state: the canonical two-way join at p=1 (join buffers inserted and probed
// under overload) and WordCount at p=8 (a keyed time-window count over Zipf
// words). The values were recorded before join and window state moved from
// ordered maps to hash-indexed columnar stores; a state-semantics change
// moves them, an optimization must not.
TEST(SimulationGoldenTest, CanonicalJoin2P1ReproducesRecordedRun) {
  CanonicalOptions canon;
  canon.event_rate = 200000.0;
  canon.parallelism = 1;
  auto plan = MakeCanonicalSynthetic(SyntheticStructure::kTwoWayJoin, canon);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ExecutionOptions opt;
  opt.sim.duration_s = 0.5;
  opt.sim.warmup_s = 0.1;
  opt.sim.seed = 42;
  auto r = ExecutePlan(*plan, Cluster::M510(10), opt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->events_processed, 1394);
  EXPECT_EQ(r->sink_tuples, 5393);
  EXPECT_EQ(r->late_drops, 0);
  EXPECT_EQ(Bits(r->median_latency_s), 0x3fd3f38278963896ULL)
      << r->median_latency_s;
  EXPECT_EQ(Bits(r->p99_latency_s), 0x3fe559857be14282ULL)
      << r->p99_latency_s;
}

TEST(SimulationGoldenTest, WordCountP8ReproducesRecordedRun) {
  AppOptions app;
  app.event_rate = 100000.0;
  app.parallelism = 8;
  auto plan = MakeApp(AppId::kWordCount, app);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ExecutionOptions opt;
  opt.sim.duration_s = 0.5;
  opt.sim.warmup_s = 0.1;
  opt.sim.seed = 42;
  auto r = ExecutePlan(*plan, Cluster::M510(10), opt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->events_processed, 116002);
  EXPECT_EQ(r->sink_tuples, 18756);
  EXPECT_EQ(r->late_drops, 0);
  EXPECT_EQ(Bits(r->median_latency_s), 0x3fdff886865a23feULL)
      << r->median_latency_s;
  EXPECT_EQ(Bits(r->p99_latency_s), 0x3feabc60e7a5b6d5ULL)
      << r->p99_latency_s;
}

}  // namespace
}  // namespace pdsp

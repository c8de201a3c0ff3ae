#include "src/obs/monitor.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/file_util.h"
#include "src/common/string_util.h"
#include "src/store/json.h"
#include "tests/testing/temp_dir.h"

namespace pdsp {
namespace obs {
namespace {

TEST(ParseRenderModeTest, AutoFollowsTty) {
  auto on_tty = ParseRenderMode("", /*stderr_is_tty=*/true);
  ASSERT_TRUE(on_tty.ok());
  EXPECT_EQ(*on_tty, MonitorOptions::RenderMode::kRich);

  auto piped = ParseRenderMode("auto", /*stderr_is_tty=*/false);
  ASSERT_TRUE(piped.ok());
  EXPECT_EQ(*piped, MonitorOptions::RenderMode::kPlain);
}

TEST(ParseRenderModeTest, ExplicitModesIgnoreTty) {
  auto plain = ParseRenderMode("plain", true);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(*plain, MonitorOptions::RenderMode::kPlain);
  auto rich = ParseRenderMode("rich", false);
  ASSERT_TRUE(rich.ok());
  EXPECT_EQ(*rich, MonitorOptions::RenderMode::kRich);
  auto off = ParseRenderMode("off", true);
  ASSERT_TRUE(off.ok());
  EXPECT_EQ(*off, MonitorOptions::RenderMode::kOff);
}

TEST(ParseRenderModeTest, UnknownModeIsInvalidArgument) {
  auto bad = ParseRenderMode("fancy", true);
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsInvalidArgument());
}

TEST(EtaEstimatorTest, UncalibratedEstimateIsNegative) {
  EtaEstimator eta;
  EXPECT_LT(eta.Estimate(10, 4, {}), 0.0);
}

TEST(EtaEstimatorTest, FirstCellSeedsTheEwma) {
  EtaEstimator eta(0.3);
  eta.AddCompletedCell(2.0);
  EXPECT_DOUBLE_EQ(eta.ewma_s(), 2.0);
  // 4 queued cells on 2 workers, nothing in flight: 4 * 2s / 2.
  EXPECT_DOUBLE_EQ(eta.Estimate(4, 2, {}), 4.0);
}

TEST(EtaEstimatorTest, InFlightElapsedIsCredited) {
  EtaEstimator eta(0.5);
  eta.AddCompletedCell(2.0);
  // One in-flight cell that has already run 1.5s needs max(0.5, 0.2) more.
  EXPECT_DOUBLE_EQ(eta.Estimate(0, 1, {1.5}), 0.5);
  // Past its expected duration: floored at a tenth of the EWMA, never 0.
  EXPECT_DOUBLE_EQ(eta.Estimate(0, 1, {5.0}), 0.2);
}

// --- watchdog ------------------------------------------------------------

WorkerSnapshot Worker(int worker, int cell, const std::string& label,
                      double elapsed_s, double busy_s, int64_t metric_sum) {
  WorkerSnapshot w;
  w.worker = worker;
  w.current_cell = cell;
  w.current_label = label;
  w.cell_elapsed_s = elapsed_s;
  w.busy_s = busy_s;
  w.metric_sum = metric_sum;
  return w;
}

SweepSnapshot Snap(double wall_s, size_t done, double median_s,
                   std::vector<WorkerSnapshot> workers) {
  SweepSnapshot s;
  s.sweep = "test";
  s.wall_s = wall_s;
  s.cells_total = 16;
  s.cells_done = done;
  s.median_cell_s = median_s;
  s.workers = std::move(workers);
  return s;
}

TEST(SweepWatchdogTest, StragglerCellFiresM201Once) {
  MonitorOptions options;
  options.straggler_ratio = 3.0;
  options.straggler_min_completed = 3;
  SweepWatchdog dog(options);

  // 4 completed cells at ~1s median; worker 0 stuck in "grid/07" for 5s.
  SweepSnapshot snap =
      Snap(6.0, 4, 1.0, {Worker(0, 7, "grid/07", 5.0, 5.0, 100)});
  std::vector<MonitorFinding> fresh = dog.Evaluate(snap);
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(fresh[0].code, "PDSP-M201");
  EXPECT_EQ(fresh[0].subject, "grid/07");
  EXPECT_EQ(fresh[0].worker, 0);

  // Same cell still slow on the next snapshot: no re-fire.
  snap.workers[0].cell_elapsed_s = 6.0;
  EXPECT_TRUE(dog.Evaluate(snap).empty());
  EXPECT_EQ(dog.Codes(), std::vector<std::string>{"PDSP-M201"});
}

TEST(SweepWatchdogTest, M201NeedsEnoughCompletedCells) {
  MonitorOptions options;
  options.straggler_min_completed = 3;
  SweepWatchdog dog(options);
  // Only 2 completed: the median is not trustworthy yet.
  EXPECT_TRUE(
      dog.Evaluate(Snap(6.0, 2, 1.0, {Worker(0, 7, "grid/07", 9.0, 9.0, 1)}))
          .empty());
}

TEST(SweepWatchdogTest, FrozenMetricSumFiresM202) {
  MonitorOptions options;
  options.stall_snapshots = 3;
  options.imbalance_min_wall_s = 1e9;  // keep M203 quiet
  SweepWatchdog dog(options);

  // Snapshot 1 establishes the track; 2..3 grow the no-delta streak; the
  // 4th reaches the threshold.
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(
        dog.Evaluate(Snap(1.0 + i, 0, 0.0,
                          {Worker(0, 2, "grid/02", 1.0 + i, 1.0 + i, 42)}))
            .empty())
        << "snapshot " << i;
  }
  std::vector<MonitorFinding> fresh =
      dog.Evaluate(Snap(4.0, 0, 0.0, {Worker(0, 2, "grid/02", 4.0, 4.0, 42)}));
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(fresh[0].code, "PDSP-M202");
  EXPECT_EQ(fresh[0].subject, "worker0");
}

TEST(SweepWatchdogTest, MetricDeltaOrIdleResetsTheStallStreak) {
  MonitorOptions options;
  options.stall_snapshots = 2;
  options.imbalance_min_wall_s = 1e9;
  SweepWatchdog dog(options);

  // Frozen, frozen... then a delta arrives — streak resets, nothing fires.
  (void)dog.Evaluate(Snap(1, 0, 0, {Worker(0, 2, "c", 1, 1, 42)}));
  (void)dog.Evaluate(Snap(2, 0, 0, {Worker(0, 2, "c", 2, 2, 42)}));
  (void)dog.Evaluate(Snap(3, 0, 0, {Worker(0, 2, "c", 3, 3, 43)}));
  (void)dog.Evaluate(Snap(4, 0, 0, {Worker(0, 2, "c", 4, 4, 43)}));
  // Worker goes idle: track resets entirely.
  (void)dog.Evaluate(Snap(5, 1, 1, {Worker(0, -1, "", 0, 4, -1)}));
  (void)dog.Evaluate(Snap(6, 1, 1, {Worker(0, 3, "d", 1, 5, 43)}));
  EXPECT_TRUE(dog.findings().empty());
}

TEST(SweepWatchdogTest, BusyFractionImbalanceFiresM203) {
  MonitorOptions options;
  options.imbalance_ratio = 0.25;
  options.imbalance_min_wall_s = 1.0;
  SweepWatchdog dog(options);

  // Worker 1 nearly idle (0.1 / 4.0 = 0.025) next to a saturated worker 0.
  std::vector<MonitorFinding> fresh = dog.Evaluate(
      Snap(4.0, 3, 0.5,
           {Worker(0, 5, "grid/05", 1.0, 4.0, 10), Worker(1, -1, "", 0, 0.1, -1)}));
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(fresh[0].code, "PDSP-M203");
  EXPECT_EQ(fresh[0].worker, 1);
}

TEST(SweepWatchdogTest, M203WaitsForTheSweepToMature) {
  MonitorOptions options;
  options.imbalance_min_wall_s = 10.0;
  SweepWatchdog dog(options);
  EXPECT_TRUE(dog.Evaluate(Snap(2.0, 3, 0.5,
                                {Worker(0, 5, "c", 1.0, 2.0, 10),
                                 Worker(1, -1, "", 0, 0.0, -1)}))
                  .empty());
}

// --- progress + sampler --------------------------------------------------

TEST(SweepProgressTest, SnapshotTracksCellLifecycle) {
  SweepProgress progress("unit", 4, 2);
  auto registry = std::make_shared<MetricsRegistry>();
  registry->GetCounter("pdsp.sim.sink_tuples")->Add(7);

  progress.StartCell(0, 0, "cell/0", registry);
  SweepSnapshot running = progress.Snapshot();
  EXPECT_EQ(running.seq, 1);
  EXPECT_EQ(running.cells_total, 4u);
  EXPECT_EQ(running.cells_done, 0u);
  ASSERT_EQ(running.workers.size(), 2u);
  EXPECT_EQ(running.workers[0].current_cell, 0);
  EXPECT_EQ(running.workers[0].current_label, "cell/0");
  EXPECT_EQ(running.workers[0].metric_sum, 7);
  EXPECT_EQ(running.workers[1].current_cell, -1);
  EXPECT_EQ(running.workers[1].metric_sum, -1);

  registry->GetCounter("pdsp.sim.sink_tuples")->Add(3);
  EXPECT_EQ(progress.Snapshot().workers[0].metric_sum, 10);

  progress.FinishCell(0, 0, /*ok=*/true);
  progress.StartCell(1, 1, "cell/1", nullptr);
  progress.FinishCell(1, 1, /*ok=*/false);
  SweepSnapshot done = progress.Snapshot(/*final_snapshot=*/true);
  EXPECT_EQ(done.seq, 3);
  EXPECT_EQ(done.cells_done, 2u);
  EXPECT_EQ(done.cells_failed, 1u);
  EXPECT_TRUE(done.final_snapshot);
  EXPECT_EQ(done.workers[0].current_cell, -1);
  EXPECT_EQ(done.workers[0].cells_done, 1);
  EXPECT_GE(done.median_cell_s, 0.0);
}

TEST(SweepProgressTest, MismatchedFinishIsIgnored) {
  SweepProgress progress("unit", 2, 1);
  progress.StartCell(0, 0, "cell/0", nullptr);
  progress.FinishCell(0, 1, true);  // stale finish for a different cell
  EXPECT_EQ(progress.Snapshot().cells_done, 0u);
  progress.FinishCell(7, 0, true);  // out-of-range worker
  EXPECT_EQ(progress.Snapshot().cells_done, 0u);
}

std::string TempPath(const std::string& name) {
  const std::string dir = testing::TestTempDir();
  const std::string path = dir + "/" + name;
  std::filesystem::remove(path);
  return path;
}

TEST(SnapshotSamplerTest, WritesWellFormedMonotoneProgressJsonl) {
  const std::string jsonl = TempPath("progress.jsonl");
  SweepProgress progress("jsonl-sweep", 2, 1);
  MonitorOptions options;
  options.enabled = true;
  options.interval_s = 0.01;
  options.render = MonitorOptions::RenderMode::kOff;
  options.jsonl_path = jsonl;

  SnapshotSampler sampler(&progress, options);
  sampler.Start();
  progress.StartCell(0, 0, "cell/0", nullptr);
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  progress.FinishCell(0, 0, true);
  progress.StartCell(0, 1, "cell/1", nullptr);
  progress.FinishCell(0, 1, true);
  MonitorSummary summary = sampler.Stop();

  EXPECT_TRUE(summary.last.final_snapshot);
  EXPECT_EQ(summary.last.cells_done, 2u);
  ASSERT_EQ(summary.worker_busy_fraction.size(), 1u);

  auto text = ReadTextFile(jsonl);
  ASSERT_TRUE(text.ok());
  const std::vector<std::string> lines = Split(Trim(*text), '\n');
  ASSERT_GE(lines.size(), 2u);  // >= one periodic tick + the final one
  int64_t last_seq = 0;
  for (size_t i = 0; i < lines.size(); ++i) {
    auto parsed = Json::Parse(lines[i]);
    ASSERT_TRUE(parsed.ok()) << "line " << i + 1;
    EXPECT_EQ((*parsed)["schema_version"].AsInt(), kProgressSchemaVersion);
    EXPECT_EQ((*parsed)["sweep"].AsString(), "jsonl-sweep");
    EXPECT_GT((*parsed)["seq"].AsInt(), last_seq);
    last_seq = (*parsed)["seq"].AsInt();
    const bool is_last = i + 1 == lines.size();
    EXPECT_EQ((*parsed)["final"].AsBool(), is_last) << "line " << i + 1;
  }

  // Stop() is idempotent and keeps returning the cached summary.
  EXPECT_EQ(sampler.Stop().last.seq, summary.last.seq);
}

TEST(MonitorSummaryTest, ExportToPublishesGauges) {
  MonitorSummary summary;
  summary.last.seq = 9;
  summary.findings.push_back({"PDSP-M203", 1, "worker1", "imbalance"});
  summary.worker_busy_fraction = {0.9, 0.2};

  MetricsRegistry registry;
  summary.ExportTo(&registry);
  EXPECT_DOUBLE_EQ(registry.GaugeValue("pdsp.monitor.snapshots"), 9.0);
  EXPECT_DOUBLE_EQ(registry.GaugeValue("pdsp.monitor.findings"), 1.0);
  EXPECT_DOUBLE_EQ(registry.GaugeValue("pdsp.monitor.busy_fraction_min"), 0.2);
  EXPECT_DOUBLE_EQ(registry.GaugeValue("pdsp.monitor.busy_fraction_max"), 0.9);
  EXPECT_DOUBLE_EQ(registry.GaugeValue("pdsp.monitor.worker1.busy_fraction"),
                   0.2);
}

}  // namespace
}  // namespace obs
}  // namespace pdsp

#include "src/obs/report.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "src/common/file_util.h"
#include "src/common/string_util.h"
#include "src/obs/ledger.h"
#include "src/obs/prof.h"
#include "tests/testing/temp_dir.h"

namespace pdsp {
namespace obs {
namespace {

std::string TempPath(const std::string& name) {
  const std::string dir = testing::TestTempDir();
  const std::string path = dir + "/" + name;
  std::filesystem::remove(path);
  return path;
}

RunRecord MakeRecord(const std::string& label, int parallelism,
                     double throughput, double p50) {
  RunRecord rec;
  rec.run_id = MakeRunId(label);
  rec.timestamp_utc = "2026-08-08T00:00:00Z";
  rec.label = label;
  rec.plan_hash = "00000000deadbeef";
  rec.parallelism = parallelism;
  rec.event_rate = 1000.0;
  rec.cluster = "m510";
  rec.seed = "7";
  rec.throughput_tps = throughput;
  rec.median_latency_s = p50;
  rec.p95_latency_s = p50 * 2;
  rec.p99_latency_s = p50 * 3;
  rec.breakdown_source_batch_s = p50 * 0.2;
  rec.breakdown_queue_s = p50 * 0.3;
  rec.breakdown_service_s = p50 * 0.5;
  rec.host_wall_s = 1.0;
  return rec;
}

std::vector<RunRecord> TwoAppLedger() {
  std::vector<RunRecord> records;
  for (int p : {2, 4, 8}) {
    records.push_back(
        MakeRecord(StrFormat("WC/p%d", p), p, 1000.0 * p, 0.010 / p));
    records.push_back(
        MakeRecord(StrFormat("linear/p%d", p), p, 800.0 * p, 0.020 / p));
  }
  return records;
}

size_t CountOccurrences(const std::string& haystack,
                        const std::string& needle) {
  size_t count = 0;
  for (size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

TEST(AppOfLabelTest, TakesThePrefixUpToTheFirstSlash) {
  EXPECT_EQ(AppOfLabel("WC/p4"), "WC");
  EXPECT_EQ(AppOfLabel("fig3/linear/XS"), "fig3");
  EXPECT_EQ(AppOfLabel("linear"), "linear");
  EXPECT_EQ(AppOfLabel(""), "");
}

TEST(IsSummaryLabelTest, MatchesSweepSummariesOnly) {
  EXPECT_TRUE(IsSummaryLabel("sweep"));
  EXPECT_TRUE(IsSummaryLabel("sweep/fig3_synthetic"));
  EXPECT_FALSE(IsSummaryLabel("sweeper/x"));
  EXPECT_FALSE(IsSummaryLabel("WC/p4"));
}

TEST(LoadRecordsForReportTest, LoadsLedgerSingleRecordAndDirectory) {
  // JSONL ledger.
  const std::string dir = testing::TestTempDir() + "/bundle";
  std::filesystem::create_directories(dir);
  const std::string ledger_path = dir + "/ledger.jsonl";
  std::filesystem::remove(ledger_path);
  RunLedger ledger(ledger_path);
  ASSERT_TRUE(ledger.Append(MakeRecord("WC/p2", 2, 1000, 0.01)).ok());
  ASSERT_TRUE(ledger.Append(MakeRecord("WC/p4", 4, 2000, 0.005)).ok());
  auto from_ledger = LoadRecordsForReport(ledger_path);
  ASSERT_TRUE(from_ledger.ok());
  EXPECT_EQ(from_ledger->size(), 2u);

  // Directory: resolves to <dir>/ledger.jsonl.
  auto from_dir = LoadRecordsForReport(dir);
  ASSERT_TRUE(from_dir.ok());
  EXPECT_EQ(from_dir->size(), 2u);

  // Single-record baseline file (bench/baselines layout).
  const std::string baseline = TempPath("baseline.json");
  ASSERT_TRUE(WriteTextFileAtomic(
                  baseline, MakeRecord("WC/p8", 8, 4000, 0.002).ToJson().Dump(2))
                  .ok());
  auto from_file = LoadRecordsForReport(baseline);
  ASSERT_TRUE(from_file.ok());
  ASSERT_EQ(from_file->size(), 1u);
  EXPECT_EQ((*from_file)[0].label, "WC/p8");

  EXPECT_FALSE(LoadRecordsForReport(TempPath("absent.jsonl")).ok());
}

TEST(GenerateReportTest, EmitsOneSvgPerChartAndAMarkerComment) {
  ReportOptions options;
  auto report = GenerateReport(TwoAppLedger(), options);
  ASSERT_TRUE(report.ok());

  EXPECT_EQ(report->stats.records, 6u);
  EXPECT_EQ(report->stats.apps, 2u);
  // 3 charts per app (throughput, percentiles, breakdown) + 1 heatmap.
  EXPECT_EQ(report->stats.charts, 7u);
  EXPECT_EQ(CountOccurrences(report->html, "<svg"), report->stats.charts);
  EXPECT_NE(report->html.find(StrFormat(
                "<!-- pdsp-report charts=%zu records=%zu apps=%zu -->",
                report->stats.charts, report->stats.records,
                report->stats.apps)),
            std::string::npos);
  EXPECT_NE(report->html.find("WC"), std::string::npos);
  EXPECT_NE(report->html.find("linear"), std::string::npos);
}

TEST(GenerateReportTest, NonFiniteMetricsNeverLeakNanLiterals) {
  std::vector<RunRecord> records = TwoAppLedger();
  records[0].median_latency_s = std::nan("");
  records[1].throughput_tps = std::numeric_limits<double>::infinity();
  records[2].p95_latency_s = -std::numeric_limits<double>::infinity();
  auto report = GenerateReport(records, ReportOptions());
  ASSERT_TRUE(report.ok());
  std::string lower = report->html;
  for (char& c : lower) c = static_cast<char>(std::tolower(c));
  EXPECT_EQ(lower.find("nan"), std::string::npos);
  EXPECT_EQ(lower.find("inf<"), std::string::npos);
}

TEST(GenerateReportTest, SummaryRecordsAreListedWithTheirMonitorCodes) {
  std::vector<RunRecord> records = TwoAppLedger();
  RunRecord summary = MakeRecord("sweep/unit", 4, 0.0, 0.0);
  summary.diagnosis_codes = {"PDSP-M201", "PDSP-M203"};
  records.push_back(summary);

  auto report = GenerateReport(records, ReportOptions());
  ASSERT_TRUE(report.ok());
  // Summaries are listed, not charted: measurement count excludes them.
  EXPECT_EQ(report->stats.records, 6u);
  EXPECT_NE(report->html.find("PDSP-M201"), std::string::npos);
  EXPECT_NE(report->html.find("PDSP-M203"), std::string::npos);
}

TEST(GenerateReportTest, AppFilterAndLimitShrinkTheReport) {
  ReportOptions options;
  options.app_filter = "WC";
  auto report = GenerateReport(TwoAppLedger(), options);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->stats.apps, 1u);
  EXPECT_EQ(report->stats.records, 3u);

  options.limit = 1;
  auto limited = GenerateReport(TwoAppLedger(), options);
  ASSERT_TRUE(limited.ok());
  EXPECT_EQ(limited->stats.records, 1u);

  options.app_filter = "no-such-app";
  EXPECT_FALSE(GenerateReport(TwoAppLedger(), options).ok());
}

TEST(GenerateReportTest, EmptyRecordSetFails) {
  EXPECT_FALSE(GenerateReport({}, ReportOptions()).ok());
}

TEST(GenerateReportTest, CompareSectionMatchesLabelsAgainstBaseline) {
  const std::string baseline_path = TempPath("against.jsonl");
  RunLedger baseline(baseline_path);
  for (const RunRecord& rec : TwoAppLedger()) {
    ASSERT_TRUE(baseline.Append(rec).ok());
  }
  ReportOptions options;
  options.against_path = baseline_path;
  auto report = GenerateReport(TwoAppLedger(), options);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->stats.compared, 6u);
  EXPECT_NE(report->html.find("unchanged"), std::string::npos);
}

TEST(WriteReportFileTest, EndToEndLedgerToHtmlOnDisk) {
  const std::string ledger_path = TempPath("e2e.jsonl");
  RunLedger ledger(ledger_path);
  for (const RunRecord& rec : TwoAppLedger()) {
    ASSERT_TRUE(ledger.Append(rec).ok());
  }
  const std::string out = TempPath("report.html");
  auto stats = WriteReportFile(ledger_path, out, ReportOptions());
  ASSERT_TRUE(stats.ok());
  auto html = ReadTextFile(out);
  ASSERT_TRUE(html.ok());
  EXPECT_EQ(CountOccurrences(*html, "<svg"), stats->charts);
  EXPECT_NE(html->find("</html>"), std::string::npos);
}

TEST(GenerateReportTest, ProfiledBundlesGetFlameGraphAndCpuTable) {
  const std::string dir = testing::TestTempDir() + "/prof_bundle";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  prof::CpuProfile profile;
  profile.hz = 97.0;
  profile.duration_s = 1.0;
  profile.total_cpu_s = 1.0;
  profile.samples = 97;
  profile.folded = {
      {"phase:simulate;app:WC;op:count<script>alert(1)</script>", 97, 1.0}};
  profile.operators = {{"count<script>alert(1)</script>", 97, 1.0}};
  profile.phases = {{"simulate", 97, 1.0}};
  ASSERT_TRUE(
      WriteTextFileAtomic(dir + "/profile.json", profile.ToJson().Dump(2))
          .ok());

  std::vector<RunRecord> records = TwoAppLedger();
  records.back().artifact_dir = dir;  // one profiled cell
  auto report = GenerateReport(records, ReportOptions());
  ASSERT_TRUE(report.ok());
  // 7 base charts + 1 flame graph, and the marker still equals <svg> count.
  EXPECT_EQ(report->stats.charts, 8u);
  EXPECT_EQ(CountOccurrences(report->html, "<svg"), report->stats.charts);
  EXPECT_NE(report->html.find("CPU flame graph"), std::string::npos);
  EXPECT_NE(report->html.find("CPU vs virtual time"), std::string::npos);
  // Hostile operator names from profile.json never reach the HTML raw.
  EXPECT_EQ(report->html.find("<script>"), std::string::npos);
  EXPECT_NE(report->html.find("&lt;script&gt;"), std::string::npos);
}

}  // namespace
}  // namespace obs
}  // namespace pdsp

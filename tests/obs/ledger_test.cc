#include "src/obs/ledger.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "src/common/file_util.h"
#include "tests/testing/temp_dir.h"
#include "tests/testing/test_plans.h"

namespace pdsp {
namespace obs {
namespace {

RunRecord SampleRecord(const std::string& run_id, const std::string& label) {
  RunRecord r;
  r.run_id = run_id;
  r.timestamp_utc = "2026-08-06T12:00:00Z";
  r.label = label;
  r.plan_hash = "0123456789abcdef";
  r.parallelism = 8;
  r.event_rate = 100000.0;
  r.cluster = "m510";
  r.nodes = 10;
  r.seed = "18446744073709551615";  // UINT64_MAX: exact only as a string
  r.repeats = 3;
  r.duration_s = 2.0;
  r.warmup_s = 0.5;
  r.build_info = "test-build";
  r.throughput_tps = 27504.0;
  r.median_latency_s = 1.0186;
  r.p95_latency_s = 1.9363;
  r.p99_latency_s = 2.2921;
  r.throughput_stddev = 12.5;
  r.median_latency_stddev = 0.0004;
  r.late_drops = 7;
  r.backpressure_skipped = 3;
  r.breakdown_queue_s = 0.34;
  r.breakdown_service_s = 0.03;
  r.diagnosis_codes = {"PDSP-R101", "PDSP-R205"};
  r.artifact_dir = "results/fig3/WC_M";
  r.host_wall_s = 6.9;
  r.host_cpu_user_s = 6.6;
  r.host_cpu_sys_s = 0.07;
  r.host_peak_rss_kb = 62328;
  return r;
}

TEST(RunRecordTest, JsonRoundTripPreservesEveryField) {
  const RunRecord r = SampleRecord("WC-abc123-1", "WC");
  auto back = RunRecord::FromJson(r.ToJson());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->schema_version, kLedgerSchemaVersion);
  EXPECT_EQ(back->run_id, r.run_id);
  EXPECT_EQ(back->timestamp_utc, r.timestamp_utc);
  EXPECT_EQ(back->label, r.label);
  EXPECT_EQ(back->plan_hash, r.plan_hash);
  EXPECT_EQ(back->parallelism, r.parallelism);
  EXPECT_DOUBLE_EQ(back->event_rate, r.event_rate);
  EXPECT_EQ(back->cluster, r.cluster);
  EXPECT_EQ(back->nodes, r.nodes);
  EXPECT_EQ(back->seed, r.seed);
  EXPECT_EQ(back->repeats, r.repeats);
  EXPECT_DOUBLE_EQ(back->duration_s, r.duration_s);
  EXPECT_DOUBLE_EQ(back->warmup_s, r.warmup_s);
  EXPECT_EQ(back->build_info, r.build_info);
  EXPECT_DOUBLE_EQ(back->throughput_tps, r.throughput_tps);
  EXPECT_DOUBLE_EQ(back->median_latency_s, r.median_latency_s);
  EXPECT_DOUBLE_EQ(back->p95_latency_s, r.p95_latency_s);
  EXPECT_DOUBLE_EQ(back->p99_latency_s, r.p99_latency_s);
  EXPECT_DOUBLE_EQ(back->throughput_stddev, r.throughput_stddev);
  EXPECT_DOUBLE_EQ(back->median_latency_stddev, r.median_latency_stddev);
  EXPECT_EQ(back->late_drops, r.late_drops);
  EXPECT_EQ(back->backpressure_skipped, r.backpressure_skipped);
  EXPECT_DOUBLE_EQ(back->breakdown_queue_s, r.breakdown_queue_s);
  EXPECT_DOUBLE_EQ(back->breakdown_service_s, r.breakdown_service_s);
  EXPECT_EQ(back->diagnosis_codes, r.diagnosis_codes);
  EXPECT_EQ(back->artifact_dir, r.artifact_dir);
  EXPECT_DOUBLE_EQ(back->host_wall_s, r.host_wall_s);
  EXPECT_EQ(back->host_peak_rss_kb, r.host_peak_rss_kb);
}

TEST(RunRecordTest, RejectsUnknownSchemaVersion) {
  Json json = SampleRecord("x-1", "x").ToJson();
  json.Set("schema_version", Json::Int(kLedgerSchemaVersion + 1));
  auto back = RunRecord::FromJson(json);
  ASSERT_FALSE(back.ok());
  EXPECT_NE(back.status().message().find("schema_version"),
            std::string::npos);
}

TEST(RunRecordTest, RejectsMissingSchemaVersionAndIdentity) {
  Json no_version = SampleRecord("x-1", "x").ToJson();
  no_version.Set("schema_version", Json::Null());
  EXPECT_FALSE(RunRecord::FromJson(no_version).ok());

  Json no_id = SampleRecord("x-1", "x").ToJson();
  no_id.Set("run_id", Json::Str(""));
  EXPECT_FALSE(RunRecord::FromJson(no_id).ok());
}

TEST(PlanHashTest, StableForSamePlanDistinctForDifferentPlans) {
  auto a = testing::LinearPlan(1000.0, 4);
  auto b = testing::LinearPlan(1000.0, 8);
  ASSERT_TRUE(a.ok() && b.ok());
  const std::string ha = PlanHashHex(*a);
  EXPECT_EQ(ha.size(), 16u);
  EXPECT_EQ(ha, PlanHashHex(*a));
  EXPECT_NE(ha, PlanHashHex(*b));
}

TEST(MakeRunIdTest, EmbedsLabelAndIsUnique) {
  const std::string a = MakeRunId("WC");
  const std::string b = MakeRunId("WC");
  EXPECT_EQ(a.rfind("WC-", 0), 0u);
  EXPECT_NE(a, b);
}

class RunLedgerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::string dir = testing::TestTempDir() + "/ledger";
    std::filesystem::remove_all(dir);
    path_ = dir + "/ledger.jsonl";
  }
  std::string path_;
};

TEST_F(RunLedgerTest, AppendThenLoadRoundTrips) {
  RunLedger ledger(path_);
  ASSERT_TRUE(ledger.Append(SampleRecord("WC-1", "WC")).ok());
  ASSERT_TRUE(ledger.Append(SampleRecord("WC-2", "WC")).ok());
  auto records = ledger.Load();
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ((*records)[0].run_id, "WC-1");
  EXPECT_EQ((*records)[1].run_id, "WC-2");
  EXPECT_EQ((*records)[1].seed, "18446744073709551615");
}

TEST_F(RunLedgerTest, MissingFileLoadsEmpty) {
  auto records = RunLedger(path_).Load();
  ASSERT_TRUE(records.ok());
  EXPECT_TRUE(records->empty());
}

TEST_F(RunLedgerTest, MalformedLineFailsWithLineNumber) {
  RunLedger ledger(path_);
  ASSERT_TRUE(ledger.Append(SampleRecord("WC-1", "WC")).ok());
  ASSERT_TRUE(AppendLineAtomic(path_, "{not json").ok());
  auto records = ledger.Load();
  ASSERT_FALSE(records.ok());
  // The error names the offending line: "<path>:2: ...".
  EXPECT_NE(records.status().message().find(":2:"), std::string::npos);
}

TEST(ResolveRecordTest, LabelLatestTildeAndPrefix) {
  std::vector<RunRecord> records = {SampleRecord("WC-aaaa-1", "WC"),
                                    SampleRecord("WC-bbbb-2", "WC"),
                                    SampleRecord("SG-cccc-1", "SG")};
  auto latest = ResolveRecord(records, "WC");
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest->run_id, "WC-bbbb-2");

  auto previous = ResolveRecord(records, "WC~1");
  ASSERT_TRUE(previous.ok());
  EXPECT_EQ(previous->run_id, "WC-aaaa-1");

  auto by_prefix = ResolveRecord(records, "SG-c");
  ASSERT_TRUE(by_prefix.ok());
  EXPECT_EQ(by_prefix->run_id, "SG-cccc-1");

  EXPECT_FALSE(ResolveRecord(records, "WC~5").ok());
  EXPECT_FALSE(ResolveRecord(records, "absent").ok());
}

}  // namespace
}  // namespace obs
}  // namespace pdsp

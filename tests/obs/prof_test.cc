#include "src/obs/prof.h"

#include <gtest/gtest.h>

#include <time.h>

#include <cmath>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/file_util.h"
#include "src/exec/thread_pool.h"
#include "src/harness/harness.h"
#include "src/obs/svg.h"
#include "src/store/json.h"
#include "tests/testing/temp_dir.h"
#include "tests/testing/test_plans.h"

namespace pdsp {
namespace obs {
namespace prof {
namespace {

double ThreadCpuNow() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

/// Burns roughly `seconds` of CPU on the calling thread (busy loop against
/// the thread CPU clock, so sleeps/preemption don't count).
void BurnCpu(double seconds) {
  const double start = ThreadCpuNow();
  volatile double sink = 0.0;
  while (ThreadCpuNow() - start < seconds) {
    for (int i = 0; i < 1000; ++i) sink = sink + std::sqrt(double(i));
  }
  (void)sink;
}

TEST(InternNameTest, StableIdsRoundTripAndZeroIsReserved) {
  const uint32_t a = InternName("prof-test-alpha");
  const uint32_t b = InternName("prof-test-beta");
  EXPECT_GE(a, 1u);
  EXPECT_NE(a, b);
  EXPECT_EQ(InternName("prof-test-alpha"), a);  // idempotent
  EXPECT_EQ(LookupName(a), "prof-test-alpha");
  EXPECT_EQ(LookupName(0), "");
  EXPECT_EQ(LookupName(0xfffffff0u), "");
}

TEST(PackFrameTest, KindAndNameRoundTrip) {
  const uint64_t f = PackFrame(FrameKind::kOperator, 0xdeadbeefu);
  EXPECT_EQ(FrameKindOf(f), FrameKind::kOperator);
  EXPECT_EQ(FrameNameOf(f), 0xdeadbeefu);
}

TEST(MarkerStackTest, PushPopSnapshotRoundTrip) {
  MarkerStack stack;
  uint64_t frames[kMaxMarkerDepth];
  EXPECT_EQ(stack.Snapshot(frames), 0);

  stack.Push(FrameKind::kPhase, 11);
  stack.Push(FrameKind::kOperator, 22);
  ASSERT_EQ(stack.Snapshot(frames), 2);
  EXPECT_EQ(frames[0], PackFrame(FrameKind::kPhase, 11));
  EXPECT_EQ(frames[1], PackFrame(FrameKind::kOperator, 22));

  stack.Pop();
  ASSERT_EQ(stack.Snapshot(frames), 1);
  EXPECT_EQ(frames[0], PackFrame(FrameKind::kPhase, 11));
  stack.Pop();
  EXPECT_EQ(stack.Snapshot(frames), 0);
  stack.Pop();  // unbalanced pop is ignored, not UB
  EXPECT_EQ(stack.depth(), 0u);
}

TEST(MarkerStackTest, OverflowTruncatesButKeepsPopsPaired) {
  MarkerStack stack;
  const int pushes = kMaxMarkerDepth + 4;
  for (int i = 0; i < pushes; ++i) {
    stack.Push(FrameKind::kKernel, static_cast<uint32_t>(i + 1));
  }
  EXPECT_EQ(stack.depth(), static_cast<uint32_t>(pushes));
  EXPECT_EQ(stack.truncated(), 4);

  uint64_t frames[kMaxMarkerDepth];
  ASSERT_EQ(stack.Snapshot(frames), kMaxMarkerDepth);
  // The retained frames are the OUTERMOST kMaxMarkerDepth ones.
  EXPECT_EQ(FrameNameOf(frames[kMaxMarkerDepth - 1]),
            static_cast<uint32_t>(kMaxMarkerDepth));

  for (int i = 0; i < pushes; ++i) stack.Pop();
  EXPECT_EQ(stack.depth(), 0u);
  EXPECT_EQ(stack.Snapshot(frames), 0);
}

TEST(ProfScopeTest, NoOpWhenNoProfilerIsActive) {
  ThreadRegistration reg("prof-test-inactive");
  ASSERT_FALSE(ProfilingActive());
  ThreadEntry* entry = CurrentThreadEntry();
  ASSERT_NE(entry, nullptr);
  {
    ProfScope scope(FrameKind::kOperator, InternName("idle-op"));
    EXPECT_EQ(entry->stack.depth(), 0u);  // gated off: nothing pushed
  }
  EXPECT_EQ(entry->stack.depth(), 0u);
}

TEST(ThreadRegistrationTest, NestedRegistrationIsANoOp) {
  ThreadRegistration outer("prof-test-outer");
  EXPECT_TRUE(outer.owner());
  ThreadEntry* entry = CurrentThreadEntry();
  ASSERT_NE(entry, nullptr);
  {
    ThreadRegistration inner("prof-test-inner");
    EXPECT_FALSE(inner.owner());
    EXPECT_EQ(CurrentThreadEntry(), entry);  // outer entry kept
  }
  EXPECT_EQ(CurrentThreadEntry(), entry);
}

TEST(ProfilerTest, StartRequiresARegisteredThread) {
  std::async(std::launch::async, [] {
    ProfOptions options;
    options.enabled = true;
    Profiler profiler(options);
    const Status st = profiler.Start();
    EXPECT_FALSE(st.ok());
    EXPECT_TRUE(st.IsFailedPrecondition()) << st.ToString();
  }).get();
}

TEST(ProfilerTest, CapturesMarkedCpuAndTotalsTelescope) {
  ThreadRegistration reg("prof-test-capture");
  ProfOptions options;
  options.enabled = true;
  options.hz = 499.0;
  Profiler profiler(options);
  ASSERT_TRUE(profiler.Start().ok());
  {
    ProfScope phase(FrameKind::kPhase, "simulate");
    ProfScope app(FrameKind::kApp, "unit");
    ProfScope op(FrameKind::kOperator, "burn");
    BurnCpu(0.05);
  }
  const CpuProfile profile = profiler.Stop();
  ASSERT_FALSE(profile.empty());
  EXPECT_GE(profile.samples, 1);
  EXPECT_GT(profile.total_cpu_s, 0.0);
  EXPECT_DOUBLE_EQ(profile.hz, 499.0);

  // Telescoping: folded stacks, per-operator and per-phase tables are each
  // a partition of the same sampled CPU total.
  double folded = 0.0, ops = 0.0, phases = 0.0;
  for (const FoldedSample& f : profile.folded) folded += f.cpu_s;
  for (const FrameTotal& o : profile.operators) ops += o.cpu_s;
  for (const FrameTotal& p : profile.phases) phases += p.cpu_s;
  EXPECT_NEAR(folded, profile.total_cpu_s, 1e-9);
  EXPECT_NEAR(ops, profile.total_cpu_s, 1e-9);
  EXPECT_NEAR(phases, profile.total_cpu_s, 1e-9);

  // The burn scope dominates: its folded stack and operator row exist.
  bool found_stack = false;
  for (const FoldedSample& f : profile.folded) {
    if (f.stack == "phase:simulate;app:unit;op:burn") found_stack = true;
  }
  EXPECT_TRUE(found_stack);
  bool found_op = false;
  for (const FrameTotal& o : profile.operators) {
    if (o.name == "burn") found_op = true;
  }
  EXPECT_TRUE(found_op);
}

TEST(ProfilerTest, FinalSampleGuaranteesDataForShortRuns) {
  ThreadRegistration reg("prof-test-short");
  ProfOptions options;
  options.enabled = true;
  options.hz = 1.0;  // the periodic tick will never fire in this window
  Profiler profiler(options);
  ASSERT_TRUE(profiler.Start().ok());
  BurnCpu(0.005);
  const CpuProfile profile = profiler.Stop();
  EXPECT_GE(profile.samples, 1);  // Stop() takes one final sample
  EXPECT_GT(profile.total_cpu_s, 0.0);
}

TEST(ProfilerTest, SecondStartWhileRunningFails) {
  ThreadRegistration reg("prof-test-double");
  ProfOptions options;
  options.enabled = true;
  Profiler profiler(options);
  ASSERT_TRUE(profiler.Start().ok());
  EXPECT_FALSE(profiler.Start().ok());
  profiler.Stop();
}

TEST(ProfilerTest, ConcurrentScopesAcrossPoolWorkersStaySane) {
  // TSan leg of the suite: 4 registered pool workers hammer push/pop —
  // including past-depth truncation — while the sampler walks all threads.
  ThreadRegistration reg("prof-test-hammer");
  ProfOptions options;
  options.enabled = true;
  options.hz = 997.0;
  options.all_threads = true;
  Profiler profiler(options);
  ASSERT_TRUE(profiler.Start().ok());

  const uint32_t op_id = InternName("hammer-op");
  const uint32_t kernel_id = InternName("hammer-kernel");
  {
    exec::ThreadPool pool(4);
    std::vector<std::future<void>> done;
    for (int t = 0; t < 8; ++t) {
      done.push_back(pool.Submit([op_id, kernel_id] {
        for (int i = 0; i < 20000; ++i) {
          ProfScope op(FrameKind::kOperator, op_id);
          ProfScope kernel(FrameKind::kKernel, kernel_id);
          if (i % 64 == 0) {
            std::vector<std::unique_ptr<ProfScope>> deep;
            for (int d = 0; d < kMaxMarkerDepth + 4; ++d) {
              deep.push_back(std::make_unique<ProfScope>(FrameKind::kKernel,
                                                         kernel_id));
            }
          }
        }
      }));
    }
    for (auto& f : done) f.get();
  }
  const CpuProfile profile = profiler.Stop();
  // Torn snapshots are allowed (counted, CPU kept); totals still telescope.
  double folded = 0.0;
  for (const FoldedSample& f : profile.folded) folded += f.cpu_s;
  EXPECT_NEAR(folded, profile.total_cpu_s, 1e-9);
  EXPECT_GE(profile.dropped, 0);
}

TEST(CpuProfileJsonTest, RoundTripsThroughJson) {
  CpuProfile profile;
  profile.hz = 97.0;
  profile.duration_s = 1.25;
  profile.total_cpu_s = 0.5;
  profile.samples = 42;
  profile.dropped = 1;
  profile.truncated = 3;
  profile.sampler_cpu_s = 0.001;
  profile.folded = {{"phase:simulate;op:count", 40, 0.45},
                    {"(unmarked)", 2, 0.05}};
  profile.operators = {{"count", 40, 0.45}, {"(none)", 2, 0.05}};
  profile.phases = {{"simulate", 40, 0.45}, {"(none)", 2, 0.05}};
  profile.threads = {{"main", 42, 0.5}};

  auto parsed = CpuProfile::FromJson(profile.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->schema_version, kProfileSchemaVersion);
  EXPECT_DOUBLE_EQ(parsed->hz, 97.0);
  EXPECT_DOUBLE_EQ(parsed->duration_s, 1.25);
  EXPECT_DOUBLE_EQ(parsed->total_cpu_s, 0.5);
  EXPECT_EQ(parsed->samples, 42);
  EXPECT_EQ(parsed->dropped, 1);
  EXPECT_EQ(parsed->truncated, 3);
  ASSERT_EQ(parsed->folded.size(), 2u);
  EXPECT_EQ(parsed->folded[0].stack, "phase:simulate;op:count");
  EXPECT_EQ(parsed->folded[0].samples, 40);
  ASSERT_EQ(parsed->operators.size(), 2u);
  EXPECT_EQ(parsed->operators[0].name, "count");
  ASSERT_EQ(parsed->phases.size(), 2u);
  ASSERT_EQ(parsed->threads.size(), 1u);
  EXPECT_EQ(parsed->threads[0].name, "main");
}

TEST(CpuProfileJsonTest, RejectsUnknownSchemaVersion) {
  CpuProfile profile;
  profile.samples = 1;
  Json j = profile.ToJson();
  j.Set("schema_version", Json::Int(99));
  EXPECT_FALSE(CpuProfile::FromJson(j).ok());
  EXPECT_FALSE(CpuProfile::FromJson(Json::Array()).ok());
}

TEST(MeasureCellProfileTest, WritesProfileJsonAndLedgerSummary) {
  const std::string dir = testing::TestTempDir() + "/cell";
  std::filesystem::remove_all(dir);
  auto plan = testing::LinearPlan(5000.0, 2);
  ASSERT_TRUE(plan.ok());
  RunProtocol protocol;
  protocol.repeats = 1;
  protocol.duration_s = 2.0;
  protocol.warmup_s = 0.5;
  protocol.label = "prof-unit";
  protocol.profile.enabled = true;
  protocol.profile.hz = 997.0;
  protocol.obs.enabled = true;
  protocol.obs.dir = dir;
  auto cell = MeasureCell(*plan, Cluster::M510(4), protocol);
  ASSERT_TRUE(cell.ok()) << cell.status().ToString();
  ASSERT_TRUE(cell->has_profile);
  EXPECT_GE(cell->profile.samples, 1);

  // The bundle's profile.json parses back to the same profile.
  auto text = ReadTextFile(dir + "/profile.json");
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  auto json = Json::Parse(*text);
  ASSERT_TRUE(json.ok());
  auto parsed = CpuProfile::FromJson(*json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->samples, cell->profile.samples);
  EXPECT_DOUBLE_EQ(parsed->total_cpu_s, cell->profile.total_cpu_s);

  // Ledger summary mirrors the profile.
  EXPECT_EQ(cell->ledger_record.profile_samples, cell->profile.samples);
  EXPECT_DOUBLE_EQ(cell->ledger_record.profile_cpu_s,
                   cell->profile.total_cpu_s);
  const Json record_json = cell->ledger_record.ToJson();
  EXPECT_TRUE(record_json["profile"].is_object());
}

TEST(MeasureCellProfileTest, ProfilingLeavesVirtualTimeResultsBitIdentical) {
  auto plan = testing::LinearPlan(5000.0, 2);
  ASSERT_TRUE(plan.ok());
  RunProtocol base;
  base.repeats = 1;
  base.duration_s = 2.0;
  base.warmup_s = 0.5;
  auto plain = MeasureCell(*plan, Cluster::M510(4), base);
  RunProtocol profiled = base;
  profiled.profile.enabled = true;
  profiled.profile.hz = 997.0;
  auto prof = MeasureCell(*plan, Cluster::M510(4), profiled);
  ASSERT_TRUE(plain.ok() && prof.ok());
  ASSERT_TRUE(prof->has_profile);
  // Exact equality, not near: the profiler only reads host clocks.
  EXPECT_EQ(plain->mean_median_latency_s, prof->mean_median_latency_s);
  EXPECT_EQ(plain->mean_throughput_tps, prof->mean_throughput_tps);
  EXPECT_EQ(plain->p95_latency_s, prof->p95_latency_s);
  EXPECT_EQ(plain->p99_latency_s, prof->p99_latency_s);
  EXPECT_EQ(plain->late_drops, prof->late_drops);
  EXPECT_EQ(plain->backpressure_skipped, prof->backpressure_skipped);
}

TEST(FlameGraphTest, RendersStacksAndEscapesHostileFrameNames) {
  svg::FlameGraphSpec spec;
  spec.title = "unit flame";
  spec.stacks = {{"phase:simulate;app:WC;op:count", 0.6},
                 {"phase:simulate;app:WC;op:<script>alert(1)</script>", 0.4}};
  const std::string out = svg::RenderFlameGraph(spec);
  EXPECT_NE(out.find("<svg"), std::string::npos);
  EXPECT_NE(out.find("op:count"), std::string::npos);
  EXPECT_EQ(out.find("<script>"), std::string::npos);
  EXPECT_NE(out.find("&lt;script&gt;"), std::string::npos);

  // Empty and non-finite specs still render a valid placeholder SVG.
  EXPECT_NE(svg::RenderFlameGraph(svg::FlameGraphSpec()).find("<svg"),
            std::string::npos);
  svg::FlameGraphSpec bad;
  bad.stacks = {{"op:x", std::nan("")}, {"op:y", -1.0}};
  EXPECT_NE(svg::RenderFlameGraph(bad).find("<svg"), std::string::npos);
}

}  // namespace
}  // namespace prof
}  // namespace obs
}  // namespace pdsp

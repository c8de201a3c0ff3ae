// End-to-end integration: the full PDSP-Bench workflow in one test file —
// generate a workload, execute it, persist it, reload it, autoscale it,
// build a training corpus, train a model, and predict. Each stage consumes
// the previous stage's real output.

#include <gtest/gtest.h>

#include <filesystem>

#include "src/apps/apps.h"
#include "src/ml/datagen.h"
#include "src/ml/trainer.h"
#include "src/sim/analytic.h"
#include "src/store/run_store.h"
#include "src/workload/autoscaler.h"
#include "src/workload/query_generator.h"
#include "tests/testing/temp_dir.h"

namespace pdsp {
namespace {

TEST(PipelineTest, GenerateExecutePersistReloadReexecute) {
  const std::string dir = testing::TestTempDir() + "/store";
  std::filesystem::remove_all(dir);
  RunStore store(dir);

  // 1. Generate a workload.
  QueryGenOptions qopt;
  qopt.fixed_event_rate = 20000.0;
  qopt.default_parallelism = 4;
  qopt.count_policy_probability = 0.0;
  qopt.window_durations_ms = {250, 500};
  qopt.max_keys = 500;
  QueryGenerator generator(qopt, 4001);
  auto plan = generator.Generate(SyntheticStructure::kFilterJoinAgg);
  ASSERT_TRUE(plan.ok());

  // 2. Execute it.
  ExecutionOptions exec;
  exec.sim.duration_s = 2.5;
  exec.sim.warmup_s = 0.5;
  const Cluster cluster = Cluster::C6525(6);
  auto run = ExecutePlan(*plan, cluster, exec);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_GT(run->sink_tuples, 0);

  // 3. Persist, reload, re-execute: bit-identical results.
  ASSERT_TRUE(store.SaveRun("w1", *plan, cluster, *run).ok());
  auto reloaded = store.LoadPlan("w1");
  ASSERT_TRUE(reloaded.ok());
  auto replay = ExecutePlan(*reloaded, cluster, exec);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->sink_tuples, run->sink_tuples);
  EXPECT_DOUBLE_EQ(replay->median_latency_s, run->median_latency_s);

  // 4. The stored metrics match what we measured.
  auto doc = store.LoadRun("w1");
  ASSERT_TRUE(doc.ok());
  EXPECT_DOUBLE_EQ((*doc)["metrics"]["latency"]["p50_s"].AsNumber(),
                   run->median_latency_s);
  std::filesystem::remove_all(dir);
}

TEST(PipelineTest, AutoscaleThenAnalyticAgreement) {
  // Autoscale a saturated app, then check the analytic model classifies the
  // final configuration as unsaturated.
  AppOptions opt;
  opt.event_rate = 120000.0;
  opt.parallelism = 1;
  opt.window_scale = 0.4;
  auto plan = MakeApp(AppId::kSpikeDetection, opt);
  ASSERT_TRUE(plan.ok());

  AutoscalerOptions scale;
  scale.execution.sim.duration_s = 2.0;
  scale.execution.sim.warmup_s = 0.5;
  scale.max_degree = 64;
  auto result = Autoscale(*plan, Cluster::M510(10), scale);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->converged);

  LogicalPlan tuned = *plan;
  ASSERT_TRUE(ApplyParallelism(&tuned, result->final_degrees).ok());
  auto analytic = EstimateLatencyAnalytically(tuned, Cluster::M510(10));
  ASSERT_TRUE(analytic.ok());
  EXPECT_FALSE(analytic->saturated);
  EXPECT_LT(analytic->max_utilization, 1.0);
}

TEST(PipelineTest, CorpusToTrainedPredictorToNewQuery) {
  // Corpus -> train every model family -> predict an unseen query; every
  // family must produce a sane (positive, finite, sub-minute) estimate.
  DataGenOptions gen;
  gen.num_samples = 40;
  gen.seed = 4002;
  gen.query.fixed_event_rate = 10000.0;
  gen.query.count_policy_probability = 0.0;
  gen.query.window_durations_ms = {250, 500};
  gen.query.max_keys = 500;
  gen.strategy = EnumerationStrategy::kRuleBased;
  gen.enumeration.rule_jitter = 2;
  gen.execution.sim.duration_s = 1.5;
  gen.execution.sim.warmup_s = 0.4;
  const Cluster cluster = Cluster::M510(6);
  auto corpus = GenerateTrainingData(gen, cluster);
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  auto split = SplitDataset(corpus->dataset, 0.7, 0.15, 3);
  ASSERT_TRUE(split.ok());

  QueryGenerator generator(gen.query, 999);
  auto unseen = generator.Generate(SyntheticStructure::kChain2Filters);
  ASSERT_TRUE(unseen.ok());
  auto sample = EncodeSample(*unseen, cluster, 1.0, 0);
  ASSERT_TRUE(sample.ok());

  TrainOptions train;
  train.max_epochs = 40;
  train.patience = 8;
  for (ModelKind kind :
       {ModelKind::kLinearRegression, ModelKind::kMlp,
        ModelKind::kRandomForest, ModelKind::kGnn,
        ModelKind::kGradientBoost}) {
    auto model = MakeModel(kind);
    auto eval = TrainAndEvaluate(model.get(), *split, train);
    ASSERT_TRUE(eval.ok()) << ModelKindToString(kind);
    auto predicted = model->PredictLatency(*sample);
    ASSERT_TRUE(predicted.ok()) << ModelKindToString(kind);
    EXPECT_GT(*predicted, 0.0) << ModelKindToString(kind);
    EXPECT_LT(*predicted, 60.0) << ModelKindToString(kind);
  }
}

}  // namespace
}  // namespace pdsp

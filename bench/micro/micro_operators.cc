// Microbenchmarks for the operator runtime: per-tuple costs of filters,
// window aggregation, joins and representative UDOs. These measure the real
// compute the simulator's cost model abstracts, and document the relative
// expense of operator families (filters cheapest, joins and map-matching
// UDOs heaviest).

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "src/apps/apps.h"
#include "src/data/batch.h"
#include "src/query/batch_layout.h"
#include "src/runtime/kernels.h"
#include "src/runtime/operators.h"
#include "src/runtime/udo.h"
#include "tests/testing/test_plans.h"

namespace pdsp {
namespace {

StreamElement KeyValueElement(Rng* rng, double t) {
  StreamElement e;
  e.tuple.values = {Value(rng->UniformInt(1, 100)),
                    Value(rng->Uniform(0.0, 100.0))};
  e.tuple.event_time = t;
  e.birth = t;
  return e;
}

void BM_FilterProcess(benchmark::State& state) {
  auto plan = testing::LinearPlan();
  auto inst =
      CreateOperatorInstance(*plan, *plan->FindOperator("filter"), 0, 1);
  Rng rng(1);
  std::vector<StreamElement> out;
  double t = 0.0;
  for (auto _ : state) {
    out.clear();
    benchmark::DoNotOptimize(
        (*inst)->Process(KeyValueElement(&rng, t), 0, t, &out));
    t += 1e-5;
  }
}
BENCHMARK(BM_FilterProcess);

void BM_WindowAggProcess(benchmark::State& state) {
  auto plan = testing::LinearPlan();
  auto inst = CreateOperatorInstance(*plan, *plan->FindOperator("agg"), 0, 1);
  Rng rng(1);
  std::vector<StreamElement> out;
  double t = 0.0;
  for (auto _ : state) {
    out.clear();
    benchmark::DoNotOptimize(
        (*inst)->Process(KeyValueElement(&rng, t), 0, t, &out));
    (*inst)->OnTimer(t, &out);
    t += 1e-5;
  }
}
BENCHMARK(BM_WindowAggProcess);

void BM_WindowJoinProcess(benchmark::State& state) {
  auto plan = testing::TwoWayJoinPlan();
  auto inst =
      CreateOperatorInstance(*plan, *plan->FindOperator("join"), 0, 1);
  Rng rng(1);
  std::vector<StreamElement> out;
  double t = 0.0;
  int port = 0;
  for (auto _ : state) {
    out.clear();
    benchmark::DoNotOptimize(
        (*inst)->Process(KeyValueElement(&rng, t), port, t, &out));
    port ^= 1;
    t += 1e-5;
  }
}
BENCHMARK(BM_WindowJoinProcess);

// The batch twin of BM_WindowJoinProcess: the same keys, values and event
// time step, fed as `rows`-row batches alternating between the inputs.
// Building each batch is not timed; rows/s is comparable to the Process
// benchmark's per-element rate.
void BM_WindowJoinBatch(benchmark::State& state) {
  auto plan = testing::TwoWayJoinPlan();
  const LogicalPlan::OpId join = *plan->FindOperator("join");
  auto inst = CreateOperatorInstance(*plan, join, 0, 1);
  const auto rows = static_cast<size_t>(state.range(0));
  data::Batch in(data::BatchLayout({DataType::kInt, DataType::kDouble}));
  data::Batch out(LayoutForSchema(plan->OutputSchema(join)));
  Rng rng(1);
  double t = 0.0;
  int port = 0;
  for (auto _ : state) {
    state.PauseTiming();
    in.Clear();
    out.Clear();
    for (size_t r = 0; r < rows; ++r) {
      in.AppendInt(0, rng.UniformInt(1, 100));
      in.AppendDouble(1, rng.Uniform(0.0, 100.0));
      in.FinishRow(t, t, kNoAttr);
      t += 1e-5;
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        (*inst)->ProcessBatch(in, 0, rows, port, t, &out));
    port ^= 1;
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(rows));
}
BENCHMARK(BM_WindowJoinBatch)->Arg(1024);

void BM_UdoSentimentScore(benchmark::State& state) {
  RegisterAppUdos();
  AppOptions opt;
  auto plan = MakeApp(AppId::kSentimentAnalysis, opt);
  auto inst =
      CreateOperatorInstance(*plan, *plan->FindOperator("sentiment"), 0, 1);
  StreamElement e;
  e.tuple.values = {Value(1),
                    Value("ba ce di fo gu ha ba ce di fo gu ha ba ce")};
  std::vector<StreamElement> out;
  for (auto _ : state) {
    out.clear();
    benchmark::DoNotOptimize((*inst)->Process(e, 0, 0.0, &out));
  }
}
BENCHMARK(BM_UdoSentimentScore);

void BM_UdoMapMatch(benchmark::State& state) {
  RegisterAppUdos();
  AppOptions opt;
  auto plan = MakeApp(AppId::kTrafficMonitoring, opt);
  auto inst =
      CreateOperatorInstance(*plan, *plan->FindOperator("map_match"), 0, 1);
  StreamElement e;
  e.tuple.values = {Value(1), Value(48.51), Value(8.52), Value(88.0)};
  std::vector<StreamElement> out;
  for (auto _ : state) {
    out.clear();
    benchmark::DoNotOptimize((*inst)->Process(e, 0, 0.0, &out));
  }
}
BENCHMARK(BM_UdoMapMatch);

void BM_ValueHash(benchmark::State& state) {
  Rng rng(1);
  Value v(rng.UniformInt(0, 1 << 30));
  for (auto _ : state) benchmark::DoNotOptimize(v.Hash());
}
BENCHMARK(BM_ValueHash);

// --- columnar batch kernels ------------------------------------------------
// Each batch benchmark reports elements/s (items_per_second) at batch sizes
// 1 / 64 / 1024, next to a scalar per-element twin at the same sizes, so the
// vectorization speedup is a pair of adjacent counters. The throughput gate
// (tools/bench_gate.sh, bench/baselines/throughput_budget.json) enforces a
// minimum vectorized/scalar ratio on the filter and aggregate kernels.

constexpr int kBatchSizes[] = {1, 64, 1024};

data::Batch KeyValueBatch(size_t rows, uint64_t seed) {
  data::Batch b(data::BatchLayout({DataType::kInt, DataType::kDouble}));
  b.Reserve(rows);
  Rng rng(seed);
  for (size_t i = 0; i < rows; ++i) {
    b.AppendInt(0, rng.UniformInt(1, 100));
    b.AppendDouble(1, rng.Uniform(0.0, 100.0));
    b.FinishRow(i * 1e-5, i * 1e-5, kNoAttr);
  }
  return b;
}

std::unique_ptr<OperatorInstance> LinearPlanInstance(const char* op_name) {
  auto plan = testing::LinearPlan();
  auto inst = CreateOperatorInstance(*plan, *plan->FindOperator(op_name), 0, 1);
  return std::move(*inst);
}

void BM_BatchFilterKernel(benchmark::State& state) {
  auto inst = LinearPlanInstance("filter");
  const auto rows = static_cast<size_t>(state.range(0));
  const data::Batch in = KeyValueBatch(rows, 1);
  data::Batch out(in.layout());
  for (auto _ : state) {
    out.Clear();
    benchmark::DoNotOptimize(inst->ProcessBatch(in, 0, rows, 0, 0.0, &out));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(rows));
}
BENCHMARK(BM_BatchFilterKernel)->Arg(1)->Arg(64)->Arg(1024);

void BM_ScalarFilter(benchmark::State& state) {
  auto inst = LinearPlanInstance("filter");
  const auto rows = static_cast<size_t>(state.range(0));
  const data::Batch in = KeyValueBatch(rows, 1);
  std::vector<StreamElement> out;
  for (auto _ : state) {
    out.clear();
    for (size_t r = 0; r < rows; ++r) {
      StreamElement e;
      e.tuple = in.RowTuple(r);
      e.birth = in.birth(r);
      benchmark::DoNotOptimize(inst->Process(e, 0, 0.0, &out));
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(rows));
}
BENCHMARK(BM_ScalarFilter)->Arg(1)->Arg(64)->Arg(1024);

void BM_BatchMapKernel(benchmark::State& state) {
  // Map/project is a pure column copy on the batch path.
  const auto rows = static_cast<size_t>(state.range(0));
  data::Batch in = KeyValueBatch(rows, 2);
  data::Batch out(in.layout());
  for (auto _ : state) {
    out.Clear();
    out.AppendRange(in, 0, rows);
    benchmark::DoNotOptimize(out.NumRows());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(rows));
}
BENCHMARK(BM_BatchMapKernel)->Arg(1)->Arg(64)->Arg(1024);

void BM_BatchAggregateKernel(benchmark::State& state) {
  const auto rows = static_cast<size_t>(state.range(0));
  const data::Batch in = KeyValueBatch(rows, 3);
  for (auto _ : state) {
    kernels::AggPartial agg;
    benchmark::DoNotOptimize(kernels::Aggregate(in, 0, rows, 1, &agg));
    benchmark::DoNotOptimize(agg.Finish(AggregateFn::kSum));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(rows));
}
BENCHMARK(BM_BatchAggregateKernel)->Arg(1)->Arg(64)->Arg(1024);

void BM_ScalarAggregate(benchmark::State& state) {
  // The per-element twin: materialize the Value and accumulate through the
  // dynamically typed AsNumeric view, as the scalar window path does.
  const auto rows = static_cast<size_t>(state.range(0));
  const data::Batch in = KeyValueBatch(rows, 3);
  for (auto _ : state) {
    kernels::AggPartial agg;
    for (size_t r = 0; r < rows; ++r) {
      agg.Add(in.RowTuple(r).values[1].AsNumeric());
    }
    benchmark::DoNotOptimize(agg.Finish(AggregateFn::kSum));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(rows));
}
BENCHMARK(BM_ScalarAggregate)->Arg(1)->Arg(64)->Arg(1024);

void BM_BatchPartitionKernel(benchmark::State& state) {
  const auto rows = static_cast<size_t>(state.range(0));
  const data::Batch in = KeyValueBatch(rows, 4);
  std::vector<data::SelectionVector> parts;
  std::vector<uint64_t> hashes;
  for (auto _ : state) {
    kernels::Partition(in, 0, rows, 0, 8, &parts, &hashes);
    benchmark::DoNotOptimize(parts.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(rows));
}
BENCHMARK(BM_BatchPartitionKernel)->Arg(1)->Arg(64)->Arg(1024);

void BM_ScalarPartition(benchmark::State& state) {
  const auto rows = static_cast<size_t>(state.range(0));
  const data::Batch in = KeyValueBatch(rows, 4);
  std::vector<data::SelectionVector> parts(8);
  for (auto _ : state) {
    for (auto& p : parts) p.clear();
    for (size_t r = 0; r < rows; ++r) {
      const uint64_t h = in.RowTuple(r).values[0].Hash();
      parts[h % 8].push_back(static_cast<uint32_t>(r));
    }
    benchmark::DoNotOptimize(parts.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(rows));
}
BENCHMARK(BM_ScalarPartition)->Arg(1)->Arg(64)->Arg(1024);

}  // namespace
}  // namespace pdsp

// Whole-run simulator benchmark driver: measures one workload through the
// pdsp library's public calls and prints one JSON document of raw
// measurements on stdout. run.py builds this program, judges correctness
// and reduces the measurements to the metrics named in BENCHMARK.json.
//
//   simbench_driver --workload NAME --seed N --seconds S --trace 0|1
//
// Every run (both modes):
//   * set-up: plan construction (MakeApp / MakeCanonicalSynthetic, static
//     analysis included), PhysicalPlan::FromLogical and PlaceTasks, each
//     timed, repeated before every repetition so run.py reports a median
//     over the whole run;
//   * one warm-up repetition, then untraced Simulation::Run repetitions
//     until --seconds have passed, each timed by wall clock and by the
//     calling thread's CPU clock, with the virtual-time result digested for
//     the correctness check, and each bracketed by the host speed probe;
//   * peak resident set, read after the warm-up;
//   * one check simulation with latency attribution on, whose result must
//     equal the untraced digest and whose latency components must be
//     non-negative and telescope.
// With --trace 1 the untraced repetitions alternate with traced ones (CPU
// sampler + allocation sampler, started through exec::RunContext), and an
// engine-free replay times the generator and each operator at p=1.
//
// Single-threaded: the only extra thread is the CPU sampler in traced runs.

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/apps/apps.h"
#include "src/cluster/cluster.h"
#include "src/cluster/placement.h"
#include "src/common/status.h"
#include "src/common/string_util.h"
#include "src/data/batch.h"
#include "src/data/generator.h"
#include "src/exec/run_context.h"
#include "src/harness/synthetic_suite.h"
#include "src/obs/mem.h"
#include "src/obs/prof.h"
#include "src/query/batch_layout.h"
#include "src/runtime/element.h"
#include "src/runtime/operators.h"
#include "src/runtime/physical_plan.h"
#include "src/sim/simulation.h"
#include "src/store/json.h"

namespace pdsp {
namespace simbench {
namespace {

/// One benchmark workload. The horizon (virtual seconds of generation) sets
/// the input size: one repetition takes 0.3-2.5 wall-seconds on a 4-vCPU
/// 2.0 GHz x86 VM, so a run holds enough repetitions for a steady median.
struct Workload {
  const char* name;
  bool is_app;
  AppId app;
  SyntheticStructure structure;
  double rate;
  int parallelism;
  double horizon_s;
};

constexpr Workload kWorkloads[] = {
    // Engine-bound: ~1-row batches broadcast to 64 destinations.
    {"linear-p64", false, AppId::kWordCount, SyntheticStructure::kLinear,
     200000.0, 64, 1.0},
    // The single-threaded baseline: generator and kernels dominate.
    {"linear-p1", false, AppId::kWordCount, SyntheticStructure::kLinear,
     200000.0, 1, 5.0},
    // Window state, strings and allocation behind a ~9x tokenizer fan-out.
    {"wc-p8", true, AppId::kWordCount, SyntheticStructure::kLinear, 100000.0,
     8, 1.0},
    // Join state inserted and probed under sustained overload.
    {"join2-p1", false, AppId::kWordCount, SyntheticStructure::kTwoWayJoin,
     200000.0, 1, 1.0},
};

constexpr int kClusterNodes = 10;
constexpr int kSetupsPerRep = 20;
constexpr int kMinReps = 3;
constexpr double kProfileHz = 997.0;
constexpr int64_t kMemSampleBytes = 64 * 1024;
/// Kernel frames whose self CPU time is reported (the simulator's and the
/// operators' ProfScope kernel names).
const char* const kKernelFrames[] = {"filter-kernel", "aggregate-kernel",
                                     "partition-kernel", "process-batch",
                                     "fire-timers"};

double WallNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU seconds of the calling thread (CLOCK_THREAD_CPUTIME_ID) or of the
/// whole process, sampler thread included (CLOCK_PROCESS_CPUTIME_ID).
double CpuNow(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Host speed probe. The VM this benchmark runs on shares its host, and the
/// same code runs up to ~2x slower at some times than at others, in spells
/// of seconds to minutes. The probe times a fixed mix of work right before
/// and after every measured simulation: a dependent integer chain, a pointer
/// chase over a 64 MiB random cycle, updates to a 32 MiB open-addressing
/// table, and tokenizing and hashing 4 MiB of text. It touches only buffers
/// allocated once, before the first probe, and no pdsp code, so no change
/// to the library or its heap use can move it; run.py scales each
/// simulation's times by the probe's. See NOTES.md, Noise.
class HostProbe {
 public:
  HostProbe()
      : chase_(kChaseSlots), table_(2 * kTableSlots, 0), text_(kTextBytes) {
    uint64_t x = 0x2545F4914F6CDD1Dull;
    // Sattolo's shuffle of the identity: one cycle through every slot.
    for (size_t i = 0; i < kChaseSlots; ++i) {
      chase_[i] = static_cast<uint32_t>(i);
    }
    for (size_t i = kChaseSlots - 1; i > 0; --i) {
      std::swap(chase_[i], chase_[Next(&x) % i]);
    }
    for (char& c : text_) {
      const uint64_t r = Next(&x);
      c = r % 7 == 0 ? ' ' : static_cast<char>('a' + r % 26);
    }
    Run();  // the table fills on the first pass
  }

  /// CPU seconds of the calling thread for one pass over the mix.
  double Run() {
    const double c0 = CpuNow(CLOCK_THREAD_CPUTIME_ID);
    uint64_t x = 0x9E3779B97F4A7C15ull;
    uint64_t sum = 0;
    for (int i = 0; i < 5'000'000; ++i) sum += Next(&x) * 2654435761ull;
    uint32_t p = 0;
    for (int i = 0; i < 250'000; ++i) p = chase_[p];
    sum += p;
    for (int i = 0; i < 400'000; ++i) {
      const uint64_t key = Next(&x) % 1'000'003 + 1;
      size_t h = (key * 0x9E3779B97F4A7C15ull) >> (64 - kTableBits);
      while (table_[2 * h] != 0 && table_[2 * h] != key) {
        h = (h + 1) & (kTableSlots - 1);
      }
      table_[2 * h] = key;
      sum += ++table_[2 * h + 1];
    }
    uint64_t word = 1469598103934665603ull;  // FNV-1a
    for (char c : text_) {
      if (c == ' ') {
        sum += word & 0xffff;
        word = 1469598103934665603ull;
      } else {
        word = (word ^ static_cast<unsigned char>(c)) * 1099511628211ull;
      }
    }
    sink_ = sum;
    return CpuNow(CLOCK_THREAD_CPUTIME_ID) - c0;
  }

 private:
  static constexpr size_t kChaseSlots = size_t{16} << 20;  // 64 MiB
  static constexpr int kTableBits = 21;                    // 32 MiB
  static constexpr size_t kTableSlots = size_t{1} << kTableBits;
  static constexpr size_t kTextBytes = size_t{4} << 20;

  static uint64_t Next(uint64_t* x) {  // xorshift64
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    return *x;
  }

  std::vector<uint32_t> chase_;
  std::vector<uint64_t> table_;
  std::vector<char> text_;
  volatile uint64_t sink_ = 0;
};

/// Operators grouped by the kind of work they do, so every workload reports
/// the same per-layer names: sources, stateless transforms (filters, maps,
/// stateless UDOs), stateful operators (windows, joins, stateful UDOs) and
/// the sink.
const char* RoleOf(const OperatorDescriptor& op) {
  switch (op.type) {
    case OperatorType::kSource:
      return "source";
    case OperatorType::kSink:
      return "sink";
    case OperatorType::kWindowAggregate:
    case OperatorType::kWindowJoin:
      return "stateful";
    case OperatorType::kUdo:
      return op.udo_stateful ? "stateful" : "stateless";
    default:
      return "stateless";
  }
}

Result<LogicalPlan> BuildPlan(const Workload& w, int parallelism) {
  if (w.is_app) {
    AppOptions options;
    options.event_rate = w.rate;
    options.parallelism = parallelism;
    return MakeApp(w.app, options);
  }
  CanonicalOptions options;
  options.event_rate = w.rate;
  options.parallelism = parallelism;
  return MakeCanonicalSynthetic(w.structure, options);
}

struct Setup {
  std::unique_ptr<LogicalPlan> plan;
  std::unique_ptr<PhysicalPlan> phys;
  Placement placement;
  double build_s = 0.0;
  double expand_s = 0.0;
  double place_s = 0.0;
};

Result<Setup> MakeSetup(const Workload& w, const Cluster& cluster,
                        uint64_t seed) {
  Setup s;
  const double t0 = WallNow();
  PDSP_ASSIGN_OR_RETURN(LogicalPlan plan, BuildPlan(w, w.parallelism));
  s.plan = std::make_unique<LogicalPlan>(std::move(plan));
  const double t1 = WallNow();
  PDSP_ASSIGN_OR_RETURN(PhysicalPlan phys,
                        PhysicalPlan::FromLogical(s.plan.get()));
  s.phys = std::make_unique<PhysicalPlan>(std::move(phys));
  const double t2 = WallNow();
  PDSP_ASSIGN_OR_RETURN(s.placement,
                        PlaceTasks(cluster, s.phys->InstancesPerOp(),
                                   PlacementKind::kLeastLoaded, seed));
  const double t3 = WallNow();
  s.build_s = t1 - t0;
  s.expand_s = t2 - t1;
  s.place_s = t3 - t2;
  return s;
}

SimOptions SimOptionsFor(const Workload& w, uint64_t seed) {
  SimOptions options;
  options.duration_s = w.horizon_s;
  options.warmup_s = 0.2 * w.horizon_s;  // pdspbench's run protocol
  options.seed = seed;
  return options;
}

std::string Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return StrFormat("%016llx", static_cast<unsigned long long>(bits));
}

/// The virtual-time result a simulation must reproduce: counts exactly and
/// latency percentiles / throughput bit for bit.
Json Digest(const SimResult& r) {
  Json d = Json::Object();
  d.Set("source_tuples", Json::Int(r.source_tuples));
  d.Set("sink_tuples", Json::Int(r.sink_tuples));
  d.Set("events_processed", Json::Int(r.events_processed));
  d.Set("backpressure_skipped", Json::Int(r.backpressure_skipped));
  d.Set("late_drops", Json::Int(r.late_drops));
  d.Set("p50_bits", Json::Str(Bits(r.median_latency_s)));
  d.Set("p95_bits", Json::Str(Bits(r.p95_latency_s)));
  d.Set("p99_bits", Json::Str(Bits(r.p99_latency_s)));
  d.Set("throughput_bits", Json::Str(Bits(r.throughput_tps)));
  Json ops = Json::Array();
  for (const OperatorRunStats& s : r.op_stats) {
    Json op = Json::Object();
    op.Set("name", Json::Str(s.name));
    op.Set("in", Json::Int(s.tuples_in));
    op.Set("out", Json::Int(s.tuples_out));
    ops.Append(std::move(op));
  }
  d.Set("ops", std::move(ops));
  return d;
}

/// Conservation invariants every seed must satisfy: each consumer takes in
/// exactly what its producers emitted, the sink receives results, and no
/// latency figure (or, with attribution, latency component) is negative.
std::vector<std::string> Violations(const LogicalPlan& plan,
                                    const SimResult& r, bool attributed) {
  std::vector<std::string> v;
  if (r.op_stats.size() != plan.NumOperators()) {
    v.push_back("op_stats does not cover every operator");
    return v;
  }
  for (size_t op = 0; op < plan.NumOperators(); ++op) {
    const std::vector<LogicalPlan::OpId> inputs =
        plan.Inputs(static_cast<LogicalPlan::OpId>(op));
    if (inputs.empty()) continue;
    int64_t produced = 0;
    for (LogicalPlan::OpId in : inputs) produced += r.op_stats[in].tuples_out;
    if (produced != r.op_stats[op].tuples_in) {
      v.push_back(StrFormat("%s: in %lld != producers' out %lld",
                            r.op_stats[op].name.c_str(),
                            static_cast<long long>(r.op_stats[op].tuples_in),
                            static_cast<long long>(produced)));
    }
  }
  if (r.sink_tuples <= 0) v.push_back("sink received no results");
  const double latencies[] = {r.median_latency_s, r.mean_latency_s,
                              r.p95_latency_s, r.p99_latency_s};
  for (double l : latencies) {
    if (!(l >= 0.0)) v.push_back("negative or NaN end-to-end latency");
  }
  if (attributed) {
    const LatencyBreakdown& b = r.breakdown;
    if (b.samples <= 0) v.push_back("attributed run recorded no breakdown");
    const double parts[] = {b.source_batch_s, b.network_s, b.queue_s,
                            b.service_s, b.window_s};
    for (double p : parts) {
      if (!(p >= 0.0)) v.push_back("negative latency component");
    }
    if (!(std::fabs(b.ComponentSum() - b.total_s) <=
          1e-6 * std::max(1.0, b.total_s))) {
      v.push_back("latency components do not sum to the total");
    }
    for (const OperatorRunStats& s : r.op_stats) {
      const OperatorLatencyStats& l = s.latency;
      if (!(l.queue_wait_sum_s >= 0.0 && l.network_in_sum_s >= 0.0 &&
            l.service_sum_s >= 0.0 && l.window_sum_s >= 0.0 &&
            l.source_batch_sum_s >= 0.0)) {
        v.push_back(s.name + ": negative latency component");
      }
    }
  }
  return v;
}

Json StrArray(const std::vector<std::string>& items) {
  Json a = Json::Array();
  for (const std::string& s : items) a.Append(Json::Str(s));
  return a;
}

/// One simulation (one operation): its result and how long it took.
struct SimRun {
  Result<SimResult> result = Status::Internal("not run");
  double wall_s = 0.0;
  double cpu_s = 0.0;          // calling thread
  double process_cpu_s = 0.0;  // every thread
};

SimRun Simulate(const Setup& s, const Cluster& cluster,
                const SimOptions& options) {
  SimRun run;
  const double w0 = WallNow();
  const double c0 = CpuNow(CLOCK_THREAD_CPUTIME_ID);
  const double p0 = CpuNow(CLOCK_PROCESS_CPUTIME_ID);
  run.result = Simulation::Run(*s.phys, cluster, s.placement, CostModel{},
                               options);
  run.process_cpu_s = CpuNow(CLOCK_PROCESS_CPUTIME_ID) - p0;
  run.cpu_s = CpuNow(CLOCK_THREAD_CPUTIME_ID) - c0;
  run.wall_s = WallNow() - w0;
  return run;
}

Json RecordSim(const char* kind, const Setup& s, const SimRun& run,
               bool attributed) {
  Json j = Json::Object();
  j.Set("kind", Json::Str(kind));
  j.Set("ok", Json::Bool(run.result.ok()));
  j.Set("wall_s", Json::Number(run.wall_s));
  j.Set("cpu_s", Json::Number(run.cpu_s));
  j.Set("process_cpu_s", Json::Number(run.process_cpu_s));
  if (!run.result.ok()) {
    j.Set("error", Json::Str(run.result.status().ToString()));
    return j;
  }
  j.Set("src_tuples", Json::Int(run.result->source_tuples));
  j.Set("digest", Digest(*run.result));
  j.Set("violations", StrArray(Violations(*s.plan, *run.result, attributed)));
  return j;
}

/// Deterministic engine counts of one untraced result.
Json Counts(const SimResult& r) {
  size_t max_queue = 0;
  for (const OperatorRunStats& s : r.op_stats) {
    max_queue = std::max(max_queue, s.max_queue_tuples);
  }
  Json c = Json::Object();
  c.Set("events_processed", Json::Int(r.events_processed));
  c.Set("source_tuples", Json::Int(r.source_tuples));
  c.Set("data_rows",
        Json::Int(r.metrics->GetCounter("pdsp.data.rows")->value()));
  c.Set("data_batches",
        Json::Int(r.metrics->GetCounter("pdsp.data.batches")->value()));
  c.Set("column_promotions",
        Json::Int(
            r.metrics->GetCounter("pdsp.data.column_promotions")->value()));
  c.Set("max_queue_tuples", Json::Int(static_cast<int64_t>(max_queue)));
  return c;
}

/// Name of the innermost frame of a folded stack ("a;b;op:agg" -> "op:agg").
std::string LeafFrame(const std::string& stack) {
  const size_t pos = stack.rfind(';');
  return pos == std::string::npos ? stack : stack.substr(pos + 1);
}

/// One simulation under the CPU and allocation samplers. The profilers only
/// observe host-side state, so the virtual-time result must equal the
/// untraced one.
Json TracedRep(const Workload& w, const Setup& s, const Cluster& cluster,
               const SimOptions& options, SimRun* run) {
  exec::RunContext ctx;
  obs::prof::ProfOptions prof_options;
  prof_options.enabled = true;
  prof_options.hz = kProfileHz;
  obs::mem::MemOptions mem_options;
  mem_options.enabled = true;
  mem_options.sample_interval_bytes = kMemSampleBytes;
  Status started = ctx.StartCpuProfiler(prof_options);
  if (started.ok()) started = ctx.StartMemProfiler(mem_options);
  if (!started.ok()) {
    run->result = started;
    ctx.StopCpuProfiler();
    return Json::Object();
  }
  {
    obs::prof::ProfScope app_scope(obs::prof::FrameKind::kApp, w.name);
    obs::prof::ProfScope phase_scope(obs::prof::FrameKind::kPhase,
                                     "simulate");
    *run = Simulate(s, cluster, options);
  }
  const obs::prof::CpuProfile cpu = ctx.StopCpuProfiler();
  const obs::mem::MemProfile mem = ctx.StopMemProfiler();

  std::map<std::string, std::string> role_of_op;
  for (size_t op = 0; op < s.plan->NumOperators(); ++op) {
    const OperatorDescriptor& d =
        s.plan->op(static_cast<LogicalPlan::OpId>(op));
    role_of_op[d.name] = RoleOf(d);
  }
  std::map<std::string, double> self;
  self["simulate"] = 0.0;
  for (const char* role : {"source", "stateless", "stateful", "sink"}) {
    self[std::string("op.") + role] = 0.0;
  }
  for (const char* k : kKernelFrames) self[std::string("kernel.") + k] = 0.0;
  double torn_cpu_s = 0.0;
  for (const obs::prof::FoldedSample& f : cpu.folded) {
    const std::string leaf = LeafFrame(f.stack);
    if (leaf == "(torn)") {
      torn_cpu_s += f.cpu_s;
    } else if (leaf == "phase:simulate") {
      self["simulate"] += f.cpu_s;
    } else if (leaf.rfind("op:", 0) == 0) {
      auto it = role_of_op.find(leaf.substr(3));
      if (it != role_of_op.end()) self["op." + it->second] += f.cpu_s;
    } else if (leaf.rfind("kernel:", 0) == 0) {
      const std::string key = "kernel." + leaf.substr(7);
      if (self.count(key) != 0) self[key] += f.cpu_s;
    }
  }
  Json self_json = Json::Object();
  for (const auto& [name, cpu_s] : self) {
    self_json.Set(name, Json::Number(cpu_s));
  }
  Json alloc_roles = Json::Object();
  std::map<std::string, int64_t> role_bytes = {
      {"source", 0}, {"stateless", 0}, {"stateful", 0}, {"sink", 0}};
  for (const obs::mem::MemFrameTotal& op : mem.operators) {
    auto it = role_of_op.find(op.name);
    if (it != role_of_op.end()) role_bytes[it->second] += op.total_bytes;
  }
  for (const auto& [role, bytes] : role_bytes) {
    alloc_roles.Set(role, Json::Int(bytes));
  }

  Json t = Json::Object();
  t.Set("self_cpu_s", std::move(self_json));
  t.Set("torn_cpu_s", Json::Number(torn_cpu_s));
  t.Set("total_cpu_s", Json::Number(cpu.total_cpu_s));
  t.Set("alloc_bytes", Json::Int(mem.total_bytes));
  t.Set("alloc_role_bytes", std::move(alloc_roles));
  return t;
}

/// Engine-free replay at p=1: sources generate through
/// TupleGenerator::AppendNext, every other operator runs through
/// CreateOperatorInstance -> ProcessBatch / OnTimer / Flush in topological
/// order, and each call is timed. Watermarks advance with the source
/// interval, so windows fire as in an unqueued run.
Result<Json> Probe(const Workload& w, uint64_t seed) {
  PDSP_ASSIGN_OR_RETURN(LogicalPlan built, BuildPlan(w, 1));
  auto plan = std::make_unique<LogicalPlan>(std::move(built));
  PDSP_ASSIGN_OR_RETURN(PhysicalPlan phys,
                        PhysicalPlan::FromLogical(plan.get()));
  PDSP_ASSIGN_OR_RETURN(std::vector<data::BatchLayout> layouts,
                        DeriveBatchLayouts(*plan));
  const SimOptions sim_defaults;
  const double dt = sim_defaults.source_batch_interval_s;
  const auto chunk = static_cast<size_t>(sim_defaults.batch_rows);

  struct Stage {
    std::unique_ptr<OperatorInstance> instance;
    std::unique_ptr<TupleGenerator> generator;
    int64_t rows_per_step = 0;
    std::vector<std::pair<data::Batch, int>> inbox;
    double ns = 0.0;
    int64_t rows = 0;
    size_t peak_state = 0;
  };
  std::vector<Stage> stages(plan->NumOperators());
  for (LogicalPlan::OpId op : plan->TopologicalOrder()) {
    const OperatorDescriptor& d = plan->op(op);
    const int task = phys.FirstTaskOf(op);
    Stage& stage = stages[op];
    if (d.type == OperatorType::kSource) {
      const SourceBinding& binding = plan->sources()[d.source_index];
      PDSP_ASSIGN_OR_RETURN(
          TupleGenerator gen,
          TupleGenerator::Create(binding.stream.schema, binding.stream.specs,
                                 seed * 977 + static_cast<uint64_t>(task)));
      stage.generator = std::make_unique<TupleGenerator>(std::move(gen));
      stage.rows_per_step = std::llround(binding.arrival.rate * dt);
    } else {
      PDSP_ASSIGN_OR_RETURN(
          stage.instance,
          CreateOperatorInstance(*plan, op, 0,
                                 seed * 31 + static_cast<uint64_t>(task)));
    }
  }

  auto deliver = [&](LogicalPlan::OpId from, data::Batch out) {
    if (out.empty()) return;
    const std::vector<ChannelGroup> groups = phys.ChannelsFrom(from);
    for (size_t i = 0; i < groups.size(); ++i) {
      auto& inbox = stages[groups[i].to_op].inbox;
      if (i + 1 == groups.size()) {
        inbox.emplace_back(std::move(out), groups[i].input_port);
      } else {
        data::Batch copy(out.layout());
        copy.AppendRange(out, 0, out.NumRows());
        inbox.emplace_back(std::move(copy), groups[i].input_port);
      }
    }
  };
  auto fire = [](Stage& stage, double wm, bool flush, data::Batch* out) {
    std::vector<StreamElement> fired;
    if (stage.instance->NextTimerTime() <= wm) {
      stage.instance->OnTimer(wm, &fired);
    }
    if (flush) stage.instance->Flush(wm, &fired);
    for (const StreamElement& e : fired) {
      out->AppendTuple(e.tuple, e.birth, e.attr_id);
    }
  };
  auto run_operator = [&](LogicalPlan::OpId op, double now, bool last) {
    Stage& stage = stages[op];
    data::Batch out(layouts[op]);
    for (auto& [batch, port] : stage.inbox) {
      const size_t rows = batch.NumRows();
      for (size_t begin = 0; begin < rows; begin += chunk) {
        const double t0 = WallNow();
        Status st = stage.instance->ProcessBatch(
            batch, begin, std::min(rows, begin + chunk), port, now, &out);
        stage.ns += 1e9 * (WallNow() - t0);
        if (!st.ok()) return st;
      }
      stage.rows += static_cast<int64_t>(rows);
    }
    stage.inbox.clear();
    stage.peak_state = std::max(stage.peak_state, stage.instance->StateSize());
    const double t0 = WallNow();
    fire(stage, last ? std::numeric_limits<double>::infinity() : now, last,
         &out);
    stage.ns += 1e9 * (WallNow() - t0);
    deliver(op, std::move(out));
    return Status::OK();
  };

  double gen_ns = 0.0;
  int64_t gen_rows = 0;
  const auto steps = static_cast<int64_t>(std::llround(w.horizon_s / dt));
  for (int64_t k = 0; k < steps; ++k) {
    const double now = static_cast<double>(k) * dt;
    for (LogicalPlan::OpId op : plan->TopologicalOrder()) {
      Stage& stage = stages[op];
      if (stage.generator == nullptr) {
        PDSP_RETURN_NOT_OK(run_operator(op, now + dt, false));
        continue;
      }
      const int64_t n = stage.rows_per_step;
      data::Batch out(layouts[op]);
      out.Reserve(static_cast<size_t>(n));
      const double t0 = WallNow();
      for (int64_t i = 0; i < n; ++i) {
        const double t_event = now + (static_cast<double>(i) + 0.5) * dt /
                                         static_cast<double>(n);
        stage.generator->AppendNext(t_event, t_event, kNoAttr, &out);
      }
      gen_ns += 1e9 * (WallNow() - t0);
      gen_rows += n;
      deliver(op, std::move(out));
    }
  }
  for (LogicalPlan::OpId op : plan->TopologicalOrder()) {
    if (stages[op].generator == nullptr) {
      PDSP_RETURN_NOT_OK(run_operator(op, w.horizon_s, true));
    }
  }

  struct RoleTotals {
    double ns = 0.0;
    int64_t rows = 0;
    size_t peak_state = 0;
  };
  std::map<std::string, RoleTotals> roles;
  for (size_t op = 0; op < stages.size(); ++op) {
    if (stages[op].generator != nullptr) continue;
    RoleTotals& r =
        roles[RoleOf(plan->op(static_cast<LogicalPlan::OpId>(op)))];
    r.ns += stages[op].ns;
    r.rows += stages[op].rows;
    r.peak_state = std::max(r.peak_state, stages[op].peak_state);
  }
  Json roles_json = Json::Object();
  for (const auto& [role, r] : roles) {
    Json j = Json::Object();
    j.Set("ns", Json::Number(r.ns));
    j.Set("rows", Json::Int(r.rows));
    j.Set("peak_state", Json::Int(static_cast<int64_t>(r.peak_state)));
    roles_json.Set(role, std::move(j));
  }
  Json probe = Json::Object();
  probe.Set("gen_ns", Json::Number(gen_ns));
  probe.Set("gen_rows", Json::Int(gen_rows));
  probe.Set("roles", std::move(roles_json));
  return probe;
}

Json Provenance(uint64_t seed) {
#if defined(__OPTIMIZE__)
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
#if defined(NDEBUG)
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  // Read from the compiler, whatever flags the build was configured with.
  std::string sanitize;
#if defined(__SANITIZE_ADDRESS__)
  sanitize += "address;";
#endif
#if defined(__SANITIZE_THREAD__)
  sanitize += "thread;";
#endif
  const std::string build_type = SIMBENCH_BUILD_TYPE;
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  Json p = Json::Object();
  p.Set("build_type", Json::Str(build_type));
  p.Set("compiler", Json::Str(compiler));
  p.Set("optimized", Json::Bool(optimized));
  p.Set("ndebug", Json::Bool(ndebug));
  p.Set("sanitize", Json::Str(sanitize));
  p.Set("nproc", Json::Int(sysconf(_SC_NPROCESSORS_ONLN)));
  p.Set("seed", Json::Str(std::to_string(seed)));
  // Only optimised, uninstrumented builds may be compared with each other.
  p.Set("comparable",
        Json::Bool(optimized && sanitize.empty() &&
                   (build_type == "RelWithDebInfo" ||
                    build_type == "Release")));
  return p;
}

/// Peak resident set of this process image in KiB. VmHWM, unlike
/// getrusage's ru_maxrss, starts afresh at exec, so the parent's footprint
/// before the fork does not leak into the figure.
int64_t PeakRssKb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  long long kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lld kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb;
}

int Usage() {
  std::fprintf(stderr,
               "usage: simbench_driver --workload NAME --seed N "
               "--seconds S --trace 0|1\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload_name;
  uint64_t seed = 0;
  double seconds = -1.0;
  int trace = -1;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      char* end = nullptr;
      seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (flag == "--seconds") {
      seconds = std::atof(value);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else {
      return Usage();
    }
  }
  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (workload_name == candidate.name) w = &candidate;
  }
  if (argc % 2 != 1 || w == nullptr || !have_seed || !(seconds > 0.0) ||
      (trace != 0 && trace != 1)) {
    return Usage();
  }

  const obs::prof::ThreadRegistration registration("main");
  const Cluster cluster = Cluster::M510(kClusterNodes);
  const SimOptions options = SimOptionsFor(*w, seed);
  const double deadline = WallNow() + seconds;

  // Set-up is repeated before every repetition, so its median covers the
  // whole run rather than one moment of it; the last one is kept.
  Setup setup;
  auto set_up = [&](Json* times) {
    for (int i = 0; i < kSetupsPerRep; ++i) {
      Result<Setup> s = MakeSetup(*w, cluster, seed);
      if (!s.ok()) return s.status();
      setup = std::move(s).value();
      Json t = Json::Array();
      t.Append(Json::Number(setup.build_s));
      t.Append(Json::Number(setup.expand_s));
      t.Append(Json::Number(setup.place_s));
      times->Append(std::move(t));
    }
    return Status::OK();
  };

  // The first repetition warms caches and the allocator up; it is checked
  // like every other but timed into no metric. The host probe is made after
  // it, so its buffers stay out of the peak resident set.
  std::unique_ptr<HostProbe> host;
  Json sims = Json::Array();
  Json traced = Json::Array();
  Json counts = Json::Null();
  int64_t peak_rss_kb = 0;
  int reps = 0;
  while (reps <= kMinReps || WallNow() < deadline) {
    Json setups = Json::Array();
    if (Status st = set_up(&setups); !st.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
      return 1;
    }
    const double host_before = host ? host->Run() : 0.0;
    SimRun run = Simulate(setup, cluster, options);
    const double host_after = host ? host->Run() : 0.0;
    if (run.result.ok() && counts.is_null()) counts = Counts(*run.result);
    if (!host) {
      // The peak of the warm-up. Read later, it would grow with the number
      // of repetitions that fit in --seconds, that is with the host's speed.
      peak_rss_kb = PeakRssKb();
      sims.Append(RecordSim("warmup", setup, run, false));
      host = std::make_unique<HostProbe>();
      ++reps;
      continue;
    }
    Json record = RecordSim("untraced", setup, run, false);
    record.Set("setups", std::move(setups));
    record.Set("host_s", Json::Number(std::sqrt(host_before * host_after)));
    sims.Append(std::move(record));
    if (trace == 1) {
      SimRun traced_run;
      Json t = TracedRep(*w, setup, cluster, options, &traced_run);
      sims.Append(RecordSim("traced", setup, traced_run, false));
      if (traced_run.result.ok()) {
        t.Set("process_cpu_s", Json::Number(traced_run.process_cpu_s));
        t.Set("src_tuples", Json::Int(traced_run.result->source_tuples));
        traced.Append(std::move(t));
      }
    }
    ++reps;
  }

  // Latency attribution never changes virtual-time results; with it on the
  // latency components can be checked as well.
  SimOptions attributed = options;
  attributed.attribute_latency = true;
  sims.Append(RecordSim("attributed", setup,
                        Simulate(setup, cluster, attributed), true));

  Json out = Json::Object();
  out.Set("provenance", Provenance(seed));
  out.Set("workload", Json::Str(w->name));
  out.Set("horizon_s", Json::Number(w->horizon_s));
  Json roles = Json::Object();
  for (size_t op = 0; op < setup.plan->NumOperators(); ++op) {
    const OperatorDescriptor& d =
        setup.plan->op(static_cast<LogicalPlan::OpId>(op));
    roles.Set(d.name, Json::Str(RoleOf(d)));
  }
  out.Set("roles", std::move(roles));
  out.Set("sims", std::move(sims));
  out.Set("counts", std::move(counts));
  out.Set("peak_rss_kb", Json::Int(peak_rss_kb));
  if (trace == 1) {
    out.Set("traced", std::move(traced));
    Result<Json> probe = Probe(*w, seed);
    if (!probe.ok()) {
      std::fprintf(stderr, "probe failed: %s\n",
                   probe.status().ToString().c_str());
      return 1;
    }
    out.Set("probe", std::move(probe).value());
  }
  std::printf("%s\n", out.Dump().c_str());
  return 0;
}

}  // namespace
}  // namespace simbench
}  // namespace pdsp

int main(int argc, char** argv) { return pdsp::simbench::Main(argc, argv); }

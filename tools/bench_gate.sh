#!/usr/bin/env bash
# Benchmark regression gate: re-measures a fixed subset of checked-in
# baselines (bench/baselines/*.json) with each baseline's recorded protocol,
# appends every measurement to the run ledger, and exits non-zero when any
# virtual-time metric regresses beyond the noise-aware threshold
# (pdsp::obs::CompareRecords). Also runs the micro_sim host-profiler,
# sampling-CPU-profiler and allocation-sampler pairs and reports the
# self-profiling overhead, and gates per-operator bytes-per-tuple against
# the checked-in allocation budgets (bench/baselines/mem_budget.json).
#
# Because the simulator is deterministic in virtual time for a fixed seed,
# an unchanged tree reproduces the baselines bit-for-bit on any machine —
# so two consecutive runs of this gate must both pass.
#
# Usage: tools/bench_gate.sh [build-dir]
#   build-dir defaults to ./build and must already contain the binaries.
#
# Environment:
#   PDSP_GATE_APPS        space-separated baseline labels to check
#                         (default: "WC SG linear" — must exist under
#                         bench/baselines/)
#   PDSP_GATE_THRESHOLD   relative regression threshold (default 0.25 —
#                         generous: CI catches breakage, not 1% noise)
#   PDSP_GATE_SIGMAS      noise gate width in combined stddevs (default 3.0)
#   PDSP_GATE_LEDGER      ledger path the gate appends to
#                         (default results/ledger.jsonl)
#   PDSP_GATE_SKIP_MICRO  set to 1 to skip the microbenchmark pass
#   PDSP_GATE_SKIP_TPUT   set to 1 to skip the kernel throughput gate
#   PDSP_GATE_SKIP_SWEEP  set to 1 to skip the parallel-sweep pair
#   PDSP_GATE_SKIP_MEM    set to 1 to skip the allocation budget gate
#   PDSP_GATE_SWEEP_JOBS  worker count for the parallel leg (default 4)

set -eu

cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
APPS="${PDSP_GATE_APPS:-WC SG linear}"
THRESHOLD="${PDSP_GATE_THRESHOLD:-0.25}"
SIGMAS="${PDSP_GATE_SIGMAS:-3.0}"
LEDGER="${PDSP_GATE_LEDGER:-results/ledger.jsonl}"
BASELINE_DIR="bench/baselines"

step() { echo; echo "=== bench_gate: $* ==="; }

PDSPBENCH="$BUILD_DIR/tools/pdspbench"
if [ ! -x "$PDSPBENCH" ]; then
  echo "bench_gate: $PDSPBENCH not built (cmake --build $BUILD_DIR first)" >&2
  exit 2
fi

if [ "${PDSP_GATE_SKIP_MICRO:-0}" != "1" ] && [ -x "$BUILD_DIR/bench/micro_sim" ]; then
  step "micro_sim profiler overhead pairs (host + sampling CPU + alloc)"
  MICRO_JSON="$BUILD_DIR/bench_gate_micro.json"
  # Five repetitions of every benchmark, run in random order so that host
  # noise falls on both sides of each pair; the gate compares medians.
  "$BUILD_DIR/bench/micro_sim" \
      --benchmark_filter='BM_SimLinearPlanHostProf|BM_SimLinearPlanProf|BM_SimLinearPlanMemProf' \
      --benchmark_repetitions=5 --benchmark_enable_random_interleaving=true \
      --benchmark_report_aggregates_only=true \
      --benchmark_format=json > "$MICRO_JSON"
  if command -v python3 >/dev/null 2>&1; then
    python3 - "$MICRO_JSON" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
times = {b["run_name"]: b["real_time"] for b in d["benchmarks"]
         if b.get("aggregate_name") == "median"}
# Generous CI bound per pair; the design target is <= 2% but
# microbenchmark noise on shared CI hosts can exceed that.
for label, on_name, off_name in [
    ("host-profiler", "BM_SimLinearPlanHostProf",
     "BM_SimLinearPlanHostProfOff"),
    ("cpu-sampling-profiler", "BM_SimLinearPlanProf",
     "BM_SimLinearPlanProfOff"),
    ("allocation-sampling-profiler", "BM_SimLinearPlanMemProf",
     "BM_SimLinearPlanMemProfOff"),
]:
    on, off = times[on_name], times[off_name]
    overhead = (on - off) / off
    print(f"{label} overhead: {overhead * 100:+.2f}% "
          f"(medians of 5: on {on:.0f} ns, off {off:.0f} ns)")
    if overhead > 0.10:
        sys.exit(f"{label} overhead {overhead*100:.1f}% exceeds 10% bound")
EOF
  fi
fi

if [ "${PDSP_GATE_SKIP_TPUT:-0}" != "1" ] && \
    [ -x "$BUILD_DIR/bench/micro_operators" ] && \
    [ -f "$BASELINE_DIR/throughput_budget.json" ] && \
    command -v python3 >/dev/null 2>&1; then
  step "kernel throughput gate (elements/s vs $BASELINE_DIR/throughput_budget.json)"
  # The columnar data plane's performance contract: every vectorized kernel
  # is benchmarked next to its scalar per-element twin at the same batch
  # size, and the vectorized/scalar items-per-second ratio must clear each
  # pair's checked-in min_speedup (3x for filter and aggregate at 1024).
  # Absolute floors are deliberately loose — machine-independent ratios are
  # the real gate; the floors only catch a catastrophic (10x-scale)
  # throughput collapse. Repeat counts and the aggregate-median reporting
  # keep single-run scheduler noise out of the verdict.
  TPUT_JSON="$BUILD_DIR/bench_gate_tput.json"
  "$BUILD_DIR/bench/micro_operators" \
      --benchmark_filter='BM_Batch|BM_Scalar' \
      --benchmark_repetitions=5 --benchmark_report_aggregates_only=true \
      --benchmark_format=json > "$TPUT_JSON"
  python3 - "$TPUT_JSON" "$BASELINE_DIR/throughput_budget.json" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
budget = json.load(open(sys.argv[2]))
items = {b["name"]: b["items_per_second"]
         for b in d["benchmarks"]
         if b.get("aggregate_name") == "median" and "items_per_second" in b}
def lookup(name):
    v = items.get(name + "_median")
    if v is None:
        sys.exit(f"benchmark {name} missing from micro_operators output")
    return v
failures = []
for pair in budget["pairs"]:
    batch = lookup(pair["batch"])
    scalar = lookup(pair["scalar"])
    speedup = batch / scalar if scalar > 0 else float("inf")
    verdicts = []
    if speedup < pair["min_speedup"]:
        verdicts.append(f"speedup {speedup:.2f}x < {pair['min_speedup']}x")
    floor = pair.get("min_batch_items_per_s", 0)
    if batch < floor:
        verdicts.append(f"batch {batch:.3g}/s < floor {floor:.3g}/s")
    status = "OK" if not verdicts else "; ".join(verdicts)
    print(f"{pair['label']}: vectorized {batch / 1e6:.1f} M elem/s, "
          f"scalar {scalar / 1e6:.1f} M elem/s, "
          f"speedup {speedup:.2f}x (need {pair['min_speedup']}x) {status}")
    if verdicts:
        failures.append(pair["label"])
if failures:
    sys.exit("kernel throughput gate failed: " + " ".join(failures))
EOF
fi

if [ "${PDSP_GATE_SKIP_SWEEP:-0}" != "1" ]; then
  SWEEP_JOBS="${PDSP_GATE_SWEEP_JOBS:-4}"
  step "parallel sweep pair (16 cells, jobs=1 vs jobs=$SWEEP_JOBS)"
  # The same 16-cell parallelism sweep run twice: sequentially and fanned
  # across $SWEEP_JOBS workers. The simulator is deterministic in virtual
  # time, so both legs must produce bit-identical per-cell ledger records;
  # each leg also appends one summary record (parallelism = worker count,
  # host_wall_s = sweep wall clock) used to report the speedup.
  SWEEP_LEDGER_1="$BUILD_DIR/bench_gate_sweep_jobs1.jsonl"
  SWEEP_LEDGER_N="$BUILD_DIR/bench_gate_sweep_jobsN.jsonl"
  rm -f "$SWEEP_LEDGER_1" "$SWEEP_LEDGER_N"
  SWEEP_ARGS="--structure=linear --rate=20000
              --parallelism=1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16
              --nodes=16 --duration=1.0 --seed=42 --profile --mem-profile"
  # Both legs run with live monitoring (--progress=plain) AND both samplers
  # (--profile, --mem-profile) on: all three only observe host-side state,
  # so the bit-identical assertion below also proves that neither the
  # telemetry thread nor either sampler perturbs per-cell virtual-time
  # results.
  "$PDSPBENCH" $SWEEP_ARGS --jobs=1 --ledger="$SWEEP_LEDGER_1" \
      --progress=plain > /dev/null
  "$PDSPBENCH" $SWEEP_ARGS --jobs="$SWEEP_JOBS" --ledger="$SWEEP_LEDGER_N" \
      --progress=plain > /dev/null
  if command -v python3 >/dev/null 2>&1; then
    python3 - "$SWEEP_LEDGER_1" "$SWEEP_LEDGER_N" <<'EOF'
import json, sys

def load(path):
    cells, summaries = [], []
    for line in open(path):
        r = json.loads(line)
        (summaries if r["label"].startswith("sweep/") else cells).append(r)
    return cells, summaries

# Fields that identify the run or the host footprint, not the simulated
# outcome — allowed to differ between the two legs. "profile" is the
# sampled-CPU summary and "memory" the sampled-allocation summary: both
# measure real host behavior, inherently volatile across runs.
VOLATILE = {"run_id", "timestamp_utc", "host", "profile", "memory"}

# Diagnosis codes derived from the allocation profile (PDSP-M3xx) inherit
# its volatility: sample counts differ run to run, so whether a memory
# diagnostic fires is not deterministic. Simulated-outcome diagnostics
# (backpressure, skew, ...) must still match exactly.
def stable_codes(record):
    codes = record.get("diagnosis_codes")
    if isinstance(codes, list):
        record = dict(record)
        record["diagnosis_codes"] = [
            c for c in codes if not str(c).startswith("PDSP-M3")]
    return record

cells1, sum1 = load(sys.argv[1])
cellsN, sumN = load(sys.argv[2])
assert len(cells1) == len(cellsN) == 16, \
    f"expected 16 cells per leg, got {len(cells1)} vs {len(cellsN)}"
for a, b in zip(cells1, cellsN):
    a, b = stable_codes(a), stable_codes(b)
    keys = set(a) | set(b)
    diff = [k for k in sorted(keys - VOLATILE) if a.get(k) != b.get(k)]
    assert not diff, f"{a['label']}: jobs=1 vs jobs=N differ on {diff}"
assert len(sum1) == 1 and len(sumN) == 1, "missing sweep summary record"
w1, wN = sum1[0]["host"]["wall_s"], sumN[0]["host"]["wall_s"]
jobs = sumN[0]["parallelism"]
speedup = w1 / wN if wN > 0 else float("nan")
print(f"16 cells bit-identical across legs; "
      f"jobs=1 wall {w1:.2f}s, jobs={jobs} wall {wN:.2f}s, "
      f"speedup {speedup:.2f}x")
EOF
  else
    echo "python3 not found; sweep legs ran but were not compared"
  fi

  step "report generation timing (pdspbench report over the sweep ledger)"
  REPORT_OUT="$BUILD_DIR/bench_gate_report.html"
  REPORT_START_NS=$(date +%s%N)
  "$PDSPBENCH" report "$SWEEP_LEDGER_N" --out="$REPORT_OUT" \
      --title="bench_gate sweep report"
  REPORT_END_NS=$(date +%s%N)
  echo "report generated in $(( (REPORT_END_NS - REPORT_START_NS) / 1000000 )) ms -> $REPORT_OUT"
fi

if [ "${PDSP_GATE_SKIP_MEM:-0}" != "1" ] && \
    [ -f "$BASELINE_DIR/mem_budget.json" ] && \
    command -v python3 >/dev/null 2>&1; then
  step "allocation budget gate (bytes/tuple vs $BASELINE_DIR/mem_budget.json)"
  # Re-measures each budgeted workload with --mem-profile at the budget
  # file's sampling interval and fails when any per-run bytes-per-tuple
  # estimate exceeds its checked-in ceiling. Budgets are deliberately
  # generous (~2x measured) — this catches an allocation regression like an
  # accidental per-firing copy, not sampling noise; it also locks in the
  # win when the columnar data-plane refactor lands.
  python3 - "$PDSPBENCH" "$BASELINE_DIR/mem_budget.json" "$BUILD_DIR" <<'EOF'
import json, subprocess, sys
pdspbench, budget_path, build_dir = sys.argv[1:4]
budget = json.load(open(budget_path))
proto = budget["protocol"]
failures = []
for entry in budget["budgets"]:
    ledger = f"{build_dir}/bench_gate_mem_{entry['label']}.jsonl"
    open(ledger, "w").close()
    cmd = [pdspbench, entry["selector"],
           f"--rate={proto['rate']}",
           f"--parallelism={proto['parallelism']}",
           f"--nodes={proto['nodes']}",
           f"--duration={proto['duration_s']}",
           f"--seed={proto['seed']}",
           f"--mem-profile={budget['interval_kib']}",
           f"--ledger={ledger}"]
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    records = [json.loads(line) for line in open(ledger)]
    mem = records[-1].get("memory")
    if mem is None:
        print(f"{entry['label']}: no memory summary (interposition "
              "compiled out?) — skipping")
        continue
    bpt = mem["bytes_per_tuple"]
    limit = entry["max_bytes_per_tuple"]
    verdict = "OK" if bpt <= limit else "OVER BUDGET"
    print(f"{entry['label']}: {bpt:.1f} B/tuple "
          f"(budget {limit:.0f}, peak heap "
          f"{mem['peak_heap_bytes'] / 1048576:.1f} MiB) {verdict}")
    if bpt > limit:
        failures.append(entry["label"])
if failures:
    sys.exit("allocation budget exceeded: " + " ".join(failures))
EOF
fi

step "baseline checks ($APPS; threshold=$THRESHOLD, sigmas=$SIGMAS)"
FAILED=""
for app in $APPS; do
  echo
  echo "--- $app ---"
  if ! "$PDSPBENCH" baseline check "$app" --dir="$BASELINE_DIR" \
      --ledger="$LEDGER" --threshold="$THRESHOLD" --sigmas="$SIGMAS"; then
    FAILED="$FAILED $app"
  fi
done

if [ -n "$FAILED" ]; then
  echo
  echo "bench_gate: REGRESSED:$FAILED" >&2
  exit 1
fi

step "OK (records appended to $LEDGER)"

#!/usr/bin/env python3
"""Whole-run simulator benchmark.

Builds simbench_driver (the pdsp library plus one measuring program) from
the checkout's sources, runs one workload and prints, as the last line of
stdout, one JSON object with the keys correct, attempted, failed and
metrics. Run from the repository root:

    python3 simbench/run.py --workload linear-p64 --seed 42 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. --workload all runs every workload in both modes and prints
every metric by name and unit. --record-reference rewrites reference.json
(the checked-in virtual-time digests) for the reference seeds; that is a
model change and must be reviewed as one.

Every simulation is one operation. It fails when it returns an error, when
its virtual-time digest differs from the run's other simulations (all share
one seed), when the seed has a checked-in reference digest that differs, or
when a conservation invariant is violated.
"""

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "simbench")
DRIVER = os.path.join(BUILD_DIR, "simbench_driver")
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOADS = ["linear-p64", "linear-p1", "wc-p8", "join2-p1"]
REFERENCE_SEEDS = ["42", "7"]  # the default seed and one held-out seed
DRIVER_TIMEOUT_S = 170
ROLES = ["source", "stateless", "stateful", "sink"]
# A round figure near the CPU seconds of one host probe pass on the VM the
# benchmark was tuned on (4-vCPU 2.0 GHz Xeon; 0.085-0.092 s measured).
# Time metrics are reported at this host speed.
HOST_REF_S = 0.1


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once and builds incrementally; cmake output goes to
    stderr so the last stdout line stays the result."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SystemExit("simbench: no pdsp sources under %s/src" % ROOT)
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR],
                           stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", BUILD_DIR, "--target",
                        "simbench_driver", "--parallel",
                        str(min(4, os.cpu_count() or 1))],
                       stdout=sys.stderr, check=True)


def run_driver(workload, seed, seconds, trace):
    proc = subprocess.run(
        [DRIVER, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, timeout=DRIVER_TIMEOUT_S, check=True,
        text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def judge(raw, reference):
    """Returns (attempted, failed, reasons)."""
    expected = reference.get(raw["workload"], {}).get(
        raw["provenance"]["seed"])
    first = next((s["digest"] for s in raw["sims"] if s["ok"]), None)
    failed, reasons = 0, []
    for i, sim in enumerate(raw["sims"]):
        why = None
        if not sim["ok"]:
            why = sim["error"]
        elif sim["violations"]:
            why = "; ".join(sim["violations"])
        elif sim["digest"] != first:
            why = "digest differs from the run's first simulation"
        elif expected is not None and sim["digest"] != expected:
            why = "digest differs from the checked-in reference"
        if why is not None:
            failed += 1
            reasons.append("%s simulation %d: %s" % (sim["kind"], i, why))
    return len(raw["sims"]), failed, reasons


def scaled(rep, seconds):
    """A repetition's time at the host speed of reference: the VM's speed
    drifts by up to ~2x in spells of seconds to minutes, and the host probe
    run right before and after the repetition tracks it. See NOTES.md,
    Noise."""
    return seconds * HOST_REF_S / rep["host_s"]


def per_tuple(reps, key, scale):
    return [scale * scaled(r, r[key]) / r["src_tuples"] for r in reps]


def setup_median(reps, parts):
    return statistics.median(scaled(r, sum(t[i] for i in parts))
                             for r in reps for t in r["setups"])


def measured(raw):
    return [s for s in raw["sims"] if s["kind"] == "untraced" and s["ok"]]


def end_to_end(raw):
    reps = measured(raw)
    return {
        "src_tuples_per_s":
            1.0 / statistics.median(per_tuple(reps, "wall_s", 1.0)),
        "cpu_ns_per_src_tuple":
            statistics.median(per_tuple(reps, "cpu_s", 1e9)),
        "setup_s": setup_median(reps, (0, 1, 2)),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
    }


def per_layer(raw):
    reps = measured(raw)
    traced = raw["traced"]
    counts, probe = raw["counts"], raw["probe"]
    src = counts["source_tuples"]
    m = {
        "query.plan_build_s": setup_median(reps, (0,)),
        "runtime.expand_s": setup_median(reps, (1,)),
        "cluster.place_s": setup_median(reps, (2,)),
        "host.probe_s": statistics.median(r["host_s"] for r in reps),
        "sim.raw_cpu_ns_per_src_tuple": statistics.median(
            1e9 * r["cpu_s"] / r["src_tuples"] for r in reps),
        "sim.repetitions": len(reps),
        "sim.src_tuples": src,
        "sim.events_per_src_tuple": counts["events_processed"] / src,
        "sim.max_queue_tuples": counts["max_queue_tuples"],
        "data.rows_per_batch": counts["data_rows"] / counts["data_batches"],
        "data.column_promotions": counts["column_promotions"],
        "data.gen_ns_per_row": probe["gen_ns"] / probe["gen_rows"],
        "runtime.stateful.peak_state_rows":
            probe["roles"]["stateful"]["peak_state"],
    }
    for role in ["stateless", "stateful", "sink"]:
        r = probe["roles"][role]
        m["runtime.%s.ns_per_row" % role] = r["ns"] / r["rows"]
    for name in traced[0]["self_cpu_s"]:
        m["trace.self_cpu_s." + name] = statistics.median(
            t["self_cpu_s"][name] for t in traced)
    m["trace.torn_frac"] = statistics.median(
        t["torn_cpu_s"] / t["total_cpu_s"] for t in traced)
    # Process CPU, so the sampler thread's own cost counts as overhead. Not
    # scaled: traced repetitions have no probe of their own.
    def process_ns(sims):
        return statistics.median(
            1e9 * s["process_cpu_s"] / s["src_tuples"] for s in sims)
    traced_cpu = process_ns(traced)
    m["trace.cpu_ns_per_src_tuple"] = traced_cpu
    m["trace.overhead_frac"] = traced_cpu / process_ns(reps) - 1.0
    m["alloc.bytes_per_src_tuple"] = statistics.median(
        t["alloc_bytes"] / t["src_tuples"] for t in traced)
    for role in ROLES:
        m["alloc.op.%s.bytes_per_src_tuple" % role] = statistics.median(
            t["alloc_role_bytes"][role] / t["src_tuples"] for t in traced)
    return m


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def measure(spec, reference, workload, seed, seconds, trace):
    raw = run_driver(workload, seed, seconds, trace)
    attempted, failed, reasons = judge(raw, reference)
    for reason in reasons:
        log("FAILED " + reason)
    prov = raw["provenance"]
    if not prov["comparable"]:
        log("WARNING: %s build (sanitize=%r): numbers are not comparable "
            "with optimised builds" % (prov["build_type"], prov["sanitize"]))
    values = per_layer(raw) if trace else end_to_end(raw)
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    units = {d["name"]: d["unit"] for d in declared}
    if set(values) != set(units):
        raise SystemExit("simbench: metrics %s do not match BENCHMARK.json %s"
                         % (sorted(values), sorted(units)))
    print("provenance " + json.dumps(prov, sort_keys=True))
    print("workload %s horizon_s %g repetitions %d roles %s"
          % (workload, raw["horizon_s"],
             sum(s["kind"] == "untraced" for s in raw["sims"]),
             json.dumps(raw["roles"], sort_keys=True)))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]}
                    for n in sorted(values)},
    }


def record_reference():
    reference = {}
    for workload in WORKLOADS:
        reference[workload] = {}
        for seed in REFERENCE_SEEDS:
            raw = run_driver(workload, seed, 1, 0)
            _, failed, reasons = judge(raw, {})
            if failed:
                raise SystemExit("simbench: %s seed %s: %s"
                                 % (workload, seed, reasons))
            reference[workload][seed] = raw["sims"][0]["digest"]
    with open(REFERENCE, "w") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=int(REFERENCE_SEEDS[0]))
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not args.workload and not args.record_reference:
        parser.error("--workload is required")
    build()
    if args.record_reference:
        record_reference()
        return
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    with open(REFERENCE) as f:
        reference = json.load(f)
    if args.workload != "all":
        result = measure(spec, reference, args.workload, args.seed, seconds,
                         args.trace)
        print(json.dumps(result))
        return
    everything = {}
    for workload in WORKLOADS:
        everything[workload] = {}
        for trace in (0, 1):
            result = measure(spec, reference, workload, args.seed, seconds,
                             trace)
            everything[workload][trace] = result
            for name, m in result["metrics"].items():
                print("%-11s %-45s %16.6g %s"
                      % (workload, name, m["value"], m["unit"]))
            print("%-11s attempted=%d failed=%d correct=%s"
                  % (workload, result["attempted"], result["failed"],
                     result["correct"]))
    print(json.dumps(everything))


if __name__ == "__main__":
    main()

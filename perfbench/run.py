#!/usr/bin/env python3
"""Benchmark entry point: builds spikebench from source, runs one workload and
prints the metrics of BENCHMARK.json.

    python3 perfbench/run.py --workload svgg11_batch --seed 1 --seconds 10 --trace 0

Run from the repository root. --trace 0 prints the end-to-end metrics,
--trace 1 the per-layer metrics of a separate traced run. Human-readable
lines go first; the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}. The full record (host,
topology, seed, tail percentiles, failure breakdown) is also written to
.bench_out/result_<workload>_seed<seed>_trace<k>.json, which compare.py reads,
and the raw samples of spikebench to .bench_out/record_<same>.json.

Exit codes: 0 = all output checks passed, 1 = a check failed (the result is
still printed), 2 = the benchmark could not run (nothing printed).
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))

import stats  # noqa: E402

TIME_LIMIT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build():
    """Configure once, then build incrementally; logs go to stderr."""
    if not (ROOT / "src").is_dir():
        fail("no src/ next to perfbench/: run from a full checkout")
    out = build_dir()
    jobs = str(os.cpu_count() or 1)
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", str(out), "--target", "spikebench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")
    return out / "spikebench"


def end_to_end(rec):
    """Every end-to-end metric from a trace-0 record, plus notes."""
    topo = rec["topology"]
    notes = {}
    if "latency_ms" in rec:  # open loop: per request
        ops = rec["latency_ms"]
        host_sps = rec["completed"] / rec["served_wall_s"]
        within = rec["within_slo"] / rec["requests"]
        notes["op"] = "request (scheduled send -> completion)"
        notes["loadgen.late_ms_tail"] = stats.windowed_tail(rec["late_ms"])[1]
        notes["mean_wave_lanes"] = rec["mean_wave_lanes"]
    else:  # closed loop: per BatchRunner::run call
        ops = rec["batch_ms"]
        host_sps = stats.median([1e3 * topo["batch"] / ms for ms in ops])
        within = sum(v <= topo["slo_ms"] for v in ops) / len(ops)
        notes["op"] = f"BatchRunner::run of {topo['batch']} images x {topo['timesteps']} steps"
    pct, tail_ms, windows = stats.windowed_tail(ops)
    notes["ops"] = len(ops)
    notes["tail"] = f"p{pct:.2f} per window of {len(ops) // windows} ops, median of {windows} windows"
    return {
        "setup_s": stats.median(rec["setup_s"]),
        "host_sps": host_sps,
        "latency_ms_p50": stats.median(ops),
        "latency_ms_tail": tail_ms,
        "within_slo_ratio": within,
        "success_ratio": 1.0 - rec["failed"] / rec["attempted"],
        "peak_rss_mb": rec["peak_rss_mb"],
        "modeled_ms_per_sample": rec["modeled_ms_per_sample"],
        "modeled_fpu_util": rec["modeled_fpu_util"],
        "modeled_mj_per_sample": rec["modeled_mj_per_sample"],
    }, notes


def per_layer(rec, names):
    """Every per-layer metric of a trace-1 record. Rows a workload does not
    have (S-VGG11 layers on the tower, server rows offline) read 0."""
    values = dict(rec["per_layer"])
    samples = rec["per_layer_samples"]
    if "runtime.server.queue_ms" in samples:
        values["runtime.server.queue_ms_p50"] = stats.median(samples["runtime.server.queue_ms"])
        values["runtime.server.queue_ms_tail"] = stats.windowed_tail(samples["runtime.server.queue_ms"])[1]
        values["runtime.server.service_ms_p50"] = stats.median(samples["runtime.server.service_ms"])
        values["loadgen.late_ms_tail"] = stats.windowed_tail(samples["loadgen.late_ms"])[1]
    return {name: values.get(name, 0.0) for name in names}, {}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    start = time.monotonic()

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}

    binary = build()
    out_dir = ROOT / ".bench_out"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(out_dir)]
    budget = TIME_LIMIT_S - (time.monotonic() - start)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=max(budget, 1))
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {TIME_LIMIT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"spikebench exited with {proc.returncode}")
    rec = json.loads(lines[-1])
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    (out_dir / f"record_{stem}").write_text(lines[-1] + "\n")

    if args.trace:
        values, notes = per_layer(rec, list(units))
    else:
        values, notes = end_to_end(rec)
    correct = proc.returncode == 0 and rec["failed"] == 0
    result = {
        "correct": correct,
        "attempted": int(rec["attempted"]),
        "failed": int(rec["failed"]),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }

    keep = {k: rec[k] for k in ("workload", "seed", "trace", "host", "topology", "failures") if k in rec}
    keep.update(metrics=result["metrics"], notes=notes, correct=correct,
                attempted=result["attempted"], failed=result["failed"])
    (out_dir / f"result_{stem}").write_text(json.dumps(keep, indent=1) + "\n")

    print(f"# {args.workload} seed {args.seed} trace {args.trace}: "
          f"{'correct' if correct else 'INCORRECT'}, {result['failed']}/{result['attempted']} failed")
    print(f"# host {rec['host']['cpu_model']}, nproc {rec['host']['nproc']}, "
          f"{rec['host']['build_type']} -march={rec['host']['march']}")
    if "topology" in rec:
        print(f"# topology {json.dumps(rec['topology'], sort_keys=True)}")
    for k, v in notes.items():
        print(f"# {k}: {v}")
    for name, m in result["metrics"].items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

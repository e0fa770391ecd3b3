#!/usr/bin/env python3
"""Summarize and compare benchmark results written by run.py.

    python3 perfbench/compare.py spread DIR
        Per workload and end-to-end metric: median over the seeds in DIR and
        the quartile spread as a share of the median, against the metric's
        bound in BENCHMARK.json.
    python3 perfbench/compare.py compare BASE_DIR NEW_DIR
        Per workload and end-to-end metric: NEW's median against BASE's,
        flagged when it is worse by more than the bound. Modeled metrics are
        deterministic, so on a seed both sides ran they must be identical.

DIR holds result_<workload>_seed<n>_trace0.json files (run.py writes them
to .bench_out/). Results are only compared when their host (CPU, nproc,
build type, -march) and topology (backend, clusters, workers, pool threads,
timesteps, batch) match; anything else is refused, exit code 2.
Exit code 1 = a bound was exceeded (spread) or a regression found (compare).
"""

import json
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))

import stats  # noqa: E402

MODELED = ("modeled_ms_per_sample", "modeled_fpu_util", "modeled_mj_per_sample")
HOST_KEYS = ("cpu_model", "nproc", "build_type", "march")


def load(directory):
    """{workload: [result, ...]} for the trace-0 results in `directory`."""
    out = defaultdict(list)
    for path in sorted(Path(directory).glob("result_*_trace0.json")):
        r = json.loads(path.read_text())
        out[r["workload"]].append(r)
    if not out:
        raise SystemExit(f"no result_*_trace0.json in {directory}")
    return out


def identity(r):
    host = tuple(r["host"].get(k) for k in HOST_KEYS)
    return host, json.dumps(r.get("topology", {}), sort_keys=True)


def refuse_mixed(results, what):
    ids = {identity(r) for r in results}
    if len(ids) > 1:
        print(f"refused: {what} mixes hosts or topologies: {sorted(ids)}")
        sys.exit(2)


def metric_specs():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return spec["end_to_end"]


def values(results, name):
    return [r["metrics"][name]["value"] for r in results]


def cmd_spread(directory):
    bad = False
    for wl, results in sorted(load(directory).items()):
        refuse_mixed(results, wl)
        print(f"{wl}: {len(results)} seeds, all correct: {all(r['correct'] for r in results)}")
        for m in metric_specs():
            v = values(results, m["name"])
            s = stats.spread(v) if len(v) >= 2 else 0.0
            over = m["name"] != "setup_s" and s > m["bound"]
            bad |= over
            print(f"  {m['name']:24s} median {stats.median(v):12.6g}  spread {s:7.2%}"
                  f"  bound {m['bound']:5.0%}  {'OVER' if over else ''}")
    return 1 if bad else 0


def cmd_compare(base_dir, new_dir):
    base, new = load(base_dir), load(new_dir)
    bad = False
    for wl in sorted(set(base) & set(new)):
        refuse_mixed(base[wl] + new[wl], wl)
        print(f"{wl}: base {len(base[wl])} seeds, new {len(new[wl])} seeds")
        by_seed = {r["seed"]: r for r in base[wl]}
        for m in metric_specs():
            b, n = values(base[wl], m["name"]), values(new[wl], m["name"])
            worse = stats.worse_by(stats.median(b), stats.median(n), m["better"])
            flag = worse > m["bound"]
            if m["name"] in MODELED:
                moved = [r["seed"] for r in new[wl] if r["seed"] in by_seed and
                         r["metrics"][m["name"]]["value"] !=
                         by_seed[r["seed"]]["metrics"][m["name"]]["value"]]
                if moved:
                    flag = True
                    print(f"  {m['name']}: modeled value changed on seeds {moved}")
            bad |= flag
            print(f"  {m['name']:24s} base {stats.median(b):12.6g}  new {stats.median(n):12.6g}"
                  f"  worse by {worse:+7.2%}  bound {m['bound']:5.0%}  {'REGRESSED' if flag else ''}")
    return 1 if bad else 0


def main(argv):
    if len(argv) == 3 and argv[1] == "spread":
        return cmd_spread(argv[2])
    if len(argv) == 4 and argv[1] == "compare":
        return cmd_compare(argv[2], argv[3])
    print(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))

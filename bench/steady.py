"""Steadiness evidence for the benchmark.

    python3 bench/steady.py

Runs bench/run.py RUNS times per workload in BENCHMARK.json, in each of SETS
sets, each run with its own seed (the first run of the first set uses the
default seed), workloads interleaved so that machine drift reaches all of
them alike. For every end-to-end metric it records the median, the
quartiles and the spread (q3 - q1) / median of each set, with the same for
the raw, un-normalised wall and set-up times. A metric is steady when every
spread is below a third of its bound in BENCHMARK.json and the medians of
the sets are within the bound of each other. It writes
bench/steadiness.json and exits non-zero unless every metric on every
workload is steady and every run correct.
"""
from __future__ import annotations

import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

from inputs import DEFAULT_SEED

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
OUT = BENCH_DIR / "steadiness.json"
SETS = 2
RUNS = 10


def run_once(workload: str, seed: int) -> dict:
    cmd = CONFIG["command"] + ["--workload", workload, "--seed", str(seed),
                               "--seconds", str(CONFIG["run_seconds"]),
                               "--trace", "0"]
    t0 = time.perf_counter()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=900, check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    raw = dict(re.findall(r"^bench\.(raw_\w+) (\S+) s$", out.stdout, re.M))
    return {"seed": seed, "elapsed_s": time.perf_counter() - t0,
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "raw": {k: float(v) for k, v in raw.items()}}


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main() -> int:
    import numpy
    bounds = {m["name"]: m["bound"] for m in CONFIG["end_to_end"]}
    runs = {w["name"]: [[] for _ in range(SETS)] for w in CONFIG["workloads"]}
    for s in range(SETS):
        for i in range(RUNS):
            seed = DEFAULT_SEED if s == i == 0 else 1 + s * RUNS + i
            for w in runs:
                r = run_once(w, seed)
                runs[w][s].append(r)
                print(f"set {s + 1} {w} seed {seed}: "
                      f"{json.dumps(r['metrics'])} raw {json.dumps(r['raw'])}"
                      f" failed {r['failed']}", flush=True)

    report = {"environment": {
        "nproc": os.cpu_count(), "python": sys.version.split()[0],
        "numpy": numpy.__version__, "blas_threads": 1,
        "run_seconds": CONFIG["run_seconds"]}, "workloads": {}}
    ok = True
    for w, sets in runs.items():
        entry = {"sets": []}
        for rs in sets:
            names = list(rs[0]["metrics"]) + [f"raw.{k}" for k in rs[0]["raw"]]
            values = {n: [r["metrics"][n] if n in r["metrics"]
                          else r["raw"][n[4:]] for r in rs] for n in names}
            entry["sets"].append({
                "failed": sum(r["failed"] for r in rs),
                "all_correct": all(r["correct"] for r in rs),
                "metrics": {n: summary(v) for n, v in values.items()},
                "runs": rs})
        verdict = {}
        for name, bound in bounds.items():
            spreads = [st["metrics"][name]["spread"] for st in entry["sets"]]
            meds = [st["metrics"][name]["median"] for st in entry["sets"]]
            drift = max(meds) / min(meds) - 1
            verdict[name] = {"bound": bound, "max_spread": max(spreads),
                             "median_drift": drift,
                             "ok": max(spreads) < bound / 3 and drift <= bound}
            ok &= verdict[name]["ok"]
            print(f"{w:8s} {name:13s} spread {max(spreads):.4f} "
                  f"drift {drift:.4f} bound {bound} "
                  f"{'ok' if verdict[name]['ok'] else 'NOT STEADY'}")
        for st in entry["sets"]:
            ok &= st["all_correct"]
            print(f"{w:8s} wall_s spread normalised "
                  f"{st['metrics']['wall_s']['spread']:.4f}, raw "
                  f"{st['metrics']['raw.raw_wall_s']['spread']:.4f}")
        entry["verdict"] = verdict
        report["workloads"][w] = entry
    OUT.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

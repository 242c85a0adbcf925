"""Benchmark of quograph's public analysis path, one graph per op.

    python3 bench/run.py --workload {corpus,large,witness} --seed N \
        --seconds S --trace {0,1}

Each op is parse_graph_spec -> analyze -> report_to_json on one graph, in
this single-threaded process (BLAS is held to one thread). Op times are
normalised by an interleaved calibration probe (probe.py) and reported in
reference seconds. Whole passes over the workload repeat while the next one
is projected to end within --seconds; there is always at least one.

--trace 0 prints the end-to-end metrics; --trace 1 makes one traced pass
(tracing.py) and prints the per-layer metrics. Every output is checked outside
the timed interval. The last line of stdout is one JSON object; metric
names and units are documented in bench/README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from inputs import DEFAULT_SEED, workload_inputs
from probe import SPAWN_REF_S, Clock

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
DIGESTS = BENCH_DIR / "digests.json"
WORKLOADS = ("corpus", "large", "witness")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
SETUP_REPS = 15          # measured fresh-interpreter imports, after a warm-up
TRACE_PAIR_EVERY = 3     # traced run: every 3rd op also runs untraced
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import quograph; "
              "print('ready', flush=True)")
BARE_CODE = "print('ready', flush=True)"


def import_package():
    sys.path.insert(0, str(SRC))
    import quograph
    if Path(quograph.__file__).resolve().parent != SRC / "quograph":
        raise SystemExit(f"imported quograph from {quograph.__file__}, "
                         f"not from {SRC}")
    return quograph


def options_for(q, workload: str):
    if workload == "witness":
        return q.AnalysisOptions(debug_checks=True, orbits=True)
    return q.AnalysisOptions()


def run_op(q, spec: str, options):
    """One op: (report, json, None), or (None, None, (stage, exception))."""
    stage = "parse"
    try:
        g = q.parse_graph_spec(spec)
        stage = "analyze"
        report = q.analyze(g, options)
        stage = "serialize"
        return report, q.report_to_json(report), None
    except Exception as e:  # one bad graph must not end the run
        return None, None, (stage, e)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_op(q, report, js: str, want: str | None, need_digest: bool):
    """None when the output is right, else what is wrong with it."""
    if want is None and need_digest:
        return "no committed digest at the default seed"
    if want is not None and sha256(js) != want:
        return "report JSON differs from the committed digest"
    if report.error is not None:
        return f"analysis error: {report.error}"
    if q.report_to_json(q.report_from_dict(json.loads(js))) != js:
        return "report_from_dict does not round-trip to the same bytes"
    f, rep = report.flags, report.quotient
    if f.distance_regular and not f.quotient_polynomial:
        return "distance-regular but not quotient-polynomial"
    if f.quotient_polynomial and not (f.walk_regular and f.distance_polynomial):
        return "quotient-polynomial but not walk-regular and distance-polynomial"
    if rep.r < rep.d:
        return f"r = {rep.r} < d = {rep.d}"
    return None


class Checker:
    """Checks each op's output and keeps the failure count."""

    def __init__(self, q, workload: str, seed: int):
        self.q = q
        self.digests = json.loads(DIGESTS.read_text()).get(workload, {})
        self.need_digest = seed == DEFAULT_SEED
        self.attempted = self.failed = 0

    def __call__(self, spec, report, js, err) -> bool:
        self.attempted += 1
        if err is not None:
            stage, e = err
            problem = f"stage={stage} {type(e).__name__}: {e}"
        else:
            problem = check_op(self.q, report, js, self.digests.get(spec),
                               self.need_digest)
        if problem is not None:
            self.failed += 1
            print(f"FAILED {spec} {problem}")
        return problem is None


def start_child(code: str) -> float:
    """Seconds from spawning `python -c code` until it prints its first line."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code, str(SRC)],
                          stdout=subprocess.PIPE, text=True) as p:
        line = p.stdout.readline()
        t1 = time.perf_counter()
        p.stdout.read()
    if p.returncode != 0 or line.strip() != "ready":
        raise SystemExit(f"set-up child failed: {code}")
    return t1 - t0


def measure_setup() -> float:
    """Seconds for a fresh interpreter to start and finish `import quograph`,
    in reference seconds; the first, warm-up pair of starts is dropped.

    The calibration probe does not track process start-up, which is mostly
    exec, page faults and file reads. A bare interpreter's start does, and
    no change to the package can alter it. So each set-up start is paired
    with a bare start right after it, and the median ratio of the two is
    scaled to a bare start of SPAWN_REF_S.
    """
    raw, ratios = [], []
    for rep in range(SETUP_REPS + 1):
        t = start_child(SETUP_CODE)
        bare = start_child(BARE_CODE)
        if rep:
            raw.append(t)
            ratios.append(t / bare)
    print(f"bench.raw_setup_s {statistics.median(raw)!r} s")
    return statistics.median(ratios) * SPAWN_REF_S


def tail(samples: list[float]) -> float:
    """Nearest-rank p99 (the maximum below 100 samples)."""
    s = sorted(samples)
    return s[max(0, -(-99 * len(s) // 100) - 1)]


def timed_run(q, workload, specs, seconds, clock, check, setup_s):
    options = options_for(q, workload)
    run_op(q, "name:petersen", options)  # warm-up: lazy loads in numpy
    passes = []
    t_start = time.perf_counter()
    with clock.running():
        while True:
            t_pass = time.perf_counter()
            intervals = []
            for spec in specs:
                (report, js, err), interval = clock.op(
                    lambda: run_op(q, spec, options))
                intervals.append(interval)
                check(spec, report, js, err)
            passes.append(intervals)
            now = time.perf_counter()
            if now - t_start + (now - t_pass) > seconds:
                break
    walls = [sum(map(clock.normalise, p)) for p in passes]
    raw_walls = [sum(map(clock.raw, p)) for p in passes]
    samples = [clock.normalise(iv) for p in passes for iv in p]
    n = len(samples)
    print(f"passes {len(walls)}, ops per pass {len(specs)}, samples {n}")
    print(f"graph_s.tail is the nearest-rank p99: "
          f"{n - -(-99 * n // 100)} samples beyond it")
    print(f"bench.raw_wall_s {statistics.median(raw_walls)!r} s")
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(walls), "s"),
        "graph_s.p50": (statistics.median(samples), "s"),
        "graph_s.tail": (tail(samples), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced_run(q, workload, specs, clock, check):
    from tracing import LAYERS, STAGES, Tracer
    options = options_for(q, workload)
    run_op(q, "name:petersen", options)
    tracer = Tracer(q)
    clock.listeners.append(tracer.on_probe)
    traced, untraced, snapshots = [], {}, []
    n2 = classes = walk_bits = 0

    def untraced_op(i, spec):
        (_, js, _), untraced[i] = clock.op(lambda: run_op(q, spec, options))
        return js

    with clock.running():
        for i, spec in enumerate(specs):
            paired = i % TRACE_PAIR_EVERY == 0
            if paired and (i // TRACE_PAIR_EVERY) % 2 == 0:
                plain_js = untraced_op(i, spec)
            snapshots.append((dict(tracer.stage_s), dict(tracer.self_s)))
            tracer.install()
            (report, js, err), interval = clock.op(
                lambda: run_op(q, spec, options))
            tracer.uninstall()
            traced.append(interval)
            ok = check(spec, report, js, err)
            if ok:
                n2 += report.n ** 2
                classes += report.quotient.r + 1
                walk_bits = max(walk_bits, max(
                    abs(x).bit_length()
                    for vec in report.quotient.partition.class_walk_vectors
                    for x in vec))
            if paired and (i // TRACE_PAIR_EVERY) % 2 == 1:
                plain_js = untraced_op(i, spec)
            if paired and ok and plain_js != js:
                check.failed += 1
                print(f"FAILED {spec} traced and untraced JSON differ")
    snapshots.append((dict(tracer.stage_s), dict(tracer.self_s)))

    # Scale each op's share of the stage and layer times by its probe factor.
    stage_s, self_s = Counter(), Counter()
    for (b_stage, b_self), (e_stage, e_self), interval in zip(
            snapshots, snapshots[1:], traced):
        k = clock.normalise(interval) / clock.raw(interval)
        for name, v in e_stage.items():
            stage_s[name] += (v - b_stage.get(name, 0.0)) * k
        for name, v in e_self.items():
            self_s[name] += (v - b_self.get(name, 0.0)) * k

    for stage in tracer.absent:
        print(f"stage {stage} absent: none of {STAGES[stage]} exists")
    traced_wall = sum(map(clock.normalise, traced))
    op_raw = sum(map(clock.raw, traced))
    overhead = (sum(clock.normalise(traced[i]) for i in untraced)
                / sum(map(clock.normalise, untraced.values())) - 1)
    c = tracer.counts
    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = (tracer.calls[layer], "count")
        m[f"{layer}.self_s"] = (self_s[layer], "s")
        m[f"{layer}.errors"] = (tracer.errors[layer], "count")
    for stage in STAGES:
        m[f"stage.{stage}_s"] = (stage_s[stage], "s")
    m["stage.coverage"] = (sum(stage_s.values()) / traced_wall, "ratio")
    for name in ("exact.mat_mul.calls", "exact.mat_mul.madds",
                 "exact.solve.calls", "exact.solve.cells",
                 "exact.combine_powers.cells", "exact.rowbasis.rows",
                 "stage.ladder.madds", "stage.scheme.madds",
                 "stage.dp.solve_cells", "stage.witness.solve_cells"):
        m[name] = (c[name], "count")
    m["partitions.ladder.useful_ratio"] = (
        tracer.ladder_kept / tracer.ladder_tested if tracer.ladder_tested else 0.0,
        "ratio")
    m["quotient.membership.distinct_ratio"] = (
        tracer.member_rows / tracer.member_pairs if tracer.member_pairs else 0.0,
        "ratio")
    m["size.n2"] = (n2, "count")
    m["size.classes"] = (classes, "count")
    m["size.walk_bits_max"] = (walk_bits, "bit")
    m["bench.raw_wall_s"] = (op_raw, "s")
    m["bench.probe_s"] = (clock.probe_median, "s")
    m["bench.probe_share"] = (
        clock.probe_wall / (clock.ends[-1] - clock.starts[0]), "ratio")
    m["bench.trace_overhead"] = (overhead, "ratio")
    print(f"traced ops {len(specs)}, paired with an untraced run {len(untraced)}")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "quograph" / "__init__.py").is_file():
        print(f"no quograph sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:  # before numpy loads
        os.environ[var] = "1"

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}; "
          f"python {sys.version.split()[0]}, nproc {os.cpu_count()}, "
          f"BLAS threads 1 ({', '.join(BLAS_THREAD_VARS)})")
    clock = Clock()
    setup_s = None if args.trace else measure_setup()
    q = import_package()
    import numpy
    print(f"numpy {numpy.__version__}")
    specs = workload_inputs(args.workload, args.seed)
    check = Checker(q, args.workload, args.seed)
    if args.trace:
        metrics = traced_run(q, args.workload, specs, clock, check)
    else:
        metrics = timed_run(q, args.workload, specs, args.seconds, clock,
                            check, setup_s)
    print(f"probes {len(clock.probes)}, median {clock.probe_median!r} s")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(f"failed_frac {check.failed / check.attempted!r} "
          f"({check.failed} of {check.attempted} ops)")
    print(json.dumps({
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""octasphere benchmark: time to verdict on three workloads, and a traced run
that attributes the work to layers.

    python3 bench/run.py --workload verify_all --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all          # every workload, one table

One process runs the workload's job back to back until --seconds have passed
(at least one job) and reports the median.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are wall_s, setup_s and peak_rss_mb; with --trace 1
each job runs once plain and once under the tracer, and the metrics are the
per-layer counts and times.  See bench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from expected import KNOWN_DEFECTS
from layertrace import LAYERS, SUITES, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_RUNS = 4     # fresh interpreters timed before the jobs, and again after
SETUP_MODULES = ["numpy", "scipy", "octasphere", "octasphere.cli"]
SETUP_CODE = "import " + ", ".join(SETUP_MODULES)
WORKLOAD_TIMEOUT = 600


def pin_environment() -> None:
    """No sector-sweep pool, single-threaded BLAS, program imported from src/."""
    os.environ.pop("OCTA_THREADS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path[:0] = [str(SRC), str(BENCH)]


def environment(workload_inputs: str) -> dict:
    rev = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        rev = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "octasphere").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_rev": rev, "src_sha256": digest.hexdigest()[:16],
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "loadavg": [round(x, 2) for x in os.getloadavg()],
            "inputs": workload_inputs}


def time_setup(runs: int) -> list[float]:
    """Seconds for each of `runs` fresh interpreters to import the package
    with numpy and scipy and exit."""
    cmd = [sys.executable, "-c", SETUP_CODE]
    times = []
    for _ in range(runs):
        # no timeout: a timed wait polls in steps of up to 50 ms
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return times


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, outcome) -> dict:
    from octasphere import trigpoly
    m = {}
    for layer, funcs in LAYERS.items():
        for name in funcs:
            key = f"{layer}.{name}"
            m[f"{key}.calls"] = tracer.calls[key]
            m[f"{key}.self_s"] = tracer.self_s[key]
    for name in SUITES:
        key = f"suites.{name.removeprefix('suite_')}"
        m[f"{key}.s"] = tracer.total_s[key]
    m["trigpoly.mul.terms_max"] = tracer.mul_terms_max
    states = outcome.states
    raw = [len(p) for p in states]
    reduced = [sum(len(poly) for poly in trigpoly.class_reduce(p).values()) for p in states]
    m["trigpoly.state_terms_raw_mean"] = statistics.fmean(raw) if raw else 0.0
    m["trigpoly.state_terms_reduced_mean"] = statistics.fmean(reduced) if reduced else 0.0
    m["hierarchy.keep_ratio"] = _ratio(len(states), tracer.calls["hierarchy.ladder_build"])
    m["hierarchy.eigen_checks_per_state"] = _ratio(tracer.calls["hierarchy.make_state"],
                                                   len(states))
    return m


def unit(key: str) -> str:
    if key == "peak_rss_mb":
        return "MB"
    if key.endswith((".calls", "terms_max", "_mean")):
        return "count"
    if key.endswith(("_ratio", "_per_state")):
        return "ratio"
    return "s"


def run_workload(args) -> int:
    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload]
    print("env " + json.dumps(environment(wl.inputs), sort_keys=True), flush=True)
    time_setup(1)  # fills the bytecode cache
    setup_times = time_setup(SETUP_RUNS)
    for name in SETUP_MODULES:  # the same imports here; lazy ones stay in the job
        importlib.import_module(name)
    if args.trace:
        # imported lazily by the quadrature oracle; loaded up front so that the
        # plain job does not pay for an import the traced job then skips
        importlib.import_module("scipy.integrate")

    attempted = failed = 0
    unexpected: set[str] = set()
    walls, traced_walls, layer_runs = [], [], []
    outputs_identical = True
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_tmp_") as tmp:
        workdir = Path(tmp)
        start = time.perf_counter()
        while True:
            gc.collect()  # the previous job's garbage is not this job's work
            t0 = time.perf_counter()
            raw = wl.run(args.seed, workdir)
            walls.append(time.perf_counter() - t0)
            outcome = wl.check(raw, workdir)
            if args.trace:
                gc.collect()
                with Tracer() as tracer:
                    t0 = time.perf_counter()
                    raw = wl.run(args.seed, workdir)
                    traced_walls.append(time.perf_counter() - t0)
                traced = wl.check(raw, workdir)
                outputs_identical &= traced.output == outcome.output
                layer_runs.append(layer_metrics(tracer, traced))
            attempted += len(outcome.verdicts)
            failed += len(outcome.failed())
            unexpected |= set(outcome.failed()) - KNOWN_DEFECTS
            if time.perf_counter() - start >= args.seconds:
                break
    rss = peak_rss_mb()
    # samples from both ends of the run, so one slow spell of a shared
    # machine does not set the median
    setup_s = statistics.median(setup_times + time_setup(SETUP_RUNS))

    for name in sorted(unexpected):
        print(f"FAIL {name}", flush=True)
    if outcome.detail:
        print("detail " + json.dumps(outcome.detail, sort_keys=True), flush=True)
    fail_share = failed / attempted
    print(f"{args.workload}: wall_s {statistics.median(walls):.4f} s (median of "
          f"{len(walls)} jobs), setup_s {setup_s:.4f} s, peak_rss_mb {rss:.1f} MB, "
          f"fail_share {fail_share:.4f} share ({failed}/{attempted})", flush=True)
    print("jobs wall_s " + " ".join(f"{w:.3f}" for w in walls), flush=True)

    correct = not unexpected
    if args.trace:
        counts_repeat = all(_counts(r) == _counts(layer_runs[0]) for r in layer_runs)
        if not outputs_identical:
            print("FAIL traced output differs from untraced output", flush=True)
        if not counts_repeat:
            print("FAIL call counts differ between traced jobs", flush=True)
        correct = correct and outputs_identical and counts_repeat
        counts = _counts(layer_runs[0])
        metrics = {k: counts[k] if k in counts else statistics.median(r[k] for r in layer_runs)
                   for k in layer_runs[0]}
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
    else:
        metrics = {"wall_s": statistics.median(walls), "setup_s": setup_s, "peak_rss_mb": rss}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()}}
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


def _counts(layer: dict) -> dict:
    return {k: v for k, v in layer.items()
            if k.endswith((".calls", "terms_max", "_mean", "_ratio", "_per_state"))}


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    from workloads import WORKLOADS
    table = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKLOAD_TIMEOUT)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        table[name] = json.loads(lines[-1])
    print(json.dumps(table, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["verify_all", "iur_so6_q4", "closed_forms", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "octasphere" / "__init__.py").is_file():
        print(f"no octasphere sources under {SRC}", file=sys.stderr)
        return 2
    pin_environment()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

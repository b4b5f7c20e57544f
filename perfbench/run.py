"""Benchmark runner for the banditmatch package.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload protocol --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run is untraced and reports the end-to-end metrics;
with ``--trace 1`` it wraps the package's layers and reports per-layer
metrics. Earlier lines of standard output carry a JSON report (machine
record, every timing with its sample count and percentiles, exact counts,
failures); the last line is the result object. See perfbench/README.md.
"""

from __future__ import annotations

import os

# Pinned before numpy loads: the matrices are small, and two BLAS threads on a
# two-core box made evaluation times swing far more than one thread did.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BENCH_DIR = Path(__file__).resolve().parent
IMPORT_REPEATS = 5
PERCENTILES = (50, 90, 99, 99.9)
UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
EXIT_SETUP = 2

workloads = tracer = None  # imported from the checkout by import_package()


class SetupError(Exception):
    pass


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_package():
    """Import the package from this checkout's source tree and nowhere else."""
    if not (SRC / "banditmatch" / "__init__.py").is_file():
        raise SetupError(f"no package source at {SRC / 'banditmatch'}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import banditmatch

    if Path(banditmatch.__file__).resolve().parent != SRC / "banditmatch":
        raise SetupError(f"imported banditmatch from {banditmatch.__file__}, not {SRC}")
    import tracer
    import workloads

    return workloads, tracer


def time_fresh_imports(n: int) -> list[float]:
    """Seconds to start a fresh interpreter and import the CLI module, n times."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import banditmatch.cli"
    times = []
    for _ in range(n):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
        times.append(time.perf_counter() - start)
    return times


def summarize(values: list[float]) -> dict:
    """Median, sample count and the highest percentile with ten samples beyond it."""
    out = {"median": statistics.median(values), "n": len(values)}
    ranked = sorted(values)
    for p in PERCENTILES:
        if len(values) * (1 - p / 100) >= 10:
            out["percentile"] = p
            out["value_at_percentile"] = ranked[min(len(ranked) - 1, int(p / 100 * len(ranked)))]
    return out


def machine_record(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
    }


def code_fingerprint() -> str:
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *BENCH_DIR.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def drift_between_runs(workload: str, seed: int, counts: dict) -> list[str]:
    """Compare exact counts with an earlier run of the same code and seed."""
    path = OUT / "counts" / f"{workload}-seed{seed}.json"
    fingerprint = code_fingerprint()
    stored = {}
    if path.exists():
        saved = json.loads(path.read_text())
        if saved.get("code") == fingerprint:
            stored = saved["counts"]
    drift = [f"{k}: {stored[k]} in an earlier run, {v} now"
             for k, v in counts.items() if k in stored and stored[k] != v]
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps({"code": fingerprint, "counts": {**stored, **counts}}))
    os.replace(tmp, path)
    return drift


def drift_between_units(counts: list[dict]) -> list[str]:
    return [f"{k}: unit {i} gave {c[k]}, unit 0 gave {counts[0][k]}"
            for i, c in enumerate(counts[1:], start=1) for k in c if c[k] != counts[0].get(k)]


def run_units(wl, state, ops, seconds: float, traced=None) -> list:
    """Repeat the unit until the next one would end past the deadline (at least
    once). A failed operation ends the run: the next unit would fail the same way."""
    results = []
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        try:
            if traced is None:
                result = wl.unit(state, ops)
            else:
                with traced.installed(), traced.unit():
                    result = wl.unit(state, ops)
            result.times["wall_s"] = time.perf_counter() - start
            if wl.verify:
                wl.verify(state, result, ops)
        except workloads.OperationFailed:
            break
        results.append(result)
        if time.perf_counter() + result.times["wall_s"] > deadline:
            break
    return results


def untraced_run(wl, state, ops, args, setup, report, problems) -> dict:
    units = run_units(wl, state, ops, args.seconds)
    metrics = {
        "setup_s": statistics.median(setup["import_s"]) + statistics.median(setup["build_s"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    report["setup"] = {k: summarize(v) for k, v in setup.items()}
    if not units:
        return metrics
    timings = {k: [u.times[k] for u in units] for k in units[0].times}
    values = {k: [u.values[k] for u in units] for k in units[0].values}
    report["timings"] = {k: summarize(v) for k, v in timings.items()}
    report["values"] = {k: summarize(v) for k, v in values.items()}
    report["counts"] = units[0].counts
    problems += drift_between_units([u.counts for u in units])
    problems += drift_between_runs(args.workload, args.seed, units[0].counts)
    metrics["wall_s"] = report["timings"]["wall_s"]["median"]
    return metrics


def traced_run(wl, state, ops, args, report, problems) -> dict:
    """One untraced reference unit, then traced units until the time is used."""
    reference = run_units(wl, state, ops, 0.0)
    spans = tracer.Tracer()
    units = run_units(wl, state, ops, args.seconds, traced=spans)
    problems += [f"wrapper left in place: {label}" for label in spans.leftover_wrappers]
    if not reference or not units:
        return {}
    for i, unit in enumerate(spans.units):
        if abs(sum(unit["self"]) - unit["wall"]) > 1e-6 * unit["wall"]:
            problems.append(f"unit {i}: self times sum to {sum(unit['self'])}, wall {unit['wall']}")
    calls = spans.calls_by_boundary()
    report["calls"] = calls
    problems += [
        f"coverage: {b.label} recorded no calls on {args.workload}"
        for b in tracer.BOUNDARIES if args.workload in b.required_on and calls[b.label] == 0
    ]
    exact = [spans.unit_exact_counts(u) for u in spans.units]
    problems += drift_between_units(exact)
    problems += drift_between_units([u.counts for u in reference + units])
    problems += [
        f"traced unit {i}: wrappers counted {c['dialogworld.turns']} policy turns, "
        f"the reports {u.counts['turns']}"
        for i, (c, u) in enumerate(zip(exact, units)) if c["dialogworld.turns"] != u.counts["turns"]
    ]
    problems += drift_between_runs(args.workload, args.seed, {**units[0].counts, **exact[0]})
    report["counts"] = exact[0]
    metrics = spans.metrics()
    untraced_wall = reference[0].times["wall_s"]
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead_frac"] = metrics["trace.wall_s"] / untraced_wall - 1.0
    OUT.mkdir(parents=True, exist_ok=True)
    spans.save_spans(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
    return metrics


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("_per_step"):
        return "count/step"
    if name.endswith("_per_call"):
        return "rows/call"
    return "count"


def main(argv=None) -> int:
    global workloads, tracer
    args = parse_args(argv)
    try:
        workloads, tracer = import_package()
        if args.workload not in workloads.WORKLOADS:
            raise SetupError(f"unknown workload {args.workload!r}; "
                             f"choose from {sorted(workloads.WORKLOADS)}")
        wl = workloads.WORKLOADS[args.workload]
        work_root = OUT / f"work-{os.getpid()}"
        setup = {"import_s": time_fresh_imports(IMPORT_REPEATS), "build_s": []}
        for _ in range(wl.setup_repeats):
            start = time.perf_counter()
            state = wl.setup(args.seed, work_root)
            setup["build_s"].append(time.perf_counter() - start)
    except (SetupError, subprocess.CalledProcessError, OSError) as err:
        print(f"benchmark set-up failed: {err}", file=sys.stderr)
        return EXIT_SETUP

    ops = workloads.Ops()
    problems: list[str] = []
    report = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "machine": machine_record(args.seed)}
    try:
        if args.trace:
            metrics = traced_run(wl, state, ops, args, report, problems)
            metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in metrics.items()}
        else:
            metrics = untraced_run(wl, state, ops, args, setup, report, problems)
            metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    report["failures"] = ops.failures
    report["problems"] = problems
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not ops.failures and not problems,
        "attempted": ops.attempted,
        "failed": len(ops.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

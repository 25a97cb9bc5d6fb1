#!/usr/bin/env python3
"""Benchmark of the sheffer toolkit: end-to-end metrics and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload census3 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

The library is imported from ``src/`` next to this directory; the run
fails without printing a result when it is missing.  With ``--trace 0``
the workload runs in a closed loop with one client for at least
``--seconds`` of measured request time, checking every output, and the
last line of standard output is a JSON object with the end-to-end
metrics.  With ``--trace 1`` the run is a single process (census workers
= 1) that runs each request of one pass untraced, traced and untraced
again, then the layer probe; the JSON then carries the per-layer metrics.  Spans are written to
``perfbench/out/spans-<workload>.csv`` and each result, with the
environment it ran in, to ``perfbench/out/result-<workload>-<mode>.json``.
See README.md in this directory for the workloads and metrics.
"""
from __future__ import annotations

# Everything else is imported where it is used, so that a set-up probe
# (this file run with --setup-probe) pays only for what a user pays.
import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("census3", "census4", "synth3", "queries")
#: Fresh interpreters started per run to time set-up; the median is reported.
SETUP_PROBES = 7
#: End-to-end metrics: name -> unit.
END_TO_END = {
    "wall_s": "s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def import_library() -> tuple[float, float]:
    """Import numpy, then sheffer from SRC; return both times from a cold start."""
    t0 = time.perf_counter()
    import numpy  # noqa: F401

    t1 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import sheffer

    t2 = time.perf_counter()
    if not Path(sheffer.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"sheffer was imported from {sheffer.__file__}, not {SRC}")
    return t1 - t0, t2 - t0


def census_workers() -> int:
    return len(os.sched_getaffinity(0))


def load(name: str, seed: int, workers: int):
    import workloads

    return workloads.make(name, seed, SRC / "sheffer" / "data", workers)


def setup_probe(name: str, seed: int) -> None:
    numpy_s, import_s = import_library()
    load(name, seed, census_workers())
    print(json.dumps({"numpy_import_s": numpy_s, "cold_import_s": import_s}))


def measure_setup(name: str, seed: int) -> dict[str, float]:
    """Medians over SETUP_PROBES fresh interpreters that import and load."""
    import statistics
    import subprocess

    walls, numpy_s, import_s = [], [], []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
        walls.append(time.perf_counter() - t0)
        probe = json.loads(proc.stdout.splitlines()[-1])
        numpy_s.append(probe["numpy_import_s"])
        import_s.append(probe["cold_import_s"])
    return {
        "setup_s": statistics.median(walls),
        "cli.numpy_import_s": statistics.median(numpy_s),
        "cli.cold_import_s": statistics.median(import_s),
    }


def _describe(exc: Exception) -> str:
    """Exception type, message and the innermost frame that raised it."""
    import traceback

    frame = traceback.extract_tb(exc.__traceback__)[-1]
    return f"{type(exc).__name__}: {exc} (at {Path(frame.filename).name}:{frame.lineno})"


class Outcomes:
    """Request latencies and failures of one run."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.failures: list[str] = []
        self.attempted = 0

    def run(self, wl, request, tracer=None) -> float:
        """Execute and check one request; return its latency in seconds.

        Any exception from the library or from the check counts as a
        failure of this request, and the run goes on.
        """
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            output = wl.execute(request)
        except Exception as exc:  # noqa: BLE001 - counted, reported, run continues
            elapsed = time.perf_counter() - t0
            self.failures.append(_describe(exc))
            return elapsed
        elapsed = time.perf_counter() - t0
        self.latencies.append(elapsed)
        try:
            if tracer is None:
                problems = wl.check(request, output)
            else:
                with tracer.paused():
                    problems = wl.check(request, output)
        except Exception as exc:  # noqa: BLE001 - a check that raises is a failure
            problems = [f"check raised {_describe(exc)}"]
        if problems:
            self.failures.append("; ".join(problems))
        return elapsed


def peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process plus `workers` times its largest child's.

    Census workers run at the same time, so their peaks are counted once
    per worker.  Call before starting any other child process.
    """
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + (workers * child if workers > 1 else 0)) / 1024


def timed_run(name: str, seed: int, seconds: float) -> tuple[dict, Outcomes, list[str]]:
    import statistics

    workers = census_workers() if name.startswith("census") else 1
    wl = load(name, seed, workers)
    wl.prepare_checks()
    outcomes = Outcomes()
    pass_times: list[float] = []
    while not pass_times or sum(pass_times) < seconds or (
        outcomes.attempted < wl.min_samples
    ):
        pass_times.append(sum(outcomes.run(wl, r) for r in wl.next_pass()))
    rss = peak_rss_mb(workers)
    lat = sorted(outcomes.latencies) or [0.0]  # every request failed
    p95_rank = max(1, math.ceil(0.95 * len(lat)))  # nearest rank
    metrics = {
        "wall_s": statistics.median(pass_times),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_p95_ms": lat[p95_rank - 1] * 1e3,
        "ops_per_s": len(outcomes.latencies) / sum(lat) if sum(lat) else 0.0,
        "peak_rss_mb": rss,
        "setup_s": measure_setup(name, seed)["setup_s"],
    }
    notes = [
        f"census workers {workers}" if name.startswith("census") else "single process",
        f"passes {len(pass_times)}, requests {outcomes.attempted}, latency samples "
        f"{len(outcomes.latencies)} ({len(lat) - p95_rank} beyond p95)",
    ]
    return {m: (metrics[m], unit) for m, unit in END_TO_END.items()}, outcomes, notes


def traced_run(name: str, seed: int) -> tuple[dict, Outcomes, list[str]]:
    import random

    import layers
    from tracing import REQUEST, Tracer, self_times, write_spans

    wl = load(name, seed, 1)
    wl.prepare_checks()
    requests = wl.trace_requests()
    outcomes = Outcomes()
    tracer = Tracer()
    targets = layers.targets()
    # Each request runs untraced, traced, then untraced again, so that the
    # machine's speed drifting during the run does not read as overhead.
    traced = untraced = 0.0
    for i, request in enumerate(requests):
        untraced += outcomes.run(wl, request) / 2
        with tracer.installed(targets):
            tracer.request = i
            traced += outcomes.run(wl, request, tracer)
        untraced += outcomes.run(wl, request) / 2
    with tracer.installed(targets):
        layers.run_probe(random.Random(seed), tracer)
    spans = tracer.spans
    workers = census_workers()
    if name.startswith("census"):
        wl.workers = workers
        speedup = untraced / outcomes.run(wl, requests[0])
    else:
        speedup = layers.probe_speedup(workers)
    self_ns = self_times(spans)
    values, probed = layers.span_metrics(spans, self_ns)
    ratio, ratio_probed = layers.useful_ratio(spans)
    if ratio_probed:
        probed.add("closure.witness_useful_ratio")
    setup = measure_setup(name, seed)
    values.update({
        "closure.witness_useful_ratio": ratio,
        "closure.peak_alloc_mb": layers.peak_alloc_mb(spans),
        "census.parallel_speedup": speedup,
        "cli.cold_import_s": setup["cli.cold_import_s"],
        "cli.numpy_import_s": setup["cli.numpy_import_s"],
        "trace.overhead_ratio": traced / untraced,
        "trace.spans": sum(1 for rec in spans if rec[REQUEST] != layers.PROBE),
    })
    write_spans(spans, self_ns, OUT / f"spans-{name}.csv")
    notes = [
        f"single process, census workers 1; speedup against {workers} workers",
        f"traced {len(requests)} request(s): {traced:.4f} s traced, "
        f"{untraced:.4f} s untraced, overhead {traced / untraced - 1:+.2%}",
        f"spans {len(spans)} ({values['trace.spans']} from the workload)",
        "from the layer probe: " + (", ".join(sorted(probed)) or "none"),
    ]
    units = {m: u for m, u, _ in layers.catalogue()}
    return {m: (values[m], units[m]) for m in units}, outcomes, notes


def environment(name: str, seed: int) -> dict:
    import platform

    import numpy

    return {
        "workload": name,
        "seed": seed if name in ("synth3", "queries") else f"{seed} (unused: exhaustive)",
        "nproc": os.sysconf("SC_NPROCESSORS_ONLN"),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "census_workers": census_workers() if name.startswith("census") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload, print its report, and return the result object."""
    if trace:
        metrics, outcomes, notes = traced_run(name, seed)
    else:
        metrics, outcomes, notes = timed_run(name, seed, seconds)
    failed = len(outcomes.failures)
    notes.append(f"error_rate {failed / outcomes.attempted:.4g} ({failed}/{outcomes.attempted})")
    env = environment(name, seed)
    print(f"# {name}: env {json.dumps(env)}")
    for note in notes:
        print(f"# {name}: {note}")
    for metric, (value, unit) in metrics.items():
        print(f"{name:8} {metric:34} {value:14.6f} {unit}")
    for failure in outcomes.failures[:5]:
        print(f"# {name}: FAILED {failure}")
    result = {
        "correct": not failed,
        "attempted": outcomes.attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    record = dict(result, environment=env, notes=notes, failures=outcomes.failures)
    path = OUT / f"result-{name}-{'trace' if trace else 'timed'}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    return result


def run_all(args) -> int:
    """Every workload in its own interpreter; the last line merges their results."""
    import subprocess

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)
    try:
        import_library()
    except ImportError as exc:
        print(f"error: cannot import the library from {SRC}: {exc}", file=sys.stderr)
        return 2
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

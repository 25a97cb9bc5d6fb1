"""Which library calls the traced run wraps, and the per-layer metrics.

Spans are recorded at the bindings callers use: the names each module
imports from another (for example `sheffer.census.classify`, which the
census calls, and `sheffer.closure.generate_closure`, which `synthesize`
calls), the `sheffer.cli` imports, and the `TruthTable` methods.  The
benchmark's own calls go through the module attributes, so they are
traced the same way.

A per-call time comes from the workload's own spans.  Where the
workload never calls a layer (census4 builds no closure, census3 never
classifies at six inputs), it comes from the layer probe: a few seeded
direct calls made by the same traced process after the workload's pass,
and the run's output marks those metrics as probed.  Counts always come
from the workload alone, so a layer it never calls counts 0.
"""
from __future__ import annotations

import contextlib
import importlib
import io
import statistics
import time
import tracemalloc

from tracing import ATTRS, END, NAME, REQUEST, START

PROBE = "probe"

census = importlib.import_module("sheffer.census")
classify_mod = importlib.import_module("sheffer.classify")
closure = importlib.import_module("sheffer.closure")
mux = importlib.import_module("sheffer.mux")
cli = importlib.import_module("sheffer.cli")
TruthTable = importlib.import_module("sheffer.bitfunc").TruthTable

#: Fields of a closure span's attributes.
C_ARITY, C_CODE, C_CONST, C_BUDGET, C_WITNESSES, C_COUNT, C_ROUNDS, C_BUILT = range(8)


def _arity(args, kwargs, result):
    return args[0].arity


def _closure(args, kwargs, result):
    gate = args[0]
    constants = args[1] if len(args) > 1 else kwargs.get("constants_enabled", False)
    built = len(result.witnesses) if result.witnesses is not None else 0
    return (gate.arity, gate.code, bool(constants), kwargs.get("budget"),
            result.witnesses is not None, result.count, result.rounds, built)


def _report_arity(args, kwargs, result):
    return args[0].generator.arity


def _found(args, kwargs, result):
    return result is not None


def _command(args, kwargs, result):
    argv = args[0] if args else kwargs.get("argv")
    return argv[0] if argv else None


def targets() -> list[tuple]:
    """(owner, attribute, span name, attribute extractor, consume) to wrap."""
    t = []
    for owner in (census, classify_mod, cli):
        t.append((owner, "classify", "classify.classify", _arity, False))
    t.append((census, "hex_fast_track", "classify.hex_fast_track", _arity, False))
    t.append((classify_mod, "hex_fast_track", "classify.hex_fast_track", _arity, False))
    for owner in (census, closure, cli):
        t.append((owner, "generate_closure", "closure.generate_closure", _closure, False))
    for owner in (closure, cli):
        t.append((owner, "synthesize", "closure.synthesize", _found, False))
    for owner in (mux, cli):
        t.append((owner, "mux_decompose", "mux.decompose", _arity, False))
    t += [
        (census, "enumerate_all", "census.enumerate_all", None, False),
        (census, "render_csv", "census.render_csv", None, False),
        (census, "diff_against_reference", "census.diff_against_reference", None, False),
        (cli, "enumerate_all", "census.enumerate_all", None, False),
        (cli, "emit_report", "census.emit_report", None, False),
        (cli, "universal_count", "census.universal_count", None, False),
        (cli, "circuit_to_json", "closure.circuit_to_json", None, False),
        (cli, "mux_to_json", "mux.to_json", None, False),
        (cli, "mux_to_dot", "mux.to_dot", None, False),
        (cli, "main", "cli.main", _command, False),
        (mux, "recompose", "mux.recompose", None, False),
        (TruthTable, "dual", "bitfunc.dual", None, False),
        (TruthTable, "cofactor", "bitfunc.cofactor", None, False),
        (TruthTable, "permute", "bitfunc.permute", None, False),
        (TruthTable, "from_hex", "bitfunc.from_hex", None, False),
        (closure.ClosureReport, "realized_codes", "closure.realized_codes", _report_arity, True),
    ]
    return t


def run_probe(rng, tracer) -> None:
    """A few seeded direct calls into every layer, traced as request PROBE."""
    tracer.request = PROBE

    def gate(n):
        return TruthTable(n, rng.getrandbits(1 << n))

    for n in range(2, 7):
        for _ in range(4):
            classify_mod.classify(gate(n))
    for n in (3, 4):
        for _ in range(4):
            classify_mod.hex_fast_track(gate(n))
    for _ in range(4):
        tt = gate(4)
        tt.dual()
        tt.cofactor(rng.randrange(4), rng.randrange(2))
        tt.permute(rng.sample(range(4), 4))
        TruthTable.from_hex(tt.to_hex(), 4)
    seen = set()
    for code in rng.sample(range(256), 64):
        report = closure.generate_closure(TruthTable(3, code), rng.random() < 0.5,
                                          witnesses=False)
        seen.add(report.count == 256)
        if len(seen) == 2:
            break
    for _ in range(2):
        closure.synthesize(gate(3), gate(3), rng.random() < 0.5)
        report = closure.generate_closure(gate(4), False, witnesses=False, budget=64)
        list(report.realized_codes())
    for n in (4, 5, 6):
        select = rng.sample(range(n), rng.randint(1, n - 2))
        mux.recompose(mux.mux_decompose(gate(n), select))
    for argv in (
        ["classify", "--gate", gate(4).to_hex(), "--json"],
        ["closure", "--gate", gate(3).to_hex(), "--json"],
        ["mux", "--gate", gate(4).to_hex(), "--select", "A", "--json"],
    ):
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(argv)
    table = census.enumerate_all(2, workers=1)
    census.render_csv(table)
    census.diff_against_reference(table, census.reference_path("n2_closure_counts.csv"))


def probe_speedup(workers: int, repeats: int = 5) -> float:
    """1-worker over `workers`-worker wall time of the 2-input census."""
    def wall(w):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            census.enumerate_all(2, workers=w)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    return wall(1) / wall(workers)


def peak_alloc_mb(spans, limit: int = 16) -> float:
    """Largest tracemalloc peak over the first `limit` closure calls, re-run.

    The calls are re-run after the traced pass, so tracemalloc's cost
    does not land in any span.  The workload's calls are used if it
    makes any, the probe's otherwise.
    """
    calls = [rec[ATTRS] for rec in spans
             if rec[NAME] == "closure.generate_closure" and rec[REQUEST] != PROBE]
    if not calls:
        calls = [rec[ATTRS] for rec in spans if rec[NAME] == "closure.generate_closure"]
    peak = 0
    tracemalloc.start()
    try:
        for a in calls[:limit]:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            closure.generate_closure(TruthTable(a[C_ARITY], a[C_CODE]), a[C_CONST],
                                     witnesses=a[C_WITNESSES], budget=a[C_BUDGET])
            peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return peak / 2**20


def _closure_kind(kind):
    if kind == "witness":
        return lambda a: a[C_WITNESSES]
    if kind == "n4":
        return lambda a: a[C_ARITY] == 4
    full = kind == "full"
    return lambda a: (not a[C_WITNESSES] and a[C_ARITY] <= 3
                      and (a[C_COUNT] == 1 << (1 << a[C_ARITY])) == full)


def _arity_is(n):
    return lambda a: a == n


#: (metric, unit, span name, attribute filter, statistic); all are lower-better.
#: "mean" and "self" are the mean duration and mean self time per span.
TIMED = (
    [
        ("bitfunc.dual_us", "us", "bitfunc.dual", None, "mean"),
        ("bitfunc.cofactor_us", "us", "bitfunc.cofactor", None, "mean"),
        ("bitfunc.permute_us", "us", "bitfunc.permute", None, "mean"),
        ("bitfunc.from_hex_us", "us", "bitfunc.from_hex", None, "mean"),
    ]
    + [(f"classify.classify_us.n{n}", "us", "classify.classify", _arity_is(n), "mean")
       for n in range(2, 7)]
    + [(f"classify.hex_fast_track_us.n{n}", "us", "classify.hex_fast_track",
        _arity_is(n), "mean") for n in (3, 4)]
    + [
        ("closure.count_mode_ms.partial", "ms", "closure.generate_closure",
         _closure_kind("partial"), "mean"),
        ("closure.count_mode_ms.full", "ms", "closure.generate_closure",
         _closure_kind("full"), "mean"),
        ("closure.witness_mode_ms", "ms", "closure.generate_closure",
         _closure_kind("witness"), "mean"),
        ("closure.n4_budget_ms", "ms", "closure.generate_closure", _closure_kind("n4"), "mean"),
        ("closure.realized_codes_ms", "ms", "closure.realized_codes", _arity_is(4), "mean"),
        ("census.enumerate_all_s", "s", "census.enumerate_all", None, "mean"),
        ("census.self_s", "s", "census.enumerate_all", None, "self"),
        ("census.render_csv_s", "s", "census.render_csv", None, "mean"),
        ("census.diff_reference_s", "s", "census.diff_against_reference", None, "mean"),
    ]
    + [(f"mux.decompose_us.n{n}", "us", "mux.decompose", _arity_is(n), "mean")
       for n in (4, 5, 6)]
    + [
        ("mux.recompose_us", "us", "mux.recompose", None, "mean"),
        ("cli.main_self_us", "us", "cli.main", None, "self"),
        ("cli.render_ms.closure", "ms", "cli.main", lambda c: c == "closure", "self"),
    ]
)

#: (metric, span name, attribute field summed, or None to count spans).
COUNTS = (
    ("classify.calls", "classify.classify", None),
    ("closure.calls", "closure.generate_closure", None),
    ("closure.rounds_total", "closure.generate_closure", C_ROUNDS),
    ("closure.realized_total", "closure.generate_closure", C_COUNT),
    ("closure.witnesses_built", "closure.generate_closure", C_BUILT),
)

#: Metrics the traced run measures outside the span table.
OTHER = (
    ("closure.witness_useful_ratio", "ratio", "higher"),
    ("closure.peak_alloc_mb", "MB", "lower"),
    ("census.parallel_speedup", "ratio", "higher"),
    ("cli.cold_import_s", "s", "lower"),
    ("cli.numpy_import_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
)

_SCALE = {"us": 1e3, "ms": 1e6, "s": 1e9}


def catalogue() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric."""
    out = [(m, unit, "lower") for m, unit, *_ in TIMED]
    out += [(m, "count", "higher" if m == "closure.realized_total" else "lower")
            for m, *_ in COUNTS]
    return out + list(OTHER)


def span_metrics(spans, self_ns) -> tuple[dict, set]:
    """Values of the TIMED and COUNTS metrics, and the names that were probed."""
    own: dict[str, list[int]] = {}
    probe: dict[str, list[int]] = {}
    for i, rec in enumerate(spans):
        (probe if rec[REQUEST] == PROBE else own).setdefault(rec[NAME], []).append(i)
    values, probed = {}, set()
    for metric, unit, name, keep, stat in TIMED:
        for source in (own, probe):
            ids = [i for i in source.get(name, ()) if keep is None or keep(spans[i][ATTRS])]
            if ids:
                break
        if not ids:
            raise RuntimeError(f"no span for {metric}")
        if source is probe:
            probed.add(metric)
        if stat == "mean":
            total = sum(spans[i][END] - spans[i][START] for i in ids)
        else:
            total = sum(self_ns[i] for i in ids)
        values[metric] = total / len(ids) / _SCALE[unit]
    for metric, name, field in COUNTS:
        ids = own.get(name, ())
        values[metric] = len(ids) if field is None else sum(spans[i][ATTRS][field] for i in ids)
    return values, probed


def useful_ratio(spans) -> tuple[float, bool]:
    """Witnesses `synthesize` returned over witnesses built, and whether probed."""
    for probed in (False, True):
        recs = [r for r in spans if (r[REQUEST] == PROBE) == probed]
        built = sum(r[ATTRS][C_BUILT] for r in recs if r[NAME] == "closure.generate_closure")
        if built:
            found = sum(1 for r in recs if r[NAME] == "closure.synthesize" and r[ATTRS])
            return found / built, probed
    raise RuntimeError("no witnesses were built")

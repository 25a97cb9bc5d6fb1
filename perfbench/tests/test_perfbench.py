"""Tests of the benchmark harness itself (run: python3 -m pytest perfbench/tests).

Workloads run at a tiny size: the request streams are cut to a few
requests, and the census workloads census the 2-input space through the
same code.  Corrupted outputs must count as failures.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402

run.import_library()

import layers  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

DATA = run.SRC / "sheffer" / "data"


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload: census at 2 inputs, streams of 3 requests."""
    real_load = run.load

    def load(name, seed, workers):
        if name.startswith("census"):
            return workloads.Census(2, seed, DATA, workers)
        wl = real_load(name, seed, workers)
        first = wl.next_pass()[:3]
        wl.next_pass = wl.trace_requests = lambda: list(first)
        wl.min_samples = 1
        return wl

    monkeypatch.setattr(run, "load", load)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(run, "OUT", BENCH / "out" / "test")


def _assert_metrics(result, expected_units):
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {m: v["unit"] for m, v in result["metrics"].items()} == expected_units
    for metric, value in result["metrics"].items():
        assert math.isfinite(value["value"]), metric


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_timed_run_emits_every_end_to_end_metric(tiny, name):
    result = run.run_one(name, 3, 0.0, trace=False)
    _assert_metrics(result, run.END_TO_END)
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_run_emits_every_layer_metric(tiny, name):
    result = run.run_one(name, 3, 0.0, trace=True)
    _assert_metrics(result, {m: u for m, u, _ in layers.catalogue()})
    assert (run.OUT / f"spans-{name}.csv").stat().st_size > 0


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        layers.catalogue()
    )


def _corrupt_row(text, row=5, column=3):
    lines = text.splitlines(keepends=True)
    cells = lines[row].split(",")
    cells[column] = "0" if cells[column] == "1" else "1"
    lines[row] = ",".join(cells)
    return "".join(lines)


def test_flipped_census_flag_is_a_failure(tiny, monkeypatch):
    real = workloads.census.render_csv
    monkeypatch.setattr(workloads.census, "render_csv", lambda t: _corrupt_row(real(t)))
    result = run.run_one("census3", 1, 0.0, trace=False)
    assert not result["correct"] and result["failed"] == result["attempted"] == 1


def test_census4_check_catches_a_flipped_flag():
    wl = workloads.Census(4, 1, DATA, 1)
    wl.prepare_checks()
    assert wl.check(4, (wl.expected, [])) == []
    column = oracle.CENSUS_HEADER.split(",").index("universal_alone")
    problems = wl.check(4, (_corrupt_row(wl.expected, 100, column), []))
    assert any("line 101" in p for p in problems)
    assert any("universal rows" in p for p in problems)


def test_reported_divergence_is_a_failure():
    wl = workloads.Census(2, 1, DATA, 1)
    wl.prepare_checks()
    assert wl.check(2, (wl.expected, ["code 7: closure_plain"])) != []


def test_wrong_synth_circuit_is_a_failure(tiny, monkeypatch):
    real = workloads.closure.synthesize

    def wrong(gate, target, constants=False):
        # A circuit for the complement of the target, or one that exists.
        other = workloads.TruthTable(3, target.code ^ 0xFF)
        return real(gate, other, constants) or real(gate, gate, constants)

    monkeypatch.setattr(workloads.closure, "synthesize", wrong)
    result = run.run_one("synth3", 2, 0.0, trace=False)
    assert not result["correct"] and result["failed"] >= 1


def test_false_none_from_synth_is_a_failure():
    wl = workloads.Synth3(1, DATA)
    # NAND generates everything, so no target may come back unrealizable.
    assert wl.check((0x7F, False, 0x96), None) != []
    assert wl.check((0x00, False, 0x96), None) == []


def test_exception_in_library_is_counted_not_raised(tiny, monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(workloads.closure, "synthesize", boom)
    result = run.run_one("synth3", 2, 0.0, trace=False)
    assert result["failed"] == result["attempted"] == 3


def test_wrong_cli_verdict_is_a_failure():
    wl = workloads.Queries(1, DATA)
    argv = ["classify", "--gate", "E8", "--json"]
    code, out, err = wl.execute(argv)
    assert wl.check(argv, (code, out, err)) == []
    envelope = json.loads(out)
    envelope["result"]["monotone"] = not envelope["result"]["monotone"]
    assert wl.check(argv, (0, json.dumps(envelope), "")) != []
    assert wl.check(argv, (1, out, "error: x")) != []
    assert wl.check(argv, (0, "not json", "")) != []


def test_closure_check_rejects_an_unclosed_set():
    wl = workloads.Queries(1, DATA)
    argv = ["closure", "--gate", "E8", "--json"]
    code, out, err = wl.execute(argv)
    assert wl.check(argv, (code, out, err)) == []
    envelope = json.loads(out)
    envelope["result"]["realized"] = ["96"]
    assert wl.check(argv, (0, json.dumps(envelope), "")) != []


def test_eval_circuit_rejects_forward_references():
    with pytest.raises(ValueError):
        oracle.eval_circuit((("input", 0), ("apply", (0, 2, 1))), 1, 0x7F, 3, False)


def test_self_time_subtracts_children():
    t = tracing.Tracer()
    inner = t.wrap("inner", lambda: None)

    def outer():
        inner()
        inner()

    t.wrap("outer", outer)()
    own = tracing.self_times(t.spans)
    spans = t.spans
    assert [s[tracing.NAME] for s in spans] == ["outer", "inner", "inner"]
    assert spans[1][tracing.PARENT] == spans[2][tracing.PARENT] == 0
    children = sum(s[tracing.END] - s[tracing.START] for s in spans[1:])
    assert own[0] == spans[0][tracing.END] - spans[0][tracing.START] - children


def test_tracer_restores_bindings():
    original = workloads.TruthTable.__dict__["from_hex"]
    with tracing.Tracer().installed(layers.targets()):
        assert workloads.TruthTable.__dict__["from_hex"] is not original
        assert workloads.TruthTable.from_hex("7", 2).code == 7
    assert workloads.TruthTable.__dict__["from_hex"] is original


def test_fails_without_the_library(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "queries", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout

import hashlib
import json
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

import sheffer
import sheffer.cli as cli
import sheffer.closure as closure_mod
from sheffer.cli import main
from test_census import CENSUS_DIGESTS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_text(capsys):
    code, out, err = run(capsys, "classify", "--gate", "2B", "--arity", "3")
    assert code == 0 and err == ""
    assert "self_dual                 yes" in out
    assert "universal alone           no" in out
    assert "universal with constants  yes" in out


def test_classify_infers_arity(capsys):
    code, out, _ = run(capsys, "classify", "--gate", "2B")
    assert code == 0
    assert "3 inputs" in out


def test_classify_json_envelope(capsys):
    code, out, _ = run(capsys, "classify", "--gate", "2B", "--arity", "3", "--json")
    assert code == 0
    data = json.loads(out)
    assert list(data) == ["command", "input", "result"]
    assert data["command"] == "classify"
    assert data["result"]["selfdual"] is True
    assert data["result"]["universal_alone"] is False


def test_count(capsys):
    code, out, _ = run(capsys, "count", "--n", "4")
    assert code == 0
    assert "U=16256" in out


def test_count_series(capsys):
    code, out, _ = run(capsys, "count", "--max-n", "5")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,universal,total,ratio"
    assert lines[2].startswith("3,56,256,0.218750")


@pytest.mark.parametrize(
    "argv",
    [["--n", "14"], ["--n", "15"], ["--n", "16"], ["--n", "16", "--json"], ["--max-n", "16"]],
)
def test_count_beyond_int_digit_limit(capsys, argv):
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out, err = run(capsys, "count", *argv)
    assert code == 0 and err == ""
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    if "--json" in argv:
        # Decimal parses the 19,729-digit value without int's digit limit.
        data = json.loads(out, parse_int=Decimal)
        assert data["result"]["gate_count"] == 1 << 65536


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="interpreter has no int digit limit")
def test_count_argv_keeps_int_digit_limit(capsys):
    code, _, err = run(capsys, "count", "--n", "1" * (sys.get_int_max_str_digits() + 1))
    assert code == 1
    assert err.startswith("error:")


def test_count_needs_n(capsys):
    code, out, err = run(capsys, "count")
    assert code == 1
    assert err.strip().count("\n") == 0 and "error" in err


@pytest.mark.parametrize("max_n", ["1", "0", "-3", "17"])
def test_count_series_out_of_range(capsys, max_n):
    code, out, err = run(capsys, "count", "--max-n", max_n)
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "--max-n" in err


def test_count_rejects_n_with_max_n(capsys):
    code, out, err = run(capsys, "count", "--n", "2", "--max-n", "3")
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_count_series_json_envelope(capsys):
    code, out, err = run(capsys, "count", "--max-n", "4", "--json")
    assert code == 0 and err == ""
    data = json.loads(out)
    assert list(data) == ["command", "input", "result"]
    assert data["command"] == "count" and data["input"] == {"max_n": 4}
    singles = []
    for n in (2, 3, 4):
        _, single, _ = run(capsys, "count", "--n", str(n), "--json")
        singles.append(json.loads(single)["result"])
    assert data["result"] == singles


def test_count_series_json_beyond_int_digit_limit(capsys):
    code, out, err = run(capsys, "count", "--max-n", "16", "--json")
    assert code == 0 and err == ""
    result = json.loads(out, parse_int=Decimal)["result"]
    assert [item["n"] for item in result] == list(range(2, 17))
    assert result[-1]["gate_count"] == 1 << 65536


def test_mux(capsys):
    code, out, _ = run(capsys, "mux", "--gate", "4685", "--select", "A,B")
    assert code == 0
    for line in ("leaf 00 -> 5", "leaf 01 -> 8", "leaf 10 -> 6", "leaf 11 -> 4"):
        assert line in out


def test_mux_select_d_reports_reordering(capsys):
    code, out, _ = run(capsys, "mux", "--gate", "4685", "--select", "D", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["result"]["reordered"] == "18A3"
    assert data["result"]["leaves"] == ["A3", "18"]


def test_mux_dot_file(tmp_path, capsys):
    dot = tmp_path / "mux.dot"
    code, _, _ = run(capsys, "mux", "--gate", "46", "--select", "A", "--dot", str(dot))
    assert code == 0
    assert dot.read_text().startswith("digraph")


def test_closure(capsys):
    code, out, _ = run(capsys, "closure", "--gate", "7")
    assert code == 0
    assert "realized 16 function(s)" in out


def test_closure_constants(capsys):
    code, out, _ = run(capsys, "closure", "--gate", "A8", "--constants", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["result"]["count"] == 20


def test_closure_four_inputs_needs_budget(capsys):
    code, out, err = run(capsys, "closure", "--gate", "4685")
    assert code == 2
    assert "budget" in err


@pytest.mark.parametrize("text", ["7", "2B", "4685"])
def test_closure_nonpositive_budget_is_a_usage_error(capsys, text):
    code, out, err = run(capsys, "closure", "--gate", text, "--budget", "0")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "budget" in err


def test_closure_four_inputs_with_budget(capsys):
    code, out, _ = run(capsys, "closure", "--gate", "4685", "--budget", "16", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["result"]["complete"] is False


def test_closure_names_what_stopped_it(capsys, monkeypatch):
    code, out, _ = run(capsys, "closure", "--gate", "2B", "--budget", "4")
    assert code == 0
    assert "(lower bound; budget exhausted)" in out
    monkeypatch.setattr(closure_mod, "_MAX_TRAILING", 100)
    code, out, _ = run(capsys, "closure", "--gate", "2B")
    assert code == 0
    assert "(lower bound; sweep-size cap reached)" in out and "budget" not in out
    code, out, _ = run(capsys, "closure", "--gate", "2B", "--json")
    result = json.loads(out)["result"]
    assert result["complete"] is False
    assert sorted(result) == ["complete", "count", "realized", "rounds"]


def test_synth_witness(capsys):
    code, out, _ = run(capsys, "synth", "--gate", "7", "--target", "6", "--json")
    assert code == 0
    data = json.loads(out)
    circuit = data["result"]["circuit"]
    assert data["result"]["realizable"] is True
    assert sum(1 for n in circuit["nodes"] if n["op"] == "apply") == 4


def test_synth_unrealizable(capsys):
    code, out, _ = run(capsys, "synth", "--gate", "8", "--target", "6")
    assert code == 0
    assert "not realizable" in out


def test_census_stdout(capsys):
    code, out, _ = run(capsys, "census", "--n", "2")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("code,t0,t1,")
    assert len(lines) == 17


def test_census_out_file(tmp_path, capsys):
    path = tmp_path / "n2.csv"
    code, out, _ = run(capsys, "census", "--n", "2", "--out", str(path))
    assert code == 0
    first = path.read_text()
    run(capsys, "census", "--n", "2", "--out", str(path))
    assert path.read_text() == first  # byte-identical rerun


def test_census_json(capsys):
    code, out, _ = run(capsys, "census", "--n", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)["arity"] == 2


def test_census_json_is_the_census_document(capsys):
    # The census writes its own JSON document, not the command envelope,
    # and takes no --json flag.
    code, out, _ = run(capsys, "census", "--n", "2", "--format", "json")
    assert code == 0
    assert list(json.loads(out)) == ["arity", "rows"]
    code, out, err = run(capsys, "census", "--n", "2", "--json")
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_census4_output_is_pinned(tmp_path, capsys, fmt):
    digest = CENSUS_DIGESTS[4][("csv", "json").index(fmt)]
    argv = ["census", "--n", "4"] + (["--format", fmt] if fmt == "json" else [])
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    path = tmp_path / f"census4.{fmt}"
    code, out, err = run(capsys, *argv, "--out", str(path))
    assert (code, out, err) == (0, "", "")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_usage_errors_exit_one(capsys):
    code, _, err = run(capsys, "classify", "--gate", "ZZ", "--arity", "3")
    assert code == 1 and "error" in err
    code, _, err = run(capsys, "classify", "--gate", "123")
    assert code == 1 and "arity" in err
    code, _, err = run(capsys, "classify", "--gate", "2B", "--arity", "2")
    assert code == 1  # digit count inconsistent with the stated arity
    code, _, err = run(capsys, "mux", "--gate", "85", "--select", "Q")
    assert code == 1
    for select in ("\u0663", "\u00b2", "\u00df"):  # Arabic-Indic 3, superscript 2, sharp s
        code, _, err = run(capsys, "mux", "--gate", "4685", "--select", select)
        assert code == 1 and "bad select variable" in err
    code, _, err = run(capsys, "census", "--n", "9")
    assert code == 1


def test_reruns_byte_identical(capsys):
    _, first, _ = run(capsys, "classify", "--gate", "E8", "--json")
    _, second, _ = run(capsys, "classify", "--gate", "E8", "--json")
    assert first == second
    # One parser serves every call; a usage error, --help or another
    # command leaves nothing behind for the next call to read.
    assert cli.build_parser() is cli.build_parser()
    code, out, err = run(capsys, "count", "--n", "x")
    assert code == 1 and out == "" and err.startswith("error:")
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: sheffer")
    code, out, _ = run(capsys, "closure", "--gate", "E8", "--constants")
    assert code == 0 and "constants on" in out
    code, last, err = run(capsys, "classify", "--gate", "E8", "--json")
    assert code == 0 and err == "" and last == first


def test_cli_imports_numpy_lazily():
    # A classify call needs no array code at any arity, though the one
    # Post-class evaluator also serves columns; numpy loads with the first
    # closure or column build.
    gates = ["7", "E8", "4685", "6996FEE8", "6996966996696996"]  # N = 2..6
    code = ("import sys, sheffer, sheffer.cli\n"
            "from sheffer.cli import main\n"
            f"for gate in {gates!r}:\n"
            "    assert main(['classify', '--gate', gate]) == 0\n"
            "print('numpy' in sys.modules)")
    src = str(Path(sheffer.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True).stdout
    assert out.splitlines()[-1] == "False"

import csv
import hashlib
import io
import json
import os
import pickle
import subprocess
import sys
import zipfile
from fractions import Fraction
from pathlib import Path

import pytest

import sheffer.census as census_mod
import sheffer.clones as clones_mod
import sheffer.closure as closure_mod
from sheffer.bitfunc import TruthTable
from sheffer.census import (
    CSV_FIELDS,
    CSV_HEADER,
    REFERENCE_FILES,
    CensusRow,
    Divergence,
    diff_against_reference,
    emit_report,
    enumerate_all,
    reference_path,
    render_csv,
    render_json,
    universal_count,
    universal_ratio,
)
from sheffer.classify import classify, hex_fast_track


@pytest.fixture(scope="module")
def census2():
    return enumerate_all(2, workers=1)


def test_universal_count_values():
    assert universal_count(2).universal == 2
    assert universal_count(3).universal == 56
    assert universal_count(4).universal == 16256
    assert universal_count(3).gate_count == 256


def test_universal_count_structure():
    for n in range(2, 17):
        r = universal_count(n)
        quarter = r.gate_count // 4
        sq = 1 << ((r.input_combinations - 2) // 2)
        assert sq * sq == quarter  # the square root is integral
        assert r.universal == quarter - sq
        assert r.ratio == Fraction(r.universal, r.gate_count)


def test_universal_count_range():
    with pytest.raises(ValueError):
        universal_count(1)
    with pytest.raises(ValueError):
        universal_count(17)


def test_ratio_values():
    assert universal_ratio(2) == Fraction(1, 8)
    assert universal_ratio(3) == Fraction(56, 256)
    assert universal_count(3).ratio_decimal == "0.218750"
    assert universal_count(2).ratio_decimal == "0.125000"


def test_ratio_monotone_up():
    ratios = [universal_ratio(n) for n in range(2, 9)]
    assert all(a < b for a, b in zip(ratios, ratios[1:]))
    assert all(r < Fraction(1, 4) for r in ratios)


def test_census2_universal_sets(census2):
    alone = {row.code for row in census2.rows if row.universal_alone}
    with_const = {row.code for row in census2.rows if row.universal_with_constants}
    assert alone == {0x1, 0x7}
    assert with_const == {0x1, 0x2, 0x4, 0x7, 0xB, 0xD}
    assert len(census2.rows) == 16


def test_census2_matches_reference(census2):
    divergences = diff_against_reference(census2, reference_path("n2_closure_counts.csv"))
    assert divergences == []


def test_census2_universal_gates_odd_and_first_half(census2):
    for row in census2.rows:
        if row.universal_alone:
            assert row.code % 2 == 1
            assert row.code < 8


def test_csv_shape_and_determinism(census2):
    text = render_csv(census2)
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 17
    assert render_csv(census2) == text
    # fast_track is undefined below three inputs
    assert lines[1].endswith(",")


def test_emit_to_path(tmp_path, census2):
    out = tmp_path / "census2.csv"
    text = emit_report(census2, "csv", out)
    assert out.read_text() == text


def test_emit_to_stream(census2):
    buf = io.StringIO()
    emit_report(census2, "json", buf)
    import json

    data = json.loads(buf.getvalue())
    assert data["arity"] == 2
    assert len(data["rows"]) == 16
    assert data["rows"][7]["universal_alone"] is True


def test_emit_bad_format(census2):
    with pytest.raises(ValueError):
        emit_report(census2, "xml")


def test_emit_io_error(census2, tmp_path):
    bad = tmp_path / "missing" / "census.csv"
    with pytest.raises(OSError, match="census"):
        emit_report(census2, "csv", bad)


def test_workers_do_not_change_output(census2):
    parallel = enumerate_all(2, workers=2)
    assert render_csv(parallel) == render_csv(census2)


def test_process_pool_does_not_change_output():
    # The census is serial; `workers` is still accepted and has no effect.
    assert render_csv(enumerate_all(3, workers=2)) == render_csv(enumerate_all(3, workers=1))


def test_rows_survive_pickling(census3):
    # Rows pickle through the slotted dataclasses' default state hooks.
    rows = census3.rows
    assert pickle.loads(pickle.dumps(rows)) == rows


def test_diff_detects_corruption(census2):
    reference = io.StringIO("code,closure_plain\n8,3\n9,17\n")
    divergences = diff_against_reference(census2, reference)
    assert len(divergences) == 1
    d = divergences[0]
    assert (d.code, d.field, d.reference, d.computed) == (9, "closure_plain", "17", "4")
    assert "closure_plain" in str(d)


def test_diff_rejects_malformed(census2, census3):
    with pytest.raises(ValueError):
        diff_against_reference(census2, io.StringIO("closure_plain\n3\n"))
    with pytest.raises(ValueError):
        diff_against_reference(census2, io.StringIO("code,mystery\n8,1\n"))
    with pytest.raises(ValueError):
        diff_against_reference(census2, io.StringIO("code,closure_plain\nZZ,3\n"))
    with pytest.raises(ValueError):
        diff_against_reference(census2, io.StringIO("code,closure_plain\n4685,3\n"))
    # A repeated column would compare only its last cell, once per name.
    for text in ("code,t0,t0\n0,0,1\n", "code,t0,t0\n0,1,0\n"):
        with pytest.raises(ValueError, match=r"repeats columns \['t0'\]"):
            diff_against_reference(census2, io.StringIO(text))
    # DictReader would file a row's extra cells under None, unchecked.
    with pytest.raises(ValueError, match="row '0' has more cells than columns"):
        diff_against_reference(census2, io.StringIO("code,t0\n0,1,1\n"))
    # Only hex digits make a code: no prefix, sign or digit separator.
    for cell in ("0x1F", "+1F", "1_F", "-0"):
        with pytest.raises(ValueError, match="bad code"):
            diff_against_reference(census3, io.StringIO(f"code,closure_plain\n{cell},3\n"))
    lower = diff_against_reference(census3, io.StringIO("code,closure_plain\n1f,3\n"))
    assert [d.code for d in lower] == [0x1F]


def test_census_arity_validation():
    with pytest.raises(ValueError):
        enumerate_all(5)
    with pytest.raises(ValueError):
        enumerate_all(1)


def test_reference_partition():
    # the three 3-input membership references cover all 256 codes exactly once
    import csv

    def codes(name):
        with open(reference_path(name)) as fh:
            return {int(row["code"], 16) for row in csv.DictReader(fh)}

    alone = codes("n3_universal_alone.csv")
    extra = codes("n3_extra_universal_with_constants.csv")
    non = codes("n3_nonuniversal_with_constants.csv")
    assert len(alone) == 56 and len(extra) == 169 and len(non) == 31
    assert alone | extra | non == set(range(256))
    assert not (alone & extra) and not (alone & non) and not (extra & non)


def test_reference_files_diff_clean_from_a_zipped_package(tmp_path):
    # Imported from a zip, the data files are zip members, not files on disk.
    package = Path(census_mod.__file__).parent
    archive = tmp_path / "sheffer.zip"
    with zipfile.ZipFile(archive, "w") as zf:
        for path in package.rglob("*"):
            if path.is_file() and "__pycache__" not in path.parts:
                zf.write(path, Path("sheffer", path.relative_to(package)))
    code = ("import sheffer\n"
            "from sheffer.census import REFERENCE_FILES, diff_against_reference, enumerate_all, "
            "reference_path\n"
            f"assert sheffer.__file__.startswith({str(archive)!r}), sheffer.__file__\n"
            "tables = {n: enumerate_all(n) for n in (2, 3)}\n"
            "for name in REFERENCE_FILES:  # each file is named n<arity>_...\n"
            "    assert diff_against_reference(tables[int(name[1])], reference_path(name)) == [], name\n"
            "print(len(REFERENCE_FILES))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(archive)})
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == [str(len(REFERENCE_FILES))]


def test_reference_path_unknown():
    with pytest.raises(ValueError):
        reference_path("nope.csv")


def test_render_json_deterministic(census2):
    assert render_json(census2) == render_json(census2)


def _csv_cell(field, value):
    if value is None:
        return ""
    if field == "fast_track":
        return "confirmed" if value else "inconclusive"
    if isinstance(value, bool):
        return "1" if value else "0"
    return str(value)


def test_render_json_mirrors_csv(census3):
    data = json.loads(render_json(census3))
    assert data["arity"] == 3
    lines = render_csv(census3).splitlines()
    assert len(data["rows"]) == len(lines) - 1 == 256
    for row, line in zip(data["rows"], lines[1:]):
        assert list(row) == list(CSV_FIELDS)
        cells = line.split(",")
        assert [_csv_cell(f, v) for f, v in row.items()] == cells


#: sha256 of the CSV and JSON renderings of each census, pinned before the
#: census was built from membership columns.
CENSUS_DIGESTS = {
    2: ("208bc90f6b38ced96e12e1f10cec2b3362de96dd0f47c04e6a791c9c8c6112f1",
        "1519547c2e539e16e12b3d6e4efc92e98ee48ea91461ad9f27c331c4aa6e7681"),
    3: ("80bd5e19ca0a5c62a411718a45137754163a52c1f914c7538ea8e6cf2e171189",
        "dfa3e2f4e3311d7c6bec677a80d76c7484f2226f8b9cfbdeef8c6a50e81ece8a"),
    4: ("063d36ff3483e54d16d505c6671a6b33fb3345d57d348968a09791336b493ff4",
        "d16bfcb06b4d760edb1a324ba2882df22493498dd6de851194203e3f2ae2eae2"),
}


@pytest.fixture(scope="module")
def census4():
    return enumerate_all(4)


@pytest.mark.parametrize("arity", [2, 3, 4])
def test_renderings_are_pinned(request, arity):
    table = request.getfixturevalue(f"census{arity}")
    digests = tuple(hashlib.sha256(render(table).encode()).hexdigest()
                    for render in (render_csv, render_json))
    assert digests == CENSUS_DIGESTS[arity]


#: Each CSV field and the `CensusRow` attribute it shows, written out here
#: so that the rendering oracle below uses no census helper.
ORACLE_FIELDS = {
    "code": "code", "t0": "preserves_zero", "t1": "preserves_one",
    "selfdual": "self_dual", "monotone": "monotone", "affine": "affine",
    "universal_alone": "universal_alone",
    "universal_with_constants": "universal_with_constants",
    "closure_plain": "closure_plain", "closure_const": "closure_const",
    "fast_track": "fast_track",
}


def _oracle_rows(table):
    """Each row of `table.rows` as a dict of plain values keyed by CSV field."""
    width = max(1, 2 ** table.arity // 4)
    for row in table.rows:
        values = {field: getattr(row, attr) for field, attr in ORACLE_FIELDS.items()}
        values["code"] = f"{row.code:0{width}X}"
        yield values


@pytest.mark.parametrize("arity", [2, 3, 4])
def test_renderings_match_independent_oracle(request, arity):
    table = request.getfixturevalue(f"census{arity}")
    rows = list(_oracle_rows(table))
    assert render_json(table) == json.dumps({"arity": arity, "rows": rows}, indent=2) + "\n"
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(ORACLE_FIELDS)
    writer.writerows([_csv_cell(f, v) for f, v in values.items()] for values in rows)
    assert render_csv(table) == expected.getvalue()


#: Flag columns no checked-in reference names, and each cell's flipped text.
REFERENCE_FLAGS = ("t0", "selfdual", "affine", "fast_track")
FLIPPED = {"0": "1", "1": "0", "confirmed": "inconclusive", "inconclusive": "confirmed"}


@pytest.mark.parametrize("field", REFERENCE_FLAGS)
def test_diff_reads_flag_columns_by_csv_name(census3, field):
    cells = [[row["code"], *(_csv_cell(f, row[f]) for f in REFERENCE_FLAGS)]
             for row in _oracle_rows(census3)]

    def diff(cells):
        lines = [",".join(("code", *REFERENCE_FLAGS)), *map(",".join, cells)]
        return diff_against_reference(census3, io.StringIO("\n".join(lines) + "\n"))

    assert diff(cells) == []
    row = cells[0x2B]
    column = REFERENCE_FLAGS.index(field) + 1
    computed = row[column]
    row[column] = FLIPPED[computed]
    assert diff(cells) == [Divergence(0x2B, field, row[column], computed)]


def test_diff_reads_an_omitted_closure_column_as_empty(census4):
    assert census4.closure_plain is None
    reference = "code,closure_plain\n0000,\n4685,\nFFFF,\n"
    assert diff_against_reference(census4, io.StringIO(reference)) == []
    divergences = diff_against_reference(census4, io.StringIO("code,closure_plain\n4685,3\n"))
    assert divergences == [Divergence(0x4685, "closure_plain", "3", "")]


@pytest.mark.parametrize("arity", [2, 3, 4])
def test_rows_match_scalar_classify(request, arity):
    table = request.getfixturevalue(f"census{arity}")
    expected = []
    for code, row in enumerate(table.rows):
        tt = TruthTable(arity, code)
        flags = classify(tt)
        expected.append(CensusRow(
            *(getattr(flags, name) for name in flags.__match_args__),
            closure_plain=row.closure_plain,
            closure_const=row.closure_const,
            fast_track=hex_fast_track(tt) if arity >= 3 else None,
        ))
    assert table.rows == tuple(expected)


def test_census_builds_no_per_gate_tables(monkeypatch):
    built = []
    monkeypatch.setattr(TruthTable, "__post_init__", lambda self: built.append(self))
    table = enumerate_all(4)
    render_csv(table)
    render_json(table)
    assert built == []


def test_tables_compare_and_pickle_by_columns(census2):
    twin = enumerate_all(2)
    assert twin == census2
    assert pickle.loads(pickle.dumps(census2)) == census2
    # A built row cache does not enter the comparison.
    assert len(census2.rows) == 16
    assert twin == census2


@pytest.mark.parametrize("arity", [2, 3])
def test_census_closure_columns_run_no_closure(monkeypatch, arity):
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        raise AssertionError("the census ran a closure")

    monkeypatch.setattr(census_mod, "generate_closure", spy)
    monkeypatch.setattr(closure_mod, "generate_closure", spy)
    table = enumerate_all(arity)
    assert calls == []
    assert table.closure_plain[0] == table.closure_const[0] == 1


def test_census4_builds_no_clone_column(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("the N=4 census built a clone column")

    monkeypatch.setattr(clones_mod, "clone_columns", fail)
    monkeypatch.setattr(census_mod, "closure_counts", fail)
    table = enumerate_all(4)
    assert table.closure_plain is None and table.closure_const is None

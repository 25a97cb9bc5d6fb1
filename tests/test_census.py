import io
import itertools
import json
import pickle
from fractions import Fraction

import pytest

from sheffer.bitfunc import TruthTable
from sheffer.census import (
    CSV_FIELDS,
    CSV_HEADER,
    class_keys,
    diff_against_reference,
    emit_report,
    enumerate_all,
    reference_path,
    render_csv,
    render_json,
    universal_count,
    universal_ratio,
)


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


@pytest.mark.parametrize("arity,classes", [(2, 7), (3, 46)])
def test_class_keys_are_orbit_minima(arity, classes):
    keys = class_keys(arity)
    assert len(keys) == 1 << (1 << arity)
    assert len(set(keys)) == classes
    for code, key in enumerate(keys):
        gate = TruthTable(arity, code)
        images = set()
        for perm in itertools.permutations(range(arity)):
            image = gate.permute(perm)
            images |= {image.code, image.dual().code}
        assert key == min(images)
        assert {keys[c] for c in images} == {key}


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


def test_diff_rejects_malformed(census2):
    with pytest.raises(ValueError):
        diff_against_reference(census2, io.StringIO("closure_plain\n3\n"))
    with pytest.raises(ValueError):
        diff_against_reference(census2, io.StringIO("code,mystery\n8,1\n"))
    with pytest.raises(ValueError):
        diff_against_reference(census2, io.StringIO("code,closure_plain\nZZ,3\n"))
    with pytest.raises(ValueError):
        diff_against_reference(census2, io.StringIO("code,closure_plain\n4685,3\n"))


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

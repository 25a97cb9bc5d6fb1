"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The heavy fixtures (whole-arity censuses and closure reports) are
computed once per session; the witness closures live in conftest.py,
which shares them with the targeted-synthesis tests.
"""
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from sheffer.bitfunc import TruthTable
from sheffer.census import (
    diff_against_reference,
    enumerate_all,
    reference_path,
    universal_count,
    universal_ratio,
)
from sheffer.classify import (
    classify,
    hex_fast_track,
    universal_alone,
    universal_with_constants,
    universality_scan,
)
from sheffer.closure import generate_closure, verify_circuit


def report_line(criterion, ok, detail):
    print(f"ACCEPTANCE criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="session")
def census2():
    return enumerate_all(2)


@pytest.fixture(scope="session")
def census4():
    return enumerate_all(4)


@pytest.fixture(scope="session")
def reports3():
    out = {}
    for code in range(256):
        tt = TruthTable(3, code)
        for constants in (False, True):
            out[(code, constants)] = generate_closure(
                tt, constants, witnesses=False
            )
    return out


def test_criterion_1_counting_formula():
    values = {n: universal_count(n).universal for n in (2, 3, 4)}
    ok = values == {2: 2, 3: 56, 4: 16256}
    report_line(1, ok, f"closed-form universal counts {values}")


def test_criterion_2_two_input_closure_counts(census2):
    divergences = diff_against_reference(
        census2, reference_path("n2_closure_counts.csv")
    )
    report_line(2, not divergences,
                f"2-input census vs reference: {len(divergences)} divergence(s)")


def test_criterion_3_three_input_universal_list(census3):
    divergences = diff_against_reference(
        census3, reference_path("n3_universal_alone.csv")
    )
    computed = sum(1 for row in census3.rows if row.universal_alone)
    ok = not divergences and computed == 56
    report_line(3, ok,
                f"universal-alone list: {computed} gates, "
                f"{len(divergences)} divergence(s)")


def test_criterion_4_three_input_closure_counts(census3):
    divergences = diff_against_reference(
        census3, reference_path("n3_closure_counts.csv")
    )
    # Any divergence would have to be witness-backed and documented; the
    # computed oracle reproduces the reference exactly, so none are.
    report_line(4, not divergences,
                f"3-input closure counts vs reference: "
                f"{len(divergences)} divergence(s)")


def test_criterion_5_with_constants_census(census3):
    divergences = diff_against_reference(
        census3, reference_path("n3_nonuniversal_with_constants.csv")
    )
    divergences += diff_against_reference(
        census3, reference_path("n3_extra_universal_with_constants.csv")
    )
    non_universal = [r for r in census3.rows if not r.universal_with_constants]
    universal = [r for r in census3.rows if r.universal_with_constants]
    extra = [r for r in universal if not r.universal_alone]
    spot = {r.code: r.closure_const for r in census3.rows}
    ok = (
        not divergences
        and len(non_universal) == 31
        and len(universal) == 225
        and len(extra) == 169
        and spot[0xA8] == 20
        and spot[0xAA] == 5
        and spot[0xE8] == 20
    )
    report_line(5, ok,
                f"with constants: {len(universal)} universal / "
                f"{len(non_universal)} non-universal, "
                f"{len(divergences)} divergence(s)")


def test_criterion_6_oracle_predicate_equivalence(reports2, reports3):
    # The census takes complete gates' closure columns from these verdicts,
    # so the verdicts are checked against the per-gate enumerator instead.
    ok = True
    for arity, reports in ((2, reports2), (3, reports3)):
        full = 1 << (1 << arity)
        for code in range(full):
            tt = TruthTable(arity, code)
            ok = ok and (reports[(code, False)].count == full) == universal_alone(tt)
            ok = ok and (reports[(code, True)].count == full) == universal_with_constants(tt)
    scanned = 0
    for code in range(1 << 16):
        tt = TruthTable(4, code)
        if universality_scan(tt) != universal_alone(tt):
            ok = False
            break
        scanned += 1
    report_line(6, ok,
                f"verdicts match exhaustive closures at N=2,3; "
                f"scan agrees on {scanned} 4-input codes")


def test_class_cached_closure_counts_match_per_gate(census2, census3, reports2, reports3):
    # The census computes closures once per permutation/duality class;
    # the reports ran the enumerator on every gate.
    for census, reports in ((census2, reports2), (census3, reports3)):
        for row in census.rows:
            assert row.closure_plain == reports[(row.code, False)].count, row.gate
            assert row.closure_const == reports[(row.code, True)].count, row.gate
    report_line("class cache", True,
                "census closure counts equal per-gate closures for all 272 gates")


def _projection_code(n, var):
    return sum(1 << r for r in range(1 << n) if (r >> (n - 1 - var)) & 1)


def _applications_stay_realized(report):
    # Exact closedness: every gate application over the seeds and the
    # realized codes must be realized.  The gate is evaluated bit-sliced as
    # a sum of minterms over all argument tuples at once, independently of
    # the library's composition kernel.
    gate = report.generator
    n, m = gate.arity, gate.n_rows
    rowmask = (1 << m) - 1
    if report.count == rowmask + 1:
        return True  # every code is realized
    seeds = {_projection_code(n, k) for k in range(n)}
    if report.constants_enabled:
        seeds |= {0, rowmask}
    codes = np.array(sorted(seeds | set(report.realized_codes())), dtype=np.uint16)
    axes = [codes.reshape([-1 if j == k else 1 for j in range(n)]) for k in range(n)]
    out = 0
    for minterm in range(m):
        if (gate.code >> minterm) & 1:
            term = rowmask
            for k, a in enumerate(axes):
                term = term & (a if (minterm >> (n - 1 - k)) & 1 else rowmask ^ a)
            out = out | term
    realized = np.zeros(rowmask + 1, dtype=bool)
    realized[list(report.realized_codes())] = True
    return bool(realized[out].all())


def _circuit_code(circuit, gate, cache):
    # Row-by-row evaluation straight from the gate's table; `cache` maps
    # child codes to the application's code, shared across one report.
    n, m = gate.arity, gate.n_rows
    codes = []
    for node in circuit.nodes:
        if node[0] == "input":
            codes.append(_projection_code(n, node[1]))
        elif node[0] == "const":
            codes.append(((1 << m) - 1) if node[1] else 0)
        else:
            key = tuple(codes[c] for c in node[1])
            if key not in cache:
                code = 0
                for r in range(m):
                    idx = 0
                    for child in key:
                        idx = (idx << 1) | ((child >> r) & 1)
                    code |= ((gate.code >> idx) & 1) << r
                cache[key] = code
            codes.append(cache[key])
    return codes[circuit.root]


def _witnesses_verify(report):
    cache = {}
    return all(
        _circuit_code(circuit, report.generator, cache) == target
        for target, circuit in report.witnesses.items()
    )


def test_criterion_7_fixed_point_and_witnesses(reports2, reports3, witness_reports):
    checked = 0
    ok = True
    for report in itertools.chain(
        reports2.values(), reports3.values(), witness_reports.values()
    ):
        ok = ok and _applications_stay_realized(report)
        checked += 1
    verified = 0
    for report in itertools.chain(reports2.values(), witness_reports.values()):
        ok = ok and _witnesses_verify(report)
        verified += len(report.witnesses)
    report_line(7, ok,
                f"{checked} reports closed under every gate application over "
                f"seeds and realized codes; {verified} stored witnesses re-evaluate")


def test_criterion_8_fast_track_counts(census3, census4):
    n3 = sum(1 for row in census3.rows if row.fast_track)
    n4 = sum(1 for row in census4.rows if row.fast_track)
    false_pos = sum(
        1
        for row in itertools.chain(census3.rows, census4.rows)
        if row.fast_track and not row.universal_with_constants
    )
    rng = random.Random(88)
    sampled_ok = True
    for _ in range(100_000):
        code = rng.randrange(1 << 16)
        tt = TruthTable(4, code)
        if hex_fast_track(tt) and not universal_with_constants(tt):
            sampled_ok = False
            break
    ok = n3 == 156 and n4 == 64575 and false_pos == 0 and sampled_ok
    report_line(8, ok,
                f"fast track confirms {n3} at N=3 and {n4} at N=4 "
                f"with {false_pos} false positives")


def test_criterion_9_structural_identities(census2, census3, census4):
    ok = True
    details = []
    for table, n in ((census2, 2), (census3, 3), (census4, 4)):
        self_dual_free = sum(
            1
            for row in table.rows
            if row.self_dual and not row.preserves_zero and not row.preserves_one
        )
        expected = 1 << (((1 << n) - 2) // 2)
        details.append(f"N={n}:{self_dual_free}")
        ok = ok and self_dual_free == expected
        alone = sum(1 for row in table.rows if row.universal_alone)
        ok = ok and alone == universal_count(n).universal
        half = 1 << ((1 << n) - 1)
        for row in table.rows:
            if row.universal_alone:
                ok = ok and row.code % 2 == 1 and row.code < half
    # verdicts invariant under dualization and variable permutation
    for arity in (2, 3):
        perms = list(itertools.permutations(range(arity)))
        for code in range(1 << (1 << arity)):
            tt = TruthTable(arity, code)
            base = classify(tt)
            dual = classify(tt.dual())
            ok = ok and dual.universal_alone == base.universal_alone
            ok = ok and dual.universal_with_constants == base.universal_with_constants
            for p in perms:
                moved = classify(tt.permute(p))
                ok = ok and moved.universal_alone == base.universal_alone
                ok = ok and (
                    moved.universal_with_constants == base.universal_with_constants
                )
    report_line(9, ok,
                "self-dual endpoint-free counts " + " ".join(details)
                + "; first-half/odd and invariance checks hold")


def test_criterion_9_closed_world(census3, reports3):
    # non-universal generators realize only non-universal functions
    alone = {row.code for row in census3.rows if row.universal_alone}
    ok = True
    for code in range(256):
        if code in alone:
            continue
        for realized in reports3[(code, False)].realized_codes():
            if realized in alone:
                ok = False
                break
    report_line(9, ok, "closures of non-universal gates stay non-universal")


def test_criterion_10_case_studies():
    g85 = TruthTable.from_hex("85", 3)
    g46 = TruthTable.from_hex("46", 3)
    g4685 = TruthTable.from_hex("4685", 4)
    from sheffer.mux import mux_decompose

    checks = [
        g85.cofactor(0, 0).to_hex() == "5",
        g85.cofactor(0, 1).to_hex() == "8",
        g46.cofactor(0, 0).to_hex() == "6",
        g46.cofactor(0, 1).to_hex() == "4",
        [l.to_hex() for l in mux_decompose(g4685, [0, 1]).leaves]
        == ["5", "8", "6", "4"],
        mux_decompose(g4685, [3]).reordered.to_hex() == "18A3",
    ]
    nand = TruthTable.from_hex("7", 2)
    xor = TruthTable.from_hex("6", 2)
    witness = generate_closure(nand).witnesses[xor.code]
    checks.append(witness.size == 4)
    checks.append(verify_circuit(witness, nand) == xor)
    report_line(10, all(checks),
                f"cofactor/mux/permutation case studies and 4-application "
                f"XOR witness ({sum(checks)}/{len(checks)} checks)")


def test_criterion_11_ratio_growth():
    r2, r3, r4, r5 = (universal_ratio(n) for n in (2, 3, 4, 5))
    ok = r2 < r3 < r4 < r5 < Fraction(1, 4)
    saturation_n5 = Fraction(1, 4) - r5 < Fraction(1, 10_000)
    report_line(11, ok and saturation_n5,
                f"ratios increase toward 1/4; 1/4 - R5 = {Fraction(1,4) - r5}")


@pytest.mark.xfail(
    strict=True,
    reason="1/4 - R4 = 1/512, roughly 2.0e-3, so the stated 1e-4 bound "
    "cannot hold before N=5; kept as written rather than loosened",
)
def test_criterion_11_saturation_bound_as_stated():
    gap = Fraction(1, 4) - universal_ratio(4)
    ok = gap < Fraction(1, 10_000)
    print(f"ACCEPTANCE criterion 11 (bound as stated): "
          f"{'PASS' if ok else 'FAIL'} - 1/4 - R4 = {gap}")
    assert ok

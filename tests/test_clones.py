import random

import pytest

from sheffer.bitfunc import TruthTable
from sheffer.classify import classify
from sheffer.clones import (
    clone_columns,
    clones_of,
    closure_counts,
    closure_set,
    membership,
    realizes,
)
from sheffer.closure import generate_closure, synthesize

#: Dedekind numbers: the monotone functions of N inputs (OEIS A000372).
DEDEKIND = {1: 3, 2: 6, 3: 20, 4: 168}
#: Gates universal with constants: the paper's 2 + 4 at N=2 and 56 + 169 at N=3.
WITH_CONSTANTS = {1: 0, 2: 6, 3: 225, 4: 65342}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_membership_matches_scalar_classify(n):
    # Arities 2..4 are also checked through the census rows.
    columns = membership(n)
    for code in range(1 << (1 << n)):
        flags = classify(TruthTable(n, code))
        assert {name: bool(column[code]) for name, column in columns.items()} == {
            name: getattr(flags, name) for name in columns
        }, code


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_membership_counts(n):
    columns = membership(n)
    gates = 1 << (1 << n)
    assert all(len(column) == gates for column in columns.values())
    assert columns["monotone"].sum() == DEDEKIND[n]
    assert columns["affine"].sum() == 1 << (n + 1)
    # Only the two constants and the n projections are monotone and affine.
    assert columns["universal_with_constants"].sum() == WITH_CONSTANTS[n] == (
        gates - DEDEKIND[n] - (1 << (n + 1)) + n + 2
    )


@pytest.mark.parametrize("n", [0, 5, -1, 2.0, True, "3"])
def test_membership_rejects_unsupported_arity(n):
    with pytest.raises(ValueError):
        membership(n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_scalar_clones_match_columns(n):
    columns = clone_columns(n)
    assert len(columns) == 8 + 2 * (n - 1)
    for code in range(1 << (1 << n)):
        assert clones_of(TruthTable(n, code)) == tuple(
            name for name, column in columns.items() if column[code]), code


def test_clone_columns_sizes_at_four():
    sizes = {name: int(column.sum()) for name, column in clone_columns(4).items()}
    # Λ and V: 2**4 conjunctions (disjunctions) plus the other constant;
    # U: two constants, four projections and their negations.
    assert (sizes["Λ"], sizes["V"], sizes["U"]) == (17, 17, 10)
    assert sizes["M"] == DEDEKIND[4] and sizes["L"] == 32
    # Dual clones have equal sizes, and P_k shrinks as k grows.
    assert [sizes[f"P{k}"] for k in (2, 3, 4)] == [sizes[f"Q{k}"] for k in (2, 3, 4)]
    assert sizes["T0"] > sizes["P2"] > sizes["P3"] > sizes["P4"]


def test_nor_is_outside_p2():
    # NOR's single 1-row has no 1-coordinate: "any two or fewer" rows matter.
    assert "P2" not in clones_of(TruthTable(2, 0x1))
    assert "P2" in clones_of(TruthTable(2, 0x8))  # AND


@pytest.mark.parametrize("constants", [False, True])
def test_closure_set_matches_enumerator_n1(constants):
    for code in range(4):
        gate = TruthTable(1, code)
        report = generate_closure(gate, constants, witnesses=False)
        assert closure_set(gate, constants) == (report.realized, report.count)


@pytest.mark.parametrize("n", [2, 3])
def test_closure_counts_match_closure_set(n):
    plain, const = closure_counts(n)
    for code in range(1 << (1 << n)):
        gate = TruthTable(n, code)
        assert (plain[code], const[code]) == (closure_set(gate).count,
                                              closure_set(gate, True).count)


def test_clone_signatures_and_sets():
    nand, and_, xor = (TruthTable(2, code) for code in (0x7, 0x8, 0x6))
    assert clones_of(nand) == ()
    assert clones_of(and_) == ("T0", "T1", "M", "Λ", "P2")
    assert clones_of(xor) == ("T0", "L")
    assert closure_set(nand) == (2**16 - 1, 16)
    # AND: x, y and x AND y; with constants also 0 and 1.
    assert closure_set(and_) == (1 << 0xC | 1 << 0xA | 1 << 0x8, 3)
    assert closure_set(and_, True).count == 5
    assert closure_set(TruthTable(3, 0xFF), True) == (1 << 0xFF, 1)


def test_closure_set_contains_the_enumerators_sample_at_four():
    # Budgeted N=4 runs give lower bounds, and exact sets when complete.
    rng = random.Random(4)
    complete = 0
    for code in [0x0001, 0x8000, 0x6996, 0x00FF, 0xFFFE] + [rng.randrange(1 << 16)
                                                           for _ in range(27)]:
        gate = TruthTable(4, code)
        for constants in (False, True):
            report = generate_closure(gate, constants, witnesses=False, budget=64)
            oracle = closure_set(gate, constants)
            assert report.realized & ~oracle.realized == 0, (code, constants)
            if report.complete:
                assert report.realized == oracle.realized, (code, constants)
                complete += 1
    assert complete >= 4


def test_synthesize_none_iff_outside_closure_set():
    for constants in (False, True):
        for code in range(16):
            gate = TruthTable(2, code)
            realized = closure_set(gate, constants).realized
            for target in range(16):
                found = synthesize(gate, TruthTable(2, target), constants)
                assert (found is None) == (not realized >> target & 1), (code, target)
                assert realizes(gate, TruthTable(2, target), constants) == (found is not None)


@pytest.mark.parametrize("fn", [clone_columns, closure_counts])
@pytest.mark.parametrize("n", [0, 5, True, 2.0])
def test_oracle_rejects_unsupported_arity(fn, n):
    with pytest.raises(ValueError):
        fn(n)


def test_per_gate_oracle_rejects_unsupported_gates():
    for five in (0x1, 0x0):  # constants included
        with pytest.raises(ValueError):
            closure_set(TruthTable(5, five))
        with pytest.raises(ValueError):
            realizes(TruthTable(5, five), TruthTable(5, five))
    with pytest.raises(ValueError):
        realizes(TruthTable(2, 0x7), TruthTable(3, 0x7))

import hashlib
import os
import random
import subprocess
import sys
from functools import reduce
from itertools import combinations
from operator import and_, or_
from pathlib import Path

import pytest

import sheffer
from sheffer import clones as clones_mod
from sheffer.bitfunc import TruthTable
from sheffer.classify import classify, post_classes
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


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_membership_matches_scalar_classify(monkeypatch, n):
    # One evaluator on two paths: `classify` passes an int code and gets bools,
    # `membership` passes the narrowest code column and gets boolean arrays.
    # Arities 2..4 are also checked through the census rows.
    evaluated = []

    def recording(codes, arity):
        evaluated.append(codes.dtype.name)
        return post_classes(codes, arity)

    monkeypatch.setattr(clones_mod, "post_classes", recording)
    columns = membership(n)
    assert evaluated == ["uint8" if n < 4 else "uint16"]
    assert {column.dtype.name for column in columns.values()} == {"bool"}
    codes = range(1 << (1 << n)) if n < 4 else random.Random(4).sample(range(1 << 16), 2000)
    for code in codes:
        flags = classify(TruthTable(n, code))
        assert {name: column[code].item() for name, column in columns.items()} == {
            name: getattr(flags, name) for name in columns
        }, code
        assert {type(getattr(flags, name)) for name in columns} == {bool}


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


def test_clone_columns_are_pinned():
    # Every four-input code, which the enumerator comparisons never reach;
    # the digest was taken from the row-subset mask construction.
    digest = hashlib.sha256()
    for n in range(1, 5):
        for name, column in clone_columns(n).items():
            digest.update(name.encode())
            digest.update(column.tobytes())
    assert digest.hexdigest() == (
        "b1e9c9b047391185c2022ab3476bc1e409aca8df9f5cc83a5a1e0cb769eeaea8")


def _separating_by_definition(gate):
    """P_k and Q_k of `gate`, from every nonempty set of at most k one-rows or zero-rows."""
    top = gate.n_rows - 1
    ones = [r for r in range(top + 1) if gate.code >> r & 1]
    zeros = [r for r in range(top + 1) if not gate.code >> r & 1]

    def sets(rows, k):
        return (s for j in range(1, k + 1) for s in combinations(rows, j))

    ks = range(2, gate.arity + 1)
    return (*(f"P{k}" for k in ks if all(reduce(and_, s) for s in sets(ones, k))),
            *(f"Q{k}" for k in ks if all(reduce(or_, s) != top for s in sets(zeros, k))))


def test_separating_clones_match_their_definition():
    rng = random.Random(24)
    gates = [TruthTable(n, code) for n in (2, 3) for code in range(1 << (1 << n))]
    gates += [TruthTable(4, code) for code in (0x0000, 0xFFFF, 0x0001, 0x8000, 0x7FFF,
                                               0xFFFE, 0x6996, 0x8001)]
    gates += [TruthTable(4, rng.randrange(1 << 16)) for _ in range(200)]
    for gate in gates:
        assert tuple(name for name in clones_of(gate) if name[0] in "PQ") == (
            _separating_by_definition(gate)), gate


def test_clones_of_needs_no_numpy():
    code = ("import sys\n"
            "from sheffer.bitfunc import TruthTable\n"
            "from sheffer.clones import clones_of\n"
            "clones_of(TruthTable(4, 0x6996))\n"
            "print('numpy' in sys.modules)")
    src = str(Path(sheffer.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True).stdout
    assert out.splitlines()[-1] == "False"


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
    # Arities 1 and 2 are cached first: the check must run before the cache is read.
    closure_counts(1), closure_counts(2)
    with pytest.raises(ValueError):
        fn(n)


def test_closure_counts_at_four_are_full_exactly_for_universal_gates():
    plain, const = closure_counts(4)
    columns = membership(4)
    assert ((plain == 1 << 16) == columns["universal_alone"]).all()
    assert ((const == 1 << 16) == columns["universal_with_constants"]).all()
    assert (columns["universal_alone"].sum(), columns["universal_with_constants"].sum()) == (
        16256, WITH_CONSTANTS[4])


def test_writing_into_clone_columns_changes_no_oracle_answer():
    gates = [TruthTable(3, code) for code in (0x00, 0x17, 0x69, 0x80, 0xE8)]

    def answers():
        plain, const = closure_counts(3)
        return (plain.tolist(), const.tolist(),
                [realizes(g, TruthTable(3, t), c)
                 for g in gates for t in range(256) for c in (False, True)])

    before = answers()
    for column in clone_columns(3).values():
        column[:] = ~column
    assert answers() == before


def _name_set_rule(n, codes):
    """`realizes` as it was decided from clone names, for gate/target codes of arity `n`."""
    full = (1 << (1 << n)) - 1
    names = {code: set(clones_of(TruthTable(n, code))) for code in {0, full, *codes}}
    with_constants = names[0] & names[full]

    def rule(gate, target, constants):
        if gate in (0, full):  # a constant gate realizes only itself
            return target == gate
        return (names[gate] & with_constants if constants else names[gate]) <= names[target]

    return rule


@pytest.mark.parametrize("n", [1, 2, 3])
def test_realizes_equals_the_name_set_rule(n):
    codes = range(1 << (1 << n))
    rule = _name_set_rule(n, codes)
    for gate in codes:
        for constants in (False, True):
            assert [realizes(TruthTable(n, gate), TruthTable(n, t), constants) for t in codes] == [
                rule(gate, t, constants) for t in codes], (gate, constants)


def test_realizes_equals_the_name_set_rule_on_seeded_pairs_at_four():
    rng = random.Random(23)
    pairs = [(rng.randrange(1 << 16), rng.randrange(1 << 16)) for _ in range(500)]
    pairs += [(0x0000, 0x0000), (0xFFFF, 0x0000), (0x6996, 0x0000), (0x8000, 0xFFFF)]
    rule = _name_set_rule(4, {code for pair in pairs for code in pair})
    for gate, target in pairs:
        for constants in (False, True):
            assert realizes(TruthTable(4, gate), TruthTable(4, target), constants) == rule(
                gate, target, constants), (gate, target, constants)


def test_per_gate_oracle_rejects_unsupported_gates():
    for five in (0x1, 0x0):  # constants included
        with pytest.raises(ValueError):
            closure_set(TruthTable(5, five))
        with pytest.raises(ValueError):
            realizes(TruthTable(5, five), TruthTable(5, five))
    with pytest.raises(ValueError):
        realizes(TruthTable(2, 0x7), TruthTable(3, 0x7))

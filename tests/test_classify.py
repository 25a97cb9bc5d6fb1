import itertools
import random
from functools import cache

import pytest

from sheffer.bitfunc import TruthTable, constant
from sheffer.classify import (
    classify,
    hex_fast_track,
    is_affine,
    is_monotone,
    is_self_dual,
    preserves_one,
    preserves_zero,
    universal_alone,
    universal_with_constants,
    universality_scan,
)

SELF_DUAL_ENDPOINT_FREE_N3 = {0x0F, 0x17, 0x2B, 0x33, 0x4D, 0x55, 0x69, 0x71}

#: The paper's fast-track digits: the 2-input gates universal with constants.
PAPER_DIGITS = frozenset("1247BD")


def gate(text, arity):
    return TruthTable.from_hex(text, arity)


def test_preserves_zero():
    assert preserves_zero(gate("8", 2))
    # F8 has output 0 on the all-zeros row (its whole closure is endpoint-fixing)
    assert preserves_zero(gate("F8", 3))
    assert not preserves_zero(gate("7", 2))
    assert not preserves_zero(gate("85", 3))


def test_preserves_one():
    assert preserves_one(gate("E", 2))
    assert preserves_one(gate("F8", 3))
    assert preserves_one(gate("85", 3))
    assert not preserves_one(gate("7", 2))


def test_self_dual():
    assert is_self_dual(gate("2B", 3))
    assert not is_self_dual(gate("7", 2))
    assert is_self_dual(gate("96", 3))


def _rows(arity, code):
    return [code >> r & 1 for r in range(1 << arity)]


def _monotone_brute_force(arity, code):
    # independent oracle: compare all pairs of comparable assignments x ⊆ y
    rows = _rows(arity, code)
    return all(rows[x] <= rows[y] for y in range(len(rows)) for x in range(len(rows))
               if x & y == x)


def test_monotone_examples():
    assert is_monotone(gate("E8", 3))
    assert not is_monotone(gate("7", 2))
    assert is_monotone(constant(2, 0))


@pytest.mark.parametrize("arity", [2, 3])
def test_monotone_matches_brute_force(arity):
    for code in range(1 << (1 << arity)):
        assert is_monotone(TruthTable(arity, code)) == _monotone_brute_force(arity, code)


@cache
def _affine_codes(arity):
    # independent oracle: construct every parity of a subset of the inputs
    # (the bits of the row index), and its complement
    rows = range(1 << arity)
    return frozenset(sum(((r & mask).bit_count() + c & 1) << r for r in rows)
                     for mask in rows for c in (0, 1))


def test_affine_examples():
    assert is_affine(gate("96", 3))
    assert not is_affine(gate("8", 2))
    assert is_affine(constant(2, 1))


@pytest.mark.parametrize("arity", [2, 3])
def test_affine_matches_constructed_set(arity):
    expected = _affine_codes(arity)
    computed = {
        code
        for code in range(1 << (1 << arity))
        if is_affine(TruthTable(arity, code))
    }
    assert computed == expected


def _classes_by_definition(arity, code):
    """The five Post classes of one code, from their definitions alone."""
    rows = _rows(arity, code)
    top = len(rows) - 1
    return {
        "preserves_zero": rows[0] == 0,
        "preserves_one": rows[top] == 1,
        "self_dual": all(rows[r] != rows[top - r] for r in range(top + 1)),
        "monotone": _monotone_brute_force(arity, code),
        "affine": code in _affine_codes(arity),
    }


def _code(arity, bit):
    """The code whose row r is `bit(r)`."""
    return sum(bit(r) << r for r in range(1 << arity))


def _structured_gates(rng, arity, count):
    """(family, code) pairs inside M, L or S, where random codes almost never fall.

    Family None is a near miss: a monotone gate with one input negated.
    """
    rows = 1 << arity
    for _ in range(count):
        terms = [rng.randrange(rows) for _ in range(rng.randint(1, 4))]
        yield "monotone", _code(arity, lambda r: any(r & t == t for t in terms))
        flip = 1 << rng.randrange(arity)
        yield None, _code(arity, lambda r: any((r ^ flip) & t == t for t in terms))
        mask, c = rng.randrange(rows), rng.randrange(2)
        yield "affine", _code(arity, lambda r: (r & mask).bit_count() + c & 1)
        low = rng.getrandbits(rows // 2)
        yield "self_dual", _code(arity, lambda r: low >> r & 1 if r < rows // 2
                                 else 1 - (low >> (rows - 1 - r) & 1))


def _class_cases():
    for arity in (1, 2, 3):
        yield from ((arity, code) for code in range(1 << (1 << arity)))
    rng = random.Random(28)
    yield from ((4, rng.getrandbits(16)) for _ in range(300))
    for arity in (5, 6):
        for family, code in _structured_gates(rng, arity, 40):
            assert family is None or _classes_by_definition(arity, code)[family], hex(code)
            yield arity, code
    yield 6, 0x6996966996696996  # parity of six inputs
    yield 6, 0xFEE8E880E8808000  # at least four of six inputs


def test_classes_match_their_definitions():
    predicates = {"preserves_zero": preserves_zero, "preserves_one": preserves_one,
                  "self_dual": is_self_dual, "monotone": is_monotone, "affine": is_affine}
    for arity, code in _class_cases():
        tt, expected = TruthTable(arity, code), _classes_by_definition(arity, code)
        c = classify(tt)
        assert {name: getattr(c, name) for name in expected} == expected, tt
        assert {name: p(tt) for name, p in predicates.items()} == expected, tt


def test_verdicts_alone():
    assert universal_alone(gate("7", 2))
    assert not universal_alone(gate("2B", 3))
    assert universal_alone(gate("4685", 4))
    assert not universal_alone(gate("3", 2))


def test_verdicts_with_constants():
    assert universal_with_constants(gate("2", 2))
    assert universal_with_constants(gate("85", 3))
    assert not universal_with_constants(gate("AA", 3))
    assert not universal_with_constants(gate("E8", 3))


def test_classification_consistency():
    c = classify(gate("2B", 3))
    assert c.self_dual and not c.universal_alone
    assert c.universal_with_constants  # neither monotone nor affine


def _verdict_cases():
    for arity in (2, 3):
        yield from (TruthTable(arity, code) for code in range(1 << (1 << arity)))
    rng = random.Random(606)
    for arity in (4, 5, 6):
        for _ in range(300):
            yield TruthTable(arity, rng.randrange(1 << (1 << arity)))


def test_classify_verdicts_match_the_verdict_functions():
    for tt in _verdict_cases():
        c = classify(tt)
        assert c.universal_alone == universal_alone(tt), tt
        assert c.universal_with_constants == universal_with_constants(tt), tt


@pytest.mark.parametrize("arity", [2, 3])
def test_alone_implies_with_constants(arity):
    for code in range(1 << (1 << arity)):
        c = classify(TruthTable(arity, code))
        if c.universal_alone:
            assert c.universal_with_constants
        assert c.universal_alone == (
            not (c.preserves_zero or c.preserves_one or c.self_dual)
        )


def test_scan_examples():
    assert universality_scan(gate("01", 3))
    assert not universality_scan(gate("69", 3))
    assert not universality_scan(gate("80", 3))


@pytest.mark.parametrize("arity", [2, 3])
def test_scan_agrees_with_flags(arity):
    for code in range(1 << (1 << arity)):
        tt = TruthTable(arity, code)
        assert universality_scan(tt) == universal_alone(tt)


@pytest.mark.parametrize("arity,expected", [(2, 2), (3, 8)])
def test_self_dual_endpoint_free_census(arity, expected):
    hits = {
        code
        for code in range(1 << (1 << arity))
        if (c := classify(TruthTable(arity, code))).self_dual
        and not c.preserves_zero
        and not c.preserves_one
    }
    assert len(hits) == expected
    if arity == 3:
        assert hits == SELF_DUAL_ENDPOINT_FREE_N3


@pytest.mark.parametrize("arity", [2, 3])
def test_duality_symmetry(arity):
    for code in range(1 << (1 << arity)):
        tt = TruthTable(arity, code)
        dual = tt.dual()
        assert universal_alone(tt) == universal_alone(dual)
        assert preserves_zero(dual) == preserves_one(tt)
        assert preserves_one(dual) == preserves_zero(tt)
        assert is_self_dual(dual) == is_self_dual(tt)


def test_permutation_invariance_n3():
    perms = list(itertools.permutations(range(3)))
    for code in range(256):
        tt = TruthTable(3, code)
        base = classify(tt)
        for p in perms:
            moved = classify(tt.permute(p))
            assert moved.universal_alone == base.universal_alone
            assert moved.universal_with_constants == base.universal_with_constants


def test_fast_track_examples():
    assert hex_fast_track(gate("46", 3))
    assert not hex_fast_track(gate("85", 3))  # universal, but not certified
    assert universal_with_constants(gate("85", 3))
    assert not hex_fast_track(gate("E8", 3))


def test_fast_track_count_n3():
    confirmed = sum(1 for code in range(256) if hex_fast_track(TruthTable(3, code)))
    assert confirmed == 156


def test_fast_track_no_false_positives_n3():
    for code in range(256):
        tt = TruthTable(3, code)
        if hex_fast_track(tt):
            assert universal_with_constants(tt)


def test_universal_with_constants_n2_is_the_paper_digit_set():
    certified = {TruthTable(2, code).to_hex() for code in range(16)
                 if universal_with_constants(TruthTable(2, code))}
    assert certified == PAPER_DIGITS


def test_fast_track_n3_is_the_paper_digit_rule():
    # At three inputs the two hex digits are the cofactors on A.
    for code in range(256):
        tt = TruthTable(3, code)
        assert hex_fast_track(tt) == any(d in PAPER_DIGITS for d in tt.to_hex())


@pytest.mark.parametrize("arity", [4, 5, 6])
def test_fast_track_is_the_cofactor_rule(arity):
    # Beyond three inputs the halves of the code are no longer hex digits,
    # so the fast track is checked against its definition instead.
    rng = random.Random(arity)
    for _ in range(300):
        tt = TruthTable(arity, rng.getrandbits(1 << arity))
        expected = any(universal_with_constants(tt.cofactor(0, b)) for b in (0, 1))
        assert hex_fast_track(tt) == expected, tt


def test_fast_track_needs_three_inputs():
    with pytest.raises(ValueError):
        hex_fast_track(gate("7", 2))

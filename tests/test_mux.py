import itertools

import pytest

from sheffer.bitfunc import TruthTable
from sheffer.classify import universal_with_constants
from sheffer.mux import (
    mux_decompose,
    mux_to_dot,
    mux_to_json,
    recompose,
    universality_from_leaves,
)


def gate(text, arity):
    return TruthTable.from_hex(text, arity)


def test_decompose_85():
    mux = mux_decompose(gate("85", 3), [0])
    assert [leaf.to_hex() for leaf in mux.leaves] == ["5", "8"]
    assert mux.reordered == mux.source


def test_decompose_46():
    mux = mux_decompose(gate("46", 3), [0])
    assert [leaf.to_hex() for leaf in mux.leaves] == ["6", "4"]


def test_decompose_4685_two_selects():
    mux = mux_decompose(gate("4685", 4), [0, 1])
    assert [leaf.to_hex() for leaf in mux.leaves] == ["5", "8", "6", "4"]


def test_decompose_4685_on_last_variable():
    mux = mux_decompose(gate("4685", 4), [3])
    assert mux.reordered.to_hex() == "18A3"
    assert [leaf.to_hex() for leaf in mux.leaves] == ["A3", "18"]
    assert recompose(mux) == gate("4685", 4)


def test_round_trip_exhaustive_n3():
    selects = [[0], [1], [2]]
    for code in range(256):
        tt = TruthTable(3, code)
        for sel in selects:
            assert recompose(mux_decompose(tt, sel)) == tt


def test_round_trip_two_selects_n4_sample():
    import random

    rng = random.Random(23)
    pairs = list(itertools.permutations(range(4), 2))
    for _ in range(40):
        tt = TruthTable(4, rng.randrange(1 << 16))
        sel = list(rng.choice(pairs))
        assert recompose(mux_decompose(tt, sel)) == tt


def test_leading_select_concatenates_encoding():
    for code in range(256):
        tt = TruthTable(3, code)
        mux = mux_decompose(tt, [0])
        assert tt.to_hex() == mux.leaves[1].to_hex() + mux.leaves[0].to_hex()


def test_universality_from_leaves_cases():
    assert universality_from_leaves(mux_decompose(gate("46", 3), [0]))
    assert not universality_from_leaves(mux_decompose(gate("85", 3), [0]))
    assert not universality_from_leaves(mux_decompose(gate("FF", 3), [0]))


def test_universality_from_leaves_never_contradicts():
    for code in range(256):
        tt = TruthTable(3, code)
        if universality_from_leaves(mux_decompose(tt, [0])):
            assert universal_with_constants(tt)


def test_universality_from_leaves_is_the_paper_digit_rule():
    digits = frozenset("1247BD")
    for code in range(256):
        for select in range(3):
            mux = mux_decompose(TruthTable(3, code), [select])
            expected = any(leaf.to_hex() in digits for leaf in mux.leaves)
            assert universality_from_leaves(mux) == expected


def test_universality_needs_two_input_leaves():
    mux = mux_decompose(gate("4685", 4), [0])  # 3-input leaves
    with pytest.raises(ValueError):
        universality_from_leaves(mux)


def test_decompose_validation():
    tt = gate("85", 3)
    with pytest.raises(ValueError):
        mux_decompose(tt, [])
    with pytest.raises(ValueError):
        mux_decompose(tt, [0, 0])
    with pytest.raises(ValueError):
        mux_decompose(tt, [3])
    with pytest.raises(ValueError):
        mux_decompose(tt, [0, 1])  # would leave 1-input leaves


def test_json_shape():
    mux = mux_decompose(gate("4685", 4), [0, 1])
    data = mux_to_json(mux)
    assert data == {"select": [0, 1], "leaves": ["5", "8", "6", "4"]}


def test_dot_output():
    mux = mux_decompose(gate("46", 3), [0])
    dot = mux_to_dot(mux)
    assert dot.startswith("digraph")
    assert '"4:1 MUX"' not in dot and '"2:1 MUX"' in dot
    assert 'label="6"' in dot and 'label="4"' in dot
    assert mux_to_dot(mux) == dot  # deterministic

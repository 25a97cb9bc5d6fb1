import itertools
import random

import numpy as np
import pytest

from sheffer.bitfunc import (
    TruthTable,
    compose,
    compose_codes,
    constant,
    dual_codes,
    hex_width,
    projection,
    shannon,
)


def test_decode_nand():
    tt = TruthTable.from_hex("7", 2)
    assert tt.rows == (1, 1, 1, 0)


def test_decode_zero_three_inputs():
    tt = TruthTable.from_hex("00", 3)
    assert tt.rows == (0,) * 8


def test_decode_4685():
    tt = TruthTable.from_hex("4685", 4)
    true_rows = [r for r in range(16) if tt.rows[r]]
    # assignments 0000, 0010, 0111, 1001, 1010, 1110 (variable A first)
    assert true_rows == [0, 2, 7, 9, 10, 14]


def test_encode_named_gates():
    assert TruthTable(2, 1).to_hex() == "1"  # NOR
    majority = TruthTable.from_rows(
        3, [1 if bin(r).count("1") >= 2 else 0 for r in range(8)]
    )
    assert majority.to_hex() == "E8"
    assert constant(3, 1).to_hex() == "FF"


@pytest.mark.parametrize("arity", range(1, 7))
def test_hex_round_trip(arity):
    rng = random.Random(1000 + arity)
    space = 1 << (1 << arity)
    codes = {0, space - 1} | {rng.randrange(space) for _ in range(50)}
    for code in codes:
        tt = TruthTable(arity, code)
        text = tt.to_hex()
        assert len(text) == hex_width(arity)
        assert TruthTable.from_hex(text, arity) == tt
        assert TruthTable.from_hex(text.lower(), arity) == tt


def test_decode_rejects_wrong_digit_count():
    with pytest.raises(ValueError):
        TruthTable.from_hex("F", 3)  # must be "0F"
    with pytest.raises(ValueError):
        TruthTable.from_hex("0F", 2)


def test_decode_rejects_bad_input():
    with pytest.raises(ValueError):
        TruthTable.from_hex("G7", 3)
    with pytest.raises(ValueError):
        TruthTable.from_hex("7", 1)  # 1-input codes stop at 3
    with pytest.raises(ValueError):
        TruthTable.from_hex("77", 0)
    with pytest.raises(ValueError):
        TruthTable.from_hex("7" * 32, 7)
    for text in (7, None, 7.0, b"7"):  # checked as a str before its length
        with pytest.raises(ValueError):
            TruthTable.from_hex(text, 2)


def test_bool_arity_rejected():
    # bool is an int subclass, so True would otherwise pass as arity 1.
    with pytest.raises(ValueError):
        TruthTable(True, 1)
    with pytest.raises(ValueError):
        TruthTable.from_hex("1", True)


def test_bool_code_rejected():
    with pytest.raises(ValueError):
        TruthTable(2, True)
    with pytest.raises(ValueError):
        TruthTable(3, False)


def test_code_bit_orientation():
    tt = TruthTable.from_hex("85", 3)
    assert tt.rows[0] == tt.code & 1
    assert tt.rows[7] == (tt.code >> 7) & 1


def test_evaluate_case_studies():
    assert TruthTable.from_hex("85", 3).evaluate((1, 1, 1)) == 1
    assert TruthTable.from_hex("46", 3).evaluate((0, 0, 0)) == 0
    every = TruthTable.from_hex("F", 2)
    for a in range(2):
        for b in range(2):
            assert every.evaluate((a, b)) == 1


def test_evaluate_length_mismatch():
    with pytest.raises(ValueError):
        TruthTable.from_hex("85", 3).evaluate((1, 1))


def test_bits_are_zero_or_one():
    assert TruthTable.from_rows(2, [True, False, False, False]) == TruthTable(2, 1)
    assert TruthTable.from_hex("85", 3).evaluate([True, True, True]) == 1
    with pytest.raises(ValueError):
        TruthTable.from_rows(2, [1, 0, 0, "0"])
    with pytest.raises(ValueError):
        TruthTable.from_rows(2, [1, 0, 0, 0.0])
    with pytest.raises(ValueError):
        TruthTable.from_hex("85", 3).evaluate([2, 0, 0])


def test_compose_not_from_nand():
    nand = TruthTable.from_hex("7", 2)
    a = projection(2, 0)
    assert compose(nand, [a, a]).to_hex() == "3"


def test_compose_and_from_nand():
    nand = TruthTable.from_hex("7", 2)
    a, b = projection(2, 0), projection(2, 1)
    n1 = compose(nand, [a, b])
    assert compose(nand, [n1, n1]).to_hex() == "8"


def test_compose_nested_xor_from_nand():
    nand = TruthTable.from_hex("7", 2)
    a, b = projection(2, 0), projection(2, 1)
    ab = compose(nand, [a, b])
    left = compose(nand, [a, ab])
    right = compose(nand, [b, ab])
    assert compose(nand, [left, right]).to_hex() == "6"


def test_compose_argument_errors():
    nand = TruthTable.from_hex("7", 2)
    a = projection(2, 0)
    with pytest.raises(ValueError):
        compose(nand, [a])
    with pytest.raises(ValueError):
        compose(nand, [a, projection(3, 0)])


def test_compose_agrees_with_evaluate():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 3)
        k = rng.randint(1, 3)
        gate = TruthTable(n, rng.randrange(1 << (1 << n)))
        args = [TruthTable(k, rng.randrange(1 << (1 << k))) for _ in range(n)]
        composed = compose(gate, args)
        for r in range(1 << k):
            x = [(r >> (k - 1 - i)) & 1 for i in range(k)]
            expected = gate.evaluate([arg.evaluate(x) for arg in args])
            assert composed.evaluate(x) == expected


@pytest.mark.parametrize("n", [2, 3, 4])
def test_shannon_array_path_matches_scalar_compose(n):
    # At four inputs the closure sweep feeds the kernel broadcast uint16
    # arrays, one axis per argument; every element must equal the scalar
    # composition, and the result must span every axis even for constant
    # subfunctions.
    rng = random.Random(20 + n)
    rowmask = (1 << (1 << n)) - 1
    gates = [rng.randrange(rowmask + 1) for _ in range(6)]
    if n == 3:
        gates += [0x00, 0xFF, 0xF0, 0x0F]
    sizes = [2, 3, 4, 5][:n]
    values = [[rng.randrange(rowmask + 1) for _ in range(size)] for size in sizes]
    axes = [
        np.array(vals, dtype=np.uint16).reshape([-1 if j == k else 1 for j in range(n)])
        for k, vals in enumerate(values)
    ]
    for code in gates:
        out = shannon(code, n, axes, rowmask, {})
        assert out.shape == tuple(sizes)
        assert out.dtype == np.uint16
        for idx in itertools.product(*(range(size) for size in sizes)):
            args = [TruthTable(n, values[k][i]) for k, i in enumerate(idx)]
            assert int(out[idx]) == compose(TruthTable(n, code), args).code, (code, idx)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_shannon_keeps_uint8_codes(n):
    # Through three inputs the closure sweep feeds the kernel uint8 codes on
    # an np.ix_ grid; a silent upcast would double its memory traffic.
    rng = np.random.default_rng(40 + n)
    rowmask = (1 << (1 << n)) - 1
    srcs = [rng.integers(rowmask + 1, size=size, dtype=np.uint8) for size in (7, 5, 3)[:n]]
    grid = np.ix_(*srcs)
    gates = range(rowmask + 1) if n < 3 else [0x00, 0xFF, *rng.integers(256, size=14)]
    for code in map(int, gates):
        out = shannon(code, n, grid, rowmask, {})
        assert out.dtype == np.uint8 and out.shape == tuple(s.size for s in srcs)
        for idx in np.ndindex(out.shape):
            args = [int(s[i]) for s, i in zip(srcs, idx)]
            assert int(out[idx]) == compose_codes(code, n, args, n), (code, idx)


def test_cofactor_case_studies():
    g85 = TruthTable.from_hex("85", 3)
    assert g85.cofactor(0, 0).to_hex() == "5"
    assert g85.cofactor(0, 1).to_hex() == "8"
    g46 = TruthTable.from_hex("46", 3)
    assert g46.cofactor(0, 0).to_hex() == "6"
    assert g46.cofactor(0, 1).to_hex() == "4"
    zero = TruthTable.from_hex("00", 3)
    for var in range(3):
        for value in (0, 1):
            assert zero.cofactor(var, value) == TruthTable(2, 0)


def test_cofactor_errors():
    with pytest.raises(ValueError):
        TruthTable(1, 1).cofactor(0, 0)
    with pytest.raises(ValueError):
        TruthTable(2, 6).cofactor(2, 0)


@pytest.mark.parametrize("call", [
    lambda: TruthTable(2, 6).cofactor(0, 2),
    lambda: TruthTable(2, 6).cofactor(0, "x"),
    lambda: TruthTable(2, 6).cofactor(1.0, 1),
    lambda: constant(3, 7),
    lambda: projection(3, 1.0),
    lambda: TruthTable(3, 0x2B).permute([0, 1.0, 2]),
    lambda: TruthTable(3, 0x2B).permute([True, 0, 2]),
], ids=["cofactor-value-2", "cofactor-value-str", "cofactor-var-float", "constant-7",
        "projection-float", "permute-float", "permute-bool"])
def test_index_arguments_must_be_ints_in_range(call):
    # Every variable index and bit argument is an int in range: no bool,
    # float or string, and no value a truthiness test would fold to 1.
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("arity", [2, 3])
def test_shannon_expansion_exhaustive(arity):
    for code in range(1 << (1 << arity)):
        tt = TruthTable(arity, code)
        for var in range(arity):
            f0 = tt.cofactor(var, 0)
            f1 = tt.cofactor(var, 1)
            for r in range(tt.n_rows):
                x = [(r >> (arity - 1 - i)) & 1 for i in range(arity)]
                reduced = x[:var] + x[var + 1 :]
                recombined = f1.evaluate(reduced) if x[var] else f0.evaluate(reduced)
                assert recombined == tt.rows[r]


def test_dual_examples():
    assert TruthTable.from_hex("8", 2).dual().to_hex() == "E"
    g2b = TruthTable.from_hex("2B", 3)
    assert g2b.dual() == g2b
    assert constant(3, 0).dual() == constant(3, 1)


def test_dual_involution():
    for code in range(256):
        tt = TruthTable(3, code)
        assert tt.dual().dual() == tt
    rng = random.Random(11)
    for arity in (4, 5, 6):
        for _ in range(20):
            tt = TruthTable(arity, rng.randrange(1 << (1 << arity)))
            assert tt.dual().dual() == tt


def _dual_by_evaluate(tt):
    """x -> NOT f(NOT x), one assignment at a time."""
    n = tt.arity
    return sum((1 - tt.evaluate([1 - (r >> (n - 1 - i) & 1) for i in range(n)])) << r
               for r in range(tt.n_rows))


def _dual_cases():
    for arity in (1, 2, 3):
        yield from ((arity, code) for code in range(1 << (1 << arity)))
    rng = random.Random(28)
    for arity in (4, 5, 6):
        yield from ((arity, rng.getrandbits(1 << arity)) for _ in range(50))


def test_dual_codes_is_not_f_of_not_x():
    for arity, code in _dual_cases():
        tt = TruthTable(arity, code)
        assert dual_codes(code, arity) == _dual_by_evaluate(tt) == tt.dual().code, tt


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32])
def test_dual_codes_over_arrays_matches_ints(dtype):
    bits = np.iinfo(dtype).bits
    for arity in range(1, 6):
        if 1 << arity > bits:
            continue
        codes = [code for n, code in _dual_cases() if n == arity]
        column = np.array(codes, dtype=dtype)
        duals = dual_codes(column, arity)
        assert duals.dtype == dtype
        assert duals.tolist() == [dual_codes(code, arity) for code in codes], arity
        assert column.tolist() == codes  # the input column is left as it was


def test_permute_case_studies():
    t = TruthTable.from_hex("4685", 4)
    assert t.permute([1, 2, 3, 0]).to_hex() == "18A3"
    assert t.permute([0, 1, 2, 3]) == t
    assert TruthTable.from_hex("4", 2).permute([1, 0]).to_hex() == "2"


def test_permute_rejects_non_bijection():
    with pytest.raises(ValueError):
        TruthTable.from_hex("4685", 4).permute([0, 0, 1, 2])


def test_permute_group_action():
    import itertools

    rng = random.Random(3)
    codes = [rng.randrange(256) for _ in range(8)]
    perms = list(itertools.permutations(range(3)))
    for code in codes:
        tt = TruthTable(3, code)
        for p in perms:
            for q in perms:
                qp = [q[p[k]] for k in range(3)]
                assert tt.permute(p).permute(q) == tt.permute(qp)


def test_projection_codes():
    assert projection(2, 0).to_hex() == "C"
    assert projection(2, 1).to_hex() == "A"
    assert [projection(3, v).to_hex() for v in range(3)] == ["F0", "CC", "AA"]


def test_from_rows_round_trip():
    tt = TruthTable.from_hex("B2", 3)
    assert TruthTable.from_rows(3, tt.rows) == tt
    with pytest.raises(ValueError):
        TruthTable.from_rows(3, [0] * 7)

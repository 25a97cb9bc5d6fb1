"""Packed truth-table representation of small Boolean functions.

An N-input gate (1 <= N <= 6) is stored as the integer whose bit r holds
the output for input row r.  Variable 0 ("A") is the most significant bit
of the row index, so row 0 is the all-zeros assignment and row 2**N - 1
the all-ones assignment.  Under this convention the hexadecimal rendering
of 2-input NOR is "1", NAND is "7" and the 3-input majority gate is "E8".

Every value here is immutable and every operation is pure, so tables can
be shared freely.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Iterable, Sequence

MAX_ARITY = 6

_HEX_DIGITS = "0123456789abcdefABCDEF"


def hex_width(arity: int) -> int:
    """Number of hex digits in the zero-padded encoding of an `arity`-input gate."""
    return max(1, (1 << arity) // 4)


def _is_index(value: object, bound: int) -> bool:
    """True iff `value` is an int in 0..bound-1; bools, floats and strings are not."""
    return isinstance(value, int) and not isinstance(value, bool) and 0 <= value < bound


def _check_arity(arity: int, top: int = MAX_ARITY) -> None:
    if not (_is_index(arity, top + 1) and arity >= 1):
        raise ValueError(f"arity must be an integer in 1..{top}, got {arity!r}")


def _bit(value: object) -> int:
    """An input or output bit: 0, 1, False or True, and nothing else."""
    if isinstance(value, bool) or _is_index(value, 2):
        return int(value)
    raise ValueError(f"a bit must be 0 or 1, got {value!r}")


@dataclass(frozen=True, slots=True)
class TruthTable:
    """An N-ary Boolean function as 2**N packed output bits.

    `code` is the packed table: bit r of `code` is the output on input
    row r.  Row r assigns variable k the bit of r at position N-1-k.
    """

    arity: int
    code: int

    def __post_init__(self) -> None:
        _check_arity(self.arity)
        if not _is_index(self.code, 1 << self.n_rows):
            raise ValueError(
                f"code must be in 0..{(1 << self.n_rows) - 1} for arity {self.arity}, "
                f"got {self.code!r}"
            )

    @property
    def n_rows(self) -> int:
        return 1 << self.arity

    @classmethod
    def from_hex(cls, text: str, arity: int) -> "TruthTable":
        """Parse the zero-padded, case-insensitive hex encoding of a gate.

        The digit count must match the arity exactly ("0F" at three
        inputs, never "F"), which is what lets a digit count determine
        an arity unambiguously elsewhere.
        """
        _check_arity(arity)
        if not isinstance(text, str):
            raise ValueError(f"invalid hex encoding {text!r}")
        width = hex_width(arity)
        if len(text) != width:
            raise ValueError(
                f"expected exactly {width} hex digit(s) for arity {arity}, got {text!r}"
            )
        if text.strip(_HEX_DIGITS):
            raise ValueError(f"invalid hex encoding {text!r}")
        code = int(text, 16)
        if code >= 1 << (1 << arity):
            raise ValueError(f"{text!r} does not fit a {arity}-input table")
        return cls(arity, code)

    @classmethod
    def from_rows(cls, arity: int, rows: Iterable[int]) -> "TruthTable":
        """Build a table from its 2**arity output bits, row 0 first."""
        _check_arity(arity)
        bits = [_bit(b) for b in rows]
        if len(bits) != 1 << arity:
            raise ValueError(f"expected {1 << arity} rows, got {len(bits)}")
        code = 0
        for r, b in enumerate(bits):
            code |= b << r
        return cls(arity, code)

    def to_hex(self) -> str:
        """Zero-padded uppercase hex encoding, most significant digit first."""
        return format(self.code, f"0{hex_width(self.arity)}X")

    @property
    def rows(self) -> tuple[int, ...]:
        """Output bits indexed by input row."""
        return tuple((self.code >> r) & 1 for r in range(self.n_rows))

    def evaluate(self, assignment: Sequence[int]) -> int:
        """Output bit for one assignment (variable 0 first)."""
        bits = list(assignment)
        if len(bits) != self.arity:
            raise ValueError(
                f"assignment of length {len(bits)} for a {self.arity}-input table"
            )
        r = 0
        for b in bits:
            r = (r << 1) | _bit(b)
        return (self.code >> r) & 1

    def cofactor(self, var: int, value: int) -> "TruthTable":
        """Restriction with variable `var` fixed to `value`.

        Remaining variables keep their relative order: the table is
        composed with the remaining projections and the constant in slot
        `var`.  Requires at least two inputs: the type space stays closed
        over gates, so a 1-input table has no cofactor here.
        """
        if self.arity < 2:
            raise ValueError("cofactor of a 1-input table would be a constant")
        if not _is_index(var, self.arity):
            raise ValueError(f"variable {var!r} out of range for arity {self.arity}")
        if not _is_index(value, 2):
            raise ValueError(f"cofactor value must be 0 or 1, got {value!r}")
        k = self.arity - 1
        args = [variable_pattern(k, k - 1 - j) for j in range(k)]
        args.insert(var, constant(k, value).code)
        return TruthTable(k, compose_codes(self.code, self.arity, args, k))

    def dual(self) -> "TruthTable":
        """The dual function x -> NOT f(NOT x)."""
        return TruthTable(self.arity, dual_codes(self.code, self.arity))

    def permute(self, mapping: Sequence[int]) -> "TruthTable":
        """Relabel inputs: old variable k becomes variable `mapping[k]`.

        That is the composition with projection `mapping[k]` in slot k.
        """
        n = self.arity
        perm = list(mapping)
        if not all(_is_index(v, n) for v in perm) or sorted(perm) != list(range(n)):
            raise ValueError(f"{mapping!r} is not a permutation of 0..{n - 1}")
        args = [variable_pattern(n, n - 1 - new) for new in perm]
        return TruthTable(n, compose_codes(self.code, n, args, n))

    def __repr__(self) -> str:
        return f"TruthTable({self.arity}, 0x{self.to_hex()})"


@cache
def variable_pattern(arity: int, bitpos: int) -> int:
    """Packed table whose bit r is set iff bit `bitpos` of r is set."""
    out = 0
    for r in range(1 << arity):
        if (r >> bitpos) & 1:
            out |= 1 << r
    return out


def dual_codes(codes, arity: int):
    """The duals x -> NOT f(NOT x) of `codes`, an int or a numpy array (dtype kept).

    Swapping, for every variable, the rows where it is 0 with the rows where
    it is 1 maps row r to row 2**arity - 1 - r; the dual is its complement.
    """
    full = (1 << (1 << arity)) - 1
    for pos in range(arity):
        shift, zeros = 1 << pos, full ^ variable_pattern(arity, pos)
        codes = (codes >> shift & zeros) | (codes & zeros) << shift
    return codes ^ full


def projection(arity: int, var: int) -> TruthTable:
    """The identity function on variable `var`."""
    _check_arity(arity)
    if not _is_index(var, arity):
        raise ValueError(f"variable {var!r} out of range for arity {arity}")
    return TruthTable(arity, variable_pattern(arity, arity - 1 - var))


def constant(arity: int, value: int) -> TruthTable:
    """The constant-0 or constant-1 function."""
    _check_arity(arity)
    if not _is_index(value, 2):
        raise ValueError(f"constant value must be 0 or 1, got {value!r}")
    return TruthTable(arity, ((1 << (1 << arity)) - 1) if value else 0)


def shannon(code: int, k: int, args: Sequence, rowmask: int, cache: dict):
    """Packed code of the k-input function `code` applied to the k `args`.

    This is the one composition kernel: Shannon's expansion on the
    leading argument, f(x, rest) = x ? f1(rest) : f0(rest), where f1 and
    f0 are the high and low halves of `code`.  Each argument is a packed
    code over the bits of `rowmask`, either an int or a numpy array (the
    arrays broadcast against each other), and the result has the same
    form.  `cache` keeps each (subfunction, k) result below the top
    level, so a subfunction over the trailing arguments is evaluated
    once, also across calls of one arity that share those arguments.

    Every level muxes with its argument, so an array result spans every
    argument axis.  A constant subfunction is never short-circuited to a
    scalar: callers unravel flat indexes against the full broadcast shape.
    """
    if k == 0:
        return rowmask if code else 0
    key = (code, k)
    res = cache.get(key)
    if res is None:
        half_bits = 1 << (k - 1)
        hi = shannon(code >> half_bits, k - 1, args, rowmask, cache)
        lo = shannon(code & ((1 << half_bits) - 1), k - 1, args, rowmask, cache)
        x = args[-k]  # the leading one of the k arguments still to expand
        res = (x & hi) | (~x & rowmask & lo)
        if k < len(args):  # the top level depends on the leading argument
            cache[key] = res
    return res


def compose_codes(gate_code: int, gate_arity: int, arg_codes: Sequence[int], arg_arity: int) -> int:
    """Pointwise composition on packed codes; see `compose`."""
    return shannon(gate_code, gate_arity, arg_codes, (1 << (1 << arg_arity)) - 1, {})


def compose(gate: TruthTable, args: Sequence[TruthTable]) -> TruthTable:
    """Apply `gate` to argument functions of a common arity.

    The result maps x to gate(args[0](x), ..., args[N-1](x)).
    """
    if len(args) != gate.arity:
        raise ValueError(f"gate of arity {gate.arity} applied to {len(args)} arguments")
    arities = {a.arity for a in args}
    if len(arities) != 1:
        raise ValueError(f"argument arities differ: {sorted(arities)}")
    k = args[0].arity
    return TruthTable(k, compose_codes(gate.code, gate.arity, [a.code for a in args], k))

"""Packed truth-table representation of small Boolean functions.

An N-input gate (1 <= N <= 6) is stored as the integer whose bit r holds
the output for input row r.  Variable 0 ("A") is the most significant bit
of the row index, so row 0 is the all-zeros assignment and row 2**N - 1
the all-ones assignment.  Under this convention the hexadecimal rendering
of 2-input NOR is "1", NAND is "7" and the 3-input majority gate is "E8".

Every value here is immutable and every operation is pure, so tables can
be shared freely between concurrent workers.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

MAX_ARITY = 6

_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


def hex_width(arity: int) -> int:
    """Number of hex digits in the zero-padded encoding of an `arity`-input gate."""
    return max(1, (1 << arity) // 4)


def _check_arity(arity: int) -> None:
    if not isinstance(arity, int) or not 1 <= arity <= MAX_ARITY:
        raise ValueError(f"arity must be an integer in 1..{MAX_ARITY}, got {arity!r}")


# Slotted, and pickled as its constructor call: a census row holds its
# gate, and 65,536 rows cross from the census workers at four inputs.
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
        if not isinstance(self.code, int) or not 0 <= self.code < (1 << self.n_rows):
            raise ValueError(
                f"code must be in 0..{(1 << self.n_rows) - 1} for arity {self.arity}, "
                f"got {self.code!r}"
            )

    def __reduce__(self):
        return TruthTable, (self.arity, self.code)

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
        width = hex_width(arity)
        if len(text) != width:
            raise ValueError(
                f"expected exactly {width} hex digit(s) for arity {arity}, got {text!r}"
            )
        if not set(text) <= _HEX_DIGITS:
            raise ValueError(f"invalid hex encoding {text!r}")
        code = int(text, 16)
        if code >= 1 << (1 << arity):
            raise ValueError(f"{text!r} does not fit a {arity}-input table")
        return cls(arity, code)

    @classmethod
    def from_rows(cls, arity: int, rows: Iterable[int]) -> "TruthTable":
        """Build a table from its 2**arity output bits, row 0 first."""
        _check_arity(arity)
        bits = [1 if b else 0 for b in rows]
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

    def row(self, r: int) -> int:
        if not 0 <= r < self.n_rows:
            raise ValueError(f"row {r} out of range for arity {self.arity}")
        return (self.code >> r) & 1

    def evaluate(self, assignment: Sequence[int]) -> int:
        """Output bit for one assignment (variable 0 first)."""
        bits = list(assignment)
        if len(bits) != self.arity:
            raise ValueError(
                f"assignment of length {len(bits)} for a {self.arity}-input table"
            )
        r = 0
        for b in bits:
            r = (r << 1) | (1 if b else 0)
        return (self.code >> r) & 1

    def cofactor(self, var: int, value: int) -> "TruthTable":
        """Restriction with variable `var` fixed to `value`.

        Remaining variables keep their relative order.  Requires at
        least two inputs: the type space stays closed over gates, so a
        1-input table has no cofactor here.
        """
        if self.arity < 2:
            raise ValueError("cofactor of a 1-input table would be a constant")
        if not 0 <= var < self.arity:
            raise ValueError(f"variable {var} out of range for arity {self.arity}")
        pos = self.arity - 1 - var  # row-index bit of the fixed variable
        bit = 1 if value else 0
        out = 0
        for nr in range(1 << (self.arity - 1)):
            low = nr & ((1 << pos) - 1)
            r = ((nr >> pos) << (pos + 1)) | (bit << pos) | low
            out |= ((self.code >> r) & 1) << nr
        return TruthTable(self.arity - 1, out)

    def dual(self) -> "TruthTable":
        """The dual function x -> NOT f(NOT x)."""
        m = self.n_rows
        reversed_code = int(format(self.code, f"0{m}b")[::-1], 2)
        return TruthTable(self.arity, reversed_code ^ ((1 << m) - 1))

    def permute(self, mapping: Sequence[int]) -> "TruthTable":
        """Relabel inputs: old variable k becomes variable `mapping[k]`."""
        n = self.arity
        perm = list(mapping)
        if sorted(perm) != list(range(n)):
            raise ValueError(f"{mapping!r} is not a permutation of 0..{n - 1}")
        inv = [0] * n
        for old, new in enumerate(perm):
            inv[new] = old
        out = 0
        for nr in range(self.n_rows):
            r = 0
            for j in range(n):
                bit = (nr >> (n - 1 - j)) & 1
                r |= bit << (n - 1 - inv[j])
            out |= ((self.code >> r) & 1) << nr
        return TruthTable(n, out)

    def __repr__(self) -> str:
        return f"TruthTable({self.arity}, 0x{self.to_hex()})"


def variable_pattern(arity: int, bitpos: int) -> int:
    """Packed table whose bit r is set iff bit `bitpos` of r is set."""
    out = 0
    for r in range(1 << arity):
        if (r >> bitpos) & 1:
            out |= 1 << r
    return out


def projection(arity: int, var: int) -> TruthTable:
    """The identity function on variable `var`."""
    _check_arity(arity)
    if not 0 <= var < arity:
        raise ValueError(f"variable {var} out of range for arity {arity}")
    return TruthTable(arity, variable_pattern(arity, arity - 1 - var))


def constant(arity: int, value: int) -> TruthTable:
    """The constant-0 or constant-1 function."""
    _check_arity(arity)
    return TruthTable(arity, ((1 << (1 << arity)) - 1) if value else 0)


def compose_codes(gate_code: int, gate_arity: int, arg_codes: Sequence[int], arg_arity: int) -> int:
    """Pointwise composition on packed codes; see `compose`."""
    out = 0
    for r in range(1 << arg_arity):
        idx = 0
        for c in arg_codes:
            idx = (idx << 1) | ((c >> r) & 1)
        out |= ((gate_code >> idx) & 1) << r
    return out


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

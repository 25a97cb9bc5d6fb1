"""Post-class predicates and universality verdicts for single gates.

A gate is functionally complete on its own (a Sheffer function) exactly
when it preserves neither constant input row and is not self-dual.  With
the constants 0 and 1 added to the set, completeness relaxes to "neither
monotone nor affine".  Both verdicts are cheap structural tests; the
closure module provides the exhaustive oracle they are validated against.
"""
from __future__ import annotations

from dataclasses import dataclass

from .bitfunc import TruthTable, variable_pattern

#: (report column, `Classification` attribute) for every flag, in the
#: order the CSV, JSON and CLI renderings list them.
FLAG_FIELDS = (
    ("t0", "preserves_zero"),
    ("t1", "preserves_one"),
    ("selfdual", "self_dual"),
    ("monotone", "monotone"),
    ("affine", "affine"),
    ("universal_alone", "universal_alone"),
    ("universal_with_constants", "universal_with_constants"),
)


@dataclass(frozen=True, slots=True)
class Classification:
    """Post-class flags plus both universality verdicts for one gate."""

    gate: TruthTable
    preserves_zero: bool
    preserves_one: bool
    self_dual: bool
    monotone: bool
    affine: bool
    universal_alone: bool
    universal_with_constants: bool


def preserves_zero(tt: TruthTable) -> bool:
    """True iff f(0, ..., 0) = 0 (membership in T0)."""
    return (tt.code & 1) == 0


def preserves_one(tt: TruthTable) -> bool:
    """True iff f(1, ..., 1) = 1 (membership in T1)."""
    return (tt.code >> (tt.n_rows - 1)) & 1 == 1


def is_self_dual(tt: TruthTable) -> bool:
    """True iff f(NOT x) = NOT f(x) for every assignment."""
    return tt.dual() == tt


def is_monotone(tt: TruthTable) -> bool:
    """True iff x <= y bitwise implies f(x) <= f(y)."""
    # Monotone in the lattice iff monotone in each coordinate separately.
    code = tt.code
    for pos in range(tt.arity):
        ones = variable_pattern(tt.arity, pos)
        zeros = ((1 << tt.n_rows) - 1) ^ ones
        low = code & zeros
        high = (code >> (1 << pos)) & zeros
        if low & ~high:
            return False
    return True


def is_affine(tt: TruthTable) -> bool:
    """True iff f is a parity of a subset of inputs plus a constant.

    Computed from the algebraic normal form: affine means no monomial
    of degree two or more.
    """
    anf = tt.code
    full = (1 << tt.n_rows) - 1
    for pos in range(tt.arity):
        zeros = full ^ variable_pattern(tt.arity, pos)
        anf ^= (anf & zeros) << (1 << pos)
    allowed = 1
    for pos in range(tt.arity):
        allowed |= 1 << (1 << pos)
    return anf & ~allowed == 0


def universal_alone(tt: TruthTable) -> bool:
    """True iff the gate alone forms a functionally complete set."""
    return not (preserves_zero(tt) or preserves_one(tt) or is_self_dual(tt))


def universal_with_constants(tt: TruthTable) -> bool:
    """True iff the set {gate, 0, 1} is functionally complete."""
    return not (is_monotone(tt) or is_affine(tt))


def classify(tt: TruthTable) -> Classification:
    """All class flags and both verdicts for one gate.

    Each predicate runs once; the verdicts are the same formulas as
    `universal_alone` and `universal_with_constants`, read off the flags.
    """
    t0, t1, self_dual = preserves_zero(tt), preserves_one(tt), is_self_dual(tt)
    monotone, affine = is_monotone(tt), is_affine(tt)
    return Classification(
        gate=tt,
        preserves_zero=t0,
        preserves_one=t1,
        self_dual=self_dual,
        monotone=monotone,
        affine=affine,
        universal_alone=not (t0 or t1 or self_dual),
        universal_with_constants=not (monotone or affine),
    )


def universality_scan(tt: TruthTable) -> bool:
    """Row-scan form of the standalone universality verdict.

    Checks the two endpoint rows, then searches the first half of the
    table for an index whose output equals that of its mirrored row --
    a witness against self-duality.  Agrees with `universal_alone` on
    every gate; kept as an independently testable formulation.
    """
    rows = tt.rows
    m = tt.n_rows
    if rows[0] == 1 and rows[m - 1] == 0:
        i = 1
        while i <= m // 2:
            if rows[i] == rows[m - i - 1]:
                return True
            i += 1
    return False


def hex_fast_track(tt: TruthTable) -> bool:
    """Sufficient test for universality with constants, from the encoding.

    The two halves of the encoding are the cofactors on the leading
    variable A (low half A=0, high half A=1), and a cofactor that is
    universal with constants forces the whole gate to be.  At three
    inputs the halves are the two hex digits, so the test reads "some
    digit is in {1, 2, 4, 7, B, D}", the six 2-input gates universal
    with constants.  Returns True only when certified; False is
    inconclusive, never a contrary verdict.
    """
    if tt.arity < 3:
        raise ValueError("the fast track needs at least 3 inputs")
    half = tt.n_rows // 2
    halves = (tt.code & ((1 << half) - 1), tt.code >> half)
    return any(universal_with_constants(TruthTable(tt.arity - 1, c)) for c in halves)

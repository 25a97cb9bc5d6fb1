"""Post-class predicates and universality verdicts.

A gate is functionally complete on its own (a Sheffer function) exactly
when it preserves neither constant input row and is not self-dual.  With
the constants 0 and 1 added to the set, completeness relaxes to "neither
monotone nor affine".  `post_classes` decides the five classes and both
verdicts once, with bit operations that serve one int code and a numpy
column of codes alike: `classify`, the predicates and
`clones.membership` all read it.  The closure module provides the
exhaustive oracle the verdicts are validated against.
"""
from __future__ import annotations

from dataclasses import dataclass

from .bitfunc import TruthTable, dual_codes, variable_pattern

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


def post_classes(codes, n: int) -> dict:
    """The five Post-class flags and both verdicts of `n`-input `codes`.

    `codes` is an int code, giving bools, or a numpy array of codes, giving
    boolean arrays; keyed by the `Classification` attribute names.
    """
    full = (1 << (1 << n)) - 1
    rising = 0  # rows where f is 1 and setting one 0-input to 1 gives 0
    anf = codes
    linear = 1  # the ANF monomials an affine function may use
    for pos in range(n):  # `zeros`: the rows where the variable is 0
        shift, zeros = 1 << pos, full ^ variable_pattern(n, pos)
        rising = rising | codes & zeros & ~(codes >> shift)
        anf = anf ^ (anf & zeros) << shift
        linear |= 1 << shift
    t0 = codes & 1 == 0
    t1 = codes >> ((1 << n) - 1) & 1 == 1
    self_dual = dual_codes(codes, n) == codes
    monotone = rising == 0
    affine = anf & (full ^ linear) == 0
    return {"preserves_zero": t0, "preserves_one": t1, "self_dual": self_dual,
            "monotone": monotone, "affine": affine,
            "universal_alone": (t0 | t1 | self_dual) == 0,
            "universal_with_constants": (monotone | affine) == 0}


def classify(tt: TruthTable) -> Classification:
    """All class flags and both verdicts for one gate."""
    return Classification(tt, **post_classes(tt.code, tt.arity))


def preserves_zero(tt: TruthTable) -> bool:
    """True iff f(0, ..., 0) = 0 (membership in T0)."""
    return post_classes(tt.code, tt.arity)["preserves_zero"]


def preserves_one(tt: TruthTable) -> bool:
    """True iff f(1, ..., 1) = 1 (membership in T1)."""
    return post_classes(tt.code, tt.arity)["preserves_one"]


def is_self_dual(tt: TruthTable) -> bool:
    """True iff f(NOT x) = NOT f(x) for every assignment."""
    return post_classes(tt.code, tt.arity)["self_dual"]


def is_monotone(tt: TruthTable) -> bool:
    """True iff x <= y bitwise implies f(x) <= f(y)."""
    return post_classes(tt.code, tt.arity)["monotone"]


def is_affine(tt: TruthTable) -> bool:
    """True iff f is a parity of a subset of inputs plus a constant."""
    return post_classes(tt.code, tt.arity)["affine"]


def universal_alone(tt: TruthTable) -> bool:
    """True iff the gate alone forms a functionally complete set."""
    return post_classes(tt.code, tt.arity)["universal_alone"]


def universal_with_constants(tt: TruthTable) -> bool:
    """True iff the set {gate, 0, 1} is functionally complete."""
    return post_classes(tt.code, tt.arity)["universal_with_constants"]


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
    return any(post_classes(c, tt.arity - 1)["universal_with_constants"] for c in halves)

"""Post's lattice as boolean columns: class membership and the clone oracle.

The two halves of a gate's encoding are its cofactors on the leading
input A: with `half` rows per cofactor, code ``c = f0 | f1 << half``,
where f0 is the low half (A=0) and f1 the high half (A=1).  Each Post
class is decided from the halves by recursion on arity (Post 1941):

- M (monotone): M(f0), M(f1) and f0 <= f1 bitwise;
- L (affine): L(f0), L(f1) and f0 XOR f1 constant (all zeros or ones);
- S (self-dual): f0 is the dual of f1, because the dual of f has the
  duals of f1 and f0 as its low and high halves;
- T0 and T1 are the bits of rows 0 and 2**N - 1.

Laid out as a ``[f1, f0]`` matrix, the code-ordered column of arity N
is the outer combination of the arity N-1 column with itself, so a whole
arity costs a few array operations.  The scalar predicates in
`sheffer.classify` decide the same classes for one gate at a time.

The clone oracle decides closures without enumerating circuits.  The
closure of a non-constant gate is the N-ary part of the clone it
generates, and every clone is the intersection of the meet-irreducible
clones that contain it (Post 1941; Boehler, Creignou, Reith and
Vollmer, "Playing with Boolean blocks I", SIGACT News 2003).  Besides
T0, T1, S, M and L those are:

- Λ: conjunctions of a subset of the inputs, and the constants;
- V: disjunctions of a subset of the inputs, and the constants;
- U: the functions of at most one input;
- P_k: any k or fewer rows where f is 1 share an input that is 1 in
  all of them;
- Q_k: any k or fewer rows where f is 0 share an input that is 0 in
  all of them.

"Or fewer" matters: NOR has a single 1-row, which has no 1-coordinate.
For N-ary functions P_N already equals P_k for every larger k: rows
with no common 1-input include, for each input, a row where it is 0,
and those N rows already have none.  So k runs over 2..N; P_1 and Q_1
are T0 and T1.  A non-constant gate
realizes every projection (G(x, ..., x) is x, its negation, or a
constant that one row of G turns back into x), so its realized set is
the intersection of the columns of every listed clone containing it.
With the constants 0 and 1 seeded, only the clones containing both take
part.  A constant gate realizes only itself.  `sheffer.closure`
enumerates the same sets circuit by circuit; the tests check each
against the other.
"""
from __future__ import annotations

from functools import cache, reduce
from itertools import combinations
from operator import and_, or_
from typing import NamedTuple

from .bitfunc import TruthTable, variable_pattern
from .classify import classify

#: Largest arity `membership` and the clone oracle build: their columns
#: have 2**(2**N) entries.
MAX_COLUMN_ARITY = 4


def _check_arity(n: object) -> None:
    if not isinstance(n, int) or isinstance(n, bool) or not 1 <= n <= MAX_COLUMN_ARITY:
        raise ValueError(f"n must be an integer in 1..{MAX_COLUMN_ARITY}, got {n!r}")


def membership(n: int) -> dict:
    """Class flags and both verdicts for every code of arity `n` (1..4).

    Returns boolean numpy arrays of length 2**(2**n) indexed by code,
    keyed by the `Classification` attribute names.
    """
    _check_arity(n)
    import numpy as np

    # Arity 0: the constants 0 and 1, both monotone and affine, each the
    # dual of the other.
    monotone = affine = np.ones(2, dtype=bool)
    dual = np.array([1, 0], dtype=np.uint32)
    for k in range(1, n + 1):
        half = 1 << (k - 1)
        sub = np.arange(1 << half, dtype=np.uint32)
        f1, f0 = sub[:, None], sub[None, :]
        diff = f0 ^ f1
        monotone = (monotone[:, None] & monotone[None, :] & ((f0 & ~f1) == 0)).ravel()
        affine = (affine[:, None] & affine[None, :]
                  & ((diff == 0) | (diff == (1 << half) - 1))).ravel()
        dual = (dual[:, None] | (dual[None, :] << half)).ravel()
    codes = np.arange(dual.size, dtype=np.uint32)
    preserves_zero = (codes & 1) == 0
    preserves_one = ((codes >> ((1 << n) - 1)) & 1) == 1
    self_dual = dual == codes
    return {
        "preserves_zero": preserves_zero,
        "preserves_one": preserves_one,
        "self_dual": self_dual,
        "monotone": monotone,
        "affine": affine,
        "universal_alone": ~(preserves_zero | preserves_one | self_dual),
        "universal_with_constants": ~(monotone | affine),
    }


#: The five classes of `membership`, as clone names and `Classification` attributes.
_POST_CLASSES = (
    ("T0", "preserves_zero"),
    ("T1", "preserves_one"),
    ("S", "self_dual"),
    ("M", "monotone"),
    ("L", "affine"),
)


class ClosureSet(NamedTuple):
    """The exact closure of one gate: a bitset over all 2**(2**N) codes and its size."""

    realized: int
    count: int


@cache
def _small_clones(n: int) -> tuple[tuple[str, frozenset[int]], ...]:
    """(name, members) of Λ, V and U at arity `n`, which are few enough to list."""
    full = (1 << (1 << n)) - 1
    xs = [variable_pattern(n, pos) for pos in range(n)]
    subsets = [s for k in range(n + 1) for s in combinations(xs, k)]
    return (
        ("Λ", frozenset({0} | {reduce(and_, s, full) for s in subsets})),
        ("V", frozenset({full} | {reduce(or_, s, 0) for s in subsets})),
        ("U", frozenset({0, full, *xs, *(full ^ x for x in xs)})),
    )


@cache
def _separating_masks(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per k in 1..n, the (mask, value) pairs that exclude a code from P_k or Q_k.

    A mask covers a minimal set of k rows with no input that is 1 in all
    of them; a code is outside P_k when its bits under some such mask of
    at most k rows are all 1.  Complementing every row gives the sets with
    no common 0-input, and a code is outside Q_k when its bits under one
    of those are all 0.  Entry k-1 holds the pairs of size exactly k.
    """
    top = (1 << n) - 1

    def meet(rows: tuple[int, ...]) -> int:
        return reduce(and_, rows, top)

    out = []
    for k in range(1, n + 1):
        pairs = []
        for rows in combinations(range(1 << n), k):
            if meet(rows) or not all(meet(rows[:i] + rows[i + 1:]) for i in range(k)):
                continue
            ones = sum(1 << r for r in rows)
            pairs.append((ones, ones))
            pairs.append((sum(1 << (top - r) for r in rows), 0))
        out.append(tuple(pairs))
    return tuple(out)


def _separating(codes, n: int):
    """{"Pk"/"Qk": membership} for k in 2..n; `codes` is an int or a numpy array."""
    in_p = in_q = True
    p, q = {}, {}
    for k, pairs in enumerate(_separating_masks(n), 1):
        for mask, value in pairs:
            if value:
                in_p = in_p & ((codes & mask) != value)
            else:
                in_q = in_q & ((codes & mask) != value)
        if k >= 2:
            p[f"P{k}"], q[f"Q{k}"] = in_p, in_q
    return {**p, **q}


def clones_of(gate: TruthTable) -> tuple[str, ...]:
    """The names of the listed clones that contain `gate`, in column order.

    Scalar counterpart of `clone_columns`: the five Post classes come
    from `classify`, the rest from the same member lists and row masks.
    """
    _check_arity(gate.arity)
    flags = classify(gate)
    return (*(name for name, attr in _POST_CLASSES if getattr(flags, attr)),
            *(name for name, members in _small_clones(gate.arity)
              if gate.code in members),
            *(name for name, inside in _separating(gate.code, gate.arity).items() if inside))


def clone_columns(n: int) -> dict:
    """Membership of every code of arity `n` (1..4) in each listed clone.

    Returns boolean numpy arrays of length 2**(2**n) indexed by code,
    keyed by clone name: T0, T1, S, M, L, Λ, V, U, then P2..Pn and Q2..Qn.
    """
    _check_arity(n)
    import numpy as np

    classes = membership(n)
    columns = {name: classes[attr] for name, attr in _POST_CLASSES}
    size = 1 << (1 << n)
    for name, members in _small_clones(n):
        column = np.zeros(size, dtype=bool)
        column[sorted(members)] = True
        columns[name] = column
    columns.update(_separating(np.arange(size, dtype=np.uint32), n))
    return columns


def _signatures(n: int):
    """Per code, the bitmask of the clones containing it; and the mask of those with 0 and 1."""
    import numpy as np

    columns = clone_columns(n)
    signature = np.zeros(1 << (1 << n), dtype=np.uint32)
    for bit, column in enumerate(columns.values()):
        signature |= column.astype(np.uint32) << bit
    return signature, int(signature[0] & signature[-1])


def closure_set(gate: TruthTable, constants: bool = False) -> ClosureSet:
    """Every function `gate` realizes, without or with the constants, exactly.

    The arity is 1..4.  A non-constant gate realizes the codes that lie
    in every listed clone containing it (every such clone containing 0
    and 1, with constants); a constant gate realizes only itself.
    """
    _check_arity(gate.arity)
    import numpy as np

    if gate.code in (0, (1 << gate.n_rows) - 1):
        return ClosureSet(1 << gate.code, 1)
    signature, both = _signatures(gate.arity)
    wanted = int(signature[gate.code]) & (both if constants else -1)
    realized = (signature & wanted) == wanted
    bits = int.from_bytes(np.packbits(realized, bitorder="little").tobytes(), "little")
    return ClosureSet(bits, int(np.count_nonzero(realized)))


def closure_counts(n: int) -> tuple:
    """Closure sizes of every code of arity `n`, without and with constants.

    Two integer numpy arrays indexed by code, each entry the `count` of
    `closure_set` for that code.  Codes sharing a signature share their
    counts, so one popcount serves each distinct signature.
    """
    import numpy as np

    signature, both = _signatures(n)
    distinct, index = np.unique(signature, return_inverse=True)

    def counts(wanted):
        return np.array([np.count_nonzero((signature & w) == w) for w in wanted.tolist()])

    plain, const = counts(distinct)[index], counts(distinct & both)[index]
    plain[[0, -1]] = const[[0, -1]] = 1  # a constant gate realizes only itself
    return plain, const


def realizes(gate: TruthTable, target: TruthTable, constants: bool = False) -> bool:
    """True iff `gate` realizes `target` (same arity, 1..4), decided per code.

    The scalar form of a `closure_set` bit: every clone that contains the
    gate (and both constants, with constants) must contain the target.
    """
    _check_arity(gate.arity)
    if gate.arity != target.arity:
        raise ValueError(f"gate arity {gate.arity} differs from target arity {target.arity}")
    full = (1 << gate.n_rows) - 1
    if gate.code in (0, full):
        return target.code == gate.code
    wanted = set(clones_of(gate))
    if constants:
        wanted &= _clones_with_constants(gate.arity)
    return wanted <= set(clones_of(target))


@cache
def _clones_with_constants(n: int) -> frozenset[str]:
    """The listed clones at arity `n` that contain both constants."""
    full = (1 << (1 << n)) - 1
    return frozenset(clones_of(TruthTable(n, 0))) & frozenset(clones_of(TruthTable(n, full)))

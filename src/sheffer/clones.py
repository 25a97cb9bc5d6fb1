"""Post's lattice as boolean columns: class membership and the clone oracle.

`classify.post_classes` decides T0, T1, S, M and L for one code or a
numpy column of codes, so `membership` is that evaluator on every code
of an arity at once, and `clones_of` and `clone_columns` read every
listed clone off one function, `_listed`, on one code or on that column.

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
Tuples may repeat rows (AND is idempotent), so f is in P_k exactly when
no k-tuple of its one-rows lacks a common 1-input.  If up(m) counts the
one-rows that are 1 on every input in m, inclusion-exclusion counts those
tuples as sum over m of (-1)**|m| * up(m)**k.  f is in Q_k when its dual is in P_k.
For N-ary functions P_N already equals P_k for every larger k: rows
with no common 1-input include, for each input, a row where it is 0,
and those N rows already have none.  So k runs over 2..N; P_1 and Q_1
are T0 and T1.  A code's signature is the set of listed clones that
contain it.  A non-constant gate realizes every projection (G(x, ..., x)
is x, its negation, or a constant that one row of G turns back into x),
so the clone a set of gates generates has as its signature the AND of
the members' signatures, and it realizes every code whose signature
includes that one.  With constants the members are the gate, 0 and 1.
A constant gate realizes only itself.  `sheffer.closure` enumerates the
same sets circuit by circuit; the tests check each against the other.
"""
from __future__ import annotations

from functools import cache, reduce
from itertools import combinations
from operator import and_, or_
from typing import NamedTuple

from .bitfunc import TruthTable, _check_arity, dual_codes, variable_pattern
from .classify import post_classes

#: Largest arity `membership` and the clone oracle build: their columns
#: have 2**(2**N) entries.
MAX_COLUMN_ARITY = 4


def membership(n: int) -> dict:
    """Class flags and both verdicts for every code of arity `n` (1..4).

    Returns boolean numpy arrays of length 2**(2**n) indexed by code,
    keyed by the `Classification` attribute names: `post_classes` on
    the codes in the narrowest unsigned dtype that holds them.
    """
    _check_arity(n, MAX_COLUMN_ARITY)
    import numpy as np

    size = 1 << (1 << n)
    return post_classes(np.arange(size, dtype=np.min_scalar_type(size - 1)), n)


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


def _separating(codes, n: int):
    """{"Pk"/"Qk": membership} for k in 2..n; `codes` is an int or a numpy array.

    An array's counts wrap modulo its dtype and stay exact while (2**n)**n
    fits: uint32 does through n = 5, (2**5)**5 = 2**25, but uint16 would
    wrap 16**4 to 0.
    """
    top = (1 << n) - 1
    inside = {}
    for name, ones in (("P", codes), ("Q", dual_codes(codes, n))):  # f in Q_k: dual in P_k
        up = [ones >> r & 1 for r in range(top + 1)]
        for bit in (1 << i for i in range(n)):  # superset sums: up[m] becomes up(m)
            for m in range(top + 1):
                if not m & bit:
                    up[m] += up[m | bit]
        counts = dict.fromkeys(range(2, n + 1), 0)  # k: k-tuples with no common 1-input
        for m, u in enumerate(up):
            power = u
            for k in counts:
                power = power * u
                counts[k] = counts[k] - power if m.bit_count() & 1 else counts[k] + power
        inside.update((f"{name}{k}", count == 0) for k, count in counts.items())
    return inside


def _listed(codes, n: int) -> dict:
    """{clone name: membership} of `codes` in every listed clone, in column order.

    `codes` is an int code, giving bools, or a numpy array of codes,
    giving boolean arrays; see `_separating` for the array's dtype.
    """
    classes = post_classes(codes, n)
    inside = {name: classes[attr] for name, attr in _POST_CLASSES}
    if isinstance(codes, int):
        inside.update((name, codes in members) for name, members in _small_clones(n))
    else:
        import numpy as np

        inside.update((name, np.isin(codes, sorted(members)))
                      for name, members in _small_clones(n))
    inside.update(_separating(codes, n))
    return inside


def clones_of(gate: TruthTable) -> tuple[str, ...]:
    """The names of the listed clones that contain `gate`, in column order.

    Scalar counterpart of `clone_columns`: `_listed` on the one code,
    without numpy.
    """
    _check_arity(gate.arity, MAX_COLUMN_ARITY)
    return tuple(name for name, inside in _listed(gate.code, gate.arity).items() if inside)


def clone_columns(n: int) -> dict:
    """Membership of every code of arity `n` (1..4) in each listed clone.

    Returns boolean numpy arrays of length 2**(2**n) indexed by code,
    keyed by clone name: T0, T1, S, M, L, Λ, V, U, then P2..Pn and Q2..Qn.
    """
    _check_arity(n, MAX_COLUMN_ARITY)
    import numpy as np

    return _listed(np.arange(1 << (1 << n), dtype=np.uint32), n)


@cache
def _signatures(n: int):
    """Per code, a read-only bitmask whose bit i is the i-th `clone_columns` entry.

    Callers check `n` first, so that only a valid arity reaches the cache.
    """
    import numpy as np

    signature = np.zeros(1 << (1 << n), dtype=np.uint32)
    for bit, column in enumerate(clone_columns(n).values()):
        signature |= column.astype(np.uint32) << bit
    signature.flags.writeable = False
    return signature


def closure_set(gate: TruthTable, constants: bool = False) -> ClosureSet:
    """Every function `gate` realizes, without or with the constants, exactly.

    The arity is 1..4.  The clone generated by {gate}, or {gate, 0, 1} with
    constants, holds every code whose signature includes the AND of its
    members' signatures.  A constant gate realizes only itself.
    """
    _check_arity(gate.arity, MAX_COLUMN_ARITY)
    import numpy as np

    if gate.code in (0, (1 << gate.n_rows) - 1):
        return ClosureSet(1 << gate.code, 1)
    signature = _signatures(gate.arity)
    members = [gate.code, 0, -1] if constants else [gate.code]
    wanted = np.bitwise_and.reduce(signature[members])
    realized = (signature & wanted) == wanted
    bits = int.from_bytes(np.packbits(realized, bitorder="little").tobytes(), "little")
    return ClosureSet(bits, int(np.count_nonzero(realized)))


def closure_counts(n: int) -> tuple:
    """Closure sizes of every code of arity `n`, without and with constants.

    Two integer numpy arrays indexed by code, each entry the `count` of
    `closure_set` for that code.  Codes sharing a signature share their
    counts, so one popcount serves each distinct signature.
    """
    _check_arity(n, MAX_COLUMN_ARITY)
    import numpy as np

    signature = _signatures(n)
    distinct, index = np.unique(signature, return_inverse=True)

    def counts(wanted):
        return np.array([np.count_nonzero((signature & w) == w) for w in wanted.tolist()])

    plain, const = counts(distinct)[index], counts(distinct & signature[0] & signature[-1])[index]
    plain[[0, -1]] = const[[0, -1]] = 1  # a constant gate realizes only itself
    return plain, const


def realizes(gate: TruthTable, target: TruthTable, constants: bool = False) -> bool:
    """True iff `gate` realizes `target` (same arity, 1..4): one `closure_set` bit.

    That bit is set when the target's signature includes the AND of the members' signatures.
    """
    if gate.arity != target.arity:
        raise ValueError(f"gate arity {gate.arity} differs from target arity {target.arity}")
    return bool(closure_set(gate, constants).realized >> target.code & 1)

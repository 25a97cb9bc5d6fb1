"""Post-class membership of every gate of one arity, as boolean columns.

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
"""
from __future__ import annotations

#: Largest arity `membership` builds: its columns have 2**(2**N) entries.
MAX_COLUMN_ARITY = 4


def membership(n: int) -> dict:
    """Class flags and both verdicts for every code of arity `n` (1..4).

    Returns boolean numpy arrays of length 2**(2**n) indexed by code,
    keyed by the `Classification` attribute names.
    """
    if not isinstance(n, int) or isinstance(n, bool) or not 1 <= n <= MAX_COLUMN_ARITY:
        raise ValueError(f"n must be an integer in 1..{MAX_COLUMN_ARITY}, got {n!r}")
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

"""Independent oracles for the benchmark's output checks.

Nothing here calls the library under test.  Post-class predicates are
evaluated row by row from their definitions, witness circuits by table
lookup, closures by a brute-force closedness test, and closure counts
come from the checked-in reference CSVs.  Bit convention (shared with
the library's documented encoding): bit r of a code is the output on
input row r, and variable 0 is the most significant bit of r.
"""
from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

CENSUS_HEADER = (
    "code,t0,t1,selfdual,monotone,affine,universal_alone,"
    "universal_with_constants,closure_plain,closure_const,fast_track"
)

#: The checked-in reference CSVs a census of each arity is diffed against.
REFERENCES = {
    2: ("n2_closure_counts.csv",),
    3: (
        "n3_universal_alone.csv",
        "n3_closure_counts.csv",
        "n3_nonuniversal_with_constants.csv",
        "n3_extra_universal_with_constants.csv",
    ),
    4: (),
}


def hex_width(arity: int) -> int:
    return max(1, (1 << arity) // 4)


def to_hex(code: int, arity: int) -> str:
    return format(code, f"0{hex_width(arity)}X")


def bits(codes, arity: int) -> np.ndarray:
    """Truth-table bits, shape (len(codes), 2**arity), row 0 first."""
    codes = np.asarray(codes, dtype=np.uint64).reshape(-1)
    rows = np.arange(1 << arity, dtype=np.uint64)
    return ((codes[:, None] >> rows[None, :]) & np.uint64(1)).astype(np.uint8)


def _monotone(b: np.ndarray) -> np.ndarray:
    m = b.shape[1]
    ok = np.ones(b.shape[0], dtype=bool)
    for r in range(m):
        step = 1
        while step < m:
            if not r & step:
                ok &= b[:, r] <= b[:, r | step]
            step <<= 1
    return ok


def _affine(b: np.ndarray) -> np.ndarray:
    # f is affine iff f(x ^ y) ^ f(x) ^ f(y) ^ f(0) = 0 for all rows x, y.
    m = b.shape[1]
    bad = np.zeros(b.shape[0], dtype=bool)
    rows = np.arange(m)
    for x in range(m):
        mixed = b[:, rows ^ x] ^ b[:, [x]] ^ b ^ b[:, [0]]
        bad |= mixed.any(axis=1)
    return ~bad


def predicates(codes, arity: int) -> dict[str, np.ndarray]:
    """Every census flag, as boolean arrays aligned with `codes`."""
    b = bits(codes, arity)
    m = b.shape[1]
    t0 = b[:, 0] == 0
    t1 = b[:, m - 1] == 1
    selfdual = (b != b[:, ::-1]).all(axis=1)
    monotone = _monotone(b)
    affine = _affine(b)
    out = {
        "t0": t0,
        "t1": t1,
        "selfdual": selfdual,
        "monotone": monotone,
        "affine": affine,
        "universal_alone": ~(t0 | t1 | selfdual),
        "universal_with_constants": ~(monotone | affine),
    }
    if arity >= 3:
        # A cofactor on variable A (the top bit of the row index) that is
        # complete with constants makes the whole gate complete.
        half = m // 2
        lo, hi = b[:, :half], b[:, half:]
        out["fast_track"] = ~(_monotone(lo) | _affine(lo)) | ~(_monotone(hi) | _affine(hi))
    return out


def census_csv(arity: int, closure_plain=None, closure_const=None) -> str:
    """The exact CSV text a census of `arity` must render."""
    codes = np.arange(1 << (1 << arity), dtype=np.uint64)
    flags = predicates(codes, arity)
    names = ("t0", "t1", "selfdual", "monotone", "affine",
             "universal_alone", "universal_with_constants")
    cols = [np.where(flags[n], "1", "0") for n in names]
    ft = None
    if "fast_track" in flags:
        ft = np.where(flags["fast_track"], "confirmed", "inconclusive")
    lines = [CENSUS_HEADER]
    for code in range(len(codes)):
        plain = "" if closure_plain is None else str(closure_plain[code])
        const = "" if closure_const is None else str(closure_const[code])
        cells = [to_hex(code, arity)] + [c[code] for c in cols]
        cells += [plain, const, "" if ft is None else ft[code]]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def read_reference(path: Path) -> dict[int, dict[str, str]]:
    with open(path, newline="") as handle:
        return {int(r["code"], 16): r for r in csv.DictReader(handle)}


def closure_counts(arity: int, data_dir: Path) -> tuple[list[int], list[int]]:
    """Plain and with-constants closure counts for every gate of arity 2 or 3.

    Two-input counts are both in one reference.  At three inputs, plain
    counts are read from the reference; with constants, the reference
    lists the 31 gates that stay incomplete, and every other gate is
    complete with constants, so its closure is all 256 functions.
    """
    if arity == 2:
        ref = read_reference(data_dir / "n2_closure_counts.csv")
        return ([int(ref[c]["closure_plain"]) for c in range(16)],
                [int(ref[c]["closure_const"]) for c in range(16)])
    plain_ref = read_reference(data_dir / "n3_closure_counts.csv")
    const_ref = read_reference(data_dir / "n3_nonuniversal_with_constants.csv")
    plain = [int(plain_ref[c]["closure_plain"]) for c in range(256)]
    const = [int(const_ref[c]["closure_const"]) if c in const_ref else 256
             for c in range(256)]
    return plain, const


def check_references(arity: int, data_dir: Path) -> list[str]:
    """Cross-check the flag columns of the reference CSVs against predicates."""
    flags = predicates(np.arange(1 << (1 << arity)), arity)
    problems = []
    for name in REFERENCES[arity]:
        for code, row in read_reference(data_dir / name).items():
            for field, value in row.items():
                if field in flags and value != ("1" if flags[field][code] else "0"):
                    problems.append(f"{name} {to_hex(code, arity)} {field}={value}")
    return problems


def diff_csv(expected: str, actual: str, limit: int = 3) -> list[str]:
    """Describe the first differing lines of two CSV texts."""
    if expected == actual:
        return []
    exp = expected.splitlines()
    act = actual.splitlines()
    out = []
    if len(exp) != len(act):
        out.append(f"{len(act)} lines, expected {len(exp)}")
    for i, (e, a) in enumerate(zip(exp, act)):
        if e != a:
            out.append(f"line {i + 1}: {a!r}, expected {e!r}")
            if len(out) >= limit:
                break
    return out or ["texts differ"]


def projection_code(arity: int, var: int) -> int:
    pos = arity - 1 - var
    return sum(1 << r for r in range(1 << arity) if (r >> pos) & 1)


def apply_gate(gate: int, arg_codes, arity: int) -> int:
    out = 0
    for r in range(1 << arity):
        idx = 0
        for c in arg_codes:
            idx = (idx << 1) | ((c >> r) & 1)
        out |= ((gate >> idx) & 1) << r
    return out


def eval_circuit(nodes, root: int, gate: int, arity: int, constants: bool) -> int:
    """Code computed by a witness DAG; ValueError if it is malformed."""
    full = (1 << (1 << arity)) - 1
    codes: list[int] = []
    for i, node in enumerate(nodes):
        kind = node[0]
        if kind == "input" and 0 <= node[1] < arity:
            codes.append(projection_code(arity, node[1]))
        elif kind == "const" and constants and node[1] in (0, 1):
            codes.append(full if node[1] else 0)
        elif kind == "apply" and len(node[1]) == arity and all(
            0 <= c < i for c in node[1]
        ):
            codes.append(apply_gate(gate, [codes[c] for c in node[1]], arity))
        else:
            raise ValueError(f"node {i} is malformed: {node!r}")
    if not 0 <= root < len(codes):
        raise ValueError(f"root {root} out of range")
    return codes[root]


def seeds(arity: int, constants: bool) -> list[int]:
    out = [projection_code(arity, k) for k in range(arity)]
    if constants:
        out += [0, (1 << (1 << arity)) - 1]
    return out


def is_closed(gate: int, arity: int, constants: bool, realized: list[int]) -> bool:
    """True iff every gate application over realized-or-seed codes is realized.

    Codes must fit 16 bits (arity <= 4); memory grows as the member
    count to the power `arity`, so callers skip the full space.
    """
    members = np.array(sorted(set(realized) | set(seeds(arity, constants))),
                       dtype=np.uint16)
    mask = np.uint16((1 << (1 << arity)) - 1)
    shape = [1] * arity
    axes = []
    for k in range(arity):
        s = list(shape)
        s[k] = members.size
        axes.append(members.reshape(s))
    out = np.zeros([members.size] * arity, dtype=np.uint16)
    for idx in range(1 << arity):
        if not (gate >> idx) & 1:
            continue
        term = mask
        for k in range(arity):
            bit = (idx >> (arity - 1 - k)) & 1
            term = term & (axes[k] if bit else ~axes[k] & mask)
        out |= term
    table = np.zeros(1 << (1 << arity), dtype=bool)
    table[list(realized)] = True
    return bool(table[out].all())


def post_classes(codes, arity: int) -> np.ndarray:
    """Membership in T0, T1, S, M, L as a (len(codes), 5) boolean array."""
    f = predicates(codes, arity)
    return np.stack([f["t0"], f["t1"], f["selfdual"], f["monotone"], f["affine"]],
                    axis=1)


def within_clone(gate: int, arity: int, constants: bool, realized: list[int]) -> bool:
    """True iff each realized code lies in every Post class holding the generators.

    A clone generated by a set lies inside every Post class that holds
    the whole set, so a code outside one of them cannot be generated.
    """
    generators = [gate] + ([0, (1 << (1 << arity)) - 1] if constants else [])
    required = post_classes(generators, arity).all(axis=0)
    if not realized:
        return True
    member = post_classes(realized, arity)
    return bool(member[:, required].all())


def universal_total(arity: int) -> int:
    """Closed-form count of standalone-universal gates, G/4 - sqrt(G/4)."""
    quarter = 1 << ((1 << arity) - 2)
    return quarter - (1 << ((1 << arity) - 2) // 2)

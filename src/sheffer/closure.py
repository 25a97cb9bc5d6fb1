"""Exhaustive closure of a single generator gate, with witness circuits.

The closure of a gate G is every function expressible as a circuit built
from G alone, applied to the input projections (and, when enabled, the
constants 0 and 1).  A function counts as realized once it is the output
of at least one G-application; the projections themselves are realized
only when G can reproduce them, which is what makes the counts for
degenerate generators (constants, projections) come out right.

The computation runs in rounds: round k composes G over every argument
tuple that contains at least one function first available after round
k-1, so a function discovered in round k has a witness of depth exactly
k and no smaller.  Within its discovery round, a function's stored
witness is the derivation with the fewest distinct gate applications in
its DAG; remaining ties prefer argument tuples whose codes are largest
first, which keeps projection arguments in natural variable order and
lets sibling derivations share subcircuits.  Rounds stop at a fixed
point, or as soon as the full function space is reached (the set is then
trivially closed, so the report is identical to running to quiescence).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .bitfunc import TruthTable, compose_codes, variable_pattern

__all__ = [
    "Circuit",
    "ClosureReport",
    "ClosureBudgetError",
    "generate_closure",
    "synthesize",
    "verify_circuit",
    "circuit_to_json",
    "circuit_from_json",
]

_CHUNK_ELEMS = 1 << 22

#: Circuit node forms: ("input", var), ("const", bit), ("apply", (child ids...)).
Node = tuple


class ClosureBudgetError(RuntimeError):
    """A closure at four inputs was requested without an explicit budget."""


@dataclass(frozen=True)
class Circuit:
    """A witness expression DAG built from one generator gate.

    Nodes are stored children-first, so every "apply" node references
    strictly earlier indices; `root` names the output node.
    """

    arity: int
    nodes: tuple[Node, ...]
    root: int

    @property
    def size(self) -> int:
        """Number of gate applications in the DAG."""
        return sum(1 for n in self.nodes if n[0] == "apply")


@dataclass
class ClosureReport:
    """The exact set of functions one gate generates.

    `realized` is a bitset over all 2**(2**N) codes; `witnesses`, when
    computed, maps each realized code to one minimal witness circuit.
    `complete` is False only when a budget stopped the iteration early,
    in which case `count` is a lower bound.
    """

    generator: TruthTable
    constants_enabled: bool
    realized: int
    count: int
    rounds: int
    complete: bool
    witnesses: dict[int, Circuit] | None

    def is_realized(self, code: int) -> bool:
        return (self.realized >> code) & 1 == 1

    def realized_codes(self) -> Iterator[int]:
        """Realized codes in ascending order."""
        bits = bin(self.realized)[:1:-1]  # bit i of `realized` at index i
        code = bits.find("1")
        while code >= 0:
            yield code
            code = bits.find("1", code + 1)


def seed_codes(arity: int, constants_enabled: bool) -> list[int]:
    """Initial working set: the projections, plus constants when enabled."""
    seeds = {variable_pattern(arity, arity - 1 - k) for k in range(arity)}
    if constants_enabled:
        seeds.add(0)
        seeds.add((1 << (1 << arity)) - 1)
    return sorted(seeds)


def _compose_rec(code: int, k: int, rowmask: int, axes: Sequence[np.ndarray], cache: dict):
    # Shannon expansion on the leading argument; results over the trailing
    # axes are cached so each distinct subfunction is evaluated once.
    if k == 0:
        return np.uint16(rowmask if code else 0)
    key = (code, k)
    hit = cache.get(key)
    if hit is not None:
        return hit
    half_bits = 1 << (k - 1)
    g_hi = code >> half_bits
    g_lo = code & ((1 << half_bits) - 1)
    r1 = _compose_rec(g_hi, k - 1, rowmask, axes[1:], cache)
    r0 = _compose_rec(g_lo, k - 1, rowmask, axes[1:], cache)
    x = axes[0]
    res = (x & r1) | (~x & np.uint16(rowmask) & r0)
    cache[key] = res
    return res


class _WitnessPool:
    """Interned witness nodes plus per-code DAG bitmasks for size scoring."""

    def __init__(self, arity: int, constants_enabled: bool, full: int):
        self.arity = arity
        self.nodes: list[Node] = [("input", k) for k in range(arity)]
        self.arg_root = np.full(full, -1, dtype=np.int64)
        for k in range(arity):
            self.arg_root[variable_pattern(arity, arity - 1 - k)] = k
        if constants_enabled:
            self.nodes.append(("const", 0))
            self.arg_root[0] = arity
            self.nodes.append(("const", 1))
            self.arg_root[full - 1] = arity + 1
        lanes = (full + 63) // 64
        self.masks = np.zeros((full, lanes), dtype=np.uint64)
        self.wit_root: dict[int, int] = {}
        self._n_applies = 0

    def union_apply_counts(self, arg_code_arrays: list[np.ndarray]) -> np.ndarray:
        u = self.masks[arg_code_arrays[0]]
        for a in arg_code_arrays[1:]:
            u = u | self.masks[a]
        return np.bitwise_count(u).sum(axis=1).astype(np.int64) + 1

    def add(self, code: int, arg_codes: tuple[int, ...]) -> None:
        children = tuple(int(self.arg_root[a]) for a in arg_codes)
        self.nodes.append(("apply", children))
        node_id = len(self.nodes) - 1
        bit = self._n_applies
        self._n_applies += 1
        mask = np.bitwise_or.reduce(self.masks[list(arg_codes)], axis=0)
        mask[bit // 64] |= np.uint64(1 << (bit % 64))
        self.wit_root[code] = node_id
        # Argument references keep the cheapest form: seed codes stay leaves.
        if self.arg_root[code] < 0:
            self.arg_root[code] = node_id
            self.masks[code] = mask

    def extract(self, code: int) -> Circuit:
        root = self.wit_root[code]
        reachable = set()
        stack = [root]
        while stack:
            nid = stack.pop()
            if nid in reachable:
                continue
            reachable.add(nid)
            node = self.nodes[nid]
            if node[0] == "apply":
                stack.extend(node[1])
        order = sorted(reachable)  # pool ids ascend children-first
        local = {nid: i for i, nid in enumerate(order)}
        out: list[Node] = []
        for nid in order:
            node = self.nodes[nid]
            if node[0] == "apply":
                out.append(("apply", tuple(local[c] for c in node[1])))
            else:
                out.append(node)
        return Circuit(self.arity, tuple(out), local[root])


def generate_closure(
    gate: TruthTable,
    constants_enabled: bool = False,
    *,
    witnesses: bool = True,
    budget: int | None = None,
) -> ClosureReport:
    """Compute every function realizable from `gate` alone.

    Exhaustive through three inputs.  Four-input runs must pass an
    explicit `budget` capping the working-set size; they report a lower
    bound (complete=False when the budget bites) and never witnesses.
    """
    n = gate.arity
    if n > 4:
        raise ValueError(f"closure computation supports at most 4 inputs, got {n}")
    if n == 4:
        if budget is None:
            raise ClosureBudgetError(
                "a 4-input closure needs an explicit working-set budget"
            )
        if budget < 1:
            raise ValueError(f"budget must be positive, got {budget}")
        witnesses = False

    m = 1 << n
    full = 1 << m
    rowmask = full - 1  # m output bits per function

    seeds = seed_codes(n, constants_enabled)
    realized = np.zeros(full, dtype=bool)
    in_set = np.zeros(full, dtype=bool)
    in_set[seeds] = True

    pool = _WitnessPool(n, constants_enabled, full) if witnesses else None

    frontier = np.array(seeds, dtype=np.uint16)
    old = np.array([], dtype=np.uint16)
    rounds = 0
    complete = True

    while frontier.size:
        rounds += 1
        new_this_round = ~realized  # snapshot: not yet realized at round start
        round_best: dict[int, tuple] = {}

        current = np.sort(np.concatenate([old, frontier]))
        hit_full = False
        for i in range(n):
            # Tuples partitioned by the first frontier position: earlier
            # arguments old, that one frontier, the rest unrestricted.
            srcs = [old] * i + [frontier] + [current] * (n - 1 - i)
            if any(s.size == 0 for s in srcs):
                continue
            hit_full = _sweep_block(
                gate.code, n, rowmask, srcs, realized, new_this_round, pool, round_best
            )
            if hit_full and pool is None:
                break

        if pool is not None:
            new_codes = np.flatnonzero(realized & new_this_round)
            for code in new_codes.tolist():
                _, args = round_best[code]
                pool.add(code, args)

        count = int(np.count_nonzero(realized))
        if count == full or (hit_full and pool is None):
            break

        new_members = np.flatnonzero(realized & ~in_set).astype(np.uint16)
        if budget is not None:
            room = budget - int(np.count_nonzero(in_set))
            if new_members.size > room:
                new_members = new_members[: max(room, 0)]
                complete = False
        in_set[new_members] = True
        old = current
        frontier = new_members
        if not complete:
            break

    count = int(np.count_nonzero(realized))
    realized_int = int.from_bytes(
        np.packbits(realized, bitorder="little").tobytes(), "little"
    )
    witness_map = None
    if pool is not None:
        witness_map = {code: pool.extract(code) for code in np.flatnonzero(realized).tolist()}
    return ClosureReport(
        generator=gate,
        constants_enabled=constants_enabled,
        realized=realized_int,
        count=count,
        rounds=rounds,
        complete=complete,
        witnesses=witness_map,
    )


def _sweep_block(
    gate_code: int,
    n: int,
    rowmask: int,
    srcs: list[np.ndarray],
    realized: np.ndarray,
    new_this_round: np.ndarray,
    pool: _WitnessPool | None,
    round_best: dict[int, tuple],
) -> bool:
    """Compose the gate over one block of tuples; returns True on full space."""
    full = rowmask + 1
    trailing = []
    trailing_size = 1
    for j in range(1, n):
        shape = [1] * n
        shape[j] = srcs[j].size
        trailing.append(srcs[j].reshape(shape))
        trailing_size *= srcs[j].size

    cache: dict = {}
    half_bits = 1 << (n - 1)
    r1 = _compose_rec(gate_code >> half_bits, n - 1, rowmask, trailing, cache)
    r0 = _compose_rec(gate_code & ((1 << half_bits) - 1), n - 1, rowmask, trailing, cache)

    lead = srcs[0]
    step = max(1, _CHUNK_ELEMS // trailing_size)
    rm = np.uint16(rowmask)
    chunk_shape_tail = [srcs[j].size for j in range(1, n)]

    for lo in range(0, lead.size, step):
        x = lead[lo : lo + step].reshape([-1] + [1] * (n - 1))
        out = (x & r1) | (~x & rm & r0)
        flat = out.ravel()
        realized[flat] = True

        if pool is not None:
            sel = np.flatnonzero(new_this_round[flat])
            if sel.size:
                _collect_candidates(
                    sel, flat, lead, lo, srcs, [x.shape[0]] + chunk_shape_tail,
                    pool, round_best,
                )
        elif int(np.count_nonzero(realized)) == full:
            return True
    return False


def _collect_candidates(
    sel: np.ndarray,
    flat: np.ndarray,
    lead: np.ndarray,
    lead_offset: int,
    srcs: list[np.ndarray],
    chunk_shape: list[int],
    pool: _WitnessPool,
    round_best: dict[int, tuple],
) -> None:
    """Fold this chunk's derivations of still-new codes into the round's best."""
    out_codes = flat[sel]
    multi = np.unravel_index(sel, chunk_shape)
    arg_arrays = [lead[lead_offset + multi[0]]]
    for j in range(1, len(srcs)):
        arg_arrays.append(srcs[j][multi[j]])

    apply_counts = pool.union_apply_counts(arg_arrays)
    # Rank: produced code, then DAG size, then descending argument codes.
    desc_keys = [np.uint16(0xFFFF) - a for a in arg_arrays]
    order = np.lexsort(tuple(reversed(desc_keys)) + (apply_counts, out_codes))
    sorted_codes = out_codes[order]
    uniq, first = np.unique(sorted_codes, return_index=True)
    for code, fi in zip(uniq.tolist(), first.tolist()):
        i = int(order[fi])
        args = tuple(int(a[i]) for a in arg_arrays)
        key = (int(apply_counts[i]), tuple(0xFFFF - a for a in args))
        best = round_best.get(code)
        if best is None or key < best[0]:
            round_best[code] = (key, args)


def synthesize(
    gate: TruthTable, target: TruthTable, constants_enabled: bool = False
) -> Circuit | None:
    """Minimal stored witness turning `gate` into `target`, or None.

    None means the target is not realizable from this generator (with
    the given constant setting).
    """
    if gate.arity != target.arity:
        raise ValueError(
            f"gate arity {gate.arity} differs from target arity {target.arity}"
        )
    if gate.arity > 3:
        raise ValueError("witness synthesis supports at most 3 inputs")
    report = generate_closure(gate, constants_enabled, witnesses=True)
    assert report.witnesses is not None
    return report.witnesses.get(target.code)


def _is_index(value: object, bound: int) -> bool:
    """True iff `value` is an int in 0..bound-1; floats and strings are not."""
    return isinstance(value, int) and 0 <= value < bound


def verify_circuit(circuit: Circuit, generator: TruthTable) -> TruthTable:
    """Evaluate a witness circuit bottom-up under `generator`.

    Raises ValueError on any malformed structure: wrong child counts,
    forward references (the DAG must list children first), bad variable
    indexes, or an out-of-range root.
    """
    if circuit.arity != generator.arity:
        raise ValueError(
            f"circuit arity {circuit.arity} differs from generator arity {generator.arity}"
        )
    if not circuit.nodes:
        raise ValueError("circuit has no nodes")
    if not _is_index(circuit.root, len(circuit.nodes)):
        raise ValueError(f"root {circuit.root} out of range")
    n = generator.arity
    full_mask = (1 << (1 << n)) - 1
    codes: list[int] = []
    for i, node in enumerate(circuit.nodes):
        try:
            kind, operand = node
        except (TypeError, ValueError):
            raise ValueError(f"node {i}: expected an (op, operand) pair, got {node!r}") from None
        if kind == "input":
            if not _is_index(operand, n):
                raise ValueError(f"node {i}: input variable {operand!r} out of range")
            codes.append(variable_pattern(n, n - 1 - operand))
        elif kind == "const":
            if operand not in (0, 1):
                raise ValueError(f"node {i}: constant must be 0 or 1")
            codes.append(full_mask if operand else 0)
        elif kind == "apply":
            if not isinstance(operand, (tuple, list)) or len(operand) != n:
                raise ValueError(f"node {i}: expected {n} children, got {operand!r}")
            if not all(_is_index(c, i) for c in operand):
                raise ValueError(f"node {i}: children must reference earlier nodes")
            codes.append(
                compose_codes(generator.code, n, [codes[c] for c in operand], n)
            )
        else:
            raise ValueError(f"node {i}: unknown op {kind!r}")
    return TruthTable(n, codes[circuit.root])


def circuit_to_json(circuit: Circuit, generator: TruthTable) -> dict:
    """Serializable form: {"generator", "arity", "nodes", "root"}."""
    nodes = []
    for node in circuit.nodes:
        if node[0] == "input":
            nodes.append({"op": "input", "var": node[1]})
        elif node[0] == "const":
            nodes.append({"op": f"const{node[1]}"})
        else:
            nodes.append({"op": "apply", "args": list(node[1])})
    return {
        "generator": generator.to_hex(),
        "arity": circuit.arity,
        "nodes": nodes,
        "root": circuit.root,
    }


def circuit_from_json(data: dict) -> tuple[Circuit, TruthTable]:
    """Parse the serialized form back into a circuit and its generator."""
    try:
        arity = data["arity"]
        generator = TruthTable.from_hex(data["generator"], arity)
        raw_nodes = data["nodes"]
        root = data["root"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed circuit object: {exc}") from exc
    nodes: list[Node] = []
    try:
        for entry in raw_nodes:
            op = entry.get("op")
            if op == "input":
                nodes.append(("input", int(entry["var"])))
            elif op in ("const0", "const1"):
                nodes.append(("const", int(op[-1])))
            elif op == "apply":
                nodes.append(("apply", tuple(int(a) for a in entry["args"])))
            else:
                raise ValueError(f"unknown node op {op!r}")
        root = int(root)
    except (AttributeError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed circuit object: {exc}") from exc
    circuit = Circuit(arity, tuple(nodes), root)
    verify_circuit(circuit, generator)  # structural validation
    return circuit, generator

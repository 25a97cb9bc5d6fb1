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
k and no smaller.  Each block of tuples is composed by `bitfunc.shannon`,
the one composition kernel, over broadcast numpy arrays of codes.
Within its discovery round, a function's stored witness is the
derivation with the fewest distinct gate applications in its DAG;
remaining ties prefer argument tuples whose codes are largest first,
which keeps projection arguments in natural variable order and lets
sibling derivations share subcircuits.  Rounds stop at a fixed point, or
as soon as the full function space is reached (the set is then trivially
closed, so the report is identical to running to quiescence).

Synthesis asks for one target's witness, so a targeted run stops after
the round that first realizes the target and ranks only the target's
derivations there.  The stored witness is unchanged: rounds before it
run in full, and a code's rank reads only the DAG masks of witnesses
from earlier rounds.  `synthesize` first asks the clone oracle in
`sheffer.clones` whether the target is realizable at all, and returns
None for an unrealizable target without running a closure.  The
enumerator stays the independent check on that oracle.  numpy is
imported on the first closure, not with the module.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from .bitfunc import TruthTable, compose_codes, shannon, variable_pattern
from .clones import realizes

if TYPE_CHECKING:
    import numpy as np

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

#: Largest product of trailing-axis sizes a block may sweep.  The block's
#: intermediates span those axes before the lead axis is chunked, so a
#: larger block stops the closure with complete=False instead.  Three
#: inputs span at most 256**2 tuples, and four-input budgets up to 161 fit.
_MAX_TRAILING = 1 << 22

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
    computed, maps each realized code to one minimal witness circuit
    (only the target's, for a targeted run).  `complete` is False when
    the run stopped before its fixed point, in which case `count` is a
    lower bound and `stopped_by` names what stopped it: "budget",
    "sweep_cap" (a round would sweep more than `_MAX_TRAILING` trailing
    tuples) or "target" (the requested target was realized).
    """

    generator: TruthTable
    constants_enabled: bool
    realized: int
    count: int
    rounds: int
    complete: bool
    witnesses: dict[int, Circuit] | None
    stopped_by: str | None = None

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


class _WitnessPool:
    """Interned witness nodes plus per-code DAG bitmasks for size scoring."""

    def __init__(self, arity: int, constants_enabled: bool, full: int):
        import numpy as np

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
        import numpy as np

        u = self.masks[arg_code_arrays[0]]
        for a in arg_code_arrays[1:]:
            u = u | self.masks[a]
        return np.bitwise_count(u).sum(axis=1).astype(np.int64) + 1

    def add(self, code: int, arg_codes: tuple[int, ...]) -> None:
        import numpy as np

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
    target: int | None = None,
) -> ClosureReport:
    """Compute every function realizable from `gate` alone.

    Exhaustive through three inputs.  Four-input runs must pass an
    explicit `budget` capping the working-set size; they report a lower
    bound (complete=False when the budget bites) and never witnesses.
    A `budget` below 1 raises ValueError at every arity.

    `target`, a code, asks for that code's witness alone (witness mode,
    at most three inputs).  The run stops after the round that first
    realizes it, with complete=False, stopped_by="target", a lower-bound
    `realized` and `witnesses={target: circuit}`, the circuit the full
    run would store.  A target the gate never reaches leaves the report
    exact and complete with `witnesses={}`.
    """
    import numpy as np

    n = gate.arity
    if n > 4:
        raise ValueError(f"closure computation supports at most 4 inputs, got {n}")
    if budget is not None and budget < 1:
        raise ValueError(f"budget must be positive, got {budget}")
    m = 1 << n
    full = 1 << m
    if target is not None:
        if not witnesses or n == 4:
            raise ValueError("a target needs witness mode and at most 3 inputs")
        if not _is_index(target, full):
            raise ValueError(f"target {target!r} is not a {n}-input code")
    if n == 4:
        if budget is None:
            raise ClosureBudgetError(
                "a 4-input closure needs an explicit working-set budget"
            )
        witnesses = False

    rowmask = full - 1  # m output bits per function

    seeds = seed_codes(n, constants_enabled)
    realized = np.zeros(full, dtype=bool)
    in_set = np.zeros(full, dtype=bool)
    in_set[seeds] = True

    pool = _WitnessPool(n, constants_enabled, full) if witnesses else None

    frontier = np.array(seeds, dtype=np.uint16)
    old = np.array([], dtype=np.uint16)
    rounds = 0
    stopped_by = None

    while frontier.size:
        rounds += 1
        current = np.sort(np.concatenate([old, frontier]))
        blocks = (gate.code, n, rowmask, old, frontier, current)
        if target is not None:
            # A count-mode trial says whether this is the target's round;
            # earlier rounds run in full, as their DAG masks rank later ones.
            trial = realized.copy()
            _sweep_round(*blocks, trial, None, None, {})
            if trial[target]:
                wanted = np.zeros(full, dtype=bool)
                wanted[target] = True
                best: dict[int, tuple] = {}
                _sweep_round(*blocks, realized, wanted, pool, best)
                pool.add(target, best[target][1])
                stopped_by = "target"
                break

        new_this_round = ~realized  # snapshot: not yet realized at round start
        round_best: dict[int, tuple] = {}
        hit_full, capped = _sweep_round(
            *blocks, realized, new_this_round, pool, round_best
        )
        if capped:
            stopped_by = "sweep_cap"

        if pool is not None:
            new_codes = np.flatnonzero(realized & new_this_round)
            for code in new_codes.tolist():
                _, args = round_best[code]
                pool.add(code, args)

        count = int(np.count_nonzero(realized))
        if count == full or hit_full or capped:
            break

        new_members = np.flatnonzero(realized & ~in_set).astype(np.uint16)
        if budget is not None:
            room = budget - int(np.count_nonzero(in_set))
            if new_members.size > room:
                new_members = new_members[: max(room, 0)]
                stopped_by = "budget"
        in_set[new_members] = True
        old = current
        frontier = new_members
        if stopped_by:
            break

    count = int(np.count_nonzero(realized))
    realized_int = int.from_bytes(
        np.packbits(realized, bitorder="little").tobytes(), "little"
    )
    witness_map = None
    if pool is not None:
        if target is None:
            codes = np.flatnonzero(realized).tolist()
        else:
            codes = [target] if stopped_by == "target" else []
        witness_map = {code: pool.extract(code) for code in codes}
    return ClosureReport(
        generator=gate,
        constants_enabled=constants_enabled,
        realized=realized_int,
        count=count,
        rounds=rounds,
        complete=stopped_by is None,
        witnesses=witness_map,
        stopped_by=stopped_by,
    )


def _sweep_round(
    gate_code: int,
    n: int,
    rowmask: int,
    old: np.ndarray,
    frontier: np.ndarray,
    current: np.ndarray,
    realized: np.ndarray,
    collect: np.ndarray | None,
    pool: _WitnessPool | None,
    round_best: dict[int, tuple],
) -> tuple[bool, bool]:
    """Sweep one round's tuple blocks; returns (hit full space, hit sweep cap).

    In witness mode the best derivation of each code set in `collect` is
    folded into `round_best`; count mode (`pool` None) returns as soon as
    the full space is reached.
    """
    for i in range(n):
        # Tuples partitioned by the first frontier position: earlier
        # arguments old, that one frontier, the rest unrestricted.
        srcs = [old] * i + [frontier] + [current] * (n - 1 - i)
        if any(s.size == 0 for s in srcs):
            continue
        if math.prod(s.size for s in srcs[1:]) > _MAX_TRAILING:
            return False, True
        if _sweep_block(
            gate_code, n, rowmask, srcs, realized, collect, pool, round_best
        ):
            return True, False
    return False, False


def _sweep_block(
    gate_code: int,
    n: int,
    rowmask: int,
    srcs: list[np.ndarray],
    realized: np.ndarray,
    collect: np.ndarray | None,
    pool: _WitnessPool | None,
    round_best: dict[int, tuple],
) -> bool:
    """Compose the gate over one block of tuples; returns True on full space."""
    import numpy as np

    full = rowmask + 1
    trailing = []
    trailing_size = 1
    for j in range(1, n):
        shape = [1] * n
        shape[j] = srcs[j].size
        trailing.append(srcs[j].reshape(shape))
        trailing_size *= srcs[j].size

    # The lead axis is swept in chunks; the shared cache evaluates the
    # gate's subfunctions over the trailing axes once for the whole block.
    cache: dict = {}
    lead = srcs[0]
    step = max(1, _CHUNK_ELEMS // trailing_size)
    chunk_shape_tail = [srcs[j].size for j in range(1, n)]

    for lo in range(0, lead.size, step):
        x = lead[lo : lo + step].reshape([-1] + [1] * (n - 1))
        out = shannon(gate_code, n, [x, *trailing], rowmask, cache)
        flat = out.ravel()
        realized[flat] = True

        if pool is not None:
            sel = np.flatnonzero(collect[flat])
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
    """Fold this chunk's derivations of the collected codes into the round's best."""
    import numpy as np

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
    the given constant setting).  The clone oracle decides that without
    a closure; a realizable target's witness comes from a targeted
    `generate_closure` run.
    """
    if gate.arity != target.arity:
        raise ValueError(
            f"gate arity {gate.arity} differs from target arity {target.arity}"
        )
    if gate.arity > 3:
        raise ValueError("witness synthesis supports at most 3 inputs")
    if not realizes(gate, target, constants_enabled):
        return None
    report = generate_closure(
        gate, constants_enabled, witnesses=True, target=target.code
    )
    assert report.witnesses is not None
    return report.witnesses.get(target.code)


def _is_index(value: object, bound: int) -> bool:
    """True iff `value` is an int in 0..bound-1; bools, floats and strings are not."""
    return isinstance(value, int) and not isinstance(value, bool) and 0 <= value < bound


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
        raise ValueError(f"root {circuit.root!r} out of range")
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
            if not _is_index(operand, 2):
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
                nodes.append(("input", entry["var"]))
            elif op in ("const0", "const1"):
                nodes.append(("const", int(op[-1])))
            elif op == "apply":
                nodes.append(("apply", tuple(entry["args"])))
            else:
                raise ValueError(f"unknown node op {op!r}")
    except (AttributeError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed circuit object: {exc}") from exc
    circuit = Circuit(arity, tuple(nodes), root)
    # Structural validation; it also rejects indexes that are not ints.
    verify_circuit(circuit, generator)
    return circuit, generator

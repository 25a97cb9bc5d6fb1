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
sibling derivations share subcircuits.  `_WitnessPool.ranks` packs this
rule into one int64 rank key per derivation, and each round keeps the
smallest key per code.  Rounds stop at a fixed point, or as soon as the
full function space is reached (the set is then trivially closed, so
the report is identical to running to quiescence).

Synthesis asks for one target's witness, so a targeted run stops after
the round that first realizes the target.  Every round is swept once;
from the first chunk of that round that yields the target, the sweep
ranks only the target's derivations.  The stored witness is unchanged:
rounds before it run in full, every chunk of the target's round still
collects the target's candidates, and a code's rank reads only the DAG
masks of witnesses from earlier rounds.  `synthesize` first asks the
clone oracle in `sheffer.clones` whether the target is realizable at
all, and returns None for an unrealizable target without running a
closure.  The enumerator stays the independent check on that oracle.
numpy is imported on the first closure, not with the module.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from .bitfunc import TruthTable, _is_index, compose_codes, shannon, variable_pattern
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
    computed, maps each realized code to one depth-minimal witness
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
    """Interned witness nodes plus per-code DAG bitmasks for rank keys.

    A rank key packs the module's witness rank rule into one int64: the
    DAG size, then one byte per argument, in argument order, holding
    0xFF minus its code.  Witness mode runs at most three inputs, so
    every code fits in one byte.  The smallest key is the best
    derivation, and equal keys mean equal arguments.
    """

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

    def ranks(self, args: list[np.ndarray]) -> np.ndarray:
        """Rank key of each derivation whose argument codes are `args`."""
        import numpy as np

        u = self.masks[args[0]]
        for a in args[1:]:
            u = u | self.masks[a]
        key = np.bitwise_count(u).sum(axis=1, dtype=np.int64) + 1
        for a in args:
            key = (key << 8) | (0xFF - a.astype(np.int64))
        return key

    def add(self, code: int, key: int) -> None:
        """Store the derivation that rank `key` encodes as `code`'s witness."""
        import numpy as np

        arg_codes = [0xFF - ((key >> (8 * j)) & 0xFF) for j in reversed(range(self.arity))]
        children = tuple(int(self.arg_root[a]) for a in arg_codes)
        self.nodes.append(("apply", children))
        node_id = len(self.nodes) - 1
        bit = self._n_applies
        self._n_applies += 1
        mask = np.bitwise_or.reduce(self.masks[arg_codes], axis=0)
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
    A `budget` that is not an int of at least 1 raises ValueError at
    every arity.

    `target`, a code, asks for that code's witness alone (witness mode,
    at most three inputs).  Each round is swept once, as in a full run;
    once a chunk yields the target, the rest of the round ranks only the
    target's derivations.  The run stops after that round, with
    complete=False, stopped_by="target", a lower-bound `realized` and
    `witnesses={target: circuit}`, the circuit the full run would store.
    A target the gate never reaches leaves the report exact and complete
    with `witnesses={}`.
    """
    import numpy as np

    n = gate.arity
    if n > 4:
        raise ValueError(f"closure computation supports at most 4 inputs, got {n}")
    if budget is not None and not (_is_index(budget, math.inf) and budget >= 1):
        raise ValueError(f"budget must be a positive int, got {budget!r}")
    full = 1 << (1 << n)
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
        new_this_round = ~realized  # snapshot: not yet realized at round start
        round_best = None if pool is None else np.full(full, np.iinfo(np.int64).max)
        for i in range(n):
            # Tuples partitioned by the first frontier position: earlier
            # arguments old, that one frontier, the rest unrestricted.
            srcs = [old] * i + [frontier] + [current] * (n - 1 - i)
            if any(s.size == 0 for s in srcs):
                continue
            if math.prod(s.size for s in srcs[1:]) > _MAX_TRAILING:
                stopped_by = "sweep_cap"
                break
            if _sweep_block(
                gate.code, srcs, realized, new_this_round, pool, round_best, target
            ):
                break  # count mode reached the full space

        if target is not None and realized[target]:
            pool.add(target, int(round_best[target]))
            stopped_by = "target"
            break
        if pool is not None:
            for code in np.flatnonzero(realized & new_this_round).tolist():
                pool.add(code, int(round_best[code]))

        if stopped_by or realized.all():
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


def _sweep_block(
    gate_code: int,
    srcs: list[np.ndarray],
    realized: np.ndarray,
    collect: np.ndarray,
    pool: _WitnessPool | None,
    round_best: np.ndarray | None,
    target: int | None,
) -> bool:
    """Compose the gate over the block of tuples drawn from `srcs`.

    The block is one `np.ix_` grid: one axis per argument, the lead axis
    swept in chunks and the trailing axes shared, so the shared cache
    evaluates the gate's subfunctions over them once for the whole block.
    In witness mode each chunk's derivations of the codes set in
    `collect` get their `_WitnessPool.ranks` keys, read back from the
    grid's axes, and `round_best` keeps the smallest key per code.  Once
    `target` is realized, `collect`, the round's own snapshot, is
    narrowed in place to the target alone, so the rest of the round
    ranks only the target's derivations.
    Count mode (`pool` None) returns True as soon as the full space is
    reached, and False otherwise.
    """
    import numpy as np

    lead, *trailing = np.ix_(*srcs)
    step = max(1, _CHUNK_ELEMS // math.prod(a.size for a in trailing))
    cache: dict = {}
    for lo in range(0, lead.size, step):
        axes = [lead[lo : lo + step], *trailing]
        out = shannon(gate_code, len(srcs), axes, realized.size - 1, cache)
        flat = out.ravel()
        realized[flat] = True

        if target is not None and realized[target]:
            collect[:] = False
            collect[target] = True
            target = None  # stays narrowed for the rest of the round
        if pool is not None:
            sel = np.flatnonzero(collect[flat])
            if sel.size:
                idx = np.unravel_index(sel, out.shape)
                args = [a.ravel()[i] for a, i in zip(axes, idx)]
                np.minimum.at(round_best, flat[sel], pool.ranks(args))
        elif realized.all():
            return True
    return False


def synthesize(
    gate: TruthTable, target: TruthTable, constants_enabled: bool = False
) -> Circuit | None:
    """Depth-minimal stored witness turning `gate` into `target`, or None.

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

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
the one composition kernel, over broadcast numpy arrays of codes; codes
are uint8 through three inputs and uint16 at four.
Within its discovery round, a function's stored witness is the
derivation with the fewest distinct gate applications in its DAG;
remaining ties prefer argument tuples whose codes are largest first,
which keeps projection arguments in natural variable order and lets
sibling derivations share subcircuits.  `_WitnessPool.ranks` packs this
rule into one int64 rank key per derivation.  A code's stored witness
is its smallest key, which names the witness's arguments; circuits are
built from the keys only when extracted.  Rounds stop at a fixed point,
or as soon as the full function space is reached (the set is then
trivially closed, so the report is identical to running to quiescence).

Synthesis asks for one target's witness, so a targeted run stops after
the round that first realizes the target.  Every round is swept once;
from the first chunk of that round that yields the target, the sweep
selects derivations by one comparison with the target's code and ranks
only those.  The stored witness is unchanged: rounds before it run in
full, every chunk of the target's round still collects the target's
candidates, and a code's rank reads only the DAG masks of witnesses
from earlier rounds.  Other codes of that round keep partial keys,
which are never extracted.  `synthesize` first asks the
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


def _leaves(arity: int, constants_enabled: bool) -> dict[int, Node]:
    """Each seed code's leaf node, in circuit leaf order: inputs, then constants."""
    leaves = {variable_pattern(arity, arity - 1 - k): ("input", k) for k in range(arity)}
    if constants_enabled:
        leaves[0] = ("const", 0)
        leaves[(1 << (1 << arity)) - 1] = ("const", 1)
    return leaves


def seed_codes(arity: int, constants_enabled: bool) -> list[int]:
    """Initial working set: the projections, plus constants when enabled."""
    return sorted(_leaves(arity, constants_enabled))


class _WitnessPool:
    """Each code's witness, stored as its smallest rank key.

    A rank key packs the module's witness rank rule into one int64: the
    DAG size, then one byte per argument, in argument order, holding
    0xFF minus its code.  Witness mode runs at most three inputs, so
    every code fits in one byte.  The smallest key is the best
    derivation, and equal keys mean equal arguments, so `keys[code]`
    names the arguments of `code`'s witness and circuits are built from
    the keys only when extracted.  A seed argument is a leaf; every
    other code is one application node, bit `code` of the DAG masks.
    """

    def __init__(self, arity: int, constants_enabled: bool, full: int):
        import numpy as np

        self.arity = arity
        self.leaves = _leaves(arity, constants_enabled)
        self.keys = np.full(full, np.iinfo(np.int64).max)
        self.masks = np.zeros((full, (full + 63) // 64), dtype=np.uint64)
        self.found = np.zeros(full, dtype=np.int64)  # discovery round
        self._shifts = 8 * np.arange(arity - 1, -1, -1)

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

    def _args(self, codes: np.ndarray) -> np.ndarray:
        """Argument codes of each code's witness, one row per code."""
        return 0xFF - ((self.keys[codes, None] >> self._shifts) & 0xFF)

    def settle(self, codes: np.ndarray, round_no: int) -> None:
        """Store the DAG masks of non-seed `codes`, first realized in `round_no`.

        Their arguments all come from earlier rounds, whose masks are final.
        """
        import numpy as np

        self.found[codes] = round_no
        args = self._args(codes)
        self.masks[codes] = np.bitwise_or.reduce(self.masks[args], axis=1)
        self.masks[codes, codes // 64] |= np.uint64(1) << (codes % 64).astype(np.uint64)

    def extract(self, codes: list[int]) -> dict[int, Circuit]:
        """Build each of `codes`' witness circuits from the stored keys."""
        import numpy as np

        args = self._args(np.arange(self.keys.size)).tolist()
        found = self.found.tolist()
        out = {}
        for root in codes:
            reached: set[int] = set()
            stack = list(args[root])
            while stack:
                code = stack.pop()
                if code not in reached:
                    reached.add(code)
                    if code not in self.leaves:
                        stack.extend(args[code])
            leaves = [c for c in self.leaves if c in reached]
            # Arguments come from earlier rounds, so this order lists children first.
            applies = sorted(reached.difference(leaves), key=lambda c: (found[c], c))
            local = {c: i for i, c in enumerate(leaves + applies)}
            nodes = [self.leaves[c] for c in leaves]
            nodes += [("apply", tuple(local[a] for a in args[c]))
                      for c in [*applies, root]]
            out[root] = Circuit(self.arity, tuple(nodes), len(nodes) - 1)
        return out


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

    dtype = np.uint8 if full <= 256 else np.uint16
    frontier = np.array(seeds, dtype=dtype)
    old = np.array([], dtype=dtype)
    rounds = 0
    stopped_by = None

    while frontier.size:
        rounds += 1
        current = np.sort(np.concatenate([old, frontier]))
        new_this_round = ~realized  # snapshot: not yet realized at round start
        for i in range(n):
            # Tuples partitioned by the first frontier position: earlier
            # arguments old, that one frontier, the rest unrestricted.
            srcs = [old] * i + [frontier] + [current] * (n - 1 - i)
            if any(s.size == 0 for s in srcs):
                continue
            if math.prod(s.size for s in srcs[1:]) > _MAX_TRAILING:
                stopped_by = "sweep_cap"
                break
            if _sweep_block(gate.code, srcs, realized, new_this_round, pool, target):
                break  # count mode reached the full space

        if target is not None and realized[target]:
            stopped_by = "target"
        if stopped_by or realized.all():
            break

        new_members = np.flatnonzero(realized & ~in_set).astype(dtype)
        if pool is not None:
            pool.settle(new_members, rounds)
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
        witness_map = pool.extract(codes)
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
    target: int | None,
) -> bool:
    """Compose the gate over the block of tuples drawn from `srcs`.

    The block is one `np.ix_` grid: one axis per argument, the lead axis
    swept in chunks and the trailing axes shared, so the shared cache
    evaluates the gate's subfunctions over them once for the whole block.
    In witness mode each chunk's derivations of the codes set in
    `collect`, the round's snapshot of codes not yet realized, get their
    `_WitnessPool.ranks` keys, read back from the grid's axes, and
    `pool.keys` keeps the smallest key per code.  Once `target` is
    realized, the round is narrowed: each later chunk, in this block and
    the round's later ones, selects only the target's derivations, by
    one comparison `flat == target`.
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

        if pool is not None:
            if target is not None and realized[target]:
                sel = np.flatnonzero(flat == target)  # the round is narrowed
            else:
                sel = np.flatnonzero(collect[flat])
            if sel.size:
                idx = np.unravel_index(sel, out.shape)
                args = [a.ravel()[i] for a, i in zip(axes, idx)]
                np.minimum.at(pool.keys, flat[sel], pool.ranks(args))
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

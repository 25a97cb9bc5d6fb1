"""Multiplexer-equivalent circuits of a gate via iterated cofactors.

An N-input gate driven through a 2**k:1 multiplexer on k select
variables carries its iterated cofactors on the data lines.  When the
selects are not the leading variables the gate is first relabeled so
they are, and the relabeled encoding is reported alongside, since moving
the select line visibly changes the hex code while leaving every
classification verdict untouched.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .bitfunc import TruthTable, _is_index
from .classify import universal_with_constants

__all__ = [
    "MuxCircuit",
    "mux_decompose",
    "recompose",
    "universality_from_leaves",
    "mux_to_json",
    "mux_to_dot",
]


@dataclass(frozen=True)
class MuxCircuit:
    """A gate expressed as a 2**k:1 multiplexer over cofactor leaves.

    `leaves[s]` is the cofactor at select assignment s, with the first
    select variable as the most significant select bit.  `reordered` is
    the source table with the select variables moved to the front, whose
    encoding is the concatenation of the leaf encodings (highest select
    assignment first).
    """

    source: TruthTable
    select_vars: tuple[int, ...]
    leaves: tuple[TruthTable, ...]
    reordered: TruthTable


def _front_mapping(arity: int, select_vars: Sequence[int]) -> list[int]:
    # old variable -> new position; selects first in listed order,
    # remaining variables keep their relative order.
    mapping = [-1] * arity
    for new, old in enumerate(select_vars):
        mapping[old] = new
    nxt = len(select_vars)
    for old in range(arity):
        if mapping[old] < 0:
            mapping[old] = nxt
            nxt += 1
    return mapping


def mux_decompose(tt: TruthTable, select_vars: Sequence[int]) -> MuxCircuit:
    """Decompose `tt` over the given select variables."""
    sel = tuple(select_vars)
    if not sel:
        raise ValueError("at least one select variable is required")
    if not all(_is_index(v, tt.arity) for v in sel):
        raise ValueError(f"select variables {sel} out of range for arity {tt.arity}")
    if len(set(sel)) != len(sel):
        raise ValueError(f"duplicate select variables in {sel}")
    leaf_arity = tt.arity - len(sel)
    if leaf_arity < 2:
        raise ValueError(
            f"decomposing {tt.arity} inputs on {len(sel)} selects leaves "
            f"{leaf_arity}-input data lines; leaves must keep at least 2 inputs"
        )
    reordered = tt.permute(_front_mapping(tt.arity, sel))
    width = 1 << leaf_arity
    leaves = tuple(
        TruthTable(leaf_arity, (reordered.code >> (s * width)) & ((1 << width) - 1))
        for s in range(1 << len(sel))
    )
    return MuxCircuit(source=tt, select_vars=sel, leaves=leaves, reordered=reordered)


def recompose(mux: MuxCircuit) -> TruthTable:
    """Rebuild the original table from a decomposition."""
    k = len(mux.select_vars)
    if len(mux.leaves) != 1 << k:
        raise ValueError(
            f"{k} select variables need {1 << k} leaves, got {len(mux.leaves)}"
        )
    leaf_arities = {leaf.arity for leaf in mux.leaves}
    if len(leaf_arities) != 1:
        raise ValueError(f"leaf arities differ: {sorted(leaf_arities)}")
    leaf_arity = mux.leaves[0].arity
    arity = leaf_arity + k
    width = 1 << leaf_arity
    code = 0
    for s, leaf in enumerate(mux.leaves):
        code |= leaf.code << (s * width)
    reordered = TruthTable(arity, code)
    mapping = _front_mapping(arity, mux.select_vars)
    inverse = [0] * arity
    for old, new in enumerate(mapping):
        inverse[new] = old
    return reordered.permute(inverse)


def universality_from_leaves(mux: MuxCircuit) -> bool:
    """Certify universality-with-constants from a 2-input data line.

    True when some leaf is itself universal with constants, which forces
    the whole gate to be; False is inconclusive (a complete *pair* of
    leaves, such as {AND, NOT}, is not detected).
    """
    if any(leaf.arity != 2 for leaf in mux.leaves):
        raise ValueError("leaf universality check needs 2-input leaves")
    return any(universal_with_constants(leaf) for leaf in mux.leaves)


def mux_to_json(mux: MuxCircuit) -> dict:
    """Serializable form: {"select": [...], "leaves": [hex, ...]}."""
    return {
        "select": list(mux.select_vars),
        "leaves": [leaf.to_hex() for leaf in mux.leaves],
    }


def _var_name(var: int) -> str:
    return chr(ord("A") + var)


def mux_to_dot(mux: MuxCircuit) -> str:
    """A DOT rendering of the multiplexer circuit."""
    k = len(mux.select_vars)
    sel_names = ",".join(_var_name(v) for v in mux.select_vars)
    lines = [
        "digraph mux {",
        "  rankdir=LR;",
        f'  mux [shape=trapezium, label="{1 << k}:1 MUX"];',
        f'  out [shape=plaintext, label="{mux.source.to_hex()}"];',
        f'  sel [shape=plaintext, label="select {sel_names}"];',
        "  sel -> mux;",
        "  mux -> out;",
    ]
    for s, leaf in enumerate(mux.leaves):
        lines.append(f'  leaf{s} [shape=box, label="{leaf.to_hex()}"];')
        lines.append(f'  leaf{s} -> mux [label="{s:0{k}b}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"

"""Whole-arity gate censuses, counting identities, and report emission.

A census classifies every gate of one arity; through three inputs it
also carries both exact closure counts, which is what the checked-in
reference data under ``sheffer/data`` is diffed against.  The class
flags and both verdicts come from `clones.membership`, whose columns
decide every Post class for all codes of an arity at once from the two
halves of each encoding, and the paper's fast track looks the same two
halves up one arity down.  The table keeps one column per field, and
the CSV and JSON renderings are written from the columns; the per-gate
`CensusRow` objects are built only when `CensusTable.rows` is read.
Through three inputs both closure counts come from the clone oracle,
`clones.closure_counts`: a gate realizes exactly the functions in every
clone of Post's lattice that contains it, so the counts are read off
clone columns of the same kind, and no circuit is built.  The counting
identities give the number of standalone-universal gates in closed
form: with G = 2**(2**N) gates in total, G/4 fix neither constant input
row and sqrt(G/4) of those are self-dual, so U = G/4 - sqrt(G/4)
exactly.
"""
from __future__ import annotations

import csv
import io
import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from importlib import resources
from pathlib import Path
from typing import IO, NamedTuple

from .bitfunc import TruthTable, hex_width
from .classify import FLAG_FIELDS, Classification
# The census no longer calls `classify`, `hex_fast_track` or
# `generate_closure`; they stay bound here because perfbench's traced run
# wraps `census.classify`, `census.hex_fast_track` and
# `census.generate_closure` by name.
from .classify import classify, hex_fast_track  # noqa: F401
from .clones import closure_counts, membership
from .closure import generate_closure  # noqa: F401

__all__ = [
    "CensusRow",
    "CensusTable",
    "CountReport",
    "Divergence",
    "CSV_FIELDS",
    "enumerate_all",
    "universal_count",
    "universal_ratio",
    "emit_report",
    "render_csv",
    "render_json",
    "diff_against_reference",
    "reference_path",
]

CSV_FIELDS = (
    "code",
    *(column for column, _ in FLAG_FIELDS),
    "closure_plain",
    "closure_const",
    "fast_track",
)

CSV_HEADER = ",".join(CSV_FIELDS)

#: Reference data files shipped with the package, keyed by hex code.
REFERENCE_FILES = (
    "n2_closure_counts.csv",
    "n3_universal_alone.csv",
    "n3_closure_counts.csv",
    "n3_nonuniversal_with_constants.csv",
    "n3_extra_universal_with_constants.csv",
)


@dataclass(frozen=True, slots=True)
class CensusRow(Classification):
    """Classification plus closure counts and the fast-track verdict for one gate."""

    closure_plain: int | None
    closure_const: int | None
    fast_track: bool | None

    @property
    def arity(self) -> int:
        return self.gate.arity

    @property
    def code(self) -> int:
        return self.gate.code


#: The `CensusRow` fields after `gate`; `CensusTable` holds one column of each.
_COLUMNS = CensusRow.__match_args__[1:]


@dataclass(frozen=True)
class CensusTable:
    """Every census column of one arity, each a tuple in code order.

    Each column holds the `CensusRow` attribute of the same name for
    every code.  The closure columns are None above three inputs and
    `fast_track` below three.
    """

    arity: int
    preserves_zero: tuple[bool, ...]
    preserves_one: tuple[bool, ...]
    self_dual: tuple[bool, ...]
    monotone: tuple[bool, ...]
    affine: tuple[bool, ...]
    universal_alone: tuple[bool, ...]
    universal_with_constants: tuple[bool, ...]
    closure_plain: tuple[int, ...] | None
    closure_const: tuple[int, ...] | None
    fast_track: tuple[bool, ...] | None

    @cached_property
    def rows(self) -> tuple[CensusRow, ...]:
        """One row per code, in code order, built on first use."""
        columns = [itertools.repeat(None) if column is None else column
                   for column in (getattr(self, name) for name in _COLUMNS)]
        return tuple(CensusRow(TruthTable(self.arity, code), *values)
                     for code, values in enumerate(zip(*columns)))


@dataclass(frozen=True)
class CountReport:
    """Closed-form universal-gate counts for one arity.

    `input_combinations` is 2**n, `gate_count` 2**(2**n),
    `endpoint_free` the gates fixing neither constant row, and
    `universal` the standalone-universal count; `ratio` is exact.
    """

    n: int
    input_combinations: int
    gate_count: int
    endpoint_free: int
    universal: int
    ratio: Fraction
    ratio_decimal: str


def universal_count(n: int) -> CountReport:
    """Exact standalone-universal count for 2 <= n <= 16 inputs."""
    if not isinstance(n, int) or not 2 <= n <= 16:
        raise ValueError(f"n must be an integer in 2..16, got {n!r}")
    rows = 1 << n
    total = 1 << rows
    endpoint_free = total >> 2
    self_dual_free = 1 << ((rows - 2) // 2)  # integral: rows - 2 is even
    universal = endpoint_free - self_dual_free
    ratio = Fraction(universal, total)
    return CountReport(
        n=n,
        input_combinations=rows,
        gate_count=total,
        endpoint_free=endpoint_free,
        universal=universal,
        ratio=ratio,
        ratio_decimal=_decimal6(ratio),
    )


def universal_ratio(n: int) -> Fraction:
    """Exact ratio of standalone-universal gates to all gates."""
    return universal_count(n).ratio


def _decimal6(value: Fraction) -> str:
    scaled = (value.numerator * 10**6 * 2 + value.denominator) // (2 * value.denominator)
    return f"{scaled // 10**6}.{scaled % 10**6:06d}"


def enumerate_all(arity: int, *, workers: int | None = None) -> CensusTable:
    """Census every gate of one arity (2..4), in code order.

    The class flags and both verdicts are the `membership` columns.
    From three inputs `fast_track` is `hex_fast_track` for every code at
    once: the `universal_with_constants` column one arity down, looked up
    at both halves of the code.  Through three inputs both closure
    columns are `clones.closure_counts`; at four they are omitted.  The
    census runs in this process; `workers` is accepted and has no effect.
    """
    if arity not in (2, 3, 4):
        raise ValueError(f"census supports arities 2..4, got {arity}")
    flags = {name: tuple(column.tolist()) for name, column in membership(arity).items()}
    fast_track = None
    if arity >= 3:
        # Code f0 | f1 << half sits at [f1, f0] of the outer combination.
        below = membership(arity - 1)["universal_with_constants"]
        fast_track = tuple((below[:, None] | below[None, :]).ravel().tolist())
    closure_plain = closure_const = None
    if arity <= 3:
        plain, const = closure_counts(arity)
        closure_plain, closure_const = tuple(plain.tolist()), tuple(const.tolist())
    return CensusTable(arity=arity, **flags, closure_plain=closure_plain,
                       closure_const=closure_const, fast_track=fast_track)


class _Words(NamedTuple):
    """How one output format writes each kind of census value."""

    code: str  # printf template taking (hex width, code)
    flag: tuple[str, str]  # False, True
    fast_track: tuple[str, str]  # False, True
    missing: str


_CSV = _Words("%0*X", ("0", "1"), ("inconclusive", "confirmed"), "")
_JSON = _Words('"%0*X"', ("false", "true"), ("false", "true"), "null")

#: One census row as `json.dumps(..., indent=2)` lays it out inside "rows".
_JSON_ROW = "    {\n" + ",\n".join(f'      "{f}": %s' for f in CSV_FIELDS) + "\n    }"


def _text_columns(table: CensusTable, words: _Words) -> dict[str, list[str]]:
    """Every `CSV_FIELDS` column as text in code order, written as `words` says."""
    size = 1 << (1 << table.arity)
    width = hex_width(table.arity)
    out = {"code": [words.code % (width, code) for code in range(size)]}
    for field, attr in FLAG_FIELDS:
        out[field] = [words.flag[value] for value in getattr(table, attr)]
    for field in ("closure_plain", "closure_const"):
        values = getattr(table, field)
        out[field] = [words.missing] * size if values is None else list(map(str, values))
    values = table.fast_track
    out["fast_track"] = ([words.missing] * size if values is None
                         else [words.fast_track[value] for value in values])
    return out


def render_csv(table: CensusTable) -> str:
    """Deterministic CSV text: fixed header, rows in code order."""
    cells = _text_columns(table, _CSV)
    lines = map(",".join, zip(*(cells[f] for f in CSV_FIELDS)))
    return "\n".join([CSV_HEADER, *lines]) + "\n"


def render_json(table: CensusTable) -> str:
    """Deterministic JSON text mirroring the CSV columns.

    The text is what `json.dumps({"arity": ..., "rows": [...]}, indent=2)`
    writes for one object per row keyed by `CSV_FIELDS`.
    """
    cells = _text_columns(table, _JSON)
    rows = ",\n".join(_JSON_ROW % values for values in zip(*(cells[f] for f in CSV_FIELDS)))
    return f'{{\n  "arity": {table.arity},\n  "rows": [\n{rows}\n  ]\n}}\n'


def emit_report(table: CensusTable, fmt: str = "csv", destination: str | Path | IO[str] | None = None) -> str:
    """Render a census and optionally write it to `destination`.

    Returns the rendered text.  I/O failures are re-raised with the
    destination path in the message.
    """
    if fmt == "csv":
        text = render_csv(table)
    elif fmt == "json":
        text = render_json(table)
    else:
        raise ValueError(f"unknown format {fmt!r}; expected 'csv' or 'json'")
    if destination is None:
        return text
    if hasattr(destination, "write"):
        destination.write(text)
        return text
    path = Path(destination)
    try:
        path.write_text(text)
    except OSError as exc:
        raise OSError(f"cannot write census to {path}: {exc}") from exc
    return text


@dataclass(frozen=True)
class Divergence:
    """One cell where a computed census differs from reference data."""

    code: int
    field: str
    reference: str
    computed: str

    def __str__(self) -> str:
        return (
            f"code {self.code:X}: {self.field} reference={self.reference!r} "
            f"computed={self.computed!r}"
        )


def reference_path(name: str) -> Path:
    """Path of a checked-in reference data file."""
    if name not in REFERENCE_FILES:
        raise ValueError(f"unknown reference file {name!r}")
    with resources.as_file(resources.files("sheffer") / "data" / name) as path:
        return Path(path)


def diff_against_reference(table: CensusTable, reference: str | Path | IO[str]) -> list[Divergence]:
    """Compare a census against a reference CSV, cell by cell.

    The reference must have a `code` column (hex) plus any subset of the
    census columns; an empty list means exact reproduction.  Malformed
    references (unknown columns, unparseable codes, codes outside the
    census) raise ValueError.
    """
    if hasattr(reference, "read"):
        handle: IO[str] = reference  # type: ignore[assignment]
        reader = csv.DictReader(handle)
        return _diff_rows(table, reader, "<stream>")
    path = Path(reference)
    try:
        text = path.read_text()
    except OSError as exc:
        raise OSError(f"cannot read reference {path}: {exc}") from exc
    reader = csv.DictReader(io.StringIO(text))
    return _diff_rows(table, reader, str(path))


def _diff_rows(table: CensusTable, reader: csv.DictReader, origin: str) -> list[Divergence]:
    fields = reader.fieldnames
    if not fields or "code" not in fields:
        raise ValueError(f"reference {origin} needs a 'code' column")
    unknown = [f for f in fields if f not in CSV_FIELDS]
    if unknown:
        raise ValueError(f"reference {origin} has unknown columns {unknown}")
    cells = _text_columns(table, _CSV)
    size = len(cells["code"])
    out: list[Divergence] = []
    for record in reader:
        raw_code = (record.get("code") or "").strip()
        try:
            code = int(raw_code, 16)
        except ValueError as exc:
            raise ValueError(f"reference {origin}: bad code {raw_code!r}") from exc
        if not 0 <= code < size:
            raise ValueError(f"reference {origin}: code {raw_code} not in census")
        for field in fields:
            if field == "code":
                continue
            expected = (record.get(field) or "").strip()
            computed = cells[field][code]
            if computed != expected:
                out.append(Divergence(code=code, field=field,
                                      reference=expected, computed=computed))
    return out

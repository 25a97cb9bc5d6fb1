"""Whole-arity gate censuses, counting identities, and report emission.

A census classifies every gate of one arity; through three inputs it
also carries both exact closure counts, which is what the checked-in
reference data under ``sheffer/data`` is diffed against.  The counting
identities give the number of standalone-universal gates in closed form:
with G = 2**(2**N) gates in total, G/4 fix neither constant input row
and sqrt(G/4) of those are self-dual, so U = G/4 - sqrt(G/4) exactly.
"""
from __future__ import annotations

import csv
import io
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import IO

from .bitfunc import TruthTable
from .classify import FLAG_FIELDS, Classification, classify, hex_fast_track
from .closure import generate_closure

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

_FLAG_ATTRS = dict(FLAG_FIELDS)

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


@dataclass(frozen=True)
class CensusTable:
    """One row per code, in code order."""

    arity: int
    rows: tuple[CensusRow, ...]


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


def _compute_row(arity: int, code: int, with_closures: bool) -> CensusRow:
    tt = TruthTable(arity, code)
    closure_plain = closure_const = None
    if with_closures:
        closure_plain = generate_closure(tt, False, witnesses=False).count
        closure_const = generate_closure(tt, True, witnesses=False).count
    flags = classify(tt)
    return CensusRow(
        *(getattr(flags, name) for name in flags.__match_args__),
        closure_plain=closure_plain,
        closure_const=closure_const,
        fast_track=hex_fast_track(tt) if arity >= 3 else None,
    )


def _chunk_rows(args: tuple[int, int, int, bool]) -> list[CensusRow]:
    arity, lo, hi, with_closures = args
    return [_compute_row(arity, code, with_closures) for code in range(lo, hi)]


def _resolve_workers(workers: int | None) -> int:
    if workers is None:
        workers = os.cpu_count() or 1
    cap = os.environ.get("ULG_THREADS")
    if cap is not None:
        try:
            workers = min(workers, int(cap))
        except ValueError as exc:
            raise ValueError(f"ULG_THREADS must be an integer, got {cap!r}") from exc
    return max(1, workers)


def enumerate_all(arity: int, *, workers: int | None = None) -> CensusTable:
    """Census every gate of one arity (2..4).

    Closure counts are computed only through three inputs; at four the
    columns are omitted (the flag predicates stand in, having been
    proven equivalent at the exhaustive arities).  Row computations are
    independent, so they may fan out across `workers` processes (capped
    by the ULG_THREADS environment variable); output is assembled in
    code order and is identical for any worker count.
    """
    if arity not in (2, 3, 4):
        raise ValueError(f"census supports arities 2..4, got {arity}")
    with_closures = arity <= 3
    n_codes = 1 << (1 << arity)
    workers = _resolve_workers(workers)
    if workers <= 1 or n_codes <= 16:
        rows = _chunk_rows((arity, 0, n_codes, with_closures))
    else:
        chunk = max(1, n_codes // (workers * 4))
        tasks = [
            (arity, lo, min(lo + chunk, n_codes), with_closures)
            for lo in range(0, n_codes, chunk)
        ]
        rows = []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for part in pool.map(_chunk_rows, tasks):
                rows.extend(part)
    return CensusTable(arity=arity, rows=tuple(rows))


def _field_value(row: CensusRow, field: str) -> object:
    """The JSON value of one census column."""
    if field == "code":
        return row.gate.to_hex()
    if field not in CSV_FIELDS:
        raise ValueError(f"unknown census field {field!r}")
    return getattr(row, _FLAG_ATTRS.get(field, field))


def _render_field(row: CensusRow, field: str) -> str:
    """The CSV cell of one census column."""
    value = _field_value(row, field)
    if value is None:
        return ""
    if field == "fast_track":
        return "confirmed" if value else "inconclusive"
    if isinstance(value, bool):
        return "1" if value else "0"
    return str(value)


def render_csv(table: CensusTable) -> str:
    """Deterministic CSV text: fixed header, rows in code order."""
    lines = [CSV_HEADER]
    for row in table.rows:
        lines.append(",".join(_render_field(row, f) for f in CSV_FIELDS))
    return "\n".join(lines) + "\n"


def render_json(table: CensusTable) -> str:
    """Deterministic JSON text mirroring the CSV columns."""
    rows = [{f: _field_value(row, f) for f in CSV_FIELDS} for row in table.rows]
    return json.dumps({"arity": table.arity, "rows": rows}, indent=2) + "\n"


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
    by_code = {row.code: row for row in table.rows}
    out: list[Divergence] = []
    for record in reader:
        raw_code = (record.get("code") or "").strip()
        try:
            code = int(raw_code, 16)
        except ValueError as exc:
            raise ValueError(f"reference {origin}: bad code {raw_code!r}") from exc
        row = by_code.get(code)
        if row is None:
            raise ValueError(f"reference {origin}: code {raw_code} not in census")
        for field in fields:
            if field == "code":
                continue
            expected = (record.get(field) or "").strip()
            computed = _render_field(row, field)
            if computed != expected:
                out.append(Divergence(code=code, field=field,
                                      reference=expected, computed=computed))
    return out

"""Command-line front end: classify, closure, synth, mux, census, count.

Every invocation is a pure rendering of one library call, so running a
command twice produces byte-identical output.  Exit status is 0 on
success, 1 on a usage error (one-line reason on stderr), and 2 when an
internal limit is hit, such as a 4-input closure without a budget.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import sys
from typing import Sequence

from .bitfunc import TruthTable, hex_width
from .census import CountReport, emit_report, enumerate_all, universal_count
from .classify import FLAG_FIELDS, classify
from .closure import ClosureBudgetError, circuit_to_json, generate_closure, synthesize
from .mux import mux_decompose, mux_to_dot, mux_to_json

_LEN_TO_ARITY = {hex_width(n): n for n in range(2, 7)}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _resolve_gate(text: str, arity: int | None) -> TruthTable:
    if arity is None:
        arity = _LEN_TO_ARITY.get(len(text))
        if arity is None:
            raise _UsageError(
                f"cannot infer arity from {len(text)} hex digit(s); pass --arity"
            )
    return TruthTable.from_hex(text, arity)


def _parse_select(text: str, arity: int) -> list[int]:
    out = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            raise _UsageError("empty select variable")
        # ASCII only: str.isalpha and isdigit also accept other scripts.
        if len(token) == 1 and token.isascii() and token.isalpha():
            var = ord(token.upper()) - ord("A")
        elif token.isascii() and token.isdigit():
            var = int(token)
        else:
            raise _UsageError(f"bad select variable {token!r}")
        if not 0 <= var < arity:
            raise _UsageError(f"select variable {token!r} out of range")
        out.append(var)
    return out


def _emit(args: argparse.Namespace, command: str, inputs: dict, result: dict | list,
          text_lines: list[str]) -> None:
    if getattr(args, "json", False):
        envelope = {"command": command, "input": inputs, "result": result}
        print(json.dumps(envelope, indent=2))
    else:
        for line in text_lines:
            print(line)


def _flag(value: bool) -> str:
    return "yes" if value else "no"


def _cmd_classify(args: argparse.Namespace) -> int:
    tt = _resolve_gate(args.gate, args.arity)
    c = classify(tt)
    result = {column: getattr(c, attr) for column, attr in FLAG_FIELDS}
    lines = [f"gate {tt.to_hex()} ({tt.arity} inputs)"]
    for _, attr in FLAG_FIELDS:
        # The two verdicts read as phrases; the class flags keep their names.
        label = attr.replace("_", " ") if attr.startswith("universal") else attr
        lines.append(f"  {label:<26}{_flag(getattr(c, attr))}")
    _emit(args, "classify", {"gate": tt.to_hex(), "arity": tt.arity}, result, lines)
    return 0


def _cmd_closure(args: argparse.Namespace) -> int:
    tt = _resolve_gate(args.gate, args.arity)
    report = generate_closure(
        tt, args.constants, witnesses=False, budget=args.budget
    )
    codes = [format(c, f"0{hex_width(tt.arity)}X") for c in report.realized_codes()]
    result = {
        "count": report.count,
        "rounds": report.rounds,
        "complete": report.complete,
        "realized": codes,
    }
    if report.complete:
        bound = ""
    elif report.stopped_by == "budget":
        bound = " (lower bound; budget exhausted)"
    else:
        bound = " (lower bound; sweep-size cap reached)"
    lines = [
        f"gate {tt.to_hex()} ({tt.arity} inputs), constants "
        f"{'on' if args.constants else 'off'}",
        f"  realized {report.count} function(s) in {report.rounds} round(s){bound}",
        "  " + " ".join(codes),
    ]
    _emit(
        args,
        "closure",
        {
            "gate": tt.to_hex(),
            "arity": tt.arity,
            "constants": args.constants,
            "budget": args.budget,
        },
        result,
        lines,
    )
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    tt = _resolve_gate(args.gate, args.arity)
    target = TruthTable.from_hex(args.target, tt.arity)
    circuit = synthesize(tt, target, args.constants)
    inputs = {
        "gate": tt.to_hex(),
        "target": target.to_hex(),
        "arity": tt.arity,
        "constants": args.constants,
    }
    if circuit is None:
        _emit(args, "synth", inputs, {"realizable": False},
              [f"target {target.to_hex()} is not realizable from gate {tt.to_hex()}"])
        return 0
    payload = circuit_to_json(circuit, tt)
    lines = [
        f"target {target.to_hex()} realized with {circuit.size} application(s):",
        json.dumps(payload, indent=2),
    ]
    _emit(args, "synth", inputs, {"realizable": True, "circuit": payload}, lines)
    return 0


def _cmd_mux(args: argparse.Namespace) -> int:
    tt = _resolve_gate(args.gate, args.arity)
    select = _parse_select(args.select, tt.arity)
    mux = mux_decompose(tt, select)
    if args.dot:
        with open(args.dot, "w") as handle:
            handle.write(mux_to_dot(mux))
    payload = mux_to_json(mux)
    payload["reordered"] = mux.reordered.to_hex()
    k = len(select)
    lines = [
        f"gate {tt.to_hex()} ({tt.arity} inputs) as a {1 << k}:1 multiplexer",
        f"  select {args.select} -> reordered encoding {mux.reordered.to_hex()}",
    ]
    for s, leaf in enumerate(mux.leaves):
        lines.append(f"  leaf {s:0{k}b} -> {leaf.to_hex()}")
    _emit(
        args,
        "mux",
        {"gate": tt.to_hex(), "arity": tt.arity, "select": select},
        payload,
        lines,
    )
    return 0


def _cmd_census(args: argparse.Namespace) -> int:
    table = enumerate_all(args.n)
    text = emit_report(table, args.format, args.out)
    if args.out is None:
        sys.stdout.write(text)
    return 0


@contextlib.contextmanager
def _unlimited_int_digits():
    """Lift the int-to-decimal digit limit, which counts past N=13 exceed."""
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:  # interpreters without the limit
        yield
        return
    limit = get_limit()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _count_result(r: CountReport) -> dict:
    ratio = {"num": r.ratio.numerator, "den": r.ratio.denominator}
    return {**dataclasses.asdict(r), "ratio": ratio}


def _cmd_count(args: argparse.Namespace) -> int:
    # Argv was parsed under the digit limit; only the rendering lifts it.
    with _unlimited_int_digits():
        if args.max_n is not None:
            if not 2 <= args.max_n <= 16:  # the range universal_count accepts
                raise _UsageError(f"--max-n must be in 2..16, got {args.max_n}")
            reports = [universal_count(n) for n in range(2, args.max_n + 1)]
            lines = ["n,universal,total,ratio"] + [
                f"{r.n},{r.universal},{r.gate_count},{r.ratio_decimal}" for r in reports
            ]
            _emit(args, "count", {"max_n": args.max_n},
                  [_count_result(r) for r in reports], lines)
            return 0
        r = universal_count(args.n)
        lines = [
            f"N={r.n}: inputs={r.input_combinations} gates={r.gate_count} "
            f"endpoint-free={r.endpoint_free} U={r.universal} "
            f"ratio={r.ratio.numerator}/{r.ratio.denominator} ({r.ratio_decimal})"
        ]
        _emit(args, "count", {"n": r.n}, _count_result(r), lines)
        return 0


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built on the first call and shared after it."""
    parser = _Parser(prog="sheffer", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_gate_opts(p: _Parser) -> None:
        p.add_argument("--gate", required=True, help="hex encoding of the gate")
        p.add_argument("--arity", type=int, help="input count (inferred from digits)")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("classify", help="class flags and universality verdicts")
    add_gate_opts(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("closure", help="every function the gate generates")
    add_gate_opts(p)
    p.add_argument("--constants", action="store_true", help="seed constants 0 and 1")
    p.add_argument("--budget", type=int, help="working-set cap (required at 4 inputs)")
    p.set_defaults(func=_cmd_closure)

    p = sub.add_parser("synth", help="witness circuit for a target function")
    add_gate_opts(p)
    p.add_argument("--target", required=True, help="hex encoding of the target")
    p.add_argument("--constants", action="store_true", help="seed constants 0 and 1")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("mux", help="multiplexer decomposition over select lines")
    add_gate_opts(p)
    p.add_argument("--select", required=True, help="select variables, e.g. A,B")
    p.add_argument("--dot", help="write a DOT diagram to this path")
    p.set_defaults(func=_cmd_mux)

    p = sub.add_parser("census", help="classify every gate of one arity")
    p.add_argument("--n", type=int, required=True, help="arity (2..4)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("count", help="closed-form universal-gate counts")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--n", type=int, help="arity (2..16)")
    which.add_argument("--max-n", type=int,
                       help="the series for 2..MAX_N (CSV, or a JSON list)")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=_cmd_count)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ClosureBudgetError as exc:
        print(f"limit: {exc}", file=sys.stderr)
        return 2
    except (_UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

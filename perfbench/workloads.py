"""The benchmark's four workloads: inputs, library calls and output checks.

Each workload hands out passes of requests.  `execute` makes one request
through the library's public bindings, looked up on the module at call
time so that the traced run can wrap them; `check` validates the output
against the oracles in `oracle.py` and returns a list of problems.

- census3: `enumerate_all(3)`, `render_csv` and a diff against the four
  checked-in n3 reference CSVs.  Exhaustive, so the seed is unused.
- census4: `enumerate_all(4)` and `render_csv`.  Exhaustive as well.
- synth3: `synthesize(gate, target, constants)` at three inputs.  A pass
  visits every class of 3-input gates under input permutation and
  duality once with constants and once without; the seed picks each
  class member, the target and the order.  Witness-mode cost depends on
  the gate, so covering every class keeps the work per pass alike across
  seeds, where uniform draws would not.
- queries: CLI requests run in-process through `sheffer.cli.main`.  A
  pass is one block with a fixed mix of commands; the seed picks gates,
  select lines and arities.
"""
from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import oracle

census = importlib.import_module("sheffer.census")
closure = importlib.import_module("sheffer.closure")
cli = importlib.import_module("sheffer.cli")
TruthTable = importlib.import_module("sheffer.bitfunc").TruthTable

#: `count --n 14` and above fail on this interpreter's 4300-digit limit
#: for int-to-str conversion, so the query mix stays below that.
COUNT_MAX_N = 13
#: At budget 128 a 4-input closure takes about 0.6 s at p90, and larger
#: budgets take tens of seconds, which would make runs unsteady.
N4_BUDGET = 64


class Census:
    min_samples = 1

    def __init__(self, arity: int, seed: int, data_dir: Path, workers: int):
        self.arity = arity
        self.workers = workers
        self.data_dir = data_dir
        self.references = [data_dir / name for name in oracle.REFERENCES[arity]]
        self.plain = self.const = None
        if arity <= 3:
            self.plain, self.const = oracle.closure_counts(arity, data_dir)
        self.expected = None

    def prepare_checks(self) -> None:
        problems = oracle.check_references(self.arity, self.data_dir)
        if problems:
            raise RuntimeError(f"reference CSVs disagree with the oracle: {problems[:3]}")
        self.expected = oracle.census_csv(self.arity, self.plain, self.const)

    def next_pass(self) -> list:
        return [self.arity]

    def trace_requests(self) -> list:
        return [self.arity]

    def execute(self, arity: int):
        table = census.enumerate_all(arity, workers=self.workers)
        text = census.render_csv(table)
        divergences = [
            str(d) for ref in self.references
            for d in census.diff_against_reference(table, ref)
        ]
        return text, divergences

    def check(self, arity: int, output) -> list[str]:
        text, divergences = output
        problems = [f"divergence: {d}" for d in divergences[:3]]
        problems += oracle.diff_csv(self.expected, text)
        if arity == 4:
            column = oracle.CENSUS_HEADER.split(",").index("universal_alone")
            lines = text.splitlines()[1:]
            universal = sum(line.split(",")[column] == "1" for line in lines)
            report = census.universal_count(4)
            if len(lines) != report.gate_count:
                problems.append(f"{len(lines)} rows, expected {report.gate_count}")
            if not universal == report.universal == oracle.universal_total(4):
                problems.append(f"{universal} universal rows, expected {report.universal}")
        return problems


def _orbit(code: int) -> frozenset[int]:
    """3-input gates equal to `code` up to input permutation and duality."""
    out = set()
    for perm in itertools.permutations(range(3)):
        g = 0
        for r in range(8):
            src = sum(((r >> (2 - perm[k])) & 1) << (2 - k) for k in range(3))
            g |= ((code >> src) & 1) << r
        dual = sum((1 - ((g >> (7 - r)) & 1)) << r for r in range(8))
        out.update((g, dual))
    return frozenset(out)


class Synth3:
    min_samples = 200

    def __init__(self, seed: int, data_dir: Path):
        self.rng = random.Random(seed)
        classes = {_orbit(code) for code in range(256)}
        self.panel = [
            (sorted(members), constants)
            for members in sorted(classes, key=min)
            for constants in (False, True)
        ]
        self.plain, self.const = oracle.closure_counts(3, data_dir)

    def prepare_checks(self) -> None:
        pass

    def next_pass(self) -> list:
        rng = self.rng
        requests = [(rng.choice(members), constants, rng.randrange(256))
                    for members, constants in self.panel]
        rng.shuffle(requests)
        return requests

    def trace_requests(self) -> list:
        return self.next_pass()

    def execute(self, request):
        gate, constants, target = request
        return closure.synthesize(TruthTable(3, gate), TruthTable(3, target), constants)

    def check(self, request, circuit) -> list[str]:
        gate, constants, target = request
        if circuit is None:
            report = closure.generate_closure(TruthTable(3, gate), constants, witnesses=False)
            expected = (self.const if constants else self.plain)[gate]
            problems = []
            if report.count != expected:
                problems.append(f"closure of {gate:02X} has {report.count}, reference {expected}")
            if (report.realized >> target) & 1:
                problems.append(f"None for {target:02X}, which {gate:02X} realizes")
            return problems
        try:
            value = oracle.eval_circuit(circuit.nodes, circuit.root, gate, 3, constants)
        except (ValueError, IndexError, TypeError) as exc:
            return [f"malformed circuit for {gate:02X}->{target:02X}: {exc}"]
        if value != target:
            return [f"circuit for {gate:02X}->{target:02X} computes {value:02X}"]
        return []


class Queries:
    min_samples = 200
    #: One block: every command kind the CLI serves, in fixed proportions.
    BLOCK = (
        [("classify", n) for n in range(2, 7)]
        + [("mux", n) for n in range(4, 7)]
        + [("closure", n, c) for n in (2, 3) for c in (False, True)]
        + [("closure", 4, c) for c in (False, True)]
        + [("count",)]
    )
    TRACE_BLOCKS = 20

    def __init__(self, seed: int, data_dir: Path):
        self.rng = random.Random(seed)
        self.closure_counts = {}
        for arity in (2, 3):
            plain, const = oracle.closure_counts(arity, data_dir)
            self.closure_counts[(arity, False)] = plain
            self.closure_counts[(arity, True)] = const
        self._closed: set = set()

    def prepare_checks(self) -> None:
        pass

    def _argv(self, kind: tuple) -> list[str]:
        rng = self.rng
        if kind[0] == "count":
            return ["count", "--n", str(rng.randint(2, COUNT_MAX_N)), "--json"]
        n = kind[1]
        gate = oracle.to_hex(rng.getrandbits(1 << n), n)
        if kind[0] == "classify":
            return ["classify", "--gate", gate, "--json"]
        if kind[0] == "mux":
            select = rng.sample("ABCDEF"[:n], rng.randint(1, n - 2))
            return ["mux", "--gate", gate, "--select", ",".join(select), "--json"]
        argv = ["closure", "--gate", gate, "--json"]
        if kind[2]:
            argv.append("--constants")
        if n == 4:
            argv += ["--budget", str(N4_BUDGET)]
        return argv

    def next_pass(self) -> list:
        requests = [self._argv(kind) for kind in self.BLOCK]
        self.rng.shuffle(requests)
        return requests

    def trace_requests(self) -> list:
        return [r for _ in range(self.TRACE_BLOCKS) for r in self.next_pass()]

    def execute(self, argv: list[str]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def check(self, argv: list[str], output) -> list[str]:
        code, out, err = output
        if code != 0:
            return [f"{' '.join(argv)}: exit {code}: {err.strip()}"]
        try:
            envelope = json.loads(out)
        except json.JSONDecodeError as exc:
            return [f"{' '.join(argv)}: output is not JSON: {exc}"]
        if envelope.get("command") != argv[0]:
            return [f"{' '.join(argv)}: envelope command {envelope.get('command')!r}"]
        result = envelope["result"]
        if argv[0] == "count":
            problems = self._check_count(int(argv[2]), result)
        else:
            gate_hex = argv[2]
            arity = {1: 2, 2: 3, 4: 4, 8: 5, 16: 6}[len(gate_hex)]
            gate = int(gate_hex, 16)
            if argv[0] == "classify":
                problems = self._check_classify(gate, arity, result)
            elif argv[0] == "mux":
                select = [ord(v) - ord("A") for v in argv[4].split(",")]
                problems = self._check_mux(gate, arity, select, result)
            else:
                problems = self._check_closure(gate, arity, "--constants" in argv, result)
        return [f"{' '.join(argv)}: {p}" for p in problems]

    @staticmethod
    def _check_classify(gate: int, arity: int, result: dict) -> list[str]:
        flags = oracle.predicates([gate], arity)
        return [f"{name}={result.get(name)!r}" for name in (
            "t0", "t1", "selfdual", "monotone", "affine",
            "universal_alone", "universal_with_constants",
        ) if result.get(name) is not bool(flags[name][0])]

    @staticmethod
    def _check_mux(gate: int, arity: int, select: list[int], result: dict) -> list[str]:
        rest = [v for v in range(arity) if v not in select]
        leaf_arity = len(rest)
        leaves = []
        for s in range(1 << len(select)):
            leaf = 0
            for lr in range(1 << leaf_arity):
                row = 0
                for i, var in enumerate(select):
                    row |= ((s >> (len(select) - 1 - i)) & 1) << (arity - 1 - var)
                for i, var in enumerate(rest):
                    row |= ((lr >> (leaf_arity - 1 - i)) & 1) << (arity - 1 - var)
                leaf |= ((gate >> row) & 1) << lr
            leaves.append(leaf)
        reordered = sum(leaf << (s << leaf_arity) for s, leaf in enumerate(leaves))
        expected = {
            "select": select,
            "leaves": [oracle.to_hex(leaf, leaf_arity) for leaf in leaves],
            "reordered": oracle.to_hex(reordered, arity),
        }
        return [f"{k}={result.get(k)!r}, expected {v!r}"
                for k, v in expected.items() if result.get(k) != v]

    def _check_closure(self, gate: int, arity: int, constants: bool, result: dict) -> list[str]:
        codes = [int(c, 16) for c in result["realized"]]
        width = oracle.hex_width(arity)
        problems = []
        if any(len(c) != width for c in result["realized"]) or codes != sorted(set(codes)):
            problems.append("realized codes are not sorted, distinct and zero-padded")
        if result["count"] != len(codes):
            problems.append(f"count {result['count']} lists {len(codes)} codes")
        if arity == 4:
            if not isinstance(result["complete"], bool):
                problems.append(f"complete={result['complete']!r}")
            if not oracle.within_clone(gate, arity, constants, codes):
                problems.append("a realized code lies outside a Post class of the generators")
            return problems
        expected = self.closure_counts[(arity, constants)][gate]
        if result["count"] != expected or result["complete"] is not True:
            problems.append(f"count {result['count']}, reference {expected}")
        key = (arity, gate, constants, tuple(codes))
        if not problems and len(codes) < 1 << (1 << arity) and key not in self._closed:
            if not oracle.is_closed(gate, arity, constants, codes):
                problems.append("realized set is not closed under the gate")
            else:
                self._closed.add(key)
        return problems

    @staticmethod
    def _check_count(n: int, result: dict) -> list[str]:
        total = 1 << (1 << n)
        universal = oracle.universal_total(n)
        ratio = Fraction(universal, total)
        expected = {
            "n": n,
            "input_combinations": 1 << n,
            "gate_count": total,
            "endpoint_free": total >> 2,
            "universal": universal,
            "ratio": {"num": ratio.numerator, "den": ratio.denominator},
        }
        return [f"{k}={result.get(k)!r}" for k, v in expected.items() if result.get(k) != v]


def make(name: str, seed: int, data_dir: Path, workers: int):
    if name == "census3":
        return Census(3, seed, data_dir, workers)
    if name == "census4":
        return Census(4, seed, data_dir, workers)
    if name == "synth3":
        return Synth3(seed, data_dir)
    if name == "queries":
        return Queries(seed, data_dir)
    raise ValueError(f"unknown workload {name!r}")

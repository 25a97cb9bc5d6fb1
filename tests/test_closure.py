import hashlib
import itertools
import json
import random
import tracemalloc

import numpy as np
import pytest

import sheffer.closure as closure_mod
from sheffer.bitfunc import TruthTable, compose_codes, projection
from sheffer.classify import universal_alone
from sheffer.clones import realizes
from sheffer.closure import (
    Circuit,
    ClosureBudgetError,
    ClosureReport,
    circuit_from_json,
    circuit_to_json,
    generate_closure,
    seed_codes,
    synthesize,
    verify_circuit,
)


#: sha256 of every witness in the `reports2` and `witness_reports` fixtures.
WITNESS_DIGEST = "eccc3d6f823c91c31ea1020fe931537de5933f0c7e41a24f92d9bf90665494dc"

#: sha256 of the targeted witnesses of `test_targeted_witnesses_are_pinned`.
TARGETED_DIGEST = "83643f7d188bd82866ff271f27f1cfe424eaa9581355e3254d1dcd5998c33eb5"

#: sha256 of the targeted reports of `test_targeted_reports_are_pinned`.
TARGETED_REPORT_DIGEST = "2e966a2e04696582743d5b090d69fb71756b5d4417ef69e2511fb3c55d651e8a"

#: sha256 of the witness runs of `test_early_stopped_witness_maps_are_pinned`.
EARLY_STOP_DIGEST = "3dd6b731eafd91ef8cd840a3e7934c7a85b15c3172bfdd694c3e8e44d5971119"

#: sha256 of the count-mode reports of `test_count_mode_reports_are_pinned`.
COUNT_DIGEST = "f5f0f08cb31f9ec1c99d77fb92e06ee925acf5f28e6266acaa8cd63dbf5a11b4"


def gate(text, arity):
    return TruthTable.from_hex(text, arity)


def test_and_realizes_three():
    report = generate_closure(gate("8", 2))
    assert report.count == 3
    assert sorted(report.realized_codes()) == [0x8, 0xA, 0xC]


def test_nand_realizes_everything():
    report = generate_closure(gate("7", 2))
    assert report.count == 16
    assert report.complete and report.stopped_by is None


def test_not_gate_counts():
    assert generate_closure(gate("3", 2)).count == 4
    assert generate_closure(gate("3", 2), True).count == 6


def test_constant_gate_counts():
    # a constant generator realizes only itself, even with projections seeded
    assert generate_closure(gate("0", 2)).count == 1
    assert generate_closure(gate("0", 2), True).count == 1
    assert generate_closure(gate("FF", 3)).count == 1


def test_2b_closure_set():
    report = generate_closure(gate("2B", 3))
    expected = {0x0F, 0x17, 0x2B, 0x33, 0x4D, 0x55, 0x69, 0x71,
                0x8E, 0x96, 0xAA, 0xB2, 0xCC, 0xD4, 0xE8, 0xF0}
    assert report.count == 16
    assert set(report.realized_codes()) == expected


def test_a8_with_constants():
    assert generate_closure(gate("A8", 3), True).count == 20


def test_rounds_reported():
    assert generate_closure(gate("8", 2)).rounds == 2


@pytest.mark.parametrize(
    "text,arity,constants",
    [("7", 2, False), ("8", 2, False), ("2B", 3, False),
     ("85", 3, True), ("F8", 3, False), ("E8", 3, True)],
)
def test_fixed_point_random_sampling(text, arity, constants):
    tt = gate(text, arity)
    report = generate_closure(tt, constants)
    codes = list(report.realized_codes())
    rng = random.Random(99)
    for _ in range(10_000):
        args = [rng.choice(codes) for _ in range(arity)]
        out = compose_codes(tt.code, arity, args, arity)
        assert report.is_realized(out)


def test_every_witness_verifies_n2():
    for code in range(16):
        tt = TruthTable(2, code)
        for constants in (False, True):
            report = generate_closure(tt, constants)
            for target, circuit in report.witnesses.items():
                assert verify_circuit(circuit, tt).code == target


def test_witnesses_verify_n3_spot():
    for text, constants in [("2B", False), ("85", True), ("01", False)]:
        tt = gate(text, 3)
        report = generate_closure(tt, constants)
        for target, circuit in report.witnesses.items():
            assert verify_circuit(circuit, tt).code == target


def test_constants_only_in_constant_reports():
    report = generate_closure(gate("85", 3), False)
    for circuit in report.witnesses.values():
        assert all(node[0] != "const" for node in circuit.nodes)


def _nand_codes_within(applies):
    # independent oracle: outputs of every NAND DAG with at most `applies`
    # gate applications over inputs A and B (no constants)
    a, b = projection(2, 0).code, projection(2, 1).code
    found = set()

    def nand(x, y):
        return (x & y) ^ 0xF

    def grow(values, budget):
        found.update(values[2:])
        if budget == 0:
            return
        for x, y in itertools.product(values, repeat=2):
            grow(values + [nand(x, y)], budget - 1)

    grow([a, b], applies)
    return found


def test_nand_to_xor_witness_minimal():
    nand = gate("7", 2)
    circuit = synthesize(nand, gate("6", 2))
    assert circuit is not None
    assert circuit.size == 4
    assert verify_circuit(circuit, nand).code == 0x6
    # no circuit with three or fewer applications reaches XOR
    assert 0x6 not in _nand_codes_within(3)
    assert 0x6 in _nand_codes_within(4)


def test_stored_witness_is_depth_minimal_not_size_minimal():
    # NOR -> XNOR stores a 5-application witness, yet 4 applications
    # suffice: depth comes first in the rank rule, size only breaks ties.
    nor, xnor = gate("1", 2), gate("9", 2)
    stored = synthesize(nor, xnor)
    smaller = Circuit(2, (("input", 0), ("input", 1), ("apply", (0, 1)),
                          ("apply", (0, 2)), ("apply", (1, 2)), ("apply", (3, 4))), 5)
    assert verify_circuit(stored, nor) == verify_circuit(smaller, nor) == xnor
    assert (stored.size, smaller.size) == (5, 4)
    assert _depth(stored) <= _depth(smaller)


def test_synthesize_unrealizable():
    assert synthesize(gate("8", 2), gate("6", 2)) is None


def test_synthesize_self_is_single_apply():
    rng = random.Random(17)
    for arity in (2, 3):
        for _ in range(6):
            tt = TruthTable(arity, rng.randrange(1 << (1 << arity)))
            circuit = synthesize(tt, tt)
            assert circuit is not None
            assert circuit.size == 1
            assert all(node[0] == "input" for node in circuit.nodes[:-1])
            assert verify_circuit(circuit, tt) == tt


def test_synthesize_arity_checks():
    with pytest.raises(ValueError):
        synthesize(gate("7", 2), gate("2B", 3))
    with pytest.raises(ValueError):
        synthesize(gate("4685", 4), gate("4685", 4))


def _spy_on_generate_closure(monkeypatch):
    """Record (kwargs, report) for each call `synthesize` makes."""
    calls = []
    real = closure_mod.generate_closure

    def spy(*args, **kwargs):
        report = real(*args, **kwargs)
        calls.append((kwargs, report))
        return report

    monkeypatch.setattr(closure_mod, "generate_closure", spy)
    return calls


def _synthesize_matches_full_report(calls, full, target):
    calls.clear()
    tt = full.generator
    circuit = synthesize(tt, TruthTable(tt.arity, target), full.constants_enabled)
    assert circuit == full.witnesses.get(target), (tt, full.constants_enabled, target)
    if circuit is None:
        # The clone oracle answers alone; the spy records a targeted run,
        # which must find nothing either.
        assert calls == []
        closure_mod.generate_closure(tt, full.constants_enabled, witnesses=True, target=target)
    [(kwargs, report)] = calls
    assert kwargs["witnesses"] is True
    assert report.realized & ~full.realized == 0
    if circuit is None:
        assert report.complete and report.stopped_by is None
        assert report.realized == full.realized and report.witnesses == {}
    else:
        assert not report.complete and report.stopped_by == "target"
        assert report.witnesses == {target: circuit}


def _depth(circuit):
    depths = []
    for node in circuit.nodes:
        depths.append(1 + max(depths[c] for c in node[1]) if node[0] == "apply" else 0)
    return depths[circuit.root]


def test_targeted_synthesis_matches_full_witnesses_n2(monkeypatch, reports2):
    calls = _spy_on_generate_closure(monkeypatch)
    for full in reports2.values():
        for target in range(16):
            _synthesize_matches_full_report(calls, full, target)


def test_targeted_synthesis_matches_full_witnesses_n3(monkeypatch, witness_reports):
    # Per gate: the smallest and largest code found at each witness depth
    # (= discovery round), and the first and last unrealizable code.
    calls = _spy_on_generate_closure(monkeypatch)
    checked = 0
    for full in witness_reports.values():
        by_depth = {}
        for code in sorted(full.witnesses):
            by_depth.setdefault(_depth(full.witnesses[code]), []).append(code)
        unrealizable = [c for c in range(256) if not full.is_realized(c)]
        ends = [*by_depth.values(), unrealizable]
        targets = {c for codes in ends for c in codes[:1] + codes[-1:]}
        for target in sorted(targets):
            _synthesize_matches_full_report(calls, full, target)
        checked += len(targets)
    assert checked > 100


@pytest.mark.parametrize("text,arity", [("7", 2), ("2B", 3)])
def test_target_validation(text, arity):
    for target in (True, -1, 1 << (1 << arity), 1.0, "0"):
        with pytest.raises(ValueError, match="target"):
            generate_closure(gate(text, arity), target=target)


@pytest.mark.parametrize("text,arity,budget", [("7", 2, None), ("2B", 3, None),
                                               ("4685", 4, 64)])
def test_target_needs_witness_mode(text, arity, budget):
    with pytest.raises(ValueError, match="target"):
        generate_closure(gate(text, arity), witnesses=False, budget=budget, target=0)
    if arity == 4:  # four inputs never build witnesses
        with pytest.raises(ValueError, match="target"):
            generate_closure(gate(text, arity), budget=budget, target=0)


def _spy_on_sweep_blocks(monkeypatch):
    """Record the source sizes of each block a closure sweeps."""
    sizes = []
    real = closure_mod._sweep_block

    def spy(gate_code, srcs, *rest):
        sizes.append(tuple(s.size for s in srcs))
        return real(gate_code, srcs, *rest)

    monkeypatch.setattr(closure_mod, "_sweep_block", spy)
    return sizes


@pytest.mark.parametrize("text,arity", [("7", 2), ("2B", 3)])
def test_targeted_run_sweeps_each_round_once(monkeypatch, witness_reports, text, arity):
    # NAND -> XOR, and a plain 2B target found in its last round.
    tt = gate(text, arity)
    if arity == 2:
        target = 0x6
    else:
        found = witness_reports[(tt.code, False)].witnesses
        target = max(found, key=lambda code: _depth(found[code]))
    sizes = _spy_on_sweep_blocks(monkeypatch)
    generate_closure(tt, witnesses=True)
    untargeted = list(sizes)
    sizes.clear()
    report = generate_closure(tt, witnesses=True, target=target)
    assert report.stopped_by == "target" and report.rounds > 1
    assert sizes == untargeted[: len(sizes)]


def test_witness_maps_are_pinned(reports2, witness_reports):
    # The targeted-vs-full tests compare one engine with itself; this pin
    # catches a change to the ranking both share.
    digest = hashlib.sha256()
    for reports in (reports2, witness_reports):
        for key in sorted(reports):
            report = reports[key]
            for code in sorted(report.witnesses):
                record = [*key, code, circuit_to_json(report.witnesses[code], report.generator)]
                digest.update(json.dumps(record).encode())
    assert digest.hexdigest() == WITNESS_DIGEST


def test_early_stopped_witness_maps_are_pinned(monkeypatch, witness_reports):
    # The other pins cover complete runs and targeted synthesis; this one
    # covers the witnesses a run keeps when a budget or the sweep cap stops
    # it, some in the middle of a round, and every 1-input gate.
    runs = [(1, code, None, None) for code in range(4)]
    for code in sorted({code for code, _ in witness_reports}):
        runs += [(3, code, budget, None) for budget in (12, 40)]
        runs += [(3, code, None, cap) for cap in (100, 1000)]
    digest = hashlib.sha256()
    stops = set()
    uncapped = closure_mod._MAX_TRAILING
    for arity, code, budget, cap in runs:
        monkeypatch.setattr(closure_mod, "_MAX_TRAILING", cap or uncapped)
        for constants in (False, True):
            r = generate_closure(TruthTable(arity, code), constants, budget=budget)
            stops.add(r.stopped_by)
            witnesses = [[c, circuit_to_json(r.witnesses[c], r.generator)]
                         for c in sorted(r.witnesses)]
            record = [arity, code, constants, budget, cap, r.count, r.rounds,
                      r.stopped_by, witnesses]
            digest.update(json.dumps(record).encode())
    assert stops == {None, "budget", "sweep_cap"}
    assert digest.hexdigest() == EARLY_STOP_DIGEST


def _class_representatives_n3():
    """The smallest code of each class of 3-input gates under input permutation and duality."""
    seen, reps = set(), []
    for code in range(256):
        if code not in seen:
            reps.append(code)
            for perm in itertools.permutations(range(3)):
                moved = TruthTable(3, code).permute(perm)
                seen.update((moved.code, moved.dual().code))
    return reps


def test_targeted_witnesses_are_pinned():
    # The full-run pin covers 12 three-input gates; this one covers a
    # targeted witness of 3 seeded realizable targets in every class.
    reps = _class_representatives_n3()
    assert len(reps) == 46
    rng = random.Random(19)
    digest = hashlib.sha256()
    for code in reps:
        tt = TruthTable(3, code)
        for constants in (False, True):
            realizable = [t for t in range(256) if realizes(tt, TruthTable(3, t), constants)]
            for target in rng.choices(realizable, k=3):
                circuit = synthesize(tt, TruthTable(3, target), constants)
                record = [code, constants, target, circuit_to_json(circuit, tt)]
                digest.update(json.dumps(record).encode())
    assert digest.hexdigest() == TARGETED_DIGEST


def test_targeted_reports_are_pinned():
    # The targeted-vs-full tests compare one engine with itself, and the
    # pin above reads only circuits; this pins whole targeted reports,
    # lower bounds included.  Per class: a seeded target, then the
    # smallest realizable code the last report missed, until a report
    # misses none.  Its target is a deepest witness, found in the last
    # round, so the sweep stays narrowed to it over the most chunks.
    rng = random.Random(29)
    digest = hashlib.sha256()
    for code in _class_representatives_n3():
        tt = TruthTable(3, code)
        for constants in (False, True):
            realizable = [t for t in range(256) if realizes(tt, TruthTable(3, t), constants)]
            target = rng.choice(realizable)
            while target is not None:
                r = generate_closure(tt, constants, target=target)
                witnesses = [[c, circuit_to_json(r.witnesses[c], tt)] for c in sorted(r.witnesses)]
                record = [code, constants, target, hex(r.realized), r.count, r.rounds,
                          r.stopped_by, witnesses]
                digest.update(json.dumps(record).encode())
                target = next((t for t in realizable if not r.is_realized(t)), None)
    assert digest.hexdigest() == TARGETED_REPORT_DIGEST


def test_heaviest_synthesis_memory_is_bounded():
    # synth3's heaviest request.  Its traced peak is about 60 MiB; widening
    # the sweep's flat codes to np.intp would take it to about 96 MiB.
    tracemalloc.start()
    try:
        assert synthesize(TruthTable(3, 0x0D), TruthTable(3, 0x7F), True) is not None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 80 << 20


def test_count_mode_reports_are_pinned():
    # The witness pins never read `rounds`, `stopped_by`, count mode's
    # early exit at the full space, or a budgeted four-input realized set.
    rng = random.Random(23)
    runs = [(2, code, None) for code in range(16)]
    runs += [(3, code, None) for code in _class_representatives_n3()]
    runs += [(4, rng.randrange(1 << 16), 64) for _ in range(10)]
    digest = hashlib.sha256()
    for arity, code, budget in runs:
        for constants in (False, True):
            r = generate_closure(
                TruthTable(arity, code), constants, witnesses=False, budget=budget
            )
            record = [arity, code, constants, r.count, r.rounds, r.complete,
                      r.stopped_by, hex(r.realized)]
            digest.update(json.dumps(record).encode())
    assert digest.hexdigest() == COUNT_DIGEST


def test_synthesize_makes_one_witness_mode_closure(monkeypatch):
    # Benchmarks trace `synthesize` through the module-level binding.
    calls = _spy_on_generate_closure(monkeypatch)
    assert synthesize(gate("7", 2), gate("6", 2)) is not None  # NAND -> XOR
    assert [kwargs["witnesses"] for kwargs, _ in calls] == [True]


def test_synthesize_decides_unrealizable_without_a_closure(monkeypatch):
    # AND is monotone and XOR is not, so the clone oracle rules XOR out.
    calls = _spy_on_generate_closure(monkeypatch)
    assert synthesize(gate("8", 2), gate("6", 2)) is None
    assert calls == []


def test_verify_circuit_projection_and_const():
    assert verify_circuit(Circuit(2, (("input", 0),), 0), gate("7", 2)).to_hex() == "C"
    assert verify_circuit(Circuit(3, (("const", 1),), 0), gate("80", 3)).to_hex() == "FF"


def test_verify_circuit_nested_form():
    # NAND(NAND(A, NAND(A,B)), NAND(B, NAND(A,B))) computes XOR
    circuit = Circuit(
        2,
        (
            ("input", 0),
            ("input", 1),
            ("apply", (0, 1)),
            ("apply", (0, 2)),
            ("apply", (1, 2)),
            ("apply", (3, 4)),
        ),
        5,
    )
    assert verify_circuit(circuit, gate("7", 2)).to_hex() == "6"


def test_verify_circuit_rejects_malformed():
    nand = gate("7", 2)
    with pytest.raises(ValueError):
        verify_circuit(Circuit(2, (("apply", (0, 1)),), 0), nand)  # forward refs
    with pytest.raises(ValueError):
        verify_circuit(Circuit(2, (("input", 0), ("apply", (0,))), 1), nand)
    with pytest.raises(ValueError):
        verify_circuit(Circuit(2, (("input", 5),), 0), nand)
    with pytest.raises(ValueError):
        verify_circuit(Circuit(2, (("input", 0),), 3), nand)
    with pytest.raises(ValueError):
        verify_circuit(Circuit(3, (("input", 0),), 0), nand)


def _nand_json(nodes, root=0):
    return {"generator": "7", "arity": 2, "nodes": nodes, "root": root}


def _nand_of_inputs(args=(0, 1)):
    """NAND applied to A and B: node 2 is the root."""
    return [{"op": "input", "var": 0}, {"op": "input", "var": 1},
            {"op": "apply", "args": list(args)}]


@pytest.mark.parametrize(
    "parse",
    [
        pytest.param(lambda: circuit_from_json(_nand_json([{"op": "input"}])),
                     id="json-input-without-var"),
        pytest.param(lambda: circuit_from_json(_nand_json(["input"])),
                     id="json-node-not-a-dict"),
        pytest.param(lambda: circuit_from_json(_nand_json([{"op": "apply", "args": 5}])),
                     id="json-args-not-a-list"),
        pytest.param(lambda: circuit_from_json(_nand_json(5)), id="json-nodes-not-a-list"),
        pytest.param(lambda: circuit_from_json(_nand_json([{"op": "input", "var": 1.9}])),
                     id="json-float-var"),
        pytest.param(lambda: circuit_from_json(_nand_json([{"op": "input", "var": True}])),
                     id="json-bool-var"),
        pytest.param(lambda: circuit_from_json(_nand_json([{"op": "input", "var": "1"}])),
                     id="json-string-var"),
        pytest.param(lambda: circuit_from_json(_nand_json(_nand_of_inputs(), root=2.7)),
                     id="json-float-root"),
        pytest.param(lambda: circuit_from_json(_nand_json(_nand_of_inputs(), root="2")),
                     id="json-string-root"),
        pytest.param(lambda: circuit_from_json(_nand_json(_nand_of_inputs(), root=True)),
                     id="json-bool-root"),
        pytest.param(lambda: circuit_from_json(_nand_json(_nand_of_inputs((0.2, 1.0)), root=2)),
                     id="json-float-args"),
        pytest.param(lambda: circuit_from_json(_nand_json(_nand_of_inputs((False, True)), root=2)),
                     id="json-bool-args"),
        pytest.param(lambda: circuit_from_json({"generator": "2", "arity": True,
                                                "nodes": [{"op": "input", "var": 0}], "root": 0}),
                     id="json-bool-arity"),
        pytest.param(lambda: verify_circuit(Circuit(2, (("input",),), 0), gate("7", 2)),
                     id="node-input-without-var"),
        pytest.param(lambda: verify_circuit(Circuit(2, (("apply",),), 0), gate("7", 2)),
                     id="node-apply-without-args"),
        pytest.param(lambda: verify_circuit(Circuit(2, (("const",),), 0), gate("7", 2)),
                     id="node-const-without-bit"),
        pytest.param(lambda: verify_circuit(Circuit(2, ((),), 0), gate("7", 2)),
                     id="node-empty"),
        pytest.param(lambda: verify_circuit(Circuit(2, (("input", 1.0),), 0), gate("7", 2)),
                     id="node-input-float-var"),
        pytest.param(lambda: verify_circuit(Circuit(2, (("input", 0), ("apply", (0.0, 0))), 1),
                                            gate("7", 2)),
                     id="node-apply-float-child"),
        pytest.param(lambda: verify_circuit(Circuit(2, (("input", 0),), 0.0), gate("7", 2)),
                     id="root-float"),
        pytest.param(lambda: verify_circuit(Circuit(2, (("const", 1.0),), 0), gate("7", 2)),
                     id="node-const-float-bit"),
        pytest.param(lambda: verify_circuit(Circuit(2, (("const", True),), 0), gate("7", 2)),
                     id="node-const-bool-bit"),
    ],
)
def test_malformed_circuits_raise_value_error(parse):
    with pytest.raises(ValueError):
        parse()


def test_well_formed_nand_json_parses():
    # The malformed cases above differ from this circuit in one value.
    circuit, generator = circuit_from_json(_nand_json(_nand_of_inputs(), root=2))
    assert verify_circuit(circuit, generator) == gate("7", 2)


def test_circuit_json_round_trip():
    nand = gate("7", 2)
    circuit = synthesize(nand, gate("6", 2))
    data = circuit_to_json(circuit, nand)
    assert set(data) == {"generator", "arity", "nodes", "root"}
    assert data["generator"] == "7"
    assert all(n["op"] in ("input", "const0", "const1", "apply") for n in data["nodes"])
    text = json.dumps(data)
    parsed, generator = circuit_from_json(json.loads(text))
    assert parsed == circuit
    assert generator == nand


def test_plain_subset_of_constants():
    for code in range(16):
        tt = TruthTable(2, code)
        plain = generate_closure(tt, False).realized
        const = generate_closure(tt, True).realized
        assert plain & ~const == 0
    rng = random.Random(5)
    for _ in range(8):
        tt = TruthTable(3, rng.randrange(256))
        plain = generate_closure(tt, False).realized
        const = generate_closure(tt, True).realized
        assert plain & ~const == 0


def test_permutation_closed_when_permuted_projections_realized():
    # exhaustive at two inputs
    for code in range(16):
        tt = TruthTable(2, code)
        report = generate_closure(tt, False)
        realized = set(report.realized_codes())
        for perm in ((1, 0),):
            if all(projection(2, v).permute(perm).code in realized for v in range(2)):
                for c in realized:
                    assert TruthTable(2, c).permute(perm).code in realized


def test_closure_universality_bridge_n2():
    for code in range(16):
        tt = TruthTable(2, code)
        assert (generate_closure(tt).count == 16) == universal_alone(tt)


def test_early_exit_is_quiescent():
    # reaching the full space must leave a genuinely closed set
    report = generate_closure(gate("07", 3), witnesses=False)
    assert report.count == 256
    codes = np.array(list(report.realized_codes()))
    assert codes.size == 256


def test_seed_codes():
    assert seed_codes(3, False) == [0xAA, 0xCC, 0xF0]
    assert seed_codes(3, True) == [0x00, 0xAA, 0xCC, 0xF0, 0xFF]


def test_four_inputs_needs_budget():
    with pytest.raises(ClosureBudgetError):
        generate_closure(gate("4685", 4))


def test_four_inputs_budgeted_lower_bound():
    tt = gate("4685", 4)
    small = generate_closure(tt, budget=24)
    assert not small.complete and small.stopped_by == "budget"
    assert small.witnesses is None
    assert small.is_realized(tt.code)
    larger = generate_closure(tt, budget=48)
    assert larger.count >= small.count
    assert small.realized & ~larger.realized == 0


@pytest.mark.parametrize("text,arity", [("7", 2), ("2B", 3), ("4685", 4)])
@pytest.mark.parametrize("budget", [0, -5, 2.5, True, "3"])
def test_nonpositive_budget_rejected(text, arity, budget):
    with pytest.raises(ValueError, match="budget"):
        generate_closure(gate(text, arity), budget=budget)


@pytest.mark.parametrize(
    "text,arity,constants,budget",
    [("2B", 3, False, None), ("2B", 3, True, None), ("4685", 4, False, 64),
     ("4685", 4, True, 64)],
)
def test_sweep_cap_stops_with_a_lower_bound(monkeypatch, text, arity, constants, budget):
    tt = gate(text, arity)
    uncapped = generate_closure(tt, constants, budget=budget)
    monkeypatch.setattr(closure_mod, "_MAX_TRAILING", 100)
    capped = generate_closure(tt, constants, budget=budget)
    assert not capped.complete
    assert capped.realized & ~uncapped.realized == 0
    if arity == 3:  # stopped inside a later round, after round 1 was swept
        assert 0 < capped.count < uncapped.count
        assert capped.stopped_by == "sweep_cap"
    if capped.witnesses is not None:
        assert sorted(capped.witnesses) == list(capped.realized_codes())


def test_arity_five_rejected():
    with pytest.raises(ValueError):
        generate_closure(TruthTable(5, 1))


@pytest.mark.parametrize(
    "text,arity,constants,budget",
    [("0", 2, False, None), ("7", 2, False, None), ("E8", 3, False, None),
     ("2B", 3, True, None), ("4685", 4, False, 64), ("4685", 4, True, 64)],
)
def test_realized_codes_matches_is_realized(text, arity, constants, budget):
    report = generate_closure(gate(text, arity), constants, witnesses=False, budget=budget)
    expected = [c for c in range(1 << (1 << arity)) if report.is_realized(c)]
    assert list(report.realized_codes()) == expected


def test_realized_codes_empty():
    report = ClosureReport(gate("0", 2), False, 0, 0, 0, True, None)
    assert list(report.realized_codes()) == []

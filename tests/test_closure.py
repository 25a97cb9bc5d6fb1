import itertools
import json
import random

import numpy as np
import pytest

from sheffer.bitfunc import TruthTable, compose_codes, projection
from sheffer.classify import universal_alone
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


def gate(text, arity):
    return TruthTable.from_hex(text, arity)


def test_and_realizes_three():
    report = generate_closure(gate("8", 2))
    assert report.count == 3
    assert sorted(report.realized_codes()) == [0x8, 0xA, 0xC]


def test_nand_realizes_everything():
    report = generate_closure(gate("7", 2))
    assert report.count == 16
    assert report.complete


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


def _nand_json(nodes):
    return {"generator": "7", "arity": 2, "nodes": nodes, "root": 0}


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
    ],
)
def test_malformed_circuits_raise_value_error(parse):
    with pytest.raises(ValueError):
        parse()


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
    assert not small.complete
    assert small.witnesses is None
    assert small.is_realized(tt.code)
    larger = generate_closure(tt, budget=48)
    assert larger.count >= small.count
    assert small.realized & ~larger.realized == 0


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

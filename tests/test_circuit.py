import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hamline import circuit as cm
from hamline.circuit import (CircuitFormatError, Gate2Q, LayeredCircuit,
                             NAMED_GATES, circuit_unitary, gate_at_location,
                             identity_round, layerize, location_of_gate,
                             parse_circuit)


def rounds_doc(n, m, rounds):
    return json.dumps({"n": n, "m": m, "rounds": rounds})


def test_parse_minimal_identity():
    c = parse_circuit(rounds_doc(2, 1, [[{"kind": "I"}]]))
    assert (c.n, c.m, c.R) == (2, 1, 1)
    assert c.gate(1, 1).is_identity()


def test_parse_rejects_non_unitary():
    mat = [[[1.0, 0.0]] * 4] * 4  # all-ones matrix, columns not orthonormal
    with pytest.raises(ValueError, match="non-unitary"):
        parse_circuit(rounds_doc(2, 1, [[{"kind": "I"}], [{"matrix": mat}]]))


def test_parse_round_trip_matches_hand_built():
    doc = rounds_doc(3, 1, [
        [{"kind": "I"}, {"kind": "I"}],
        [{"kind": "CNOT"}, {"kind": "I"}],
    ])
    parsed = parse_circuit(doc)
    built = LayeredCircuit(3, 1, (
        identity_round(3),
        (Gate2Q(NAMED_GATES["CNOT"], 1), Gate2Q(NAMED_GATES["I"], 2)),
    ))
    assert parsed.R == built.R == 2
    for r in (1, 2):
        for g in (1, 2):
            assert np.array_equal(parsed.gate(r, g).matrix,
                                  built.gate(r, g).matrix)


def test_parse_malformed_raises_format_error():
    with pytest.raises(CircuitFormatError):
        parse_circuit("{not json")
    with pytest.raises(CircuitFormatError):
        parse_circuit(json.dumps({"n": 2, "m": 1}))
    with pytest.raises(CircuitFormatError):
        parse_circuit(json.dumps({"n": 2}))
    # a missing key or a wrongly typed section or entry
    for doc in [{"n": 2, "m": 1, "gates": [{"kind": "CNOT"}]},
                {"n": 2, "m": 1, "gates": 5},
                {"n": 2, "m": 1, "rounds": [[{"kind": "I"}], 5]},
                {"n": 2, "m": 1, "rounds": [[{"kind": "I"}], [{}]]},
                {"n": 2, "m": 1, "rounds": [[{"kind": "I"}], [3]]},
                {"n": 2, "m": 1, "rounds": [[{"kind": "I"}],
                                            [{"matrix": np.eye(4).tolist()}]]}]:
        with pytest.raises(CircuitFormatError):
            parse_circuit(json.dumps(doc))


@pytest.mark.parametrize("field,doc", [
    ("qubits", {"n": 3, "m": 1, "gates": [{"kind": "CNOT",
                                           "qubits": [1, 2, 3]}]}),
    ("n", {"n": "three", "m": 1, "gates": []}),
    ("matrix", {"n": 2, "m": 1, "rounds": [
        [{"kind": "I"}],
        [{"matrix": [[[1.0, 0.0, 0.0]] + [[0.0, 0.0]] * 3] * 4}]]}),
])
def test_parse_names_the_field_of_a_malformed_entry(field, doc):
    # a parse error of its own, not Python's unpacking or int() message
    with pytest.raises(CircuitFormatError, match=f"field '{field}'"):
        parse_circuit(json.dumps(doc))


@pytest.mark.parametrize("field,doc", [
    ("n", {"n": 2.9, "m": 1, "gates": []}),
    ("m", {"n": 2, "m": True, "gates": []}),
    ("qubits", {"n": 2, "m": 1, "gates": [{"kind": "CNOT",
                                           "qubits": [1.5, 2]}]}),
    ("n", {"n": "3", "m": 1, "gates": []}),
], ids=["float-n", "boolean-m", "float-qubit", "string-count"])
def test_parse_takes_only_json_integers(field, doc):
    # int() would truncate 2.9 and 1.5, and read true as 1 and "3" as 3
    with pytest.raises(CircuitFormatError,
                       match=f"field '{field}' needs an integer"):
        parse_circuit(json.dumps(doc))


def test_parse_flat_gates_triggers_layerize():
    doc = json.dumps({"n": 3, "m": 1, "gates": [
        {"kind": "CNOT", "qubits": [1, 3]},
    ]})
    c = parse_circuit(doc)
    assert c.R > 1
    u = circuit_unitary(c)
    ref = np.zeros((8, 8), dtype=complex)
    for b in range(8):
        ref[b ^ (4 if b & 1 else 0), b] = 1.0
    assert np.max(np.abs(u - ref)) < 1e-12


def test_round_one_must_be_identity():
    with pytest.raises(ValueError, match="identity"):
        LayeredCircuit(2, 1, ((Gate2Q(NAMED_GATES["X"], 1),),))


def test_gate_slot_targets_checked():
    with pytest.raises(ValueError, match="targets"):
        LayeredCircuit(3, 1, ((Gate2Q(NAMED_GATES["I"], 2),
                               Gate2Q(NAMED_GATES["I"], 2)),))


# ---------------------------------------------------------------------------
# layerize
# ---------------------------------------------------------------------------

def test_layerize_empty_circuit():
    c = layerize(2, 1, [])
    assert c.R == 1
    assert np.allclose(circuit_unitary(c), np.eye(4))


def test_layerize_adjacent_gate_is_fixed_point_up_to_identity_round():
    c = layerize(2, 1, [(NAMED_GATES["CNOT"], 1, 2)])
    assert c.R == 2
    assert np.array_equal(c.gate(2, 1).matrix, NAMED_GATES["CNOT"])


def test_layerize_rejects_bad_pairs():
    with pytest.raises(ValueError):
        layerize(3, 1, [(NAMED_GATES["CNOT"], 3, 1)])
    with pytest.raises(ValueError):
        layerize(1, 1, [])


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["CNOT", "SWAP", "CZ", "H", "T"]),
                          st.integers(1, 3), st.integers(0, 10)),
                max_size=3))
def test_layerize_preserves_unitary(gates):
    n = 4
    flat = []
    for kind, a, span in gates:
        b = a + 1 + span % (n - a)
        flat.append((NAMED_GATES[kind], a, b))
    c = layerize(n, 1, flat)
    # reference: apply each gate directly on its (possibly distant) pair
    dim = 1 << n
    ref = np.eye(dim, dtype=complex)
    for mat, a, b in flat:
        full = np.eye(dim, dtype=complex)
        for col in range(dim):
            v = np.zeros(dim, dtype=complex)
            v[col] = 1.0
            # route b next to a with explicit swaps on the state
            for s in range(b - 1, a, -1):
                v = cm.apply_gate_to_state(v, NAMED_GATES["SWAP"], s, n)
            v = cm.apply_gate_to_state(v, mat, a, n)
            for s in range(a + 1, b):
                v = cm.apply_gate_to_state(v, NAMED_GATES["SWAP"], s, n)
            full[:, col] = v
        ref = full @ ref
    assert np.max(np.abs(circuit_unitary(c) - ref)) < 1e-12


# ---------------------------------------------------------------------------
# gate locations
# ---------------------------------------------------------------------------

def test_gate_at_location_examples():
    c = parse_circuit(rounds_doc(3, 1, [
        [{"kind": "I"}, {"kind": "I"}],
        [{"kind": "CNOT"}, {"kind": "SWAP"}],
    ]))
    assert gate_at_location(c, 2).is_identity()          # round 1 gate 1
    # round 2 gates 1 and 2
    assert np.array_equal(gate_at_location(c, 8).matrix, NAMED_GATES["CNOT"])
    assert np.array_equal(gate_at_location(c, 10).matrix, NAMED_GATES["SWAP"])
    for bad in (7, 6, 12, 0):
        with pytest.raises(ValueError):
            gate_at_location(c, bad)


def test_gate_location_bijection():
    from hamline import chain
    n, R = 3, 2
    b_pairs = [i for i in range(1, 2 * n * R)
               if chain.location_type(i, n, R) == "B"]
    mapped = [location_of_gate(n, r, g)
              for r in range(1, R + 1) for g in range(1, n)]
    assert sorted(mapped) == b_pairs


# ---------------------------------------------------------------------------
# dense simulation
# ---------------------------------------------------------------------------

def test_output_zero_probability_witness_dependence():
    c = parse_circuit(rounds_doc(2, 1, [[{"kind": "I"}]]))
    # identity circuit: output qubit 2 carries the witness directly
    assert cm.output_zero_probability(c, np.array([1, 0])) == 1.0
    assert cm.output_zero_probability(c, np.array([0, 1])) == 0.0
    plus = np.array([1, 1]) / np.sqrt(2)
    assert abs(cm.output_zero_probability(c, plus) - 0.5) < 1e-12


def test_apply_gate_to_state_matches_kron():
    rng = np.random.default_rng(5)
    n = 3
    v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    u = NAMED_GATES["CNOT"]
    # qubit a is bit a-1; qubit 1 is the lowest bit
    got = cm.apply_gate_to_state(v, u, 1, n)
    # build the explicit operator: U acts on (bit0, bit1), identity on bit2
    full = np.zeros((8, 8), dtype=complex)
    for col in range(8):
        s, t, rest = col & 1, (col >> 1) & 1, col >> 2
        for s2 in (0, 1):
            for t2 in (0, 1):
                amp = u[2 * s2 + t2, 2 * s + t]
                if amp:
                    full[s2 | (t2 << 1) | (rest << 2), col] += amp
    assert np.max(np.abs(full @ v - got)) < 1e-14

"""Layered nearest-neighbour circuits and their file format.

A layered circuit on n qubits is R rounds of n-1 two-qubit gates; gate g
of a round acts on the adjacent qubit pair (g, g+1) and the first round
is all identities.  Arbitrary two-qubit circuits are brought into this
form by routing non-adjacent gates through SWAP ladders.

Conventions (fixed here and relied on everywhere else):

* 4x4 gate matrices act on the ordered pair (left, right); basis index
  is 2*s + t with s the left qubit's bit.
* CNOT / CZ control is the left qubit; named single-qubit tags (H, X, T)
  act on the left qubit tensored with identity on the right.
* In dense n-qubit state vectors, qubit k is bit k-1 (qubit 1 is the
  least significant bit).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CircuitFormatError", "Gate2Q", "LayeredCircuit", "parse_circuit",
    "layerize", "gate_at_location", "location_of_gate", "circuit_unitary",
    "apply_gate_to_state", "output_zero_probability", "NAMED_GATES",
]


class CircuitFormatError(ValueError):
    """Raised for malformed circuit files (syntax, missing sections)."""

UNITARITY_TOL = 1e-12

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_T = np.diag([1.0, np.exp(1j * np.pi / 4)])
_I2 = np.eye(2, dtype=complex)

NAMED_GATES: dict[str, np.ndarray] = {
    "I": np.eye(4, dtype=complex),
    "H": np.kron(_H, _I2),
    "X": np.kron(_X, _I2),
    "T": np.kron(_T, _I2),
    "CNOT": np.array([[1, 0, 0, 0],
                      [0, 1, 0, 0],
                      [0, 0, 0, 1],
                      [0, 0, 1, 0]], dtype=complex),
    "SWAP": np.array([[1, 0, 0, 0],
                      [0, 0, 1, 0],
                      [0, 1, 0, 0],
                      [0, 0, 0, 1]], dtype=complex),
    "CZ": np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex),
}


def _check_unitary(m: np.ndarray, what: str) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4):
        raise ValueError(f"{what}: expected a 4x4 matrix, got {m.shape}")
    if np.max(np.abs(m.conj().T @ m - np.eye(4))) > UNITARITY_TOL:
        raise ValueError(f"{what}: non-unitary matrix")
    return m


@dataclass(frozen=True)
class Gate2Q:
    """A two-qubit gate on the adjacent pair (target, target+1)."""

    matrix: np.ndarray
    target: int

    def __post_init__(self):
        object.__setattr__(self, "matrix",
                           _check_unitary(self.matrix, f"gate@{self.target}"))

    def is_identity(self) -> bool:
        return bool(np.max(np.abs(self.matrix - np.eye(4))) <= UNITARITY_TOL)


@dataclass(frozen=True)
class LayeredCircuit:
    """R rounds of n-1 nearest-neighbour gates; round 1 is all identity."""

    n: int
    m: int
    rounds: tuple[tuple[Gate2Q, ...], ...]

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need n >= 2 qubits")
        if not 1 <= self.m <= self.n:
            raise ValueError("need 1 <= m <= n witness qubits")
        if not self.rounds:
            raise ValueError("need at least one round")
        for r, rnd in enumerate(self.rounds, start=1):
            if len(rnd) != self.n - 1:
                raise ValueError(
                    f"round {r} has {len(rnd)} gates, expected {self.n - 1}")
            for g, gate in enumerate(rnd, start=1):
                if gate.target != g:
                    raise ValueError(
                        f"round {r} slot {g} targets qubit {gate.target}")
        if not all(g.is_identity() for g in self.rounds[0]):
            raise ValueError("round 1 must consist of identity gates")

    @property
    def R(self) -> int:
        return len(self.rounds)

    def gate(self, r: int, g: int) -> Gate2Q:
        """Gate g (1-based) of round r (1-based)."""
        return self.rounds[r - 1][g - 1]


def identity_round(n: int) -> tuple[Gate2Q, ...]:
    return tuple(Gate2Q(NAMED_GATES["I"], g) for g in range(1, n))


def _gate_from_json(obj) -> np.ndarray:
    """The matrix of one gate entry of a circuit file."""
    if "kind" in obj:
        kind = obj["kind"]
        if kind not in NAMED_GATES:
            raise ValueError(f"unknown gate kind {kind!r}")
        return NAMED_GATES[kind]
    if "matrix" in obj:
        return np.array([[complex(*_pair(z, "matrix")) for z in row]
                         for row in obj["matrix"]])
    raise CircuitFormatError("gate entry needs either 'kind' or 'matrix'")


def _pair(value, field: str) -> list:
    """A two-entry list of a circuit file, else a CircuitFormatError that
    names its field."""
    if not isinstance(value, list) or len(value) != 2:
        raise CircuitFormatError(
            f"circuit file field {field!r} needs a pair, got {value!r}")
    return value


def _integer(value, field: str) -> int:
    """A JSON integer entry of a circuit file, else a CircuitFormatError
    that names its field; floats, strings and booleans, which int()
    would truncate or convert, are refused too."""
    if type(value) is not int:
        raise CircuitFormatError(
            f"circuit file field {field!r} needs an integer, got {value!r}")
    return value


def parse_circuit(text: str) -> LayeredCircuit:
    """Parse the JSON circuit format.

    Two top-level forms are accepted: "rounds" (already layered) and
    "gates" (a flat list with explicit qubit pairs, routed through
    :func:`layerize`).  A missing key, a wrongly typed section or
    entry, a ``qubits`` list or matrix entry that is not a pair, and a
    count or qubit that is not a JSON integer (a float, string or
    boolean) are a :class:`CircuitFormatError`; a well-formed file that
    describes no valid circuit is a ValueError.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CircuitFormatError(f"malformed circuit file: {exc}") from exc
    if not isinstance(doc, dict):
        raise CircuitFormatError("circuit file must contain a JSON object")
    gates = None
    try:
        n, m = _integer(doc["n"], "n"), _integer(doc["m"], "m")
        if "rounds" in doc:
            rounds = [[_gate_from_json(g) for g in rnd]
                      for rnd in doc["rounds"]]
        elif "gates" in doc:
            gates = []
            for entry in doc["gates"]:
                a, b = (_integer(q, "qubits")
                        for q in _pair(entry["qubits"], "qubits"))
                gates.append((_gate_from_json(entry), a, b))
        else:
            raise CircuitFormatError(
                "circuit file needs a 'rounds' or 'gates' section")
    except KeyError as exc:
        raise CircuitFormatError(f"circuit file is missing {exc}") from exc
    except TypeError as exc:
        raise CircuitFormatError(
            f"circuit file has a wrongly typed entry: {exc}") from exc

    if gates is not None:
        return layerize(n, m, gates)
    return LayeredCircuit(n, m, tuple(
        tuple(Gate2Q(mat, slot) for slot, mat in enumerate(rnd, start=1))
        for rnd in rounds))


def _single_gate_round(n: int, slot: int,
                       matrix: np.ndarray) -> tuple[Gate2Q, ...]:
    return tuple(Gate2Q(matrix if g == slot else NAMED_GATES["I"], g)
                 for g in range(1, n))


def layerize(n: int, m: int,
             gates: list[tuple[np.ndarray, int, int]]) -> LayeredCircuit:
    """Route a flat gate list into layered nearest-neighbour form.

    Each entry is (matrix, a, b) with a < b; non-adjacent pairs are
    routed by a greedy SWAP ladder that brings qubit b next to a and
    back.  A leading all-identity round is always prepended.  The gate
    count grows by O(n) per input gate; no routing optimisation is
    attempted.
    """
    if n < 2:
        raise ValueError("need n >= 2 qubits")
    rounds: list[tuple[Gate2Q, ...]] = [identity_round(n)]
    swap = NAMED_GATES["SWAP"]
    for matrix, a, b in gates:
        matrix = _check_unitary(matrix, f"gate on ({a},{b})")
        if not 1 <= a < b <= n:
            raise ValueError(f"gate qubits ({a},{b}) out of range, need a < b")
        ladder = list(range(b - 1, a, -1))  # swap (s, s+1) moves b leftwards
        for s in ladder:
            rounds.append(_single_gate_round(n, s, swap))
        rounds.append(_single_gate_round(n, a, matrix))
        for s in reversed(ladder):
            rounds.append(_single_gate_round(n, s, swap))
    return LayeredCircuit(n, m, tuple(rounds))


# ---------------------------------------------------------------------------
# Gate <-> chain location mapping
# ---------------------------------------------------------------------------

def location_of_gate(n: int, r: int, g: int) -> int:
    """Chain pair index where gate g of round r fires: 2(r-1)n + 2g."""
    return 2 * (r - 1) * n + 2 * g


def gate_at_location(circ: LayeredCircuit, i: int) -> Gate2Q:
    """The gate installed at chain pair (i, i+1); i must be 2(r-1)n + 2g."""
    n = circ.n
    if i % 2 != 0 or i % (2 * n) == 0 or not 1 <= i <= 2 * n * circ.R - 1:
        raise ValueError(f"pair index {i} is not a gate location")
    r = i // (2 * n) + 1
    g = (i - 2 * (r - 1) * n) // 2
    return circ.gate(r, g)


# ---------------------------------------------------------------------------
# Dense simulation (oracle for small n)
# ---------------------------------------------------------------------------

def apply_gate_to_state(state: np.ndarray, matrix: np.ndarray,
                        a: int, n: int) -> np.ndarray:
    """Apply a 4x4 gate to qubits (a, a+1) of a dense 2^n state vector, or
    of each column of a (2^n, k) array."""
    t = state.reshape((2,) * n + state.shape[1:])
    # qubit k is bit k-1; numpy axis j holds bit n-1-j
    ax_left, ax_right = n - a, n - a - 1
    t = np.moveaxis(t, (ax_left, ax_right), (0, 1))
    shape = t.shape
    t = np.tensordot(matrix.reshape(2, 2, 2, 2), t, axes=([2, 3], [0, 1]))
    t = np.moveaxis(t.reshape(shape), (0, 1), (ax_left, ax_right))
    return t.reshape(state.shape)


def _run(circ: LayeredCircuit, state: np.ndarray) -> np.ndarray:
    """A state vector or (2^n, k) columns after the whole circuit, gates
    applied slot by slot, round by round."""
    for rnd in circ.rounds:
        for gate in rnd:
            state = apply_gate_to_state(state, gate.matrix, gate.target,
                                        circ.n)
    return state


def circuit_unitary(circ: LayeredCircuit) -> np.ndarray:
    """Dense 2^n unitary of the whole circuit (gates applied slot by slot)."""
    if circ.n > 12:
        raise ValueError("dense unitary limited to n <= 12")
    return _run(circ, np.eye(1 << circ.n, dtype=complex))


def input_state(circ: LayeredCircuit, witness: np.ndarray) -> np.ndarray:
    """|0...0> on the n-m ancillas tensored with the witness (qubits n-m+1..n)."""
    witness = np.asarray(witness, dtype=complex).reshape(-1)
    if witness.shape != (1 << circ.m,):
        raise ValueError(f"witness must have dimension {1 << circ.m}")
    state = np.zeros(1 << circ.n, dtype=complex)
    shift = circ.n - circ.m
    state[np.arange(1 << circ.m) << shift] = witness
    return state


def output_zero_probability(circ: LayeredCircuit,
                            witness: np.ndarray) -> float:
    """p0: probability that the output qubit n reads 0 after the circuit."""
    state = _run(circ, input_state(circ, witness))
    probs = np.abs(state) ** 2
    mask = (np.arange(1 << circ.n) >> (circ.n - 1)) & 1
    return float(np.sum(probs[mask == 0]))

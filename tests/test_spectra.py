import functools
import hashlib
import itertools
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from hamline import chain, hamiltonian as hm, spectra, verify
from hamline.chain import Configuration
from hamline.circuit import (NAMED_GATES, Gate2Q, LayeredCircuit,
                             circuit_unitary, identity_round, input_state,
                             output_zero_probability)
from hamline.verify import accepting_circuit, cnot_circuit


def identity_circuit(n, m, R):
    return LayeredCircuit(n, m, tuple(identity_round(n) for _ in range(R)))


# ---------------------------------------------------------------------------
# basis indexing
# ---------------------------------------------------------------------------

def test_config_indices_small():
    c = Configuration.from_string("giq.", 2, 1)
    idx = hm._site_index(chain._Packed.of([c]))
    # site 1 most significant; digits: gate0=6, insi=0, qubit0=4, blank=2
    base = ((6 * 8 + 0) * 8 + 4) * 8 + 2
    assert idx[0] == base
    # content bit 0 belongs to the leftmost holder (the gate site)
    assert idx[1] == base + 8 ** 3
    assert idx[2] == base + 8 ** 1
    assert idx[3] == base + 8 ** 3 + 8 ** 1


def test_full_vector_norm_and_support():
    eta = spectra.history_state(identity_circuit(2, 1, 2), np.array([1, 0]))
    v = eta.to_full()
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12
    assert np.count_nonzero(v) == len(chain.legal_sequence(2, 2))


# ---------------------------------------------------------------------------
# history states
# ---------------------------------------------------------------------------

def test_history_identity_circuit_contents():
    circ = identity_circuit(2, 1, 2)
    eta = spectra.history_state(circ, np.array([1.0, 0.0]))
    amp = 1.0 / np.sqrt(len(chain.legal_sequence(2, 2)))
    for c, vec in eta.amplitudes.items():
        assert np.allclose(vec, amp * np.eye(1 << c.holder_count())[:, 0])
    assert abs(eta.norm() - 1.0) < 1e-12


def test_history_final_content_matches_dense_simulation():
    rng = np.random.default_rng(3)
    w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    w /= np.linalg.norm(w)
    circ = cnot_circuit()
    eta = spectra.history_state(circ, w)
    final = chain.legal_sequence(2, 2)[-1]
    got = eta.amplitudes[final] * np.sqrt(len(chain.legal_sequence(2, 2)))
    expect = circuit_unitary(circ) @ input_state(circ, w)
    assert np.max(np.abs(got - expect)) < 1e-12


def test_history_rejects_bad_witness():
    circ = identity_circuit(2, 1, 2)
    with pytest.raises(ValueError):
        spectra.history_state(circ, np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        spectra.history_state(circ, np.array([1.0, 0.0, 0.0]))


# ---------------------------------------------------------------------------
# expectation values
# ---------------------------------------------------------------------------

def test_history_prop_expectation_zero():
    circ = accepting_circuit()
    eta = spectra.history_state(circ, np.array([1, 0]))
    assert spectra.expectation(hm.build_h_prop(circ), eta) == 0.0


def test_total_energy_bound_epsilon_rejecting():
    # a circuit that rejects with probability p0 dependent on the witness
    circ = cnot_circuit()
    K = chain.step_count(2, 2)
    for w in (np.array([1.0, 0.0]), np.array([0.6, 0.8])):
        eta = spectra.history_state(circ, w)
        spec = hm.build_hamiltonian(circ, couplings=hm.UNIT_COUPLINGS)
        e = spectra.expectation(spec, eta)
        p0 = output_zero_probability(circ, w)
        assert e <= p0 / (K + 1) + 1e-12
        assert abs(e - p0 / (K + 1)) < 1e-12


def test_forbidden_pair_pen_expectation():
    pen = hm.build_h_pen(2, 1)
    c = Configuration.from_string("g.q.", 2, 1)
    state = spectra.RestrictedState(2, 1, {c: np.eye(4)[:, 0].astype(complex)})
    assert spectra.expectation(pen, state) >= 1.0


# ---------------------------------------------------------------------------
# full-space application
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def dense_21():
    """The unit-coupling one-round n=2 operator with its whole-chain
    matrix, which is float64 for this real circuit."""
    spec = hm.build_hamiltonian(identity_circuit(2, 1, 1),
                                couplings=hm.UNIT_COUPLINGS)
    H = spectra.full_sparse_matrix(spec.terms, 2, 1).toarray()
    assert H.dtype == np.float64
    return spec, spectra.FullOperator.from_spec(spec), H


def test_apply_full_zero_and_linearity(dense_21):
    _, op, _ = dense_21
    assert np.all(op.matvec(np.zeros(op.dim)) == 0)
    rng = np.random.default_rng(1)
    u = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
    v = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
    lhs = op.matvec(2.0 * u + 1j * v)
    rhs = 2.0 * op.matvec(u) + 1j * op.matvec(v)
    assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_apply_full_matches_dense(dense_21):
    _, op, H = dense_21
    assert np.max(np.abs(H - H.conj().T)) == 0.0
    rng = np.random.default_rng(2)
    for _ in range(100):
        v = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
        Hv = H @ v.real + 1j * (H @ v.imag)  # real BLAS on the real H
        assert np.max(np.abs(op.matvec(v) - Hv)) < 1e-12


def test_apply_full_hermitian_symmetry(dense_21):
    _, op, _ = dense_21
    rng = np.random.default_rng(3)
    u = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
    v = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
    assert abs(np.vdot(u, op.matvec(v))
               - np.conj(np.vdot(v, op.matvec(u)))) < 1e-9
    w = u / np.linalg.norm(u)
    assert abs(np.vdot(w, op.matvec(w)).imag) < 1e-12


def test_restricted_and_full_expectations_agree(dense_21):
    spec, op, _ = dense_21
    eta = spectra.history_state(identity_circuit(2, 1, 1), np.array([0, 1]))
    full = float(np.vdot(eta.to_full(), op.matvec(eta.to_full())).real)
    restricted = spectra.expectation(spec, eta)
    assert abs(full - restricted) < 1e-12


def test_to_full_dtype_follows_amplitudes():
    """Real amplitudes give a float64 full vector, a Haar gate's complex
    ones a complex128 vector; either gives the restricted expectation."""
    cases = ((identity_circuit(2, 1, 1), np.float64),
             (LayeredCircuit(2, 1, (identity_round(2),
                                    (Gate2Q(haar_gate(12), 1),))),
              np.complex128))
    for circ, dtype in cases:
        eta = spectra.history_state(circ, np.array([1.0, 0.0]))
        v = eta.to_full()
        assert v.dtype == dtype
        spec = hm.build_hamiltonian(circ, couplings=hm.UNIT_COUPLINGS)
        assert abs(spectra.expectation(spec, v)
                   - spectra.expectation(spec, eta)) < 1e-12


def per_window_matvec(op, v, magnitude=False):
    """FullOperator.matvec as one whole-vector strided pass per hop entry,
    window after window, on a vector or on the columns of a (dim, k)
    array: an independent reference for the head and tail blocks.  With
    ``magnitude`` it gives |H| |v| from the absolute diagonal and table
    entries instead."""
    f = np.abs if magnitude else (lambda a: a)
    shape = np.shape(v)
    v = f(np.asarray(v)).reshape(op.dim, -1)
    if not magnitude:
        v = v.astype(np.result_type(v.dtype, op.dtype), copy=False)
    out = f(op.diag)[:, None] * v
    for i, entries in op.hops:
        vv = v.reshape(8 ** (i - 1), 64, -1)
        oo = out.reshape(8 ** (i - 1), 64, -1)
        for d64, s64, val in entries:
            oo[:, d64] += f(val) * vv[:, s64]
    return out.reshape(shape)


def site_indicator(slots):
    """Length-8 indicator of a diag term's slot set on one site."""
    return np.isin(np.arange(8), tuple(slots)).astype(float)


def per_window_diag(terms, dim):
    """The diagonal as one whole-vector broadcast per (site, width)
    window of summed diag blocks, in term order; each block is the
    Kronecker product of the term's site indicators."""
    blocks = {}
    for t in terms:
        if t.kind == "diag":
            key = (t.sites[0], len(t.sites))
            block = functools.reduce(np.kron, map(site_indicator,
                                                  t.diag_slots))
            blocks[key] = blocks.get(key, 0.0) + t.weight * block
    diag = np.zeros(dim)
    for (i, _), block in blocks.items():
        diag.reshape(8 ** (i - 1), len(block), -1)[:] += block[None, :, None]
    return diag


def row_nonzeros(op):
    """At least the most nonzeros in a row of the operator: the diagonal
    plus, per window, the most entries in one row of its table."""
    return 1 + sum(np.bincount([d for d, _, _ in entries]).max()
                   for _, entries in op.hops)


def haar_hop_terms(n, R, couplings=None):
    """Round 1 must be identity, so a Haar gate is put on the rule-1 hop
    terms directly: their tables are complex and Hermitian, not
    symmetric."""
    gate = tuple(haar_gate(12).ravel())
    return [replace(t, gate=gate) if t.gate is not None else t
            for t in hm.build_hamiltonian(identity_circuit(n, 1, R),
                                          couplings=couplings).terms]


def test_full_operator_exact_on_sampled_unit_vectors():
    """On a unit vector each output entry is one product, so the head and
    tail blocks must reproduce the per-window loop exactly: on a seeded
    sample of 6-site unit vectors, for the real and the Haar-gate
    operator (every 4-site unit vector is checked against the whole-chain
    matrix below)."""
    rng = np.random.default_rng(23)
    for op in (spectra.FullOperator.from_spec(
                   hm.build_hamiltonian(identity_circuit(3, 1, 1))),
               spectra.FullOperator(haar_hop_terms(3, 1), (3, 1))):
        e = np.zeros(op.dim)
        for j in rng.choice(op.dim, 32, replace=False):
            e[j] = 1.0
            assert np.array_equal(op.matvec(e), per_window_matvec(op, e))
            e[j] = 0.0


@pytest.mark.parametrize("n,R", [(2, 1), (3, 1), (2, 2)])
def test_full_operator_matvec_within_rounding_of_per_window_loop(n, R):
    """On random vectors the blocks sum each row's products in another
    order than the per-window loop.  Each result is within
    gamma_(m+2) (|H| |v|)_i of the exact product, m the most nonzeros in
    a row (Higham, Lemma 3.5, as in spectra._residual_bounds), so the two
    differ by at most (m + 2) * eps * (|H| |v|)_i per entry.  Real and
    complex vectors meet the real operator, complex vectors the
    Haar-gate operator; ``diag`` equals the per-window broadcast to the
    last bit."""
    rng = np.random.default_rng(21)
    spec = hm.build_hamiltonian(identity_circuit(n, 1, R))
    real = spectra.FullOperator.from_spec(spec)
    assert real.dtype == np.float64
    assert np.array_equal(real.diag, per_window_diag(spec.terms, real.dim))
    x = rng.standard_normal(real.dim)
    assert_within_rounding(real, x)
    z = x + 1j * rng.standard_normal(real.dim)
    del x
    assert_within_rounding(real, z)
    del real
    cplx = spectra.FullOperator(haar_hop_terms(n, R), (n, R))
    assert cplx.dtype == np.complex128
    assert_within_rounding(cplx, z)


def assert_within_rounding(op, v):
    y = op.matvec(v)
    assert y.dtype == np.result_type(op.dtype, v.dtype)
    y -= per_window_matvec(op, v)
    err = np.abs(y)
    del y
    bound = per_window_matvec(op, v, magnitude=True)
    bound *= (row_nonzeros(op) + 2) * np.finfo(float).eps
    assert np.all(err <= bound), np.max(err - bound)


def test_full_operator_matvec_allocates_one_buffer():
    """One 6-site matvec allocates the output plus O(tail slab): the tail
    product of one slab of 8^4 amplitudes (sites 3..6) at a time, no
    full-length temporary."""
    op = spectra.FullOperator.from_spec(
        hm.build_hamiltonian(identity_circuit(3, 1, 1)))
    slab = op.tail.shape[0]
    assert slab == 8 ** 4
    rng = np.random.default_rng(22)
    v = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
    tracemalloc.start()
    try:
        op.matvec(v)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= (op.dim + 4 * slab) * v.itemsize + 64 * 1024


def test_full_operator_build_holds_no_full_length_array():
    """A 6-site build keeps two blocks and the window tables, no 8^L
    array: it peaks below one float64 full-space vector (tracemalloc).
    ``diag`` is formed when read."""
    spec = hm.build_hamiltonian(identity_circuit(3, 1, 1))
    dim = spectra.full_dimension(3, 1)
    tracemalloc.start()
    try:
        op = spectra.FullOperator.from_spec(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < dim * np.dtype(float).itemsize, peak
    assert op.head.shape == (8 ** 3, 8 ** 3)
    assert op.tail.shape == (8 ** 4, 8 ** 4)
    assert op.diag.shape == (dim,)


# ---------------------------------------------------------------------------
# restriction
# ---------------------------------------------------------------------------

def test_restrict_pen_zero_on_legal_span():
    mat, basis = spectra.restrict(hm.build_h_pen(2, 2),
                                  spectra.legal_basis(2, 2))
    assert mat.nnz == 0
    assert sum(cd for _, _, cd in basis) == mat.shape[0]


def test_restrict_prop_annihilates_history_coefficients():
    circ = cnot_circuit()
    mat, basis = spectra.restrict(hm.build_h_prop(circ),
                                  spectra.legal_basis(2, 2))
    eta = spectra.history_state(circ, np.array([0.8, 0.6j]))
    vec = np.zeros(mat.shape[0], dtype=complex)
    for c, off, cd in basis:
        vec[off:off + cd] = eta.amplitudes[c]
    assert np.max(np.abs(mat @ vec)) < 1e-14


def test_restrict_prop_rows_sum_to_zero_identity_circuit():
    circ = identity_circuit(2, 1, 2)
    mat, _ = spectra.restrict(hm.build_h_prop(circ),
                              spectra.legal_basis(2, 2))
    dense = mat.toarray()
    assert np.max(np.abs(dense.sum(axis=0))) < 1e-14
    assert np.max(np.abs(dense.sum(axis=1))) < 1e-14


def test_restrict_single_detectable_config_diag():
    c = Configuration.from_string("x.q.|....", 2, 2)
    nbad = len(chain.forbidden_witnesses(c))
    assert nbad >= 1
    mat, _ = spectra.restrict(hm.build_h_pen(2, 2), [c])
    dense = mat.toarray()
    assert np.allclose(dense, nbad * np.eye(dense.shape[0]))


def test_restrict_dimension_guard():
    with pytest.raises(ValueError):
        spectra.restrict(hm.build_h_pen(2, 2),
                         spectra.legal_basis(2, 2), max_dim=3)


def test_restrict_rejects_repeated_configuration():
    legal = spectra.legal_basis(2, 2)
    with pytest.raises(ValueError, match="listed twice"):
        spectra.restrict(hm.build_h_pen(2, 2), legal + [legal[3]])


@pytest.mark.parametrize("other, chains", [
    ((4, 1), "(2, 2) and (4, 1)"),   # the 8 sites of (2, 2)
    ((2, 1), "(2, 1) and (2, 2)"),
])
def test_restrict_refuses_configurations_of_two_chains(other, chains):
    terms = hm.build_h_pen(2, 2)
    with pytest.raises(ValueError, match=re.escape(
            "two chains: (n, R) = " + chains)):
        spectra.restrict(terms, spectra.legal_basis(2, 2)
                         + [chain.initial_configuration(*other)])


#: Each route on no configurations, and its empty result.
EMPTY_RESULTS = {
    "hop_images": (lambda terms, state: spectra._hop_images(terms, []),
                   []),
    "restrict": (lambda terms, state: spectra.restrict(terms, [])[1], []),
    "apply_restricted": (lambda terms, state: spectra.apply_restricted(
        terms, state).amplitudes, {}),
    "energy_parts": (lambda terms, state: spectra.energy_parts(
        terms, state).tolist(), []),
    "expectation": (spectra.expectation, 0.0),
    "to_full": (lambda terms, state: state.to_full().tolist(),
                [0.0] * 8 ** 4),
    "symbol_hits": (lambda terms, state: [a.tolist() for a in
                    hm._symbol_hits([t for t in terms
                                     if t.family == "pen"], [])], [[], []]),
}


@pytest.mark.parametrize("route", sorted(EMPTY_RESULTS))
def test_empty_configuration_sets_give_empty_results(route):
    spec = hm.build_hamiltonian(identity_circuit(2, 1, 1))
    call, empty = EMPTY_RESULTS[route]
    assert call(spec.terms, spectra.RestrictedState(2, 1, {})) == empty


#: Each route that takes a restricted state, on the accepting circuit.
STATE_ROUTES = {
    "apply_restricted": spectra.apply_restricted,
    "energy_parts": spectra.energy_parts,
    "expectation": spectra.expectation,
    "to_full": lambda spec, state: state.to_full(),
}


@pytest.mark.parametrize("size", [2, 8])
@pytest.mark.parametrize("route", sorted(STATE_ROUTES))
def test_content_vectors_of_the_wrong_length_are_refused(route, size):
    # the initial (2,2) configuration holds two qubits: 4 content entries
    c = chain.initial_configuration(2, 2)
    state = spectra.RestrictedState(2, 2, {c: np.ones(size)})
    with pytest.raises(ValueError, match=re.escape(
            f"the amplitude of {c} has {size} entries, its content "
            "dimension 4")):
        STATE_ROUTES[route](hm.build_hamiltonian(accepting_circuit()), state)


#: sha256 of (indptr, indices as int64; data) of the rejecting (2,2)
#: circuit restricted to two exchange-closed sets, from ``restrict``
#: when it still sorted an unordered set by sites
INVARIANT_BLOCK_SHA256 = {
    "giq.|....":
        "c4e5ee368d7a59ceaf3e0ab0fdfc6062077784aa6cefaadf5325fdee05427f5c",
    "xxxq|iqq.":
        "dc95245e84c523e442e0ebf79a1c6e2ec5c00b59207363d03a3b9ea9e378817f",
}


@pytest.mark.parametrize("text", sorted(INVARIANT_BLOCK_SHA256))
def test_restrict_invariant_set_bytes_pinned(text):
    # the type-1 block and a 1,856-configuration type-3 line, in the
    # order invariant_set gives them
    inv = chain.invariant_set(Configuration.from_string(text, 2, 2))
    mat, basis = spectra.restrict(hm.build_hamiltonian(verify.rejecting_circuit()),
                                  inv.configs)
    assert [c for c, _, _ in basis] == list(inv.configs)
    digest = hashlib.sha256()
    for a in (mat.indptr.astype(np.int64), mat.indices.astype(np.int64),
              mat.data):
        digest.update(a.tobytes())
    assert digest.hexdigest() == INVARIANT_BLOCK_SHA256[text]


def test_hop_images_once_each_sorted_by_sites():
    spec = hm.build_hamiltonian(verify.rejecting_circuit())
    legal = spectra.legal_basis(2, 2)
    images = spectra._hop_images(spec.terms, legal)
    assert [c.sites for c in images] == sorted({c.sites for c in images})
    assert set(images) == set(verify.legal_fringe(2, 2)) - set(legal)
    assert spectra._hop_images([], legal) == []


def haar_gate(seed):
    z = np.random.default_rng(seed).standard_normal((4, 8)).view(complex)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def embedding(basis):
    """Full-space index of every restricted basis vector, in basis order."""
    return hm._site_index(chain._Packed.of([c for c, _, _ in basis]))


def test_restrict_equals_full_operator_on_all_configurations():
    """Over all 6^4 configurations of n=2, R=1 the restriction is the
    whole-chain matrix, permuted, for a Haar gate and a real gate
    (CNOT).  Round 1 must be identity, so the gate is put on the rule-1
    hop term directly; the restriction and FullOperator are complex for
    the Haar gate and real for CNOT."""
    spec = hm.build_hamiltonian(identity_circuit(2, 1, 1))
    configs = [Configuration(2, 1, bytes(s))
               for s in itertools.product(range(6), repeat=4)]
    for u, dtype in ((haar_gate(11), np.complex128),
                     (NAMED_GATES["CNOT"], np.float64)):
        gate = tuple(u.ravel())
        terms = [replace(t, gate=gate) if t.gate is not None else t
                 for t in spec.terms]
        assert sum(t.gate == gate for t in terms) == 1
        mat, basis = spectra.restrict(terms, configs)
        idx = embedding(basis)
        assert np.array_equal(np.sort(idx), np.arange(8 ** 4))
        op = spectra.FullOperator(terms, (2, 1))
        assert mat.dtype == op.dtype == dtype
        full = spectra.full_sparse_matrix(terms, 2, 1)
        diff = abs(full[idx][:, idx] - mat)
        assert diff.max() <= 1e-12 * abs(full).max()


@pytest.mark.parametrize("how", ["replaced", "edited"])
def test_the_slot_table_is_read_where_it_is_used(monkeypatch, how):
    """SLOT is read when a route runs: after one full_sparse_matrix call,
    a table with the qubit's slots swapped, installed or written in
    place, gives pen and prop terms on its rows, and the whole-chain
    matrix is the restriction over all 6^4 configurations, permuted."""
    circ = identity_circuit(2, 1, 1)
    monkeypatch.setattr(chain, "SLOT", chain.SLOT.copy())
    spectra.full_sparse_matrix(
        hm.build_hamiltonian(circ, hm.UNIT_COUPLINGS), 2, 1)
    swapped = chain.SLOT.copy()
    swapped[chain.QUBIT] = swapped[chain.QUBIT, ::-1]
    if how == "replaced":
        monkeypatch.setattr(chain, "SLOT", swapped)
    else:
        chain.SLOT[:] = swapped
    spec = hm.build_hamiltonian(circ, hm.UNIT_COUPLINGS)
    rows = {frozenset(row) for row in swapped.tolist()}
    pair_or_prop = [t for t in spec.terms if t.kind == "diag" and (
        t.family == "prop" or t.family == "pen" and len(t.sites) == 2)]
    assert pair_or_prop
    assert all(set(t.diag_slots) <= rows for t in pair_or_prop)
    configs = [Configuration(2, 1, bytes(s))
               for s in itertools.product(range(6), repeat=4)]
    mat, basis = spectra.restrict(spec, configs)
    idx = embedding(basis)
    full = spectra.full_sparse_matrix(spec, 2, 1)
    assert abs(full[idx][:, idx] - mat).max() == 0.0


def test_the_content_layout_follows_the_slot_table(monkeypatch):
    """With the pusher's and the qubit's SLOT rows swapped, the pusher
    holds the content bit and the qubit does not: the full-space index
    of the 6^4 configurations of (2,1) takes each of the 8^4 values once,
    and their restriction is the whole-chain matrix, permuted."""
    swapped = chain.SLOT.copy()
    swapped[[chain.PUSHER, chain.QUBIT]] = chain.SLOT[[chain.QUBIT,
                                                       chain.PUSHER]]
    monkeypatch.setattr(chain, "SLOT", swapped)
    assert Configuration.from_string("x<q.", 2, 1).holder_count() == 1
    assert Configuration.from_string("xqq.", 2, 1).holder_count() == 0
    configs = [Configuration(2, 1, bytes(s))
               for s in itertools.product(range(6), repeat=4)]
    idx = hm._site_index(chain._Packed.of(configs))
    assert sorted(idx.tolist()) == list(range(8 ** 4))
    spec = hm.build_hamiltonian(identity_circuit(2, 1, 1), hm.UNIT_COUPLINGS)
    mat, _ = spectra.restrict(spec, configs)
    full = spectra.full_sparse_matrix(spec, 2, 1)
    assert abs(full[idx][:, idx] - mat).max() == 0.0


def test_restrict_dtype_follows_gates():
    """Real gates give a float64 restriction, a Haar gate a complex one."""
    legal = spectra.legal_basis(2, 2)
    for kind in ("I", "SWAP"):
        circ = LayeredCircuit(2, 1, (identity_round(2),
                                     (Gate2Q(NAMED_GATES[kind], 1),)))
        for configs in (legal, verify.legal_fringe(2, 2)):
            mat, _ = spectra.restrict(hm.build_hamiltonian(circ), configs)
            assert mat.dtype == np.float64
    circ = LayeredCircuit(2, 1, (identity_round(2),
                                 (Gate2Q(haar_gate(12), 1),)))
    mat, _ = spectra.restrict(hm.build_hamiltonian(circ), legal)
    assert mat.dtype == np.complex128
    assert np.any(mat.data.imag)


def per_term_matvec(terms, basis, x):
    """P H P x on the restricted basis, one term at a time: each term's
    weighted block (LocalTerm.matrix) applied to the window digits of
    every basis vector's full-space index, its images outside the basis
    dropped.  A reference that shares no code with the assembly."""
    idx = embedding(basis)
    order = np.argsort(idx)
    L = basis[0][0].length
    y = np.zeros(len(idx), dtype=complex)
    for t in terms:
        m = t.weight * t.matrix()
        scale = 8 ** (L - t.sites[-1])
        local = idx // scale % len(m)
        rest = idx - local * scale
        for r in np.flatnonzero(m.any(axis=1)):
            v = m[r, local] * x
            hit = np.flatnonzero(v)
            target = rest[hit] + r * scale
            pos = np.minimum(np.searchsorted(idx, target, sorter=order),
                             len(idx) - 1)
            found = idx[order[pos]] == target
            np.add.at(y, order[pos[found]], v[hit[found]])
    return y


def test_restrict_matches_per_term_blocks_with_d_windows():
    """Hops at D windows (rules 4, 5 and 6) exist only for R >= 2: on the
    legal+fringe configurations of a random-gate n=2, R=2 circuit the
    restriction applies as the terms' own blocks do."""
    circ = LayeredCircuit(2, 1, (identity_round(2),
                                 (Gate2Q(haar_gate(12), 1),)))
    spec = hm.build_hamiltonian(circ)
    mat, basis = spectra.restrict(spec, verify.legal_fringe(2, 2))
    rng = np.random.default_rng(13)
    for _ in range(2):
        x = rng.standard_normal(mat.shape[0]) \
            + 1j * rng.standard_normal(mat.shape[0])
        want = per_term_matvec(spec.terms, basis, x)
        assert np.max(np.abs(mat @ x - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("state", ["history", "random fringe"])
def test_energy_parts_attributes_each_entry_to_its_term(state):
    """The kernel runs diag terms by window, yet every product keeps its
    term: a Haar (3,2) Hamiltonian's parts are, in term order, the parts
    of its terms taken one at a time."""
    circ = haar_circuit(3, 2, 30)
    spec = hm.build_hamiltonian(circ)
    if state == "history":
        x = spectra.history_state(circ, np.array([0.6, 0.8j]))
    else:
        rng = np.random.default_rng(31)
        x = spectra.RestrictedState(3, 2, {
            c: rng.standard_normal(2 << c.holder_count()).view(complex)
            for c in verify.legal_fringe(3, 2)})
    parts = spectra.energy_parts(spec, x)
    each = np.concatenate([spectra.energy_parts([t], x) for t in spec.terms])
    assert np.array_equal(np.sort(parts), np.sort(each))
    assert np.array_equal(parts, each)


# ---------------------------------------------------------------------------
# eigensolvers
# ---------------------------------------------------------------------------

def test_min_eigs_walk_example():
    res = spectra.min_eigs(spectra.walk_matrix(0.5, 0.5, 3).dense(), k=4)
    expect = np.array([0.0, 1 - np.cos(np.pi / 4), 1.0, 1 + np.cos(np.pi / 4)])
    assert np.max(np.abs(np.sort(res.values) - expect)) < 1e-12


def test_min_eigs_identity():
    res = spectra.min_eigs(np.eye(5), k=2)
    assert np.allclose(res.values, [1.0, 1.0])


@pytest.mark.parametrize("n,R,bottom", [(3, 3, None),
                                        (4, 2, -214631.0760613)])
def test_min_eigs_sparse_identity_fringe_bottom(n, R, bottom):
    """The identity circuit's legal+fringe block reaches far below the
    default shift of -1; the certified shift still finds its bottom."""
    spec = hm.build_hamiltonian(identity_circuit(n, 1, R))
    mat, _ = spectra.restrict(spec, verify.legal_fringe(n, R))
    if bottom is None:
        bottom = np.linalg.eigvalsh(mat.toarray())[0]
    res = spectra.min_eigs(mat, k=1)
    assert mat.shape[0] > 2000 and res.converged
    assert abs(res.values[0] - bottom) <= 1e-8 * abs(bottom)
    assert res.sigma < bottom and res.floor > 0


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("sigma", [None, 0.0])
def test_min_eigs_sparse_sigma_is_first_guess(k, sigma):
    """Eigenvalues far below the start shift are found, whether the shift
    is the default or given: ``sigma`` only starts the search."""
    rng = np.random.default_rng(9)
    d = rng.uniform(1.0, 2.0, 2500)
    d[[300, 1200, 1201, 2100]] = [-5e5 + 3.0, -2e5, -2e5 + 0.5, -1e5]
    e = rng.uniform(-1.0, 1.0, 2499)
    mat = sp.diags([e, d, e], [-1, 0, 1], format="csr")
    ref = sla.eigvalsh_tridiagonal(d, e, select="i",
                                   select_range=(0, k - 1))
    res = spectra.min_eigs(mat, k=k, sigma=sigma)
    assert res.converged
    assert np.all(np.abs(res.values - ref) <= 1e-8 * np.abs(ref))


@pytest.mark.parametrize("pair", [False, True])
def test_min_eigs_sparse_shift_on_a_zero_pivot(pair):
    """A shift on a diagonal eigenvalue makes A - sigma I singular; a
    shift on the equal diagonals of a coupled pair (eigenvalues 9.5 and
    11.5) gives a zero pivot that SuperLU leaves the diagonal for, and
    the pivots of such a factorization would miss the eigenvalue 9.5
    below the shift.  Either way the shift moves down by the precision
    floor."""
    d = np.arange(1.0, 2501.0) + (19.0 if pair else 0.0)
    off = np.zeros(2499)
    if pair:
        d[:2], off[0] = 10.5, 1.0
    mat = sp.diags([off, d, off], [-1, 0, 1], format="csr")
    res = spectra.min_eigs(mat, k=1, sigma=10.5 if pair else 3.0)
    assert res.converged
    assert abs(res.values[0] - (9.5 if pair else 1.0)) < 1e-12


def test_min_eigs_sparse_certificate_rejects_a_missed_bottom(monkeypatch):
    """An exact eigenpair that is not the lowest has a zero residual; only
    the inertia count below it shows that the solve missed the bottom."""
    mat = sp.diags(np.arange(1.0, 2501.0), format="csr")

    def second_pair(A, k, **kw):
        return np.array([2.0]), np.eye(A.shape[0], 1, -1)

    monkeypatch.setattr(spla, "eigsh", second_pair)
    for op in (mat, mat.toarray()):
        res = spectra.min_eigs(op, k=1)
        assert res.values[0] == 2.0 and res.residuals[0] == 0.0
        assert not res.converged

    # k >= dim - 1 is beyond ARPACK; LAPACK's pairs get the same count
    def upper_pairs(a, subset_by_index):
        return np.array([2.0, 3.0]), np.eye(3)[:, 1:]

    monkeypatch.setattr(sla, "eigh", upper_pairs)
    res = spectra.min_eigs(sp.diags([1.0, 2.0, 3.0], format="csr"), k=2)
    assert np.array_equal(res.values, [2.0, 3.0]) and not np.any(res.residuals)
    assert res.sigma is None and not res.converged


def test_min_eigs_sparse_refines_a_loose_pair(monkeypatch):
    """A pair that misses the residual test gets one block
    inverse-iteration step on the solve's factorization: a bottom
    eigenvector polluted at 1e-12 by a far eigenvalue comes back
    converged."""
    mat = sp.diags(np.concatenate((np.ones(4), np.arange(1e6, 1e6 + 96))),
                   format="csr")
    y = np.eye(100, 1) + 1e-12 * np.eye(100, 1, -5)
    y /= np.linalg.norm(y)

    def loose(A, k, **kw):
        return np.array([float(y[:, 0] @ (A @ y[:, 0]))]), y

    monkeypatch.setattr(spla, "eigsh", loose)
    res = spectra.min_eigs(mat, k=1)
    assert res.converged and res.values[0] == pytest.approx(1.0, abs=1e-12)
    assert res.residuals[0] <= 1e-10


def test_min_eigs_sparse_solves_on_the_certifying_factorization(monkeypatch):
    """ARPACK runs on the factorization whose inertia count certified its
    shift, so no shift is factored twice.  With no eigenvalue below
    ``sigma`` a k=1 solve makes two factorizations: the count at
    ``sigma``, which is also the solve's, and the certificate below
    theta_1.  A solve that bisects makes one per bracket point and one
    for the certificate."""
    shifts, factor = [], spectra._factor

    def counted(A, x, floor):
        shifts.append(x)
        return factor(A, x, floor)

    monkeypatch.setattr(spectra, "_factor", counted)
    rng = np.random.default_rng(5)
    e = rng.uniform(-1.0, 1.0, 2499)
    mat = sp.diags([e, np.arange(1.0, 2501.0), e], [-1, 0, 1], format="csr")
    res = spectra.min_eigs(mat, k=1)
    assert res.converged and len(shifts) == 2
    assert shifts[0] == res.sigma == -1.0 and shifts[1] > res.sigma

    shifts.clear()
    d = rng.uniform(1.0, 2.0, 2500)
    d[[300, 1200]] = [-5e5, -2e5]
    res = spectra.min_eigs(sp.diags([e, d, e], [-1, 0, 1], format="csr"),
                           k=1)
    assert res.converged and abs(res.values[0] + 5e5) < 1.0
    assert len(set(shifts)) == len(shifts) == 11
    assert shifts.count(res.sigma) == 1


def test_min_eigs_sparse_degenerate_bottom_converges_for_every_seed():
    """The 14,848-dimensional type-3 block at n=2, R=2 has an (at least)
    4-fold lowest eigenvalue, where ARPACK can stop short of the residual
    test depending on the start vector; every seed converges, to values
    within max(residual, floor) of each other."""
    specs = [hm.build_hamiltonian(c, couplings=hm.choose_couplings(
        2, 2, accepting_circuit())) for c in (accepting_circuit(),
                                              verify.rejecting_circuit())]
    blocks = verify._pen_free_blocks(2, 2)
    block = next(b for b in blocks
                 if sum(1 << c.holder_count() for c in b) == 14_848)
    pen_prop = [t for t in specs[1].terms if t.family in ("pen", "prop")]
    for terms in (specs[0], specs[1], pen_prop):
        mat, _ = spectra.restrict(terms, block)
        runs = [spectra.min_eigs(mat, k=1, seed=seed) for seed in range(3)]
        assert all(r.converged for r in runs)
        vals = [r.values[0] for r in runs]
        slack = max(max(r.residuals[0] for r in runs), runs[0].floor)
        assert max(vals) - min(vals) <= slack


def haar_circuit(n, R, seed):
    """Round 1 all identity, every later gate Haar-random."""
    later = [tuple(Gate2Q(haar_gate(seed + r * n + g), g) for g in range(1, n))
             for r in range(1, R)]
    return LayeredCircuit(n, 1, (identity_round(n), *later))


@pytest.mark.parametrize("block,dtype", [("fringe identity 3,2", np.float64),
                                         ("legal random 4,2", np.complex128)])
def test_min_eigs_sparse_small_block_is_certified(block, dtype):
    """Sparse blocks below dimension 2000 take the certified shift-invert
    route too.  Each value lies within its residual of an eigenvalue, and
    so does each LAPACK eigh value on the densified block, whose residuals
    here reach several times the floor; the two agree within the sum."""
    if block.startswith("fringe"):
        spec = hm.build_hamiltonian(identity_circuit(3, 1, 2))
        configs = verify.legal_fringe(3, 2)
    else:
        spec = hm.build_hamiltonian(haar_circuit(4, 2, 40))
        configs = spectra.legal_basis(4, 2)
    mat, _ = spectra.restrict(spec, configs)
    assert mat.shape[0] < 2000 and mat.dtype == dtype
    res = spectra.min_eigs(mat, k=3)
    a = mat.toarray()
    vals, vecs = sla.eigh(a, subset_by_index=[0, 2])
    dense_res = np.linalg.norm(a @ vecs - vecs * vals, axis=0)
    assert res.converged and res.sigma is not None and res.floor > 0
    assert res.floor == pytest.approx(
        np.finfo(float).eps * np.abs(a).sum(axis=0).max(), rel=1e-12)
    assert np.all(np.abs(res.values - vals) <= res.residuals + dense_res)


def test_min_eigs_sparse_zero_energy_block_converges():
    """The accepting circuit's legal block at unit couplings has a doubly
    degenerate zero eigenvalue; residuals at rounding level pass, though
    no relative test can hold at theta = 0."""
    spec = hm.build_hamiltonian(accepting_circuit(),
                                couplings=hm.UNIT_COUPLINGS)
    mat, _ = spectra.restrict(spec, spectra.legal_basis(2, 2))
    res = spectra.min_eigs(mat, k=3)
    assert res.converged
    assert np.all(np.abs(res.values[:2]) <= res.floor + res.residuals[:2])
    assert res.values[2] > 1e-3


@pytest.mark.parametrize("drop,converged", [(False, True), (True, False)])
def test_min_eigs_sparse_kth_count_catches_a_missed_copy(monkeypatch, drop,
                                                          converged):
    """Eigenvalues 1, 2, 2, 3, ...: a k=3 solve that returns exact pairs
    for 1, 2, 3 has zero residuals and the right lowest value; only the
    count below theta_3 shows the missing copy of 2."""
    mat = sp.diags(np.concatenate(([1.0, 2.0, 2.0], np.arange(3.0, 100.0))),
                   format="csr")
    cols = [0, 1, 3] if drop else [0, 1, 2]

    def pairs(A, k, **kw):
        return mat.diagonal()[cols], np.eye(A.shape[0])[:, cols]

    monkeypatch.setattr(spla, "eigsh", pairs)
    res = spectra.min_eigs(mat, k=3)
    assert np.array_equal(res.residuals, np.zeros(3))
    assert res.converged is converged


def test_min_eigs_sparse_reports_arpack_no_convergence(monkeypatch):
    """ARPACK's non-convergence comes back as a result with the pairs it
    did converge, not as an exception."""
    mat = sp.diags(np.arange(1.0, 101.0), format="csr")

    def gives_up(A, k, **kw):
        raise spla.ArpackNoConvergence("no convergence", np.array([1.0]),
                                       np.eye(A.shape[0], 1))

    monkeypatch.setattr(spla, "eigsh", gives_up)
    res = spectra.min_eigs(mat, k=2)
    assert not res.converged
    assert np.array_equal(res.values, [1.0])
    assert np.array_equal(res.residuals, [0.0])


def test_min_eigs_dense_carries_floor():
    a = np.diag([-3.0, 1.0, 2.0]) + 0.5 * np.eye(3, k=1) + 0.5 * np.eye(3, k=-1)
    res = spectra.min_eigs(a, k=1)
    assert res.floor == np.finfo(float).eps * 3.5
    assert spectra.min_eigs(sp.csr_matrix(a), k=2).floor == res.floor


def test_full_operator_real_matvec_on_complex_input(dense_21):
    """A real operator applies to the real and imaginary parts of a
    complex vector separately, with the same rounding."""
    _, op, H = dense_21
    assert op.shape == (op.dim, op.dim) and op.dtype == np.float64
    rng = np.random.default_rng(4)
    v = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
    re, im = op.matvec(v.real), op.matvec(v.imag)
    assert re.dtype == np.float64
    assert np.array_equal(op.matvec(v), re + 1j * im)
    assert np.max(np.abs(re - H @ v.real)) < 1e-12


class CountingOperator(spla.LinearOperator):
    """Counts the operator's applications; ``dtype`` declares another
    dtype than the operator's, and ``out`` transforms each output."""

    def __init__(self, op, dtype=None, out=None):
        super().__init__(dtype=op.dtype if dtype is None else dtype,
                         shape=op.shape)
        self.op, self.out = op, out or (lambda y: y)
        self.matvecs = 0

    def _matvec(self, v):
        self.matvecs += 1
        return self.out(self.op.matvec(v))


def test_min_eigs_complex_declared_real_operator_runs_real(dense_21):
    """A complex-declared wrapper over the real operator (as the
    benchmark's counting wrapper is) gives exactly real outputs on the
    real start, as float64 or as complex128 with zero imaginary parts, so
    its run is the real run to the bit: the same values, residuals and
    restarts from as many operator applications."""
    _, op, _ = dense_21
    assert op.dtype == np.float64
    run = dict(k=1, maxiter=5000, tol=1e-12)
    real = CountingOperator(op)
    want = spectra.min_eigs(real, **run)
    assert want.converged
    for out in (None, lambda y: y.astype(complex)):
        wrapper = CountingOperator(op, dtype=complex, out=out)
        got = spectra.min_eigs(wrapper, **run)
        assert np.array_equal(got.values, want.values)
        assert np.array_equal(got.residuals, want.residuals)
        assert got.iterations == want.iterations
        assert wrapper.matvecs == real.matvecs


def test_min_eigs_complex_operator_from_real_start(component_eigh):
    """A Haar-gate operator's output on the real start is complex, so the
    run is complex; it reaches the lowest eigenvalue of the whole-chain
    matrix, from the component oracle (one dense complex eigvalsh at
    4,096 takes minutes on two cores).  Unit couplings: at the derived
    ones (norm 5e6) 5,000 restarts do not converge."""
    terms = haar_hop_terms(2, 1, hm.UNIT_COUPLINGS)
    op = spectra.FullOperator(terms, (2, 1))
    assert op.dtype == np.complex128
    lowest = component_eigh(spectra.full_sparse_matrix(terms, 2, 1), 1)[0][0]
    res = spectra.min_eigs(op, k=1, seed=0, maxiter=5000, tol=1e-12)
    assert res.converged
    assert abs(res.values[0] - lowest) < 1e-8


def test_min_eigs_real_run_refuses_a_later_complex_output(dense_21):
    """An exactly real first output fixes float64 arithmetic; a later
    output with a nonzero imaginary part is a ValueError, not rounded."""
    op = dense_21[1]
    calls = []

    def matvec(v):
        calls.append(v)
        y = op.matvec(v)
        return y if len(calls) == 1 else (1.0 + 1e-3j) * y

    shifty = spla.LinearOperator(op.shape, matvec=matvec, dtype=complex)
    with pytest.raises(ValueError, match="complex output"):
        spectra.min_eigs(shifty, k=1)
    assert len(calls) == 2


def test_min_eigs_refusals_apply_nothing(dense_21):
    """k < 1, k >= ncv (10 here) and maxiter < 0 are refused before the
    operator is applied once."""
    counted = CountingOperator(dense_21[1], dtype=complex)
    for kw in (dict(k=0), dict(k=-1), dict(k=10), dict(k=11),
               dict(k=1, maxiter=-1)):
        with pytest.raises(ValueError):
            spectra.min_eigs(counted, **kw)
    assert counted.matvecs == 0


def test_min_eigs_complex_declared_basis_is_float64(dense_21):
    """The complex-declared wrapper over the real 4-site operator keeps a
    float64 basis: the whole call peaks below the bytes of one complex
    (ncv + 1) x dim basis (tracemalloc).  The basis is ncv rows and the
    residual vector stays in the operator's output, so the call also
    peaks below ncv + 2 float64 vectors (the basis, the start vector and
    the first output) plus 32 KiB."""
    op = dense_21[1]
    ncv = 10
    wrapper = CountingOperator(op, dtype=complex)
    tracemalloc.start()
    try:
        spectra.min_eigs(wrapper, k=1, maxiter=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (ncv + 1) * op.dim * np.dtype(complex).itemsize, peak
    assert peak < (ncv + 2) * op.dim * np.dtype(float).itemsize + 32 * 1024, \
        peak


@pytest.fixture(scope="module")
def dense_21_spectrum(dense_21, component_eigh):
    """The three lowest eigenvalues of the whole-chain matrix."""
    return component_eigh(dense_21[2], 3)[0]


def test_min_eigs_lanczos_vs_dense(dense_21, dense_21_spectrum):
    _, op, H = dense_21
    assert H.dtype == op.dtype == np.float64
    res = spectra.min_eigs(op, k=1, seed=0, maxiter=5000, tol=1e-12)
    assert res.converged
    assert abs(res.values[0] - dense_21_spectrum[0]) < 1e-8
    assert res.residuals[0] < 1e-6


def test_min_eigs_lanczos_three_lowest(dense_21, dense_21_spectrum):
    """k=3 finds the bottom three, both copies of the degenerate pair
    -0.1667925 included."""
    _, op, _ = dense_21
    want = dense_21_spectrum[:3]
    assert abs(want[1] + 0.1667925) < 1e-7 and abs(want[2] - want[1]) < 1e-12
    res = spectra.min_eigs(op, k=3, seed=0, maxiter=5000, tol=1e-12)
    assert res.converged and 0 < res.iterations < 5000
    assert np.max(np.abs(res.values - want)) < 1e-8
    assert np.max(res.residuals) < 1e-6


def test_min_eigs_lanczos_cut_short(dense_21, dense_21_spectrum):
    """A run stopped after one restart returns the lowest Ritz value of
    its Krylov space: an upper bound on the minimum, and below the start
    vector's Rayleigh quotient."""
    _, op, _ = dense_21
    res = spectra.min_eigs(op, k=1, seed=0, maxiter=1)
    v0 = np.random.default_rng(0).standard_normal(op.dim)
    start = np.vdot(v0, op.matvec(v0)) / np.vdot(v0, v0)
    assert dense_21_spectrum[0] <= res.values[0] < start - 1.0
    assert not res.converged and res.iterations == 1


def test_min_eigs_lanczos_invariant_start():
    """A start vector spanning an invariant subspace ends the run with
    its exact eigenpair, not a division by the zero residual: on the zero
    operator the first residual is exactly 0."""
    op = spla.LinearOperator((20, 20), matvec=lambda v: 0.0 * v, dtype=float)
    res = spectra.min_eigs(op, k=1)
    assert res.converged and res.iterations == 0
    assert res.values[0] == 0.0 and res.residuals[0] == 0.0


@pytest.mark.parametrize("k,maxiter", [(1, 1), (1, 3), (3, 2)])
def test_min_eigs_lanczos_matvec_budget(dense_21, k, maxiter):
    """ncv applications for the first cycle, ncv - k per restart, one
    per returned value for its residual; ncv is 10 at this dimension."""
    ncv = 10
    counted = CountingOperator(dense_21[1])
    res = spectra.min_eigs(counted, k=k, maxiter=maxiter)
    assert counted.matvecs <= ncv + maxiter * (ncv - k) + k
    assert len(res.values) == len(res.residuals) == k
    assert res.iterations <= maxiter


def test_min_eigs_rejects_bad_counts(dense_21):
    """k < 1 is refused by every branch, maxiter < 0 by the Lanczos
    branch, whose restart count would otherwise never reach it."""
    _, op, H = dense_21
    for mat in (H[:8, :8], sp.csr_matrix(H[:8, :8]), op):
        for k in (0, -1):
            with pytest.raises(ValueError, match="k >= 1"):
                spectra.min_eigs(mat, k=k)
    with pytest.raises(ValueError, match="maxiter >= 0"):
        spectra.min_eigs(op, k=1, maxiter=-1)


# ---------------------------------------------------------------------------
# walk matrices
# ---------------------------------------------------------------------------

def test_walk_matrix_2x2():
    m = spectra.walk_matrix(0.5, 0.5, 1).dense()
    assert np.array_equal(m, np.array([[0.5, -0.5], [-0.5, 0.5]]))
    assert np.allclose(np.linalg.eigvalsh(m), [0.0, 1.0])


@pytest.mark.parametrize("f,g", [(0.5, 0.5), (1.0, 1.0), (1.0, 0.5)])
def test_walk_analytic_vs_numeric(f, g):
    for L in range(1, 65):
        numeric = np.linalg.eigvalsh(spectra.walk_matrix(f, g, L).dense())
        analytic = np.sort(spectra.walk_eigs_analytic(f, g, L))
        assert np.max(np.abs(numeric - analytic)) < 1e-10


def test_walk_zero_mode_constant_vector():
    for L in (1, 5, 19):
        m = spectra.walk_matrix(0.5, 0.5, L).dense()
        ones = np.ones(L + 1) / np.sqrt(L + 1)
        assert np.max(np.abs(m @ ones)) < 1e-15
        assert spectra.walk_eigs_analytic(0.5, 0.5, L)[0] == 0.0


def test_walk_lowest_eigs_special_cases():
    for L in (1, 4, 16, 33):
        low = spectra.walk_eigs_analytic(1.0, 0.5, L)[0]
        assert abs(low - (1 - np.cos(np.pi / (2 * L + 3)))) < 1e-15
        low11 = spectra.walk_eigs_analytic(1.0, 1.0, L)[0]
        assert abs(low11 - (1 - np.cos(np.pi / (L + 2)))) < 1e-15
        assert low11 > 0 and low > 0


@pytest.mark.parametrize("f,g", [(0.5, 0.5), (1.0, 1.0), (1.0, 0.5),
                                 (0.5, 1.0)])
def test_walk_eigvectors_satisfy_the_eigen_equation(f, g):
    for L in range(1, 65):
        w = spectra.walk_matrix(f, g, L).dense()
        vals = spectra.walk_eigs_analytic(f, g, L)
        v = np.column_stack([spectra.walk_eigvector_analytic(f, g, L, m)
                             for m in range(L + 1)])
        residual = np.linalg.norm(w @ v - v * vals, axis=0)
        assert np.all(residual <= 1e-10 * np.linalg.norm(v, axis=0)), L


def test_symmetric_boundary_swap_same_spectrum():
    a = spectra.walk_eigs_analytic(1.0, 0.5, 7)
    b = np.linalg.eigvalsh(spectra.walk_matrix(0.5, 1.0, 7).dense())
    assert np.max(np.abs(np.sort(a) - b)) < 1e-12


# ---------------------------------------------------------------------------
# rotating out the gates
# ---------------------------------------------------------------------------

def test_rotation_identity_circuit_is_noop():
    circ = identity_circuit(2, 1, 2)
    h = spectra.restrict(hm.build_h_prop(circ),
                         spectra.legal_basis(2, 2))[0].toarray()
    rot = spectra.rotate_out_gates(h, circ)
    assert np.max(np.abs(rot - h)) == 0.0


def test_rotation_cnot_circuit_gives_twice_walk():
    circ = cnot_circuit()
    K = chain.step_count(2, 2)
    h = spectra.restrict(hm.build_h_prop(circ),
                         spectra.legal_basis(2, 2))[0].toarray()
    rot = spectra.rotate_out_gates(h, circ)
    target = np.kron(2.0 * spectra.walk_matrix(0.5, 0.5, K).dense(),
                     np.eye(4))
    assert np.max(np.abs(rot - target)) < 1e-12


def test_rotated_gap_beats_quadratic_bound():
    for K in (5, 19, 50, 200):
        second = spectra.walk_eigs_analytic(0.5, 0.5, K)[1]
        assert second >= 1.0 / (2 * (K + 1) ** 2)


def test_rotation_dense_input_transforms_every_block():
    """A dense random Hermitian input has no zero block, so every block
    is transformed and the result is the all-blocks formula
    V_t^dagger H_ts V_s."""
    circ = cnot_circuit()
    vs = spectra.step_unitaries(circ)
    T, d = len(vs), 4
    rng = np.random.default_rng(8)
    h = rng.standard_normal((T * d,) * 2) + 1j * rng.standard_normal((T * d,) * 2)
    h += h.conj().T
    want = np.block([[vs[t].conj().T @ h[t * d:(t + 1) * d, s * d:(s + 1) * d]
                      @ vs[s] for s in range(T)] for t in range(T)])
    assert np.array_equal(spectra.rotate_out_gates(h, circ), want)


def test_rotation_quadratic_form_consistency():
    # the expectation through the term list agrees with the quadratic
    # form of the rotated matrix for states supported on the legal span
    circ = cnot_circuit()
    prop = hm.build_h_prop(circ)
    h = spectra.restrict(prop, spectra.legal_basis(2, 2))[0].toarray()
    rot = spectra.rotate_out_gates(h, circ)
    vs = spectra.step_unitaries(circ)
    rng = np.random.default_rng(7)
    coeffs = rng.standard_normal(len(vs)) + 1j * rng.standard_normal(len(vs))
    coeffs /= np.linalg.norm(coeffs)
    w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    w /= np.linalg.norm(w)
    # state = sum_t coeffs[t] |t> (x) V_t w, i.e. W (coeffs (x) w)
    seq = chain.legal_sequence(2, 2)
    amps = {c: coeffs[t] * (vs[t] @ w) for t, c in enumerate(seq)}
    state = spectra.RestrictedState(2, 2, amps)
    via_terms = spectra.expectation(prop, state)
    x = np.kron(coeffs, w)
    via_rot = float((x.conj() @ (rot @ x)).real)
    assert abs(via_terms - via_rot) < 1e-10


def test_full_sparse_matrix_matches_operator(dense_21):
    """FullOperator.matvec on every unit vector gives the whole-chain
    matrix and the per-window loop exactly: each output entry is one
    product."""
    _, op, H = dense_21
    for a in range(0, op.dim, 512):
        units = np.eye(op.dim, 512, -a)
        cols = np.column_stack([op.matvec(e) for e in units.T])
        assert np.max(np.abs(cols - H[:, a:a + 512])) == 0.0
        assert np.array_equal(cols, per_window_matvec(op, units))


def test_export_coo_round_trip(dense_21):
    # sparse on both sides: one dense complex 4,096^2 copy is 256 MiB
    spec = dense_21[0]
    text = "".join(spectra.export_coo(spec))
    head, *rows = text.strip().split("\n")
    assert head.startswith("# hamline-coo-v1 n=2 R=1 dim=4096")
    r, c, re, im = zip(*(row.split() for row in rows))
    r, c = np.array(r, dtype=int), np.array(c, dtype=int)
    rebuilt = sp.csr_matrix((np.array(re, dtype=float)
                             + 1j * np.array(im, dtype=float), (r, c)),
                            shape=(4096, 4096))
    H = spectra.full_sparse_matrix(spec.terms, 2, 1)
    assert abs(rebuilt - H).max() == 0.0
    # sorted by (row, col), each entry once
    rc = list(zip(r.tolist(), c.tolist()))
    assert rc == sorted(set(rc))


COO_21_SHA256 = \
    "50a5c07368a6a18f58992742580f8db2f96f40dc7ec1f3e1539b77b6b633b3cf"


def test_export_coo_bytes_pinned(dense_21):
    # the export bytes are frozen
    text = "".join(spectra.export_coo(dense_21[0]))
    assert hashlib.sha256(text.encode()).hexdigest() == COO_21_SHA256


def test_export_coo_streams_chunks(dense_21, monkeypatch):
    # the text comes as a header line, then one string per chunk of
    # entries, never the whole export at once
    monkeypatch.setattr(spectra, "_COO_CHUNK", 1024)
    head, *chunks = spectra.export_coo(dense_21[0])
    assert head.startswith("# hamline-coo-v1 ") and head.endswith("\n")
    assert head.count("\n") == 1
    assert len(chunks) > 1
    assert all(c.endswith("\n") and c.count("\n") <= 1024 for c in chunks)
    text = head + "".join(chunks)
    assert hashlib.sha256(text.encode()).hexdigest() == COO_21_SHA256


def test_full_operator_site_limit():
    """Past 8 sites the full-space operator is refused before any
    allocation."""
    spec = hm.build_hamiltonian(identity_circuit(3, 1, 2))
    with pytest.raises(ValueError, match="chain of 12 sites exceeds"):
        spectra.FullOperator.from_spec(spec)


def test_full_diagonal_eight_sites():
    """op.diag at 4,096 random basis states of the 8-site rejecting
    operator equals sum(weight * prod site indicator) over the diag terms,
    read off the base-8 digits (site 1 most significant)."""
    cp = hm.choose_couplings(2, 2, accepting_circuit())
    spec = hm.build_hamiltonian(verify.rejecting_circuit(), couplings=cp)
    op = spectra.FullOperator.from_spec(spec)
    idx = np.random.default_rng(17).integers(0, op.dim, 4096)
    digits = idx[:, None] // 8 ** np.arange(op.L - 1, -1, -1) % 8
    want = np.zeros(len(idx))
    for t in spec.terms:
        if t.kind == "diag":
            f = np.full(len(idx), t.weight)
            for k in range(len(t.sites)):
                f *= site_indicator(t.diag_slots[k])[
                    digits[:, t.sites[0] - 1 + k]]
            want += f
    assert np.array_equal(op.diag[idx], want)
    assert len(op.hops) == op.L - 1


def test_export_coo_dimension_guard():
    # the text holds one line per nonzero, so the export stops at 6
    # sites: the 8-site chain (49,283,072 nonzeros) and a 12-site chain
    # are refused
    for n, R in ((2, 2), (3, 2)):
        spec = hm.build_hamiltonian(identity_circuit(n, 1, R),
                                    couplings=hm.UNIT_COUPLINGS)
        with pytest.raises(ValueError, match="limited to 6 sites"):
            spectra.export_coo(spec)

import hashlib
import itertools
from dataclasses import replace

import numpy as np
import pytest

from hamline import chain, hamiltonian as hm, spectra, verify
from hamline.chain import Configuration
from hamline.circuit import (Gate2Q, LayeredCircuit, circuit_unitary,
                             identity_round, input_state,
                             output_zero_probability)
from hamline.verify import accepting_circuit, cnot_circuit


def identity_circuit(n, m, R):
    return LayeredCircuit(n, m, tuple(identity_round(n) for _ in range(R)))


# ---------------------------------------------------------------------------
# basis indexing
# ---------------------------------------------------------------------------

def test_config_indices_small():
    c = Configuration.from_string("giq.", 2, 1)
    idx = spectra.config_indices(c)
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
    spec = hm.build_hamiltonian(identity_circuit(2, 1, 1),
                                couplings=hm.UNIT_COUPLINGS)
    op = spectra.FullOperator.from_spec(spec)
    return spec, op, op.dense()


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
        assert np.max(np.abs(op.matvec(v) - H @ v)) < 1e-12


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


def haar_gate(seed):
    z = np.random.default_rng(seed).standard_normal((4, 8)).view(complex)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def embedding(basis):
    """Full-space index of every restricted basis vector, in basis order."""
    return np.concatenate([spectra.config_indices(c) for c, _, _ in basis])


def test_restrict_equals_full_operator_on_all_configurations():
    """Over all 6^4 configurations of n=2, R=1 the restriction is the whole
    operator, permuted.  Round 1 must be identity, so the Haar gate is put
    on the rule-1 hop term directly."""
    spec = hm.build_hamiltonian(identity_circuit(2, 1, 1))
    gate = tuple(haar_gate(11).ravel())
    terms = [replace(t, gate=gate) if t.gate is not None else t
             for t in spec.terms]
    assert sum(t.gate == gate for t in terms) == 1
    configs = [Configuration(2, 1, bytes(s))
               for s in itertools.product(range(6), repeat=4)]
    mat, basis = spectra.restrict(terms, configs)
    idx = embedding(basis)
    assert np.array_equal(np.sort(idx), np.arange(8 ** 4))
    full = spectra.FullOperator(terms, (2, 1)).dense()
    diff = np.abs(full[np.ix_(idx, idx)] - mat.toarray())
    assert np.max(diff) <= 1e-12 * np.max(np.abs(full))


def test_restrict_matches_full_operator_with_d_windows():
    """Hops at D windows (rules 4, 5 and 6) exist only for R >= 2: compare
    on the legal+fringe configurations of a random-gate n=2, R=2 circuit."""
    circ = LayeredCircuit(2, 1, (identity_round(2),
                                 (Gate2Q(haar_gate(12), 1),)))
    spec = hm.build_hamiltonian(circ)
    mat, basis = spectra.restrict(spec, verify.legal_fringe(2, 2))
    idx = embedding(basis)
    op = spectra.FullOperator.from_spec(spec)
    rng = np.random.default_rng(13)
    for _ in range(2):
        x = rng.standard_normal(len(idx)) + 1j * rng.standard_normal(len(idx))
        full = np.zeros(op.dim, dtype=complex)
        full[idx] = x
        want = op.matvec(full)[idx]
        assert np.max(np.abs(mat @ x - want)) <= 1e-12 * np.max(np.abs(want))


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


def test_min_eigs_lanczos_vs_dense(dense_21):
    _, op, H = dense_21
    dense_vals = np.linalg.eigvalsh(H)
    res = spectra.min_eigs(op, k=1, seed=0, maxiter=5000, tol=1e-12)
    assert res.converged
    assert abs(res.values[0] - dense_vals[0]) < 1e-8
    assert res.residuals[0] < 1e-6


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


def test_symmetric_boundary_swap_same_spectrum():
    a = spectra.walk_eigs_analytic(1.0, 0.5, 7)
    b = np.linalg.eigvalsh(spectra.walk_matrix(0.5, 1.0, 7).dense())
    assert np.max(np.abs(np.sort(a) - b)) < 1e-12


# ---------------------------------------------------------------------------
# rotating out the gates
# ---------------------------------------------------------------------------

def test_rotation_identity_circuit_is_noop():
    circ = identity_circuit(2, 1, 2)
    h = spectra.restrict_dense(hm.build_h_prop(circ),
                               spectra.legal_basis(2, 2))
    rot = spectra.rotate_out_gates(h, circ)
    assert np.max(np.abs(rot - h)) == 0.0


def test_rotation_cnot_circuit_gives_twice_walk():
    circ = cnot_circuit()
    K = chain.step_count(2, 2)
    h = spectra.restrict_dense(hm.build_h_prop(circ),
                               spectra.legal_basis(2, 2))
    rot = spectra.rotate_out_gates(h, circ)
    target = np.kron(2.0 * spectra.walk_matrix(0.5, 0.5, K).dense(),
                     np.eye(4))
    assert np.max(np.abs(rot - target)) < 1e-12


def test_rotated_gap_beats_quadratic_bound():
    for K in (5, 19, 50, 200):
        second = spectra.walk_eigs_analytic(0.5, 0.5, K)[1]
        assert second >= 1.0 / (2 * (K + 1) ** 2)


def test_rotation_quadratic_form_consistency():
    # the expectation through the term list agrees with the quadratic
    # form of the rotated matrix for states supported on the legal span
    circ = cnot_circuit()
    prop = hm.build_h_prop(circ)
    h = spectra.restrict_dense(prop, spectra.legal_basis(2, 2))
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


def test_apply_full_wrapper(dense_21):
    spec, op, _ = dense_21
    rng = np.random.default_rng(11)
    v = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
    assert np.array_equal(spectra.apply_full(spec, v), op.matvec(v))


def test_full_sparse_matrix_matches_operator(dense_21):
    spec, op, H = dense_21
    S = spectra.full_sparse_matrix(spec.terms, 2, 1)
    assert np.max(np.abs(S.toarray() - H)) == 0.0


def test_export_coo_round_trip(dense_21):
    spec, _, H = dense_21
    text = spectra.export_coo(spec)
    head, *rows = text.strip().split("\n")
    assert head.startswith("# hamline-coo-v1 n=2 R=1 dim=4096")
    rebuilt = np.zeros_like(H)
    for row in rows:
        r, c, re, im = row.split()
        rebuilt[int(r), int(c)] = float(re) + 1j * float(im)
    assert np.max(np.abs(rebuilt - H)) == 0.0
    # sorted by (row, col)
    rc = [(int(r.split()[0]), int(r.split()[1])) for r in rows]
    assert rc == sorted(rc)


def test_export_coo_bytes_pinned(dense_21):
    # the export bytes are frozen; this digest comes from one Kronecker
    # product per term
    text = spectra.export_coo(dense_21[0])
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "50a5c07368a6a18f58992742580f8db2f96f40dc7ec1f3e1539b77b6b633b3cf"


def test_full_diagonal_eight_sites():
    """op.diag at 4,096 random basis states of the 8-site rejecting
    operator equals sum(weight * prod site_diag) over the diag terms,
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
                f *= t.site_diag(k)[digits[:, t.sites[0] - 1 + k]]
            want += f
    assert np.array_equal(op.diag[idx], want)
    assert len(op.hops) == op.L - 1


def test_export_coo_dimension_guard():
    # 8^8 = 2^24 exactly, so an 8-site chain is still permitted (if
    # enormous); a 12-site chain is past the limit and must be refused
    spec = hm.build_hamiltonian(identity_circuit(3, 1, 2),
                                couplings=hm.UNIT_COUPLINGS)
    with pytest.raises(ValueError):
        spectra.export_coo(spec)


def test_export_vector_header():
    eta = spectra.history_state(identity_circuit(2, 1, 1), np.array([1, 0]))
    text = spectra.export_vector(eta.to_full(), 2, 1)
    head, *rows = text.strip().split("\n")
    assert head.startswith("# hamline-vector-v1 n=2 R=1 dim=4096")
    assert spectra.basis_convention_hash() in head
    assert len(rows) == 4

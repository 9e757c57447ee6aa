import hashlib
import json

import numpy as np
import pytest

from hamline import chain, hamiltonian as hm, spectra
from hamline.chain import BLANK, DEAD, Configuration
from hamline.circuit import Gate2Q, LayeredCircuit, identity_round
from hamline.verify import accepting_circuit, cnot_circuit


def identity_circuit(n, m, R):
    return LayeredCircuit(n, m, tuple(identity_round(n) for _ in range(R)))


def basis_state(c: Configuration, content: int = 0):
    v = np.zeros(1 << c.holder_count(), dtype=complex)
    v[content] = 1.0
    return spectra.RestrictedState(c.n, c.R, {c: v})


# ---------------------------------------------------------------------------
# ancilla / output terms
# ---------------------------------------------------------------------------

def test_h_in_sites():
    assert [t.sites for t in hm.build_h_in(3, 1, 2)] == [(1,), (3,)]
    assert [t.sites for t in hm.build_h_in(3, 3, 2)] == [(1,)]
    assert [t.sites for t in hm.build_h_in(5, 1, 1)] == [(1,), (3,), (5,), (7,)]
    with pytest.raises(ValueError):
        hm.build_h_in(3, 4, 2)


def test_h_in_vanishes_on_history():
    eta = spectra.history_state(identity_circuit(3, 1, 2), np.array([1, 0]))
    assert spectra.expectation(hm.build_h_in(3, 1, 2), eta) == 0.0


def test_h_out_site_and_slot():
    (term,) = hm.build_h_out(2, 2)
    assert term.sites == (8,)
    m = term.matrix()
    assert m.shape == (8, 8)
    assert m[6, 6] == 1.0 and np.sum(np.abs(m)) == 1.0  # gate content |0>


# ---------------------------------------------------------------------------
# penalty terms
# ---------------------------------------------------------------------------

def test_pen_family_count_and_census():
    for n, m, R in [(2, 1, 1), (2, 1, 2), (3, 2, 2), (4, 1, 3)]:
        circ = identity_circuit(n, m, R)
        pieces = hm.build_pieces(circ)
        counts = {fam: len(ts) for fam, ts in pieces.items()}
        assert counts == hm.expected_census(n, m, R)


def test_pen_zero_on_legal_and_positive_on_detectable():
    pen = hm.build_h_pen(2, 2)
    for c in chain.legal_sequence(2, 2):
        q = c.holder_count()
        state = spectra.RestrictedState(
            2, 2, {c: np.ones(1 << q, dtype=complex) / np.sqrt(1 << q)})
        assert spectra.expectation(pen, state) == 0.0
    bad = Configuration.from_string("gx.." + "....", 2, 2)
    assert spectra.expectation(pen, basis_state(bad)) >= 1.0


def test_pen_drop_family_hook():
    full = hm.build_h_pen(2, 2)
    dropped = hm.build_h_pen(2, 2, drop_family=(DEAD, BLANK, "B"))
    assert len(dropped) == len(full) - 2  # two B pairs on the (2,2) chain


def test_end_penalties():
    pen = hm.build_h_pen(2, 1)
    start_bad = Configuration.from_string("qiq.", 2, 1)
    assert spectra.expectation(pen, basis_state(start_bad)) >= 1.0
    end_bad = Configuration.from_string("giqi", 2, 1)
    assert spectra.expectation(pen, basis_state(end_bad)) >= 1.0


# ---------------------------------------------------------------------------
# propagation terms: structure
# ---------------------------------------------------------------------------

def test_all_blocks_hermitian_and_projectors_idempotent():
    pieces = hm.build_pieces(accepting_circuit())
    for fam, ts in pieces.items():
        for t in ts:
            m = t.matrix()
            assert np.max(np.abs(m - m.conj().T)) < 1e-14
            if t.kind == "diag":
                assert np.max(np.abs(m @ m - m)) < 1e-14


def test_hop_adjoint_pairs_present():
    # every hop block contains the transfer and its adjoint
    for t in hm.build_h_prop(cnot_circuit()):
        if t.kind != "hop":
            continue
        m = t.matrix()
        entries = t.hop_entries()
        assert entries
        for d64, s64, val in entries:
            assert m[d64, s64] == t.sign * val
            assert m[s64, d64] == t.sign * np.conj(val)


def test_rule1_hop_carries_gate():
    circ = cnot_circuit()
    hops = [t for t in hm.build_h_prop(circ)
            if t.kind == "hop" and t.rule == "1"]
    assert [t.sites for t in hops] == [(2, 3), (6, 7)]
    assert np.allclose(hops[0].gate_matrix(), np.eye(4))      # round 1
    assert np.allclose(hops[1].gate_matrix(),
                       circ.gate(2, 1).matrix)                # round 2


def test_truncated_projectors_at_chain_ends():
    singles = [t for t in hm.build_h_prop(identity_circuit(2, 2, 2))
               if t.family == "prop" and len(t.sites) == 1]
    assert {t.sites[0] for t in singles} == {1, 8}
    for t in singles:
        assert t.rule == "3"
        assert t.diag_slots[0] == frozenset({4, 5})  # qubit content summed


# ---------------------------------------------------------------------------
# propagation terms: worked single-window examples (rule-3 window at the
# last pair of the first block, n=3)
# ---------------------------------------------------------------------------

def rule3_window_terms(circ, window):
    return [t for t in hm.build_h_prop(circ)
            if t.rule == "3" and t.window == window]


def expand(terms, c, content=0):
    """Apply a term list to a basis state, returning {(config, content): amp}."""
    state = basis_state(c, content)
    out = spectra.apply_restricted(terms, state)
    acc = {}
    for cfg_, vec in out.amplitudes.items():
        for idx in np.nonzero(np.abs(vec) > 1e-15)[0]:
            acc[(cfg_.to_string(), int(idx))] = complex(vec[idx])
    return acc


@pytest.fixture(scope="module")
def n3_circ():
    return identity_circuit(3, 1, 2)


def test_window_example_mid_train(n3_circ):
    # one projection, one timed hop (to the next legal state), one
    # detectable image
    c1 = Configuration.from_string("xxxqqi|q.....", 3, 2)
    got = expand(rule3_window_terms(n3_circ, 5), c1)
    assert got == {
        ("xxxqqi|q.....", 0): 1.0,
        ("xxxqiq|q.....", 0): -1.0,
        ("xxxqxq|q.....", 0): -1.0,
    }
    assert chain.classify(Configuration.from_string("xxxqiq|q.....", 3, 2)).tag == "legal"
    assert chain.classify(Configuration.from_string("xxxqxq|q.....", 3, 2)).tag == "detectable"


def test_window_example_train_head(n3_circ):
    c2 = Configuration.from_string("xxxxqi|qiq...", 3, 2)
    got = expand(rule3_window_terms(n3_circ, 5), c2)
    assert got == {
        ("xxxxqi|qiq...", 0): 1.0,
        ("xxxxiq|qiq...", 0): -1.0,
        ("xxxxxq|qiq...", 0): -1.0,
    }
    assert chain.classify(Configuration.from_string("xxxxxq|qiq...", 3, 2)).tag == "legal"
    assert chain.classify(Configuration.from_string("xxxxiq|qiq...", 3, 2)).tag == "detectable"


def test_window_example_pusher_phase(n3_circ):
    # the qubit-move window is mistimed here: no projection, two
    # detectable images
    c3 = Configuration.from_string("xq<iqi|q.....", 3, 2)
    got = expand(rule3_window_terms(n3_circ, 5), c3)
    assert got == {
        ("xq<iiq|q.....", 0): -1.0,
        ("xq<ixq|q.....", 0): -1.0,
    }
    for s in ("xq<iiq|q.....", "xq<ixq|q....."):
        assert chain.classify(Configuration.from_string(s, 3, 2)).tag == "detectable"


def test_window_example_single_qubit(n3_circ):
    # allowed but illegal: projected once, no legal transition
    c4 = Configuration.from_string("xxxxq.|......", 3, 2)
    got = expand(rule3_window_terms(n3_circ, 5), c4)
    assert got == {
        ("xxxxq.|......", 0): 1.0,
        ("xxxxxq|......", 0): -1.0,
    }
    img = Configuration.from_string("xxxxxq|......", 3, 2)
    assert chain.classify(img).tag == "detectable"


# ---------------------------------------------------------------------------
# propagation terms: whole-operator application
# ---------------------------------------------------------------------------

def test_full_prop_expansion_at_round_start():
    # fresh round start inside a 3-block chain: two projections, the
    # timed forward and backward hops, and three detectable images
    circ = identity_circuit(3, 1, 3)
    prop = hm.build_h_prop(circ)
    c = Configuration.from_string("xxxxxx|giqiq.|......", 3, 3)
    seq = chain.legal_sequence(3, 3)
    t = seq.index(c)
    got = expand(prop, c)
    assert got == {
        ("xxxxxx|giqiq.|......", 0): 2.0,
        (seq[t + 1].to_string(), 0): -1.0,   # forward: gate moves right
        (seq[t - 1].to_string(), 0): -1.0,   # backward: pusher reappears
        ("xxxxxx|giiqq.|......", 0): -1.0,
        ("xxxxxx|gixqq.|......", 0): -1.0,
        ("xxxxxx|giqixq|......", 0): -1.0,
    }
    assert seq[t + 1].to_string() == "xxxxxx|xgqiq.|......"
    assert seq[t - 1].to_string() == "xxxxx<|qiqiq.|......"
    for s in ("xxxxxx|giiqq.|......", "xxxxxx|gixqq.|......",
              "xxxxxx|giqixq|......"):
        assert chain.classify(Configuration.from_string(s, 3, 3)).tag \
            == "detectable"


def test_prop_action_on_interior_legal_states():
    # on the legal span: 2 psi_t - psi_{t-1} - psi_{t+1}; everything else
    # lands on detectable configurations
    circ = identity_circuit(2, 1, 2)
    prop = hm.build_h_prop(circ)
    seq = chain.legal_sequence(2, 2)
    K = len(seq) - 1
    for t in range(len(seq)):
        got = expand(prop, seq[t])
        legal_part = {k: v for k, v in got.items()
                      if chain.classify(
                          Configuration.from_string(k[0], 2, 2)).tag == "legal"}
        expected = {(seq[t].to_string(), 0): 2.0 if 0 < t < K else 1.0}
        if t > 0:
            expected[(seq[t - 1].to_string(), 0)] = -1.0
        if t < K:
            expected[(seq[t + 1].to_string(), 0)] = -1.0
        assert legal_part == expected
        for (s, _), v in got.items():
            if (s, 0) not in expected:
                assert chain.classify(
                    Configuration.from_string(s, 2, 2)).tag == "detectable"


# ---------------------------------------------------------------------------
# couplings and assembly
# ---------------------------------------------------------------------------

def test_couplings_satisfy_gates_and_examples():
    for n, R in [(2, 1), (2, 2), (3, 2)]:
        circ = identity_circuit(n, 1, R)
        cp = hm.choose_couplings(n, R, circ)
        K = chain.step_count(n, R)
        assert cp.self_check(K)
        assert cp.j_in >= 4 * (K + 1) * 1.0  # out-family bound is exactly 1
        for j in (cp.j_in, cp.j_prop, cp.j_pen):
            assert j == 2 ** round(np.log2(j))


def test_couplings_monotone_in_K():
    prev = None
    for R in (1, 2, 3, 4):
        cp = hm.choose_couplings(2, R, identity_circuit(2, 1, R))
        if prev is not None:
            assert cp.j_in >= prev.j_in
            assert cp.j_prop >= prev.j_prop
            assert cp.j_pen >= prev.j_pen
        prev = cp


def test_assemble_orders_and_weights():
    circ = accepting_circuit()
    cp = hm.choose_couplings(2, 2, circ)
    spec = hm.build_hamiltonian(circ, couplings=cp)
    fams = [t.family for t in spec.terms]
    assert fams == sorted(fams, key=["in", "prop", "pen", "out"].index)
    assert {t.weight for t in spec.terms if t.family == "pen"} == {cp.j_pen}
    assert {t.weight for t in spec.terms if t.family == "out"} == {1.0}
    assert spec.K == chain.step_count(2, 2) == 18


def test_export_terms_deterministic_and_parseable():
    spec = hm.build_hamiltonian(accepting_circuit())
    text1 = hm.export_terms(spec)
    text2 = hm.export_terms(hm.build_hamiltonian(accepting_circuit()))
    assert text1 == text2
    lines = text1.strip().split("\n")
    head = json.loads(lines[0])
    assert head["terms"] == len(lines) - 1 == len(spec.terms)
    rec = json.loads(lines[1])
    assert set(rec) == {"family", "rule", "piece", "sites", "weight", "matrix"}
    dim = 8 ** len(rec["sites"])
    assert len(rec["matrix"]) == dim * dim


def haar_circuit(seed):
    """n=2, R=2 with a seeded Haar gate in round 2 (round 1 must be
    identity); its hop blocks hold signed zeros."""
    z = np.random.default_rng(seed).standard_normal((4, 8)).view(complex)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return LayeredCircuit(2, 1, (identity_round(2),
                                 (Gate2Q(q * (d / np.abs(d)), 1),)))


@pytest.mark.parametrize("circ, digest", [
    (accepting_circuit(),
     "3e8130d54da3458809044b8c8d01f12782aad2ea67c9b3a50503dd7a876b1782"),
    (haar_circuit(12),
     "7127d64b011e8113164f1762d5fd6efa207bcb08a611996b40f8dcf0fa8119be"),
], ids=["accepting", "haar12"])
def test_export_terms_bytes_pinned(circ, digest):
    # the export bytes are frozen; these digests come from encoding
    # every entry separately, with no cache
    text = hm.export_terms(hm.build_hamiltonian(circ))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_random_rayleigh_quotients_on_dense_instance():
    # spot check: random unit vectors see essentially non-negative energy
    # (the operator is not PSD, but its negative directions are tiny and
    # specific; random vectors do not find them)
    spec = hm.build_hamiltonian(identity_circuit(2, 1, 1),
                                couplings=hm.UNIT_COUPLINGS)
    op = spectra.FullOperator.from_spec(spec)
    rng = np.random.default_rng(0)
    worst = np.inf
    for _ in range(1000):
        v = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
        v /= np.linalg.norm(v)
        worst = min(worst, float(np.vdot(v, op.matvec(v)).real))
    assert worst >= -1e-10

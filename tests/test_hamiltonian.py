import hashlib
import itertools
import json
from collections import Counter

import numpy as np
import pytest

from hamline import chain, cli, hamiltonian as hm, spectra, verify
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
    assert [t.sites for t in hm.build_h_in(3, 1)] == [(1,), (3,)]
    assert [t.sites for t in hm.build_h_in(3, 3)] == [(1,)]
    assert [t.sites for t in hm.build_h_in(5, 1)] == [(1,), (3,), (5,), (7,)]
    with pytest.raises(ValueError):
        hm.build_h_in(3, 4)


def test_h_in_vanishes_on_history():
    eta = spectra.history_state(identity_circuit(3, 1, 2), np.array([1, 0]))
    assert spectra.expectation(hm.build_h_in(3, 1), eta) == 0.0


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
    # every shape with 2 <= n <= 7, 1 <= R <= 5 and 1 <= m <= n: the
    # couplings read their norm bounds from the closed form
    for n, R in itertools.product(range(2, 8), range(1, 6)):
        for m in range(1, n + 1):
            pieces = hm.build_pieces(identity_circuit(n, m, R))
            counts = {fam: len(ts) for fam, ts in pieces.items()}
            assert counts == hm.expected_census(n, m, R), (n, m, R)


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
    dropped = cli._without_pen_family(chain, hm)(2, 2)
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


def transport(t) -> np.ndarray:
    """The 64x64 transfer T of a hop term, from the SLOT rows alone:
    each source slot pair's content bits move left to right onto the
    destination symbols' holders, through the gate on rule 1."""
    slots = [tuple(dict.fromkeys(row)) for row in chain.SLOT.tolist()]
    (x, y), (p, q) = t.src, t.dst
    u = t.gate_matrix()
    T = np.zeros((64, 64), dtype=complex)
    for sx in slots[x]:
        for sy in slots[y]:
            bits = [s - slots[a][0] for a, s in ((x, sx), (y, sy))
                    if len(slots[a]) == 2]
            if u is None:
                outs = [(bits, 1.0)]
            else:
                outs = [([j >> 1, j & 1], u[j, 2 * bits[0] + bits[1]])
                        for j in range(4)]
            for out, amp in outs:
                dp = slots[p][out.pop(0)] if len(slots[p]) == 2 \
                    else slots[p][0]
                dq = slots[q][out.pop(0)] if len(slots[q]) == 2 \
                    else slots[q][0]
                T[8 * dp + dq, 8 * sx + sy] += amp
    return T


def test_hop_adjoint_pairs_present():
    # every hop block is minus the transfer plus its adjoint; round 2
    # carries a complex random gate
    z = np.random.default_rng(5).standard_normal((4, 8)).view(complex)
    circ = LayeredCircuit(2, 1, (identity_round(2),
                                 (Gate2Q(np.linalg.qr(z)[0], 1),)))
    hops = [t for t in hm.build_h_prop(circ) if t.kind == "hop"]
    assert {t.rule for t in hops} == {"1", "2", "3", "4", "5", "6"}
    for t in hops:
        T = transport(t)
        assert np.any(T)
        assert np.array_equal(t.matrix(), -(T + T.conj().T))


@pytest.mark.parametrize("w", [1, 2])
def test_site_index_permutes_window_basis(w):
    # the (symbol, content) basis of all w-site windows is the 8^w basis
    rows = np.array(list(itertools.product(range(6), repeat=w)),
                    dtype=np.uint8)
    idx = hm._site_index(chain._Packed(rows))
    assert np.array_equal(np.sort(idx), np.arange(8 ** w))


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


@pytest.mark.parametrize("n, R", list(verify._chain_shapes(12)))
def test_symbol_hits_are_the_content_level_entries(n, R):
    # the legal span, its one-exchange fringe and random configurations:
    # each pen or prop projector fires, at symbol level, on exactly the
    # configurations where the content kernel gives it entries, and there
    # at every content index
    rng = np.random.default_rng([n, R])
    configs = list(dict.fromkeys(verify.legal_fringe(n, R) + [
        Configuration(n, R, bytes(row))
        for row in rng.integers(0, 6, (300, 2 * n * R), dtype=np.uint8)]))
    terms = hm.build_h_pen(n, R) + hm.projector_layout(n, R)
    pk = chain._Packed.of(configs)
    content = Counter()
    for kind, term, rows, _, vals in hm._term_entries(terms, pk):
        assert kind == "diag" and np.all(vals != 0)
        cfg = np.searchsorted(pk.offsets, rows, side="right") - 1
        content.update(zip(term.tolist(), cfg.tolist()))
    term, row = hm._symbol_hits(terms, configs)
    symbol = Counter(zip(term.tolist(), row.tolist()))
    assert set(symbol.values()) == {1}
    assert content == {hit: int(pk.cdim[hit[1]]) for hit in symbol}
    circ = identity_circuit(n, 1, R)
    hop = next(t for t in hm.build_h_prop(circ) if t.kind == "hop")
    for refused in (hm.build_h_in(n, 1), hm.build_h_out(n, R), [hop]):
        with pytest.raises(ValueError, match="no symbol-level value"):
            hm._symbol_hits(terms + refused, configs)


def test_kernel_refuses_a_term_past_the_chain():
    # a (3,2) spec has terms on sites 9..12, past the 8 sites of a (2,2)
    # chain: its diag terms once gave a 76 x 76 legal block with entries
    # near 4.3e10, and the whole spec an IndexError
    spec = hm.build_hamiltonian(identity_circuit(3, 1, 2))
    legal = spectra.legal_basis(2, 2)
    past = r"term on sites \(\d+(, \d+)?\) lies past the chain of 8 sites"
    for terms in ([t for t in spec.terms if t.kind == "diag"], spec):
        with pytest.raises(ValueError, match=past):
            spectra.restrict(terms, legal)
    with pytest.raises(ValueError, match=past):
        hm._symbol_hits(hm.build_h_pen(3, 2), legal)


def test_apply_restricted_refuses_a_term_past_the_chain():
    # the hop images are looked up before the kernel runs; the same guard
    # must run first there too (it was an IndexError)
    spec = hm.build_hamiltonian(identity_circuit(3, 1, 2))
    state = basis_state(chain.legal_sequence(2, 2)[0])
    with pytest.raises(ValueError, match=r"term on sites \(\d+(, \d+)?\) "
                                         r"lies past the chain of 8 sites"):
        spectra.apply_restricted(spec, state)


def test_every_route_follows_the_rule_table(monkeypatch):
    """With 3d's after-window made ``.q``, every derived view follows the
    installed table, and the original table's views come back with it."""
    start = chain.initial_configuration(2, 2)
    circ = identity_circuit(3, 1, 2)
    before = (chain.legal_sequence(3, 2), hm.projector_layout(3, 2))
    assert len(chain.invariant_set(start)) == 3200
    mutant = chain.mutated_rules("3d", (BLANK, chain.QUBIT))
    with monkeypatch.context() as mp:
        mp.setattr(chain, "RULES", mutant)
        assert len(chain.invariant_set(start)) == 465
        hops = {(t.src, t.dst) for t in hm.build_h_prop(circ)
                if t.kind == "hop" and t.rule == "3"}
        assert ((chain.QUBIT, BLANK), (BLANK, chain.QUBIT)) in hops
        assert ((chain.QUBIT, BLANK), (DEAD, chain.QUBIT)) not in hops
        # a sequence and a layout derived from the mutant, not copies; 3d
        # never fires on a legal configuration and its zw projector reads
        # after[1] only, so both come out as before
        assert ("annotated_sequence", 3, 2) not in chain._memo
        assert chain.legal_sequence(3, 2) == before[0]
        assert chain._memo_for[0] is mutant
        tables, by_parent = [], chain._by_parent
        mp.setattr(chain, "_by_parent", lambda: (
            tables.append(chain.RULES) or by_parent()))
        assert hm.projector_layout(3, 2) == before[1]
        assert len(tables) == 1 and tables[0] is mutant
        assert {id(r) for r in by_parent()} == {id(r) for r in mutant}
    assert len(chain.invariant_set(start)) == 3200
    assert (chain.legal_sequence(3, 2), hm.projector_layout(3, 2)) == before


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
        assert cp.self_check(n, 1, R)
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


def haar_circuit(seed, n=2):
    """R=2 with seeded Haar gates in round 2 (round 1 must be identity);
    its hop blocks hold signed zeros."""
    rng = np.random.default_rng(seed)
    gates = []
    for g in range(1, n):
        z = rng.standard_normal((4, 8)).view(complex)
        q, r = np.linalg.qr(z)
        d = np.diag(r)
        gates.append(Gate2Q(q * (d / np.abs(d)), g))
    return LayeredCircuit(n, 1, (identity_round(n), tuple(gates)))


@pytest.mark.parametrize("circ, digest", [
    (accepting_circuit(),
     "3e8130d54da3458809044b8c8d01f12782aad2ea67c9b3a50503dd7a876b1782"),
    (haar_circuit(12),
     "7127d64b011e8113164f1762d5fd6efa207bcb08a611996b40f8dcf0fa8119be"),
    # n=3 has type-A windows, where four rule-3 hops tie in the
    # assembly sort and keep the transition-term order
    (haar_circuit(13, n=3),
     "5adbcea93daa9a5b3d299e5e865c32ef14d8f104ebfbb054139fbb54542717f4"),
], ids=["accepting", "haar12", "haar13-n3"])
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

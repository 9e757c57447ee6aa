"""End-to-end acceptance checks.

Every check prints one pass/fail line.  Criterion 1's configuration
count asserts README's closed form, K + 1 = (R-1)(3n^2+2n-1) + 2n
configurations: 38 for n=3, R=2, i.e. K = 37 steps.  The final round
is the gate sweep of the transcribed Table-3 round moved into the last
block, so it holds 2n configurations.

Three literal clauses are asserted exactly as stated, although the
measured behaviour contradicts them; each failure message carries the
measured value:

* criterion 5's rotated-matrix identity (the legal restriction of the
  propagation family equals exactly *twice* the boundary-1/2 walk
  matrix, on a time register of size K+1 = 19, time (x) content);
* criterion 8's positive full-space ground energy (the exact full-space
  ground energy is negative at the derived couplings, -2073.7345 for
  the rejecting circuit at n=2, R=2, attained on the type-1 block);
* criterion 9's forward-step horizon (511 of the 665 undetectable
  configurations on chains up to 12 sites halt under forward rules
  without a local violation; their exchange lines reach detectability).

Whether the failures of criteria 8 and 9 come from the 2-local split of
the context rules or from the construction as transcribed is open.
"""

import time
from importlib.resources import files

import numpy as np
import pytest

from hamline import chain, hamiltonian as hm, spectra, verify
from hamline.chain import Configuration, DEAD, GATE
from hamline.cli import sequence_lines
from hamline.verify import accepting_circuit, cnot_circuit

GOLDEN = files("hamline") / "goldens" / "table3_n3.txt"


def record(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status}  {detail}")
    return ok


# ---------------------------------------------------------------------------
# criterion 1: legal-sequence exactness
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def sequence_32():
    t0 = time.perf_counter()
    lines = sequence_lines(3, 2)
    return lines, time.perf_counter() - t0


def test_criterion_01_table3_golden(sequence_32):
    lines, dt = sequence_32
    golden = GOLDEN.read_text().strip().splitlines()
    assert len(golden) == 33
    mismatches = [i for i, g in enumerate(golden) if lines[i] != g]
    ok = record("1 (golden round)", not mismatches and dt < 1.0,
                f"33 transcribed lines, {len(mismatches)} mismatches, "
                f"{dt:.3f}s")
    assert ok


def test_criterion_01_configuration_count(sequence_32):
    lines, _ = sequence_32
    # K + 1 = (R-1)(3n^2+2n-1) + 2n configurations: R-1 transcribed rounds
    # of 3n^2+2n-1 steps, then the final round, which is only the gate
    # sweep (the first 2n transcribed lines) moved into the last block;
    # rule 4a, which ends a sweep, would need a site 2nR+1
    stated = (2 - 1) * (3 * 9 + 2 * 3 - 1) + 2 * 3  # 38
    golden = GOLDEN.read_text().strip().splitlines()
    sweep = ["xxxxxx|" + g.split()[0].split("|")[0] for g in golden[:6]]
    final = [line.split()[0] for line in lines[32:]]
    ok = record("1 (count)", len(lines) == stated and final == sweep
                and len(lines) - 1 == chain.step_count(3, 2),
                f"stated K+1 = {stated}, sequence has {len(lines)} "
                f"configurations, K = {chain.step_count(3, 2)} steps; "
                f"final round {final} vs transcribed sweep {sweep}")
    assert ok


# ---------------------------------------------------------------------------
# criterion 2: pair census
# ---------------------------------------------------------------------------

def test_criterion_02_pair_census():
    allowed = chain.allowed_pair_count()
    forbidden = len(chain.forbidden_families())
    ok = record("2", allowed == 56 and forbidden == 124
                and 36 * 5 - allowed == forbidden,
                f"allowed = {allowed}, forbidden = {forbidden}")
    assert ok


# ---------------------------------------------------------------------------
# criterion 3: facts suite over the grid
# ---------------------------------------------------------------------------

def test_criterion_03_facts_grid():
    t0 = time.perf_counter()
    failures = []
    for n in (2, 3, 4):
        for R in (2, 3):
            rep = verify.check_facts(n, R)
            if not rep.passed:
                failures.append((n, R))
    dt = time.perf_counter() - t0
    ok = record("3", not failures and dt < 30.0,
                f"grid {{2,3,4}}x{{2,3}}, failures = {failures}, {dt:.1f}s")
    assert ok


# ---------------------------------------------------------------------------
# criterion 4: worked-example golden expansions
# ---------------------------------------------------------------------------

def _expand(terms, c):
    state = spectra.RestrictedState(
        c.n, c.R, {c: np.eye(1 << c.holder_count(), dtype=complex)[:, 0]})
    out = spectra.apply_restricted(terms, state)
    acc = {}
    for cfg, vec in out.amplitudes.items():
        for idx in np.nonzero(np.abs(vec) > 1e-15)[0]:
            acc[(cfg.to_string(), int(idx))] = complex(vec[idx])
    return acc


def _identity_circuit(n, m, R):
    from hamline.circuit import LayeredCircuit, identity_round
    return LayeredCircuit(n, m, tuple(identity_round(n) for _ in range(R)))


WINDOW_CASES = [
    ("xxxqqi|q.....",
     {("xxxqqi|q.....", 0): 1.0, ("xxxqiq|q.....", 0): -1.0,
      ("xxxqxq|q.....", 0): -1.0}),
    ("xxxxqi|qiq...",
     {("xxxxqi|qiq...", 0): 1.0, ("xxxxiq|qiq...", 0): -1.0,
      ("xxxxxq|qiq...", 0): -1.0}),
    ("xq<iqi|q.....",
     {("xq<iiq|q.....", 0): -1.0, ("xq<ixq|q.....", 0): -1.0}),
    ("xxxxq.|......",
     {("xxxxq.|......", 0): 1.0, ("xxxxxq|......", 0): -1.0}),
]


def test_criterion_04_worked_examples():
    circ32 = _identity_circuit(3, 1, 2)
    window_terms = [t for t in hm.build_h_prop(circ32)
                    if t.rule == "3" and t.window == 5]
    bad = 0
    for text, want in WINDOW_CASES:
        got = _expand(window_terms, Configuration.from_string(text, 3, 2))
        if got != want:
            bad += 1
    circ33 = _identity_circuit(3, 1, 3)
    c = Configuration.from_string("xxxxxx|giqiq.|......", 3, 3)
    got = _expand(hm.build_h_prop(circ33), c)
    want = {
        ("xxxxxx|giqiq.|......", 0): 2.0,
        ("xxxxxx|xgqiq.|......", 0): -1.0,
        ("xxxxx<|qiqiq.|......", 0): -1.0,
        ("xxxxxx|giiqq.|......", 0): -1.0,
        ("xxxxxx|gixqq.|......", 0): -1.0,
        ("xxxxxx|giqixq|......", 0): -1.0,
    }
    seven_terms = got == want
    ok = record("4", bad == 0 and seven_terms,
                f"{len(WINDOW_CASES) - bad}/{len(WINDOW_CASES)} window "
                f"cases exact; seven-term round-start expansion exact: "
                f"{seven_terms}")
    assert ok


# ---------------------------------------------------------------------------
# criterion 5: rotating out the gates
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def rotated_cnot():
    circ = cnot_circuit()
    h = spectra.restrict(hm.build_h_prop(circ),
                         spectra.legal_basis(2, 2))[0].toarray()
    return spectra.rotate_out_gates(h, circ)


def test_criterion_05_rotation_structure(rotated_cnot):
    K = chain.step_count(2, 2)
    target = np.kron(2.0 * spectra.walk_matrix(0.5, 0.5, K).dense(),
                     np.eye(4))
    err = float(np.max(np.abs(rotated_cnot - target)))
    ok = record("5 (structure)", err <= 1e-12,
                f"rotated legal block equals 2 * walk(1/2,1/2,{K}) (x) I, "
                f"max entry error {err:.2e}")
    assert ok


def test_criterion_05_rotation_literal(rotated_cnot):
    target = np.kron(np.eye(4),
                     spectra.walk_matrix(0.5, 0.5, 19).dense())
    same_shape = rotated_cnot.shape == target.shape
    err = float(np.max(np.abs(rotated_cnot - target))) if same_shape \
        else float("inf")
    ok = record("5 (literal)", same_shape and err <= 1e-12,
                f"stated I (x) walk(1/2,1/2,19): shape "
                f"{target.shape} vs rotated {rotated_cnot.shape}; the "
                "legal block is 19 time steps and carries a factor 2")
    assert ok


# ---------------------------------------------------------------------------
# criterion 6: walk spectra
# ---------------------------------------------------------------------------

def test_criterion_06_walk_spectra():
    t0 = time.perf_counter()
    worst = 0.0
    for f, g in ((0.5, 0.5), (1.0, 1.0), (1.0, 0.5)):
        for L in range(1, 65):
            numeric = np.linalg.eigvalsh(spectra.walk_matrix(f, g, L).dense())
            analytic = np.sort(spectra.walk_eigs_analytic(f, g, L))
            worst = max(worst, float(np.max(np.abs(numeric - analytic))))
    gap_ok = all(spectra.walk_eigs_analytic(0.5, 0.5, K)[1]
                 >= 1.0 / (2 * (K + 1) ** 2) for K in range(1, 201))
    low_ok = all(abs(spectra.walk_eigs_analytic(1.0, 0.5, L)[0]
                     - (1 - np.cos(np.pi / (2 * L + 3)))) < 1e-15
                 for L in range(1, 65))
    dt = time.perf_counter() - t0
    ok = record("6", worst <= 1e-10 and gap_ok and low_ok and dt < 10.0,
                f"max |analytic - numeric| = {worst:.2e}; quadratic gap "
                f"bound to K=200: {gap_ok}; (1,1/2) ground values: "
                f"{low_ok}; {dt:.1f}s")
    assert ok


# ---------------------------------------------------------------------------
# criteria 7 and 8: full-space completeness and soundness probes
# ---------------------------------------------------------------------------

def _check(report, fragment):
    return next(c for c in report.checks if fragment in c.claim)


def test_criterion_07_completeness(soundness_run):
    rep, dt = soundness_run
    circ = accepting_circuit()
    couplings = hm.choose_couplings(2, 2, circ)
    spec = hm.build_hamiltonian(circ, couplings=couplings)
    eta = spectra.history_state(circ, np.array([1.0, 0.0]))
    energy = spectra.expectation(spec, eta)
    ground = _check(rep, "full-space ground energy (accepting)").measured
    ok = record("7", energy <= 1e-12 and ground <= 1e-8 and dt <= 900.0,
                f"<eta|H|eta> = {energy:.3e} (couplings j_pen = "
                f"{couplings.j_pen:.0f}); full-space ground energy "
                f"{ground:.3e} on dim 8^8; probe took {dt:.0f}s")
    assert ok


def test_criterion_08_output_floor(soundness_run):
    rep, _ = soundness_run
    c = _check(rep, "1/(K+1)")
    K = chain.step_count(2, 2)
    ok = record("8 (output floor)",
                c.passed and abs(c.measured - 1 / (K + 1)) <= 1e-12,
                f"smallest eigenvalue of the output penalty on ancilla-"
                f"correct history states = {c.measured:.12f} = 1/{K + 1}")
    assert ok


def test_criterion_08_full_space_positive(soundness_run):
    rep, _ = soundness_run
    accepting = _check(rep, "full-space ground energy (accepting)").measured
    rejecting = _check(rep, "full-space ground energy (rejecting)").measured
    type1 = _check(rep, "type-1").measured
    legal_min = _check(rep, "legal span is positive").measured
    margin = 1e3 * abs(accepting)
    couplings = hm.choose_couplings(2, 2, accepting_circuit())
    leak = -2.0 * couplings.j_prop ** 2 / couplings.j_pen
    ok = record("8 (positivity)", rejecting > max(0.0, margin),
                f"exact full-space ground energies: accepting "
                f"{accepting:.7f}, rejecting {rejecting:.7f} (type-1 block "
                f"minimum {type1:.7f}); legal-span minimum "
                f"{legal_min:.6f} -- second-order leakage from the legal "
                f"span into penalised configurations, -2*j_prop^2/j_pen = "
                f"{leak:.0f}: j_pen = {couplings.j_pen:.0f} is too small")
    assert ok


def test_criterion_08_type3_walk_bounds(soundness_run):
    rep, _ = soundness_run
    c = _check(rep, "type-3")
    ok = record("8 (type-3 lines)", c.passed,
                f"worst margin above j_prop*(1-cos(pi/(2K'+3)))/2: "
                f"{c.measured:.1f}")
    assert ok


# ---------------------------------------------------------------------------
# criterion 9: horizons
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def horizon_data():
    t0 = time.perf_counter()
    per_config = []
    for n in range(2, 7):
        for R in range(1, 4):
            if 2 * n * R > 12:
                continue
            for c in chain.undetectable_configurations(n, R):
                per_config.append(
                    (n, R, chain.detect_horizon(c), chain.exchange_horizon(c)))
    return per_config, time.perf_counter() - t0


def test_criterion_09_exchange_lines(horizon_data):
    data, dt = horizon_data
    bad = [(n, R) for n, R, _, e in data
           if e is None or e > (2 * n * R) ** 3]
    worst_fwd = max((h for _, _, h, _ in data if h is not None), default=0)
    ok = record("9 (exchange lines)", not bad and dt < 300.0,
                f"{len(data)} undetectable configurations on chains up to "
                f"12 sites; every exchange line detects (worst forward-rule "
                f"horizon {worst_fwd}); {dt:.0f}s")
    assert ok


def test_criterion_09_forward_steps_literal(horizon_data):
    data, _ = horizon_data
    stuck = sum(1 for _, _, h, _ in data if h is None)
    ok = record("9 (forward literal)", stuck == 0,
                f"{stuck} of {len(data)} undetectable configurations halt "
                "under forward rewrite rules without ever becoming "
                "detectable (end-of-computation analogues)")
    assert ok


# ---------------------------------------------------------------------------
# criterion 10: negative controls
# ---------------------------------------------------------------------------

def test_criterion_10_negative_controls(monkeypatch):
    golden = GOLDEN.read_text().strip().splitlines()
    golden_cfgs = [line.split()[0] for line in golden]

    # fault A: one mutated rewrite rule, installed as the rule table ->
    # the traced round diverges (criterion 1) and the facts suite reports
    # violations (criterion 3)
    with monkeypatch.context() as mp:
        mp.setattr(chain, "RULES", chain.mutated_rules("2a", (DEAD, GATE)))
        try:
            seq = chain.legal_sequence(3, 2)
            diverged = [c.to_string() for c in seq[:33]] != golden_cfgs
        except chain.BranchingError:
            diverged = True
        facts_fail = not verify.check_facts(3, 2).passed

    # fault B: one dropped penalty family -> the census misses it
    # (criterion 2)
    dropped = hm.build_h_pen(3, 2, drop_family=(chain.DEAD, chain.BLANK, "B"))
    census_fail = len(dropped) != hm.expected_census(3, 1, 2)["pen"]

    # fault C: one mutated hop, rule 3b's qi -> iq made qi -> xq (its
    # projectors do not change) -> a worked-example expansion changes
    # (criterion 4)
    circ = _identity_circuit(3, 1, 2)
    with monkeypatch.context() as mp:
        mp.setattr(chain, "RULES",
                   chain.mutated_rules("3b", (DEAD, chain.QUBIT)))
        mutated_terms = [t for t in hm.build_h_prop(circ)
                         if t.rule == "3" and t.window == 5]
    got = _expand(mutated_terms,
                  Configuration.from_string(WINDOW_CASES[0][0], 3, 2))
    golden_fail = got != WINDOW_CASES[0][1]

    ok = record("10", diverged and facts_fail and census_fail and golden_fail,
                f"mutated rule caught: {diverged and facts_fail}; dropped "
                f"penalty family caught: {census_fail}; mutated hop caught: "
                f"{golden_fail}")
    assert ok

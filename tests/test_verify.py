import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from hamline import chain, cli, hamiltonian as hm, spectra, verify
from hamline.chain import Configuration, DEAD, GATE
from hamline.circuit import Gate2Q, LayeredCircuit, identity_round


def test_check_facts_grid():
    for n, R in [(2, 2), (2, 3), (3, 2)]:
        rep = verify.check_facts(n, R)
        assert rep.passed, rep.to_text()


def test_check_facts_catches_mutated_rules(monkeypatch):
    # with every route on the mutant table the five consistency checks
    # pass; only the closed-form templates, which read no table, see it
    monkeypatch.setattr(chain, "RULES",
                        chain.mutated_rules("2a", (DEAD, GATE)))
    checks = verify.check_facts(3, 2).checks
    assert [c.passed for c in checks] == [True] * 5 + [False]
    assert checks[-1].measured == 3


@pytest.fixture
def traced():
    """Trace allocations for the test; yields the (current, peak) reader."""
    tracemalloc.start()
    yield tracemalloc.get_traced_memory
    tracemalloc.stop()


def test_facts_catch_every_single_after_mutant_but_rule_3d(monkeypatch,
                                                            traced):
    """Mutation census: each of the 490 single mutants of a rule's
    ``after`` window is installed in turn as the rule table, and the
    facts suite runs at (2,2), (3,2) and (2,3) until a shape fails; a
    branching table counts as caught.  Rule 3d never fires on a legal
    configuration, so only its mutants survive, 22 of its 35.  The
    exchange check and the template check each catch some mutant alone.
    What a mutant determines is let go once the next one is installed:
    the loop leaves under 1 MiB allocated."""
    rules, survivors, alone = chain.RULES, [], Counter()
    for rule in rules:
        for after in itertools.product(range(6), repeat=2):
            if after == rule.after:
                continue
            # mutated_rules reads chain.RULES: restore it first, so that
            # each mutant differs from the table in this one rule only
            monkeypatch.setattr(chain, "RULES", rules)
            monkeypatch.setattr(chain, "RULES",
                                chain.mutated_rules(rule.rid, after))
            assert [new != old for new, old in zip(chain.RULES, rules)].count(
                True) == 1
            try:
                failed = next(filter(None, (
                    [k for k, c in enumerate(verify.check_facts(n, R).checks)
                     if not c.passed]
                    for n, R in ((2, 2), (3, 2), (2, 3)))), None)
            except chain.BranchingError:
                failed = ["branching"]
            if failed is None:
                survivors.append((rule.rid, after))
            elif len(failed) == 1:
                alone[failed[0]] += 1
    held = traced()[0]
    assert held < 1 << 20, held
    assert {rid for rid, _ in survivors} == {"3d"}
    assert len(survivors) == 22, survivors
    assert alone[4] > 0 and alone[5] > 0, alone


def test_check_facts_reads_the_built_projector_terms(monkeypatch):
    # give the pusher the insertion symbol's slot in the SLOT row: the
    # built prop projectors no longer fire where the layout's symbols say,
    # and both projector checks must see it
    slot = chain.SLOT.copy()
    slot[chain.PUSHER] = chain.SLOT[chain.INSI]
    monkeypatch.setattr(chain, "SLOT", slot)
    checks = verify.check_facts(3, 2).checks
    assert [c.passed for c in checks] == [True, True, False, False, True,
                                          True]
    assert [c.measured for c in checks[2:4]] == [25, 25]


#: The swaps of two SLOT rows that stop ``history_suite``: each gives a
#: symbol of one slot the content bit of a qubit or gate symbol, so the
#: history state's content vectors no longer fit their configurations.
HISTORY_REFUSED = {"iq", "ig", "<q", "<g", ".q", ".g", "xq", "xg"}


def swap_outcome(suite, *args):
    """What a suite reports: "pass", its failed claims, or the
    ValueError it raises on a content vector of the wrong length."""
    try:
        failed = [c.claim for c in suite(*args).checks if not c.passed]
    except ValueError as e:
        assert "content dimension" in str(e), e
        return "ValueError"
    return failed or "pass"


def test_slot_row_swaps_census():
    # facts at (2,2) and (3,2), census at (2,2) and history under each
    # swap of two SLOT rows; the seven swaps outside HISTORY_REFUSED,
    # among the four one-slot rows and q<->g, relabel slots only: the
    # same operator, which no suite can see
    for a, b in itertools.combinations(range(6), 2):
        swap = chain.SYMBOL_CHARS[a] + chain.SYMBOL_CHARS[b]
        slot = chain.SLOT.copy()
        slot[[a, b]] = chain.SLOT[[b, a]]
        with mock.patch.object(chain, "SLOT", slot):
            outcomes = [swap_outcome(verify.check_facts, 2, 2),
                        swap_outcome(verify.check_facts, 3, 2),
                        swap_outcome(verify.census_suite, 2, 2),
                        swap_outcome(verify.history_suite)]
        assert outcomes == ["pass"] * 3 + [
            "ValueError" if swap in HISTORY_REFUSED else "pass"], swap


def test_check_history_cnot_plus_witness():
    w = np.array([1.0, 1.0]) / np.sqrt(2)
    rep = verify.check_history(verify.cnot_circuit(), w)
    assert rep.passed, rep.to_text()


def haar_round(rng, n):
    gates = []
    for g in range(1, n):
        z = rng.standard_normal((4, 8)).view(complex)
        q, r = np.linalg.qr(z)
        d = np.diag(r)
        gates.append(Gate2Q(q * (d / np.abs(d)), g))
    return tuple(gates)


def test_check_history_haar_within_precision_floor():
    # n=3, R=3 with Haar gates in rounds 2 and 3: j_prop = 2^26, and the
    # total energy rounds to a few 1e-10 above p0/(K+1), far beyond a
    # fixed 1e-12 slack but well inside eps * sum|products| (about 6e-8)
    rng = np.random.default_rng([3, 3, 0])
    circ = LayeredCircuit(3, 1, (identity_round(3), haar_round(rng, 3),
                                 haar_round(rng, 3)))
    w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    rep = verify.check_history(circ, w / np.linalg.norm(w))
    assert rep.passed, rep.to_text()
    total = rep.checks[-1]
    assert total.notes.startswith("precision floor")
    floor = float(total.notes.split("= ")[1])
    assert 0.0 < floor < 1e-6


def test_census_suite_and_negative_control(monkeypatch):
    assert verify.census_suite(3, 2).passed
    monkeypatch.setattr(hm, "build_h_pen",
                        cli._without_pen_family(chain, hm))
    rep = verify.census_suite(3, 2)
    assert not rep.passed


def test_appendix_suite():
    rep = verify.appendix_suite(32)
    assert rep.passed, rep.to_text()


def test_horizon_suite_short_chains():
    rep = verify.horizon_suite(8)
    assert rep.passed, rep.to_text()
    # the recorded notes carry the forward-rule horizon census
    assert all("forward-rule horizon" in c.notes for c in rep.checks)


def test_soundness_probe_subspace_parts(soundness_run):
    rep, _ = soundness_run
    assert rep.passed, rep.to_text()
    claims = {c.claim: c for c in rep.checks}
    neg = next(c for c in rep.checks if "negative ground energy" in c.claim)
    assert neg.measured < 0
    out = next(c for c in rep.checks if "1/(K+1)" in c.claim)
    K = chain.step_count(2, 2)
    assert abs(out.measured - 1.0 / (K + 1)) < 1e-12


def test_soundness_probe_warm_starts_the_type1_blocks(
        soundness_run, soundness_factorizations):
    # both circuits' 12,800-dimensional type-1 blocks start below the
    # legal+fringe minimum: one factorization at the first guess and one
    # certifying count each; bisecting from the Gershgorin bound takes 11
    rep, _ = soundness_run
    assert rep.passed, rep.to_text()
    assert soundness_factorizations[12800] <= 4, soundness_factorizations


def test_pen_free_blocks_give_the_full_space_minimum():
    """n=2, R=1 with a Haar gate on the rule-1 hop (round 1 must be
    identity, so the gate goes on the term directly): the least minimum
    over the pen-free blocks is the certified minimum of the whole-chain
    matrix, and every other configuration spans a block
    that lies above the floor."""
    spec = hm.build_hamiltonian(LayeredCircuit(2, 1, (identity_round(2),)))
    gate = tuple(haar_round(np.random.default_rng(11), 2)[0].matrix.ravel())
    spec = replace(spec, terms=tuple(
        replace(t, gate=gate) if t.gate is not None else t
        for t in spec.terms))
    assert sum(t.gate == gate for t in spec.terms) == 1
    blocks, floor = verify._pen_free_blocks(2, 1), verify._block_floor(spec)
    assert len(blocks) == 3
    low = min((spectra.min_eigs(spectra.restrict(spec, b)[0], k=1)
               for b in blocks), key=lambda r: r.values[0])
    full = spectra.min_eigs(spectra.full_sparse_matrix(spec.terms, 2, 1), k=1)
    assert low.converged and full.converged
    assert low.values[0] < floor
    assert abs(low.values[0] - full.values[0]) <= max(
        low.residuals[0], full.residuals[0], low.floor, full.floor)
    inside = frozenset().union(*blocks)
    rest = [Configuration(2, 1, bytes(s))
            for s in itertools.product(range(6), repeat=4)]
    rest = [c for c in rest if c not in inside]
    above = spectra.min_eigs(spectra.restrict(spec, rest)[0], k=1)
    assert above.converged and above.values[0] >= floor


def test_pen_free_blocks_partition_at_2_2():
    """The 12 blocks at n=2, R=2 are disjoint and exchange-closed, each
    holds a pen-free configuration and together they hold all 54; the
    floor is j_pen less 31 hop terms of norm 1 at j_prop."""
    spec = hm.build_hamiltonian(verify.rejecting_circuit())
    blocks, floor = verify._pen_free_blocks(2, 2), verify._block_floor(spec)
    pen_free = set(chain.allowed_configurations(2, 2))
    union = frozenset().union(*blocks)
    assert len(blocks) == 12 and len(pen_free) == 54
    assert sum(map(len, blocks)) == len(union)
    assert pen_free <= union
    assert all(not pen_free.isdisjoint(b) for b in blocks)
    for b in map(frozenset, blocks):
        assert all(out in b for c in b
                   for *_, out in chain.exchange_neighbours(c))
    c = spec.couplings
    assert floor == pytest.approx(c.j_pen - 31 * c.j_prop, rel=1e-12)
    assert floor == pytest.approx(252_182_528, rel=1e-12)


def test_report_serialization():
    rep = verify.census_suite(2, 2)
    text = rep.to_text()
    assert "suite census" in text and "[pass]" in text
    doc = json.loads(rep.to_json())
    assert doc["passed"] is True
    assert len(doc["checks"]) == len(rep.checks)


def test_report_without_checks_does_not_pass():
    rep = verify.Report("empty")
    assert not rep.passed
    assert rep.to_text() == "suite empty: FAIL (0/0)"
    assert json.loads(rep.to_json())["passed"] is False


def test_report_text_prints_numpy_scalars_as_numbers():
    rep = verify.Report("numbers")
    rep.add("claim", True, measured=np.float64(0.125), bound=np.int64(3))
    assert rep.to_text().endswith("[pass] claim measured=0.125 bound=3")
    doc = json.loads(rep.to_json())
    assert (doc["checks"][0]["measured"], doc["checks"][0]["bound"]) \
        == (0.125, 3)


def test_soundness_report_reproducible_across_processes(soundness_run):
    """The soundness report of a fresh interpreter is byte-identical to
    this session's; the shift-invert solves must not start from ARPACK's
    own random vector."""
    src = str(Path(verify.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("from hamline import verify; "
            "print(verify.soundness_probe().to_json())")
    fresh = subprocess.run([sys.executable, "-c", code], env=env,
                           capture_output=True, text=True, check=True,
                           timeout=600).stdout
    assert fresh == soundness_run[0].to_json() + "\n"


def test_reports_reproducible():
    # measured values and verdicts are identical across runs; reports
    # hold no timings
    a = verify.census_suite(2, 2).to_json()
    b = verify.census_suite(2, 2).to_json()
    assert a == b
    c = verify.check_facts(2, 2).to_json()
    d = verify.check_facts(2, 2).to_json()
    assert c == d

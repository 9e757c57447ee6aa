import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from hamline import chain, verify
from hamline.chain import DEAD, GATE, INSI


def test_check_facts_grid():
    for n, R in [(2, 2), (2, 3), (3, 2)]:
        rep = verify.check_facts(n, R)
        assert rep.passed, rep.to_text()


def test_check_facts_catches_mutated_rules():
    rules = chain.mutated_rules("2a", (DEAD, GATE))
    rep = verify.check_facts(3, 2, rules=rules)
    assert not rep.passed


def test_check_facts_catches_mutated_transitions():
    terms = list(chain.TRANSITION_TERMS)
    victim = terms.index(next(t for t in terms
                              if t.rule == "2" and "A" in t.types))
    terms[victim] = chain.TransitionTerm("2", frozenset("A"),
                                         (GATE, INSI), (DEAD, GATE))
    rep = verify.check_facts(3, 2, transitions=tuple(terms))
    assert not rep.passed


def test_check_history_cnot_plus_witness():
    w = np.array([1.0, 1.0]) / np.sqrt(2)
    rep = verify.check_history(verify.cnot_circuit(), w)
    assert rep.passed, rep.to_text()


def test_census_suite_and_negative_control():
    assert verify.census_suite(3, 1, 2).passed
    rep = verify.census_suite(3, 1, 2,
                              drop_pen_family=(chain.DEAD, chain.BLANK, "B"))
    assert not rep.passed


def test_appendix_suite():
    rep = verify.appendix_suite(32)
    assert rep.passed, rep.to_text()


def test_horizon_suite_short_chains():
    rep = verify.horizon_suite(8)
    assert rep.passed, rep.to_text()
    # the recorded notes carry the forward-rule horizon census
    assert all("forward-rule horizon" in c.notes for c in rep.checks)


def test_soundness_probe_subspace_parts():
    rep = verify.soundness_probe(full_space=False, type3_samples=6)
    assert rep.passed, rep.to_text()
    claims = {c.claim: c for c in rep.checks}
    neg = next(c for c in rep.checks if "negative ground energy" in c.claim)
    assert neg.measured < 0
    out = next(c for c in rep.checks if "1/(K+1)" in c.claim)
    K = chain.step_count(2, 2)
    assert abs(out.measured - 1.0 / (K + 1)) < 1e-12


def test_report_serialization():
    rep = verify.census_suite()
    text = rep.to_text()
    assert "suite census" in text and "[pass]" in text
    doc = json.loads(rep.to_json())
    assert doc["passed"] is True
    assert len(doc["checks"]) == len(rep.checks)


def test_soundness_report_reproducible_across_processes():
    """The restricted soundness report is byte-identical between two
    fresh interpreters; the shift-invert solves must not start from
    ARPACK's own random vector."""
    src = str(Path(verify.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("from hamline import verify; "
            "print(verify.soundness_probe(full_space=False).to_json())")
    a, b = (subprocess.run([sys.executable, "-c", code], env=env,
                           capture_output=True, text=True, check=True,
                           timeout=600).stdout
            for _ in range(2))
    assert a == b


def test_reports_reproducible():
    # measured values and verdicts are identical across runs (runtimes
    # live only in the text rendering)
    a = verify.census_suite().to_json()
    b = verify.census_suite().to_json()
    assert a == b
    c = verify.check_facts(2, 2).to_json()
    d = verify.check_facts(2, 2).to_json()
    assert c == d

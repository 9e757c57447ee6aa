"""Executable verification suites.

Each suite returns a :class:`Report` whose checks carry the measured
value, the bound it was compared against, and a pass flag.  The suites
bind the automaton, the Hamiltonian families and the spectra into the
structural claims the construction rests on:

* ``check_facts``      -- uniqueness of forward/backward rules and of the
  identifying projectors on legal configurations; every mistimed
  exchange is locally detectable; the legal sequence equals the
  closed-form templates.
* ``check_history``    -- the history state's energy decomposition;
  ``history_suite`` runs it on the accepting reference circuit.
* ``soundness_probe``  -- exact full-space ground energies of the
  assembled Hamiltonian from its exchange-closed blocks, spectra on
  restricted subspaces, and the walk-matrix lower bounds for
  undetectable lines.
* ``appendix_suite``   -- closed-form walk spectra against dense
  diagonalization, eigenvector residuals, and the gap inequality.
* ``horizon_suite``    -- every locally undetectable configuration on
  short chains reaches a detectable one in finitely many forward steps.
* ``census_suite``     -- the allowed-pair table and the term counts
  per family against their closed forms, and the pair penalty on legal
  and dead-blank configurations.

Facts and census evaluate the built projector terms at symbol level
(:func:`hamiltonian._symbol_hits`), expanding no content space.  No
suite takes a rule table or a fault; a fault replaces a module attribute.

A note on signs: at the couplings from ``choose_couplings`` the
assembled Hamiltonian has a strictly negative ground energy, even for
accepting circuits.  The legal span alone is positive; the negativity
is second-order leakage from it into penalised configurations.  For
the n=2, R=2 rejecting circuit the exact full-space ground energy is
-2073.7345, the minimum of its type-1 block; it follows
E ~ E_legal - 2 j_prop^2 / j_pen and vanishes as j_pen grows.  The
full-space checks below record the negativity as measured.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import zip_longest

import numpy as np

from . import chain, hamiltonian as hm, spectra
from .chain import Configuration
from .circuit import (Gate2Q, LayeredCircuit, NAMED_GATES, identity_round,
                      output_zero_probability)

__all__ = [
    "Check", "Report", "accepting_circuit", "rejecting_circuit",
    "cnot_circuit", "check_facts", "check_history", "history_suite",
    "soundness_probe", "appendix_suite", "horizon_suite", "census_suite",
]


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass
class Check:
    claim: str
    passed: bool
    measured: object = None
    bound: object = None
    notes: str = ""


@dataclass
class Report:
    suite: str
    checks: list[Check] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """All checks passed; a report with no checks has shown nothing
        and does not pass."""
        return bool(self.checks) and all(c.passed for c in self.checks)

    def add(self, claim, passed, measured=None, bound=None, notes=""):
        self.checks.append(Check(claim, bool(passed), measured, bound, notes))

    def to_text(self) -> str:
        lines = [f"suite {self.suite}: "
                 f"{'PASS' if self.passed else 'FAIL'} "
                 f"({sum(c.passed for c in self.checks)}/{len(self.checks)})"]
        def plain(o):  # numpy scalars print as the numbers they hold
            return o.item() if isinstance(o, (np.floating, np.integer)) else o
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            extra = (f" measured={plain(c.measured)!r}"
                     if c.measured is not None else "")
            if c.bound is not None:
                extra += f" bound={plain(c.bound)!r}"
            if c.notes:
                extra += f" ({c.notes})"
            lines.append(f"  [{status}] {c.claim}{extra}")
        return "\n".join(lines)

    def to_json(self) -> str:
        """Machine-readable report.  It holds no timings, so equal runs
        produce byte-identical output."""
        def default(o):
            if isinstance(o, (np.floating, np.integer)):
                return o.item()
            if isinstance(o, np.ndarray):
                return o.tolist()
            return str(o)
        return json.dumps({
            "suite": self.suite,
            "passed": self.passed,
            "checks": [c.__dict__ for c in self.checks],
        }, default=default, sort_keys=True, indent=1)


# ---------------------------------------------------------------------------
# Reference circuits (n=2, m=1, R=2)
# ---------------------------------------------------------------------------

def _round2(u: np.ndarray) -> LayeredCircuit:
    return LayeredCircuit(2, 1, (identity_round(2), (Gate2Q(u, 1),)))


def accepting_circuit() -> LayeredCircuit:
    """Output qubit ends as NOT(ancilla) = |1> for every witness: swap the
    |0> ancilla into the output wire, then flip it."""
    x_right = np.kron(np.eye(2), np.array([[0, 1], [1, 0]]))
    return _round2(x_right @ NAMED_GATES["SWAP"])


def rejecting_circuit() -> LayeredCircuit:
    """Output qubit ends as the |0> ancilla for every witness."""
    return _round2(NAMED_GATES["SWAP"])


def cnot_circuit() -> LayeredCircuit:
    return _round2(NAMED_GATES["CNOT"])


# ---------------------------------------------------------------------------
# Facts suite
# ---------------------------------------------------------------------------

def check_facts(n: int, R: int) -> Report:
    """Uniqueness of forward/backward rules and identifying projectors,
    and detectability of every mistimed exchange, over the whole legal
    sequence, then the sequence against the closed-form templates, which
    alone do not read :data:`chain.RULES`.  Projector hits are the built
    terms' at symbol level.  Legal configurations have no local
    violation, so an exchange is detectable when
    :func:`chain._violation_near` finds one by it."""
    rep = Report(f"facts(n={n},R={R})")
    seq = chain.legal_sequence(n, R)
    K = len(seq) - 1
    proj = hm.projector_layout(n, R)
    fired, row = hm._symbol_hits(proj, seq)
    xy = np.array([t.piece == "xy" for t in proj])[fired]
    steps = np.arange(K + 1)
    bad_xy = int(np.sum(np.bincount(row[xy], minlength=K + 1) != (steps < K)))
    bad_zw = int(np.sum(np.bincount(row[~xy], minlength=K + 1) != (steps > 0)))
    bad_fwd = bad_bwd = bad_exch = 0
    for t_, c in enumerate(seq):
        nf = len(chain.forward_rules(c))
        nb = len(chain.backward_rules(c))
        if nf != (1 if t_ < K else 0):
            bad_fwd += 1
        if nb != (1 if t_ > 0 else 0):
            bad_bwd += 1
        fwd_legal = bwd_legal = 0
        for term, i, direction, out in chain.exchange_neighbours(c):
            if direction == "forward" and t_ < K and out == seq[t_ + 1]:
                fwd_legal += 1
                continue
            if direction == "backward" and t_ > 0 and out == seq[t_ - 1]:
                bwd_legal += 1
                continue
            if not chain._violation_near(out.sites, i, n, R):
                bad_exch += 1
        if t_ < K and fwd_legal != 1:
            bad_exch += 1
        if t_ > 0 and bwd_legal != 1:
            bad_exch += 1
    rep.add(f"forward rule unique on all {K + 1} legal configurations",
            bad_fwd == 0, measured=bad_fwd, bound=0)
    rep.add("backward rule unique", bad_bwd == 0, measured=bad_bwd, bound=0)
    rep.add("exactly one forward-identifying projector fires (t<K)",
            bad_xy == 0, measured=bad_xy, bound=0)
    rep.add("exactly one backward-identifying projector fires (t>0)",
            bad_zw == 0, measured=bad_zw, bound=0)
    rep.add("every mistimed exchange is locally detectable; the timed one "
            "gives the neighbouring legal configuration",
            bad_exch == 0, measured=bad_exch, bound=0)
    tpl = chain.template_sequence(n, R)
    step = next((t_ for t_, (a, b) in enumerate(zip_longest(seq, tpl))
                 if a != b), None)
    rep.add("the legal sequence equals the closed-form templates",
            step is None, measured=step, notes="measured: the first step "
                                               "where they differ")
    return rep


# ---------------------------------------------------------------------------
# History suite
# ---------------------------------------------------------------------------

def check_history(circ: LayeredCircuit, witness: np.ndarray) -> Report:
    """Energy decomposition of the history state at the derived couplings."""
    rep = Report(f"history(n={circ.n},R={circ.R})")
    K = chain.step_count(circ.n, circ.R)
    eta = spectra.history_state(circ, witness)
    pieces = hm.build_pieces(circ)
    e = {fam: spectra.expectation(terms, eta)
         for fam, terms in pieces.items()}
    p0 = output_zero_probability(circ, witness)
    rep.add("ancilla penalty vanishes on the history state",
            abs(e["in"]) <= 1e-12, measured=e["in"], bound=1e-12)
    rep.add("pair penalty vanishes on the history state",
            abs(e["pen"]) <= 1e-12, measured=e["pen"], bound=1e-12)
    rep.add("propagation energy vanishes on the history state",
            abs(e["prop"]) <= 1e-12, measured=e["prop"], bound=1e-12)
    rep.add("output energy equals p0/(K+1) from dense simulation",
            abs(e["out"] - p0 / (K + 1)) <= 1e-12,
            measured=e["out"], bound=p0 / (K + 1))
    couplings = hm.choose_couplings(circ.n, circ.R, circ)
    total = (couplings.j_in * e["in"] + couplings.j_prop * e["prop"]
             + couplings.j_pen * e["pen"] + e["out"])
    spec = hm.assemble(pieces, couplings, circ.n, circ.m, circ.R)
    parts = spectra.energy_parts(spec, eta)
    direct = math.fsum(parts)
    # each per-entry product carries a relative rounding error of order
    # eps, and the couplings reach 2^30 and beyond
    floor = np.finfo(float).eps * math.fsum(np.abs(parts))
    rep.add("weighted family energies sum to the assembled expectation",
            abs(total - direct) <= 1e-12, measured=direct, bound=total)
    rep.add("total history energy is at most p0/(K+1)",
            direct <= p0 / (K + 1) + floor, measured=direct,
            bound=p0 / (K + 1),
            notes=f"precision floor eps * sum|products| = {floor:.3g}")
    return rep


def history_suite() -> Report:
    """:func:`check_history` on the n=2, R=2 accepting circuit, with the
    witness |0>."""
    return check_history(accepting_circuit(), np.array([1.0, 0.0]))


# ---------------------------------------------------------------------------
# Soundness probe
# ---------------------------------------------------------------------------

def legal_fringe(n: int, R: int) -> list[Configuration]:
    """Legal configurations plus everything one exchange away."""
    seq = chain.legal_sequence(n, R)
    seen = dict.fromkeys(seq)
    for c in seq:
        for _, _, _, out in chain.exchange_neighbours(c):
            seen.setdefault(out)
    return list(seen)


def _witness_subspace_min(circ: LayeredCircuit, terms) -> float:
    """Smallest eigenvalue of a term family restricted to the span of
    history states over a witness basis (ancillas correctly |0>)."""
    mat, basis = spectra.restrict(terms, spectra.legal_basis(circ.n, circ.R))
    V = np.array([np.concatenate([spectra.history_state(circ, w)
                                  .amplitudes[c] for c, _, _ in basis])
                  for w in np.eye(1 << circ.m)]).T
    return float(np.linalg.eigvalsh(V.conj().T @ (mat @ V))[0])


def _pen_free_blocks(n: int, R: int) -> list[tuple]:
    """The exchange-closed configuration sets that hold a pen-free
    configuration, each once.  A set of more than
    :data:`spectra.BLOCK_DIM_LIMIT` content dimensions is a ValueError,
    raised before any solve."""
    blocks, seen = [], set()
    for c in chain.allowed_configurations(n, R):
        if c in seen:
            continue
        inv = chain.invariant_set(c, cap=spectra.BLOCK_DIM_LIMIT)
        dim = int(chain._Packed.of(inv.configs).offsets[-1])
        if inv.capped or dim > spectra.BLOCK_DIM_LIMIT:
            raise ValueError(f"the exchange-closed set of {c} exceeds "
                             f"{spectra.BLOCK_DIM_LIMIT} dimensions")
        blocks.append(inv.configs)
        seen.update(inv.configs)
    return blocks


def _block_floor(spec: hm.HamiltonianSpec) -> float:
    """c = j_pen - sum over hop terms of w ||T + T^dagger||_2: no
    eigenvalue of H lies below c outside the blocks of
    :func:`_pen_free_blocks`.

    Every term maps a configuration's content space into itself or, for
    a hop, into an exchange neighbour's, so H is block diagonal over the
    exchange-closed sets.  Take a set with no pen-free configuration.
    Each of its basis vectors lies in a configuration with a local
    violation, where a pen projector of weight j_pen reads 1; every diag
    term is a projector with a non-negative weight, so the diag part of
    the block is at least j_pen times the identity.  The hop part of the
    block is a compression of the hop part V of H, so its norm is at most
    ||V||, and ||V|| is at most the sum above.  So the least pen-free
    block minimum, when it lies below c, is lambda_min(H) exactly.
    """
    terms = [t for t in spec.terms if t.kind == "hop"]
    norms = hm._per_block(terms, lambda m: np.linalg.norm(m, 2))
    hops = math.fsum(t.weight * norm for t, norm in zip(terms, norms))
    return spec.couplings.j_pen - hops


def soundness_probe() -> Report:
    """Spectral probes of the assembled Hamiltonian of the n=2, R=2
    reference circuits, both at the accepting circuit's couplings.

    Each full-space ground energy is exact: the least minimum over the
    12 blocks of :func:`_pen_free_blocks` (of dimension 64 to 14,848),
    below the circuit's :func:`_block_floor`.  The type-1 block holds the
    initial configuration; on every other (type-3) block the pen+prop
    minimum meets the walk-matrix bound.  The legal span is positive, and
    mixing it with its one-exchange fringe certifies (variationally) that
    the assembled operator is *not* positive semidefinite.
    """
    accepting, rejecting = accepting_circuit(), rejecting_circuit()
    n, R = accepting.n, accepting.R
    K = chain.step_count(n, R)
    rep = Report(f"soundness(n={n},R={R})")
    couplings = hm.choose_couplings(n, R, accepting)

    # (a) exact full-space ground energies from the pen-free blocks
    specs = {name: hm.build_hamiltonian(circ, couplings=couplings)
             for name, circ in (("accepting", accepting),
                                ("rejecting", rejecting))}
    spec_rej = specs["rejecting"]
    # the type-1 block holds the legal span and its fringe, so the fringe
    # minimum neg lies above its minimum: both circuits' type-1 solves
    # start from 2 * neg - 1, a first guess that min_eigs still counts
    fr_mat, _ = spectra.restrict(spec_rej, legal_fringe(n, R))
    neg = float(spectra.min_eigs(fr_mat, k=1).values[0])
    blocks = _pen_free_blocks(n, R)
    start = chain.initial_configuration(n, R)
    t1 = next(i for i, b in enumerate(blocks) if start in b)
    ground, solves = {}, {}
    for name, spec in specs.items():
        floor = _block_floor(spec)
        solves[name] = [spectra.min_eigs(
            spectra.restrict(spec, b)[0], k=1,
            sigma=2 * neg - 1 if i == t1 else None)
            for i, b in enumerate(blocks)]
        low = min(solves[name], key=lambda r: r.values[0])
        ground[name] = float(low.values[0])
        rep.add(f"full-space ground energy ({name})",
                all(r.converged for r in solves[name])
                and ground[name] < floor,
                measured=ground[name], bound=floor,
                notes=f"least minimum over the {len(blocks)} exchange-"
                      f"closed blocks that hold a pen-free configuration; "
                      f"every other block lies above the bound; precision "
                      f"floor eps * ||block||_1 = {low.floor:.3g}")
    rep.add("accepting full-space ground energy is at most 1e-8",
            ground["accepting"] <= 1e-8, measured=ground["accepting"],
            bound=1e-8)

    # (b) legal-subspace diagonalizations (the rigorous positives)
    hout_min = _witness_subspace_min(rejecting,
                                     hm.build_pieces(rejecting)["out"])
    rep.add("rejecting circuit: output penalty on ancilla-correct history "
            "states has smallest eigenvalue 1/(K+1)",
            abs(hout_min - 1.0 / (K + 1)) <= 1e-12,
            measured=hout_min, bound=1.0 / (K + 1))
    legal_mat, _ = spectra.restrict(spec_rej, spectra.legal_basis(n, R))
    legal = spectra.min_eigs(legal_mat, k=1)
    legal_min = float(legal.values[0])
    rep.add("rejecting circuit: restriction to the legal span is positive",
            legal.converged and legal_min > legal.floor, measured=legal_min,
            notes=f"compare 1/(K+1) = {1.0 / (K + 1):.6g}; precision floor "
                  f"eps * ||block||_1 = {legal.floor:.3g}")

    # negativity certificate: legal span + one-exchange fringe
    rep.add("legal-plus-fringe restriction exhibits the negative ground "
            "energy (variational upper bound on the full spectrum)",
            neg < 0, measured=neg,
            notes="second-order leakage into penalised configurations; "
                  "compare -2*j_prop^2/j_pen = "
                  f"{-2.0 * couplings.j_prop ** 2 / couplings.j_pen:.6g}")

    # (c) the type-1 block, from the rejecting circuit's solves
    type1 = solves["rejecting"][t1]
    rep.add("type-1 invariant-set restriction diagonalized",
            type1.converged, measured=float(type1.values[0]),
            notes=f"set size {len(blocks[t1])}")

    # (d) every type-3 block: pen+prop against the walk-matrix bound
    pp_terms = [t for t in spec_rej.terms if t.family in ("pen", "prop")]
    others = blocks[:t1] + blocks[t1 + 1:]
    checked, converged, worst_margin = 0, True, np.inf
    for block in others:
        kprime = sum(chain.classify(d).tag == "undetectable"
                     for d in block) - 1
        if kprime < 1:
            continue
        res = spectra.min_eigs(spectra.restrict(pp_terms, block)[0], k=1)
        bound = couplings.j_prop * spectra.walk_eigs_analytic(
            1.0, 0.5, kprime)[0] / 2.0
        worst_margin = min(worst_margin, float(res.values[0] - bound))
        converged &= res.converged
        checked += 1
    rep.add(f"type-3 blocks ({checked} of {len(others)} with K' >= 1) meet "
            "the walk-matrix lower bound j_prop*(1-cos(pi/(2K'+3)))/2",
            checked > 0 and converged and worst_margin >= 0,
            measured=worst_margin, bound=0.0)
    return rep


# ---------------------------------------------------------------------------
# Census suite
# ---------------------------------------------------------------------------

def census_suite(n: int, R: int) -> Report:
    """Pair-table and term-count checks against their closed forms, for
    circuits with one witness qubit, and the built pen terms on legal
    and dead-blank configurations, at symbol level."""
    m = 1
    rep = Report(f"census(n={n},m={m},R={R})")
    rep.add("allowed (pair, location-type) combinations number 56",
            chain.allowed_pair_count() == 56,
            measured=chain.allowed_pair_count(), bound=56)
    rep.add("forbidden families number 124",
            len(chain.forbidden_families()) == 124,
            measured=len(chain.forbidden_families()), bound=124)
    circ = LayeredCircuit(n, m, tuple(identity_round(n) for _ in range(R)))
    pieces = hm.build_pieces(circ)
    actual = {fam: len(ts) for fam, ts in pieces.items()}
    expected = hm.expected_census(n, m, R)
    rep.add("term counts match the closed-form census",
            actual == expected, measured=actual, bound=expected)
    # pen is a sum of content-blind projectors with non-negative weights:
    # on a configuration it costs the weights of the terms that fire there
    pen = pieces["pen"]
    hit, _ = hm._symbol_hits(pen, chain.legal_sequence(n, R))
    worst = max((pen[j].weight for j in hit), default=0.0)
    rep.add("pair penalty vanishes on every legal configuration",
            worst <= 1e-12, measured=worst, bound=1e-12)
    bad = chain.Configuration(n, R, bytes(
        [chain.DEAD, chain.BLANK] + [chain.BLANK] * (2 * n * R - 2)))
    e = math.fsum(pen[j].weight for j in hm._symbol_hits(pen, [bad])[0])
    rep.add("a dead-blank pair costs at least one unit of pair penalty",
            e >= 1.0, measured=e, bound=1.0)
    return rep


# ---------------------------------------------------------------------------
# Walk-matrix suite
# ---------------------------------------------------------------------------

def appendix_suite(Lmax: int) -> Report:
    """Closed-form walk spectra and eigenvectors against dense solvers."""
    rep = Report(f"appendix(Lmax={Lmax})")
    cases = ((0.5, 0.5), (1.0, 1.0), (1.0, 0.5))
    worst = 0.0
    worst_vec = 0.0
    for f, g in cases:
        for L in range(1, Lmax + 1):
            m = spectra.walk_matrix(f, g, L).dense()
            numeric = np.linalg.eigvalsh(m)
            analytic = np.sort(spectra.walk_eigs_analytic(f, g, L))
            worst = max(worst, float(np.max(np.abs(numeric - analytic))))
            for k in range(L + 1):
                v = spectra.walk_eigvector_analytic(f, g, L, k)
                v = v / np.linalg.norm(v)
                lam = spectra.walk_eigs_analytic(f, g, L)[k]
                worst_vec = max(worst_vec, float(
                    np.linalg.norm(m @ v - lam * v)))
    rep.add(f"analytic vs numeric eigenvalues, all three cases, L<=" \
            f"{Lmax}", worst <= 1e-10, measured=worst, bound=1e-10)
    rep.add("analytic eigenvectors satisfy the eigenequation",
            worst_vec <= 1e-10, measured=worst_vec, bound=1e-10)
    # 1-cos(x) = 2 sin^2(x/2) avoids the cancellation that would
    # otherwise swamp the tiny margin at large L
    Ls = np.arange(1, 10_001, dtype=np.longdouble)
    lhs = 2.0 * np.sin(np.pi / (2 * (Ls + 1))) ** 2
    rhs = (1.0 / (Ls + 1)) ** 2 * (np.pi ** 2 / 2
                                   - np.pi ** 4 / (24 * (Ls + 1) ** 2))
    ok = bool(np.all(lhs > rhs))
    rep.add("gap inequality 1-cos(pi/(L+1)) > (pi^2/2 - pi^4/(24(L+1)^2))"
            "/(L+1)^2 for L <= 1e4", ok, measured=float(np.min(lhs - rhs)),
            bound=0.0)
    # denominator of the (1,1) eigenvalue formula: L+2, not L+1
    L = 8
    m = spectra.walk_matrix(1.0, 1.0, L).dense()
    numeric = np.linalg.eigvalsh(m)
    ms = np.arange(L + 1)
    with_lp2 = float(np.max(np.abs(
        numeric - np.sort(1 - np.cos((ms + 1) * np.pi / (L + 2))))))
    with_lp1 = float(np.max(np.abs(
        numeric - np.sort(1 - np.cos((ms + 1) * np.pi / (L + 1))))))
    rep.add("(1,1) eigenvalue denominator resolves to L+2",
            with_lp2 <= 1e-12 < with_lp1, measured=(with_lp2, with_lp1))
    # the matching eigenvectors are the sine family; the cosine ansatz
    # with the same arguments violates the boundary rows
    j = np.arange(L + 1)
    lam0 = 1 - np.cos(np.pi / (L + 2))
    v_sin = np.sin(np.pi * (j + 1) / (L + 2))
    v_cos = np.cos(np.pi * (j + 1) / (L + 2))
    r_sin = float(np.linalg.norm(m @ v_sin - lam0 * v_sin)
                  / np.linalg.norm(v_sin))
    r_cos = float(np.linalg.norm(m @ v_cos - lam0 * v_cos)
                  / np.linalg.norm(v_cos))
    rep.add("(1,1) eigenvectors resolve to the sine family",
            r_sin <= 1e-12 < r_cos, measured=(r_sin, r_cos))
    second = spectra.walk_eigs_analytic(0.5, 0.5, 200)[1]
    rep.add("second-smallest (1/2,1/2) eigenvalue exceeds 1/(2(K+1)^2) "
            "at K=200", second >= 1 / (2 * 201.0 ** 2), measured=second,
            bound=1 / (2 * 201.0 ** 2))
    return rep


# ---------------------------------------------------------------------------
# Horizon suite
# ---------------------------------------------------------------------------

def _chain_shapes(max_len: int):
    for n in range(2, max_len // 2 + 1):
        for R in range(1, max_len // (2 * n) + 1):
            yield n, R


def horizon_suite(max_len: int) -> Report:
    """Detectability horizons of every locally undetectable configuration
    on chains of at most max_len sites.

    Two horizons are measured: the forward rewrite-rule horizon (which
    is infinite for end-of-computation analogues whose qubits have run
    out of blanks: forward evolution halts undetected there), and the
    exchange horizon, which must be finite for every configuration --
    an exchange-closed set without any local penalty would defeat the
    soundness mechanism.  Both maxima are recorded against (2nR)^3.
    """
    rep = Report(f"horizon(max_len={max_len})")
    for n, R in _chain_shapes(max_len):
        total = 0
        worst_fwd = 0
        worst_ex = 0
        fwd_stuck = 0
        ex_unreachable = 0
        for c in chain.undetectable_configurations(n, R):
            total += 1
            h = chain.detect_horizon(c)
            if h is None:
                fwd_stuck += 1
            else:
                worst_fwd = max(worst_fwd, h)
            e = chain.exchange_horizon(c)
            if e is None:
                ex_unreachable += 1
            else:
                worst_ex = max(worst_ex, e)
        L = 2 * n * R
        rep.add(f"(n={n},R={R}): every undetectable configuration's "
                "exchange line touches a detectable one",
                ex_unreachable == 0 and worst_ex <= L ** 3,
                measured=worst_ex, bound=L ** 3,
                notes=f"{total} configurations; forward-rule horizon max "
                      f"{worst_fwd} ({fwd_stuck} halt undetected); "
                      f"c0 = {worst_ex / L ** 3:.4f}")
    return rep

"""Executable verification suites.

Each suite returns a :class:`Report` whose checks carry the measured
value, the bound it was compared against, and a pass flag.  The suites
bind the automaton, the Hamiltonian families and the spectra into the
structural claims the construction rests on:

* ``check_facts``      -- uniqueness of forward/backward rules and of the
  identifying projectors on legal configurations; every mistimed
  exchange is locally detectable.
* ``check_history``    -- the history state's energy decomposition.
* ``soundness_probe``  -- spectra of the assembled Hamiltonian on the
  full space and on restricted subspaces, including the walk-matrix
  lower bounds for undetectable lines.
* ``appendix_suite``   -- closed-form walk spectra against dense
  diagonalization, eigenvector residuals, and the gap inequality.
* ``horizon_suite``    -- every locally undetectable configuration on
  short chains reaches a detectable one in finitely many forward steps.

A note on signs: at the couplings from ``choose_couplings`` the
assembled Hamiltonian has a strictly negative ground energy, even for
accepting circuits.  The legal span alone is positive; the negativity
is second-order leakage from it into penalised configurations.  On the
type-1 block of the n=2, R=2 rejecting circuit the minimum follows
E ~ E_legal - 2 j_prop^2 / j_pen and vanishes as j_pen grows.  The
meaningful spectra live on restricted subspaces; the full-space checks
below record the negativity as measured.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import chain, hamiltonian as hm, spectra
from .chain import Configuration
from .circuit import (Gate2Q, LayeredCircuit, NAMED_GATES, identity_round,
                      output_zero_probability)

__all__ = [
    "Check", "Report", "accepting_circuit", "rejecting_circuit",
    "cnot_circuit", "check_facts", "check_history", "soundness_probe",
    "appendix_suite", "horizon_suite", "census_suite",
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
        return all(c.passed for c in self.checks)

    def add(self, claim, passed, measured=None, bound=None, notes=""):
        self.checks.append(Check(claim, bool(passed), measured, bound, notes))

    def to_text(self) -> str:
        lines = [f"suite {self.suite}: "
                 f"{'PASS' if self.passed else 'FAIL'} "
                 f"({sum(c.passed for c in self.checks)}/{len(self.checks)})"]
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            extra = f" measured={c.measured!r}" if c.measured is not None else ""
            if c.bound is not None:
                extra += f" bound={c.bound!r}"
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

def _projector_hits(by_sites, c: Configuration) -> tuple[int, int]:
    """How many forward (xy) / backward (zw) identifying projectors fire;
    ``by_sites`` maps each projector's sites to {symbols: pieces}."""
    fired = [piece for sites, pieces in by_sites.items()
             for piece in pieces.get(tuple(c.sites[s - 1] for s in sites), ())]
    return fired.count("xy"), fired.count("zw")


def check_facts(n: int, R: int, rules=chain.RULES,
                transitions=chain.TRANSITION_TERMS) -> Report:
    """Uniqueness of forward/backward rules and identifying projectors,
    and detectability of every mistimed exchange, over the whole legal
    sequence."""
    rep = Report(f"facts(n={n},R={R})")
    seq = chain.legal_sequence(n, R, rules)
    K = len(seq) - 1
    by_sites: dict[tuple, dict[tuple, list[str]]] = {}
    for _, piece, sites, syms, _ in hm.projector_layout(n, R):
        by_sites.setdefault(sites, {}).setdefault(syms, []).append(piece)
    bad_fwd = bad_bwd = bad_xy = bad_zw = bad_exch = 0
    for t_, c in enumerate(seq):
        nf = len(chain.forward_rules(c, rules))
        nb = len(chain.backward_rules(c, rules))
        if nf != (1 if t_ < K else 0):
            bad_fwd += 1
        if nb != (1 if t_ > 0 else 0):
            bad_bwd += 1
        xy, zw = _projector_hits(by_sites, c)
        if xy != (1 if t_ < K else 0):
            bad_xy += 1
        if zw != (1 if t_ > 0 else 0):
            bad_zw += 1
        fwd_legal = bwd_legal = 0
        for term, i, direction, out in chain.exchange_neighbours(
                c, transitions):
            if direction == "forward" and t_ < K and out == seq[t_ + 1]:
                fwd_legal += 1
                continue
            if direction == "backward" and t_ > 0 and out == seq[t_ - 1]:
                bwd_legal += 1
                continue
            if chain.classify(out).tag != "detectable":
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
    return rep


# ---------------------------------------------------------------------------
# History suite
# ---------------------------------------------------------------------------

def check_history(circ: LayeredCircuit, witness: np.ndarray,
                  couplings: hm.Couplings | None = None) -> Report:
    """Energy decomposition of the history state."""
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
    if couplings is None:
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
    n, R = circ.n, circ.R
    basis_cfgs = spectra.legal_basis(n, R)
    mat, basis = spectra.restrict(terms, basis_cfgs)
    offsets = {c: off for c, off, _ in basis}
    dim = mat.shape[0]
    cols = []
    for w in range(1 << circ.m):
        witness = np.zeros(1 << circ.m)
        witness[w] = 1.0
        eta = spectra.history_state(circ, witness)
        vec = np.zeros(dim, dtype=complex)
        for c, v in eta.amplitudes.items():
            off = offsets[c]
            vec[off:off + len(v)] = v
        cols.append(vec)
    V = np.array(cols).T
    M = V.conj().T @ (mat @ V)
    return float(np.linalg.eigvalsh(M)[0])


def soundness_probe(accepting: LayeredCircuit | None = None,
                    rejecting: LayeredCircuit | None = None,
                    full_space: bool = True,
                    type3_samples: int = 12,
                    invariant_cap: int = 200_000,
                    seed: int = 0) -> Report:
    """Spectral probes of the assembled Hamiltonian (defaults: the n=2,
    R=2 reference circuits).

    Full-space Lanczos estimates are upper bounds on the true ground
    energy: each is the lowest Ritz value after three thick restarts
    (6 + 3*5 operator applications on 8^8 amplitudes), not converged,
    and the Rayleigh quotient of its Ritz vector.  The accepting run
    starts from the history state (Rayleigh quotient 0) and reaches
    -2060.84, the criterion-8 leakage seen from the full space.  The
    restricted-subspace diagonalizations are the rigorous part.  The
    probe also certifies (variationally) that the assembled operator is
    *not* positive semidefinite: mixing the legal span with its
    one-exchange fringe produces a strictly negative Rayleigh quotient.
    """
    accepting = accepting or accepting_circuit()
    rejecting = rejecting or rejecting_circuit()
    n, R = accepting.n, accepting.R
    K = chain.step_count(n, R)
    rep = Report(f"soundness(n={n},R={R})")
    couplings = hm.choose_couplings(n, R, accepting)

    # (a) full-space Lanczos estimates
    est = {}
    if full_space and 2 * n * R <= spectra.FULL_SPACE_SITE_LIMIT:
        for name, circ in (("accepting", accepting), ("rejecting", rejecting)):
            spec = hm.build_hamiltonian(circ, couplings=couplings)
            op = spectra.FullOperator.from_spec(spec)
            v0 = None
            if name == "accepting":
                v0 = spectra.history_state(
                    circ, np.eye(1 << circ.m)[0]).to_full()
            res = spectra.min_eigs(op, k=1, seed=seed, v0=v0,
                                   maxiter=3, tol=1e-10)
            est[name] = float(res.values[0])
            rep.add(f"full-space Lanczos estimate recorded ({name})",
                    True, measured=est[name],
                    notes=f"residual {res.residuals[0]:.3g}, lowest Ritz "
                          f"value after {res.iterations} restarts: an upper "
                          f"bound on the ground energy")
        rep.add("accepting full-space estimate is at most 1e-8",
                est["accepting"] <= 1e-8, measured=est["accepting"],
                bound=1e-8)

    # (b) legal-subspace diagonalizations (the rigorous positives)
    pieces_rej = hm.build_pieces(rejecting)
    hout_min = _witness_subspace_min(rejecting, pieces_rej["out"])
    rep.add("rejecting circuit: output penalty on ancilla-correct history "
            "states has smallest eigenvalue 1/(K+1)",
            abs(hout_min - 1.0 / (K + 1)) <= 1e-12,
            measured=hout_min, bound=1.0 / (K + 1))
    spec_rej = hm.build_hamiltonian(rejecting, couplings=couplings)
    legal_mat, _ = spectra.restrict(spec_rej, spectra.legal_basis(n, R))
    legal = spectra.min_eigs(legal_mat, k=1)
    legal_min = float(legal.values[0])
    rep.add("rejecting circuit: restriction to the legal span is positive",
            legal.converged and legal_min > legal.floor, measured=legal_min,
            notes=f"compare 1/(K+1) = {1.0 / (K + 1):.6g}; precision floor "
                  f"eps * ||block||_1 = {legal.floor:.3g}")

    # negativity certificate: legal span + one-exchange fringe
    fringe = legal_fringe(n, R)
    fr_mat, _ = spectra.restrict(spec_rej, fringe)
    neg = float(spectra.min_eigs(fr_mat, k=1).values[0])
    rep.add("legal-plus-fringe restriction exhibits the negative ground "
            "energy (variational upper bound on the full spectrum)",
            neg < 0, measured=neg,
            notes="second-order leakage into penalised configurations; "
                  "compare -2*j_prop^2/j_pen = "
                  f"{-2.0 * couplings.j_prop ** 2 / couplings.j_pen:.6g}")

    # (c) type-1 invariant set; shift-invert near the fringe value, which
    # is an accurate variational proxy for the bottom of this block
    inv = chain.invariant_set(chain.initial_configuration(n, R),
                              cap=invariant_cap)
    type1_min = None
    if not inv.capped and len(inv) * (1 << n) <= 60_000:
        mat, _ = spectra.restrict(spec_rej, inv.configs,
                                  max_dim=len(inv) * (1 << n))
        type1_min = float(spectra.min_eigs(
            mat, k=1, sigma=2.0 * neg - 1.0).values[0])
    rep.add("type-1 invariant-set restriction diagonalized",
            type1_min is not None, measured=type1_min,
            notes=f"set size {len(inv)}, capped={inv.capped}")
    if type1_min is not None and est.get("rejecting") is not None:
        rep.add("full-space estimate consistent with the subspace value",
                est["rejecting"] >= type1_min - 1e-6,
                measured=est["rejecting"], bound=type1_min)

    # (d) type-3 samples: pen+prop on undetectable lines
    samples = []
    for c in chain.undetectable_configurations(n, R):
        samples.append(c)
    rng = np.random.default_rng(seed)
    if len(samples) > type3_samples:
        idx = rng.choice(len(samples), size=type3_samples, replace=False)
        samples = [samples[i] for i in sorted(idx)]
    checked = 0
    worst_margin = np.inf
    for c in samples:
        inv3 = chain.invariant_set(c, cap=20_000)
        if inv3.capped:
            continue
        undet = [d for d in inv3.configs
                 if chain.classify(d).tag == "undetectable"]
        kprime = len(undet) - 1
        if kprime < 1:
            continue
        pp_terms = [t3 for t3 in spec_rej.terms
                    if t3.family in ("pen", "prop")]
        dim = sum(1 << d.holder_count() for d in inv3.configs)
        if dim > 60_000:
            continue
        mat, _ = spectra.restrict(pp_terms, inv3.configs, max_dim=dim)
        lam = float(spectra.min_eigs(mat, k=1).values[0])
        bound = couplings.j_prop * spectra.walk_eigs_analytic(
            1.0, 0.5, kprime)[0] / 2.0
        worst_margin = min(worst_margin, lam - bound)
        checked += 1
    rep.add(f"type-3 samples ({checked}) meet the walk-matrix lower bound "
            "j_prop*(1-cos(pi/(2K'+3)))/2",
            checked > 0 and worst_margin >= 0,
            measured=worst_margin, bound=0.0)
    return rep


# ---------------------------------------------------------------------------
# Census suite
# ---------------------------------------------------------------------------

def census_suite(n: int = 2, m: int = 1, R: int = 2,
                 drop_pen_family=None) -> Report:
    """Pair-table and term-count checks against their closed forms."""
    rep = Report(f"census(n={n},m={m},R={R})")
    rep.add("allowed (pair, location-type) combinations number 56",
            chain.allowed_pair_count() == 56,
            measured=chain.allowed_pair_count(), bound=56)
    rep.add("forbidden families number 124",
            len(chain.forbidden_families()) == 124,
            measured=len(chain.forbidden_families()), bound=124)
    circ = LayeredCircuit(n, m, tuple(identity_round(n) for _ in range(R)))
    pieces = hm.build_pieces(circ, drop_pen_family=drop_pen_family)
    actual = {fam: len(ts) for fam, ts in pieces.items()}
    expected = hm.expected_census(n, m, R)
    rep.add("term counts match the closed-form census",
            actual == expected, measured=actual, bound=expected)
    seq = chain.legal_sequence(n, R)
    worst = 0.0
    for c in seq:
        e = spectra.expectation(pieces["pen"], spectra.RestrictedState(
            n, R, {c: np.ones(1 << c.holder_count(), dtype=complex)
                   / np.sqrt(1 << c.holder_count())}))
        worst = max(worst, abs(e))
    rep.add("pair penalty vanishes on every legal configuration",
            worst <= 1e-12, measured=worst, bound=1e-12)
    bad = chain.Configuration(n, R, bytes(
        [chain.DEAD, chain.BLANK] + [chain.BLANK] * (2 * n * R - 2)))
    e = spectra.expectation(pieces["pen"], spectra.RestrictedState(
        n, R, {bad: np.ones(1, dtype=complex)}))
    rep.add("a dead-blank pair costs at least one unit of pair penalty",
            e >= 1.0, measured=e, bound=1.0)
    return rep


# ---------------------------------------------------------------------------
# Walk-matrix suite
# ---------------------------------------------------------------------------

def appendix_suite(Lmax: int = 64) -> Report:
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


def horizon_suite(max_len: int = 12) -> Report:
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

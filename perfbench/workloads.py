"""The two workloads: seeded inputs, timed operations, references.

Each workload is a function ``(p, inputs)`` that calls
``p.op(name, fn, check)`` once per operation.  ``fn`` runs inside the
timed region and calls the package only through public functions of
``chain``, ``circuit``, ``hamiltonian``, ``spectra`` and ``verify``.
``check`` runs outside the timed region and compares the result with a
reference from another route: a dense ``numpy.linalg.eigvalsh`` of the
same matrix where that is affordable, a Sylvester-inertia count (signs of
the pivots of a sparse LDL^H factorisation) where it is not, a value in
``references.json``, or a closed form.  It returns ``None`` when the
result matches and a one-line reason when it does not.  ``shape``
returns the result's structure (counts and dimensions), which must not
depend on the seed.

Inputs come from the seed: Haar-random 2-qubit gates for every round
after the first, written as JSON text and read back through
``circuit.parse_circuit``.  The seed changes gate values (and the
history-state witness and the Lanczos start vector) only.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from hamline import chain, circuit, hamiltonian as hm, spectra, verify

REF = json.loads((Path(__file__).parent / "references.json").read_text())

SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
                dtype=complex)
X_RIGHT = np.kron(np.eye(2), np.array([[0, 1], [1, 0]]))
DENSE_REF_MAX_DIM = 2000       # above this, references use inertia counts
REL_TOL = 1e-5                 # eigenvalue agreement with a reference


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

@dataclass
class CircuitInput:
    """A circuit as JSON text plus the gate matrices it was written from."""

    n: int
    R: int
    text: str
    matrices: list[list[np.ndarray]]


@dataclass
class Inputs:
    seed: int
    circuits: dict[str, CircuitInput] = field(default_factory=dict)
    witness: np.ndarray | None = None


def haar_gate(rng: np.random.Generator) -> np.ndarray:
    """Haar-random 4x4 unitary (QR of a complex Ginibre matrix)."""
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _matrix_json(m: np.ndarray) -> dict:
    return {"matrix": [[[v.real, v.imag] for v in row] for row in m]}


def circuit_input(n: int, R: int, later_gate, kind: str | None = None
                  ) -> CircuitInput:
    """Round 1 all identity; every later gate is ``later_gate()``, written
    by name when ``kind`` is given and as a matrix otherwise."""
    matrices = [[np.eye(4, dtype=complex)] * (n - 1)]
    matrices += [[later_gate() for _ in range(n - 1)] for _ in range(R - 1)]
    rounds = [[{"kind": "I"}] * (n - 1)]
    rounds += [[{"kind": kind} if kind else _matrix_json(m) for m in rnd]
               for rnd in matrices[1:]]
    text = json.dumps({"n": n, "m": 1, "rounds": rounds})
    return CircuitInput(n, R, text, matrices)


def random_circuit(seed: int, n: int, R: int) -> CircuitInput:
    rng = np.random.default_rng([seed, n, R])
    return circuit_input(n, R, lambda: haar_gate(rng))


def fixed_circuit(n: int, R: int, gate: np.ndarray,
                  kind: str | None = None) -> CircuitInput:
    return circuit_input(n, R, lambda: gate, kind)


SUBSPACE_SHAPES = ((2, 2), (3, 2), (3, 3), (4, 2))
TYPE3_LINES = 4                # of the twelve soundness_probe samples
COMPILE_SHAPES = ((3, 3), (4, 4))
AUTOMATON_GRID = tuple((n, R) for n in range(2, 13) for R in range(1, 7)
                       if 2 * n * R <= 24)
HORIZON_SHAPES = tuple((n, R) for n, R in AUTOMATON_GRID if 2 * n * R <= 14)
PROBE_MAXITER = 1              # ARPACK restarts of the full-space probe


def make_inputs(workload: str, seed: int) -> Inputs:
    inp = Inputs(seed)
    c = inp.circuits
    if workload == "subspace":
        c["rejecting"] = fixed_circuit(2, 2, SWAP, "SWAP")
        for n, R in SUBSPACE_SHAPES:
            c[f"random {n},{R}"] = random_circuit(seed, n, R)
            c[f"identity {n},{R}"] = fixed_circuit(n, R, np.eye(4), "I")
    elif workload == "compile":
        for n, R in COMPILE_SHAPES:
            c[f"random {n},{R}"] = random_circuit(seed, n, R)
        c["full accepting"] = fixed_circuit(2, 2, X_RIGHT @ SWAP)
        c["full rejecting"] = fixed_circuit(2, 2, SWAP, "SWAP")
        rng = np.random.default_rng([seed, 0])
        w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        inp.witness = w / np.linalg.norm(w)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return inp


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------

def eigs_below(mat, x: float) -> int:
    """How many eigenvalues of the Hermitian ``mat`` lie below ``x``:
    Sylvester's law of inertia applied to the diagonal pivots of a sparse
    LDL^H factorisation of mat - x I (symmetric ordering, no off-diagonal
    pivoting)."""
    a = (sp.csc_matrix(mat) - x * sp.identity(mat.shape[0], format="csc"))
    lu = spla.splu(a.tocsc(), permc_spec="MMD_AT_PLUS_A",
                   diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise ArithmeticError("factorisation pivoted off the diagonal")
    return int(np.sum(lu.U.diagonal().real < 0))


def check_smallest(mat, value: float, recorded: float | None = None
                   ) -> str | None:
    """Is ``value`` the smallest eigenvalue of ``mat``?  Compared with the
    recorded value if there is one, else with dense eigvalsh up to
    DENSE_REF_MAX_DIM, else by inertia counts either side of it.  The
    tolerance is REL_TOL relative, but never below 64 eps times the
    matrix's 1-norm (the precision any solver can promise)."""
    dim = mat.shape[0]
    norm1 = float(abs(sp.csr_matrix(mat)).sum(axis=0).max())
    delta = max(REL_TOL * max(1.0, abs(value)),
                64 * np.finfo(float).eps * norm1)
    if recorded is not None:
        ref = recorded
        how = "recorded"
    elif dim <= DENSE_REF_MAX_DIM:
        dense = mat.toarray() if sp.issparse(mat) else mat
        ref = float(np.linalg.eigvalsh(dense)[0])
        how = "dense eigvalsh"
    else:
        below = eigs_below(mat, value - delta)
        if below:
            return (f"{below} eigenvalues lie below {value:.6g} - {delta:.2g} "
                    f"(inertia count, dim {dim})")
        if eigs_below(mat, value + delta) == 0:
            return f"no eigenvalue within {delta:.2g} of {value:.6g}"
        return None
    if abs(value - ref) > delta:
        return f"smallest eigenvalue {value:.8g}, {how} reference {ref:.8g}"
    return None


def legal_count(n: int, R: int) -> int:
    """K+1 from the closed form (R-1)(3n^2+2n-1)+2n."""
    return (R - 1) * (3 * n * n + 2 * n - 1) + 2 * n


def fail_unless(ok: bool, reason: str) -> str | None:
    return None if ok else reason


def parsed_matches(circ, ci: CircuitInput, key: str) -> str | None:
    """Gates read back equal the written ones; the accepting and rejecting
    circuits also equal verify's reference circuits."""
    written = [ci.matrices]
    name = key.removeprefix("full ")
    if name in ("accepting", "rejecting"):
        ref = getattr(verify, f"{name}_circuit")()
        written.append([[g.matrix for g in rnd] for rnd in ref.rounds])
    worst = max(float(np.max(np.abs(circ.gate(r + 1, g + 1).matrix - m)))
                for mats in written for r, rnd in enumerate(mats)
                for g, m in enumerate(rnd))
    return fail_unless(circ.n == ci.n and circ.R == ci.R and worst == 0.0,
                       f"parsed gates differ from the reference by {worst:.3g}")


def census_matches(spec) -> str | None:
    want = hm.expected_census(spec.n, spec.m, spec.R)
    got = hm.census(spec)
    return fail_unless(got == want, f"term census {got}, closed form {want}")


def dense_output_zero_probability(ci: CircuitInput, witness) -> float:
    """p0 by Kronecker products of the written gate matrices.  Qubit k is
    bit k-1 of the state index, and a gate's row index is 2*q_a + q_{a+1},
    so in Kronecker order (most significant first) it is conjugated by
    SWAP."""
    n = ci.n
    state = np.zeros(1 << n, dtype=complex)
    state[np.arange(len(witness)) << (n - 1)] = witness
    for rnd in ci.matrices:
        for a, m in enumerate(rnd, start=1):
            full = np.kron(np.kron(np.eye(1 << (n - a - 1)), SWAP @ m @ SWAP),
                           np.eye(1 << (a - 1)))
            state = full @ state
    return float(np.sum(np.abs(state[: 1 << (n - 1)]) ** 2))


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _parse_all(p, inputs: Inputs) -> dict:
    return {key: p.op(f"parse_circuit {key}",
                      lambda ci=ci: circuit.parse_circuit(ci.text),
                      lambda c, ci=ci, key=key: parsed_matches(c, ci, key),
                      lambda c: {"n": c.n, "R": c.R})
            for key, ci in inputs.circuits.items()}


def _restricted_shape(res):
    mat, basis = res
    return {"configs": len(basis), "dim": mat.shape[0], "nnz": int(mat.nnz)}


def _basis_is(configs):
    """The restriction covers exactly ``configs()`` (recomputed outside the
    timed region) with their full content spaces."""
    def check(res):
        want = configs()
        got = [c for c, _, _ in res[1]]
        return fail_unless(set(got) == set(want) and len(got) == len(want)
                           and res[0].shape[0] == _content_dim(want),
                           f"basis of {len(got)} configurations, dimension "
                           f"{res[0].shape[0]}")
    return check


def _dim_is(expected: int):
    return lambda res: fail_unless(res[0].shape[0] == expected,
                                   f"dimension {res[0].shape[0]}, "
                                   f"expected {expected}")


def _content_dim(configs) -> int:
    return sum(1 << c.holder_count() for c in configs)


def subspace(p, inputs: Inputs):
    """Restricted spectra: type-1 block, legal+fringe, legal span, type-3."""
    circs = _parse_all(p, inputs)
    specs = {}
    for key, circ in circs.items():
        specs[key] = p.op(f"build_hamiltonian {key}",
                          lambda circ=circ: hm.build_hamiltonian(circ),
                          census_matches, lambda s: {"terms": len(s.terms)})

    inv = p.op("invariant_set type-1 2,2",
               lambda: chain.invariant_set(chain.initial_configuration(2, 2)),
               lambda s: fail_unless(
                   len(s) == REF["invariant_set_size"]["2,2"]
                   and not s.capped, f"{len(s)} configurations"),
               lambda s: {"configs": len(s)})

    # type-1 block, shifted below the fringe minimum as soundness_probe does
    for key in ("rejecting", "random 2,2"):
        fr = p.op(f"restrict fringe {key}",
                  lambda key=key: spectra.restrict(
                      specs[key], verify.legal_fringe(2, 2)),
                  _basis_is(lambda: verify.legal_fringe(2, 2)),
                  _restricted_shape)
        neg = p.op(f"min_eigs fringe {key}",
                   lambda fr=fr: spectra.min_eigs(fr[0], k=1),
                   lambda r, fr=fr: check_smallest(fr[0], r.values[0]))
        blk = p.op(f"restrict type-1 {key}",
                   lambda key=key: spectra.restrict(
                       specs[key], inv.configs, max_dim=len(inv) * 4),
                   _dim_is(12_800), _restricted_shape)
        recorded = REF["type1_min_rejecting"] if key == "rejecting" else None
        p.op(f"min_eigs type-1 {key}",
             lambda blk=blk, neg=neg: spectra.min_eigs(
                 blk[0], k=1, sigma=2.0 * float(neg.values[0]) - 1.0),
             lambda r, blk=blk, recorded=recorded: check_smallest(
                 blk[0], r.values[0], recorded))

    # legal + one-exchange fringe of identity circuits; their spectra reach
    # far below zero, so the shift is walked down to the bottom
    for n, R in SUBSPACE_SHAPES:
        key = f"identity {n},{R}"
        fr = p.op(f"restrict fringe {key}",
                  lambda key=key, n=n, R=R: spectra.restrict(
                      specs[key], verify.legal_fringe(n, R)),
                  _basis_is(lambda n=n, R=R: verify.legal_fringe(n, R)),
                  _restricted_shape)
        recorded = REF["fringe_min_identity"].get(f"{n},{R}")
        p.op(f"min_eigs fringe {key}",
             lambda fr=fr: min_eigs_shifted_down(fr[0]),
             lambda r, fr=fr, recorded=recorded: check_smallest(
                 fr[0], r.values[0], recorded))

    # legal-span diagonalisations of the seeded circuits
    for n, R in SUBSPACE_SHAPES:
        key = f"random {n},{R}"
        lg = p.op(f"restrict legal {key}",
                  lambda key=key, n=n, R=R: spectra.restrict(
                      specs[key], spectra.legal_basis(n, R)),
                  _dim_is(legal_count(n, R) << n), _restricted_shape)
        p.op(f"min_eigs legal {key}",
             lambda lg=lg: spectra.min_eigs(lg[0], k=1),
             lambda r, lg=lg: check_smallest(lg[0], r.values[0]))

    # type-3 invariant lines of pen+prop against the walk bound; the twelve
    # lines are the ones soundness_probe samples with seed 0
    spec = specs["random 2,2"]
    count = REF["undetectable"]["2,2"][0]
    undet = p.op("undetectable_configurations 2,2",
                 lambda: list(chain.undetectable_configurations(2, 2)),
                 lambda u: fail_unless(len(u) == count,
                                       f"{len(u)} undetectable configurations"),
                 lambda u: {"count": len(u)})
    picks = np.random.default_rng(0).choice(count, size=12, replace=False)
    for k, i in enumerate(sorted(picks)[:TYPE3_LINES]):
        line = p.op(f"invariant_set type-3 line {k}",
                    lambda i=i: chain.invariant_set(undet[i], cap=20_000),
                    lambda s: fail_unless(not s.capped, "capped"),
                    lambda s: {"configs": len(s)})
        mat = p.op(f"restrict type-3 line {k}",
                   lambda line=line: spectra.restrict(
                       [t for t in spec.terms if t.family in ("pen", "prop")],
                       line.configs, max_dim=60_000),
                   _basis_is(lambda line=line: line.configs),
                   _restricted_shape)
        p.op(f"min_eigs type-3 line {k}",
             lambda mat=mat: spectra.min_eigs(mat[0], k=1),
             lambda r, mat=mat, line=line: above_walk_bound(
                 r.values[0], line, spec.couplings.j_prop)
             or check_smallest(mat[0], r.values[0]))

    automaton(p)


def min_eigs_shifted_down(mat, max_steps: int = 8):
    """Smallest eigenvalue of a sparse Hermitian matrix whose spectrum may
    reach far below zero.  ``min_eigs`` shift-inverts about -1 unless told
    otherwise and keeps the eigenvalues nearest the shift.  When it reports
    no convergence, the shift is moved to 2v - 1 below the current estimate
    v (as soundness_probe shifts the type-1 block) until the estimate stops
    falling."""
    res = spectra.min_eigs(mat, k=1)
    if res.converged:
        return res
    for _ in range(max_steps):
        value = float(res.values[0])
        lower = spectra.min_eigs(mat, k=1, sigma=2.0 * value - 1.0)
        if lower.values[0] >= value - REL_TOL * 1e-3 * max(1.0, abs(value)):
            return lower
        res = lower
    return res


class CountingOperator(spla.LinearOperator):
    """Wraps a FullOperator and counts the matvecs a solver asks for."""

    def __init__(self, op):
        super().__init__(dtype=complex, shape=(op.dim, op.dim))
        self.op = op
        self.matvecs = 0

    def _matvec(self, v):
        self.matvecs += 1
        return self.op.matvec(v)


def fullspace(p, inputs: Inputs, circs: dict):
    """n=2, R=2 on 8^8 amplitudes: full-vector history expectation of the
    accepting circuit, FullOperator build and a Lanczos probe of the
    rejecting circuit from the seeded start vector."""
    # both circuits get the accepting circuit's couplings, as in
    # soundness_probe
    couplings = hm.choose_couplings(2, 2, circs["full accepting"])
    specs = {key: p.op(f"build_hamiltonian {key}",
                       lambda key=key: hm.build_hamiltonian(
                           circs[key], couplings=couplings),
                       census_matches, lambda s: {"terms": len(s.terms)})
             for key in ("full accepting", "full rejecting")}
    eta = p.op("history_state full accepting",
               lambda: spectra.history_state(circs["full accepting"],
                                             np.array([1.0, 0.0])),
               lambda s: fail_unless(
                   len(s.amplitudes) == legal_count(2, 2)
                   and abs(s.norm() - 1.0) <= 1e-12,
                   f"{len(s.amplitudes)} configurations, norm {s.norm()}"),
               lambda s: {"configs": len(s.amplitudes)})
    p.op("expectation full-vector history accepting",
         lambda: spectra.expectation(specs["full accepting"], eta.to_full()),
         lambda e: fail_unless(abs(e) <= 1e-12, f"history energy {e:.3g}"))
    op = p.op("FullOperator build rejecting",
              lambda: spectra.FullOperator.from_spec(specs["full rejecting"]),
              lambda o: fail_unless(o.dim == 8 ** 8 and bool(
                  np.all(np.isfinite(o.diag))), "bad operator"),
              lambda o: {"dim": o.dim, "hops": len(o.hops)})
    counted = []

    def probe():
        counted.append(CountingOperator(op))
        return spectra.min_eigs(counted[0], k=1, seed=inputs.seed,
                                maxiter=PROBE_MAXITER, tol=1e-10)

    p.op("min_eigs Lanczos probe rejecting", probe,
         lambda r: fail_unless(
             np.isfinite(r.values[0]) and r.values[0]
             >= REF["type1_min_rejecting"] - 1e-4,
             f"estimate {r.values[0]:.6g} below the exact minimum "
             f"{REF['type1_min_rejecting']}"),
         lambda r: {"matvecs": counted[0].matvecs})
    p.counts["spectra.min_eigs.matvecs"] = sum(c.matvecs for c in counted)


def automaton(p):
    """Rewrite-automaton work: sequences, facts and horizons."""
    seqs = {}
    for n, R in AUTOMATON_GRID:
        seqs[n, R] = p.op(f"legal_sequence {n},{R}",
                          lambda n=n, R=R: chain.legal_sequence(n, R),
                          lambda s, n=n, R=R: fail_unless(
                              len(s) == legal_count(n, R),
                              f"{len(s)} configurations, closed form "
                              f"{legal_count(n, R)}"),
                          lambda s: {"configs": len(s)})
        p.op(f"template_sequence {n},{R}",
             lambda n=n, R=R: chain.template_sequence(n, R),
             lambda s, n=n, R=R: fail_unless(
                 tuple(s) == tuple(seqs[n, R]),
                 "templates differ from the rule engine"),
             lambda s: {"configs": len(s)})
    for n, R in AUTOMATON_GRID:
        p.op(f"check_facts {n},{R}", lambda n=n, R=R: verify.check_facts(n, R),
             lambda rep: fail_unless(rep.passed, "facts violated: " + "; ".join(
                 c.claim for c in rep.checks if not c.passed)))
    for n, R in HORIZON_SHAPES:
        count, halted = REF["undetectable"][f"{n},{R}"]
        L = 2 * n * R
        und = p.op(f"undetectable_configurations {n},{R}",
                   lambda n=n, R=R: list(chain.undetectable_configurations(n, R)),
                   lambda u, count=count: fail_unless(
                       len(u) == count, f"{len(u)} configurations, "
                                        f"recorded {count}"),
                   lambda u: {"count": len(u)})
        p.op(f"detect_horizon {n},{R}",
             lambda und=und: [chain.detect_horizon(c) for c in und],
             lambda hs, halted=halted: fail_unless(
                 sum(h is None for h in hs) == halted
                 and all(h is None or h >= 1 for h in hs),
                 f"{sum(h is None for h in hs)} halt undetected, "
                 f"recorded {halted}"),
             lambda hs: {"halted": sum(h is None for h in hs)})
        p.op(f"exchange_horizon {n},{R}",
             lambda und=und: [chain.exchange_horizon(c) for c in und],
             lambda hs, L=L: fail_unless(
                 all(h is not None and 1 <= h <= L ** 3 for h in hs),
                 f"exchange horizons outside [1, {L ** 3}]"),
             lambda hs: {"count": len(hs)})


def above_walk_bound(value: float, line, j_prop: float) -> str | None:
    """A type-3 line with K'+1 undetectable configurations has pen+prop
    spectrum at least j_prop (1 - cos(pi/(2K'+3)))/2."""
    kprime = sum(1 for d in line.configs
                 if chain.classify(d).tag == "undetectable") - 1
    bound = j_prop * (1.0 - np.cos(np.pi / (2 * kprime + 3))) / 2.0
    return fail_unless(value >= bound,
                       f"{value:.6g} below the walk bound {bound:.6g}")


def _rotation_error(rot: np.ndarray, K: int, d: int) -> float:
    """max |rot - 2 walk(1/2,1/2,K) (x) I_d|, one block row at a time."""
    w = 2.0 * spectra.walk_matrix(0.5, 0.5, K).dense()
    T = K + 1
    r4 = rot.reshape(T, d, T, d)
    eye = np.eye(d)
    return max(float(np.max(np.abs(
        r4[t] - w[t][None, :, None] * eye[:, None, :]))) for t in range(T))


def _history_error(rep, p0: float, K: int) -> str | None:
    """Per-family history energies against their closed forms: in, pen
    and prop exactly zero to 1e-12, out equal to p0/(K+1)."""
    measured = {c.claim.split()[0]: c.measured for c in rep.checks[:4]}
    got = {"in": measured["ancilla"], "pen": measured["pair"],
           "prop": measured["propagation"], "out": measured["output"]}
    want = {"in": 0.0, "pen": 0.0, "prop": 0.0, "out": p0 / (K + 1)}
    bad = [f"{f} {got[f]:.3g} vs {want[f]:.3g}" for f in want
           if abs(got[f] - want[f]) > 1e-12]
    return "; ".join(bad) or None


def compile_(p, inputs: Inputs):
    """Seeded random-gate circuits from parse to rotated legal block, then
    the full-space operator of the n=2, R=2 reference circuits."""
    circs = _parse_all(p, inputs)
    for n, R in COMPILE_SHAPES:
        key = f"random {n},{R}"
        circ, ci = circs[key], inputs.circuits[key]
        K = legal_count(n, R) - 1
        spec = p.op(f"build_hamiltonian {key}",
                    lambda circ=circ: hm.build_hamiltonian(circ),
                    census_matches, lambda s: {"terms": len(s.terms)})
        text = p.op(f"export_terms {key}", lambda spec=spec: hm.export_terms(spec),
                    lambda t, spec=spec: fail_unless(
                        t.count("\n") == len(spec.terms) + 1
                        and json.loads(t[:t.index("\n")])["K"] == K,
                        "export has the wrong line count or header"),
                    lambda t: {"lines": t.count("\n")})
        if text is not None:
            p.digests[f"export_terms {key}"] = hashlib.sha256(
                text.encode()).hexdigest()[:16]
        del text
        p0 = dense_output_zero_probability(ci, inputs.witness)
        p.op(f"check_history {key}",
             lambda circ=circ: verify.check_history(circ, inputs.witness),
             lambda rep, p0=p0, K=K: _history_error(rep, p0, K))
        h = p.op(f"restrict legal prop {key}",
                 lambda circ=circ, n=n, R=R: spectra.restrict(
                     hm.build_h_prop(circ), spectra.legal_basis(n, R))[0]
                 .toarray(),
                 lambda h, n=n, R=R: fail_unless(
                     h.shape[0] == legal_count(n, R) << n, "wrong dimension"),
                 lambda h: {"dim": h.shape[0]})
        p.op(f"rotate_out_gates {key}",
             lambda h=h, circ=circ: spectra.rotate_out_gates(h, circ),
             lambda rot, K=K, n=n: fail_unless(
                 (err := _rotation_error(rot, K, 1 << n)) <= 1e-12,
                 f"rotated block differs from 2 walk(1/2,1/2,{K}) (x) I "
                 f"by {err:.3g}"),
             lambda rot: {"dim": rot.shape[0]})
        del h
    fullspace(p, inputs, circs)


WORKLOADS = {"subspace": subspace, "compile": compile_}

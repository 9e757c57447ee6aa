"""States, expectation values, restrictions, and spectra.

Two state representations are used:

* Full vectors on the 8^(2nR)-dimensional chain space.  Basis index:
  site 1 is the most significant base-8 digit, and each site digit is
  the single-site slot from :mod:`hamline.hamiltonian`.
* Restricted states: a map from configurations to content vectors of
  dimension 2^q, q the number of qubit-holding sites.  Content bit k
  belongs to the k-th holder from the left (k = 0 is the lowest bit);
  rewrite rules preserve left-to-right holder order, so hops act as the
  identity on content except for the rule-1 gates.

The quantum-walk matrices (tridiagonal with -1/2 off-diagonals, interior
diagonal 1, end diagonals f and g) and their closed-form spectra live
here as well; the restriction of the propagation family to the legal
configurations equals twice such a matrix after the gates are rotated
out.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import chain, hamiltonian as hm
from .chain import Configuration
from .circuit import LayeredCircuit, apply_gate_to_state, gate_at_location
from .hamiltonian import HamiltonianSpec, LocalTerm

__all__ = [
    "RestrictedState", "FullOperator", "WalkMatrix", "EigResult",
    "full_dimension", "config_indices", "history_state", "expectation",
    "apply_restricted", "apply_full", "term_action", "restrict",
    "restrict_dense", "min_eigs", "walk_matrix", "walk_eigs_analytic",
    "rotate_out_gates", "legal_basis", "basis_convention_hash",
    "export_vector", "full_sparse_matrix", "export_coo",
]

DEFAULT_SEED = 0
FULL_SPACE_SITE_LIMIT = 8  # 8^8 ~ 1.7e7 amplitudes


def full_dimension(n: int, R: int) -> int:
    return 8 ** (2 * n * R)


def _site_digits(c: Configuration) -> np.ndarray:
    """Base-8 digit of every site for content index 0 (holders get bit 0)."""
    return np.array([hm.SYMBOL_SLOTS[s][0] for s in c.sites], dtype=np.int64)


def config_indices(c: Configuration) -> np.ndarray:
    """Full-space basis indices of (c, content) for content = 0..2^q-1."""
    L = c.length
    weights = 8 ** np.arange(L - 1, -1, -1, dtype=np.int64)
    base = int(np.dot(_site_digits(c), weights))
    holders = c.holders()
    idx = np.full(1 << len(holders), base, dtype=np.int64)
    content = np.arange(1 << len(holders), dtype=np.int64)
    for k, site in enumerate(holders):
        idx += ((content >> k) & 1) * weights[site - 1]
    return idx


def basis_convention_hash() -> str:
    """Short digest of the frozen basis conventions, for export headers."""
    text = "site1-most-significant/" + ",".join(hm.BASIS_LABELS) \
        + "/content-bit-k-is-kth-holder"
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Restricted states
# ---------------------------------------------------------------------------

@dataclass
class RestrictedState:
    """Amplitudes over a set of configurations with their content spaces."""

    n: int
    R: int
    amplitudes: dict[Configuration, np.ndarray]

    def norm(self) -> float:
        return float(np.sqrt(sum(np.vdot(v, v).real
                                 for v in self.amplitudes.values())))

    def normalized(self) -> "RestrictedState":
        s = self.norm()
        if s == 0:
            raise ValueError("cannot normalize the zero state")
        return RestrictedState(self.n, self.R, {
            c: v / s for c, v in self.amplitudes.items()})

    def to_full(self) -> np.ndarray:
        if 2 * self.n * self.R > FULL_SPACE_SITE_LIMIT:
            raise ValueError("full vector would exceed the supported size")
        out = np.zeros(full_dimension(self.n, self.R), dtype=complex)
        for c, v in self.amplitudes.items():
            out[config_indices(c)] = v
        return out


def history_state(circ: LayeredCircuit, witness: np.ndarray) -> RestrictedState:
    """Uniform superposition over the legal sequence, contents evolved by
    the rule-1 gates in firing order, starting from ancillas |0> and the
    witness on the last m content bits."""
    witness = np.asarray(witness, dtype=complex).reshape(-1)
    if witness.shape != (1 << circ.m,):
        raise ValueError(f"witness must have dimension {1 << circ.m}")
    if abs(np.vdot(witness, witness).real - 1.0) > 1e-10:
        raise ValueError("witness must be normalized")
    n, R = circ.n, circ.R
    seq, applied = chain.annotated_sequence(n, R)
    content = np.zeros(1 << n, dtype=complex)
    content[np.arange(1 << circ.m) << (n - circ.m)] = witness
    amp = 1.0 / np.sqrt(len(seq))
    states = {seq[0]: amp * content}
    for c, inst in zip(seq[:-1], applied[:-1]):
        if inst.rule == "1":
            g = (inst.position % (2 * n)) // 2  # gate slot, 1-based
            u = gate_at_location(circ, inst.position).matrix
            content = apply_gate_to_state(content, u, g, n)
        states[chain.apply_rule(c, inst)] = amp * content
    return RestrictedState(n, R, states)


# ---------------------------------------------------------------------------
# Term action on restricted states
# ---------------------------------------------------------------------------

def _holder_ranks(c: Configuration) -> dict[int, int]:
    return {site: k for k, site in enumerate(c.holders())}


def _diag_content_vector(term: LocalTerm, c: Configuration) -> np.ndarray | float:
    """Diagonal of a diag term on config c's content space.

    Returns a scalar when the factor is content-independent, else a
    vector over the 2^q content indices.
    """
    ranks = _holder_ranks(c)
    q = len(ranks)
    scalar = 1.0
    vec = None
    for k, site in enumerate(term.sites):
        sym = c.symbol(site)
        slots = hm.SYMBOL_SLOTS[sym]
        sel = term.diag_slots[k]
        if len(slots) == 1:
            scalar *= 1.0 if slots[0] in sel else 0.0
            continue
        w0 = 1.0 if slots[0] in sel else 0.0
        w1 = 1.0 if slots[1] in sel else 0.0
        if w0 == w1:
            scalar *= w0
            continue
        bit = (np.arange(1 << q) >> ranks[site]) & 1
        f = np.where(bit == 1, w1, w0)
        vec = f if vec is None else vec * f
    if vec is None:
        return scalar
    return scalar * vec


def term_action(term: LocalTerm, c: Configuration, v: np.ndarray,
                ) -> list[tuple[Configuration, np.ndarray]]:
    """Apply one unweighted term to (c, v); returns output components.

    Diag terms map c to itself; hop terms produce the forward and/or
    backward exchange image (with the term's sign), whichever match.
    """
    out = []
    if term.kind == "diag":
        d = _diag_content_vector(term, c)
        w = d * v
        if np.any(w):
            out.append((c, w))
        return out
    i = term.sites[0]
    window = (c.symbol(i), c.symbol(i + 1))
    u = term.gate_matrix()
    if window == term.src:
        d = c.replace_pair(i, term.dst)
        w = v if u is None else _apply_content_gate(v, u, c, i)
        out.append((d, term.sign * w))
    if window == term.dst:
        d = c.replace_pair(i, term.src)
        w = v if u is None else _apply_content_gate(v, u.conj().T, c, i)
        out.append((d, term.sign * w))
    return out


def _apply_content_gate(v: np.ndarray, u: np.ndarray, c: Configuration,
                        i: int) -> np.ndarray:
    """Apply a 4x4 window unitary to the content bits of the holders at
    sites (i, i+1); both sites hold content for rule-1 windows."""
    ranks = _holder_ranks(c)
    a = ranks[i]  # left holder rank; right holder is rank a+1
    q = len(ranks)
    return apply_gate_to_state(v, u, a + 1, q)


def apply_restricted(terms, state: RestrictedState) -> RestrictedState:
    """Weighted sum of term actions; images outside nothing (all configs
    kept)."""
    terms = _term_list(terms)
    acc: dict[Configuration, np.ndarray] = {}
    for c, v in state.amplitudes.items():
        for t in terms:
            for d, w in term_action(t, c, v):
                if d in acc:
                    acc[d] = acc[d] + t.weight * w
                else:
                    acc[d] = t.weight * w
    return RestrictedState(state.n, state.R, acc)


def _term_list(terms) -> list[LocalTerm]:
    if isinstance(terms, HamiltonianSpec):
        return list(terms.terms)
    return list(terms)


def expectation(terms, state) -> float:
    """<state|H|state> for a restricted state or a full vector.

    For restricted states, hop images that leave the support contribute
    nothing (they are orthogonal to every kept configuration).
    Contributions are combined with exactly rounded summation, so the
    projector/hop cancellations on history states come out as true
    zeros instead of accumulation noise.
    """
    if isinstance(state, np.ndarray):
        op = FullOperator(_term_list(terms), _infer_nR(terms))
        return float(np.vdot(state, op.matvec(state)).real)
    parts: list[float] = []
    amps = state.amplitudes
    for t in _term_list(terms):
        if t.kind == "diag":
            for c, v in amps.items():
                d = _diag_content_vector(t, c)
                if isinstance(d, float):
                    if d:
                        parts.append(t.weight * d * float(np.vdot(v, v).real))
                else:
                    parts.append(t.weight * float(np.vdot(v, d * v).real))
        else:
            i = t.sites[0]
            u = t.gate_matrix()
            for c, v in amps.items():
                if (c.symbol(i), c.symbol(i + 1)) != t.src:
                    continue
                d = c.replace_pair(i, t.dst)
                w = amps.get(d)
                if w is None:
                    continue
                img = v if u is None else _apply_content_gate(v, u, c, i)
                parts.append(t.weight * t.sign * 2.0
                             * float(np.vdot(w, img).real))
    return math.fsum(parts)


def _infer_nR(terms):
    if isinstance(terms, HamiltonianSpec):
        return terms.n, terms.R
    raise ValueError("full-space application needs a HamiltonianSpec")


# ---------------------------------------------------------------------------
# Full-space operator
# ---------------------------------------------------------------------------

class FullOperator:
    """Matrix-free application of a term list on the full chain space.

    The diagonal (all projector terms) is precomputed as one vector; hop
    terms are applied as strided 64-block updates.  Matches the dense
    matrix on small instances to 1e-12 (tested).
    """

    def __init__(self, terms, nR: tuple[int, int]):
        n, R = nR
        L = 2 * n * R
        if L > FULL_SPACE_SITE_LIMIT:
            raise ValueError(
                f"chain of {L} sites exceeds the full-space limit "
                f"({FULL_SPACE_SITE_LIMIT} sites)")
        self.n, self.R, self.L = n, R, L
        self.dim = 8 ** L
        terms = _term_list(terms)
        self.diag = np.zeros(self.dim)
        self.hops = []
        for t in terms:
            if t.kind == "diag":
                self._add_diag(t)
            else:
                entries = [(d, s, t.weight * t.sign * v)
                           for d, s, v in t.hop_entries()]
                self.hops.append((t.sites[0], entries))

    @classmethod
    def from_spec(cls, spec: HamiltonianSpec) -> "FullOperator":
        return cls(spec.terms, (spec.n, spec.R))

    def _add_diag(self, t: LocalTerm):
        i = t.sites[0]
        left = 8 ** (i - 1)
        if len(t.sites) == 1:
            block = t.weight * t.site_diag(0)
            width = 8
        else:
            block = t.weight * np.kron(t.site_diag(0), t.site_diag(1))
            width = 64
        right = self.dim // (left * width)
        self.diag.reshape(left, width, right)[:] += block[None, :, None]

    def matvec(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=complex).reshape(self.dim)
        out = self.diag * v
        for i, entries in self.hops:
            left = 8 ** (i - 1)
            right = self.dim // (left * 64)
            vv = v.reshape(left, 64, right)
            oo = out.reshape(left, 64, right)
            for d64, s64, val in entries:
                oo[:, d64, :] += val * vv[:, s64, :]
                oo[:, s64, :] += np.conj(val) * vv[:, d64, :]
        return out

    def linear_operator(self) -> spla.LinearOperator:
        return spla.LinearOperator((self.dim, self.dim),
                                   matvec=self.matvec, dtype=complex)

    def dense(self) -> np.ndarray:
        if self.dim > 8 ** 4:
            raise ValueError("dense form limited to 4 sites")
        out = np.zeros((self.dim, self.dim), dtype=complex)
        eye = np.eye(self.dim, dtype=complex)
        for c in range(self.dim):
            out[:, c] = self.matvec(eye[:, c])
        return out


def apply_full(spec: HamiltonianSpec, v: np.ndarray) -> np.ndarray:
    """H @ v on the full chain space (convenience over FullOperator;
    rebuild the operator once when applying repeatedly)."""
    return FullOperator.from_spec(spec).matvec(v)


def full_sparse_matrix(terms, n: int, R: int) -> sp.csr_matrix:
    """The assembled operator as a sparse matrix, built term-by-term with
    Kronecker products (an independent route from FullOperator, used by
    oracle tests and the coordinate export)."""
    L = 2 * n * R
    dim = 8 ** L
    total = sp.csr_matrix((dim, dim), dtype=complex)
    for t in _term_list(terms):
        blk = sp.csr_matrix(t.weight * t.matrix())
        i = t.sites[0]
        left = sp.identity(8 ** (i - 1), format="csr", dtype=complex)
        right = sp.identity(8 ** (L - i - len(t.sites) + 1), format="csr",
                            dtype=complex)
        total = total + sp.kron(sp.kron(left, blk), right, format="csr")
    return total


def export_coo(spec: HamiltonianSpec, threshold: float = 0.0) -> str:
    """Coordinate-list export of the full matrix: "row col re im" lines,
    0-based, sorted by (row, col).  Only permitted while the full
    dimension stays at or below 2**24."""
    if full_dimension(spec.n, spec.R) > 2 ** 24:
        raise ValueError("coordinate export limited to 8^(2nR) <= 2^24")
    mat = full_sparse_matrix(spec.terms, spec.n, spec.R).tocoo()
    order = np.lexsort((mat.col, mat.row))
    lines = [f"# hamline-coo-v1 n={spec.n} R={spec.R} dim={mat.shape[0]} "
             f"basis={basis_convention_hash()}"]
    for k in order:
        v = mat.data[k]
        if abs(v) > threshold:
            lines.append(f"{mat.row[k]} {mat.col[k]} "
                         f"{v.real:.17g} {v.imag:.17g}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Restriction to configuration subsets
# ---------------------------------------------------------------------------

def _ordered_configs(configs) -> list[Configuration]:
    if isinstance(configs, (list, tuple)):
        return list(configs)
    return sorted(configs, key=lambda c: c.sites)


def _slot_table(slots: frozenset) -> np.ndarray:
    """(symbol, content bit) -> 1.0 where that site state lies in ``slots``;
    symbols without content read the same slot for either bit."""
    table = np.zeros((len(hm.SYMBOL_SLOTS), 2))
    for sym, own in hm.SYMBOL_SLOTS.items():
        for b in (0, 1):
            table[sym, b] = own[min(b, len(own) - 1)] in slots
    return table


def restrict(terms, configs, max_dim: int = 200_000):
    """P H P on the span of the given configurations' content spaces.

    Returns (csr_matrix, basis) where basis is the list of
    (configuration, offset, content_dim) records in the given order
    (sets are sorted lexicographically).  Basis ordering within a
    configuration is by content index.  A configuration listed twice is
    an error.

    The configurations are packed into an (N, L) symbol array; each term
    matches its window by a column mask and emits all its entries at
    once.  Destination configurations are found by binary search on the
    rows read as L-byte keys.
    """
    terms = _term_list(terms)
    configs = _ordered_configs(configs)
    if not configs:
        return sp.csr_matrix((0, 0), dtype=complex), []
    N, L = len(configs), configs[0].length
    S = np.frombuffer(b"".join(c.sites for c in configs),
                      dtype=np.uint8).reshape(N, L)
    hold = np.isin(S, tuple(chain.QUBIT_HOLDING))
    cdim = 1 << hold.sum(axis=1, dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(cdim)))
    dim = int(offsets[-1])
    if dim > max_dim:
        raise ValueError(f"restricted dimension {dim} exceeds {max_dim}")
    basis = [(c, int(off), int(cd))
             for c, off, cd in zip(configs, offsets[:-1], cdim)]
    keys = S.view(np.dtype((np.void, L))).ravel()
    order = np.argsort(keys)
    sorted_keys = keys[order]
    repeats = np.flatnonzero(sorted_keys[1:] == sorted_keys[:-1])
    if len(repeats):
        raise ValueError("configuration listed twice: "
                         f"{configs[order[repeats[0]]]}")
    ranks = np.maximum(np.cumsum(hold, axis=1) - 1, 0)

    def expand(sel):
        """Config, global row and content index of every basis vector of
        the configurations ``sel``."""
        counts = cdim[sel]
        cfg = np.repeat(sel, counts)
        content = np.arange(len(cfg)) \
            - np.repeat(np.cumsum(counts) - counts, counts)
        return cfg, offsets[cfg] + content, content

    diag = np.zeros(dim)
    rows, cols, vals = [], [], []
    for t in terms:
        i = t.sites[0]
        if t.kind == "diag":
            tables = [_slot_table(s) for s in t.diag_slots]
            hit = np.ones(N, dtype=bool)
            for k, tab in enumerate(tables):
                hit &= tab.any(axis=1)[S[:, i - 1 + k]]
            cfg, idx, content = expand(np.flatnonzero(hit))
            f = np.full(len(idx), t.weight)
            for k, tab in enumerate(tables):
                site = i - 1 + k
                f *= tab[S[cfg, site], (content >> ranks[cfg, site]) & 1]
            diag[idx] += f
            continue
        src = np.flatnonzero((S[:, i - 1] == t.src[0]) & (S[:, i] == t.src[1]))
        moved = S[src]
        moved[:, i - 1:i + 1] = t.dst
        dkeys = moved.view(np.dtype((np.void, L))).ravel()
        pos = np.minimum(np.searchsorted(sorted_keys, dkeys), N - 1)
        found = sorted_keys[pos] == dkeys
        cfg, idx, content = expand(src[found])
        dst_off = np.repeat(offsets[order[pos[found]]], cdim[src[found]])
        w = t.weight * t.sign
        u = t.gate_matrix()
        if u is None:
            out_idx, col_idx = dst_off + content, idx
            val = np.full(len(idx), w, dtype=complex)
        else:
            # rule-1 gate on content bits (a, a+1): the holders at i, i+1
            a = ranks[cfg, i - 1]
            bits_in = 2 * ((content >> a) & 1) + ((content >> (a + 1)) & 1)
            cleared = content & ~(3 << a)
            out_idx, col_idx, val = [], [], []
            for j in range(4):
                g = u[j, bits_in]
                nz = g != 0
                out = dst_off + (cleared | ((j >> 1) << a)
                                 | ((j & 1) << (a + 1)))
                out_idx.append(out[nz])
                col_idx.append(idx[nz])
                val.append(w * g[nz])
            out_idx, col_idx, val = map(np.concatenate,
                                        (out_idx, col_idx, val))
        rows += [out_idx, col_idx]
        cols += [col_idx, out_idx]
        vals += [val, val.conj()]
    nz = np.flatnonzero(diag)
    mat = sp.csr_matrix(
        (np.concatenate([diag[nz].astype(complex)] + vals),
         (np.concatenate([nz] + rows), np.concatenate([nz] + cols))),
        shape=(dim, dim))
    return mat, basis


def restrict_dense(terms, configs, max_dim: int = 6000) -> np.ndarray:
    mat, _ = restrict(terms, configs, max_dim=max_dim)
    return mat.toarray()


def legal_basis(n: int, R: int):
    """The legal configurations in time order (the restriction basis used
    by the walk-matrix comparisons)."""
    return list(chain.legal_sequence(n, R))


# ---------------------------------------------------------------------------
# Eigenvalue computation
# ---------------------------------------------------------------------------

@dataclass
class EigResult:
    values: np.ndarray
    residuals: np.ndarray
    converged: bool
    iterations: int | None = None

    def __iter__(self):
        return iter(self.values)


def min_eigs(op, k: int = 1, seed: int = DEFAULT_SEED, v0=None,
             maxiter: int = 2000, tol: float = 1e-10,
             sigma: float | None = None, ncv: int | None = None) -> EigResult:
    """k smallest eigenvalues of a Hermitian operator.

    Dense arrays (and small sparse matrices) are solved exactly, for the
    k lowest eigenpairs only; larger sparse matrices use shift-invert
    about ``sigma`` (default just below zero; pass a value near the
    expected bottom of the spectrum when it is far from zero);
    LinearOperators use Lanczos with a seeded (or given) start vector.
    Non-convergence is reported, not raised: the result carries the
    achieved residuals.
    """
    if isinstance(op, np.ndarray):
        vals, vecs = sla.eigh(op, subset_by_index=[0, min(k, len(op)) - 1])
        res = np.array([np.linalg.norm(op @ vecs[:, j] - vals[j] * vecs[:, j])
                        for j in range(len(vals))])
        return EigResult(vals, res, True)
    if sp.issparse(op):
        dim = op.shape[0]
        if k >= dim - 1 or dim <= 2000:
            return min_eigs(op.toarray(), k)
        if sigma is None:
            sigma = -1.0
        # ask for a few extra eigenvalues so the bottom of a cluster near
        # sigma is not missed
        kk = min(dim - 2, max(k, 6))
        vals, vecs = spla.eigsh(op.tocsc(), k=kk, sigma=sigma, which="LM")
        order = np.argsort(vals)
        vals, vecs = vals[order][:k], vecs[:, order][:, :k]
        res = np.array([np.linalg.norm(op @ vecs[:, j] - vals[j] * vecs[:, j])
                        for j in range(k)])
        return EigResult(vals, res, bool(np.all(res <= max(tol, 1e-8))))
    # matrix-free
    if isinstance(op, FullOperator):
        op = op.linear_operator()
    dim = op.shape[0]
    if v0 is None:
        rng = np.random.default_rng(seed)
        v0 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v0 = np.asarray(v0, dtype=complex)
    v0 = v0 / np.linalg.norm(v0)
    if ncv is None:
        # keep the Krylov basis small: full-space vectors are 268 MB each
        ncv = min(dim, 6 if dim > 4_000_000 else 10)
    try:
        vals, vecs = spla.eigsh(op, k=k, which="SA", v0=v0,
                                maxiter=maxiter, tol=tol, ncv=ncv)
        converged = True
    except spla.ArpackNoConvergence as exc:
        vals, vecs = exc.eigenvalues, exc.eigenvectors
        converged = False
        if vals is None or len(vals) == 0:
            # fall back to the starting vector's Rayleigh quotient
            hv = op.matvec(v0)
            vals = np.array([np.vdot(v0, hv).real])
            vecs = v0.reshape(-1, 1)
    res = []
    for j in range(len(vals)):
        w = vecs[:, j]
        res.append(np.linalg.norm(op.matvec(w) - vals[j] * w))
    return EigResult(np.asarray(vals), np.asarray(res), converged)


# ---------------------------------------------------------------------------
# Walk matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WalkMatrix:
    """(L+1)x(L+1) symmetric tridiagonal matrix: interior diagonal 1,
    off-diagonal -1/2, end diagonals (f, g) in {1/2, 1}."""

    f: float
    g: float
    L: int

    def dense(self) -> np.ndarray:
        m = np.diag(np.full(self.L + 1, 1.0)) \
            - 0.5 * np.diag(np.ones(self.L), 1) \
            - 0.5 * np.diag(np.ones(self.L), -1)
        m[0, 0] = self.f
        m[-1, -1] = self.g
        return m


def walk_matrix(f: float, g: float, L: int) -> WalkMatrix:
    if L < 1:
        raise ValueError("need L >= 1")
    return WalkMatrix(float(f), float(g), L)


def walk_eigs_analytic(f: float, g: float, L: int) -> np.ndarray:
    """Closed-form spectra of the three boundary cases, sorted ascending.

    (1/2, 1/2): 1 - cos(m pi / (L+1)),          m = 0..L  (zero mode at m=0)
    (1, 1):     1 - cos((m+1) pi / (L+2)),      m = 0..L
    (1, 1/2):   1 - cos((2m+1) pi / (2L+3)),    m = 0..L

    The (1, 1) denominator is L+2: that matrix is I - A/2 with A the
    path-graph adjacency matrix on L+1 vertices, whose eigenvalues are
    2 cos(k pi / (L+2)).  The (1/2, 1) case has the same spectrum as
    (1, 1/2).
    """
    ms = np.arange(L + 1)
    key = (float(f), float(g))
    if key == (0.5, 0.5):
        return 1.0 - np.cos(ms * np.pi / (L + 1))
    if key == (1.0, 1.0):
        return 1.0 - np.cos((ms + 1) * np.pi / (L + 2))
    if key in ((1.0, 0.5), (0.5, 1.0)):
        return 1.0 - np.cos((2 * ms + 1) * np.pi / (2 * L + 3))
    raise ValueError(f"unsupported boundary pair {key}")


def walk_eigvector_analytic(f: float, g: float, L: int, m: int) -> np.ndarray:
    """Closed-form (unnormalized) eigenvector for eigenvalue index m.

    The (1, 1) case is the sine family of the path graph; a cosine
    ansatz with the same arguments does not satisfy the boundary rows
    (checked in the verification suite).
    """
    j = np.arange(L + 1)
    key = (float(f), float(g))
    if key == (0.5, 0.5):
        return np.cos(m * np.pi / (L + 1) * (j + 0.5))
    if key == (1.0, 1.0):
        return np.sin((m + 1) * np.pi / (L + 2) * (j + 1))
    if key == (1.0, 0.5):
        return np.sin((2 * m + 1) * np.pi / (2 * L + 3) * (j + 1))
    raise ValueError(f"unsupported boundary pair {key}")


# ---------------------------------------------------------------------------
# Rotating out the gates
# ---------------------------------------------------------------------------

def step_unitaries(circ: LayeredCircuit) -> list[np.ndarray]:
    """Cumulative content unitaries V_t (2^n x 2^n), t = 0..K."""
    n = circ.n
    dim = 1 << n
    seq, applied = chain.annotated_sequence(n, circ.R)
    v = np.eye(dim, dtype=complex)
    out = [v]
    for inst in applied[:-1]:
        if inst.rule == "1":
            g = (inst.position - 1) % (2 * n) // 2 + 1
            u = gate_at_location(circ, inst.position).matrix
            cols = np.empty_like(v)
            for c in range(dim):
                cols[:, c] = apply_gate_to_state(v[:, c], u, g, n)
            v = cols
        out.append(v)
    return out


def rotate_out_gates(h_legal: np.ndarray, circ: LayeredCircuit) -> np.ndarray:
    """W^dagger (H restricted to the legal span, time-ordered basis) W,
    with W = sum_t |t><t| (x) V_t.  For the propagation family the result
    is 2 * walk_matrix(1/2, 1/2, K) on the time register, tensored with
    the identity on content."""
    vs = step_unitaries(circ)
    d = 1 << circ.n
    T = len(vs)
    if h_legal.shape != (T * d, T * d):
        raise ValueError(f"expected a {(T * d, T * d)} matrix, "
                         f"got {h_legal.shape}")
    out = np.empty_like(h_legal, dtype=complex)
    for t in range(T):
        for s in range(T):
            block = h_legal[t * d:(t + 1) * d, s * d:(s + 1) * d]
            out[t * d:(t + 1) * d, s * d:(s + 1) * d] = \
                vs[t].conj().T @ block @ vs[s]
    return out


# ---------------------------------------------------------------------------
# Vector export
# ---------------------------------------------------------------------------

def export_vector(v: np.ndarray, n: int, R: int, threshold: float = 0.0) -> str:
    """Text export: header with chain shape and basis digest, then one
    "index re im" line per (above-threshold) amplitude."""
    lines = [f"# hamline-vector-v1 n={n} R={R} dim={len(v)} "
             f"basis={basis_convention_hash()}"]
    for i in np.nonzero(np.abs(v) > threshold)[0]:
        lines.append(f"{i} {v[i].real:.17g} {v[i].imag:.17g}")
    return "\n".join(lines) + "\n"

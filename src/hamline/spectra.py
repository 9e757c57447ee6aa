"""States, expectation values, restrictions, and spectra.

Two state representations are used:

* Full vectors on the 8^(2nR)-dimensional chain space.  Basis index:
  site 1 is the most significant base-8 digit, and each site digit is
  the single-site slot (:func:`hamline.hamiltonian._site_index`).
* Restricted states: a map from configurations to content vectors of
  dimension 2^q, q the number of qubit-holding sites.  Content bit k
  belongs to the k-th holder from the left (k = 0 is the lowest bit);
  rewrite rules preserve left-to-right holder order, so hops act as the
  identity on content except for the rule-1 gates.

Configuration sets are handled in the automaton's packed form
(:class:`hamline.chain._Packed`, one row of symbol codes per
configuration); restrictions, expectations and hop images read their
rows, content offsets and holder ranks from it.  Term entries come from
the term kernel in :mod:`hamline.hamiltonian`, and one assembly
(:func:`_assemble`) sums them into every matrix: a restriction, and a
full-space matrix as the restriction to every symbol assignment of its
sites, permuted into the full-space index (:func:`_chain_matrix`).

The quantum-walk matrices (tridiagonal with -1/2 off-diagonals, interior
diagonal 1, end diagonals f and g) and their closed-form spectra live
here as well; the restriction of the propagation family to the legal
configurations equals twice such a matrix after the gates are rotated
out.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import chain, hamiltonian as hm
from .chain import Configuration
from .circuit import (LayeredCircuit, apply_gate_to_state, gate_at_location,
                      input_state)
from .hamiltonian import HamiltonianSpec, LocalTerm

__all__ = [
    "RestrictedState", "FullOperator", "WalkMatrix", "EigResult",
    "full_dimension", "history_state", "expectation",
    "energy_parts", "apply_restricted", "restrict", "min_eigs",
    "walk_matrix", "walk_eigs_analytic",
    "rotate_out_gates", "legal_basis", "basis_convention_hash",
    "full_sparse_matrix", "export_coo",
]

DEFAULT_SEED = 0
FULL_SPACE_SITE_LIMIT = 8  # 8^8 ~ 1.7e7 amplitudes
#: The coordinate export writes a line per nonzero: 663,553 lines at 6
#: sites, 49,283,073 at 8.
COO_SITE_LIMIT = 6
#: Entries formatted per pass in :func:`export_coo`.
_COO_CHUNK = 1 << 16
#: The most content dimensions of a block that :func:`restrict` builds
#: by default, and of an exchange-closed set the soundness probe solves.
BLOCK_DIM_LIMIT = 200_000
#: The largest dense array, in bytes, that :func:`min_eigs` forms for a
#: LAPACK solve (a 4-site complex operator is 256 MiB).
DENSE_BYTE_LIMIT = 1 << 29


def full_dimension(n: int, R: int) -> int:
    return 8 ** (2 * n * R)


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

    def to_full(self) -> np.ndarray:
        """The full vector, float64 when no amplitude has a nonzero
        imaginary part (:func:`_exact_real`), complex128 otherwise."""
        if 2 * self.n * self.R > FULL_SPACE_SITE_LIMIT:
            raise ValueError("full vector would exceed the supported size")
        pk = chain._Packed.of(self.amplitudes)
        x = _exact_real(_content(self, pk.cdim))
        out = np.zeros(full_dimension(self.n, self.R), dtype=x.dtype)
        out[hm._site_index(pk)] = x
        return out


def history_state(circ: LayeredCircuit, witness: np.ndarray) -> RestrictedState:
    """Uniform superposition over the legal sequence, contents evolved by
    the rule-1 gates in firing order, starting from
    :func:`~hamline.circuit.input_state` (ancillas |0>, the witness on
    the last m content bits)."""
    content = input_state(circ, witness)
    if abs(np.vdot(content, content).real - 1.0) > 1e-10:
        raise ValueError("witness must be normalized")
    seq, contents = _evolved(circ, content)
    amp = 1.0 / np.sqrt(len(seq))
    return RestrictedState(circ.n, circ.R,
                           {c: amp * v for c, v in zip(seq, contents)})


def _evolved(circ: LayeredCircuit, content: np.ndarray):
    """(legal sequence, contents): the content vector or (2^n, k) columns
    at each step of the legal sequence, evolved by the rule-1 gates in
    firing order."""
    seq, applied = chain.annotated_sequence(circ.n, circ.R)
    contents = [content]
    for inst in applied[:-1]:
        if inst.rule == "1":
            gate = gate_at_location(circ, inst.position)
            content = apply_gate_to_state(content, gate.matrix, gate.target,
                                          circ.n)
        contents.append(content)
    return seq, contents


# ---------------------------------------------------------------------------
# Term action on restricted states
# ---------------------------------------------------------------------------

def apply_restricted(terms, state: RestrictedState) -> RestrictedState:
    """Weighted sum of term actions: :func:`restrict` over the state's
    support plus the terms' hop images, applied to the state vector.
    Every image configuration is kept, zero or not."""
    terms = _term_list(terms)
    support = list(state.amplitudes)
    mat, basis = restrict(terms, support + _hop_images(terms, support))
    v = _content(state, [cd for _, _, cd in basis])
    x = np.zeros(mat.shape[0], dtype=complex)
    x[:len(v)] = v
    y = mat @ x
    return RestrictedState(state.n, state.R, {
        c: y[off:off + cd] for c, off, cd in basis})


def _content(state: RestrictedState, cdim) -> np.ndarray:
    """The state's amplitudes as one complex vector, in order; an
    amplitude that is not a vector of its configuration's content
    dimension (``cdim``, in the same order) is a ValueError."""
    parts = [np.zeros(0, dtype=complex)]
    for (c, v), cd in zip(state.amplitudes.items(), cdim):
        a = np.asarray(v, dtype=complex)
        if a.shape != (cd,):
            raise ValueError(f"the amplitude of {c} has {a.size} entries, "
                             f"its content dimension {cd}")
        parts.append(a)
    return np.concatenate(parts)


def _term_list(terms) -> list[LocalTerm]:
    if isinstance(terms, HamiltonianSpec):
        return list(terms.terms)
    return list(terms)


def _exact_real(a: np.ndarray) -> np.ndarray:
    """``a`` as float64 when no entry has a nonzero imaginary part (an
    exact test, no tolerance); otherwise ``a`` unchanged."""
    if np.iscomplexobj(a) and not np.any(a.imag):
        return np.ascontiguousarray(a.real)
    return a


def energy_parts(terms, state: RestrictedState) -> np.ndarray:
    """Re(conj(x_r) v x_c) for every nonzero weighted kernel entry v at
    (r, c) on the state's support, doubled for hop entries (T stands for
    T and T^dagger), in term order.  Hop images outside the support
    contribute nothing."""
    if not state.amplitudes:
        return np.zeros(0)
    pk = chain._Packed.of(state.amplitudes)
    x = _content(state, pk.cdim)
    parts, which = [np.zeros(0)], [np.zeros(0, dtype=np.intp)]
    for kind, term, rows, cols, vals in hm._term_entries(
            _term_list(terms), pk):
        p = (x[rows].conj() * (vals * x[cols])).real
        parts.append(p if kind == "diag" else 2.0 * p)
        which.append(term)
    order = np.argsort(np.concatenate(which), kind="stable")
    return np.concatenate(parts)[order]


def expectation(terms, state) -> float:
    """<state|H|state> for a restricted state or a full vector.

    For restricted states the products of :func:`energy_parts` are
    summed exactly rounded, so the projector/hop cancellations on
    history states come out as true zeros, and a family sum weighted by
    powers of two is a sum of the same products as the assembled
    expectation.
    """
    if not isinstance(state, np.ndarray):
        return math.fsum(energy_parts(terms, state))
    if not isinstance(terms, HamiltonianSpec):
        raise ValueError("full-space application needs a HamiltonianSpec")
    return float(np.vdot(state, FullOperator.from_spec(terms)
                         .matvec(state)).real)


# ---------------------------------------------------------------------------
# Full-space operator
# ---------------------------------------------------------------------------

class FullOperator:
    """Matrix-free application of a term list on the full chain space.

    One fixed rule splits the chain at site h = floor(L/2) into two CSR
    blocks, each the assembly of all of that half's terms, hop and diag,
    over every symbol assignment of its sites (:func:`_chain_matrix`): the
    head block holds the terms that start on sites 1..h-1 (windows
    1..h-1), on sites 1..h; the tail block those that start on sites
    h..L, on sites h..L; they share site h.  At 8 sites (the (2,2)
    reference circuits) they are 4,096 and 32,768 square with 7,673 and
    67,577 nonzeros, diagonals included.  No 8^L array is kept:
    :attr:`diag` is formed from the two blocks' diagonals when read.
    ``dtype`` is float64 when both blocks are exactly real (the circuit's
    gates are) and complex128 otherwise.  With ``shape`` and ``matvec``
    the operator serves :func:`min_eigs` as a LinearOperator does.  ``hops`` keeps each window's nonzeros of
    -weight * (T + T^dagger), summed from the terms' blocks
    (:meth:`~hamline.hamiltonian.LocalTerm.matrix`), as (site, [(d64,
    s64, value), ...]).

    ``matvec`` multiplies the head block into the vector read as an
    (8^h, 8^(L-h)) matrix, which allocates the output, then adds the tail
    product slab by slab of 8^(L-h+1) amplitudes, 8^(h-1) calls in all.
    A real operator reads a complex vector through its float64 view, two
    columns per amplitude, so the blocks are never upcast and the real and
    imaginary parts get the same real arithmetic.
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
        self.shape = (self.dim, self.dim)
        terms = _term_list(terms)
        hop_terms = [t for t in terms if t.kind == "hop"]
        tables: dict[int, np.ndarray] = {}
        for t, block in zip(hop_terms, hm._per_block(hop_terms,
                                                     lambda m: m)):
            i = t.sites[0]
            tables[i] = tables.get(i, 0.0) + t.weight * block
        self.hops = []
        for i in sorted(tables):
            table = _exact_real(tables[i])
            d64, s64 = np.nonzero(table)
            self.hops.append((i, list(zip(d64.tolist(), s64.tolist(),
                                          table[d64, s64].tolist()))))
        h = L // 2
        head = _chain_matrix([t for t in terms if t.sites[0] < h], 1, h)
        tail = _chain_matrix([t for t in terms if t.sites[0] >= h], h,
                             L - h + 1)
        self.dtype = np.result_type(head.dtype, tail.dtype)
        self.head, self.tail = head.astype(self.dtype), tail.astype(self.dtype)

    @classmethod
    def from_spec(cls, spec: HamiltonianSpec) -> "FullOperator":
        return cls(spec.terms, (spec.n, spec.R))

    @property
    def diag(self) -> np.ndarray:
        """The operator's diagonal, an 8^L float64 array built on each
        read as the broadcast sum of the head and tail blocks' diagonals."""
        head, tail = (b.diagonal().real for b in (self.head, self.tail))
        return np.add(head.reshape(-1, 8, 1),
                      tail.reshape(1, 8, -1)).reshape(self.dim)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        v = np.ascontiguousarray(v).reshape(self.dim)
        v = v.astype(np.result_type(v.dtype, self.dtype), copy=False)
        x = v.view(self.dtype).reshape(self.dim, -1)
        out = (self.head @ x.reshape(self.head.shape[0], -1)).reshape(x.shape)
        slab = self.tail.shape[0]
        for a in range(0, self.dim, slab):
            out[a:a + slab] += self.tail @ x[a:a + slab]
        return out.view(v.dtype).reshape(self.dim)


def _chain_matrix(terms, first: int, L: int) -> sp.csr_matrix:
    """The terms, all on sites first..first+L-1, as an operator on those
    L sites in the full-space index (site ``first`` most significant):
    their assembly (:func:`_assemble`) over every symbol assignment of
    the sites, permuted by its :func:`~hamline.hamiltonian._site_index`."""
    pk, index = hm._window(L)
    shifted = [replace(t, sites=tuple(s - first + 1 for s in t.sites))
               for t in terms]
    mat = _assemble(shifted, pk).tocoo()
    return sp.csr_matrix((mat.data, (index[mat.row], index[mat.col])),
                         shape=mat.shape)


def full_sparse_matrix(terms, n: int, R: int) -> sp.csr_matrix:
    """The assembled operator on the whole chain as a sparse matrix
    (:func:`_chain_matrix`), float64 when exactly real.  Used by oracle
    tests, the coordinate export and ``hamline spectrum --set chain``."""
    return _chain_matrix(_term_list(terms), 1, 2 * n * R)


def export_coo(spec: HamiltonianSpec) -> Iterator[str]:
    """Coordinate-list export of the full matrix: a "row col re im" line
    per nonzero entry, 0-based, sorted by (row, col), after a header
    line.  Only permitted up to :data:`COO_SITE_LIMIT` sites, checked
    before the matrix is built.  The text comes as an iterator: the
    header line, then one string per :data:`_COO_CHUNK` entries."""
    if 2 * spec.n * spec.R > COO_SITE_LIMIT:
        raise ValueError(
            f"coordinate export limited to {COO_SITE_LIMIT} sites")
    mat = full_sparse_matrix(spec.terms, spec.n, spec.R).tocoo()
    order = np.lexsort((mat.col, mat.row))
    order = order[np.abs(mat.data[order]) > 0.0]

    def chunks():
        yield (f"# hamline-coo-v1 n={spec.n} R={spec.R} dim={mat.shape[0]} "
               f"basis={basis_convention_hash()}\n")
        # Python numbers and text for one chunk of entries at a time
        for a in range(0, len(order), _COO_CHUNK):
            k = order[a:a + _COO_CHUNK]
            v = mat.data[k]
            yield "".join(map("{} {} {:.17g} {:.17g}\n".format,
                              mat.row[k].tolist(), mat.col[k].tolist(),
                              v.real.tolist(), v.imag.tolist()))
    return chunks()


# ---------------------------------------------------------------------------
# Restriction to configuration subsets
# ---------------------------------------------------------------------------

def _hop_images(terms, configs: list[Configuration]) -> list[Configuration]:
    """Configurations outside ``configs`` that one hop term maps one of
    them to, in either direction, each once and sorted by ``sites``."""
    if not configs:
        return []
    pk = chain._Packed.of(configs)
    hm._check_sites(terms, pk.S.shape[1])
    moved = [pk.S[:0]]  # no rows when no term is a hop
    for t in (t for t in terms if t.kind == "hop"):
        for a, b in ((t.src, t.dst), (t.dst, t.src)):
            _, _, found, rows = pk.hop(t.sites[0], a, b)
            moved.append(rows[~found])
    keys = np.unique(chain._keys(np.concatenate(moved)))
    return chain._configs_of(keys, configs[0].n, configs[0].R)


def restrict(terms, configs, max_dim: int = BLOCK_DIM_LIMIT):
    """P H P on the span of the given configurations' content spaces.

    Returns (csr_matrix, basis) where basis is the list of
    (configuration, offset, content_dim) records in the order of the
    sequence ``configs``.  Basis ordering within a configuration is by
    content index.  A configuration listed twice is an error.  The
    matrix is :func:`_assemble`'s: float64 when no assembled entry has
    an imaginary part (the circuit's gates are real) and complex128
    otherwise.
    """
    terms = _term_list(terms)
    if not configs:
        return sp.csr_matrix((0, 0)), []
    pk = chain._Packed.of(configs)
    dim = int(pk.offsets[-1])
    if dim > max_dim:
        raise ValueError(f"restricted dimension {dim} exceeds {max_dim}")
    repeats = np.flatnonzero(pk.sorted_keys[1:] == pk.sorted_keys[:-1])
    if len(repeats):
        raise ValueError("configuration listed twice: "
                         f"{configs[pk.order[repeats[0]]]}")
    basis = [(c, int(off), int(cd))
             for c, off, cd in zip(configs, pk.offsets[:-1], pk.cdim)]
    return _assemble(terms, pk), basis


def _assemble(terms, pk: chain._Packed) -> sp.csr_matrix:
    """The terms' sum on the packed configurations' content spaces, in
    packed basis order: the term kernel's
    (:func:`hamline.hamiltonian._term_entries`) diagonal entries summed,
    each hop entry added with its adjoint, float64 when no entry has an
    imaginary part (:func:`_exact_real`).  Couplings are powers of two,
    so the diagonal sums are exact in any order."""
    dim = int(pk.offsets[-1])
    diag = np.zeros(dim)
    rows, cols, vals = [], [], []
    for kind, _, r, c, v in hm._term_entries(terms, pk):
        if kind == "diag":
            diag += np.bincount(r, v, minlength=dim)
        else:
            rows += [r, c]
            cols += [c, r]
            vals += [v, v.conj()]
    nz = np.flatnonzero(diag)
    return sp.csr_matrix(
        (_exact_real(np.concatenate([diag[nz]] + vals)),
         (np.concatenate([nz] + rows), np.concatenate([nz] + cols))),
        shape=(dim, dim))


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
    sigma: float | None = None
    floor: float | None = None


def min_eigs(op, k: int = 1, seed: int = DEFAULT_SEED, maxiter: int = 2000,
             tol: float = 1e-10, sigma: float | None = None) -> EigResult:
    """k smallest eigenvalues of a Hermitian operator.

    An explicit matrix, a dense array or a sparse matrix of any dimension,
    is solved by shift-invert about a shift below the whole spectrum,
    certified by Sylvester inertia counts (:func:`_shift_invert`): the
    negative pivots of a symmetric LDL^H factorization of A - x I count
    the eigenvalues below x.  The search starts at ``sigma`` (default -1),
    a first guess only: if eigenvalues lie below it, the shift is bisected
    on counts between the Gershgorin lower bound and ``sigma`` until the
    bracket is 5% wide, and the solve runs at its lower end, where the
    count is 0, so the k eigenvalues nearest above the shift are the k
    lowest.  ARPACK finds them, from a seeded real start vector, on the
    factorization whose count certified the shift: the one at ``sigma``
    when its count is 0, else the bracket's last lower end; pairs that
    fail the residual test below (ARPACK can stop short on a degenerate
    bottom) get one block inverse iteration on that factorization and
    Rayleigh-Ritz on their span.
    Only a request for k >= dim - 1 eigenvalues, which ARPACK cannot
    serve, takes LAPACK ``eigh`` for the k lowest pairs instead, with no
    shift.  Either way the result carries the shift (``sigma``, None for
    ``eigh``) and the precision floor eps * ||A||_1 (``floor``), and
    ``converged`` holds only when

    * a count finds no eigenvalue below theta_1 - max(r_1, floor), so
      that theta_1 is the smallest eigenvalue to within max(r_1, floor);
    * for k > 1, a count finds at most k - 1 eigenvalues below
      theta_k - max(r_k, floor).  A solve that misses a copy of a
      degenerate eigenvalue returns theta_k >= lambda_{k+1}, and then k
      eigenvalues lie below that point;
    * every residual r_j = ||A y_j - theta_j y_j|| is at most
      max(tol * |theta_j|, b_j), with b_j the rounding bound of
      :func:`_residual_bounds`: the residual evaluation itself cannot
      certify less, so near theta = 0 no relative test applies.

    Any other operator, a LinearOperator or a :class:`FullOperator`, is
    read through its ``shape`` and ``matvec`` (its declared ``dtype`` is
    not read) by a thick-restart Lanczos (:func:`_lanczos`) with ncv = 10
    basis vectors (6 past 4,000,000 dimensions, at most dim) from a
    seeded real start vector.  The basis is ncv rows; the residual vector
    of each cycle is held in the operator's last output, so a run holds
    ncv + 1 full-length vectors besides the operator's own work.  The
    operator's output on the start vector, the run's first product, sets
    the arithmetic: the basis is float64 when the output has no nonzero
    imaginary part (an exact test, no tolerance) and complex128
    otherwise.  A float64 run then requires every later output to be
    exactly real as well and raises ValueError on one that is not; it
    never switches to complex arithmetic.
    ``maxiter`` counts the restarts after the first cycle, so a run makes
    at most ncv + maxiter*(ncv - k) operator applications, the first
    product included, plus one per returned value for its residual.  The
    values are the k lowest Ritz values of the last Krylov space, each
    the Rayleigh quotient of its Ritz vector and so an upper bound on its
    eigenvalue; ``iterations`` counts restarts.  ``converged`` holds when
    each residual ||H y - theta y|| is at most tol * max(|theta|,
    eps^(2/3)) (ARPACK's test); a single start vector sees a degenerate
    eigenvalue's further copies only through rounding, so a run may
    converge with one copy missing.  These results carry no ``floor``:
    the operator's norm is not formed.

    Non-convergence is reported, not raised: the result carries the
    values and residuals achieved.  A request for k < 1 values is a
    ValueError, and so are a dense solve over :data:`DENSE_BYTE_LIMIT`
    bytes and, in the Lanczos branch, k >= ncv values and maxiter < 0
    restarts; each is refused before the operator is applied.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got k={k}")
    if isinstance(op, np.ndarray) or sp.issparse(op):
        return _shift_invert(sp.csc_matrix(op), k, seed, tol,
                             -1.0 if sigma is None else float(sigma))
    dim = op.shape[0]
    # keep the Krylov basis small: a full-space vector is 134 MB real,
    # 268 MB complex
    ncv = min(dim, 6 if dim > 4_000_000 else 10)
    if not k < ncv or maxiter < 0:
        raise ValueError(f"need k < ncv and maxiter >= 0, got k={k}, "
                         f"ncv={ncv}, maxiter={maxiter}")
    return _lanczos(op.matvec, dim, ncv, seed, k, maxiter, tol)


def _shift_invert(A: sp.csc_matrix, k: int, seed: int, tol: float,
                  sigma: float) -> EigResult:
    """The explicit-matrix branch of :func:`min_eigs`: bracket a shift
    with no eigenvalue below it and solve there (or solve densely when
    k >= dim - 1), then certify the lowest values."""
    floor = _floor(A)
    k = min(k, A.shape[0])
    if k >= A.shape[0] - 1:
        size = A.shape[0] ** 2 * A.dtype.itemsize
        if size > DENSE_BYTE_LIMIT:
            raise ValueError(f"a dense solve of dimension {A.shape[0]} needs "
                             f"{size} bytes, over {DENSE_BYTE_LIMIT}")
        vals, vecs = sla.eigh(A.toarray(), subset_by_index=[0, k - 1])
        x, lu, converged = None, None, True
    else:
        x, lu, vals, vecs, converged = _arpack_below(A, k, seed, sigma, floor)
    vals, vecs, res, small = _checked_pairs(A, vals, vecs, tol)
    if not small and lu is not None and len(vals) == k:
        # one block inverse-iteration step, then Rayleigh-Ritz
        Q = np.linalg.qr(lu.solve(vecs))[0]
        theta, S = sla.eigh(Q.conj().T @ (A @ Q))
        vals, vecs, res, small = _checked_pairs(A, theta, Q @ S, tol)
    converged = converged and len(vals) == k and small
    if converged:
        _, below, _ = _inertia(A, vals[0] - max(res[0], floor), floor)
        converged = below == 0
    if converged and k > 1:
        _, below, _ = _inertia(A, vals[-1] - max(res[-1], floor),
                               floor)
        converged = below <= k - 1
    return EigResult(vals, res, converged, sigma=x, floor=floor)


def _checked_pairs(A, vals: np.ndarray, vecs: np.ndarray, tol: float):
    """(values, vectors, residuals, small): the pairs in ascending order,
    each residual ||A y_j - theta_j y_j||, and whether every residual is
    at most max(tol * |theta_j|, b_j) (:func:`_residual_bounds`)."""
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]
    res = np.array([np.linalg.norm(A @ vecs[:, j] - vals[j] * vecs[:, j])
                    for j in range(len(vals))])
    return vals, vecs, res, bool(np.all(res <= np.maximum(
        tol * np.abs(vals), _residual_bounds(A, vals, vecs))))


def _arpack_below(A: sp.csc_matrix, k: int, seed: int, sigma: float,
                  floor: float):
    """(x, factorization of A - x I, values, vectors, converged): ARPACK's
    k eigenpairs nearest above a shift x that has no eigenvalue of A
    below it, found from ``sigma`` by bisection on inertia counts.  The
    solve runs on the factorization whose count certified x."""
    x, count, lu = _inertia(A, sigma, floor)
    if count:
        lu = None
        # Gershgorin: A is Hermitian, so its row sums are its column sums
        colsum = np.asarray(abs(A).sum(axis=0)).ravel()
        lo, hi = float(np.min(2.0 * A.diagonal().real - colsum)), x
        while hi - lo > 0.05 * max(1.0, abs(hi)):
            mid, count, f = _inertia(A, _midpoint(lo, hi), floor)
            if count:
                hi = mid
            else:
                lo, lu = mid, f
            del f  # at most lu and one more factorization at a time
        x = lo
        if lu is None:  # the bracket closed on the Gershgorin bound
            x, lu = _factor(A, x, floor)
    # Reading the pivots (lu.U) cached CSC copies of L and U on the
    # factorization, which the solve now carries: for the 12,800-dimensional
    # type-1 block at (2,2), +5.6 MB real and +10.4 MB complex (513,190
    # nonzeros in L and U).  It saves one factorization per solve, there
    # 26 ms real and 55 ms complex (best of 5 on a 2-core VM).
    # a seeded start vector: ARPACK's own is not reproducible across
    # processes
    start = np.random.default_rng(seed).standard_normal(A.shape[0])
    try:
        vals, vecs = spla.eigsh(
            A, k=k, sigma=x, which="LM", v0=start,
            OPinv=spla.LinearOperator(A.shape, matvec=lu.solve,
                                      dtype=A.dtype))
        return x, lu, vals, vecs, True
    except spla.ArpackNoConvergence as exc:
        return x, lu, exc.eigenvalues, exc.eigenvectors, False


def _floor(A) -> float:
    """The precision floor eps * ||A||_1 of a dense or sparse matrix."""
    return float(np.finfo(float).eps * abs(A).sum(axis=0).max())


def _residual_bounds(A, vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """b_j = (m + 2) * eps * (|| |A| |y_j| ||_2 + |theta_j|) for unit
    vectors y_j, m the most nonzeros in a row of A: the smallest residual
    that :func:`_checked_pairs` can certify for (theta_j, y_j).

    With unit roundoff u = eps/2, a row of A y is a sum of at most m
    products, computed with error at most gamma_m (|A| |y|)_i, gamma_m =
    m u / (1 - m u), or gamma_(m+2) for complex entries (Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed., Lemma 3.5); forming
    theta y_i and the difference adds about 2 u |theta| |y_i|.  Storing
    the exact eigenvector in floating point moves each entry by at most
    u |y_i|, which moves A y - theta y by at most u (|A| |y| + |theta|
    |y|).  So even the exact eigenvector, rounded to working precision,
    may show a computed residual of (m + 4) u (|| |A| |y| || + |theta|)
    to first order, and (m + 2) eps = (2m + 4) u covers that.  The bound
    scales with |theta| and with the entries y meets, not with ||A||_1,
    so it stays meaningful at theta = 0, where a relative test cannot
    hold.
    """
    m = int(A.getnnz(axis=1).max())
    mag = np.linalg.norm(abs(A) @ np.abs(vecs), axis=0)
    return (m + 2) * np.finfo(float).eps * (mag + np.abs(vals))


def _factor(A: sp.csc_matrix, x: float, floor: float):
    """(x, factorization): a symmetric LDL^H factorization of A - x I,
    minimum-degree ordered on A + A^T, with every pivot on the diagonal.
    SuperLU at pivot threshold 0 never takes a zero pivot: it leaves the
    diagonal or reports the matrix singular, and then x moves down by
    ``floor`` and A is factored again.  The restricted blocks have small
    supernodes, so relaxed supernodes and multi-column panels only add
    work: without them the 12,800-dimensional type-1 block factors
    about a third faster."""
    eye = sp.identity(A.shape[0], dtype=A.dtype, format="csc")
    step = max(floor, np.finfo(float).tiny)
    while True:
        try:
            lu = spla.splu(A - x * eye, permc_spec="MMD_AT_PLUS_A",
                           diag_pivot_thresh=0.0, relax=1, panel_size=1,
                           options={"SymmetricMode": True})
        except RuntimeError:  # exactly singular
            x -= step
            continue
        if np.array_equal(lu.perm_r, lu.perm_c):
            return x, lu
        x -= step


def _inertia(A: sp.csc_matrix, x: float,
             floor: float) -> tuple[float, int, spla.SuperLU]:
    """(x, count, factorization): the number of eigenvalues of A below x,
    by Sylvester's law of inertia the number of negative pivots of
    :func:`_factor`, and that factorization."""
    x, lu = _factor(A, x, floor)
    return x, int(np.count_nonzero(lu.U.diagonal().real < 0)), lu


def _midpoint(lo: float, hi: float) -> float:
    """Bisection point of the bracket (lo, hi): geometric while the
    bracket spans more than a factor of 2 (magnitudes below 1 read as 1),
    arithmetic after."""
    if -lo > 2.0 * max(-hi, 1.0):
        return -math.sqrt(-lo * max(-hi, 1.0))
    if hi > 2.0 * max(lo, 1.0):
        return math.sqrt(hi * max(lo, 1.0))
    return 0.5 * (lo + hi)


def _norm(x: np.ndarray) -> float:
    """2-norm in one contiguous pass (``np.linalg.norm`` reads a complex
    vector's real and imaginary parts as two strided halves)."""
    return math.sqrt(np.vdot(x, x).real)


#: Columns per product in :func:`_rotate`.
_ROTATE_CHUNK = 1 << 16


def _rotate(V: np.ndarray, S: np.ndarray):
    """V[:k] <- S^T V[:m] in place for S of shape (m, k): the rows of V
    are basis vectors, and the product runs over column chunks so no
    full-length temporary is made."""
    m, k = S.shape
    St = S.T.astype(V.dtype)
    for a in range(0, V.shape[1], _ROTATE_CHUNK):
        V[:k, a:a + _ROTATE_CHUNK] = St @ V[:m, a:a + _ROTATE_CHUNK]


def _lanczos(matvec, dim: int, ncv: int, seed: int, k: int, maxiter: int,
             tol: float) -> EigResult:
    """Thick-restart Lanczos (Wu & Simon) for the k lowest eigenpairs.

    The run starts from the seeded real unit vector, and the operator's
    output on it, the first step's product, sets the dtype of the
    (ncv, dim) basis: float64 when that output is exactly real
    (:func:`_exact_real`), complex128 otherwise.  In a float64 basis
    every later output must be exactly real too (a nonzero imaginary part
    is a ValueError).  A cycle extends the basis to ncv vectors; each
    step is a three-term (after a restart, arrow) update by ``axpy`` and
    one classical Gram-Schmidt pass against the whole basis as two
    ``gemv`` calls, all in place on the operator's output.  The cycle's
    last step leaves the normalised residual vector in that output, not
    in a basis row.  A restart keeps the k lowest Ritz vectors and copies
    the residual vector into row k, with the Ritz values on the diagonal
    of the projected matrix and their couplings to the residual in its
    row k; at the end of the run the residual vector is dropped.
    ``maxiter`` restarts at most follow the first cycle; a zero residual
    (an invariant subspace) ends the run.
    The result holds the k lowest Ritz pairs of the last Krylov space,
    each value recomputed as the Rayleigh quotient of its Ritz vector
    and each residual from one explicit matvec.
    """
    v0 = np.random.default_rng(seed).standard_normal(dim)
    v0 /= _norm(v0)
    w = _exact_real(np.asarray(matvec(v0)))
    real = not np.iscomplexobj(w)
    # rows of np.empty take no memory until the run writes them
    V = np.empty((ncv, dim), dtype=float if real else complex)
    V[0] = v0
    del v0
    w = np.asarray(w, dtype=V.dtype)
    axpy, gemv = sla.get_blas_funcs(("axpy", "gemv"), (V,))
    adjoint = 1 if real else 2
    floor = np.finfo(float).eps ** (2 / 3)

    def apply(x):
        y = np.asarray(matvec(x))
        if real:
            y = _exact_real(y)
            if np.iscomplexobj(y):
                raise ValueError("the operator gave a complex output after "
                                 "an exactly real first output")
        return np.asarray(y, dtype=V.dtype)

    def small(res, theta):
        return bool(np.all(res <= tol * np.maximum(np.abs(theta), floor)))

    T = np.zeros((ncv + 1, ncv + 1))
    start, restarts = 0, 0
    while True:
        m = ncv
        for j in range(start, ncv):
            if w is None:
                w = apply(V[j])
            T[j, j] = np.vdot(V[j], w).real
            for i in np.flatnonzero(T[j, :j + 1]):
                w = axpy(V[i], w, a=-T[j, i])
            A = V[:j + 1].T
            h = gemv(1.0, A, w, trans=adjoint)
            w = gemv(-1.0, A, h, beta=1.0, y=w, overwrite_y=True)
            T[j, j] += h[j].real
            beta = _norm(w)
            T[j + 1, j] = T[j, j + 1] = beta
            if beta == 0.0:
                m = j + 1
                break
            if j + 1 < ncv:
                np.multiply(w, 1.0 / beta, out=V[j + 1])
                w = None  # free the output before the operator makes the next
            else:
                w *= 1.0 / beta  # the residual vector, kept in the output
        theta, S = sla.eigh(T[:m, :m])
        kk = min(k, m)
        beta = T[m, m - 1]
        if (beta == 0.0 or restarts == maxiter
                or small(beta * np.abs(S[m - 1, :kk]), theta[:kk])):
            break
        restarts += 1
        _rotate(V, S[:, :k])
        V[k] = w
        w = None
        T[:] = 0.0
        T[:k, :k] = np.diag(theta[:k])
        T[k, :k] = T[:k, k] = beta * S[m - 1, :k]
        start = k
    del w
    _rotate(V, S[:, :kk])
    vals, res = np.empty(kk), np.empty(kk)
    for i in range(kk):
        hy = apply(V[i])
        vals[i] = np.vdot(V[i], hy).real / np.vdot(V[i], V[i]).real
        res[i] = _norm(axpy(V[i], hy, a=-vals[i]))
        del hy
    order = np.argsort(vals, kind="stable")
    vals, res = vals[order], res[order]
    return EigResult(vals, res, small(res, vals), restarts)


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
    (checked in the verification suite).  The (1/2, 1) vector is the
    (1, 1/2) one reversed.
    """
    j = np.arange(L + 1)
    key = (float(f), float(g))
    if key == (0.5, 0.5):
        return np.cos(m * np.pi / (L + 1) * (j + 0.5))
    if key == (1.0, 1.0):
        return np.sin((m + 1) * np.pi / (L + 2) * (j + 1))
    if key == (1.0, 0.5):
        return np.sin((2 * m + 1) * np.pi / (2 * L + 3) * (j + 1))
    if key == (0.5, 1.0):
        return walk_eigvector_analytic(1.0, 0.5, L, m)[::-1]
    raise ValueError(f"unsupported boundary pair {key}")


# ---------------------------------------------------------------------------
# Rotating out the gates
# ---------------------------------------------------------------------------

def step_unitaries(circ: LayeredCircuit) -> list[np.ndarray]:
    """Cumulative content unitaries V_t (2^n x 2^n), t = 0..K."""
    return _evolved(circ, np.eye(1 << circ.n, dtype=complex))[1]


def rotate_out_gates(h_legal: np.ndarray, circ: LayeredCircuit) -> np.ndarray:
    """W^dagger (H restricted to the legal span, time-ordered basis) W,
    with W = sum_t |t><t| (x) V_t.  For the propagation family the result
    is 2 * walk_matrix(1/2, 1/2, K) on the time register, tensored with
    the identity on content.  Only the nonzero (t, s) blocks are
    transformed; the others stay zero."""
    vs = step_unitaries(circ)
    d = 1 << circ.n
    T = len(vs)
    if h_legal.shape != (T * d, T * d):
        raise ValueError(f"expected a {(T * d, T * d)} matrix, "
                         f"got {h_legal.shape}")
    blocks = h_legal.reshape(T, d, T, d)
    out = np.zeros((T, d, T, d), dtype=complex)
    for t, s in np.argwhere(blocks.any(axis=(1, 3))):
        out[t, :, s] = vs[t].conj().T @ blocks[t, :, s] @ vs[s]
    return out.reshape(h_legal.shape)

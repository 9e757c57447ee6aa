"""Local Hamiltonian terms for the 8-state chain construction.

Every term acts on one or two adjacent sites of the chain.  The 8
single-site basis states are ordered

    [insi, pusher, blank, dead, qubit0, qubit1, gate0, gate1]

(indices 0..7, frozen; all matrix exports use this ordering).  The two
qubit-holding symbols occupy two slots each; symbol-level projectors sum
over the content slots, and transition ("hop") terms move the content
between sites, pairing slots in left-to-right order.  :data:`SLOT` maps
each (symbol, content bit) to its slot.

One term kernel, :func:`_term_entries`, applies terms to packed
configurations and their content spaces: :mod:`hamline.spectra` runs it
on configuration sets and on every symbol assignment of a chain
(:func:`_window`), :meth:`LocalTerm.matrix` on every symbol assignment
of a term's window.  It applies the projector terms one window at a
time, all terms on a window at once, and tags every entry with the
term that gave it.  Its symbol-level entry, :func:`_symbol_hits`, runs
the projectors that read no content on one code per configuration.

Four term families are built here:

* ``in``   -- penalties on ancilla content |1> in the initial block,
* ``out``  -- penalty on output content |0> at the right chain end,
* ``pen``  -- projectors onto the 124 forbidden (pair, location-type)
  families plus the two chain-end penalties,
* ``prop`` -- for every rewrite rule and every admissible location, two
  projector pieces that pick out the states the rule connects, and hop
  pieces (with a minus sign) that exchange the window contents.  Rule 1
  hops carry the two-qubit gate installed at that location.  Both are
  derived from :data:`chain.RULES` when built.

The propagation pieces are deliberately 2-local; their hops can fire at
mistimed positions and map configurations to locally detectable ones, so
``prop`` as a family is not positive semidefinite.  At the derived
couplings the assembled total is not either, through second-order
leakage that a larger j_pen suppresses (see :mod:`hamline.verify`); the
spectra of interest live on restricted subspaces (see
:mod:`hamline.spectra` and :mod:`hamline.verify`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import product
from math import ceil, log2

import numpy as np

from . import chain
from .chain import BLANK, DEAD, GATE, INSI, PUSHER, QUBIT
from .circuit import LayeredCircuit, gate_at_location

__all__ = [
    "BASIS_LABELS", "SYMBOL_SLOTS", "SLOT", "LocalTerm", "Couplings",
    "HamiltonianSpec", "build_h_in", "build_h_out", "build_h_pen",
    "build_h_prop", "build_pieces", "choose_couplings", "assemble",
    "build_hamiltonian", "expected_census", "census", "export_terms",
    "projector_layout",
]

#: Frozen single-site basis ordering.
BASIS_LABELS = ("insi", "pusher", "blank", "dead",
                "qubit0", "qubit1", "gate0", "gate1")

#: Content slots occupied by each symbol.
SYMBOL_SLOTS: dict[int, tuple[int, ...]] = {
    INSI: (0,), PUSHER: (1,), BLANK: (2,), DEAD: (3,),
    QUBIT: (4, 5), GATE: (6, 7),
}

GATE0, GATE1 = 6, 7
QUBIT0, QUBIT1 = 4, 5


# ---------------------------------------------------------------------------
# Local terms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LocalTerm:
    """One Hermitian block on one or two adjacent sites.

    ``kind`` is "diag" (a projector, described by one slot set per site)
    or "hop" (minus an exchange src -> dst plus its adjoint; rule-1 hops
    also carry a 4x4 content unitary).  ``weight`` is the non-negative
    coupling applied on assembly.
    """

    family: str
    sites: tuple[int, ...]
    kind: str
    diag_slots: tuple[frozenset, ...] | None = None
    src: tuple[int, int] | None = None
    dst: tuple[int, int] | None = None
    gate: tuple | None = None          # flattened 4x4, kept hashable
    rule: str | None = None
    piece: str | None = None
    window: int | None = None      # originating hop window, for prop terms
    weight: float = 1.0

    def gate_matrix(self) -> np.ndarray | None:
        if self.gate is None:
            return None
        return np.array(self.gate, dtype=complex).reshape(4, 4)

    def matrix(self) -> np.ndarray:
        """Dense unweighted block, 8x8 for 1 site or 64x64 for 2 sites:
        the term kernel (:func:`_term_entries`) run on every symbol
        assignment of the window, its entries scattered at their
        :func:`_site_index`.  A hop block is built from T itself and
        returned as -(T + T^dagger)."""
        w = len(self.sites)
        pk, index = _window(w)
        local = replace(self, sites=tuple(range(1, w + 1)),
                        weight=1.0 if self.kind == "diag" else -1.0)
        ((*_, rows, cols, vals),) = _term_entries([local], pk)
        m = np.zeros((8 ** w, 8 ** w), dtype=complex)
        m[index[rows], index[cols]] += vals
        if self.kind == "diag":
            return m
        # a product: unary minus would export -0.0 imaginary parts
        return -1.0 * (m + m.conj().T)


def _per_block(terms, f) -> list:
    """f(t.matrix()) for each term, with f and the block built once per
    distinct block: by the fields that determine :meth:`LocalTerm.matrix`
    (kind, width, slot sets, src, dst, gate).  Gates are keyed by value,
    as numbers: matrix() sums every entry onto +0.0, which drops the signs
    of zero parts.  The memo lives for this call only."""
    memo: dict[tuple, object] = {}
    out = []
    for t in terms:
        key = (t.kind, len(t.sites), t.diag_slots, t.src, t.dst, t.gate)
        if key not in memo:
            memo[key] = f(t.matrix())
        out.append(memo[key])
    return out


def _diag_term(family, sites, slot_sets, rule=None, piece=None, window=None):
    return LocalTerm(family=family, sites=tuple(sites), kind="diag",
                     diag_slots=tuple(frozenset(s) for s in slot_sets),
                     rule=rule, piece=piece, window=window)


def _hop_term(family, sites, src, dst, gate=None, rule=None, window=None):
    flat = None if gate is None else tuple(np.asarray(gate, complex).ravel())
    return LocalTerm(family=family, sites=tuple(sites), kind="hop",
                     src=tuple(src), dst=tuple(dst), gate=flat,
                     rule=rule, piece="hop", window=window)


# ---------------------------------------------------------------------------
# The term kernel
# ---------------------------------------------------------------------------

#: Site state of each (symbol, content bit); a symbol without content
#: reads its one slot for either bit.
SLOT = np.array([[slots[min(b, len(slots) - 1)] for b in (0, 1)]
                 for _, slots in sorted(SYMBOL_SLOTS.items())])


def _site_codes(pk: chain._Packed) -> np.ndarray:
    """Each site's digit of :func:`_site_index` for every basis vector of
    the packed rows, as an (L, dim) array: the :data:`SLOT` of the site's
    symbol and its holder's content bit."""
    cfg, _, content = pk.expand(np.arange(len(pk.S)))
    return SLOT[pk.S[cfg].T, (content >> pk.ranks[cfg].T) & 1]


def _site_index(pk: chain._Packed) -> np.ndarray:
    """The base-8 index (first site most significant) of every basis
    vector of the packed rows, in row order."""
    index = np.zeros(int(pk.offsets[-1]), dtype=np.int64)
    for digit in _site_codes(pk):
        index = 8 * index + digit
    return index


@lru_cache(maxsize=None)
def _window(w: int) -> tuple[chain._Packed, np.ndarray]:
    """Every symbol assignment of a w-site window, packed, with its
    :func:`_site_index`."""
    pk = chain._Packed(np.array(list(product(range(len(SLOT)), repeat=w)),
                                dtype=np.uint8))
    return pk, _site_index(pk)


@lru_cache(maxsize=None)
def _diag_mask(slot_sets: tuple[frozenset, ...]) -> np.ndarray:
    """A diag term's unweighted diagonal on its window, indexed by the
    window's base-8 code (first site most significant): whether every
    site's digit lies in that site's slot set."""
    mask = np.ones(1, dtype=bool)
    for s in slot_sets:
        mask = np.logical_and.outer(mask, np.isin(np.arange(8), tuple(s)))
    return mask.ravel()


def _check_sites(terms, L: int) -> None:
    """The kernel's guard, run before any term touches packed rows of an
    L-site chain: a term past the chain is a ValueError."""
    for t in terms:
        if t.sites[-1] > L:
            raise ValueError(f"term on sites {t.sites} lies past the chain "
                             f"of {L} sites")


def _gather(terms, codes: np.ndarray):
    """(term, column) of every nonzero of the diag terms on columns of
    site digits ``codes`` (L, columns): per window, each column's code
    gathers the window's :func:`_diag_mask` table, each term's columns
    in order, after :func:`_check_sites`."""
    _check_sites(terms, len(codes))
    windows: dict[tuple[int, int], list[int]] = {}
    for j, t in enumerate(terms):
        if t.kind == "diag":
            windows.setdefault((t.sites[0], len(t.sites)), []).append(j)
    for (i, w), js in windows.items():
        code = np.zeros(codes.shape[1], dtype=np.intp)
        for digit in codes[i - 1:i - 1 + w]:
            code = 8 * code + digit
        table = np.array([_diag_mask(terms[j].diag_slots) for j in js])
        k, idx = np.nonzero(table[:, code])
        yield np.asarray(js)[k], idx


def _term_entries(terms, pk: chain._Packed):
    """The term kernel: the terms' weighted entries on the packed
    configurations' content spaces, as (kind, term, rows, cols, values)
    in global basis indices, ``term`` each entry's index in ``terms``.

    Diag terms give their diagonals (rows == cols), :func:`_gather` on
    the basis vectors' :func:`_site_codes`.  Hop terms follow in term
    order: each gives its transfer part T only, -weight times the rule-1
    gate entry (or 1), from each source configuration to its destination
    where that is packed too; the term's other half is T^dagger.
    """
    weight = np.array([t.weight for t in terms], dtype=float)
    for term, idx in _gather(terms, _site_codes(pk)):
        yield "diag", term, idx, idx, weight[term]
    for j, t in enumerate(terms):
        if t.kind == "diag":
            continue
        i = t.sites[0]
        src, dst, found, _ = pk.hop(i, t.src, t.dst)
        cfg, idx, content = pk.expand(src[found])
        dst_off = np.repeat(pk.offsets[dst[found]], pk.cdim[src[found]])
        w = -t.weight
        u = t.gate_matrix()
        if u is None:
            rows, cols = dst_off + content, idx
            vals = np.full(len(idx), w, dtype=complex)
        else:
            # rule-1 gate on content bits (a, a+1): the holders at i, i+1
            a = pk.ranks[cfg, i - 1]
            bits_in = 2 * ((content >> a) & 1) + ((content >> (a + 1)) & 1)
            cleared = content & ~(3 << a)
            out_idx, col_idx, val = [], [], []
            for b in range(4):
                g = u[b, bits_in]
                nz = g != 0
                out = dst_off + (cleared | ((b >> 1) << a)
                                 | ((b & 1) << (a + 1)))
                out_idx.append(out[nz])
                col_idx.append(idx[nz])
                val.append(w * g[nz])
            rows, cols, vals = map(np.concatenate, (out_idx, col_idx, val))
        yield "hop", np.full(len(rows), j), rows, cols, vals


@lru_cache(maxsize=None)
def _reads_content(slot_sets: tuple[frozenset, ...]) -> bool:
    """Whether a slot set holds one slot of a holder but not the other."""
    return any(len(s & {a, b}) == 1 for s in slot_sets
               for a, b in ((QUBIT0, QUBIT1), (GATE0, GATE1)))


def _symbol_hits(terms, configs) -> tuple[np.ndarray, np.ndarray]:
    """The term kernel at symbol level: (term, row) of every hit on
    ``configs``, :func:`_gather` on one code per configuration with each
    holder at content bit 0.  That is exact for diag terms that do not
    :func:`_reads_content`; any other term is a ValueError."""
    for t in terms:
        if t.kind != "diag" or _reads_content(t.diag_slots):
            raise ValueError(f"the {t.family} term on sites {t.sites} has "
                             "no symbol-level value")
    term, row = zip((np.zeros(0, np.intp),) * 2,
                    *_gather(terms, SLOT[chain._rows_of(configs), 0].T))
    return np.concatenate(term), np.concatenate(row)


# ---------------------------------------------------------------------------
# The four families
# ---------------------------------------------------------------------------

def build_h_in(n: int, m: int) -> list[LocalTerm]:
    """Ancilla penalties: gate content |1> at site 1, qubit content |1>
    at odd sites 3..2(n-m)-1 of the first block."""
    if not 1 <= m <= n:
        raise ValueError("need 1 <= m <= n")
    terms = [_diag_term("in", (1,), [{GATE1}])]
    for i in range(2, n - m + 1):
        terms.append(_diag_term("in", (2 * i - 1,), [{QUBIT1}]))
    return terms


def build_h_out(n: int, R: int) -> list[LocalTerm]:
    """Output penalty: gate content |0> at the last site."""
    return [_diag_term("out", (2 * n * R,), [{GATE0}])]


def build_h_pen(n: int, R: int,
                drop_family: tuple[int, int, str] | None = None
                ) -> list[LocalTerm]:
    """Projectors onto every forbidden (pair, location-type) family at
    every pair of that type, plus the two chain-end penalties.

    ``drop_family`` omits one (x, y, type) family: the census fault
    installs this function at that value in the module's place.
    """
    L = 2 * n * R
    types = chain.location_types(n, R)
    terms = []
    for (x, y, t) in chain.forbidden_families():
        if drop_family == (x, y, t):
            continue
        for i, ti in enumerate(types, 1):
            if ti == t:
                terms.append(_diag_term(
                    "pen", (i, i + 1),
                    [SYMBOL_SLOTS[x], SYMBOL_SLOTS[y]]))
    # the chain ends: every symbol outside the allowed end symbols
    for site, allowed in ((1, chain.LEFT_END_ALLOWED),
                          (L, chain.RIGHT_END_ALLOWED)):
        terms.append(_diag_term("pen", (site,), [
            {s for sym, slots in SYMBOL_SLOTS.items() if sym not in allowed
             for s in slots}]))
    return terms


def projector_layout(n: int, R: int) -> list[LocalTerm]:
    """The propagation family's projector terms, derived from
    :data:`chain.RULES` in its by-parent order: the forward (xy)
    projector is (prev, before[0]) at offset -1 when the rule has a
    ``prev`` context, else ``before`` at 0; the backward (zw) one is
    (after[1], next2) at +1 when it has a ``next2`` context, else
    ``after`` at 0.  Equal rows of one parent rule are merged, their
    window types joined.

    At each window i, every row admitting i's location type puts its
    pair on (i+offset, i+offset+1), less a factor on a site outside the
    chain (a single-site projector at a chain end).
    """
    rows: dict[tuple, frozenset] = {}
    for r in chain._by_parent():
        ctx = dict(r.context)
        xy = (-1, (ctx[-1], r.before[0])) if -1 in ctx else (0, r.before)
        zw = (+1, (r.after[1], ctx[2])) if 2 in ctx else (0, r.after)
        for piece, (off, pair) in (("xy", xy), ("zw", zw)):
            key = (r.rid[0], piece, off, pair)
            rows[key] = rows.get(key, frozenset()) | r.types
    L, out = 2 * n * R, []
    for i, t in enumerate(chain.location_types(n, R), 1):
        for (rule, piece, off, pair), types in rows.items():
            if t in types:
                sites, syms = zip(*((j, s) for j, s in enumerate(
                    pair, i + off) if 1 <= j <= L))
                out.append(_diag_term("prop", sites,
                                      [SYMBOL_SLOTS[s] for s in syms],
                                      rule=rule, piece=piece, window=i))
    return out


def build_h_prop(circ: LayeredCircuit) -> list[LocalTerm]:
    """Propagation family: the projector terms of
    :func:`projector_layout` plus hop pieces from the chain's transition
    terms; rule-1 hops carry the gate installed at their location."""
    n, R = circ.n, circ.R
    terms, transitions = projector_layout(n, R), chain.transition_terms()
    for i, t in enumerate(chain.location_types(n, R), 1):
        for tt in transitions:
            if t not in tt.types:
                continue
            gate = None
            if tt.rid == "1":
                gate = gate_at_location(circ, i).matrix
            terms.append(_hop_term("prop", (i, i + 1), tt.before, tt.after,
                                   gate=gate, rule=tt.rid, window=i))
    return terms


def build_pieces(circ: LayeredCircuit) -> dict[str, list[LocalTerm]]:
    """All four families for one circuit."""
    n, R = circ.n, circ.R
    return {
        "in": build_h_in(n, circ.m),
        "prop": build_h_prop(circ),
        "pen": build_h_pen(n, R),
        "out": build_h_out(n, R),
    }


# ---------------------------------------------------------------------------
# Couplings and assembly
# ---------------------------------------------------------------------------

def _next_pow2(x: float) -> float:
    return float(2 ** max(0, ceil(log2(x))))


@dataclass(frozen=True)
class Couplings:
    """The three coupling strengths.  Each single term has operator norm
    at most 1, so a family's norm is at most its term count from
    :func:`expected_census` (triangle inequality; cheap but rigorous)."""

    j_in: float
    j_prop: float
    j_pen: float

    def self_check(self, n: int, m: int, R: int) -> bool:
        """The three subspace-gap inequalities, each with a factor-2 margin."""
        b, K = expected_census(n, m, R), chain.step_count(n, R)
        ok_in = self.j_in / (K + 1) > 2 * b["out"]
        ok_prop = self.j_prop / (2.0 * (K + 1) ** 2) \
            > 2 * (b["out"] + self.j_in * b["in"])
        ok_pen = self.j_pen > 2 * (b["out"] + self.j_in * b["in"]
                                   + self.j_prop * b["prop"])
        return ok_in and ok_prop and ok_pen


UNIT_COUPLINGS = Couplings(1.0, 1.0, 1.0)


def choose_couplings(n: int, R: int, circ: LayeredCircuit) -> Couplings:
    """Smallest powers of two giving each subspace-gap inequality a
    factor-2 margin, solved in the order j_in, j_prop, j_pen.

    Every local term is a projector or a normed hop pair, so operator
    norms are bounded by term counts.  The couplings grow monotonically
    with K.
    """
    K, b = chain.step_count(n, R), expected_census(n, circ.m, R)
    b_out, b_in, b_prop = b["out"], b["in"], b["prop"]
    j_in = _next_pow2(4.0 * (K + 1) * b_out)
    j_prop = _next_pow2(8.0 * (K + 1) ** 2 * (b_out + j_in * b_in))
    j_pen = _next_pow2(4.0 * (b_out + j_in * b_in + j_prop * b_prop))
    return Couplings(j_in, j_prop, j_pen)


@dataclass(frozen=True)
class HamiltonianSpec:
    """A fully assembled Hamiltonian: weighted local terms in canonical
    order (in, prop, pen, out; within a family by rule, site, piece)."""

    n: int
    m: int
    R: int
    K: int
    couplings: Couplings
    terms: tuple[LocalTerm, ...]


_FAMILY_ORDER = ("in", "prop", "pen", "out")


def assemble(pieces: dict[str, list[LocalTerm]], couplings: Couplings,
             n: int, m: int, R: int) -> HamiltonianSpec:
    """Concatenate the weighted families into one term list."""
    weight = {"in": couplings.j_in, "prop": couplings.j_prop,
              "pen": couplings.j_pen, "out": 1.0}
    terms = []
    for fam in _FAMILY_ORDER:
        fam_terms = sorted(
            pieces.get(fam, ()),
            key=lambda t: (t.rule or "", t.sites, t.piece or "", t.kind))
        terms += [replace(t, weight=weight[fam]) for t in fam_terms]
    return HamiltonianSpec(n=n, m=m, R=R, K=chain.step_count(n, R),
                           couplings=couplings, terms=tuple(terms))


def build_hamiltonian(circ: LayeredCircuit,
                      couplings: Couplings | None = None) -> HamiltonianSpec:
    """Convenience: pieces + couplings + assembly in one call."""
    pieces = build_pieces(circ)
    if couplings is None:
        couplings = choose_couplings(circ.n, circ.R, circ)
    return assemble(pieces, couplings, circ.n, circ.m, circ.R)


# ---------------------------------------------------------------------------
# Census
# ---------------------------------------------------------------------------

def expected_census(n: int, m: int, R: int) -> dict[str, int]:
    """Closed-form term counts per family.

    in:   1 + max(0, n-m-1)
    out:  1
    pen:  sum over types of  #pairs(type) * #forbidden(type),  plus 2 ends
    prop: per window, 2 projectors + 1 hop for rules 1/2/5 (at their
          types), 3 projectors + 1 hop for rules 4/6 (at B and D), and
          4 projectors + 3 or 4 hops for rule 3 (4 hops only at type A).
    """
    pc = {"A": R * (n - 2), "B": R * (n - 1), "C": R, "D": R - 1, "E": R}
    forbidden_by_type = {t: 0 for t in "ABCDE"}
    for (_, _, t) in chain.forbidden_families():
        forbidden_by_type[t] += 1
    pen = 2 + sum(pc[t] * forbidden_by_type[t] for t in "ABCDE")
    n_b, n_d = pc["B"], pc["D"]
    n_ace = pc["A"] + pc["C"] + pc["E"]
    prop = (
        3 * n_b                      # rule 1 at B
        + 3 * n_ace                  # rule 2 at A, C, E
        + 4 * n_ace                  # rule 3 projectors
        + 2 * n_ace + (pc["A"] + pc["E"]) + (pc["A"] + pc["C"])
        # rule 3 hops: two at every ACE pair, one more at AE, one at AC
        + 3 * (n_b + n_d)            # rule 4 at B and D
        + 3 * (n_ace + n_b + n_d)    # rule 5 everywhere
        + 3 * (n_b + n_d)            # rule 6 at B and D
    )
    return {"in": 1 + max(0, n - m - 1), "out": 1, "pen": pen, "prop": prop}


def census(spec: HamiltonianSpec) -> dict[str, int]:
    out: dict[str, int] = {}
    for t in spec.terms:
        out[t.family] = out.get(t.family, 0) + 1
    return out


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

#: Stand-in for the matrix in a term's JSON line; no other field can
#: encode to it.
_MATRIX_SPLICE = "\0matrix"


def export_terms(spec: HamiltonianSpec) -> str:
    """Structured text export: one JSON header line, one JSON line per
    term with the dense block in basis order, row-major, re/im pairs.

    Many terms share one block (a family repeats at every window of its
    location type), so each distinct block is built and encoded once
    (:func:`_per_block`).  A block holds few distinct values, so each of
    its distinct entries (by the bit patterns of its two parts, grouped
    by one lexsort, which keeps -0.0 apart from 0.0) is JSON-encoded once
    and the pieces are spliced into the block's text in entry order.
    """
    import json

    lines = [json.dumps({
        "format": "hamline-terms-v1",
        "n": spec.n, "m": spec.m, "R": spec.R, "K": spec.K,
        "couplings": {"j_in": spec.couplings.j_in,
                      "j_prop": spec.couplings.j_prop,
                      "j_pen": spec.couplings.j_pen},
        "basis": list(BASIS_LABELS),
        "terms": len(spec.terms),
    }, sort_keys=True)]
    splice = json.dumps(_MATRIX_SPLICE)

    def encode(block: np.ndarray) -> str:
        bits = block.ravel().view(np.uint64).reshape(-1, 2)
        order = np.lexsort(bits.T[::-1])
        re, im = bits[order].T
        first = np.r_[True, (re[1:] != re[:-1]) | (im[1:] != im[:-1])]
        inverse = np.empty_like(order)
        inverse[order] = np.cumsum(first) - 1
        pieces = [json.dumps([v.real, v.imag])
                  for v in block.ravel()[order[first]].tolist()]
        return "[" + ", ".join(
            np.array(pieces, dtype=object)[inverse].tolist()) + "]"

    for t, matrix in zip(spec.terms, _per_block(spec.terms, encode)):
        lines.append(json.dumps({
            "family": t.family, "rule": t.rule, "piece": t.piece,
            "sites": list(t.sites), "weight": t.weight,
            "matrix": _MATRIX_SPLICE,
        }, sort_keys=True).replace(splice, matrix, 1))
    return "\n".join(lines) + "\n"


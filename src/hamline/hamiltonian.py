"""Local Hamiltonian terms for the 8-state chain construction.

Every term acts on one or two adjacent sites of the chain.  The 8
single-site basis states are ordered

    [insi, pusher, blank, dead, qubit0, qubit1, gate0, gate1]

(indices 0..7, frozen; all matrix exports use this ordering).  The two
qubit-holding symbols occupy two slots each; symbol-level projectors sum
over the content slots, and transition ("hop") terms move the content
between sites, pairing slots in left-to-right order.

Four term families are built here:

* ``in``   -- penalties on ancilla content |1> in the initial block,
* ``out``  -- penalty on output content |0> at the right chain end,
* ``pen``  -- projectors onto the 124 forbidden (pair, location-type)
  families plus the two chain-end penalties,
* ``prop`` -- for every rewrite rule and every admissible location, two
  projector pieces that pick out the states the rule connects, and hop
  pieces (with a minus sign) that exchange the window contents.  Rule 1
  hops carry the two-qubit gate installed at that location.

The propagation pieces are deliberately 2-local; their hops can fire at
mistimed positions and map configurations to locally detectable ones.
As a consequence neither ``prop`` as a family nor the assembled total is
positive semidefinite; the spectra of interest live on restricted
subspaces (see :mod:`hamline.spectra` and :mod:`hamline.verify`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil, log2

import numpy as np

from . import chain
from .chain import (BLANK, DEAD, GATE, INSI, PUSHER, QUBIT,
                    TRANSITION_TERMS, TransitionTerm, location_type)
from .circuit import LayeredCircuit, gate_at_location

__all__ = [
    "BASIS_LABELS", "SYMBOL_SLOTS", "LocalTerm", "Couplings",
    "HamiltonianSpec", "build_h_in", "build_h_out", "build_h_pen",
    "build_h_prop", "build_pieces", "choose_couplings", "assemble",
    "build_hamiltonian", "expected_census", "census", "export_terms",
    "projector_layout",
]

HERMITICITY_TOL = 1e-14

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


def _slotset(*symbols: int) -> frozenset[int]:
    out = set()
    for s in symbols:
        out.update(SYMBOL_SLOTS[s])
    return frozenset(out)


# ---------------------------------------------------------------------------
# Local terms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LocalTerm:
    """One Hermitian block on one or two adjacent sites.

    ``kind`` is "diag" (a projector, described by one slot set per site)
    or "hop" (an exchange src -> dst plus its adjoint, scaled by
    ``sign``; rule-1 hops also carry a 4x4 content unitary).  ``weight``
    is the non-negative coupling applied on assembly.
    """

    family: str
    sites: tuple[int, ...]
    kind: str
    diag_slots: tuple[frozenset, ...] | None = None
    src: tuple[int, int] | None = None
    dst: tuple[int, int] | None = None
    gate: tuple | None = None          # flattened 4x4, kept hashable
    sign: float = 1.0
    rule: str | None = None
    piece: str | None = None
    window: int | None = None      # originating hop window, for prop terms
    weight: float = 1.0

    # -- structured accessors ------------------------------------------------

    def gate_matrix(self) -> np.ndarray | None:
        if self.gate is None:
            return None
        return np.array(self.gate, dtype=complex).reshape(4, 4)

    def site_diag(self, k: int) -> np.ndarray:
        """Indicator vector (length 8) of the k-th site's projector factor."""
        v = np.zeros(8)
        v[sorted(self.diag_slots[k])] = 1.0
        return v

    def hop_entries(self) -> list[tuple[int, int, complex]]:
        """(dst64, src64, value) triples of the bare transfer operator.

        The full block is sign * (T + T^dagger); only T is listed here.
        Content bits travel with the qubit-holding symbols, paired in
        left-to-right order.
        """
        (x, y), (p, q) = self.src, self.dst
        u = self.gate_matrix()
        out = []
        for sx in SYMBOL_SLOTS[x]:
            for sy in SYMBOL_SLOTS[y]:
                bits = []
                if x in chain.QUBIT_HOLDING:
                    bits.append(sx - SYMBOL_SLOTS[x][0])
                if y in chain.QUBIT_HOLDING:
                    bits.append(sy - SYMBOL_SLOTS[y][0])
                src64 = 8 * sx + sy
                if u is None:
                    k = 0
                    sp = SYMBOL_SLOTS[p][bits[k]] if p in chain.QUBIT_HOLDING \
                        else SYMBOL_SLOTS[p][0]
                    k += 1 if p in chain.QUBIT_HOLDING else 0
                    sq = SYMBOL_SLOTS[q][bits[k]] if q in chain.QUBIT_HOLDING \
                        else SYMBOL_SLOTS[q][0]
                    out.append((8 * sp + sq, src64, 1.0 + 0j))
                else:
                    s, t = bits  # gate hop: both window sites hold content
                    for sp_bit in (0, 1):
                        for sq_bit in (0, 1):
                            val = u[2 * sp_bit + sq_bit, 2 * s + t]
                            if val != 0:
                                d64 = 8 * SYMBOL_SLOTS[p][sp_bit] \
                                    + SYMBOL_SLOTS[q][sq_bit]
                                out.append((d64, src64, complex(val)))
        return out

    def diagonal(self) -> np.ndarray:
        """Unweighted diagonal of a diag term's block (length 8 or 64)."""
        d = self.site_diag(0)
        if len(self.sites) == 2:
            d = np.kron(d, self.site_diag(1))
        return d

    def matrix(self) -> np.ndarray:
        """Dense unweighted block, 8x8 for 1 site or 64x64 for 2 sites."""
        dim = 8 ** len(self.sites)
        if self.kind == "diag":
            return np.diag(self.diagonal()).astype(complex)
        m = np.zeros((dim, dim), dtype=complex)
        for d64, s64, val in self.hop_entries():
            m[d64, s64] += val
        return self.sign * (m + m.conj().T)


def _diag_term(family, sites, slot_sets, rule=None, piece=None, window=None):
    return LocalTerm(family=family, sites=tuple(sites), kind="diag",
                     diag_slots=tuple(frozenset(s) for s in slot_sets),
                     rule=rule, piece=piece, window=window)


def _hop_term(family, sites, src, dst, gate=None, sign=-1.0,
              rule=None, piece="hop", window=None):
    flat = None if gate is None else tuple(np.asarray(gate, complex).ravel())
    return LocalTerm(family=family, sites=tuple(sites), kind="hop",
                     src=tuple(src), dst=tuple(dst), gate=flat,
                     sign=sign, rule=rule, piece=piece, window=window)


# ---------------------------------------------------------------------------
# The four families
# ---------------------------------------------------------------------------

def build_h_in(n: int, m: int, R: int) -> list[LocalTerm]:
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

    ``drop_family`` omits one (x, y, type) family; this exists only for
    fault-injection tests.
    """
    L = 2 * n * R
    terms = []
    for (x, y, t) in chain.forbidden_families():
        if drop_family == (x, y, t):
            continue
        for i in range(1, L):
            if location_type(i, n, R) == t:
                terms.append(_diag_term(
                    "pen", (i, i + 1),
                    [SYMBOL_SLOTS[x], SYMBOL_SLOTS[y]]))
    # only dead/gate may start the chain, only gate/blank may end it
    terms.append(_diag_term("pen", (1,),
                            [_slotset(BLANK, QUBIT, PUSHER, INSI)]))
    terms.append(_diag_term("pen", (L,),
                            [_slotset(DEAD, QUBIT, PUSHER, INSI)]))
    return terms


# Projector layout of the propagation family: for each rule and window
# type, where the forward (xy) and backward (zw) identifying projectors
# sit relative to the hop window, and which symbol pair they project on.
# Offset -1 means the pair (i-1, i), 0 the window itself, +1 (i+1, i+2).
_PROJ_SPECS: tuple[tuple[str, str, str, int, tuple[int, int]], ...] = (
    ("1", "B", "xy", 0, (GATE, QUBIT)),
    ("1", "B", "zw", 0, (QUBIT, GATE)),
    ("2", "A", "xy", 0, (GATE, INSI)),
    ("2", "A", "zw", 0, (INSI, GATE)),
    ("2", "C", "xy", 0, (GATE, INSI)),
    ("2", "C", "zw", 0, (DEAD, GATE)),
    ("2", "E", "xy", 0, (GATE, BLANK)),
    ("2", "E", "zw", 0, (INSI, GATE)),
    ("3", "ACE", "xy", -1, (QUBIT, QUBIT)),
    ("3", "ACE", "zw", +1, (QUBIT, QUBIT)),
    ("3", "ACE", "xy", -1, (DEAD, QUBIT)),
    ("3", "ACE", "zw", +1, (QUBIT, BLANK)),
    ("4", "B", "xy", 0, (QUBIT, BLANK)),
    ("4", "B", "zw", +1, (PUSHER, BLANK)),
    ("4", "D", "xy", 0, (GATE, BLANK)),
    ("4", "D", "zw", +1, (PUSHER, BLANK)),
    ("5", "ACE", "xy", 0, (INSI, PUSHER)),
    ("5", "ACE", "zw", 0, (PUSHER, INSI)),
    ("5", "BD", "xy", 0, (QUBIT, PUSHER)),
    ("5", "BD", "zw", 0, (PUSHER, QUBIT)),
    ("6", "B", "xy", -1, (DEAD, PUSHER)),
    ("6", "B", "zw", 0, (DEAD, QUBIT)),
    ("6", "D", "xy", -1, (DEAD, PUSHER)),
    ("6", "D", "zw", 0, (DEAD, GATE)),
)


def projector_layout(n: int, R: int):
    """Every projector piece of the propagation family, as
    (rule, piece, sites, symbols, window) with chain-end truncation
    applied.

    Truncation drops projector factors whose site falls outside the
    chain, leaving a single-site projector; hop pieces are never
    truncated (their window always lies inside the chain).
    """
    L = 2 * n * R
    out = []
    for i in range(1, L):
        t = location_type(i, n, R)
        for rule, types, piece, off, (a, b) in _PROJ_SPECS:
            if t not in types:
                continue
            j = i + off
            if j >= 1 and j + 1 <= L:
                out.append((rule, piece, (j, j + 1), (a, b), i))
            elif j == 0:
                out.append((rule, piece, (1,), (b,), i))
            else:  # j + 1 == L + 1
                out.append((rule, piece, (L,), (a,), i))
    return out


def build_h_prop(circ: LayeredCircuit,
                 transitions: tuple[TransitionTerm, ...] = TRANSITION_TERMS
                 ) -> list[LocalTerm]:
    """Propagation family: projector pieces from :func:`projector_layout`
    plus hop pieces from the chain's transition terms; rule-1 hops carry
    the gate installed at their location."""
    n, R = circ.n, circ.R
    L = 2 * n * R
    terms = []
    for rule, piece, sites, syms, window in projector_layout(n, R):
        terms.append(_diag_term("prop", sites,
                                [SYMBOL_SLOTS[s] for s in syms],
                                rule=rule, piece=piece, window=window))
    for i in range(1, L):
        t = location_type(i, n, R)
        for tt in transitions:
            if t not in tt.types:
                continue
            gate = None
            if tt.rule == "1":
                gate = gate_at_location(circ, i).matrix
            terms.append(_hop_term("prop", (i, i + 1), tt.src, tt.dst,
                                   gate=gate, rule=tt.rule, window=i))
    return terms


def build_pieces(circ: LayeredCircuit,
                 transitions: tuple[TransitionTerm, ...] = TRANSITION_TERMS,
                 drop_pen_family=None) -> dict[str, list[LocalTerm]]:
    """All four families for one circuit."""
    n, R = circ.n, circ.R
    return {
        "in": build_h_in(n, circ.m, R),
        "prop": build_h_prop(circ, transitions),
        "pen": build_h_pen(n, R, drop_family=drop_pen_family),
        "out": build_h_out(n, R),
    }


# ---------------------------------------------------------------------------
# Couplings and assembly
# ---------------------------------------------------------------------------

def _next_pow2(x: float) -> float:
    return float(2 ** max(0, ceil(log2(x))))


@dataclass(frozen=True)
class Couplings:
    """The three coupling strengths and the norm bounds they were derived
    from.  Each single term has operator norm at most 1, so the bound for
    a family is its term count (triangle inequality; cheap but rigorous)."""

    j_in: float
    j_prop: float
    j_pen: float
    bounds: tuple = field(default=(), compare=False)

    def bound(self, name: str) -> float:
        return dict(self.bounds)[name]

    def self_check(self, K: int) -> bool:
        """The three subspace-gap inequalities, each with a factor-2 margin."""
        b = dict(self.bounds)
        ok_in = self.j_in / (K + 1) > 2 * b["out"]
        ok_prop = self.j_prop / (2.0 * (K + 1) ** 2) \
            > 2 * (b["out"] + self.j_in * b["in"])
        ok_pen = self.j_pen > 2 * (b["out"] + self.j_in * b["in"]
                                   + self.j_prop * b["prop"])
        return ok_in and ok_prop and ok_pen


UNIT_COUPLINGS = Couplings(1.0, 1.0, 1.0,
                           bounds=(("in", 0.0), ("prop", 0.0), ("out", 0.0)))


def choose_couplings(n: int, R: int, circ: LayeredCircuit) -> Couplings:
    """Smallest powers of two giving each subspace-gap inequality a
    factor-2 margin, solved in the order j_in, j_prop, j_pen.

    Every local term is a projector or a normed hop pair, so operator
    norms are bounded by term counts.  The couplings grow monotonically
    with K.
    """
    K = chain.step_count(n, R)
    b_out = float(len(build_h_out(n, R)))
    b_in = float(len(build_h_in(n, circ.m, R)))
    b_prop = float(len(build_h_prop(circ)))
    j_in = _next_pow2(4.0 * (K + 1) * b_out)
    j_prop = _next_pow2(8.0 * (K + 1) ** 2 * (b_out + j_in * b_in))
    j_pen = _next_pow2(4.0 * (b_out + j_in * b_in + j_prop * b_prop))
    return Couplings(j_in, j_prop, j_pen,
                     bounds=(("in", b_in), ("prop", b_prop), ("out", b_out)))


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

    def family_terms(self, family: str) -> list[LocalTerm]:
        return [t for t in self.terms if t.family == family]


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
        for t in fam_terms:
            terms.append(LocalTerm(
                family=t.family, sites=t.sites, kind=t.kind,
                diag_slots=t.diag_slots, src=t.src, dst=t.dst, gate=t.gate,
                sign=t.sign, rule=t.rule, piece=t.piece, window=t.window,
                weight=weight[fam]))
    return HamiltonianSpec(n=n, m=m, R=R, K=chain.step_count(n, R),
                           couplings=couplings, terms=tuple(terms))


def build_hamiltonian(circ: LayeredCircuit,
                      couplings: Couplings | None = None,
                      transitions=TRANSITION_TERMS,
                      drop_pen_family=None) -> HamiltonianSpec:
    """Convenience: pieces + couplings + assembly in one call."""
    pieces = build_pieces(circ, transitions, drop_pen_family)
    if couplings is None:
        couplings = choose_couplings(circ.n, circ.R, circ)
    return assemble(pieces, couplings, circ.n, circ.m, circ.R)


# ---------------------------------------------------------------------------
# Census
# ---------------------------------------------------------------------------

def _pair_counts(n: int, R: int) -> dict[str, int]:
    return {"A": R * (n - 2), "B": R * (n - 1), "C": R, "D": R - 1, "E": R}


def expected_census(n: int, m: int, R: int) -> dict[str, int]:
    """Closed-form term counts per family.

    in:   1 + max(0, n-m-1)
    out:  1
    pen:  sum over types of  #pairs(type) * #forbidden(type),  plus 2 ends
    prop: per window, 2 projectors + 1 hop for rules 1/2/5 (at their
          types), 3 projectors + 1 hop for rules 4/6 (at B and D), and
          4 projectors + 3 or 4 hops for rule 3 (4 hops only at type A).
    """
    pc = _pair_counts(n, R)
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

    A block holds few distinct values, so each distinct entry (by bit
    pattern, which keeps -0.0 apart from 0.0) is JSON-encoded once, with
    a cache shared across terms, and the pieces are spliced into the
    term's line in entry order.
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
    encoded: dict[bytes, str] = {}
    splice = json.dumps(_MATRIX_SPLICE)
    for t in spec.terms:
        entries = t.matrix().ravel()
        keys, inverse = np.unique(entries.view(np.dtype((np.void, 16))),
                                  return_inverse=True)
        pieces = []
        for key in keys.tolist():
            text = encoded.get(key)
            if text is None:
                v = np.frombuffer(key, dtype=complex)[0]
                text = encoded[key] = json.dumps([v.real, v.imag])
            pieces.append(text)
        matrix = "[" + ", ".join(
            np.array(pieces, dtype=object)[inverse.ravel()].tolist()) + "]"
        lines.append(json.dumps({
            "family": t.family, "rule": t.rule, "piece": t.piece,
            "sites": list(t.sites), "weight": t.weight,
            "matrix": _MATRIX_SPLICE,
        }, sort_keys=True).replace(splice, matrix, 1))
    return "\n".join(lines) + "\n"


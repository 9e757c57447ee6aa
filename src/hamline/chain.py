"""Configuration automaton on a chain of 8-state sites.

A chain of ``2*n*R`` sites (R blocks of 2n) carries one of six symbol
classes per site.  Two of the classes (QUBIT, GATE) hold a qubit's worth
of internal content; the machinery in this module works purely at the
symbol level and leaves amplitudes to :mod:`hamline.spectra`.

The module provides

* the five location types A-E for adjacent site pairs,
* the allowed-pair table (56 allowed (pair, type) combinations, 124
  forbidden families),
* the one table of the fourteen rewrite rules, :data:`RULES`, read
  where it is used (a mutant is installed by replacing it), with
  forward / backward matching and application; the transition terms
  are the rules without context,
* the legal sequence (deterministic run from the initial configuration)
  and an independent closed-form template generator for the same
  sequence,
* configuration classification (legal / locally detectable illegal /
  locally undetectable illegal),
* exploration tools: invariant sets under the two-site exchange terms
  and the detectability horizon of undetectable configurations.

Which move fires where comes from one move index per (n, R, table)
(:func:`_move_index`): the rule scans and application, the legal
sequence, the exchange neighbours and both horizons read it, and the
allowed-pair test reads per-window pair sets; all are held while the
tables stay installed (:func:`_per_table`).  Sets of configurations
share one packed form with :mod:`hamline.spectra` (:class:`_Packed`);
invariant sets are frontier closures over packed rows.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from functools import lru_cache, wraps
from typing import NamedTuple

import numpy as np

__all__ = [
    "INSI", "PUSHER", "BLANK", "DEAD", "QUBIT", "GATE",
    "SYMBOL_CHARS", "QUBIT_HOLDING",
    "Configuration", "RuleInstance", "Rule", "RULES", "transition_terms",
    "ConfigClass", "InvariantSet",
    "location_type", "pair_allowed", "forbidden_families",
    "initial_configuration", "forward_rules", "backward_rules",
    "apply_rule", "legal_sequence", "annotated_sequence",
    "template_sequence", "legal_configuration_count", "step_count",
    "classify", "invariant_set", "detect_horizon", "exchange_horizon",
    "allowed_configurations", "undetectable_configurations",
    "mutated_rules",
]

# ---------------------------------------------------------------------------
# Symbols
# ---------------------------------------------------------------------------

INSI, PUSHER, BLANK, DEAD, QUBIT, GATE = range(6)

#: One character per symbol, indexed by symbol code.
SYMBOL_CHARS = "i<.xqg"
_CHAR_TO_SYMBOL = {c: s for s, c in enumerate(SYMBOL_CHARS)}

#: Symbols that carry one qubit of internal content.
QUBIT_HOLDING = frozenset({QUBIT, GATE})

#: Symbols permitted at the two chain ends (everything else is penalized).
LEFT_END_ALLOWED = frozenset({DEAD, GATE})
RIGHT_END_ALLOWED = frozenset({GATE, BLANK})


# ---------------------------------------------------------------------------
# Configurations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Configuration:
    """A symbol assignment for every site of an (n, R) chain.

    ``sites`` is a length ``2*n*R`` byte string of symbol codes; site
    indices are 1-based throughout the package.
    """

    n: int
    R: int
    sites: bytes

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need n >= 2 qubits")
        if self.R < 1:
            raise ValueError("need R >= 1 blocks")
        if len(self.sites) != 2 * self.n * self.R:
            raise ValueError(
                f"expected {2 * self.n * self.R} sites, got {len(self.sites)}")
        if any(s > GATE for s in self.sites):
            raise ValueError("invalid symbol code")

    @property
    def length(self) -> int:
        return 2 * self.n * self.R

    def holder_count(self) -> int:
        return sum(1 for s in self.sites if s in QUBIT_HOLDING)

    @classmethod
    def _trusted(cls, n: int, R: int, sites: bytes) -> "Configuration":
        """A configuration without revalidation, for sites made by the
        rule or term tables or read from packed rows of valid ones."""
        c = object.__new__(cls)
        c.__dict__.update(n=n, R=R, sites=sites)
        return c

    @classmethod
    def from_string(cls, text: str, n: int, R: int) -> "Configuration":
        """Parse the one-character-per-site notation; '|' is ignored."""
        codes = bytearray()
        for ch in text.strip():
            if ch == "|":
                continue
            if ch not in _CHAR_TO_SYMBOL:
                raise ValueError(f"unknown site character {ch!r}")
            codes.append(_CHAR_TO_SYMBOL[ch])
        return cls(n, R, bytes(codes))

    def to_string(self) -> str:
        """Render as text, with '|' at the block boundaries."""
        chars = [SYMBOL_CHARS[s] for s in self.sites]
        w = 2 * self.n
        return "|".join("".join(chars[k:k + w])
                        for k in range(0, len(chars), w))

    def __str__(self) -> str:
        return self.to_string()


def initial_configuration(n: int, R: int) -> Configuration:
    """Start state: first block GATE INSI (QUBIT INSI)^(n-2) QUBIT BLANK,
    every later block all BLANK."""
    first = [GATE, INSI] + [QUBIT, INSI] * (n - 2) + [QUBIT, BLANK]
    return Configuration(n, R, bytes(first + [BLANK] * (2 * n * (R - 1))))


# ---------------------------------------------------------------------------
# Location types
# ---------------------------------------------------------------------------

def location_type(i: int, n: int, R: int) -> str:
    """Type of the pair (i, i+1), 1 <= i <= 2nR-1.

    C: first pair of a block (i = 2(k-1)n+1), E: last pair inside a block
    (i = 2kn-1), D: pair straddling a block boundary (i = 2k'n), B: other
    even i, A: other odd i.
    """
    if not 1 <= i <= 2 * n * R - 1:
        raise ValueError(f"pair index {i} out of range for 2nR={2 * n * R}")
    w = 2 * n
    if i % 2 == 1:
        r = (i - 1) % w
        if r == 0:
            return "C"
        if r == w - 2:
            return "E"
        return "A"
    return "D" if i % w == 0 else "B"


@lru_cache(maxsize=None)
def location_types(n: int, R: int) -> tuple[str, ...]:
    """Types of all pairs 1..2nR-1, in order; the one source of pair
    types for this module and :mod:`hamline.hamiltonian`."""
    return tuple(location_type(i, n, R) for i in range(1, 2 * n * R))


# ---------------------------------------------------------------------------
# Allowed pairs (56 entries) and forbidden families (124)
# ---------------------------------------------------------------------------

# Allowed location types for each ordered symbol pair (X at i, Y at i+1).
# Absent pairs are forbidden everywhere.
_ALL = "ABCDE"
ALLOWED_PAIRS: dict[tuple[int, int], str] = {
    (DEAD, DEAD): _ALL,
    (DEAD, PUSHER): "ACE",
    (DEAD, QUBIT): "ABCE",
    (DEAD, GATE): "CD",
    (BLANK, BLANK): _ALL,
    (INSI, PUSHER): "ACE",
    (INSI, QUBIT): _ALL,
    (INSI, GATE): "AE",
    (PUSHER, BLANK): "ACE",
    (PUSHER, INSI): "ACE",
    (PUSHER, QUBIT): "BD",
    (QUBIT, BLANK): "ABCE",
    (QUBIT, INSI): _ALL,
    (QUBIT, PUSHER): "BD",
    (QUBIT, QUBIT): "BD",
    (QUBIT, GATE): "B",
    (GATE, BLANK): "DE",
    (GATE, INSI): "AC",
    (GATE, QUBIT): "B",
}


def pair_allowed(x: int, y: int, loc: str) -> bool:
    """True if symbol pair (x, y) may occur at a location of the given type."""
    return loc in ALLOWED_PAIRS.get((x, y), "")


#: :func:`_per_table` values by (name, arguments), of the tables in
#: ``_memo_for``: the installed (RULES, ALLOWED_PAIRS) when last called.
_memo: dict = {}
_memo_for: list = [None, None]


def _per_table(f):
    """Memoize ``f`` until :data:`RULES` or :data:`ALLOWED_PAIRS` is
    replaced (checked by identity); an exception is not memoized."""
    @wraps(f)
    def memo(*args):
        if not (_memo_for[0] is RULES and _memo_for[1] is ALLOWED_PAIRS):
            _memo.clear()
            _memo_for[:] = RULES, ALLOWED_PAIRS
        key = (f.__name__, *args)
        if key not in _memo:
            _memo[key] = f(*args)
        return _memo[key]
    return memo


@_per_table
def _allowed_at(n: int, R: int) -> tuple[frozenset, ...]:
    """The symbol pairs allowed at each pair (i, i+1), in window order."""
    return tuple(frozenset(p for p, types in ALLOWED_PAIRS.items()
                           if t in types) for t in location_types(n, R))


def allowed_pair_count() -> int:
    """Number of allowed (pair, location-type) combinations."""
    return sum(len(types) for types in ALLOWED_PAIRS.values())


def forbidden_families() -> tuple[tuple[int, int, str], ...]:
    """All forbidden (x, y, location-type) families, in a fixed order."""
    out = []
    for x in range(6):
        for y in range(6):
            allowed = ALLOWED_PAIRS.get((x, y), "")
            for t in _ALL:
                if t not in allowed:
                    out.append((x, y, t))
    return tuple(out)


# ---------------------------------------------------------------------------
# Rewrite rules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Rule:
    """One rewrite rule: a two-site window plus up-to-two context sites.

    ``context`` maps site offsets relative to the window start (-1 or +2)
    to required symbols.  A rule matches forward when the window carries
    ``before`` at a pair whose type is in ``types`` and every context
    site exists and matches; backward matching uses ``after``.
    """

    rid: str
    types: frozenset
    before: tuple[int, int]
    after: tuple[int, int]
    context: tuple[tuple[int, int], ...] = ()


def _rule(rid, types, before, after, **ctx):
    context = tuple(sorted(
        ({"prev": -1, "next2": 2}[k], v) for k, v in ctx.items()))
    return Rule(rid, frozenset(types), tuple(before), tuple(after), context)


#: The fourteen rewrite rules.  Sub-rule letters follow the listing order
#: of the rule table; parent rule number is the first character of rid.
RULES: tuple[Rule, ...] = (
    # 1: move the gate marker right across a qubit, applying a unitary.
    _rule("1", "B", (GATE, QUBIT), (QUBIT, GATE)),
    # 2: move the gate marker right across a spacer / the block edges.
    _rule("2a", "A", (GATE, INSI), (INSI, GATE)),
    _rule("2b", "C", (GATE, INSI), (DEAD, GATE)),
    _rule("2c", "E", (GATE, BLANK), (INSI, GATE)),
    # 3: move a qubit one site right (leftmost / interior / rightmost /
    #    single-qubit variants).  3d never fires on a legal configuration.
    _rule("3a", "AE", (QUBIT, INSI), (DEAD, QUBIT), prev=DEAD, next2=QUBIT),
    _rule("3b", "ACE", (QUBIT, INSI), (INSI, QUBIT), prev=QUBIT, next2=QUBIT),
    _rule("3c", "AC", (QUBIT, BLANK), (INSI, QUBIT), prev=QUBIT, next2=BLANK),
    _rule("3d", "ACE", (QUBIT, BLANK), (DEAD, QUBIT), prev=DEAD, next2=BLANK),
    # 4: create a pusher at the front of the qubit train.
    _rule("4a", "D", (GATE, BLANK), (QUBIT, PUSHER), next2=BLANK),
    _rule("4b", "B", (QUBIT, BLANK), (QUBIT, PUSHER), next2=BLANK),
    # 5: push the pusher left past a qubit / a spacer.
    _rule("5a", "BD", (QUBIT, PUSHER), (PUSHER, QUBIT)),
    _rule("5b", "ACE", (INSI, PUSHER), (PUSHER, INSI)),
    # 6: kill the pusher at the left end of the qubit train.
    _rule("6a", "D", (PUSHER, QUBIT), (DEAD, GATE), prev=DEAD),
    _rule("6b", "B", (PUSHER, QUBIT), (DEAD, QUBIT), prev=DEAD),
)

@dataclass(frozen=True)
class RuleInstance:
    """A rule application site: rule id, window start, direction."""

    rule: str
    position: int
    direction: str  # "forward" | "backward"


def mutated_rules(rid: str, after: tuple[int, int]) -> tuple[Rule, ...]:
    """RULES with one rule's after-window replaced, to install as RULES."""
    return tuple(replace(r, after=tuple(after)) if r.rid == rid else r
                 for r in RULES)


@_per_table
def _by_parent() -> tuple[Rule, ...]:
    """:data:`RULES` stably sorted by (parent rule, most location types
    first).  The transition terms and the projector layout of the
    propagation family are derived in this order; assembly keeps ties
    between pieces on the same sites in it, so it fixes the byte order
    of term exports."""
    return tuple(sorted(RULES, key=lambda r: (r.rid[0], -len(r.types))))


@_per_table
def transition_terms() -> tuple[Rule, ...]:
    """Transition pieces, one per rule of :data:`RULES`: the rule without
    its context sites, labelled by its parent rule, in by-parent order
    (:func:`_by_parent`).  Unlike the rules they can fire at "wrong"
    moments and map configurations out of the legal set."""
    return tuple(Rule(r.rid[0], r.types, r.before, r.after)
                 for r in _by_parent())


# ---------------------------------------------------------------------------
# The move index
# ---------------------------------------------------------------------------

class _Move(NamedTuple):
    """``entry``, number ``rank`` of its table, writes ``new`` over its
    window in ``direction`` when each 0-based (site, symbol) of
    ``context`` matches."""

    rank: int
    entry: Rule
    direction: str
    new: bytes
    context: tuple[tuple[int, int], ...]


@_per_table
def _move_index(n: int, R: int, kind: str) -> tuple[dict, ...]:
    """The move index of the "rules" or "exchanges" (transition terms):
    for each pair (i, i+1), left to right, a dict from the symbol pair
    there to its moves, in table order, each entry's forward move (before
    -> after) first; a move with a context site off the chain is left out."""
    table = RULES if kind == "rules" else transition_terms()
    index = []
    for i, t in enumerate(location_types(n, R), 1):
        at: dict[tuple[int, int], list[_Move]] = {}
        for rank, e in enumerate(table):
            ctx = tuple((i - 1 + off, sym) for off, sym in e.context)
            if t in e.types and all(0 <= j < 2 * n * R for j, _ in ctx):
                at.setdefault(e.before, []).append(
                    _Move(rank, e, "forward", bytes(e.after), ctx))
                at.setdefault(e.after, []).append(
                    _Move(rank, e, "backward", bytes(e.before), ctx))
        index.append({pair: tuple(moves) for pair, moves in at.items()})
    return tuple(index)


def _fire(sites: bytes, index, direction: str | None = None) -> list:
    """(move, i, new sites) for every move of ``index`` that fires on
    ``sites``, window by window in index order; ``direction`` keeps the
    moves of that direction only."""
    out = []
    for i, (at, pair) in enumerate(zip(index, zip(sites, sites[1:])), 1):
        for m in at.get(pair, ()):
            if (direction is None or m.direction == direction) and all(
                    sites[j] == sym for j, sym in m.context):
                out.append((m, i, sites[:i - 1] + m.new + sites[i + 1:]))
    return out


def _rule_moves(c: Configuration, direction: str) -> list:
    """(instance, result) for every rule matching c in ``direction``,
    rule-major: by table order, then by position."""
    fired = _fire(c.sites, _move_index(c.n, c.R, "rules"), direction)
    return [(RuleInstance(m.entry.rid, i, direction),
             Configuration._trusted(c.n, c.R, s))
            for m, i, s in sorted(fired, key=lambda f: f[0].rank)]


def forward_rules(c: Configuration) -> list[RuleInstance]:
    """All rule instances whose left-hand side matches c."""
    return [inst for inst, _ in _rule_moves(c, "forward")]


def backward_rules(c: Configuration) -> list[RuleInstance]:
    """All rule instances whose right-hand side matches c."""
    return [inst for inst, _ in _rule_moves(c, "backward")]


def apply_rule(c: Configuration, inst: RuleInstance) -> Configuration:
    """Rewrite the two-site window of a matched rule instance."""
    for found, nxt in _rule_moves(c, inst.direction):
        if found == inst:
            return nxt
    raise ValueError(f"rule {inst.rule} does not apply "
                     f"{inst.direction} at {inst.position}")


def exchange_neighbours(c: Configuration
                        ) -> list[tuple[Rule, int, str, Configuration]]:
    """Every configuration one exchange away, as (term, position,
    direction, result) tuples by position, then term order; direction is
    "forward" for before->after and "backward" for after->before."""
    index = _move_index(c.n, c.R, "exchanges")
    return [(m.entry, i, m.direction, Configuration._trusted(c.n, c.R, s))
            for m, i, s in _fire(c.sites, index)]


# ---------------------------------------------------------------------------
# Legal sequence
# ---------------------------------------------------------------------------

def legal_configuration_count(n: int, R: int) -> int:
    """Closed-form number of legal configurations, (R-1)(3n^2+2n-1)+2n.

    Each of the first R-1 rounds contributes 3n^2+2n-1 configurations;
    the final round contributes the remaining 2n (its gate sweep halts at
    the right chain end, so it is one step shorter than the sweep-plus-
    transfer rounds).
    """
    return (R - 1) * (3 * n * n + 2 * n - 1) + 2 * n


def step_count(n: int, R: int) -> int:
    """K, the number of forward steps: one less than the configuration count."""
    return legal_configuration_count(n, R) - 1


class BranchingError(RuntimeError):
    """Raised if more than one forward rule ever applies to a legal state."""


@_per_table
def annotated_sequence(n: int, R: int):
    """(configurations, applied-rule instances) under :data:`RULES`; the
    last annotation is None.  Held while the table is installed; a table
    that branches raises :class:`BranchingError` on every call."""
    c = initial_configuration(n, R)
    seq = [c]
    applied = []
    seen = {c}
    while True:
        fr = _rule_moves(c, "forward")
        if len(fr) > 1:
            raise BranchingError(f"{len(fr)} forward rules apply to {c}: "
                                 f"{[inst for inst, _ in fr]}")
        if not fr:
            applied.append(None)
            break
        inst, c = fr[0]
        applied.append(inst)
        if c in seen:
            raise BranchingError(f"configuration repeated: {c}")
        seen.add(c)
        seq.append(c)
    return tuple(seq), tuple(applied)


def legal_sequence(n: int, R: int) -> tuple[Configuration, ...]:
    """C_0..C_K obtained by iterating the unique forward rule until halt."""
    return annotated_sequence(n, R)[0]


# ---------------------------------------------------------------------------
# Closed-form round templates
# ---------------------------------------------------------------------------
#
# The legal sequence can be written down directly, one formula per phase.
# This generator is independent of the rule engine and serves as its
# cross-check; classify() uses it as the membership reference.

def _tpl(n, R, body):
    pad = 2 * n * R - len(body)
    return Configuration(n, R, bytes(body + [BLANK] * pad))


def _sweep_configs(n):
    """Block contents while the gate marker crosses one block, positions 1..2n."""
    out = [[GATE, INSI] + [QUBIT, INSI] * (n - 2) + [QUBIT, BLANK]]
    for j in range(1, n):
        # gate at even position 2j
        out.append([DEAD] + [QUBIT, INSI] * (j - 1) + [GATE]
                   + [QUBIT, INSI] * (n - j - 1) + [QUBIT, BLANK])
        # gate at odd position 2j+1, except 2n stays a special form
        if j < n - 1:
            out.append([DEAD] + [QUBIT, INSI] * (j - 1) + [QUBIT, GATE]
                       + [INSI, QUBIT] * (n - j - 1) + [BLANK])
        else:
            out.append([DEAD] + [QUBIT, INSI] * (n - 2) + [QUBIT, GATE, BLANK])
    out.append([DEAD] + [QUBIT, INSI] * (n - 1) + [GATE])
    return out


def template_round(n: int, R: int, r: int) -> list[Configuration]:
    """The configurations of round r (1-based), written from closed forms.

    Rounds 1..R-1 contribute 3n^2+2n-1 configurations each; round R only
    the 2n gate-sweep forms (the computation halts at the sweep's end).
    """
    dead = [DEAD] * (2 * n * (r - 1))
    out = [_tpl(n, R, dead + body) for body in _sweep_configs(n)]
    if r == R:
        return out

    Q, I, X, P, B = QUBIT, INSI, DEAD, PUSHER, BLANK

    def emit(body):
        out.append(_tpl(n, R, dead + body))

    # pusher created just past the boundary
    emit([X] + [Q, I] * (n - 1) + [Q, P, B])
    # n-1 qubit-transfer phases, each: push train, kill, qubit moves,
    # fresh pusher
    for j in range(n - 1):
        xs = [X] * (2 * j + 1)
        for k in range(n - 1):
            mid = [Q] + [I, Q] * (n - k - 2)
            tail = [Q, I] * k + [Q, B]
            emit(xs + mid + [I, P] + tail)
            emit(xs + mid + [P, I] + tail)
        emit(xs + [P] + [Q, I] * (n - 1) + [Q, B])
        emit(xs + [X] + [Q, I] * (n - 1) + [Q, B])
        xs3 = [X] * (2 * j + 3)
        for l in range(n - 2):
            emit(xs3 + [Q] + [I, Q] * l + [Q, I] * (n - l - 2) + [Q, B])
        emit(xs3 + [Q] + [I, Q] * (n - 2) + [Q, B])
        emit(xs3 + [Q] + [I, Q] * (n - 2) + [I, Q])
        emit(xs3 + [Q] + [I, Q] * (n - 2) + [I, Q, P, B])
    # final push train of the round, ending just before the fresh gate
    xs = [X] * (2 * n - 1)
    for i in range(n - 1):
        mid = [Q] + [I, Q] * (n - i - 2)
        tail = [Q, I] * i + [Q, B]
        emit(xs + mid + [I, P] + tail)
        emit(xs + mid + [P, I] + tail)
    emit(xs + [P] + [Q, I] * (n - 1) + [Q, B])
    return out


def template_sequence(n: int, R: int) -> tuple[Configuration, ...]:
    """The full legal sequence from the closed-form round templates."""
    out = []
    for r in range(1, R + 1):
        out.extend(template_round(n, R, r))
    return tuple(out)


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConfigClass:
    """Classification verdict for one configuration.

    tag is "legal", "detectable" or "undetectable".  Detectable verdicts
    carry a concrete witness: ("pair", i, loctype, (x, y)) for a
    forbidden adjacent pair, or ("end", site, symbol) for a bad chain
    end.  Undetectable verdicts carry a reason, "wrong_qubit_count" or
    "misaligned".
    """

    tag: str
    reason: str | None = None
    witness: tuple | None = None


def forbidden_witnesses(c: Configuration) -> list[tuple]:
    """All local violations in c: forbidden pairs plus bad chain ends."""
    out = []
    if c.sites[0] not in LEFT_END_ALLOWED:
        out.append(("end", 1, c.sites[0]))
    if c.sites[-1] not in RIGHT_END_ALLOWED:
        out.append(("end", c.length, c.sites[-1]))
    s, types = c.sites, location_types(c.n, c.R)
    for i, (allowed, pair) in enumerate(
            zip(_allowed_at(c.n, c.R), zip(s, s[1:])), 1):
        if pair not in allowed:
            out.append(("pair", i, types[i - 1], pair))
    return out


@lru_cache(maxsize=None)
def _legal_set(n: int, R: int) -> frozenset:
    return frozenset(c.sites for c in template_sequence(n, R))


def classify(c: Configuration) -> ConfigClass:
    """Classify c as legal / locally detectable / locally undetectable."""
    bad = forbidden_witnesses(c)
    if bad:
        return ConfigClass("detectable", witness=bad[0])
    if c.sites in _legal_set(c.n, c.R):
        return ConfigClass("legal")
    if c.holder_count() != c.n:
        return ConfigClass("undetectable", reason="wrong_qubit_count")
    return ConfigClass("undetectable", reason="misaligned")


# ---------------------------------------------------------------------------
# Packed configuration sets and invariant sets
# ---------------------------------------------------------------------------

class _Packed:
    """Configurations of one chain as an (N, L) ``uint8`` array ``S`` of
    symbol codes, rows found by binary search on their L-byte keys.
    Each row's content space (2^holders, ``cdim``) follows the previous
    row's (``offsets``); ``ranks`` holds each site's holder rank."""

    def __init__(self, S: np.ndarray):
        self.S = S
        keys = _keys(S)
        self.order = np.argsort(keys)
        self.sorted_keys = keys[self.order]
        holds = np.isin(S, tuple(QUBIT_HOLDING))
        self.cdim = 1 << holds.sum(axis=1, dtype=np.int64)
        self.offsets = np.concatenate(([0], np.cumsum(self.cdim)))
        self.ranks = np.maximum(np.cumsum(holds, axis=1) - 1, 0)

    @classmethod
    def of(cls, configs) -> "_Packed":
        return cls(_rows_of(configs))

    def hop(self, i: int, a: tuple[int, int], b: tuple[int, int]):
        """The rows carrying pair ``a`` at sites (i, i+1); for each, the
        packed index of its image with ``b`` there, whether that image
        is packed, and the image itself."""
        src, moved = _move_rows(self.S, i - 1, a, b)
        pos, found = _lookup(self.sorted_keys, _keys(moved))
        return src, self.order[pos], found, moved

    def expand(self, sel: np.ndarray):
        """Config, global row and content index of every basis vector of
        the configurations ``sel``."""
        counts = self.cdim[sel]
        cfg = np.repeat(sel, counts)
        content = np.arange(len(cfg)) \
            - np.repeat(np.cumsum(counts) - counts, counts)
        return cfg, self.offsets[cfg] + content, content


def _move_rows(S: np.ndarray, j: int, a: tuple, b: tuple):
    """The indices of the rows of ``S`` that carry pair ``a`` at columns
    (j, j+1), and copies of those rows with ``b`` written there: one
    term or exchange applied to every row it fits."""
    src = np.flatnonzero((S[:, j] == a[0]) & (S[:, j + 1] == a[1]))
    moved = S[src]
    moved[:, j:j + 2] = b
    return src, moved


def _rows_of(configs) -> np.ndarray:
    """Configurations of one chain as packed rows, in their order."""
    return np.frombuffer(b"".join(c.sites for c in configs),
                         dtype=np.uint8).reshape(len(configs), -1)


def _keys(S: np.ndarray) -> np.ndarray:
    """The rows of a C-contiguous (N, L) array as L-byte keys."""
    return S.view(np.dtype((np.void, S.shape[1]))).ravel()


def _lookup(sorted_keys: np.ndarray, keys: np.ndarray):
    """(pos, found): each key's index in ``sorted_keys``, if found."""
    pos = np.minimum(np.searchsorted(sorted_keys, keys), len(sorted_keys) - 1)
    return pos, sorted_keys[pos] == keys


def _configs_of(S: np.ndarray, n: int, R: int) -> list[Configuration]:
    """Packed rows, or their keys, as configurations, in row order."""
    buf, L = S.tobytes(), 2 * n * R
    return [Configuration._trusted(n, R, buf[k:k + L])
            for k in range(0, len(buf), L)]


@dataclass(frozen=True)
class InvariantSet:
    """Exchange closure of a configuration, sorted by ``sites``."""

    configs: tuple
    capped: bool = False

    def __len__(self):
        return len(self.configs)


def invariant_set(c: Configuration, cap: int = 5_000_000) -> InvariantSet:
    """Smallest exchange-closed set containing c, or ``cap`` of its
    configurations (``capped``) when it has more, sorted by ``sites``.

    A frontier closure over packed rows: the next layer is every
    exchange image of this layer's rows, deduplicated on sorted keys,
    less the rows of this layer and the one before.  Every exchange can
    be undone, so no earlier layer can hold an image.  A capped set
    keeps the smallest keys of its last layer.
    """
    if cap < 1:
        raise ValueError("cap must be positive")
    index = _move_index(c.n, c.R, "exchanges")
    rows = _rows_of([c])
    prev = cur = _keys(rows)
    layers, total, capped = [cur], 1, False
    while len(rows) and not capped:
        images = [_move_rows(rows, j, pair, tuple(m.new))[1]
                  for j, at in enumerate(index)
                  for pair, moves in at.items() for m in moves]
        keys = np.unique(_keys(np.concatenate(images)))
        keys = keys[~(_lookup(cur, keys)[1] | _lookup(prev, keys)[1])]
        capped = total + len(keys) > cap
        prev, cur = cur, keys[:cap - total]
        rows = cur.view(np.uint8).reshape(-1, c.length)
        layers.append(cur)
        total += len(cur)
    keys = np.sort(np.concatenate(layers))  # key order is sites order
    return InvariantSet(tuple(_configs_of(keys, c.n, c.R)), capped)


# ---------------------------------------------------------------------------
# Detectability horizon
# ---------------------------------------------------------------------------

#: The most configurations one horizon search may visit.
_HORIZON_BUDGET = 100_000


def _violation_near(sites: bytes, i: int, n: int, R: int) -> bool:
    """Whether ``sites`` has a bad chain end or a forbidden pair among
    pairs i-1..i+1, the only pairs a move at (i, i+1) changes: the whole
    detectability test of a move from a configuration without one."""
    allowed = _allowed_at(n, R)
    return (sites[0] not in LEFT_END_ALLOWED
            or sites[-1] not in RIGHT_END_ALLOWED
            or any((sites[j - 1], sites[j]) not in allowed[j - 1]
                   for j in range(max(i - 1, 1), min(i + 2, len(sites)))))


def _horizon(c: Configuration, kind: str,
             direction: str | None) -> int | None:
    """Breadth-first search shared by both horizons: the fewest moves of
    ``kind`` (in ``direction``, or both) from the undetectable c to a
    configuration with a local violation, or None if none is reachable;
    searched configurations have none (:func:`_violation_near`)."""
    verdict = classify(c)
    if verdict.tag != "undetectable":
        raise ValueError(f"expected an undetectable configuration, got {verdict.tag}")
    index = _move_index(c.n, c.R, kind)
    seen = {c.sites}
    queue = deque([(c.sites, 0)])
    while queue:
        cur, depth = queue.popleft()
        for _, i, nxt in _fire(cur, index, direction):
            if _violation_near(nxt, i, c.n, c.R):
                return depth + 1
            if nxt not in seen:
                seen.add(nxt)
                if len(seen) > _HORIZON_BUDGET:
                    raise RuntimeError("horizon search exceeded step budget")
                queue.append((nxt, depth + 1))
    return None


def detect_horizon(c: Configuration) -> int | None:
    """Fewest forward rule applications until a detectable configuration.

    The shared breadth-first search (:func:`_horizon`) over forward rule
    applications, starting from an undetectable configuration.  Returns
    None when the forward closure is exhausted first: every branch ends
    in a configuration without a local violation at which no rule is
    admissible, i.e. no window matches a rule's left-hand side at one of
    its location types with its context sites present and matching.
    Blanks may remain: ``xxqiqi|qiq...`` (n=3, R=2) halts at
    ``xxxxxq|iqiqq.``.  Whether the construction allows such halts is
    open (see README).  Halted configurations still connect to
    detectable ones through the 2-local exchange terms (see
    :func:`exchange_horizon`).
    """
    return _horizon(c, "rules", "forward")


def exchange_horizon(c: Configuration) -> int | None:
    """Fewest exchange-term moves (either direction) until a detectable
    configuration, by the same breadth-first search as
    :func:`detect_horizon` with exchanges as its moves.

    Exchanges preserve the holder count and block alignment, so an
    undetectable configuration can only reach undetectable or detectable
    ones.  A None here would mean an exchange-closed set with no local
    penalty anywhere in it, which would defeat the penalty mechanism;
    the verification suites treat that as a hard failure.
    """
    return _horizon(c, "exchanges", None)


# ---------------------------------------------------------------------------
# Enumeration of allowed / undetectable configurations
# ---------------------------------------------------------------------------

def allowed_configurations(n: int, R: int):
    """Yield every configuration with no local violation, depth first.
    Each site's successor symbols are tried in the insertion order of
    :data:`ALLOWED_PAIRS`, not in symbol-code order; callers that pick
    configurations by index depend on this order."""
    L = 2 * n * R
    types = location_types(n, R)
    # successor symbols for (previous symbol, pair type)
    succ: dict[tuple[int, str], list[int]] = {}
    for (x, y), allowed in ALLOWED_PAIRS.items():
        for t in allowed:
            succ.setdefault((x, t), []).append(y)

    prefix = bytearray(L)

    def extend(i):
        if i == L:
            if prefix[-1] in RIGHT_END_ALLOWED:
                yield Configuration(n, R, bytes(prefix))
            return
        for y in succ.get((prefix[i - 1], types[i - 1]), ()):
            prefix[i] = y
            yield from extend(i + 1)

    for first in sorted(LEFT_END_ALLOWED):
        prefix[0] = first
        yield from extend(1)


def undetectable_configurations(n: int, R: int):
    """Yield every locally undetectable illegal configuration: the
    illegal ones among :func:`allowed_configurations`, in its order."""
    legal = _legal_set(n, R)
    for c in allowed_configurations(n, R):
        if c.sites not in legal:
            yield c

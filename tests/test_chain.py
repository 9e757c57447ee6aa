import random
from collections import Counter, deque

import pytest
from hypothesis import given, settings, strategies as st

from hamline import chain
from hamline.chain import BLANK, DEAD, GATE, QUBIT, Configuration


def cfg(text, n, R):
    return Configuration.from_string(text, n, R)


# ---------------------------------------------------------------------------
# initial configuration and location types
# ---------------------------------------------------------------------------

def test_initial_configuration_examples():
    assert chain.initial_configuration(2, 2).to_string() == "giq.|...."
    assert chain.initial_configuration(3, 2).to_string() == "giqiq.|......"
    assert chain.initial_configuration(2, 1).to_string() == "giq."
    with pytest.raises(ValueError):
        chain.initial_configuration(1, 2)


def test_location_type_examples():
    assert chain.location_type(1, 3, 2) == "C"
    assert chain.location_type(6, 3, 2) == "D"
    assert chain.location_type(3, 3, 2) == "A"
    assert chain.location_type(5, 3, 2) == "E"
    assert chain.location_type(2, 3, 2) == "B"
    with pytest.raises(ValueError):
        chain.location_type(12, 3, 2)


@pytest.mark.parametrize("n,R", [(2, 1), (2, 2), (3, 2), (4, 3), (5, 2)])
def test_location_types_partition(n, R):
    # every pair gets exactly one of A-E, and the closed-form index sets
    # reproduce the assignment
    w = 2 * n
    per_position = []
    for i in range(1, 2 * n * R):
        t = chain.location_type(i, n, R)
        per_position.append(t)
        expect = None
        if (i - 1) % w == 0:
            expect = "C"
        elif i % w == w - 1:
            expect = "E"
        elif i % 2 == 1:
            expect = "A"
        elif i % w == 0:
            expect = "D"
        else:
            expect = "B"
        assert t == expect
    # the cached tuple every scanner reads is the same assignment
    assert chain.location_types(n, R) == tuple(per_position)


# ---------------------------------------------------------------------------
# allowed pairs
# ---------------------------------------------------------------------------

def test_pair_census():
    assert chain.allowed_pair_count() == 56
    assert len(chain.forbidden_families()) == 124
    assert 36 * 5 - chain.allowed_pair_count() == 124


def test_pair_allowed_examples():
    for t in "ABCDE":
        assert not chain.pair_allowed(DEAD, BLANK, t)
    assert chain.pair_allowed(QUBIT, QUBIT, "B")
    assert not chain.pair_allowed(QUBIT, QUBIT, "A")
    assert chain.pair_allowed(GATE, QUBIT, "B")
    assert chain.pair_allowed(DEAD, GATE, "C")
    assert not chain.pair_allowed(DEAD, GATE, "B")


def test_every_route_follows_the_pair_table(monkeypatch):
    """After one classify, a pair table without (q, g) moves every route
    that reads the table together, and the original comes back with it."""
    c = cfg("xqg.|....", 2, 2)
    assert chain.classify(c).tag == "legal"
    assert not chain._violation_near(c.sites, 2, 2, 2)
    monkeypatch.setattr(chain, "ALLOWED_PAIRS", {
        pair: types for pair, types in chain.ALLOWED_PAIRS.items()
        if pair != (QUBIT, GATE)})
    witness = ("pair", 2, "B", (QUBIT, GATE))
    assert chain.classify(c) == chain.ConfigClass("detectable",
                                                  witness=witness)
    assert chain.forbidden_witnesses(c) == [witness]
    assert chain._violation_near(c.sites, 2, 2, 2)
    assert len(chain.forbidden_families()) == 125
    assert (QUBIT, GATE, "B") in chain.forbidden_families()
    monkeypatch.undo()
    assert chain.classify(c).tag == "legal"
    assert not chain._violation_near(c.sites, 2, 2, 2)


# ---------------------------------------------------------------------------
# rules
# ---------------------------------------------------------------------------

def test_forward_rules_on_initial():
    c0 = chain.initial_configuration(3, 2)
    rules = chain.forward_rules(c0)
    assert [(r.rule, r.position) for r in rules] == [("2b", 1)]


def test_forward_rules_on_halt():
    halt = chain.legal_sequence(3, 2)[-1]
    assert halt.to_string() == "xxxxxx|xqiqig"
    assert chain.forward_rules(halt) == []


def test_forward_rule_mid_round():
    c = cfg("xqiqiq|<.....", 3, 2)  # pusher just created
    rules = chain.forward_rules(c)
    assert [(r.rule, r.position) for r in rules] == [("5a", 6)]


def test_backward_rules():
    assert chain.backward_rules(chain.initial_configuration(3, 2)) == []
    c1 = cfg("xgqiq.|......", 3, 2)
    assert [(r.rule, r.position, r.direction)
            for r in chain.backward_rules(c1)] == [("2b", 1, "backward")]
    c12 = cfg("xxqiqi|q.....", 3, 2)
    assert [(r.rule, r.position) for r in chain.backward_rules(c12)] \
        == [("6b", 2)]


def test_forward_rules_rule_major_order():
    # three rules match; they come in rule-table order, not by position
    c = cfg(".q<g|i<g.", 2, 2)
    assert [(r.rule, r.position) for r in chain.forward_rules(c)] \
        == [("2c", 7), ("5a", 2), ("5b", 5)]


def test_apply_rule_examples():
    seq = chain.legal_sequence(3, 2)
    c0, c1 = seq[0], seq[1]
    inst = chain.forward_rules(c0)[0]
    assert chain.apply_rule(c0, inst) == c1
    # rule 4a: pusher creation across the block boundary
    c5, c6 = seq[5], seq[6]
    inst = chain.forward_rules(c5)[0]
    assert inst.rule == "4a"
    assert chain.apply_rule(c5, inst) == c6
    # applying a non-matching rule raises
    with pytest.raises(ValueError):
        chain.apply_rule(c0, chain.RuleInstance("1", 2, "forward"))


@pytest.mark.parametrize("text,inst", [
    # rule 1's window gq (and its after-window qg) at pair 3, type A;
    # rule 1 is admitted at B only
    ("..gq..", ("1", 3, "forward")),
    ("..qg..", ("1", 3, "backward")),
    # rule 3a's window qi at pair 3 (type A) with prev = x, but its
    # next2 context site 5 is a blank instead of a qubit
    ("xxqi..", ("3a", 3, "forward")),
    # rule 3b's prev context site 0 lies off the chain
    ("qiq...", ("3b", 1, "forward")),
])
def test_apply_rule_rejects_type_and_context(text, inst):
    c = cfg(text, 3, 1)
    with pytest.raises(ValueError, match="does not apply"):
        chain.apply_rule(c, chain.RuleInstance(*inst))


def test_apply_rule_accepts_matching_context():
    c = cfg("xxqiq.", 3, 1)
    assert chain.apply_rule(c, chain.RuleInstance("3a", 3, "forward")) \
        == cfg("xxxqq.", 3, 1)


@given(st.integers(min_value=0, max_value=1_000_000))
@settings(max_examples=60, deadline=None)
def test_apply_rule_involution_and_holder_count(idx):
    seq = chain.legal_sequence(3, 3)
    c = seq[idx % (len(seq) - 1)]
    inst = chain.forward_rules(c)[0]
    nxt = chain.apply_rule(c, inst)
    assert nxt.holder_count() == c.holder_count()
    back = chain.RuleInstance(inst.rule, inst.position, "backward")
    assert chain.apply_rule(nxt, back) == c


# ---------------------------------------------------------------------------
# legal sequence and templates
# ---------------------------------------------------------------------------

def test_annotated_sequence_one_cache_entry_per_shape():
    chain._memo.clear()
    chain.legal_sequence(3, 2)
    chain.annotated_sequence(3, 2)
    shapes = [key[1:] for key in chain._memo
              if key[0] == "annotated_sequence"]
    assert shapes == [(3, 2)]


def test_sequence_lengths():
    # the closed form (R-1)(3n^2+2n-1)+2n counts configurations
    assert len(chain.legal_sequence(3, 2)) == 38
    assert len(chain.legal_sequence(2, 2)) == 19
    assert len(chain.legal_sequence(2, 1)) == 4
    for n, R in [(2, 2), (3, 2), (2, 3), (4, 2)]:
        seq = chain.legal_sequence(n, R)
        assert len(seq) == chain.legal_configuration_count(n, R)
        assert chain.step_count(n, R) == len(seq) - 1
        assert len(set(seq)) == len(seq)  # never repeats


@pytest.mark.parametrize("n,R", [(2, 1), (2, 2), (2, 3), (3, 2), (3, 3),
                                 (4, 2), (4, 3), (5, 2), (6, 2)])
def test_templates_equal_engine(n, R):
    assert chain.template_sequence(n, R) == chain.legal_sequence(n, R)


def test_forward_backward_uniqueness_facts():
    for n, R in [(2, 2), (3, 2), (2, 3)]:
        seq = chain.legal_sequence(n, R)
        K = len(seq) - 1
        for t, c in enumerate(seq):
            assert len(chain.forward_rules(c)) == (1 if t < K else 0)
            assert len(chain.backward_rules(c)) == (1 if t > 0 else 0)


def test_every_legal_pair_is_allowed():
    for c in chain.legal_sequence(3, 2):
        assert chain.forbidden_witnesses(c) == []


def test_mutated_rules_diverge(monkeypatch):
    legal = chain.legal_sequence(3, 2)
    monkeypatch.setattr(chain, "RULES",
                        chain.mutated_rules("2a", (DEAD, GATE)))
    try:
        assert chain.legal_sequence(3, 2) != legal
    except chain.BranchingError:
        pass  # branching is also an acceptable way to expose the fault


def test_transition_terms_are_rules_without_context():
    # one record: each term is its rule labelled by the parent rule,
    # with the context sites dropped
    by_parent = chain._by_parent()
    assert len(chain.transition_terms()) == len(by_parent) == 14
    for term, rule in zip(chain.transition_terms(), by_parent):
        assert term == chain.Rule(rule.rid[0], rule.types, rule.before,
                                  rule.after, context=())
    found = [term for c in chain.legal_sequence(3, 2)
             for term, *_ in chain.exchange_neighbours(c)]
    assert found and all(isinstance(t, chain.Rule) for t in found)


def test_branching_mutation_raises_on_every_call(monkeypatch):
    # 2c's after-window <g lets rules 4a and 5a both fire; the cached
    # sequence must not turn the second call into a silent result
    monkeypatch.setattr(chain, "RULES",
                        chain.mutated_rules("2c", (chain.PUSHER, GATE)))
    for _ in range(2):
        with pytest.raises(chain.BranchingError):
            chain.legal_sequence(2, 2)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_legal():
    for c in chain.legal_sequence(2, 2):
        assert chain.classify(c).tag == "legal"


def test_classify_detectable():
    c = cfg("x.qiq.|......", 3, 2)  # dead followed by blank
    verdict = chain.classify(c)
    assert verdict.tag == "detectable"
    kind, i, t, pair = verdict.witness
    assert kind == "pair" and pair == (DEAD, BLANK)
    assert not chain.pair_allowed(*pair, t)


def test_classify_bad_ends():
    left = cfg(".iqiqg|xxxxxx", 3, 2)
    assert chain.classify(left).tag == "detectable"
    assert chain.classify(left).witness[0] == "end"


def test_classify_too_many_qubits():
    # four holders on an n=3 chain, locally clean everywhere
    c = cfg("xxqiqi|qiq...", 3, 2)
    assert chain.forbidden_witnesses(c) == []
    verdict = chain.classify(c)
    assert verdict == chain.ConfigClass("undetectable",
                                        reason="wrong_qubit_count")


def test_classify_misaligned():
    c = cfg("xxq........." , 2, 3)
    assert chain.classify(c).reason == "wrong_qubit_count"
    # right number of holders, but the qubit-qubit junction sits at the
    # wrong offset relative to the block boundaries
    c2 = cfg("xqq.|....", 2, 2)
    verdict = chain.classify(c2)
    assert verdict.tag == "undetectable"
    assert verdict.reason == "misaligned"


def test_violation_near_the_move_is_classify_verdict():
    # a legal configuration has no local violation, so on its exchange
    # images the test at the pairs next to the move is the whole one
    for n in range(2, 13):
        for R in range(1, 12 // n + 1):
            for c in chain.legal_sequence(n, R):
                for _, i, _, out in chain.exchange_neighbours(c):
                    assert chain._violation_near(out.sites, i, n, R) == (
                        chain.classify(out).tag == "detectable"), (out, i)


# ---------------------------------------------------------------------------
# invariant sets and horizons
# ---------------------------------------------------------------------------

def test_invariant_set_contains_legal():
    inv = chain.invariant_set(chain.initial_configuration(2, 2))
    assert not inv.capped
    legal = set(chain.legal_sequence(2, 2))
    assert legal <= set(inv.configs)


def test_invariant_set_closure():
    inv = chain.invariant_set(cfg("xxxxq.|......", 3, 2), cap=50_000)
    assert not inv.capped
    members = set(inv.configs)
    for c in members:
        for _, _, _, out in chain.exchange_neighbours(c):
            assert out in members


def test_invariant_set_of_wrong_count_has_no_legal():
    inv = chain.invariant_set(cfg("xxqiqi|qiq...", 3, 2), cap=250_000)
    assert not inv.capped and len(inv) > 100_000
    assert all(chain.classify(c).tag != "legal" for c in inv.configs)


def test_invariant_set_cap():
    inv = chain.invariant_set(chain.initial_configuration(2, 2), cap=10)
    assert inv.capped and len(inv) == 10


def test_detect_horizon_single_qubit():
    c = cfg("xxxxq.|......", 3, 2)
    assert chain.classify(c).tag == "undetectable"
    assert chain.detect_horizon(c) == 1


def test_misaligned_examples_are_stuck_but_exchange_connected():
    # at desk scale every misaligned configuration is a gate-free qubit
    # train with no forward rule left; the exchange terms still expose it
    found = 0
    for c in chain.undetectable_configurations(2, 2):
        if chain.classify(c).reason != "misaligned":
            continue
        found += 1
        assert chain.detect_horizon(c) is None
        assert chain.exchange_horizon(c) is not None
    assert found == 2


def test_detect_horizon_surplus_qubit_train():
    # too many holders with blanks still ahead: the train keeps moving
    # forward until a local break appears
    c = cfg("xxqiqi|qiq...", 3, 2)
    h = chain.detect_horizon(c)
    assert h is not None and 1 <= h <= (2 * 3 * 2) ** 3


def test_detect_horizon_rejects_legal():
    with pytest.raises(ValueError):
        chain.detect_horizon(chain.initial_configuration(2, 2))


def test_forward_stuck_configuration_has_exchange_escape():
    c = cfg("xxq.", 2, 1)
    assert chain.classify(c).tag == "undetectable"
    assert chain.forward_rules(c) == []
    assert chain.detect_horizon(c) is None
    assert chain.exchange_horizon(c) == 1


def test_exchange_horizons_all_finite():
    for n, R in [(2, 1), (2, 2), (3, 1)]:
        for c in chain.undetectable_configurations(n, R):
            assert chain.exchange_horizon(c) is not None


def _closure_by_bfs(c):
    seen = {c}
    queue = deque([c])
    while queue:
        for *_, nxt in chain.exchange_neighbours(queue.popleft()):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


@pytest.mark.parametrize("text,n,R", [
    ("giq.|....", 2, 2),          # the (2,2) initial configuration
    ("xxxxq.|......", 3, 2),
    ("xxxq|iqq.", 2, 2),          # a 1,856-configuration type-3 line
])
def test_invariant_set_equals_bfs_closure_and_cap_boundary(text, n, R):
    c = cfg(text, n, R)
    closure = _closure_by_bfs(c)
    inv = chain.invariant_set(c)
    assert not inv.capped and set(inv.configs) == closure
    exact = chain.invariant_set(c, cap=len(closure))
    assert not exact.capped and set(exact.configs) == closure
    short = chain.invariant_set(c, cap=len(closure) - 1)
    assert short.capped and len(short) == len(closure) - 1
    assert c in short.configs and set(short.configs) < closure


@pytest.mark.parametrize("text,n,R", [
    ("giq.|....", 2, 2),          # the (2,2) initial configuration
    ("xxxq|iqq.", 2, 2),          # a 1,856-configuration type-3 line
])
def test_invariant_set_is_a_tuple_sorted_by_sites(text, n, R):
    inv = chain.invariant_set(cfg(text, n, R))
    assert isinstance(inv.configs, tuple)
    assert [c.sites for c in inv.configs] == sorted(
        c.sites for c in inv.configs)
    assert len(set(inv.configs)) == len(inv)


def test_undetectable_configurations_are_the_illegal_allowed_ones():
    # every allowed configuration is pen-free; the illegal ones among
    # them keep the enumeration order that type-3 picks index into
    for n, R in [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1)]:
        undet = list(chain.undetectable_configurations(n, R))
        assert undet == [c for c in chain.allowed_configurations(n, R)
                         if chain.classify(c).tag == "undetectable"]


#: (detect_horizon, exchange_horizon) -> count over every undetectable
#: configuration, per shape; None is a forward halt
HORIZON_HISTOGRAMS = {
    (2, 1): {(None, 1): 5},
    (2, 2): {(None, 1): 25, (1, 1): 4, (2, 1): 4, (3, 1): 1, (4, 1): 1},
    (3, 1): {(None, 1): 20, (1, 1): 1, (2, 1): 1},
    (4, 1): {(None, 1): 48, (1, 1): 2, (2, 1): 2, (3, 1): 1, (4, 1): 1},
    (5, 1): {(None, 1): 92, (1, 1): 4, (2, 1): 4, (3, 1): 2, (4, 1): 2,
             (5, 1): 1, (6, 1): 1},
}


@pytest.mark.parametrize("n,R", sorted(HORIZON_HISTOGRAMS))
def test_horizon_histograms_pinned(n, R):
    assert 2 * n * R <= 10
    got = Counter((chain.detect_horizon(c), chain.exchange_horizon(c))
                  for c in chain.undetectable_configurations(n, R))
    assert got == HORIZON_HISTOGRAMS[n, R]


# ---------------------------------------------------------------------------
# the move index against a brute-force matcher
# ---------------------------------------------------------------------------

def _reference_rules(c, direction):
    """Rule instances matching c, rule-major, straight from RULES and the
    per-position location type."""
    out = []
    for rule in chain.RULES:
        window = rule.before if direction == "forward" else rule.after
        for i in range(1, c.length):
            if ((c.sites[i - 1], c.sites[i]) == window
                    and chain.location_type(i, c.n, c.R) in rule.types
                    and all(1 <= i + off <= c.length
                            and c.sites[i + off - 1] == sym
                            for off, sym in rule.context)):
                out.append(chain.RuleInstance(rule.rid, i, direction))
    return out


def _reference_exchanges(c):
    """Exchange neighbours of c by position, then term order,
    before->after ahead of after->before, straight from the transition
    terms."""
    out = []
    for i in range(1, c.length):
        pair = (c.sites[i - 1], c.sites[i])
        for term in chain.transition_terms():
            if chain.location_type(i, c.n, c.R) not in term.types:
                continue
            for direction, a, b in (("forward", term.before, term.after),
                                    ("backward", term.after, term.before)):
                if pair == a:
                    s = bytearray(c.sites)
                    s[i - 1:i + 1] = bytes(b)
                    out.append((term, i, direction,
                                Configuration(c.n, c.R, bytes(s))))
    return out


def _index_cases(group):
    if group == "legal":
        return [c for n in range(2, 7) for R in range(1, 4)
                if 2 * n * R <= 12 for c in chain.legal_sequence(n, R)]
    if group == "allowed":
        return [c for n, R in ((2, 2), (2, 3))
                for c in chain.allowed_configurations(n, R)]
    rng = random.Random(12)
    return [Configuration(n, R, bytes(rng.randrange(6)
                                      for _ in range(2 * n * R)))
            for n, R in ((2, 2), (3, 2)) for _ in range(200)]


@pytest.mark.parametrize("group", ["legal", "allowed", "random"])
def test_move_index_matches_brute_force(group):
    cases = _index_cases(group)
    assert len(cases) >= 100
    for c in cases:
        assert chain.forward_rules(c) == _reference_rules(c, "forward"), c
        assert chain.backward_rules(c) == _reference_rules(c, "backward"), c
        assert chain.exchange_neighbours(c) == _reference_exchanges(c), c
        for inst in _reference_rules(c, "forward"):
            window = next(r.after for r in chain.RULES if r.rid == inst.rule)
            s = bytearray(c.sites)
            s[inst.position - 1:inst.position + 1] = bytes(window)
            assert chain.apply_rule(c, inst) == Configuration(c.n, c.R,
                                                              bytes(s))


def test_configuration_rejects_invalid_symbols_and_lengths():
    with pytest.raises(ValueError, match="invalid symbol"):
        Configuration(2, 1, bytes([3, 4, 6, 2]))
    with pytest.raises(ValueError, match="expected 4 sites"):
        Configuration(2, 1, bytes([3, 4, 2]))
    with pytest.raises(ValueError, match="expected 4 sites"):
        Configuration.from_string("xq.", 2, 1)
    with pytest.raises(ValueError, match="unknown site character"):
        Configuration.from_string("xq.z", 2, 1)


# ---------------------------------------------------------------------------
# notation
# ---------------------------------------------------------------------------

def test_configuration_text_round_trip():
    c = chain.legal_sequence(3, 2)[17]
    assert Configuration.from_string(c.to_string(), 3, 2) == c
    assert Configuration.from_string(c.to_string().replace("|", ""),
                                     3, 2) == c
    with pytest.raises(ValueError):
        Configuration.from_string("abc!", 2, 1)


def test_allowed_configuration_enumeration_counts():
    allowed = list(chain.allowed_configurations(2, 1))
    assert len(allowed) == 9
    assert all(chain.forbidden_witnesses(c) == [] for c in allowed)
    undet = list(chain.undetectable_configurations(2, 1))
    assert len(undet) == 5
    legal = [c for c in allowed if chain.classify(c).tag == "legal"]
    assert len(legal) == 4

"""Lattice operations, both negation pairs, and the regularity predicates.

The Heyting side is checked against its universal property (largest /
implication), the co-Heyting side against its dual (smallest / subtraction);
the paraconsistency of the co-Heyting negation is pinned to an exact witness.
"""
import pytest
from hypothesis import given, strategies as st

from biheyt import (ClopenSubobject, PosetMismatch, UsageError, bottom,
                    check_adjunctions, coheyting_not, coheyting_subtract,
                    daseinise, double_coheyting_not, double_heyting_not,
                    enumerate_contexts, enumerate_subobjects, generate,
                    heyting_implies, heyting_not, is_coheyting_regular,
                    is_heyting_regular, is_tight, join, make_subobject, meet,
                    top)

DAS_P = {"p+q|r": "p+q", "p+r|q": "p+r", "p|q+r": "p", "p|q|r": "p"}
DAS_Q = {"p+q|r": "p+q", "p+r|q": "q", "p|q+r": "q+r", "p|q|r": "q"}
NOT_DAS_P = {"p+q|r": "r", "p+r|q": "q", "p|q+r": "q+r", "p|q|r": "0"}
CONOT_DAS_P = {"p+q|r": "1", "p+r|q": "1", "p|q+r": "q+r", "p|q|r": "q+r"}
# co-Heyting negation overlaps the subobject itself on the larger contexts
CONTRADICTION = {"p+q|r": "p+q", "p+r|q": "p+r", "p|q+r": "0", "p|q|r": "0"}
REGULAR_NOT_TIGHT = {"p+q|r": "0", "p+r|q": "0", "p|q+r": "p", "p|q|r": "0"}


def _sub(poset, mapping):
    from biheyt import make_subobject
    return make_subobject(poset, mapping)


def test_top_bottom_and_empty_operations(boolean3_poset):
    t, b = top(boolean3_poset), bottom(boolean3_poset)
    assert t.to_mapping() == {c.id: "1" for c in boolean3_poset.contexts}
    assert b.to_mapping() == {c.id: "0" for c in boolean3_poset.contexts}
    assert meet([], poset=boolean3_poset) == t
    assert join([], poset=boolean3_poset) == b
    with pytest.raises(UsageError):
        meet([])


def test_meet_of_two_approximations(boolean3_poset):
    dp = daseinise(boolean3_poset, "p")
    dq = daseinise(boolean3_poset, "q")
    assert dp.to_mapping() == DAS_P and dq.to_mapping() == DAS_Q
    both = meet([dp, dq])
    # the two coatom components agree, everything at or below an atom clears
    assert both.to_mapping() == {"p+q|r": "p+q", "p+r|q": "0",
                                 "p|q+r": "0", "p|q|r": "0"}
    assert join([dp, dq]).to_mapping() == {"p+q|r": "p+q", "p+r|q": "1",
                                           "p|q+r": "1", "p|q|r": "p+q"}


def test_meet_join_are_pointwise_set_operations(mo2_subs):
    for s in mo2_subs:
        for t in mo2_subs:
            m, j = s & t, s | t
            for ctx in ("a|a'", "b|b'"):
                sp = {p.atom for p in s.points_at(ctx)}
                tp = {p.atom for p in t.points_at(ctx)}
                assert {p.atom for p in m.points_at(ctx)} == sp & tp
                assert {p.atom for p in j.points_at(ctx)} == sp | tp


def test_implication_universal_cases(boolean3_poset, boolean3_subs):
    t = top(boolean3_poset)
    for s in boolean3_subs:
        assert heyting_implies(s, s) == t
        assert heyting_implies(t, s) == s
    dp = _sub(boolean3_poset, DAS_P)
    assert heyting_implies(dp, bottom(boolean3_poset)).to_mapping() == NOT_DAS_P


def test_heyting_not_examples(boolean3_poset, mo2_poset):
    assert heyting_not(top(boolean3_poset)) == bottom(boolean3_poset)
    assert heyting_not(bottom(boolean3_poset)) == top(boolean3_poset)
    assert heyting_not(_sub(boolean3_poset, DAS_P)).to_mapping() == NOT_DAS_P
    s = _sub(mo2_poset, {"a|a'": "a", "b|b'": "0"})
    assert heyting_not(s).to_mapping() == {"a|a'": "a'", "b|b'": "1"}


def test_heyting_double_negation(boolean3_poset, boolean3_subs, mo2_subs):
    dp = _sub(boolean3_poset, DAS_P)
    assert double_heyting_not(dp) == dp
    for subs in (boolean3_subs, mo2_subs):
        for s in subs:
            nn = double_heyting_not(s)
            assert s <= nn
            assert heyting_not(nn) == heyting_not(s)
            assert double_heyting_not(heyting_not(s)) == heyting_not(s)


def test_subtraction_universal_cases(boolean3_poset, boolean3_subs):
    b = bottom(boolean3_poset)
    for s in boolean3_subs:
        assert coheyting_subtract(s, s) == b
        assert coheyting_subtract(s, b) == s
    dp = _sub(boolean3_poset, DAS_P)
    dq = _sub(boolean3_poset, DAS_Q)
    assert coheyting_subtract(dp, dq) == dp


def test_coheyting_not_examples(boolean3_poset, mo2_subs):
    assert coheyting_not(bottom(boolean3_poset)) == top(boolean3_poset)
    assert coheyting_not(top(boolean3_poset)) == bottom(boolean3_poset)
    dp = _sub(boolean3_poset, DAS_P)
    assert coheyting_not(dp).to_mapping() == CONOT_DAS_P
    # with every context maximal and minimal the two negations coincide
    for s in mo2_subs:
        assert coheyting_not(s) == heyting_not(s)


def test_coheyting_double_negation(boolean3_poset, boolean3_subs, mo2_subs):
    dp = _sub(boolean3_poset, DAS_P)
    assert double_coheyting_not(dp) == dp
    assert double_coheyting_not(heyting_not(dp)) == bottom(boolean3_poset)
    for subs in (boolean3_subs, mo2_subs):
        for s in subs:
            nn = double_coheyting_not(s)
            assert nn <= s
            assert double_coheyting_not(coheyting_not(s)) == coheyting_not(s)


def test_heyting_not_below_coheyting_not(boolean3_subs, mo2_subs):
    for subs in (boolean3_subs, mo2_subs):
        for s in subs:
            assert heyting_not(s) <= coheyting_not(s)


def test_adjunctions_exhaustively(boolean3_poset, mo2_poset):
    report = check_adjunctions(mo2_poset)
    assert report.passed
    assert report.subobject_count == 16 and report.triples_checked == 16 ** 3
    report = check_adjunctions(boolean3_poset)
    assert report.passed
    assert report.subobject_count == 95 and report.triples_checked == 95 ** 3


def test_distributivity_both_ways(boolean3_subs, mo2_subs):
    for subs in (mo2_subs, boolean3_subs):
        bits = [s.bits for s in subs]
        keys = set(bits)
        for a in bits:
            for b in bits:
                assert a & b in keys and a | b in keys
                for c in bits:
                    assert a & (b | c) == (a & b) | (a & c)
                    assert a | (b & c) == (a | b) & (a | c)


def test_regularity_census(boolean3_subs, mo2_subs):
    assert sum(map(is_heyting_regular, boolean3_subs)) == 64
    assert sum(map(is_coheyting_regular, boolean3_subs)) == 8
    assert sum(map(is_tight, boolean3_subs)) == 8
    assert all(map(is_heyting_regular, mo2_subs))
    assert all(map(is_coheyting_regular, mo2_subs))
    assert all(map(is_tight, mo2_subs))


def test_tight_implies_both_regularities(boolean3_subs):
    for s in boolean3_subs:
        if is_tight(s):
            assert is_heyting_regular(s) and is_coheyting_regular(s)


def test_regular_but_not_tight_witness(boolean3_poset, boolean3_subs):
    w = _sub(boolean3_poset, REGULAR_NOT_TIGHT)
    assert is_heyting_regular(w) and not is_tight(w)
    assert sum(1 for s in boolean3_subs
               if is_heyting_regular(s) and not is_tight(s)) == 56
    # the other regularity is exactly tightness on this structure
    assert all(is_tight(s) == is_coheyting_regular(s) for s in boolean3_subs)


def test_not_das_p_is_not_coheyting_regular(boolean3_poset):
    w = _sub(boolean3_poset, NOT_DAS_P)
    assert not is_coheyting_regular(w)
    assert is_heyting_regular(w)


def test_paraconsistency_witness(boolean3_poset):
    s = daseinise(boolean3_poset, "p")
    contradiction = meet([coheyting_not(s), s])
    assert contradiction.to_mapping() == CONTRADICTION
    assert contradiction != bottom(boolean3_poset)
    # the Heyting side stays consistent on the same subobject
    assert meet([heyting_not(s), s]) == bottom(boolean3_poset)
    assert heyting_not(s) <= coheyting_not(s)
    assert heyting_not(s) != coheyting_not(s)


def test_operations_reject_foreign_subobjects(boolean3_subs):
    other = enumerate_subobjects(enumerate_contexts(generate("boolean", 3)))
    for op in (lambda s, t: meet([s, t]), lambda s, t: join([s, t]),
               heyting_implies, coheyting_subtract, lambda s, t: s & t,
               lambda s, t: s | t):
        for s, t in ((boolean3_subs[5], other[7]), (other[7], boolean3_subs[5])):
            with pytest.raises(PosetMismatch,
                               match="^subobjects belong to different context posets$"):
                op(s, t)


@pytest.mark.parametrize("op, message", [
    (lambda s: s <= 5,
     "'<=' not supported between instances of 'ClopenSubobject' and 'int'"),
    (lambda s: s & 5, "unsupported operand type(s) for &: 'ClopenSubobject' and 'int'"),
    (lambda s: s | None,
     "unsupported operand type(s) for |: 'ClopenSubobject' and 'NoneType'"),
], ids=["le-int", "and-int", "or-none"])
def test_operators_refuse_an_operand_that_is_no_subobject(boolean3_subs, op,
                                                           message):
    """``<=``, ``&`` and ``|`` leave an operand that is no subobject to
    Python, which raises ``TypeError``; one of another poset still gets
    ``PosetMismatch``."""
    with pytest.raises(TypeError) as info:
        op(boolean3_subs[5])
    assert type(info.value) is TypeError and str(info.value) == message
    other = enumerate_subobjects(enumerate_contexts(generate("boolean", 3)))
    with pytest.raises(PosetMismatch,
                       match="^subobjects belong to different context posets$"):
        boolean3_subs[5] <= other[7]


def test_every_producer_builds_a_plain_immutable_subobject(boolean3_poset):
    """The producers skip ``__init__``; what they return is still exactly
    ``ClopenSubobject(poset, bits)``, and still refuses assignment."""
    p = boolean3_poset
    s, t = _sub(p, DAS_P), _sub(p, DAS_Q)
    made = [top(p), bottom(p), meet([s, t]), join([s, t]), heyting_implies(s, t),
            coheyting_subtract(s, t), s & t, s | t, make_subobject(p, DAS_P),
            daseinise(p, "p")]
    for x in made:
        assert type(x) is ClopenSubobject and x.poset is p
        twin = ClopenSubobject(p, x.bits)
        assert x == twin and hash(x) == hash(twin)
        for name in ("poset", "bits", "other"):
            with pytest.raises(AttributeError, match="immutable"):
                setattr(x, name, 0)


@given(st.data())
def test_sampled_adjunction_laws(boolean3_subs, data):
    s = data.draw(st.sampled_from(boolean3_subs))
    t = data.draw(st.sampled_from(boolean3_subs))
    r = data.draw(st.sampled_from(boolean3_subs))
    impl = heyting_implies(s, t)
    assert (r & s <= t) == (r <= impl)
    diff = coheyting_subtract(s, t)
    assert (s <= t | r) == (diff <= r)


@given(st.data())
def test_sampled_negations_are_special_cases(boolean3_poset, boolean3_subs, data):
    s = data.draw(st.sampled_from(boolean3_subs))
    assert heyting_not(s) == heyting_implies(s, bottom(boolean3_poset))
    assert coheyting_not(s) == coheyting_subtract(top(boolean3_poset), s)
    assert double_coheyting_not(s) <= s <= double_heyting_not(s)

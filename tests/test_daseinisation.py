"""Approximation of structure elements by clopen subobjects.

The map preserves joins and order, is injective but not surjective, lands on
tight subobjects, and only subdistributes over meets; the meet defect is
pinned to exact witnesses on both test structures.
"""
import pytest

from biheyt import (NoLeastUpperWitness, bottom, daseinise,
                    is_coheyting_regular, is_heyting_regular, is_tight, join,
                    meet, top)

DAS_P = {"p+q|r": "p+q", "p+r|q": "p+r", "p|q+r": "p", "p|q|r": "p"}


def _meet_defect(poset, p, q):
    """Both sides of the meet inequality, daseinise(p ^ q) and daseinise(p)
    ^ daseinise(q), from the global meet; the first is below the second."""
    st = poset.structure
    g = st.glb(st.el(p), st.el(q))
    assert g is not None
    lhs = daseinise(poset, g)
    rhs = meet([daseinise(poset, p), daseinise(poset, q)])
    assert lhs <= rhs
    return lhs, rhs


def test_bounds_map_to_bounds(boolean3_poset, mo2_poset):
    for poset in (boolean3_poset, mo2_poset):
        assert daseinise(poset, "0") == bottom(poset)
        assert daseinise(poset, "1") == top(poset)


def test_atom_approximation(boolean3_poset):
    assert daseinise(boolean3_poset, "p").to_mapping() == DAS_P


def test_injective_but_not_surjective(boolean3_poset, boolean3_subs,
                                      mo2_poset, mo2_subs):
    for poset, subs in [(boolean3_poset, boolean3_subs),
                        (mo2_poset, mo2_subs)]:
        st = poset.structure
        images = {p: daseinise(poset, p) for p in range(st.n)}
        assert len(set(images.values())) == st.n
        assert len(set(images.values())) < len(subs)


def test_order_preserved_and_reflected(boolean3_poset, mo2_poset):
    for poset in (boolean3_poset, mo2_poset):
        st = poset.structure
        for p in range(st.n):
            for q in range(st.n):
                assert (daseinise(poset, p) <= daseinise(poset, q)) \
                    == st.leq(p, q)


def test_joins_preserved(boolean3_poset, mo2_poset):
    for poset in (boolean3_poset, mo2_poset):
        st = poset.structure
        for p in range(st.n):
            for q in range(st.n):
                v = st.lub(p, q)
                assert v is not None
                assert daseinise(poset, v) \
                    == join([daseinise(poset, p), daseinise(poset, q)])


def test_images_are_tight_and_regular(boolean3_poset, mo2_poset):
    for poset in (boolean3_poset, mo2_poset):
        for p in range(poset.structure.n):
            s = daseinise(poset, p)
            assert is_tight(s)
            assert is_heyting_regular(s) and is_coheyting_regular(s)


def test_meet_defect_on_orthogonal_atoms(boolean3_poset):
    lhs, rhs = _meet_defect(boolean3_poset, "p", "q")
    assert lhs == bottom(boolean3_poset)
    assert rhs.to_mapping() == {"p+q|r": "p+q", "p+r|q": "0",
                                "p|q+r": "0", "p|q|r": "0"}
    assert lhs <= rhs and lhs != rhs


def test_meet_defect_on_incompatible_elements(mo2_poset):
    lhs, rhs = _meet_defect(mo2_poset, "a", "b")
    assert lhs == bottom(mo2_poset)
    assert rhs.to_mapping() == {"a|a'": "a", "b|b'": "b"}
    assert lhs != rhs


def test_meet_defect_vanishes_on_comparable_pairs(boolean3_poset):
    st = boolean3_poset.structure
    strict = 0
    for p in range(st.n):
        for q in range(st.n):
            lhs, rhs = _meet_defect(boolean3_poset, p, q)
            assert lhs <= rhs
            if st.leq(p, q) or st.leq(q, p):
                assert lhs == rhs
            elif lhs != rhs:
                strict += 1
    assert strict > 0


def test_meet_defect_equals_pointwise_meet(boolean3_poset):
    st = boolean3_poset.structure
    for p in range(st.n):
        for q in range(st.n):
            _, rhs = _meet_defect(boolean3_poset, p, q)
            dp = daseinise(boolean3_poset, p).to_mapping()
            dq = daseinise(boolean3_poset, q).to_mapping()
            assert rhs.to_mapping() == {v: st.label(st.glb(dp[v], dq[v]))
                                        for v in dp}


def test_approximation_can_fail_on_pastings(cabello18_poset):
    # "0100" is orthogonal to both atoms of a foreign block, so it sits
    # below two incomparable coatoms of that block's three-atom context.
    with pytest.raises(NoLeastUpperWitness) as info:
        daseinise(cabello18_poset, "0100")
    assert info.value.details == {"element": "0100",
                                  "context": "0001|0010|1100+1m00"}


def test_meet_defect_needs_a_global_meet(cabello18_poset):
    st = cabello18_poset.structure
    c1 = st.ortho[st.el("0001")]
    c2 = st.ortho[st.el("0010")]
    # no global meet, so the left side of the inequality is not defined
    assert st.glb(c1, c2) is None

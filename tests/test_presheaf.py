"""Spectra, restriction maps, clopen subobjects, and global sections.

Subobject counts are verified against a brute-force generate-and-filter
oracle that never touches the production enumerator's pruning logic.
"""
import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from biheyt import (ContextPoset, Limits, NotASubobject, PosetMismatch,
                    SizeGuard, UsageError, alpha, alpha_inv, delta,
                    enumerate_contexts, enumerate_subobjects, from_greechie,
                    generate, global_sections, make_subobject, restrict,
                    restriction_image_projection, spectrum)

from test_oml import tree_pasting

DAS_P = {"p+q|r": "p+q", "p+r|q": "p+r", "p|q+r": "p", "p|q|r": "p"}

# the noncontextual valuation of the 8-element algebra that is true on p
SECTION_P = {"p+q|r": "p+q", "p+r|q": "p+r", "p|q+r": "p", "p|q|r": "p"}


def _brute(poset):
    """Every monotone projection family, by product-and-filter, as a set of
    (context id, element) pairs."""
    n = len(poset.contexts)
    ids = [c.id for c in poset.contexts]
    pools = [sorted(c.elements) for c in poset.contexts]
    st = poset.structure
    good = set()
    for fam in itertools.product(*pools):
        ok = True
        for i in range(n):
            for j in range(n):
                if i != j and poset.includes(i, j):
                    if not st.leq(delta(poset, i, j, fam[i]), fam[j]):
                        ok = False
                        break
            if not ok:
                break
        if ok:
            good.add(frozenset(zip(ids, fam)))
    return good


def _masks(s):
    """The component mask at every context, in context order."""
    return tuple(s.mask_at(i) for i in range(len(s.poset.contexts)))


def _enumerated(poset):
    """The enumeration as (context id, element) families, after checking it
    is strictly ascending in mask tuples and cached."""
    subs = enumerate_subobjects(poset)
    keys = [_masks(s) for s in subs]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    assert enumerate_subobjects(poset) is subs
    return {frozenset((c.id, s.element_at(i)) for i, c in enumerate(poset.contexts))
            for s in subs}


def test_spectrum_is_the_atom_set(boolean3_poset, mo2_poset):
    pts = spectrum(boolean3_poset, "p|q|r")
    assert [pt.label for pt in pts] == ["p", "q", "r"]
    assert all(pt.context_id == "p|q|r" for pt in pts)
    assert [pt.label for pt in spectrum(boolean3_poset, "p|q+r")] == ["p", "q+r"]
    assert [pt.label for pt in spectrum(mo2_poset, "a|a'")] == ["a", "a'"]


def test_restrict_spectrum_points(boolean3_poset):
    top_pts = {pt.label: pt for pt in spectrum(boolean3_poset, "p|q|r")}
    down = restrict(boolean3_poset, top_pts["q"], "p|q+r")
    assert down.label == "q+r" and down.context_id == "p|q+r"
    down = restrict(boolean3_poset, top_pts["p"], "p|q+r")
    assert down.label == "p"
    same = restrict(boolean3_poset, top_pts["p"], "p|q|r")
    assert same == top_pts["p"]


def test_restrict_is_surjective_and_composes(boolean4_poset):
    poset = boolean4_poset
    for i, ci in enumerate(poset.contexts):
        pts = spectrum(poset, i)
        for j in poset.down_indices(i):
            if j == i:
                continue
            imgs = {restrict(poset, pt, j).atom for pt in pts}
            assert imgs == set(poset.contexts[j].atoms)
            for k in poset.down_indices(j):
                if k == j:
                    continue
                for pt in pts:
                    two = restrict(poset, restrict(poset, pt, j), k)
                    assert two == restrict(poset, pt, k)


def test_restrict_rejects_bad_input(boolean3_poset):
    pt = spectrum(boolean3_poset, "p|q+r")[0]
    with pytest.raises(UsageError):
        restrict(boolean3_poset, pt, "p+q|r")   # not a subcontext


def test_alpha_is_an_order_isomorphism(boolean3_poset, mo2_poset):
    for poset in (boolean3_poset, mo2_poset):
        st = poset.structure
        for c in poset.contexts:
            assert alpha(poset, c, st.one) == frozenset(c.atoms)
            assert alpha(poset, c, st.zero) == frozenset()
            for p in c.elements:
                assert alpha_inv(poset, c, alpha(poset, c, p)) == p
                for q in c.elements:
                    assert st.leq(p, q) == (alpha(poset, c, p) <= alpha(poset, c, q))
                # complement within the context is the set complement
                assert alpha(poset, c, st.ortho[p]) \
                    == frozenset(c.atoms) - alpha(poset, c, p)


def test_alpha_top_context_example(boolean3_poset):
    st = boolean3_poset.structure
    got = alpha(boolean3_poset, "p|q|r", "p+q")
    assert got == {st.el("p"), st.el("q")}
    assert alpha_inv(boolean3_poset, "p|q|r", ["p", "q"]) == st.el("p+q")


def test_alpha_rejects_foreign_elements(boolean3_poset):
    with pytest.raises(UsageError):
        alpha(boolean3_poset, "p+q|r", "p")
    with pytest.raises(UsageError):
        alpha_inv(boolean3_poset, "p+q|r", ["p"])


def test_make_subobject_top_and_das_family(boolean3_poset):
    top = make_subobject(boolean3_poset, {c.id: "1" for c in boolean3_poset.contexts})
    assert top.to_mapping() == {c.id: "1" for c in boolean3_poset.contexts}
    s = make_subobject(boolean3_poset, DAS_P)
    assert s.to_mapping() == DAS_P
    assert s.element_at("p|q|r") == boolean3_poset.structure.el("p")


def test_make_subobject_rejects_non_monotone(boolean3_poset):
    family = {"p|q|r": "p", "p+q|r": "0", "p+r|q": "0", "p|q+r": "0"}
    with pytest.raises(NotASubobject) as info:
        make_subobject(boolean3_poset, family)
    assert info.value.details["witness"] == ["p+q|r", "p|q|r"]


def test_make_subobject_shape_errors(boolean3_poset):
    with pytest.raises(UsageError):
        make_subobject(boolean3_poset, {"p|q|r": "p"})   # missing contexts
    with pytest.raises(UsageError):
        make_subobject(boolean3_poset, dict(DAS_P, **{"p|q|r": "nope"}))
    with pytest.raises(UsageError):
        make_subobject(boolean3_poset, dict(DAS_P, **{"p+q|r": "p"}))


def test_subobject_counts_against_brute_oracle(boolean2_poset, boolean3_poset,
                                               mo2_poset, boolean3_subs,
                                               mo2_subs):
    assert len(enumerate_subobjects(boolean2_poset)) == 4
    assert len(mo2_subs) == 4 * 4
    # 64 + 24 + 6 + 1 families grouped by the top-context projection
    assert len(boolean3_subs) == 95
    for poset in (boolean2_poset, boolean3_poset, mo2_poset):
        assert _enumerated(poset) == _brute(poset)


def test_enumeration_is_cached_and_canonically_ordered(boolean3_poset,
                                                       boolean3_subs):
    assert enumerate_subobjects(boolean3_poset) is boolean3_subs
    assert list(boolean3_subs) == sorted(boolean3_subs, key=_masks)
    bottoms = [s for s in boolean3_subs if s.bits == 0]
    assert len(bottoms) == 1 and bottoms[0].to_mapping() == {
        c.id: "0" for c in boolean3_poset.contexts}


def test_enumeration_matches_brute_on_mo4():
    poset = enumerate_contexts(generate("mo", 4))
    assert _enumerated(poset) == _brute(poset)


def test_enumeration_in_every_index_order():
    """Five contexts of boolean:4 with two chains of three, and p+q|r+s under
    the incomparable p+q|r|s and p|q|r+s.  In id order subcontexts come
    first; the other orders make the lower bound act, alone and together
    with the upper bound."""
    full = enumerate_contexts(generate("boolean", 4))
    picked = [full.context(c) for c in ("p|q|r|s", "p+q|r|s", "p|q|r+s",
                                        "p+q|r+s", "p+q+r|s")]
    want = _brute(ContextPoset(full.structure, tuple(picked)))
    for order in itertools.permutations(picked):
        assert _enumerated(ContextPoset(full.structure, order)) == want


@st.composite
def context_subposet(draw):
    """Some contexts of a random tree pasting, as a poset of their own.

    Taking a subset keeps the brute product small.  The contexts come in a
    random index order: on every builtin, id order puts each subcontext
    before its supercontexts, and then the enumeration's lower bound (from
    supercontexts assigned earlier) never acts.
    """
    structure = from_greechie(draw(tree_pasting()))
    contexts = enumerate_contexts(structure).contexts
    picked = draw(st.lists(st.sampled_from(contexts), min_size=1, max_size=6,
                           unique_by=lambda c: c.id))
    kept = []
    for c in picked:
        if math.prod(len(k.elements) for k in kept) * len(c.elements) <= 1 << 15:
            kept.append(c)
    return ContextPoset(structure, tuple(draw(st.permutations(kept))))


@given(context_subposet())
@settings(max_examples=40, deadline=None)
def test_enumeration_matches_brute_on_tree_pasting_subposets(poset):
    assert _enumerated(poset) == _brute(poset)


def test_enumeration_budget_counts_every_subobject():
    structure = generate("boolean", 3)
    assert len(enumerate_subobjects(enumerate_contexts(structure),
                                    limits=Limits(max_subobjects=95))) == 95
    with pytest.raises(SizeGuard):
        enumerate_subobjects(enumerate_contexts(structure),
                             limits=Limits(max_subobjects=94))


def test_restriction_image_agrees_with_coarse_graining(boolean3_poset,
                                                       boolean3_subs):
    poset = boolean3_poset
    st = poset.structure
    for s in boolean3_subs:
        for i in range(len(poset.contexts)):
            for j in poset.down_indices(i):
                out = restriction_image_projection(poset, s, i, j)
                assert st.leq(out, s.element_at(j))


def test_subobject_operators_and_mismatch(boolean3_poset, boolean3_subs):
    s = make_subobject(boolean3_poset, DAS_P)
    top = make_subobject(boolean3_poset, {c.id: "1" for c in boolean3_poset.contexts})
    assert (s & top) == s and (s | top) == top
    assert s <= top and not top <= s
    other = enumerate_subobjects(enumerate_contexts(generate("boolean", 3)))
    with pytest.raises(PosetMismatch):
        s & other[0]


def test_global_sections_of_a_boolean_algebra(boolean3_poset):
    secs = global_sections(boolean3_poset)
    assert len(secs) == 3
    assert SECTION_P in [g.to_mapping() for g in secs]
    for g in secs:
        for i in range(len(boolean3_poset.contexts)):
            pt = spectrum(boolean3_poset, i)[
                boolean3_poset.contexts[i].atoms.index(g.atoms[i])]
            for j in boolean3_poset.down_indices(i):
                assert restrict(boolean3_poset, pt, j).atom == g.atoms[j]


def test_global_sections_of_incomparable_contexts(mo2_poset):
    secs = global_sections(mo2_poset)
    assert len(secs) == 4
    mappings = [g.to_mapping() for g in secs]
    assert {"a|a'": "a", "b|b'": "b"} in mappings


def test_no_global_sections_on_the_18_atom_pasting(cabello18_poset):
    assert global_sections(cabello18_poset) == ()


def test_enumeration_size_guard():
    poset = enumerate_contexts(generate("boolean", 3))
    with pytest.raises(SizeGuard):
        enumerate_subobjects(poset, limits=Limits(max_subobjects=10))


def test_section_search_budget_guard(cabello18_poset):
    with pytest.raises(SizeGuard):
        global_sections(cabello18_poset, limits=Limits(search_budget=5))

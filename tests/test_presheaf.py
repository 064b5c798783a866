"""Spectra, restriction maps, clopen subobjects, and global sections.

Subobject counts are verified against a brute-force generate-and-filter
oracle that never touches the production enumerator's pruning logic, and
global sections against the product of the spectra, filtered by
``restrict``.
"""
import gc
import inspect
import itertools
import math
import sys
import weakref
from bisect import bisect_right
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from biheyt import presheaf
from biheyt.oml import CABELLO18_BLOCKS
from biheyt import (ContextPoset, Limits, NotASubobject, PosetMismatch,
                    SizeGuard, UsageError, alpha, alpha_inv, daseinise, delta,
                    enumerate_contexts, enumerate_subobjects, from_greechie,
                    generate, global_sections, make_subobject, restrict,
                    restriction_image_projection, spectrum)

from support import (DAS_P, FOUR_LOOP, PENTAGON, THREE_CHAIN,
                     _reference_walk, chain_pasting, context_subposet,
                     tree_pasting)

# the noncontextual valuation of the 8-element algebra that is true on p
SECTION_P = {"p+q|r": "p+q", "p+r|q": "p+r", "p|q+r": "p", "p|q|r": "p"}


def _brute(poset):
    """Every monotone projection family, by product-and-filter, as a set of
    (context id, element) pairs.  The (element of V, element of V') pairs
    with ``delta`` of the first below the second are listed once for each
    inclusion V' <= V; the filter looks the family's pairs up in them."""
    n = len(poset.contexts)
    ids = [c.id for c in poset.contexts]
    pools = [sorted(c.elements) for c in poset.contexts]
    st = poset.structure
    inclusions = [(i, j, {(p, q) for p in pools[i] for q in pools[j]
                          if st.leq(delta(poset, i, j, p), q)})
                  for i in range(n) for j in range(n)
                  if i != j and poset.includes(i, j)]
    return {frozenset(zip(ids, fam)) for fam in itertools.product(*pools)
            if all((fam[i], fam[j]) in ok for i, j, ok in inclusions)}


def _masks(s):
    """The component mask at every context, in context order."""
    return tuple(s.mask_at(i) for i in range(len(s.poset.contexts)))


def _packed(poset, bits) -> bytes:
    """The order digest's bytes: every subobject's bits, in order."""
    width = (poset.total_bits + 7) // 8
    return b"".join(b.to_bytes(width, "little") for b in bits)


def _guard_details(walk):
    with pytest.raises(SizeGuard) as info:
        walk()
    return info.value.details


def _cut(poset):
    """The context from which the enumeration memoises its tails."""
    return next((k for k in range(len(poset.contexts))
                 if poset.total_bits - poset._offsets[k]
                 <= presheaf._CUT_POINTS), len(poset.contexts) - 1)


def _runs(bits, off):
    """The start of every run of ``bits`` agreeing below bit ``off``, then
    the end of the last."""
    low = (1 << off) - 1
    return [i for i, b in enumerate(bits)
            if i == 0 or b & low != bits[i - 1] & low] + [len(bits)]


def _reached(poset, bits):
    """The count the guard reports for each budget: the end of the first
    last-context batch of the reference walk past it."""
    ends = _runs(bits, poset._offsets[-1])[1:]
    return lambda budget: ends[bisect_right(ends, budget)]


@pytest.fixture(scope="module")
def loop_poset():
    return enumerate_contexts(from_greechie(FOUR_LOOP))


@pytest.fixture(scope="module")
def loop_bits(loop_poset):
    return _reference_walk(loop_poset)


def _enumerated(poset):
    """The enumeration as (context id, element) families, after checking it
    is strictly ascending in mask tuples and that a second enumeration
    gives the same subobjects in the same order."""
    subs = enumerate_subobjects(poset)
    keys = [_masks(s) for s in subs]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    assert enumerate_subobjects(poset) == subs
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


def test_enumeration_is_fresh_and_canonically_ordered(boolean3_poset,
                                                      boolean3_subs):
    again = enumerate_subobjects(boolean3_poset)
    assert again is not boolean3_subs and again == boolean3_subs
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


def test_enumeration_in_every_index_order_of_boolean3(boolean3_poset):
    """All 24 orders of the four contexts.  Among them, reversed id order
    puts p|q|r before the three contexts below it, so no context has an
    earlier subcontext and only the carried lower bounds act."""
    want = _brute(boolean3_poset)
    reversed_order = ContextPoset(boolean3_poset.structure,
                                  boolean3_poset.contexts[::-1])
    assert all(j > i for i in range(4) for j in reversed_order._below[i])
    for order in itertools.permutations(boolean3_poset.contexts):
        poset = ContextPoset(boolean3_poset.structure, order)
        assert _enumerated(poset) == want


def test_enumeration_without_contexts(boolean3):
    """No contexts: the empty family is the one subobject."""
    (only,) = enumerate_subobjects(ContextPoset(boolean3, ()))
    assert only.bits == 0
    with pytest.raises(SizeGuard) as info:
        enumerate_subobjects(ContextPoset(boolean3, ()),
                             limits=Limits(max_subobjects=0))
    assert info.value.details == {"limit": "max_subobjects", "value": 0,
                                  "reached": 1}


@given(context_subposet())
@settings(max_examples=40, deadline=None)
def test_enumeration_matches_brute_on_tree_pasting_subposets(poset):
    assert _enumerated(poset) == _brute(poset)


@pytest.mark.parametrize("kind, n", [("boolean", 3), ("mo", 6)])
def test_enumeration_matches_the_reference_walk(kind, n):
    poset = enumerate_contexts(generate(kind, n))
    assert _cut(poset) == 0
    assert (_packed(poset, (s.bits for s in enumerate_subobjects(poset)))
            == _packed(poset, _reference_walk(poset)))


def test_enumeration_matches_the_reference_walk_on_the_loop_pasting(
        loop_poset, loop_bits):
    assert _cut(loop_poset) == 6 and len(loop_bits) == 459_103
    subs = enumerate_subobjects(loop_poset)
    assert _packed(loop_poset, (s.bits for s in subs)) \
        == _packed(loop_poset, loop_bits)


@given(context_subposet())
@settings(max_examples=40, deadline=None)
def test_enumeration_matches_the_reference_walk_at_every_cut(poset):
    """In random index order the lower bounds from earlier supercontexts
    act, so a memo keyed on less than both bounds goes wrong here.  Smaller
    cut sizes move the cut below the first context on these small posets;
    0 puts it at the last context."""
    want = _packed(poset, _reference_walk(poset))
    for points in (0, 3, 6, presheaf._CUT_POINTS):
        with mock.patch.object(presheaf, "_CUT_POINTS", points):
            subs = enumerate_subobjects(poset)
        assert _packed(poset, (s.bits for s in subs)) == want


def test_enumeration_budget_counts_every_subobject():
    structure = generate("boolean", 3)
    assert len(enumerate_subobjects(enumerate_contexts(structure),
                                    limits=Limits(max_subobjects=95))) == 95
    with pytest.raises(SizeGuard) as info:
        enumerate_subobjects(enumerate_contexts(structure),
                             limits=Limits(max_subobjects=94))
    assert info.value.details == {"limit": "max_subobjects", "value": 94,
                                  "reached": 95}


def test_guard_reached_matches_the_reference_on_every_budget(boolean3_poset):
    bits = _reference_walk(boolean3_poset)
    reached = _reached(boolean3_poset, bits)
    for budget in range(-2, len(bits)):
        want = _guard_details(lambda: _reference_walk(boolean3_poset, budget))
        assert want["reached"] == reached(budget)
        assert _guard_details(lambda: enumerate_subobjects(
            boolean3_poset, limits=Limits(max_subobjects=budget))) == want


def test_guard_reached_inside_memo_batches(loop_poset, loop_bits):
    """Budgets at the start, middle and end of memo batches, and at the
    start of last-context batches of more than one, both where the guard
    trips on a memo batch met before and where it trips while one is first
    walked."""
    batches = _runs(loop_bits, loop_poset._offsets[_cut(loop_poset)])
    groups = _runs(loop_bits, loop_poset._offsets[-1])
    multi = [a for a, b in zip(groups, groups[1:]) if b - a > 1]
    reached = _reached(loop_poset, loop_bits)
    budgets = multi[:3] + multi[-1:]
    for k in (1, 4, 5):
        start, end = batches[k], batches[k + 1]
        budgets += [start, (start + end) // 2, end - 1]
    for budget in budgets:
        details = _guard_details(lambda: enumerate_subobjects(
            loop_poset, limits=Limits(max_subobjects=budget)))
        assert details == {"limit": "max_subobjects", "value": budget,
                           "reached": reached(budget)}


def test_repeated_enumeration_keeps_the_budget():
    poset = enumerate_contexts(generate("boolean", 3))
    subs = enumerate_subobjects(poset)
    with pytest.raises(SizeGuard) as info:
        enumerate_subobjects(poset, limits=Limits(max_subobjects=94))
    assert info.value.details == {"limit": "max_subobjects", "value": 94,
                                  "reached": 95}
    assert enumerate_subobjects(poset, limits=Limits(max_subobjects=95)) == subs


def _dropped_poset_dies(walk, structure) -> bool:
    """Whether a fresh poset of ``structure`` is freed by reference counting
    alone once ``walk(poset)`` has run and both are dropped."""
    poset = enumerate_contexts(structure)
    ref = weakref.ref(poset)
    collecting = gc.isenabled()
    gc.disable()
    try:
        walk(poset)
        del poset
        return ref() is None
    finally:
        if collecting:
            gc.enable()


# boolean:3 memoises from its first context, the chain from its fifth: a
# budget of 100 stops the chain's walk inside a memo batch it is walking for
# the first time, one of 570 inside a memo batch met before.
GUARDED_WALKS = [(generate("boolean", 3), 40),
                 (from_greechie(THREE_CHAIN), 100),
                 (from_greechie(THREE_CHAIN), 570)]


def test_dropped_enumeration_is_freed_without_the_collector():
    for structure in (generate("boolean", 3), from_greechie(THREE_CHAIN)):
        assert _dropped_poset_dies(enumerate_subobjects, structure)


def test_enumeration_stopped_by_its_guard_leaves_no_cycle():
    for structure, budget in GUARDED_WALKS:
        def walk(poset):
            with pytest.raises(SizeGuard):
                enumerate_subobjects(poset,
                                     limits=Limits(max_subobjects=budget))
        assert _dropped_poset_dies(walk, structure)


def _subobject_count(poset, limits=Limits()):
    """The subobject count as ``biheyt enumerate`` takes it: the lengths of
    the walk's batches, with no subobject built."""
    return sum(len(batch) for _, batch in presheaf._subobject_batches(poset, limits))


def test_count_stopped_by_its_guard_leaves_no_cycle():
    """``biheyt enumerate`` without ``--list`` sums the batch lengths."""
    for structure, budget in GUARDED_WALKS:
        def count(poset):
            with pytest.raises(SizeGuard):
                _subobject_count(poset, Limits(max_subobjects=budget))
        assert _dropped_poset_dies(count, structure)


def test_dropped_section_search_is_freed_without_the_collector():
    for structure in (generate("boolean", 3), from_greechie(PENTAGON)):
        assert _dropped_poset_dies(global_sections, structure)


def test_section_search_stopped_by_its_budget_leaves_no_cycle():
    def walk(poset):
        with pytest.raises(SizeGuard):
            global_sections(poset, limits=Limits(search_budget=17))
    assert _dropped_poset_dies(walk, generate("cabello18"))


def test_section_search_is_not_bounded_by_the_recursion_limit():
    """A 150-block chain has 150 maximal contexts, more than the lowered
    limit leaves frames for; the search still stops at its budget."""
    poset = enumerate_contexts(from_greechie(chain_pasting(150)))
    assert len(poset.maximal) == 150
    before = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        with pytest.raises(SizeGuard) as info:
            global_sections(poset, limits=Limits(search_budget=1000))
    finally:
        sys.setrecursionlimit(before)
    assert info.value.details == {"limit": "search_budget", "value": 1000,
                                  "nodes": 1001}


def test_enumeration_is_not_bounded_by_the_recursion_limit():
    """A 150-block chain has 451 contexts, more than the lowered limit
    leaves frames for; the walk still stops at its guard, where the
    reference walk does."""
    poset = enumerate_contexts(from_greechie(chain_pasting(150)))
    assert len(poset.contexts) == 451
    want = _guard_details(lambda: _reference_walk(poset, 1000))
    before = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        with pytest.raises(SizeGuard) as info:
            enumerate_subobjects(poset, limits=Limits(max_subobjects=1000))
    finally:
        sys.setrecursionlimit(before)
    assert info.value.details == want == {"limit": "max_subobjects",
                                          "value": 1000, "reached": 1002}


@pytest.mark.parametrize("collecting", [True, False])
def test_enumeration_restores_the_collector_setting(boolean3_poset,
                                                    collecting):
    before = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        assert len(enumerate_subobjects(boolean3_poset)) == 95
        assert gc.isenabled() is collecting
        with pytest.raises(SizeGuard):
            enumerate_subobjects(boolean3_poset,
                                 limits=Limits(max_subobjects=40))
        assert gc.isenabled() is collecting
        with pytest.raises(SizeGuard):
            enumerate_subobjects(ContextPoset(boolean3_poset.structure, ()),
                                 limits=Limits(max_subobjects=0))
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if before else gc.disable)()


# Each bulk producer, the walk it builds from, the structure it runs on
# (4,096 subobjects of mo:6, 4,096 sections of mo:12) and limits it trips.
BULK_BUILDS = {
    "enumerate": (enumerate_subobjects, "_subobject_batches", ("mo", 6),
                  Limits(max_subobjects=40)),
    "sections": (global_sections, "_section_rows", ("mo", 12),
                 Limits(search_budget=17)),
}


class _Node:
    """A weakly referenceable object, to build a cycle from."""


def _in_generation(obj, generation: int) -> bool:
    return any(o is obj for o in gc.get_objects(generation=generation))


def _watch(started: list, gate=None):
    """A ``gc.callbacks`` entry that appends the generation of every
    collection that starts, while ``gate`` is non-empty if one is given."""
    def watch(phase, info):
        if phase == "start" and (gate is None or gate):
            started.append(info["generation"])
    return watch


@pytest.mark.parametrize("build", BULK_BUILDS)
def test_bulk_build_skips_the_young_collections(build, monkeypatch):
    """With the collector on, no collection starts once the build has
    begun, the result ends in the oldest generation, and a cycle the caller
    dropped just before the call is still reclaimed."""
    produce, walk_name, spec, _ = BULK_BUILDS[build]
    poset = enumerate_contexts(generate(*spec))
    walk = getattr(presheaf, walk_name)
    building, started = [], []
    watch = _watch(started, building)

    def watched_walk(*args):
        building.append(True)
        return walk(*args)

    monkeypatch.setattr(presheaf, walk_name, watched_walk)
    before = gc.isenabled()
    gc.enable()
    gc.collect()   # zero the young counts: a young pass leaves objects younger
    gc.callbacks.append(watch)
    try:
        cycle = _Node()
        cycle.self = cycle
        dropped = weakref.ref(cycle)
        del cycle
        result = produce(poset)
        assert len(result) == 4096 and building
        assert _in_generation(result[0], 2) and _in_generation(result[-1], 2)
        assert dropped() is None
        assert started == []
    finally:
        gc.callbacks.remove(watch)
        (gc.enable if before else gc.disable)()


def test_bulk_build_too_small_to_outgrow_the_young_generation_stays_young(
        boolean3_poset):
    """boolean:3 has 2**9 sets of points, no more than the young threshold,
    so neither producer collects or promotes: its result stays young."""
    poset = boolean3_poset
    assert 1 << poset.total_bits <= gc.get_threshold()[0]
    started = []
    watch = _watch(started)
    before = gc.isenabled()
    gc.enable()
    gc.callbacks.append(watch)
    try:
        for produce in (enumerate_subobjects, global_sections):
            gc.collect()
            started.clear()
            result = produce(poset)
            assert started == []
            assert not _in_generation(result[0], 2)
    finally:
        gc.callbacks.remove(watch)
        (gc.enable if before else gc.disable)()


@pytest.mark.parametrize("caller", ["on", "off", "frozen"])
@pytest.mark.parametrize("build", BULK_BUILDS)
def test_bulk_build_leaves_the_caller_collector_state(build, caller):
    """The collector setting and the frozen count are as the caller left
    them, after a result and after a tripped guard; what the caller froze
    stays frozen, and with the collector off nothing is collected."""
    produce, _, spec, tight = BULK_BUILDS[build]
    poset = enumerate_contexts(generate(*spec))
    before = gc.isenabled()
    marker = _Node()
    started = []
    watch = _watch(started)
    (gc.disable if caller == "off" else gc.enable)()
    if caller == "frozen":
        gc.freeze()
    frozen = gc.get_freeze_count()
    gc.callbacks.append(watch)
    try:
        assert len(produce(poset)) == 4096
        assert (gc.isenabled(), gc.get_freeze_count()) == (caller != "off", frozen)
        with pytest.raises(SizeGuard):
            produce(poset, limits=tight)
        assert (gc.isenabled(), gc.get_freeze_count()) == (caller != "off", frozen)
        if caller == "frozen":
            assert not any(_in_generation(marker, g) for g in range(3))
        if caller == "off":
            assert started == []
    finally:
        gc.callbacks.remove(watch)
        if caller == "frozen":
            gc.unfreeze()
        (gc.enable if before else gc.disable)()


def test_restriction_image_agrees_with_coarse_graining(boolean3_poset,
                                                       boolean3_subs):
    poset = boolean3_poset
    st = poset.structure
    for s in boolean3_subs:
        for i in range(len(poset.contexts)):
            for j in poset.down_indices(i):
                out = restriction_image_projection(poset, s, i, j)
                assert st.leq(out, s.element_at(j))


def test_restriction_image_needs_a_subobject_of_its_poset(boolean3_poset):
    """With the contexts in reversed order, an index of one poset names
    another context of the other: p's image from p|q|r in p+r|q is p+r, but
    read through the wrong poset it would be 1."""
    poset = boolean3_poset
    flipped = ContextPoset(poset.structure, poset.contexts[::-1])
    big, small = poset.index("p|q|r"), poset.index("p+r|q")
    want = poset.structure.el("p+r")
    assert restriction_image_projection(poset, daseinise(poset, "p"),
                                        big, small) == want
    with pytest.raises(PosetMismatch):
        restriction_image_projection(poset, daseinise(flipped, "p"), big, small)


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


def _brute_sections(poset):
    """Every global section, by product and filter: one spectrum point per
    context, kept when ``restrict`` sends the point at every context to the
    point at each of its subcontexts.  As the chosen atoms, in context order;
    the product runs through them in ascending order."""
    n = len(poset.contexts)
    inclusions = [(i, j, {(p.atom, restrict(poset, p, j).atom)
                          for p in spectrum(poset, i)})
                  for i in range(n) for j in range(n)
                  if i != j and poset.includes(i, j)]
    pools = [[p.atom for p in spectrum(poset, i)] for i in range(n)]
    return [fam for fam in itertools.product(*pools)
            if all((fam[i], fam[j]) in ok for i, j, ok in inclusions)]


@pytest.mark.parametrize("structure", [
    generate("boolean", 3), generate("mo", 3), from_greechie(FOUR_LOOP),
    from_greechie(PENTAGON)], ids=["boolean:3", "mo:3", "loop", "pentagon"])
def test_global_sections_match_the_brute_product(structure):
    poset = enumerate_contexts(structure)
    assert [g.atoms for g in global_sections(poset)] == _brute_sections(poset)


@given(context_subposet())
@settings(max_examples=40, deadline=None)
def test_global_sections_match_the_brute_product_on_tree_pasting_subposets(
        poset):
    assert [g.atoms for g in global_sections(poset)] == _brute_sections(poset)


def test_section_search_budget_guard(cabello18_poset):
    """The guard trips at the node past the budget, with the same message
    and ``details`` at every budget; the pentagon's search takes 90 nodes."""
    pentagon = enumerate_contexts(from_greechie(PENTAGON))
    for poset, budgets in ((cabello18_poset, (1, 5, 17, 300)),
                           (pentagon, (1, 5, 17, 89))):
        for budget in budgets:
            with pytest.raises(SizeGuard) as info:
                global_sections(poset, limits=Limits(search_budget=budget))
            assert str(info.value) == f"section search exceeded budget {budget}"
            assert info.value.details == {"limit": "search_budget",
                                          "value": budget, "nodes": budget + 1}
    for budget in (90, 300):
        assert len(global_sections(pentagon,
                                   limits=Limits(search_budget=budget))) == 11


def _one_search_rows(poset):
    """The section rows of one search over every maximal context, decoded a
    context at a time and sorted: the rows before the sections were
    factored over runs of contexts."""
    n = len(poset.contexts)
    states = ([state for _, state in presheaf._section_states(
        poset, Limits(), [(range(n), poset.maximal)])] if n else [0])
    columns = [[elem[state >> off & f] for state in states] for elem, off, f
               in zip(poset._mask_to_elem, poset._offsets, poset._full)]
    assert all(state.bit_count() == n for state in states)
    assert all(0 not in c for c in columns)
    return sorted(zip(*columns)) if columns else [()] * len(states)


def _assert_runs_tile(poset):
    """The runs' ranges tile the context indices in order, each maximal
    context is in the run whose range holds it, and no inclusion joins
    two runs."""
    runs = presheaf._section_runs(poset)
    assert [i for contexts, _ in runs for i in contexts] \
        == list(range(len(poset.contexts)))
    assert sorted(m for _, maximal in runs for m in maximal) == list(poset.maximal)
    for contexts, maximal in runs:
        assert all(j in contexts for m in maximal for j in (m, *poset._below[m]))
    return runs


def _pieces(poset):
    """The number of connected pieces of the context poset."""
    seen, pieces = set(), 0
    for start in range(len(poset.contexts)):
        if start not in seen:
            pieces += 1
            todo = [start]
            while todo:
                i = todo.pop()
                if i not in seen:
                    seen.add(i)
                    todo += [*poset._below[i], *poset._above[i]]
    return pieces


def _sections_match_one_search(poset):
    """The runs' rows, multiplied out in run order, ``global_sections`` and
    the count all equal one search over every maximal context."""
    want = _one_search_rows(poset)
    runs = presheaf._section_rows(poset, Limits())
    assert [sum(parts, ()) for parts in itertools.product(
        *[rows for _, rows in runs])] == want
    assert [g.atoms for g in global_sections(poset)] == want
    assert presheaf._section_count(poset, Limits()) == len(want)
    return _assert_runs_tile(poset)


@pytest.mark.parametrize("spec", [
    *[f"boolean:{n}" for n in range(2, 9)], *[f"mo:{n}" for n in range(1, 17)],
    "cabello18", "loop", "pentagon"])
def test_section_runs_match_one_search(spec):
    name, _, n = spec.partition(":")
    structure = (from_greechie({"loop": FOUR_LOOP, "pentagon": PENTAGON}[name])
                 if name in ("loop", "pentagon")
                 else generate(name, int(n) if n else None))
    runs = _sections_match_one_search(enumerate_contexts(structure))
    # mo:N is N two-atom blocks, one context each, so N runs; every other
    # builtin is connected, and so one run
    assert len(runs) == (int(n) if name == "mo" else 1)


def test_sections_without_contexts(boolean3):
    """No contexts: no runs, and their empty product, the empty family, is
    the one section."""
    poset = ContextPoset(boolean3, ())
    assert _sections_match_one_search(poset) == []
    assert [g.atoms for g in global_sections(poset)] == [()]


@given(tree_pasting())
@settings(max_examples=30, deadline=None)
def test_section_runs_match_one_search_on_tree_pastings(blocks):
    poset = enumerate_contexts(from_greechie(blocks))
    assert len(_sections_match_one_search(poset)) == _pieces(poset) == 1


@st.composite
def horizontal_sum(draw):
    """Two or three tree pastings with no atom in common, whose pasting is
    their horizontal sum: (blocks of the sum, blocks of each summand).  The
    labels come from one shuffled pool, so in some draws the summands'
    context ids interleave and in others they do not."""
    summands = draw(st.lists(tree_pasting(), min_size=2, max_size=3))
    pool = iter(draw(st.permutations([f"s{i:02d}" for i in range(40)])))
    relabelled = []
    for blocks in summands:
        names = {}
        relabelled.append([[names.setdefault(a, next(pool)) for a in block]
                           for block in blocks])
    return [block for blocks in relabelled for block in blocks], relabelled


def test_sections_of_horizontal_sums_multiply():
    """On a horizontal sum the sections are the product of the summands':
    the rows equal one search, and the count is the product of the
    summands' counts.  Both layouts occur among the draws: interleaved ids,
    where the summands make one run of several pieces, and several runs."""
    seen = set()

    @given(horizontal_sum())
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    def check(drawn):
        blocks, summands = drawn
        poset = enumerate_contexts(from_greechie(blocks))
        runs = _sections_match_one_search(poset)
        assert _pieces(poset) == len(summands)
        assert presheaf._section_count(poset, Limits()) == math.prod(
            presheaf._section_count(enumerate_contexts(from_greechie(b)), Limits())
            for b in summands)
        seen.add("one run" if len(runs) == 1 else "several runs")

    check()
    assert seen == {"one run", "several runs"}


@pytest.mark.parametrize("blocks, count", [
    ([["p", "q", "r"], ["x", "y", "z"]], 95 * 95),
    ([["p", "q", "r"], ["a", "a'"], ["b", "b'"]], 95 * 16),
], ids=["boolean3+boolean3", "boolean3+mo2"])
def test_subobject_counts_of_horizontal_sums_multiply(blocks, count):
    """O(P_A ⊔ P_B) = O(P_A) × O(P_B): boolean:3 has 95 subobjects and mo:2
    has 16, and enumeration lists each pair of them once."""
    poset = enumerate_contexts(from_greechie(blocks))
    assert len(enumerate_subobjects(poset)) == _subobject_count(poset) == count


def test_subobject_counts_of_drawn_horizontal_sums_multiply():
    """The same on drawn sums whose summands' counts multiply to at most
    200,000.  Each summand is counted only up to what that bound leaves
    with every later summand at its least: 4 subobjects, as every summand
    has nothing, everything and either point of a minimal context alone.
    A summand past it leaves its draw unchecked; about a tenth check."""
    checked = []

    @given(horizontal_sum())
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    def check(drawn):
        blocks, summands = drawn
        want = 1
        for k, b in enumerate(summands):
            left = Limits(max_subobjects=200_000 // want // 4 ** (len(summands) - 1 - k))
            try:
                want *= _subobject_count(enumerate_contexts(from_greechie(b)), left)
            except SizeGuard:
                return
        assert _subobject_count(enumerate_contexts(from_greechie(blocks))) == want
        checked.append(want)

    check()
    assert len(checked) >= 5


@pytest.mark.parametrize("labels, nodes", [(["p", "q", "r"], 876),
                                           (["-p", "-q", "-r"], 879)],
                         ids=["cabello18-first", "boolean3-first"])
def test_cabello18_beside_boolean3_has_no_section(labels, nodes):
    """cabello18 ⊕ boolean:3 has 0 × 3 sections.  The run whose ids sort
    first is searched first and one node count runs across the runs:
    cabello18 alone takes 876 nodes and boolean:3 alone 3, and the run with
    no section ends the search, so boolean:3 is searched only when it
    comes first."""
    poset = enumerate_contexts(from_greechie([*CABELLO18_BLOCKS, labels]))
    assert len(_assert_runs_tile(poset)) == 2
    enough, short = Limits(search_budget=nodes), Limits(search_budget=nodes - 1)
    assert presheaf._section_count(poset, enough) == 0
    assert global_sections(poset, limits=enough) == ()
    for search in (lambda: presheaf._section_count(poset, short),
                   lambda: global_sections(poset, limits=short)):
        with pytest.raises(SizeGuard) as info:
            search()
        assert info.value.details == {"limit": "search_budget",
                                      "value": nodes - 1, "nodes": nodes}


def test_section_listing_past_the_budget_builds_nothing(monkeypatch):
    """mo:12 is twelve runs of one two-atom context: the search takes 24
    nodes and the listing holds 4,096 sections.  A listing past the budget
    raises before any ``GlobalSection`` is built; the count does not."""
    poset = enumerate_contexts(generate("mo", 12))
    assert presheaf._section_count(poset, Limits(search_budget=24)) == 4096
    with pytest.raises(SizeGuard) as info:
        presheaf._section_count(poset, Limits(search_budget=23))
    assert info.value.details["nodes"] == 24

    def refuse(*args):
        raise AssertionError("GlobalSection built")
    monkeypatch.setattr(presheaf, "GlobalSection", refuse)
    with pytest.raises(SizeGuard) as info:
        global_sections(poset, limits=Limits(search_budget=4095))
    assert str(info.value) \
        == "section listing needs 4096 sections, over search budget 4095"
    assert info.value.details == {"limit": "search_budget", "value": 4095,
                                  "needed": 4096}
    monkeypatch.undo()
    assert len(global_sections(poset, limits=Limits(search_budget=4096))) == 4096

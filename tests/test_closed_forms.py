"""The closed local forms of the negations, beyond the brute oracle's reach.

The production negations are implication into bottom and subtraction from
top, closing the gap over every inclusion.  The forms the ``biheyting``
docstring states use only the extremal contexts: minimal subcontexts for the
Heyting side, maximal supercontexts for the co-Heyting side.  Here they are
recomputed pointwise, from spectra and ``restrict``, on structures too large
to enumerate (``cabello18``, ``boolean:5``, random tree pastings), for
daseinisation images and random monotone families.  ``is_tight`` reads only
the inclusions below maximal contexts; here it is compared with the loop
over every inclusion.  Implication and subtraction close the gap S ^ ~T
upwards or downwards with the poset's two closures; here they are compared with per-target loops that gather, at each context, the
gap's pullbacks from below or its images from above.  Those loops read
neither closure of ``ContextPoset`` nor its masks: with a closure patched to
skip one context, or a mask to drop one context's points, they and the
reference enumeration walk disagree with production; a down-closure that
skips a context also breaks daseinisation, the closure of its components at
the maximal contexts, against the oracle's dominator scan.  With one entry of
``_least`` set to a wrong atom mask, the subtraction loop, the ``is_tight``
reference and a daseinisation by the oracle's dominator scan disagree too.
"""
import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

from biheyt import (LATTICE, ContextPoset, NoLeastUpperWitness, alpha_inv,
                    bottom, builtin_structure, coheyting_not,
                    coheyting_subtract, daseinise, double_coheyting_not,
                    double_heyting_not, enumerate_contexts,
                    enumerate_subobjects, from_greechie, heyting_implies,
                    heyting_not, is_tight, join, make_subobject,
                    maximal_above, meet, minimal_below, restrict,
                    restriction_image_projection, spectrum, top, validate)
from biheyt.oracle import _least_dominating

from support import (PENTAGON, _dump_explicit, _reference_walk,
                     restriction_maps, tree_pasting)


@functools.cache
def _builtin(spec):
    poset = enumerate_contexts(builtin_structure(spec))
    return poset, _restriction(poset)


def _restriction(poset):
    """(big, small) -> {atom of big: atom of small above it}, via ``restrict``."""
    table = {}
    for i in range(len(poset.contexts)):
        for j in poset.down_indices(i):
            table[(i, j)] = {pt.atom: restrict(poset, pt, j).atom
                             for pt in spectrum(poset, i)}
    return table


def _atoms(poset, i):
    return frozenset(poset.contexts[i].atoms)


def _component(s, i):
    return frozenset(pt.atom for pt in s.points_at(i))


def _random_family(poset, restr, rng, density):
    """A monotone family: largest contexts first, each component the
    restriction images of its supercontexts' components plus random atoms."""
    n = len(poset.contexts)
    order = sorted(range(n), key=lambda i: -len(poset.contexts[i].elements))
    chosen = {}
    for j in order:
        forced = {restr[(i, j)][a] for i in poset.up_indices(j) if i != j
                  for a in chosen[i]}
        extra = {a for a in poset.contexts[j].atoms if rng.random() < density}
        chosen[j] = frozenset(forced | extra)
    return make_subobject(poset, {poset.contexts[j].id: alpha_inv(poset, j, chosen[j])
                                  for j in range(n)})


@st.composite
def _operand(draw, poset, restr):
    structure = poset.structure
    if structure.kind == LATTICE and draw(st.booleans()):
        return daseinise(poset, draw(st.integers(0, structure.n - 1)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return _random_family(poset, restr, rng, draw(st.sampled_from((0.1, 0.3, 0.6))))


def _check_closed_forms(poset, restr, s):
    def pullback(i, j, atoms_j):
        return frozenset(a for a in poset.contexts[i].atoms if restr[(i, j)][a] in atoms_j)

    def image(w, i, atoms_w):
        return frozenset(restr[(w, i)][a] for a in atoms_w)

    neg, dneg = heyting_not(s), double_heyting_not(s)
    coneg, dconeg = coheyting_not(s), double_coheyting_not(s)
    for i, c in enumerate(poset.contexts):
        below = [poset.index(m) for m in minimal_below(poset, i)]
        above = [poset.index(w) for w in maximal_above(poset, i)]
        pulled = [pullback(i, j, _component(s, j)) for j in below]
        assert _component(neg, i) == _atoms(poset, i) - frozenset().union(*pulled), c.id
        assert _component(dneg, i) == frozenset.intersection(*pulled), c.id
        assert _component(coneg, i) == frozenset().union(
            *(image(w, i, _atoms(poset, w) - _component(s, w)) for w in above)), c.id
        assert _component(dconeg, i) == frozenset().union(
            *(image(w, i, _component(s, w)) for w in above)), c.id
        for j in poset.down_indices(i):
            # raises AssertionError when the table and the scan disagree
            restriction_image_projection(poset, s, i, j)


@pytest.mark.parametrize("spec", ["cabello18", "boolean:5"])
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_closed_forms_on_builtins(spec, data):
    poset, restr = _builtin(spec)
    _check_closed_forms(poset, restr, data.draw(_operand(poset, restr)))


@given(blocks=tree_pasting(), data=st.data())
@settings(max_examples=40, deadline=None)
def test_closed_forms_on_tree_pastings(blocks, data):
    poset = enumerate_contexts(from_greechie(blocks))
    restr = _restriction(poset)
    _check_closed_forms(poset, restr, data.draw(_operand(poset, restr)))


def _tight_at_every_inclusion(s):
    """Reference for ``is_tight``: compare the components along every
    inclusion, not only those below a maximal context."""
    poset = s.poset
    masks = [(s.bits >> off) & full
             for off, full in zip(poset._offsets, poset._full)]
    return all(restriction_maps(poset, i, j)[0](masks[i]) == masks[j]
               for i in range(len(poset.contexts)) for j in poset._below[i])


def _base_operands(poset, restr, rng):
    """Every daseinisation image that exists, then nine random monotone
    families."""
    images = []
    for e in range(poset.structure.n):
        try:
            images.append(daseinise(poset, e))
        except NoLeastUpperWitness:
            pass
    return images + [_random_family(poset, restr, rng, density)
                     for density in (0.1, 0.3, 0.6) for _ in range(3)]


def _assert_tightness_matches(poset, restr, seed):
    """Compare on every daseinisation image that exists, random monotone
    families, and the meets, joins, implications, subtractions and negations
    of them; return the verdicts seen."""
    rng = random.Random(seed)
    base = _base_operands(poset, restr, rng)
    derived = []
    for _ in range(12):
        s, t = rng.choice(base), rng.choice(base)
        derived += [meet([s, t]), join([s, t]), heyting_implies(s, t),
                    coheyting_subtract(s, t), heyting_not(s), coheyting_not(s)]
    verdicts = [(is_tight(s), _tight_at_every_inclusion(s))
                for s in base + derived]
    assert all(fast == slow for fast, slow in verdicts)
    return {fast for fast, _ in verdicts}


def _both_verdicts_where_inclusions_exist(poset, seen):
    # with no inclusion every subobject is tight
    assert seen == ({True, False} if any(poset._below) else {True})


TIGHT_SPECS = ([f"boolean:{k}" for k in range(2, 7)]
               + [f"mo:{k}" for k in (1, 2, 3, 12)] + ["cabello18"])


@pytest.mark.parametrize("spec", TIGHT_SPECS)
def test_maximal_contexts_decide_tightness_on_builtins(spec):
    poset = enumerate_contexts(builtin_structure(spec))
    _both_verdicts_where_inclusions_exist(
        poset, _assert_tightness_matches(poset, _restriction(poset), seed=7))


@pytest.mark.parametrize("blocks", [
    PENTAGON,
    [["a", "b", "c"], ["c", "d", "e"], ["e", "f", "g"], ["g", "h", "a"]]],
    ids=["pentagon", "four-loop"])
def test_maximal_contexts_decide_tightness_on_loop_pastings(blocks):
    poset = enumerate_contexts(from_greechie(blocks))
    _both_verdicts_where_inclusions_exist(
        poset, _assert_tightness_matches(poset, _restriction(poset), seed=11))


@given(blocks=tree_pasting(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_maximal_contexts_decide_tightness_on_tree_pastings(blocks, seed):
    poset = enumerate_contexts(from_greechie(blocks))
    _assert_tightness_matches(poset, _restriction(poset), seed)


def _gaps(s, t):
    """The atom mask of S ^ ~T at every context, in context order."""
    poset, gap = s.poset, s.bits & ~t.bits
    return [(gap >> off) & full for off, full in zip(poset._offsets, poset._full)]


def _implies_by_targets(s, t):
    """Reference for ``heyting_implies``: at each V, the atoms outside the gap
    at V and outside the pullback of the gap at every V' below V."""
    poset, gaps = s.poset, _gaps(s, t)
    bits = 0
    for i in range(len(poset.contexts)):
        bad = gaps[i]
        for j in poset._below[i]:
            if gaps[j]:
                bad |= restriction_maps(poset, i, j)[1](gaps[j])
        bits |= (poset._full[i] & ~bad) << poset._offsets[i]
    return bits


def _subtract_by_targets(s, t):
    """Reference for ``coheyting_subtract``: at each V, the gap at V and the
    images of the gap at every W above V."""
    poset, gaps = s.poset, _gaps(s, t)
    bits = 0
    for i in range(len(poset.contexts)):
        comp = gaps[i]
        for w in poset._above[i]:
            if gaps[w]:
                comp |= restriction_maps(poset, w, i)[0](gaps[w])
        bits |= comp << poset._offsets[i]
    return bits


def _assert_closures_match_targets(poset, restr, seed):
    """Implication, subtraction and both negations equal the per-target
    loops on daseinisation images, random monotone families, and results of
    earlier operations, which join the operand pool as they are made."""
    rng = random.Random(seed)
    pool = _base_operands(poset, restr, rng)
    lo, hi = bottom(poset), top(poset)
    for _ in range(16):
        s, t = rng.choice(pool), rng.choice(pool)
        made = [heyting_implies(s, t), coheyting_subtract(s, t),
                heyting_not(s), coheyting_not(s)]
        assert [r.bits for r in made] == [
            _implies_by_targets(s, t), _subtract_by_targets(s, t),
            _implies_by_targets(s, lo), _subtract_by_targets(hi, s)]
        pool += made


@pytest.mark.parametrize("spec", TIGHT_SPECS)
def test_closures_match_the_per_target_loops_on_builtins(spec):
    poset, restr = _builtin(spec)
    _assert_closures_match_targets(poset, restr, seed=5)


@pytest.mark.parametrize("blocks", [
    PENTAGON,
    [["a", "b", "c"], ["c", "d", "e"], ["e", "f", "g"], ["g", "h", "a"]]],
    ids=["pentagon", "four-loop"])
def test_closures_match_the_per_target_loops_on_loop_pastings(blocks):
    poset = enumerate_contexts(from_greechie(blocks))
    _assert_closures_match_targets(poset, _restriction(poset), seed=13)


@given(blocks=tree_pasting(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_closures_match_the_per_target_loops_on_tree_pastings(blocks, seed):
    poset = enumerate_contexts(from_greechie(blocks))
    _assert_closures_match_targets(poset, _restriction(poset), seed)


def _skipping(closure, skipped):
    """``closure`` with the context ``skipped(poset)`` left out: there it
    keeps only the points it was given."""
    def closure_skipping(poset, bits):
        k = skipped(poset)
        cut = poset._full[k] << poset._offsets[k]
        return closure(poset, bits) & ~cut | bits & cut
    return closure_skipping


def _boolean3_with_a_late_subcontext():
    """boolean:3 with q+r named z, so that its context p|z sorts after its
    supercontext p|q|r and the enumeration's down-closure table reaches it.
    With the generated labels every subcontext sorts first."""
    raw = _dump_explicit(builtin_structure("boolean:3"))
    name = {"q+r": "z"}.get
    return enumerate_contexts(validate({
        "format": raw["format"],
        "elements": [name(a, a) for a in raw["elements"]],
        "leq": [[name(a, a), name(b, b)] for a, b in raw["leq"]],
        "ortho": {name(a, a): name(b, b) for a, b in raw["ortho"].items()}}))


# each closure or the tuple of contexts it loops over, the context it
# skips, and the operation built on it with that operation's per-target
# reference; a tuple drops the last context with a strict subcontext, or the
# first with a strict supercontext
_SKIPS = [
    ("_down_closure", lambda poset: max(j for j, up in enumerate(poset._above) if up),
     coheyting_subtract, _subtract_by_targets),
    ("_up_closure", lambda poset: max(poset.maximal),
     heyting_implies, _implies_by_targets),
    ("_with_below", lambda poset: max(i for i, down in enumerate(poset._below) if down),
     coheyting_subtract, _subtract_by_targets),
    ("_with_above", lambda poset: min(j for j, up in enumerate(poset._above) if up),
     heyting_implies, _implies_by_targets)]
_TUPLES = ("_with_below", "_with_above")


@pytest.mark.parametrize("name, skipped, op, reference", _SKIPS,
                         ids=[name for name, *_ in _SKIPS])
def test_references_catch_a_closure_that_skips_a_context(
        name, skipped, op, reference, monkeypatch):
    """The per-target loops and the reference walk read neither closure nor
    the tuple it loops over, so a closure that leaves out one context, or a
    tuple that leaves out one context with a neighbour its way, makes them
    disagree with production: on cabello18's operands, and on the
    enumeration of a boolean:3.  A down-closure that skips a context also
    makes ``daseinise`` disagree with the dominator scan on both posets.
    ``check laws --oracle`` cannot stand in for them, since its enumeration
    is built from the same closures."""
    poset, restr = _builtin("cabello18")
    pool = _base_operands(poset, restr, random.Random(5))
    small = _boolean3_with_a_late_subcontext()
    assert [s.bits for s in enumerate_subobjects(small)] == _reference_walk(small)
    if name in _TUPLES:
        for p in (poset, small):
            k = skipped(p)
            assert k in getattr(p, name)
            monkeypatch.setattr(p, name, tuple(i for i in getattr(p, name) if i != k))
    else:
        monkeypatch.setattr(ContextPoset, name,
                            _skipping(getattr(ContextPoset, name), skipped))
    assert any(op(s, t).bits != reference(s, t) for s in pool for t in pool)
    assert [s.bits for s in enumerate_subobjects(small)] != _reference_walk(small)
    if name == "_down_closure":   # daseinise closes its maximal components
        for p in (poset, small):
            assert any(_daseinise_bits(p, e) != _daseinise_by_scan(p, e)
                       for e in range(p.structure.n))


def _daseinise_by_scan(poset, p):
    """Reference for ``daseinise``: the least dominator of p in each context
    by the oracle's scan, as a mask through ``_elem_mask``; None if a context
    has none."""
    bits = 0
    for i, c in enumerate(poset.contexts):
        e = _least_dominating(poset.structure, c, p)
        if e is None:
            return None
        bits |= poset._elem_mask[i][e] << poset._offsets[i]
    return bits


def _daseinise_bits(poset, p):
    try:
        return daseinise(poset, p).bits
    except NoLeastUpperWitness:
        return None


def test_references_catch_a_wrong_least_mask(monkeypatch):
    """Subtraction, ``is_tight`` and ``daseinise`` read a coarse-graining as
    its atom mask in ``_least``; the per-target loop, the check of every
    inclusion and the dominator scan read ``_elem_mask`` and never
    ``_least``.  So one wrong mask, the full one for the first atom of the
    first context with a strict supercontext, makes each of them disagree
    with production: on cabello18 and on a boolean:3 whose subcontext sorts
    after its supercontext.  The operands are built before the mask goes
    wrong."""
    for poset in (_builtin("cabello18")[0], _boolean3_with_a_late_subcontext()):
        points = range(poset.structure.n)
        assert [_daseinise_bits(poset, p) for p in points] == [
            _daseinise_by_scan(poset, p) for p in points]
        pool = _base_operands(poset, _restriction(poset), random.Random(5))
        j = min(k for k, up in enumerate(poset._above) if up)
        key = next(key for key, m in poset._least[j].items() if m == 1)
        least = list(poset._least)
        least[j] = {**least[j], key: poset._full[j]}
        monkeypatch.setattr(poset, "_least", tuple(least))
        assert any(coheyting_subtract(s, t).bits != _subtract_by_targets(s, t)
                   for s in pool for t in pool)
        assert any(is_tight(s) != _tight_at_every_inclusion(s) for s in pool)
        assert any(_daseinise_bits(poset, p) != _daseinise_by_scan(poset, p)
                   for p in points)

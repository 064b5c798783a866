"""The closed local forms of the negations, beyond the brute oracle's reach.

The production negations are implication into bottom and subtraction from
top, joined over every inclusion.  The forms the ``biheyting`` docstring
states use only the extremal contexts: minimal subcontexts for the Heyting
side, maximal supercontexts for the co-Heyting side.  Here they are
recomputed pointwise, from spectra and ``restrict``, on structures too large
to enumerate (``cabello18``, ``boolean:5``, random tree pastings), for
daseinisation images and random monotone families.
"""
import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

from biheyt import (LATTICE, alpha_inv, builtin_structure, coheyting_not,
                    daseinise, double_coheyting_not, double_heyting_not,
                    enumerate_contexts, from_greechie, heyting_not,
                    make_subobject, maximal_above, minimal_below, restrict,
                    restriction_image_projection, spectrum)

from test_oml import tree_pasting


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

"""Outer daseinisation: approximating an element from above in every context.

``daseinise(poset, p)`` sends p to the family of least dominators, one per
context.  They compose: for j <= m the elements of j above p are those above
the least element of m above p.  So the family is the down-closure of those at
the maximal contexts, and a context with none leaves none at every maximal
context above it.  The map preserves joins and order, is injective, and lands
on tight subobjects, but it is not surjective and only subdistributes over
meets: ``daseinise(p ^ q) <= daseinise(p) ^ daseinise(q)``, strictly in general.
"""
from __future__ import annotations

from .contexts import ContextPoset, delta_global
from .presheaf import ClopenSubobject


def daseinise(poset: ContextPoset, p: int | str) -> ClopenSubobject:
    """The down-closure of p's least dominators at the maximal contexts; on a
    miss ``delta_global`` raises at the first context with none, by index."""
    p = poset.structure.el(p)
    bits = 0
    for m in poset.maximal:
        q = poset._least_above(m, p)
        if q is None:
            for i in range(len(poset.contexts)):
                delta_global(poset, i, p)   # raises at the first miss
        bits |= poset._elem_mask[m][q] << poset._offsets[m]
    return ClopenSubobject(poset, poset._down_closure(bits))

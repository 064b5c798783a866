"""Outer daseinisation: approximating an element from above in every context.

``daseinise(poset, p)`` sends p to the family of least dominators, one per
context.  The map preserves joins and order, is injective, and lands on tight
subobjects, but it is not surjective and only subdistributes over meets:
``daseinise(p ^ q) <= daseinise(p) ^ daseinise(q)``, strictly in general.
"""
from __future__ import annotations

from .contexts import ContextPoset, delta_global
from .presheaf import ClopenSubobject


def daseinise(poset: ContextPoset, p: int | str) -> ClopenSubobject:
    """The least dominator of p in every context, from the poset's tables;
    ``delta_global`` raises its error at the first context with none."""
    p = poset.structure.el(p)
    row = poset.structure._up[p]
    bits = 0
    for i, (least, mine, shift, off) in enumerate(zip(
            poset._least, poset._elements, poset._shift, poset._offsets)):
        m = least.get((row & mine) >> shift)
        if m is None:
            delta_global(poset, i, p)   # raises
        bits |= m << off
    return ClopenSubobject(poset, bits)


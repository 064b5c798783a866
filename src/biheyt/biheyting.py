"""The bi-Heyting algebra of clopen subobjects.

Meet and join are stagewise set operations on the spectra, so on the packed
representation they are single int ops.  The two negations have closed local
forms:

* Heyting: ``heyting_not`` is implication into the bottom.  Its component at
  V is the complement in V of the join of the pullbacks of S from the minimal
  subcontexts of V, and the double negation is the meet of those pullbacks.
  Right adjoint to meet: ``R ^ S <= T  iff  R <= heyting_implies(S, T)``.
* co-Heyting: ``coheyting_not`` is subtraction from the top.  Its component
  at V is the join over the maximal contexts above V of the restriction images
  of the complements of S there, and the double negation drops the
  complement.  Left adjoint to join:
  ``coheyting_subtract(S, T) <= R  iff  S <= T v R``.

Implication and subtraction unpack each operand once into per-context atom
masks and join over every inclusion; by monotonicity that agrees with the
extremal forms above, which the tests pin.

``coheyting_not(S) ^ S`` need not be empty: the co-Heyting side is
paraconsistent.  ``heyting_not`` is always below ``coheyting_not``.
"""
from __future__ import annotations

from typing import Iterable

from .contexts import ContextPoset
from .errors import PosetMismatch, UsageError
from .presheaf import ClopenSubobject, _same_poset


def _poset_of(subobjects: Iterable[ClopenSubobject],
              poset: ContextPoset | None) -> tuple[ContextPoset, list[ClopenSubobject]]:
    subs = list(subobjects)
    for s in subs[1:]:
        _same_poset(subs[0], s)
    if subs:
        if poset is not None and poset is not subs[0].poset:
            raise PosetMismatch("subobjects belong to a different poset")
        return subs[0].poset, subs
    if poset is None:
        raise UsageError("empty meet/join needs an explicit poset")
    return poset, subs


def top(poset: ContextPoset) -> ClopenSubobject:
    """The whole spectral presheaf (empty meet)."""
    return ClopenSubobject(poset, (1 << poset.total_bits) - 1)


def bottom(poset: ContextPoset) -> ClopenSubobject:
    """The empty subobject (empty join)."""
    return ClopenSubobject(poset, 0)


def meet(subobjects: Iterable[ClopenSubobject], *,
         poset: ContextPoset | None = None) -> ClopenSubobject:
    poset, subs = _poset_of(subobjects, poset)
    bits = (1 << poset.total_bits) - 1
    for s in subs:
        bits &= s.bits
    return ClopenSubobject(poset, bits)


def join(subobjects: Iterable[ClopenSubobject], *,
         poset: ContextPoset | None = None) -> ClopenSubobject:
    poset, subs = _poset_of(subobjects, poset)
    bits = 0
    for s in subs:
        bits |= s.bits
    return ClopenSubobject(poset, bits)


def _components(poset: ContextPoset, bits: int) -> list[int]:
    """The atom mask of packed bits at every context, in context order."""
    return [(bits >> off) & full for off, full in zip(poset._offsets, poset._full)]


def heyting_implies(s: ClopenSubobject, t: ClopenSubobject) -> ClopenSubobject:
    """Stagewise implication: keep the points of V all of whose restrictions
    that land in S also land in T."""
    _same_poset(s, t)
    poset = s.poset
    diff = _components(poset, s.bits & ~t.bits)
    bits = 0
    for i in range(len(poset.contexts)):
        bad = diff[i]
        for j in poset._below[i]:
            if diff[j]:
                bad |= poset.pullback_mask(i, j, diff[j])
        bits |= (poset._full[i] & ~bad) << poset._offsets[i]
    return ClopenSubobject(poset, bits)


def heyting_not(s: ClopenSubobject) -> ClopenSubobject:
    """Largest subobject meeting S in the empty subobject."""
    return heyting_implies(s, bottom(s.poset))


def double_heyting_not(s: ClopenSubobject) -> ClopenSubobject:
    return heyting_not(heyting_not(s))


def coheyting_subtract(s: ClopenSubobject, t: ClopenSubobject) -> ClopenSubobject:
    """Smallest R with S <= T v R: at V, the union over supersets W of the
    restriction images of the points of S at W missing from T at W."""
    _same_poset(s, t)
    poset = s.poset
    diff = _components(poset, s.bits & ~t.bits)
    bits = 0
    for i in range(len(poset.contexts)):
        comp = diff[i]
        for w in poset._above[i]:
            if diff[w]:
                comp |= poset.image_mask(w, i, diff[w])
        bits |= comp << poset._offsets[i]
    return ClopenSubobject(poset, bits)


def coheyting_not(s: ClopenSubobject) -> ClopenSubobject:
    """Smallest subobject joining with S to the whole presheaf."""
    return coheyting_subtract(top(s.poset), s)


def double_coheyting_not(s: ClopenSubobject) -> ClopenSubobject:
    return coheyting_not(coheyting_not(s))


def is_heyting_regular(s: ClopenSubobject) -> bool:
    """True iff S equals its Heyting double negation."""
    return double_heyting_not(s) == s


def is_coheyting_regular(s: ClopenSubobject) -> bool:
    """True iff S equals its co-Heyting double negation."""
    return double_coheyting_not(s) == s


def is_tight(s: ClopenSubobject) -> bool:
    """True iff every component is the coarse-graining of every larger one.

    Tight subobjects are regular for both negations; the converse fails.
    """
    poset = s.poset
    masks = _components(poset, s.bits)
    for i in range(len(poset.contexts)):
        for j in poset._below[i]:
            if poset.image_mask(i, j, masks[i]) != masks[j]:
                return False
    return True

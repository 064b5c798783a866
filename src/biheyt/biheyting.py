"""The bi-Heyting algebra of clopen subobjects.

Meet and join are stagewise set operations on the spectra, so on the packed
representation they are single int ops.  The two negations have closed local
forms (the tested reference; a double negation composes two negations):

* Heyting: ``heyting_not`` is implication into the bottom.  Its component at
  V is the complement in V of the join of the pullbacks of S from the minimal
  subcontexts of V, and the double negation is the meet of those pullbacks.
  Right adjoint to meet: ``R ^ S <= T  iff  R <= heyting_implies(S, T)``.
* co-Heyting: ``coheyting_not`` is subtraction from the top.  Its component
  at V is the join over the maximal contexts above V of the restriction images
  of the complements of S there, and the double negation drops the
  complement.  Left adjoint to join:
  ``coheyting_subtract(S, T) <= R  iff  S <= T v R``.

Implication and subtraction are the two closures of the gap G = S ^ ~T on
the points (V, a) ordered by restriction: S - T is the down-closure of G,
and S => T the complement of its up-closure, each one call of
``ContextPoset._down_closure`` or ``_up_closure``.  A closure loops over
the contexts with a neighbour in its direction, a strict subcontext going
down and a strict supercontext going up.  By
monotonicity they agree with the extremal forms above, which the tests pin.
Both build their result in place, as ``enumerate_subobjects`` does: a
bare ``presheaf._Slots`` gets its two slots by plain stores and then the
class ``ClopenSubobject``, which shares its layout.  On posets as small as
the ones ``check laws`` covers, a call is mostly fixed cost, not closure
work, and the ``__init__`` call frame and slot setter calls were a
measurable part of it.

``coheyting_not(S) ^ S`` need not be empty: the co-Heyting side is
paraconsistent.  ``heyting_not`` is always below ``coheyting_not``.
"""
from __future__ import annotations

from typing import Iterable

from .contexts import ContextPoset
from .errors import PosetMismatch, UsageError
from .presheaf import ClopenSubobject, _same_poset, _Slots


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
    return ClopenSubobject(poset, poset._every)


def bottom(poset: ContextPoset) -> ClopenSubobject:
    """The empty subobject (empty join)."""
    return ClopenSubobject(poset, 0)


def meet(subobjects: Iterable[ClopenSubobject], *,
         poset: ContextPoset | None = None) -> ClopenSubobject:
    poset, subs = _poset_of(subobjects, poset)
    bits = poset._every
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


def heyting_implies(s: ClopenSubobject, t: ClopenSubobject) -> ClopenSubobject:
    """Stagewise implication: keep the points of V all of whose restrictions
    that land in S also land in T: the complement of the up-closure of S ^ ~T."""
    poset = s.poset
    if t.poset is not poset:
        _same_poset(s, t)   # raises
    r = _Slots()
    r.poset = poset
    r.bits = poset._up_closure(s.bits & ~t.bits) ^ poset._every
    r.__class__ = ClopenSubobject
    return r


def heyting_not(s: ClopenSubobject) -> ClopenSubobject:
    """Largest subobject meeting S in the empty subobject."""
    return heyting_implies(s, bottom(s.poset))


def double_heyting_not(s: ClopenSubobject) -> ClopenSubobject:
    return heyting_not(heyting_not(s))


def coheyting_subtract(s: ClopenSubobject, t: ClopenSubobject) -> ClopenSubobject:
    """Smallest R with S <= T v R: the down-closure of S ^ ~T."""
    poset = s.poset
    if t.poset is not poset:
        _same_poset(s, t)   # raises
    r = _Slots()
    r.poset = poset
    r.bits = poset._down_closure(s.bits & ~t.bits)
    r.__class__ = ClopenSubobject
    return r


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

    The maximal contexts decide it.  Every context k lies below a maximal
    one, m, and least dominators compose (for j <= k, the least of j above
    the least of k above p is the least of j above p).  So if the component
    at m coarse-grains to those at k and at j, the one at k does to j.

    Tight subobjects are regular for both negations; the converse fails.
    """
    return s.poset._is_tight(s.bits)

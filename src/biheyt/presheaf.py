"""The spectral presheaf and its clopen subobjects.

Over each context V the presheaf places the finite Gelfand spectrum of V,
which for a finite Boolean algebra is just its atom set; the restriction map
to a subcontext sends an atom to the unique atom above it.  A clopen subobject
picks a subset of the spectrum at every context (equivalently, an element of
V, via the alpha isomorphism) such that shrinking the context can only grow
the chosen projection: V' <= V forces P at V' >= P at V.

A subobject is stored as one packed integer over the disjoint union of all
context spectra, so lattice operations are single int ops; the per-context
component is a bitmask slice.
"""
from __future__ import annotations

import gc
from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterable, Mapping

from .contexts import Context, ContextPoset, _require_subcontext
from .errors import NotASubobject, PosetMismatch, SizeGuard, UsageError
from .limits import DEFAULT_LIMITS, Limits


@dataclass(frozen=True)
class SpectrumPoint:
    """A point of the spectrum at one context: an atom of that context."""

    context_id: str
    atom: int
    label: str


class ClopenSubobject:
    """A monotone family of projections, one per context.

    Immutable; equality and hashing use the packed bitmask plus poset
    identity.  Subobjects from different poset objects never mix: the binary
    operators raise ``PosetMismatch``.
    """

    __slots__ = ("poset", "bits")

    def __init__(self, poset: ContextPoset, bits: int):
        _set_poset(self, poset)
        _set_bits(self, bits)

    def __setattr__(self, name, value):
        raise AttributeError("ClopenSubobject is immutable")

    def mask_at(self, ctx) -> int:
        i = self.poset.index(ctx)
        return (self.bits >> self.poset._offsets[i]) & self.poset._full[i]

    def element_at(self, ctx) -> int:
        i = self.poset.index(ctx)
        return self.poset._mask_to_elem[i][self.mask_at(i)]

    def points_at(self, ctx) -> tuple[SpectrumPoint, ...]:
        i = self.poset.index(ctx)
        c = self.poset.contexts[i]
        m = self.mask_at(i)
        st = self.poset.structure
        return tuple(SpectrumPoint(c.id, a, st.label(a))
                     for p, a in enumerate(c.atoms) if (m >> p) & 1)

    def to_mapping(self) -> dict[str, str]:
        poset, bits = self.poset, self.bits
        labels = poset.structure.labels
        return {cid: labels[elem[bits >> off & f]] for cid, elem, off, f in
                zip(poset._by_id, poset._mask_to_elem, poset._offsets, poset._full)}

    def __eq__(self, other):
        return (isinstance(other, ClopenSubobject)
                and self.poset is other.poset and self.bits == other.bits)

    def __hash__(self):
        return hash((id(self.poset), self.bits))

    def __le__(self, other):
        _same_poset(self, other)
        return self.bits & ~other.bits == 0

    def __and__(self, other):
        _same_poset(self, other)
        return ClopenSubobject(self.poset, self.bits & other.bits)

    def __or__(self, other):
        _same_poset(self, other)
        return ClopenSubobject(self.poset, self.bits | other.bits)

    def __repr__(self):
        parts = ", ".join(f"{k}: {v}" for k, v in self.to_mapping().items())
        return f"ClopenSubobject({parts})"


# the slot descriptors' setters, which ``__setattr__`` above refuses
_set_poset = ClopenSubobject.poset.__set__
_set_bits = ClopenSubobject.bits.__set__


def _same_poset(a: ClopenSubobject, b: ClopenSubobject) -> None:
    if a.poset is not b.poset:
        raise PosetMismatch("subobjects belong to different context posets")


@dataclass(frozen=True)
class GlobalSection:
    """A choice of one spectrum point per context, compatible with every
    restriction.  Existence is exactly a noncontextual valuation."""

    poset: ContextPoset = field(compare=False, repr=False)
    atoms: tuple[int, ...]   # element index of the chosen atom, per context

    def to_mapping(self) -> dict[str, str]:
        labels = self.poset.structure.labels
        return {cid: labels[a] for cid, a in zip(self.poset._by_id, self.atoms)}


# -- pointwise structure -------------------------------------------------------


def spectrum(poset: ContextPoset, ctx) -> tuple[SpectrumPoint, ...]:
    """The spectrum at a context: its atoms, in canonical order."""
    i = poset.index(ctx)
    c = poset.contexts[i]
    st = poset.structure
    return tuple(SpectrumPoint(c.id, a, st.label(a)) for a in c.atoms)


def restrict(poset: ContextPoset, point: SpectrumPoint, sub) -> SpectrumPoint:
    """Restrict a spectrum point to a subcontext (unique dominating atom)."""
    i = poset.index(point.context_id)
    j = poset.index(sub)
    _require_subcontext(poset, i, j)
    if point.atom not in poset.contexts[i].atoms:
        raise UsageError(f"{point.label!r} is not an atom of {point.context_id!r}")
    a = poset._least_above(j, point.atom)
    return SpectrumPoint(poset.contexts[j].id, a, poset.structure.label(a))


def alpha(poset: ContextPoset, ctx, p: int | str) -> frozenset[int]:
    """Context-level isomorphism: the atoms of V lying below an element of V."""
    i = poset.index(ctx)
    st = poset.structure
    p = st.el(p)
    if p not in poset.contexts[i].elements:
        raise UsageError(f"element {st.label(p)!r} not in context "
                         f"{poset.contexts[i].id!r}")
    m = poset._elem_mask[i][p]
    return frozenset(a for q, a in enumerate(poset.contexts[i].atoms) if (m >> q) & 1)

def alpha_inv(poset: ContextPoset, ctx, atoms: Iterable[int | str]) -> int:
    """Inverse of ``alpha``: the join of a set of context atoms."""
    i = poset.index(ctx)
    st = poset.structure
    m = 0
    for a in atoms:
        a = st.el(a)
        try:
            m |= 1 << poset.contexts[i].atoms.index(a)
        except ValueError:
            raise UsageError(f"{st.label(a)!r} is not an atom of "
                             f"{poset.contexts[i].id!r}") from None
    return poset._mask_to_elem[i][m]


# -- subobjects -----------------------------------------------------------------


def _monotone_witness(poset: ContextPoset, masks: list[int]) -> tuple[int, int] | None:
    """First inclusion pair (sub, super) violating monotonicity, if any."""
    for i, below in enumerate(poset._below):
        for j in below:
            if poset.image_mask(i, j, masks[i]) & ~masks[j]:
                return (j, i)
    return None


def make_subobject(poset: ContextPoset, family: Mapping) -> ClopenSubobject:
    """Assemble and check a projection family.

    ``family`` maps context (id or Context) to an element (label or index) of
    that context.  Raises ``NotASubobject`` with a witness inclusion pair when
    the family is not monotone; any shape problem raises ``UsageError``.
    """
    st = poset.structure
    masks = [None] * len(poset.contexts)
    for key, val in family.items():
        i = poset.index(key)
        e = st.el(val)
        if e not in poset.contexts[i].elements:
            raise UsageError(f"element {st.label(e)!r} not in context "
                             f"{poset.contexts[i].id!r}")
        masks[i] = poset._elem_mask[i][e]
    for i, m in enumerate(masks):
        if m is None:
            raise UsageError(f"context {poset.contexts[i].id!r} not assigned")
    witness = _monotone_witness(poset, masks)
    if witness is not None:
        j, i = witness
        raise NotASubobject(
            f"projection at {poset.contexts[j].id!r} does not dominate the "
            f"restriction of the projection at {poset.contexts[i].id!r}",
            witness=[poset.contexts[j].id, poset.contexts[i].id])
    bits = 0
    for i, m in enumerate(masks):
        bits |= m << poset._offsets[i]
    return ClopenSubobject(poset, bits)


# The walk memoises its tails from the first context from which at most this
# many spectrum points remain, so a memo batch holds at most 2**16 ints.
# On boolean:4, 16 visits the memo 17,690 times where 12 visits it 142,968.
_CUT_POINTS = 16


def enumerate_subobjects(poset: ContextPoset, *,
                         limits: Limits = DEFAULT_LIMITS) -> tuple[ClopenSubobject, ...]:
    """All clopen subobjects, in canonical order, as a fresh tuple.

    Contexts are assigned in index order and each component runs through its
    masks in ascending order, so the subobjects come out sorted by their
    tuple of component masks without a sort.  The walk carries a lower and
    an upper bound for every context, each packed like a subobject.
    Assigning mask m at context j pins j's component to m, ORs the
    restriction image of m into the lower bound of each later subcontext of
    j and ANDs the pullback of m into the upper bound of each later
    supercontext, so once every context is assigned the lower bound is the
    subobject.  Both updates are lookups in tables built per call from
    ``image_mask``/``pullback_mask`` for every mask of j.  Only monotone
    families are generated, and no branch dead-ends: restrictions compose,
    so for assigned W >= V >= V' the image of the component at W already
    lies in the pullback of the one at V'.  The walk is depth-first on an
    explicit stack, so no number of contexts meets the recursion limit: a
    context with one choice is assigned in place, and one with more pushes
    a frame of its bounds and remaining masks.

    The tail of the walk from the cut context k, the first one from which
    at most ``_CUT_POINTS`` spectrum points remain (the last context if
    none is), depends only on the bounds of contexts k and later.  So the
    walk keeps a memo, local to the call, from those bounds to the packed
    tails they produce, in canonical order: a bound state met for the first
    time is walked once from k to fill its batch, and every visit yields
    its whole batch beside the components assigned before k.  So the memo
    never holds more ints than there are subobjects, and unless the last
    context alone has more than ``_CUT_POINTS`` atoms a batch holds at most
    2**``_CUT_POINTS`` ints.  With no contexts the cut is 0 and the one
    batch is the empty family.

    Nothing is cached between calls: every call walks again.  The one guard
    stands before a batch is yielded: once the count would pass
    ``limits.max_subobjects`` it raises ``SizeGuard`` with the count
    ``reached`` at the end of the first last-context batch past the limit,
    the run of tails that differ only at the last context.  Here each
    object is built by ORing a tail into the assigned components and
    setting the slots with no ``__init__`` call; ``biheyt enumerate``
    without ``--list`` sums the batch lengths and builds none.

    The cyclic collector is paused while the tuple is built, and only then,
    and the caller's setting restored after it, also on an error.  The walk
    creates no reference cycles, so a collection during it could only
    traverse the growing result and free nothing; paused, the result costs
    its allocations alone, and dropping it frees it by reference counting.
    The pause is process-wide, so it is not safe across threads: a walk
    running beside another thread's ``gc.disable()`` or ``gc.enable()`` may
    undo that call when it ends.
    """
    out: list[ClopenSubobject] = []
    append, new, cls = out.append, object.__new__, ClopenSubobject
    set_poset, set_bits = _set_poset, _set_bits
    collecting = gc.isenabled()
    gc.disable()
    try:
        for lower, batch in _subobject_batches(poset, limits):
            for b in batch:
                s = new(cls)
                set_poset(s, poset)
                set_bits(s, lower | b)
                append(s)
    finally:
        if collecting:
            gc.enable()
    return tuple(out)


def _subobject_batches(poset: ContextPoset, limits: Limits):
    """The walk of ``enumerate_subobjects``: (assigned components, memo
    batch) pairs in canonical order, guarded by ``limits.max_subobjects``."""
    budget = limits.max_subobjects
    n = len(poset.contexts)
    full, total = poset._full, poset.total_bits
    offsets = (*poset._offsets, total)   # the end as a sentinel for n = 0
    ones = (1 << total) - 1
    raise_lower: list[tuple[int, ...]] = []
    cut_upper: list[tuple[int, ...]] = []
    for j in range(n):
        subs = [v for v in (j, *poset._below[j]) if v >= j]
        sups = [w for w in (j, *poset._above[j]) if w >= j]
        masks = range(full[j] + 1)
        raise_lower.append(tuple(
            sum(poset.image_mask(j, v, m) << offsets[v] for v in subs)
            for m in masks))
        cut_upper.append(tuple(
            ones ^ sum((full[w] & ~poset.pullback_mask(w, j, m)) << offsets[w]
                       for w in sups)
            for m in masks))
    submasks = {f: tuple(tuple(_submasks(free)) for free in range(f + 1))
                for f in set(full)}
    last = max(n - 1, 0)
    cut = next((k for k in range(n) if total - offsets[k] <= _CUT_POINTS), last)
    cut_off = offsets[cut]
    prefix = (1 << offsets[last]) - 1   # all but the last context

    def walk(i: int, stop: int, lower: int, upper: int):
        """The bounds once contexts i .. stop-1 are assigned, in order."""
        stack = []
        while True:
            if i < stop:
                off, f = offsets[i], full[i]
                lo, up = lower >> off & f, upper >> off & f
                if lo & ~up:
                    raise AssertionError("subobject bounds crossed (bug)")
                m = lo
                if up != lo:   # the larger masks, for the backtrack
                    rest = map(lo.__or__, submasks[f][up ^ lo])
                    stack.append((i, lower, upper, rest))
            else:
                yield lower, upper
                while stack:
                    i, lower, upper, rest = stack[-1]
                    m = next(rest, None)
                    if m is not None:
                        break
                    stack.pop()
                else:
                    return
            lower, upper, i = lower | raise_lower[i][m], upper & cut_upper[i][m], i + 1

    count = 0
    memo: dict[tuple[int, int], list[int]] = {}
    for lower, upper in walk(0, cut, 0, ones):
        key = (lower >> cut_off, upper >> cut_off)
        batch = memo.get(key)
        if batch is None:
            batch = memo[key] = [low for low, _ in walk(cut, n, key[0] << cut_off, upper)]
        if count + len(batch) > budget:
            room = max(budget - count, 0)   # a budget below 0 has none
            raise SizeGuard(f"subobject count exceeds limit {budget}",
                            limit="max_subobjects", value=budget,
                            reached=count + _run_end(batch, room, prefix))
        count += len(batch)
        yield lower, batch


def _run_end(batch: list[int], p: int, prefix: int) -> int:
    """The end of the run of ``batch`` entries around index ``p`` that agree
    on the ``prefix`` bits."""
    head = batch[p] & prefix
    end = p + 1
    while end < len(batch) and batch[end] & prefix == head:
        end += 1
    return end


def _submasks(free: int):
    """Every nonzero submask of ``free``, ascending."""
    s = 0
    while s != free:
        s = (s - free) & free
        yield s


# -- global sections -------------------------------------------------------------


def global_sections(poset: ContextPoset, *,
                    limits: Limits = DEFAULT_LIMITS) -> tuple[GlobalSection, ...]:
    """All global sections of the spectral presheaf, sorted by their atoms.

    ``_section_states`` yields each section as a packed state.  The states
    are decoded a context at a time, each slice mapped through
    ``_mask_to_elem``, and the atom tuples are sorted.  A state is one point
    per context iff it has as many points as there are contexts and no
    slice decodes to the bottom, 0, the element of the empty mask; anything
    else is a bug.  ``biheyt sections`` without ``--list`` only counts the
    states, so it keeps and decodes none.  An empty result is a
    Kochen-Specker style obstruction.
    """
    return tuple(map(GlobalSection, repeat(poset), _section_rows(poset, limits)))


def _section_rows(poset: ContextPoset, limits: Limits) -> list[tuple[int, ...]]:
    """The atom tuples of ``global_sections``, sorted; ``biheyt sections
    --list`` writes them with no ``GlobalSection`` built."""
    states = list(_section_states(poset, limits))
    columns = [[elem[state >> off & f] for state in states] for elem, off, f
               in zip(poset._mask_to_elem, poset._offsets, poset._full)]
    n = len(columns)
    if any(state.bit_count() != n for state in states) or any(0 in c for c in columns):
        raise AssertionError("section is not one point per context (bug)")
    return sorted(zip(*columns)) if columns else [()] * len(states)


def _section_states(poset: ContextPoset, limits: Limits):
    """Every global section as a packed state, in search order.

    The search picks an atom at each maximal context in index order, atoms
    ascending, depth-first on an explicit stack of (state, remaining
    choices).  The state is one int packed like a subobject: the points
    that the atoms picked so far restrict to.  Each choice of an atom at a
    maximal context holds two ints: ``pick``, the points it restricts to at
    that context and every context below it, and ``clash``, the other
    points of those contexts.  A choice is compatible iff its clash misses
    the state; the state then grows by its pick.  Restrictions compose and
    every context lies below a maximal one, so a full state is a section,
    one point per context.  Every choice tried, compatible or not, is one
    node, and the search raises ``SizeGuard`` at the node past
    ``limits.search_budget``.
    """
    budget = limits.search_budget
    offsets, full = poset._offsets, poset._full
    up = poset.structure._up
    tables = tuple(zip(poset._least, poset._elem_mask, poset._elements,
                       poset._shift, offsets))
    choices = []
    for m in poset.maximal:
        under = (m, *poset._below[m])
        span = sum(full[j] << offsets[j] for j in under)
        rows = [tables[j] for j in under]
        # an atom restricts to the least element of j above it, an atom of j
        picks = [sum(mask[least[(up[a] & mine) >> shift]] << off
                     for least, mask, mine, shift, off in rows)
                 for a in poset.contexts[m].atoms]
        choices.append([(pick, span ^ pick) for pick in picks])
    if not choices:   # no contexts: the empty family is the one section
        yield 0
        return
    nodes = 0
    stack = [(0, iter(choices[0]))]
    while stack:
        state, rest = stack[-1]
        for pick, clash in rest:
            nodes += 1
            if nodes > budget:
                raise SizeGuard(f"section search exceeded budget {budget}",
                                limit="search_budget", value=budget, nodes=nodes)
            if not state & clash:
                if len(stack) == len(choices):
                    yield state | pick
                else:
                    stack.append((state | pick, iter(choices[len(stack)])))
                    break
        else:
            stack.pop()

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
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import groupby, product
from math import prod
from operator import itemgetter
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


def _point(context_id: str, atom: int, label: str) -> SpectrumPoint:
    """A ``SpectrumPoint`` built without the frozen ``__init__``: the fields
    go straight into the instance dict, in the order ``__init__`` sets them."""
    pt = object.__new__(SpectrumPoint)
    d = pt.__dict__
    d["context_id"], d["atom"], d["label"] = context_id, atom, label
    return pt


class ClopenSubobject:
    """A monotone family of projections, one per context.

    Immutable; equality and hashing use the packed bitmask plus poset
    identity.  Subobjects from different poset objects never mix: the binary
    operators raise ``PosetMismatch``, and ``TypeError`` for an operand that
    is no subobject.
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
        poset = self.poset
        i = poset.index(ctx)
        c = poset.contexts[i]
        m, labels = self.bits >> poset._offsets[i], poset.structure.labels
        return tuple([_point(c.id, a, labels[a])
                      for p, a in enumerate(c.atoms) if m >> p & 1])

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
        if not isinstance(other, ClopenSubobject):
            return NotImplemented
        _same_poset(self, other)
        return self.bits & ~other.bits == 0

    def __and__(self, other):
        if not isinstance(other, ClopenSubobject):
            return NotImplemented
        _same_poset(self, other)
        return ClopenSubobject(self.poset, self.bits & other.bits)

    def __or__(self, other):
        if not isinstance(other, ClopenSubobject):
            return NotImplemented
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
    c, labels = poset.contexts[poset.index(ctx)], poset.structure.labels
    return tuple([_point(c.id, a, labels[a]) for a in c.atoms])


def restrict(poset: ContextPoset, point: SpectrumPoint, sub) -> SpectrumPoint:
    """Restrict a spectrum point to a subcontext (unique dominating atom)."""
    i = poset.index(point.context_id)
    j = poset.index(sub)
    _require_subcontext(poset, i, j)
    if point.atom not in poset.contexts[i].atoms:
        raise UsageError(f"{point.label!r} is not an atom of {point.context_id!r}")
    # the least element of j above an atom of i, which always exists
    a = poset._least_above(j, point.atom)
    return _point(poset.contexts[j].id, a, poset.structure.labels[a])


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
    masks = poset._elem_mask[i]
    m = 0
    for a in atoms:
        a = st.el(a)
        bit = masks.get(a, 0)   # an atom's mask has one bit
        if not bit or bit & bit - 1:
            raise UsageError(f"{st.label(a)!r} is not an atom of "
                             f"{poset.contexts[i].id!r}")
        m |= bit
    return poset._mask_to_elem[i][m]


# -- subobjects -----------------------------------------------------------------


def make_subobject(poset: ContextPoset, family: Mapping) -> ClopenSubobject:
    """Assemble and check a projection family.

    ``family`` maps context (id or Context) to an element (label or index) of
    that context.  Raises ``NotASubobject`` with a witness inclusion pair when
    the family is not monotone; any shape problem, such as one context named
    twice (by id and by index, say), raises ``UsageError``.
    """
    st = poset.structure
    masks = [None] * len(poset.contexts)
    for key, val in family.items():
        i = poset.index(key)
        if masks[i] is not None:
            raise UsageError(f"context {poset.contexts[i].id!r} assigned twice")
        e = st.el(val)
        masks[i] = poset._elem_mask[i].get(e)
        if masks[i] is None:
            raise UsageError(f"element {st.label(e)!r} not in context "
                             f"{poset.contexts[i].id!r}")
    for i, m in enumerate(masks):
        if m is None:
            raise UsageError(f"context {poset.contexts[i].id!r} not assigned")
    witness = poset._monotone_witness(masks)
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
    subobject.  Both updates are lookups in tables built per call for every
    mask m of j from the poset's closures, cut to the contexts from j on.
    Only monotone families are generated, and no branch dead-ends:
    restrictions compose, so for assigned W >= V >= V' the image of the
    component at W already lies in the pullback of the one at V'.  The walk
    is depth-first on an explicit stack, so no number of contexts meets the
    recursion limit: a context with one choice is assigned in place, and one
    with more pushes a frame of its bounds and remaining masks.

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

    The collector is paused while the tuple is built, and the caller's
    setting restored after it, also on an error.  The walk makes no cycles,
    so no collection over the result could free anything: if the collector
    is on, nothing is frozen and the result may outgrow the young generation
    (2**``total_bits`` > ``gc.get_threshold()[0]``), the young generations
    are collected first, and ``gc.freeze()`` with ``gc.unfreeze()`` then
    moves every tracked object to the oldest one unexamined.  The pause is
    process-wide: not thread-safe.
    """
    out: list[ClopenSubobject] = []
    append, new, cls = out.append, object.__new__, ClopenSubobject
    set_poset, set_bits = _set_poset, _set_bits
    with _collector_paused(poset):
        for lower, batch in _subobject_batches(poset, limits):
            for b in batch:
                s = new(cls)
                set_poset(s, poset)
                set_bits(s, lower | b)
                append(s)
        return tuple(out)


@contextmanager
def _collector_paused(poset: ContextPoset):
    """The collector pause that ``enumerate_subobjects`` describes."""
    collecting, big = gc.isenabled(), 1 << poset.total_bits > gc.get_threshold()[0]
    if promote := collecting and big and not gc.get_freeze_count():
        gc.collect(1)
    gc.disable()
    try:
        yield
    finally:
        if promote:
            gc.freeze()
            gc.unfreeze()
        if collecting:
            gc.enable()


def _subobject_batches(poset: ContextPoset, limits: Limits):
    """The walk of ``enumerate_subobjects``: (assigned components, memo
    batch) pairs in canonical order, guarded by ``limits.max_subobjects``."""
    budget = limits.max_subobjects
    n = len(poset.contexts)
    full, total = poset._full, poset.total_bits
    offsets = (*poset._offsets, total)   # the end as a sentinel for n = 0
    ones = (1 << total) - 1
    raise_lower, cut_upper = [], []   # per context j, a bound's update per mask
    for j in range(n):
        off, f, later = offsets[j], full[j], -1 << offsets[j]
        raise_lower.append(tuple([poset._down_closure(m << off) & later
                                  for m in range(f + 1)]))
        cut_upper.append(tuple([ones ^ poset._up_closure((f ^ m) << off) & later
                                for m in range(f + 1)]))
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

    The sections factor over the runs of ``_section_runs``: a global section
    is one section of each run, and any choice of one section per run is a
    global section.  ``_section_rows`` gives each run's sections as atom
    tuples over its contexts, sorted, and the runs tile the context order,
    so their product, taken in run order, is sorted too.  The product is
    streamed into the result; no list of whole rows is built first.  A
    product of more than ``limits.search_budget`` sections raises
    ``SizeGuard`` before any ``GlobalSection`` is built.  ``biheyt
    sections`` without ``--list`` only counts the states of each run, so it
    keeps and decodes none.  An empty result is a Kochen-Specker style
    obstruction.  It pauses the collector as ``enumerate_subobjects`` does.
    """
    with _collector_paused(poset):
        return tuple(GlobalSection(poset, sum(parts, ())) for parts in
                     product(*[rows for _, rows in _section_rows(poset, limits)]))


def _section_runs(poset: ContextPoset) -> list[tuple[range, tuple[int, ...]]]:
    """The runs of the maximal contexts, in context order: each run's range
    of context indices and its maximal contexts, ascending.

    A maximal context's span runs from the least to the greatest index
    among it and its strict subcontexts, and a run merges spans that
    overlap.  Two maximal contexts that share a subcontext have overlapping
    spans, so a run never splits a connected piece of the poset; and every
    context lies below a maximal one, so the runs tile the indices.  No
    inclusion joins two runs, so the sections of the poset are the product
    of the runs' sections.  A connected poset is one run.  A horizontal sum
    is several runs when each summand's context ids sort together, and may
    be one run when they interleave.
    """
    spans = []
    for m in poset.maximal:
        below = poset._below[m]   # ascending
        spans.append((min(m, below[0]), max(m, below[-1]), m) if below else (m, m, m))
    runs: list[list] = []
    for lo, hi, m in sorted(spans):
        if runs and lo <= runs[-1][1]:
            runs[-1][1] = max(runs[-1][1], hi)
            runs[-1][2].append(m)
        else:
            runs.append([lo, hi, [m]])
    return [(range(lo, hi + 1), tuple(sorted(maximal))) for lo, hi, maximal in runs]


def _section_count(poset: ContextPoset, limits: Limits) -> int:
    """The number of global sections: the product of the runs' counts,
    with no state kept."""
    runs = _section_runs(poset)
    counts = Counter(k for k, _ in _section_states(poset, limits, runs))
    return prod(counts[k] for k in range(len(runs)))


def _section_rows(poset: ContextPoset,
                  limits: Limits) -> list[tuple[range, list[tuple[int, ...]]]]:
    """Each run's range of contexts and its sections' atom tuples over them,
    sorted; a run after one with no section has none listed.  ``biheyt
    sections --list`` writes the product of these rows with no
    ``GlobalSection`` built.

    Each run's states are decoded a context at a time, each slice mapped
    through ``_mask_to_elem``, and the atom tuples are sorted.  A state is
    one point per context of its run iff it has as many points as the run
    has contexts and no slice decodes to the bottom, 0, the element of the
    empty mask; anything else is a bug.  A listing of more sections than
    ``limits.search_budget`` raises ``SizeGuard`` with ``needed``, the
    product count, before anything is built from the rows.  On one run the
    count is at most the search's nodes, so only a poset of several runs
    can trip it.
    """
    runs = _section_runs(poset)
    found = {k: [state for _, state in group] for k, group in
             groupby(_section_states(poset, limits, runs), itemgetter(0))}
    out = []
    for k, (contexts, _) in enumerate(runs):
        states = found.get(k, [])
        cut = slice(contexts.start, contexts.stop)
        columns = [[elem[state >> off & f] for state in states] for elem, off, f
                   in zip(poset._mask_to_elem[cut], poset._offsets[cut], poset._full[cut])]
        if (any(state.bit_count() != len(contexts) for state in states)
                or any(0 in c for c in columns)):
            raise AssertionError("section is not one point per context (bug)")
        out.append((contexts, sorted(zip(*columns))))
    needed = prod(len(rows) for _, rows in out)
    if needed > limits.search_budget:
        raise SizeGuard(f"section listing needs {needed} sections, over search "
                        f"budget {limits.search_budget}", limit="search_budget",
                        value=limits.search_budget, needed=needed)
    return out


def _section_states(poset: ContextPoset, limits: Limits,
                    runs: list[tuple[range, tuple[int, ...]]]):
    """Every global section of each run as (run position, packed state),
    run by run in the order given, in search order within each.

    The search of a run picks an atom at each of its maximal contexts in
    the order given, atoms ascending, depth-first on an explicit stack of
    (state, remaining choices).  The state is one int packed like a
    subobject: the points that the atoms picked so far restrict to.  Each
    choice of an atom at a maximal context holds two ints: ``pick``, the
    down-closure of its point, and ``clash``, the other points of the
    contexts at or below the maximal one.  A choice is compatible
    iff its clash misses the state; the state then grows by its pick.
    Restrictions compose and every context of a run lies below one of its
    maximal contexts, so a full state is a section of the run, one point
    per context.  Every choice tried, compatible or not, is one node; one
    node count runs across the runs, and the search raises ``SizeGuard`` at
    the node past ``limits.search_budget``, in whichever run it falls.  A
    run with no section ends the search, since then the poset has none.
    With no runs (no contexts) nothing is yielded: the empty product is
    the one section, the empty family.
    """
    budget = limits.search_budget
    offsets, full = poset._offsets, poset._full
    choices = {}
    for m in poset.maximal:
        span = sum(full[j] << offsets[j] for j in (m, *poset._below[m]))
        picks = [poset._down_closure(1 << offsets[m] + p) for p in range(full[m].bit_length())]
        choices[m] = [(pick, span ^ pick) for pick in picks]
    nodes = 0
    for k, (_, maximal) in enumerate(runs):
        run = [choices[m] for m in maximal]
        found = False
        stack = [(0, iter(run[0]))]
        while stack:
            state, rest = stack[-1]
            for pick, clash in rest:
                nodes += 1
                if nodes > budget:
                    raise SizeGuard(f"section search exceeded budget {budget}",
                                    limit="search_budget", value=budget, nodes=nodes)
                if not state & clash:
                    if len(stack) == len(run):
                        found = True
                        yield k, state | pick
                    else:
                        stack.append((state | pick, iter(run[len(stack)])))
                        break
            else:
                stack.pop()
        if not found:
            return

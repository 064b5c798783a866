"""The context category of a finite orthomodular lattice or pasting.

A context is a nontrivial Boolean subalgebra (the trivial {0, 1} subalgebra is
excluded; it would wreck the negation formulas downstream).  Every context
lies inside some block, and the Boolean subalgebras of a block correspond to
the partitions of its atom set, so enumeration walks block-atom partitions.
One walk over the unions of a partition's cells gives the elements, the
atoms and the int bitset of elements by which partitions are deduplicated.

Context ids are the sorted atom labels joined with "|".  The spectrum of a
context V is its atom set, and each P in V is the clopen set alpha_V(P) of
the atoms of V below P.  Per context ``ContextPoset`` holds, from that walk
alone, element <-> atom mask and a map, which it alone reads, from the set
of its elements above an element to that element's atom mask: one lookup
finds the least element of V' above any P, the coarse-graining
``delta_global(V', P)``.  For P in V and V' <= V ``delta(V, V', P)`` is
the same, and the restriction of an atom of V to V' is its coarse-graining.
The inclusions come from per-element bitsets of the contexts holding each
element, never from a test of every pair of contexts.  Scanning V' with
``leq`` is left to the oracle, which checks against it.  The closures
under restriction loop over the contexts with a strict subcontext (down)
or a strict supercontext (up), and no other.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import NoLeastUpperWitness, SizeGuard, UsageError
from .limits import DEFAULT_LIMITS, Limits
from .oml import LATTICE, OrthoStructure


@dataclass(frozen=True)
class Context:
    """A nontrivial Boolean subalgebra: id, atom indices, element set."""

    id: str
    atoms: tuple[int, ...]
    elements: frozenset[int]


def _partitions(k: int) -> list[tuple[int, ...]]:
    """Partitions of k items into two or more cells, each item in turn
    joining a cell so far or starting its own; cells are bitmasks."""
    parts: list[tuple[int, ...]] = [()]
    for p in range(k):
        parts = [part[:i] + (part[i] | 1 << p,) + part[i + 1:]
                 for part in parts for i in range(len(part))] \
            + [part + (1 << p,) for part in parts]
    return [part for part in parts if len(part) > 1]


class ContextPoset:
    """All contexts of a structure, ordered by inclusion, with their tables.

    Contexts are indexed in canonical order (sorted by id).  Context i has
    ``_mask_to_elem[i][m]``, its element over the atoms in mask m, and
    ``_elements[i]``, the bitset of its elements, both from the partition
    walk: ``enumerate_contexts`` passes them as ``_tables``, and
    ``ContextPoset(structure, contexts)`` runs the walk under
    ``DEFAULT_LIMITS`` (past ``max_contexts`` it raises ``SizeGuard``).  A
    context that is not the walk's context of its id, or is given twice,
    raises ``UsageError`` with its id in ``details``.  A block's joins are
    one-to-one and grow exactly with the atom set (``oml._build``), so the
    unions of a partition's cells are a Boolean subalgebra, and for two of
    them V' <= V the masks in V of the atoms of V' partition V's atoms;
    nothing is checked.  ``_elem_mask[i]`` inverts ``_mask_to_elem[i]``.
    ``_least[j]`` maps the key of each element e of j, the elements of j
    above it (``_up[e] & _elements[j]`` shifted down by ``_shift[j]``), to
    the atom mask of e: the least element of j above any element p exists
    iff p's key is in the map, and its mask is the coarse-graining of p,
    for an atom of V its restriction to V'.  Only ``_least_above`` (which
    names the element), ``_is_tight``, ``_monotone_witness`` and
    ``_down_closure`` read ``_least``; ``_up_closure`` closes by the masks
    of its components' elements.  Each closure loops over the contexts with
    a neighbour its way, ``_with_below`` (a strict subcontext) or
    ``_with_above`` (a strict supercontext), and maps each nonempty component
    to all those neighbours at once; other points add nothing, so with no
    inclusion it loops over nothing.  ``_every`` packs every point.  V' <= V
    iff V' has no element outside V.  No pair is tested: each element gets a
    bitset of the contexts holding it, and the AND of those over the
    elements of j is exactly j and its strict supercontexts, so the work
    grows with n squared over words.  ``_below[i]`` and ``_above[i]`` list
    the strict subcontexts and supercontexts of i in ascending order.  Every
    table is built here and never changed; the poset holds no cache or
    other mutable state, so it is immutable and safe to share.
    """

    def __init__(self, structure: OrthoStructure, contexts: tuple[Context, ...],
                 *, _tables: list[tuple[tuple[int, ...], int]] | None = None):
        self.structure = structure
        self.contexts = contexts
        self._by_id = {c.id: i for i, c in enumerate(contexts)}
        n = len(contexts)
        self._full = tuple((1 << len(c.atoms)) - 1 for c in contexts)
        up = structure._up
        if _tables is None:
            walk: dict[str, tuple[tuple[int, ...], int]] = {}
            known = {c.id: c for c in _contexts(structure, DEFAULT_LIMITS, walk)}
            for i, c in enumerate(contexts):
                if known.get(c.id) != c:
                    raise UsageError(f"{c.id!r} is not a context of the structure",
                                     context=c.id)
                if self._by_id[c.id] != i:
                    raise UsageError(f"context {c.id!r} is given twice", context=c.id)
            _tables = [walk[c.id] for c in contexts]
        offsets, elem_mask, least, shifts = [], [], [], []
        holders = [0] * structure.n
        total = 0
        for i, (c, (inverse, mine)) in enumerate(zip(contexts, _tables)):
            # every key holds 1, and the one key holding 0 holds all of the
            # context, so the keys drop bits 0 and 1 and the empty bits up
            # to the context's lowest other element
            rest = mine & ~3
            shift = (rest & -rest).bit_length() - 1
            least.append(keys := {})
            bit = 1 << i
            for m, e in enumerate(inverse):
                holders[e] |= bit
                keys[(up[e] & mine) >> shift] = m
            elem_mask.append(dict(zip(inverse, range(len(inverse)))))
            shifts.append(shift)
            offsets.append(total)
            total += len(c.atoms)
        self._mask_to_elem = mask_to_elem = tuple([inv for inv, _ in _tables])
        self._elements = tuple([mine for _, mine in _tables])
        self._offsets, self.total_bits = tuple(offsets), total
        self._every = (1 << total) - 1
        self._shift, self._elem_mask = tuple(shifts), tuple(elem_mask)
        self._least = tuple(least)

        below: list[list[int]] = [[] for _ in range(n)]
        above: list[list[int]] = [[] for _ in range(n)]
        for j, elems in enumerate(mask_to_elem):
            m = ~(1 << j)   # the holders' AND then leaves j's strict supercontexts
            for e in elems:
                m &= holders[e]
            while m:
                low = m & -m
                m ^= low
                i = low.bit_length() - 1
                below[i].append(j)
                above[j].append(i)
        self._below = tuple(map(tuple, below))
        self._above = tuple(map(tuple, above))
        self._with_below = tuple(i for i in range(n) if below[i])
        self._with_above = tuple(j for j in range(n) if above[j])
        self.minimal = tuple(i for i in range(n) if not below[i])
        self.maximal = tuple(i for i in range(n) if not above[i])

    def __repr__(self):
        return f"ContextPoset({len(self.contexts)} contexts over {self.structure!r})"

    # -- lookups --------------------------------------------------------------

    def index(self, ctx: "Context | str | int") -> int:
        if isinstance(ctx, str):
            key = ctx
        # an int, not a bool; ``type(ctx) is int`` is only the fast path
        elif type(ctx) is int or isinstance(ctx, int) and not isinstance(ctx, bool):
            if not 0 <= ctx < len(self.contexts):
                raise UsageError(f"context index {ctx} out of range")
            return ctx
        elif isinstance(ctx, Context):
            key = ctx.id
        else:
            raise UsageError(f"context {ctx!r} is neither a Context, an id "
                             f"nor an index")
        try:
            return self._by_id[key]
        except KeyError:
            raise UsageError(f"unknown context {key!r}") from None

    def context(self, ctx: "Context | str | int") -> Context:
        return self.contexts[self.index(ctx)]

    def includes(self, big, small) -> bool:
        i = self.index(big)
        return not self._elements[self.index(small)] & ~self._elements[i]

    def down_indices(self, ctx) -> tuple[int, ...]:
        i = self.index(ctx)
        return tuple(sorted((i, *self._below[i])))

    def up_indices(self, ctx) -> tuple[int, ...]:
        i = self.index(ctx)
        return tuple(sorted((i, *self._above[i])))

    # -- bitmask plumbing shared with the presheaf layer ----------------------

    def _least_above(self, j: int, p: int) -> int | None:
        """The least element of context j above element p, if any."""
        m = self._least[j].get((self.structure._up[p] & self._elements[j]) >> self._shift[j])
        return None if m is None else self._mask_to_elem[j][m]

    def _is_tight(self, bits: int) -> bool:
        """``biheyting.is_tight`` of the packed subobject ``bits``."""
        up, offsets, full, least, elements, shift = (
            self.structure._up, self._offsets, self._full, self._least, self._elements, self._shift)
        for i in self.maximal:
            row = up[self._mask_to_elem[i][(bits >> offsets[i]) & full[i]]]
            for j in self._below[i]:
                if least[j][(row & elements[j]) >> shift[j]] != (bits >> offsets[j]) & full[j]:
                    return False
        return True

    def _monotone_witness(self, masks: list[int]) -> tuple[int, int] | None:
        """First inclusion pair (sub, super) violating monotonicity, if any."""
        up, elements, shift, least = self.structure._up, self._elements, self._shift, self._least
        for i, below in enumerate(self._below):
            row = up[self._mask_to_elem[i][masks[i]]]
            for j in below:
                if least[j][(row & elements[j]) >> shift[j]] & ~masks[j]:
                    return (j, i)
        return None

    def _down_closure(self, bits: int) -> int:
        """``bits`` and the restrictions of its points to every subcontext."""
        offsets, full, least, out = self._offsets, self._full, self._least, bits
        up, elements, shifts = self.structure._up, self._elements, self._shift
        for w in self._with_below:
            g = (bits >> offsets[w]) & full[w]
            if g:
                row = up[self._mask_to_elem[w][g]]
                for i in self._below[w]:
                    out |= least[i][(row & elements[i]) >> shifts[i]] << offsets[i]
        return out

    def _up_closure(self, bits: int) -> int:
        """``bits`` and the points of every supercontext restricting into it."""
        offsets, full, elem_mask, out = self._offsets, self._full, self._elem_mask, bits
        for j in self._with_above:
            g = (bits >> offsets[j]) & full[j]
            if g:
                e = self._mask_to_elem[j][g]
                for i in self._above[j]:
                    out |= elem_mask[i][e] << offsets[i]
        return out


def _contexts(structure: OrthoStructure, limits: Limits,
              tables: dict | None = None) -> tuple[Context, ...]:
    """All nontrivial Boolean subalgebras, sorted by id.  ``tables`` gets by
    id the elements by atom mask and their bitset, from one pass over the
    unions of the cells taken in join order, which only it pays for."""
    labels = structure.labels
    found: dict[int, Context] = {}
    partitions: dict[int, list[tuple[int, ...]]] = {}
    for block, joins in zip(structure.blocks, structure._block_joins):
        k = len(block.atoms)
        if k not in partitions:
            partitions[k] = _partitions(k)
        get = joins.__getitem__
        for part in partitions[k]:
            if tables is not None:
                part = sorted(part, key=get)
            unions = [0]   # every union of cells, as a mask of block atoms
            for cell in part:
                unions += [u | cell for u in unions]
            elems = list(map(get, unions))
            key = sum([1 << e for e in elems])   # joins is one-to-one
            if key not in found:
                atoms = tuple(sorted(map(get, part)))
                found[key] = Context(id="|".join([labels[a] for a in atoms]),
                                     atoms=atoms, elements=frozenset(elems))
                if tables is not None:
                    tables[found[key].id] = (tuple(elems), key)
                if len(found) > limits.max_contexts:
                    raise SizeGuard(
                        f"context count exceeds limit {limits.max_contexts}",
                        limit="max_contexts", value=limits.max_contexts,
                        reached=len(found))

    return tuple(sorted(found.values(), key=lambda c: c.id))


def enumerate_contexts(structure: OrthoStructure, *,
                       limits: Limits = DEFAULT_LIMITS) -> ContextPoset:
    """All nontrivial Boolean subalgebras, as a ContextPoset."""
    tables: dict[str, tuple[tuple[int, ...], int]] = {}
    contexts = _contexts(structure, limits, tables)
    poset = ContextPoset(structure, contexts, _tables=[tables[c.id] for c in contexts])
    for i in poset.minimal:
        if len(poset.contexts[i].atoms) != 2:
            raise AssertionError("minimal context with more than two atoms (bug)")
    return poset


def minimal_below(poset: ContextPoset, ctx) -> tuple[Context, ...]:
    """The minimal contexts at or below V (the four-element ones)."""
    return tuple(poset.contexts[j] for j in poset.down_indices(ctx)
                 if not poset._below[j])


def maximal_above(poset: ContextPoset, ctx) -> tuple[Context, ...]:
    """The maximal contexts at or above V (one per containing block)."""
    return tuple(poset.contexts[j] for j in poset.up_indices(ctx)
                 if not poset._above[j])


def _require_poset(poset) -> None:
    """The check that the entry points taking a poset first share."""
    if not isinstance(poset, ContextPoset):
        raise UsageError(f"expected a ContextPoset, not {type(poset).__name__}")


def _require_subcontext(poset: ContextPoset, i: int, j: int) -> None:
    """The check that ``delta`` and ``restrict`` share: context j <= i."""
    if poset._elements[j] & ~poset._elements[i]:
        raise UsageError(f"{poset.contexts[j].id!r} is not a subcontext of "
                         f"{poset.contexts[i].id!r}")


def delta(poset: ContextPoset, big, small, p: int | str) -> int:
    """Coarse-graining: least element of the subcontext dominating p.

    Requires p in V and V' <= V; under those preconditions the minimum always
    exists, and it is ``delta_global`` of p in V'.
    """
    i, j = poset.index(big), poset.index(small)
    st = poset.structure
    p = st.el(p)
    _require_subcontext(poset, i, j)
    if p not in poset.contexts[i].elements:
        raise UsageError(f"element {st.label(p)!r} not in context "
                         f"{poset.contexts[i].id!r}")
    return poset._least_above(j, p)


def delta_global(poset: ContextPoset, ctx, p: int | str) -> int:
    """Least element of a context dominating an arbitrary structure element.

    For lattice kind this always exists; for pasted structures the dominating
    set may have no least element, which raises ``NoLeastUpperWitness``.
    """
    j = poset.index(ctx)
    st = poset.structure
    p = st.el(p)
    out = poset._least_above(j, p)
    if out is None:
        if st.kind == LATTICE:
            raise AssertionError("no least dominator in a lattice (bug)")
        raise NoLeastUpperWitness(
            f"element {st.label(p)!r} has no least dominator in context "
            f"{poset.contexts[j].id!r}",
            element=st.label(p), context=poset.contexts[j].id)
    return out

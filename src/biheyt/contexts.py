"""The context category of a finite orthomodular structure.

A context is a nontrivial Boolean subalgebra (the trivial {0, 1} subalgebra is
excluded; it would wreck the negation formulas downstream).  Every context
lies inside some block, and the Boolean subalgebras of a block correspond to
the partitions of its atom set, so enumeration walks block-atom partitions.
One walk over the unions of a partition's cells gives the elements, the
atoms and the int bitset of elements by which partitions are deduplicated.

Context ids are the sorted atom labels joined with "|".  The spectrum of a
context V is its atom set, and each P in V is the clopen set alpha_V(P) of
the atoms of V below P.  ``ContextPoset`` derives every table from that one
rule and the structure's order rows: element <-> atom mask per context, and
per context a map from the set of its elements above an element to that
element.  The map finds the least element of V' above any P by one lookup,
which is coarse-graining ``delta_global(V', P)``; ``delta(V, V', P)`` is the
same for P in V and V' <= V, and the restriction of an atom of V to V' is
its coarse-graining.  The inclusions come from per-element bitsets of the
contexts holding each element, never from a test of every pair of contexts.
Scanning V' with ``leq`` is left to the oracle, which checks against it.
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


def _partitions(items: tuple):
    """All set partitions, deterministically ordered, cells keep item order."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


class ContextPoset:
    """All contexts of a structure, ordered by inclusion, with their tables.

    Built by ``enumerate_contexts``.  Contexts are indexed in canonical order
    (sorted by id).  Every table is alpha read off the structure's order
    rows.  One walk over the subsets of context i's atoms gives each atom
    mask m as an element bitset; ``_mask_to_elem[i][m]`` is the element
    whose ``_down`` row meets the atoms in exactly that bitset, and
    ``_elem_mask[i]`` is its inverse.  The context is Boolean iff that pairs
    its elements one to one with its masks.  ``_least[j]`` maps the key of
    each element e of j, the elements of j above it (``_up[e] & _elements[j]``
    shifted down by ``_shift[j]``), to e.  The least element of j above any
    element p exists iff p's key is in the map, and is its value: the
    coarse-graining of p, and for an atom of V its restriction to V'.  So
    ``image_mask`` is a lookup, and ``pullback_mask`` is the mask in V of an
    element of V'.  V' <= V iff V' has no element outside V.  No pair of
    contexts is tested: each element gets a bitset of the contexts holding
    it, and the AND of those bitsets over the elements of j is j with its
    supercontexts.  That is one AND of n-bit ints per element of each
    context, so the work still grows with n squared, over machine words
    rather than over pairs.  Per inclusion the masks in V of the atoms of
    V' must partition V's atoms.  ``_below[i]`` and ``_above[i]`` list the
    strict subcontexts and supercontexts of i in ascending order.  Every
    table is built here and never changed; the poset holds no cache or
    other mutable state, so it is immutable and safe to share.
    """

    def __init__(self, structure: OrthoStructure, contexts: tuple[Context, ...]):
        self.structure = structure
        self.contexts = contexts
        self._by_id = {c.id: i for i, c in enumerate(contexts)}
        n = len(contexts)
        self._elements = elements = tuple(sum(1 << e for e in c.elements)
                                          for c in contexts)

        offsets = []
        total = 0
        for c in contexts:
            offsets.append(total)
            total += len(c.atoms)
        self._offsets = tuple(offsets)
        self.total_bits = total
        self._full = full = tuple((1 << len(c.atoms)) - 1 for c in contexts)

        down, up = structure._down, structure._up
        elem_mask: list[dict[int, int]] = []
        mask_to_elem: list[tuple[int, ...]] = []
        least: list[dict[int, int]] = []
        shifts: list[int] = []
        for c, mine in zip(contexts, elements):
            walk = [0]   # walk[m]: the atoms of mask m as an element bitset
            for a in c.atoms:
                walk += [w | 1 << a for w in walk]
            below = {down[e] & walk[-1]: e for e in c.elements}
            if not len(c.elements) == len(below) == len(walk):
                raise AssertionError(f"context {c.id!r} is not Boolean (bug)")
            inverse = tuple(map(below.__getitem__, walk))
            elem_mask.append({e: m for m, e in enumerate(inverse)})
            mask_to_elem.append(inverse)
            # every key holds 1, and the one key holding 0 holds all of the
            # context, so the keys drop bits 0 and 1 and the empty bits up
            # to the context's lowest other element
            rest = mine & ~3
            shift = (rest & -rest).bit_length() - 1
            least.append({(up[e] & mine) >> shift: e for e in c.elements})
            shifts.append(shift)
        self._elem_mask = tuple(elem_mask)
        self._mask_to_elem = tuple(mask_to_elem)
        self._least = tuple(least)
        self._shift = tuple(shifts)

        holders = [0] * structure.n
        for i, c in enumerate(contexts):
            for e in c.elements:
                holders[e] |= 1 << i
        below: list[list[int]] = [[] for _ in range(n)]
        above: list[list[int]] = [[] for _ in range(n)]
        for j, c in enumerate(contexts):
            m = -1
            for e in c.elements:
                m &= holders[e]
            while m:
                low = m & -m
                m ^= low
                i = low.bit_length() - 1
                back = [elem_mask[i][b] for b in c.atoms]
                covered = 0
                for q in back:
                    covered |= q
                if not covered == sum(back) == full[i]:
                    raise AssertionError("preimages do not partition the atoms (bug)")
                if i != j:
                    below[i].append(j)
                    above[j].append(i)
        self._below = tuple(map(tuple, below))
        self._above = tuple(map(tuple, above))
        self.minimal = tuple(i for i in range(n) if not below[i])
        self.maximal = tuple(i for i in range(n) if not above[i])

    def __repr__(self):
        return f"ContextPoset({len(self.contexts)} contexts over {self.structure!r})"

    # -- lookups --------------------------------------------------------------

    def index(self, ctx: "Context | str | int") -> int:
        if isinstance(ctx, int):
            if not 0 <= ctx < len(self.contexts):
                raise UsageError(f"context index {ctx} out of range")
            return ctx
        key = ctx.id if isinstance(ctx, Context) else ctx
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
        key = (self.structure._up[p] & self._elements[j]) >> self._shift[j]
        return self._least[j].get(key)

    def image_mask(self, i: int, j: int, mask: int) -> int:
        """Forward image of an atom mask of context i in subcontext j."""
        p = self._mask_to_elem[i][mask]
        key = (self.structure._up[p] & self._elements[j]) >> self._shift[j]
        return self._elem_mask[j][self._least[j][key]]

    def pullback_mask(self, i: int, j: int, mask_j: int) -> int:
        """Atoms of context i whose restriction lands inside mask_j."""
        return self._elem_mask[i][self._mask_to_elem[j][mask_j]]


def enumerate_contexts(structure: OrthoStructure, *,
                       limits: Limits = DEFAULT_LIMITS) -> ContextPoset:
    """All nontrivial Boolean subalgebras, as a ContextPoset."""
    found: dict[int, tuple[tuple[int, ...], list[int]]] = {}
    for bi, block in enumerate(structure.blocks):
        joins = structure._block_joins[bi]
        pos = {a: p for p, a in enumerate(block.atoms)}
        for part in _partitions(block.atoms):
            if len(part) < 2:
                continue   # one cell would give the trivial subalgebra
            unions = [0]   # every union of cells, as a mask of block atoms
            for cell in part:
                m = 0
                for a in cell:
                    m |= 1 << pos[a]
                unions += [u | m for u in unions]
            elems = [joins[u] for u in unions]
            key = sum(1 << e for e in elems)   # joins is one-to-one
            if key not in found:
                # the cells sit at the powers of two of the walk
                atoms = tuple(sorted(elems[1 << k] for k in range(len(part))))
                found[key] = atoms, elems
                if len(found) > limits.max_contexts:
                    raise SizeGuard(
                        f"context count exceeds limit {limits.max_contexts}",
                        limit="max_contexts", value=limits.max_contexts,
                        reached=len(found))

    contexts = [Context(id="|".join(structure.labels[a] for a in atoms),
                        atoms=atoms, elements=frozenset(elems))
                for atoms, elems in found.values()]
    contexts.sort(key=lambda c: c.id)
    poset = ContextPoset(structure, tuple(contexts))
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


def _require_subcontext(poset: ContextPoset, i: int, j: int) -> None:
    """The check that ``delta`` and ``restrict`` share: context j <= i."""
    if not poset.includes(i, j):
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
    return delta_global(poset, j, p)


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

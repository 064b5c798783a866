"""The context category of a finite orthomodular structure.

A context is a nontrivial Boolean subalgebra (the trivial {0, 1} subalgebra is
excluded; it would wreck the negation formulas downstream).  Every context
lies inside some block, and the Boolean subalgebras of a block correspond to
the partitions of its atom set, so enumeration walks block-atom partitions and
deduplicates by element set.

Context ids are the sorted atom labels joined with "|".  Each context keeps
the ascending lists of its strict subcontexts and strict supercontexts, and
every walk over inclusions elsewhere iterates those lists.  Coarse-graining
``delta(V, V', P)`` is the least element of V' dominating P.  For P in V it is
the restriction image of P's atoms, so it is a lookup in the per-inclusion
tables.  For P anywhere in the structure (``delta_global``) it is the least
element of the mask of V's elements above P, found as in ``oml``'s glb and
lub tables.  Scanning V' with ``leq`` is left to the oracle, which checks
both against it.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import NoLeastUpperWitness, SizeGuard, UsageError
from .limits import DEFAULT_LIMITS, Limits
from .oml import LATTICE, OrthoStructure, _extremum


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
    """All contexts of a structure, ordered by inclusion, with caches.

    Built by ``enumerate_contexts``.  Contexts are indexed in canonical order
    (sorted by id); ``_below[i]`` and ``_above[i]`` list the strict
    subcontexts and supercontexts of context i in ascending order.
    Per-context tables translate between elements and atom bitmasks,
    restriction tables map atoms of a context to the unique dominating atom
    of each subcontext, and preimage tables map each atom of the subcontext
    back to the mask of atoms restricting to it.  Immutable and safe to share.
    """

    def __init__(self, structure: OrthoStructure, contexts: tuple[Context, ...]):
        self.structure = structure
        self.contexts = contexts
        self._by_id = {c.id: i for i, c in enumerate(contexts)}
        n = len(contexts)

        down = [0] * n   # bit j set iff contexts[j] <= contexts[i]
        up = [0] * n
        below: list[list[int]] = [[] for _ in range(n)]
        above: list[list[int]] = [[] for _ in range(n)]
        for i, ci in enumerate(contexts):
            for j, cj in enumerate(contexts):
                if cj.elements <= ci.elements:
                    down[i] |= 1 << j
                    up[j] |= 1 << i
                    if i != j:
                        below[i].append(j)
                        above[j].append(i)
        self._down, self._up = tuple(down), tuple(up)
        self._below = tuple(map(tuple, below))
        self._above = tuple(map(tuple, above))

        self.minimal = tuple(i for i in range(n) if not below[i])
        self.maximal = tuple(i for i in range(n) if not above[i])
        self._m = tuple(tuple(j for j in self.minimal if (down[i] >> j) & 1)
                        for i in range(n))
        self._M = tuple(tuple(j for j in self.maximal if (up[i] >> j) & 1)
                        for i in range(n))
        # j covers i iff no strict supercontext of i lies strictly below j
        self._covers_up = tuple(
            tuple(j for j in above[i] if not down[j] & up[i] & ~(1 << i | 1 << j))
            for i in range(n))

        offsets = []
        total = 0
        for c in contexts:
            offsets.append(total)
            total += len(c.atoms)
        self._offsets = tuple(offsets)
        self.total_bits = total
        self._full = tuple((1 << len(c.atoms)) - 1 for c in contexts)
        self._elements = tuple(sum(1 << e for e in c.elements) for c in contexts)

        st = structure
        mask_to_elem: list[dict[int, int]] = []
        elem_mask: list[dict[int, int]] = []
        for c in contexts:
            # Find a block whose closure contains the whole context, then
            # compute subset joins through that block's join table.
            bmask = -1
            for e in c.elements:
                bmask &= st._elem_blocks[e]
            if bmask == 0:
                raise AssertionError("context not inside any block (bug)")
            bi = (bmask & -bmask).bit_length() - 1
            supp = st._block_supp[bi]
            joins = st._block_joins[bi]
            table: dict[int, int] = {}
            for mask in range(1 << len(c.atoms)):
                bm = 0
                mm = mask
                while mm:
                    low = mm & -mm
                    mm ^= low
                    bm |= supp[c.atoms[low.bit_length() - 1]]
                table[mask] = joins[bm]
            mask_to_elem.append(table)
            elem_mask.append({e: m for m, e in table.items()})
        self._mask_to_elem = tuple(mask_to_elem)
        self._elem_mask = tuple(elem_mask)

        restr: dict[tuple[int, int], tuple[int, ...]] = {}
        pre: dict[tuple[int, int], tuple[int, ...]] = {}
        for i in range(n):
            for j in (i, *below[i]):
                table = []
                back = [0] * len(contexts[j].atoms)
                for p, a in enumerate(contexts[i].atoms):
                    hits = [q for q, b in enumerate(contexts[j].atoms)
                            if (st._down[b] >> a) & 1]
                    if len(hits) != 1:
                        raise AssertionError("atom restriction not unique (bug)")
                    table.append(hits[0])
                    back[hits[0]] |= 1 << p
                key = (i, j)
                restr[key] = tuple(table)
                pre[key] = tuple(back)
        self._restr = restr
        self._pre = pre
        self._subobjects_cache: tuple | None = None

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
        return bool((self._down[self.index(big)] >> self.index(small)) & 1)

    def down_indices(self, ctx) -> tuple[int, ...]:
        i = self.index(ctx)
        return tuple(j for j in range(len(self.contexts)) if (self._down[i] >> j) & 1)

    def up_indices(self, ctx) -> tuple[int, ...]:
        i = self.index(ctx)
        return tuple(j for j in range(len(self.contexts)) if (self._up[i] >> j) & 1)

    # -- bitmask plumbing shared with the presheaf layer ----------------------

    def image_mask(self, i: int, j: int, mask: int) -> int:
        """Forward image of an atom mask of context i in subcontext j."""
        table = self._restr[(i, j)]
        out = 0
        while mask:
            low = mask & -mask
            mask ^= low
            out |= 1 << table[low.bit_length() - 1]
        return out

    def pullback_mask(self, i: int, j: int, mask_j: int) -> int:
        """Atoms of context i whose restriction lands inside mask_j."""
        table = self._pre[(i, j)]
        out = 0
        while mask_j:
            low = mask_j & -mask_j
            mask_j ^= low
            out |= table[low.bit_length() - 1]
        return out


def enumerate_contexts(structure: OrthoStructure, *,
                       limits: Limits = DEFAULT_LIMITS) -> ContextPoset:
    """All nontrivial Boolean subalgebras, as a ContextPoset."""
    found: dict[frozenset[int], tuple[int, ...]] = {}
    for bi, block in enumerate(structure.blocks):
        joins = structure._block_joins[bi]
        pos = {a: p for p, a in enumerate(block.atoms)}
        for part in _partitions(block.atoms):
            if len(part) < 2:
                continue   # one cell would give the trivial subalgebra
            cell_masks = []
            for cell in part:
                m = 0
                for a in cell:
                    m |= 1 << pos[a]
                cell_masks.append(m)
            elems = set()
            for sub in range(1 << len(cell_masks)):
                m = 0
                ss = sub
                while ss:
                    low = ss & -ss
                    ss ^= low
                    m |= cell_masks[low.bit_length() - 1]
                elems.add(joins[m])
            key = frozenset(elems)
            if key not in found:
                atoms = tuple(sorted(joins[m] for m in cell_masks))
                found[key] = atoms
                if len(found) > limits.max_contexts:
                    raise SizeGuard(
                        f"context count exceeds limit {limits.max_contexts}")

    contexts = [Context(id="|".join(structure.labels[a] for a in atoms),
                        atoms=atoms, elements=elems)
                for elems, atoms in found.items()]
    contexts.sort(key=lambda c: c.id)
    poset = ContextPoset(structure, tuple(contexts))
    for i in poset.minimal:
        if len(poset.contexts[i].atoms) != 2:
            raise AssertionError("minimal context with more than two atoms (bug)")
    return poset


def minimal_below(poset: ContextPoset, ctx) -> tuple[Context, ...]:
    """The minimal contexts at or below V (the four-element ones)."""
    return tuple(poset.contexts[j] for j in poset._m[poset.index(ctx)])


def maximal_above(poset: ContextPoset, ctx) -> tuple[Context, ...]:
    """The maximal contexts at or above V (one per containing block)."""
    return tuple(poset.contexts[j] for j in poset._M[poset.index(ctx)])


def delta(poset: ContextPoset, big, small, p: int | str) -> int:
    """Coarse-graining: least element of the subcontext dominating p.

    Requires p in V and V' <= V; under those preconditions the minimum always
    exists and is the join of the restrictions of p's atoms.
    """
    i, j = poset.index(big), poset.index(small)
    st = poset.structure
    p = st.el(p)
    if not (poset._down[i] >> j) & 1:
        raise UsageError(f"{poset.contexts[j].id!r} is not a subcontext of "
                         f"{poset.contexts[i].id!r}")
    if p not in poset.contexts[i].elements:
        raise UsageError(f"element {st.label(p)!r} not in context "
                         f"{poset.contexts[i].id!r}")
    return poset._mask_to_elem[j][poset.image_mask(i, j, poset._elem_mask[i][p])]


def delta_global(poset: ContextPoset, ctx, p: int | str) -> int:
    """Least element of a context dominating an arbitrary structure element.

    For lattice kind this always exists; for pasted structures the dominating
    set may have no least element, which raises ``NoLeastUpperWitness``.
    """
    j = poset.index(ctx)
    st = poset.structure
    p = st.el(p)
    out = _extremum(st._up[p] & poset._elements[j], st._up)
    if out is None:
        if st.kind == LATTICE:
            raise AssertionError("no least dominator in a lattice (bug)")
        raise NoLeastUpperWitness(
            f"element {st.label(p)!r} has no least dominator in context "
            f"{poset.contexts[j].id!r}",
            element=st.label(p), context=poset.contexts[j].id)
    return out

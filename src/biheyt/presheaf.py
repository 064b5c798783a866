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

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .contexts import Context, ContextPoset
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
        object.__setattr__(self, "poset", poset)
        object.__setattr__(self, "bits", bits)

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
        st = self.poset.structure
        return {c.id: st.label(self.element_at(i))
                for i, c in enumerate(self.poset.contexts)}

    def key(self) -> tuple[int, ...]:
        return tuple(self.mask_at(i) for i in range(len(self.poset.contexts)))

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
        parts = ", ".join(f"{c.id}: {self.poset.structure.label(self.element_at(i))}"
                          for i, c in enumerate(self.poset.contexts))
        return f"ClopenSubobject({parts})"


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
        st = self.poset.structure
        return {c.id: st.label(self.atoms[i])
                for i, c in enumerate(self.poset.contexts)}


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
    if not (poset._down[i] >> j) & 1:
        raise UsageError(f"{poset.contexts[j].id!r} is not a subcontext of "
                         f"{poset.contexts[i].id!r}")
    try:
        p = poset.contexts[i].atoms.index(point.atom)
    except ValueError:
        raise UsageError(f"{point.label!r} is not an atom of {point.context_id!r}") from None
    a = poset.contexts[j].atoms[poset._restr[(i, j)][p]]
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
    n = len(poset.contexts)
    for i in range(n):
        dm = poset._down[i] & ~(1 << i)
        while dm:
            low = dm & -dm
            dm ^= low
            j = low.bit_length() - 1
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


def enumerate_subobjects(poset: ContextPoset, *,
                         limits: Limits = DEFAULT_LIMITS) -> tuple[ClopenSubobject, ...]:
    """All clopen subobjects, canonically ordered.

    Contexts are assigned from largest to smallest; each assignment is bounded
    below by the restriction images of the already-assigned supersets, so only
    monotone families are generated.  Cached on the poset after first success.
    """
    if poset._subobjects_cache is not None:
        return poset._subobjects_cache
    n = len(poset.contexts)
    order = sorted(range(n), key=lambda i: (-len(poset.contexts[i].elements),
                                            poset.contexts[i].id))
    results: list[int] = []
    masks = [0] * n
    budget = limits.max_subobjects

    def rec(pos: int) -> None:
        if pos == n:
            if len(results) >= budget:
                raise SizeGuard(f"subobject count exceeds limit {budget}")
            bits = 0
            for i in range(n):
                bits |= masks[i] << poset._offsets[i]
            results.append(bits)
            return
        i = order[pos]
        bound = 0
        for sup in poset._covers_up[i]:
            bound |= poset.image_mask(sup, i, masks[sup])
        free = poset._full[i] & ~bound
        s = 0
        while True:
            masks[i] = bound | s
            rec(pos + 1)
            if s == free:
                break
            s = (s - free) & free

    rec(0)
    subs = tuple(sorted((ClopenSubobject(poset, b) for b in results),
                        key=ClopenSubobject.key))
    poset._subobjects_cache = subs
    return subs


# -- global sections -------------------------------------------------------------


def global_sections(poset: ContextPoset, *,
                    limits: Limits = DEFAULT_LIMITS) -> tuple[GlobalSection, ...]:
    """All global sections of the spectral presheaf.

    Backtracks over the maximal contexts (one atom each), pruning on the
    shared subcontexts of already-assigned pairs, then fills in every other
    context by restriction and verifies full compatibility.  An empty result
    on a structure is a Kochen-Specker style obstruction.
    """
    n = len(poset.contexts)
    maxs = list(poset.maximal)
    atom_pos = [{a: p for p, a in enumerate(c.atoms)} for c in poset.contexts]
    shared: list[list[tuple[int, list[int]]]] = []
    for t, mt in enumerate(maxs):
        row = []
        for s in range(t):
            common = poset._down[mt] & poset._down[maxs[s]]
            ctxs = []
            cm = common
            while cm:
                low = cm & -cm
                cm ^= low
                ctxs.append(low.bit_length() - 1)
            if ctxs:
                row.append((s, ctxs))
        shared.append(row)

    nodes = 0
    chosen: list[int] = [0] * len(maxs)   # atom position within each maximal context
    out: list[GlobalSection] = []

    def fill_and_verify() -> None:
        atoms = [None] * n
        for t, mt in enumerate(maxs):
            p = chosen[t]
            dm = poset._down[mt]
            while dm:
                low = dm & -dm
                dm ^= low
                j = low.bit_length() - 1
                atoms[j] = poset.contexts[j].atoms[poset._restr[(mt, j)][p]]
        if any(a is None for a in atoms):
            raise AssertionError("context below no maximal context (bug)")
        for i in range(n):
            dm = poset._down[i] & ~(1 << i)
            while dm:
                low = dm & -dm
                dm ^= low
                j = low.bit_length() - 1
                p = atom_pos[i][atoms[i]]
                if poset.contexts[j].atoms[poset._restr[(i, j)][p]] != atoms[j]:
                    raise AssertionError("incompatible section escaped pruning (bug)")
        out.append(GlobalSection(poset=poset, atoms=tuple(atoms)))

    def rec(t: int) -> None:
        nonlocal nodes
        if t == len(maxs):
            fill_and_verify()
            return
        mt = maxs[t]
        for p in range(len(poset.contexts[mt].atoms)):
            nodes += 1
            if nodes > limits.search_budget:
                raise SizeGuard(f"section search exceeded budget {limits.search_budget}")
            ok = True
            for s, ctxs in shared[t]:
                ms = maxs[s]
                for j in ctxs:
                    if (poset._restr[(mt, j)][p]
                            != poset._restr[(ms, j)][chosen[s]]):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                chosen[t] = p
                rec(t + 1)

    rec(0)
    return tuple(sorted(out, key=lambda g: g.atoms))

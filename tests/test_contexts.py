"""Context enumeration, the inclusion order, and coarse-graining maps.

Counts are cross-checked against the set-partition formula: an n-atom Boolean
block has Bell(n) - 1 nontrivial subalgebras, and pasted structures share
exactly one four-element context per shared atom.
"""
import random

import pytest
from hypothesis import given, settings, strategies as st

from biheyt import (DEFAULT_LIMITS, ClopenSubobject, Context, ContextPoset,
                    Limits, NoLeastUpperWitness, SizeGuard, UsageError,
                    builtin_structure, delta, delta_global, enumerate_contexts,
                    from_greechie, generate, make_subobject, maximal_above,
                    minimal_below, restrict, spectrum, validate)
from biheyt import contexts as contexts_module
from biheyt.contexts import _contexts
from biheyt.oracle import _least_dominating
from biheyt.serialize import _covers_up

from support import (BUILTINS, FOUR_LOOP, PENTAGON, TRIANGLE, _dump_explicit,
                     chain_pasting, restriction_maps, tree_pasting)

BOOLEAN3_IDS = ["p+q|r", "p+r|q", "p|q+r", "p|q|r"]
MO2_IDS = ["a|a'", "b|b'"]

# Shared atom "0001" of the 18-atom pasting: its four-element context sits
# below exactly the two block contexts that contain the atom.
SHARED_ATOM_CTX = "0001|0010+1100+1m00"
SHARED_ATOM_BLOCKS = ["0001|0010|1100|1m00", "0001|0100|1010|10m0"]


def _bell(n):
    # Peirce triangle; independent of the partition generator in the package.
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[-1]


def _ctx_join(poset, i, p, q):
    m = poset._elem_mask[i][p] | poset._elem_mask[i][q]
    return poset._mask_to_elem[i][m]


def _ctx_meet(poset, i, p, q):
    m = poset._elem_mask[i][p] & poset._elem_mask[i][q]
    return poset._mask_to_elem[i][m]


def test_single_block_counts_follow_partition_formula(boolean2_poset,
                                                      boolean3_poset,
                                                      boolean4_poset):
    for n, poset in [(2, boolean2_poset), (3, boolean3_poset),
                     (4, boolean4_poset)]:
        assert len(poset.contexts) == _bell(n) - 1


def test_boolean3_context_ids(boolean3_poset):
    assert [c.id for c in boolean3_poset.contexts] == BOOLEAN3_IDS


def test_mo2_context_ids(mo2_poset):
    assert [c.id for c in mo2_poset.contexts] == MO2_IDS


def test_cabello18_context_count(cabello18_poset):
    # 9 blocks of 4 atoms, 18 shared atoms, one duplicated four-element
    # context per shared atom.
    assert len(cabello18_poset.contexts) == 9 * (_bell(4) - 1) - 18

    by_size = {}
    for c in cabello18_poset.contexts:
        by_size[len(c.atoms)] = by_size.get(len(c.atoms), 0) + 1
    # per block: S(4,2)=7 two-atom, S(4,3)=6 three-atom, one four-atom;
    # only the atom/coatom contexts of shared atoms collide.
    assert by_size == {2: 9 * 7 - 18, 3: 9 * 6, 4: 9}


def test_contexts_are_boolean_subalgebras(boolean3_poset, mo2_poset,
                                          cabello18_poset):
    for poset in (boolean3_poset, mo2_poset, cabello18_poset):
        st = poset.structure
        for i, c in enumerate(poset.contexts):
            assert st.zero in c.elements and st.one in c.elements
            assert len(c.elements) == 1 << len(c.atoms)
            assert all(st.ortho[e] in c.elements for e in c.elements)
            for a in c.atoms:
                for b in c.atoms:
                    assert (a == b) or st.leq(a, st.ortho[b])
            # every element is the join of the atoms below it
            for e in c.elements:
                mask = poset._elem_mask[i][e]
                below = [a for a in c.atoms if st.leq(a, e)]
                assert mask == sum(1 << c.atoms.index(a) for a in below)


def test_minimal_contexts_have_two_atoms(boolean3_poset, boolean4_poset,
                                         mo2_poset, cabello18_poset):
    for poset in (boolean3_poset, boolean4_poset, mo2_poset, cabello18_poset):
        for i, c in enumerate(poset.contexts):
            assert (i in poset.minimal) == (len(c.atoms) == 2)


def test_maximal_contexts(boolean3_poset, mo2_poset, cabello18_poset):
    assert [boolean3_poset.contexts[i].id for i in boolean3_poset.maximal] \
        == ["p|q|r"]
    assert len(mo2_poset.maximal) == 2
    tops = [cabello18_poset.contexts[i] for i in cabello18_poset.maximal]
    assert len(tops) == 9 and all(len(c.atoms) == 4 for c in tops)


def _structure(spec):
    """A builtin name, a Greechie block list, or ("explicit", spec) for the
    explicit dump of either."""
    if isinstance(spec, str):
        return builtin_structure(spec)
    if spec[0] == "explicit":
        return validate(_dump_explicit(_structure(spec[1])))
    return from_greechie(spec)


def _poset(spec):
    return enumerate_contexts(_structure(spec))


def test_inclusion_matches_element_subsets(boolean4_poset, cabello18_poset):
    for poset in (boolean4_poset, cabello18_poset, _poset(FOUR_LOOP)):
        n = len(poset.contexts)
        for i, ci in enumerate(poset.contexts):
            down = tuple(j for j, cj in enumerate(poset.contexts)
                         if cj.elements <= ci.elements)
            up = tuple(j for j, cj in enumerate(poset.contexts)
                       if ci.elements <= cj.elements)
            assert poset.down_indices(i) == down and poset.up_indices(i) == up
            for j in range(n):
                assert poset.includes(i, j) == (j in down)


def _bits(mask):
    return [p for p in range(mask.bit_length()) if (mask >> p) & 1]


def _assert_restriction_maps(poset, restr):
    """The closures of every mask of context i, read at j, and
    ``restriction_maps``, against ``restr[i, j][p]``, the atom of j that
    atom p of i restricts to, for every inclusion j <= i in ``restr``."""
    offsets, full = poset._offsets, poset._full
    down, up = {}, {}
    for (i, j), table in restr.items():
        image, pullback = restriction_maps(poset, i, j)
        for m in range(full[i] + 1):
            if (i, m) not in down:
                down[i, m] = poset._down_closure(m << offsets[i])
            want = sum(1 << q for q in {table[p] for p in _bits(m)})
            assert down[i, m] >> offsets[j] & full[j] == image(m) == want
        for m in range(full[j] + 1):
            if (j, m) not in up:
                up[j, m] = poset._up_closure(m << offsets[j])
            want = sum(1 << p for p, q in enumerate(table) if (m >> q) & 1)
            assert up[j, m] >> offsets[i] & full[i] == pullback(m) == want


def _all_pairs_tables(poset):
    """The inclusion lists and restrictions from a test of every ordered pair
    of contexts: V' <= V iff V' has no element outside V, and an atom of V
    restricts to the atom of V' whose mask in V holds it."""
    contexts, elem_mask = poset.contexts, poset._elem_mask
    elements = [sum(1 << e for e in c.elements) for c in contexts]
    below = [[] for _ in contexts]
    above = [[] for _ in contexts]
    restr = {}
    for i, ei in enumerate(elements):
        for j, ej in enumerate(elements):
            if ej & ~ei:
                continue
            if i != j:
                below[i].append(j)
                above[j].append(i)
            back = tuple(elem_mask[i][b] for b in contexts[j].atoms)
            restr[(i, j)] = tuple(next(q for q, m in enumerate(back)
                                       if (m >> p) & 1)
                                  for p in range(len(contexts[i].atoms)))
    return tuple(map(tuple, below)), tuple(map(tuple, above)), restr


def _assert_tables_match_all_pairs(poset):
    below, above, restr = _all_pairs_tables(poset)
    assert poset._below == below and poset._above == above
    _assert_restriction_maps(poset, restr)


@pytest.mark.parametrize("spec", [
    "boolean:3", "boolean:5", "boolean:6", "mo:2", "mo:3", "mo:5", "mo:12",
    "cabello18", PENTAGON, chain_pasting(400)],
    ids=lambda spec: spec if isinstance(spec, str) else f"{len(spec)} blocks")
def test_inclusion_tables_match_the_all_pairs_reference(spec):
    _assert_tables_match_all_pairs(_poset(spec))


@given(blocks=tree_pasting())
@settings(max_examples=40, deadline=None)
def test_inclusion_tables_match_the_all_pairs_reference_on_trees(blocks):
    _assert_tables_match_all_pairs(_poset(blocks))


def _neighbour_masks(poset):
    """The points of the contexts with a strict subcontext, and those of the
    contexts with a strict supercontext, from ``_below`` and ``_above``."""
    below = above = 0
    for c, off, down, up in zip(poset.contexts, poset._offsets, poset._below,
                                poset._above):
        points = (1 << len(c.atoms)) - 1 << off
        if down:
            below |= points
        if up:
            above |= points
    return below, above


def _points_by_context(poset):
    """Each point's context, from where each context's points start."""
    owner = [None] * poset.total_bits
    for i, (off, f) in enumerate(zip(poset._offsets, poset._full)):
        owner[off:off + f.bit_length()] = [i] * f.bit_length()
    return tuple(owner)


def _assert_closure_laws(poset, seed):
    """The closures' masks hold the points of the contexts with a neighbour
    below or above, their span table each point's context, and ``_every``
    every point.  Both closures are extensive, idempotent and monotone on
    seeded point sets of every density; the down-closure and the complement
    of the up-closure pass ``make_subobject``; and the down-closure of one
    point (V, a) is that point and its ``restrict`` images at every V' <= V."""
    assert (poset._has_below, poset._has_above) == _neighbour_masks(poset)
    assert poset._context_of == _points_by_context(poset)
    assert poset._every == (1 << poset.total_bits) - 1
    rng = random.Random(seed)
    width = poset.total_bits
    every = (1 << width) - 1
    for _ in range(12):
        x = rng.getrandbits(width)
        for _ in range(rng.randrange(4)):
            x &= rng.getrandbits(width)   # halves its density
        y = x | rng.getrandbits(width) & rng.getrandbits(width)
        for close in (poset._down_closure, poset._up_closure):
            cx = close(x)
            assert x & ~cx == 0 and close(cx) == cx and cx & ~close(y) == 0
        for bits in (poset._down_closure(x), every & ~poset._up_closure(x)):
            family = ClopenSubobject(poset, bits).to_mapping()
            assert make_subobject(poset, family).bits == bits
    for i in range(len(poset.contexts)):
        for q, point in enumerate(spectrum(poset, i)):
            want = 0
            for j in poset.down_indices(i):
                atom = restrict(poset, point, j).atom
                want |= 1 << poset._offsets[j] + poset.contexts[j].atoms.index(atom)
            assert poset._down_closure(1 << poset._offsets[i] + q) == want


@pytest.mark.parametrize("spec", [
    "boolean:2", "boolean:3", "boolean:4", "boolean:5", "mo:1", "mo:2",
    "mo:5", "cabello18", pytest.param(PENTAGON, id="pentagon"),
    pytest.param(FOUR_LOOP, id="four-loop"),
    pytest.param(TRIANGLE, id="triangle")])
def test_closure_laws(spec):
    _assert_closure_laws(_poset(spec), seed=3)


@given(blocks=tree_pasting(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_closure_laws_on_tree_pastings(blocks, seed):
    _assert_closure_laws(_poset(blocks), seed)


def test_covers_in_boolean3(boolean3_poset):
    poset = boolean3_poset
    top = poset.index("p|q|r")
    covers = _covers_up(poset)
    for i, c in enumerate(poset.contexts):
        expect = (top,) if i != top else ()
        assert covers[i] == expect


def test_inclusion_lists_and_covers(boolean4_poset, cabello18_poset):
    for poset in (boolean4_poset, cabello18_poset):
        els = [c.elements for c in poset.contexts]
        covers = _covers_up(poset)
        for i, ei in enumerate(els):
            above = [j for j, ej in enumerate(els) if ei < ej]
            assert poset._below[i] == tuple(
                j for j, ej in enumerate(els) if ej < ei)
            assert poset._above[i] == tuple(above)
            assert covers[i] == tuple(
                j for j in above if not any(ei < els[k] < els[j] for k in above))


def _covers_by_scan(poset):
    """The covers of each context: its strict supercontexts j with no other
    strict supercontext of it inside j, by testing every pair."""
    elements = poset._elements
    return tuple(
        tuple(j for j in up
              if not any(k != j and not elements[k] & ~elements[j] for k in up))
        for up in poset._above)


@pytest.mark.parametrize("spec", BUILTINS)
def test_covers_match_the_pair_scan(spec):
    poset = _poset(spec)
    assert _covers_up(poset) == _covers_by_scan(poset)


@given(blocks=tree_pasting())
@settings(max_examples=40, deadline=None)
def test_covers_match_the_pair_scan_on_trees(blocks):
    poset = _poset(blocks)
    assert _covers_up(poset) == _covers_by_scan(poset)


def _check_tables(poset):
    """The alpha tables against references that never read ``_down``: the
    block join of the chosen atoms, and an ``leq`` scan for the restrictions
    that the closures follow."""
    st = poset.structure
    restr = {}
    for i, ci in enumerate(poset.contexts):
        bi = next(b for b, blk in enumerate(st.blocks)
                  if ci.elements <= blk.elements)
        joins = st._block_joins[bi]
        supp = {e: m for m, e in joins.items()}
        for m in range(1 << len(ci.atoms)):
            bm = 0
            for p, a in enumerate(ci.atoms):
                if (m >> p) & 1:
                    bm |= supp[a]
            assert poset._mask_to_elem[i][m] == joins[bm]
        for j, cj in enumerate(poset.contexts):
            if not cj.elements <= ci.elements:
                continue
            restr[i, j] = []
            for a in ci.atoms:
                hits = [q for q, b in enumerate(cj.atoms) if st.leq(a, b)]
                assert len(hits) == 1
                restr[i, j] += hits
    _assert_restriction_maps(poset, restr)


@pytest.mark.parametrize("spec", ["boolean:4", "mo:3", "cabello18"])
def test_alpha_tables_against_block_joins_and_leq(spec):
    _check_tables(_poset(spec))


@given(blocks=tree_pasting())
@settings(max_examples=40, deadline=None)
def test_alpha_tables_on_tree_pastings(blocks):
    _check_tables(_poset(blocks))


def _assert_refused(poset, family, bad_id):
    """``family`` alone, and after the top context, is refused by the public
    constructor with a ``UsageError`` that names ``bad_id``."""
    top = poset.contexts[poset.maximal[0]]
    for given in (family, (top, *family)):
        with pytest.raises(UsageError) as info:
            ContextPoset(poset.structure, given)
        assert info.value.details == {"context": bad_id}


def test_corrupt_contexts_are_refused(boolean3_poset):
    """Families that are not contexts of the structure are refused, alone
    and beside the top context, and so is a real context given twice."""
    st = boolean3_poset.structure
    p, q = st.el("p"), st.el("q")
    # alpha is a bijection on {0, p, q, 1}, but p v q is not 1: no Boolean
    # subalgebra has p and q for its atoms
    fake = Context("p|q", (p, q), frozenset({st.zero, st.one, p, q}))
    # more elements than atom masks, then fewer; then as many, one per
    # mask, but p+r stands in for the atom p
    lone = Context("p", (p,), boolean3_poset.context("p|q+r").elements)
    short = Context("p|q", (p, q), frozenset({st.zero, st.one, p}))
    stand_in = Context("p|q", (p, q),
                       frozenset({st.zero, st.one, st.el("p+r"), q}))
    for bad in (fake, lone, short, stand_in):
        _assert_refused(boolean3_poset, (bad,), bad.id)
    # the walk's own context under a changed field is no context either
    real = boolean3_poset.context("p+q|r")
    _assert_refused(boolean3_poset, (Context(real.id, real.atoms[::-1],
                                             real.elements),), real.id)
    _assert_refused(boolean3_poset, (real, real), real.id)


def test_overlapping_preimages_are_refused(boolean3_poset):
    """The atoms p+q and q+r both lie above q, so they are not orthogonal
    and {0, p+q, q+r, 1} is no Boolean subalgebra.  It is refused alone and
    beside the top context, where their masks would cover the top's atoms
    without partitioning them."""
    st = boolean3_poset.structure
    pq, qr = st.el("p+q"), st.el("q+r")
    fake = Context("p+q|q+r", (pq, qr), frozenset({st.zero, st.one, pq, qr}))
    _assert_refused(boolean3_poset, (fake,), fake.id)


def test_the_public_constructor_walks_under_the_default_limits(
        boolean3_poset, monkeypatch):
    """``ContextPoset(structure, contexts)`` enumerates the structure's
    contexts under ``DEFAULT_LIMITS``, so past ``max_contexts`` it raises
    the ``SizeGuard`` that ``enumerate_contexts`` raises, however few
    contexts it is given."""
    top = boolean3_poset.context("p|q|r")
    monkeypatch.setattr(contexts_module, "DEFAULT_LIMITS",
                        Limits(max_contexts=2))
    with pytest.raises(SizeGuard) as info:
        ContextPoset(boolean3_poset.structure, (top,))
    assert info.value.details == {"limit": "max_contexts", "value": 2,
                                  "reached": 3}


class _SpreadReference(ContextPoset):
    """Every table built from the order rows, never from the partition
    walk: each element of a context keyed by its ``_down`` row ANDed with
    the context's atoms, the sorted keys running through the atom masks in
    order, with a check that the context is Boolean; the inclusions from
    the AND of the holder bitsets over the atoms of j, an element test per
    context so found, and a partition check that counts, per element, the
    atoms of j above it in base-2^w digits."""

    def __init__(self, structure, contexts):
        self.structure = structure
        self.contexts = contexts
        self._by_id = {c.id: i for i, c in enumerate(contexts)}
        n = len(contexts)
        self._full = tuple((1 << len(c.atoms)) - 1 for c in contexts)
        # Read in base 2^w, spread[e] has digit d = 1 iff d <= e, so the
        # digits of the sum of spread[b] over the atoms b of j count the
        # atoms of j above each element.  2^w exceeds any atom count, so no
        # digit carries.
        w = max([1] + [len(c.atoms) for c in contexts]).bit_length()
        down, up = structure._down, structure._up
        spread = [0] * structure.n
        for e, row in enumerate(down):
            while row:
                low = row & -row
                row ^= low
                spread[e] |= 1 << (low.bit_length() - 1) * w
        offsets, elements, elem_mask, mask_to_elem, least, shifts, ones = (
            [] for _ in range(7))
        holders = [0] * structure.n
        total = 0
        for i, c in enumerate(contexts):
            top = sum([1 << a for a in c.atoms])
            below = {down[e] & top: e for e in c.elements}
            inverse = tuple([below[key] for key in sorted(below)])
            mine = sum([1 << e for e in inverse])
            if not len(c.elements) == len(below) == 1 << len(c.atoms) or top & ~mine:
                raise AssertionError(f"context {c.id!r} is not Boolean (bug)")
            rest = mine & ~3
            shift = (rest & -rest).bit_length() - 1
            least.append({(up[e] & mine) >> shift: m for m, e in enumerate(inverse)})
            elem_mask.append({e: m for m, e in enumerate(inverse)})
            mask_to_elem.append(inverse)
            elements.append(mine)
            shifts.append(shift)
            ones.append(sum([1 << a * w for a in c.atoms]))
            offsets.append(total)
            total += len(c.atoms)
            for e in inverse:
                holders[e] |= 1 << i
        self._offsets, self.total_bits = tuple(offsets), total
        self._elements, self._shift = tuple(elements), tuple(shifts)
        self._elem_mask, self._mask_to_elem = tuple(elem_mask), tuple(mask_to_elem)
        self._least = tuple(least)

        below = [[] for _ in range(n)]
        above = [[] for _ in range(n)]
        for j, c in enumerate(contexts):
            counts = sum([spread[b] for b in c.atoms])
            m = (1 << n) - 1
            for a in c.atoms:
                m &= holders[a]
            while m:
                low = m & -m
                m ^= low
                i = low.bit_length() - 1
                if elements[j] & ~elements[i]:
                    continue
                if counts & ones[i] * ((1 << w) - 1) != ones[i]:
                    raise AssertionError("preimages do not partition the atoms (bug)")
                if i != j:
                    below[i].append(j)
                    above[j].append(i)
        self._below = tuple(map(tuple, below))
        self._above = tuple(map(tuple, above))
        self.minimal = tuple(i for i in range(n) if not below[i])
        self.maximal = tuple(i for i in range(n) if not above[i])
        self._has_below, self._has_above = _neighbour_masks(self)
        self._context_of = _points_by_context(self)
        self._every = (1 << total) - 1


_TABLES = ("contexts", "_by_id", "_full", "_offsets", "total_bits",
           "_elements", "_shift", "_elem_mask", "_mask_to_elem", "_least",
           "_below", "_above", "minimal", "maximal", "_has_below",
           "_has_above", "_context_of", "_every")


def _assert_tables_match_the_spread_reference(poset):
    reference = _SpreadReference(poset.structure, poset.contexts)
    for name in _TABLES:
        assert getattr(poset, name) == getattr(reference, name), name


@pytest.mark.parametrize("spec", [
    *BUILTINS, FOUR_LOOP, PENTAGON, TRIANGLE, chain_pasting(50),
    ("explicit", "boolean:4"), ("explicit", "mo:3"),
    ("explicit", [["a", "b", "c"], ["c", "d", "e", "f"]])],
    ids=lambda spec: spec if isinstance(spec, str) else
    f"explicit {spec[1]}" if spec[0] == "explicit" else f"{len(spec)} blocks")
def test_tables_match_the_spread_reference(spec):
    """The public constructor, which runs the partition walk itself."""
    structure = _structure(spec)
    _assert_tables_match_the_spread_reference(
        ContextPoset(structure, _contexts(structure, DEFAULT_LIMITS)))


@given(blocks=tree_pasting())
@settings(max_examples=40, deadline=None)
def test_tables_match_the_spread_reference_on_trees(blocks):
    structure = from_greechie(blocks)
    _assert_tables_match_the_spread_reference(
        ContextPoset(structure, _contexts(structure, DEFAULT_LIMITS)))


@pytest.mark.parametrize("spec", [
    "boolean:2", "boolean:3", "boolean:4", "boolean:5", "boolean:6", "mo:1",
    "mo:2", "mo:5", "mo:12", "cabello18", chain_pasting(100),
    # the block's atoms are out of label order, so its cells are too
    [["r", "q", "p"]]],
    ids=lambda spec: spec if isinstance(spec, str) else "/".join(spec[0])
    if len(spec) == 1 else f"{len(spec)}-block chain")
def test_walk_tables_match_the_checked_build(spec):
    """``enumerate_contexts``, which passes the tables of its one walk."""
    _assert_tables_match_the_spread_reference(enumerate_contexts(_structure(spec)))


@given(blocks=tree_pasting())
@settings(max_examples=40, deadline=None)
def test_walk_tables_match_the_checked_build_on_trees(blocks):
    _assert_tables_match_the_spread_reference(enumerate_contexts(from_greechie(blocks)))


def test_delta_to_smaller_context(boolean3_poset):
    st = boolean3_poset.structure
    out = delta(boolean3_poset, "p|q|r", "p+r|q", "p")
    assert st.label(out) == "p+r"


def test_delta_identity_and_bounds(boolean3_poset):
    st = boolean3_poset.structure
    for c in boolean3_poset.contexts:
        for e in c.elements:
            assert delta(boolean3_poset, c, c, e) == e
        assert delta(boolean3_poset, "p|q|r", c, st.zero) == st.zero
        assert delta(boolean3_poset, "p|q|r", c, st.one) == st.one


def test_delta_requires_subcontext_and_membership(boolean3_poset):
    with pytest.raises(UsageError):
        delta(boolean3_poset, "p+r|q", "p|q|r", "p+r")
    with pytest.raises(UsageError):
        delta(boolean3_poset, "p+q|r", "p+q|r", "p")


def test_delta_monotone_inflationary_join_preserving(boolean3_poset,
                                                     boolean4_poset):
    strict_meet_defect = 0
    for poset in (boolean3_poset, boolean4_poset):
        st = poset.structure
        for i, ci in enumerate(poset.contexts):
            for j in poset.down_indices(i):
                cj = poset.contexts[j]
                d = {e: delta(poset, ci, cj, e) for e in ci.elements}
                for p in ci.elements:
                    assert st.leq(p, d[p])
                    for q in ci.elements:
                        if st.leq(p, q):
                            assert st.leq(d[p], d[q])
                        join = _ctx_join(poset, i, p, q)
                        assert d[join] == _ctx_join(poset, j, d[p], d[q])
                        meet = _ctx_meet(poset, i, p, q)
                        lo, hi = d[meet], _ctx_meet(poset, j, d[p], d[q])
                        assert st.leq(lo, hi)
                        if lo != hi:
                            strict_meet_defect += 1
    # coarse-graining rounds up, so meets are only preserved up to <=
    assert strict_meet_defect > 0


def test_delta_composes_along_chains(boolean4_poset):
    poset = boolean4_poset
    for i in range(len(poset.contexts)):
        for j in poset.down_indices(i):
            for k in poset.down_indices(j):
                for e in poset.contexts[i].elements:
                    two_step = delta(poset, j, k, delta(poset, i, j, e))
                    assert delta(poset, i, k, e) == two_step


def test_minimal_below_boolean3(boolean3_poset):
    ids = sorted(c.id for c in minimal_below(boolean3_poset, "p|q|r"))
    assert ids == ["p+q|r", "p+r|q", "p|q+r"]
    assert [c.id for c in minimal_below(boolean3_poset, "p+r|q")] == ["p+r|q"]


def test_maximal_above_boolean3(boolean3_poset):
    assert [c.id for c in maximal_above(boolean3_poset, "p+r|q")] == ["p|q|r"]
    assert [c.id for c in maximal_above(boolean3_poset, "p|q|r")] == ["p|q|r"]


def test_minimal_and_maximal_on_mo2(mo2_poset):
    for c in mo2_poset.contexts:
        assert minimal_below(mo2_poset, c) == (c,)
        assert maximal_above(mo2_poset, c) == (c,)


def test_shared_atom_context_sits_under_both_blocks(cabello18_poset):
    st = cabello18_poset.structure
    ups = maximal_above(cabello18_poset, SHARED_ATOM_CTX)
    assert sorted(c.id for c in ups) == SHARED_ATOM_BLOCKS
    v = st.el("0001")
    block_atom_sets = {frozenset(b.atoms) for b in st.blocks if v in b.atoms}
    assert {frozenset(c.atoms) for c in ups} == block_atom_sets


def test_delta_global_in_a_lattice(boolean3_poset):
    st = boolean3_poset.structure
    assert delta_global(boolean3_poset, "p+r|q", "p") == st.el("p+r")
    assert delta_global(boolean3_poset, "p+r|q", "q") == st.el("q")
    assert delta_global(boolean3_poset, "p+q|r", "1") == st.one


def test_delta_global_can_fail_on_pastings(cabello18_poset):
    st = cabello18_poset.structure
    # "0100" is orthogonal to "0001" through the other block, so both
    # coatoms over it in this block are minimal dominators: no least one.
    with pytest.raises(NoLeastUpperWitness):
        delta_global(cabello18_poset, "0001|0010|1100|1m00", "0100")
    out = delta_global(cabello18_poset, SHARED_ATOM_CTX, "0010")
    assert st.label(out) == "0010+1100+1m00"


def _delta_global_matches_the_dominator_scan(poset):
    st = poset.structure
    misses = 0
    for j, c in enumerate(poset.contexts):
        for p in range(st.n):
            want = _least_dominating(st, c, p)
            if want is None:
                misses += 1
                with pytest.raises(NoLeastUpperWitness) as info:
                    delta_global(poset, j, p)
                assert info.value.details == {"element": st.label(p),
                                              "context": c.id}
            else:
                assert delta_global(poset, j, p) == want
    return misses


@pytest.mark.parametrize("spec, misses", [
    ("boolean:4", 0), ("mo:3", 0), ("cabello18", 36), (FOUR_LOOP, 0),
    (PENTAGON, 0), (TRIANGLE, 3)],
    ids=["boolean:4", "mo:3", "cabello18", "four-loop", "pentagon", "triangle"])
def test_delta_global_matches_the_dominator_scan(spec, misses):
    assert _delta_global_matches_the_dominator_scan(_poset(spec)) == misses


@given(blocks=tree_pasting())
@settings(max_examples=40, deadline=None)
def test_delta_global_matches_the_dominator_scan_on_trees(blocks):
    _delta_global_matches_the_dominator_scan(_poset(blocks))


def test_context_limit_guard(boolean3):
    with pytest.raises(SizeGuard) as info:
        enumerate_contexts(boolean3, limits=Limits(max_contexts=2))
    assert info.value.details == {"limit": "max_contexts", "value": 2,
                                  "reached": 3}


@pytest.mark.parametrize("spec", BUILTINS)
def test_partition_walk_gives_the_poset_contexts(spec):
    structure = builtin_structure(spec)
    assert _contexts(structure, DEFAULT_LIMITS) \
        == enumerate_contexts(structure).contexts


@given(blocks=tree_pasting())
@settings(max_examples=40, deadline=None)
def test_partition_walk_gives_the_poset_contexts_on_trees(blocks):
    structure = from_greechie(blocks)
    assert _contexts(structure, DEFAULT_LIMITS) \
        == enumerate_contexts(structure).contexts


@pytest.mark.parametrize("spec, cap", [
    ("boolean:3", 2), ("boolean:5", 20), ("mo:12", 11), ("cabello18", 30)])
def test_partition_walk_trips_the_guard_of_the_poset(spec, cap):
    structure = builtin_structure(spec)
    limits = Limits(max_contexts=cap)
    with pytest.raises(SizeGuard) as walk:
        _contexts(structure, limits)
    with pytest.raises(SizeGuard) as poset:
        enumerate_contexts(structure, limits=limits)
    assert (str(walk.value), walk.value.details) \
        == (str(poset.value), poset.value.details)
    assert walk.value.details["reached"] == cap + 1


def test_context_lookup_errors(boolean3_poset):
    with pytest.raises(UsageError):
        boolean3_poset.index("p|nope")
    with pytest.raises(UsageError):
        boolean3_poset.index(99)
    c = boolean3_poset.context("p+q|r")
    assert boolean3_poset.context(c) is c

"""Context enumeration, the inclusion order, and coarse-graining maps.

Counts are cross-checked against the set-partition formula: an n-atom Boolean
block has Bell(n) - 1 nontrivial subalgebras, and pasted structures share
exactly one four-element context per shared atom.
"""
import pytest

from biheyt import (Limits, NoLeastUpperWitness, SizeGuard, UsageError,
                    builtin_structure, delta, delta_global, enumerate_contexts,
                    generate, maximal_above, minimal_below)
from biheyt.oracle import _least_dominating

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


def test_inclusion_matches_element_subsets(boolean4_poset):
    poset = boolean4_poset
    for ci in poset.contexts:
        for cj in poset.contexts:
            assert poset.includes(ci, cj) == (cj.elements <= ci.elements)


def test_covers_in_boolean3(boolean3_poset):
    poset = boolean3_poset
    top = poset.index("p|q|r")
    for i, c in enumerate(poset.contexts):
        expect = (top,) if i != top else ()
        assert poset._covers_up[i] == expect


def test_inclusion_lists_and_covers(boolean4_poset, cabello18_poset):
    for poset in (boolean4_poset, cabello18_poset):
        n = len(poset.contexts)
        for i in range(n):
            below = tuple(j for j in poset.down_indices(i) if j != i)
            above = tuple(j for j in poset.up_indices(i) if j != i)
            assert poset._below[i] == below and poset._above[i] == above
            assert poset._covers_up[i] == tuple(
                j for j in above
                if not any(k in above and i != k != j and poset.includes(j, k)
                           for k in range(n)))


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


@pytest.mark.parametrize("spec", ["boolean:4", "mo:3", "cabello18"])
def test_delta_global_matches_the_dominator_scan(spec):
    poset = enumerate_contexts(builtin_structure(spec))
    st = poset.structure
    for j, c in enumerate(poset.contexts):
        for p in range(st.n):
            want = _least_dominating(st, c, p)
            if want is None:
                with pytest.raises(NoLeastUpperWitness):
                    delta_global(poset, j, p)
            else:
                assert delta_global(poset, j, p) == want


def test_context_limit_guard(boolean3):
    with pytest.raises(SizeGuard):
        enumerate_contexts(boolean3, limits=Limits(max_contexts=2))


def test_context_lookup_errors(boolean3_poset):
    with pytest.raises(UsageError):
        boolean3_poset.index("p|nope")
    with pytest.raises(UsageError):
        boolean3_poset.index(99)
    c = boolean3_poset.context("p+q|r")
    assert boolean3_poset.context(c) is c

"""Structure validation, builtins, and Greechie pasting."""
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import biheyt
from biheyt import (DegenerateStructure, InconsistentIdentification, Limits,
                    OrthomodularityViolated, SizeGuard, UnboundedPair,
                    UsageError, enumerate_contexts, from_greechie, generate,
                    validate)

# Benzene ring O6: two chains 0 < a < b < 1 and 0 < b' < a' < 1 with a/a',
# b/b' complementary.  It is an ortholattice but not orthomodular.
O6 = {
    "format": "oml-explicit",
    "elements": ["0", "a", "b", "b'", "a'", "1"],
    "leq": [["0", "a"], ["a", "b"], ["b", "1"], ["0", "b'"], ["b'", "a'"],
            ["a'", "1"]],
    "ortho": {"0": "1", "1": "0", "a": "a'", "a'": "a", "b": "b'", "b'": "b"},
}


def _dump_explicit(structure):
    """Re-export a structure in the explicit input format (full relation)."""
    labs = structure.labels
    pairs = [[a, b] for a in labs for b in labs if structure.leq(a, b)]
    ortho = {a: structure.label(structure.ortho_of(a)) for a in labs}
    return {"format": "oml-explicit", "elements": list(labs), "leq": pairs,
            "ortho": ortho}


def test_boolean2_is_smallest_lattice(boolean2):
    assert boolean2.n == 4
    assert boolean2.kind == "lattice"
    assert len(boolean2.blocks) == 1
    assert boolean2.labels == ("0", "1", "p", "q")


def test_o6_fails_orthomodularity():
    with pytest.raises(OrthomodularityViolated) as exc:
        validate(O6)
    assert str(exc.value) == "'a' <= 'b' but 'b' != 'a' v ('b' ^ ortho('a'))"
    lo, hi = exc.value.details["witness"]
    # independent check that the reported pair really violates the law:
    # walk the 6-element order by hand and evaluate a v (b ^ a')
    order = {(x, y) for x, y in
             itertools.product("0 a b b' a' 1".split(), repeat=2)
             if x == y or x == "0" or y == "1"
             or (x, y) in {("a", "b"), ("b'", "a'")}}
    comp = dict(zip("0 a b b' a' 1".split(), "1 a' b' b a 0".split()))
    els = "0 a b b' a' 1".split()

    def vee(x, y):
        ups = [z for z in els if (x, z) in order and (y, z) in order]
        least = [u for u in ups if all((u, v) in order for v in ups)]
        return least[0] if least else None

    def wedge(x, y):
        dns = [z for z in els if (z, x) in order and (z, y) in order]
        top = [u for u in dns if all((v, u) in order for v in dns)]
        return top[0] if top else None

    assert (lo, hi) in order
    assert vee(lo, wedge(hi, comp[lo])) != hi


def test_mo2_axioms_brute_force(mo2):
    els = range(mo2.n)
    for a in els:
        assert mo2.leq(a, a)
        assert mo2.ortho_of(mo2.ortho_of(a)) == a
        assert mo2.glb(a, mo2.ortho_of(a)) == mo2.zero
        assert mo2.lub(a, mo2.ortho_of(a)) == mo2.one
        for b in els:
            if mo2.leq(a, b) and mo2.leq(b, a):
                assert a == b
            if mo2.leq(a, b):
                assert mo2.leq(mo2.ortho_of(b), mo2.ortho_of(a))
                # orthomodular law
                assert mo2.lub(a, mo2.glb(b, mo2.ortho_of(a))) == b
            for c in els:
                if mo2.leq(a, b) and mo2.leq(b, c):
                    assert mo2.leq(a, c)


@pytest.mark.parametrize("ref", [True, 1.0, None, [], {}, ("a",)])
def test_element_references_are_labels_or_indices(mo2, ref):
    with pytest.raises(UsageError, match="neither a label nor an index"):
        mo2.el(ref)


def test_mo2_blocks_and_commutation(mo2):
    assert [sorted(mo2.label(a) for a in blk.atoms) for blk in mo2.blocks] \
        == [["a", "a'"], ["b", "b'"]]
    assert mo2.commutes("a", "a'")
    assert not mo2.commutes("a", "b")
    assert mo2.commutes("a", "0") and mo2.commutes("a", "1")


def test_boolean3_blocks_and_commutation(boolean3):
    assert len(boolean3.blocks) == 1
    assert sorted(boolean3.label(a) for a in boolean3.blocks[0].atoms) \
        == ["p", "q", "r"]
    for a in range(boolean3.n):
        for b in range(boolean3.n):
            assert boolean3.commutes(a, b)


def test_generate_mo3_counts():
    mo3 = generate("mo", 3)
    assert mo3.n == 8
    assert len(mo3.blocks) == 3
    assert mo3.kind == "lattice"


def test_generate_guards():
    with pytest.raises(SizeGuard) as info:
        generate("boolean", 9)
    assert info.value.details == {"limit": "max_contexts", "value": 10_000,
                                  "needed": 21_146}
    with pytest.raises(SizeGuard) as info:
        generate("mo", 27)
    assert info.value.details == {"limit": "mo_blocks", "value": 26,
                                  "blocks": 27}
    with pytest.raises(UsageError):
        generate("boolean", 0)
    with pytest.raises(DegenerateStructure) as info:
        generate("boolean", 1)
    assert info.value.message == "no element outside {0, 1}"
    with pytest.raises(UsageError):
        generate("cabello18", 3)
    with pytest.raises(UsageError):
        generate("nosuch", 2)


# Bell(k), the number of partitions of a k-set (OEIS A000110), k = 0..9
BELL = (1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147)


@pytest.mark.parametrize("k", range(2, 9))
def test_a_block_has_one_context_per_partition_into_two_or_more_cells(k):
    """The guard's count is exact: a k-atom block passes at max_contexts =
    Bell(k) - 1, has that many contexts, and is refused one below."""
    needed = BELL[k] - 1
    at_limit = Limits(max_contexts=needed)
    poset = enumerate_contexts(generate("boolean", k, limits=at_limit),
                               limits=at_limit)
    assert len(poset.contexts) == needed
    with pytest.raises(SizeGuard) as info:
        generate("boolean", k, limits=Limits(max_contexts=needed - 1))
    assert info.value.details == {"limit": "max_contexts",
                                  "value": needed - 1, "needed": needed}


def test_a_block_too_large_to_count_is_refused_by_its_atom_count():
    """Up to 256 atoms the guard reports the exact count; past that it
    reports the atoms, as 2^(k-1) - 1 contexts already pass the limit."""
    bell = [1]   # B(m+1) = sum over j of C(m, j) B(j)
    for m in range(256):
        bell.append(sum(math.comb(m, j) * b for j, b in enumerate(bell)))
    with pytest.raises(SizeGuard) as info:
        generate("boolean", 256)
    assert info.value.details == {"limit": "max_contexts", "value": 10_000,
                                  "needed": bell[256] - 1}
    for k in (257, 100_000):
        with pytest.raises(SizeGuard) as info:
            generate("boolean", k)
        assert info.value.details == {"limit": "max_contexts",
                                      "value": 10_000, "atoms": k}


@pytest.mark.parametrize("name, n", [("boolean", k) for k in range(2, 9)]
                         + [("mo", k) for k in (1, 2, 3, 12)])
def test_builtin_pastings_match_the_blocks_found_from_their_order(name, n):
    """Each builtin is built as a Greechie pasting; validating its explicit
    dump finds its blocks from the order alone, and both give the same
    structure down to the block join tables."""
    pasted = generate(name, n)
    found = _assert_explicit_dump_matches(pasted)
    for field in ("blocks", "_block_joins"):
        assert getattr(pasted, field) == getattr(found, field), field


def _assert_explicit_dump_matches(pasted):
    """Validate the explicit dump of a lattice pasting and compare.

    The explicit format finds each block's atoms in index order, a pasting
    keeps them in the order its block lists them, and a block's join table
    numbers its subsets by that order.  So a block given with its atoms out
    of sorted order gets another ``Block.atoms`` order and bit numbering on
    the two paths, and blocks sorted by their atom labels may even come in
    another order.  Compared are each block's element set and its join of
    every atom set.
    """
    found = validate(_dump_explicit(pasted))
    for field in ("labels", "_down", "_up", "ortho", "kind"):
        assert getattr(pasted, field) == getattr(found, field), field

    def tables(structure):
        return {block.elements: {frozenset(a for p, a in enumerate(block.atoms)
                                           if m >> p & 1): e
                                 for m, e in joins.items()}
                for block, joins in zip(structure.blocks,
                                        structure._block_joins)}

    assert tables(pasted) == tables(found)
    assert len(found.blocks) == len(pasted.blocks)
    return found


def test_greechie_single_block_is_boolean():
    st2 = from_greechie([["x", "y"]])
    assert st2.n == 4
    assert st2.kind == "lattice"


def test_greechie_two_blocks_promote_to_mo2():
    st2 = from_greechie([["a1", "a2"], ["b1", "b2"]])
    assert st2.n == 6
    assert st2.kind == "lattice"
    assert len(st2.blocks) == 2


def test_greechie_shared_atom_pasting():
    st2 = from_greechie([["p", "q", "r"], ["r", "s", "t"]])
    assert st2.kind == "lattice"
    assert len(st2.blocks) == 2
    # the coatom over the shared atom is one element of both blocks
    co = st2.label(st2.ortho_of("r"))
    assert co == "p+q"
    assert set(st2.blocks_of(co)) == {0, 1}
    assert st2.leq("s", st2.ortho_of("r"))


def test_greechie_four_loop_is_pasted():
    loop = [["a", "b", "c"], ["c", "d", "e"], ["e", "f", "g"],
            ["g", "h", "a"]]
    st2 = from_greechie(loop)
    assert st2.kind == "pasted"
    assert len(st2.blocks) == 4
    assert all(st2.leq(0, x) and st2.leq(x, 1) for x in range(st2.n))
    # ortho is a global involution even across shared atoms
    for x in range(st2.n):
        assert st2.ortho_of(st2.ortho_of(x)) == x


def test_explicit_pasted_input_rejected():
    loop = [["a", "b", "c"], ["c", "d", "e"], ["e", "f", "g"],
            ["g", "h", "a"]]
    raw = _dump_explicit(from_greechie(loop))
    with pytest.raises(UnboundedPair):
        validate(raw)


@pytest.mark.parametrize("blocks, witness", [
    ([["a", "b", "c"], ["c", "d", "e"], ["e", "f", "g"], ["g", "h", "a"]],
     ["a", "e"]),
    (list(biheyt.CABELLO18_BLOCKS), ["0001", "0010"]),
    # here the first unbounded pair in element order lacks a meet
    ([["e", "g", "d"], ["d", "a", "f"], ["f", "h", "c"], ["c", "b", "e"]],
     ["a+d", "b+c"]),
])
def test_unbounded_pair_witness_is_the_first_in_element_order(blocks,
                                                              witness):
    with pytest.raises(UnboundedPair) as info:
        validate(_dump_explicit(from_greechie(blocks)))
    assert info.value.details == {"witness": witness}
    assert str(info.value) == (
        f"{witness[0]!r} and {witness[1]!r} have no meet or join; structures "
        "with missing bounds are only accepted in block form")


def test_cabello18_shape(cabello18):
    assert cabello18.n == 92
    assert cabello18.kind == "pasted"
    assert len(cabello18.blocks) == 9
    atoms = cabello18.atoms()
    assert len(atoms) == 18
    for a in atoms:
        assert len(cabello18.blocks_of(a)) == 2
    for blk in cabello18.blocks:
        assert len(blk.atoms) == 4
        assert len(blk.elements) == 16


def test_greechie_recovers_input_blocks(cabello18):
    got = {frozenset(cabello18.label(a) for a in blk.atoms)
           for blk in cabello18.blocks}
    assert got == {frozenset(b) for b in biheyt.CABELLO18_BLOCKS}


def test_greechie_conflicting_ortho_rejected():
    with pytest.raises(InconsistentIdentification):
        from_greechie([["a", "b"], ["a", "b", "c"]])
    with pytest.raises(InconsistentIdentification):
        from_greechie([["a", "b"], ["a", "c"], ["b", "c"]])


def test_greechie_two_shared_atoms_rejected():
    # sharing two atoms makes the leftover atoms collide
    with pytest.raises(InconsistentIdentification):
        from_greechie([["a", "b", "c"], ["a", "b", "d"]])


@pytest.mark.parametrize("blocks, first", [
    ([["z", "y"], ["z", "x"], ["a", "b"], ["a", "c"]], ["x", "z"]),
    ([["b", "y"], ["b", "x"], ["a", "c"], ["a", "d"]], ["b", "x"]),
])
def test_first_collapsed_block_in_given_order_is_reported(blocks, first):
    """Each pair of two-atom blocks through one atom merges the other two
    atoms, so both pairs collapse; the report names the first given block,
    not the first in sorted order."""
    with pytest.raises(InconsistentIdentification) as info:
        from_greechie(blocks)
    assert info.value.message == f"block {first!r} collapsed into another block"
    assert info.value.details == {"block": first}


def test_greechie_input_shape_errors():
    with pytest.raises(UsageError):
        from_greechie([])
    with pytest.raises(UsageError):
        from_greechie([["a"]])
    with pytest.raises(UsageError):
        from_greechie([["a", "a"]])
    with pytest.raises(UsageError):
        from_greechie([["a", "0"]])
    with pytest.raises(UsageError):
        from_greechie([["a", "x|y"]])
    with pytest.raises(SizeGuard) as info:
        from_greechie([[f"x{i}" for i in range(13)]])
    assert info.value.details == {"limit": "max_contexts", "value": 10_000,
                                  "needed": 27_644_436}


def test_degenerate_structures_rejected():
    with pytest.raises(DegenerateStructure):
        validate({"format": "oml-explicit", "elements": ["0", "1"],
                  "leq": [["0", "1"]], "ortho": {"0": "1", "1": "0"}})


def test_explicit_requires_unique_bounds():
    raw = {"format": "oml-explicit", "elements": ["0", "a", "b", "1"],
           "leq": [["0", "a"], ["0", "b"], ["a", "1"], ["b", "1"]],
           "ortho": {"0": "1", "1": "0", "a": "b", "b": "a"}}
    st2 = validate(raw)
    assert st2.kind == "lattice"
    assert st2.n == 4


def test_validate_format_errors():
    with pytest.raises(UsageError):
        validate({"format": "csv"})
    with pytest.raises(UsageError):
        validate([1, 2])
    with pytest.raises(UsageError):
        validate({"format": "oml-explicit", "elements": "abc"})


def test_canonical_element_order(boolean3):
    assert boolean3.labels[0] == "0"
    assert boolean3.labels[1] == "1"
    assert list(boolean3.labels[2:]) == sorted(boolean3.labels[2:])


# Tree pastings (blocks of >= 3 atoms chained by single shared atoms, no
# loops) are orthomodular lattices; re-validating the explicit dump must
# agree on kind and blocks.  Two-atom blocks cannot be chained: the shared
# atom's complement would identify the leftover atom with a join of the
# other block, collapsing the block into it.
@st.composite
def tree_pasting(draw):
    n_blocks = draw(st.integers(min_value=1, max_value=3))
    if n_blocks == 1:
        return [[f"a{i}" for i in range(draw(st.integers(2, 4)))]]
    sizes = [draw(st.integers(min_value=3, max_value=4))
             for _ in range(n_blocks)]
    fresh = iter(f"a{i}" for i in range(20))
    blocks = [[next(fresh) for _ in range(sizes[0])]]
    for size in sizes[1:]:
        shared = draw(st.sampled_from(blocks[-1]))
        blocks.append([shared] + [next(fresh) for _ in range(size - 1)])
    return blocks


@given(tree_pasting())
@settings(max_examples=40, deadline=None)
def test_tree_pastings_validate_and_round_trip(blocks):
    st1 = from_greechie(blocks)
    assert st1.kind == "lattice"
    got = {frozenset(st1.label(a) for a in blk.atoms) for blk in st1.blocks}
    assert got == {frozenset(b) for b in blocks}
    _assert_block_tables_are_boolean(st1)
    _assert_explicit_dump_matches(st1)


# Five three-atom blocks in a loop: 15 contexts, 11 global sections.
PENTAGON = [["a", "b", "c"], ["c", "d", "e"], ["e", "f", "g"],
            ["g", "h", "i"], ["i", "j", "a"]]


def chain_pasting(blocks):
    """A chain pasting of three-atom blocks, each sharing one atom with the
    next; the labels sort along the chain."""
    return [[f"x{k:04d}", f"y{k:04d}", f"x{k + 1:04d}"] for k in range(blocks)]


def test_the_chain_pasting_matches_the_blocks_found_from_its_order():
    # each block lists its atoms x, y, x' out of sorted order
    _assert_explicit_dump_matches(from_greechie(chain_pasting(60)))


def _extremum(mask, rows):
    """Reference scan: the first element of ``mask`` whose row covers all of
    ``mask``.  With ``_up`` rows this is the least element of the mask, with
    ``_down`` rows the greatest."""
    for i in range(mask.bit_length()):
        if (mask >> i) & 1 and rows[i] & mask == mask:
            return i
    return None


def _bounds_match_the_scan(structure):
    down, up = structure._down, structure._up
    every_join = True
    for a in range(structure.n):
        for b in range(structure.n):
            join = _extremum(up[a] & up[b], up)
            assert structure.lub(a, b) == join, (a, b)
            assert structure.glb(a, b) == _extremum(down[a] & down[b], down)
            every_join = every_join and join is not None
    assert (structure.kind == "lattice") == every_join


@pytest.mark.parametrize("name, n", [
    ("boolean", 3), ("boolean", 4), ("mo", 2), ("mo", 3), ("mo", 12),
    ("cabello18", None),
])
def test_bounds_match_the_scan_on_builtins(name, n):
    _bounds_match_the_scan(generate(name, n))


def test_bounds_match_the_scan_on_pastings():
    pentagon = from_greechie(PENTAGON)
    assert pentagon.kind == "lattice"
    _bounds_match_the_scan(pentagon)
    cabello = generate("cabello18")
    assert cabello.kind == "pasted"
    assert cabello.lub("0001", "0010") is None
    assert cabello.glb("0001", "0010") == cabello.zero


@given(tree_pasting())
@settings(max_examples=20, deadline=None)
def test_bounds_match_the_scan_on_tree_pastings(blocks):
    _bounds_match_the_scan(from_greechie(blocks))


def test_a_block_that_is_not_boolean_after_identification_is_rejected():
    # "b" and "c+d" both complement "a", so they are identified, and "b",
    # with "c" below it, is no atom of the pasting
    with pytest.raises(InconsistentIdentification) as info:
        from_greechie([["a", "b"], ["a", "c", "d"]])
    assert info.value.message == ("block ['a', 'b'] does not restrict to a "
                                  "Boolean algebra after identification")
    assert info.value.details == {"block": ["a", "b"]}


def _assert_block_tables_are_boolean(structure):
    """Every block join table has 2^k distinct elements, is closed under
    ortho and climbs along every cover step m -> m | bit.  ``_build`` checks
    only the first of these; the others hold by how each table is made."""
    for block, joins in zip(structure.blocks, structure._block_joins):
        k = len(block.atoms)
        top = (1 << k) - 1
        assert sorted(joins) == list(range(1 << k))
        assert len(set(joins.values())) == 1 << k
        for m in range(1 << k):
            assert structure.ortho[joins[m]] == joins[top ^ m]
            for b in range(k):
                assert structure.leq(joins[m], joins[m | 1 << b])


@pytest.mark.parametrize("name, n", [("boolean", k) for k in range(2, 9)]
                         + [("mo", k) for k in range(1, 27)]
                         + [("cabello18", None)])
def test_builtin_block_tables_are_boolean(name, n):
    structure = generate(name, n)
    _assert_block_tables_are_boolean(structure)
    if structure.kind == "lattice":
        _assert_block_tables_are_boolean(validate(_dump_explicit(structure)))

"""Inputs and reference helpers that several test modules share.

Each is defined here once, so no test module imports another.
``test_pins.py`` keeps its own copies of the inputs it pins.
"""
import math

from hypothesis import strategies as st

from biheyt import ContextPoset, SizeGuard, enumerate_contexts, from_greechie

# Benzene ring O6: two chains 0 < a < b < 1 and 0 < b' < a' < 1 with a/a',
# b/b' complementary.  It is an ortholattice but not orthomodular.
O6 = {
    "format": "oml-explicit",
    "elements": ["0", "a", "b", "b'", "a'", "1"],
    "leq": [["0", "a"], ["a", "b"], ["b", "1"], ["0", "b'"], ["b'", "a'"],
            ["a'", "1"]],
    "ortho": {"0": "1", "1": "0", "a": "a'", "a'": "a", "b": "b'", "b'": "b"},
}

# the outer daseinisation of p in the 8-element Boolean algebra
DAS_P = {"p+q|r": "p+q", "p+r|q": "p+r", "p|q+r": "p", "p|q|r": "p"}

# Five three-atom blocks in a loop: 15 contexts, 11 global sections.
PENTAGON = [["a", "b", "c"], ["c", "d", "e"], ["e", "f", "g"],
            ["g", "h", "i"], ["i", "j", "a"]]

# Four three-atom blocks in a loop: a pasting with missing bounds.
FOUR_LOOP = [["a", "b", "c"], ["c", "d", "e"], ["e", "f", "g"], ["g", "h", "a"]]

# Three three-atom blocks in a loop: each atom shared by two blocks is
# orthogonal to both shared atoms of the third block, so it has no least
# dominator there, as "0100" has none in a block of cabello18.
TRIANGLE = [["a", "b", "c"], ["c", "d", "e"], ["e", "f", "a"]]

# Three three-atom blocks in a chain: 63,286 subobjects, and the tails are
# memoised from the fifth context on.
THREE_CHAIN = [["a", "b", "c"], ["c", "d", "e"], ["e", "f", "g"]]

# the builtins the context and pointwise tests sweep
BUILTINS = ["boolean:2", "boolean:3", "boolean:4", "boolean:5", "boolean:6",
            "boolean:7", "boolean:8", "mo:1", "mo:2", "mo:5", "mo:12", "mo:26",
            "cabello18"]


def chain_pasting(blocks):
    """A chain pasting of three-atom blocks, each sharing one atom with the
    next; the labels sort along the chain."""
    return [[f"x{k:04d}", f"y{k:04d}", f"x{k + 1:04d}"] for k in range(blocks)]


# Tree pastings (blocks of >= 3 atoms chained by single shared atoms, no
# loops) are orthomodular lattices.  Two-atom blocks cannot be chained: the
# shared atom's complement would identify the leftover atom with a join of
# the other block, collapsing the block into it.
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


@st.composite
def context_subposet(draw, max_product=1 << 15):
    """Some contexts of a random tree pasting, as a poset of their own.

    Taking a subset keeps the brute product, and with it the number of
    subobjects, within ``max_product``.  The contexts come in a
    random index order: on every builtin, id order puts each subcontext
    before its supercontexts, and then the enumeration's lower bound (from
    supercontexts assigned earlier) never acts.
    """
    structure = from_greechie(draw(tree_pasting()))
    contexts = enumerate_contexts(structure).contexts
    picked = draw(st.lists(st.sampled_from(contexts), min_size=1, max_size=6,
                           unique_by=lambda c: c.id))
    kept = []
    for c in picked:
        if math.prod(len(k.elements) for k in kept) * len(c.elements) <= max_product:
            kept.append(c)
    return ContextPoset(structure, tuple(draw(st.permutations(kept))))


def _dump_explicit(structure):
    """Re-export a structure in the explicit input format (full relation)."""
    labs = structure.labels
    pairs = [[a, b] for a in labs for b in labs if structure.leq(a, b)]
    ortho = {a: structure.label(structure.ortho_of(a)) for a in labs}
    return {"format": "oml-explicit", "elements": list(labs), "leq": pairs,
            "ortho": ortho}


def restriction_maps(poset, i, j):
    """The reference restriction along the inclusion j <= i, from the masks
    in i of the atoms of j alone: (image, pullback).  ``image(m)`` is the
    mask of the atoms of j that the atoms of i in mask m restrict to, and
    ``pullback(m)`` the mask of the atoms of i that restrict into mask m of
    j; atom p of i restricts to the atom of j whose mask in i holds p.  The
    tests hold the closures of ``ContextPoset`` to it, so it reads neither
    ``_least`` nor a closure."""
    back = [poset._elem_mask[i][b] for b in poset.contexts[j].atoms]
    return (lambda m: sum(1 << q for q, x in enumerate(back) if x & m),
            lambda m: sum(x for q, x in enumerate(back) if m >> q & 1))


def _reference_walk(poset, budget=math.inf):
    """The packed bits of every subobject in canonical order, by the plain
    carried-bound walk that adds the last context's choices a batch at a
    time: the enumeration before it memoised its tails.  Past ``budget`` it
    raises ``SizeGuard`` at the end of the first batch past the limit."""
    n = len(poset.contexts)
    full, offsets = poset._full, poset._offsets
    ones = (1 << poset.total_bits) - 1
    raise_lower, cut_upper = [], []
    for j in range(n):
        subs = [v for v in (j, *poset._below[j]) if v >= j]
        sups = [w for w in (j, *poset._above[j]) if w >= j]
        masks = range(full[j] + 1)
        images = [(restriction_maps(poset, j, v)[0], offsets[v]) for v in subs]
        pullbacks = [(restriction_maps(poset, w, j)[1], offsets[w], full[w])
                     for w in sups]
        raise_lower.append([sum(image(m) << off for image, off in images)
                            for m in masks])
        cut_upper.append([
            ones ^ sum((f & ~pullback(m)) << off for pullback, off, f in pullbacks)
            for m in masks])
    submasks = {f: [[s for s in range(f + 1) if s & ~free == 0]
                    for free in range(f + 1)] for f in set(full)}
    out = []

    def rec(i, lower, upper):
        off, f = offsets[i], full[i]
        lo, up = lower >> off & f, upper >> off & f
        assert not lo & ~up
        free = submasks[f][up & ~lo]
        if i == n - 1:
            reached = len(out) + len(free)
            if reached > budget:
                raise SizeGuard("over budget", limit="max_subobjects",
                                value=budget, reached=reached)
            out.extend(lower | s << off for s in free)
            return
        for s in free:
            m = lo | s
            rec(i + 1, lower | raise_lower[i][m], upper & cut_upper[i][m])

    if n:
        rec(0, 0, ones)
    elif budget < 1:
        raise SizeGuard("over budget", limit="max_subobjects", value=budget,
                        reached=1)
    else:
        out.append(0)
    return out

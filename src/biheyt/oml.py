"""Finite orthomodular structures.

An ``OrthoStructure`` is a finite bounded poset with an orthocomplement. Two
kinds are distinguished after validation:

* ``"lattice"``: every pair has a global meet and join and the orthomodular
  law holds (a <= b implies b = a v (b ^ ortho(a))).
* ``"pasted"``: some pair has no global bound; only blockwise operations are
  guaranteed.  Such structures arise from pasting Boolean blocks along shared
  atoms (Greechie-style).

Blocks are the maximal pairwise-commuting, operation-closed subsets; each is a
finite Boolean algebra determined by a maximal pairwise-orthogonal set of
atoms.  Orders are stored as integer bitmasks (``_down[i]`` has bit ``j`` set
iff ``j <= i``), which keeps every check here a handful of int ops.  The
common upper bounds of a and b are ``_up[a] & _up[b]``, and their join exists
iff that set is the principal up-set ``_up[c]`` of some c, which is then the
join.  So ``_by_up`` maps each ``_up`` row to its element and decides a join
with one AND and one lookup; ``_by_down`` does the same for meets.  The
lattice test, the orthomodular law and ``lub``/``glb`` all read these maps.

A pasting arrives at ``_build`` as rows, ortho and block join tables that
``from_greechie`` writes by index from atom masks; only the ``oml-explicit``
format is parsed from labels and permuted into canonical order (``_parse``).
Only ``_parse`` tests ortho for involution and order reversal, which a
pasting has by construction; ``_build`` runs the rest for both formats.

Structures are immutable once built and safe to share across threads.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import (
    DegenerateStructure,
    InconsistentIdentification,
    NotAPartialOrder,
    OrthocomplementViolated,
    OrthomodularityViolated,
    OrthoNotInvolutive,
    SizeGuard,
    UnboundedPair,
    UsageError,
)
from .limits import DEFAULT_LIMITS, Limits

LATTICE = "lattice"
PASTED = "pasted"

_BOOLEAN_LETTERS = "pqrstuvw"
_MO_LETTERS = "abcdefghijklmnopqrstuvwxyz"

# The 18-atom, 9-block configuration in dimension 4.  Atom labels are the
# underlying vectors over {0, 1, m} with m = -1; every atom lies in exactly
# two blocks and all 9 blocks are orthogonal quadruples.
CABELLO18_BLOCKS: tuple[tuple[str, ...], ...] = (
    ("0001", "0010", "1100", "1m00"),
    ("0001", "0100", "1010", "10m0"),
    ("1m1m", "1mm1", "1100", "0011"),
    ("1m1m", "1111", "10m0", "010m"),
    ("0010", "0100", "1001", "100m"),
    ("1mm1", "1111", "100m", "01m0"),
    ("11m1", "111m", "1m00", "0011"),
    ("11m1", "m111", "1010", "010m"),
    ("111m", "m111", "1001", "01m0"),
)


@dataclass(frozen=True)
class Block:
    """A maximal Boolean subalgebra: its atoms and full element set (indices)."""

    atoms: tuple[int, ...]
    elements: frozenset[int]


class OrthoStructure:
    """Validated finite orthocomplemented structure.

    Elements are referenced by index; ``labels[i]`` is the canonical name.
    Index 0 is the bottom, index 1 the top, the rest are sorted by label.
    """

    __slots__ = (
        "labels", "n", "zero", "one", "kind", "ortho", "blocks",
        "_index", "_down", "_up", "_by_down", "_by_up", "_atoms",
        "_block_joins", "_elem_blocks",
    )

    def __init__(self, **fields):
        for name in self.__slots__:
            object.__setattr__(self, name, fields[name])

    def __setattr__(self, name, value):
        raise AttributeError("OrthoStructure is immutable")

    def __repr__(self):
        return (f"OrthoStructure(kind={self.kind!r}, elements={self.n}, "
                f"blocks={len(self.blocks)})")

    # -- element references -------------------------------------------------

    def el(self, x: int | str) -> int:
        """Normalize a label or index to an index."""
        if isinstance(x, str):
            try:
                return self._index[x]
            except KeyError:
                raise UsageError(f"unknown element label {x!r}") from None
        if isinstance(x, bool) or not isinstance(x, int):
            raise UsageError(f"element {x!r} is neither a label nor an index")
        if not 0 <= x < self.n:
            raise UsageError(f"element index {x} out of range")
        return x

    def label(self, i: int) -> str:
        return self.labels[i]

    # -- order and operations ------------------------------------------------

    def leq(self, a: int | str, b: int | str) -> bool:
        a, b = self.el(a), self.el(b)
        return bool((self._down[b] >> a) & 1)

    def ortho_of(self, a: int | str) -> int:
        return self.ortho[self.el(a)]

    def glb(self, a: int | str, b: int | str) -> int | None:
        """Global meet, or None when it does not exist (pasted kind only)."""
        return self._by_down.get(self._down[self.el(a)] & self._down[self.el(b)])

    def lub(self, a: int | str, b: int | str) -> int | None:
        """Global join, or None when it does not exist (pasted kind only)."""
        return self._by_up.get(self._up[self.el(a)] & self._up[self.el(b)])

    def atoms(self) -> tuple[int, ...]:
        return self._atoms

    def commutes(self, a: int | str, b: int | str) -> bool:
        """True iff a and b generate a Boolean subalgebra.

        Lattice kind evaluates a == (a ^ b) v (a ^ ortho(b)); pasted kind
        answers blockwise (the elements must share a block).
        """
        a, b = self.el(a), self.el(b)
        if self.kind == LATTICE:
            return self.lub(self.glb(a, b), self.glb(a, self.ortho[b])) == a
        return bool(self._elem_blocks[a] & self._elem_blocks[b])

    def blocks_of(self, a: int | str) -> tuple[int, ...]:
        """Indices into ``blocks`` of the blocks containing the element."""
        m = self._elem_blocks[self.el(a)]
        return tuple(i for i in range(len(self.blocks)) if (m >> i) & 1)


# -- order helpers ------------------------------------------------------------


def _close_order(up: list[int]) -> None:
    """Reflexive-transitive closure of successor masks, in place."""
    changed = True
    while changed:
        changed = False
        for i in range(len(up)):
            acc = m = up[i]
            while m:
                low = m & -m
                m ^= low
                acc |= up[low.bit_length() - 1]
            if acc != up[i]:
                up[i] = acc
                changed = True


def _maximal_cliques(vertices: list[int], neighbors: dict[int, set[int]]) -> list[tuple[int, ...]]:
    """Bron-Kerbosch with pivoting; results sorted for determinism."""
    out: list[tuple[int, ...]] = []

    def expand(r: list[int], p: set[int], x: set[int]) -> None:
        if not p and not x:
            out.append(tuple(sorted(r)))
            return
        pivot = max(sorted(p | x), key=lambda v: len(neighbors[v] & p))
        for v in sorted(p - neighbors[pivot]):
            expand(r + [v], p & neighbors[v], x & neighbors[v])
            p.remove(v)
            x.add(v)

    expand([], set(vertices), set())
    return sorted(out)


# Past this many atoms Bell(k) has hundreds of digits and the triangle costs
# O(k^2) sums of them, so a block that 2^(k-1) - 1 already refuses reports k.
_BELL_EXACT_ATOMS = 256


def _bell(k: int) -> int:
    """The number of partitions of k things, read off the Bell triangle."""
    row = [1]
    for _ in range(k - 1):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[-1]


# -- validation pipeline -------------------------------------------------------


def _order(up: list[int], labels, fail, report=None) -> tuple[list[int], int, int]:
    """Close the ``_up`` rows in place; return the ``_down`` rows and bounds.

    A cycle raises ``fail`` with the first element i, in the order that
    ``report()`` lists them (the row order if None), both below and above
    some j != i, and the first such j in that order.  Then come the bounds.
    """
    _close_order(up)
    n = len(up)
    full = (1 << n) - 1
    down = [0] * n
    for i, m in enumerate(up):
        while m:
            low = m & -m
            m ^= low
            down[low.bit_length() - 1] |= 1 << i
    if any(u & d != 1 << i for i, (u, d) in enumerate(zip(up, down))):
        order = range(n) if report is None else report()
        i = next(i for i in order if up[i] & down[i] != 1 << i)
        j = next(j for j in order if j != i and (up[i] & down[i]) >> j & 1)
        raise fail(f"order cycle: {labels[i]!r} <= {labels[j]!r} <= {labels[i]!r}",
                   witness=[labels[i], labels[j]])
    ends = []
    for rows, other, end, bound in ((up, down, "bottom", "meet"),
                                    (down, up, "top", "join")):
        found = [i for i in range(n) if rows[i] == full]
        if len(found) != 1:
            w = [labels[i] for i in range(n) if other[i] == 1 << i][:2]
            raise UnboundedPair(f"no global {end}: {w[0]!r} and {w[1]!r} have no "
                                f"{bound}", witness=w)
        ends += found
    if n <= 2:
        raise DegenerateStructure("no element outside {0, 1}")
    return down, ends[0], ends[1]


def _parse(labels: list[str], order_pairs, ortho_map: dict[str, str]) -> OrthoStructure:
    """Rows from label-level data, in input order, then in canonical order.

    The order generators are closed into ``_up`` rows over the elements as
    listed, cycles and bounds are checked in that order, and only then are
    the rows permuted into canonical order for ``_build``.  Then ortho must
    be an involution and order-reversing; a pasting needs neither test, as
    its in-block complements stay one map and reverse every cover step.
    """
    n = len(labels)
    if n == 0:
        raise DegenerateStructure("structure has no elements")
    seen: dict[str, int] = {}
    for pos, lab in enumerate(labels):
        if not isinstance(lab, str) or not lab:
            raise UsageError("element labels must be nonempty strings")
        if "|" in lab:
            raise UsageError(f"element label {lab!r} contains reserved character '|'")
        if lab in seen:
            raise UsageError(f"duplicate element label {lab!r}")
        seen[lab] = pos

    up = [1 << i for i in range(n)]
    for pair in order_pairs:
        a, b = pair
        if a not in seen or b not in seen:
            raise UsageError(f"order pair {pair!r} references unknown label")
        up[seen[a]] |= 1 << seen[b]
    down, zero_old, one_old = _order(up, labels, NotAPartialOrder)

    # Canonical element order: bottom, top, rest sorted by label.
    rest = sorted((i for i in range(n) if i not in (zero_old, one_old)),
                  key=lambda i: labels[i])
    order = [zero_old, one_old] + rest
    newpos = {old: new for new, old in enumerate(order)}

    def remap_mask(m: int) -> int:
        out = 0
        while m:
            low = m & -m
            m ^= low
            out |= 1 << newpos[low.bit_length() - 1]
        return out

    new_labels = tuple(labels[i] for i in order)
    ortho = [None] * n
    for lab, lab2 in ortho_map.items():
        if lab not in seen or lab2 not in seen:
            raise UsageError(f"ortho entry {lab!r}: {lab2!r} references unknown label")
        ortho[newpos[seen[lab]]] = newpos[seen[lab2]]
    if any(o is None for o in ortho):
        missing = new_labels[ortho.index(None)]
        raise UsageError(f"ortho must map every element; missing {missing!r}")
    up = [remap_mask(up[i]) for i in order]
    for i in range(n):
        if ortho[ortho[i]] != i:
            raise OrthoNotInvolutive(
                f"ortho(ortho({new_labels[i]!r})) = "
                f"{new_labels[ortho[ortho[i]]]!r}", witness=new_labels[i])
    for i in range(n):
        m = up[i]
        while m:
            low = m & -m
            m ^= low
            j = low.bit_length() - 1
            if not (up[ortho[j]] >> ortho[i]) & 1:
                raise OrthocomplementViolated(
                    f"ortho is not order-reversing on {new_labels[i]!r} <= "
                    f"{new_labels[j]!r}", witness=[new_labels[i], new_labels[j]])
    return _build(new_labels, up, [remap_mask(down[i]) for i in order], ortho)


def _build(labels: tuple[str, ...], up: list[int], down: list[int], ortho, *,
           given_blocks: list[tuple[tuple[int, ...], list[int]]] | None = None,
           ) -> OrthoStructure:
    """Validate and assemble a structure from rows in canonical order.

    ``up`` and ``down`` are the closed, acyclic order rows with the bottom
    at index 0 and the top at 1, and ``ortho`` is an order-reversing
    involution (``_parse`` checks it; a pasting writes it so).
    ``given_blocks`` carries a pasting's blocks: per block, its atoms in
    order and the element of each atom-subset bitmask.  A plain orthoposet
    does not determine its blocks (orthogonality cliques cutting across
    blocks can close up to Boolean subposets of their own), so without it
    only lattices are accepted, and each maximal orthogonal set of atoms
    gets its join table by ``_by_up`` lookups.  Both formats then run the
    same checks, but only a pasting can fail those on its blocks.
    """
    n = len(labels)
    up, down, ortho = tuple(up), tuple(down), tuple(ortho)

    # a shared upper bound u != 1 of a and ortho(a) would make ortho(u) != 0
    # a shared lower bound, so only the lower bounds need a look
    for i in range(n):
        lows = down[i] & down[ortho[i]]
        if lows != 1:
            shared = (lows & ~1).bit_length() - 1
            raise OrthocomplementViolated(
                f"{labels[i]!r} and its orthocomplement share lower bound "
                f"{labels[shared]!r}", witness=[labels[i], labels[shared]])

    # the order has no cycle, so distinct elements have distinct rows
    by_down = {row: i for i, row in enumerate(down)}
    by_up = {row: i for i, row in enumerate(up)}

    # ortho is an order-reversing involution, so a ^ b = ortho(ortho a v
    # ortho b): every pair has a meet as soon as every pair has a join
    if all(row & other in by_up
           for i, row in enumerate(up) for other in up[i + 1:]):
        kind = LATTICE
        for i in range(n):
            m = up[i] & ~(1 << i)
            while m:
                low = m & -m
                m ^= low
                j = low.bit_length() - 1
                meet = by_down[down[j] & down[ortho[i]]]
                if by_up[up[i] & up[meet]] != j:
                    raise OrthomodularityViolated(
                        f"{labels[i]!r} <= {labels[j]!r} but "
                        f"{labels[j]!r} != {labels[i]!r} v "
                        f"({labels[j]!r} ^ ortho({labels[i]!r}))",
                        witness=[labels[i], labels[j]])
    elif given_blocks is None:
        # Without block provenance an incomplete order is unusable: the
        # orthoposet alone does not determine blocks.
        unbounded = next([labels[i], labels[j]] for i in range(n)
                         for j in range(i, n)
                         if down[i] & down[j] not in by_down
                         or up[i] & up[j] not in by_up)
        raise UnboundedPair(
            f"{unbounded[0]!r} and {unbounded[1]!r} have no meet or join; "
            "structures with missing bounds are only accepted in block form",
            witness=unbounded)
    else:
        kind = PASTED

    atoms = tuple(i for i in range(1, n) if down[i] == 1 | 1 << i)

    if given_blocks is None:
        # A finite orthomodular lattice's blocks are generated by its maximal
        # orthogonal sets of atoms (Kalmbach 1983, ch. 4); a join is a lookup.
        neigh = {a: {b for b in atoms if b != a and (down[ortho[b]] >> a) & 1}
                 for a in atoms}
        given_blocks = []
        for cand in _maximal_cliques(list(atoms), neigh):
            joins = [0]
            for a in cand:
                joins += [by_up[up[j] & up[a]] for j in joins]
            given_blocks.append((cand, joins))

    # Adopt each block whose join table restricts to a Boolean algebra: its
    # atoms are structure atoms and its 2^k joins distinct, which only a
    # pasting's identifications can break.  The rest holds by construction:
    # ortho[joins[m]] == joins[top ^ m] as a pasting writes ortho so, and in
    # a clique A as ortho(join S) = join(A - S) by orthomodularity; joins[m]
    # <= joins[m | bit] as a pasting writes its rows so, and a clique's
    # joins grow with the subset.  So were joins[m1] <= joins[m2] with a bit
    # of m1 outside m2, its atom a would lie below the join of all other
    # bits, ortho(a), and be 0.
    blocks: list[Block] = []
    for cand, joins in given_blocks:
        elements = frozenset(joins)
        if (len(elements) != 1 << len(cand)
                or any(down[a] != 1 | 1 << a for a in cand)):
            atom_labels = sorted(labels[a] for a in cand)
            raise InconsistentIdentification(
                f"block {atom_labels!r} does not restrict to a Boolean "
                "algebra after identification", block=atom_labels)
        blocks.append(Block(atoms=cand, elements=elements))

    sort_key = sorted(range(len(blocks)),
                      key=lambda bi: tuple(labels[a] for a in blocks[bi].atoms))
    blocks = [blocks[bi] for bi in sort_key]
    block_joins = [dict(enumerate(given_blocks[bi][1])) for bi in sort_key]

    elem_blocks = [0] * n
    for bi, b in enumerate(blocks):
        for e in b.elements:
            elem_blocks[e] |= 1 << bi

    # A block lies inside another iff the blocks holding all of its
    # elements are more than itself.  Report the first in given order.  On
    # a lattice neither check fires: maximal cliques do not nest, and x and
    # ortho(x) join orthogonal atom sets below them, parts of one clique.
    for _, bi in sorted(zip(sort_key, range(len(blocks)))):
        holders = -1
        for e in blocks[bi].elements:
            holders &= elem_blocks[e]
        if holders != 1 << bi:
            atom_labels = sorted(labels[a] for a in blocks[bi].atoms)
            raise InconsistentIdentification(
                f"block {atom_labels!r} collapsed into another block",
                block=atom_labels)
    if 0 in elem_blocks:
        missing = labels[elem_blocks.index(0)]
        raise InconsistentIdentification(f"element {missing!r} lies in no block",
                                         element=missing)

    return OrthoStructure(
        labels=labels, n=n, zero=0, one=1, kind=kind, ortho=ortho,
        blocks=tuple(blocks), _index={lab: i for i, lab in enumerate(labels)},
        _down=down, _up=up, _by_down=by_down, _by_up=by_up, _atoms=atoms,
        _block_joins=tuple(block_joins), _elem_blocks=tuple(elem_blocks))


# -- public constructors -------------------------------------------------------


def validate(raw: dict, *, limits: Limits = DEFAULT_LIMITS) -> OrthoStructure:
    """Build a structure from a parsed input description.

    Accepts the ``oml-explicit`` format (elements, order generators, ortho
    map) and the ``greechie`` format (blocks of atom labels).  Raises the
    specific validation error for whichever invariant fails first.
    """
    if not isinstance(raw, dict):
        raise UsageError("input description must be a JSON object")
    fmt = raw.get("format")
    if fmt == "greechie":
        return from_greechie(raw.get("blocks", []), limits=limits)
    if fmt != "oml-explicit":
        raise UsageError(f"unknown input format {fmt!r}")

    elements = raw.get("elements")
    if not isinstance(elements, list):
        raise UsageError("'elements' must be a list of labels")
    pairs = raw.get("leq", [])
    if not isinstance(pairs, list) or any(
            not isinstance(p, (list, tuple)) or len(p) != 2
            or not all(isinstance(x, str) for x in p) for p in pairs):
        raise UsageError("'leq' must be a list of [a, b] label pairs")
    ortho = raw.get("ortho")
    if not isinstance(ortho, dict) or not all(isinstance(x, str)
                                              for x in ortho.values()):
        raise UsageError("'ortho' must be an object mapping labels to labels")
    return _parse(list(elements), [tuple(p) for p in pairs], dict(ortho))


def from_greechie(blocks, *, limits: Limits = DEFAULT_LIMITS) -> OrthoStructure:
    """Paste Boolean blocks given as lists of atom labels.

    Shared labels are shared atoms.  Two blockwise joins are identified iff
    their atom-label sets are equal or their in-block complements are equal,
    closed transitively.  The result is validated; kind is promoted to
    ``lattice`` when every global bound exists and orthomodularity holds.
    """
    if not isinstance(blocks, (list, tuple)) or not blocks:
        raise UsageError("'blocks' must be a nonempty list of atom-label lists")
    norm: list[tuple[str, ...]] = []
    seen_sets: set[frozenset[str]] = set()
    for blk in blocks:
        if not isinstance(blk, (list, tuple)):
            raise UsageError("each block must be a list of atom labels")
        atoms = tuple(blk)
        for a in atoms:
            if not isinstance(a, str) or not a:
                raise UsageError("atom labels must be nonempty strings")
            if a in ("0", "1") or "|" in a or "+" in a:
                raise UsageError(f"atom label {a!r} is reserved")
        if len(set(atoms)) != len(atoms):
            raise UsageError(f"block {list(atoms)!r} repeats an atom")
        if len(atoms) < 2:
            raise UsageError(f"block {list(atoms)!r} needs at least two atoms")
        # the block alone has one context per partition of its atoms into two
        # or more cells, and Bell(k) >= 2^(k-1) also bounds its 2^k elements
        k = len(atoms)
        if k > _BELL_EXACT_ATOMS and (1 << k - 1) - 1 > limits.max_contexts:
            raise SizeGuard(f"block with {k} atoms has at least 2^{k - 1} - 1 "
                            f"contexts, over limit {limits.max_contexts}",
                            limit="max_contexts", value=limits.max_contexts,
                            atoms=k)
        needed = _bell(k) - 1
        if needed > limits.max_contexts:
            raise SizeGuard(f"block with {k} atoms has {needed} contexts, "
                            f"over limit {limits.max_contexts}",
                            limit="max_contexts", value=limits.max_contexts,
                            needed=needed)
        key = frozenset(atoms)
        if key not in seen_sets:
            seen_sets.add(key)
            norm.append(atoms)

    # Each atom label is one bit, in label order, so a node (block, subset)
    # is its atom mask and equal masks are one node already.  walks[bi][m] is
    # the atom mask of the subset m, bit p of m for the block's p-th atom.
    names = sorted({a for atoms in norm for a in atoms})
    bit = {a: 1 << i for i, a in enumerate(names)}
    walks = []
    for atoms in norm:
        walk = [0]
        for a in atoms:
            walk += [w | bit[a] for w in walk]
        walks.append(walk)

    # Union-find identifying two nodes whose in-block complements are equal.
    # Nodes so identified have identified complements, so ortho is one map,
    # and a label spells one support, so distinct classes get distinct labels.
    parent: dict[int, int] = {}
    complement_of: dict[int, int] = {}

    def find(s: int) -> int:
        while parent[s] != s:
            parent[s] = parent[parent[s]]
            s = parent[s]
        return s

    for walk in walks:
        for s in walk:
            parent.setdefault(s, s)
            t = complement_of.setdefault(walk[-1] ^ s, s)
            if t != s:
                parent[find(s)] = find(t)

    zero_cls, one_cls = find(0), find(walks[0][-1])
    if zero_cls == one_cls:
        raise InconsistentIdentification("identification forces 0 = 1")
    for atoms in norm:
        atom_cls = [find(bit[a]) for a in atoms]
        if len(set(atom_cls)) != len(atoms):
            raise InconsistentIdentification(
                f"identification merges two atoms of block {list(atoms)!r}")
        if zero_cls in atom_cls or one_cls in atom_cls:
            a = atoms[atom_cls.index(zero_cls if zero_cls in atom_cls else one_cls)]
            raise InconsistentIdentification(
                f"identification collapses atom {a!r} onto a bound")

    # Canonical label per class: "0"/"1" for the bounds, the smallest atom
    # label if the class holds a singleton, otherwise the smallest
    # "+"-joined support; then index 0, 1 and the rest sorted by label.
    members: dict[int, list[int]] = {}
    for s in parent:
        members.setdefault(find(s), []).append(s)
    def spell(s: int) -> str:
        out = []
        while s:
            out.append(names[(s & -s).bit_length() - 1])
            s &= s - 1
        return "+".join(out)

    label_of = {zero_cls: "0", one_cls: "1"}
    for cls, supports in members.items():
        if cls not in label_of:
            singles = [s for s in supports if not s & (s - 1)]
            label_of[cls] = spell(min(singles)) if singles else min(map(spell, supports))
    rest = sorted((c for c in label_of if c not in (zero_cls, one_cls)),
                  key=label_of.__getitem__)
    index = {c: i for i, c in enumerate([zero_cls, one_cls] + rest)}
    labels = ("0", "1") + tuple(label_of[c] for c in rest)
    elem = {s: index[find(s)] for s in parent}

    # Per block, the element of each subset, and ortho and the order rows
    # straight from those: the complement of mask m is top - m, and each
    # row holds the subset's supersets in the block, the rows of m and
    # m | bit merging along every cover step from the top down.
    tables = [[elem[s] for s in walk] for walk in walks]
    ortho = [0] * len(labels)
    up = [0] * len(labels)
    for joins in tables:
        for e, comp in zip(joins, reversed(joins)):
            ortho[e] = comp
        rows = [1 << e for e in joins]
        for p in range(len(joins).bit_length() - 1):
            rows = [row if m >> p & 1 else row | rows[m | 1 << p]
                    for m, row in enumerate(rows)]
        for e, row in zip(joins, rows):
            up[e] |= row

    def report():
        # each element where its first subset comes, block by block and
        # subsets by size, then in combinations order
        seen: dict[int, None] = {}
        for joins in tables:
            k = len(joins).bit_length() - 1
            for r in range(k + 1):
                for comb in itertools.combinations(range(k), r):
                    seen.setdefault(joins[sum(1 << p for p in comb)])
        return list(seen)

    down, _, _ = _order(up, labels, InconsistentIdentification, report)
    given = [(tuple(joins[1 << p] for p in range(len(joins).bit_length() - 1)),
              joins) for joins in tables]
    return _build(labels, up, down, ortho, given_blocks=given)


def generate(name: str, n: int | None = None, *,
             limits: Limits = DEFAULT_LIMITS) -> OrthoStructure:
    """Builtin structures, each a Greechie pasting: ``boolean`` (one block of
    n atoms), ``mo`` (n two-atom blocks sharing only 0 and 1), and
    ``cabello18``."""
    if name == "cabello18":
        if n is not None:
            raise UsageError("cabello18 takes no size parameter")
        return from_greechie(list(CABELLO18_BLOCKS), limits=limits)
    if name == "boolean":
        if n is None or n < 1:
            raise UsageError("boolean requires n >= 1")
        if n == 1:   # from_greechie would call a one-atom block a usage error
            raise DegenerateStructure("no element outside {0, 1}")
        letters = [_BOOLEAN_LETTERS[i] if i < len(_BOOLEAN_LETTERS) else f"p{i}"
                   for i in range(n)]
        return from_greechie([letters], limits=limits)
    if name == "mo":
        if n is None or n < 1:
            raise UsageError("mo requires n >= 1")
        if n > len(_MO_LETTERS):
            raise SizeGuard(f"mo({n}) exceeds {len(_MO_LETTERS)} blocks",
                            limit="mo_blocks", value=len(_MO_LETTERS),
                            blocks=n)
        return from_greechie([[x, x + "'"] for x in _MO_LETTERS[:n]],
                             limits=limits)
    raise UsageError(f"unknown builtin {name!r}")

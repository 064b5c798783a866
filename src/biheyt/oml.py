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
iff ``j <= i``), which keeps every check here a handful of int ops.  Global
meets and joins, and the least dominator of an element in a context, are all
one ``_extremum`` call: the first element of a candidate mask whose row
covers the whole mask.

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
        "_index", "_down", "_up", "_glb", "_lub", "_atoms", "_atom_set",
        "_block_joins", "_block_supp", "_elem_blocks",
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
        return self._glb[self.el(a)][self.el(b)]

    def lub(self, a: int | str, b: int | str) -> int | None:
        """Global join, or None when it does not exist (pasted kind only)."""
        return self._lub[self.el(a)][self.el(b)]

    def atoms(self) -> tuple[int, ...]:
        return self._atoms

    def is_atom(self, a: int | str) -> bool:
        return self.el(a) in self._atom_set

    def commutes(self, a: int | str, b: int | str) -> bool:
        """True iff a and b generate a Boolean subalgebra.

        Lattice kind evaluates a == (a ^ b) v (a ^ ortho(b)); pasted kind
        answers blockwise (the elements must share a block).
        """
        a, b = self.el(a), self.el(b)
        if self.kind == LATTICE:
            m1 = self._glb[a][b]
            m2 = self._glb[a][self.ortho[b]]
            return self._lub[m1][m2] == a
        return bool(self._elem_blocks[a] & self._elem_blocks[b])

    def blocks_of(self, a: int | str) -> tuple[int, ...]:
        """Indices into ``blocks`` of the blocks containing the element."""
        m = self._elem_blocks[self.el(a)]
        return tuple(i for i in range(len(self.blocks)) if (m >> i) & 1)


# -- order helpers ------------------------------------------------------------


def _close_order(n: int, up: list[int]) -> None:
    """Reflexive-transitive closure of successor masks, in place."""
    changed = True
    while changed:
        changed = False
        for i in range(n):
            acc = m = up[i]
            while m:
                low = m & -m
                m ^= low
                acc |= up[low.bit_length() - 1]
            if acc != up[i]:
                up[i] = acc
                changed = True


def _extremum(mask: int, rows: tuple[int, ...] | list[int]) -> int | None:
    """First element of ``mask`` whose row covers all of ``mask``, if any.

    With ``_down`` rows this is the greatest element of a downward-closed
    mask, with ``_up`` rows the least element of any mask.
    """
    m = mask
    while m:
        low = m & -m
        i = low.bit_length() - 1
        if rows[i] & mask == mask:
            return i
        m ^= low
    return None


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


# -- validation pipeline -------------------------------------------------------


def _build(labels: list[str], order_pairs, ortho_map: dict[str, str], *,
           origin: str = "explicit",
           given_blocks: list[tuple[tuple[str, ...], dict[int, str]]] | None = None,
           limits: Limits = DEFAULT_LIMITS) -> OrthoStructure:
    """Validate and assemble a structure from label-level data.

    ``given_blocks`` carries block provenance from a pasting: per block, the
    atom labels in order and the map from atom-subset bitmask to the label of
    the blockwise join.  Pastings need it because a plain orthoposet does not
    determine its blocks (orthogonality cliques cutting across blocks can
    close up to Boolean subposets of their own); without it, only structures
    whose bounds all exist are accepted and blocks are discovered.
    """

    def order_fail(message, **details):
        # Greechie pastings reach here only when identification broke the order.
        if origin == "greechie":
            return InconsistentIdentification(message, **details)
        return NotAPartialOrder(message, **details)

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
    _close_order(n, up)

    for i in range(n):
        m = up[i]
        while m:
            low = m & -m
            m ^= low
            j = low.bit_length() - 1
            if j != i and (up[j] >> i) & 1:
                raise order_fail(
                    f"order cycle: {labels[i]!r} <= {labels[j]!r} <= {labels[i]!r}",
                    witness=[labels[i], labels[j]])

    full = (1 << n) - 1
    down = [0] * n
    for i in range(n):
        m = up[i]
        while m:
            low = m & -m
            m ^= low
            down[low.bit_length() - 1] |= 1 << i

    bottoms = [i for i in range(n) if up[i] == full]
    tops = [i for i in range(n) if down[i] == full]
    if len(bottoms) != 1:
        minimal = sorted(i for i in range(n) if down[i] == 1 << i)
        w = [labels[minimal[0]], labels[minimal[1]]]
        raise UnboundedPair(f"no global bottom: {w[0]!r} and {w[1]!r} have no meet", witness=w)
    if len(tops) != 1:
        maximal = sorted(i for i in range(n) if up[i] == 1 << i)
        w = [labels[maximal[0]], labels[maximal[1]]]
        raise UnboundedPair(f"no global top: {w[0]!r} and {w[1]!r} have no join", witness=w)
    zero_old, one_old = bottoms[0], tops[0]
    if n <= 2:
        raise DegenerateStructure("no element outside {0, 1}")

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
    new_up = tuple(remap_mask(up[i]) for i in order)
    new_down = tuple(remap_mask(down[i]) for i in order)
    up_t, down_t = new_up, new_down
    zero, one = 0, 1

    ortho = [None] * n
    for lab, lab2 in ortho_map.items():
        if lab not in seen or lab2 not in seen:
            raise UsageError(f"ortho entry {lab!r}: {lab2!r} references unknown label")
        ortho[newpos[seen[lab]]] = newpos[seen[lab2]]
    if any(o is None for o in ortho):
        missing = new_labels[ortho.index(None)]
        raise UsageError(f"ortho must map every element; missing {missing!r}")
    ortho = tuple(ortho)

    for i in range(n):
        if ortho[ortho[i]] != i:
            raise OrthoNotInvolutive(
                f"ortho(ortho({new_labels[i]!r})) = {new_labels[ortho[ortho[i]]]!r}",
                witness=new_labels[i])
    for i in range(n):
        m = up_t[i]
        while m:
            low = m & -m
            m ^= low
            j = low.bit_length() - 1
            if not (up_t[ortho[j]] >> ortho[i]) & 1:
                raise OrthocomplementViolated(
                    f"ortho is not order-reversing on {new_labels[i]!r} <= {new_labels[j]!r}",
                    witness=[new_labels[i], new_labels[j]])
    for i in range(n):
        lows = down_t[i] & down_t[ortho[i]]
        if lows != 1 << zero:
            shared = (lows & ~(1 << zero)).bit_length() - 1
            raise OrthocomplementViolated(
                f"{new_labels[i]!r} and its orthocomplement share lower bound "
                f"{new_labels[shared]!r}", witness=[new_labels[i], new_labels[shared]])
        highs = up_t[i] & up_t[ortho[i]]
        if highs != 1 << one:
            shared = (highs & ~(1 << one)).bit_length() - 1
            raise OrthocomplementViolated(
                f"{new_labels[i]!r} and its orthocomplement share upper bound "
                f"{new_labels[shared]!r}", witness=[new_labels[i], new_labels[shared]])

    glb = [[None] * n for _ in range(n)]
    lub = [[None] * n for _ in range(n)]
    unbounded: list[str] | None = None
    for i in range(n):
        for j in range(i, n):
            g = _extremum(down_t[i] & down_t[j], down_t)
            l = _extremum(up_t[i] & up_t[j], up_t)
            glb[i][j] = glb[j][i] = g
            lub[i][j] = lub[j][i] = l
            if unbounded is None and (g is None or l is None):
                unbounded = [new_labels[i], new_labels[j]]

    if unbounded is None:
        kind = LATTICE
        for i in range(n):
            m = up_t[i] & ~(1 << i)
            while m:
                low = m & -m
                m ^= low
                j = low.bit_length() - 1
                if lub[i][glb[j][ortho[i]]] != j:
                    raise OrthomodularityViolated(
                        f"{new_labels[i]!r} <= {new_labels[j]!r} but "
                        f"{new_labels[j]!r} != {new_labels[i]!r} v "
                        f"({new_labels[j]!r} ^ ortho({new_labels[i]!r}))",
                        witness=[new_labels[i], new_labels[j]])
    else:
        kind = PASTED

    atoms = tuple(i for i in range(n)
                  if i != zero and down_t[i] == (1 << zero) | (1 << i))
    atom_set = frozenset(atoms)

    blocks: list[Block] = []
    block_joins: list[dict[int, int]] = []
    block_supp: list[dict[int, int]] = []
    if given_blocks is not None:
        # Adopt the pasting's own blocks, verifying each join table restricts
        # to a Boolean algebra: atoms are structure atoms, 2^k distinct
        # elements, ortho-closed, and order mirroring subset inclusion.
        ix = {lab: i for i, lab in enumerate(new_labels)}
        for atom_labels, table in given_blocks:
            cand = tuple(ix[a] for a in atom_labels)
            k = len(cand)
            top_mask = (1 << k) - 1
            joins = {mask: ix[table[mask]] for mask in range(1 << k)}
            ok = all(a in atom_set for a in cand)
            if ok and len(set(joins.values())) != 1 << k:
                ok = False
            if ok:
                for m1 in range(1 << k):
                    if ortho[joins[m1]] != joins[top_mask ^ m1]:
                        ok = False
                        break
                    for m2 in range(1 << k):
                        if ((down_t[joins[m2]] >> joins[m1]) & 1) != (m1 & ~m2 == 0):
                            ok = False
                            break
                    if not ok:
                        break
            if not ok:
                raise InconsistentIdentification(
                    f"block {sorted(atom_labels)!r} does not restrict to a "
                    "Boolean algebra after identification",
                    block=sorted(atom_labels))
            blocks.append(Block(atoms=cand, elements=frozenset(joins.values())))
            block_joins.append(joins)
            block_supp.append({e: m for m, e in joins.items()})
        for i, bi in enumerate(blocks):
            for j, bj in enumerate(blocks):
                if i != j and bi.elements <= bj.elements:
                    raise InconsistentIdentification(
                        f"block {sorted(new_labels[a] for a in bi.atoms)!r} "
                        "collapsed into another block",
                        block=sorted(new_labels[a] for a in bi.atoms))
    elif unbounded is not None:
        # Without block provenance an incomplete order is unusable: the
        # orthoposet alone does not determine blocks.
        raise UnboundedPair(
            f"{unbounded[0]!r} and {unbounded[1]!r} have no meet or join; "
            "structures with missing bounds are only accepted in block form",
            witness=unbounded)
    else:
        # Lattice: blocks are closures of maximal pairwise-orthogonal atom
        # sets.  The join of an atom subset S is the unique element lying
        # above exactly S whose orthocomplement lies above exactly the rest
        # (unique by orthomodularity), so every candidate must verify.
        neigh = {a: {b for b in atoms if b != a and (down_t[ortho[b]] >> a) & 1}
                 for a in atoms}
        for cand in _maximal_cliques(list(atoms), neigh):
            k = len(cand)
            supp = [0] * n
            for pos, a in enumerate(cand):
                for e in range(n):
                    if (down_t[e] >> a) & 1:
                        supp[e] |= 1 << pos
            top_mask = (1 << k) - 1
            by_pair: dict[tuple[int, int], list[int]] = {}
            for e in range(n):
                by_pair.setdefault((supp[e], supp[ortho[e]]), []).append(e)
            joins = {}
            for mask in range(1 << k):
                hits = by_pair.get((mask, top_mask ^ mask), ())
                if len(hits) != 1:
                    raise AssertionError(
                        "maximal orthogonal atom set failed Boolean closure "
                        "in a validated orthomodular lattice (implementation "
                        "bug)")
                joins[mask] = hits[0]
            blocks.append(Block(atoms=cand, elements=frozenset(joins.values())))
            block_joins.append(joins)
            block_supp.append({e: m for m, e in joins.items()})

    covered = set()
    for b in blocks:
        covered |= b.elements
    if len(covered) != n:
        missing = sorted(set(range(n)) - covered)
        if given_blocks is None:
            raise AssertionError("element outside every block in a validated "
                                 "orthomodular lattice (implementation bug)")
        raise InconsistentIdentification(
            f"element {new_labels[missing[0]]!r} lies in no block",
            element=new_labels[missing[0]])

    sort_key = sorted(range(len(blocks)),
                      key=lambda bi: tuple(new_labels[a] for a in blocks[bi].atoms))
    blocks = [blocks[bi] for bi in sort_key]
    block_joins = [block_joins[bi] for bi in sort_key]
    block_supp = [block_supp[bi] for bi in sort_key]

    elem_blocks = [0] * n
    for bi, b in enumerate(blocks):
        for e in b.elements:
            elem_blocks[e] |= 1 << bi

    return OrthoStructure(
        labels=new_labels, n=n, zero=zero, one=one, kind=kind, ortho=ortho,
        blocks=tuple(blocks), _index={lab: i for i, lab in enumerate(new_labels)},
        _down=down_t, _up=up_t,
        _glb=tuple(tuple(row) for row in glb), _lub=tuple(tuple(row) for row in lub),
        _atoms=atoms, _atom_set=atom_set,
        _block_joins=tuple(block_joins), _block_supp=tuple(block_supp),
        _elem_blocks=tuple(elem_blocks))


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
            not isinstance(p, (list, tuple)) or len(p) != 2 for p in pairs):
        raise UsageError("'leq' must be a list of [a, b] label pairs")
    ortho = raw.get("ortho")
    if not isinstance(ortho, dict):
        raise UsageError("'ortho' must be an object mapping labels to labels")
    return _build(list(elements), [tuple(p) for p in pairs], dict(ortho), limits=limits)


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
        if len(atoms) > limits.max_block_atoms:
            raise SizeGuard(f"block with {len(atoms)} atoms exceeds limit "
                            f"{limits.max_block_atoms}")
        key = frozenset(atoms)
        if key not in seen_sets:
            seen_sets.add(key)
            norm.append(atoms)

    # Union-find over (block, subset) nodes under the identification rule.
    nodes: list[tuple[int, frozenset[str]]] = []
    node_ix: dict[tuple[int, frozenset[str]], int] = {}
    for bi, atoms in enumerate(norm):
        for r in range(len(atoms) + 1):
            for comb in itertools.combinations(atoms, r):
                node = (bi, frozenset(comb))
                node_ix[node] = len(nodes)
                nodes.append(node)

    parent = list(range(len(nodes)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    by_support: dict[frozenset[str], int] = {}
    by_complement: dict[frozenset[str], int] = {}
    for ix, (bi, sub) in enumerate(nodes):
        if sub in by_support:
            union(ix, by_support[sub])
        else:
            by_support[sub] = ix
        comp = frozenset(norm[bi]) - sub
        if comp in by_complement:
            union(ix, by_complement[comp])
        else:
            by_complement[comp] = ix

    cls_of = [find(i) for i in range(len(nodes))]
    zero_cls = cls_of[node_ix[(0, frozenset())]]
    one_cls = cls_of[node_ix[(0, frozenset(norm[0]))]]
    if zero_cls == one_cls:
        raise InconsistentIdentification("identification forces 0 = 1")
    for bi, atoms in enumerate(norm):
        atom_cls = [cls_of[node_ix[(bi, frozenset((a,)))]] for a in atoms]
        if len(set(atom_cls)) != len(atoms):
            raise InconsistentIdentification(
                f"identification merges two atoms of block {list(atoms)!r}")
        if zero_cls in atom_cls or one_cls in atom_cls:
            a = atoms[atom_cls.index(zero_cls if zero_cls in atom_cls else one_cls)]
            raise InconsistentIdentification(
                f"identification collapses atom {a!r} onto a bound")

    # Canonical label per class: "0"/"1" for the bounds, an atom label if the
    # class contains a singleton, otherwise the smallest "+"-joined support.
    members: dict[int, list[tuple[int, frozenset[str]]]] = {}
    for ix, node in enumerate(nodes):
        members.setdefault(cls_of[ix], []).append(node)
    label_of: dict[int, str] = {zero_cls: "0", one_cls: "1"}
    for cls, reps in members.items():
        if cls in label_of:
            continue
        singles = sorted(next(iter(sub)) for _, sub in reps if len(sub) == 1)
        if singles:
            label_of[cls] = singles[0]
        else:
            label_of[cls] = min("+".join(sorted(sub)) for _, sub in reps)
    labels = [label_of[c] for c in sorted(label_of)]
    if len(set(labels)) != len(labels):
        raise InconsistentIdentification("identification produced colliding labels")

    order_pairs: set[tuple[str, str]] = set()
    ortho_map: dict[str, str] = {}
    given_blocks: list[tuple[tuple[str, ...], dict[int, str]]] = []
    for bi, atoms in enumerate(norm):
        aset = frozenset(atoms)
        table: dict[int, str] = {}
        for r in range(len(atoms) + 1):
            for comb in itertools.combinations(atoms, r):
                sub = frozenset(comb)
                me = label_of[cls_of[node_ix[(bi, sub)]]]
                comp = label_of[cls_of[node_ix[(bi, aset - sub)]]]
                prev = ortho_map.setdefault(me, comp)
                if prev != comp:
                    raise InconsistentIdentification(
                        f"element {me!r} gets two orthocomplements {prev!r}, {comp!r}")
                mask = 0
                for pos, a in enumerate(atoms):
                    if a in sub:
                        mask |= 1 << pos
                table[mask] = me
                for a in aset - sub:
                    bigger = label_of[cls_of[node_ix[(bi, sub | {a})]]]
                    order_pairs.add((me, bigger))
        # identification may have renamed atoms (merged classes keep the
        # smallest label), so report the block by its final atom labels
        final_atoms = tuple(label_of[cls_of[node_ix[(bi, frozenset((a,)))]]]
                            for a in atoms)
        given_blocks.append((final_atoms, table))

    return _build(labels, sorted(order_pairs), ortho_map, origin="greechie",
                  given_blocks=given_blocks, limits=limits)


def generate(name: str, n: int | None = None, *,
             limits: Limits = DEFAULT_LIMITS) -> OrthoStructure:
    """Builtin structures: ``boolean`` (2^n), ``mo`` (n blocks of one
    complementary pair each), and ``cabello18``."""
    if name == "cabello18":
        if n is not None:
            raise UsageError("cabello18 takes no size parameter")
        return from_greechie(list(CABELLO18_BLOCKS), limits=limits)
    if name == "boolean":
        if n is None or n < 1:
            raise UsageError("boolean requires n >= 1")
        if n > limits.max_boolean_atoms:
            raise SizeGuard(f"boolean({n}) exceeds the configured bound "
                            f"{limits.max_boolean_atoms}")
        letters = [_BOOLEAN_LETTERS[i] if i < len(_BOOLEAN_LETTERS) else f"p{i}"
                   for i in range(n)]

        def lab(sub: frozenset[int]) -> str:
            if not sub:
                return "0"
            if len(sub) == n:
                return "1"
            return "+".join(letters[i] for i in sorted(sub))

        subsets = [frozenset(c) for r in range(n + 1)
                   for c in itertools.combinations(range(n), r)]
        labels = [lab(s) for s in subsets]
        pairs = [(lab(s), lab(s | {i})) for s in subsets for i in range(n) if i not in s]
        ortho = {lab(s): lab(frozenset(range(n)) - s) for s in subsets}
        return _build(labels, pairs, ortho, origin="builtin", limits=limits)
    if name == "mo":
        if n is None or n < 1:
            raise UsageError("mo requires n >= 1")
        if n > len(_MO_LETTERS):
            raise SizeGuard(f"mo({n}) exceeds {len(_MO_LETTERS)} blocks")
        labels = ["0", "1"]
        pairs = []
        ortho = {"0": "1", "1": "0"}
        for i in range(n):
            a, b = _MO_LETTERS[i], _MO_LETTERS[i] + "'"
            labels += [a, b]
            pairs += [("0", a), ("0", b), (a, "1"), (b, "1")]
            ortho[a], ortho[b] = b, a
        return _build(labels, pairs, ortho, origin="builtin", limits=limits)
    raise UsageError(f"unknown builtin {name!r}")

"""Brute-force cross-checks for the algebra operations.

These recompute implication, subtraction, and both negations directly from
their defining extremal properties over every clopen subobject, read from the
enumeration column-wise (``_Columns``): one int op per spectrum point decides
a fact for all N subobjects.  They read nothing but the subobjects' bits, so
they stay independent of the closed-form production code and the two can
certify each other.  ``check_adjunctions`` verifies both adjunctions over
every triple, comparing every operation with its brute-force twin in the
same pass, and scans R only at a pair whose operations mismatch; replacement
operation hooks let a corrupted operation be caught with a counterexample.
``restriction_image_projection`` checks the table-driven coarse-graining
against ``_least_dominating``, a scan of the subcontext for the least
dominating element; the tests hold ``delta_global`` to the same scan.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from . import biheyting
from .contexts import Context, ContextPoset, delta
from .errors import PosetMismatch, SizeGuard
from .limits import DEFAULT_LIMITS, Limits
from .oml import OrthoStructure
from .presheaf import ClopenSubobject, _same_poset, _subobject_batches, enumerate_subobjects


def brute_heyting_implies(s: ClopenSubobject, t: ClopenSubobject, *,
                          limits: Limits = DEFAULT_LIMITS) -> ClopenSubobject:
    """Join of every R with R ^ S <= T."""
    _same_poset(s, t)
    cols = _Columns(enumerate_subobjects(s.poset, limits=limits))
    return ClopenSubobject(s.poset, cols.implies(s.bits & ~t.bits))


def brute_coheyting_subtract(s: ClopenSubobject, t: ClopenSubobject, *,
                             limits: Limits = DEFAULT_LIMITS) -> ClopenSubobject:
    """Meet of every R with S <= T v R."""
    _same_poset(s, t)
    cols = _Columns(enumerate_subobjects(s.poset, limits=limits))
    return ClopenSubobject(s.poset, cols.subtract(s.bits & ~t.bits))


def brute_negations(s: ClopenSubobject, *,
                    limits: Limits = DEFAULT_LIMITS) -> tuple[ClopenSubobject, ClopenSubobject]:
    """(largest R with R ^ S empty, smallest R with R v S everything)."""
    return _brute_negations(s, _Columns(enumerate_subobjects(s.poset,
                                                             limits=limits)))


# subobjects transposed at a time, so their rows stay a few MB
_CHUNK = 1 << 16


class _Columns:
    """An enumeration read column-wise: bit k of ``has[b]`` is set iff
    subobject k contains point b, and ``lacks[b]`` is its complement.  An
    N-bit int is then a *selection* of subobjects.  The scans need the whole
    enumeration of the operands' poset, and cannot check that they got it.
    """

    def __init__(self, subs: tuple[ClopenSubobject, ...]):
        width = subs[0].poset.total_bits
        size = (width + 7) // 8
        stride = 8 * size
        self.every = (1 << len(subs)) - 1
        self.has = [0] * width
        for start in range(0, len(subs), _CHUNK):
            chunk = subs[start:start + _CHUNK]
            # the chunk's rows, last subobject first, each `stride` binary
            # digits long: every stride-th digit spells a column
            blob = b"".join([r.bits.to_bytes(size, "big")
                             for r in reversed(chunk)])
            rows = format(int.from_bytes(blob, "big"),
                          f"0{len(chunk) * stride}b")
            for b in range(width):
                self.has[b] |= int(rows[stride - 1 - b::stride], 2) << start
        self.lacks = [self.every ^ col for col in self.has]

    def implies(self, gap: int) -> int:
        """The brute S => T: the join, the points some R holds, of every R
        avoiding the gap S ^ ~T."""
        return self._any(self.has, self.avoiding(gap))

    def subtract(self, gap: int) -> int:
        """The brute S - T: the meet, the points every R holds, of every R
        containing the gap S ^ ~T."""
        return self._any(self.lacks, self.containing(gap)) ^ ((1 << len(self.has)) - 1)

    def avoiding(self, x: int) -> int:
        """The selection of every R with R & x == 0."""
        return self._all(self.lacks, x)

    def containing(self, x: int) -> int:
        """The selection of every R that contains x."""
        return 0 if x >> len(self.has) else self._all(self.has, x)

    def _all(self, cols: list[int], x: int) -> int:
        """The selection in every column named by a point of x."""
        sel = self.every
        for col in cols:
            if x & 1:
                sel &= col
            x >>= 1
        return sel

    @staticmethod
    def _any(cols: list[int], sel: int) -> int:
        """The points whose column meets the selection."""
        bits = 0
        for b, col in enumerate(cols):
            if sel & col:
                bits |= 1 << b
        return bits


def _brute_negations(s: ClopenSubobject, cols: _Columns,
                     ) -> tuple[ClopenSubobject, ClopenSubobject]:
    poset = s.poset
    full = (1 << poset.total_bits) - 1
    neg = cols.implies(s.bits)
    coneg = cols.subtract(full ^ s.bits)
    if neg & s.bits or (coneg | s.bits) != full:
        raise AssertionError("extremal scan produced a non-witness (bug)")
    return ClopenSubobject(poset, neg), ClopenSubobject(poset, coneg)


@dataclass(frozen=True)
class AdjunctionReport:
    subobject_count: int
    triples_checked: int
    counterexample: dict[str, Any] | None
    # the brute-force comparison of every operation: ``check laws --oracle``
    oracle: dict[str, Any] | None = None

    @property
    def passed(self) -> bool:
        return self.counterexample is None

    def to_json(self) -> dict[str, Any]:
        return {"subobjects": self.subobject_count,
                "triples": self.triples_checked,
                "passed": self.passed,
                "counterexample": self.counterexample}


def check_adjunctions(poset: ContextPoset, *,
                      heyting_impl: Callable[[ClopenSubobject, ClopenSubobject], ClopenSubobject] | None = None,
                      coheyting_sub: Callable[[ClopenSubobject, ClopenSubobject], ClopenSubobject] | None = None,
                      limits: Limits = DEFAULT_LIMITS) -> AdjunctionReport:
    """Exhaustively verify both adjunctions over all subobject triples, and
    compare every operation with its brute-force twin.

    ``R ^ S <= T iff R <= (S => T)`` and ``(S <= T v R iff (S - T) <= R``.
    The operation hooks default to the production implementations; passing a
    deliberately wrong one must yield a counterexample (first in canonical
    order), which is how the oracle itself is tested.  ``triples_checked``
    counts triples up to the counterexample; a result that keeps its law at
    every R but not its brute twin is no subobject, reported with ``"R":
    None`` after the pair's last R.  The R with R ^ S <= T hold 0
    and are closed under joins, so they are the R below their join, the
    brute S => T; dually the R with S <= T v R are the R above the brute
    S - T.  So ``oracle`` compares both hooks, and both negations, in the
    same pass, and R is scanned, all at once, only at a pair where an
    operation mismatches.  The brute results depend on S & ~T alone and are
    kept per gap.  The subobjects are counted before any is built, so
    ``SizeGuard`` at ``max_subobjects``, or when the N**3 triples exceed
    ``search_budget``, comes first.
    """
    impl = heyting_impl or biheyting.heyting_implies
    sub = coheyting_sub or biheyting.coheyting_subtract
    n = sum(len(batch) for _, batch in _subobject_batches(poset, limits))
    if n ** 3 > limits.search_budget:
        raise SizeGuard(f"law check needs {n ** 3} subobject triples, over "
                        f"search budget {limits.search_budget}",
                        limit="search_budget", value=limits.search_budget,
                        needed=n ** 3)
    subs = enumerate_subobjects(poset, limits=limits)
    cols = _Columns(subs)
    mismatches, first = 0, None
    for s in subs:
        for op, got, want in zip(("not", "conot"), (biheyting.heyting_not(s),
                                                    biheyting.coheyting_not(s)),
                                 _brute_negations(s, cols)):
            if got != want:
                mismatches += 1
                first = first or {"op": op, "subobject": s.to_mapping()}
    # With G = S & ~T, {R : R & G == 0} holds 0 and is closed under joins,
    # so it is {R <= brute S => T}; dually {R : G <= R} is {R >= brute S - T}.
    by_gap: dict[int, tuple[int, int]] = {}
    triples, found = n ** 3, None
    outside = [~t.bits for t in subs]
    for si, s in enumerate(subs):
        s_bits = s.bits
        for ti, t in enumerate(subs):
            gap = s_bits & outside[ti]
            brute_i, brute_d = by_gap.get(gap) or by_gap.setdefault(
                gap, (cols.implies(gap), cols.subtract(gap)))
            i_bits, d_bits = impl(s, t).bits, sub(s, t).bits
            if i_bits == brute_i and d_bits == brute_d:
                continue
            for op, got, want in (("implies", i_bits, brute_i),
                                  ("subtract", d_bits, brute_d)):
                if got != want:
                    mismatches += 1
                    first = first or {"op": op, "subobject": s.to_mapping(),
                                      "other": t.to_mapping()}
            meet_below, below_impl = cols.avoiding(gap), cols.avoiding(~i_bits)
            inside_join, sub_below = cols.containing(gap), cols.containing(d_bits)
            heyting = below_impl ^ meet_below
            bad = heyting | (sub_below ^ inside_join)
            if bad and found is None:
                k = (bad & -bad).bit_length() - 1
                where = {"S": s.to_mapping(), "T": t.to_mapping(),
                         "R": subs[k].to_mapping()}
                if heyting >> k & 1:
                    found = {"law": "heyting", **where,
                             "meet_below": bool(meet_below >> k & 1),
                             "below_implication": bool(below_impl >> k & 1)}
                else:
                    found = {"law": "coheyting", **where,
                             "inside_join": bool(inside_join >> k & 1),
                             "subtraction_below": bool(sub_below >> k & 1)}
                triples = (si * n + ti) * n + k + 1
            elif found is None:   # both laws hold, so a result is no subobject
                law = "heyting" if i_bits not in {r.bits for r in subs} else "coheyting"
                found = {"law": law, "S": s.to_mapping(), "T": t.to_mapping(),
                         "R": None, "result_is_subobject": False}
                triples = (si * n + ti + 1) * n
    return AdjunctionReport(n, triples, found, {
        "first_mismatch": first, "mismatches": mismatches,
        "negation_checks": 2 * n, "pair_checks": 2 * n * n,
        "passed": mismatches == 0})


def _least_dominating(structure: OrthoStructure, target: Context, p: int) -> int | None:
    """Least element of the context dominating p, by scanning its elements."""
    cands = [q for q in sorted(target.elements) if structure.leq(p, q)]
    for c in cands:
        if all(structure.leq(c, q) for q in cands):
            return c
    return None


def restriction_image_projection(poset: ContextPoset, s: ClopenSubobject,
                                 big, small) -> int:
    """Project the component at V into V' two independent ways and compare.

    The table-driven coarse-graining ``delta`` (one lookup of the set of
    elements of V' above the component, which is also where the restriction
    maps send the component's atoms) must equal the least element of V'
    dominating the component, found by scanning V'; disagreement means an
    implementation bug, so it raises AssertionError rather than a validation
    error.  A subobject of another poset raises ``PosetMismatch``.
    """
    if s.poset is not poset:
        raise PosetMismatch("subobject belongs to a different context poset")
    i, j = poset.index(big), poset.index(small)
    p = s.element_at(i)
    via_table = delta(poset, i, j, p)
    via_scan = _least_dominating(poset.structure, poset.contexts[j], p)
    if via_table != via_scan:
        raise AssertionError(
            f"restriction image {poset.structure.label(via_table)!r} is not the "
            f"least dominator in {poset.contexts[j].id!r} (bug)")
    return via_table

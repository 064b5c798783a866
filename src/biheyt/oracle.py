"""Brute-force cross-checks for the algebra operations.

These recompute implication, subtraction, and both negations directly from
their defining extremal properties by scanning every clopen subobject.  They
are deliberately independent of the closed-form production code so the two
can certify each other; ``check_adjunctions`` verifies both adjunctions over
every triple and accepts replacement operation hooks so a corrupted operation
is caught with a concrete counterexample, and ``oracle_comparison`` compares
every production operation with its brute-force twin.
``restriction_image_projection`` checks the table-driven coarse-graining
against ``_least_dominating``, a scan of the subcontext for the least
dominating element; the tests hold ``delta_global`` to the same scan.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from . import biheyting
from .contexts import Context, ContextPoset, delta
from .errors import SizeGuard
from .limits import DEFAULT_LIMITS, Limits
from .oml import OrthoStructure
from .presheaf import ClopenSubobject, _same_poset, enumerate_subobjects


def brute_heyting_implies(s: ClopenSubobject, t: ClopenSubobject, *,
                          limits: Limits = DEFAULT_LIMITS) -> ClopenSubobject:
    """Join of every R with R ^ S <= T."""
    _same_poset(s, t)
    return _brute_implies(s, t, enumerate_subobjects(s.poset, limits=limits))


def brute_coheyting_subtract(s: ClopenSubobject, t: ClopenSubobject, *,
                             limits: Limits = DEFAULT_LIMITS) -> ClopenSubobject:
    """Meet of every R with S <= T v R."""
    _same_poset(s, t)
    return _brute_subtract(s, t, enumerate_subobjects(s.poset, limits=limits))


def brute_negations(s: ClopenSubobject, *,
                    limits: Limits = DEFAULT_LIMITS) -> tuple[ClopenSubobject, ClopenSubobject]:
    """(largest R with R ^ S empty, smallest R with R v S everything)."""
    return _brute_negations(s, enumerate_subobjects(s.poset, limits=limits))


# The scans behind the three operations above.  ``subs`` must be the whole
# enumeration of the operands' poset, which they cannot check;
# ``oracle_comparison`` passes them the one enumeration it made.

def _brute_implies(s: ClopenSubobject, t: ClopenSubobject,
                   subs: tuple[ClopenSubobject, ...]) -> ClopenSubobject:
    bits = 0
    for r in subs:
        if r.bits & s.bits & ~t.bits == 0:
            bits |= r.bits
    return ClopenSubobject(s.poset, bits)


def _brute_subtract(s: ClopenSubobject, t: ClopenSubobject,
                    subs: tuple[ClopenSubobject, ...]) -> ClopenSubobject:
    bits = (1 << s.poset.total_bits) - 1
    for r in subs:
        if s.bits & ~(t.bits | r.bits) == 0:
            bits &= r.bits
    return ClopenSubobject(s.poset, bits)


def _brute_negations(s: ClopenSubobject, subs: tuple[ClopenSubobject, ...],
                     ) -> tuple[ClopenSubobject, ClopenSubobject]:
    poset = s.poset
    neg = 0
    coneg = (1 << poset.total_bits) - 1
    full = coneg
    for r in subs:
        if r.bits & s.bits == 0:
            neg |= r.bits
        if r.bits | s.bits == full:
            coneg &= r.bits
    if neg & s.bits or (coneg | s.bits) != full:
        raise AssertionError("extremal scan produced a non-witness (bug)")
    return ClopenSubobject(poset, neg), ClopenSubobject(poset, coneg)


@dataclass(frozen=True)
class AdjunctionReport:
    subobject_count: int
    triples_checked: int
    counterexample: dict[str, Any] | None

    @property
    def passed(self) -> bool:
        return self.counterexample is None

    def to_json(self) -> dict[str, Any]:
        return {"subobjects": self.subobject_count,
                "triples": self.triples_checked,
                "passed": self.passed,
                "counterexample": self.counterexample}


def _law_check_subobjects(poset: ContextPoset,
                          limits: Limits) -> tuple[ClopenSubobject, ...]:
    """All subobjects, if a check over every triple of them is within
    ``search_budget``; otherwise ``SizeGuard``."""
    subs = enumerate_subobjects(poset, limits=limits)
    needed = len(subs) ** 3
    if needed > limits.search_budget:
        raise SizeGuard(f"law check needs {needed} subobject triples, over "
                        f"search budget {limits.search_budget}",
                        limit="search_budget", value=limits.search_budget,
                        needed=needed)
    return subs


def check_adjunctions(poset: ContextPoset, *,
                      heyting_impl: Callable[[ClopenSubobject, ClopenSubobject], ClopenSubobject] | None = None,
                      coheyting_sub: Callable[[ClopenSubobject, ClopenSubobject], ClopenSubobject] | None = None,
                      limits: Limits = DEFAULT_LIMITS) -> AdjunctionReport:
    """Exhaustively verify both adjunctions over all subobject triples.

    ``R ^ S <= T iff R <= (S => T)`` and ``(S <= T v R iff (S - T) <= R``.
    The operation hooks default to the production implementations; passing a
    deliberately wrong one must yield a counterexample (first in canonical
    order), which is how the oracle itself is tested.  Raises ``SizeGuard``
    before checking anything when the triples exceed ``search_budget``.
    """
    impl = heyting_impl or biheyting.heyting_implies
    sub = coheyting_sub or biheyting.coheyting_subtract
    subs = _law_check_subobjects(poset, limits)
    triples = 0
    for s in subs:
        for t in subs:
            i_bits = impl(s, t).bits
            d_bits = sub(s, t).bits
            for r in subs:
                triples += 1
                below_impl = r.bits & ~i_bits == 0
                meet_below = r.bits & s.bits & ~t.bits == 0
                if below_impl != meet_below:
                    return AdjunctionReport(len(subs), triples, {
                        "law": "heyting",
                        "S": s.to_mapping(), "T": t.to_mapping(), "R": r.to_mapping(),
                        "meet_below": meet_below, "below_implication": below_impl})
                sub_below = d_bits & ~r.bits == 0
                inside_join = s.bits & ~(t.bits | r.bits) == 0
                if sub_below != inside_join:
                    return AdjunctionReport(len(subs), triples, {
                        "law": "coheyting",
                        "S": s.to_mapping(), "T": t.to_mapping(), "R": r.to_mapping(),
                        "inside_join": inside_join, "subtraction_below": sub_below})
    return AdjunctionReport(len(subs), triples, None)


def oracle_comparison(poset: ContextPoset, limits: Limits) -> dict:
    """Compare every production operation against its brute-force twin.

    The brute binary operations scan every subobject for every pair, so this
    is cubic too and has the same ``search_budget`` guard.  The poset is
    enumerated once, and every brute scan runs over that one enumeration.
    """
    subs = _law_check_subobjects(poset, limits)
    mismatches = 0
    first = None
    for s in subs:
        neg, coneg = _brute_negations(s, subs)
        for name, got, want in (("not", biheyting.heyting_not(s), neg),
                                ("conot", biheyting.coheyting_not(s), coneg)):
            if got != want:
                mismatches += 1
                if first is None:
                    first = {"op": name, "subobject": s.to_mapping()}
    pair_checks = 0
    for s in subs:
        for t in subs:
            pair_checks += 2
            for name, got, want in (
                    ("implies", biheyting.heyting_implies(s, t),
                     _brute_implies(s, t, subs)),
                    ("subtract", biheyting.coheyting_subtract(s, t),
                     _brute_subtract(s, t, subs))):
                if got != want:
                    mismatches += 1
                    if first is None:
                        first = {"op": name, "subobject": s.to_mapping(),
                                 "other": t.to_mapping()}
    return {"first_mismatch": first, "mismatches": mismatches,
            "negation_checks": 2 * len(subs), "pair_checks": pair_checks,
            "passed": mismatches == 0}


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

    The table-driven coarse-graining (the restriction image of the
    component's atoms) must equal the least element of V' dominating the
    component, found by scanning V'; disagreement means an implementation
    bug, so it raises AssertionError rather than a validation error.
    """
    i, j = poset.index(big), poset.index(small)
    p = s.element_at(i)
    via_table = delta(poset, i, j, p)
    via_scan = _least_dominating(poset.structure, poset.contexts[j], p)
    if via_table != via_scan:
        raise AssertionError(
            f"restriction image {poset.structure.label(via_table)!r} is not the "
            f"least dominator in {poset.contexts[j].id!r} (bug)")
    return via_table

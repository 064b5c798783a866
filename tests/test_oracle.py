"""Brute-force extremal scans certifying the closed-form operations.

Production implication/subtraction/negations use local formulas; the oracle
recomputes them from the defining universal properties by scanning every
subobject.  Both routes must agree everywhere, and a corrupted operation
handed to the adjunction checker must surface a concrete counterexample.
"""
import json

import pytest

from biheyt import (Limits, SizeGuard, bottom, brute_coheyting_subtract,
                    brute_heyting_implies, brute_negations, check_adjunctions,
                    coheyting_not, coheyting_subtract, enumerate_contexts,
                    generate, heyting_implies, heyting_not, top)
from biheyt.oracle import (_brute_implies, _brute_negations, _brute_subtract,
                           oracle_comparison)


def test_brute_implication_universal_cases(mo2_poset, mo2_subs):
    t = top(mo2_poset)
    for s in mo2_subs:
        assert brute_heyting_implies(s, s) == t
        assert brute_heyting_implies(t, s) == s


def test_brute_subtraction_universal_cases(mo2_poset, mo2_subs):
    b = bottom(mo2_poset)
    for s in mo2_subs:
        assert brute_coheyting_subtract(s, s) == b
        assert brute_coheyting_subtract(s, b) == s


def test_brute_negations_of_the_bounds(boolean3_poset):
    t, b = top(boolean3_poset), bottom(boolean3_poset)
    assert brute_negations(t) == (b, b)
    assert brute_negations(b) == (t, t)


def test_production_matches_oracle_on_all_pairs(boolean3_subs, mo2_subs):
    for subs in (mo2_subs, boolean3_subs):
        for s in subs:
            for t in subs:
                assert heyting_implies(s, t) == _brute_implies(s, t, subs)
                assert coheyting_subtract(s, t) == _brute_subtract(s, t, subs)


def test_brute_scans_over_one_enumeration_match_the_public_ops(boolean3_subs,
                                                              mo2_subs):
    for subs in (mo2_subs, boolean3_subs):
        for s in subs:
            assert _brute_negations(s, subs) == brute_negations(s)
            for t in subs:
                assert _brute_implies(s, t, subs) == brute_heyting_implies(s, t)
                assert (_brute_subtract(s, t, subs)
                        == brute_coheyting_subtract(s, t))


def test_production_negations_match_oracle(boolean3_subs, mo2_subs):
    for subs in (mo2_subs, boolean3_subs):
        for s in subs:
            assert (_brute_negations(s, subs)
                    == (heyting_not(s), coheyting_not(s)))


def test_corrupted_implication_is_caught(mo2_poset):
    t = top(mo2_poset)
    report = check_adjunctions(mo2_poset, heyting_impl=lambda s, u: t)
    assert not report.passed
    ce = report.counterexample
    assert ce["law"] == "heyting"
    assert ce["below_implication"] and not ce["meet_below"]
    assert set(ce) >= {"S", "T", "R"}


def test_corrupted_subtraction_is_caught(mo2_poset):
    b = bottom(mo2_poset)
    report = check_adjunctions(mo2_poset, coheyting_sub=lambda s, u: b)
    assert not report.passed
    assert report.counterexample["law"] == "coheyting"
    assert report.counterexample["subtraction_below"]
    assert not report.counterexample["inside_join"]


def test_report_serializes(mo2_poset):
    report = check_adjunctions(mo2_poset)
    blob = report.to_json()
    assert blob["passed"] is True and blob["counterexample"] is None
    assert blob["subobjects"] == 16 and blob["triples"] == 16 ** 3
    json.dumps(blob)

    bad = check_adjunctions(mo2_poset, heyting_impl=lambda s, u: top(mo2_poset))
    json.dumps(bad.to_json())


def test_law_checks_stop_at_the_search_budget():
    """boolean:3 has 95 subobjects, so 95**3 = 857,375 triples: that budget
    passes with the same reports, one less raises before any triple."""
    poset = enumerate_contexts(generate("boolean", 3))
    enough = Limits(search_budget=857_375)
    assert check_adjunctions(poset, limits=enough).to_json() == {
        "subobjects": 95, "triples": 857_375, "passed": True,
        "counterexample": None}
    assert oracle_comparison(poset, enough) == {
        "first_mismatch": None, "mismatches": 0, "negation_checks": 190,
        "pair_checks": 18_050, "passed": True}
    short = Limits(search_budget=857_374)
    want = {"limit": "search_budget", "value": 857_374, "needed": 857_375}
    calls = []
    with pytest.raises(SizeGuard) as info:
        check_adjunctions(poset, limits=short,
                          heyting_impl=lambda s, t: calls.append(s))
    assert info.value.details == want and calls == []
    with pytest.raises(SizeGuard) as info:
        oracle_comparison(poset, short)
    assert info.value.details == want

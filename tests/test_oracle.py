"""Brute-force extremal scans certifying the closed-form operations.

Production implication/subtraction/negations use local formulas; the oracle
recomputes them from the defining universal properties over the whole
enumeration, read column-wise.  Both routes must agree everywhere, and a
corrupted operation handed to the adjunction checker must surface a concrete
counterexample.  The row scans below, one subobject at a time, are the
reference the column scans are held to.
"""
import ast
import itertools
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biheyt import (ClopenSubobject, ContextPoset, Limits, SizeGuard, bottom,
                    brute_coheyting_subtract, brute_heyting_implies,
                    brute_negations, check_adjunctions, coheyting_not,
                    coheyting_subtract, enumerate_contexts,
                    enumerate_subobjects, from_greechie, generate,
                    heyting_implies, heyting_not, top)
from biheyt import biheyting, oracle
from biheyt.cli import run
from biheyt.oracle import AdjunctionReport, _brute_negations, _Columns
from biheyt.presheaf import _Slots

from support import context_subposet, tree_pasting


def _row_implies(s, t, subs):
    bits = 0
    for r in subs:
        if r.bits & s.bits & ~t.bits == 0:
            bits |= r.bits
    return ClopenSubobject(s.poset, bits)


def _row_subtract(s, t, subs):
    bits = (1 << s.poset.total_bits) - 1
    for r in subs:
        if s.bits & ~(t.bits | r.bits) == 0:
            bits &= r.bits
    return ClopenSubobject(s.poset, bits)


def _row_negations(s, subs):
    full = (1 << s.poset.total_bits) - 1
    neg, coneg = 0, full
    for r in subs:
        if r.bits & s.bits == 0:
            neg |= r.bits
        if r.bits | s.bits == full:
            coneg &= r.bits
    return ClopenSubobject(s.poset, neg), ClopenSubobject(s.poset, coneg)


def _row_adjunctions(poset, heyting_impl=heyting_implies,
                     coheyting_sub=coheyting_subtract):
    """``check_adjunctions`` as a loop over every triple, R innermost, then
    each result of the pair looked up among the subobjects."""
    subs = enumerate_subobjects(poset)
    members = {r.bits for r in subs}
    triples = 0
    for s in subs:
        for t in subs:
            i_bits = heyting_impl(s, t).bits
            d_bits = coheyting_sub(s, t).bits
            for r in subs:
                triples += 1
                below_impl = r.bits & ~i_bits == 0
                meet_below = r.bits & s.bits & ~t.bits == 0
                if below_impl != meet_below:
                    return AdjunctionReport(len(subs), triples, {
                        "law": "heyting",
                        "S": s.to_mapping(), "T": t.to_mapping(),
                        "R": r.to_mapping(), "meet_below": meet_below,
                        "below_implication": below_impl})
                sub_below = d_bits & ~r.bits == 0
                inside_join = s.bits & ~(t.bits | r.bits) == 0
                if sub_below != inside_join:
                    return AdjunctionReport(len(subs), triples, {
                        "law": "coheyting",
                        "S": s.to_mapping(), "T": t.to_mapping(),
                        "R": r.to_mapping(), "inside_join": inside_join,
                        "subtraction_below": sub_below})
            for law, bits in (("heyting", i_bits), ("coheyting", d_bits)):
                if bits not in members:
                    return AdjunctionReport(len(subs), triples, {
                        "law": law, "S": s.to_mapping(), "T": t.to_mapping(),
                        "R": None, "result_is_subobject": False})
    return AdjunctionReport(len(subs), triples, None)


def _row_comparison(poset, heyting_impl=heyting_implies,
                    coheyting_sub=coheyting_subtract):
    """``check_adjunctions``' brute-force comparison by row scans: the
    negations of every S, then both operations on every pair (S, T)."""
    subs = enumerate_subobjects(poset)
    wrong = []
    for s in subs:
        neg, coneg = _row_negations(s, subs)
        wrong += [(op, s) for op, got, want in (
            ("not", heyting_not(s), neg), ("conot", coheyting_not(s), coneg))
            if got != want]
    brute = {}  # the row scans of a pair depend on S & ~T alone
    for s in subs:
        for t in subs:
            gap = s.bits & ~t.bits
            if gap not in brute:
                brute[gap] = (_row_implies(s, t, subs).bits,
                              _row_subtract(s, t, subs).bits)
            wrong += [(op, s, t) for op, got, want in zip(
                ("implies", "subtract"),
                (heyting_impl(s, t).bits, coheyting_sub(s, t).bits),
                brute[gap]) if got != want]
    first = None
    if wrong:
        op, s, *t = wrong[0]
        first = {"op": op, "subobject": s.to_mapping()}
        if t:
            first["other"] = t[0].to_mapping()
    return {"first_mismatch": first, "mismatches": len(wrong),
            "negation_checks": 2 * len(subs),
            "pair_checks": 2 * len(subs) ** 2, "passed": not wrong}


def _assert_like_the_row_scan(poset, **hooks):
    """The laws and the brute-force comparison both equal the row scans'."""
    report = check_adjunctions(poset, **hooks)
    assert report.to_json() == _row_adjunctions(poset, **hooks).to_json()
    assert report.oracle == _row_comparison(poset, **hooks)
    return report


def _flip_at(op, at, point):
    """``op`` with ``point`` flipped in its result at the pair ``at``."""
    def hook(s, t):
        out = op(s, t)
        if (s, t) == at:
            return ClopenSubobject(s.poset, out.bits ^ 1 << point)
        return out
    return hook


def _lowest(bits):
    return (bits & -bits).bit_length() - 1


def _poset(name):
    kind, _, n = name.partition(":")
    return enumerate_contexts(generate(kind, int(n)))


def _column_scans_match_the_row_scans(poset):
    subs = enumerate_subobjects(poset)
    cols = _Columns(subs)
    for s in subs:
        assert _brute_negations(s, cols) == _row_negations(s, subs)
        for t in subs:
            assert cols.implies(s.bits & ~t.bits) == _row_implies(s, t, subs).bits
            assert cols.subtract(s.bits & ~t.bits) == _row_subtract(s, t, subs).bits


@pytest.mark.parametrize("name", ["boolean:3", "mo:3"])
def test_column_scans_match_the_row_scans(name, boolean3):
    _column_scans_match_the_row_scans(_poset(name))
    _column_scans_match_the_row_scans(ContextPoset(boolean3, ()))


@pytest.mark.parametrize("chunk", [1, 7, 95, 1 << 16])
def test_columns_hold_each_points_subobjects(chunk, boolean3_subs,
                                             monkeypatch):
    """Bit k of column b is set iff subobject k holds point b, however many
    subobjects are transposed at a time."""
    monkeypatch.setattr(oracle, "_CHUNK", chunk)
    cols = _Columns(boolean3_subs)
    every = (1 << len(boolean3_subs)) - 1
    for b in range(boolean3_subs[0].poset.total_bits):
        want = sum(1 << k for k, r in enumerate(boolean3_subs)
                   if r.bits >> b & 1)
        assert (cols.has[b], cols.lacks[b]) == (want, every ^ want)


@given(context_subposet(max_product=64))
@settings(max_examples=25, deadline=None)
def test_column_scans_match_the_row_scans_on_tree_pasting_subposets(poset):
    _column_scans_match_the_row_scans(poset)


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
        cols = _Columns(subs)
        for s in subs:
            for t in subs:
                assert heyting_implies(s, t).bits == cols.implies(s.bits & ~t.bits)
                assert coheyting_subtract(s, t).bits == cols.subtract(s.bits & ~t.bits)


def test_brute_scans_over_one_enumeration_match_the_public_ops(boolean3_subs,
                                                              mo2_subs):
    """Every pair of mo:2 and a seeded sample of boolean:3's 9,025 pairs:
    each public call enumerates and transposes afresh, and the column scans
    are held to the row scans on every pair by the tests above."""
    rng = random.Random(9)
    for subs, pairs in ((mo2_subs, itertools.product(mo2_subs, repeat=2)),
                        (boolean3_subs, [rng.choices(boolean3_subs, k=2)
                                         for _ in range(300)])):
        cols = _Columns(subs)
        for s in subs:
            assert _brute_negations(s, cols) == brute_negations(s)
        for s, t in pairs:
            assert cols.implies(s.bits & ~t.bits) == brute_heyting_implies(s, t).bits
            assert (cols.subtract(s.bits & ~t.bits)
                    == brute_coheyting_subtract(s, t).bits)


def test_production_negations_match_oracle(boolean3_subs, mo2_subs):
    for subs in (mo2_subs, boolean3_subs):
        cols = _Columns(subs)
        for s in subs:
            assert (_brute_negations(s, cols)
                    == (heyting_not(s), coheyting_not(s)))


def test_corrupted_implication_is_caught(mo2_poset):
    t = top(mo2_poset)
    report = _assert_like_the_row_scan(mo2_poset,
                                       heyting_impl=lambda s, u: t)
    assert not report.passed
    ce = report.counterexample
    assert ce["law"] == "heyting"
    assert ce["below_implication"] and not ce["meet_below"]
    assert set(ce) >= {"S", "T", "R"}


def test_corrupted_subtraction_is_caught(mo2_poset):
    b = bottom(mo2_poset)
    report = _assert_like_the_row_scan(mo2_poset,
                                       coheyting_sub=lambda s, u: b)
    assert not report.passed
    assert report.counterexample["law"] == "coheyting"
    assert report.counterexample["subtraction_below"]
    assert not report.counterexample["inside_join"]


def test_negations_are_compared_before_any_pair(mo2_poset, mo2_subs,
                                                monkeypatch):
    """With every negation but the empty one's wrong, and every implication
    wrong too, the first mismatch is the negation of the first nonempty
    subobject; all of them are counted."""
    t = top(mo2_poset)
    monkeypatch.setattr(biheyting, "heyting_not", lambda s: t)
    report = check_adjunctions(mo2_poset, heyting_impl=lambda s, u: t)
    wrong_pairs = sum(heyting_implies(s, u) != t
                      for s in mo2_subs for u in mo2_subs)
    assert report.oracle["first_mismatch"] == {
        "op": "not", "subobject": mo2_subs[1].to_mapping()}
    assert report.oracle["mismatches"] == len(mo2_subs) - 1 + wrong_pairs


def test_bits_outside_the_poset_are_scanned_like_the_rows(mo2_poset, mo2_subs):
    """No subobject holds a point past ``total_bits``, nor the infinitely
    many points of a negative int.  The constructor refuses such bits, so
    the fake is built in place, as implication and subtraction build their
    results, and the oracle is shown to catch it there."""
    cols = _Columns(mo2_subs)
    for bits in (1 << mo2_poset.total_bits, -1):
        odd = _Slots()
        odd.poset, odd.bits = mo2_poset, bits
        odd.__class__ = ClopenSubobject
        report = _assert_like_the_row_scan(mo2_poset,
                                           coheyting_sub=lambda s, u: odd)
        assert report.counterexample["law"] == "coheyting"
        for s in mo2_subs:
            assert (cols.subtract(odd.bits & ~s.bits)
                    == _row_subtract(odd, s, mo2_subs).bits)
            assert (cols.implies(odd.bits & ~s.bits)
                    == _row_implies(odd, s, mo2_subs).bits)


def _assert_one_mismatch(report, op, at):
    """The brute-force comparison of the same pass names the corrupted pair,
    and only it."""
    s, t = at
    assert report.oracle == {
        "first_mismatch": {"op": op, "subobject": s.to_mapping(),
                           "other": t.to_mapping()},
        "mismatches": 1, "negation_checks": 2 * report.subobject_count,
        "pair_checks": 2 * report.subobject_count ** 2, "passed": False}


@pytest.mark.parametrize("name", ["mo:2", "mo:3", "boolean:3"])
def test_one_point_corruptions_report_the_row_scans_counterexample(name):
    """Dropping a point of S => T fails the law at R = S => T, and adding a
    point to S - T fails it at R = S - T, so every case below is caught."""
    poset = _poset(name)
    subs = enumerate_subobjects(poset)
    n = len(subs)

    middle = [(s, t) for s in subs[n // 2:] for t in subs]
    at = next(p for p in middle if heyting_implies(*p).bits)
    report = _assert_like_the_row_scan(poset, heyting_impl=_flip_at(
        heyting_implies, at, _lowest(heyting_implies(*at).bits)))
    assert report.counterexample["law"] == "heyting"
    _assert_one_mismatch(report, "implies", at)

    full = (1 << poset.total_bits) - 1
    at = next(p for p in middle if coheyting_subtract(*p).bits != full)
    missing = full & ~coheyting_subtract(*at).bits
    report = _assert_like_the_row_scan(poset, coheyting_sub=_flip_at(
        coheyting_subtract, at, _lowest(missing)))
    assert report.counterexample["law"] == "coheyting"
    _assert_one_mismatch(report, "subtract", at)

    last = (subs[-1], subs[-1])
    report = _assert_like_the_row_scan(poset, heyting_impl=_flip_at(
        heyting_implies, last, _lowest(heyting_implies(*last).bits)))
    assert report.counterexample["S"] == subs[-1].to_mapping()
    assert report.triples_checked > (n * n - 1) * n


@pytest.mark.parametrize("name", ["mo:2", "mo:3", "boolean:3"])
def test_both_laws_failing_at_one_triple_report_the_heyting_law(name):
    """S is the first subobject after the empty one, a single point p, and T
    is empty, so S => T is the complement of S and S - T is S.  With p added
    to the implication and another point to the subtraction, R = S is the
    first R at which either law fails, and both fail there."""
    poset = _poset(name)
    subs = enumerate_subobjects(poset)
    empty, s = subs[0], subs[1]
    assert empty.bits == 0 and s.bits & (s.bits - 1) == 0
    impl = _flip_at(heyting_implies, (s, empty), _lowest(s.bits))
    sub = _flip_at(coheyting_subtract, (s, empty), _lowest(~s.bits))
    both = _assert_like_the_row_scan(poset, heyting_impl=impl,
                                     coheyting_sub=sub)
    alone = _assert_like_the_row_scan(poset, coheyting_sub=sub)
    assert both.counterexample["law"] == "heyting"
    assert alone.counterexample["law"] == "coheyting"
    assert both.triples_checked == alone.triples_checked == len(subs) ** 2 + 2
    assert both.counterexample["R"] == alone.counterexample["R"] == \
        s.to_mapping()


def _assert_no_subobject_at(report, law, at):
    """The law check reports the pair ``at`` with no R: a result there is
    no clopen subobject, and every R of the pair was checked."""
    s, t = at
    n = report.subobject_count
    subs = enumerate_subobjects(s.poset)
    assert report.counterexample == {
        "law": law, "S": s.to_mapping(), "T": t.to_mapping(), "R": None,
        "result_is_subobject": False}
    assert report.triples_checked == (subs.index(s) * n + subs.index(t) + 1) * n
    assert report.to_json()["passed"] is False


def test_mismatches_that_keep_both_laws_report_a_non_subobject():
    """An operation can differ from its brute twin and still obey its law
    for every R, but only with a result that is no subobject.  On boolean:3,
    with S everything and T empty, S => T is empty, and one point of the top
    context added to it lies below no subobject but the empty one; S - T is
    everything, and some point taken from it leaves everything the only
    subobject above the rest.  The comparison counts the one mismatch, and
    the law check names the pair."""
    poset = _poset("boolean:3")
    subs = enumerate_subobjects(poset)
    at = (top(poset), bottom(poset))
    assert heyting_implies(*at).bits == 0
    widest = max(range(len(poset.contexts)),
                 key=lambda i: len(poset.contexts[i].atoms))
    report = _assert_like_the_row_scan(poset, heyting_impl=_flip_at(
        heyting_implies, at, poset._offsets[widest]))
    _assert_no_subobject_at(report, "heyting", at)
    _assert_one_mismatch(report, "implies", at)

    full = coheyting_subtract(*at).bits
    assert full == (1 << poset.total_bits) - 1
    point = next(p for p in range(poset.total_bits)
                 if all(r.bits == full for r in subs
                        if r.bits | 1 << p == full))
    report = _assert_like_the_row_scan(poset, coheyting_sub=_flip_at(
        coheyting_subtract, at, point))
    _assert_no_subobject_at(report, "coheyting", at)
    _assert_one_mismatch(report, "subtract", at)


@pytest.mark.parametrize("hook, law, mismatches", [
    # the bare complement of the gap, not of its up-closure
    ("heyting_impl", "heyting", 6_475),
    # the bare gap, not its down-closure
    ("coheyting_sub", "coheyting", 2_409)])
def test_unclosed_gaps_fail_the_law_check(hook, law, mismatches):
    """On boolean:3 an operation that skips the closure of the gap keeps its
    law at every R, since R & G == 0 iff R lies below the complement of G,
    and G <= R iff R lies above G.  The law check still fails, at the first
    pair where a result is no subobject."""
    poset = _poset("boolean:3")
    full = (1 << poset.total_bits) - 1
    bare = {"heyting_impl": lambda s, t: ClopenSubobject(
                poset, full & ~(s.bits & ~t.bits)),
            "coheyting_sub": lambda s, t: ClopenSubobject(
                poset, s.bits & ~t.bits)}[hook]
    report = _assert_like_the_row_scan(poset, **{hook: bare})
    assert report.oracle["mismatches"] == mismatches
    subs = enumerate_subobjects(poset)
    members = {r.bits for r in subs}
    at = next((s, t) for s in subs for t in subs
              if bare(s, t).bits not in members)
    _assert_no_subobject_at(report, law, at)


@pytest.mark.parametrize("name, seed", [("mo:2", 1), ("mo:3", 2),
                                        ("boolean:3", 3)])
def test_random_corruptions_report_like_the_row_scans(name, seed):
    """Seeded corruptions of either operation at a random pair, each XOR-ing
    a random set of points into its result: caught or not, the laws and the
    brute-force comparison both equal the row scans'."""
    poset = _poset(name)
    subs = enumerate_subobjects(poset)
    rng = random.Random(seed)
    for _ in range(4):
        at = (rng.choice(subs), rng.choice(subs))
        hook, op = rng.choice([("heyting_impl", heyting_implies),
                               ("coheyting_sub", coheyting_subtract)])
        flips = rng.getrandbits(poset.total_bits) or 1
        for p in range(poset.total_bits):
            if flips >> p & 1:
                op = _flip_at(op, at, p)
        report = _assert_like_the_row_scan(poset, **{hook: op})
        assert report.oracle["mismatches"] == 1


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
    report = check_adjunctions(poset, limits=enough)
    assert report.to_json() == {
        "subobjects": 95, "triples": 857_375, "passed": True,
        "counterexample": None}
    assert report.oracle == {
        "first_mismatch": None, "mismatches": 0, "negation_checks": 190,
        "pair_checks": 18_050, "passed": True}
    short = Limits(search_budget=857_374)
    want = {"limit": "search_budget", "value": 857_374, "needed": 857_375}
    calls = []
    with pytest.raises(SizeGuard) as info:
        check_adjunctions(poset, limits=short,
                          heyting_impl=lambda s, t: calls.append(s))
    assert info.value.details == want and calls == []


def test_check_laws_with_oracle_is_one_pass(capsys, monkeypatch):
    """One enumeration, and each production operation once per pair (or per
    subobject): the law check and the brute-force comparison share them.
    Each negation reaches its binary operation once more, with the bound."""
    calls = dict.fromkeys(["enumerate", "implies", "subtract", "not",
                           "conot"], 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(oracle, "enumerate_subobjects",
                        counted("enumerate", enumerate_subobjects))
    for name, attr in (("implies", "heyting_implies"),
                       ("subtract", "coheyting_subtract"),
                       ("not", "heyting_not"), ("conot", "coheyting_not")):
        monkeypatch.setattr(biheyting, attr,
                            counted(name, getattr(biheyting, attr)))
    assert run(["check", "laws", "--oracle", "--builtin", "boolean:3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["oracle"]["passed"] and out["adjunctions"]["passed"]
    n = 95
    assert calls == {"enumerate": 1, "implies": n * n + n,
                     "subtract": n * n + n, "not": n, "conot": n}


# _least maps to atom masks, as _elem_mask does, so the oracle reads neither
_PRODUCTION_TABLES = {"_least", "_elem_mask", "_shift", "_least_above", "_below",
                      "_above", "_down_closure", "_up_closure", "_with_below",
                      "_with_above", "_is_tight", "_monotone_witness"}


def _names(path):
    """Every name, attribute and imported name in a module's source."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= {node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)}
    used |= {alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) for alias in node.names}
    return used


def test_oracle_reads_no_production_tables():
    """The oracle stays independent of the closed-form path: no name or
    attribute in its source is one of the production tables or the helpers
    that read them.  Whole identifiers are matched, so ``meet_below`` is
    fine."""
    assert not _names(Path(oracle.__file__)) & _PRODUCTION_TABLES


def test_only_the_context_poset_reads_its_coarse_graining_table():
    """The coarse-graining map ``_least``, its key shift and the element
    bitsets its keys are cut from are read in ``contexts.py`` alone, and
    the ``_up`` rows that key it only there and in ``oml.py``, which builds
    them; so a change of the table's format touches one module."""
    modules = sorted(Path(oracle.__file__).parent.glob("*.py"))
    assert {path.name for path in modules} >= {"contexts.py", "oml.py", "presheaf.py"}
    for path in modules:
        used = _names(path)
        if path.name != "contexts.py":
            assert not used & {"_least", "_shift", "_elements"}, path.name
            if path.name != "oml.py":
                assert "_up" not in used, path.name


def test_only_serialize_encodes_json():
    """``serialize.py`` holds the one JSON encoder, ``canonical_json``: no
    other module names ``dumps`` or ``JSONEncoder``, so the CLI's listings
    only join pieces that encoder wrote."""
    modules = sorted(Path(oracle.__file__).parent.glob("*.py"))
    for path in modules:
        used = _names(path)
        if path.name == "serialize.py":
            assert "JSONEncoder" in used
        else:
            assert not used & {"dumps", "JSONEncoder"}, path.name


# the atom labels the laws_oracle benchmark samples from
_LAWS_LABELS = [f"{a}{b}" for a in "uvwxyz" for b in "klmn"]


def _context_keys(poset, rename):
    """Each context as the set of its atoms, each atom as the set of the
    structure's atoms below it, by label under ``rename``.  Tree pastings
    are atomistic, so the keys survive a relabelling."""
    structure = poset.structure
    atoms = {a for block in structure.blocks for a in block.atoms}
    return [frozenset(frozenset(rename[structure.label(a)] for a in atoms
                                if structure.leq(a, e)) for e in c.atoms)
            for c in poset.contexts]


def _assert_laws_ignore_labels(blocks, keep=lambda key: True):
    """``check_adjunctions`` on the contexts of ``blocks`` that ``keep``
    picks gives the same report under each seeded relabelling of the atoms,
    drawn as ``laws_oracle`` draws its labels.  A relabelling reorders the
    contexts, and with them the closures' loop order; returns whether any of
    the relabellings put the picked contexts in another order."""
    def checked(blocks, rename):
        poset = enumerate_contexts(from_greechie(blocks))
        picked = [(c, key) for c, key in zip(poset.contexts, _context_keys(poset, rename))
                  if keep(key)]
        report = check_adjunctions(ContextPoset(poset.structure, tuple(c for c, _ in picked)))
        return (report.to_json(), report.oracle), [key for _, key in picked]

    atoms = list(dict.fromkeys(a for block in blocks for a in block))
    want, order = checked(blocks, {a: a for a in atoms})
    assert want[0]["passed"] and want[1]["passed"]
    reordered = False
    for seed in range(4):
        names = dict(zip(atoms, random.Random(seed).sample(_LAWS_LABELS, len(atoms))))
        got, other = checked([[names[a] for a in block] for block in blocks],
                             {new: old for old, new in names.items()})
        assert got == want
        reordered |= other != order
    return reordered


@pytest.mark.parametrize("blocks", [
    [["a0", "a1", "a2"]], [["a0", "b0"], ["a1", "b1"], ["a2", "b2"]]],
    ids=["boolean:3", "mo:3"])
def test_check_laws_ignores_labels(blocks):
    assert _assert_laws_ignore_labels(blocks)


@given(blocks=tree_pasting(), data=st.data())
@settings(max_examples=10, deadline=None)
def test_check_laws_ignores_labels_on_tree_pasting_subposets(blocks, data):
    """The same on some contexts of a tree pasting: a drawn one, then its
    subcontexts, then the rest in a drawn order, each kept while the brute
    product, which bounds the subobject count, stays within 128."""
    poset = enumerate_contexts(from_greechie(blocks))
    keys = _context_keys(poset, {a: a for block in blocks for a in block})
    first = data.draw(st.sampled_from(range(len(keys))))
    kept, product = set(), 1
    for i in (first, *poset.down_indices(first),
              *data.draw(st.permutations(range(len(keys))))):
        size = len(poset.contexts[i].elements)
        if keys[i] not in kept and product * size <= 128:
            kept.add(keys[i])
            product *= size
    _assert_laws_ignore_labels(blocks, kept.__contains__)

"""Acceptance gate: nine end-to-end criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  Each
criterion recomputes what it needs from scratch so the stated time bounds
cover real work, not cache hits.
"""
import json
import time

from biheyt import (brute_negations, bottom, check_adjunctions, coheyting_not,
                    coheyting_subtract, daseinise, delta,
                    double_coheyting_not, double_heyting_not,
                    enumerate_contexts, enumerate_subobjects, generate,
                    heyting_implies, heyting_not, is_coheyting_regular,
                    is_heyting_regular, is_tight, join, meet,
                    restriction_image_projection, top)
from biheyt.cli import run
from biheyt.oracle import _brute_negations, _Columns

CONTRADICTION = {"p+q|r": "p+q", "p+r|q": "p+r", "p|q+r": "0", "p|q|r": "0"}


def _line(num, ok, desc):
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'} - {desc}")
    return ok


def test_criterion_1_counts_within_one_second():
    t0 = time.perf_counter()
    poset = enumerate_contexts(generate("boolean", 3))
    subs = enumerate_subobjects(poset)
    elapsed = time.perf_counter() - t0

    top_ix = poset.index("p|q|r")
    by_counting = 0
    for p in poset.contexts[top_ix].elements:
        ways = 1
        for j in poset.minimal:
            d = delta(poset, top_ix, j, p)
            ways *= sum(1 for q in poset.contexts[j].elements
                        if poset.structure.leq(d, q))
        by_counting += ways

    ok = (len(poset.contexts) == 4 and len(subs) == 95
          and by_counting == 95 and elapsed < 1.0)
    assert _line(1, ok, f"boolean:3 has 4 contexts and 95 subobjects, "
                        f"counting oracle agrees ({elapsed:.3f}s < 1s)")


def test_criterion_2_law_suite_within_sixty_seconds():
    t0 = time.perf_counter()
    failures = []
    for name in ("boolean:3", "mo:2"):
        kind, _, arg = name.partition(":")
        poset = enumerate_contexts(generate(kind, int(arg)))
        subs = enumerate_subobjects(poset)

        report = check_adjunctions(poset)
        if not report.passed:
            failures.append((name, "adjunction", report.counterexample))

        bits = [s.bits for s in subs]
        for a in bits:
            for b in bits:
                for c in bits:
                    if a & (b | c) != (a & b) | (a & c) \
                            or a | (b & c) != (a | b) & (a | c):
                        failures.append((name, "distributivity", (a, b, c)))

        for s in subs:
            neg, coneg = brute_negations(s)
            if heyting_not(s) != neg or coheyting_not(s) != coneg:
                failures.append((name, "extremality", s.to_mapping()))
            if heyting_not(double_heyting_not(s)) != heyting_not(s):
                failures.append((name, "triple negation", s.to_mapping()))
            if coheyting_not(double_coheyting_not(s)) != coheyting_not(s):
                failures.append((name, "triple co-negation", s.to_mapping()))
            if not heyting_not(s) <= coheyting_not(s):
                failures.append((name, "negation order", s.to_mapping()))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60.0
    assert _line(2, ok, f"exhaustive law suite on boolean:3 and mo:2, "
                        f"{len(failures)} counterexamples ({elapsed:.1f}s < 60s)")


def test_criterion_3_production_equals_oracle():
    mismatches = 0
    for name in ("boolean:3", "mo:2"):
        kind, _, arg = name.partition(":")
        poset = enumerate_contexts(generate(kind, int(arg)))
        subs = enumerate_subobjects(poset)
        cols = _Columns(subs)
        for s in subs:
            if _brute_negations(s, cols) != (heyting_not(s), coheyting_not(s)):
                mismatches += 1
            for t in subs:
                if heyting_implies(s, t).bits != cols.implies(s.bits & ~t.bits):
                    mismatches += 1
                if coheyting_subtract(s, t).bits != cols.subtract(s.bits & ~t.bits):
                    mismatches += 1
    assert _line(3, mismatches == 0,
                 f"closed forms match brute-force oracles on every "
                 f"subobject and pair, {mismatches} mismatches")


def test_criterion_4_approximation_properties():
    ok = True
    strict_defect = False
    for name in ("boolean:3", "mo:2"):
        kind, _, arg = name.partition(":")
        poset = enumerate_contexts(generate(kind, int(arg)))
        st = poset.structure
        images = [daseinise(poset, p) for p in range(st.n)]
        ok &= len(set(images)) == st.n
        for p in range(st.n):
            ok &= is_tight(images[p])
            ok &= is_heyting_regular(images[p])
            ok &= is_coheyting_regular(images[p])
            for q in range(st.n):
                ok &= (images[p] <= images[q]) == st.leq(p, q)
                v = st.lub(p, q)
                ok &= v is not None and images[v] == join([images[p], images[q]])
                g = st.glb(p, q)
                if g is not None:
                    lhs = daseinise(poset, g)
                    rhs = meet([daseinise(poset, p), daseinise(poset, q)])
                    ok &= lhs <= rhs
                    strict_defect |= lhs != rhs
    ok &= strict_defect
    assert _line(4, ok, "approximation preserves joins and order, is "
                        "injective, lands on tight bi-regular subobjects, "
                        "and meets have a strict defect witness")


def test_criterion_5_regularity_structure():
    poset = enumerate_contexts(generate("boolean", 3))
    subs = enumerate_subobjects(poset)
    tight_ok = all(is_heyting_regular(s) and is_coheyting_regular(s)
                   for s in subs if is_tight(s))
    loose = [s for s in subs if is_heyting_regular(s) and not is_tight(s)]
    ok = tight_ok and len(loose) > 0
    assert _line(5, ok, f"tight implies bi-regular; {len(loose)} "
                        f"Heyting-regular non-tight subobjects exist")


def test_criterion_6_paraconsistency_witness():
    poset = enumerate_contexts(generate("boolean", 3))
    s = daseinise(poset, "p")
    overlap = meet([coheyting_not(s), s])
    strict = (heyting_not(s) <= coheyting_not(s)
              and heyting_not(s) != coheyting_not(s))
    ok = (overlap.to_mapping() == CONTRADICTION
          and overlap != bottom(poset) and strict)
    assert _line(6, ok, "co-Heyting negation of das(p) overlaps das(p) in "
                        "the two coatom components and strictly dominates "
                        "the Heyting negation")


def test_criterion_7_noncontextuality_obstruction(capsys):
    t0 = time.perf_counter()
    code = run(["sections", "--builtin", "cabello18"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    counts = {}
    for name in ("boolean:3", "mo:2"):
        run(["sections", "--builtin", name])
        counts[name] = json.loads(capsys.readouterr().out)["count"]
    ok = (code == 0 and out == '{"count":0}\n' and elapsed < 5.0
          and counts == {"boolean:3": 3, "mo:2": 4})
    with capsys.disabled():
        assert _line(7, ok, f"cabello18 admits no global section "
                            f"({elapsed:.2f}s < 5s); boolean:3 has 3, mo:2 has 4")


def test_criterion_8_restriction_compatibility():
    poset = enumerate_contexts(generate("boolean", 3))
    subs = enumerate_subobjects(poset)
    checked = 0
    for s in subs:
        for i in range(len(poset.contexts)):
            for j in poset.down_indices(i):
                # raises AssertionError on any disagreement
                out = restriction_image_projection(poset, s, i, j)
                checked += 1
                assert out == delta(poset, i, j, s.element_at(i))
    assert _line(8, checked == 95 * 7,
                 f"pointwise restriction matches coarse-graining on "
                 f"{checked} subobject/inclusion pairs")


def test_criterion_9_cli_byte_determinism(capsys, tmp_path):
    sp = tmp_path / "sp.json"
    sp.write_text(json.dumps({"p+q|r": "p+q", "p+r|q": "p+r",
                              "p|q+r": "p", "p|q|r": "p"}), encoding="utf-8")
    commands = [
        ["validate", "--builtin", "boolean:3"],
        ["contexts", "--builtin", "boolean:3"],
        ["contexts", "--builtin", "boolean:3", "--format", "dot"],
        ["spectrum", "--builtin", "cabello18"],
        ["das", "--builtin", "boolean:3", "--element", "p"],
        ["op", "conot", "--builtin", "boolean:3", "--subobject", str(sp)],
        ["check", "laws", "--builtin", "mo:2", "--oracle"],
        ["sections", "--builtin", "boolean:3", "--list"],
        ["enumerate", "--builtin", "mo:2", "--list"],
        ["export-dot", "subobject", "--builtin", "boolean:3",
         "--subobject", str(sp)],
    ]
    ok = True
    for argv in commands:
        ok &= run(argv) == 0
        first = capsys.readouterr().out
        ok &= run(argv) == 0
        ok &= capsys.readouterr().out == first
    with capsys.disabled():
        assert _line(9, ok, f"two runs of {len(commands)} CLI commands are "
                            f"byte-identical")

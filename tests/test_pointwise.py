"""The pointwise API against the bodies it had before it read the tables.

``spectrum``, ``restrict``, ``points_at``, ``alpha_inv``, ``delta``,
``daseinise`` and the monotonicity witness of ``make_subobject`` validate
their arguments once, read the per-context tables directly and build their
points without the frozen ``__init__``.  The ``_*_ref`` functions below are
the plain bodies they replaced: index, then ``_least_above``, then
``SpectrumPoint(...)``; ``delta_global`` at every context; a scan of
every inclusion through the test-side ``restriction_maps``.  Results must
be equal, and so must the class, message and details of every error.
"""
import copy
import dataclasses
import functools
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from biheyt import (BiheytError, ClopenSubobject, NotASubobject,
                    SpectrumPoint, UsageError, alpha_inv, builtin_structure,
                    daseinise, delta, delta_global, enumerate_contexts,
                    from_greechie, make_subobject, restrict, spectrum)

from support import (BUILTINS, FOUR_LOOP, PENTAGON, TRIANGLE,
                     restriction_maps, tree_pasting)

PASTINGS = {"four-loop": FOUR_LOOP, "pentagon": PENTAGON, "triangle": TRIANGLE}


@functools.cache
def _poset(spec):
    if spec in PASTINGS:
        return enumerate_contexts(from_greechie(PASTINGS[spec]))
    return enumerate_contexts(builtin_structure(spec))


def _stride(n, cap):
    """Every index below n, or about ``cap`` of them spread evenly."""
    return range(0, n, max(1, n // cap))


# -- the reference bodies ---------------------------------------------------------


def _spectrum_ref(poset, ctx):
    i = poset.index(ctx)
    c = poset.contexts[i]
    st = poset.structure
    return tuple(SpectrumPoint(c.id, a, st.label(a)) for a in c.atoms)


def _restrict_ref(poset, point, sub):
    i = poset.index(point.context_id)
    j = poset.index(sub)
    if not poset.includes(i, j):
        raise UsageError(f"{poset.contexts[j].id!r} is not a subcontext of "
                         f"{poset.contexts[i].id!r}")
    if point.atom not in poset.contexts[i].atoms:
        raise UsageError(f"{point.label!r} is not an atom of {point.context_id!r}")
    a = poset._least_above(j, point.atom)
    return SpectrumPoint(poset.contexts[j].id, a, poset.structure.label(a))


def _points_at_ref(s, ctx):
    i = s.poset.index(ctx)
    c = s.poset.contexts[i]
    m = s.mask_at(i)
    st = s.poset.structure
    return tuple(SpectrumPoint(c.id, a, st.label(a))
                 for p, a in enumerate(c.atoms) if (m >> p) & 1)


def _alpha_inv_ref(poset, ctx, atoms):
    i = poset.index(ctx)
    st = poset.structure
    m = 0
    for a in atoms:
        a = st.el(a)
        try:
            m |= 1 << poset.contexts[i].atoms.index(a)
        except ValueError:
            raise UsageError(f"{st.label(a)!r} is not an atom of "
                             f"{poset.contexts[i].id!r}") from None
    return poset._mask_to_elem[i][m]


def _delta_ref(poset, big, small, p):
    i, j = poset.index(big), poset.index(small)
    st = poset.structure
    p = st.el(p)
    if not poset.includes(i, j):
        raise UsageError(f"{poset.contexts[j].id!r} is not a subcontext of "
                         f"{poset.contexts[i].id!r}")
    if p not in poset.contexts[i].elements:
        raise UsageError(f"element {st.label(p)!r} not in context "
                         f"{poset.contexts[i].id!r}")
    return delta_global(poset, j, p)


def _daseinise_ref(poset, p):
    p = poset.structure.el(p)
    bits = 0
    for i in range(len(poset.contexts)):
        e = delta_global(poset, i, p)
        bits |= poset._elem_mask[i][e] << poset._offsets[i]
    return ClopenSubobject(poset, bits)


def _witness_ref(poset, masks):
    for i, below in enumerate(poset._below):
        for j in below:
            if restriction_maps(poset, i, j)[0](masks[i]) & ~masks[j]:
                return (j, i)
    return None


def _make_subobject_ref(poset, family):
    st = poset.structure
    masks = [None] * len(poset.contexts)
    for key, val in family.items():
        i = poset.index(key)
        if masks[i] is not None:
            raise UsageError(f"context {poset.contexts[i].id!r} assigned twice")
        e = st.el(val)
        if e not in poset.contexts[i].elements:
            raise UsageError(f"element {st.label(e)!r} not in context "
                             f"{poset.contexts[i].id!r}")
        masks[i] = poset._elem_mask[i][e]
    for i, m in enumerate(masks):
        if m is None:
            raise UsageError(f"context {poset.contexts[i].id!r} not assigned")
    witness = _witness_ref(poset, masks)
    if witness is not None:
        j, i = witness
        raise NotASubobject(
            f"projection at {poset.contexts[j].id!r} does not dominate the "
            f"restriction of the projection at {poset.contexts[i].id!r}",
            witness=[poset.contexts[j].id, poset.contexts[i].id])
    bits = 0
    for i, m in enumerate(masks):
        bits |= m << poset._offsets[i]
    return ClopenSubobject(poset, bits)


def _outcome(fn, *args):
    """The result, or the class, message and details of the error."""
    try:
        return "ok", fn(*args)
    except (BiheytError, AssertionError) as exc:
        return type(exc), str(exc), getattr(exc, "details", None)


def _same_points(got, want):
    """Equal tuples of points, each a plain ``SpectrumPoint`` holding its
    fields in the order the constructor writes them."""
    assert got == want
    assert all(type(pt) is SpectrumPoint for pt in got)
    assert [list(vars(pt).items()) for pt in got] \
        == [list(vars(pt).items()) for pt in want]


# -- results --------------------------------------------------------------------


def _check_points(poset):
    """spectrum, restrict and points_at against the references, on every
    context or an even spread of about 200 of them."""
    for i in _stride(len(poset.contexts), 200):
        pts = spectrum(poset, i)
        _same_points(pts, _spectrum_ref(poset, i))
        _same_points(spectrum(poset, poset.contexts[i].id), pts)
        for j in (i, *poset._below[i]):
            _same_points([restrict(poset, pt, j) for pt in pts],
                         [_restrict_ref(poset, pt, j) for pt in pts])
    for p in _stride(poset.structure.n, 32):
        ok, s, *_ = _outcome(daseinise, poset, p)
        if ok != "ok":   # p has no least dominator somewhere
            continue
        for i in _stride(len(poset.contexts), 200):
            _same_points(s.points_at(i), _points_at_ref(s, i))


def _check_tables(poset):
    """alpha_inv, delta and daseinise against the references."""
    st = poset.structure
    for i in _stride(len(poset.contexts), 200):
        atoms = poset.contexts[i].atoms
        for group in [[a] for a in atoms] + [list(atoms), [atoms[0]] * 2, []]:
            assert alpha_inv(poset, i, group) == _alpha_inv_ref(poset, i, group)
        for j in (i, *poset._below[i][:8]):
            for p in sorted(poset.contexts[i].elements):
                assert delta(poset, i, j, p) == _delta_ref(poset, i, j, p)
    for p in _stride(st.n, 32):
        assert _outcome(daseinise, poset, p) == _outcome(_daseinise_ref, poset, p)


@pytest.mark.parametrize("spec", BUILTINS + list(PASTINGS))
def test_pointwise_results_match_the_reference_bodies(spec):
    poset = _poset(spec)
    _check_points(poset)
    _check_tables(poset)


@given(blocks=tree_pasting())
@settings(max_examples=40, deadline=None)
def test_pointwise_results_match_the_reference_bodies_on_trees(blocks):
    poset = enumerate_contexts(from_greechie(blocks))
    _check_points(poset)
    _check_tables(poset)


# -- errors -----------------------------------------------------------------------


@pytest.mark.parametrize("spec", BUILTINS + list(PASTINGS))
def test_pointwise_errors_match_the_reference_bodies(spec):
    poset = _poset(spec)
    st = poset.structure
    n = len(poset.contexts)
    for i in _stride(n, 60):
        c = poset.contexts[i]
        pts = spectrum(poset, i)
        # to a context that is not a subcontext, of an atom or not
        outside = [j for j in range(n) if not poset.includes(i, j)][:4]
        non_atoms = [SpectrumPoint(c.id, e, st.label(e))
                     for e in (st.one, st.zero, *sorted(c.elements))
                     if e not in c.atoms][:3]
        foreign = [SpectrumPoint(c.id, a, st.label(a))
                   for a in range(st.n) if a not in c.elements][:2]
        for j in outside + [i, *poset._below[i][:3]]:
            for pt in pts[:2] + tuple(non_atoms) + tuple(foreign):
                assert _outcome(restrict, poset, pt, j) \
                    == _outcome(_restrict_ref, poset, pt, j)
        for e in (st.zero, st.one, *sorted(c.elements)[:4], *range(min(st.n, 6))):
            group = [c.atoms[0], e]
            assert _outcome(alpha_inv, poset, i, group) \
                == _outcome(_alpha_inv_ref, poset, i, group)
        for j in outside[:2]:
            assert _outcome(delta, poset, i, j, st.one) \
                == _outcome(_delta_ref, poset, i, j, st.one)
        for p in range(min(st.n, 8)):
            assert _outcome(delta, poset, i, i, p) \
                == _outcome(_delta_ref, poset, i, i, p)


def test_daseinise_fails_where_the_reference_does_on_cabello18(cabello18_poset):
    poset = cabello18_poset
    failures = 0
    for p in range(poset.structure.n):
        got = _outcome(daseinise, poset, p)
        assert got == _outcome(_daseinise_ref, poset, p)
        failures += got[0] != "ok"
    # 18 of the 92 elements have no least dominator in some context; the
    # message and details name the first such context in index order
    assert failures == 18


# -- the subobject check ----------------------------------------------------------


@st.composite
def _families(draw):
    """A poset and a projection family: a daseinisation image with some
    components redrawn, so the first failing pair can lie anywhere."""
    spec = draw(st.sampled_from(["boolean:3", "boolean:4", "mo:2", "mo:5",
                                 "cabello18", "four-loop", "triangle"]))
    poset = _poset(spec)
    n = len(poset.contexts)
    base = daseinise(poset, draw(st.sampled_from(
        [p for p in range(poset.structure.n)
         if _outcome(daseinise, poset, p)[0] == "ok"])))
    masks = [base.mask_at(i) for i in range(n)]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, n - 1))
        masks[i] = draw(st.integers(0, poset._full[i]))
    return poset, masks


def _same_witness(poset, masks):
    assert poset._monotone_witness(masks) == _witness_ref(poset, masks)
    labels = poset.structure.labels
    family = {c.id: labels[poset._mask_to_elem[i][masks[i]]]
              for i, c in enumerate(poset.contexts)}
    assert _outcome(make_subobject, poset, family) \
        == _outcome(_make_subobject_ref, poset, family)


@given(_families())
@settings(max_examples=200, deadline=None)
def test_make_subobject_reports_the_reference_witness(family):
    _same_witness(*family)


@given(blocks=tree_pasting(), data=st.data())
@settings(max_examples=40, deadline=None)
def test_make_subobject_reports_the_reference_witness_on_trees(blocks, data):
    poset = enumerate_contexts(from_greechie(blocks))
    _same_witness(poset, [data.draw(st.integers(0, f)) for f in poset._full])


def test_make_subobject_shape_errors_match_the_reference(boolean3_poset):
    poset = boolean3_poset
    good = {c.id: "1" for c in poset.contexts}
    for family in ({"p|q|r": "p"}, dict(good, **{"p+q|r": "p"}),
                   dict(good, **{"p|q|r": "nope"}), {0: "1", "p+q|r": "p+q"},
                   dict(good, **{"p|nope": "1"})):
        assert _outcome(make_subobject, poset, family) \
            == _outcome(_make_subobject_ref, poset, family)


# -- the SpectrumPoint contract ---------------------------------------------------


def _fast_points(poset):
    top = max(range(len(poset.contexts)),
              key=lambda i: len(poset.contexts[i].atoms))
    pts = spectrum(poset, top)
    return [*pts, restrict(poset, pts[0], poset._below[top][0]),
            *daseinise(poset, poset.structure.one).points_at(top)]


def test_fast_points_keep_the_dataclass_contract(boolean3_poset):
    for pt in _fast_points(boolean3_poset):
        ref = SpectrumPoint(pt.context_id, pt.atom, pt.label)
        assert pt == ref and ref == pt and not pt != ref
        assert hash(pt) == hash(ref)
        assert repr(pt) == repr(ref) == (
            f"SpectrumPoint(context_id={pt.context_id!r}, atom={pt.atom!r}, "
            f"label={pt.label!r})")
        assert [f.name for f in dataclasses.fields(pt)] \
            == ["context_id", "atom", "label"]
        assert dataclasses.asdict(pt) == dataclasses.asdict(ref) \
            == {"context_id": pt.context_id, "atom": pt.atom, "label": pt.label}
        moved = dataclasses.replace(pt, label="x")
        assert moved == SpectrumPoint(pt.context_id, pt.atom, "x")
        assert pt != moved
        with pytest.raises(dataclasses.FrozenInstanceError):
            pt.atom = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            del pt.label
        assert pt == ref   # unchanged by the refused writes
        for twin in (copy.copy(pt), copy.deepcopy(pt)):
            assert twin == pt and hash(twin) == hash(pt)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(pt, protocol))
            assert type(back) is SpectrumPoint and back == pt
            assert repr(back) == repr(pt)
        assert {pt: 1}[ref] == 1


def test_fast_points_compare_unequal_to_other_points(boolean3_poset):
    pts = spectrum(boolean3_poset, "p|q|r")
    assert len(set(pts)) == 3
    assert pts[0] != (pts[0].context_id, pts[0].atom, pts[0].label)
    assert pts[0] != SpectrumPoint(pts[0].context_id, pts[1].atom, pts[0].label)


# -- context lookup ---------------------------------------------------------------


@pytest.mark.parametrize("bad", [True, False, [1], 1.0, None, b"p|q|r", (0,)])
def test_index_refuses_what_is_neither_an_id_nor_an_index(boolean3_poset, bad):
    with pytest.raises(UsageError) as info:
        boolean3_poset.index(bad)
    assert str(info.value) == (f"context {bad!r} is neither a Context, an id "
                               f"nor an index")
    with pytest.raises(UsageError):
        spectrum(boolean3_poset, bad)


def test_index_accepts_ids_indices_and_contexts(boolean3_poset):
    poset = boolean3_poset
    for i, c in enumerate(poset.contexts):
        assert poset.index(i) == poset.index(c.id) == poset.index(c) == i
    with pytest.raises(UsageError, match="context index -1 out of range"):
        poset.index(-1)
    with pytest.raises(UsageError, match="unknown context 'p'"):
        poset.index("p")

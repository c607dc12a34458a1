"""Spans, quotients and sub-set complexes share one store with C(X): a
differential equal to one already reduced in the family reuses its
reduction and homology data, and the differential between two components
kept whole is the ambient's own object.  Each is checked against the same
complex rebuilt on the blocks of the ambient's differentials, sharing
nothing, and the sub-set complex selected from C(X) against the complex
`build_complex` assembles for the sub-set."""

import gc
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import dirhom as dh
from dirhom import cubechain as cc
from dirhom.cubechain import GradedComplex, PairGradedComplex, build_complex
from dirhom.exactla import PrimeField, QQ
from dirhom.exactseq import (
    QuotientComplex, _LeftQuotient, _SubsetComplex, les_relative, mayer_vietoris,
)
from dirhom.ez import kunneth_report
from dirhom.homology import HomologyTable, _homology_at, homology_of
from dirhom.precubical import SubsetSpec, sub
from dirhom.scalars import SubcomplexExtension, extend_subcomplex

from conftest import make_domino
from test_cli_reference import columns, make_grid3


def make_strip(n: int):
    """A 1 x n strip of squares, a path of n edges times the segment, with
    the face closures of its two halves (the benchmark's strip4 and strip6)."""
    tx = dh.tensor(dh.realization([1] * n), dh.segment())
    x = dh.PrecubicalSet(f"strip{n}", tx.cells, tx.faces)
    return x, columns(tx, x, 0, n // 2), columns(tx, x, n // 2, n)


def corpus():
    """(X, Y1, Y2): the relative pairs D3/S2 and D4/S3, and the covers of
    the domino, strip4, strip6 and grid3."""
    cases = [(name, x, y, y) for name, x, y in [
        ("D3/S2", dh.directed_disc(3), dh.directed_sphere(2).all_cells()),
        ("D4/S3", dh.directed_disc(4), dh.directed_sphere(3).all_cells())]]
    dom = make_domino()
    cases += [("domino", dom, dh.face_closure(dom, ["s1"]), dh.face_closure(dom, ["s2"])),
              ("strip4", *make_strip(4)), ("strip6", *make_strip(6)), ("grid3", *make_grid3())]
    return [pytest.param(x, frozenset(y1), frozenset(y2), id=name) for name, x, y1, y2 in cases]


def subcomplexes(x, y1, y2, field) -> dict:
    """Every kind of basis subcomplex a verb builds on C(X): the spans of Y1,
    Y2 and their meet, both quotients, the left quotient, whose ambient is
    a span, C(Y1) and C(Y2) selected from C(X), and the span of the meet in
    C(Y1), whose ambient is a selection."""
    cx = build_complex(x, None, field)
    span1, span2, span12 = (extend_subcomplex(cx, y) for y in (y1, y2, y1 & y2))
    view1, view2 = (_SubsetComplex(cx, sub(x, SubsetSpec(x, y))[0]) for y in (y1, y2))
    return {"span1": span1, "span2": span2, "span12": span12,
            "quotient1": QuotientComplex(cx, span1), "quotient2": QuotientComplex(cx, span2),
            "left": _LeftQuotient(span1, span12, field), "view1": view1, "view2": view2,
            "span12 in view1": extend_subcomplex(view1, y1 & y2)}


def unshared(sc) -> GradedComplex:
    """sc rebuilt as a plain complex on the blocks of its ambient's
    differentials: it shares nothing, and computes everything afresh."""
    diffs = {(i, pair): sc.ambient.diff(i, pair).block(sc.kept.get((i - 1, pair), ()), cols)
             for (i, pair), cols in sc.kept.items() if i >= 1}
    return GradedComplex(sc.field, sc.top_degree, {k: len(v) for k, v in sc.kept.items()},
                         diffs)


def whole(sc, i: int, pair) -> bool:
    """Whether sc keeps every basis element of its ambient's (i, pair) component."""
    return sc.kept.get((i, pair), []) == list(range(sc.ambient.dim(i, pair)))


def assert_shares_equal_differentials(sc) -> Counter:
    """At every component of the ambient, sc's differential, reduction and
    homology equal those of `unshared(sc)`, representatives, quotient, free
    columns and boundary rows included.  The differential is the ambient's
    own object exactly where both of its components are whole; the
    reduction is the ambient's own wherever the two differentials are
    equal, and the homology data wherever d_i and d_(i+1) both are.
    Returns how many differentials were equal to the ambient's and how many
    were sc's own."""
    fresh, seen = unshared(sc), Counter()
    amb = sc.ambient
    for pair in amb.pairs():
        for i in range(amb.top_degree + 2):
            assert sc.diff(i, pair) == fresh.diff(i, pair)
            assert sc.reduction(i, pair) == fresh.reduction(i, pair)
            if i >= 1 and (i, pair) in sc.kept:
                edge = whole(sc, i - 1, pair) and whole(sc, i, pair)
                assert (sc.diff(i, pair) is amb.diff(i, pair)) == edge
            equal = sc.diff(i, pair) == amb.diff(i, pair)
            if equal:
                assert sc.reduction(i, pair) is amb.reduction(i, pair)
            seen["equal" if equal else "own"] += 1
            h = _homology_at(sc, i, pair)
            if not sc.dim(i, pair):
                assert h is None
                continue
            ref = homology_of(fresh, i, pair)
            assert (h.degree, h.pair, h.dim, h.rep_columns, h.quotient, h.free,
                    h.boundary_rows) == (ref.degree, ref.pair, ref.dim, ref.rep_columns,
                                         ref.quotient, ref.free, ref.boundary_rows)
            if equal and sc.diff(i + 1, pair) == amb.diff(i + 1, pair):
                ha = _homology_at(amb, i, pair)
                assert h.cycles is ha.cycles and h.quotient is ha.quotient
    return seen


def assert_selection_is_the_assembled_complex(cx: PairGradedComplex, y) -> None:
    """C(Y) selected from C(X) is `build_complex(y)`: the same keys, bases
    (the chains of C(X) lying in Y, in their order), differentials, top
    degree and homology table, with equal dimensions and equal left and
    right action matrices for every edge of Y."""
    view, own = _SubsetComplex(cx, y), build_complex(y, None, cx.field)
    cells = frozenset(y.all_cells())
    lying = {k: kept for k, chains in cx.bases.items()
             if (kept := [c for c in chains if {c.src, *c.cubes} <= cells])}
    assert view.x is y
    assert view.bases == own.bases == lying
    assert all(kept == sorted(kept) for kept in view.kept.values())
    assert view.top_degree == own.top_degree
    assert view.pairs() == own.pairs()
    assert view.components_with_chains == own.components_with_chains
    for i, s, e in own.bases:
        assert view.diff(i, (s, e)) == own.diff(i, (s, e))
    tv, to = HomologyTable(view, y), HomologyTable(own, y)
    vertices = y.cells_of_dim(0)
    for i in range(own.top_degree + 1):
        assert ([tv.dim(i, s, e) for s in vertices for e in vertices]
                == [to.dim(i, s, e) for s in vertices for e in vertices])
        for a in y.cells_of_dim(1):
            for v in vertices:
                at = (a, i, y.edge_target(a), v)
                assert tv.left_action(*at) == to.left_action(*at)
                at = (a, i, v, y.edge_source(a))
                assert tv.right_action(*at) == to.right_action(*at)


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "F7"])
@pytest.mark.parametrize("x,y1,y2", corpus())
def test_corpus_shares_equal_differentials(x, y1, y2, field):
    seen = Counter()
    for sc in subcomplexes(x, y1, y2, field).values():
        seen += assert_shares_equal_differentials(sc)
    assert seen["equal"] and seen["own"]


@pytest.mark.parametrize("x,y1,y2", corpus())
def test_corpus_selections_are_the_assembled_complexes(x, y1, y2):
    cx = build_complex(x)
    for y in (y1, y2, y1 & y2):
        assert_selection_is_the_assembled_complex(cx, sub(x, SubsetSpec(x, y))[0])


def grid(name: str, *factors) -> dh.PrecubicalSet:
    """The tensor product of the factors, as a plain set."""
    tx = factors[0]
    for f in factors[1:]:
        tx = dh.tensor(tx, f)
    return dh.PrecubicalSet(name, tx.cells, tx.faces)


def path(n: int):
    return dh.realization([1] * n)


GRIDS = [grid("1x2", path(1), path(2)), grid("2x2", path(2), path(2)),
         grid("2x3", path(2), path(3)), grid("1x1x2", path(1), path(1), path(2))]


def draw_subsets(data):
    """A small grid, two face-closed subsets of it and a field, Q or F_7."""
    x = data.draw(st.sampled_from(GRIDS))
    cells = sorted(x.all_cells())
    y1, y2 = (dh.face_closure(x, data.draw(st.lists(st.sampled_from(cells), max_size=4)))
              for _ in range(2))
    return x, y1, y2, data.draw(st.sampled_from([QQ, PrimeField(7)]))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_random_subsets_share_equal_differentials(data):
    x, y1, y2, field = draw_subsets(data)
    complexes = subcomplexes(x, y1, y2, field)
    for sc in complexes.values():
        assert_shares_equal_differentials(sc)
    assert_selection_is_the_assembled_complex(complexes["span1"].ambient,
                                              complexes["view1"].x)


def run_sequence(x, y1, y2):
    """`les_relative(X, Y1)` when Y1 = Y2, else `mayer_vietoris(X, Y1, Y2)`:
    the sequence is built and verified exact, or for a cover that is not
    good (grid3's) left out."""
    if y1 == y2:
        res = les_relative(x, SubsetSpec(x, y1))
        assert res.sequence.all_exact and res.extension_commutes
    else:
        res = mayer_vietoris(x, SubsetSpec(x, y1), SubsetSpec(x, y2))
        assert res.sequence.all_exact if res.cover.good else res.sequence is None


@pytest.mark.parametrize("x,y1,y2", [p for p in corpus() if p.id != "D3/S2"])
def test_sequences_reduce_each_distinct_differential_once(x, y1, y2, monkeypatch):
    """Over all the complexes `les_relative(D4, S3)`, or `mayer_vietoris` on
    a cover, builds, `column_reduction` runs once per distinct differential
    and `homology_from_reductions` once per distinct pair (d_i, d_(i+1))."""
    built, reduced, read, asking = [], [], [], []
    real_init, real_data = GradedComplex.__init__, GradedComplex.homology_data
    real_reduce, real_read = cc.column_reduction, cc.homology_from_reductions

    def init(cx, *args):
        built.append(cx)
        real_init(cx, *args)

    def data(cx, i, pair):
        asking.append((cx.diff(i, pair), cx.diff(i + 1, pair)))
        try:
            return real_data(cx, i, pair)
        finally:
            asking.pop()

    monkeypatch.setattr(GradedComplex, "__init__", init)
    monkeypatch.setattr(GradedComplex, "homology_data", data)
    monkeypatch.setattr(cc, "column_reduction", lambda m: reduced.append(m) or real_reduce(m))
    monkeypatch.setattr(cc, "homology_from_reductions",
                        lambda *a: read.append(asking[-1]) or real_read(*a))
    run_sequence(x, y1, y2)
    assert {QuotientComplex, _SubsetComplex} <= {type(cx) for cx in built}
    diffs = {cx.diff(i, pair) for cx in built
             for pair in cx.pairs() for i in range(cx.top_degree + 2)}
    assert reduced and len(reduced) == len(set(reduced)) and set(reduced) <= diffs
    assert read and len(read) == len(set(read))


def test_no_complex_outlives_a_library_call(monkeypatch):
    """Every complex built by `les_relative(D4, S3)`, `mayer_vietoris` on the
    domino or `kunneth_report(D2, D2)`, and so the store its family holds,
    is gone once the call has returned and the collector has run."""
    refs = []
    real_init = GradedComplex.__init__

    def init(cx, *args):
        refs.append(weakref.ref(cx))
        real_init(cx, *args)

    monkeypatch.setattr(GradedComplex, "__init__", init)
    d4, d2, dom = dh.directed_disc(4), dh.directed_disc(2), make_domino()
    s3 = frozenset(dh.directed_sphere(3).all_cells())
    halves = [frozenset(dh.face_closure(dom, [c])) for c in ("s1", "s2")]
    for call in (lambda: run_sequence(d4, s3, s3), lambda: run_sequence(dom, *halves),
                 lambda: kunneth_report(d2, d2).identity_holds):
        refs.clear()
        call()
        gc.collect()
        assert len(refs) >= 3 and not [r for r in refs if r() is not None]


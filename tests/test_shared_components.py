"""Spans, quotients and sub-set complexes share what they keep whole of
their ambient: the differential, its reduction and the homology of a whole
component are the ambient's own objects.  Each is checked against the
same complex rebuilt on the blocks of the ambient's differentials, sharing
nothing, and the sub-set complex selected from C(X) against the complex
`build_complex` assembles for the sub-set."""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import dirhom as dh
from dirhom.cubechain import GradedComplex, PairGradedComplex, build_complex
from dirhom.exactla import PrimeField, QQ
from dirhom.exactseq import QuotientComplex, _LeftQuotient, _SubsetComplex, les_relative
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


def assert_shares_only_whole_components(sc) -> Counter:
    """At every component of the ambient, sc's differential, reduction and
    homology equal those of `unshared(sc)`, representatives, quotient, free
    columns and boundary rows included; they are the ambient's own objects
    exactly where the components they rest on are whole.  Returns how many
    homology components were shared and how many computed."""
    fresh, seen = unshared(sc), Counter()
    amb = sc.ambient
    for pair in amb.pairs():
        for i in range(amb.top_degree + 2):
            assert sc.shares(pair, i) == whole(sc, i, pair)
            assert sc.diff(i, pair) == fresh.diff(i, pair)
            assert sc.reduction(i, pair) == fresh.reduction(i, pair)
            edge = whole(sc, i - 1, pair) and whole(sc, i, pair)
            assert (sc.reduction(i, pair) is amb.reduction(i, pair)) == edge
            if i >= 1 and (i, pair) in sc.kept:
                assert (sc.diff(i, pair) is amb.diff(i, pair)) == edge
            h = _homology_at(sc, i, pair)
            if not sc.dim(i, pair):
                assert h is None
                continue
            ref = homology_of(fresh, i, pair)
            assert (h.degree, h.pair, h.dim, h.rep_columns, h.quotient, h.free,
                    h.boundary_rows) == (ref.degree, ref.pair, ref.dim, ref.rep_columns,
                                         ref.quotient, ref.free, ref.boundary_rows)
            shared = edge and whole(sc, i + 1, pair)
            assert (h is _homology_at(amb, i, pair)) == shared
            seen["shared" if shared else "computed"] += 1
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
def test_corpus_shares_only_whole_components(x, y1, y2, field):
    seen = Counter()
    for sc in subcomplexes(x, y1, y2, field).values():
        seen += assert_shares_only_whole_components(sc)
    assert seen["shared"] and seen["computed"]


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
def test_random_subsets_share_only_whole_components(data):
    x, y1, y2, field = draw_subsets(data)
    complexes = subcomplexes(x, y1, y2, field)
    for sc in complexes.values():
        assert_shares_only_whole_components(sc)
    assert_selection_is_the_assembled_complex(complexes["span1"].ambient,
                                              complexes["view1"].x)


def test_relative_sequence_computes_only_unshared_homology(monkeypatch):
    """`les_relative(D4, S3)` computes the homology of C(X) at most once per
    component, and of its span, quotient and C(Y) only at the components
    they do not share with C(X)."""
    import dirhom.homology as H
    calls = []
    real = H.homology_of
    monkeypatch.setattr(H, "homology_of",
                        lambda c, i, pair: calls.append((c, i, pair)) or real(c, i, pair))
    d4 = dh.directed_disc(4)
    res = les_relative(d4, SubsetSpec(d4, frozenset(dh.directed_sphere(3).all_cells())))
    assert res.sequence.all_exact and res.extension_commutes
    cx = next(c for c, _, _ in calls if type(c) is PairGradedComplex)
    assert len({(id(c), i, pair) for c, i, pair in calls}) == len(calls)
    built = {id(c): c for c, _, _ in calls if c is not cx}
    assert {type(c) for c in built.values()} <= {QuotientComplex, _SubsetComplex,
                                                 SubcomplexExtension}
    assert not any(c.shares(pair, i - 1, i, i + 1) for c, i, pair in calls if c is not cx)
    unshared_components = sum(not c.shares(pair, i - 1, i, i + 1)
                              for c in built.values() for i, pair in c.components_with_chains)
    assert len(calls) <= len(cx.components_with_chains) + unshared_components
    # every complex but C(X) computes a small part of its components
    assert unshared_components * 4 < sum(len(c.components_with_chains) for c in built.values())

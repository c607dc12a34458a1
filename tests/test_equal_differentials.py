"""Components with equal differentials share their reduction and homology.

A complex numbers its distinct stored differentials by content
(`GradedComplex.diff_key`), reduces each distinct one once, and reads the
homology off each distinct pair (d_i, d_(i+1)) once
(`GradedComplex.homology_data`).  Every component's homology is checked
against a fresh, unshared `homology_from_reductions` of fresh column
reductions, on the corpus, on random sub-sets of small grids, on tensor
complexes and on the spans and quotients of the exact sequences; and every
shared object is checked again after the CLI verbs have run on it."""

import json
from collections import Counter

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import dirhom as dh
from dirhom import cubechain as cc
from dirhom.cli import main
from dirhom.cubechain import GradedComplex, build_complex
from dirhom.exactla import PrimeField, QQ, column_reduction, homology_from_reductions
from dirhom.ez import TensorSetting
from dirhom.homology import HomologyTable, _homology_at, homology_of
from dirhom.precubical import SubsetSpec, sub

from conftest import make_domino
from test_cli_reference import make_grid3
from test_shared_components import draw_subsets, make_strip, subcomplexes, corpus as covers

FIELDS = pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "F7"])


def sets():
    """The corpus: discs, spheres, realizations, the domino, strip4, strip6 and grid3."""
    return [("D2", dh.directed_disc(2)), ("D3", dh.directed_disc(3)),
            ("D4", dh.directed_disc(4)), ("S1", dh.directed_sphere(1)),
            ("S2", dh.directed_sphere(2)), ("S3", dh.directed_sphere(3)),
            ("r33", dh.realization([3, 3])), ("r212", dh.realization([2, 1, 2])),
            ("domino", make_domino()), ("strip4", make_strip(4)[0]),
            ("strip6", make_strip(6)[0]), ("grid3", make_grid3()[0])]


def fresh(cx, i: int, pair) -> tuple:
    """The homology of one component from fresh column reductions of d_i
    and d_(i+1), sharing nothing, with the cycles as (length, basis)."""
    cycles, reps, rows, free, classes = homology_from_reductions(
        column_reduction(cx.diff(i, pair)), column_reduction(cx.diff(i + 1, pair)),
        cx.field, cx.dim(i, pair))
    return (cycles.ambient_dim, cycles.basis), reps, rows, free, classes


def fields_of(h) -> tuple:
    """A `PairHomology`'s data in the order of `fresh`."""
    return ((h.cycles.ambient_dim, h.cycles.basis), h.rep_columns, h.boundary_rows, h.free,
            h.quotient)


def assert_matches_fresh(cx) -> Counter:
    """On every component with chains, the homology `homology_of` builds and
    the one the complex keeps (`_homology_at`) are the component's own and
    equal a fresh unshared computation: representatives, cycle basis,
    boundary rows, free map and quotient; and the reductions of d_i and
    d_(i+1) equal fresh ones.  Components with one `diff_key` have equal
    differentials.  Returns how many components computed their homology
    data and how many shared it with an earlier one."""
    seen, keys, by_key = Counter(), set(), {}
    for i, pair in cx.components_with_chains:
        ref = fresh(cx, i, pair)
        for h in (homology_of(cx, i, pair), _homology_at(cx, i, pair)):
            assert (h.degree, h.pair, h.dim) == (i, pair, len(ref[1]))
            assert fields_of(h) == ref
        for j in (i, i + 1):
            assert cx.reduction(j, pair) == column_reduction(cx.diff(j, pair))
            assert by_key.setdefault(cx.diff_key(j, pair), cx.diff(j, pair)) == cx.diff(j, pair)
        key = (cx.diff_key(i, pair), cx.diff_key(i + 1, pair))
        seen["shared" if key in keys else "computed"] += 1
        keys.add(key)
    return seen


@FIELDS
@pytest.mark.parametrize("name,x", sets(), ids=[name for name, _ in sets()])
def test_corpus_components_match_fresh_homology(name, x, field):
    cx = build_complex(x, None, field)
    seen = assert_matches_fresh(cx)
    assert seen["computed"] and seen["shared"]
    # distinct stored differentials the complex reduces get distinct numbers
    assert len(set(cx._numbers.values())) == len(set(cx._diffs.values()))
    HomologyTable(cx, x)    # and the edge actions are chain maps on the shared data


@FIELDS
@pytest.mark.parametrize("x,y1,y2", covers())
def test_spans_and_quotients_match_fresh_homology(x, y1, y2, field):
    for sc in subcomplexes(x, y1, y2, field).values():
        assert_matches_fresh(sc)


@pytest.mark.parametrize("x,y", [("D2", "D3"), ("S1", "D2"), ("D2", "S2")])
def test_tensor_complexes_match_fresh_homology(x, y):
    setting = TensorSetting.build(*(dict(sets())[n] for n in (x, y)))
    for cx in (setting.tc, setting.cxp):
        assert assert_matches_fresh(cx)["shared"]


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_random_subsets_match_fresh_homology(data):
    x, y1, y2, field = draw_subsets(data)
    assert_matches_fresh(build_complex(sub(x, SubsetSpec(x, y1))[0], None, field))
    for sc in subcomplexes(x, y1, y2, field).values():
        assert_matches_fresh(sc)


def test_d4_reduces_each_distinct_differential_once(monkeypatch):
    """The table of D4 reduces each distinct differential once and reads
    homology 10 times for its 124 components with chains."""
    reduced, read = [], Counter()
    real_reduce, real_read = cc.column_reduction, cc.homology_from_reductions
    monkeypatch.setattr(cc, "column_reduction", lambda m: reduced.append(m) or real_reduce(m))
    monkeypatch.setattr(cc, "homology_from_reductions",
                        lambda *a: read.update(["read"]) or real_read(*a))
    d4 = dh.directed_disc(4)
    cx = build_complex(d4)
    table = HomologyTable(cx, d4)
    asked = {cx.diff(j, pair) for i, pair in cx.components_with_chains for j in (i, i + 1)}
    assert len(cx.components_with_chains) == len(table.entries) == 124
    assert len(reduced) == len(set(reduced)) == len(asked) == len(cx._reductions)
    assert read["read"] == len(cx._homology_data) == 10
    # components with the same two differentials hold the same data
    held = {}
    for h in table.entries.values():
        first = held.setdefault((cx.diff_key(h.degree, h.pair),
                                 cx.diff_key(h.degree + 1, h.pair)), h)
        assert h.cycles is first.cycles and h.quotient is first.quotient


def assert_unchanged(cx: GradedComplex) -> int:
    """Every reduction and homology datum cx keeps equals a fresh
    recomputation from its differentials, as does every `PairHomology` it
    keeps; returns how many were checked."""
    checked = 0
    for pair in cx.pairs():
        for i in range(cx.top_degree + 2):
            r = cx._reductions.get(cx.diff_key(i, pair))
            if r is not None:
                assert r == column_reduction(cx.diff(i, pair))
                checked += 1
            if not cx.dim(i, pair):
                continue
            data = cx._homology_data.get((cx.diff_key(i, pair), cx.diff_key(i + 1, pair)))
            if data is not None:
                cycles, *rest = data
                assert ((cycles.ambient_dim, cycles.basis), *rest) == fresh(cx, i, pair)
                checked += 1
            h = cx._homology.get((i, pair))
            if h is not None:
                assert fields_of(h) == fresh(cx, i, pair)
                checked += 1
    return checked


def test_verbs_leave_every_shared_object_as_computed(tmp_path, monkeypatch):
    """After `homology --actions`, `relative`, `mv` and `kunneth` have read
    and pushed through the shared reductions and homology of every complex
    they built, each still equals a fresh recomputation."""
    built = []
    real_init = GradedComplex.__init__

    def recorded(cx, *args, **kwargs):
        built.append(cx)
        real_init(cx, *args, **kwargs)

    monkeypatch.setattr(GradedComplex, "__init__", recorded)
    dom, d4 = make_domino(), dh.directed_disc(4)
    files = {}
    for name, x in [("d2", dh.directed_disc(2)), ("d4", d4), ("domino", dom)]:
        dh.save(x, tmp_path / f"{name}.json")
        files[name] = str(tmp_path / f"{name}.json")
    for name, cells in [("s3", dh.directed_sphere(3).all_cells()),
                        ("left", dh.face_closure(dom, ["s1"])),
                        ("right", dh.face_closure(dom, ["s2"]))]:
        (tmp_path / f"{name}.json").write_text(json.dumps(sorted(cells)))
        files[name] = str(tmp_path / f"{name}.json")
    runner = CliRunner()
    for args in (["homology", "--actions", "--format", "json", files["d4"]],
                 ["homology", "--actions", "--field", "fp:7", files["domino"]],
                 ["relative", files["d4"], files["s3"]],
                 ["mv", files["domino"], files["left"], files["right"]],
                 ["kunneth", files["d2"], files["d2"]]):
        result = runner.invoke(main, args, catch_exceptions=False)
        assert result.exit_code == 0, (args, result.output)
    kinds = Counter(type(cx).__name__ for cx in built)
    assert {"PairGradedComplex", "SubcomplexExtension", "QuotientComplex", "_SubsetComplex",
            "_LeftQuotient", "TensorComplex"} <= set(kinds)
    assert sum(map(assert_unchanged, built)) > 1000

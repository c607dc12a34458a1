import re
from collections import Counter

import pytest
from hypothesis import assume, given, settings, strategies as st

import dirhom as dh
from dirhom import cubechain, exactla
from dirhom.cubechain import (
    BasisSubcomplex, ChainError, DirectedCycleError, GradedComplex, build_complex,
)
from dirhom.exactla import Matrix, PrimeField, QQ, rank, solve
from dirhom.exactseq import (
    ExactnessError, QuotientComplex, SequenceError, ShortExactData, check_relative_pair,
    connecting_map, good_cover_check, les_relative, maximal_paths, mayer_vietoris,
    relative_complex, verify_exact, _check_cover, _Cover, _excision_map, _LeftQuotient,
    _Quotient, _span_positions,
)
from dirhom.homology import _homology_at, homology_of, push_basis_map
from dirhom.precubical import SubsetSpec, sub
from dirhom.scalars import extend_subcomplex, path_algebra

from conftest import make_domino
from oracles import (
    image_basis, induced_on_quotient, inclusion_matrix, projection, quotient_map,
)
from test_cli_reference import make_grid3, make_strip4, split_top_cell


@pytest.fixture(scope="module")
def sphere_spec(D2, S1):
    return SubsetSpec(D2, frozenset(S1.all_cells()))


def count_builds(monkeypatch) -> Counter:
    """Count calls of build_complex and of the span, quotient and sub-set
    complex constructors."""
    import dirhom.exactseq as es
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(es, "build_complex", counted("build", es.build_complex))
    for cls in (es.QuotientComplex, es._LeftQuotient, es.SubcomplexExtension, es._SubsetComplex):
        monkeypatch.setattr(cls, "__init__", counted(cls.__name__, cls.__init__))
    return calls


class TestMaximalPaths:
    def test_disc(self, D2):
        paths = maximal_paths(D2)
        assert len(paths) == 2
        for p in paths:
            assert p[0] == "00" and p[-1] == "11"

    def test_isolated_vertex(self):
        x = dh.PrecubicalSet("v", [["v"]], {})
        assert maximal_paths(x) == [["v"]]

    def test_walk_matches_the_degree_0_chains_and_builds_none(self, D3, S2):
        def grid(n):
            path = dh.realization([1] * n)
            tx = dh.tensor(path, path)
            return dh.PrecubicalSet(f"grid{n}", tx.cells, tx.faces)

        for x in (D3, S2, grid(3)):
            # oracle: source-to-sink chains of degree 0, sorted by edge sequence
            catalog = cubechain.chain_catalog(x)
            assert maximal_paths(x) == [
                [s] + [cell for a in cubes for cell in (a, x.edge_target(a))]
                for s in x.source_vertices()
                for cubes in sorted(c.cubes for t in x.sink_vertices()
                                    for c in catalog.get((0, s, t), ()))]
        g8 = grid(8)
        assert len(maximal_paths(g8)) == 12870
        assert not any(hit["ref"] is g8 for hit in cubechain._catalog_cache.values())

    def test_cyclic_set_raises(self):
        # a source vertex s leading into the 2-cycle a -> b -> a
        x = dh.PrecubicalSet("tail", [["s", "a", "b"], ["x", "y", "z"]],
                             {"x": (["s"], ["a"]), "y": (["a"], ["b"]), "z": (["b"], ["a"])})
        for paths in (maximal_paths, path_algebra):
            with pytest.raises(DirectedCycleError):
                paths(x)


class TestCheckRelativePair:
    def test_sphere_in_disc_accepted(self, D2, sphere_spec):
        rep = check_relative_pair(D2, sphere_spec)
        assert rep.accepted and rep.enter_exit_once and rep.monic

    def test_domino_right_square_accepted(self, domino):
        spec = SubsetSpec(domino, dh.face_closure(domino, ["s2"]))
        rep = check_relative_pair(domino, spec)
        assert rep.accepted

    def test_two_isolated_extremes_rejected(self, S1):
        # a path touches both vertices with a gap in between: two entries
        rep = check_relative_pair(S1, SubsetSpec(S1, frozenset(["00", "11"])))
        assert not rep.enter_exit_once
        assert rep.offending_path is not None
        assert not rep.monic
        assert not rep.accepted

    def test_two_outgoing_edges_accepted(self, S1):
        # closure of the two edges out of 00: every maximal path starts in
        # the selection and leaves it once, so the criterion holds and the
        # extension is monic
        sel = dh.face_closure(S1, [e for e in S1.edges
                                   if S1.edge_source(e) == "00"])
        rep = check_relative_pair(S1, SubsetSpec(S1, sel))
        assert rep.accepted

    def test_not_face_closed_rejected(self, D2):
        with pytest.raises(SequenceError):
            check_relative_pair(D2, SubsetSpec(D2, frozenset(["aa"])))


class TestRelativeComplex:
    def test_disc_mod_sphere_dims(self, D2, sphere_spec):
        quo = relative_complex(D2, sphere_spec)
        assert quo.dim(0, ("00", "11")) == 0
        assert quo.dim(1, ("00", "11")) == 1

    def test_x_mod_x_vanishes(self, D2):
        quo = relative_complex(D2, SubsetSpec(D2, frozenset(D2.all_cells())))
        for pair in quo.pairs():
            for i in range(quo.top_degree + 1):
                assert quo.dim(i, pair) == 0

    def test_far_vertex_changes_nothing(self, D2):
        quo = relative_complex(D2, SubsetSpec(D2, frozenset(["10"])))
        cx = build_complex(D2)
        # at pairs not passing through 10 the quotient equals the complex
        assert quo.dim(0, ("00", "01")) == cx.dim(0, ("00", "01"))
        assert quo.dim(0, ("01", "11")) == cx.dim(0, ("01", "11"))


def elimination_quotient(ambient, subspace):
    """The reference quotient of `ambient` by the subcomplex whose (degree,
    pair) component is ``subspace(i, pair)``, a general subspace: projections
    from `quotient_map`, differentials from `induced_on_quotient`."""
    keys = [(i, pair) for pair in ambient.pairs() for i in range(ambient.top_degree + 1)]
    subs = {k: subspace(*k) for k in keys}
    projections = {k: quotient_map(ambient.dim(*k), subs[k]) for k in keys}
    diffs = {(i, pair): induced_on_quotient(ambient.diff(i, pair), subs[(i, pair)],
                                            subs[(i - 1, pair)])
             for i, pair in keys if i >= 1}
    return projections, diffs


def assert_quotients_match_reference(x, y1, y2, field):
    """C(X) modulo the span of Y1, and the span of Y1 modulo that of Y1 ^ Y2,
    equal the elimination-based reference entry for entry."""
    cx = build_complex(x, None, field)
    span1 = extend_subcomplex(cx, y1)
    span12 = extend_subcomplex(cx, y1 & y2)
    cases = [(QuotientComplex(cx, span1), cx,
              lambda i, pair: image_basis(inclusion_matrix(span1, i, pair))),
             (_LeftQuotient(span1, span12, field), span1,
              lambda i, pair: image_basis(projection(span1, i, pair)
                                          @ inclusion_matrix(span12, i, pair)))]
    for quo, ambient, subspace in cases:
        projections, diffs = elimination_quotient(ambient, subspace)
        for (i, pair), prj in projections.items():
            assert projection(quo, i, pair) == prj
            assert quo.dim(i, pair) == prj.rows
            if i >= 1:
                assert quo.diff(i, pair) == diffs[(i, pair)]


def cover_cases():
    """(X, Y1, Y2): the relative pairs D3/S2 and D4/S3, both orders of the
    domino, strip4 and grid3 covers, and S2 and S3 split at one top cell,
    whose Mayer-Vietoris connecting maps have a nonzero domain."""
    cases = [pytest.param(x, y, y, id=name) for name, x, y in [
        ("D3/S2", dh.directed_disc(3), frozenset(dh.directed_sphere(2).all_cells())),
        ("D4/S3", dh.directed_disc(4), frozenset(dh.directed_sphere(3).all_cells()))]]
    dom = make_domino()
    for name, (x, left, right) in [
            ("domino", (dom, dh.face_closure(dom, ["s1"]), dh.face_closure(dom, ["s2"]))),
            ("strip4", make_strip4()), ("grid3", make_grid3())]:
        cases += [pytest.param(x, frozenset(left), frozenset(right), id=name),
                  pytest.param(x, frozenset(right), frozenset(left), id=name + "-reversed")]
    for name, x, cell in [("S2/0aa", dh.directed_sphere(2), "0aa"),
                          ("S3/0aaa", dh.directed_sphere(3), "0aaa")]:
        cases.append(pytest.param(x, *map(frozenset, split_top_cell(x, cell)), id=name))
    return cases


SMALL_SETS = [dh.directed_disc(2), dh.directed_disc(3), dh.directed_sphere(2),
              dh.realization([2, 2]), make_domino()]


def draw_cover(data):
    """A small set, two face-closed subsets of it and a field, Q or F_7."""
    x = data.draw(st.sampled_from(SMALL_SETS))
    cells = sorted(x.all_cells())
    y1, y2 = (dh.face_closure(x, data.draw(st.lists(st.sampled_from(cells), max_size=4)))
              for _ in range(2))
    return x, y1, y2, data.draw(st.sampled_from([QQ, PrimeField(7)]))


class TestBasisQuotients:
    """Quotients are basis complements: the same matrices as the
    general-subspace construction, built without any elimination."""

    @pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "F7"])
    @pytest.mark.parametrize("x,y1,y2", cover_cases())
    def test_corpus_matches_elimination(self, x, y1, y2, field):
        assert_quotients_match_reference(x, y1, y2, field)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_random_subsets_match_elimination(self, data):
        assert_quotients_match_reference(*draw_cover(data))

    @pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "F7"])
    @pytest.mark.parametrize("x,y1,y2", cover_cases())
    def test_differentials_are_the_ambient_ones_on_kept_elements(self, x, y1, y2, field):
        # read by re-indexing, they equal projection @ ambient diff @ inclusion
        cx = build_complex(x, None, field)
        span1 = extend_subcomplex(cx, y1)
        span12 = extend_subcomplex(cx, y1 & y2)
        for sc in (span1, span12, QuotientComplex(cx, span1), _LeftQuotient(span1, span12, field)):
            for i, pair in sc.kept:
                if i >= 1:
                    assert sc.diff(i, pair) == (projection(sc, i - 1, pair)
                                                @ sc.ambient.diff(i, pair)
                                                @ inclusion_matrix(sc, i, pair))

    def test_construction_multiplies_only_in_the_boundary_check(self, monkeypatch):
        # D4 has chains up to degree 3, so the d.d checks do multiply
        d4 = dh.directed_disc(4)
        cx = build_complex(d4)
        s3 = frozenset(dh.directed_sphere(3).all_cells())
        span1 = extend_subcomplex(cx, s3)
        span12 = extend_subcomplex(cx, s3 & dh.face_closure(d4, ["0aaa"]))
        calls = Counter()
        inside: list = []
        matmul, check = Matrix.__matmul__, GradedComplex.check_boundary_square

        def counted(a, b):
            calls["d.d" if inside else "outside"] += 1
            return matmul(a, b)

        def checked(self):
            inside.append(self)
            try:
                check(self)
            finally:
                inside.pop()

        monkeypatch.setattr(Matrix, "__matmul__", counted)
        monkeypatch.setattr(GradedComplex, "check_boundary_square", checked)
        QuotientComplex(cx, span1)
        _LeftQuotient(span1, span12, QQ)
        assert calls["outside"] == 0 and calls["d.d"] > 0

    def test_construction_eliminates_nothing(self, monkeypatch):
        x, left, right = make_strip4()
        cx = build_complex(x)
        span1 = extend_subcomplex(cx, left)
        span12 = extend_subcomplex(cx, frozenset(left) & frozenset(right))
        calls = Counter()
        lows = exactla._lows

        def counted(*args, **kwargs):
            calls["eliminate"] += 1
            return lows(*args, **kwargs)

        monkeypatch.setattr(exactla, "_lows", counted)
        QuotientComplex(cx, span1)
        _LeftQuotient(span1, span12, QQ)
        assert calls["eliminate"] == 0
        d = cx.diff(*next(k for k in cx.components_with_chains if k[0]))
        assert d.rows and d.cols
        rank(d)     # the counter does see elimination
        assert calls["eliminate"] == 1

    def test_chain_map_checks_reject_a_non_subcomplex(self, D2):
        cx = build_complex(D2)
        square = {(1, ("00", "11")): [0]}   # the square without its boundary paths
        # both reports name the square as the witness
        where = re.escape(
            f"is not a chain map at degree 1, pair ('00', '11'): witness "
            f"{cx.bases[(1, '00', '11')][0]!r}")
        with pytest.raises(ChainError, match="inclusion_positions " + where):
            sq = BasisSubcomplex(cx, square)
            sq.check_chain_map(sq.inclusion_positions, sq, cx)
        with pytest.raises(ChainError, match="projection_positions " + where):
            _Quotient(cx, square)


def solve_connecting(ses, include, i, pair, ha, hc):
    """The reference snake: lift the cycles along the projection and pull
    their boundary back along the inclusion, both by `solve`."""
    if not hc.dim:
        return Matrix.zeros(ses.b.field, ha.dim, 0)
    lift = solve(projection(ses.c, i, pair), hc.representatives)
    return ha.classes(solve(include(i - 1, pair), ses.b.diff(i, pair) @ lift))


def solve_excision(c, i, pair):
    """The reference excision map: lift along the left projection by `solve`,
    include in C(X) and project to C(X)/ext C(X2)."""
    lift = solve(projection(c.left, i, pair), homology_of(c.left, i, pair).representatives)
    return homology_of(c.quo2, i, pair).classes(
        projection(c.quo2, i, pair) @ (inclusion_matrix(c.span1, i, pair) @ lift))


def span_inclusion(inner, outer, i, pair):
    """The 0/1 matrix of the inclusion of one extension span in a larger one,
    in their kept coordinates."""
    return Matrix.unit_columns(outer.field, outer.dim(i, pair),
                               _span_positions(inner, outer, i, pair))


def split_cover(x, y1, y2, field):
    """The relative sequence of (X, Y1), the left column of the cover and the
    cover data of the excision map, built as the cover check builds them."""
    cx = build_complex(x, None, field)
    span1, span2, span12 = (extend_subcomplex(cx, y) for y in (y1, y2, y1 & y2))
    left, quo2 = _LeftQuotient(span1, span12, field), QuotientComplex(cx, span2)
    keys = [(i, pair) for pair in cx.pairs() for i in range(cx.top_degree + 1)]
    cover = _Cover(cx, span1, span2, span12, left, quo2, {})
    left.check_chain_map(cover.excision_positions, left, quo2)
    sequences = [(ShortExactData(span1, QuotientComplex(cx, span1)),
                  lambda i, pair: inclusion_matrix(span1, i, pair)),
                 (ShortExactData(span12, left),
                  lambda i, pair: span_inclusion(span12, span1, i, pair))]
    return keys, cover, sequences


def assert_blocks_match_solve(x, y1, y2, field):
    """The block-read connecting maps of both sequences and the composed
    excision map equal the solve-based formulas on every component."""
    keys, cover, sequences = split_cover(x, y1, y2, field)
    for ses, include in sequences:
        ses.verify()
        for i, pair in keys:
            if i:
                ha, hc = homology_of(ses.a, i - 1, pair), homology_of(ses.c, i, pair)
                assert connecting_map(ses, i, pair) == solve_connecting(ses, include, i, pair,
                                                                        ha, hc)
    for i, pair in keys:
        assert _excision_map(cover, i, pair) == solve_excision(cover, i, pair)


class TestSplitSequences:
    """Short sequences are basis splits: exactness is a partition check, the
    snake a block read and the excision map a basis map."""

    @pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "F7"])
    @pytest.mark.parametrize("x,y1,y2", cover_cases())
    def test_corpus_matches_solve(self, x, y1, y2, field):
        assert_blocks_match_solve(x, y1, y2, field)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_random_subsets_match_solve(self, data):
        assert_blocks_match_solve(*draw_cover(data))

    def test_overlapping_quotient_names_degree_pair_and_witness(self, D2, sphere_spec):
        cx = build_complex(D2)
        span = extend_subcomplex(cx, sphere_spec.selected)
        i, pair = min(k for k, kept in span.kept.items() if kept)
        with pytest.raises(SequenceError, match=re.escape(
                f"not short exact at degree {i}, pair {pair}: "
                f"{cx._basis_name(i, pair, span.kept[(i, pair)][0])} lies in both")):
            ShortExactData(span, _Quotient(cx, {})).verify()     # the quotient keeps all
        # a quotient by more than the subcomplex leaves chains in neither
        with pytest.raises(SequenceError, match="lies in neither"):
            ShortExactData(extend_subcomplex(cx, frozenset()), QuotientComplex(cx, span)).verify()

    def test_split_steps_eliminate_nothing(self, monkeypatch):
        d3, s2 = dh.directed_disc(3), frozenset(dh.directed_sphere(2).all_cells())
        keys, _, sequences = split_cover(d3, s2, s2, QQ)
        dom = make_domino()
        _, parts = _check_cover(dom, SubsetSpec(dom, dh.face_closure(dom, ["s1"])),
                                SubsetSpec(dom, dh.face_closure(dom, ["s2"])), QQ)
        snakes = [(ses, i, pair) for ses, _ in sequences for i, pair in keys if i]
        # pushing chains to homology eliminates once per homology component: do it first
        held = [(ses.a, i - 1, pair) for ses, i, pair in snakes]
        held += [(ses.c, i, pair) for ses, i, pair in snakes]
        held += [(c, *k) for c in (parts.left, parts.quo2) for k in c.components_with_chains]
        for h in filter(None, (_homology_at(*k) for k in held)):
            h.classes(Matrix.zeros(QQ, h.representatives.rows, 1))
        calls = Counter()
        lows = exactla._lows

        def counted(*args, **kwargs):
            calls["eliminate"] += 1
            return lows(*args, **kwargs)

        monkeypatch.setattr(exactla, "_lows", counted)
        for ses, _ in sequences:
            ses.verify()
        deltas = [connecting_map(*snake) for snake in snakes]
        for k in parts.excision:
            _excision_map(parts, *k)
        nonzero = [d for d in deltas if not d.is_zero()]
        assert calls["eliminate"] == 0 and nonzero
        rank(nonzero[0])     # the counter does see elimination
        assert calls["eliminate"] == 1


def assert_pushes_match_products(x, y1, y2, field) -> Counter:
    """Each basis map of the sequences, pushed by its signed positions,
    equals the product push ``dst.classes(M @ src.representatives)`` of its
    0/1 matrix M, built here from `Matrix.unit_columns`, on every component.
    The push gets homology as the complexes keep it (`_homology_at`), None
    for a component without chains; the product takes `homology_of`
    everywhere.
    Returns how many pushes had classes to push, none, or a side without chains."""
    cx = build_complex(x, None, field)
    span1, span2, span12 = (extend_subcomplex(cx, y) for y in (y1, y2, y1 & y2))
    left, quo1, quo2 = (_LeftQuotient(span1, span12, field), QuotientComplex(cx, span1),
                        QuotientComplex(cx, span2))
    cover = _Cover(cx, span1, span2, span12, left, quo2, {})

    def span_in(outer):
        return (lambda i, pair: (_span_positions(span12, outer, i, pair), ()),
                lambda i, pair: projection(outer, i, pair) @ inclusion_matrix(span12, i, pair))

    # (source, target, positions, oracle matrix)
    maps = [(span1, cx, span1.inclusion_positions,
             lambda i, pair: inclusion_matrix(span1, i, pair)),
            (cx, quo1, quo1.projection_positions, lambda i, pair: projection(quo1, i, pair)),
            (span12, span1, *span_in(span1)), (span12, span2, *span_in(span2)),
            (left, quo2, cover.excision_positions,
             lambda i, pair: (projection(quo2, i, pair) @ inclusion_matrix(span1, i, pair)
                              @ inclusion_matrix(left, i, pair)))]
    seen: Counter = Counter()
    for src, dst, positions, matrix in maps:
        for i, pair in ((i, pair) for pair in cx.pairs() for i in range(cx.top_degree + 1)):
            k, a, b = (i, pair), homology_of(src, i, pair), homology_of(dst, i, pair)
            hs, hd = _homology_at(src, *k), _homology_at(dst, *k)
            assert (push_basis_map(lambda: positions(*k), hs, hd, cx._zero)
                    == b.classes(matrix(*k) @ a.representatives))
            seen["no chains" if hs is None or hd is None else
                 "classes" if a.dim else "no classes"] += 1
    return seen


class TestBasisMapPushes:
    """The one push of the sequences' basis maps against the product of
    their 0/1 matrices."""

    @pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "F7"])
    @pytest.mark.parametrize("x,y1,y2", cover_cases())
    def test_corpus_matches_the_product(self, x, y1, y2, field):
        seen = assert_pushes_match_products(x, y1, y2, field)
        assert seen["classes"] and seen["no classes"] and seen["no chains"]

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_random_subsets_match_the_product(self, data):
        assert_pushes_match_products(*draw_cover(data))

    def test_sequences_build_no_0_1_matrix(self, D3, S2, monkeypatch):
        calls: Counter = Counter()
        units = Matrix.unit_columns
        monkeypatch.setattr(Matrix, "unit_columns",
                            classmethod(lambda cls, *a: calls.update(["unit"]) or units(*a)))
        dom = make_domino()
        assert les_relative(D3, SubsetSpec(D3, frozenset(S2.all_cells()))).sequence.all_exact
        assert mayer_vietoris(dom, SubsetSpec(dom, dh.face_closure(dom, ["s1"])),
                              SubsetSpec(dom, dh.face_closure(dom, ["s2"]))).sequence.all_exact
        assert not calls
        # the counter is live
        span = extend_subcomplex(build_complex(D3), frozenset(S2.all_cells()))
        inclusion_matrix(span, *span.components_with_chains[0])
        assert calls == Counter(unit=1)


class TestConnectingMap:
    def test_disc_sphere_connecting_injective(self, D2, sphere_spec):
        cx = build_complex(D2)
        span = extend_subcomplex(cx, sphere_spec.selected)
        quo = QuotientComplex(cx, span)
        ses = ShortExactData(span, quo)
        pair = ("00", "11")
        delta = connecting_map(ses, 1, pair)
        assert delta.cols == 1 and delta.rows == 2
        assert rank(delta) == 1

    def test_zero_subcomplex_zero_map(self, D2):
        cx = build_complex(D2)
        span = extend_subcomplex(cx, frozenset())
        quo = QuotientComplex(cx, span)
        ses = ShortExactData(span, quo)
        pair = ("00", "11")
        delta = connecting_map(ses, 1, pair)
        assert delta.rows == 0

    def test_zero_quotient_nothing_to_do(self, D2):
        cx = build_complex(D2)
        span = extend_subcomplex(cx, frozenset(D2.all_cells()))
        quo = QuotientComplex(cx, span)
        ses = ShortExactData(span, quo)
        pair = ("00", "11")
        hc = homology_of(quo, 1, pair)
        assert hc.dim == 0


class TestLesRelative:
    def test_disc_sphere_values_and_exactness(self, D2, sphere_spec):
        res = les_relative(D2, sphere_spec)
        pair = ("00", "11")
        assert res.x_table[(0, pair)] == 1
        assert res.ext_table[(0, pair)] == 2
        assert res.rel_table[(0, pair)] == 0
        assert res.rel_table[(1, pair)] == 1
        assert res.sequence.all_exact
        assert res.extension_commutes

    def test_alternating_sums_vanish(self, D2, domino, sphere_spec):
        cases = [(D2, sphere_spec),
                 (domino, SubsetSpec(domino, dh.face_closure(domino, ["s2"])))]
        for x, spec in cases:
            res = les_relative(x, spec)
            top = max(i for (i, _) in res.x_table)
            for pair in {p for (_, p) in res.x_table}:
                total = 0
                for i in range(top + 1):
                    total += (-1) ** i * (res.rel_table.get((i, pair), 0)
                                          - res.x_table.get((i, pair), 0)
                                          + res.ext_table.get((i, pair), 0))
                assert total == 0

    def test_x_mod_x_collapses(self, D2):
        res = les_relative(D2, SubsetSpec(D2, frozenset(D2.all_cells())))
        assert all(v == 0 for v in res.rel_table.values())
        assert res.sequence.all_exact

    def test_domino_exact_everywhere(self, domino):
        spec = SubsetSpec(domino, dh.face_closure(domino, ["s2"]))
        res = les_relative(domino, spec)
        assert res.sequence.all_exact

    def test_builds_y_once(self, D3, S2, monkeypatch):
        monkeypatch.setattr(cubechain, "_catalog_cache", {})
        assert les_relative(D3, SubsetSpec(D3, frozenset(S2.all_cells()))).sequence.all_exact
        names = Counter(hit["ref"].name for hit in cubechain._catalog_cache.values())
        assert names == {"D3": 1, "D3|sub": 1}

    def test_builds_the_span_once(self, domino, monkeypatch):
        # C(X) is the one complex assembled; C(Y) is selected from it
        calls = count_builds(monkeypatch)
        spec = SubsetSpec(domino, dh.face_closure(domino, ["s2"]))
        assert les_relative(domino, spec).sequence.all_exact
        assert calls == {"build": 1, "SubcomplexExtension": 1, "QuotientComplex": 1,
                         "_SubsetComplex": 1}

    def test_rejected_pair_skips_sequence(self, S1):
        spec = SubsetSpec(S1, frozenset(["00", "11"]))
        res = les_relative(S1, spec)
        assert res.sequence is None
        assert res.rel_table  # dims still reported


class TestVerifyExact:
    def test_identity_sequence_exact(self):
        v_id = Matrix.identity(QQ, 2)
        zero_in = Matrix.zeros(QQ, 2, 0)
        zero_out = Matrix.zeros(QQ, 0, 2)
        rep = verify_exact(("p",), [zero_in, v_id, zero_out])
        assert rep.exact

    def test_zero_map_between_lines_inexact(self):
        z = Matrix.zeros(QQ, 1, 1)
        rep = verify_exact(("p",), [Matrix.zeros(QQ, 1, 0), z,
                                    Matrix.zeros(QQ, 0, 1)])
        assert not rep.exact
        bad = [n.label for n in rep.nodes if not n.exact]
        assert bad == ["V1", "V2"]

    def test_shape_mismatch(self):
        with pytest.raises(SequenceError):
            verify_exact(("p",), [Matrix.zeros(QQ, 2, 1), Matrix.zeros(QQ, 1, 3)])

    def test_example_string_of_dims(self):
        # 0 <- 0 <- R <- R^2 <- R <- 0 with full-rank maps in the middle
        m1 = Matrix.from_rows(QQ, [[1], [0]])     # R -> R^2, injective
        m2 = Matrix.from_rows(QQ, [[0, 1]])       # R^2 -> R, kills the image
        rep = verify_exact(("p",),
                           [Matrix.zeros(QQ, 1, 0), m1, m2, Matrix.zeros(QQ, 0, 1)])
        assert rep.exact


class TestComposition:
    def test_relative_pairs_compose_on_corpus(self, D2, S1, domino):
        # nested triples Z <= Y <= X
        triples = []
        spec_y = SubsetSpec(D2, frozenset(S1.all_cells()))
        y, inc_y = sub(D2, spec_y)
        triples.append((D2, spec_y, dh.face_closure(y, ["a0"])))
        left = dh.face_closure(domino, ["s1"])
        yd, _ = sub(domino, SubsetSpec(domino, left))
        triples.append((domino, SubsetSpec(domino, left),
                        dh.face_closure(yd, ["v1"])))
        for x, spec_y2, z_cells in triples:
            y2, inc = sub(x, spec_y2)
            rep_xy = check_relative_pair(x, spec_y2)
            rep_yz = check_relative_pair(y2, SubsetSpec(y2, z_cells))
            rep_xz = check_relative_pair(x, SubsetSpec(x, z_cells))
            if rep_xy.accepted and rep_yz.accepted:
                assert rep_xz.accepted

    def test_two_step_span_dims_equal_one_step(self, D2, S1):
        # in the subspace form two-step extension is literally one-step;
        # dims must agree with extending through the middle complex
        spec_y = SubsetSpec(D2, frozenset(S1.all_cells()))
        y, _ = sub(D2, spec_y)
        z_cells = dh.face_closure(y, ["a0"])
        cx = build_complex(D2)
        cy = build_complex(y)
        span_xz = extend_subcomplex(cx, z_cells)
        span_yz = extend_subcomplex(cy, z_cells)
        # middle-step chains extend again to X: per-pair dims agree
        span_x_of_y = extend_subcomplex(cx, frozenset(S1.all_cells()))
        for pair in cx.pairs():
            for i in range(cx.top_degree + 1):
                assert span_xz.dim(i, pair) <= span_x_of_y.dim(i, pair)


class TestGoodCover:
    def test_domino_good(self, domino):
        s1 = SubsetSpec(domino, dh.face_closure(domino, ["s1"]))
        s2 = SubsetSpec(domino, dh.face_closure(domino, ["s2"]))
        rep = good_cover_check(domino, s1, s2)
        assert rep.covers and rep.excision_iso and rep.good

    def test_whole_as_first_part(self, D2, sphere_spec):
        s1 = SubsetSpec(D2, frozenset(D2.all_cells()))
        rep = good_cover_check(D2, s1, sphere_spec)
        assert rep.covers and rep.good

    def test_whole_as_second_part(self, D2, sphere_spec):
        s2 = SubsetSpec(D2, frozenset(D2.all_cells()))
        rep = good_cover_check(D2, sphere_spec, s2)
        assert rep.covers and rep.good

    def test_non_cover_detected(self, domino):
        s1 = SubsetSpec(domino, dh.face_closure(domino, ["s1"]))
        rep = good_cover_check(domino, s1, s1)
        assert not rep.covers


class TestMayerVietoris:
    def test_domino_exact(self, domino):
        s1 = SubsetSpec(domino, dh.face_closure(domino, ["s1"]))
        s2 = SubsetSpec(domino, dh.face_closure(domino, ["s2"]))
        res = mayer_vietoris(domino, s1, s2)
        assert res.sequence is not None and res.sequence.all_exact
        assert res.tables["whole"][(0, ("00", "21"))] == 1
        assert res.tables["intersection"][(0, ("00", "21"))] == 3

    def test_degenerate_full_cover(self, D2):
        s = SubsetSpec(D2, frozenset(D2.all_cells()))
        res = mayer_vietoris(D2, s, s)
        assert res.sequence is not None and res.sequence.all_exact

    def test_non_cover_raises(self, domino):
        s1 = SubsetSpec(domino, dh.face_closure(domino, ["s1"]))
        with pytest.raises(SequenceError):
            mayer_vietoris(domino, s1, s1)

    def test_bad_cover_is_verdict_not_crash(self, D2):
        # one part fails the path criterion: the result reports a bad cover
        s1 = SubsetSpec(D2, frozenset(["00", "11"]))
        s2 = SubsetSpec(D2, frozenset(D2.all_cells()))
        res = mayer_vietoris(D2, s1, s2)
        assert not res.cover.good
        assert res.sequence is None

    def test_domino_verifies_both_short_sequences_of_the_cover(self, domino, monkeypatch):
        verified = []
        real = ShortExactData.verify

        def recorded(ses):
            verified.append((ses.a.y_cells, type(ses.c).__name__))
            real(ses)

        monkeypatch.setattr(ShortExactData, "verify", recorded)
        s1 = SubsetSpec(domino, dh.face_closure(domino, ["s1"]))
        s2 = SubsetSpec(domino, dh.face_closure(domino, ["s2"]))
        assert mayer_vietoris(domino, s1, s2).sequence.all_exact
        # the left column ext(X1^X2) -> ext(X1) -> left quotient, and (X, X2)
        assert verified == [(s1.selected & s2.selected, "_LeftQuotient"),
                            (s2.selected, "QuotientComplex")]

    def test_domino_builds_each_object_once(self, domino, monkeypatch):
        # C(X) once, the complexes of X1 and X2 once each, selected from it,
        # each quotient once, and each of the five extension spans once: X1,
        # X2 and X1^X2 in C(X), and X1^X2 in C(X1) and in C(X2)
        calls = count_builds(monkeypatch)
        s1 = SubsetSpec(domino, dh.face_closure(domino, ["s1"]))
        s2 = SubsetSpec(domino, dh.face_closure(domino, ["s2"]))
        assert mayer_vietoris(domino, s1, s2).sequence.all_exact
        assert calls == {"build": 1, "_SubsetComplex": 2, "QuotientComplex": 1,
                         "_LeftQuotient": 1, "SubcomplexExtension": 5}

    def test_domino_enumerates_each_set_once(self, domino, monkeypatch):
        # X, the parts X1 and X2, and X1^X2 inside each part
        monkeypatch.setattr(cubechain, "_catalog_cache", {})
        s1 = SubsetSpec(domino, dh.face_closure(domino, ["s1"]))
        s2 = SubsetSpec(domino, dh.face_closure(domino, ["s2"]))
        assert mayer_vietoris(domino, s1, s2).sequence.all_exact
        names = Counter(hit["ref"].name for hit in cubechain._catalog_cache.values())
        assert names == {"domino": 1, "domino|sub": 2, "domino|sub|sub": 2}


@pytest.mark.parametrize("case", ["les D3,S2", "mv domino"])
def test_each_path_algebra_is_built_once(case, monkeypatch):
    """A sequence builds the path algebra of each set it checks once: X and
    Y for the relative sequence; X, both parts and the meet inside each
    part for Mayer-Vietoris."""
    import dirhom.scalars as sc
    built, kept = Counter(), []     # kept alive, so no two sets share an id
    init = sc.PathAlgebraIndex.__init__

    def counted(alg, x):
        kept.append(x)
        built[(id(x), x.name)] += 1
        init(alg, x)

    monkeypatch.setattr(sc.PathAlgebraIndex, "__init__", counted)
    if case == "les D3,S2":
        d3 = dh.directed_disc(3)
        res = les_relative(d3, SubsetSpec(d3, frozenset(dh.directed_sphere(2).all_cells())))
        names = {"D3": 1, "D3|sub": 1}
    else:
        domino = make_domino()
        res = mayer_vietoris(domino, *(SubsetSpec(domino, dh.face_closure(domino, [c]))
                                       for c in ("s1", "s2")))
        names = {"domino": 1, "domino|sub": 2, "domino|sub|sub": 2}
    assert res.sequence.all_exact
    assert set(built.values()) == {1}
    assert Counter(name for _, name in built) == names


def sphere_splits():
    """Every split of S2 and of S3 into the face closure of one top cell and
    that of the other top cells."""
    return [pytest.param(x, *map(frozenset, split_top_cell(x, cell)), id=f"{x.name}/{cell}")
            for x in (dh.directed_sphere(2), dh.directed_sphere(3))
            for cell in x.cells_of_dim(x.max_dim)]


def record_deltas(monkeypatch) -> dict:
    """Record every Mayer-Vietoris Delta built, by (degree, pair)."""
    import dirhom.exactseq as es
    deltas = {}
    real = es._mv_connecting
    monkeypatch.setattr(es, "_mv_connecting",
                        lambda c, i, pair: deltas.setdefault((i, pair), real(c, i, pair)))
    return deltas


def zigzag_delta(x, y1, y2, field, i, pair):
    """The reference Delta by the zig-zag, with `solve`: each representative
    z of H_i(X) is a1 + a2 + d w with a_k a chain of ext C(X_k), and Delta
    takes z to the class of d a1 = -d a2, a cycle of ext C(X1 ^ X2)."""
    cx = build_complex(x, None, field)
    span1, span2, span12 = (extend_subcomplex(cx, y) for y in (y1, y2, y1 & y2))
    reps = homology_of(cx, i, pair).representatives
    parts = solve(inclusion_matrix(span1, i, pair).augment(inclusion_matrix(span2, i, pair))
                  .augment(cx.diff(i + 1, pair)), reps)
    a1 = parts.block(range(span1.dim(i, pair)), range(reps.cols))
    d_a1 = cx.diff(i, pair) @ inclusion_matrix(span1, i, pair) @ a1
    return homology_of(span12, i - 1, pair).classes(
        solve(inclusion_matrix(span12, i - 1, pair), d_a1))


class TestMayerVietorisConnectingMap:
    """Covers on which Delta = zig-zag . excision^-1 . projection has a
    nonzero domain, so its excision inverse and its snake do work."""

    @pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "F7"])
    @pytest.mark.parametrize("x,y1,y2", sphere_splits())
    def test_one_top_cell_splits_are_good_with_a_working_delta(self, x, y1, y2, field,
                                                                monkeypatch):
        # a working Delta is the zig-zag, sign included, which exactness
        # alone does not see
        deltas = record_deltas(monkeypatch)
        res = mayer_vietoris(x, SubsetSpec(x, y1), SubsetSpec(x, y2), field)
        assert res.cover.good and res.sequence.all_exact
        working = {k: d for k, d in deltas.items() if d.cols}
        assert working and any(not d.is_zero() for d in working.values())
        for (i, pair), delta in working.items():
            assert delta == zigzag_delta(x, y1, y2, field, i, pair)

    def test_zero_excision_inverse_is_inexact(self, S2, monkeypatch):
        import dirhom.exactseq as es
        monkeypatch.setattr(es, "solve", lambda m, b: Matrix.zeros(m.field, m.cols, b.cols))
        y1, y2 = split_top_cell(S2, "0aa")
        with pytest.raises(ExactnessError, match=re.escape(
                "pair ('000', '111'), node H1(X): incoming rank 0 != kernel dim 1")):
            mayer_vietoris(S2, SubsetSpec(S2, frozenset(y1)), SubsetSpec(S2, frozenset(y2)))

    def test_delta_checks_that_its_snake_ignores_the_lift(self, S2, monkeypatch):
        # the squares 1aa and aa1 against all squares but aa1: the left
        # column's A_1, spanned by the square 1aa they share, has chains
        # where Delta has a nonzero domain and its snake is nonzero, so
        # shifting the lifts by them is a real check; a block read that
        # moves the pulled-back classes then is caught inside Delta
        real = ShortExactData.boundary_block
        shifts = []

        def corrupted(ses, i, pair, cols):
            block = real(ses, i, pair, cols)
            if len(cols) == len(ses.c.kept[(i, pair)]):
                return block
            shifts.append(type(ses.c))
            return Matrix.zeros(block.field, block.rows, block.cols)

        monkeypatch.setattr(ShortExactData, "boundary_block", corrupted)
        y1, y2 = (dh.face_closure(S2, cells) for cells in (["1aa", "aa1"],
                                                          ["0aa", "1aa", "a0a", "a1a", "aa0"]))
        with pytest.raises(ExactnessError, match="depends on the lift choice"):
            mayer_vietoris(S2, SubsetSpec(S2, y1), SubsetSpec(S2, y2))
        assert shifts == [_LeftQuotient]

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_random_top_cell_splits(self, data):
        """A good cover gives an exact sequence whose Delta is the zig-zag."""
        import dirhom.exactseq as es
        x = data.draw(st.sampled_from([dh.directed_sphere(2), dh.directed_sphere(3),
                                       dh.directed_disc(3), make_domino()]))
        top = x.cells_of_dim(x.max_dim)
        y1, y2 = side_closures(x, data.draw(st.lists(st.sampled_from(SIDES), min_size=len(top),
                                                     max_size=len(top))))
        assume(y1 and y2)
        deltas = {}
        real = es._mv_connecting
        es._mv_connecting = lambda c, i, pair: deltas.setdefault((i, pair), real(c, i, pair))
        try:
            res = mayer_vietoris(x, SubsetSpec(x, y1), SubsetSpec(x, y2))
        finally:
            es._mv_connecting = real
        if res.cover.good:
            assert res.sequence.all_exact
            for (i, pair), delta in deltas.items():
                if delta.cols:
                    assert delta == zigzag_delta(x, y1, y2, QQ, i, pair)
        else:
            assert res.sequence is None

    def test_corpus_reaches_the_excision_inverse(self, monkeypatch):
        """Some cover of the corpus solves for an excision inverse inside Delta."""
        import dirhom.exactseq as es
        inside, solved = [], Counter()
        real_delta, real_solve = es._mv_connecting, es.solve

        def delta(c, i, pair):
            inside.append(pair)
            try:
                return real_delta(c, i, pair)
            finally:
                inside.pop()

        monkeypatch.setattr(es, "_mv_connecting", delta)
        monkeypatch.setattr(es, "solve", lambda m, b: solved.update([bool(inside)])
                            or real_solve(m, b))
        for x, y1, y2 in (case.values for case in cover_cases()):
            if y1 != y2:    # the relative pairs D3/S2 and D4/S3 cover nothing
                mayer_vietoris(x, SubsetSpec(x, y1), SubsetSpec(x, y2))
        assert solved[True] >= 1

    def test_seeded_splits_keep_a_share_of_working_deltas(self, monkeypatch):
        """Of the good covers among 40 seeded top-cell splits of S2, S3, D3
        and the domino, at least a quarter (and at least 5) have a Delta
        with a nonzero domain, so the split strategy still reaches Delta."""
        import random
        rng = random.Random(2026)
        sets = [dh.directed_sphere(2), dh.directed_sphere(3), dh.directed_disc(3), make_domino()]
        deltas = record_deltas(monkeypatch)
        good = working = 0
        for k in range(40):
            x = sets[k % len(sets)]
            y1, y2 = side_closures(x, [rng.choice(SIDES) for _ in x.cells_of_dim(x.max_dim)])
            if not (y1 and y2):
                continue
            deltas.clear()
            res = mayer_vietoris(x, SubsetSpec(x, y1), SubsetSpec(x, y2))
            if res.cover.good:
                assert res.sequence.all_exact
                good += 1
                working += any(d.cols for d in deltas.values())
        assert working >= max(5, good / 4)


SIDES = ["left", "right", "both"]


def side_closures(x, sides):
    """The face closures of the top cells of x put on the left or both
    sides, and of those put on the right or both."""
    top = x.cells_of_dim(x.max_dim)
    return tuple(dh.face_closure(x, [c for c, side in zip(top, sides) if side in (part, "both")])
                 for part in ("left", "right"))


def test_sequences_compute_homology_only_on_components_with_chains(monkeypatch):
    """Chainless components are answered by shape: their dimensions read 0
    in every table and no homology is computed for them.  Each complex
    computes the homology of a component at most once, and both verbs build
    their connecting maps through `connecting_map`."""
    import dirhom.exactseq as es
    import dirhom.homology as H
    computed, kept, snakes = Counter(), [], []
    real, snake = H.homology_of, es.connecting_map

    def counted(c, i, pair):
        kept.append(c)      # kept alive, so no two complexes share an id
        computed[(id(c), i, pair, c.dim(i, pair) > 0)] += 1
        return real(c, i, pair)

    monkeypatch.setattr(H, "homology_of", counted)
    monkeypatch.setattr(es, "connecting_map",
                        lambda ses, i, pair: snakes.append(type(ses.c)) or snake(ses, i, pair))
    d4, strip, s2 = dh.directed_disc(4), make_strip4(), dh.directed_sphere(2)
    rel = les_relative(d4, SubsetSpec(d4, frozenset(dh.directed_sphere(3).all_cells())))
    # the sphere's cover has a Delta with a nonzero domain, so it runs the snake
    mv, _ = (mayer_vietoris(x, *(SubsetSpec(x, frozenset(part)) for part in parts))
             for x, *parts in (strip, (s2, *split_top_cell(s2, "0aa"))))
    assert rel.sequence.all_exact and mv.sequence.all_exact
    assert computed and max(computed.values()) == 1
    assert all(has_chains for *_, has_chains in computed)
    assert set(snakes) == {QuotientComplex, _LeftQuotient}
    for x, tables in ((d4, [rel.x_table, rel.ext_table, rel.rel_table]),
                      (strip[0], list(mv.tables.values()))):
        cx = build_complex(x)
        keys = [(i, pair) for pair in cx.pairs() for i in range(cx.top_degree + 1)]
        for table in tables:
            assert list(table) == keys
            assert all(not table[(i, pair)] for i, pair in keys if not cx.dim(i, pair))


@pytest.mark.parametrize("case", ["les D3,S2", "mv domino"])
def test_extension_dimensions_build_no_quotient(case, monkeypatch):
    """The relative-pair checks size each extension by count and rank: no
    quotient basis or quotient map is built, each pair of a resolved
    bimodule is reduced at most once, and each bimodule sweeps each source
    vertex at most once, for the dimensions of all its pairs."""
    import dirhom.scalars as sc
    calls = Counter()
    for name in ("_echelon", "_quotient"):
        monkeypatch.setattr(sc, name, lambda *a, name=name, real=getattr(sc, name):
                            calls.update([name]) or real(*a))
    seen, kept = Counter(), []      # kept alive, so no two bimodules share an id
    for name in ("_sweep", "_reduce"):
        def counted(res, *at, name=name, real=getattr(sc.ResolvedBimodule, name)):
            kept.append(res)
            seen[(name, id(res), *at)] += 1
            return real(res, *at)
        monkeypatch.setattr(sc.ResolvedBimodule, name, counted)
    if case == "les D3,S2":
        d3 = dh.directed_disc(3)
        res = les_relative(d3, SubsetSpec(d3, frozenset(dh.directed_sphere(2).all_cells())))
    else:
        domino = make_domino()
        res = mayer_vietoris(domino, *(SubsetSpec(domino, dh.face_closure(domino, [c]))
                                       for c in ("s1", "s2")))
    assert res.sequence.all_exact
    assert not calls
    assert seen and max(seen.values()) == 1
    assert {name for name, *_ in seen} == {"_sweep", "_reduce"}
    # every pair reduced lies on a swept source
    assert {(r, s) for name, r, s, *_ in seen if name != "_sweep"} == {
        (r, s) for name, r, s, *_ in seen if name == "_sweep"}

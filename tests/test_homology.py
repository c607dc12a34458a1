import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import dirhom as dh
import dirhom.exactla as la
from dirhom.cubechain import (
    BoundaryCheckError, ChainError, GradedComplex, PairGradedComplex, build_complex,
)
from dirhom.exactla import (
    Matrix, PrimeField, QQ, Subspace, column_reduction, homology_classes,
    homology_from_reductions, image_basis, kernel_basis, pivot_columns, rank,
)
from dirhom.exactseq import QuotientComplex, _LeftQuotient
from dirhom.homology import (
    ActionError, HomologyTable, acyclicity_check, chain_map_of_morphism, cochain_dual,
    homology, homology_of, induced_map, induced_on_homology,
)
from dirhom.precubical import PcMorphism, PrecubicalSet, SubsetSpec, sub
from dirhom.scalars import extend_subcomplex, restrict

from conftest import corpus, make_domino
from test_exactseq import draw_cover


@pytest.fixture(scope="module")
def cxd2(D2):
    return build_complex(D2)


@pytest.fixture(scope="module")
def cxs1(S1):
    return build_complex(S1)


@pytest.fixture(scope="module")
def td2(D2, cxd2):
    return HomologyTable(cxd2, D2)


@pytest.fixture(scope="module")
def ts1(S1, cxs1):
    return HomologyTable(cxs1, S1)


class TestHomology:
    def test_disc_values(self, cxd2):
        assert homology(cxd2, 0, "00", "11")[0] == 1
        assert homology(cxd2, 1, "00", "11")[0] == 0

    def test_sphere_values(self, cxs1):
        assert homology(cxs1, 0, "00", "11")[0] == 2
        assert homology(cxs1, 1, "00", "11")[0] == 0

    def test_point(self):
        cx = build_complex(dh.standard_cube(0))
        assert homology(cx, 0, "v", "v")[0] == 1

    def test_unknown_pair(self, cxd2):
        with pytest.raises(ChainError):
            homology(cxd2, 0, "00", "nowhere")

    def test_euler_characteristic_matches(self):
        for x in corpus():
            cx = build_complex(x)
            for pair in cx.pairs():
                chi_chain = sum((-1) ** i * cx.dim(i, pair)
                                for i in range(cx.top_degree + 1))
                chi_hom = sum((-1) ** i * homology_of(cx, i, pair).dim
                              for i in range(cx.top_degree + 1))
                assert chi_chain == chi_hom

    @pytest.mark.parametrize("field", [QQ, PrimeField(7)])
    def test_representatives_are_the_greedy_choice(self, field):
        # reference: accept a cycle when it is outside the span of the
        # boundaries and the cycles accepted before it
        for x in corpus() + [domino_with_bypass()]:
            cx = build_complex(x, None, field)
            for pair in cx.pairs():
                for i in range(cx.top_degree + 1):
                    h = homology_of(cx, i, pair)
                    # the boundaries straight from d_(i+1), not from h
                    seen = cx.diff(i + 1, pair).columns()
                    expected = []
                    for v in h.cycles.basis:
                        if not Subspace.span(field, h.cycles.ambient_dim, seen).contains(v):
                            expected.append(v)
                            seen.append(v)
                    assert h.reps == expected
                    for j, rep in enumerate(h.reps):
                        assert h.class_vector(rep) == tuple(
                            field.one if k == j else field.zero for k in range(h.dim))
                    for b in h.boundaries.basis:
                        assert h.class_vector(b) == (field.zero,) * h.dim


def domino_with_bypass():
    """The domino with a two-edge path beside it from corner 00 to corner 21.

    H_0(00, 21) is 2, from four paths and the two squares' boundaries.  The
    bypass is the shortest path, so it comes first, and the squares' kernel
    coordinates are (0, 1, -1, 0) and (0, 0, 1, -1): their last nonzeros
    (2, 3) are not the first ones (1, 2) read from the other end (2, 1), so
    the greedy pick order is the only one that keeps paths 0 and 1.
    """
    dom = make_domino()
    faces = {**dom.faces, "z0": (["00"], ["w"]), "z1": (["w"], ["21"])}
    cells = [[*dom.cells[0], "w"], [*dom.cells[1], "z0", "z1"], list(dom.cells[2])]
    return PrecubicalSet("domino+bypass", cells, faces)


def kernel_image_pivots(cx, i, pair):
    """Reference: the kernel basis, the image basis of d_(i+1), and as
    representatives the kernel vectors at the pivot columns of
    [boundary basis | cycle basis]."""
    ker = kernel_basis(cx.diff(i, pair))
    img = image_basis(cx.diff(i + 1, pair))
    picked = [j - img.dim for j in pivot_columns(img, ker) if j >= img.dim]
    return ker, img, ker.basis_matrix().block(range(ker.ambient_dim), picked)


def express_classes(reps: Matrix, img: Subspace, m: Matrix) -> Matrix:
    """Reference: the coordinates of the columns of m on [reps | boundary
    basis] by `express`, kept on the representatives."""
    x = Subspace(m.field, m.rows, reps.columns() + list(img.basis)).express(m)
    return x.block(range(reps.cols), range(m.cols))


class TestKernelCoordinates:
    """Homology in kernel coordinates against the kernel + image + pivot
    construction, on spans and quotients of random covers."""

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_random_spans_and_quotients_match_the_reference(self, data):
        x, y1, y2, field = draw_cover(data)
        rng = random.Random(data.draw(st.integers(0, 2 ** 16)))
        cx = build_complex(x, None, field)
        span1 = extend_subcomplex(cx, y1)
        span12 = extend_subcomplex(cx, y1 & y2)
        for sc in (cx, span1, QuotientComplex(cx, span1), _LeftQuotient(span1, span12, field)):
            for i, pair in sc.components_with_chains:
                h = homology_of(sc, i, pair)
                ker, img, reps = kernel_image_pivots(sc, i, pair)
                assert h.representatives == reps
                assert h.cycles == ker and h.boundaries == img
                coeffs = Matrix.from_rows(field, [[rng.randint(-2, 2) for _ in range(3)]
                                                  for _ in range(ker.dim)], cols=3)
                m = ker.basis_matrix() @ coeffs
                assert h.classes(m) == express_classes(reps, img, m)

    def test_a_non_cycle_is_rejected(self, S2):
        cx = build_complex(S2)
        h = homology_of(cx, 1, ("000", "111"))
        assert h.dim == 1
        n = h.cycles.ambient_dim
        with pytest.raises(ChainError, match="not a cycle"):
            h.class_vector((1,) + (0,) * (n - 1))
        with pytest.raises(ChainError):
            h.classes(Matrix.zeros(QQ, n + 1, 1))

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_column_push_matches_the_product_oracle(self, data):
        # oracle: kernel coordinates read at `free`, a cycle exactly when the
        # kernel basis gives the column back, then the quotient map
        x, y1, _, field = draw_cover(data)
        rng = random.Random(data.draw(st.integers(0, 2 ** 16)))
        cx = build_complex(x, None, field)
        span = extend_subcomplex(cx, y1)
        for sc in (cx, span, QuotientComplex(cx, span)):
            for i, pair in sc.components_with_chains:
                h = homology_of(sc, i, pair)
                n = h.cycles.ambient_dim
                coeffs = Matrix.from_rows(field, [[rng.randint(-2, 2) for _ in range(3)]
                                                  for _ in range(h.cycles.dim)], cols=3)
                noise = Matrix.from_rows(field, [[rng.choice((-1, 0, 0, 1)) for _ in range(3)]
                                                 for _ in range(n)], cols=3)
                for m in (h.cycles.basis_matrix() @ coeffs, noise):
                    at_free = m.block(h.free, range(m.cols))
                    if h.cycles.basis_matrix() @ at_free == m:
                        expected = h.quotient @ at_free
                        assert homology_classes(h.cycles, h.free, h.quotient,
                                                m.sparse_columns()) == expected
                        assert h.classes(m) == expected
                    else:
                        with pytest.raises(ChainError, match="not a cycle"):
                            homology_classes(h.cycles, h.free, h.quotient, m.sparse_columns())
                        with pytest.raises(ChainError, match="not a cycle"):
                            h.classes(m)
                # a column one entry too long, as a matrix and as a sparse column
                with pytest.raises(ChainError, match="not a cycle"):
                    h.classes(Matrix.zeros(field, n + 1, 1))
                with pytest.raises(ChainError, match="not a cycle"):
                    homology_classes(h.cycles, h.free, h.quotient, [{n: 1}])

    def test_each_differential_is_reduced_once_and_nothing_is_eliminated(self, monkeypatch):
        def content(columns):
            return tuple(tuple(sorted(c.items())) for c in columns)

        reduced, eliminated = [], []
        real_reduce, real_lows = la._reduce, la._lows

        def counted(columns, p):
            reduced.append(content(columns))    # before the reduction modifies them
            return real_reduce(columns, p)

        monkeypatch.setattr(la, "_reduce", counted)
        monkeypatch.setattr(la, "_lows", lambda *a: eliminated.append(1) or real_lows(*a))
        seen = 0
        for x in corpus():
            cx = build_complex(x)
            # the differentials by content: two components may have the same one
            differentials = Counter(content(cx.diff(i, pair).sparse_columns())
                                    for i in range(cx.top_degree + 2) for pair in cx.pairs())
            reduced.clear()
            t = HomologyTable(cx, x)
            hs = [homology_of(cx, i, pair) for i, pair in cx.components_with_chains]
            assert not eliminated
            assert all(n <= differentials[key] for key, n in Counter(reduced).items())
            seen += len(reduced)
            reduced.clear()
            into = x.in_edges()
            for h in hs:
                h.classes(h.cycles.basis_matrix())
            for i, s, e in t.entries:
                for a in into[s]:
                    t.left_action(a, i, s, e)
            assert not reduced and not eliminated
        assert seen     # the counter sees the reductions


def oracle_homology(cx, i, pair):
    """Reference: homology by two reduced row echelon forms, as (reps,
    cycles, free, quotient, boundaries).  The kernel basis of d_i has one
    vector per non-pivot column of its rref; the boundaries' kernel
    coordinates, their entries at those free columns, are reduced with the
    kernel coordinates taken last first, and the kernel vectors off their
    pivots are the representatives."""
    d, d_next = cx.diff(i, pair), cx.diff(i + 1, pair)
    p, field = la._modulus(d.field), d.field
    rows, pivots = la._echelon(d.transpose().sparse_columns(), d.cols, p)
    kernel = la._null_vectors(rows, pivots, d.cols, p)
    n, free = len(kernel), [max(v) for v in kernel]
    coords = d_next.block(free, range(d_next.cols)).sparse_columns()
    dense, pivots = la._rref([la._dense(c, n, field.zero, p) for c in coords], n, field.zero,
                             range(n - 1, -1, -1))
    rows = [la._sparse(r, p) for r in dense]
    return ([v for k, v in enumerate(kernel) if k not in set(pivots)],
            Subspace._of(field, d.cols, kernel, None), free,
            Matrix.from_sparse_columns(field, n, la._null_vectors(rows, pivots, n, p)).transpose(),
            Subspace._of(field, d.cols, la._mul(rows, kernel, p), None))


def assert_matches_the_oracle(cx, i, pair):
    h = homology_of(cx, i, pair)
    reps, cycles, free, quotient, boundaries = oracle_homology(cx, i, pair)
    assert h.rep_columns == reps and h.dim == len(reps)
    assert h.cycles._basis == cycles._basis
    assert h.free == {f: k for k, f in enumerate(free)} and h.quotient == quotient
    assert h.boundaries._basis == boundaries._basis


@st.composite
def two_step_complexes(draw):
    """A complex d_1 d_2 = 0 on one pair over Q or F_7, whose entries and
    pivots are mostly not +-1: d_2 is random or a random product of lower
    rank, and the rows of d_1 are random combinations of a basis of the left
    kernel of d_2."""
    field = draw(st.sampled_from([QQ, PrimeField(7)]))
    values = ([0, 0, 1, -1, 2, -3, 5, Fraction(1, 2), Fraction(-2, 3)] if field is QQ
              else [0, 0, *range(1, 7)])

    def random(rows, cols):
        return Matrix.from_rows(field, [[draw(st.sampled_from(values)) for _ in range(cols)]
                                        for _ in range(rows)], cols=cols)

    n1, n2 = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    k = draw(st.integers(0, min(n1, n2)))
    d2 = random(n1, n2) if draw(st.booleans()) else random(n1, k) @ random(k, n2)
    left = kernel_basis(d2.transpose()).basis_matrix().transpose()
    d1 = random(draw(st.integers(0, 4)), left.rows) @ left
    assert (d1 @ d2).is_zero()
    return GradedComplex(field, 2, {(0, "p"): d1.rows, (1, "p"): n1, (2, "p"): n2},
                         {(1, "p"): d1, (2, "p"): d2})


class TestAgainstTheEliminationOracle:
    """`homology_of` gives what two eliminations give, entry for entry."""

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_random_covers(self, data):
        x, y1, y2, field = draw_cover(data)
        cx = build_complex(x, None, field)
        span1 = extend_subcomplex(cx, y1)
        span12 = extend_subcomplex(cx, y1 & y2)
        for sc in (cx, span1, QuotientComplex(cx, span1), _LeftQuotient(span1, span12, field)):
            for i, pair in sc.components_with_chains:
                assert_matches_the_oracle(sc, i, pair)

    @settings(max_examples=100, deadline=None)
    @given(two_step_complexes())
    def test_random_matrices_with_pivots_other_than_units(self, cx):
        for i, pair in cx.components_with_chains:
            assert_matches_the_oracle(cx, i, pair)

    @pytest.mark.parametrize("field", [QQ, PrimeField(7)])
    def test_corpus(self, field):
        for x in corpus() + [domino_with_bypass()]:
            cx = build_complex(x, None, field)
            for i, pair in cx.components_with_chains:
                assert_matches_the_oracle(cx, i, pair)


def test_boundary_that_is_no_cycle_names_degree_and_pair():
    # d_1 = [1 0] and d_2 = (1, 0)^T: d_1 d_2 = [1], and the boundary's low,
    # chain 0, is a pivot of d_1 rather than a free column
    d1 = Matrix.from_rows(QQ, [[1, 0]])
    d2 = Matrix.from_rows(QQ, [[1], [0]])
    with pytest.raises(ChainError, match=r"^d_i d_\(i\+1\) is not zero"):
        homology_from_reductions(column_reduction(d1), column_reduction(d2), QQ, 2)
    # such a complex is refused at construction; with d_2 swapped in after
    # construction, homology_of names the degree and pair
    cx = GradedComplex(QQ, 2, {(0, "p"): 1, (1, "p"): 2, (2, "p"): 1},
                       {(1, "p"): d1, (2, "p"): Matrix.zeros(QQ, 2, 1)})
    cx._diffs[(2, "p")] = d2
    with pytest.raises(ChainError, match=r"degree 1, pair p: d_i d_\(i\+1\) is not zero"):
        homology_of(cx, 1, "p")


def test_hand_built_complex_with_nonzero_square_is_refused():
    # d_1 = [1 1] and d_2 = (1, 1)^T: d_1 d_2 = [2], though the boundary's
    # low, chain 1, is a free column of d_1
    d1 = Matrix.from_rows(QQ, [[1, 1]])
    d2 = Matrix.from_rows(QQ, [[1], [1]])
    with pytest.raises(BoundaryCheckError,
                       match=r"^d.d != 0 at degree 2, pair p: witness basis element 0$"):
        GradedComplex(QQ, 2, {(0, "p"): 1, (1, "p"): 2, (2, "p"): 1},
                      {(1, "p"): d1, (2, "p"): d2})


class TestActions:
    def test_segment_action_iso(self, K):
        cx = build_complex(K)
        t = HomologyTable(cx, K)
        m = t.left_action("a", 0, "1", "1")
        assert m.rows == m.cols == 1
        assert rank(m) == 1

    def test_disc_edge_action_rank(self, D2, td2):
        # prepend the edge into 01: H0(01,11) -> H0(00,11) hits one path class
        edge = next(e for e in D2.edges if D2.edge_target(e) == "01")
        m = td2.left_action(edge, 0, "01", "11")
        assert m.cols == 1 and m.rows == 1 and rank(m) == 1

    def test_action_on_boundaries_stays_boundary(self):
        # a square followed by an edge: appending the edge must carry the
        # square's boundary into the boundary space of the longer pair
        r = dh.realization([2, 1])
        cx = build_complex(r)
        t = HomologyTable(cx, r)
        mid = r.final_vertex("b1.**")
        tail = next(e for e in r.edges if r.edge_source(e) == mid)
        h_src = t.entry(0, r.start, mid)
        assert h_src.boundaries.dim == 1
        chain0 = cx.right_action_chain(tail, 0, (r.start, mid))
        h_dst = t.entry(0, r.start, r.end)
        for b in h_src.boundaries.basis:
            assert h_dst.is_boundary(chain0.matvec(b))

    def test_two_edge_path_action_composes(self, D2, td2):
        paths = [p for p in _paths(D2, "00", "11")]
        for p in paths:
            m = td2.left_path_action(p, 0, "11", "11")
            assert m.rows == 1 and m.cols == 1
            step = Matrix.identity(QQ, 1)
            here = "11"
            for e in reversed(p):
                step = td2.left_action(e, 0, here, "11") @ step
                here = D2.edge_source(e)
            assert m == step

    def test_right_action_symmetric(self, D2, td2):
        edge = next(e for e in D2.edges if D2.edge_source(e) == "00")
        m = td2.right_action(edge, 0, "00", "00")
        assert m.rows == m.cols == 1 and rank(m) == 1

    def test_trivial_path_acts_as_identity(self, D2, td2):
        for s in D2.vertices:
            for e in D2.vertices:
                n = td2.dim(0, s, e)
                assert td2.left_path_action((), 0, s, e) == Matrix.identity(QQ, n)
                assert td2.right_path_action((), 0, s, e) == Matrix.identity(QQ, n)


def _paths(x, s, e):
    out = x.out_edges()
    acc, res = [], []

    def rec(v):
        if v == e:
            res.append(tuple(acc))
        for edge in out[v]:
            acc.append(edge)
            rec(x.edge_target(edge))
            acc.pop()

    rec(s)
    return res


class TestInducedMaps:
    def test_sphere_into_disc_surjective(self, D2, S1, td2):
        spec = SubsetSpec(D2, frozenset(S1.all_cells()))
        y, inc = sub(D2, spec)
        cy = build_complex(y)
        ty = HomologyTable(cy, y)
        maps = induced_map(inc, ty, td2)
        m = maps[(0, "00", "11")]
        assert m.rows == 1 and m.cols == 2 and rank(m) == 1

    def test_identity_morphism(self, D2, td2):
        maps = induced_map(PcMorphism.identity(D2), td2, td2)
        for (i, s, e), m in maps.items():
            assert m == Matrix.identity(QQ, td2.dim(i, s, e))

    def test_vertex_inclusion(self, D2, td2):
        y, inc = sub(D2, SubsetSpec(D2, frozenset(["00"])))
        cy = build_complex(y)
        ty = HomologyTable(cy, y)
        maps = induced_map(inc, ty, td2)
        assert maps[(0, "00", "00")] == Matrix.identity(QQ, 1)

    def test_induced_commutes_with_actions(self, D2, S1, td2):
        spec = SubsetSpec(D2, frozenset(S1.all_cells()))
        y, inc = sub(D2, spec)
        cy = build_complex(y)
        ty = HomologyTable(cy, y)
        maps = induced_map(inc, ty, td2)
        for a in y.edges:
            s = y.edge_target(a)
            s2 = y.edge_source(a)
            for e in y.vertices:
                if (0, s, e) not in maps or (0, s2, e) not in maps:
                    continue
                left_y = ty.left_action(a, 0, s, e)
                left_x = td2.left_action(inc(a), 0, inc(s), inc(e))
                assert maps[(0, s2, e)] @ left_y == left_x @ maps[(0, s, e)]


class TestRestriction:
    def test_restrict_commutes_with_homology(self, D2, S1, td2, cxd2):
        spec = SubsetSpec(D2, frozenset(S1.all_cells()))
        y, inc = sub(D2, spec)
        rc = restrict(cxd2, inc)
        rt = restrict(td2, inc)
        for s in y.vertices:
            for e in y.vertices:
                for i in range(cxd2.top_degree + 1):
                    assert homology_of(rc, i, (s, e)).dim == rt.dim(i, s, e)

    def test_restrict_to_vertex(self, D2, td2):
        y, inc = sub(D2, SubsetSpec(D2, frozenset(["00"])))
        rt = restrict(td2, inc)
        assert rt.dim(0, "00", "00") == 1


class TestCochains:
    def test_dual_dims_match(self, cxd2, cxs1):
        dual_d = cochain_dual(cxd2)
        dual_s = cochain_dual(cxs1)
        assert dual_d.cohomology_dim(0, "00", "11") == 1
        assert dual_s.cohomology_dim(0, "00", "11") == 2
        assert dual_d.cohomology_dim(1, "00", "11") == 0

    def test_field_duality_everywhere(self):
        for x in corpus()[:12]:
            cx = build_complex(x)
            dual = cochain_dual(cx)
            for pair in cx.pairs():
                for i in range(cx.top_degree + 1):
                    assert dual.cohomology_dim(i, *pair) == \
                        homology_of(cx, i, pair).dim

    def test_zero_component_zero_cohomology(self, cxd2):
        dual = cochain_dual(cxd2)
        assert dual.cohomology_dim(0, "11", "00") == 0

    def test_dual_action_swaps_direction(self, D2, cxd2):
        # transposing the prepend matrix gives a map of dual components in
        # the opposite direction that commutes with the coboundaries: the
        # contravariant (opposite-algebra) regrading at matrix level
        dual = cochain_dual(cxd2)
        for a in D2.edges:
            s = D2.edge_target(a)
            s2 = D2.edge_source(a)
            for e in D2.vertices:
                for i in range(1, cxd2.top_degree + 1):
                    if not cxd2.dim(i, (s, e)):
                        continue
                    p_i = cxd2.left_action_chain(a, i, (s, e)).transpose()
                    p_im1 = cxd2.left_action_chain(a, i - 1, (s, e)).transpose()
                    left = p_i @ dual.coboundary(i - 1, (s2, e))
                    right = dual.coboundary(i - 1, (s, e)) @ p_im1
                    assert left == right


class TestAcyclicity:
    def test_wedge_122(self):
        v = acyclicity_check([1, 2, 2])
        assert v.acyclic and v.h0_dim == 1

    def test_single_square(self):
        v = acyclicity_check([2])
        assert v.acyclic

    def test_point(self):
        v = acyclicity_check([])
        assert v.acyclic and v.h0_dim == 1 and v.higher_dims == {}

    def test_realizations_up_to_dim_2(self):
        from conftest import sequences_of_dimension
        for dim in (0, 1, 2):
            for seq in sequences_of_dimension(dim, max_blocks=3):
                assert acyclicity_check(seq).acyclic


class TestCrossField:
    def test_dims_agree_over_prime_field(self, D2, S1):
        f = PrimeField(1009)
        for x in [D2, S1]:
            cq = build_complex(x, None, QQ)
            cp = build_complex(x, None, f)
            for pair in cq.pairs():
                for i in range(cq.top_degree + 1):
                    assert homology_of(cq, i, pair).dim == \
                        homology_of(cp, i, pair).dim


def test_homology_module_is_not_shadowed():
    import types

    import dirhom.homology as H
    assert isinstance(H, types.ModuleType) and H.homology_of is homology_of


def test_push_from_a_component_without_classes_runs_no_elimination(cxd2, monkeypatch):
    import dirhom.exactla as la
    src = homology_of(cxd2, 1, ("00", "11"))
    dst = homology_of(cxd2, 0, ("00", "11"))
    assert src.dim == 0 and dst.dim == 1
    chain_map = Matrix.zeros(QQ, cxd2.dim(0, ("00", "11")), cxd2.dim(1, ("00", "11")))
    calls = []
    real = la._lows
    monkeypatch.setattr(la, "_lows", lambda *a: calls.append(1) or real(*a))
    assert induced_on_homology(chain_map, src, dst) == Matrix.zeros(QQ, 1, 0)
    assert not calls


def test_component_without_chains_runs_no_elimination(cxd2, monkeypatch):
    import dirhom.exactla as la
    calls = []
    real = la._lows
    monkeypatch.setattr(la, "_lows", lambda *a: calls.append(1) or real(*a))
    for i, pair in ((0, ("11", "00")), (1, ("00", "01")), (4, ("00", "11"))):
        assert cxd2.dim(i, pair) == 0
        h = homology_of(cxd2, i, pair)
        assert (h.degree, h.pair, h.dim) == (i, pair, 0)
        assert h.representatives == Matrix.zeros(QQ, 0, 0)
        assert (h.cycles.ambient_dim, h.cycles.dim) == (0, 0)
        assert (h.boundaries.ambient_dim, h.boundaries.dim) == (0, 0)
    assert not calls


def test_cohomology_of_a_component_without_chains_runs_no_elimination(D3, monkeypatch):
    import dirhom.exactla as la
    cx = build_complex(D3)
    dual = cochain_dual(cx)
    # the components the cohomology verb asks for: every vertex pair
    empty = [(i, (s, e)) for s in D3.vertices for e in D3.vertices
             for i in range(cx.top_degree + 1) if not cx.dim(i, (s, e))]
    assert len(empty) > 100
    calls = []
    real = la._reduce
    monkeypatch.setattr(la, "_reduce", lambda *a: calls.append(1) or real(*a))
    for i, pair in empty:
        assert dual.cohomology_dim(i, *pair) == 0
    assert not calls


def test_action_from_a_component_without_classes_builds_no_chain_map(D2, cxd2, monkeypatch):
    table = HomologyTable(cxd2, D2)
    calls = []
    real = Matrix.unit_columns
    monkeypatch.setattr(Matrix, "unit_columns",
                        classmethod(lambda cls, *a: calls.append(1) or real(*a)))
    # 0a : 00 -> 01 and a1 : 01 -> 11; nothing runs from 01 to 00 or from
    # 11 to 01, and no chain has degree 3
    for i, s, e in ((0, "01", "00"), (3, "01", "11")):
        assert table.dim(i, s, e) == 0
        assert table.left_action("0a", i, s, e) == Matrix.zeros(QQ, table.dim(i, "00", e), 0)
    for i, s, e in ((0, "11", "01"), (3, "00", "01")):
        assert table.dim(i, s, e) == 0
        assert table.right_action("a1", i, s, e) == Matrix.zeros(QQ, table.dim(i, s, "11"), 0)
    assert not calls


@pytest.mark.parametrize("field", [QQ, PrimeField(7)])
def test_edge_actions_are_the_product_push(field):
    # the oracle multiplies the 0/1 matrix of an action into the representatives
    tables = []
    for x in corpus():
        tables.append(HomologyTable(build_complex(x, None, field), x))
    st = dh.TensorSetting.build(dh.directed_disc(2), dh.directed_sphere(1), field)
    tables.append(HomologyTable(st.tc, st.tx))
    pushed = 0
    for t in tables:
        cx, x = t.cx, t.x
        into, out = x.in_edges(), x.out_edges()
        for (i, s, e), src in t.entries.items():
            for a in into[s]:
                dst = t.entry(i, x.edge_source(a), e)
                product = dst.classes(cx.left_action_chain(a, i, (s, e)) @ src.representatives)
                assert t.left_action(a, i, s, e) == product
                pushed += bool(src.dim and dst.dim)
            for a in out[e]:
                dst = t.entry(i, s, x.edge_target(a))
                product = dst.classes(cx.right_action_chain(a, i, (s, e)) @ src.representatives)
                assert t.right_action(a, i, s, e) == product
                pushed += bool(src.dim and dst.dim)
    assert pushed > 100


def test_table_builds_and_decodes_no_0_1_matrix(monkeypatch):
    import dirhom.cubechain as cc
    import dirhom.homology as H
    d4 = dh.directed_disc(4)
    cx = build_complex(d4)
    calls = []
    real_units = Matrix.unit_columns
    monkeypatch.setattr(Matrix, "unit_columns",
                        classmethod(lambda cls, *a: calls.append("unit") or real_units(*a)))
    # basis maps are built as signed positions, so there is no matrix decoder
    assert not any(hasattr(mod, "_unit_targets") for mod in (cc, H))
    t = HomologyTable(cx, d4)
    for a in d4.edges:
        s = d4.edge_target(a)
        for e in d4.vertices:
            for i in range(cx.top_degree + 1):
                t.left_action(a, i, s, e)
    assert not calls
    cx.left_action_chain(d4.edges[0], 0, (d4.edge_target(d4.edges[0]),) * 2)
    assert calls == ["unit"]    # the counter is live


def test_table_computes_homology_only_for_components_with_chains(monkeypatch):
    import dirhom.homology as H
    d4 = dh.directed_disc(4)
    cx = build_complex(d4)
    calls = []
    monkeypatch.setattr(H, "homology_of", lambda *a: calls.append(a[1:]) or homology_of(*a))
    HomologyTable(cx, d4)
    assert len(calls) == len(cx.bases) == 124
    assert sorted(calls) == [(i, (s, e)) for i, s, e in sorted(cx.bases)]


def test_chainless_components_answer_like_homology_of(D3):
    r = dh.realization([2, 1, 3])
    for x in (D3, r):
        cx = build_complex(x)
        t = HomologyTable(cx, x)

        def h(i, s, e):
            return homology_of(cx, i, (s, e)).dim

        for i in range(cx.top_degree + 2):
            for s in x.vertices:
                for e in x.vertices:
                    assert t.dim(i, s, e) == h(i, s, e)
                    for a in x.edges:
                        if x.edge_target(a) == s:
                            m = t.left_action(a, i, s, e)
                            assert (m.rows, m.cols) == (h(i, x.edge_source(a), e), h(i, s, e))
                            if not cx.dim(i, (s, e)):
                                assert m.is_zero() and t.left_path_action((a,), i, s, e) == m
                        if x.edge_source(a) == e:
                            m = t.right_action(a, i, s, e)
                            assert (m.rows, m.cols) == (h(i, s, x.edge_target(a)), h(i, s, e))
                            if not cx.dim(i, (s, e)):
                                assert m.is_zero() and t.right_path_action((a,), i, s, e) == m
                    if not cx.dim(i, (s, e)):
                        assert homology_of(cx, i, (s, e)).dim == 0
                        assert t.entry(i, s, e) is None and (i, s, e) not in t.entries


def _first_prepend(x, cx):
    """The first (edge, s, e) whose prepend the action check meets in degree 1."""
    return next((a, s, e) for (i, s, e) in sorted(cx.bases) if i == 1
                for a in x.edges if x.edge_target(a) == s)


def test_corrupted_prepend_map_names_edge_degree_pair_and_chain(D3, monkeypatch):
    cx = build_complex(D3)
    a, s, e = _first_prepend(D3, cx)
    real = PairGradedComplex.left_action_targets

    def corrupted(cx_, a_, i, pair):
        targets = real(cx_, a_, i, pair)    # the zero map sends every chain nowhere
        return [None] * len(targets) if (a_, i, pair) == (a, 1, (s, e)) else targets

    monkeypatch.setattr(PairGradedComplex, "left_action_targets", corrupted)
    with pytest.raises(ActionError) as err:
        HomologyTable(cx, D3)
    assert str(err.value) == (f"prepend by {a!r} is not a chain map at degree 1, pair "
                              f"{(s, e)}: witness {cx.bases[(1, s, e)][0]!r}")


def test_corrupted_morphism_map_names_degree_pair_and_chain(D2, cxd2, monkeypatch):
    import dirhom.homology as H
    real = H._basis_map

    def corrupted(images, index, signs=None):
        targets, negated = real(images, index, signs)
        if images and images[0].degree == 1:    # drop the image of the first square
            return [None] * len(targets), negated
        return targets, negated

    monkeypatch.setattr(H, "_basis_map", corrupted)
    with pytest.raises(ActionError, match=r"morphism-induced map is not a chain map at "
                       r"degree 1, pair \('00', '11'\): witness <"):
        chain_map_of_morphism(PcMorphism.identity(D2), cxd2, cxd2)


def test_cohomology_runs_no_elimination_on_an_empty_matrix(monkeypatch):
    import dirhom.exactla as la
    from dirhom.exactla import kernel_basis
    d4 = dh.directed_disc(4)
    cx = build_complex(d4)
    dual = cochain_dual(cx)
    keys = [(i, s, e) for s in d4.vertices for e in d4.vertices
            for i in range(cx.top_degree + 1)]
    # dim ker delta^i - rank delta^(i-1), eliminating whatever the shape
    expected = {(i, s, e): 0 if not cx.dim(i, (s, e)) else
                kernel_basis(dual.coboundary(i, (s, e))).dim
                - (rank(dual.coboundary(i - 1, (s, e))) if i else 0) for i, s, e in keys}
    # the ranks are read off the complex's column reductions of d_i
    calls, empty = [], []
    real = la._reduce

    def counted(vectors, p):
        calls.append(1)
        if not any(vectors):     # no rows, or no columns
            empty.append(1)
        return real(vectors, p)

    monkeypatch.setattr(la, "_reduce", counted)
    assert {k: dual.cohomology_dim(*k) for k in keys} == expected
    assert calls and not empty


def test_chain_map_checks_run_no_matrix_product(D2, S1, td2, cxd2, monkeypatch):
    from dirhom.scalars import extend_subcomplex
    span = extend_subcomplex(cxd2, frozenset(S1.all_cells()))
    calls = []
    real = Matrix.__matmul__
    monkeypatch.setattr(Matrix, "__matmul__", lambda a, b: calls.append(1) or real(a, b))
    td2._verify_actions_are_chain_maps()
    chain_map_of_morphism(PcMorphism.identity(D2), cxd2, cxd2)
    span.check_chain_map(span.inclusion_positions, span, cxd2)
    assert not calls
    Matrix.identity(QQ, 1) @ Matrix.identity(QQ, 1)
    assert calls    # the counter sees a product


def test_table_copies_each_differential_once_per_column_reduction(monkeypatch):
    """The chain-map checks read the differentials in place: the only
    column copies made while a table is built are the ones each column
    reduction consumes."""
    x = dh.realization([4, 4])
    cx = build_complex(x)
    copies, reductions = [], []
    real_copy, real_reduce = Matrix.sparse_columns, la._reduce
    monkeypatch.setattr(Matrix, "sparse_columns",
                        lambda m: copies.append(1) or real_copy(m))
    monkeypatch.setattr(la, "_reduce", lambda *a: reductions.append(1) or real_reduce(*a))
    HomologyTable(cx, x)
    assert reductions and len(copies) == len(reductions)


def test_table_and_action_listing_ask_each_target_list_once(monkeypatch):
    """The chain-map check and the pushes of ``homology --actions`` share
    the target positions of each (side, edge, degree, pair)."""
    from dirhom.cli import _listed_actions
    d4 = dh.directed_disc(4)
    cx = build_complex(d4)
    asked = Counter()
    for side in ("left", "right"):
        real = getattr(cx, f"{side}_action_targets")
        monkeypatch.setattr(cx, f"{side}_action_targets",
                            lambda a, i, pair, side=side, real=real:
                            asked.update([(side, a, i, pair)]) or real(a, i, pair))
    t = HomologyTable(cx, d4)
    listed = _listed_actions(d4, t, cx.top_degree)
    for a, i, s, e in listed:
        t.left_action(a, i, s, e)
    assert listed and asked and max(asked.values()) == 1

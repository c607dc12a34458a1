from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import dirhom as dh
from dirhom.cubechain import build_complex
from dirhom.exactla import FieldError, PrimeField, QQ, Residue, Subspace
from dirhom.exactseq import maximal_paths
from dirhom.homology import HomologyTable
from dirhom.precubical import PrecubicalSet, SubsetSpec, sub, tensor
from dirhom import scalars
from dirhom.scalars import (
    AlgebraError, BimoduleGenerator, PresentedBimodule, ResolvedBimodule,
    SubcomplexExtension, direct_sum, extend_presented, extend_subcomplex,
    free_bimodule, h_morphism, hcompose, path_algebra, present_chain_module,
    present_homology, re_present, restrict, smash, unit_bimodule, zero_bimodule,
)

from conftest import corpus, make_domino
from oracles import pair_basis, pivots, quotient_map

FIELDS = [QQ, PrimeField(7), PrimeField(1009)]


@st.composite
def dags(draw):
    """Acyclic 1-dimensional sets on up to six vertices, with parallel edges
    and isolated vertices; vertex names do not follow the topological order."""
    n = draw(st.integers(1, 6))
    names = draw(st.permutations([f"v{i}" for i in range(n)]))
    ends = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=9))
    faces = {f"e{k}": ([names[min(a, b)]], [names[max(a, b)]])
             for k, (a, b) in enumerate(p for p in ends if p[0] != p[1])}
    return PrecubicalSet("dag", [names, sorted(faces)], faces)


@pytest.fixture(scope="module")
def algK(K):
    return path_algebra(K)


@pytest.fixture(scope="module")
def algD2(D2):
    return path_algebra(D2)


class TestPathAlgebra:
    def test_segment(self, algK):
        assert algK.dim("0", "1") == 1
        assert algK.total_dim() == 3

    def test_disc_two_paths(self, algD2):
        assert algD2.dim("00", "11") == 2

    def test_point(self):
        alg = path_algebra(dh.standard_cube(0))
        assert alg.total_dim() == 1

    @settings(max_examples=100, deadline=None)
    @given(dags())
    @example(dh.directed_disc(2))
    @example(dh.directed_sphere(1))
    @example(make_domino())
    def test_counts_match_adjacency_powers(self, x):
        # independent oracle: path counts from powers of the adjacency matrix
        alg = path_algebra(x)
        verts = list(x.vertices)
        idx = {v: i for i, v in enumerate(verts)}
        n = len(verts)
        adj = [[0] * n for _ in range(n)]
        for e in x.edges:
            adj[idx[x.edge_source(e)]][idx[x.edge_target(e)]] += 1
        total = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        power = [row[:] for row in total]
        for _ in range(n):
            power = [[sum(power[i][k] * adj[k][j] for k in range(n))
                      for j in range(n)] for i in range(n)]
            total = [[total[i][j] + power[i][j] for j in range(n)]
                     for i in range(n)]
        for s in verts:
            for e in verts:
                assert alg.dim(s, e) == total[idx[s]][idx[e]]
        # maximal paths: each source-to-sink path once, glued, in order
        sources, sinks = x.source_vertices(), x.sink_vertices()
        paths = maximal_paths(x)
        assert len(paths) == sum(total[idx[s]][idx[t]] for s in sources for t in sinks)
        assert len({tuple(p) for p in paths}) == len(paths)
        for p in paths:
            assert p[0] in sources and p[-1] in sinks
            for k in range(1, len(p), 2):
                assert x.edge_source(p[k]) == p[k - 1] and x.edge_target(p[k]) == p[k + 1]
        keys = [(p[0], tuple(p[1::2])) for p in paths]
        assert keys == sorted(keys)

    def test_path_concatenation_closed(self, algD2):
        for (s, e), paths in algD2.paths.items():
            for p in paths:
                for q in algD2.between(e, e):
                    assert p + q in algD2.between(s, e)


class TestPresentedBimodules:
    def test_unit_dims_are_path_counts(self, K, algK):
        res = unit_bimodule(algK).resolve()
        for s in K.vertices:
            for e in K.vertices:
                assert res.dim(s, e) == algK.dim(s, e)

    def test_free_extension_dims(self, D2, algD2):
        # free rank one at (a, b): dims are #paths(s,a) * #paths(b,e)
        m = free_bimodule(algD2, algD2, [("00", "11")])
        res = m.resolve()
        for s in D2.vertices:
            for e in D2.vertices:
                assert res.dim(s, e) == algD2.dim(s, "00") * algD2.dim("11", e)

    def test_zero_module(self, algK):
        assert zero_bimodule(algK, algK).resolve().total_dim() == 0

    def test_relation_must_be_homogeneous(self, algK):
        gens = [("g", "0", "1")]
        from dirhom.scalars import BimoduleGenerator
        g = [BimoduleGenerator("g", "0", "1")]
        with pytest.raises(AlgebraError):
            from dirhom.scalars import PresentedBimodule
            PresentedBimodule(algK, algK, g,
                              [[(QQ.one, (), "g", ()), (QQ.one, ("a",), "g", ())]])


class TestChainPresentations:
    def test_degree0_matches_paths(self, S1):
        alg = path_algebra(S1)
        res = present_chain_module(S1, 0).resolve()
        for s in S1.vertices:
            for e in S1.vertices:
                assert res.dim(s, e) == alg.dim(s, e)

    def test_degree1_free_on_cores(self, D2):
        pb = present_chain_module(D2, 1)
        assert len(pb.generators) == 1 and not pb.relations
        cx = build_complex(D2)
        res = pb.resolve()
        for s, e in cx.pairs():
            assert res.dim(s, e) == cx.dim(1, (s, e))

    def test_degree0_matches_complex(self, D2):
        cx = build_complex(D2)
        res = present_chain_module(D2, 0).resolve()
        for s, e in cx.pairs():
            assert res.dim(s, e) == cx.dim(0, (s, e))


class TestExtension:
    def test_sphere_in_disc_degree0(self, D2, S1, algD2):
        spec = SubsetSpec(D2, frozenset(S1.all_cells()))
        y, inc = sub(D2, spec)
        res = extend_presented(present_chain_module(y, 0), inc, algD2).resolve()
        cx = build_complex(D2)
        span = extend_subcomplex(cx, spec.selected)
        assert res.dim("00", "11") == 2 == span.dim(0, ("00", "11"))
        assert span.dim(1, ("00", "11")) == 0

    def test_whole_set_extension_is_whole_complex(self, D2, algD2):
        spec = SubsetSpec(D2, frozenset(D2.all_cells()))
        cx = build_complex(D2)
        span = extend_subcomplex(cx, spec.selected)
        for pair in cx.pairs():
            for i in range(cx.top_degree + 1):
                assert span.dim(i, pair) == cx.dim(i, pair)

    def test_single_vertex_extension_counts_paths_through(self, D2, algD2):
        cx = build_complex(D2)
        span = extend_subcomplex(cx, frozenset(["01"]))
        # 0-chains through vertex 01
        assert span.dim(0, ("00", "11")) == 1
        assert span.dim(0, ("00", "01")) == 1
        assert span.dim(0, ("10", "11")) == 0

    def test_zero_module_extends_to_zero(self, D2, S1, algD2):
        spec = SubsetSpec(D2, frozenset(S1.all_cells()))
        y, inc = sub(D2, spec)
        algy = path_algebra(y)
        z = zero_bimodule(algy, algy)
        assert extend_presented(z, inc, algD2).resolve().total_dim() == 0

    def test_extension_span_is_subcomplex(self, D2, domino):
        # construction asserts closure under the boundary; exercise both
        for x, cells in [(D2, frozenset(dh.directed_sphere(1).all_cells())),
                         (domino, dh.face_closure(domino, ["s1"]))]:
            cx = build_complex(x)
            SubcomplexExtension(cx, cells)

    def test_presented_and_span_agree_on_accepted_pair(self, domino):
        left = dh.face_closure(domino, ["s1"])
        spec = SubsetSpec(domino, left)
        y, inc = sub(domino, spec)
        alg = path_algebra(domino)
        cx = build_complex(domino)
        span = extend_subcomplex(cx, left)
        from dirhom.cubechain import max_chain_degree
        for i in range(max_chain_degree(y) + 1):
            res = extend_presented(present_chain_module(y, i), inc, alg).resolve()
            for pair in cx.pairs():
                assert res.dim(*pair) == span.dim(i, pair)

    def test_two_step_extension_matches_one_step(self, D2, S1, algD2):
        # nested: vertex 00 inside the boundary sphere inside the disc
        spec_y = SubsetSpec(D2, frozenset(S1.all_cells()))
        y, inc_y = sub(D2, spec_y)
        spec_z = SubsetSpec(y, frozenset(["00"]))
        z, inc_z = sub(y, spec_z)
        alg_y = path_algebra(y)
        m = present_chain_module(z, 0)
        one_step = extend_presented(
            m, dh.compose(inc_y, inc_z), algD2).resolve()
        mid = extend_presented(m, inc_z, alg_y).resolve()
        again = extend_presented(re_present(mid), inc_y, algD2).resolve()
        for s in D2.vertices:
            for e in D2.vertices:
                assert one_step.dim(s, e) == again.dim(s, e)


class TestRepresent:
    def test_re_present_preserves_dims(self, K, algK):
        res = unit_bimodule(algK).resolve()
        back = re_present(res).resolve()
        assert back.dims_by_pair() == res.dims_by_pair()

    @pytest.mark.parametrize("name", ["D3", "S2", "R22"])
    def test_re_present_sweeps_each_source_once(self, name, D3, S2, monkeypatch):
        x = {"D3": D3, "S2": S2, "R22": dh.realization([2, 2])}[name]
        alg = path_algebra(x)
        swept = []
        sweep = ResolvedBimodule._sweep
        monkeypatch.setattr(ResolvedBimodule, "_sweep",
                            lambda self, s: (swept.append(s), sweep(self, s))[1])
        got = re_present(unit_bimodule(alg).resolve(), "r")
        assert sorted(swept) == sorted(x.vertices)
        monkeypatch.undo()
        # the same presentation as one whose dimensions are read by `dim`
        res = unit_bimodule(alg).resolve()
        want = scalars._present_from_actions(alg, alg, res.field, res.dim, res.left_edge_action,
                                             res.right_edge_action, "g", "r")
        assert got.generators == want.generators
        assert got.relations == want.relations

    @pytest.mark.parametrize("name", ["D3", "S2", "R22"])
    def test_dims_and_bases_sweep_each_source_twice(self, name, D3, S2, monkeypatch):
        """`dim` and `basis_triples`, interleaved at every pair, sweep each
        source once for its dimensions and once for its bases."""
        x = {"D3": D3, "S2": S2, "R22": dh.realization([2, 2])}[name]
        res = unit_bimodule(path_algebra(x)).resolve()
        swept = Counter()
        sweep = ResolvedBimodule._sweep
        monkeypatch.setattr(ResolvedBimodule, "_sweep",
                            lambda self, s: (swept.update([s]), sweep(self, s))[1])
        for s in x.vertices:
            for e in x.vertices:
                assert res.dim(s, e) == len(res.basis_triples(s, e))
        assert swept == Counter({v: 2 for v in x.vertices})

    def test_homology_presentation_dims(self, D2):
        cx = build_complex(D2)
        t = HomologyTable(cx, D2)
        pb = present_homology(t, 0)
        res = pb.resolve()
        for s in D2.vertices:
            for e in D2.vertices:
                assert res.dim(s, e) == t.dim(0, s, e)


class TestHCompose:
    def test_unit_law(self, K, algK):
        u = unit_bimodule(algK)
        m = free_bimodule(algK, algK, [("0", "1")])
        assert hcompose(u, m).resolve().dims_by_pair() == m.resolve().dims_by_pair()
        assert hcompose(m, u).resolve().dims_by_pair() == m.resolve().dims_by_pair()

    def test_dotted_edge_ids_compose_like_plain_ones(self):
        """Edges a.b : v -> w, a : v -> m and b : m -> w: the composite's
        generators through the paths (a.b) and (a, b) stay apart."""
        dims = []
        for ab, a, b in (("a.b", "a", "b"), ("ab", "a", "b")):
            x = PrecubicalSet("Y", [["m", "v", "w"], [ab, a, b]],
                              {ab: (["v"], ["w"]), a: (["v"], ["m"]), b: (["m"], ["w"])})
            u = unit_bimodule(path_algebra(x))
            dims.append(hcompose(u, u).resolve().dims_by_pair())
        assert dims[0] == dims[1] == u.resolve().dims_by_pair()

    def test_zero_absorbs(self, algK):
        m = free_bimodule(algK, algK, [("0", "1")])
        z = zero_bimodule(algK, algK)
        assert hcompose(m, z).resolve().total_dim() == 0

    def test_additive_in_first_factor(self, algK):
        m = free_bimodule(algK, algK, [("0", "0")])
        n = free_bimodule(algK, algK, [("0", "1")])
        double = hcompose(direct_sum(m, m), n).resolve()
        single = hcompose(m, n).resolve()
        for pair, d in double.dims_by_pair().items():
            assert d == 2 * single.dims_by_pair().get(pair, 0)

    def test_empty_relation_changes_nothing(self, algK):
        u = unit_bimodule(algK)
        gens = [BimoduleGenerator("g", "0", "1")]
        plain = PresentedBimodule(algK, algK, gens, [])
        empty = PresentedBimodule(algK, algK, gens, [[]])
        for left, right in ((u, plain), (plain, u)):
            with_empty = hcompose(*(empty if f is plain else f for f in (left, right)))
            assert (with_empty.resolve().dims_by_pair()
                    == hcompose(left, right).resolve().dims_by_pair())

    def test_mismatched_algebras_rejected(self, algK, algD2):
        m = free_bimodule(algK, algK, [("0", "1")])
        n = free_bimodule(algD2, algD2, [("00", "11")])
        with pytest.raises(AlgebraError):
            hcompose(m, n)


class TestComparisonMorphism:
    def test_edge_images(self, K):
        t = tensor(K, K)
        h = h_morphism(t)
        assert h.on_edge("(a,0)") == (("a",), ())
        assert h.on_edge("(0,a)") == ((), ("a",))

    def test_trivial_path(self, K):
        t = tensor(K, K)
        h = h_morphism(t)
        assert h.on_path(()) == ((), ())

    def test_multiplicative_on_all_paths(self, K, S1):
        for x, y in [(K, K), (K, S1)]:
            t = tensor(x, y)
            alg = path_algebra(t)
            for (s, e), paths in alg.paths.items():
                for p in paths:
                    for cut in range(len(p) + 1):
                        left, right = p[:cut], p[cut:]
                        hx1, hy1 = h_morphism(t).on_path(left)
                        hx2, hy2 = h_morphism(t).on_path(right)
                        hx, hy = h_morphism(t).on_path(p)
                        assert hx == hx1 + hx2 and hy == hy1 + hy2


class TestRestrict:
    def test_restrict_along_identity(self, D2):
        cx = build_complex(D2)
        t = HomologyTable(cx, D2)
        rt = restrict(t, dh.PcMorphism.identity(D2))
        for s in D2.vertices:
            for e in D2.vertices:
                assert rt.dim(0, s, e) == t.dim(0, s, e)

    def test_restrict_sphere_into_disc_same_quiver(self, D2, S1):
        spec = SubsetSpec(D2, frozenset(S1.all_cells()))
        y, inc = sub(D2, spec)
        cx = build_complex(D2)
        t = HomologyTable(cx, D2)
        rt = restrict(t, inc)
        # the two quivers coincide, so every pair is preserved
        for s in y.vertices:
            for e in y.vertices:
                assert rt.dim(0, s, e) == t.dim(0, s, e)


class TestSmash:
    def test_total_dim_preserved(self, D2):
        cx = build_complex(D2)
        t = HomologyTable(cx, D2)
        sm = smash(t)
        for i in range(cx.top_degree + 1):
            assert sm.total_dim(i) == sum(
                t.dim(i, s, e) for s in D2.vertices for e in D2.vertices)

    def test_unit_of_segment_total(self, K, algK):
        assert smash(unit_bimodule(algK)).total_dim() == 3

    def test_action_composition_identity(self, domino):
        cx = build_complex(domino)
        t = HomologyTable(cx, domino)
        sm = smash(t)
        # (a' (x) b'-op)(a (x) b-op) acts as (a'a (x) (b b')-op)
        x = domino
        for a in x.edges:
            for b in x.edges:
                s = x.edge_target(a)
                e = x.edge_source(b)
                if t.dim(0, s, e) == 0:
                    continue
                one_shot = sm.act(a, b, 0, s, e)
                sequential = sm.act(a, None, 0, s, x.edge_target(b)) @ \
                    sm.act(None, b, 0, s, e)
                assert one_shot == sequential


class TestRelationCoefficients:
    @pytest.mark.parametrize("coeff", [Fraction(1, 2), Residue(3, 5)])
    def test_coefficient_from_another_field_is_rejected(self, algK, coeff):
        g = [BimoduleGenerator("g", "0", "1")]
        with pytest.raises(FieldError):
            PresentedBimodule(algK, algK, g, [[(coeff, (), "g", ())]],
                              PrimeField(7)).resolve().dim("0", "1")

    def test_prime_field_coefficient_is_rejected_over_the_rationals(self, algK):
        g = [BimoduleGenerator("g", "0", "1")]
        with pytest.raises(FieldError):
            PresentedBimodule(algK, algK, g, [[(Residue(3, 7), (), "g", ())]])


# -- the sparse reduction against dense relation rows ---------------------------


class DenseReduction(ResolvedBimodule):
    """The reduction by dense relation rows: each relation translate is a
    list of field scalars over every triple, and `Subspace.span` spans them;
    each pair's basis record ignores the swept translates it is passed.
    The triples are listed again from the copied path lists of `between`.
    The dimension is the length of this reduction's quotient basis, never
    the count and rank of `ResolvedBimodule.dim`."""

    def _pair_basis(self, s, e, number, rows):
        pb, field = self.pb, self.pb.field
        triples = [(p, g.gid, q) for g in pb.generators
                   for p in pb.left.between(s, g.src) for q in pb.right.between(g.dst, e)]
        triples.sort(key=lambda t: (len(t[0]) + len(t[2]), t[1], t[0], t[2]))
        assert triples == self.triples(s, e)
        tindex = {t: i for i, t in enumerate(triples)}
        rows = []
        for rel in pb.relations:
            if not rel:
                continue
            _, p0, gid0, q0 = rel[0]
            g0 = pb.by_id[gid0]
            rs = pb._path_source_left(p0, g0.src)
            re_ = pb.right.path_target(g0.dst, q0)
            for p in pb.left.between(s, rs):
                for q in pb.right.between(re_, e):
                    row = [field.zero] * len(triples)
                    for coeff, pi, gid, qi in rel:
                        if isinstance(coeff, int):
                            coeff = field.of(coeff)
                        j = tindex[(p + pi, gid, qi + q)]
                        row[j] = row[j] + coeff
                    rows.append(row)
        relations = Subspace.span(field, len(triples), rows)
        kept = set(pivots(relations))
        return (triples, tindex, quotient_map(len(triples), relations),
                [j for j in range(len(triples)) if j not in kept])

    def dim(self, s, e):
        return len(self.basis_triples(s, e))


def assert_same_reduction(pb: PresentedBimodule):
    """dim, basis triples and both edge actions agree at every pair, and
    each dimension is the length of its quotient basis."""
    fast, dense = pb.resolve(), DenseReduction(pb)
    xl, xr = pb.left.x, pb.right.x
    for s in xl.vertices:
        for e in xr.vertices:
            assert fast.dim(s, e) == dense.dim(s, e) == len(fast.basis_triples(s, e))
            assert fast.basis_triples(s, e) == dense.basis_triples(s, e)
            for a in xl.edges:
                if xl.edge_target(a) == s:
                    assert fast.left_edge_action(a, s, e) == dense.left_edge_action(a, s, e)
            for b in xr.edges:
                if xr.edge_source(b) == e:
                    assert fast.right_edge_action(b, s, e) == dense.right_edge_action(b, s, e)


def standard_presentations(x, field):
    alg = path_algebra(x)
    table = HomologyTable(build_complex(x, None, field), x)
    unit = unit_bimodule(alg, field)
    chains = [present_chain_module(x, i, field, alg) for i in range(3)]
    return [present_homology(table, i, alg) for i in range(2)] + chains + [
        unit, hcompose(unit, chains[1]), hcompose(present_homology(table, 0, alg), unit)]


class TestSparseReductionAgainstDenseRows:
    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
    @pytest.mark.parametrize("name", ["D2", "S1", "domino"])
    def test_standard_presentations(self, name, field, D2, S1, domino):
        x = {"D2": D2, "S1": S1, "domino": domino}[name]
        for pb in standard_presentations(x, field):
            assert_same_reduction(pb)

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
    def test_extension_along_an_inclusion(self, field, D2, S1):
        y, inc = sub(D2, SubsetSpec(D2, frozenset(S1.all_cells())))
        for i in range(2):
            pb = extend_presented(present_chain_module(y, i, field), inc, path_algebra(D2))
            assert_same_reduction(pb)
        hy = HomologyTable(build_complex(y, None, field), y)
        assert_same_reduction(extend_presented(present_homology(hy, 0), inc, path_algebra(D2)))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_random_relations(self, data):
        assert_same_reduction(data.draw(random_presentations()))

    def test_dimensions_that_are_triple_counts(self, D2, algD2):
        # g at (01, 01) and h at (00, 11): one relation-free presentation,
        # and one whose only relation cancels on its one triple
        gens = [BimoduleGenerator("g", "01", "01"), BimoduleGenerator("h", "00", "11")]
        cancelling = [[(2, ("0a",), "g", ()), (-2, ("0a",), "g", ())]]
        for rels in ([], cancelling):
            pb = PresentedBimodule(algD2, algD2, gens, rels)
            assert_same_reduction(pb)
            res = pb.resolve()
            for s in D2.vertices:
                for e in D2.vertices:
                    count = (algD2.dim(s, "01") * algD2.dim("01", e)
                             + algD2.dim(s, "00") * algD2.dim("11", e))
                    assert res.dim(s, e) == count
            assert res.dim("00", "11") == 2 and res.dim("11", "00") == 0

    def test_relations_cut_the_count_by_their_rank(self, algD2):
        # g at (00, 00) with relations g.0a = 0, g.0a.a1 = 0 and 2 g.0a.a1 = 0:
        # at (00, 11) the translates are g.0a.a1 twice and 2 g.0a.a1, rank 1
        gens = [BimoduleGenerator("g", "00", "00")]
        rels = [[(1, (), "g", ("0a",))], [(1, (), "g", ("0a", "a1"))],
                [(2, (), "g", ("0a", "a1"))]]
        pb = PresentedBimodule(algD2, algD2, gens, rels)
        assert_same_reduction(pb)
        res = pb.resolve()
        assert (res.dim("00", "00"), res.dim("00", "01"), res.dim("00", "11")) == (1, 0, 1)


SMALL_ALGEBRAS = [path_algebra(x) for x in
                  (dh.directed_disc(2), dh.directed_sphere(1), make_domino())]


@st.composite
def coefficients(draw, field):
    """Nonzero and zero coefficients; over Q ints and fractions, over F_p
    ints and residues."""
    n = draw(st.integers(-4, 4))
    if field is QQ:
        return draw(st.sampled_from([n, Fraction(n), Fraction(n, draw(st.integers(2, 5)))]))
    return draw(st.sampled_from([n, field.of(n)]))


@st.composite
def random_presentations(draw, alg=None):
    """Generators at random vertex pairs of a small algebra, or of `alg`,
    and relations whose terms are drawn among the triples at one pair: with
    repeated triples, terms that cancel on one triple, and empty relations.
    Half the presentations have no relations, and some have no generators,
    so that every pair has no triples."""
    alg = alg or draw(st.sampled_from(SMALL_ALGEBRAS))
    field = draw(st.sampled_from(FIELDS))
    verts = sorted(alg.x.vertices)
    gens = [BimoduleGenerator(f"g{k}", *draw(st.tuples(st.sampled_from(verts),
                                                         st.sampled_from(verts))))
            for k in range(draw(st.integers(0, 3)))]
    relations = []
    for _ in range(draw(st.integers(1, 5)) if draw(st.booleans()) else 0):
        rs, re_ = draw(st.sampled_from(verts)), draw(st.sampled_from(verts))
        triples = [(p, g.gid, q) for g in gens
                   for p in alg.between(rs, g.src) for q in alg.between(g.dst, re_)]
        rel = []
        for _ in range(draw(st.integers(0, 4)) if triples else 0):
            p, gid, q = draw(st.sampled_from(triples))
            c = draw(coefficients(field))
            rel.append((c, p, gid, q))
            if draw(st.booleans()):
                rel.append((-c, p, gid, q))
        relations.append(rel)
    return PresentedBimodule(alg, alg, gens, relations, field)


def multi_entry_rows(pb: PresentedBimodule) -> int:
    """How many relation translates, over every swept pair, have two or more
    triples (`ResolvedBimodule._sweep`)."""
    res = pb.resolve()
    return sum(len(row) >= 2 for s in pb.left.x.vertices
               for _, _, rows in res._sweep(s).values() for row in rows)


@st.composite
def multi_entry_presentations(draw, alg=None):
    """Presentations whose every relation has two to four distinct triples
    with nonzero coefficients, so that each of its translates is a row of
    as many triples: translating by fixed paths keeps distinct triples
    distinct.  Two generators at one drawn vertex pair give that pair two
    triples, and each pair its paths reach at least two."""
    alg = alg or draw(st.sampled_from(SMALL_ALGEBRAS))
    field = draw(st.sampled_from(FIELDS))
    verts = sorted(alg.x.vertices)
    ends = [draw(st.tuples(st.sampled_from(verts), st.sampled_from(verts)))
            for _ in range(draw(st.integers(1, 3)))]
    gens = [BimoduleGenerator(f"g{k}", *uv) for k, uv in enumerate([ends[0]] + ends)]
    at_pair = {}
    for g in gens:
        for rs in verts:
            for re_ in verts:
                at_pair.setdefault((rs, re_), []).extend(
                    (p, g.gid, q) for p in alg.between(rs, g.src) for q in alg.between(g.dst, re_))
    pairs = sorted(k for k, triples in at_pair.items() if len(triples) >= 2)
    nonzero = coefficients(field).filter(bool)
    relations = []
    for _ in range(draw(st.integers(1, 4))):
        triples = at_pair[draw(st.sampled_from(pairs))]
        picked = draw(st.lists(st.sampled_from(triples), min_size=2, max_size=4, unique=True))
        relations.append([(draw(nonzero), p, gid, q) for p, gid, q in picked])
    return PresentedBimodule(alg, alg, gens, relations, field)


BASE_CHANGE_SETS = [dh.directed_disc(3), dh.directed_sphere(2), make_domino(),
                    dh.realization([2, 2])]


def assert_pair_basis_is_the_gauss_jordan_route(pb: PresentedBimodule):
    """`_pair_basis` gives the triples, positions, quotient matrix and free
    positions of the image basis + quotient map route at every swept pair."""
    res = pb.resolve()
    for s in pb.left.x.vertices:
        for e, (_, number, rows) in res._sweep(s).items():
            assert res._pair_basis(s, e, number, rows) == pair_basis(res, s, e, number, rows)


class TestBaseChange:
    """Extension of scalars keeps the relations' checked pairs: the same
    generators and relations presented from scratch over X, each term
    checked again over X's paths, and the dense reduction give the same
    dimension at every pair of X."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_extension_is_the_presentation_over_x(self, data):
        x = data.draw(st.sampled_from(BASE_CHANGE_SETS))
        cells = data.draw(st.lists(st.sampled_from(sorted(x.all_cells())), min_size=1,
                                   max_size=3))
        y, inc = sub(x, SubsetSpec(x, dh.face_closure(x, cells)))
        pb = data.draw(random_presentations(path_algebra(y)))
        alg_x = path_algebra(x)
        ext = extend_presented(pb, inc, alg_x)
        scratch = PresentedBimodule(alg_x, alg_x, pb.generators, pb.relations, pb.field)
        assert ext._graded_relations == scratch._graded_relations
        fast, slow, dense = ext.resolve(), scratch.resolve(), DenseReduction(ext)
        for s in x.vertices:
            for e in x.vertices:
                assert fast.dim(s, e) == slow.dim(s, e) == dense.dim(s, e)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_extended_pair_bases_are_the_gauss_jordan_route(self, data):
        x, field = data.draw(st.sampled_from(BASE_CHANGE_SETS)), data.draw(st.sampled_from(FIELDS))
        cells = data.draw(st.lists(st.sampled_from(sorted(x.all_cells())), min_size=1,
                                   max_size=3))
        y, inc = sub(x, SubsetSpec(x, dh.face_closure(x, cells)))
        table = HomologyTable(build_complex(y, None, field), y)
        for pb in (present_chain_module(y, 0, field), present_homology(table, 0),
                   present_homology(table, 1), data.draw(random_presentations(path_algebra(y)))):
            assert_pair_basis_is_the_gauss_jordan_route(extend_presented(pb, inc, path_algebra(x)))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_multi_entry_relations_are_the_gauss_jordan_route(self, data):
        """Every translate of a multi-entry relation is a row of two or more
        triples, so the pivot choice of each quotient basis is exercised,
        over the small algebras and extended along an inclusion."""
        pb = data.draw(multi_entry_presentations())
        assert multi_entry_rows(pb)
        assert_pair_basis_is_the_gauss_jordan_route(pb)
        assert_same_reduction(pb)
        x = data.draw(st.sampled_from(BASE_CHANGE_SETS))
        cells = data.draw(st.lists(st.sampled_from(sorted(x.all_cells())), min_size=1,
                                   max_size=3))
        y, inc = sub(x, SubsetSpec(x, dh.face_closure(x, cells)))
        pb = data.draw(multi_entry_presentations(path_algebra(y)))
        assert multi_entry_rows(pb)
        assert_pair_basis_is_the_gauss_jordan_route(extend_presented(pb, inc, path_algebra(x)))

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
    def test_corpus_pair_bases_are_the_gauss_jordan_route(self, field):
        for x in corpus():
            alg = path_algebra(x)
            table = HomologyTable(build_complex(x, None, field), x)
            for pb in ([present_chain_module(x, i, field, alg) for i in range(3)]
                       + [present_homology(table, i, alg) for i in range(2)]):
                assert_pair_basis_is_the_gauss_jordan_route(pb)

    def test_presentation_over_another_set_is_rejected(self, D2, S1, algD2):
        y, inc = sub(D2, SubsetSpec(D2, frozenset(S1.all_cells())))
        for pb in (present_chain_module(S1, 0), present_chain_module(D2, 0),
                   PresentedBimodule(path_algebra(y), algD2, [], [])):
            with pytest.raises(AlgebraError, match="over the inclusion's source"):
                extend_presented(pb, inc, algD2)

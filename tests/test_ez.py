from collections import Counter

import pytest
from hypothesis import given, settings, strategies

import dirhom as dh
from dirhom.cubechain import GradedComplex, build_complex, chain_catalog
from dirhom.exactla import Matrix, QQ
from dirhom.homology import ActionError, HomologyTable, homology_of, push_basis_map
from dirhom.precubical import PcMorphism, SubsetSpec, sub, tensor
from dirhom.ez import (
    ChainError, TensorComplex, TensorSetting, _comparison_maps, interleave_tensor,
    kunneth_report, separation_sign, split_chain, swap_steps, swappable_positions,
    tensor_comparison_report, zero_chain_count_report,
)

from oracles import (
    action_matrix, comparison_naturality_check, empty_chain, interleaving_matrix, make_chain,
    separating_matrix,
)


@pytest.fixture(scope="module")
def kk(K):
    return TensorSetting.build(K, K)


@pytest.fixture(scope="module")
def ss(S1):
    return TensorSetting.build(S1, S1)


class TestTensorComplex:
    def test_degree0_total_is_nine(self, kk):
        assert sum(kk.tc.dim(0, pair) for pair in kk.tc.pairs()) == 9

    def test_unit_factor(self, K):
        pt = dh.standard_cube(0)
        st = TensorSetting.build(K, pt)
        cx = build_complex(K)
        for pair in st.tc.pairs():
            (sx, _), (ex, _) = (st.tx.components(pair[0]),
                                st.tx.components(pair[1]))
            for n in range(st.tc.top_degree + 1):
                assert st.tc.dim(n, pair) == cx.dim(n, (sx, ex))

    def test_zero_factor_gives_zero(self, K):
        # tensor with an empty-complex pair: no chains from 1 to 0
        st = TensorSetting.build(K, K)
        pair = (st.tx.pair_id("1", "0"), st.tx.pair_id("0", "1"))
        for n in range(st.tc.top_degree + 1):
            assert st.tc.dim(n, pair) == 0

    def test_koszul_boundary_square(self, ss):
        ss.tc.check_boundary_square()


class TestSplitMaps:
    def test_zero_chain_split(self, kk):
        c = make_chain(kk.tx, ["(a,0)", "(1,a)"])
        cx, cy = split_chain(kk.tx, c)
        assert cx.cubes == ("a",) and cy.cubes == ("a",)

    def test_two_shuffles_collapse(self, kk):
        c1 = make_chain(kk.tx, ["(a,0)", "(1,a)"])
        c2 = make_chain(kk.tx, ["(0,a)", "(a,1)"])
        assert split_chain(kk.tx, c1) == split_chain(kk.tx, c2)

    def test_empty_chain_split(self, kk):
        c = empty_chain(kk.tx.pair_id("0", "0"))
        cx, cy = split_chain(kk.tx, c)
        assert cx == empty_chain("0") and cy == empty_chain("0")

    def test_mixed_square_killed(self, kk):
        c = make_chain(kk.tx, ["(a,a)"])
        assert split_chain(kk.tx, c) is None

    def test_pure_square_separated(self, D2, K):
        st = TensorSetting.build(D2, K)
        c = make_chain(st.tx, ["(aa,0)"])
        out = split_chain(st.tx, c)
        assert out is not None
        assert out[0].cubes == ("aa",) and out[1].cubes == ()

    def test_pure_square_and_edge_separated(self, D2, K):
        st = TensorSetting.build(D2, K)
        c = make_chain(st.tx, ["(aa,0)", "(11,a)"])
        out = split_chain(st.tx, c)
        assert out is not None
        assert out[0].cubes == ("aa",) and out[1].cubes == ("a",)

class TestInterleave:
    def test_edge_pair(self, kk, K):
        a = make_chain(K, ["a"])
        c = interleave_tensor(kk.tx, a, a)
        assert c.cubes == ("(a,0)", "(1,a)")

    def test_empty_pair(self, kk):
        c = interleave_tensor(kk.tx, empty_chain("0"), empty_chain("1"))
        assert c == empty_chain(kk.tx.pair_id("0", "1"))

    def test_square_with_empty_second(self, D2, K):
        st = TensorSetting.build(D2, K)
        sq = make_chain(D2, ["aa"])
        c = interleave_tensor(st.tx, sq, empty_chain("0"))
        assert c.cubes == ("(aa,0)",)

    def test_split_after_interleave_identity(self, kk, K):
        cat = chain_catalog(K)
        chains = [c for lst in cat.values() for c in lst]
        for ca in chains:
            for cb in chains:
                c = interleave_tensor(kk.tx, ca, cb)
                assert split_chain(kk.tx, c) == (ca, cb)


class TestSwaps:
    def test_basic_swap(self, kk):
        c = make_chain(kk.tx, ["(a,0)", "(1,a)"])
        assert swap_steps(kk.tx, c, 1).cubes == ("(0,a)", "(a,1)")

    def test_double_swap_identity(self, kk):
        c = make_chain(kk.tx, ["(a,0)", "(1,a)"])
        assert swap_steps(kk.tx, swap_steps(kk.tx, c, 1), 1) == c

    def test_swap_difference_is_boundary(self, kk, ss):
        for st in (kk, ss):
            cat = chain_catalog(st.tx)
            count = 0
            for (i, s, e), chains in sorted(cat.items()):
                if i != 0:
                    continue
                pair = (s, e)
                h = homology_of(st.cxp, 0, pair)
                for c in chains:
                    for k in swappable_positions(st.tx, c):
                        count += 1
                        other = swap_steps(st.tx, c, k)
                        v = list(st.cxp.vector_of(c, 0, s, e))
                        j = st.cxp.chain_index(other)
                        v[j] = v[j] - QQ.one
                        assert h.is_boundary(tuple(v))
            assert count > 0

    def test_bad_position_rejected(self, kk):
        c = make_chain(kk.tx, ["(a,0)", "(1,a)"])
        with pytest.raises(ChainError):
            swap_steps(kk.tx, c, 2)


class TestComparisonReport:
    def test_kk_all_checks(self, K):
        rep = tensor_comparison_report(K, K)
        assert rep.all_ok, rep.failures

    def test_s1s1_all_checks(self, S1):
        rep = tensor_comparison_report(S1, S1, max_degree=2)
        assert rep.all_ok, rep.failures

    def test_point_factor_identities(self, K):
        pt = dh.standard_cube(0)
        st = TensorSetting.build(pt, K)
        rep = tensor_comparison_report(pt, K, setting=st)
        assert rep.all_ok
        for pair in st.tc.pairs():
            for n in range(st.tc.top_degree + 1):
                sep = separating_matrix(st, n, *pair)
                ilv = interleaving_matrix(st, n, *pair)
                assert sep @ ilv == Matrix.identity(QQ, st.tc.dim(n, pair))
                assert ilv @ sep == Matrix.identity(QQ, st.cxp.dim(n, pair))

    def test_interleave_after_split_not_identity_at_chain_level(self, kk):
        # both interleavings map to the same separated tensor, so one of
        # them cannot come back to itself
        pair = (kk.tx.pair_id("0", "0"), kk.tx.pair_id("1", "1"))
        sep = separating_matrix(kk, 0, *pair)
        ilv = interleaving_matrix(kk, 0, *pair)
        assert ilv @ sep != Matrix.identity(QQ, kk.cxp.dim(0, pair))

    def test_separating_map_action_compatible_at_chain_level(self, kk):
        # on pure chains the separating map respects prepending an edge
        tx, cxp, tc = kk.tx, kk.cxp, kk.tc
        for edge in tx.edges:
            s = tx.edge_target(edge)
            for e in tx.vertices:
                pair = (s, e)
                if cxp.dim(0, pair) == 0:
                    continue
                s2 = tx.edge_source(edge)
                sep_src = separating_matrix(kk, 0, s, e)
                sep_dst = separating_matrix(kk, 0, s2, e)
                act_p = action_matrix(cxp, "left", edge, 0, pair)
                act_t = action_matrix(tc, "left", edge, 0, pair)
                assert sep_dst @ act_p == act_t @ sep_src


    def test_flipped_separation_sign_fails_the_chain_map_check(self, D2, monkeypatch):
        import dirhom.ez as ez
        st = TensorSetting.build(D2, D2)
        flipped = make_chain(st.tx, ["(00,aa)"])
        real = ez.separation_sign
        monkeypatch.setattr(ez, "separation_sign",
                            lambda tx, c: -real(tx, c) if c == flipped else real(tx, c))
        rep = tensor_comparison_report(D2, D2, setting=st)
        assert not rep.chain_maps_ok
        pair = (flipped.src, flipped.dst)
        assert (f"separating map not a chain map at 1 {pair}: witness <(00,aa)>"
                in rep.failures)
        # the square is the interleaving of <00> (x) <aa>, so the retract fails there
        assert not rep.split_after_interleave_is_identity
        assert (f"separate.interleave != id at 1 {pair}: witness "
                f"{st.tc._basis_name(1, pair, st.tc.index[(1, pair)][split_chain(st.tx, flipped)])}"
                in rep.failures)

    def test_corrupted_tensor_action_names_edge_degree_pair_and_pure_tensor(
            self, D2, monkeypatch):
        st = TensorSetting.build(D2, D2)
        into = st.tx.in_edges()
        # the first degree-1 component with an in-edge at its source
        (n, pair), a = next((k, a) for k in st.tc.components_with_chains if k[0] == 1
                            for a in into[k[1][0]])
        real = TensorComplex.left_action_targets

        def corrupted(tc, edge, i, pair_):
            targets = real(tc, edge, i, pair_)    # the zero map sends every tensor nowhere
            return [None] * len(targets) if (edge, i, pair_) == (a, n, pair) else targets

        monkeypatch.setattr(TensorComplex, "left_action_targets", corrupted)
        with pytest.raises(ActionError) as err:
            tensor_comparison_report(D2, D2, setting=st)
        ca, cb = st.tc.bases[(n, pair)][0]
        assert str(err.value) == (f"prepend by {a!r} is not a chain map at degree 1, pair "
                                  f"{pair}: witness {ca!r} (x) {cb!r}")

    def test_chain_map_checks_multiply_no_differential(self, D2, D3, monkeypatch):
        st = TensorSetting.build(D2, D3)
        operands = []
        matmul = Matrix.__matmul__

        def recorded(a, b):
            operands.extend((a, b))
            return matmul(a, b)

        monkeypatch.setattr(Matrix, "__matmul__", recorded)
        assert tensor_comparison_report(D2, D3, setting=st).all_ok
        # the chain-map checks re-index columns and the rest reads ranks:
        # the report multiplies nothing, a differential least of all
        assert not operands
        Matrix.identity(QQ, 1) @ Matrix.identity(QQ, 1)
        assert operands     # the recorder sees a product

    def test_inverse_fails_naming_degree_pair_and_both_dims(self, D2):
        # one low dropped from a product reduction lowers rank d_n by one,
        # so H_n and H_(n-1) of the product each gain a dimension
        st = TensorSetting.build(D2, D2)
        n, pair = next(k for k in st.cxp.components_with_chains
                       if k[0] and st.cxp.reduction(*k).image)
        r = st.cxp.reduction(n, pair)
        low = next(iter(r.image))
        st.cxp._reductions[st.cxp.diff_key(n, pair)] = r._replace(
            image={k: v for k, v in r.image.items() if k != low})
        rep = tensor_comparison_report(D2, D2, setting=st)
        assert rep.chain_maps_ok and rep.split_after_interleave_is_identity
        assert not rep.homology_inverse_ok and not rep.all_ok
        for m in (n - 1, n):
            dt = st.tc.homology_dim(m, pair)
            assert (f"homology comparison not inverse at {m} {pair}: "
                    f"product dim {dt + 1} != tensor dim {dt}") in rep.failures
        assert "inverse isomorphisms on homology:    FAIL" in str(rep)

    def test_swapped_parallel_edges_fail_the_action_check_with_a_witness(
            self, K, monkeypatch):
        # the directed circle with two parallel edges a, b : 0 -> 1; on the
        # tensor side, prepending a acts as prepending b and back, which is
        # still a chain map but not the product's action
        circle = dh.PrecubicalSet("O", [["0", "1"], ["a", "b"]],
                                  {"a": (["0"], ["1"]), "b": (["0"], ["1"])})
        st = TensorSetting.build(circle, K)
        tx = st.tx
        swap = {"a": "b", "b": "a"}
        real = TensorComplex.left_action_targets

        def swapped(tc, edge, i, pair):
            u, v = tx.components(edge)
            return real(tc, tx.pair_id(swap.get(u, u), v), i, pair)

        monkeypatch.setattr(TensorComplex, "left_action_targets", swapped)
        rep = tensor_comparison_report(circle, K, setting=st)
        assert (rep.chain_maps_ok and rep.split_after_interleave_is_identity
                and rep.homology_inverse_ok and not rep.action_compatible_ok)
        into = tx.in_edges()
        (n, pair), edge = next((k, a) for k in st.tc.components_with_chains
                               for a in into[k[1][0]] if tx.components(a)[0] in swap)
        ca, cb = st.tc.bases[(n, pair)][0]
        assert rep.failures[0] == (f"left action of {edge} at {n} {pair}: "
                                   f"witness {ca!r} (x) {cb!r}")
        assert all(f.startswith("left action of ") for f in rep.failures)

    def test_max_degree_below_the_top_checks_the_maps_one_degree_higher(
            self, D2, monkeypatch):
        # dim H_1 reads rank d_2, so a report up to degree 1 checks the
        # comparison maps in degree 2 too: a flipped degree-2 sign shows
        import dirhom.ez as ez
        st = TensorSetting.build(D2, D2)
        assert tensor_comparison_report(D2, D2, max_degree=1, setting=st).all_ok
        flipped = make_chain(st.tx, ["(00,aa)", "(aa,11)"])
        real = ez.separation_sign
        monkeypatch.setattr(ez, "separation_sign",
                            lambda tx, c: -real(tx, c) if c == flipped else real(tx, c))
        rep = tensor_comparison_report(D2, D2, max_degree=1, setting=st)
        assert rep.top_degree == 1 and not rep.chain_maps_ok
        assert not rep.homology_inverse_ok
        assert rep.failures == [f"separating map not a chain map at 2 "
                                f"{(flipped.src, flipped.dst)}: witness {flipped!r}"]


class TestSeparationSign:
    def test_square_before_square_by_hand(self, D2):
        # <(00,aa),(aa,11)> runs the Y-square first, at the X-vertex 00, then
        # the X-square at the Y-vertex 11.  Separating it moves a cube of
        # dimension 2 past one of dimension 2: sign (-1)^((2-1)(2-1)) = -1.
        # The interleaving <(aa,00),(11,aa)> keeps the X-square first: +1.
        st = TensorSetting.build(D2, D2)
        y_first = make_chain(st.tx, ["(00,aa)", "(aa,11)"])
        x_first = make_chain(st.tx, ["(aa,00)", "(11,aa)"])
        square = make_chain(D2, ["aa"])
        assert split_chain(st.tx, y_first) == split_chain(st.tx, x_first) == (square, square)
        assert (separation_sign(st.tx, y_first), separation_sign(st.tx, x_first)) == (-1, 1)
        pair = (y_first.src, y_first.dst)
        sep = separating_matrix(st, 2, *pair)
        row = st.tc.index[(2, pair)][(square, square)]
        assert sep.entry(row, st.cxp.chain_index(y_first)) == -1
        assert sep.entry(row, st.cxp.chain_index(x_first)) == 1

    def test_edges_and_odd_cubes_carry_no_sign(self, kk):
        c = make_chain(kk.tx, ["(0,a)", "(a,1)"])
        assert separation_sign(kk.tx, c) == 1


def reference_comparison(x, y) -> tuple[tuple[bool, ...], dict]:
    """The comparison checked on homology, as the report checked it before
    it read ranks: a `HomologyTable` of each of the four complexes, the
    chain-map and retract identities as matrix products, and the comparison
    maps and edge actions pushed to homology (`push_basis_map`) and
    multiplied.  Gives the four flags of `ComparisonReport` and, for each
    complex, its table's dimension at every (degree, pair) with chains."""
    st = TensorSetting.build(x, y)
    tx, cxp, tc = st.tx, st.cxp, st.tc
    tables = {"cxa": HomologyTable(st.cxa, x), "cxb": HomologyTable(st.cxb, y),
              "cxp": HomologyTable(cxp, tx), "tc": HomologyTable(tc, tx)}
    hp, ht = tables["cxp"], tables["tc"]
    keys = sorted(set(cxp.components_with_chains + tc.components_with_chains))
    sep = {(n, pair): separating_matrix(st, n, *pair) for n, pair in keys}
    ilv = {(n, pair): interleaving_matrix(st, n, *pair) for n, pair in keys}

    def below(f, n, pair, rows, cols):
        return f[(n - 1, pair)] if (n - 1, pair) in f else Matrix.zeros(QQ, rows, cols)

    chain_ok = all(
        tc.diff(n, pair) @ sep[(n, pair)]
        == below(sep, n, pair, tc.dim(n - 1, pair), cxp.dim(n - 1, pair)) @ cxp.diff(n, pair)
        and cxp.diff(n, pair) @ ilv[(n, pair)]
        == below(ilv, n, pair, cxp.dim(n - 1, pair), tc.dim(n - 1, pair)) @ tc.diff(n, pair)
        for n, pair in keys if n)
    retract_ok = all(sep[k] @ ilv[k] == Matrix.identity(QQ, tc.dim(*k)) for k in keys)
    sep_h, ilv_h = {}, {}
    for n, pair in keys:
        k = (n, *pair)
        positions = _comparison_maps(tx, cxp, tc, n, *pair)
        src_p, src_t = hp.entries.get(k), ht.entries.get(k)
        sep_h[(n, pair)] = push_basis_map(lambda: positions[0], src_p, src_t, cxp._zero)
        ilv_h[(n, pair)] = push_basis_map(lambda: positions[1], src_t, src_p, cxp._zero)
    inverse_ok = all(sep_h[k] @ ilv_h[k] == Matrix.identity(QQ, ht.dim(k[0], *k[1]))
                     and ilv_h[k] @ sep_h[k] == Matrix.identity(QQ, hp.dim(k[0], *k[1]))
                     for k in keys)
    into, out = tx.in_edges(), tx.out_edges()
    action_ok = all(
        ilv_h[(n, to)] @ act_t(a, n, s, e) == act_p(a, n, s, e) @ ilv_h[(n, (s, e))]
        for n, (s, e) in keys
        for a, act_p, act_t, to in
        [(a, hp.left_action, ht.left_action, (tx.edge_source(a), e)) for a in into[s]]
        + [(a, hp.right_action, ht.right_action, (s, tx.edge_target(a))) for a in out[e]])
    dims = {name: {(n, pair): t.dim(n, *pair) for n, pair in t.cx.components_with_chains}
            for name, t in tables.items()}
    return (chain_ok, retract_ok, inverse_ok, action_ok), dims


def assert_comparison_and_kunneth_hold(x, y):
    """The report and the Kunneth identity hold, the report's flags are the
    homology oracle's, and every rank-read dimension is the oracle's."""
    st = TensorSetting.build(x, y)
    rep = tensor_comparison_report(x, y, setting=st)
    assert rep.all_ok, rep.failures
    assert kunneth_report(x, y, setting=st).identity_holds
    flags, dims = reference_comparison(x, y)
    assert flags == (rep.chain_maps_ok, rep.split_after_interleave_is_identity,
                     rep.homology_inverse_ok, rep.action_compatible_ok)
    for name in ("cxa", "cxb", "cxp", "tc"):
        cx = getattr(st, name)
        assert {(n, pair): cx.homology_dim(n, pair)
                for n in range(cx.top_degree + 2) for pair in cx.pairs()} == {
            (n, pair): dims[name].get((n, pair), 0)
            for n in range(cx.top_degree + 2) for pair in cx.pairs()}


@pytest.mark.parametrize("x, y", [
    (dh.directed_disc(2), dh.directed_disc(2)), (dh.directed_disc(2), dh.directed_disc(3)),
    (dh.directed_sphere(2), dh.directed_disc(2)), (dh.directed_disc(2), dh.directed_sphere(1)),
], ids=["D2xD2", "D2xD3", "S2xD2", "D2xS1"])
def test_comparison_with_squares_on_both_sides(x, y):
    assert_comparison_and_kunneth_hold(x, y)


@pytest.mark.parametrize("x, y", [
    (dh.segment(), dh.segment()), (dh.standard_cube(0), dh.segment()),
    (dh.directed_sphere(1), dh.directed_sphere(1)),
], ids=["KxK", "ptxK", "S1xS1"])
def test_comparison_without_squares_matches_the_homology_oracle(x, y):
    assert_comparison_and_kunneth_hold(x, y)


realization_sequences = strategies.lists(strategies.integers(1, 2), min_size=1,
                                         max_size=3).filter(lambda seq: sum(seq) <= 3)


@settings(max_examples=12, deadline=None)
@given(realization_sequences, realization_sequences)
def test_comparison_holds_on_products_of_realizations(a, b):
    assert_comparison_and_kunneth_hold(dh.realization(a), dh.realization(b))


class TestNaturality:
    def test_sphere_product_into_disc_product(self, D2, S1):
        spec = SubsetSpec(D2, frozenset(S1.all_cells()))
        y, inc = sub(D2, spec)
        assert comparison_naturality_check(inc, inc)

    def test_identity_pair(self, K):
        f = PcMorphism.identity(K)
        assert comparison_naturality_check(f, f)

    def test_squares_multiply_nothing_outside_the_boundary_checks(self, D2, S1, monkeypatch):
        _, inc = sub(D2, SubsetSpec(D2, frozenset(S1.all_cells())))
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
        assert comparison_naturality_check(inc, inc)
        assert calls["outside"] == 0 and calls["d.d"] > 0

    def test_flipped_separation_sign_breaks_naturality(self, D2, S1, monkeypatch):
        import dirhom.ez as ez
        y, inc = sub(D2, SubsetSpec(D2, frozenset(S1.all_cells())))
        # one edge path of the source product, whose image in D2 (x) D2 keeps its sign
        flipped = TensorSetting.build(y, y).cxp.bases[(0, "(00,00)", "(11,11)")][0]
        real = ez.separation_sign
        monkeypatch.setattr(ez, "separation_sign", lambda tx, c: (
            -real(tx, c) if tx.left is y and c == flipped else real(tx, c)))
        assert not comparison_naturality_check(inc, inc)


def test_comparison_builds_and_decodes_no_basis_map_matrix(D2, S1, monkeypatch):
    """The comparison maps are built, checked and pushed as signed positions:
    the report builds no matrix view of a basis map, so it decodes none."""
    import dirhom.cubechain as cc
    import dirhom.ez as ez
    import dirhom.homology as H
    import oracles
    calls = []
    units, real = Matrix.unit_columns, oracles.basis_map_matrix
    monkeypatch.setattr(Matrix, "unit_columns",
                        classmethod(lambda cls, *a: calls.append("unit") or units(*a)))
    monkeypatch.setattr(oracles, "basis_map_matrix", lambda *a: calls.append("basis") or real(*a))
    assert not any(hasattr(mod, name) for mod in (cc, H, ez)
                   for name in ("_basis_matrix", "_unit_targets"))
    assert tensor_comparison_report(D2, S1).all_ok
    assert not calls
    st = TensorSetting.build(D2, S1)
    separating_matrix(st, 0, *st.cxp.pairs()[0])
    Matrix.unit_columns(QQ, 1, [0])
    assert calls == ["basis", "unit"]     # both counters are live


class TestKunneth:
    def test_s1s1_h1_vanishes(self, S1):
        st = TensorSetting.build(S1, S1)
        rep = kunneth_report(S1, S1, setting=st)
        assert rep.identity_holds
        start = st.tx.pair_id("00", "00")
        end = st.tx.pair_id("11", "11")
        assert rep.product_dims[(1, (start, end))] == 0

    def test_disc_factorization(self, K):
        st = TensorSetting.build(K, K)
        rep = kunneth_report(K, K, setting=st)
        assert rep.identity_holds
        start = st.tx.pair_id("0", "0")
        end = st.tx.pair_id("1", "1")
        assert rep.product_dims[(0, (start, end))] == 1

    def test_point_factor_trivial(self, K):
        pt = dh.standard_cube(0)
        rep = kunneth_report(K, pt)
        assert rep.identity_holds

    def test_reports_compute_no_homology(self, S1, monkeypatch):
        # both reports on one setting read ranks: no homology of any
        # complex is computed and no table is built
        import dirhom.homology as H
        st = TensorSetting.build(S1, S1)
        calls = []
        real = HomologyTable.__init__
        monkeypatch.setattr(H, "homology_of", lambda *a: calls.append(a) or homology_of(*a))
        monkeypatch.setattr(HomologyTable, "__init__",
                            lambda t, *a: calls.append(a) or real(t, *a))
        assert tensor_comparison_report(S1, S1, setting=st).all_ok
        assert kunneth_report(S1, S1, setting=st).identity_holds
        assert not calls
        HomologyTable(st.cxa, S1)
        assert calls    # the counters are live

    def test_each_differential_reduced_at_most_once(self, D2, D3, monkeypatch):
        # the comparison and the report share the reductions each complex
        # keeps, and reduce differentials of the four complexes only
        import dirhom.cubechain as cc
        st = TensorSetting.build(D2, D3)
        reduced = Counter()
        real = cc.column_reduction
        monkeypatch.setattr(cc, "column_reduction",
                            lambda m: reduced.update([id(m)]) or real(m))
        assert tensor_comparison_report(D2, D3, setting=st).all_ok
        assert kunneth_report(D2, D3, setting=st).identity_holds
        diffs = {id(m) for cx in (st.cxp, st.tc, st.cxa, st.cxb) for m in cx._diffs.values()}
        assert reduced and max(reduced.values()) == 1 and set(reduced) <= diffs


class TestObstructionReport:
    def test_kk_counts(self, K):
        rep = zero_chain_count_report(K, K)
        assert rep.tensor_side_dim0 == 9
        assert rep.product_chain_dim0 == 10
        assert rep.product_chain_dim1 == 1
        assert rep.product_chain_dim0 != rep.tensor_side_dim0
        assert "eleven" in rep.note

    def test_point_no_obstruction(self, K):
        pt = dh.standard_cube(0)
        rep = zero_chain_count_report(K, pt)
        assert rep.product_chain_dim0 == rep.tensor_side_dim0
        assert rep.note == ""

import math
import sys

import pytest
from hypothesis import given, settings, strategies as st

import dirhom as dh
import dirhom.cubechain as cc
from dirhom.cubechain import (
    BoundaryCheckError, ChainBudgetError, ChainError, CubeChain, DirectedCycleError,
    PairGradedComplex,
    build_complex, chain_catalog, enumerate_chains, enumerate_shuffles, project_shuffle,
    _chain_map_witness,
)
from dirhom.exactla import Matrix, PrimeField, QQ, _modulus, _neg
from dirhom.precubical import PcMorphism, PrecubicalSet, realization, tensor

from conftest import corpus, make_domino, sequences_of_dimension
from oracles import (
    FormalSum, basis_map_matrix, boundary, corner_kahn_table, empty_chain, make_chain,
    sorted_list_order, split_cube, split_list,
)
from test_cli_reference import make_grid3


def _unit_targets(m: Matrix) -> tuple[list[int | None], set[int]]:
    """A 0/+-1 basis map given as a matrix, decoded to signed positions: the
    row of the one entry of each column, None for a zero column, and the set
    of columns whose entry is -1; raises ChainError on any other entry or on
    a second entry in a column.  The tests state chain-map squares as
    matrices and hand them to `_chain_map_witness` through this decoder."""
    minus = _neg(1, _modulus(m.field))
    targets: list[int | None] = [None] * m.cols
    negated: set[int] = set()
    for j, col in enumerate(m.sparse_columns()):
        for i, a in col.items():
            if (a != 1 and a != minus) or targets[j] is not None:
                raise ChainError(f"column {j} of a {m.rows}x{m.cols} map is neither 0 "
                                 "nor a signed unit vector")
            targets[j] = i
            if a != 1:
                negated.add(j)
    return targets, negated


def walk_paths(x, s, e):
    """Independent oracle: all monotone edge paths s -> e by vertex DFS."""
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


class TestEnumeration:
    def test_two_monotone_paths_in_disc(self, D2):
        chains = enumerate_chains(D2, 0, "00", "11")
        assert len(chains) == len(walk_paths(D2, "00", "11")) == 2

    def test_unique_one_chain_in_disc(self, D2):
        chains = enumerate_chains(D2, 1, "00", "11")
        assert len(chains) == 1
        assert chains[0].cubes == ("aa",)

    def test_empty_chain_counts(self, K):
        assert enumerate_chains(K, 0, "0", "0") == [empty_chain("0")]
        # an edge has exactly three degree-0 chains in total
        cat = chain_catalog(K)
        assert sum(len(v) for k, v in cat.items() if k[0] == 0) == 3

    def test_cycle_rejected(self):
        loop = PrecubicalSet("loop", [["0"], ["a"]], {"a": (["0"], ["0"])})
        with pytest.raises(DirectedCycleError):
            chain_catalog(loop)

    def test_deterministic_order(self, D2):
        chains = enumerate_chains(D2, 0, "00", "11")
        assert chains == sorted(chains, key=CubeChain.sort_key)

    def test_degree_is_a_stored_read_only_attribute(self, D3):
        c = make_chain(D3, ["aaa"])
        assert c.degree == 2 == sum(n - 1 for n in c.dims)
        assert c == CubeChain(c.src, c.dst, c.cubes, c.dims)
        with pytest.raises(AttributeError):
            c.degree = 0
        assert c.degree == 2


def reference_chain_catalog(x, max_degree=None):
    """The enumeration that the corner table replaced: a recursive walk that
    asks the set for each cube's dimension and final vertex, pushes and pops
    the cubes of the chain being extended, and sorts each list by length,
    then cube ids."""
    start_at = {v: [] for v in x.vertices}
    for layer in x.cells[1:]:
        for c in layer:
            start_at[x.initial_vertex(c)].append(c)
    for v in start_at:
        start_at[v].sort(key=lambda c: (x.dim_of(c), c))
    catalog = {}

    def extend(src, here, cubes, dims, deg):
        chain = CubeChain(src, here, tuple(cubes), tuple(dims))
        catalog.setdefault((deg, src, here), []).append(chain)
        for c in start_at[here]:
            n = x.dim_of(c)
            if max_degree is not None and deg + n - 1 > max_degree:
                continue
            cubes.append(c)
            dims.append(n)
            extend(src, x.final_vertex(c), cubes, dims, deg + n - 1)
            cubes.pop()
            dims.pop()

    for v in sorted(x.vertices):
        extend(v, v, [], [], 0)
    for chains in catalog.values():
        chains.sort(key=lambda c: (len(c.cubes), c.cubes))
    return catalog


def catalog_corpus():
    """Discs, spheres, realizations, a path of 40 edges, the 3 x 3 grid and
    a product set, named for the test ids."""
    sets = ([dh.directed_disc(n) for n in (2, 3, 4)] + [dh.directed_sphere(n) for n in (1, 2, 3)]
            + [realization(seq) for seq in ([2, 2, 2], [3, 3], [1] * 40)]
            + [make_grid3()[0], tensor(dh.directed_sphere(1), dh.directed_disc(2))])
    return {x.name if len(x.name) < 20 else x.name[:17] + "...": x for x in sets}


CATALOG_CORPUS = catalog_corpus()


class TestCatalogAgainstTheReference:
    @pytest.mark.parametrize("max_degree", [None, 0, 1, 2])
    @pytest.mark.parametrize("name", sorted(CATALOG_CORPUS))
    def test_corpus_catalog_is_the_reference_in_order(self, name, max_degree):
        x = CATALOG_CORPUS[name]
        # as dicts, so each key's list in order
        assert chain_catalog(x, max_degree) == reference_chain_catalog(x, max_degree)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_face_closed_subsets_enumerate_like_the_reference(self, data):
        x = CATALOG_CORPUS[data.draw(st.sampled_from(sorted(CATALOG_CORPUS)), label="set")]
        picked = data.draw(st.lists(st.sampled_from(x.all_cells()), min_size=1, max_size=6),
                           label="cells")
        y, _ = dh.sub(x, dh.SubsetSpec(x, dh.face_closure(x, picked)))
        max_degree = data.draw(st.sampled_from([None, 0, 1, 2]), label="max degree")
        assert chain_catalog(y, max_degree) == reference_chain_catalog(y, max_degree)

    def test_a_path_deeper_than_the_recursion_limit(self):
        """The enumeration recurses nowhere: a path of 400 edges enumerates
        like the reference, computed beforehand, with a recursion limit of 200."""
        x = realization([1] * 400)
        ref = reference_chain_catalog(x)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            got = chain_catalog(x)
        finally:
            sys.setrecursionlimit(limit)
        assert got == ref and sum(map(len, got.values())) == 401 * 402 // 2

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(corpus() + list(CATALOG_CORPUS.values())),
           st.sampled_from([None, 0, 1, 2, 3]))
    def test_count_is_the_catalog_size(self, x, max_degree):
        top = math.inf if max_degree is None else max_degree
        chains = [c for cs in chain_catalog(x, max_degree).values() for c in cs]
        assert cc._chain_count(*cc._corner_table(x), top) == \
            (len(chains), sum(len(c.cubes) for c in chains))

    def test_a_set_over_the_budget_is_refused(self, monkeypatch):
        n = sum(map(len, chain_catalog(dh.directed_disc(3)).values()))
        monkeypatch.setattr(cc, "CHAIN_BUDGET", n - 1)
        with pytest.raises(ChainBudgetError, match=f"^D3: {n:,} cube chains, more than "
                                                   f"the {n - 1:,} a chain catalog"):
            chain_catalog(dh.directed_disc(3))
        monkeypatch.setattr(cc, "CHAIN_BUDGET", n)
        assert sum(map(len, chain_catalog(dh.directed_disc(3)).values())) == n
        entries = sum(len(c.cubes) for cs in chain_catalog(dh.directed_disc(3)).values()
                      for c in cs)
        monkeypatch.setattr(cc, "ENTRY_BUDGET", entries - 1)
        with pytest.raises(ChainBudgetError, match=f"^D3: {entries:,} cube entries in its "
                                                   f"chains, more than the {entries - 1:,}"):
            chain_catalog(dh.directed_disc(3))


def grid(m: int, n: int) -> PrecubicalSet:
    """The m x n grid of squares, the tensor product of paths of m and n edges."""
    return tensor(realization([1] * m), realization([1] * n))


class TestOneVertexOrder:
    """`PrecubicalSet.topological_order` is the one Kahn pass: it gives the
    order of the sorted-list pass it replaced, and the corner table reads it,
    with the rows that its own Kahn pass over cube corners once gave."""

    @staticmethod
    def check_order_and_table(x):
        order = x.topological_order()
        assert order == sorted_list_order(x)
        starting, table_order = cc._corner_table(x)
        old_starting, old_order = corner_kahn_table(x)
        assert table_order == order and starting == old_starting
        assert sorted(order) == sorted(old_order)

    @pytest.mark.parametrize("x", corpus() + list(CATALOG_CORPUS.values()),
                             ids=lambda x: x.name[:20])
    def test_corpus(self, x):
        self.check_order_and_table(x)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_face_closed_subsets_of_grids(self, data):
        x = grid(data.draw(st.integers(1, 4), label="m"), data.draw(st.integers(1, 4), label="n"))
        picked = data.draw(st.lists(st.sampled_from(x.all_cells()), min_size=1, max_size=8),
                           label="cells")
        y, _ = dh.sub(x, dh.SubsetSpec(x, dh.face_closure(x, picked)))
        self.check_order_and_table(y)

    def test_a_cycle_has_no_order(self):
        loop = PrecubicalSet("loop", [["0", "1"], ["a", "b"]],
                             {"a": (["0"], ["1"]), "b": (["1"], ["0"])})
        assert loop.topological_order() is None is sorted_list_order(loop)
        with pytest.raises(DirectedCycleError, match="^loop: .* acyclic vertex-edge digraph"):
            cc._corner_table(loop)

    def test_a_square_that_ends_before_it_starts(self):
        """The path u -> v -> w -> z with a square s whose faces break the
        cubical identities: its initial corner, the source w of its first
        lower face, comes after its final corner, the target v of its first
        upper face.  The edges alone have an order; the catalog refuses s."""
        x = PrecubicalSet("bent", [["u", "v", "w", "z"], ["f", "g", "h"], ["s"]],
                          {"f": (["u"], ["v"]), "g": (["v"], ["w"]), "h": (["w"], ["z"]),
                           "s": (["h", "g"], ["f", "g"])})
        assert {v.kind for v in x.validate()} == {"identity"}
        assert x.topological_order() == ["u", "v", "w", "z"]
        with pytest.raises(DirectedCycleError,
                           match="^bent: .* start before it ends, but 's' goes from 'w' to 'v'$"):
            chain_catalog(x)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.sampled_from([f"b{k}.*" for k in range(1, 5)]), min_size=4, max_size=4))
    def test_any_square_on_a_path_is_enumerated_or_refused_by_name(self, faces):
        """A square with any four edges of a path of four edges for faces:
        the catalog is the reference one when the square starts before it
        ends in the vertex order, and otherwise DirectedCycleError names it."""
        path = realization([1] * 4)
        x = PrecubicalSet("bent", [*path.cells, ["s"]],
                          {**path.faces, "s": (faces[:2], faces[2:])})
        at = {v: k for k, v in enumerate(x.topological_order())}
        if at[x.initial_vertex("s")] < at[x.final_vertex("s")]:
            assert chain_catalog(x) == reference_chain_catalog(x)
        else:
            with pytest.raises(DirectedCycleError, match="but 's' goes from"):
                chain_catalog(x)


class TestCubeChainContract:
    def test_fields_and_degree_are_read_only(self, D3):
        c = make_chain(D3, ["aaa"])
        for name in ("src", "dst", "cubes", "dims", "degree"):
            with pytest.raises(AttributeError):
                setattr(c, name, getattr(c, name))
        assert (c.src, c.dst, c.cubes, c.dims, c.degree) == ("000", "111", ("aaa",), (3,), 2)

    def test_a_chain_compares_as_a_4_tuple(self, D2):
        c = make_chain(D2, ["a0", "1a"])
        assert c == ("00", "11", ("a0", "1a"), (1, 1))
        assert hash(c) == hash(("00", "11", ("a0", "1a"), (1, 1)))

    def test_made_and_field_by_field_chains_are_one_key(self, D2, K):
        cx = build_complex(D2)
        for (i, s, e), chains in cx.bases.items():
            for j, c in enumerate(chains):
                made = make_chain(D2, c.cubes, at=s)
                fields = CubeChain(s, e, c.cubes, c.dims)
                assert made == fields and hash(made) == hash(fields)
                assert cx.index[(i, s, e)][made] == cx.index[(i, s, e)][fields] == j
        from dirhom.ez import TensorComplex
        tx = tensor(K, D2)
        tc = TensorComplex(tx, build_complex(K), cx)
        looked_up = 0
        for key, rows in tc.bases.items():
            for j, (ca, cb) in enumerate(rows):
                t = (make_chain(K, ca.cubes, at=ca.src),
                     CubeChain(cb.src, cb.dst, cb.cubes, cb.dims))
                assert tc.index[key][t] == j
                looked_up += 1
        assert looked_up == sum(map(len, tc.bases.values())) > 0

    def test_repr(self, D2):
        assert repr(make_chain(D2, ["aa"])) == "<aa>"
        assert repr(CubeChain("00", "11", ("a0", "1a"), (1, 1))) == "<a0,1a>"
        assert repr(empty_chain("00")) == "<@00>"


class TestBoundary:
    def test_square_chain_boundary(self, D2):
        c = make_chain(D2, ["aa"])
        b = boundary(D2, c)
        lower = make_chain(D2, ["a0", "1a"])
        upper = make_chain(D2, ["0a", "a1"])
        assert set(b.terms) == {lower, upper}
        # the two splittings carry opposite signs
        assert b.terms[lower] == -b.terms[upper]

    def test_degree_zero_rejected(self, K):
        with pytest.raises(ChainError):
            boundary(K, empty_chain("0"))
        with pytest.raises(ChainError):
            boundary(K, make_chain(K, ["a"]))

    def test_cube_boundary_has_six_terms(self):
        r = realization([3])
        top = enumerate_chains(r, 2, r.start, r.end)[0]
        b = boundary(r, top)
        assert len(b.terms) == 6
        for term in b.terms:
            assert term.degree == 1
            assert (term.src, term.dst) == (top.src, top.dst)

    def test_boundary_preserves_endpoints_drops_degree(self):
        for x in [dh.directed_disc(3), realization([2, 2])]:
            cat = chain_catalog(x)
            for (i, s, e), chains in cat.items():
                if i == 0:
                    continue
                for c in chains:
                    b = boundary(x, c)
                    for term in b.terms:
                        assert term.degree == i - 1
                        assert (term.src, term.dst) == (s, e)

    def test_split_cube_gluing(self, D3):
        lower, upper = split_cube(D3, "aaa", [1])
        assert D3.final_vertex(lower) == D3.initial_vertex(upper)
        assert D3.initial_vertex(lower) == "000"
        assert D3.final_vertex(upper) == "111"


class TestComplex:
    def test_disc_complex(self, D2):
        cx = build_complex(D2)
        assert cx.dim(0, ("00", "11")) == 2
        assert cx.dim(1, ("00", "11")) == 1
        from dirhom.exactla import rank
        assert rank(cx.diff(1, ("00", "11"))) == 1

    def test_sphere_complex(self, S1):
        cx = build_complex(S1)
        assert cx.dim(0, ("00", "11")) == 2
        assert cx.dim(1, ("00", "11")) == 0

    def test_point_complex(self):
        cx = build_complex(dh.standard_cube(0))
        assert cx.dim(0, ("v", "v")) == 1
        assert cx.top_degree == 0

    def test_boundary_square_zero_corpus(self):
        for x in corpus():
            build_complex(x).check_boundary_square()

    def test_truncation(self, D3):
        cx = build_complex(D3, max_degree=1)
        assert cx.top_degree == 1

    def test_broken_boundary_square_names_a_witness_chain(self):
        # flip the sign of one entry in column 1 of d_2 at the top pair: the
        # product d_1 @ d_2 stays zero on column 0 and breaks on column 1
        d4 = dh.directed_disc(4)
        cx = build_complex(d4)
        pair, j = ("0000", "1111"), 1
        cols = cx.diff(2, pair).sparse_columns()
        r = min(cols[j])
        cols[j][r] = -cols[j][r]
        diffs = {(i, *k): cx.diff(i, k) for i, k in cx.components_with_chains if i}
        diffs[(2, *pair)] = Matrix.from_sparse_columns(QQ, cx.dim(1, pair), cols)
        witness = cx.bases[(2, *pair)][j]
        with pytest.raises(BoundaryCheckError) as err:
            PairGradedComplex(d4, QQ, cx.top_degree, cx.bases, diffs, cx.positions)
        assert str(err.value) == f"d.d != 0 at degree 2, pair {pair}: witness {witness!r}"


def reference_boundary_terms(x, chain):
    """The per-chain construction that the split lists replaced: split_cube
    for every term, and a new CubeChain per term with its +-1 coefficient."""
    prefix_deg = 0
    for k, (cube, n) in enumerate(zip(chain.cubes, chain.dims)):
        if n >= 2:
            eps_k = -1 if prefix_deg % 2 else 1
            for mask in range(1, (1 << n) - 1):
                a_set = tuple(i + 1 for i in range(n) if mask >> i & 1)
                comp = [i for i in range(1, n + 1) if i not in a_set]
                sign = eps_k * (-1) ** len(a_set)
                if sum(1 for a in a_set for c in comp if c < a) % 2:
                    sign = -sign
                lower, upper = split_cube(x, cube, a_set)
                cubes = chain.cubes[:k] + (lower, upper) + chain.cubes[k + 1:]
                dims = chain.dims[:k] + (len(a_set), n - len(a_set)) + chain.dims[k + 1:]
                yield CubeChain(chain.src, chain.dst, cubes, dims), sign
        prefix_deg += n - 1


def reference_differential(x, field, chains, below):
    """d from `chains` to the basis `below`, looking each term's chain up."""
    index = {c: j for j, c in enumerate(below)}
    cols = []
    for chain in chains:
        col = {}
        for term, sign in reference_boundary_terms(x, chain):
            col[index[term]] = col.get(index[term], 0) + sign
        cols.append(col)
    return Matrix.from_sparse_columns(field, len(below), cols)


# The 3-cube modulo swapping its directions 1 and 3 on its faces, closed
# under the face maps: its faces d_1 and d_3 agree.
FOLD3 = PrecubicalSet("fold3", [["000", "010", "110", "111"], ["0a0", "1a0", "1a1"],
                                ["a0a", "a1a", "aa0", "aa1"], ["aaa"]], {
    "0a0": (["000"], ["010"]), "1a0": (["010"], ["110"]), "1a1": (["110"], ["111"]),
    "a0a": (["0a0", "0a0"], ["1a0", "1a0"]), "aa0": (["0a0", "0a0"], ["1a0", "1a0"]),
    "a1a": (["1a0", "1a0"], ["1a1", "1a1"]), "aa1": (["1a0", "1a0"], ["1a1", "1a1"]),
    "aaa": (["aa0", "a0a", "aa0"], ["aa1", "a1a", "aa1"])})


class TestSplitLists:
    @pytest.mark.parametrize("field", [QQ, PrimeField(7)])
    def test_every_differential_is_the_per_chain_reference(self, field):
        for x in corpus() + list(CATALOG_CORPUS.values()):
            cx = build_complex(x, None, field)
            checked = 0
            for (i, s, e), chains in cx.bases.items():
                if i:
                    below = cx.bases.get((i - 1, s, e), [])
                    assert cx.diff(i, (s, e)) == reference_differential(x, field, chains, below)
                    checked += 1
            assert checked == sum(1 for k in cx.bases if k[0])

    def test_boundary_is_the_per_chain_reference(self):
        for x in (dh.directed_disc(3), realization([2, 3]), make_domino()):
            for (i, _, _), chains in chain_catalog(x).items():
                for c in chains if i else ():
                    ref = FormalSum(QQ)
                    for term, sign in reference_boundary_terms(x, c):
                        ref.add_term(term, sign)
                    assert boundary(x, c).terms == ref.terms

    def test_splits_with_equal_parts_share_one_entry(self):
        # a square whose two boundary paths are both e.f: its two splits
        # have equal parts and opposite signs, so its boundary is zero
        x = PrecubicalSet("fold", [["0", "1", "m"], ["e", "f"], ["c"]],
                          {"e": (["0"], ["m"]), "f": (["m"], ["1"]),
                           "c": (["e", "e"], ["f", "f"])})
        assert not x.validate()
        cx = build_complex(x)
        pair = ("0", "1")
        assert cx.diff(1, pair) == reference_differential(x, QQ, cx.bases[(1, *pair)],
                                                          cx.bases[(0, *pair)])
        assert cx.diff(1, pair).is_zero() and boundary(x, make_chain(x, ["c"])).is_zero()

    @pytest.mark.parametrize("x", corpus() + list(CATALOG_CORPUS.values()) + [FOLD3],
                             ids=lambda x: x.name[:20])
    def test_table_split_lists_are_the_split_cube_oracle(self, x):
        for n in range(2, len(x.cells)):
            for c in x.cells_of_dim(n):
                assert cc._split_list(x, c) == split_list(x, c)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_face_closed_subsets_split_like_the_oracle(self, data):
        x = data.draw(st.sampled_from([dh.directed_disc(4), realization([3, 2]),
                                       dh.directed_sphere(3)]), label="set")
        picked = data.draw(st.lists(st.sampled_from(x.all_cells()), min_size=1, max_size=6),
                           label="cells")
        y, _ = dh.sub(x, dh.SubsetSpec(x, dh.face_closure(x, picked)))
        for n in range(2, len(y.cells)):
            for c in y.cells_of_dim(n):
                assert cc._split_list(y, c) == split_list(y, c)

    @pytest.mark.parametrize("p", [2, 1009])
    def test_field_form_columns_keep_no_zero_entry(self, p):
        """The 3-cube of FOLD3 splits into equal parts whose signs add to -2
        and 2, which vanish over F_2; glued after a square of D2 in D2 (x)
        FOLD3, an odd prefix degree negates them.  Every differential has the
        columns of the `from_sparse_columns` reference, so stores no zero."""
        assert not FOLD3.validate()
        assert [sign for _, sign in cc._split_list(FOLD3, "aaa")] == [-2, 1, 2, -1]
        field = PrimeField(p)
        for x in (FOLD3, tensor(dh.directed_disc(2), FOLD3)):
            cx = build_complex(x, None, field)
            for i, pair in cx.components_with_chains:
                if i:
                    cols = cx.diff(i, pair).sparse_columns()
                    assert all(a for col in cols for a in col.values())
                    assert cols == reference_differential(
                        x, field, cx.bases[(i, *pair)], cx.bases[(i - 1, *pair)]).sparse_columns()
        top = build_complex(FOLD3, None, field).diff(2, ("000", "111")).sparse_columns()
        assert len(top[0]) == (2 if p == 2 else 4)


class TestLemmaSuite:
    @pytest.mark.parametrize("dim", [0, 1, 2])
    def test_unique_chain_of_full_degree_in_realization(self, dim):
        for seq in sequences_of_dimension(dim, max_blocks=3):
            r = realization(seq)
            chains = enumerate_chains(r, dim, r.start, r.end)
            assert len(chains) == 1
            assert chains[0].type == seq

    def test_chain_morphism_bijection(self):
        # chains of degree i correspond to maps of i-dimensional realizations
        targets = [dh.directed_disc(2), dh.directed_sphere(1),
                   realization([2, 1]), realization([1, 2, 1])]
        for x in targets:
            for i in (0, 1, 2):
                for s in x.vertices:
                    for e in x.vertices:
                        chains = enumerate_chains(x, i, s, e)
                        count = count_realization_morphisms(x, i, s, e)
                        assert len(chains) == count, (x.name, i, s, e)

    def test_shuffle_round_trip_unique(self, K, S1):
        for x, y in [(K, K), (K, S1)]:
            t = tensor(x, y)
            cat = chain_catalog(t)
            for (i, s, e), chains in cat.items():
                for c in chains:
                    cx, cy = project_shuffle(t, c)
                    results = enumerate_shuffles(t, cx, cy, i)
                    assert results.count(c) == 1


def count_realization_morphisms(x, dim, s, e):
    """Oracle: morphisms from dim-dimensional realizations into x with the
    given endpoints, enumerated cell-tuple by cell-tuple and validated
    through the morphism constructor."""
    longest = max((len(p) for v in x.vertices for w in x.vertices
                   for p in walk_paths_all(x, v, w)), default=0)
    total = 0
    for seq in sequences_of_dimension(dim, max_blocks=max(longest, 1),
                                      max_entry=max(x.max_dim, 1)):
        total += sum(1 for _ in morphisms_from_realization(x, seq, s, e))
    if dim == 0 and s == e:
        total += 1  # the empty sequence: the point maps to the vertex s
    return total


def walk_paths_all(x, s, e):
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


def morphisms_from_realization(x, seq, s, e):
    """All Cub morphisms |seq| -> x sending start to s and end to e."""
    r = realization(seq)
    candidates = [[] for _ in seq]
    for k, n in enumerate(seq):
        candidates[k] = list(x.cells_of_dim(n))

    def rec(k, here, chosen):
        if k == len(seq):
            if here == e:
                m = build_block_map(x, r, seq, chosen)
                if m is not None:
                    yield m
            return
        for c in candidates[k]:
            if x.initial_vertex(c) == here:
                yield from rec(k + 1, x.final_vertex(c), chosen + [c])

    yield from rec(0, s, [])


def build_block_map(x, r, seq, chosen):
    """The induced cell map of the realization, or None if not a morphism."""
    mapping = {}

    def block_cell(k, word):
        n = seq[k - 1]
        if word == "0" * n and k > 1:
            return f"b{k - 1}." + "1" * seq[k - 2]
        return f"b{k}.{word}"

    for k, n in enumerate(seq, start=1):
        top = chosen[k - 1]
        for code in range(3 ** n):
            word = []
            c = code
            for _ in range(n):
                word.append("01"[c % 3] if c % 3 < 2 else "*")
                c //= 3
            word = "".join(word)
            img = top
            for pos in range(n, 0, -1):
                if word[pos - 1] != "*":
                    img = x.face(img, pos, int(word[pos - 1]))
            cid = block_cell(k, word)
            if cid in mapping and mapping[cid] != img:
                return None
            mapping[cid] = img
    try:
        return PcMorphism(r, x, mapping)
    except Exception:
        return None


class TestShuffles:
    def test_project_mixed_square(self, K):
        t = tensor(K, K)
        c = make_chain(t, ["(a,a)"])
        cx, cy = project_shuffle(t, c)
        assert cx.cubes == ("a",) and cy.cubes == ("a",)
        assert c.degree == 1 > cx.degree + cy.degree

    def test_project_empty(self, K):
        t = tensor(K, K)
        c = empty_chain(t.pair_id("0", "0"))
        cx, cy = project_shuffle(t, c)
        assert cx == empty_chain("0") and cy == empty_chain("0")

    def test_enumerate_pure_interleavings(self, K):
        t = tensor(K, K)
        a = make_chain(K, ["a"])
        assert len(enumerate_shuffles(t, a, a, 0)) == 2
        assert [c.cubes for c in enumerate_shuffles(t, a, a, 1)] == [("(a,a)",)]

    def test_enumerate_with_empty_factor(self, K):
        t = tensor(K, K)
        a = make_chain(K, ["a"])
        res = enumerate_shuffles(t, empty_chain("0"), a, 0)
        assert [c.cubes for c in res] == [("(0,a)",)]

    def test_enumerate_past_the_recursion_limit(self, K):
        """A path of 300 edges against one edge: 301 interleavings, and 300
        with one merged square, under a recursion limit of 200."""
        path = realization([1] * 300)
        t = tensor(path, K)
        cx, a = enumerate_chains(path, 0, path.start, path.end)[0], make_chain(K, ["a"])
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200)
        try:
            flat, merged = [enumerate_shuffles(t, cx, a, d) for d in (0, 1)]
        finally:
            sys.setrecursionlimit(limit)
        assert (len(flat), len(merged)) == (301, 300)
        assert all(len(c.cubes) == 301 for c in flat) and all(c.degree == 1 for c in merged)

    def test_below_minimum_degree_empty(self, K):
        t = tensor(K, K)
        c = make_chain(t, ["(a,a)"])
        cx, cy = project_shuffle(t, c)
        assert enumerate_shuffles(t, cx, cy, -1) == []

    def test_non_product_rejected(self, K, D2):
        c = make_chain(D2, ["aa"])
        t = tensor(K, K)
        with pytest.raises(ChainError):
            project_shuffle(t, c)


class TestFormalSum:
    def test_no_zero_terms(self, K):
        s = FormalSum(QQ)
        c = make_chain(K, ["a"])
        s.add_term(c, 1)
        s.add_term(c, -1)
        assert s.is_zero()

    def test_mixed_grading_rejected(self, K):
        s = FormalSum(QQ)
        s.add_term(empty_chain("0"), 1)
        with pytest.raises(ChainError):
            s.add_term(empty_chain("1"), 1)


def test_basis_map_columns_and_missing_image():
    from dirhom.cubechain import _basis_map
    p = _basis_map(["b", None, "a"], {"a": 0, "b": 1})
    assert p == ([1, None, 0], ())
    assert basis_map_matrix(QQ, 2, p) == Matrix.from_columns(QQ, [[0, 1], [0, 0], [1, 0]], length=2)
    assert _basis_map(["a", "b"], {"a": 0, "b": 1}, [1, -1]) == ([0, 1], {1})
    with pytest.raises(ChainError):
        _basis_map(["c"], {"a": 0})


@st.composite
def chain_map_squares(draw):
    """(d', p, q, d) for ``d' @ p ?= q @ d``: a random sparse d : C_1 -> C_0,
    random 0/+-1 maps p : C_1 -> C'_1 and q : C_0 -> C'_0 with zero columns
    and shared targets, and a d' that copies the columns of q @ d that p
    sends it, times p's sign, or some of them, with one entry perhaps
    changed afterwards."""
    field = draw(st.sampled_from([QQ, PrimeField(7)]))
    n0, n1, m0, m1 = (draw(st.integers(0, 5)) for _ in range(4))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, 6])

    def unit_map(rows, cols):
        target = st.none() if not rows else st.one_of(st.none(), st.integers(0, rows - 1))
        return Matrix.from_sparse_columns(field, rows, [
            {} if t is None else {t: draw(st.sampled_from([1, -1]))}
            for t in (draw(target) for _ in range(cols))])

    d = Matrix.from_rows(field, [[draw(entry) for _ in range(n1)] for _ in range(n0)], cols=n1)
    p, q = unit_map(m1, n1), unit_map(m0, n0)
    qd = q @ d
    cols = [[draw(entry) for _ in range(m0)] for _ in range(m1)]
    for j in range(n1):
        hit = [k for k in range(m1) if p.entry(k, j)]
        if hit and draw(st.booleans()):
            # p's entry is its own inverse, +1 or -1
            cols[hit[0]] = [p.entry(hit[0], j) * a for a in qd.column(j)]
    if m0 and m1 and draw(st.booleans()):
        k, r = draw(st.integers(0, m1 - 1)), draw(st.integers(0, m0 - 1))
        cols[k][r] = draw(entry)
    return Matrix.from_columns(field, cols, length=m0), p, q, d


class TestReindexedChainMapCheck:
    @settings(max_examples=300, deadline=None)
    @given(chain_map_squares())
    def test_agrees_with_the_product_and_names_the_first_differing_column(self, square):
        dp, p, q, d = square
        left, right = dp @ p, q @ d
        differing = [j for j in range(p.cols) if left.column(j) != right.column(j)]
        assert (left == right) == (not differing)
        assert _chain_map_witness(dp, _unit_targets(p), _unit_targets(q), d) == \
            (differing[0] if differing else None)

    def test_sums_of_entries_that_meet_on_one_row(self):
        # q sends both rows of d to row 0, where 1 + (-1) cancels over Q and
        # 3 + 4 cancels over F_7
        for field, col in ((QQ, [1, -1]), (PrimeField(7), [3, 4])):
            d = Matrix.from_columns(field, [col], length=2)
            q = Matrix.unit_columns(field, 1, [0, 0])
            p = Matrix.unit_columns(field, 1, [0])
            zero = Matrix.zeros(field, 1, 1)
            assert _chain_map_witness(zero, _unit_targets(p), _unit_targets(q), d) is None
            one = Matrix.from_rows(field, [[1]])
            assert _chain_map_witness(one, _unit_targets(p), _unit_targets(q), d) == 0

    def test_minus_one_is_p_minus_1_over_a_prime_field(self):
        # over F_7 the entry -1 of a map is stored as 6
        f7 = PrimeField(7)
        d = Matrix.from_rows(f7, [[1, 3]])
        minus1, minus2 = Matrix.from_rows(f7, [[-1]]), -Matrix.identity(f7, 2)
        assert minus1.entry(0, 0) == f7.of(6)
        assert _chain_map_witness(d, _unit_targets(minus2), _unit_targets(minus1), d) is None
        assert _chain_map_witness(d, _unit_targets(Matrix.identity(f7, 2)),
                                  _unit_targets(minus1), d) == 0
        # a signed permutation p, with d' = d @ p^-1 = d @ p^T
        p = Matrix.from_sparse_columns(f7, 2, [{1: -1}, {0: 1}])
        assert _chain_map_witness(d @ p.transpose(), _unit_targets(p),
                                  _unit_targets(Matrix.identity(f7, 1)), d) is None

    def test_rejects_a_map_that_is_not_0_1(self):
        d = Matrix.from_rows(QQ, [[1]])
        one, two = Matrix.identity(QQ, 1), Matrix.from_rows(QQ, [[2]])
        with pytest.raises(ChainError):
            _chain_map_witness(d, _unit_targets(two), _unit_targets(one), d)
        with pytest.raises(ChainError):
            _chain_map_witness(d, _unit_targets(one), _unit_targets(two), d)
        # two entries in one column: the product check would accept this square
        dp, both = Matrix.from_rows(QQ, [[1], [1]]), Matrix.from_rows(QQ, [[1], [1]])
        assert dp @ one == both @ d
        with pytest.raises(ChainError):
            _chain_map_witness(dp, _unit_targets(one), _unit_targets(both), d)

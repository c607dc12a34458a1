"""Slow references, reached by no verb, that tests check dirhom's fast paths
against: the Gauss-Jordan subspace family and a bimodule's quotient basis
built by it, cube splits by face lookups and the split lists made of them,
formal sums of cube chains and their boundary, basis maps as matrices, the
maps of precubical morphisms, on chains and on homology, with the
naturality of the Kunneth comparison maps under them, the two Kahn passes
that vertex orders were once made by, the walk over every maximal path that
the relative-pair criterion was once decided by, and a cover's relative
pairs with X1^X2 built inside each part."""

from __future__ import annotations

from typing import Sequence

from dirhom.cubechain import (
    ChainError, CubeChain, DirectedCycleError, PairGradedComplex, _basis_map, _boundary_column,
    _field_splits,
)
from dirhom.exactla import (
    QQ, FieldError, Matrix, Subspace, _chain_map_witness, _echelon, _modulus, _mul, _neg,
    _transpose, solve,
)
from dirhom.exactseq import RelativePairReport, check_relative_pair
from dirhom.ez import TensorSetting, _comparison_maps, _first_difference
from dirhom.homology import ActionError, HomologyTable, PairHomology, push_basis_map
from dirhom.precubical import PcMorphism, PrecubicalSet, SubsetSpec, sub, tensor_morphism


# -- the Gauss-Jordan subspace family ------------------------------------------------


def basis_matrix(sub: Subspace) -> Matrix:
    """The matrix whose columns are the basis vectors of sub."""
    return Matrix.from_sparse_columns(sub.field, sub.ambient_dim, sub._basis)


def image_basis(m: Matrix) -> Subspace:
    """Column space of m; its basis is the rref of the columns."""
    return Subspace.span(m.field, m.rows, m.columns())


def pivots(sub: Subspace) -> list[int]:
    return sub._echelon_form()[1]


def null_vectors(rows: list[dict], pivot_list: list[int], n: int, p: int) -> list[dict]:
    """One vector per free (non-pivot) column j of reduced rows of length n:
    1 at j, 0 at the other free columns, minus the entry j of row c at each
    pivot c."""
    pivset = set(pivot_list)
    vecs = {j: {j: 1} for j in range(n) if j not in pivset}
    for row, c in zip(rows, pivot_list):
        for j, a in row.items():
            if j != c:
                vecs[j][c] = _neg(a, p)
    return list(vecs.values())


def quotient_map(ambient_dim: int, sub: Subspace) -> Matrix:
    """Surjection q with kernel exactly sub: column j is the unit vector of a
    coordinate j that is no pivot, and for a pivot c minus the rref row of c
    on those coordinates."""
    if sub.ambient_dim != ambient_dim:
        raise FieldError(f"subspace ambient {sub.ambient_dim} != {ambient_dim}")
    rows, pivot_list = sub._echelon_form()
    q_rows = null_vectors(rows, pivot_list, ambient_dim, _modulus(sub.field))
    return Matrix.from_sparse_columns(sub.field, len(q_rows), _transpose(q_rows, ambient_dim))


def pivot_columns(*spaces: Subspace) -> list[int]:
    """Pivot columns of the matrix whose columns are the bases of `spaces`,
    one after the other."""
    vectors = [v for s in spaces for v in s._basis]
    return _echelon(_transpose(vectors, spaces[0].ambient_dim), len(vectors),
                    _modulus(spaces[0].field))[1]


def express(sub: Subspace, m: Matrix) -> Matrix | None:
    """The coordinates in the basis of sub of the columns of m, or None."""
    return solve(basis_matrix(sub), m)


def coordinates(sub: Subspace, v: Sequence) -> tuple | None:
    x = express(sub, Matrix.from_columns(sub.field, [v], length=sub.ambient_dim))
    return None if x is None else x.column(0)


def induced_on_quotient(f: Matrix, src: Subspace, dst: Subspace) -> Matrix:
    """The unique g with g . q_src = q_dst . f, given f(src) <= dst."""
    q_dst_f = quotient_map(f.rows, dst) @ f
    if not (q_dst_f @ basis_matrix(src)).is_zero():
        raise FieldError("f does not preserve the subspaces")
    kept = set(pivots(src))
    g = q_dst_f @ Matrix.unit_columns(f.field, f.cols, [j for j in range(f.cols) if j not in kept])
    assert g @ quotient_map(f.cols, src) == q_dst_f, "the square does not commute"
    return g


def pair_basis(res, s: str, e: str, number: dict, rows: list[dict]):
    """`ResolvedBimodule._pair_basis` by the Gauss-Jordan route: the image
    basis of the translates, then the quotient map off its pivots."""
    triples = res.triples(s, e)
    index = {t: i for i, t in enumerate(triples)}
    at = [index[t] for t in number]
    relations = image_basis(Matrix.from_sparse_columns(
        res.field, len(triples), [{at[j]: a for j, a in row.items()} for row in rows]))
    kept = set(pivots(relations))
    return (triples, index, quotient_map(len(triples), relations),
            [j for j in range(len(triples)) if j not in kept])


# -- homology --------------------------------------------------------------------------


def boundaries(h: PairHomology) -> Subspace:
    """The boundary subspace, spanned by the boundary rows in chain coordinates."""
    p = _modulus(h.cycles.field)
    return Subspace._of(h.cycles.field, h.cycles.ambient_dim,
                        _mul(h.boundary_rows, h.cycles._basis, p), None)


# -- cube chains and formal sums ----------------------------------------------------------


def empty_chain(v: str) -> CubeChain:
    return CubeChain(v, v, (), ())


def make_chain(x: PrecubicalSet, cubes: Sequence[str], at: str | None = None) -> CubeChain:
    """Build a chain from cube ids, checking gluing; `at` anchors the empty chain."""
    cubes = tuple(cubes)
    if not cubes:
        if at is None:
            raise ChainError("empty chain needs an anchor vertex")
        if x.dim_of(at) != 0:
            raise ChainError(f"anchor {at!r} is not a vertex")
        return empty_chain(at)
    dims = []
    for c in cubes:
        n = x.dim_of(c)
        if n < 1:
            raise ChainError(f"chain cube {c!r} has dimension 0")
        dims.append(n)
    for a, b in zip(cubes, cubes[1:]):
        if x.final_vertex(a) != x.initial_vertex(b):
            raise ChainError(f"cubes {a!r} and {b!r} do not glue")
    return CubeChain(x.initial_vertex(cubes[0]), x.final_vertex(cubes[-1]),
                     cubes, tuple(dims))


class FormalSum:
    """A field-linear combination of cube chains sharing (degree, src, dst)."""

    __slots__ = ("field", "terms")

    def __init__(self, field):
        self.field = field
        self.terms: dict[CubeChain, object] = {}

    def add_term(self, chain: CubeChain, coeff) -> None:
        # every term shares one grading, so one term stands for them all
        other = next(iter(self.terms), chain)
        if (other.degree, other.src, other.dst) != (chain.degree, chain.src, chain.dst):
            raise ChainError("formal sum mixes (degree, src, dst) gradings")
        if isinstance(coeff, int):
            coeff = self.field.of(coeff)
        new = self.terms.get(chain, self.field.zero) + coeff
        if new == self.field.zero:
            self.terms.pop(chain, None)
        else:
            self.terms[chain] = new

    def is_zero(self) -> bool:
        return not self.terms


def split_cube(x: PrecubicalSet, cube: str, a_set: Sequence[int]) -> tuple[str, str]:
    """Split a cube along a subset A of its directions, by `face`.

    Returns (lower, upper): the lower part keeps the A-directions (d^0 over
    the complement, descending), the upper keeps the complement (d^1 over A,
    descending).
    """
    n = x.dim_of(cube)
    comp = [i for i in range(1, n + 1) if i not in set(a_set)]
    lower = cube
    for i in sorted(comp, reverse=True):
        lower = x.face(lower, i, 0)
    upper = cube
    for i in sorted(a_set, reverse=True):
        upper = x.face(upper, i, 1)
    return lower, upper


def split_list(x: PrecubicalSet, cube: str) -> list[tuple[tuple[str, str], int]]:
    """The split list of a cube (`cubechain._split_list`) by `split_cube`:
    for each nonempty proper subset A of its directions, the parts and
    ``(-1)^|A|`` times the sign of the shuffle (A asc, complement asc),
    with the signs of equal parts added and cancelled entries left out."""
    n = x.dim_of(cube)
    signs: dict[tuple[str, str], int] = {}
    for mask in range(1, (1 << n) - 1):
        a_set = [i + 1 for i in range(n) if mask >> i & 1]
        odd = (len(a_set) + sum(c not in a_set for a in a_set for c in range(1, a))) % 2
        parts = split_cube(x, cube, a_set)
        signs[parts] = signs.get(parts, 0) + (-1 if odd else 1)
    return [(parts, sign) for parts, sign in signs.items() if sign]


class _ChainsOf(dict):
    """Cube ids -> their chain in a set (`make_chain`), made on each lookup."""

    def __init__(self, x: PrecubicalSet):
        super().__init__()
        self.x = x

    def __missing__(self, cubes: tuple[str, ...]) -> CubeChain:
        return make_chain(self.x, cubes)


def boundary(x: PrecubicalSet, chain: CubeChain, field=QQ) -> FormalSum:
    """The boundary of a chain of degree >= 1 as a formal sum of chains, by
    the split lists `build_complex` assembles its columns from."""
    if chain.degree < 1:
        raise ChainError("boundary of a degree-0 chain is zero; use an empty sum")
    splits = _field_splits(x, (c for c, n in zip(chain.cubes, chain.dims) if n >= 2), field)
    out = FormalSum(field)
    for term, sign in _boundary_column(chain, splits, _ChainsOf(x)).items():
        out.add_term(term, sign)
    return out


# -- basis maps as matrices ---------------------------------------------------------------


def basis_map_matrix(field, rows: int, p: tuple) -> Matrix:
    """The 0/+-1 matrix, with `rows` rows, of a basis map of signed positions p."""
    targets, negated = p
    return Matrix.from_sparse_columns(field, rows, [
        {} if t is None else {t: -1 if j in negated else 1} for j, t in enumerate(targets)])


def inclusion_matrix(sc, i: int, pair) -> Matrix:
    """The inclusion of a basis subcomplex sc in its ambient: columns are the
    ambient unit vectors of the kept elements."""
    return Matrix.unit_columns(sc.ambient.field, sc.ambient.dim(i, pair),
                               sc.kept.get((i, pair), []))


def projection(sc, i: int, pair) -> Matrix:
    """The projection of the ambient of a basis subcomplex sc onto it: rows
    are the ambient coordinates of the kept elements."""
    return inclusion_matrix(sc, i, pair).transpose()


def action_matrix(cx, side: str, edge: str, i: int, pair) -> Matrix:
    """The 0/1 matrix of prepending ("left") or appending ("right") an edge
    of ``cx.x`` on C_i(pair) of a complex graded by its vertex pairs."""
    s, e = pair
    if side == "left":
        to, targets = (cx.x.edge_source(edge), e), cx.left_action_targets(edge, i, pair)
    else:
        to, targets = (s, cx.x.edge_target(edge)), cx.right_action_targets(edge, i, pair)
    return Matrix.unit_columns(cx.field, cx.dim(i, to), targets)


def separating_matrix(st: TensorSetting, n: int, s: str, e: str) -> Matrix:
    """The separating map C_n(X(x)Y)(s,e) -> tensor complex as a matrix."""
    return basis_map_matrix(st.cxp.field, st.tc.dim(n, (s, e)),
                            _comparison_maps(st.tx, st.cxp, st.tc, n, s, e)[0])


def interleaving_matrix(st: TensorSetting, n: int, s: str, e: str) -> Matrix:
    """The trivial shuffle, tensor complex -> C_n(X(x)Y)(s,e), as a matrix."""
    return basis_map_matrix(st.cxp.field, st.cxp.dim(n, (s, e)),
                            _comparison_maps(st.tx, st.cxp, st.tc, n, s, e)[1])


# -- the maps of precubical morphisms ---------------------------------------------------


def chain_image(c: CubeChain, f) -> CubeChain:
    """The chain of the images of the cubes of c under a cell map f."""
    return CubeChain(f(c.src), f(c.dst), tuple(f(cube) for cube in c.cubes), c.dims)


def morphism_positions(f: PcMorphism, cxa: PairGradedComplex, cxb: PairGradedComplex
                       ) -> dict[tuple[int, str, str], tuple]:
    """The cube-wise chain map C_i(X)(s,e) -> C_i(Y)(f s, f e) as signed
    positions, asserted a chain map (ActionError, with a witness)."""
    out = {(i, s, e): _basis_map([chain_image(c, f) for c in chains],
                                 cxb.index.get((i, f(s), f(e)), {}))
           for (i, s, e), chains in sorted(cxa.bases.items())}
    for (i, s, e), p in out.items():
        prev = out.get((i - 1, s, e))
        if prev is None:
            continue
        j = _chain_map_witness(cxb.diff(i, (f(s), f(e))), p, prev, cxa.diff(i, (s, e)))
        if j is not None:
            raise ActionError(f"morphism-induced map is not a chain map at degree {i}, "
                              f"pair {(s, e)}: witness {cxa.bases[(i, s, e)][j]!r}")
    return out


def induced_map(f: PcMorphism, hx: HomologyTable, hy: HomologyTable
                ) -> dict[tuple[int, str, str], Matrix]:
    """Matrices H_i(X)(s,e) -> H_i(Y)(f s, f e) induced by a Cub morphism:
    its cube-wise chain map pushed onto the classes (`push_basis_map`)."""
    return {(i, s, e): push_basis_map(lambda: p, hx.entries.get((i, s, e)),
                                      hy.entries.get((i, f(s), f(e))), hy.cx._zero)
            for (i, s, e), p in morphism_positions(f, hx.cx, hy.cx).items()}


def comparison_naturality_check(f: PcMorphism, g: PcMorphism, field=QQ) -> bool:
    """(C(f) (x) C(g)) . sep = sep . C(f(x)g) on every degree and pair of the
    source product, and the same square for the interleaving maps, by
    composing the signed positions of the basis maps."""
    sta = TensorSetting.build(f.source, g.source, field)
    stb = TensorSetting.build(f.target, g.target, field)
    fg = tensor_morphism(f, g, sta.tx, stb.tx)
    for (n, s, e), m in morphism_positions(fg, sta.cxp, stb.cxp).items():
        tpair = (fg(s), fg(e))
        sep_a, ilv_a = _comparison_maps(sta.tx, sta.cxp, sta.tc, n, s, e)
        sep_b, ilv_b = _comparison_maps(stb.tx, stb.cxp, stb.tc, n, *tpair)
        # C(f) (x) C(g) between the tensor complexes, by cube-wise images
        tmap = _basis_map([(chain_image(ca, f), chain_image(cb, g))
                           for ca, cb in sta.tc.bases.get((n, (s, e)), [])],
                          stb.tc.index.get((n, tpair), {}))
        if (_first_difference(len(m[0]), field, [sep_a, tmap], [m, sep_b]) is not None
                or _first_difference(len(ilv_a[0]), field, [ilv_a, m], [tmap, ilv_b]) is not None):
            return False
    return True


# -- vertex orders ----------------------------------------------------------------------


def sorted_list_order(x: PrecubicalSet) -> list[str] | None:
    """`PrecubicalSet.topological_order` by a sorted list: Kahn's algorithm
    that takes the first of the ready vertices, kept sorted, and sorts them
    again whenever vertices become ready; None on a directed cycle."""
    indeg = {v: 0 for v in x.vertices}
    for e in x.edges:
        indeg[x.edge_target(e)] += 1
    ready = sorted(v for v, d in indeg.items() if d == 0)
    out = x.out_edges()
    order = []
    while ready:
        v = ready.pop(0)
        order.append(v)
        added = []
        for e in out[v]:
            w = x.edge_target(e)
            indeg[w] -= 1
            if indeg[w] == 0:
                added.append(w)
        if added:
            ready = sorted(ready + added)
    return order if len(order) == len(x.vertices) else None


def corner_kahn_table(x: PrecubicalSet):
    """(starting, order) of `cubechain._corner_table` with a Kahn pass of its
    own over the corners of every cube: for each vertex the sorted (cube,
    dimension, final vertex) of the cubes starting there, and the vertices
    in the order in which their incoming cubes run out, first in, first out;
    None when the cubes' corners have a cycle."""
    corners = {v: (v, v) for v in x.vertices}
    starting: dict[str, list[tuple[str, int, str]]] = {v: [] for v in x.vertices}
    into = dict.fromkeys(x.vertices, 0)
    for n, layer in enumerate(x.cells[1:], 1):
        for c in layer:
            lower, upper = x.faces[c]
            corners[c] = first, last = corners[lower[0]][0], corners[upper[0]][1]
            starting[first].append((c, n, last))
            into[last] += 1
    order = [v for v, k in into.items() if not k]
    for v in order:     # grows while it is read
        row = starting[v]
        row.sort()
        for _, _, end in row:
            into[end] -= 1
            if not into[end]:
                order.append(end)
    return None if len(order) < len(into) else (starting, order)


# -- relative pairs ---------------------------------------------------------------------


def maximal_paths(x: PrecubicalSet) -> list[list[str]]:
    """All maximal directed paths as alternating cell sequences v0,e1,v1,..

    A walk over out-edges from each source (no incoming edge), sources in
    sorted order and out-edges in id order, so each source's paths come
    sorted by edge sequence.  It builds no cube chains.  An isolated vertex
    yields the one-cell path [v]; a cyclic set, on which the walk would not
    end, raises DirectedCycleError.
    """
    if not x.is_acyclic():
        raise DirectedCycleError(f"{x.name}: maximal paths need an acyclic vertex-edge digraph")
    out = x.out_edges()
    paths: list[list[str]] = []
    for s in x.source_vertices():
        todo = [[s]]
        while todo:
            p = todo.pop()
            if not out[p[-1]]:
                paths.append(p)
            todo += [p + [a, x.edge_target(a)] for a in reversed(out[p[-1]])]
    return paths


def one_block(flags: list[bool]) -> bool:
    """Whether the true flags are consecutive."""
    return "01" not in "".join("1" if f else "0" for f in flags).strip("0")


def first_offending_path(x: PrecubicalSet, selected) -> tuple[str, ...] | None:
    """The first of `maximal_paths(x)` along which the cells in `selected`
    do not form one block, or None."""
    return next((tuple(p) for p in maximal_paths(x)
                 if not one_block([c in selected for c in p])), None)


def sub_of_sub_reports(x: PrecubicalSet, s1: SubsetSpec, s2: SubsetSpec,
                       field=QQ) -> dict[str, RelativePairReport]:
    """The four relative pairs of a cover (X1, X2) of X, each by
    `check_relative_pair` on a complex of its own: (X, Xk) on X, and
    (Xk, X1^X2) on the part Xk as a set, with X1^X2 a sub-set of Xk."""
    meet = s1.selected & s2.selected
    reports = {}
    for k, spec in ((1, s1), (2, s2)):
        part, _ = sub(x, spec)
        reports[f"X,X{k}"] = check_relative_pair(x, spec, field)
        reports[f"X{k},X1^X2"] = check_relative_pair(part, SubsetSpec(part, meet), field)
    return reports

"""Tensor complexes, the explicit comparison maps, swaps, and Kunneth checks.

For complexes C over X and D over Y, the tensor complex has components

    (C (x) D)_n at a pair of vertex pairs = sum over j+k=n of C_j (x) D_k

with the boundary d(u (x) v) = du (x) v + (-1)^j u (x) dv.

Two explicit comparison maps relate it to the cube-chain complex of the
product X (x) Y:

* `split_chain` (the separating map): a chain whose every cube has exactly
  one non-vertex component splits into its X- and Y-subsequences, with the
  Koszul sign of moving its Y-cubes past the X-cubes after them
  (`separation_sign`); a chain containing a genuinely mixed cube (both
  components of dimension >= 1) goes to zero;
* `interleave_tensor` (the trivial shuffle): a pure tensor cX (x) cY maps
  to the chain running all X-cubes first (at the start vertex of cY), then
  all Y-cubes (at the end vertex of cX).

Both are chain maps, their composite separating . interleave is the
identity on pure tensors, and on homology they are mutually inverse and
compatible with the path-algebra actions through the componentwise algebra
comparison.  All of this is machine-verified by `tensor_comparison_report`
from ranks and chain-level identities, with no homology table; it asserts
the edge actions of both complexes chain maps, with witnesses.  Both maps
are basis maps, built as signed positions (`_comparison_maps`) and never
as matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, reduce

from .exactla import ChainError, Matrix, QQ, _chain_map_witness, _renamed
from .precubical import PrecubicalSet, TensorSet, tensor
from .cubechain import (
    CubeChain, GradedComplex, PairGradedComplex, _basis_map, build_complex, project_shuffle,
)
from .homology import _check_actions_are_chain_maps, _kept_targets


# -- the tensor complex -------------------------------------------------------


class TensorComplex(GradedComplex):
    """Tensor product of two cube-chain complexes, graded by pairs of pairs.

    A pair key is ((sX, sY), (eX, eY)) written as product-vertex ids of the
    given tensor set, so the grading matches the cube-chain complex of
    X (x) Y one-to-one.  Basis elements are pure tensors (chain in X, chain
    in Y), ordered by the X-degree then basis positions.
    """

    def __init__(self, tx: TensorSet, cxa: PairGradedComplex, cxb: PairGradedComplex):
        if cxa.field is not cxb.field:
            raise ChainError("tensor factors must share the field")
        self.tx = self.x = tx
        self.cxa = cxa
        self.cxb = cxb
        field = cxa.field
        top = cxa.top_degree + cxb.top_degree
        bases: dict[tuple[int, object], list[tuple[CubeChain, CubeChain]]] = {}
        for (j, sx, ex) in sorted(cxa.bases):
            for (k, sy, ey) in sorted(cxb.bases):
                key = (j + k,
                       (tx.pair_id(sx, sy), tx.pair_id(ex, ey)))
                rows = bases.setdefault(key, [])
                for ca in cxa.bases[(j, sx, ex)]:
                    for cb in cxb.bases[(k, sy, ey)]:
                        rows.append((ca, cb))
        for key in bases:
            bases[key].sort(key=lambda t: (t[0].degree, t[0].sort_key(), t[1].sort_key()))
        self.bases = bases
        self.index = {key: {t: i for i, t in enumerate(rows)}
                      for key, rows in bases.items()}
        dims = {key: len(rows) for key, rows in bases.items()}
        # the terms of d(c) for a factor chain c: column c of d
        da, db = ({k: cx.diff(k[0], k[1:]).sparse_columns() for k in cx.bases if k[0]}
                  for cx in (cxa, cxb))

        def d(cx: PairGradedComplex, dcols: dict, c: CubeChain) -> list[tuple[CubeChain, int]]:
            k, below = (c.degree, c.src, c.dst), cx.bases.get((c.degree - 1, c.src, c.dst))
            col = dcols[k][cx.positions[k][c.cubes]] if c.degree else {}
            return [(below[r], a) for r, a in col.items()]

        diffs: dict[tuple[int, object], Matrix] = {}
        for (n, pair), rows in sorted(bases.items()):
            if n == 0:
                continue
            tindex = self.index.get((n - 1, pair), {})
            cols = []
            for ca, cb in rows:
                col = {tindex[(term, cb)]: a for term, a in d(cxa, da, ca)}
                sign = -1 if ca.degree % 2 else 1
                col.update((tindex[(ca, term)], sign * b) for term, b in d(cxb, db, cb))
                cols.append(col)
            diffs[(n, pair)] = Matrix.from_sparse_columns(field, len(tindex), cols)
        super().__init__(field, top, dims, diffs)

    def _basis_name(self, i: int, pair, j: int) -> str:
        ca, cb = self.bases[(i, pair)][j]
        return f"{ca!r} (x) {cb!r}"

    # chain-level edge actions, mirrored from the factors, as target positions
    def left_action_targets(self, edge: str, n: int, pair) -> list[int]:
        """Prepend a product edge on the appropriate tensor factor."""
        tx, (u, v) = self.tx, self.tx.components(edge)
        on_x = tx.left.dim_of(u) == 1
        at = self.index.get((n, (tx.edge_source(edge), pair[1])))
        return [at[(ca.prepended(u, tx.left.edge_source(u)), cb) if on_x
                   else (ca, cb.prepended(v, tx.right.edge_source(v)))]
                for ca, cb in self.bases.get((n, pair), [])]

    def right_action_targets(self, edge: str, n: int, pair) -> list[int]:
        """Append a product edge on the appropriate tensor factor."""
        tx, (u, v) = self.tx, self.tx.components(edge)
        on_x = tx.left.dim_of(u) == 1
        at = self.index.get((n, (pair[0], tx.edge_target(edge))))
        return [at[(ca.appended(u, tx.left.edge_target(u)), cb) if on_x
                   else (ca, cb.appended(v, tx.right.edge_target(v)))]
                for ca, cb in self.bases.get((n, pair), [])]


# -- the separating map -----------------------------------------------------------


def split_chain(tx: TensorSet, chain: CubeChain
                ) -> tuple[CubeChain, CubeChain] | None:
    """Separate a pure chain into components; None for chains with mixed cubes."""
    x, y = tx.left, tx.right
    for cube in chain.cubes:
        u, v = tx.components(cube)
        if x.dim_of(u) >= 1 and y.dim_of(v) >= 1:
            return None
    return project_shuffle(tx, chain)


def separation_sign(tx: TensorSet, chain: CubeChain) -> int:
    """The sign of a pure chain under the separating map.

    Separating moves every Y-cube past the X-cubes after it.  Under the
    degree ``sum(n_k - 1)`` a Y-cube of dimension m passing an X-cube of
    dimension n gives (-1)^((m-1)(n-1)), the Koszul rule of the tensor
    differential; that factor is -1 exactly when m and n are both even.
    """
    even_y = odd_moves = 0      # Y-cubes of even dimension so far; -1 factors
    for cube, n in zip(chain.cubes, chain.dims):
        if n % 2 == 0:
            if tx.left.dim_of(tx.components(cube)[0]) >= 1:
                odd_moves += even_y
            else:
                even_y += 1
    return -1 if odd_moves % 2 else 1


# -- the trivial shuffle -----------------------------------------------------------


def interleave_tensor(tx: TensorSet, ca: CubeChain, cb: CubeChain) -> CubeChain:
    """All X-cubes at the start vertex of cb, then all Y-cubes at the end of ca."""
    cubes = []
    dims = []
    for u, d in zip(ca.cubes, ca.dims):
        cubes.append(tx.pair_id(u, cb.src))
        dims.append(d)
    for v, d in zip(cb.cubes, cb.dims):
        cubes.append(tx.pair_id(ca.dst, v))
        dims.append(d)
    return CubeChain(tx.pair_id(ca.src, cb.src), tx.pair_id(ca.dst, cb.dst),
                     tuple(cubes), tuple(dims))


def _comparison_maps(tx: TensorSet, cxp: PairGradedComplex, tc: TensorComplex,
                     n: int, s: str, e: str) -> tuple[tuple, tuple]:
    """The separating map C_n(X(x)Y)(s,e) -> tensor complex and the trivial
    shuffle back, as signed positions."""
    chains = cxp.basis(n, s, e)
    return (_basis_map([split_chain(tx, c) for c in chains], tc.index.get((n, (s, e)), {}),
                       [separation_sign(tx, c) for c in chains]),
            _basis_map([interleave_tensor(tx, ca, cb) for ca, cb in tc.bases.get((n, (s, e)), [])],
                       cxp.index.get((n, s, e), {})))


# -- swaps ---------------------------------------------------------------------------


def swap_steps(tx: TensorSet, chain: CubeChain, k: int) -> CubeChain:
    """Transpose the X-step and Y-step at 1-based positions k, k+1.

    The pattern (edge, vertex), (vertex, edge) becomes (vertex, edge),
    (edge, vertex) or symmetrically; endpoints are preserved.
    """
    if chain.degree != 0:
        raise ChainError("swaps act on degree-0 chains")
    if not 1 <= k < len(chain.cubes):
        raise ChainError(f"no adjacent positions at {k}")
    x, y = tx.left, tx.right
    c1, c2 = chain.cubes[k - 1], chain.cubes[k]
    u1, v1 = tx.components(c1)
    u2, v2 = tx.components(c2)
    if x.dim_of(u1) == 1 and y.dim_of(v2) == 1 and y.dim_of(v1) == 0 and x.dim_of(u2) == 0:
        # (e, v') then (v, e')  ->  (v0, e') then (e, v'1)
        new1 = tx.pair_id(x.edge_source(u1), v2)
        new2 = tx.pair_id(u1, y.edge_target(v2))
    elif y.dim_of(v1) == 1 and x.dim_of(u2) == 1 and x.dim_of(u1) == 0 and y.dim_of(v2) == 0:
        new1 = tx.pair_id(u2, y.edge_source(v1))
        new2 = tx.pair_id(x.edge_target(u2), v1)
    else:
        raise ChainError(f"positions {k},{k + 1} are not a swappable X/Y step pair")
    cubes = chain.cubes[:k - 1] + (new1, new2) + chain.cubes[k + 1:]
    return CubeChain(chain.src, chain.dst, cubes, chain.dims)


def swappable_positions(tx: TensorSet, chain: CubeChain) -> list[int]:
    out = []
    for k in range(1, len(chain.cubes)):
        try:
            swap_steps(tx, chain, k)
            out.append(k)
        except ChainError:
            continue
    return out


# -- the full comparison report ----------------------------------------------------------


@dataclass
class ComparisonReport:
    x_name: str
    y_name: str
    top_degree: int
    chain_maps_ok: bool
    split_after_interleave_is_identity: bool
    homology_inverse_ok: bool
    action_compatible_ok: bool
    failures: list[str]

    @property
    def all_ok(self) -> bool:
        return (self.chain_maps_ok and self.split_after_interleave_is_identity
                and self.homology_inverse_ok and self.action_compatible_ok)

    def __str__(self) -> str:
        def mark(b):
            return "ok" if b else "FAIL"
        lines = [
            f"tensor comparison for ({self.x_name}, {self.y_name}), "
            f"degrees <= {self.top_degree}:",
            f"  both comparison maps are chain maps: {mark(self.chain_maps_ok)}",
            f"  separate . interleave = identity:    "
            f"{mark(self.split_after_interleave_is_identity)}",
            f"  inverse isomorphisms on homology:    {mark(self.homology_inverse_ok)}",
            f"  path actions respected on homology:  {mark(self.action_compatible_ok)}",
        ]
        lines += [f"  failure: {f}" for f in self.failures]
        return "\n".join(lines)


@dataclass
class TensorSetting:
    """Shared data for the comparison and Kunneth checks of one product."""

    tx: TensorSet
    cxa: PairGradedComplex
    cxb: PairGradedComplex
    cxp: PairGradedComplex
    tc: TensorComplex

    @classmethod
    def build(cls, x: PrecubicalSet, y: PrecubicalSet, field=QQ) -> "TensorSetting":
        tx = tensor(x, y)
        cxa = build_complex(x, None, field)
        cxb = build_complex(y, None, field)
        cxp = build_complex(tx, None, field)
        tc = TensorComplex(tx, cxa, cxb)
        return cls(tx, cxa, cxb, cxp, tc)


def tensor_comparison_report(x: PrecubicalSet, y: PrecubicalSet, field=QQ,
                             max_degree: int | None = None,
                             setting: TensorSetting | None = None) -> ComparisonReport:
    """Machine-verify the comparison between C(X(x)Y) and C(X) (x) C(Y)
    from ranks and chain-level identities, with no homology computed.

    The edge actions of both complexes are asserted chain maps in every
    degree (`ActionError`).  On the (degree, pair) components with chains on
    either side (on the others both sides are zero), up to one degree above
    the top since dim H_top reads rank d_(top+1), separate S and interleave
    I are checked to be chain maps with S . I = id.  Then P = I . S is an
    idempotent chain map, so C(X(x)Y) = im(I) (+) K as complexes, with
    K = ker(S) and im(I) isomorphic to C(X) (x) C(Y): H(I) is an
    isomorphism, with inverse H(S), exactly when K is acyclic, that is when
    the homology dimensions of the two sides (`GradedComplex.homology_dim`)
    agree at every (n, pair).  The actions are checked on the small side,
    S . act_p . I = act_t as signed positions, for each edge acting on a
    component of C(X) (x) C(Y) with chains.  It holds on the nose, as a
    prepended X-edge leads and a Y-edge has odd dimension, so no Koszul
    sign; with H(S) = H(I)^-1 it gives the identity on homology, so that
    flag needs the inverse one.  A failure names the degree, the pair and a
    witness basis element, or both dimensions.
    """
    st = setting or TensorSetting.build(x, y, field)
    tx, cxp, tc = st.tx, st.cxp, st.tc
    top = cxp.top_degree if max_degree is None else min(max_degree, cxp.top_degree)
    act_p, act_t = _kept_targets(cxp), _kept_targets(tc)
    _check_actions_are_chain_maps(cxp, tx, act_p)
    _check_actions_are_chain_maps(tc, tx, act_t)
    # dim H_top reads rank d_(top+1), so the maps are checked one degree higher
    keys = sorted({k for k in cxp.components_with_chains + tc.components_with_chains
                   if k[0] <= top + 1})
    maps = {(n, pair): _comparison_maps(tx, cxp, tc, n, *pair) for n, pair in keys}
    empty = (([], ()), ([], ()))   # both maps between components without chains
    failures: list[str] = []
    chain_ok = retract_ok = dims_ok = acts_ok = True
    into, out = tx.in_edges(), tx.out_edges()
    for n, pair in keys:
        sep, ilv = maps[(n, pair)]
        if n:
            below, dp, dt = maps.get((n - 1, pair), empty), cxp.diff(n, pair), tc.diff(n, pair)
            for name, f, g, src, d_src, d_dst in (("separating", sep, below[0], cxp, dp, dt),
                                                  ("interleaving", ilv, below[1], tc, dt, dp)):
                if (j := _chain_map_witness(d_dst, f, g, d_src)) is not None:
                    chain_ok = False
                    failures.append(f"{name} map not a chain map at {n} {pair}: "
                                    f"witness {src._basis_name(n, pair, j)}")
        if (j := _first_difference(tc.dim(n, pair), cxp.field, [ilv, sep], [])) is not None:
            retract_ok = False
            failures.append(f"separate.interleave != id at {n} {pair}: "
                            f"witness {tc._basis_name(n, pair, j)}")
        if n > top:
            continue
        if (dim_p := cxp.homology_dim(n, pair)) != (dim_t := tc.homology_dim(n, pair)):
            dims_ok = False
            failures.append(f"homology comparison not inverse at {n} {pair}: "
                            f"product dim {dim_p} != tensor dim {dim_t}")
        if not tc.dim(n, pair):
            continue
        s, e = pair
        acts = [("left", "prepend", a, (tx.edge_source(a), e)) for a in into[s]]
        acts += [("right", "append", a, (s, tx.edge_target(a))) for a in out[e]]
        for side, verb, a, to in acts:
            j = _first_difference(tc.dim(n, pair), cxp.field,
                                  [ilv, (act_p(verb, a, n, pair), ()), maps[(n, to)][0]],
                                  [(act_t(verb, a, n, pair), ())])
            if j is not None:
                acts_ok = False
                failures.append(f"{side} action of {a} at {n} {pair}: "
                                f"witness {tc._basis_name(n, pair, j)}")
    inverse_ok = chain_ok and retract_ok and dims_ok
    return ComparisonReport(x.name, y.name, top, chain_ok, retract_ok,
                            inverse_ok, inverse_ok and acts_ok, failures)


# -- Kunneth -------------------------------------------------------------------------------


@dataclass
class KunnethReport:
    x_name: str
    y_name: str
    top_degree: int
    identity_holds: bool
    mismatches: list[tuple[int, object, int, int]]
    product_dims: dict[tuple[int, object], int]
    factor_dims: dict[tuple[int, object], int]

    def __str__(self) -> str:
        lines = [f"Kunneth check for ({self.x_name}, {self.y_name}): "
                 f"{'ok' if self.identity_holds else 'FAIL'}"]
        for (n, pair, a, b) in self.mismatches:
            lines.append(f"  degree {n} at {pair}: product {a} != sum-of-products {b}")
        return "\n".join(lines)


def kunneth_report(x: PrecubicalSet, y: PrecubicalSet, field=QQ,
                   max_degree: int | None = None,
                   setting: TensorSetting | None = None) -> KunnethReport:
    """Per pair and degree: dim H(X(x)Y) = sum of products of factor dims.

    The torsion correction term vanishes over a field, so the dimension
    identity is the entire statement here.  Each dimension is read off the
    ranks of its own complex (`GradedComplex.homology_dim`); the sums ask
    for each factor dimension many times, so the report keeps those.
    """
    st = setting or TensorSetting.build(x, y, field)
    tx, cxp = st.tx, st.cxp
    dim_a, dim_b = cache(st.cxa.homology_dim), cache(st.cxb.homology_dim)
    top = cxp.top_degree if max_degree is None else min(max_degree, cxp.top_degree)
    mismatches = []
    product_dims = {}
    factor_dims = {}
    for pair in cxp.pairs():
        (sx, sy), (ex, ey) = map(tx.components, pair)
        for n in range(top + 1):
            left = cxp.homology_dim(n, pair)
            right = sum(dim_a(j, (sx, ex)) * dim_b(n - j, (sy, ey)) for j in range(n + 1))
            product_dims[(n, pair)] = left
            factor_dims[(n, pair)] = right
            if left != right:
                mismatches.append((n, pair, left, right))
    return KunnethReport(x.name, y.name, top, not mismatches, mismatches,
                         product_dims, factor_dims)


# -- degree-0 obstruction report -------------------------------------------------------------


@dataclass
class ZeroChainCountReport:
    x_name: str
    y_name: str
    product_chain_dim0: int
    tensor_side_dim0: int
    product_chain_dim1: int
    note: str

    def __str__(self) -> str:
        return (f"degree-0 generators: product side {self.product_chain_dim0}, "
                f"tensor side {self.tensor_side_dim0}; degree-1 product side "
                f"{self.product_chain_dim1}\n{self.note}")


def zero_chain_count_report(x: PrecubicalSet, y: PrecubicalSet, field=QQ,
                            setting: TensorSetting | None = None) -> ZeroChainCountReport:
    """Total degree-0 generator counts on both sides of the comparison.

    A strict chain-level equivalence compatible with the path actions would
    force the two counts to be equal; they differ already for the filled
    square, which is the obstruction being reported.
    """
    st = setting or TensorSetting.build(x, y, field)
    n0 = sum(st.cxp.dim(0, pair) for pair in st.cxp.pairs())
    n1 = sum(st.cxp.dim(1, pair) for pair in st.cxp.pairs())
    t0 = sum(st.tc.dim(0, pair) for pair in st.tc.pairs())
    note = ""
    if n0 != t0:
        note = (f"counts differ ({n0} vs {t0}): no action-compatible chain-level "
                "equivalence exists.")
        if x.cell_count() == (2, 1) and y.cell_count() == (2, 1):
            note += (" Exhaustive enumeration of the filled square gives "
                     f"{n0} degree-0 generators; a count of eleven is sometimes "
                     "quoted for this example, which this enumeration does not "
                     "reproduce.")
    return ZeroChainCountReport(x.name, y.name, n0, t0, n1, note)


def _first_difference(n: int, field, first: list, second: list) -> int | None:
    """The first of n basis elements that the composites of two lists of
    basis maps, signed positions applied in list order, send to different
    vectors, or None when the composites agree."""
    def image(j: int, maps: list) -> dict:
        return reduce(lambda v, p: _renamed(v, p, field.characteristic), maps, {j: 1})

    return next((j for j in range(n) if image(j, first) != image(j, second)), None)

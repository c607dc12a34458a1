"""Relative pairs, long exact sequences, good covers and Mayer-Vietoris.

A face-closed inclusion Y -> X is accepted as a relative pair when

1. along every maximal directed path of X, the cells lying in Y (vertices
   and edges interleaved) form one contiguous block: the path enters Y at
   most once and exits at most once; and
2. the extension of scalars of every chain component of Y, computed from a
   presentation, has the same per-pair dimension as the span of decomposable
   chains inside C(X) (the canonical comparison map is injective).

For accepted pairs, 0 -> ext C(Y) -> C(X) -> C(X)/ext C(Y) -> 0 is a short
exact sequence of per-pair complexes and its homology long exact sequence is
assembled and machine-verified node by node (image = kernel, ranks over the
active field).  Good covers get the excision comparison map of the quotient
complexes, and Mayer-Vietoris sequences are assembled from the two relative
sequences with the standard zig-zag connecting maps.

Every extension span is spanned by cube chains of C(X), so each short
sequence splits one basis: the quotient is the complex on the chains outside
the subcomplex.  Short exactness is a check that the two sets of positions
partition each component; the snake is a block read, the block of the
ambient differential from the quotient's positions to the subcomplex's.
The inclusions, the projections and the excision map are basis maps, built
as signed positions and pushed to homology by `homology.push_basis_map`.
Only the long sequences' exactness checks and the excision map's rank and
inverse on homology are linear algebra.
Each complex keeps its own homology (`homology._homology_at`), and both
sequences' snakes are `connecting_map`, which checks its lifts.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from weakref import WeakValueDictionary

from .exactla import ExactnessError, Matrix, QQ, SequenceError, rank, solve
from .precubical import PcMorphism, PrecubicalSet, SubsetSpec, sub
from .cubechain import (
    BasisSubcomplex, DirectedCycleError, GradedComplex, PairGradedComplex, build_complex,
    max_chain_degree,
)
from .homology import HomologyTable, _homology_at, push_basis_map
from .scalars import (
    SubcomplexExtension, extend_presented, extend_subcomplex, path_algebra,
    present_chain_module, present_homology,
)


# -- relative pair checking -----------------------------------------------------


@dataclass
class RelativePairReport:
    x_name: str
    y_cells: frozenset[str]
    enter_exit_once: bool
    offending_path: tuple[str, ...] | None
    monic: bool
    monic_failures: list[tuple[int, str, str, int, int]]  # (degree, s, e, presented, span)
    degrees_checked: tuple[int, ...]

    @property
    def accepted(self) -> bool:
        return self.enter_exit_once and self.monic

    def __str__(self) -> str:
        lines = [f"relative pair on {self.x_name}:"]
        lines.append(f"  enter/exit once: {'ok' if self.enter_exit_once else 'FAIL'}")
        if self.offending_path:
            lines.append(f"    offending path: {' '.join(self.offending_path)}")
        lines.append(f"  monic extension: {'ok' if self.monic else 'FAIL'}")
        for (i, s, e, a, b) in self.monic_failures:
            lines.append(f"    degree {i} at ({s},{e}): presented {a} != span {b}")
        lines.append(f"  overall: {'accepted' if self.accepted else 'rejected'}")
        return "\n".join(lines)


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


def _one_block(flags: list[bool]) -> bool:
    """Whether the true flags are consecutive."""
    return "01" not in "".join("1" if f else "0" for f in flags).strip("0")


def _check_selection(x: PrecubicalSet, spec: SubsetSpec) -> None:
    if spec.parent is not x:
        raise SequenceError("subset spec does not belong to this set")
    missing = spec.missing_faces()
    if missing:
        raise SequenceError(f"selection not face-closed, e.g. {missing[0]}")


def check_relative_pair(x: PrecubicalSet, spec: SubsetSpec, field=QQ) -> RelativePairReport:
    """Path criterion plus per-degree monicity of the extension."""
    _check_selection(x, spec)
    span = extend_subcomplex(build_complex(x, None, field), spec.selected)
    return _pair_report(x, spec, field, span, *sub(x, spec))


def _pair_report(x: PrecubicalSet, spec: SubsetSpec, field, span: SubcomplexExtension,
                 y: PrecubicalSet, inc: PcMorphism) -> RelativePairReport:
    """`check_relative_pair` of a face-closed selection, given its span in
    C(X) and the sub-set Y with its inclusion, which callers build once."""
    offending = next((tuple(p) for p in maximal_paths(x)
                      if not _one_block([c in spec.selected for c in p])), None)
    top_y, alg_y = max_chain_degree(y), path_algebra(y)
    failures = _extension_mismatches(
        span.ambient, inc, top_y, lambda i: present_chain_module(y, i, field, alg_y), span.dim)
    return RelativePairReport(x.name, spec.selected, offending is None, offending,
                              not failures, failures, tuple(range(top_y + 1)))


def _extension_mismatches(cx: PairGradedComplex, inc, top_y: int, present, dim
                          ) -> list[tuple[int, str, str, int, int]]:
    """(degree, s, e, extended, dim) wherever the extension of scalars of
    ``present(i)`` along the inclusion `inc` into cx's set differs from
    ``dim(i, (s, e))``, over every degree of cx and every pair.

    Above Y's top degree `top_y` the extension counts as zero.
    """
    alg = path_algebra(cx.x)
    rows = []
    for i in range(cx.top_degree + 1):
        res = extend_presented(present(i), inc, alg).resolve() if i <= top_y else None
        for s, e in cx.pairs():
            a = 0 if res is None else res.dim(s, e)
            b = dim(i, (s, e))
            if a != b:
                rows.append((i, s, e, a, b))
    return rows


# -- quotient complexes -----------------------------------------------------------


class _Quotient(BasisSubcomplex):
    """An ambient complex modulo its subcomplex on the ambient basis positions
    ``subcomplex[(i, pair)]``: the complex on the other basis elements, whose
    projection is asserted to be a chain map."""

    def __init__(self, ambient: GradedComplex, subcomplex: dict[tuple[int, object], list[int]]):
        super().__init__(ambient, {
            (i, pair): sorted(set(range(ambient.dim(i, pair))).difference(
                subcomplex.get((i, pair), ())))
            for pair in ambient.pairs() for i in range(ambient.top_degree + 1)})
        self.check_chain_map(self.projection_positions, ambient, self)


class QuotientComplex(_Quotient):
    """C(X) / (extension span of Y)."""

    def __init__(self, cx: PairGradedComplex, span: SubcomplexExtension):
        # keep the span alive: the module-level cache is keyed by its id
        self.span = span
        super().__init__(cx, span.kept)


def relative_complex(x: PrecubicalSet, spec: SubsetSpec, field=QQ) -> QuotientComplex:
    """The per-pair cokernel of the extension span inside C(X)."""
    cx = build_complex(x, None, field)
    return QuotientComplex(cx, extend_subcomplex(cx, spec.selected))


# -- exact sequence verification ----------------------------------------------------


@dataclass
class SequenceNode:
    label: str
    dim: int
    incoming_rank: int
    outgoing_kernel: int
    exact: bool


@dataclass
class PairSequenceReport:
    pair: tuple
    nodes: list[SequenceNode]
    composition_zero: bool

    @property
    def exact(self) -> bool:
        return self.composition_zero and all(n.exact for n in self.nodes)


@dataclass
class ExactSequenceReport:
    title: str
    per_pair: dict[tuple, PairSequenceReport]

    @property
    def all_exact(self) -> bool:
        return all(r.exact for r in self.per_pair.values())

    def __str__(self) -> str:
        lines = [f"{self.title}: {'exact' if self.all_exact else 'INEXACT'}"]
        for pair, rep in sorted(self.per_pair.items()):
            status = "exact" if rep.exact else "INEXACT"
            dims = " -> ".join(f"{n.label}[{n.dim}]" for n in rep.nodes)
            lines.append(f"  {pair}: {status}: {dims}")
            for n in rep.nodes:
                if not n.exact:
                    lines.append(f"    at {n.label}: im rank {n.incoming_rank} "
                                 f"!= ker dim {n.outgoing_kernel}")
        return "\n".join(lines)


def verify_exact(pair, maps: list[Matrix], labels: list[str] | None = None
                 ) -> PairSequenceReport:
    """Node-by-node exactness of V0 -> V1 -> .. -> Vn given consecutive maps.

    Node k (0 < k < n) is exact when rank(M_k) = dim ker(M_{k+1}), the
    columns of M_{k+1} less its rank; the end nodes are judged against
    implicit zero maps, so frame the sequence with zero-dimensional spaces
    to assert injectivity or surjectivity.
    """
    for m1, m2 in zip(maps, maps[1:]):
        if m2.cols != m1.rows:
            raise SequenceError("consecutive maps are not composable")
    comp_zero = all((m2 @ m1).is_zero() for m1, m2 in zip(maps, maps[1:]))
    nodes = []
    nspaces = len(maps) + 1
    labels = labels or [f"V{k}" for k in range(nspaces)]
    ranks = [0, *map(rank, maps), 0]     # with the implicit zero maps at both ends
    for k in range(nspaces):
        dim_k = maps[k].cols if k < len(maps) else maps[-1].rows
        kernel = dim_k - ranks[k + 1]
        nodes.append(SequenceNode(labels[k], dim_k, ranks[k], kernel, ranks[k] == kernel))
    return PairSequenceReport(pair, nodes, comp_zero)


# -- the snake: connecting maps -------------------------------------------------------


@dataclass
class ShortExactData:
    """0 -> A -> B -> C -> 0 as a split of one basis: C is the quotient of
    its ambient B on the positions ``c.kept``, and A, a subcomplex of B or of
    B's own ambient, sits in B on the complementary positions, which `verify`
    checks.  The inclusion and the projection are then basis maps."""

    a: BasisSubcomplex
    c: _Quotient

    @property
    def b(self) -> GradedComplex:
        return self.c.ambient

    def a_positions(self, i: int, pair) -> list[int]:
        """Where A's basis elements sit in B's basis."""
        if self.a.ambient is self.b:
            return self.a.kept.get((i, pair), [])
        return _span_positions(self.a, self.b, i, pair)

    def verify(self) -> None:
        """Raise SequenceError, naming the degree, the pair and a basis element,
        unless A's positions and C's kept positions partition each component."""
        for i, pair in sorted(self.c.kept):
            seen = Counter(self.a_positions(i, pair) + self.c.kept[(i, pair)])
            j = next((j for j in range(self.b.dim(i, pair)) if seen[j] != 1), None)
            if j is not None:
                raise SequenceError(f"not short exact at degree {i}, pair {pair}: "
                                    f"{self.b._basis_name(i, pair, j)} lies in "
                                    f"{'both' if seen[j] else 'neither'} of A and C")

    def boundary_block(self, i: int, pair, cols) -> Matrix:
        """The block of ``B.diff(i)`` from B's positions `cols` in degree i to
        A's positions in degree i-1."""
        return self.b.diff(i, pair).block(self.a_positions(i - 1, pair), cols)


def connecting_map(ses: ShortExactData, i: int, pair) -> Matrix:
    """The snake H_i(C) -> H_{i-1}(A) of a basis split, with both homologies
    read off ``ses.c`` and ``ses.a``: a cycle of C lifts to B on C's
    positions, so on chains the map is the block of ``B.diff(i)`` from C's
    positions to A's.  The block on C's positions in degree i-1, C's own
    differential, must kill the cycles (SequenceError), and lifts shifted
    by chains of A must give the same classes (ExactnessError)."""
    hc, ha = _homology_at(ses.c, i, pair), _homology_at(ses.a, i - 1, pair)
    if hc is None or ha is None or not hc.dim:
        return ses.b._zero(0 if ha is None else ha.dim, 0 if hc is None else hc.dim)
    reps, cols = hc.representatives, ses.c.kept[(i, pair)]
    if not (ses.c.diff(i, pair) @ reps).is_zero():
        raise SequenceError("boundary of the lift is not in the subcomplex")
    delta = ha.classes(ses.boundary_block(i, pair, cols) @ reps)
    # shifting each lift by the sum z of A_i's basis adds the boundary
    # A.diff(i) @ z to its pull-back, so the classes must not move
    n = ses.a.dim(i, pair)
    shifted = (ses.boundary_block(i, pair, cols + ses.a_positions(i, pair))
               @ reps.stack(Matrix(ses.b.field, n, hc.dim, [[1] * hc.dim] * n)))
    if ha.classes(shifted) != delta:
        raise ExactnessError("connecting map depends on the lift choice")
    return delta


def _dims(c: GradedComplex, keys) -> dict[tuple[int, object], int]:
    """dim H_i(c) at each (i, pair) of keys, 0 where c has no chains."""
    return {k: h.dim if (h := _homology_at(c, *k)) else 0 for k in keys}


# -- long exact sequence of a relative pair ---------------------------------------------


@dataclass
class RelativeHomologyResult:
    pair_report: RelativePairReport
    x_table: dict[tuple[int, tuple], int]
    ext_table: dict[tuple[int, tuple], int]
    rel_table: dict[tuple[int, tuple], int]
    sequence: ExactSequenceReport | None
    extension_commutes: bool | None


def les_relative(x: PrecubicalSet, spec: SubsetSpec, field=QQ,
                 max_degree: int | None = None) -> RelativeHomologyResult:
    """Relative homology and its machine-verified long exact sequence.

    Complexes are always built in full, so every truncation of the sequence
    genuinely ends in zeros.  `max_degree` only caps the degrees reported.
    A rejected pair still gets its quotient homology, but the sequence (whose
    exactness is only guaranteed for relative pairs) is skipped.
    """
    cx = build_complex(x, None, field)
    _check_selection(x, spec)  # a bad selection raises SequenceError before the span is built
    span = extend_subcomplex(cx, spec.selected)
    y, inc = sub(x, spec)
    report = _pair_report(x, spec, field, span, y, inc)
    quo = QuotientComplex(cx, span)
    top = cx.top_degree if max_degree is None else min(max_degree, cx.top_degree)
    keys = [(i, pair) for pair in cx.pairs() for i in range(top + 1)]
    result = RelativeHomologyResult(report, *(_dims(c, keys) for c in (cx, span, quo)), None, None)
    if not report.accepted:
        # the sequence is only guaranteed (and only assembled) for accepted pairs
        return result

    ses = ShortExactData(span, quo)
    ses.verify()

    def maps(i, pair):
        # H_i(ext Y) -> H_i(X) -> H_i(X, Y) -> H_{i-1}(ext Y)
        k = (i, pair)
        ha, hx, hc = (_homology_at(c, *k) for c in (span, cx, quo))
        inc_h = push_basis_map(lambda: span.inclusion_positions(*k), ha, hx, cx._zero)
        prj_h = push_basis_map(lambda: quo.projection_positions(*k), hx, hc, cx._zero)
        return inc_h, prj_h, connecting_map(ses, i, pair) if i else None

    result.sequence = _long_exact_sequence(
        f"relative sequence of ({x.name}, sub)", cx, ("extH{i}", "H{i}", "relH{i}"), maps,
        "relative long exact sequence failed verification")
    # H(extension complex) against the extension of a presentation of H(Y)
    ty, alg_y = HomologyTable(build_complex(y, None, field), y), path_algebra(y)
    ext_dims = _dims(span, [(i, pair) for pair in cx.pairs() for i in range(cx.top_degree + 1)])
    result.extension_commutes = not _extension_mismatches(
        cx, inc, ty.cx.top_degree, lambda i: present_homology(ty, i, alg_y),
        lambda i, pair: ext_dims[(i, pair)])
    return result


def _long_exact_sequence(title: str, cx: GradedComplex, names: tuple[str, str, str],
                         maps, failure: str) -> ExactSequenceReport:
    """Frame, label and verify the long exact sequence of every pair of cx.

    ``maps(i, pair)`` gives A_i -> B_i -> C_i and the connecting map
    C_i -> A_{i-1} (None in degree 0), for i from the top degree down; the
    nodes are labelled ``name.format(i=i)`` and framed by zero spaces.  The
    first inexact pair raises ExactnessError(failure), naming the pair and
    its first nonzero composite or, when every composite is zero, its first
    inexact node with the node's incoming rank and kernel dimension.
    """
    per_pair = {}
    for pair in cx.pairs():
        seq: list[Matrix] = []
        labels = ["0"]
        for i in range(cx.top_degree, -1, -1):
            f, g, delta = maps(i, pair)
            if not seq:
                seq.append(Matrix.zeros(cx.field, f.cols, 0))
            seq += [f, g, Matrix.zeros(cx.field, 0, g.rows) if delta is None else delta]
            labels += [name.format(i=i) for name in names]
        labels.append("0")
        rep = per_pair[pair] = verify_exact(pair, seq, labels)
        if not rep.composition_zero:
            k = next(k for k, (m1, m2) in enumerate(zip(seq, seq[1:])) if not (m2 @ m1).is_zero())
            raise ExactnessError(f"{failure}: pair {pair}: the composite "
                                 f"{' -> '.join(labels[k:k + 3])} is nonzero")
        for n in rep.nodes:
            if not n.exact:
                raise ExactnessError(f"{failure}: pair {pair}, node {n.label}: incoming rank "
                                     f"{n.incoming_rank} != kernel dim {n.outgoing_kernel}")
    return ExactSequenceReport(title, per_pair)


# -- good covers and Mayer-Vietoris ------------------------------------------------------


@dataclass
class GoodCoverReport:
    covers: bool
    pair_reports: dict[str, RelativePairReport]
    excision_iso: bool
    excision_failures: list[tuple[int, tuple, int, int]]

    @property
    def good(self) -> bool:
        return (self.covers and self.excision_iso
                and all(r.accepted for r in self.pair_reports.values()))

    def __str__(self) -> str:
        lines = [f"cover exhausts X: {'yes' if self.covers else 'NO'}"]
        for name, rep in sorted(self.pair_reports.items()):
            lines.append(f"pair ({name}): "
                         f"{'accepted' if rep.accepted else 'rejected'}")
        lines.append(f"excision isomorphism: {'yes' if self.excision_iso else 'NO'}")
        for (i, pair, a, b) in self.excision_failures:
            lines.append(f"  degree {i} at {pair}: dims {a} vs {b}")
        lines.append(f"good cover: {'yes' if self.good else 'NO'}")
        return "\n".join(lines)


@dataclass
class _Cover:
    """What the good-cover check builds and the Mayer-Vietoris sequence reuses:
    C(X), the three extension spans, the two quotient complexes of the
    excision map, each with its own homology, and the excision maps."""

    cx: PairGradedComplex
    span1: SubcomplexExtension
    span2: SubcomplexExtension
    span12: SubcomplexExtension
    left: _LeftQuotient
    quo2: QuotientComplex
    excision: dict[tuple[int, tuple], Matrix]

    def excision_positions(self, i: int, pair) -> tuple:
        """The excision map on chains as signed positions: a left quotient
        chain goes to its chain of C(X), or to zero when that lies in ext C(X2)."""
        at = {j: k for k, j in enumerate(self.quo2.kept.get((i, pair), []))}
        kept1 = self.span1.kept.get((i, pair), [])
        return [at.get(kept1[k]) for k in self.left.kept.get((i, pair), [])], ()


def good_cover_check(x: PrecubicalSet, s1: SubsetSpec, s2: SubsetSpec,
                     field=QQ) -> GoodCoverReport:
    """Relative-pair square plus the excision comparison in homology."""
    return _check_cover(x, s1, s2, field)[0]


def _check_cover(x: PrecubicalSet, s1: SubsetSpec, s2: SubsetSpec,
                 field) -> tuple[GoodCoverReport, _Cover]:
    covers = (s1.selected | s2.selected) == frozenset(x.all_cells())
    y12 = s1.selected & s2.selected
    x1, inc1 = sub(x, s1)
    x2, inc2 = sub(x, s2)
    cx = build_complex(x, None, field)
    span1 = extend_subcomplex(cx, s1.selected)
    span2 = extend_subcomplex(cx, s2.selected)
    reports = {
        "X,X1": _pair_report(x, s1, field, span1, x1, inc1),
        "X,X2": _pair_report(x, s2, field, span2, x2, inc2),
        "X1,X1^X2": check_relative_pair(x1, SubsetSpec(x1, y12), field),
        "X2,X1^X2": check_relative_pair(x2, SubsetSpec(x2, y12), field),
    }
    span12 = extend_subcomplex(cx, y12)
    # left side: ext C(X1) / ext C(X1^X2); right side: C(X) / ext C(X2)
    left = _LeftQuotientCache.get(span1, span12, field)
    quo2 = QuotientComplexCache.get(cx, span2, field)
    keys = [(i, pair) for pair in cx.pairs() for i in range(cx.top_degree + 1)]
    parts = _Cover(cx, span1, span2, span12, left, quo2, {})
    left.check_chain_map(parts.excision_positions, left, quo2)
    failures: list[tuple[int, tuple, int, int]] = []
    for i, pair in keys:
        # H_i of the left quotient -> H_i of C(X)/ext C(X2), so cols -> rows
        m = parts.excision[(i, pair)] = _excision_map(parts, i, pair)
        if not (m.cols == m.rows == rank(m)):
            failures.append((i, pair, m.cols, m.rows))
    return GoodCoverReport(covers, reports, not failures, failures), parts


def _span_positions(inner: SubcomplexExtension, outer: SubcomplexExtension,
                    i: int, pair) -> list[int]:
    """Where the kept chains of one extension span sit among those of a larger one."""
    pos = {j: k for k, j in enumerate(outer.kept.get((i, pair), []))}
    return [pos[j] for j in inner.kept.get((i, pair), [])]


class _LeftQuotient(_Quotient):
    """ext C(X1) / ext C(X1 ^ X2), in the coordinates of the X1-span."""

    def __init__(self, span1: SubcomplexExtension, span12: SubcomplexExtension, field):
        # keep the spans alive: the module-level cache is keyed by their ids
        self.span1 = span1
        self.span12 = span12
        super().__init__(span1, {k: _span_positions(span12, span1, *k) for k in span12.kept})


class _QuotientCache:
    """Quotients by the ids of the two objects they are built from; an entry
    lives as long as its quotient, which keeps those objects alive."""

    def __init__(self, build):
        self.build = build
        self._cache: WeakValueDictionary[tuple[int, int], _Quotient] = WeakValueDictionary()

    def get(self, a, b, field) -> _Quotient:
        hit = self._cache.get((id(a), id(b)))
        if hit is None:
            hit = self._cache[(id(a), id(b))] = self.build(a, b, field)
        return hit


QuotientComplexCache = _QuotientCache(lambda cx, span, field: QuotientComplex(cx, span))
_LeftQuotientCache = _QuotientCache(_LeftQuotient)


def _excision_map(c: _Cover, i: int, pair) -> Matrix:
    """Homology of the canonical map ext C(X1)/ext C(X1^X2) -> C(X)/ext C(X2)."""
    k = (i, pair)
    return push_basis_map(lambda: c.excision_positions(*k), _homology_at(c.left, *k),
                          _homology_at(c.quo2, *k), c.cx._zero)


@dataclass
class MayerVietorisResult:
    cover: GoodCoverReport
    sequence: ExactSequenceReport | None
    tables: dict[str, dict[tuple[int, tuple], int]]


def mayer_vietoris(x: PrecubicalSet, s1: SubsetSpec, s2: SubsetSpec,
                   field=QQ, max_degree: int | None = None) -> MayerVietorisResult:
    """The Mayer-Vietoris sequence of a good cover, verified at every node.

    Nodes per degree: H_i(ext X1^X2) -> H_i(ext X1) (+) H_i(ext X2) ->
    H_i(X), with the connecting map Delta = zig-zag . excision^{-1} .
    projection.
    """
    cover, parts = _check_cover(x, s1, s2, field)
    if not cover.covers:
        raise SequenceError("the two parts do not cover X")
    if not cover.good:
        return MayerVietorisResult(cover, None, {})
    cx, span1, span2, span12 = parts.cx, parts.span1, parts.span2, parts.span12
    top = cx.top_degree
    # the short sequences of the left column and of (X, X2)
    ShortExactData(span12, parts.left).verify()
    ShortExactData(span2, parts.quo2).verify()

    def maps(i, pair):
        k = (i, pair)
        h12, hx = _homology_at(span12, *k), _homology_at(cx, *k)
        sides = [(span, _homology_at(span, *k)) for span in (span1, span2)]
        # A -> B1 (+) B2 : classes included into both parts
        m_in1, m_in2 = (push_basis_map(lambda: (_span_positions(span12, span, *k), ()),
                                       h12, h, cx._zero) for span, h in sides)
        # B1 (+) B2 -> X : difference of the inclusions
        m1x, m2x = (push_basis_map(lambda: span.inclusion_positions(*k), h, hx, cx._zero)
                    for span, h in sides)
        delta = _mv_connecting(parts, i, pair) if i >= 1 else None
        return m_in1.stack(m_in2), m1x.augment(-m2x), delta

    seq = _long_exact_sequence(f"Mayer-Vietoris of {x.name}", cx,
                               ("(^)H{i}", "H{i}(1)+H{i}(2)", "H{i}(X)"), maps,
                               "Mayer-Vietoris sequence failed verification")
    cap = top if max_degree is None else min(max_degree, top)
    keys = [(i, p) for p in cx.pairs() for i in range(cap + 1)]
    tables = {name: _dims(c, keys) for name, c in
              (("intersection", span12), ("part1", span1), ("part2", span2), ("whole", cx))}
    return MayerVietorisResult(cover, seq, tables)


def _mv_connecting(c: _Cover, i: int, pair) -> Matrix:
    """Delta: H_i(X) -> H_{i-1}(ext X1^X2) through the excision inverse.

    j' projects to H_i(C(X)/ext X2); the excision isomorphism is inverted on
    classes; the zig-zag of the left column, `connecting_map` of
    0 -> ext(X1^X2) -> ext(X1) -> left quotient -> 0, lands in
    H_{i-1}(ext X1^X2).
    """
    k = (i, pair)
    hx = _homology_at(c.cx, *k)
    if hx is None or not hx.dim:
        h12 = _homology_at(c.span12, i - 1, pair)
        return c.cx._zero(0 if h12 is None else h12.dim, 0)
    snake = connecting_map(ShortExactData(c.span12, c.left), i, pair)
    projected = push_basis_map(lambda: c.quo2.projection_positions(*k), hx,
                               _homology_at(c.quo2, *k), c.cx._zero)
    w = solve(c.excision[k], projected)
    if w is None:
        raise SequenceError("excision map not surjective on a class")
    return snake @ w

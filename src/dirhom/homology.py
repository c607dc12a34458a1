"""Homology of pair-graded complexes and the path-algebra actions on it.

Homology classes are stored concretely: cycle representatives (as sparse
columns, with their matrix built only when asked for), the cycle subspace,
the boundaries in kernel coordinates (their subspace built only when asked
for), and the quotient map in kernel coordinates.  They are read off the
column reductions of d_i and d_{i+1} (`exactla.homology_from_reductions`),
which the complex computes once per differential (`GradedComplex.reduction`),
so each differential is reduced once for the two degrees on its sides and no
elimination runs.  Each complex keeps the homology of its components with
chains, computed at most once, which every reader gets from
`_homology_at(cx, i, pair)`: None for a component with no chains.  The one
push of chains into homology is the column push
`exactla.homology_classes`: it takes cycles as sparse columns, reads their
kernel coordinates off their entries at the free columns of d_i, checks
entry by entry that the kernel basis gives each column back, and applies the
quotient map, with no elimination and no product on the chains.
`PairHomology.classes(m)` runs it on the columns of a matrix m, such as
the block of the ambient differential that a connecting map reads off a
short sequence; `induced_on_homology(f, src, dst)` pushes a chain map given
as any matrix f.  Every other map dirhom pushes is a basis map, sending each
basis element to one basis element, perhaps negated, or to zero: the edge
actions, the maps induced by morphisms, the tensor comparison maps, and the
inclusions, projections and excision maps of the exact sequences.  Each is
built, checked and pushed as signed positions ``(targets, negated)``:
`push_basis_map` re-indexes the entries of the source representative
columns (entries that meet add) and hands them to the column push, with no
0/1 matrix built, decoded or multiplied.

The bimodule structure is realized by edge actions: prepending an edge to
every chain of a graded component (left action) or appending one (right
action).  A complex gives them as target positions (`left_action_targets`;
`left_action_chain` is their 0/1 matrix), so one `HomologyTable` serves the
cube-chain complex of a set and the tensor complex of two factors
(`ez.TensorComplex`) alike.  The table asks the complex for the positions of
each (side, edge, degree, pair) once and keeps them for its chain-map check
and its pushes.  The table asserts that the actions are chain maps on the
nose by re-indexing the columns of the differentials, comparing every entry
and naming a witness basis element on failure; well-definedness on homology
follows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .exactla import (  # kernel_basis stays importable from here
    QQ, ChainError, Matrix, Subspace, _chain_map_witness, _renamed, homology_classes,
    homology_from_reductions, kernel_basis, span_of_combinations,
)
from .cubechain import GradedComplex, PairGradedComplex, _basis_map, _basis_matrix, build_complex
from .precubical import PcMorphism, PrecubicalSet, realization


class ActionError(AssertionError):
    """An edge action failed to be a chain map: a boundary-convention bug."""


@dataclass
class PairHomology:
    """Homology of one (degree, pair) component, with explicit data."""

    degree: int
    pair: object
    dim: int
    rep_columns: list[dict]   # the cycle representatives as sparse columns {position: value}
    cycles: Subspace
    boundary_rows: list[dict]   # the boundaries in kernel coordinates, reduced
    free: dict[int, int]    # {free column of d_i: its kernel index}, ascending
    quotient: Matrix    # kernel coordinates -> class coordinates

    @cached_property
    def boundaries(self) -> Subspace:
        """The boundary subspace, spanned by the boundary rows in chain coordinates."""
        return span_of_combinations(self.boundary_rows, self.cycles)

    @cached_property
    def representatives(self) -> Matrix:
        """The cycle representatives as the columns of a matrix in chain coordinates."""
        return Matrix.from_sparse_columns(self.cycles.field, self.cycles.ambient_dim,
                                          self.rep_columns)

    @property
    def reps(self) -> list[tuple]:
        return self.representatives.columns()

    def classes(self, m: Matrix) -> Matrix:
        """Class coordinates, in the representative basis, of the cycles that
        are the columns of m (`exactla.homology_classes`)."""
        if m.rows != self.cycles.ambient_dim:
            raise ChainError(f"vector length {m.rows} is not {self.cycles.ambient_dim}: "
                             "not a cycle of this component")
        return homology_classes(self.cycles, self.free, self.quotient, m.sparse_columns())

    def class_vector(self, v) -> tuple:
        """Coordinates of the class of a cycle v in the representative basis."""
        return self.classes(Matrix.from_columns(self.cycles.field, [v],
                                                length=self.cycles.ambient_dim)).column(0)

    def is_boundary(self, v) -> bool:
        return self.boundaries.contains(v)


def homology_of(cx: GradedComplex, i: int, pair) -> PairHomology:
    """ker d_i / im d_{i+1} for one pair component, read off the column
    reductions of d_i and d_{i+1} (`GradedComplex.reduction`).

    A cycle becomes a representative when it is outside the span of the
    boundaries and the cycles before it: when its free column is not the
    low of a reduced boundary (`exactla.homology_from_reductions`).  A
    component with no chains has no homology and takes no reduction.  A
    boundary whose low is a pivot of d_i, so no cycle, raises ChainError
    naming the degree and pair.
    """
    if not cx.dim(i, pair):
        zero = Subspace.zero(cx.field, 0)
        return PairHomology(i, pair, 0, [], zero, [], {}, Matrix.zeros(cx.field, 0, 0))
    d = cx.reduction(i, pair)
    try:
        cycles, reps, rows, free, classes = homology_from_reductions(
            d, cx.reduction(i + 1, pair), cx.field, cx.dim(i, pair))
    except ChainError as err:
        raise ChainError(f"degree {i}, pair {pair}: {err}") from None
    return PairHomology(i, pair, len(reps), reps, cycles, rows, free, classes)


def _homology_at(cx: GradedComplex, i: int, pair) -> PairHomology | None:
    """H_i of cx at pair, computed by `homology_of` once and kept by cx;
    None, with nothing computed, for a component with no chains."""
    k = (i, pair)
    h = cx._homology.get(k)
    if h is None and cx._dims.get(k):
        h = cx._homology[k] = homology_of(cx, i, pair)
    return h


def homology(cx: PairGradedComplex, i: int, src: str, dst: str) -> tuple[int, list[tuple]]:
    """Dimension and cycle representatives of H_i at a vertex pair."""
    if (src, dst) not in set(cx.pairs()):
        raise ChainError(f"unknown vertex pair ({src!r}, {dst!r})")
    h = _homology_at(cx, i, (src, dst))
    return (0, []) if h is None else (h.dim, h.reps)


class HomologyTable:
    """Per-(degree, pair) homology of a complex plus the edge actions of a set.

    The complex `cx` is graded by vertex pairs of `x`, whose edges act on
    its basis through ``cx.left_action_chain`` and ``cx.right_action_chain``:
    a cube-chain complex of x, or the tensor complex of two factors with x
    their tensor set.

    ``left_action(a, i, s, e)`` is the matrix H_i(s, e) -> H_i(s', e) where
    the edge a runs s' -> s (prepend a); ``right_action(a, i, s, e)`` is
    H_i(s, e) -> H_i(s, e') where a runs e -> e' (append a).  The action of a
    trivial path is the identity by construction, and actions of longer paths
    are composites of edge actions.

    ``entries`` holds the complex's homology (`_homology_at`) of every
    component with chains; every other (degree, pair) has no entry,
    dimension 0 and zero action matrices.
    """

    def __init__(self, cx: GradedComplex, x: PrecubicalSet):
        if cx.x is not x:
            raise ChainError("table must be built from the complex of the same set")
        self.cx = cx
        self.x = x
        self.field = cx.field
        self.entries: dict[tuple[int, str, str], PairHomology] = {
            (i, *pair): _homology_at(cx, i, pair) for i, pair in cx.components_with_chains}
        self._targets: dict[tuple[str, str, int, object], list[int]] = {}
        self._verify_actions_are_chain_maps()

    # -- chain-level actions ----------------------------------------------

    def _action_targets(self, side: str, a: str, i: int, pair) -> list[int]:
        """The target positions of prepending ("prepend") or appending
        ("append") the edge a on C_i(pair), asked of the complex once per
        table: the chain-map check and the pushes share them."""
        k = (side, a, i, pair)
        t = self._targets.get(k)
        if t is None:
            act = self.cx.left_action_targets if side == "prepend" else self.cx.right_action_targets
            t = self._targets[k] = act(a, i, pair)
        return t

    def _verify_actions_are_chain_maps(self) -> None:
        """Assert that prepending each in-edge of s and appending each
        out-edge of e commute with the differentials, for every component
        C_i(s, e) with chains and i >= 1."""
        cx, x, act = self.cx, self.x, self._action_targets
        into, out = x.in_edges(), x.out_edges()
        for i, (s, e) in cx.components_with_chains:
            if not i:
                continue
            acts = [("prepend", a, (x.edge_source(a), e)) for a in into[s]]
            acts += [("append", a, (s, x.edge_target(a))) for a in out[e]]
            for side, a, to in acts:
                j = _chain_map_witness(cx.diff(i, to), (act(side, a, i, (s, e)), ()),
                                       (act(side, a, i - 1, (s, e)), ()), cx.diff(i, (s, e)))
                if j is not None:
                    raise ActionError(f"{side} by {a!r} is not a chain map at degree {i}, "
                                      f"pair {(s, e)}: witness {cx._basis_name(i, (s, e), j)}")

    # -- homology-level interface -------------------------------------------

    def entry(self, i: int, s: str, e: str) -> PairHomology | None:
        return self.entries.get((i, s, e))

    def dim(self, i: int, s: str, e: str) -> int:
        hit = self.entries.get((i, s, e))
        return 0 if hit is None else hit.dim

    def left_action(self, a: str, i: int, s: str, e: str) -> Matrix:
        """H_i(s, e) -> H_i(s', e) for the edge a : s' -> s."""
        if self.x.edge_target(a) != s:
            raise ChainError(f"edge {a!r} does not end at {s!r}")
        return push_basis_map(lambda: (self._action_targets("prepend", a, i, (s, e)), ()),
                              self.entries.get((i, s, e)),
                              self.entries.get((i, self.x.edge_source(a), e)), self.cx._zero)

    def right_action(self, a: str, i: int, s: str, e: str) -> Matrix:
        """H_i(s, e) -> H_i(s, e') for the edge a : e -> e'."""
        if self.x.edge_source(a) != e:
            raise ChainError(f"edge {a!r} does not start at {e!r}")
        return push_basis_map(lambda: (self._action_targets("append", a, i, (s, e)), ()),
                              self.entries.get((i, s, e)),
                              self.entries.get((i, s, self.x.edge_target(a))), self.cx._zero)

    def left_path_action(self, path: tuple[str, ...], i: int, s: str, e: str) -> Matrix:
        """Composite left action of an edge path ending at s."""
        m = Matrix.identity(self.field, self.dim(i, s, e))
        here = s
        for a in reversed(path):
            m = self.left_action(a, i, here, e) @ m
            here = self.x.edge_source(a)
        return m

    def right_path_action(self, path: tuple[str, ...], i: int, s: str, e: str) -> Matrix:
        m = Matrix.identity(self.field, self.dim(i, s, e))
        here = e
        for a in path:
            m = self.right_action(a, i, s, here) @ m
            here = self.x.edge_target(a)
        return m


# -- chain maps and the maps they induce -------------------------------------------


def push_basis_map(positions, src: PairHomology | None, dst: PairHomology | None,
                   zero) -> Matrix:
    """The map on homology of the basis map of signed positions ``positions()``
    between two components: the classes in `dst` of the source representatives
    re-indexed (`_renamed`).  `src` and `dst` are what `_homology_at` gives,
    None for a component with no chains; when either side has none or the
    source has no classes, the map is ``zero(rows, cols)``, a complex's
    shared zero matrix (`GradedComplex._zero`), and no positions are read."""
    if src is None or dst is None or not src.dim:
        return zero(0 if dst is None else dst.dim, 0 if src is None else src.dim)
    p, mod = positions(), dst.cycles.field.characteristic
    return homology_classes(dst.cycles, dst.free, dst.quotient,
                            [_renamed(c, p, mod) for c in src.rep_columns])


def induced_on_homology(chain_map: Matrix, src: PairHomology, dst: PairHomology) -> Matrix:
    """The map on homology of a chain map, any matrix, between two components.

    Column j is the class in `dst` of the image of representative j of `src`.
    """
    if not src.dim:
        return Matrix.zeros(chain_map.field, dst.dim, 0)
    return dst.classes(chain_map @ src.representatives)


def _morphism_positions(f: PcMorphism, cxa: PairGradedComplex, cxb: PairGradedComplex
                        ) -> dict[tuple[int, str, str], tuple]:
    """`chain_map_of_morphism` as signed positions."""
    out = {(i, s, e): _basis_map([c.image(f) for c in chains], cxb.index.get((i, f(s), f(e)), {}))
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


def chain_map_of_morphism(f: PcMorphism, cxa: PairGradedComplex,
                          cxb: PairGradedComplex) -> dict[tuple[int, str, str], Matrix]:
    """Cube-wise chain map C_i(X)(s,e) -> C_i(Y)(f s, f e) as 0/1 matrices; asserted chain map."""
    return {(i, s, e): _basis_matrix(cxa.field, cxb.dim(i, (f(s), f(e))), p)
            for (i, s, e), p in _morphism_positions(f, cxa, cxb).items()}


def induced_map(f: PcMorphism, hx: HomologyTable, hy: HomologyTable
                ) -> dict[tuple[int, str, str], Matrix]:
    """Matrices H_i(X)(s,e) -> H_i(Y)(f s, f e) induced by a Cub morphism."""
    return {(i, s, e): push_basis_map(lambda: p, hx.entries.get((i, s, e)),
                                      hy.entries.get((i, f(s), f(e))), hy.cx._zero)
            for (i, s, e), p in _morphism_positions(f, hx.cx, hy.cx).items()}


# -- cochains --------------------------------------------------------------------


class CochainComplexTable:
    """Duals of the chain components: coboundary = transpose of the boundary,
    so delta . delta = 0 is the d . d = 0 the complex asserted when built."""

    def __init__(self, cx: PairGradedComplex):
        self.cx = cx
        self.field = cx.field
        self.top_degree = cx.top_degree

    def dim(self, i: int, pair) -> int:
        return self.cx.dim(i, pair)

    def coboundary(self, i: int, pair) -> Matrix:
        """delta^i : C^i -> C^(i+1), the transpose of d_(i+1)."""
        return self.cx.diff(i + 1, pair).transpose()

    def cohomology_dim(self, i: int, src: str, dst: str) -> int:
        """dim ker delta^i - rank delta^(i-1), that is dim C^i - rank d_(i+1)
        - rank d_i: each rank is the number of lows of the column reduction
        that homology reads too (`GradedComplex.reduction`), and 0, with no
        reduction, for a map into or out of a component with no chains."""
        cx, pair = self.cx, (src, dst)
        return cx.dim(i, pair) - sum(len(cx.reduction(j, pair).image) for j in (i, i + 1)
                                     if cx.dim(j, pair) and cx.dim(j - 1, pair))


def cochain_dual(cx: PairGradedComplex) -> CochainComplexTable:
    return CochainComplexTable(cx)


# -- acyclicity ---------------------------------------------------------------------


@dataclass
class AcyclicityVerdict:
    sequence: tuple[int, ...]
    start: str
    end: str
    h0_dim: int
    higher_dims: dict[int, int]
    acyclic: bool

    def __str__(self) -> str:
        word = "acyclic" if self.acyclic else "NOT acyclic"
        dims = ", ".join(f"H{i}={d}" for i, d in sorted(self.higher_dims.items()))
        return (f"realization {self.sequence}: {word}; H0({self.start},{self.end})"
                f"={self.h0_dim}" + (f"; {dims}" if dims else ""))


def acyclicity_check(seq, field=None) -> AcyclicityVerdict:
    """Homology of a realization concentrated in degree 0 between endpoints."""
    field = field or QQ
    r = realization(seq)
    cx = build_complex(r, None, field)
    top = sum(n - 1 for n in r.sequence)
    h0 = homology_of(cx, 0, (r.start, r.end)).dim
    higher = {i: homology_of(cx, i, (r.start, r.end)).dim for i in range(1, top + 1)}
    ok = h0 == 1 and all(d == 0 for d in higher.values())
    return AcyclicityVerdict(r.sequence, r.start, r.end, h0, higher, ok)

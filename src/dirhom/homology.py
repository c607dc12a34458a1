"""Homology of pair-graded complexes and the path-algebra actions on it.

Homology classes are stored concretely: cycle representatives (as sparse
columns, with their matrix built only when asked for), the cycle subspace,
the boundaries in kernel coordinates, and the quotient map in kernel
coordinates; a vector is a boundary when it is a cycle of class zero.  They
are read off the column reductions of d_i and d_{i+1}
(`exactla.homology_from_reductions`), which the store of a complex's family
(C(X) and its spans, quotients and sub-set complexes) computes once per
distinct differential (`GradedComplex.reduction`), so each is reduced once
for the two degrees on its sides of every component of the family that has
it, and no elimination runs.  Components with equal differentials share
that data (`GradedComplex.homology_data`), each in a `PairHomology` of its
own.  Each complex keeps the `PairHomology` of its components with chains,
made at most once, which every reader gets from `_homology_at(cx, i,
pair)`: None for a component with no chains.
The one push of chains into homology is the column push
`exactla.homology_classes`: it takes cycles as sparse columns, reads
their kernel coordinates off their entries at the free columns of d_i,
checks entry by entry that the kernel basis gives each column back, and
applies the quotient map, with no elimination and no product on the chains.
`PairHomology.classes(m)` runs it on the columns of a matrix m, such as the
block of the ambient differential that a connecting map reads off a short
sequence.  Every other map dirhom pushes is a basis map, sending each basis
element to one basis element, perhaps negated, or to zero: the edge actions
and the inclusions, projections and excision maps of the exact sequences.
Each is built, checked and pushed as signed positions ``(targets,
negated)``: `push_basis_map` re-indexes the entries of the source
representative columns (entries that meet add) and hands them to the column
push, with no 0/1 matrix built, decoded or multiplied.

The bimodule structure is realized by edge actions: prepending an edge to
every chain of a graded component (left action) or appending one (right
action).  A complex gives them as target positions (`left_action_targets`),
so one `HomologyTable` serves the cube-chain complex of a set and the tensor
complex of two factors (`ez.TensorComplex`) alike.  The table asks the
complex for the positions of each (side, edge, degree, pair) once
(`_kept_targets`) and keeps them for its chain-map check and its pushes.  The
check, which the tensor comparison runs too, asserts that the actions are
chain maps on the nose by re-indexing the columns of the differentials,
comparing every entry and naming a witness basis element on failure;
well-definedness on homology follows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .exactla import (  # kernel_basis stays importable from here
    ChainError, Matrix, Subspace, _chain_map_witness, _renamed, homology_classes, kernel_basis,
)
from .cubechain import GradedComplex, PairGradedComplex
from .precubical import PrecubicalSet


class ActionError(AssertionError):
    """An edge action failed to be a chain map: a boundary-convention bug."""


@dataclass(slots=True)
class PairHomology:
    """Homology of one (degree, pair) component, with explicit data.

    Every complex of a family holds one for each of its components with
    chains, around data the family shares, so it keeps no more than its
    fields (slots, and a representative matrix built on each ask)."""

    degree: int
    pair: object
    dim: int
    rep_columns: list[dict]   # the cycle representatives as sparse columns {position: value}
    cycles: Subspace
    boundary_rows: list[dict]   # the boundaries in kernel coordinates, reduced
    free: dict[int, int]    # {free column of d_i: its kernel index}, ascending
    quotient: Matrix    # kernel coordinates -> class coordinates

    @property
    def representatives(self) -> Matrix:
        """The cycle representatives as the columns of a matrix in chain coordinates."""
        return Matrix.from_sparse_columns(self.cycles.field, self.cycles.ambient_dim,
                                          self.rep_columns)

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
        """Whether v is a cycle whose class is zero."""
        try:
            return not any(self.class_vector(v))
        except ChainError:
            return False


def homology_of(cx: GradedComplex, i: int, pair) -> PairHomology:
    """ker d_i / im d_{i+1} for one pair component, read off the column
    reductions of d_i and d_{i+1} (`GradedComplex.homology_data`): a new
    `PairHomology` of the component around the data that every component
    of cx's family with the same two differentials shares.

    A cycle becomes a representative when it is outside the span of the
    boundaries and the cycles before it: when its free column is not the
    low of a reduced boundary (`exactla.homology_from_reductions`).  A
    component with no chains has no homology and takes no reduction.  A
    boundary whose low is a pivot of d_i, so no cycle, raises ChainError
    naming the degree and pair.
    """
    if not cx.dim(i, pair):
        zero = Subspace._of(cx.field, 0, [], None)
        return PairHomology(i, pair, 0, [], zero, [], {}, Matrix.zeros(cx.field, 0, 0))
    try:
        cycles, reps, rows, free, classes = cx.homology_data(i, pair)
    except ChainError as err:
        raise ChainError(f"degree {i}, pair {pair}: {err}") from None
    return PairHomology(i, pair, len(reps), reps, cycles, rows, free, classes)


def _homology_at(cx: GradedComplex, i: int, pair) -> PairHomology | None:
    """H_i of cx at pair, made by `homology_of` once and kept by cx, around
    the data its family's store holds for d_i and d_(i+1); None, with
    nothing computed, for a component with no chains."""
    k = (i, pair)
    h = cx._homology.get(k)
    if h is None and cx._dims.get(k):
        h = cx._homology[k] = homology_of(cx, i, pair)
    return h


class HomologyTable:
    """Per-(degree, pair) homology of a complex plus the edge actions of a set.

    The complex `cx` is graded by vertex pairs of `x`, whose edges act on
    its basis through ``cx.left_action_targets`` and
    ``cx.right_action_targets``: a cube-chain complex of x, or the tensor
    complex of two factors with x their tensor set.

    ``left_action(a, i, s, e)`` is the matrix H_i(s, e) -> H_i(s', e) where
    the edge a runs s' -> s (prepend a); ``right_action(a, i, s, e)`` is
    H_i(s, e) -> H_i(s, e') where a runs e -> e' (append a).  A path acts as
    the composite of its edges' actions, a trivial path as the identity.

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
        self._action_targets = _kept_targets(cx)   # for the chain-map check and the pushes
        self._verify_actions_are_chain_maps()

    def _verify_actions_are_chain_maps(self) -> None:
        """Assert that the edge actions on the complex are chain maps
        (`_check_actions_are_chain_maps`)."""
        _check_actions_are_chain_maps(self.cx, self.x, self._action_targets)

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

# -- chain maps and the maps they induce -------------------------------------------


def _kept_targets(cx: GradedComplex):
    """``targets(side, a, i, pair)``: the target positions of prepending
    ("prepend") or appending ("append") the edge a on C_i(pair), asked of
    the complex once and kept."""
    return cache(lambda side, a, i, pair: (
        cx.left_action_targets if side == "prepend" else cx.right_action_targets)(a, i, pair))


def _check_actions_are_chain_maps(cx: GradedComplex, x: PrecubicalSet, targets) -> None:
    """Raise ActionError, naming the side, the edge, the degree, the pair and
    a witness, unless prepending each in-edge of s and appending each
    out-edge of e commute with the differentials on every component C_i(s, e)
    of cx with chains and i >= 1; `targets` is `_kept_targets(cx)`."""
    into, out = x.in_edges(), x.out_edges()
    for i, (s, e) in cx.components_with_chains:
        if not i:
            continue
        acts = [("prepend", a, (x.edge_source(a), e)) for a in into[s]]
        acts += [("append", a, (s, x.edge_target(a))) for a in out[e]]
        for side, a, to in acts:
            j = _chain_map_witness(cx.diff(i, to), (targets(side, a, i, (s, e)), ()),
                                   (targets(side, a, i - 1, (s, e)), ()), cx.diff(i, (s, e)))
            if j is not None:
                raise ActionError(f"{side} by {a!r} is not a chain map at degree {i}, "
                                  f"pair {(s, e)}: witness {cx._basis_name(i, (s, e), j)}")


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


# -- cochains --------------------------------------------------------------------


class CochainComplexTable:
    """Duals of the chain components: coboundary = transpose of the boundary,
    so delta . delta = 0 is the d . d = 0 the complex asserted when built."""

    def __init__(self, cx: PairGradedComplex):
        self.cx = cx
        self.field = cx.field
        self.top_degree = cx.top_degree

    def coboundary(self, i: int, pair) -> Matrix:
        """delta^i : C^i -> C^(i+1), the transpose of d_(i+1)."""
        return self.cx.diff(i + 1, pair).transpose()

    def cohomology_dim(self, i: int, src: str, dst: str) -> int:
        """dim ker delta^i - rank delta^(i-1), that is dim C^i - rank d_(i+1)
        - rank d_i: the homology dimension (`GradedComplex.homology_dim`)."""
        return self.cx.homology_dim(i, (src, dst))


def cochain_dual(cx: PairGradedComplex) -> CochainComplexTable:
    return CochainComplexTable(cx)

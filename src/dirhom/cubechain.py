"""Cube chains, their boundary operator, and vertex-pair-graded complexes.

A cube chain in an acyclic precubical set X is a sequence of cells of
dimension >= 1, each glued final-vertex-to-initial-vertex to the next; the
empty chain sits at a single vertex.  A chain of type ``(n_1, .., n_l)``
has degree ``sum(n_k - 1)``.  Chains of fixed degree between a fixed vertex
pair form the basis of one graded component of the chain complex.

Boundary convention
-------------------
The boundary splits one cube of dimension ``n_k >= 2`` at a time.  For a
nonempty proper subset ``A`` of ``{1..n_k}`` the cube ``c_k`` is replaced by
the two glued cubes

    lower = d^0 over the complement of A (descending index order),
    upper = d^1 over A (descending index order),

so the first part keeps the A-directions and the second the rest.  The
coefficient is::

    (-1)^(sum_{j<k} (n_j - 1))        position (Koszul) prefix
    * (-1)^|A|                        split-size factor
    * sign(A asc, complement asc)     shuffle signature

The split-size factor ``(-1)^|A|`` is required: with the bare shuffle
signature the double splits of one cube do not cancel and the square of the
boundary is nonzero.  With it, d . d = 0 (asserted at every complex build),
and the two splittings of a 2-cube carry opposite signs.

Chains are plain tuples (`CubeChain` is a named 4-tuple).  `chain_catalog`
reads a corner table of the set once, from ``x.faces``: for each vertex the
cubes starting there, by cube id.  It walks the chains from each vertex
level by level, by length, extending each level's chains in lexicographic
order by their rows, so every list comes out in the canonical order with no
sort and no recursion, recording each chain's position as it goes.  Dynamic
programming on the table, last vertex first in the set's one vertex order
(`PrecubicalSet.topological_order`), first counts the chains and entries.

A boundary column is assembled by position: a build splits each cube once,
by the table of an n-cube's splits, into its list of ((lower, upper),
sign) in the field's form, one entry per distinct pair of parts, and
`_boundary_column` looks each term's cube ids up in the positions of the
component below, making no chain per term.  Edge actions and the maps
between complexes are signed positions (`_basis_map`), never 0/1 matrices.

A component depends only on the shape of its interval, so on a symmetric
set most components are copies of a few.  A complex and every
`BasisSubcomplex` built on it, transitively, share one store: it numbers
their differentials by content (`GradedComplex.diff_key`), reduces each
distinct differential once, and keeps the homology data of each distinct
pair (d_i, d_(i+1)) once (`GradedComplex.homology_data`), which every
component of the family with those differentials shares.
"""

from __future__ import annotations

import math
from functools import cache, cached_property
from typing import Mapping, NamedTuple, Sequence

from .exactla import (
    ChainError, Matrix, QQ, Reduction, _chain_map_witness, _modulus, column_reduction,
    homology_from_reductions,
)
from .precubical import PrecubicalSet, TensorSet


class DirectedCycleError(ValueError):
    """The construction needs an acyclic set but the input has a cycle."""


class ChainBudgetError(ValueError):
    """A set has more cube chains than `chain_catalog` builds (`CHAIN_BUDGET`)."""


class BoundaryCheckError(AssertionError):
    """d . d != 0: signals a sign-convention bug, never a data problem."""


class CubeChain(NamedTuple):
    """An immutable cube chain: glued cubes plus its endpoints.

    A named 4-tuple ``(src, dst, cubes, dims)``, so a chain also compares
    and hashes as that plain tuple.  `degree`, ``sum(n_k - 1)``, is a
    read-only property.
    """

    src: str
    dst: str
    cubes: tuple[str, ...]
    dims: tuple[int, ...]

    @property
    def degree(self) -> int:
        return sum(self.dims) - len(self.dims)

    @property
    def type(self) -> tuple[int, ...]:
        return self.dims

    def sort_key(self):
        return (len(self.cubes), self.cubes)

    def prepended(self, edge: str, src: str) -> "CubeChain":
        """The chain with the edge src -> self.src glued in front."""
        return CubeChain(src, self.dst, (edge,) + self.cubes, (1,) + self.dims)

    def appended(self, edge: str, dst: str) -> "CubeChain":
        """The chain with the edge self.dst -> dst glued at the end."""
        return CubeChain(self.src, dst, self.cubes + (edge,), self.dims + (1,))

    def __repr__(self) -> str:
        inner = ",".join(self.cubes) if self.cubes else f"@{self.src}"
        return f"<{inner}>"


# -- enumeration -------------------------------------------------------------


def _shown(name: str) -> str:
    """A set name cut to 60 characters for an error message: the name of a
    generated set, such as ``real(1,1,..)``, grows with the set."""
    return name if len(name) <= 60 else name[:57] + "..."


# The catalog and chain positions of each set enumerated, by (id(set),
# max_degree); "ref" holds the set, so its id() is not reused while the entry
# lives.  A CLI verb clears it when it returns (`cli._Verbs.invoke`): within
# the verb, each set is enumerated once however many complexes are built on
# it.  A library caller keeps every set it passes in until it clears it.
_catalog_cache: dict[tuple[int, int | None], dict] = {}

# The most cube chains `chain_catalog` makes for one set, and the most cube
# entries (their total length): D4 (x) D4, 2,183,339 chains with 10,899,513
# entries, fits in about 3 GB; realization([2,2,2]) squared (7,519,140
# chains) does not, nor a path of 1,200 edges (288,720,400 entries).
CHAIN_BUDGET = 3_000_000
ENTRY_BUDGET = 30_000_000


def _corner_table(x: PrecubicalSet):
    """(starting, order): for each vertex the sorted (cube, dimension, final
    vertex) of the cubes starting there, read once from ``x.faces``, and
    `PrecubicalSet.topological_order`, in which each cube must start before
    it ends (DirectedCycleError, naming the cube; under the cubical identities
    n edges lead from the start of an n-cube to its end, so none fails)."""
    order = x.topological_order()
    if order is None:
        raise DirectedCycleError(
            f"{_shown(x.name)}: chain enumeration needs an acyclic vertex-edge digraph")
    at = {v: k for k, v in enumerate(order)}
    corners = {v: (v, v) for v in x.vertices}
    starting: dict[str, list[tuple[str, int, str]]] = {v: [] for v in x.vertices}
    for n, layer in enumerate(x.cells[1:], 1):
        for c in layer:
            lower, upper = x.faces[c]
            corners[c] = first, last = corners[lower[0]][0], corners[upper[0]][1]
            if at[first] >= at[last]:
                raise DirectedCycleError(
                    f"{_shown(x.name)}: chain enumeration needs each cube to start "
                    f"before it ends, but {c!r} goes from {first!r} to {last!r}")
            starting[first].append((c, n, last))
    for row in starting.values():
        row.sort()
    return starting, order


def _chain_count(starting, order, top) -> tuple[int, int]:
    """How many chains of degree <= top start at the vertices of `order`, and
    their cube entries, from `_corner_table` by dynamic programming, last
    vertex first: the chains from v of degree d are the empty one (d = 0)
    and, for each cube of dimension n from v, those of degree d - n + 1 from
    its final vertex, each one entry longer."""
    by_degree: dict[str, list[tuple[int, int]]] = {}      # (chains, entries) by degree
    for v in reversed(order):
        row = [(1, 0)]
        for _, n, end in starting[v]:
            hi = min(n - 1 + len(by_degree[end]), top + 1)     # degrees n - 1 .. hi - 1
            row += [(0, 0)] * (hi - len(row))
            for d, (k, e) in zip(range(n - 1, hi), by_degree[end]):
                row[d] = (row[d][0] + k, row[d][1] + e + k)
        by_degree[v] = row
    return tuple(sum(t[side] for row in by_degree.values() for t in row) for side in (0, 1))


def chain_catalog(x: PrecubicalSet, max_degree: int | None = None
                  ) -> dict[tuple[int, str, str], list[CubeChain]]:
    """All cube chains of degree <= max_degree, keyed by (degree, src, dst).

    With ``max_degree=None`` every chain is enumerated (finite because the
    set is acyclic).  Chains are listed in the canonical order: by length,
    then lexicographically on the cube ids.  A set with more chains than
    `CHAIN_BUDGET` or more cube entries than `ENTRY_BUDGET`, counted first
    (`_chain_count`), raises ChainBudgetError.
    """
    key = (id(x), max_degree)
    hit = _catalog_cache.get(key)
    if hit is not None and hit["ref"] is x:
        return hit["catalog"]
    top = math.inf if max_degree is None else max_degree
    starting, order = _corner_table(x)
    count, entries = _chain_count(starting, order, top)
    for what, n, budget in (("cube chains", count, CHAIN_BUDGET),
                            ("cube entries in its chains", entries, ENTRY_BUDGET)):
        if n > budget:
            raise ChainBudgetError(f"{_shown(x.name)}: {n:,} {what}, more than the "
                                   f"{budget:,} a chain catalog is built for")
    slots: dict[tuple[int, str, str], tuple[dict[tuple[str, ...], int], list[CubeChain]]] = {}
    new = tuple.__new__     # a CubeChain with no call of its Python __new__
    for v in sorted(x.vertices):
        # the chains from v of one length in lexicographic order, and their degrees
        level, degrees = [new(CubeChain, (v, v, (), ()))], [0]
        while level:
            below, level, degs, degrees = level, [], degrees, []
            for deg, chain in zip(degs, below):
                _, here, cubes, dims = chain
                slot = slots.get((deg, v, here))
                if slot is None:
                    slot = slots[(deg, v, here)] = ({}, [])
                at, chains = slot
                at[cubes] = len(chains)
                chains.append(chain)
                for c, n, end in starting[here]:    # by cube id
                    if deg + n - 1 <= top:
                        level.append(new(CubeChain, (v, end, cubes + (c,), dims + (n,))))
                        degrees.append(deg + n - 1)
    catalog = {k: chains for k, (_, chains) in slots.items()}
    _catalog_cache[key] = {"ref": x, "catalog": catalog,
                           "positions": {k: at for k, (at, _) in slots.items()}}
    return catalog


def _catalog_positions(x: PrecubicalSet, max_degree: int | None = None) -> dict:
    """Each chain's position in `chain_catalog(x, max_degree)`, made first."""
    return _catalog_cache[(id(x), max_degree)]["positions"]


def enumerate_chains(x: PrecubicalSet, degree: int, src: str, dst: str) -> list[CubeChain]:
    """All cube chains of the given degree from src to dst, each once."""
    return list(chain_catalog(x).get((degree, src, dst), ()))


def max_chain_degree(x: PrecubicalSet) -> int:
    return max((k[0] for k in chain_catalog(x)), default=0)


# -- the boundary -------------------------------------------------------------


@cache
def _split_table(n: int) -> list[tuple[list[int], list[int], int]]:
    """One ``(complement, A, sign)`` per nonempty proper subset A of the
    directions of an n-cube: the complement and A as descending 0-based face
    indices, and ``(-1)^|A|`` times the sign of the shuffle (A asc,
    complement asc), which inverts each c < a with c not in A."""
    table = []
    for mask in range(1, (1 << n) - 1):
        a_set = [i for i in range(n) if mask >> i & 1]
        comp = [i for i in range(n) if not mask >> i & 1]
        odd = (len(a_set) + sum(c < a for a in a_set for c in comp)) % 2
        table.append((comp[::-1], a_set[::-1], -1 if odd else 1))
    return table


def _split_list(x: PrecubicalSet, cube: str) -> list[tuple[tuple[str, str], int]]:
    """``((lower, upper), sign)`` for each entry of `_split_table`: the
    lower part keeps the A-directions (d^0 over the complement) and the
    upper the rest (d^1 over A).  Subsets with equal parts share one entry
    with their signs added, and an entry whose signs cancel is left out, so
    the parts of the list are distinct."""
    faces = x.faces
    signs: dict[tuple[str, str], int] = {}
    for comp, a_set, sign in _split_table(len(faces[cube][0])):
        lower = upper = cube
        for i in comp:
            lower = faces[lower][0][i]
        for i in a_set:
            upper = faces[upper][1][i]
        signs[lower, upper] = signs.get((lower, upper), 0) + sign
    return [(parts, sign) for parts, sign in signs.items() if sign]


def _field_splits(x: PrecubicalSet, cubes, field) -> dict[str, tuple[list, list]]:
    """Each cube -> its split list as ``(parts, v)`` in the field's form, for
    an even and for an odd prefix degree: v is the sign, or its negative,
    reduced mod p over F_p, where an entry that vanishes (+-2 over F_2) is left out."""
    p = _modulus(field)
    return {c: tuple([(parts, v) for parts, sign in entries
                      if (v := flip * sign % p if p else flip * sign)] for flip in (1, -1))
            for c in cubes for entries in [_split_list(x, c)]}


def _boundary_column(chain: CubeChain, splits: Mapping[str, tuple[list, list]],
                     at: Mapping[tuple[str, ...], object]) -> dict:
    """The boundary of a chain as ``{at[term cube ids]: coefficient}``: each
    cube of dimension >= 2 is replaced by the parts of each entry of its
    split list in `splits` (`_field_splits`), the odd one after an odd
    prefix degree.  The terms are distinct, so each is one entry: the parts
    of one split list are, and of two terms from splitting cubes j < k, the
    first has at position j a part of lower dimension than the cube the
    second keeps there."""
    col: dict = {}
    cubes, odd = chain.cubes, 0
    for k, n in enumerate(chain.dims):
        if n >= 2:
            head, tail = cubes[:k], cubes[k + 1:]
            for parts, v in splits[cubes[k]][odd]:
                col[at[head + parts + tail]] = v
        if not n & 1:
            odd ^= 1
    return col


# -- graded complexes ---------------------------------------------------------


class GradedComplex:
    """Dimensions and differentials per (degree, pair-key).

    Pair keys are opaque sortable objects; for cube-chain complexes they are
    (src, dst) vertex pairs.  Differentials map degree i to degree i-1 inside
    one pair component.  ``d . d = 0`` is asserted at the end of
    construction (`check_boundary_square`), so a subclass sets what
    `_basis_name` and `ambient` read before it calls this constructor.
    `components_with_chains` lists the sorted
    (degree, pair) keys of nonzero dimension.

    Components of a symmetric set are mostly copies of one another.  A
    complex with no ambient makes a store, and a `BasisSubcomplex` takes
    its ambient's, so a family holds one; the constructor numbers every
    nonzero stored differential in it by content, and keys a zero one by
    its shape (`diff_key`).  `reduction`
    reduces each distinct differential of the family once, for the
    homology of the degrees on both sides of every copy, and
    `homology_data` reads the homology off each distinct pair (d_i,
    d_(i+1)) once, which every component with those differentials shares.
    """

    ambient = None      # the complex a `BasisSubcomplex` is built on, whose store it takes

    def __init__(self, field, top_degree: int,
                 dims: Mapping[tuple[int, object], int],
                 diffs: Mapping[tuple[int, object], Matrix]):
        self.field = field
        self.top_degree = top_degree
        self._dims = dict(dims)
        self._diffs = dict(diffs)
        self._zeros: dict[tuple[int, int], Matrix] = {}    # by shape
        # the family's store: content numbers of nonzero matrices (equal
        # matrices are one key, `Matrix.__eq__`), reductions by `diff_key`,
        # homology data by the `diff_key`s of d_i and d_(i+1)
        self._store: tuple[dict[Matrix, int], dict[object, Reduction], dict[tuple, tuple]] = (
            ({}, {}, {}) if self.ambient is None else self.ambient._store)
        numbers, self._reductions, self._homology_data = self._store
        self._numbers = {k: numbers.setdefault(m, len(numbers)) for k, m in self._diffs.items()
                         if not m.is_zero()}
        self._homology: dict = {}   # (degree, pair) -> PairHomology, by homology._homology_at
        self._pairs = sorted({k[1] for k in self._dims})
        self.components_with_chains = sorted(k for k, n in self._dims.items() if n)
        self.check_boundary_square()

    def pairs(self) -> list:
        return list(self._pairs)

    def dim(self, i: int, pair) -> int:
        return self._dims.get((i, pair), 0)

    def diff(self, i: int, pair) -> Matrix:
        m = self._diffs.get((i, pair))
        if m is None:
            m = self._zero(self.dim(i - 1, pair) if i >= 1 else 0, self.dim(i, pair))
        return m

    def diff_key(self, i: int, pair):
        """What stands for the content of d_i at pair in the family's store:
        the number of a nonzero one, or the shape of a zero one, stored or
        not (`_zero`), so equal differentials of the family have one key."""
        n = self._numbers.get((i, pair))
        if n is None:
            return (self.dim(i - 1, pair) if i >= 1 else 0, self.dim(i, pair))
        return n

    def reduction(self, i: int, pair) -> Reduction:
        """The column reduction of d_i on one pair component, computed the
        first time it or an equal differential (`diff_key`) is asked for."""
        key = self.diff_key(i, pair)
        r = self._reductions.get(key)
        if r is None:
            r = self._reductions[key] = column_reduction(self.diff(i, pair))
        return r

    def homology_data(self, i: int, pair) -> tuple:
        """`exactla.homology_from_reductions` of d_i and d_(i+1) at a
        component with chains, from their reductions, computed once for
        each pair of distinct differentials (`diff_key`) and shared by the
        components that have them; a ChainError propagates and keeps nothing."""
        key = (self.diff_key(i, pair), self.diff_key(i + 1, pair))
        h = self._homology_data.get(key)
        if h is None:
            h = self._homology_data[key] = homology_from_reductions(
                self.reduction(i, pair), self.reduction(i + 1, pair), self.field,
                self.dim(i, pair))
        return h

    def homology_dim(self, i: int, pair) -> int:
        """dim C_i - rank d_i - rank d_(i+1) at one pair component, each rank
        the number of lows of `reduction`, or 0 with no reduction for a map
        into or out of a component with no chains."""
        return self.dim(i, pair) - sum(len(self.reduction(j, pair).image) for j in (i, i + 1)
                                       if self.dim(j, pair) and self.dim(j - 1, pair))

    def _zero(self, rows: int, cols: int) -> Matrix:
        """The zero matrix of a shape, built once per complex (matrices are
        immutable, so every caller can share it)."""
        m = self._zeros.get((rows, cols))
        if m is None:
            m = self._zeros[(rows, cols)] = Matrix.zeros(self.field, rows, cols)
        return m

    def _basis_name(self, i: int, pair, j: int) -> str:
        """How a failure report names basis element j of the (i, pair) component."""
        return f"basis element {j}"

    def check_boundary_square(self) -> None:
        """Raise BoundaryCheckError unless d_{i-1} @ d_i = 0 on every
        component; the error names the first basis element of degree i
        whose column of the product is nonzero."""
        for pair in self._pairs:
            for i in range(2, self.top_degree + 1):
                if self.dim(i, pair) == 0:
                    continue
                prod = self.diff(i - 1, pair) @ self.diff(i, pair)
                if not prod.is_zero():
                    j = next(j for j, col in enumerate(prod.sparse_columns()) if col)
                    raise BoundaryCheckError(f"d.d != 0 at degree {i}, pair {pair}: "
                                             f"witness {self._basis_name(i, pair, j)}")


class PairGradedComplex(GradedComplex):
    """The cube-chain complex of an acyclic precubical set.

    Bases are the enumerated cube chains in canonical order; one differential
    matrix per (degree, src, dst).  `positions` maps the cube ids of each
    basis chain to its position, `index` the chain itself.
    """

    def __init__(self, x: PrecubicalSet, field, top_degree: int,
                 bases: dict[tuple[int, str, str], list[CubeChain]],
                 diffs: dict[tuple[int, str, str], Matrix],
                 positions: dict[tuple[int, str, str], dict[tuple[str, ...], int]]):
        self.x = x
        self.bases = bases
        self.positions = positions
        dims = {(i, (s, e)): len(chains) for (i, s, e), chains in bases.items()}
        super().__init__(field, top_degree,
                         dims, {(i, (s, e)): m for (i, s, e), m in diffs.items()})

    @cached_property
    def index(self) -> dict[tuple[int, str, str], dict[CubeChain, int]]:
        return {key: {c: i for i, c in enumerate(chains)} for key, chains in self.bases.items()}

    def basis(self, i: int, src: str, dst: str) -> list[CubeChain]:
        return list(self.bases.get((i, src, dst), ()))

    def _basis_name(self, i: int, pair, j: int) -> str:
        return repr(self.bases[(i, *pair)][j])

    def left_action_targets(self, edge: str, i: int, pair) -> list[int]:
        """Where prepending the edge s' -> s puts each chain of C_i(s, e) in C_i(s', e)."""
        at = self.positions.get((i, self.x.edge_source(edge), pair[1]))
        return [at[(edge,) + c.cubes] for c in self.bases.get((i, *pair), ())]

    def right_action_targets(self, edge: str, i: int, pair) -> list[int]:
        """Where appending the edge e -> e' puts each chain of C_i(s, e) in C_i(s, e')."""
        at = self.positions.get((i, pair[0], self.x.edge_target(edge)))
        return [at[c.cubes + (edge,)] for c in self.bases.get((i, *pair), ())]

    def chain_index(self, chain: CubeChain) -> int:
        key = (chain.degree, chain.src, chain.dst)
        try:
            return self.index[key][chain]
        except KeyError:
            raise ChainError(f"chain {chain!r} not in the complex basis") from None

    def vector_of(self, chain: CubeChain, i: int, src: str, dst: str) -> tuple:
        """Coordinates of a chain in the (i, src, dst) basis: a unit vector."""
        if (chain.degree, chain.src, chain.dst) != (i, src, dst):
            raise ChainError("chain does not live in the requested grading")
        v = [self.field.zero] * self.dim(i, (src, dst))
        v[self.chain_index(chain)] = self.field.one
        return tuple(v)


class BasisSubcomplex(GradedComplex):
    """The complex on some basis elements of an ambient complex.

    ``kept[(i, pair)]`` lists ascending positions in the ambient basis of the
    (i, pair) component.  The differential is the ambient one read on the
    kept elements, the block of kept rows and columns: a subcomplex when the
    inclusion is a chain map and a quotient when the projection is, which
    `check_chain_map` asserts for the one meant.

    A component is whole when it keeps every ambient basis element (there
    are none to keep where the ambient has no chains).  The differential
    between two whole components is the ambient's own object, with no
    block copied.  The complex takes its ambient's store, so a differential
    equal to one the family has reduced reuses that reduction and homology
    data, whole or not.
    """

    def __init__(self, ambient: GradedComplex, kept: dict[tuple[int, object], list[int]]):
        self.ambient = ambient
        self.kept = kept
        diffs = {}
        for (i, pair), cols in kept.items():
            if i >= 1:
                d, rows = ambient.diff(i, pair), kept.get((i - 1, pair), ())
                whole = (len(rows), len(cols)) == (d.rows, d.cols)   # positions are distinct
                diffs[(i, pair)] = d if whole else d.block(rows, cols)
        super().__init__(ambient.field, ambient.top_degree,
                         {k: len(v) for k, v in kept.items()}, diffs)

    def inclusion_positions(self, i: int, pair) -> tuple:
        """The inclusion as signed positions: each kept element goes to its ambient position."""
        return self.kept.get((i, pair), []), ()

    def projection_positions(self, i: int, pair) -> tuple:
        """The projection as signed positions: each ambient element goes to
        its position among the kept ones, or to zero (None) when not kept."""
        at = {j: k for k, j in enumerate(self.kept.get((i, pair), ()))}
        return [at.get(j) for j in range(self.ambient.dim(i, pair))], ()

    def _basis_name(self, i: int, pair, j: int) -> str:
        return self.ambient._basis_name(i, pair, self.kept[(i, pair)][j])

    def check_chain_map(self, f, source: GradedComplex, target: GradedComplex) -> None:
        """Raise ChainError unless ``f(i, pair)``, a basis map as signed
        positions such as this complex's `inclusion_positions` or
        `projection_positions`, commutes with the differentials of source and
        target on this complex's components; the error names the degree, the
        pair and a source basis element on which the two sides differ."""
        for i, pair in self.kept:
            if not i:
                continue
            j = _chain_map_witness(target.diff(i, pair), f(i, pair), f(i - 1, pair),
                                   source.diff(i, pair))
            if j is not None:
                raise ChainError(f"{f.__name__} is not a chain map at degree {i}, pair {pair}: "
                                 f"witness {source._basis_name(i, pair, j)}")


def _basis_map(images: Sequence, index: Mapping, signs: Sequence[int] | None = None) -> tuple:
    """The basis map sending source basis element j to ``images[j]``, or
    given `signs` to ``signs[j] * images[j]``, as signed positions
    ``(targets, negated)``: the position of each image in `index`, None for
    an image of None (zero), and the set of elements whose sign is -1.  An
    image that is not a target basis element raises."""
    targets = [None if img is None else index.get(img) for img in images]
    missing = next((img for img, j in zip(images, targets) if img is not None and j is None), None)
    if missing is not None:
        raise ChainError(f"image {missing!r} missing from the target basis")
    return targets, () if signs is None else {j for j, sign in enumerate(signs) if sign < 0}


def build_complex(x: PrecubicalSet, max_degree: int | None = None,
                  field=QQ) -> PairGradedComplex:
    """Enumerate bases and assemble differentials; asserts d.d = 0.

    ``max_degree=None`` builds the full complex (all chain degrees), which is
    what the exactness verifiers use so truncation never fakes a zero.
    """
    bases = chain_catalog(x, max_degree)
    positions = _catalog_positions(x, max_degree)
    top = max((k[0] for k in bases), default=0)
    # a cube of dimension n is itself a chain of degree n - 1, so these are
    # the cubes of dimension >= 2 that the chains of the bases hold
    splits = _field_splits(x, (c for n in range(2, top + 2) for c in x.cells_of_dim(n)), field)
    diffs: dict[tuple[int, str, str], Matrix] = {}
    for (i, s, e), chains in sorted(bases.items()):
        if i == 0:
            continue
        at = positions.get((i - 1, s, e), {})
        cols = []
        for chain in chains:
            try:
                cols.append(_boundary_column(chain, splits, at))
            except KeyError as err:
                raise ChainError(f"boundary term {err.args[0]} of {chain!r} "
                                 "missing from basis") from None
        diffs[(i, s, e)] = Matrix._of(field, len(at), len(cols), cols)   # in field form
    return PairGradedComplex(x, field, top, bases, diffs, positions)


# -- shuffles in tensor products ----------------------------------------------


def project_shuffle(tx: TensorSet, chain: CubeChain) -> tuple[CubeChain, CubeChain]:
    """Split a chain in X(x)Y into its X- and Y-component chains."""
    for cube in chain.cubes:
        if cube not in tx.fst:
            raise ChainError(f"cube {cube!r} is not a product cell")
    x, y = tx.left, tx.right
    sx, sy = tx.components(chain.src)
    ex, ey = tx.components(chain.dst)
    xs, xdims, ys, ydims = [], [], [], []
    for cube in chain.cubes:
        u, v = tx.components(cube)
        if x.dim_of(u) >= 1:
            xs.append(u)
            xdims.append(x.dim_of(u))
        if y.dim_of(v) >= 1:
            ys.append(v)
            ydims.append(y.dim_of(v))
    return (CubeChain(sx, ex, tuple(xs), tuple(xdims)),
            CubeChain(sy, ey, tuple(ys), tuple(ydims)))


def enumerate_shuffles(tx: TensorSet, cx: CubeChain, cy: CubeChain,
                       target_degree: int) -> list[CubeChain]:
    """All chains in X(x)Y of the target degree projecting to (cx, cy).

    An interleaving step consumes the next X-cube (paired with the current
    Y-vertex), the next Y-cube (paired with the current X-vertex), or both at
    once as a mixed cube; each merge raises the degree by one.
    """
    merges_needed = target_degree - cx.degree - cy.degree
    src, dst = tx.pair_id(cx.src, cy.src), tx.pair_id(cx.dst, cy.dst)
    lx, ly = len(cx.cubes), len(cy.cubes)
    out: list[CubeChain] = []
    # partial interleavings: cubes of X and Y used, vertices reached, cubes, dims, merges
    stack = [(0, 0, cx.src, cy.src, (), (), 0)]
    while stack:
        i, j, herex, herey, cubes, dims, merges = stack.pop()
        if i == lx and j == ly and merges == merges_needed:
            out.append(CubeChain(src, dst, cubes, dims))
        if i < lx:
            u = cx.cubes[i]
            stack.append((i + 1, j, tx.left.final_vertex(u), herey,
                          cubes + (tx.pair_id(u, herey),), dims + (cx.dims[i],), merges))
        if j < ly:
            v = cy.cubes[j]
            stack.append((i, j + 1, herex, tx.right.final_vertex(v),
                          cubes + (tx.pair_id(herex, v),), dims + (cy.dims[j],), merges))
        if i < lx and j < ly and merges < merges_needed:
            stack.append((i + 1, j + 1, tx.left.final_vertex(u), tx.right.final_vertex(v),
                          cubes + (tx.pair_id(u, v),), dims + (cx.dims[i] + cy.dims[j],),
                          merges + 1))
    out.sort(key=CubeChain.sort_key)
    return out

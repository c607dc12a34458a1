"""Path algebras and change of coefficients for pair-graded bimodules.

The path algebra of an acyclic precubical set is spanned by the monotone
edge paths of its 1-skeleton, with concatenation as product (zero when not
composable) and the trivial paths as local units.  Bimodules over a pair of
path algebras decompose into components indexed by (source vertex, target
vertex); everything in this module works per such pair.

Extension of scalars along an inclusion Y -> X is implemented twice, on
purpose:

* `extend_subcomplex` is the fast path: inside the chain complex of X it
  spans the chains that factor as (edge-only prefix) . (chain in Y) .
  (edge-only suffix);
* `extend_presented` is the ground truth: it re-reads a presented bimodule
  over the paths of X, whose per-pair dimension is the number of spanning
  triples minus the rank of the relation translates; `ResolvedBimodule`
  sizes all pairs of one source vertex from one sweep of their triples and
  translates, and keeps no translate.

Their per-pair dimensions agree exactly when the canonical comparison map
is injective, which is what the relative-pair check verifies.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass
from typing import Iterable, Sequence

from .exactla import (
    Matrix, QQ, _echelon, _lows, _modulus, _quotient, _value,
)
from .precubical import PcMorphism, PrecubicalSet, TensorSet
from .cubechain import (
    BasisSubcomplex, CubeChain, GradedComplex, PairGradedComplex, chain_catalog,
)
from .homology import HomologyTable


class AlgebraError(ValueError):
    """Misuse of path algebras or bimodule presentations."""


class PathAlgebraIndex:
    """All monotone edge paths of an acyclic set, indexed by vertex pair.

    Paths are tuples of edge ids, read off the degree-0 chains of
    `chain_catalog` in its order; the trivial path is the empty tuple at a
    diagonal pair (v, v).  A cyclic set raises DirectedCycleError.
    """

    def __init__(self, x: PrecubicalSet):
        self.x = x
        self.paths: dict[tuple[str, str], list[tuple[str, ...]]] = {
            (s, e): [c.cubes for c in chains]
            for (i, s, e), chains in chain_catalog(x).items() if i == 0}
        # the same lists by start vertex, then end vertex
        self.starting: dict[str, dict[str, list[tuple[str, ...]]]] = {}
        for (s, e), paths in self.paths.items():
            self.starting.setdefault(s, {})[e] = paths

    def between(self, s: str, e: str) -> list[tuple[str, ...]]:
        return list(self.paths.get((s, e), ()))

    def dim(self, s: str, e: str) -> int:
        return len(self.paths.get((s, e), ()))

    def total_dim(self) -> int:
        return sum(len(v) for v in self.paths.values())

    def path_target(self, s: str, path: tuple[str, ...]) -> str:
        here = s
        for e in path:
            if self.x.edge_source(e) != here:
                raise AlgebraError(f"path {path} is not composable at {here!r}")
            here = self.x.edge_target(e)
        return here

    def __repr__(self) -> str:
        return f"PathAlgebraIndex({self.x.name}, total {self.total_dim()})"


def path_algebra(x: PrecubicalSet) -> PathAlgebraIndex:
    return PathAlgebraIndex(x)


# -- presented bimodules -------------------------------------------------------

# A relation term is (coeff, left_path, generator_id, right_path); a relation
# is a list of terms homogeneous in the (source, target) grading.
RelationTerm = tuple[object, tuple[str, ...], str, tuple[str, ...]]


@dataclass(frozen=True)
class BimoduleGenerator:
    gid: str
    src: str
    dst: str


class PresentedBimodule:
    """A bimodule over two path algebras given by generators and relations.

    Each relation with a nonzero coefficient is also kept as (source,
    target, terms): its (source, target) pair, and its terms with nonzero
    coefficients, each as the value the reduction stores.  A
    coefficient from another field raises FieldError here.
    """

    def __init__(self, left: PathAlgebraIndex, right: PathAlgebraIndex,
                 generators: Sequence[BimoduleGenerator],
                 relations: Sequence[Sequence[RelationTerm]],
                 field=QQ, name: str = ""):
        self.left = left
        self.right = right
        self.field = field
        self.name = name
        self.generators = list(generators)
        self.by_id = {g.gid: g for g in self.generators}
        if len(self.by_id) != len(self.generators):
            raise AlgebraError("duplicate generator ids")
        self.relations = [list(r) for r in relations]
        self._graded_relations: list[tuple[str, str, list[RelationTerm]]] = []
        modulus = _modulus(field)
        for rel in self.relations:
            pairs = set()
            terms = []
            for coeff, p, gid, q in rel:
                g = self.by_id.get(gid)
                if g is None:
                    raise AlgebraError(f"relation uses unknown generator {gid!r}")
                s = self._path_source_left(p, g.src)
                e = self.right.path_target(g.dst, q)
                pairs.add((s, e))
                value = _value(coeff, modulus)
                if value:
                    terms.append((value, p, gid, q))
            if len(pairs) > 1:
                raise AlgebraError("relation is not homogeneous in (src, dst)")
            if terms:
                self._graded_relations.append((*pairs.pop(), terms))

    def _path_source_left(self, p: tuple[str, ...], end: str) -> str:
        here = end
        for e in reversed(p):
            if self.left.x.edge_target(e) != here:
                raise AlgebraError(f"left path {p} does not end at {here!r}")
            here = self.left.x.edge_source(e)
        return here

    def resolve(self) -> "ResolvedBimodule":
        return ResolvedBimodule(self)

    def __repr__(self) -> str:
        return (f"PresentedBimodule({self.name or '?'}: {len(self.generators)} gens, "
                f"{len(self.relations)} rels)")


class ResolvedBimodule:
    """Per-pair reduction of a presented bimodule, one source vertex at a time.

    For a pair (s, e) the spanning triples are (left path, generator, right
    path); the bimodule is their span modulo the relation translates.  A
    sweep of a source vertex s (`_sweep`), over the generators and relations
    indexed by their source, counts the triples of every pair (s, e) and
    builds its translates from only the generator and relation pairs that
    paths from s reach, and stores nothing.  The first dimension asked at s
    (`_reduce`) sizes every pair of s from one sweep: its triple count minus
    the rank of its translates, the number of their lows (`exactla._lows`).
    The first quotient basis asked at s (`basis_triples`, the edge actions)
    builds those of every pair of s from one more sweep (`_pair_basis`).
    """

    def __init__(self, pb: PresentedBimodule):
        self.pb = pb
        self.field = pb.field
        # generator ids by source, then target; relations by source, as (target, terms)
        self._gens: dict[str, dict[str, list[str]]] = {}
        for g in pb.generators:
            self._gens.setdefault(g.src, {}).setdefault(g.dst, []).append(g.gid)
        self._relations: dict[str, list[tuple[str, list[RelationTerm]]]] = {}
        for rs, re, terms in pb._graded_relations:
            self._relations.setdefault(rs, []).append((re, terms))
        # the dimension at each pair asked for; benchmark/tracer.py reads the keys
        self._rref: dict[tuple[str, str], int] = {}
        # per source vertex s, by target e: the dimension, and the basis record
        self._dims: dict[str, dict[str, int]] = {}
        self._bases: dict[str, dict[str, tuple]] = {}

    def _sweep(self, s: str) -> dict[str, tuple[int, dict[tuple, int], list[dict]]]:
        """``{e: (count, number, rows)}`` over the pairs (s, e) with triples:
        the triple count, the sum over generator pairs (u, v) of
        #generators(u, v) . #paths(s, u) . #paths(v, e), the numbers of the
        triples the translates meet, and one ``{number: value}`` row per
        translate (terms that land on one triple add, and zero sums drop)."""
        left, right = self.pb.left.starting.get(s, {}), self.pb.right.starting
        counts: dict[str, int] = {}
        for u, lps in left.items():
            for v, gids in self._gens.get(u, {}).items():
                k = len(lps) * len(gids)
                for e, rqs in right.get(v, {}).items():
                    counts[e] = counts.get(e, 0) + k * len(rqs)
        swept = {e: (n, {}, []) for e, n in counts.items()}
        p = _modulus(self.field)
        for rs, lps in left.items():
            for re, terms in self._relations.get(rs, ()):
                for lp in lps:
                    lefts = [(a, lp + pi, gid, qi) for a, pi, gid, qi in terms]
                    for e, rqs in right.get(re, {}).items():
                        _, number, rows = swept[e]
                        for rq in rqs:
                            row: dict = {}
                            for a, lpi, gid, qi in lefts:
                                j = number.setdefault((lpi, gid, qi + rq), len(number))
                                if j in row:
                                    a = _value(row[j] + a, p)
                                    if not a:
                                        del row[j]
                                        continue
                                row[j] = a
                            rows.append(row)
        return swept

    def _reduce(self, s: str, e: str):
        """Store the dimension at (s, e), read off the dimensions of s: each
        pair's triple count minus the rank of its translates, the number of
        their lows (`_lows`)."""
        key = (s, e)
        if key in self._rref:
            return
        dims = self._dims.get(s)
        if dims is None:
            p = _modulus(self.field)
            dims = self._dims[s] = {e: n - len(_lows(rows, p))
                                    for e, (n, _, rows) in self._sweep(s).items()}
        self._rref[key] = dims.get(e, 0)

    def dim(self, s: str, e: str) -> int:
        self._reduce(s, e)
        return self._rref[(s, e)]

    def triples(self, s: str, e: str) -> list[tuple]:
        right = self.pb.right.paths
        out = [(p, gid, q) for u, lps in self.pb.left.starting.get(s, {}).items()
               for v, gids in self._gens.get(u, {}).items()
               for p in lps for gid in gids for q in right.get((v, e), ())]
        out.sort(key=lambda t: (len(t[0]) + len(t[2]), t[1], t[0], t[2]))
        return out

    def _pair_basis(self, s: str, e: str, number: dict[tuple, int], rows: list[dict]):
        """The basis record at (s, e) from its swept translates: the sorted
        triples, their positions, the quotient map (column j holds the
        coordinates of triple j) and the free positions, off the pivots of
        the translates' reduced row echelon form."""
        triples = self.triples(s, e)
        index = {t: i for i, t in enumerate(triples)}
        at = [index[t] for t in number]
        done, pivots = _echelon([{at[j]: a for j, a in row.items()} for row in rows],
                                len(triples), _modulus(self.field))
        return (triples, index, *_quotient(dict(zip(pivots, done)), len(triples), self.field))

    def _basis(self, s: str, e: str):
        """The basis record at (s, e), read off the bases of s."""
        bases = self._bases.get(s)
        if bases is None:
            bases = self._bases[s] = {e: self._pair_basis(s, e, number, rows)
                                      for e, (_, number, rows) in self._sweep(s).items()}
        return bases[e] if e in bases else self._pair_basis(s, e, {}, [])

    def basis_triples(self, s: str, e: str) -> list[tuple]:
        triples, _, _, free = self._basis(s, e)
        return [triples[j] for j in free]

    def _coordinates(self, s: str, e: str, triples: list[tuple]) -> Matrix:
        """Column k holds the coordinates of triples[k] in the quotient basis at (s, e)."""
        _, index, q, _ = self._basis(s, e)
        for t in triples:
            if t not in index:
                raise AlgebraError(f"triple {t} does not span at ({s!r},{e!r})")
        return q.block(range(q.rows), [index[t] for t in triples])

    def left_edge_action(self, a: str, s: str, e: str) -> Matrix:
        """Matrix of prepending the edge a : s' -> s, in quotient bases."""
        xa = self.pb.left.x
        if xa.edge_target(a) != s:
            raise AlgebraError(f"edge {a!r} does not end at {s!r}")
        return self._coordinates(xa.edge_source(a), e,
                                 [((a,) + p, gid, q) for p, gid, q in self.basis_triples(s, e)])

    def right_edge_action(self, a: str, s: str, e: str) -> Matrix:
        xb = self.pb.right.x
        if xb.edge_source(a) != e:
            raise AlgebraError(f"edge {a!r} does not start at {e!r}")
        return self._coordinates(s, xb.edge_target(a),
                                 [(p, gid, q + (a,)) for p, gid, q in self.basis_triples(s, e)])

    def dims_by_pair(self) -> dict[tuple[str, str], int]:
        out = {}
        for s in self.pb.left.x.vertices:
            for e in self.pb.right.x.vertices:
                d = self.dim(s, e)
                if d:
                    out[(s, e)] = d
        return out

    def total_dim(self) -> int:
        return sum(self.dims_by_pair().values())


def _present_from_actions(left: PathAlgebraIndex, right: PathAlgebraIndex, field,
                          dim, left_action, right_action, prefix: str,
                          name: str) -> PresentedBimodule:
    """Present a bimodule given by its per-pair dimensions and edge actions.

    One generator ``<prefix>[s->e]#k`` (s and e as reprs, so no two ids
    meet) per basis element k at each pair (s, e); one relation per
    generator and edge, saying that the edge translate of the generator
    equals its action image.  ``dim(s, e)``, ``left_action(a, s, e)`` and
    ``right_action(b, s, e)`` read the bimodule.
    """
    xl, xr = left.x, right.x
    gens: list[BimoduleGenerator] = []
    ids: dict[tuple[str, str], list[str]] = {}
    for s in xl.vertices:
        for e in xr.vertices:
            ids[(s, e)] = [f"{prefix}[{s!r}->{e!r}]#{k}" for k in range(dim(s, e))]
            gens += [BimoduleGenerator(gid, s, e) for gid in ids[(s, e)]]
    one = field.one
    relations: list[list[RelationTerm]] = []

    def relate(p, q, act, gids, target_gids):
        # p . gid . q equals the action image of gid, its column of act
        for gid, col in zip(gids, act.sparse_columns()):
            relations.append([(one, p, gid, q)]
                             + [(-c, (), target_gids[k], ()) for k, c in col.items()])

    for a in xl.edges:
        s2, s = xl.edge_source(a), xl.edge_target(a)
        for e in xr.vertices:
            if ids[(s, e)]:
                relate((a,), (), left_action(a, s, e), ids[(s, e)], ids[(s2, e)])
    for b in xr.edges:
        e, e2 = xr.edge_source(b), xr.edge_target(b)
        for s in xl.vertices:
            if ids[(s, e)]:
                relate((), (b,), right_action(b, s, e), ids[(s, e)], ids[(s, e2)])
    return PresentedBimodule(left, right, gens, relations, field, name)


def re_present(res: ResolvedBimodule, name: str = "") -> PresentedBimodule:
    """A fresh presentation of a resolved bimodule (generators ``g[s->e]#k``).
    Each dimension is read off the quotient basis that the edge actions use,
    so each source is swept once; `dim` would sweep it again."""
    pb = res.pb
    return _present_from_actions(pb.left, pb.right, pb.field,
                                 lambda s, e: len(res.basis_triples(s, e)),
                                 res.left_edge_action, res.right_edge_action, "g", name)


# -- standard presentations ------------------------------------------------------


def unit_bimodule(alg: PathAlgebraIndex, field=QQ) -> PresentedBimodule:
    """The algebra as a bimodule over itself: one generator per vertex,
    with edge translates balanced across the generators."""
    x = alg.x
    gens = [BimoduleGenerator(f"u[{v}]", v, v) for v in x.vertices]
    one = field.one
    relations = []
    for a in x.edges:
        v, w = x.edge_source(a), x.edge_target(a)
        relations.append([(one, (a,), f"u[{w}]", ()), (-one, (), f"u[{v}]", (a,))])
    return PresentedBimodule(alg, alg, gens, relations, field, f"U({x.name})")


def zero_bimodule(alg_left: PathAlgebraIndex, alg_right: PathAlgebraIndex,
                  field=QQ) -> PresentedBimodule:
    return PresentedBimodule(alg_left, alg_right, [], [], field, "0")


def free_bimodule(alg_left: PathAlgebraIndex, alg_right: PathAlgebraIndex,
                  endpoints: Sequence[tuple[str, str]], field=QQ) -> PresentedBimodule:
    gens = [BimoduleGenerator(f"f#{i}[{a}->{b}]", a, b)
            for i, (a, b) in enumerate(endpoints)]
    return PresentedBimodule(alg_left, alg_right, gens, [], field, "free")


def direct_sum(m: PresentedBimodule, n: PresentedBimodule) -> PresentedBimodule:
    if m.left is not n.left or m.right is not n.right:
        raise AlgebraError("direct sum needs matching algebras")
    gens = ([BimoduleGenerator("L." + g.gid, g.src, g.dst) for g in m.generators]
            + [BimoduleGenerator("R." + g.gid, g.src, g.dst) for g in n.generators])
    rels = ([[(c, p, "L." + gid, q) for c, p, gid, q in rel] for rel in m.relations]
            + [[(c, p, "R." + gid, q) for c, p, gid, q in rel] for rel in n.relations])
    return PresentedBimodule(m.left, m.right, gens, rels, m.field,
                             f"({m.name})+({n.name})")


def present_chain_module(x: PrecubicalSet, degree: int, field=QQ,
                         alg: PathAlgebraIndex | None = None) -> PresentedBimodule:
    """The degree-i chain bimodule of X, presented over its path algebra.

    In degree >= 1 it is free on the chains whose first and last cube have
    dimension >= 2 (every chain splits uniquely as edges . core . edges),
    each named by the repr of its cube tuple.
    In degree 0 it is the unit bimodule.
    """
    alg = alg or path_algebra(x)
    if degree == 0:
        pb = unit_bimodule(alg, field)
        return PresentedBimodule(alg, alg, pb.generators, pb.relations, field,
                                 f"C0({x.name})")
    gens = []
    for (i, s, e), chains in sorted(chain_catalog(x).items()):
        if i != degree:
            continue
        for c in chains:
            if c.cubes and c.dims[0] >= 2 and c.dims[-1] >= 2:
                gens.append(BimoduleGenerator(repr(c.cubes), s, e))
    return PresentedBimodule(alg, alg, gens, [], field, f"C{degree}({x.name})")


def present_homology(table, degree: int,
                     alg: PathAlgebraIndex | None = None) -> PresentedBimodule:
    """Present the degree-i homology bimodule of a HomologyTable
    (generators ``h<i>[s->e]#k``)."""
    alg = alg or path_algebra(table.x)
    return _present_from_actions(
        alg, alg, table.field, lambda s, e: table.dim(degree, s, e),
        lambda a, s, e: table.left_action(a, degree, s, e),
        lambda b, s, e: table.right_action(b, degree, s, e),
        f"h{degree}", f"H{degree}({table.x.name})")


def extend_presented(pb: PresentedBimodule, inc: PcMorphism,
                     ambient_alg: PathAlgebraIndex | None = None) -> PresentedBimodule:
    """Extension of scalars along an inclusion, in presentation form.

    Generators and relations survive unchanged (cells keep their ids along an
    inclusion); only the ambient path algebra grows, so the per-pair
    reduction now ranges over ambient paths.  The relations keep their pairs
    checked over Y: `PcMorphism` checked that an inclusion keeps faces.
    """
    if pb.left.x is not inc.source or pb.right.x is not inc.source:
        raise AlgebraError("extension expects a presentation over the inclusion's source")
    if any(inc(cid) != cid for cid in inc.source.all_cells()):
        raise AlgebraError("extension expects an identity-on-cells inclusion")
    ext = copy(pb)
    ext.left = ext.right = ambient_alg or path_algebra(inc.target)
    ext.name = f"ext({pb.name})"
    return ext


# -- the subspace form of extension ------------------------------------------------


class SubcomplexExtension(BasisSubcomplex):
    """The span, inside C(X), of chains factoring through a face-closed Y.

    A basis chain is kept when its cubes split as edge-only prefix, middle
    entirely in Y, edge-only suffix (for degree 0: when the underlying path
    touches a vertex of Y).  Kept chains are closed under the boundary: the
    inclusion is asserted to be a chain map at construction.
    """

    def __init__(self, cx: PairGradedComplex, y_cells: frozenset[str]):
        self.y_cells = y_cells
        super().__init__(cx, {(i, (s, e)): [j for j, c in enumerate(chains)
                                            if self._decomposable(cx.x, c)]
                              for (i, s, e), chains in cx.bases.items()})
        self.check_chain_map(self.inclusion_positions, self, cx)

    def _decomposable(self, x: PrecubicalSet, c: CubeChain) -> bool:
        if not c.cubes:
            return c.src in self.y_cells
        if all(d == 1 for d in c.dims):
            if any(cu in self.y_cells for cu in c.cubes):
                return True
            verts = [c.src] + [x.edge_target(cu) for cu in c.cubes]
            return any(v in self.y_cells for v in verts)
        lo = next(k for k, d in enumerate(c.dims) if d >= 2)
        hi = max(k for k, d in enumerate(c.dims) if d >= 2)
        return all(cu in self.y_cells for cu in c.cubes[lo:hi + 1])


def extend_subcomplex(cx: PairGradedComplex, y_cells: Iterable[str]) -> SubcomplexExtension:
    return SubcomplexExtension(cx, frozenset(y_cells))


# -- horizontal composition ----------------------------------------------------------


def hcompose(m: PresentedBimodule, n: PresentedBimodule) -> PresentedBimodule:
    """Tensor over the shared middle algebra.

    Generators are (g, r, h), named by its repr, with r a middle path from
    dst(g) to src(h); the middle action is balanced by construction of the triple.  Relations of
    both factors are translated into the composite generators.
    """
    if m.right is not n.left:
        raise AlgebraError("middle algebras do not match")
    mid = m.right
    gens = []
    gid_of: dict[tuple[str, tuple, str], str] = {}
    for g in m.generators:
        for h in n.generators:
            for r in mid.between(g.dst, h.src):
                gid = repr((g.gid, r, h.gid))
                gid_of[(g.gid, r, h.gid)] = gid
                gens.append(BimoduleGenerator(gid, g.src, h.dst))
    relations: list[list[RelationTerm]] = []
    for _, re_mid, terms in m._graded_relations:
        for h in n.generators:
            for r in mid.between(re_mid, h.src):
                relations.append([(coeff, p, gid_of[(gid, q + r, h.gid)], ())
                                  for coeff, p, gid, q in terms])
    for rs_mid, _, terms in n._graded_relations:
        for g in m.generators:
            for r in mid.between(g.dst, rs_mid):
                relations.append([(coeff, (), gid_of[(g.gid, r + p, gid)], q)
                                  for coeff, p, gid, q in terms])
    return PresentedBimodule(m.left, n.right, gens, relations, m.field,
                             f"({m.name}).({n.name})")


# -- restriction -----------------------------------------------------------------------


class RestrictedComplex:
    """A pair-graded complex re-indexed along a morphism of precubical sets."""

    def __init__(self, cx: GradedComplex, f: PcMorphism):
        self.cx = cx
        self.f = f
        self.field = cx.field
        self.top_degree = cx.top_degree

    def pairs(self):
        vs = self.f.source.vertices
        return sorted((s, e) for s in vs for e in vs)

    def dim(self, i: int, pair) -> int:
        s, e = pair
        return self.cx.dim(i, (self.f(s), self.f(e)))

    def diff(self, i: int, pair) -> Matrix:
        s, e = pair
        return self.cx.diff(i, (self.f(s), self.f(e)))

    def homology_data(self, i: int, pair) -> tuple:
        s, e = pair
        return self.cx.homology_data(i, (self.f(s), self.f(e)))


class RestrictedTable:
    """A homology table re-indexed along a morphism; actions precomposed."""

    def __init__(self, table, f: PcMorphism):
        self.table = table
        self.f = f
        self.field = table.field

    def dim(self, i: int, s: str, e: str) -> int:
        return self.table.dim(i, self.f(s), self.f(e))

    def left_action(self, a: str, i: int, s: str, e: str) -> Matrix:
        return self.table.left_action(self.f(a), i, self.f(s), self.f(e))

    def right_action(self, a: str, i: int, s: str, e: str) -> Matrix:
        return self.table.right_action(self.f(a), i, self.f(s), self.f(e))


def restrict(obj, f: PcMorphism):
    """Restriction of scalars along a morphism: re-grade by source pairs."""
    if isinstance(obj, GradedComplex):
        return RestrictedComplex(obj, f)
    if isinstance(obj, HomologyTable) or isinstance(obj, RestrictedTable):
        return RestrictedTable(obj, f)
    raise AlgebraError(f"cannot restrict object of type {type(obj).__name__}")


# -- the comparison morphism for tensor products ------------------------------------


class TensorPairMorphism:
    """The algebra map sending a path in X(x)Y to its pure tensor of projections.

    Every generator edge (u, v) has exactly one non-vertex component; its
    image is that component on one side and a trivial path on the other.
    Images multiply by componentwise concatenation.
    """

    def __init__(self, tx: TensorSet):
        self.tx = tx

    def on_edge(self, edge: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
        u, v = self.tx.components(edge)
        if self.tx.left.dim_of(u) == 1 and self.tx.right.dim_of(v) == 0:
            return (u,), ()
        if self.tx.left.dim_of(u) == 0 and self.tx.right.dim_of(v) == 1:
            return (), (v,)
        raise AlgebraError(f"{edge!r} is not an edge of the tensor product")

    def on_path(self, path: Sequence[str]) -> tuple[tuple[str, ...], tuple[str, ...]]:
        px: list[str] = []
        py: list[str] = []
        for e in path:
            ex, ey = self.on_edge(e)
            px.extend(ex)
            py.extend(ey)
        return tuple(px), tuple(py)


def h_morphism(tx: TensorSet) -> TensorPairMorphism:
    return TensorPairMorphism(tx)


# -- smash: bimodule as a one-sided module ---------------------------------------------


class SmashedModule:
    """A homology table re-read as a left module over (left x right-opposite).

    Underlying per-pair spaces are untouched; the action of a pure tensor
    (a, b-op) is left-act by a composed with right-act by b.
    """

    def __init__(self, table):
        self.table = table
        self.field = table.field

    def dim(self, i: int, s: str, e: str) -> int:
        return self.table.dim(i, s, e)

    def total_dim(self, i: int) -> int:
        x = self.table.x
        return sum(self.table.dim(i, s, e) for s in x.vertices for e in x.vertices)

    def act(self, a: str | None, b: str | None, i: int, s: str, e: str) -> Matrix:
        """Action of a (x) b-op on H_i(s, e); either factor may be trivial."""
        m = Matrix.identity(self.field, self.table.dim(i, s, e))
        here_s, here_e = s, e
        if b is not None:
            m = self.table.right_action(b, i, here_s, here_e) @ m
            here_e = self.table.x.edge_target(b)
        if a is not None:
            m = self.table.left_action(a, i, here_s, here_e) @ m
        return m


def smash(obj):
    """A homology table as a `SmashedModule`; a resolved bimodule, with its
    `total_dim`, is itself already one, and a presented one is resolved."""
    if isinstance(obj, HomologyTable):
        return SmashedModule(obj)
    if isinstance(obj, ResolvedBimodule):
        return obj
    if isinstance(obj, PresentedBimodule):
        return obj.resolve()
    raise AlgebraError(f"cannot smash object of type {type(obj).__name__}")

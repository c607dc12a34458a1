"""Finite precubical sets, their morphisms, and the standard constructions.

A precubical set is a graded family of cells with lower and upper face maps
``d_i^0`` and ``d_i^1`` (1-based coordinate index) satisfying, for every cell
of dimension >= 2 and all ``i < j``::

    d_i^e . d_j^h  =  d_{j-1}^h . d_i^e

Construction is permissive: sets that violate the identities or contain
directed cycles can be built and inspected, and `validate` reports every
violation as data.  Acyclicity is only enforced where the chain machinery
needs it (complex building).

Cell identifiers are strings and all constructions generate deterministic
names, so fixtures and reports are stable:

* ``standard_cube(n)`` names cells by words over ``{0,1,*}`` ('*' = free
  coordinate), e.g. ``"0*"`` for the left edge of the square;
* ``directed_disc(n)`` (the n-fold product of the directed segment) uses
  words over ``{0,1,a}``, so its endpoints are ``"00..0"`` and ``"11..1"``;
* ``tensor(x, y)`` names product cells ``"(u,v)"``;
* ``realization(seq)`` prefixes block cells with ``"b<k>."`` and glues
  consecutive corners, keeping the earlier block's vertex name.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence


class PrecubicalError(ValueError):
    """Structural misuse: unknown cells, malformed faces, bad parameters."""


class FormatError(ValueError):
    """Malformed JSON input (distinct from mathematical validation failure)."""


class MorphismError(ValueError):
    """A map of precubical sets that is not a valid morphism."""


@dataclass(frozen=True)
class Violation:
    kind: str          # "identity" | "cycle" | "face"
    cells: tuple[str, ...]
    detail: str

    def __str__(self) -> str:
        return f"{self.kind} [{', '.join(self.cells)}]: {self.detail}"


class PrecubicalSet:
    """A finite precubical set with string cell ids, immutable once built."""

    def __init__(self, name: str,
                 cells: Sequence[Sequence[str]],
                 faces: Mapping[str, tuple[Sequence[str], Sequence[str]]]):
        cells = tuple(tuple(layer) for layer in cells)
        while cells and not cells[-1]:
            cells = cells[:-1]
        dim_of: dict[str, int] = {}
        for n, layer in enumerate(cells):
            for cid in layer:
                if cid in dim_of:
                    raise PrecubicalError(f"duplicate cell id {cid!r}")
                dim_of[cid] = n
        norm_faces: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {}
        for cid, (d0, d1) in faces.items():
            if cid not in dim_of:
                raise PrecubicalError(f"faces given for unknown cell {cid!r}")
            n = dim_of[cid]
            d0, d1 = tuple(d0), tuple(d1)
            if len(d0) != n or len(d1) != n:
                raise PrecubicalError(
                    f"cell {cid!r} of dimension {n} needs {n} faces per sign, "
                    f"got {len(d0)}/{len(d1)}")
            for f in d0 + d1:
                if dim_of.get(f) != n - 1:
                    raise PrecubicalError(
                        f"face {f!r} of {cid!r} is not a cell of dimension {n - 1}")
            norm_faces[cid] = (d0, d1)
        for cid, n in dim_of.items():
            if n >= 1 and cid not in norm_faces:
                raise PrecubicalError(f"cell {cid!r} of dimension {n} has no faces")
        self.name = name
        self.cells = cells
        self.faces = norm_faces
        self._dim_of = dim_of

    # -- basic accessors -------------------------------------------------

    @property
    def max_dim(self) -> int:
        return len(self.cells) - 1

    def cells_of_dim(self, n: int) -> tuple[str, ...]:
        if 0 <= n < len(self.cells):
            return self.cells[n]
        return ()

    @property
    def vertices(self) -> tuple[str, ...]:
        return self.cells_of_dim(0)

    @property
    def edges(self) -> tuple[str, ...]:
        return self.cells_of_dim(1)

    def dim_of(self, cid: str) -> int:
        try:
            return self._dim_of[cid]
        except KeyError:
            raise PrecubicalError(f"unknown cell {cid!r}") from None

    def has_cell(self, cid: str) -> bool:
        return cid in self._dim_of

    def cell_count(self) -> tuple[int, ...]:
        return tuple(len(layer) for layer in self.cells)

    def all_cells(self) -> list[str]:
        return [cid for layer in self.cells for cid in layer]

    def face(self, cid: str, i: int, eps: int) -> str:
        """The face d_i^eps of a cell, with 1-based coordinate index i."""
        n = self.dim_of(cid)
        if not 1 <= i <= n:
            raise PrecubicalError(f"face index {i} out of range for {cid!r} (dim {n})")
        if eps not in (0, 1):
            raise PrecubicalError(f"face sign must be 0 or 1, got {eps}")
        return self.faces[cid][eps][i - 1]

    def initial_vertex(self, cid: str) -> str:
        """Iterated lower face: the corner with all coordinates at 0."""
        while self.dim_of(cid) > 0:
            cid = self.face(cid, 1, 0)
        return cid

    def final_vertex(self, cid: str) -> str:
        while self.dim_of(cid) > 0:
            cid = self.face(cid, 1, 1)
        return cid

    def edge_source(self, e: str) -> str:
        return self.face(e, 1, 0)

    def edge_target(self, e: str) -> str:
        return self.face(e, 1, 1)

    # -- the vertex-edge digraph ------------------------------------------

    def out_edges(self) -> dict[str, list[str]]:
        return self._edges_at(self.edge_source)

    def in_edges(self) -> dict[str, list[str]]:
        return self._edges_at(self.edge_target)

    def _edges_at(self, end) -> dict[str, list[str]]:
        """The sorted edges at each vertex v with ``end(edge) == v``."""
        at: dict[str, list[str]] = {v: [] for v in self.vertices}
        for e in sorted(self.edges):
            at[end(e)].append(e)
        return at

    def topological_order(self) -> list[str] | None:
        """Vertices in a topological order of the edge digraph, or None."""
        indeg = {v: 0 for v in self.vertices}
        for e in self.edges:
            indeg[self.edge_target(e)] += 1
        ready = sorted(v for v, d in indeg.items() if d == 0)
        out = self.out_edges()
        order = []
        while ready:
            v = ready.pop(0)
            order.append(v)
            added = []
            for e in out[v]:
                w = self.edge_target(e)
                indeg[w] -= 1
                if indeg[w] == 0:
                    added.append(w)
            if added:
                ready = sorted(ready + added)
        if len(order) != len(self.vertices):
            return None
        return order

    def is_acyclic(self) -> bool:
        return self.topological_order() is not None

    def source_vertices(self) -> list[str]:
        indeg = {v: 0 for v in self.vertices}
        for e in self.edges:
            indeg[self.edge_target(e)] += 1
        return sorted(v for v, d in indeg.items() if d == 0)

    def sink_vertices(self) -> list[str]:
        outdeg = {v: 0 for v in self.vertices}
        for e in self.edges:
            outdeg[self.edge_source(e)] += 1
        return sorted(v for v, d in outdeg.items() if d == 0)

    # -- validation --------------------------------------------------------

    def validate(self) -> list[Violation]:
        """All violated precubical identities and directed cycles, as data."""
        out: list[Violation] = []
        faces = self.faces      # complete and of the right arity, by __init__
        for n in range(2, len(self.cells)):
            for c in self.cells[n]:
                for j in range(2, n + 1):
                    for i in range(1, j):
                        for eps in (0, 1):
                            for eta in (0, 1):
                                left = faces[faces[c][eta][j - 1]][eps][i - 1]
                                right = faces[faces[c][eps][i - 1]][eta][j - 2]
                                if left != right:
                                    out.append(Violation(
                                        "identity", (c,),
                                        f"d_{i}^{eps} d_{j}^{eta} = {left!r} but "
                                        f"d_{j - 1}^{eta} d_{i}^{eps} = {right!r}"))
        if self.topological_order() is None:
            out.append(Violation("cycle", (), "vertex-edge digraph has a directed cycle"))
        return out

    # -- JSON --------------------------------------------------------------

    def to_dict(self) -> dict:
        faces = {}
        for layer in self.cells[1:]:
            for cid in layer:
                d0, d1 = self.faces[cid]
                faces[cid] = {"d0": list(d0), "d1": list(d1)}
        return {
            "name": self.name,
            "cells": {str(n): list(layer) for n, layer in enumerate(self.cells)},
            "faces": faces,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=False) + "\n"

    def __repr__(self) -> str:
        counts = "/".join(str(c) for c in self.cell_count())
        return f"PrecubicalSet({self.name!r}, cells {counts or '0'})"


def from_dict(doc: dict) -> PrecubicalSet:
    """Strict parser for the JSON precubical format; unknown keys rejected."""
    if not isinstance(doc, dict):
        raise FormatError("top level must be an object")
    extra = set(doc) - {"name", "cells", "faces"}
    if extra:
        raise FormatError(f"unknown top-level keys: {sorted(extra)}")
    for key in ("name", "cells", "faces"):
        if key not in doc:
            raise FormatError(f"missing key {key!r}")
    if not isinstance(doc["name"], str):
        raise FormatError("name must be a string")
    if not isinstance(doc["cells"], dict) or not isinstance(doc["faces"], dict):
        raise FormatError("cells and faces must be objects")
    dims = []
    for k in doc["cells"]:
        try:
            dims.append(int(k))
        except ValueError:
            raise FormatError(f"cell dimension key {k!r} is not an integer") from None
        if str(dims[-1]) != k:
            raise FormatError(f"cell dimension key {k!r} is not written as {str(dims[-1])!r}")
    if sorted(dims) != list(range(len(dims))):
        raise FormatError("cell dimensions must be consecutive from 0")
    layers = []
    for n in range(len(dims)):
        layer = doc["cells"][str(n)]
        if not isinstance(layer, list) or not all(isinstance(c, str) for c in layer):
            raise FormatError(f"cells[{n}] must be a list of strings")
        layers.append(layer)
    known = {cid for layer in layers for cid in layer}
    faces = {}
    for cid, spec in doc["faces"].items():
        if cid not in known:
            raise FormatError(f"faces given for unknown cell {cid!r}")
        if not isinstance(spec, dict) or set(spec) != {"d0", "d1"}:
            raise FormatError(f"faces[{cid!r}] must have exactly the keys d0, d1")
        d0, d1 = spec["d0"], spec["d1"]
        if not (isinstance(d0, list) and isinstance(d1, list)):
            raise FormatError(f"faces[{cid!r}] entries must be lists")
        if not all(isinstance(f, str) for f in d0 + d1):
            raise FormatError(f"faces[{cid!r}] must list cell ids, which are strings")
        faces[cid] = (d0, d1)
    try:
        return PrecubicalSet(doc["name"], layers, faces)
    except PrecubicalError as exc:
        raise FormatError(str(exc)) from exc


def from_json(text: str) -> PrecubicalSet:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}") from exc
    return from_dict(doc)


def load(path) -> PrecubicalSet:
    with open(path, "r", encoding="utf-8") as fh:
        return from_json(fh.read())


def save(x: PrecubicalSet, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(x.to_json())


# -- standard constructions ------------------------------------------------


def _cube_words(n: int, free: str) -> tuple[list[list[str]], dict]:
    """Cells of the standard n-cube as words over {0,1,<free>}."""
    layers: list[list[str]] = [[] for _ in range(n + 1)]
    faces = {}
    for code in range(3 ** n):
        word = []
        c = code
        for _ in range(n):
            word.append("01"[c % 3] if c % 3 < 2 else free)
            c //= 3
        word = "".join(word)
        k = word.count(free)
        layers[k].append(word)
        if k >= 1:
            positions = [p for p, ch in enumerate(word) if ch == free]
            d0 = [word[:p] + "0" + word[p + 1:] for p in positions]
            d1 = [word[:p] + "1" + word[p + 1:] for p in positions]
            faces[word] = (d0, d1)
    for layer in layers:
        layer.sort()
    return layers, faces


def standard_cube(n: int) -> PrecubicalSet:
    """The standard n-cube; k-cells are the k-dimensional faces."""
    if n < 0:
        raise PrecubicalError("cube dimension must be >= 0")
    if n == 0:
        return PrecubicalSet("C0", [["v"]], {})
    layers, faces = _cube_words(n, "*")
    return PrecubicalSet(f"C{n}", layers, faces)


def segment() -> PrecubicalSet:
    """The directed segment: vertices 0, 1 and one edge a from 0 to 1."""
    return PrecubicalSet("K", [["0", "1"], ["a"]], {"a": (["0"], ["1"])})


def directed_disc(n: int) -> PrecubicalSet:
    """The directed n-disc: the n-fold tensor power of the segment.

    Isomorphic to the standard n-cube; cells are words over {0,1,a} so the
    endpoints read "00..0" and "11..1".
    """
    if n < 1:
        raise PrecubicalError("disc dimension must be >= 1")
    layers, faces = _cube_words(n, "a")
    return PrecubicalSet(f"D{n}", layers, faces)


def directed_sphere(n: int) -> PrecubicalSet:
    """The directed n-sphere: the (n+1)-disc with its top cell removed."""
    if n < 0:
        raise PrecubicalError("sphere dimension must be >= 0")
    disc = directed_disc(n + 1)
    top = "a" * (n + 1)
    layers = [list(layer) for layer in disc.cells]
    layers[-1] = [c for c in layers[-1] if c != top]
    faces = {c: disc.faces[c] for c in disc.faces if c != top}
    return PrecubicalSet(f"S{n}", layers, faces)


class Realization(PrecubicalSet):
    """A wedge of cubes glued end to end, with distinguished endpoints."""

    def __init__(self, name, cells, faces, start: str, end: str, sequence: tuple[int, ...]):
        super().__init__(name, cells, faces)
        self.start = start
        self.end = end
        self.sequence = sequence


def realization(seq: Sequence[int]) -> Realization:
    """Glue cubes C^{n_1}..C^{n_l} final-vertex-to-initial-vertex.

    The empty sequence realizes the point.  The chain dimension of the
    result is sum(n_k - 1).
    """
    seq = tuple(int(n) for n in seq)
    if any(n < 1 for n in seq):
        raise PrecubicalError("realization entries must be >= 1")
    name = "real(" + ",".join(str(n) for n in seq) + ")"
    if not seq:
        return Realization(name, [["pt"]], {}, "pt", "pt", seq)
    rename: dict[str, str] = {}
    layers: list[list[str]] = []
    faces: dict[str, tuple[list[str], list[str]]] = {}
    prev_final = None
    for k, n in enumerate(seq, start=1):
        block_layers, block_faces = _cube_words(n, "*")
        tag = lambda w: f"b{k}.{w}"
        initial, final = tag("0" * n), tag("1" * n)
        if prev_final is not None:
            rename[initial] = prev_final
        prev_final = final
        look = lambda w: rename.get(tag(w), tag(w))
        while len(layers) <= n:
            layers.append([])
        for dim, layer in enumerate(block_layers):
            for w in layer:
                if tag(w) in rename:
                    continue
                layers[dim].append(tag(w))
        for w, (d0, d1) in block_faces.items():
            faces[tag(w)] = ([look(v) for v in d0], [look(v) for v in d1])
    start = f"b1." + "0" * seq[0]
    end = f"b{len(seq)}." + "1" * seq[-1]
    return Realization(name, layers, faces, rename.get(start, start), end, seq)


class TensorSet(PrecubicalSet):
    """Tensor product of two precubical sets, keeping the pair structure."""

    def __init__(self, name, cells, faces, left: PrecubicalSet, right: PrecubicalSet,
                 fst: dict[str, str], snd: dict[str, str]):
        super().__init__(name, cells, faces)
        self.left = left
        self.right = right
        self.fst = fst
        self.snd = snd

    def pair_id(self, u: str, v: str) -> str:
        return f"({u},{v})"

    def components(self, cid: str) -> tuple[str, str]:
        return self.fst[cid], self.snd[cid]


def tensor(x: PrecubicalSet, y: PrecubicalSet) -> TensorSet:
    """The tensor product: n-cells are pairs (u, v) with dim u + dim v = n."""
    max_n = x.max_dim + y.max_dim
    layers: list[list[str]] = [[] for _ in range(max_n + 1)]
    faces: dict[str, tuple[list[str], list[str]]] = {}
    fst: dict[str, str] = {}
    snd: dict[str, str] = {}
    pid = lambda u, v: f"({u},{v})"
    for p in range(x.max_dim + 1):
        for q in range(y.max_dim + 1):
            for u in x.cells_of_dim(p):
                for v in y.cells_of_dim(q):
                    cid = pid(u, v)
                    layers[p + q].append(cid)
                    fst[cid], snd[cid] = u, v
                    if p + q >= 1:
                        d0, d1 = [], []
                        for i in range(1, p + 1):
                            d0.append(pid(x.face(u, i, 0), v))
                            d1.append(pid(x.face(u, i, 1), v))
                        for i in range(1, q + 1):
                            d0.append(pid(u, y.face(v, i, 0)))
                            d1.append(pid(u, y.face(v, i, 1)))
                        faces[cid] = (d0, d1)
    for layer in layers:
        layer.sort()
    return TensorSet(f"({x.name}(x){y.name})", layers, faces, x, y, fst, snd)


# -- sub-precubical sets -----------------------------------------------------


@dataclass(frozen=True)
class SubsetSpec:
    """A face-closed selection of cells of a parent precubical set."""

    parent: PrecubicalSet
    selected: frozenset[str]

    def missing_faces(self) -> list[tuple[str, str]]:
        """Pairs (cell, face) whose face is not selected."""
        bad = []
        for cid in self.selected:
            if not self.parent.has_cell(cid):
                raise PrecubicalError(f"selected cell {cid!r} not in parent")
            n = self.parent.dim_of(cid)
            for i in range(1, n + 1):
                for eps in (0, 1):
                    f = self.parent.face(cid, i, eps)
                    if f not in self.selected:
                        bad.append((cid, f))
        return sorted(bad)

    def is_face_closed(self) -> bool:
        return not self.missing_faces()


def face_closure(parent: PrecubicalSet, ids: Iterable[str]) -> frozenset[str]:
    """The smallest face-closed selection containing the given cells."""
    todo = list(ids)
    seen: set[str] = set()
    while todo:
        cid = todo.pop()
        if cid in seen:
            continue
        if not parent.has_cell(cid):
            raise PrecubicalError(f"unknown cell {cid!r}")
        seen.add(cid)
        n = parent.dim_of(cid)
        for i in range(1, n + 1):
            for eps in (0, 1):
                todo.append(parent.face(cid, i, eps))
    return frozenset(seen)


def sub(parent: PrecubicalSet, spec: SubsetSpec) -> tuple[PrecubicalSet, "PcMorphism"]:
    """The sub-precubical set on a face-closed selection, with its inclusion."""
    if spec.parent is not parent:
        raise PrecubicalError("spec does not belong to this parent")
    missing = spec.missing_faces()
    if missing:
        raise PrecubicalError(f"selection not face-closed, e.g. {missing[0]}")
    layers = [[c for c in layer if c in spec.selected] for layer in parent.cells]
    faces = {c: parent.faces[c] for c in parent.faces if c in spec.selected}
    child = PrecubicalSet(f"{parent.name}|sub", layers, faces)
    inc = PcMorphism(child, parent, {c: c for c in child.all_cells()})
    return child, inc


# -- morphisms ---------------------------------------------------------------


class PcMorphism:
    """A morphism of precubical sets, injective on vertices (validated)."""

    def __init__(self, source: PrecubicalSet, target: PrecubicalSet,
                 mapping: Mapping[str, str]):
        self.source = source
        self.target = target
        self.mapping = dict(mapping)
        for cid in source.all_cells():
            if cid not in self.mapping:
                raise MorphismError(f"no image for cell {cid!r}")
            img = self.mapping[cid]
            if not target.has_cell(img):
                raise MorphismError(f"image {img!r} of {cid!r} not in target")
            if target.dim_of(img) != source.dim_of(cid):
                raise MorphismError(f"image of {cid!r} has wrong dimension")
        for cid in source.all_cells():
            n = source.dim_of(cid)
            for i in range(1, n + 1):
                for eps in (0, 1):
                    if self.mapping[source.face(cid, i, eps)] != \
                            target.face(self.mapping[cid], i, eps):
                        raise MorphismError(
                            f"map does not commute with d_{i}^{eps} at {cid!r}")
        images = [self.mapping[v] for v in source.vertices]
        if len(set(images)) != len(images):
            raise MorphismError("map is not injective on vertices")

    def __call__(self, cid: str) -> str:
        return self.mapping[cid]

    @classmethod
    def identity(cls, x: PrecubicalSet) -> "PcMorphism":
        return cls(x, x, {c: c for c in x.all_cells()})

    def __repr__(self) -> str:
        return f"PcMorphism({self.source.name} -> {self.target.name})"


def compose(f: PcMorphism, g: PcMorphism) -> PcMorphism:
    """The composite f . g (g first); endpoints must match."""
    if g.target is not f.source:
        raise MorphismError("target of g is not the source of f")
    return PcMorphism(g.source, f.target,
                      {c: f(g(c)) for c in g.source.all_cells()})


def tensor_morphism(f: PcMorphism, g: PcMorphism,
                    src: TensorSet, dst: TensorSet) -> PcMorphism:
    """The product morphism (u,v) -> (f u, g v) between given tensor sets."""
    if src.left is not f.source or src.right is not g.source:
        raise MorphismError("source tensor set does not match the factors")
    if dst.left is not f.target or dst.right is not g.target:
        raise MorphismError("target tensor set does not match the factors")
    mapping = {}
    for cid in src.all_cells():
        u, v = src.components(cid)
        mapping[cid] = dst.pair_id(f(u), g(v))
    return PcMorphism(src, dst, mapping)

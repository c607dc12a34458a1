"""Every computing verb on mutated documents and random subset specs.

Whatever the input, the field name and the cell ids included, a verb exits
with 0, 1 or 2 and never lets an exception other than SystemExit escape: no
input may print a traceback, and exit 3 is kept for a failed theorem-backed
check.
"""

import json

import pytest
from click.testing import CliRunner
from hypothesis import assume, given, settings, strategies as st

import dirhom as dh
from dirhom.cli import main
from dirhom.cubechain import chain_catalog

# realization([2, 2]) has a core chain of two squares, realization([2, 2, 2])
# two core chains in one degree
BASES = {"K": dh.segment(), "D2": dh.directed_disc(2), "S1": dh.directed_sphere(1),
         "R21": dh.realization([2, 1]), "R22": dh.realization([2, 2]),
         "R222": dh.realization([2, 2, 2])}
JUNK = [None, 5, "x", [], {}, [5]]
# pieces of renamed cell ids: the separators that generator ids and product
# cell names are joined with, and one letter
ID_PIECES = ["a", ",", "(", ")", "|", "->", "[", "]", "#", "."]
# the separators that join two ids already drawn into a new one, as
# generator ids and product cell names join cell ids
JOINS = ["->", "|", ","]


def cell_ids(doc) -> list[str]:
    return sorted({c for layer in doc["cells"].values() for c in layer})


def rename(data, doc: dict) -> None:
    """Rename every cell id injectively: into a string of up to three
    ID_PIECES, or into two ids already drawn joined by one of JOINS, with
    dots appended until the id is new.  Half the time the two ids joined are
    drawn among the new vertex ids only, as generator ids join vertex ids."""
    ids = cell_ids(doc)
    vertices = set(doc["cells"].get("0", []))
    fresh = st.lists(st.sampled_from(ID_PIECES), min_size=1, max_size=3).map("".join)
    new: list[str] = []
    new_vertices: list[str] = []
    for old in ids:
        if new and data.draw(st.booleans(), label="join"):
            among = (new_vertices if new_vertices and data.draw(st.booleans(), label="vertices")
                     else new)
            pick = st.sampled_from(among)
            name = data.draw(pick) + data.draw(st.sampled_from(JOINS)) + data.draw(pick)
        else:
            name = data.draw(fresh, label="fresh id")
        while name in new:
            name += "."
        new.append(name)
        if old in vertices:
            new_vertices.append(name)
    to = dict(zip(ids, new))
    doc["cells"] = {dim: [to[c] for c in layer] for dim, layer in doc["cells"].items()}
    doc["faces"] = {to[c]: {side: [to[f] for f in faces] for side, faces in spec.items()}
                    for c, spec in doc["faces"].items()}


def mutate(data, doc: dict) -> None:
    """Up to three edits of faces and cells, then maybe one value of a wrong type."""
    cells, faces = doc["cells"], doc["faces"]
    for _ in range(data.draw(st.integers(0, 3), label="edits")):
        ids = cell_ids(doc) + ["zz"]
        kind = data.draw(st.sampled_from(["face", "swap", "drop", "edge", "move"]))
        if kind in ("face", "swap") and faces:
            spec = faces[data.draw(st.sampled_from(sorted(faces)))]
            if kind == "swap":
                spec["d0"], spec["d1"] = spec["d1"], spec["d0"]
            elif spec["d0"]:
                side = spec[data.draw(st.sampled_from(["d0", "d1"]))]
                side[data.draw(st.integers(0, len(side) - 1))] = data.draw(st.sampled_from(ids))
        elif kind == "edge":
            n = len(faces)
            cells.setdefault("1", []).append(f"new{n}")
            faces[f"new{n}"] = {"d0": [data.draw(st.sampled_from(ids))],
                                "d1": [data.draw(st.sampled_from(ids))]}
        elif kind in ("drop", "move"):
            dim = data.draw(st.sampled_from(sorted(k for k in cells if cells[k])))
            cid = data.draw(st.sampled_from(cells[dim]))
            cells[dim].remove(cid)
            if kind == "move":
                cells[data.draw(st.sampled_from(sorted(cells)))].append(cid)
            elif data.draw(st.booleans()):
                faces.pop(cid, None)
    if data.draw(st.integers(0, 5)) == 0:
        owner = data.draw(st.sampled_from([doc, cells, faces]))
        if owner:
            owner[data.draw(st.sampled_from(sorted(owner)))] = data.draw(st.sampled_from(JUNK))


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    paths = {name: str(d / f"{name}.json") for name in ("x", "k", "a", "b")}
    dh.save(dh.segment(), paths["k"])
    return paths


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_verbs_exit_0_1_or_2_without_a_traceback(files, data):
    doc = BASES[data.draw(st.sampled_from(sorted(BASES)), label="base")].to_dict()
    if data.draw(st.booleans(), label="rename"):
        rename(data, doc)
    mutate(data, doc)
    with open(files["x"], "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    try:
        ids = cell_ids(doc)
    except (AttributeError, TypeError):
        ids = []
    specs = st.one_of(st.lists(st.sampled_from(ids + ["zz"]), max_size=6),
                      st.sampled_from(JUNK))
    a = data.draw(specs, label="subset a")
    # the cells outside a, whose face closure covers X together with a
    rest = [c for c in ids if not isinstance(a, list) or c not in a]
    b = data.draw(st.one_of(specs, st.just(rest)), label="subset b")
    for name, spec in (("a", a), ("b", b)):
        with open(files[name], "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
    # a field name that parses, one that is no prime, and moduli of at most
    # four characters of any kind
    field = data.draw(st.one_of(st.sampled_from(["q", "fp:2", "fp:7", "fp:12", "r64"]),
                                st.text(max_size=4).map("fp:".__add__)), label="field")
    opts = ["--format", data.draw(st.sampled_from(["text", "json", "csv"])), "--field", field]
    pair = ",".join(data.draw(st.lists(st.sampled_from(ids + ["zz"]), min_size=2,
                                       max_size=2)))
    x, y1, y2 = files["x"], files["a"], files["b"]
    factor = data.draw(st.sampled_from([files["k"], x]), label="second factor")
    for args in (["validate", x], ["homology", x, *opts, "--pair", pair],
                 ["cohomology", x, *opts], ["check-pair", x, y1, *opts],
                 ["relative", x, y1, *opts, "--force"], ["relative", x, y1, "--strict"],
                 ["mv", x, y1, y2, *opts], ["kunneth", x, factor, *opts]):
        r = CliRunner().invoke(main, args)
        assert r.exception is None or isinstance(r.exception, SystemExit), (args, r.exc_info)
        assert r.exit_code in (0, 1, 2), (args, r.output)


# pieces of vertex names that join into one another: the separators of
# generator ids, brackets and quotes
CLASH_PIECES = ["a", "b", "->", "]#", "[", "'", '"']


@st.composite
def clashing_names(draw) -> dict:
    """realization([2, 2]) with its vertices renamed: for two pairs joined by
    paths, (u, w) and (u2, w2), the names p, q->r and p->q, r of drawn
    pieces, so that u->w and u2->w2 spell one string; the other vertices get
    names of pieces too."""
    x = BASES["R22"]
    paths = sorted((s, e) for i, s, e in chain_catalog(x) if i == 0 and s != e)
    (u, w), (u2, w2) = draw(st.lists(st.sampled_from(paths), min_size=2, max_size=2).filter(
        lambda two: len({*two[0], *two[1]}) == 4))
    piece = st.lists(st.sampled_from(CLASH_PIECES), min_size=1, max_size=2).map("".join)
    p, q, r = (draw(piece) for _ in range(3))
    to = {u: p, w: f"{q}->{r}", u2: f"{p}->{q}", w2: r}
    assume(len(set(to.values())) == 4)
    for v in sorted(set(x.vertices) - set(to)):
        name = draw(piece)
        while name in to.values():
            name += "."
        to[v] = name
    return to


@settings(max_examples=40, deadline=None)
@given(to=clashing_names(), data=st.data())
def test_vertex_names_that_join_alike_keep_generator_ids_apart(files, to, data):
    from dirhom.scalars import present_chain_module, present_homology

    x = BASES["R22"]
    y = dh.PrecubicalSet(x.name, [[to.get(c, c) for c in layer] for layer in x.cells], {
        c: ([to.get(f, f) for f in d0], [to.get(f, f) for f in d1])
        for c, (d0, d1) in x.faces.items()})
    present_homology(dh.HomologyTable(dh.build_complex(y), y), 0)
    for i in range(3):
        present_chain_module(y, i)
    picked = data.draw(st.lists(st.sampled_from(x.all_cells()), min_size=1, max_size=4))
    cells = sorted(dh.face_closure(x, picked))
    verdicts = []
    for z, ids in ((x, cells), (y, [to.get(c, c) for c in cells])):
        dh.save(z, files["x"])
        with open(files["a"], "w", encoding="utf-8") as fh:
            json.dump(ids, fh)
        r = CliRunner().invoke(main, ["check-pair", files["x"], files["a"], "--format", "json"])
        doc = json.loads(r.output)
        verdicts.append((r.exit_code, doc["accepted"], doc["enter_exit_once"], doc["monic"],
                         len(doc["monic_failures"]), len(doc["offending_path"])))
    assert verdicts[0] == verdicts[1]

"""Every computing verb on mutated documents and random subset specs.

Whatever the input, the field name and the cell ids included, a verb exits
with 0, 1 or 2 and never lets an exception other than SystemExit escape: no
input may print a traceback, and exit 3 is kept for a failed theorem-backed
check.
"""

import json

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import dirhom as dh
from dirhom.cli import main

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

"""The CLI's stdout on a fixed set of runs, compared byte for byte.

`cli_reference.json` maps each run's argument list (joined by spaces, with
input names in place of file paths) to its exit code and stdout.  Changes
to the linear-algebra kernel, to pivot choice or to how representatives
are picked must leave every byte of these outputs unchanged.

To record the runs that have no entry yet, run
``PYTHONPATH=src python tests/test_cli_reference.py``: it adds the missing
entries and leaves every recorded one as it is, so a change meant to alter
an output deletes that entry first.
"""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

import dirhom as dh
from dirhom.cli import main

from conftest import make_domino

REFERENCE = Path(__file__).resolve().parent / "cli_reference.json"

RUNS = [
    *(f"homology --actions --format json --field {field} {name}"
      for field in ("q", "fp:7") for name in ("D2", "S1", "D3", "domino")),
    *(f"relative --format {fmt} D3 D3/S2" for fmt in ("text", "json")),
    *(f"mv --format {fmt} domino domino/left domino/right" for fmt in ("text", "json")),
    *(f"kunneth --format {fmt} S1 S1" for fmt in ("text", "json")),
    # the separating map on squares inside one factor
    "kunneth --format json D2 S1",
    # squares in both factors, which the separating map's Koszul signs need
    # (recorded again, exit 0, when those signs were added: before them
    # the comparison failed here with exit 3)
    "kunneth --format text D2 D2",
    # exit 1: excision fails, so the cover of the grid is not good
    "mv --format json grid3 grid3/left grid3/right",
    # quotients and relation reductions over a prime field
    "relative --format json --field fp:7 D3 D3/S2",
    "relative --format json --field fp:7 D4 D4/S3",
    "mv --format json --field fp:7 domino domino/left domino/right",
    "kunneth --format json --field fp:7 D2 S1",
    # connecting and excision maps with two or more nonzero columns
    *(f"mv --format json --field {field} strip4 strip4/left strip4/right"
      for field in ("q", "fp:7")),
    "relative --format json D4 D4/S3",
    # the relation reduction over a larger prime, and excision failing
    # over a prime field
    "relative --format text --field fp:1009 D4 D4/S3",
    "mv --format json --field fp:7 grid3 grid3/left grid3/right",
    # the heaviest homology inputs over Q
    *(f"homology --actions --format json --field q {name}"
      for name in ("D4", "S3", "real33")),
    # the same over prime fields; in characteristic 2, -1 = 1
    *(f"homology --actions --format json --field fp:7 {name}" for name in ("S3", "real33")),
    "homology --actions --format json --field fp:2 S3",
    *(f"cohomology --format json --field {field} D3" for field in ("q", "fp:7")),
    # one vertex pair, every entry listed even when zero
    *(f"{verb} --format {fmt} --pair 00,11 {name}"
      for verb in ("homology", "cohomology") for fmt in ("text", "csv")
      for name in ("D2", "S1")),
    # an accepted and a rejected pair
    *(f"check-pair --format {fmt} {name}"
      for fmt in ("text", "json", "csv") for name in ("D3 D3/S2", "S1 S1/ends")),
    # exit 1 without --force; with it, the quotient dims and no sequence
    *(f"relative --format {fmt}{force} S1 S1/ends"
      for fmt in ("text", "json", "csv") for force in ("", " --force")),
    *(f"kunneth --prop63 --format {fmt} D2 S1" for fmt in ("text", "json", "csv")),
    # the action listing cut at a degree below the top, and in text form
    "homology --actions --format json --max-degree 1 --field q D4",
    "homology --actions --format text --field fp:7 real33",
    # the benchmark's own homology shapes, over a large prime and over Q
    "homology --actions --format json --field fp:1009 real222",
    "homology --actions --format json --field q real2222",
    # the sequences and the comparison maps in characteristic 2, where a
    # negated basis element is the identity
    "mv --format json --field fp:2 strip4 strip4/left strip4/right",
    "relative --format json --field fp:2 D4 D4/S3",
    "kunneth --format json --field fp:2 D2 S1",
    # good covers whose Mayer-Vietoris connecting map has a nonzero domain:
    # one top cell of a sphere against the face closure of the others
    *(f"mv --format json --field {field} S2 S2/0aa S2/rest" for field in ("q", "fp:7", "fp:2")),
    "mv --format json S3 S3/0aaa S3/rest",
]


def columns(tx, x, lo, hi):
    """Face closure of the squares whose first factor is edge lo..hi-1."""
    first = tx.left.edges
    return sorted(dh.face_closure(x, [c for c in x.cells_of_dim(2)
                                      if first.index(tx.components(c)[0]) in range(lo, hi)]))


def make_grid3():
    """A 3 x 3 grid of squares, the tensor square of a path of 3 edges,
    with the face closures of its column 0 and of its columns 1-2."""
    path = dh.realization([1] * 3)
    tx = dh.tensor(path, path)
    x = dh.PrecubicalSet("grid3", tx.cells, tx.faces)
    return x, columns(tx, x, 0, 1), columns(tx, x, 1, 3)


def make_strip4():
    """A 1 x 4 strip of squares, a path of 4 edges times the segment, with
    the face closures of its squares 0-1 and of its squares 2-3."""
    tx = dh.tensor(dh.realization([1] * 4), dh.segment())
    x = dh.PrecubicalSet("strip4", tx.cells, tx.faces)
    return x, columns(tx, x, 0, 2), columns(tx, x, 2, 4)


def split_top_cell(x, cell):
    """The face closure of one top cell of x and that of all the others."""
    return (sorted(dh.face_closure(x, [cell])),
            sorted(dh.face_closure(x, [c for c in x.cells_of_dim(x.max_dim) if c != cell])))


def write_inputs(directory: Path) -> dict[str, str]:
    """The sets and subset specs the runs name, as files in `directory`."""
    files = {}
    grid, grid_left, grid_right = make_grid3()
    strip, strip_left, strip_right = make_strip4()
    s2, s3 = dh.directed_sphere(2), dh.directed_sphere(3)
    for name, x in [("D2", dh.directed_disc(2)), ("S1", dh.directed_sphere(1)),
                    ("D3", dh.directed_disc(3)), ("D4", dh.directed_disc(4)),
                    ("S2", s2), ("S3", s3), ("real33", dh.realization([3, 3])),
                    ("real222", dh.realization([2, 2, 2])),
                    ("real2222", dh.realization([2, 2, 2, 2])),
                    ("domino", make_domino()),
                    ("grid3", grid), ("strip4", strip)]:
        files[name] = str(directory / f"{name}.json")
        dh.save(x, files[name])
    dom = make_domino()
    subsets = {"D3/S2": sorted(dh.directed_sphere(2).all_cells()),
               "D4/S3": sorted(dh.directed_sphere(3).all_cells()),
               "S1/ends": ["00", "11"],
               "domino/left": sorted(dh.face_closure(dom, ["s1"])),
               "domino/right": sorted(dh.face_closure(dom, ["s2"])),
               "grid3/left": grid_left, "grid3/right": grid_right,
               "strip4/left": strip_left, "strip4/right": strip_right}
    subsets["S2/0aa"], subsets["S2/rest"] = split_top_cell(s2, "0aa")
    subsets["S3/0aaa"], subsets["S3/rest"] = split_top_cell(s3, "0aaa")
    for name, cells in subsets.items():
        files[name] = str(directory / (name.replace("/", "_") + ".json"))
        Path(files[name]).write_text(json.dumps(cells))
    return files


def run(run_id: str, files: dict[str, str]) -> dict:
    args = [files.get(a, a) for a in run_id.split()]
    result = CliRunner().invoke(main, args, catch_exceptions=False)
    return {"exit_code": result.exit_code, "stdout": result.stdout}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    return write_inputs(tmp_path_factory.mktemp("cli_reference"))


@pytest.fixture(scope="module")
def reference():
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def test_reference_covers_every_run(reference):
    assert sorted(reference) == sorted(RUNS)


@pytest.mark.parametrize("run_id", RUNS)
def test_output_is_byte_identical(run_id, inputs, reference):
    assert run(run_id, inputs) == reference[run_id]


if __name__ == "__main__":
    import tempfile

    doc = json.loads(REFERENCE.read_text(encoding="utf-8"))
    missing = [run_id for run_id in RUNS if run_id not in doc]
    with tempfile.TemporaryDirectory() as tmp:
        inputs = write_inputs(Path(tmp))
        doc.update((run_id, run(run_id, inputs)) for run_id in missing)
    REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"added {len(missing)} runs to {REFERENCE}")

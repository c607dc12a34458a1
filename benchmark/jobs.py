"""Job mixes, seeded inputs and report checking for the dirhom benchmark.

A job is one CLI verb on generated JSON inputs.  The inputs are built with
the package's public constructors, then every cell id is renamed by a
seeded, order-preserving bijection (subset specs are renamed to match), so
the program only ever sees renamed files.  Reports are checked against `reference.json`,
which holds each job's exit code and its report in canonical (unrenamed)
cell ids; a report is mapped back through the inverse renaming before it
is compared.

This module imports `dirhom` only inside the functions that build inputs,
so the timed worker process can use the checker without paying for it.
"""

from __future__ import annotations

import json
import random
import re
import string
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

HOMOLOGY_SETS = ("D3", "D4", "S2", "S3", "real222", "real2222", "real33")


@dataclass(frozen=True)
class Job:
    """One verb on named inputs; `name` keys the reference."""

    name: str
    verb: str
    sets: tuple[str, ...]
    subsets: tuple[str, ...] = ()
    field: str = "q"

    def args(self, files: dict[str, str]) -> list[str]:
        """The CLI argument list, given the generated file of each input."""
        args = [self.verb]
        if self.verb == "homology":
            args += ["--actions"]
        args += ["--format", "json", "--field", self.field]
        return args + [files[s] for s in self.sets + self.subsets]


def _homology_jobs(field: str) -> list[Job]:
    return [Job(f"homology:{s}:{field}", "homology", (s,), field=field)
            for s in HOMOLOGY_SETS]


WORKLOADS: dict[str, list[Job]] = {
    "homology-q": _homology_jobs("q"),
    "homology-fp": _homology_jobs("fp:1009"),
    "verify": [
        Job("relative:D3:S2", "relative", ("D3",), ("D3/S2",)),
        Job("relative:D4:S3", "relative", ("D4",), ("D4/S3",)),
        Job("mv:domino", "mv", ("domino",), ("domino/left", "domino/right")),
        Job("mv:strip4", "mv", ("strip4",), ("strip4/left", "strip4/right")),
        Job("mv:strip6", "mv", ("strip6",), ("strip6/left", "strip6/right")),
        Job("mv:grid3", "mv", ("grid3",), ("grid3/left", "grid3/right")),
        Job("kunneth:S1:S1", "kunneth", ("S1", "S1")),
        Job("kunneth:D2:S1", "kunneth", ("D2", "S1")),
        Job("kunneth:D2:D2", "kunneth", ("D2", "D2")),
    ],
}


# -- canonical inputs ------------------------------------------------------------


def _strip(pc, name: str, n: int):
    """A 1 x n strip of squares: a path of n edges times the segment."""
    x = pc.tensor(pc.realization([1] * n), pc.segment())
    return pc.PrecubicalSet(name, x.cells, x.faces), x


def _grid(pc, name: str, n: int):
    """An n x n grid of squares: the tensor square of a path of n edges."""
    path = pc.realization([1] * n)
    x = pc.tensor(path, path)
    return pc.PrecubicalSet(name, x.cells, x.faces), x


def _columns(pc, tx, x, lo: int, hi: int) -> list[str]:
    """Face closure of the squares whose first factor is edge lo..hi-1."""
    first = tx.left.edges
    squares = [c for c in x.cells_of_dim(2)
               if first.index(tx.components(c)[0]) in range(lo, hi)]
    return sorted(pc.face_closure(x, squares))


def canonical_inputs() -> tuple[dict, dict]:
    """Every set and subset spec the mixes use, in canonical cell ids.

    Returns (sets, subsets): sets maps a name to a PrecubicalSet; subsets
    maps "set/part" to a sorted list of cell ids of that set.
    """
    from dirhom import precubical as pc

    sets = {
        "D2": pc.directed_disc(2), "D3": pc.directed_disc(3),
        "D4": pc.directed_disc(4), "S1": pc.directed_sphere(1),
        "S2": pc.directed_sphere(2), "S3": pc.directed_sphere(3),
        "real222": pc.realization([2, 2, 2]),
        "real2222": pc.realization([2, 2, 2, 2]),
        "real33": pc.realization([3, 3]),
    }
    subsets = {
        "D3/S2": sorted(pc.directed_sphere(2).all_cells()),
        "D4/S3": sorted(pc.directed_sphere(3).all_cells()),
    }
    for name, n, build in (("domino", 2, _strip), ("strip4", 4, _strip),
                           ("strip6", 6, _strip), ("grid3", 3, _grid)):
        x, tx = build(pc, name, n)
        sets[name] = x
        cut = 1 if name == "grid3" else n // 2
        subsets[f"{name}/left"] = _columns(pc, tx, x, 0, cut)
        subsets[f"{name}/right"] = _columns(pc, tx, x, cut, n)
    return sets, subsets


# -- renaming ----------------------------------------------------------------------


def renaming(cells: list[str], tag: str, rng: random.Random | None) -> dict[str, str]:
    """A bijection canonical id -> "<tag><random letters>"; `rng=None` keeps the ids.

    The new ids sort in the same order as the canonical ones.  dirhom
    orders bases by sorting cell ids, and the cost of its dense elimination
    depends on that order (up to about 30% on relative D4/S3), so keeping
    the order makes every seed measure the same work.
    """
    if rng is None:
        return {c: c for c in cells}
    tokens: set[str] = set()
    while len(tokens) < len(cells):
        tokens.add("".join(rng.choice(string.ascii_lowercase) for _ in range(8)))
    return {c: f"{tag}{t}" for c, t in zip(sorted(cells), sorted(tokens))}


def rename_set(x, fwd: dict[str, str]):
    """The same precubical structure with every cell id mapped by `fwd`."""
    from dirhom.precubical import PrecubicalSet

    layers = [sorted(fwd[c] for c in layer) for layer in x.cells]
    faces = {fwd[c]: ([fwd[f] for f in d0], [fwd[f] for f in d1])
             for c, (d0, d1) in x.faces.items()}
    return PrecubicalSet(x.name, layers, faces)


_PAIR = re.compile(r"^\(([^(),]+),([^(),]+)\)$")


class Inverse:
    """Maps ids in a report back to canonical ids, including tensor ids "(u,v)"."""

    def __init__(self, back: dict[str, str]):
        self.back = back

    def __call__(self, cid: str) -> str:
        hit = self.back.get(cid)
        if hit is not None:
            return hit
        m = _PAIR.match(cid)
        if m and m.group(1) in self.back and m.group(2) in self.back:
            return f"({self.back[m.group(1)]},{self.back[m.group(2)]})"
        raise KeyError(f"unknown cell id {cid!r} in report")


def generate(workload: str, seed: int | None, out_dir: Path) -> dict:
    """Write the renamed inputs of a workload and return its manifest.

    The manifest lists each job's CLI arguments, the inverse renaming and
    the seed of the job orders.  `seed=None` keeps the canonical ids (used
    to record the reference).  The same seed always gives the same files
    and job orders.
    """
    from dirhom import precubical as pc

    jobs = WORKLOADS[workload]
    rng = None if seed is None else random.Random(seed)
    sets, subsets = canonical_inputs()
    out_dir.mkdir(parents=True, exist_ok=True)
    files: dict[str, str] = {}
    back: dict[str, str] = {}
    for k, name in enumerate(sorted({s for j in jobs for s in j.sets})):
        x = sets[name]
        fwd = renaming(x.all_cells(), f"x{k}_", rng)
        files[name] = str(out_dir / f"{name}.json")
        pc.save(rename_set(x, fwd), files[name])
        back.update({r: c for c, r in fwd.items()})
        for spec, ids in subsets.items():
            if spec.split("/")[0] == name and any(spec in j.subsets for j in jobs):
                files[spec] = str(out_dir / (spec.replace("/", "-") + ".json"))
                Path(files[spec]).write_text(json.dumps(sorted(fwd[c] for c in ids)))
    return {"workload": workload,
            "order_seed": 0 if rng is None else rng.randrange(2 ** 32),
            "jobs": [{"name": j.name, "verb": j.verb, "args": j.args(files)}
                     for j in jobs],
            "back": back}


# -- checking ------------------------------------------------------------------------


def _dims(entries, inv) -> list[list]:
    return sorted([e["degree"], inv(e["src"]), inv(e["dst"]), e["dim"]]
                  for e in entries)


def normalize(verb: str, doc: dict, inv) -> dict:
    """The checked fields of a JSON report, in canonical ids and order.

    Action matrix entries depend on the chosen bases, so only the number
    of action matrices and their shapes are kept.
    """
    if verb == "homology":
        out = {"input": doc["input"], "field": doc["field"],
               "entries": _dims(doc["entries"], inv)}
        if "actions" in doc:
            out["actions"] = sorted(
                [inv(a["edge"]), a["side"], a["degree"],
                 inv(a["src"]), inv(a["dst"]), len(a["matrix"]),
                 len(a["matrix"][0]) if a["matrix"] else 0]
                for a in doc["actions"])
        return out
    if verb == "relative":
        if not doc["accepted"]:
            return {"accepted": False}
        return {"input": doc["input"], "accepted": True,
                "relative": _dims(doc["relative"], inv),
                "whole": _dims(doc["whole"], inv),
                "extension": _dims(doc["extension"], inv),
                "sequence_exact": doc["sequence_exact"],
                "extension_commutes": doc["extension_commutes"]}
    if verb == "mv":
        if not doc["good_cover"]:
            failures = [ln for ln in doc["report"].splitlines()
                        if ln.startswith("  degree ")]
            return {"good_cover": False, "excision_failures": len(failures)}
        return {"input": doc["input"], "good_cover": True,
                "sequence_exact": doc["sequence_exact"],
                "tables": {k: _dims(v, inv) for k, v in sorted(doc["tables"].items())}}
    if verb == "kunneth":
        return {"inputs": doc["inputs"], "comparison_ok": doc["comparison_ok"],
                "kunneth_identity": doc["kunneth_identity"],
                "dims": _dims(doc["dims"], inv)}
    raise ValueError(f"no checker for verb {verb!r}")


@dataclass
class Outcome:
    """The verdict on one job run.

    `ok` means exit code and report match the reference.  A job that
    raised or exited 3 has signalled its own failure; any other mismatch
    is a wrong answer given as if it were right.
    """

    ok: bool
    signalled: bool
    detail: str = ""


def check(verb: str, ref: dict, code, stdout: str, inv, error: str | None = None) -> Outcome:
    """Compare one job's exit code and stdout with its reference entry."""
    if error is not None:
        return Outcome(False, True, f"raised {error}")
    signalled = code == 3
    if code != ref["exit"]:
        return Outcome(False, signalled, f"exit {code}, expected {ref['exit']}")
    if signalled:
        return Outcome(False, True, "exit 3")
    try:
        got = normalize(verb, json.loads(stdout), inv)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return Outcome(False, False, f"unreadable report: {exc!r}")
    if got != ref["report"]:
        return Outcome(False, False, "report differs from the reference")
    return Outcome(True, False)


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())

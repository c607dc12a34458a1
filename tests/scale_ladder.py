"""The scale ladder: `build_complex` plus `HomologyTable` on a fixed list of
sets, and the relative, Mayer-Vietoris and Kunneth library calls on a fixed
list of inputs, over Q and F_1009, each rung in a fresh process.

    PYTHONPATH=src python tests/scale_ladder.py --out BENCH_<n>.json
    python tests/scale_ladder.py --out cmp.json --checkout . --checkout ../parent --rounds 2

A rung is one set (`RUNGS`) or one call (`CALLS`) over one field.  Its
process times a fixed calibration (an elimination over `Fraction`, the kind
of work dirhom does).  A set rung then builds the complex and the homology
table with the collector on, and reports the wall time of each, its own
peak RSS and the chain and component counts.  A call rung builds its inputs,
then runs the call end to end, asserts that what it verifies holds, and
reports the call's wall time and its own peak RSS.  A rung that runs out of
time is recorded as a timeout, and one that fails with the last line of its
error.  With several ``--checkout``s every rung runs on
each in turn, so runs on two checkouts alternate and share the host's
drift; each record names the commit its sources are at (``git describe
--always --dirty``).  The file also records the host and the Python version.
pytest does not collect this file; `test_scale_ladder.py` checks the schema
and runs the two smallest set rungs and the smallest relative rung.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SCHEMA = 1
FIELDS = ("q", "fp:1009")
# name -> the set, built from the `dirhom` package, which the rung's process imports
RUNGS = {
    "D4": lambda dh: dh.directed_disc(4),
    "D6": lambda dh: dh.directed_disc(6),
    "realization([4,4])": lambda dh: dh.realization([4, 4]),
    "realization([4,4,2])": lambda dh: dh.realization([4, 4, 2]),
    "realization([4,4,3])": lambda dh: dh.realization([4, 4, 3]),
    "realization([5,5])": lambda dh: dh.realization([5, 5]),
}


def _relative(dh, n: int, field):
    """les_relative(D_n, S_(n-1)): exact, with a commuting extension."""
    d = dh.directed_disc(n)
    spec = dh.SubsetSpec(d, frozenset(dh.directed_sphere(n - 1).all_cells()))

    def call():
        res = dh.les_relative(d, spec, field)
        return res.sequence.all_exact and res.extension_commutes
    return call


def _split_top_cell(dh, x, cell: str):
    """X with the face closure of one top cell and that of all the others."""
    rest = [c for c in x.cells_of_dim(x.max_dim) if c != cell]
    return x, dh.face_closure(x, [cell]), dh.face_closure(x, rest)


def _strip(dh, n: int):
    """A 1 x n strip of squares, a path of n edges times the segment, with
    the face closures of its squares below n // 2 and of the others."""
    tx = dh.tensor(dh.realization([1] * n), dh.segment())
    x = dh.PrecubicalSet(f"strip{n}", tx.cells, tx.faces)
    low = {c for c in x.cells_of_dim(2) if tx.left.edges.index(tx.components(c)[0]) < n // 2}
    return x, dh.face_closure(x, low), dh.face_closure(x, set(x.cells_of_dim(2)) - low)


def _mayer_vietoris(dh, cover, field):
    """mayer_vietoris on a cover (X, X1, X2): good, with an exact sequence."""
    x, y1, y2 = cover
    s1, s2 = (dh.SubsetSpec(x, frozenset(y)) for y in (y1, y2))

    def call():
        res = dh.mayer_vietoris(x, s1, s2, field)
        return res.cover.good and res.sequence.all_exact
    return call


def _kunneth(dh, a: int, b: int, field):
    """The tensor comparison and the Kunneth identity of D_a (x) D_b on one
    setting, as the `kunneth` verb runs them: both hold."""
    x, y = dh.directed_disc(a), dh.directed_disc(b)

    def call():
        setting = dh.TensorSetting.build(x, y, field)
        return (dh.tensor_comparison_report(x, y, field, setting=setting).all_ok
                and dh.kunneth_report(x, y, field, setting=setting).identity_holds)
    return call


# name -> (dirhom, field) -> the call on inputs built from the package, which
# returns whether what it verifies holds
CALLS = {
    "les_relative(D4,S3)": lambda dh, field: _relative(dh, 4, field),
    "les_relative(D6,S5)": lambda dh, field: _relative(dh, 6, field),
    "mayer_vietoris(S2,0aa)": lambda dh, field: _mayer_vietoris(
        dh, _split_top_cell(dh, dh.directed_sphere(2), "0aa"), field),
    "mayer_vietoris(strip6)": lambda dh, field: _mayer_vietoris(dh, _strip(dh, 6), field),
    "kunneth(D3,D3)": lambda dh, field: _kunneth(dh, 3, 3, field),
    "kunneth(D4,D3)": lambda dh, field: _kunneth(dh, 4, 3, field),
}
RECORD_KEYS = {"set", "field", "commit", "round", "status"}
DONE_KEYS = {"chains", "components", "calib_s", "build_s", "table_s", "total_s", "peak_rss_mb"}
CALL_DONE_KEYS = {"calib_s", "total_s", "peak_rss_mb"}


def calibrate() -> float:
    """The best of five wall times of Gauss-Jordan elimination on a fixed
    integral 12 x 12 matrix over `Fraction`."""
    best = float("inf")
    for _ in range(5):
        t0 = perf_counter()
        rows = [[Fraction((7 * i + 3 * j * j + 1) % 11 - 5) for j in range(12)]
                for i in range(12)]
        r = 0
        for c in range(12):
            piv = next((i for i in range(r, 12) if rows[i][c]), None)
            if piv is None:
                continue
            rows[r], rows[piv] = rows[piv], rows[r]
            inv = 1 / rows[r][c]
            rows[r] = [a * inv for a in rows[r]]
            for i in range(12):
                if i != r and rows[i][c]:
                    f = rows[i][c]
                    rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
            r += 1
        best = min(best, perf_counter() - t0)
    return best


def run_rung(name: str, field_name: str) -> dict:
    """One rung in this process: the measurements of a finished record."""
    import dirhom as dh
    from dirhom.cubechain import build_complex
    from dirhom.exactla import field_from_name
    from dirhom.homology import HomologyTable

    calib = calibrate()
    field = field_from_name(field_name)
    if name in CALLS:
        call = CALLS[name](dh, field)
        t0 = perf_counter()
        if not call():
            raise AssertionError(f"{name} over {field_name}: a verification failed")
        return {"calib_s": calib, "total_s": perf_counter() - t0,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    x = RUNGS[name](dh)
    t0 = perf_counter()
    cx = build_complex(x, None, field)
    t1 = perf_counter()
    table = HomologyTable(cx, x)
    t2 = perf_counter()
    return {"chains": sum(cx.dim(*k) for k in cx.components_with_chains),
            "components": len(table.entries), "calib_s": calib, "build_s": t1 - t0,
            "table_s": t2 - t1, "total_s": t2 - t0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def describe(checkout: Path) -> str | None:
    """``git describe --always --dirty`` of a checkout, None outside git or
    without it."""
    try:
        out = subprocess.run(["git", "-C", str(checkout), "describe", "--always", "--dirty"],
                             capture_output=True, text=True)
    except FileNotFoundError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def spawn(checkout: Path, name: str, field_name: str, timeout: float) -> dict:
    """Run one rung in a fresh process on the sources of `checkout`: its
    measurements with status "ok", or status "timeout" or "error"."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    cmd = [sys.executable, str(Path(__file__).resolve()), "--rung", name, "--field", field_name]
    try:
        out = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"status": "timeout", "timeout_s": timeout}
    if out.returncode != 0:
        lines = out.stderr.strip().splitlines()
        return {"status": "error", "error": lines[-1] if lines else f"exit {out.returncode}"}
    return {"status": "ok", **json.loads(out.stdout.strip().splitlines()[-1])}


def ladder(rungs, fields, checkouts, rounds: int, timeout: float) -> dict:
    """The document: host, Python version, and one record per rung, field,
    checkout and round, the checkouts alternating within each rung."""
    commits = {c: describe(c) for c in checkouts}
    records = []
    for r in range(rounds):
        for field_name in fields:
            for name in rungs:
                for c in checkouts:
                    rec = {"set": name, "field": field_name, "commit": commits[c], "round": r}
                    rec.update(spawn(c, name, field_name, timeout))
                    records.append(rec)
                    print(json.dumps(rec), file=sys.stderr)
    return {"schema": SCHEMA,
            "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                     "system": platform.system(), "release": platform.release()},
            "python": platform.python_version(), "timeout_s": timeout, "records": records}


def check(doc: dict) -> None:
    """Raise ValueError unless doc has the ladder's schema."""
    if doc.get("schema") != SCHEMA or not {"host", "python", "records"} <= set(doc):
        raise ValueError("not a scale ladder document")
    for rec in doc["records"]:
        missing = RECORD_KEYS - set(rec)
        if rec.get("status") == "ok":
            missing |= (CALL_DONE_KEYS if rec.get("set") in CALLS else DONE_KEYS) - set(rec)
        elif rec.get("status") not in ("timeout", "error"):
            raise ValueError(f"unknown status in {rec}")
        if missing or rec["set"] not in {**RUNGS, **CALLS} or rec["field"] not in FIELDS:
            raise ValueError(f"bad record {rec}: missing {sorted(missing)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="where to write the JSON document")
    ap.add_argument("--rungs", nargs="+", choices=[*RUNGS, *CALLS], default=[*RUNGS, *CALLS])
    ap.add_argument("--fields", nargs="+", choices=FIELDS, default=list(FIELDS))
    ap.add_argument("--checkout", action="append", type=Path,
                    help="a checkout whose src/ to measure (repeatable; default this one)")
    ap.add_argument("--rounds", type=int, default=1)
    ap.add_argument("--timeout", type=float, default=600.0, help="seconds per rung")
    ap.add_argument("--rung", choices=[*RUNGS, *CALLS], help=argparse.SUPPRESS)
    ap.add_argument("--field", choices=FIELDS, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.rung:
        print(json.dumps(run_rung(args.rung, args.field)))
        return 0
    if not args.out:
        ap.error("--out is required")
    checkouts = [c.resolve() for c in args.checkout or [ROOT]]
    doc = ladder(args.rungs, args.fields, checkouts, args.rounds, args.timeout)
    check(doc)
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Verbs: validate | homology | relative | mv | kunneth | cohomology |
generate | check-pair.  Inputs are precubical JSON files; subset specs are
JSON files holding a list of cell ids.  Reports are deterministic: the same
input and flags produce byte-identical output.

Exit codes: 0 success; 1 negative mathematical verdict (validation failed,
pair rejected, cover not good, Kunneth mismatch); 2 input error (parse
failure, bad parameters, non-cover, a directed cycle, a path too long to
enumerate); 3 internal assertion (a theorem-backed
identity such as d.d = 0 or a guaranteed exactness failed, which signals a
bug rather than bad data).

Start-up: importing this module loads the core layers only (`precubical`,
`exactla`, `cubechain`, `homology`), which is all that `validate`,
`generate`, `homology` and `cohomology` run.  `check-pair`, `relative` and
`mv` import `exactseq` (and with it `scalars`) first thing in the verb,
and `kunneth` imports `ez`; every error a verb may raise is defined in a
core layer, so the exit codes are mapped without loading any other.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from json.encoder import encode_basestring_ascii

import click

from . import precubical as pc
from .exactla import (
    ComparisonError, ExactnessError, FieldError, SequenceError, field_from_name,
)
from .cubechain import BoundaryCheckError, DirectedCycleError, build_complex
from .homology import ActionError, HomologyTable, cochain_dual

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3

# What a verb's computation may raise: bad data (exit 2) and a failed
# theorem-backed check (exit 3).  `_Verbs.invoke` maps them for every verb.
# RecursionError is a path too long for the recursive chain enumeration.
INPUT_ERRORS = (DirectedCycleError, SequenceError, RecursionError)
INTERNAL_ERRORS = (BoundaryCheckError, ActionError, ExactnessError, ComparisonError)

CONVENTION_NOTE = (
    "note: degree >= 1 dimensions follow the unshifted cube-chain grading; "
    "conventions that shift chain degrees by one report these one degree higher.")

DIM_HEADER = ["degree", "src", "dst", "dim"]


def _fail_input(msg: str):
    click.echo(f"input error: {msg}", err=True)
    sys.exit(EXIT_INPUT)


def _fail_internal(msg: str):
    click.echo(f"internal check failed: {msg}", err=True)
    sys.exit(EXIT_INTERNAL)


def _load_set(path: str) -> pc.PrecubicalSet:
    try:
        return pc.load(path)
    except (pc.FormatError, OSError) as exc:
        _fail_input(str(exc))


def _load_valid_set(path: str, command: str, fmt: str) -> pc.PrecubicalSet:
    """A set that satisfies the cubical identities.  One that breaks them gets
    a verdict (exit 1) before any chain is built; a directed cycle is left to
    the verb, which reports it as an input error."""
    x = _load_set(path)
    broken = [v for v in x.validate() if v.kind != "cycle"]
    if broken:
        doc = {"tool": "dirhom", "command": command, "input": x.name, "valid": False,
               "violations": [str(v) for v in broken]}
        text = [f"{x.name}: breaks the cubical identities"] + doc["violations"]
        csv_rows = [["kind", "cells", "detail"]] + [[v.kind, " ".join(v.cells), v.detail]
                                                    for v in broken]
        _emit(doc, fmt, text, csv_rows)
        sys.exit(EXIT_VERDICT)
    return x


def _load_subset(x: pc.PrecubicalSet, path: str, strict: bool) -> pc.SubsetSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            ids = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        _fail_input(f"subset spec {path}: {exc}")
    if not isinstance(ids, list) or not all(isinstance(i, str) for i in ids):
        _fail_input(f"subset spec {path} must be a JSON list of cell ids")
    try:
        spec = pc.SubsetSpec(x, frozenset(ids))
        if not spec.is_face_closed():
            if strict:
                _fail_input(f"subset spec {path} is not face-closed (--strict)")
            click.echo("warning: subset not face-closed; taking its closure", err=True)
            spec = pc.SubsetSpec(x, pc.face_closure(x, ids))
        return spec
    except pc.PrecubicalError as exc:
        _fail_input(str(exc))


def _field(name: str):
    try:
        return field_from_name(name)
    except FieldError as exc:
        _fail_input(str(exc))


def _degree(ctx, param, value: int) -> int:
    return value if value >= 0 else _fail_input(f"--max-degree must be at least 0, got {value}")


def _parse_pair(x: pc.PrecubicalSet, pair: str | None) -> tuple[str, str] | None:
    if pair is None:
        return None
    parts = pair.split(",")
    splits = [(",".join(parts[:k]), ",".join(parts[k:])) for k in range(1, len(parts))]
    if len(splits) > 1:  # vertex ids may hold commas: keep the splits into two vertices
        splits = [sp for sp in splits if set(sp) <= set(x.vertices)]
        if len(splits) > 1:
            _fail_input(f"--pair {pair!r} is ambiguous: it splits into vertices as "
                        + " or ".join(f"{s!r},{e!r}" for s, e in splits))
    if len(splits) != 1:
        _fail_input("--pair expects 'src,dst'")
    for v in splits[0]:
        if v not in x.vertices:
            _fail_input(f"unknown vertex {v!r}")
    return splits[0]


def _json(doc) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)``, byte for byte, for a
    tree of dicts with string keys, lists, tuples and scalars.

    json.dumps runs its pure-Python encoder whenever it indents.  Here each
    string goes through json's C string encoder, an int prints as its repr
    and any other scalar as json.dumps prints it, and the pieces are joined
    once.
    """
    out: list[str] = []
    put = out.append

    def write(o, indent: str) -> None:
        # `indent` is the newline and indentation before o's closing bracket
        if isinstance(o, str):
            put(encode_basestring_ascii(o))
        elif isinstance(o, dict):
            if not o:
                put("{}")
                return
            inner, sep = indent + "  ", "{"
            for k in sorted(o):
                put(sep + inner + encode_basestring_ascii(k) + ": ")
                write(o[k], inner)
                sep = ","
            put(indent + "}")
        elif isinstance(o, (list, tuple)):
            if not o:
                put("[]")
                return
            inner, sep = indent + "  ", "["
            for v in o:
                put(sep + inner)
                write(v, inner)
                sep = ","
            put(indent + "]")
        else:
            put(repr(o) if type(o) is int else json.dumps(o))

    write(doc, "\n")
    return "".join(out)


def _emit(doc: dict, fmt: str, text_lines: list[str], csv_rows: list[list]):
    if fmt == "json":
        click.echo(_json(doc))
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        for row in csv_rows:
            writer.writerow(row)
        click.echo(buf.getvalue(), nl=False)
    else:
        for line in text_lines:
            click.echo(line)


def _nonzero(table: dict) -> list[tuple]:
    """The nonzero entries of a {(degree, (src, dst)): dim} table, sorted, as
    (degree, src, dst, dim) rows."""
    return [(i, s, e, d) for ((i, (s, e)), d) in sorted(table.items()) if d]


def _entries(rows: list[tuple]) -> list[dict]:
    return [dict(zip(DIM_HEADER, row)) for row in rows]


def _labelled_csv(tables: dict[str, list[tuple]]) -> list[list]:
    return [["table", *DIM_HEADER]] + [[label, *row] for label, rows in tables.items()
                                       for row in rows]


field_option = click.option("--field", "field_name", default="q",
                            show_default=True, help="coefficients: q or fp:<prime>")
degree_option = click.option("--max-degree", default=3, show_default=True, callback=_degree,
                             help="highest homology degree reported")
format_option = click.option("--format", "fmt", default="text", show_default=True,
                             type=click.Choice(["text", "json", "csv"]))
pair_option = click.option("--pair", default=None,
                           help="restrict to one vertex pair 'src,dst'")


class _Verbs(click.Group):
    """Runs a verb; INPUT_ERRORS exit 2 and INTERNAL_ERRORS exit 3, each with
    one line on stderr instead of a traceback."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except INPUT_ERRORS as exc:
            _fail_input(str(exc))
        except INTERNAL_ERRORS as exc:
            _fail_internal(str(exc))


@click.group(cls=_Verbs)
def main():
    """Directed homology of finite acyclic precubical sets."""


@main.command()
@click.argument("path", type=click.Path(exists=True))
def validate(path):
    """Check the precubical identities and acyclicity of a JSON file."""
    x = _load_set(path)
    violations = x.validate()
    if violations:
        for v in violations:
            click.echo(str(v))
        sys.exit(EXIT_VERDICT)
    click.echo(f"{x.name}: ok ({'/'.join(str(c) for c in x.cell_count())} cells)")


def _dimension_report(x, command, field_name, max_degree, pair, symbol, dim, top):
    """(doc, text, csv rows) listing dim(i, s, e) for i <= max_degree: the
    nonzero ones, none above the top degree `top`, or with `pair` every one."""
    pairs = [pair] if pair else sorted((s, e) for s in x.vertices for e in x.vertices)
    last = max_degree if pair else min(max_degree, top)
    rows = [(i, s, e, d) for (s, e) in pairs for i in range(last + 1)
            for d in [dim(i, s, e)] if d or pair]
    text = ([f"{command} of {x.name} over {field_name}"]
            + [f"  {symbol}{i}({s},{e}) = {d}" for (i, s, e, d) in rows] + [CONVENTION_NOTE])
    doc = {"tool": "dirhom", "command": command, "input": x.name,
           "field": field_name, "max_degree": max_degree,
           "entries": _entries(rows), "notes": [CONVENTION_NOTE]}
    return doc, text, [DIM_HEADER] + [list(r) for r in rows]


def _listed_actions(x: pc.PrecubicalSet, table: HomologyTable, max_degree: int) -> list[tuple]:
    """The (edge a, degree i, vertex s, vertex e) of the left actions that
    ``homology --actions`` lists: those with i <= max_degree whose source
    H_i(s, e) or target H_i(s', e) is nonzero, for a : s' -> s, in the
    order of the edges, then of the vertices e, then of the degrees.  They
    are read off the table's nonzero entries, grouped by their first vertex."""
    vertices = x.vertices
    at = {v: k for k, v in enumerate(vertices)}
    nonzero: dict[str, set[tuple[int, int]]] = {}
    for (i, s, e), h in table.entries.items():
        if h.dim and i <= max_degree:
            nonzero.setdefault(s, set()).add((at[e], i))
    out = []
    for a in x.edges:
        s = x.edge_target(a)
        for k, i in sorted(nonzero.get(s, set()) | nonzero.get(x.edge_source(a), set())):
            out.append((a, i, s, vertices[k]))
    return out


@main.command()
@click.argument("path", type=click.Path(exists=True))
@field_option
@degree_option
@format_option
@pair_option
@click.option("--actions", is_flag=True, help="include edge action matrices")
def homology(path, field_name, max_degree, fmt, pair, actions):
    """Homology dimensions per (degree, source, target)."""
    x = _load_valid_set(path, "homology", fmt)
    field = _field(field_name)
    pair = _parse_pair(x, pair)
    table = HomologyTable(build_complex(x, None, field), x)
    doc, text, csv_rows = _dimension_report(x, "homology", field_name, max_degree, pair,
                                            "H", table.dim, table.cx.top_degree)
    if actions:
        act = [{"edge": a, "side": "left", "degree": i, "src": s, "dst": e,
                "matrix": table.left_action(a, i, s, e).text_rows()}
               for a, i, s, e in _listed_actions(x, table, max_degree)]
        doc["actions"] = act
        text.append(f"({len(act)} left action matrices; use --format json to list)")
    _emit(doc, fmt, text, csv_rows)


@main.command()
@click.argument("path", type=click.Path(exists=True))
@field_option
@degree_option
@format_option
@pair_option
def cohomology(path, field_name, max_degree, fmt, pair):
    """Cohomology dimensions (transposed differentials)."""
    x = _load_valid_set(path, "cohomology", fmt)
    field = _field(field_name)
    pair = _parse_pair(x, pair)
    dual = cochain_dual(build_complex(x, None, field))
    doc, text, csv_rows = _dimension_report(x, "cohomology", field_name, max_degree, pair,
                                            "H^", dual.cohomology_dim, dual.top_degree)
    _emit(doc, fmt, text, csv_rows)


@main.command("check-pair")
@click.argument("path", type=click.Path(exists=True))
@click.argument("subset", type=click.Path(exists=True))
@field_option
@format_option
@click.option("--strict", is_flag=True, help="reject subsets that are not face-closed")
def check_pair(path, subset, field_name, fmt, strict):
    """Relative-pair criteria: path contiguity and monic extension."""
    from .exactseq import check_relative_pair
    x = _load_valid_set(path, "check-pair", fmt)
    field = _field(field_name)
    spec = _load_subset(x, subset, strict)
    rep = check_relative_pair(x, spec, field)
    doc = {"tool": "dirhom", "command": "check-pair", "input": x.name,
           "field": field_name,
           "enter_exit_once": rep.enter_exit_once,
           "offending_path": list(rep.offending_path or ()),
           "monic": rep.monic,
           "monic_failures": [list(f) for f in rep.monic_failures],
           "accepted": rep.accepted}
    csv_rows = [["check", "verdict"],
                ["enter_exit_once", rep.enter_exit_once],
                ["monic", rep.monic],
                ["accepted", rep.accepted]]
    _emit(doc, fmt, str(rep).splitlines(), csv_rows)
    sys.exit(EXIT_OK if rep.accepted else EXIT_VERDICT)


@main.command()
@click.argument("path", type=click.Path(exists=True))
@click.argument("subset", type=click.Path(exists=True))
@field_option
@degree_option
@format_option
@click.option("--force", is_flag=True,
              help="compute the quotient homology even for a rejected pair")
@click.option("--strict", is_flag=True, help="reject subsets that are not face-closed")
def relative(path, subset, field_name, max_degree, fmt, force, strict):
    """Relative homology and the verified long exact sequence."""
    from .exactseq import les_relative
    x = _load_valid_set(path, "relative", fmt)
    field = _field(field_name)
    spec = _load_subset(x, subset, strict)
    res = les_relative(x, spec, field, max_degree=max_degree)
    rep = res.pair_report
    text = str(rep).splitlines()
    if not rep.accepted and not force:
        _emit({"tool": "dirhom", "command": "relative", "accepted": False,
               "report": str(rep)}, fmt, text, [["accepted", False]])
        sys.exit(EXIT_VERDICT)
    tables = {"relative": _nonzero(res.rel_table), "whole": _nonzero(res.x_table),
              "extension": _nonzero(res.ext_table)}
    text.append("relative homology (nonzero entries):")
    text += [f"  relH{i}({s},{e}) = {d}" for (i, s, e, d) in tables["relative"]]
    if res.sequence is not None:
        text.append(f"long exact sequence: "
                    f"{'exact at every node' if res.sequence.all_exact else 'INEXACT'}")
        text.append(f"extension commutes with homology: {res.extension_commutes}")
    else:
        text.append("long exact sequence: skipped (pair rejected; --force shown dims only)")
    text.append(CONVENTION_NOTE)
    doc = {"tool": "dirhom", "command": "relative", "input": x.name,
           "field": field_name, "max_degree": max_degree,
           "accepted": rep.accepted,
           **{label: _entries(rows) for label, rows in tables.items()},
           "sequence_exact": None if res.sequence is None else res.sequence.all_exact,
           "extension_commutes": res.extension_commutes,
           "notes": [CONVENTION_NOTE]}
    _emit(doc, fmt, text, _labelled_csv(tables))


@main.command()
@click.argument("path", type=click.Path(exists=True))
@click.argument("subset1", type=click.Path(exists=True))
@click.argument("subset2", type=click.Path(exists=True))
@field_option
@degree_option
@format_option
@click.option("--strict", is_flag=True, help="reject subsets that are not face-closed")
def mv(path, subset1, subset2, field_name, max_degree, fmt, strict):
    """Good-cover check and the verified Mayer-Vietoris sequence."""
    from .exactseq import mayer_vietoris
    x = _load_valid_set(path, "mv", fmt)
    field = _field(field_name)
    s1 = _load_subset(x, subset1, strict)
    s2 = _load_subset(x, subset2, strict)
    res = mayer_vietoris(x, s1, s2, field, max_degree=max_degree)
    text = str(res.cover).splitlines()
    if res.sequence is None:
        doc = {"tool": "dirhom", "command": "mv", "good_cover": False,
               "report": str(res.cover)}
        _emit(doc, fmt, text, [["good_cover", False]])
        sys.exit(EXIT_VERDICT)
    tables = {label: _nonzero(t) for label, t in sorted(res.tables.items())}
    text.append(f"Mayer-Vietoris sequence: "
                f"{'exact at every node' if res.sequence.all_exact else 'INEXACT'}")
    for label in ("whole", "intersection"):
        text.append(f"{label} homology (nonzero):")
        text += [f"  H{i}({s},{e}) = {d}" for (i, s, e, d) in tables[label]]
    text.append(CONVENTION_NOTE)
    doc = {"tool": "dirhom", "command": "mv", "input": x.name,
           "field": field_name, "good_cover": True,
           "sequence_exact": res.sequence.all_exact,
           "tables": {label: _entries(rows) for label, rows in tables.items()},
           "notes": [CONVENTION_NOTE]}
    _emit(doc, fmt, text, _labelled_csv(tables))


@main.command()
@click.argument("path_x", type=click.Path(exists=True))
@click.argument("path_y", type=click.Path(exists=True))
@field_option
@degree_option
@format_option
@click.option("--prop63", "obstruction", is_flag=True,
              help="include the degree-0 generator count report")
def kunneth(path_x, path_y, field_name, max_degree, fmt, obstruction):
    """Tensor comparison verification plus the Kunneth dimension identity."""
    from .ez import (
        TensorSetting, kunneth_report, tensor_comparison_report, zero_chain_count_report,
    )
    x = _load_valid_set(path_x, "kunneth", fmt)
    y = _load_valid_set(path_y, "kunneth", fmt)
    field = _field(field_name)
    try:
        setting = TensorSetting.build(x, y, field)
    except pc.PrecubicalError as exc:   # two product cells with one name
        _fail_input(str(exc))
    comp = tensor_comparison_report(x, y, field, max_degree=max_degree, setting=setting)
    kun = kunneth_report(x, y, field, max_degree=max_degree, setting=setting)
    dims = _nonzero(kun.product_dims)
    text = str(comp).splitlines() + str(kun).splitlines()
    doc = {"tool": "dirhom", "command": "kunneth",
           "inputs": [x.name, y.name], "field": field_name,
           "comparison_ok": comp.all_ok,
           "kunneth_identity": kun.identity_holds,
           "dims": _entries(dims),
           "notes": [CONVENTION_NOTE]}
    if obstruction:
        zc = zero_chain_count_report(x, y, field, setting=setting)
        text += str(zc).splitlines()
        doc["obstruction"] = {
            "product_dim0": zc.product_chain_dim0,
            "tensor_dim0": zc.tensor_side_dim0,
            "product_dim1": zc.product_chain_dim1,
            "note": zc.note,
        }
    text.append(CONVENTION_NOTE)
    _emit(doc, fmt, text, [DIM_HEADER] + [list(r) for r in dims])
    if not (comp.all_ok and kun.identity_holds):
        _fail_internal("a theorem-backed comparison identity failed")


@main.command()
@click.argument("kind", type=click.Choice(
    ["cube", "disc", "sphere", "realization", "tensor", "interval"]))
@click.argument("params", nargs=-1)
@click.option("--out", "-o", required=True, type=click.Path(),
              help="output JSON path")
def generate(kind, params, out):
    """Write a standard construction as a precubical JSON file.

    cube N | disc N | sphere N | realization N1,N2,.. | interval |
    tensor FILE_X FILE_Y
    """
    try:
        if kind == "cube":
            x = pc.standard_cube(int(_one(params)))
        elif kind == "disc":
            x = pc.directed_disc(int(_one(params)))
        elif kind == "sphere":
            x = pc.directed_sphere(int(_one(params)))
        elif kind == "interval":
            x = pc.segment()
        elif kind == "realization":
            seq = [int(t) for t in _one(params).split(",") if t]
            x = pc.realization(seq)
        else:
            if len(params) != 2:
                _fail_input("tensor needs two input files")
            x = pc.tensor(_load_set(params[0]), _load_set(params[1]))
    except (ValueError, pc.PrecubicalError) as exc:
        _fail_input(str(exc))
    pc.save(x, out)
    click.echo(f"wrote {x.name} to {out} "
               f"({'/'.join(str(c) for c in x.cell_count())} cells)")


def _one(params) -> str:
    if len(params) != 1:
        _fail_input("expected exactly one parameter")
    return params[0]


if __name__ == "__main__":
    main()

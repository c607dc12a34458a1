import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import time
import weakref
from collections import Counter
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import dirhom as dh
from dirhom import cli, cubechain, exactseq, precubical
from dirhom.cli import main
from dirhom.cubechain import (
    ENTRY_BUDGET, BoundaryCheckError, ChainBudgetError, DirectedCycleError,
)
from dirhom.exactla import Matrix
from dirhom.exactseq import ExactnessError, SequenceError
from dirhom.homology import ActionError, HomologyTable

from conftest import corpus, make_domino


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def workspace(tmp_path):
    files = {}
    for name, x in [("k", dh.segment()), ("d2", dh.directed_disc(2)),
                    ("s1", dh.directed_sphere(1)), ("domino", make_domino())]:
        p = tmp_path / f"{name}.json"
        dh.save(x, p)
        files[name] = str(p)
    s1cells = dh.directed_sphere(1).all_cells()
    p = tmp_path / "s1cells.json"
    p.write_text(json.dumps(sorted(s1cells)))
    files["s1cells"] = str(p)
    dom = make_domino()
    for name, seed in [("left", "s1"), ("right", "s2")]:
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(sorted(dh.face_closure(dom, [seed]))))
        files[name] = str(p)
    files["tmp"] = str(tmp_path)
    return files


def invoke(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


class TestValidate:
    def test_ok(self, runner, workspace):
        r = invoke(runner, ["validate", workspace["d2"]])
        assert r.exit_code == 0 and "ok" in r.output

    def test_parse_error_exit2(self, runner, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{broken")
        r = invoke(runner, ["validate", str(p)])
        assert r.exit_code == 2

    @pytest.mark.parametrize("verb", ["validate", "homology"])
    @pytest.mark.parametrize("break_doc", [
        lambda doc: doc["cells"].update({"01": doc["cells"].pop("1")}),
        lambda doc: doc["faces"]["a"].update({"d0": [["0"]]}),
    ], ids=["padded_dimension_key", "list_face_id"])
    def test_malformed_document_exit2(self, runner, tmp_path, verb, break_doc):
        doc = dh.segment().to_dict()
        break_doc(doc)
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        r = invoke(runner, [verb, str(p)])
        assert r.exit_code == 2 and "input error:" in r.output

    def test_violation_exit1(self, runner, tmp_path):
        x = dh.PrecubicalSet("loop", [["0"], ["a"]], {"a": (["0"], ["0"])})
        p = tmp_path / "loop.json"
        dh.save(x, p)
        r = invoke(runner, ["validate", str(p)])
        assert r.exit_code == 1 and "cycle" in r.output


def broken_square():
    """A square whose faces break the identity d_1^1 d_2^1 = d_1^1 d_1^1."""
    faces = {"e1": (["p"], ["q"]), "e2": (["p"], ["r"]),
             "e3": (["q"], ["s"]), "e4": (["r"], ["s"]),
             "sq": (["e2", "e1"], ["e3", "e1"])}
    return dh.PrecubicalSet("bad", [["p", "q", "r", "s"], ["e1", "e2", "e3", "e4"], ["sq"]],
                            faces)


@pytest.mark.parametrize("args", [
    ["homology", "{bad}"], ["homology", "{bad}", "--actions", "--format", "json"],
    ["cohomology", "{bad}"], ["relative", "{bad}", "{p}"],
    ["mv", "{bad}", "{p}", "{p}"], ["kunneth", "{k}", "{bad}", "--format", "csv"],
    ["check-pair", "{bad}", "{p}"],
], ids=["homology", "homology-json", "cohomology", "relative", "mv", "kunneth",
        "check-pair"])
def test_broken_identities_are_a_verdict(runner, workspace, tmp_path, args):
    files = {"k": workspace["k"], "bad": str(tmp_path / "bad.json"),
             "p": str(tmp_path / "p.json")}
    dh.save(broken_square(), files["bad"])
    (tmp_path / "p.json").write_text(json.dumps(["p"]))
    r = invoke(runner, [a.format(**files) for a in args])
    assert r.exit_code == 1
    assert "identity" in r.output and "sq" in r.output
    if "json" in args:
        assert json.loads(r.output)["valid"] is False


# Each computing verb, the call that does its work, named where the verb
# looks it up (a verb outside the core imports its layer when it runs), and
# arguments that reach that call.
COMPUTE = {
    "homology": ("dirhom.cli.build_complex", ["homology", "{d2}"]),
    "cohomology": ("dirhom.cli.build_complex", ["cohomology", "{d2}"]),
    "check-pair": ("dirhom.exactseq.check_relative_pair", ["check-pair", "{d2}", "{s1cells}"]),
    "relative": ("dirhom.exactseq.les_relative", ["relative", "{d2}", "{s1cells}"]),
    "mv": ("dirhom.exactseq.mayer_vietoris", ["mv", "{domino}", "{left}", "{right}"]),
    "kunneth": ("dirhom.ez.tensor_comparison_report", ["kunneth", "{k}", "{k}"]),
}


# What each error a verb may raise exits with, and the start of its stderr line.
ERROR_EXITS = [(DirectedCycleError, 2), (ChainBudgetError, 2), (SequenceError, 2),
               (RecursionError, 2), (BoundaryCheckError, 3), (ActionError, 3), (ExactnessError, 3)]
PREFIX = {2: "input error", 3: "internal check failed"}


@pytest.mark.parametrize("error,code", ERROR_EXITS, ids=[e.__name__ for e, _ in ERROR_EXITS])
@pytest.mark.parametrize("verb", sorted(COMPUTE))
def test_errors_map_to_exit_codes(runner, workspace, monkeypatch, verb, error, code):
    name, args = COMPUTE[verb]

    def fail(*args, **kwargs):
        raise error("boom")

    monkeypatch.setattr(name, fail)
    r = runner.invoke(main, [a.format(**workspace) for a in args])
    assert isinstance(r.exception, SystemExit) and r.exit_code == code
    assert r.stdout == "" and r.stderr == f"{PREFIX[code]}: boom\n"


class TestHomology:
    def test_pair_output(self, runner, workspace):
        r = invoke(runner, ["homology", workspace["d2"], "--pair", "00,11"])
        assert r.exit_code == 0
        assert "H0(00,11) = 1" in r.output
        assert "H1(00,11) = 0" in r.output
        assert "note:" in r.output

    def test_sphere(self, runner, workspace):
        r = invoke(runner, ["homology", workspace["s1"], "--pair", "00,11"])
        assert "H0(00,11) = 2" in r.output

    def test_json_format(self, runner, workspace):
        r = invoke(runner, ["homology", workspace["d2"], "--format", "json"])
        doc = json.loads(r.output)
        assert doc["command"] == "homology"
        assert {"degree": 0, "src": "00", "dst": "11", "dim": 1} in doc["entries"]

    def test_csv_format(self, runner, workspace):
        r = invoke(runner, ["homology", workspace["d2"], "--format", "csv"])
        lines = r.output.strip().splitlines()
        assert lines[0] == "degree,src,dst,dim"
        assert "0,00,11,1" in lines

    def test_prime_field(self, runner, workspace):
        r = invoke(runner, ["homology", workspace["d2"], "--field", "fp:1009",
                            "--pair", "00,11"])
        assert r.exit_code == 0 and "H0(00,11) = 1" in r.output

    def test_bad_field_exit2(self, runner, workspace):
        r = invoke(runner, ["homology", workspace["d2"], "--field", "fp:10"])
        assert r.exit_code == 2

    def test_large_prime_modulus_is_decided_at_once(self, workspace):
        """A 25-digit prime is a field; a 26-digit modulus is past the range
        where the primality test is exact, an input error.  Neither spins."""
        env = {**os.environ, "PYTHONPATH": str(Path(dh.__file__).parents[1])}
        for modulus, code in (("1000000000000000000000007", 0),
                              ("10000000000000000000000013", 2)):
            start = time.perf_counter()
            r = subprocess.run([sys.executable, "-m", "dirhom.cli", "homology", "--field",
                                f"fp:{modulus}", workspace["d2"]],
                               env=env, capture_output=True, text=True, timeout=60)
            assert time.perf_counter() - start < 5
            assert r.returncode == code, r.stderr
        assert r.stderr.startswith("input error: modulus too large")

    @pytest.mark.parametrize("field", ["fp:x", "fp:", "fp:1e3"])
    @pytest.mark.parametrize("verb", ["homology", "relative"])
    def test_modulus_not_an_integer_is_one_input_error_line(self, runner, workspace, verb,
                                                            field):
        args = [workspace["d2"]] + ([workspace["s1cells"]] if verb == "relative" else [])
        r = invoke(runner, [verb, *args, "--field", field])
        assert r.exit_code == 2 and r.stdout == ""
        assert r.stderr == (f"input error: unknown field {field!r} "
                            "(expected 'q' or 'fp:<prime>')\n")

    @pytest.mark.parametrize("verb", ["homology", "cohomology", "relative", "mv", "kunneth"])
    def test_negative_max_degree_is_one_input_error_line(self, runner, workspace, verb):
        args = {"relative": [workspace["d2"], workspace["s1cells"]],
                "mv": [workspace["domino"], workspace["left"], workspace["right"]],
                "kunneth": [workspace["k"], workspace["k"]]}.get(verb, [workspace["d2"]])
        r = invoke(runner, [verb, *args, "--max-degree", "-1"])
        assert r.exit_code == 2 and r.stdout == ""
        assert r.stderr == "input error: --max-degree must be at least 0, got -1\n"

    @pytest.mark.parametrize("verb", ["homology", "cohomology"])
    def test_max_degree_past_the_top_degree_lists_the_same_entries(self, runner, workspace,
                                                                   verb):
        # every degree above the complex's top degree is zero, so none is visited
        docs = []
        for max_degree in ("1000000000", "3"):
            start = time.perf_counter()
            r = invoke(runner, [verb, workspace["d2"], "--format", "json",
                                "--max-degree", max_degree])
            assert r.exit_code == 0 and time.perf_counter() - start < 5
            docs.append(json.loads(r.output))
        assert [doc.pop("max_degree") for doc in docs] == [1000000000, 3]
        assert docs[0] == docs[1] and docs[0]["entries"]

    def test_unknown_pair_exit2(self, runner, workspace):
        r = invoke(runner, ["homology", workspace["d2"], "--pair", "00,zz"])
        assert r.exit_code == 2

    def test_deterministic_output(self, runner, workspace):
        r1 = invoke(runner, ["homology", workspace["d2"], "--format", "json"])
        r2 = invoke(runner, ["homology", workspace["d2"], "--format", "json"])
        assert r1.output == r2.output

    def test_cycle_input_exit2(self, runner, tmp_path):
        x = dh.PrecubicalSet("loop2", [["0", "1"], ["a", "b"]],
                             {"a": (["0"], ["1"]), "b": (["1"], ["0"])})
        p = tmp_path / "loop2.json"
        dh.save(x, p)
        r = invoke(runner, ["homology", str(p)])
        assert r.exit_code == 2


def scanned_actions(x, table, max_degree):
    """Oracle: the (edge, degree, src, dst) of the listed left actions, by
    probing both dimensions of every (edge, vertex, degree)."""
    return [(a, i, x.edge_target(a), e) for a in x.edges for e in x.vertices
            for i in range(max_degree + 1)
            if table.dim(i, x.edge_target(a), e) or table.dim(i, x.edge_source(a), e)]


class TestActionListing:
    def test_listing_matches_the_scan(self):
        for x in corpus():
            table = HomologyTable(dh.build_complex(x), x)
            for max_degree in range(4):
                assert cli._listed_actions(x, table, max_degree) == scanned_actions(
                    x, table, max_degree), (x.name, max_degree)

    def test_json_lists_the_scanned_keys(self, runner, workspace):
        x = make_domino()
        table = HomologyTable(dh.build_complex(x), x)
        for max_degree in range(4):
            r = invoke(runner, ["homology", "--actions", "--format", "json",
                                "--max-degree", str(max_degree), workspace["domino"]])
            listed = [(a["edge"], a["degree"], a["src"], a["dst"])
                      for a in json.loads(r.output)["actions"]]
            assert listed == scanned_actions(x, table, max_degree)


# strings with quotes, backslashes, control and non-ASCII characters
TEXT = st.text() | st.text(alphabet=st.sampled_from(
    ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "/", "é", "\u2028", "\U0001f600", "a"]))
SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(-10 ** 40, 10 ** 40)
           | st.floats() | TEXT)
DOCS = st.recursive(SCALARS, lambda kids: (st.lists(kids, max_size=4)
                                           | st.lists(kids, max_size=4).map(tuple)
                                           | st.dictionaries(TEXT, kids, max_size=4)),
                    max_leaves=30)


class TestJsonWriter:
    @settings(max_examples=200, deadline=None)
    @given(DOCS)
    def test_bytes_match_json_dumps(self, doc):
        assert cli._json(doc) == json.dumps(doc, indent=2, sort_keys=True)

    def test_empty_and_nested_containers(self):
        for doc in ({}, [], (), {"a": {}, "b": [], "c": [[], [{}]], "d": ()}, [[[1]]], "x", 0):
            assert cli._json(doc) == json.dumps(doc, indent=2, sort_keys=True)


class TestCohomology:
    def test_matches_homology(self, runner, workspace):
        r = invoke(runner, ["cohomology", workspace["d2"], "--pair", "00,11"])
        assert "H^0(00,11) = 1" in r.output
        r2 = invoke(runner, ["cohomology", workspace["s1"], "--pair", "00,11"])
        assert "H^0(00,11) = 2" in r2.output

    def test_unknown_pair_exit2(self, runner, workspace):
        r = invoke(runner, ["cohomology", workspace["d2"], "--pair", "zz,00"])
        assert r.exit_code == 2 and r.stderr == "input error: unknown vertex 'zz'\n"


class TestPairWithCommas:
    """Vertex ids may hold commas: a tensor names its vertices ``(0,0)``."""

    def test_tensor_vertex_pair(self, runner, tmp_path):
        k, t = str(tmp_path / "k.json"), str(tmp_path / "t.json")
        assert invoke(runner, ["generate", "disc", "1", "-o", k]).exit_code == 0
        assert invoke(runner, ["generate", "tensor", k, k, "-o", t]).exit_code == 0
        r = invoke(runner, ["homology", t, "--pair", "(0,0),(1,1)"])
        assert r.exit_code == 0 and "H0((0,0),(1,1)) = 1" in r.output
        r = invoke(runner, ["cohomology", t, "--pair", "(0,0),(1,1)", "--format", "json"])
        assert r.exit_code == 0
        assert {"degree": 0, "src": "(0,0)", "dst": "(1,1)", "dim": 1} in \
            json.loads(r.output)["entries"]
        for pair, err in [("(0,0),(1,2)", "--pair expects 'src,dst'"),
                          ("(0,0)", "unknown vertex '(0'")]:
            r = invoke(runner, ["homology", t, "--pair", pair])
            assert r.exit_code == 2 and r.stderr == f"input error: {err}\n"

    def test_ambiguous_pair_exit2(self, runner, tmp_path):
        p = tmp_path / "amb.json"
        dh.save(dh.PrecubicalSet("amb", [["a", "b,c", "a,b", "c"]], {}), p)
        r = invoke(runner, ["homology", str(p), "--pair", "a,b,c"])
        assert r.exit_code == 2 and r.stdout == ""
        assert r.stderr == ("input error: --pair 'a,b,c' is ambiguous: it splits into "
                            "vertices as 'a','b,c' or 'a,b','c'\n")


def r22_copies(squares) -> dict:
    """Disjoint copies of realization([2, 2]): copy k names its two squares
    squares[k] and every other cell ``k:<id>``."""
    r = dh.realization([2, 2])
    cells, faces = {}, {}
    for k, names in enumerate(squares):
        rename = dict(zip(r.cells_of_dim(2), names))
        rn = lambda c, k=k, rename=rename: rename.get(c, f"{k}:{c}")
        for cid in r.all_cells():
            cells.setdefault(str(r.dim_of(cid)), []).append(rn(cid))
        for cid, spec in r.to_dict()["faces"].items():
            faces[rn(cid)] = {side: [rn(f) for f in spec[side]] for side in spec}
    return {"name": "RR", "cells": cells, "faces": faces}


def two_paths(v1, v2) -> dict:
    """Vertices a, v1, v2, c with the edges e : v1 -> c and f : a -> v2."""
    return {"name": "Z", "cells": {"0": ["a", v1, v2, "c"], "1": ["e", "f"]},
            "faces": {"e": {"d0": [v1], "d1": ["c"]}, "f": {"d0": ["a"], "d1": [v2]}}}


class TestGeneratorIds:
    """Cell ids that join into one generator id under a separator: the
    verbs give the verdicts and dimensions of the same sets under plain ids."""

    def run_on(self, runner, tmp_path, doc, verb, fmt):
        x, y = tmp_path / "x.json", tmp_path / "all.json"
        x.write_text(json.dumps(doc))
        y.write_text(json.dumps(sorted(dh.load(x).all_cells())))
        r = invoke(runner, [verb, str(x), str(y), "--format", fmt])
        assert r.exit_code == 0 and r.stderr == "", r.output
        return r.output

    @pytest.mark.parametrize("verb", ["check-pair", "relative"])
    def test_core_chains_of_joined_square_names(self, runner, tmp_path, verb):
        joined = self.run_on(runner, tmp_path, r22_copies([("a|b", "c"), ("a", "b|c")]),
                             verb, "text")
        plain = self.run_on(runner, tmp_path, r22_copies([("s", "t"), ("u", "v")]),
                            verb, "text")
        assert joined == plain

    def test_homology_generators_of_arrowed_vertex_names(self, runner, tmp_path):
        arrowed = json.loads(self.run_on(runner, tmp_path, two_paths("a->b", "b->c"),
                                         "relative", "json"))
        plain = json.loads(self.run_on(runner, tmp_path, two_paths("ab", "bc"),
                                       "relative", "json"))
        names = {"a->b": "ab", "b->c": "bc"}
        for doc in (arrowed, plain):
            for key in ("whole", "extension", "relative"):
                for entry in doc[key]:
                    entry["src"], entry["dst"] = (names.get(entry["src"], entry["src"]),
                                                  names.get(entry["dst"], entry["dst"]))
        assert arrowed["accepted"] and arrowed["whole"]
        assert arrowed == plain


class TestCheckPair:
    def test_accepted(self, runner, workspace):
        r = invoke(runner, ["check-pair", workspace["d2"], workspace["s1cells"]])
        assert r.exit_code == 0 and "accepted" in r.output

    def test_rejected_exit1(self, runner, workspace, tmp_path):
        p = tmp_path / "twoverts.json"
        p.write_text(json.dumps(["00", "11"]))
        r = invoke(runner, ["check-pair", workspace["s1"], str(p)])
        assert r.exit_code == 1 and "rejected" in r.output

    def test_closure_warning(self, runner, workspace, tmp_path):
        p = tmp_path / "square_only.json"
        p.write_text(json.dumps(["aa"]))
        r = invoke(runner, ["check-pair", workspace["d2"], str(p)])
        assert r.exit_code == 0

    def test_strict_rejects_nonclosed(self, runner, workspace, tmp_path):
        p = tmp_path / "square_only.json"
        p.write_text(json.dumps(["aa"]))
        r = invoke(runner, ["check-pair", workspace["d2"], str(p), "--strict"])
        assert r.exit_code == 2

    def test_overlong_path_exit2(self, tmp_path):
        """The chains of a path of 1,500 edges hold 563,625,500 cube entries,
        more than a chain catalog is built for: homology and check-pair
        report an input error naming that cause, counted before any chain is
        made, not a traceback."""
        dh.save(dh.realization([1] * 1500), tmp_path / "long.json")
        (tmp_path / "y.json").write_text(json.dumps(["b1.0"]))
        env = {**os.environ, "PYTHONPATH": str(Path(dh.__file__).parents[1])}
        for verb in (["homology"], ["check-pair", str(tmp_path / "y.json")]):
            args = [verb[0], str(tmp_path / "long.json"), *verb[1:]]
            start = time.perf_counter()
            r = subprocess.run([sys.executable, "-m", "dirhom.cli", *args], env=env,
                               capture_output=True, text=True, timeout=60)
            assert time.perf_counter() - start < 10
            assert r.returncode == 2, r.stderr
            assert r.stderr.startswith("input error:") and r.stderr.count("\n") == 1
            assert (f": 563,625,500 cube entries in its chains, more than the "
                    f"{ENTRY_BUDGET:,} a chain catalog is built for") in r.stderr
            assert "Traceback" not in r.stdout + r.stderr

    def test_long_set_names_are_cut_in_input_errors(self, runner, tmp_path):
        """realization([1] * 1200) is named by 2,400 characters: the input
        error for the cube entries of its chains, over the budget even at
        degree 0, cuts the name to one short line, and so does the error
        for a directed cycle in a set with a long name."""
        dh.save(dh.realization([1] * 1200), tmp_path / "long.json")
        env = {**os.environ, "PYTHONPATH": str(Path(dh.__file__).parents[1])}
        r = subprocess.run([sys.executable, "-m", "dirhom.cli", "homology", "--max-degree", "0",
                            str(tmp_path / "long.json")],
                           env=env, capture_output=True, text=True, timeout=60)
        assert r.returncode == 2 and r.stdout == ""
        assert r.stderr.startswith("input error: real(1,1,") and r.stderr.count("\n") == 1
        assert "...: 288,720,400 cube entries in its chains, more than the" in r.stderr
        assert len(r.stderr) < 200 and "Traceback" not in r.stderr
        x = dh.PrecubicalSet("c" * 2000, [["0", "1"], ["a", "b"]],
                             {"a": (["0"], ["1"]), "b": (["1"], ["0"])})
        dh.save(x, tmp_path / "loop.json")
        r = invoke(runner, ["homology", str(tmp_path / "loop.json")])
        assert r.exit_code == 2 and r.stderr.count("\n") == 1 and len(r.stderr) < 200
        assert "acyclic" in r.stderr

    def test_cycle_behind_a_source_exit2(self, runner, tmp_path):
        """A source vertex s leading into the 2-cycle a -> b -> a: the cycle is
        an input error, found before any path is walked."""
        x = dh.PrecubicalSet("tail", [["s", "a", "b"], ["x", "y", "z"]],
                             {"x": (["s"], ["a"]), "y": (["a"], ["b"]),
                              "z": (["b"], ["a"])})
        dh.save(x, tmp_path / "tail.json")
        (tmp_path / "s.json").write_text(json.dumps(["s"]))
        r = invoke(runner, ["check-pair", str(tmp_path / "tail.json"), str(tmp_path / "s.json")])
        assert r.exit_code == 2 and r.stderr.startswith("input error: tail:")


class TestRelative:
    def test_disc_sphere(self, runner, workspace):
        r = invoke(runner, ["relative", workspace["d2"], workspace["s1cells"]])
        assert r.exit_code == 0
        assert "relH1(00,11) = 1" in r.output
        assert "exact at every node" in r.output

    def test_rejected_without_force_exit1(self, runner, workspace, tmp_path):
        p = tmp_path / "twoverts.json"
        p.write_text(json.dumps(["00", "11"]))
        r = invoke(runner, ["relative", workspace["s1"], str(p)])
        assert r.exit_code == 1

    def test_force_reports_dims(self, runner, workspace, tmp_path):
        p = tmp_path / "twoverts.json"
        p.write_text(json.dumps(["00", "11"]))
        r = invoke(runner, ["relative", workspace["s1"], str(p), "--force"])
        assert r.exit_code == 0
        assert "skipped" in r.output


class TestMv:
    def test_domino(self, runner, workspace):
        r = invoke(runner, ["mv", workspace["domino"], workspace["left"],
                            workspace["right"]])
        assert r.exit_code == 0
        assert "good cover: yes" in r.output
        assert "exact at every node" in r.output

    @pytest.mark.parametrize("corrupt,message", [
        # the map into H0(X) made zero: its node is no longer exact
        (lambda g: Matrix.zeros(g.field, g.rows, g.cols),
         "pair ('00', '21'), node H0(1)+H0(2): incoming rank 3 != kernel dim 4"),
        # every entry of that map 1: the composite with the inclusions is not zero
        (lambda g: Matrix(g.field, g.rows, g.cols, [[1] * g.cols] * g.rows),
         "pair ('00', '21'): the composite (^)H0 -> H0(1)+H0(2) -> H0(X) is nonzero"),
    ], ids=["node", "composite"])
    def test_inexact_sequence_names_pair_and_node(self, runner, workspace, monkeypatch,
                                                  corrupt, message):
        real = exactseq._long_exact_sequence

        def with_corrupted_map(title, cx, names, maps, failure):
            def corrupted(i, pair):
                f, g, delta = maps(i, pair)
                return f, corrupt(g) if (i, pair) == (0, ("00", "21")) else g, delta
            return real(title, cx, names, corrupted, failure)

        monkeypatch.setattr(exactseq, "_long_exact_sequence", with_corrupted_map)
        r = invoke(runner, ["mv", workspace["domino"], workspace["left"], workspace["right"]])
        assert r.exit_code == 3 and r.stdout == ""
        assert r.stderr == ("internal check failed: Mayer-Vietoris sequence failed "
                            f"verification: {message}\n")

    def test_non_cover_exit2(self, runner, workspace):
        r = invoke(runner, ["mv", workspace["domino"], workspace["left"],
                            workspace["left"]])
        assert r.exit_code == 2


class TestKunneth:
    def test_kk_with_obstruction(self, runner, workspace):
        r = invoke(runner, ["kunneth", workspace["k"], workspace["k"], "--prop63"])
        assert r.exit_code == 0
        assert "Kunneth check for (K, K): ok" in r.output
        assert "product side 10, tensor side 9" in r.output

    def test_prop63_builds_the_product_once(self, runner, workspace, monkeypatch):
        real, calls = dh.TensorSetting.build, []

        def counted(cls, *args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(dh.TensorSetting, "build", classmethod(counted))
        r = invoke(runner, ["kunneth", "--prop63", workspace["d2"], workspace["s1"]])
        assert r.exit_code == 0 and "degree-0 generators" in r.output
        assert len(calls) == 1

    def test_builds_no_homology_table(self, runner, workspace, monkeypatch):
        """The verb proves the comparison and the identity from ranks and
        chain-level identities: no table, no homology of any complex."""
        from dirhom import homology
        calls = []
        real_table, real_of = HomologyTable.__init__, homology.homology_of
        monkeypatch.setattr(HomologyTable, "__init__",
                            lambda t, *a: calls.append("table") or real_table(t, *a))
        monkeypatch.setattr(homology, "homology_of",
                            lambda *a: calls.append("homology_of") or real_of(*a))
        r = invoke(runner, ["kunneth", "--prop63", workspace["d2"], workspace["s1"]])
        assert r.exit_code == 0 and "Kunneth check for (D2, S1): ok" in r.output
        assert not calls
        r = invoke(runner, ["homology", "--actions", workspace["d2"]])
        assert r.exit_code == 0 and calls    # the counters are live

    def test_two_product_cells_with_one_name_exit2(self, runner, tmp_path):
        x, y = tmp_path / "x.json", tmp_path / "y.json"
        dh.save(dh.PrecubicalSet("X", [["a", "a,b"], ["e"]], {"e": (["a"], ["a,b"])}), x)
        dh.save(dh.PrecubicalSet("Y", [["c", "b,c"], ["f"]], {"f": (["c"], ["b,c"])}), y)
        r = invoke(runner, ["kunneth", str(x), str(y)])
        assert r.exit_code == 2 and r.stdout == ""
        assert r.stderr == "input error: duplicate cell id '(a,b,c)'\n"

    def test_point(self, runner, workspace, tmp_path):
        p = tmp_path / "pt.json"
        dh.save(dh.standard_cube(0), p)
        r = invoke(runner, ["kunneth", workspace["k"], str(p)])
        assert r.exit_code == 0

    def test_product_over_the_chain_budget_exit2(self, tmp_path):
        """realization([2,2,2]) squared has 7,519,140 cube chains, more than
        a catalog is built for: an input error naming the set, the count and
        the budget, counted before any chain is made."""
        dh.save(dh.realization([2, 2, 2]), tmp_path / "r222.json")
        env = {**os.environ, "PYTHONPATH": str(Path(dh.__file__).parents[1])}
        start = time.perf_counter()
        r = subprocess.run([sys.executable, "-m", "dirhom.cli", "kunneth",
                            *[str(tmp_path / "r222.json")] * 2], env=env,
                           capture_output=True, text=True, timeout=60)
        assert time.perf_counter() - start < 5
        assert (r.returncode, r.stdout) == (2, "")
        assert r.stderr == ("input error: (real(2,2,2)(x)real(2,2,2)): 7,519,140 cube chains, "
                            f"more than the {cubechain.CHAIN_BUDGET:,} a chain catalog is "
                            "built for\n")


class TestGenerate:
    @pytest.mark.parametrize("args,counts", [
        (["disc", "2"], (4, 4, 1)),
        (["sphere", "1"], (4, 4)),
        (["cube", "3"], (8, 12, 6, 1)),
        (["realization", "1,2,2"], (8, 9, 2)),
        (["interval"], (2, 1)),
    ])
    def test_generated_files_validate(self, runner, tmp_path, args, counts):
        out = tmp_path / "out.json"
        r = invoke(runner, ["generate", *args, "-o", str(out)])
        assert r.exit_code == 0
        x = dh.load(out)
        assert x.cell_count() == counts
        r2 = invoke(runner, ["validate", str(out)])
        assert r2.exit_code == 0

    def test_tensor_generation(self, runner, workspace, tmp_path):
        out = tmp_path / "kk.json"
        r = invoke(runner, ["generate", "tensor", workspace["k"], workspace["k"],
                            "-o", str(out)])
        assert r.exit_code == 0
        assert dh.load(out).cell_count() == (4, 4, 1)

    def test_bad_params_exit2(self, runner, tmp_path):
        r = invoke(runner, ["generate", "disc", "0", "-o", str(tmp_path / "x.json")])
        assert r.exit_code == 2


class TestReportSchema:
    REQUIRED = {"tool", "command", "field"}

    def test_json_reports_carry_schema_keys(self, runner, workspace):
        for args in (["homology", workspace["d2"]],
                     ["cohomology", workspace["d2"]],
                     ["relative", workspace["d2"], workspace["s1cells"]]):
            r = invoke(runner, [*args, "--format", "json"])
            doc = json.loads(r.output)
            assert self.REQUIRED <= set(doc)
            assert doc["tool"] == "dirhom"


def run_in_process(args: list[str]) -> tuple[int, str, list[weakref.ref]]:
    """Run a verb as an in-process caller does, output redirected to fresh
    streams: (exit code, stdout, weak references to the two streams)."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(args, standalone_mode=False)
        except SystemExit as exc:
            code = exc.code or 0
    return code, out.getvalue(), [weakref.ref(out), weakref.ref(err)]


class TestVerbKeepsNothing:
    """A verb run in-process leaves no set, chain catalog or output stream
    reachable once it returns, and within the verb each set is enumerated
    once."""

    def verbs(self, workspace):
        w = workspace
        return [["validate", w["d2"]],
                ["homology", w["d2"], "--actions", "--format", "json"],
                ["cohomology", w["d2"]],
                ["check-pair", w["d2"], w["s1cells"]],
                ["relative", w["d2"], w["s1cells"]],
                ["mv", w["domino"], w["left"], w["right"]],
                ["kunneth", w["k"], w["k"]]]

    def test_nothing_reachable_after_each_verb(self, workspace, monkeypatch):
        loaded = []
        load = precubical.load

        def recording_load(path):
            x = load(path)
            loaded.append(weakref.ref(x))
            return x

        monkeypatch.setattr(precubical, "load", recording_load)
        for args in self.verbs(workspace):
            del loaded[:]
            code, out, streams = run_in_process(args)
            assert code == 0 and out, args
            assert loaded, args
            assert cubechain._catalog_cache == {}, args
            gc.collect()
            assert [ref() for ref in loaded] == [None] * len(loaded), args
            assert [ref() for ref in streams] == [None, None], args

    def test_cache_cleared_when_a_verb_fails(self, workspace, monkeypatch):
        def enumerate_then_fail(x, *args, **kwargs):
            cubechain.chain_catalog(x)
            raise BoundaryCheckError("d.d != 0")

        monkeypatch.setattr("dirhom.exactseq.les_relative", enumerate_then_fail)
        code, _, _ = run_in_process(["relative", workspace["d2"], workspace["s1cells"]])
        assert code == cli.EXIT_INTERNAL
        assert cubechain._catalog_cache == {}

    def test_mv_enumerates_each_set_once(self, workspace, monkeypatch):
        # X, the parts X1 and X2, and X1^X2 inside each part, as in the
        # library path (test_exactseq's test_domino_enumerates_each_set_once)
        enumerated = Counter()

        class Recording(dict):
            def __setitem__(self, key, value):
                enumerated[value["ref"].name] += 1
                super().__setitem__(key, value)

        monkeypatch.setattr(cubechain, "_catalog_cache", Recording())
        code, _, _ = run_in_process(["mv", workspace["domino"], workspace["left"],
                                     workspace["right"]])
        assert code == 0
        assert enumerated == {"domino": 1, "domino|sub": 2, "domino|sub|sub": 2}
        assert cubechain._catalog_cache == {}

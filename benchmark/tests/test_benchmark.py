"""Self-tests of the benchmark's checker, renaming and tracer.

    python3 -m pytest benchmark/tests -q
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import jobs as J  # noqa: E402
from tracer import Tracer, layer_metrics, self_times  # noqa: E402
from measure import Runner, run_verb  # noqa: E402

import dirhom.cli  # noqa: E402
from dirhom import precubical as pc  # noqa: E402


@pytest.fixture(scope="module")
def reference():
    return J.load_reference()


@pytest.fixture(scope="module")
def renamed(tmp_path_factory):
    """The verify inputs under a seeded renaming, with their manifest."""
    out = tmp_path_factory.mktemp("verify")
    return out, J.generate("verify", 7, out)


def job_of(manifest, name):
    return next(j for j in manifest["jobs"] if j["name"] == name)


def run_checked(manifest, name, reference):
    job = job_of(manifest, name)
    code, stdout, error = run_verb(dirhom.cli.main, job["args"])
    return job, code, stdout, error, reference[name]


class TestChecker:
    def test_matching_report_passes(self, renamed, reference):
        _, manifest = renamed
        job, code, stdout, error, ref = run_checked(manifest, "mv:domino", reference)
        out = J.check(job["verb"], ref, code, stdout, J.Inverse(manifest["back"]), error)
        assert out.ok and not out.signalled

    def test_mutated_dim_fails(self, renamed, reference):
        _, manifest = renamed
        job, code, stdout, error, ref = run_checked(manifest, "mv:domino", reference)
        doc = json.loads(stdout)
        doc["tables"]["whole"][0]["dim"] += 1
        out = J.check(job["verb"], ref, code, json.dumps(doc),
                      J.Inverse(manifest["back"]), error)
        assert not out.ok and not out.signalled

    def test_wrong_exit_code_fails(self, renamed, reference):
        _, manifest = renamed
        job, code, stdout, error, ref = run_checked(manifest, "mv:domino", reference)
        out = J.check(job["verb"], ref, 1, stdout, J.Inverse(manifest["back"]), error)
        assert not out.ok and not out.signalled

    def test_exit_3_fails_as_signalled(self, renamed, reference):
        _, manifest = renamed
        job, code, stdout, error, ref = run_checked(manifest, "mv:domino", reference)
        out = J.check(job["verb"], ref, 3, stdout, J.Inverse(manifest["back"]), error)
        assert not out.ok and out.signalled

    def test_raised_job_fails_as_signalled(self, reference):
        out = J.check("mv", reference["mv:domino"], 0, "", J.Inverse({}), "KeyError: x")
        assert not out.ok and out.signalled

    def test_known_kunneth_failure_is_counted(self, renamed, reference):
        _, manifest = renamed
        job, code, stdout, error, ref = run_checked(manifest, "kunneth:D2:D2", reference)
        out = J.check(job["verb"], ref, code, stdout, J.Inverse(manifest["back"]), error)
        assert ref["exit"] == 0 and ref["report"]["comparison_ok"] is True
        assert out.ok == (code == 0)


class TestRenaming:
    def test_sets_round_trip(self, renamed):
        out, manifest = renamed
        inv = J.Inverse(manifest["back"])
        sets, subsets = J.canonical_inputs()
        for name in ("D4", "grid3", "S1"):
            x, y = sets[name], pc.load(out / f"{name}.json")
            assert set(x.all_cells()).isdisjoint(y.all_cells())
            assert [inv(c) for c in sorted(y.all_cells())] == sorted(x.all_cells())
            assert [sorted(map(inv, layer)) for layer in y.cells] == \
                [sorted(layer) for layer in x.cells]
            assert {inv(c): ([inv(f) for f in d0], [inv(f) for f in d1])
                    for c, (d0, d1) in y.faces.items()} == \
                {c: (list(d0), list(d1)) for c, (d0, d1) in x.faces.items()}
        spec = json.loads((out / "grid3-left.json").read_text())
        assert sorted(map(inv, spec)) == subsets["grid3/left"]

    def test_tensor_ids_map_back(self, renamed):
        _, manifest = renamed
        inv = J.Inverse(manifest["back"])
        fwd = {c: r for r, c in manifest["back"].items()}
        assert inv(f"({fwd['0a']},{fwd['11']})") == "(0a,11)"
        with pytest.raises(KeyError):
            inv("(nope,11)")

    def test_same_seed_same_inputs(self, tmp_path):
        a = J.generate("homology-q", 5, tmp_path / "a")
        b = J.generate("homology-q", 5, tmp_path / "b")
        c = J.generate("homology-q", 6, tmp_path / "c")
        assert a["back"] == b["back"] and a["order_seed"] == b["order_seed"]
        assert a["back"] != c["back"]
        for f in (tmp_path / "a").iterdir():
            assert f.read_text() == (tmp_path / "b" / f.name).read_text()


class TestTracer:
    def test_self_times_within_job_wall(self, renamed):
        _, manifest = renamed
        job = job_of(manifest, "relative:D3:S2")
        tracer = Tracer()
        tracer.install()
        try:
            tracer.start_job(0)
            t0 = perf_counter()
            code, _, _ = run_verb(dirhom.cli.main, job["args"])
            wall = perf_counter() - t0
        finally:
            tracer.uninstall()
        assert code == 0
        own = self_times(tracer.spans)
        assert 0 < sum(own) <= wall
        assert all(t >= -1e-9 for t in own)
        layers = layer_metrics(tracer.names, tracer.spans, 1)
        assert layers["scalars.pairs_reduced"] > 0
        assert layers["exactseq.exact_nodes"] > 0

    def test_uninstall_restores_originals(self):
        from dirhom import exactla
        homology = sys.modules["dirhom.homology"]   # the package re-exports a function
        before = (homology.kernel_basis, exactla.Matrix.__dict__["__matmul__"])
        tracer = Tracer()
        tracer.install()
        assert homology.kernel_basis is not before[0]
        tracer.uninstall()
        assert (homology.kernel_basis, exactla.Matrix.__dict__["__matmul__"]) == before


def test_job_time_excludes_host_samples(renamed):
    """The host speed is sampled while a job runs, and not counted in its time."""
    _, manifest = renamed
    handler = signal.getsignal(signal.SIGALRM)
    try:
        runner = Runner(dirhom.cli.main, manifest)
        before, spent = len(runner.clock.calibs), runner.clock.spent
        t0 = perf_counter()
        _, dt, ok, _, _, scaled = runner.run_job(job_of(manifest, "mv:strip6"))
        wall = perf_counter() - t0
    finally:
        signal.signal(signal.SIGALRM, handler)
    assert ok and scaled > 0
    assert len(runner.clock.calibs) - before >= 3
    assert 0 < dt and dt + (runner.clock.spent - spent) <= wall


REPEATED = ("cubechain.chains", "cubechain.build_calls", "homology.homology_of_calls",
            "exactla.elim_entries", "scalars.pairs_reduced", "cache.catalog_entries",
            "cache.quotient_entries", "cache.left_quotient_entries")


def test_counters_repeat_with_same_seed(tmp_path):
    """Two fresh traced runs of one seed give identical work counters."""
    keep = {"relative:D3:S2", "mv:domino", "kunneth:S1:S1"}
    manifest = J.generate("verify", 3, tmp_path)
    manifest["jobs"] = [j for j in manifest["jobs"] if j["name"] in keep]
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    runs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), str(ROOT / "src"), str(path),
             "0", "1"], capture_output=True, text=True, timeout=300, check=True)
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1])["layers"])
    for name in REPEATED:
        assert runs[0][name] == runs[1][name], name
    assert runs[0]["scalars.pairs_reduced"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "benchmark/run.py", "--workload", "verify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

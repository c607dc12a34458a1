"""Each verb loads only the layers it runs.

`import dirhom.cli` runs the four core modules and nothing else:
`homology`, `cohomology`, `validate` and `generate` need no more.
`check-pair`, `relative` and `mv` load `exactseq`, which loads `scalars`,
and `kunneth` loads `ez`.  A module counts as loaded when its code runs,
which an audit hook on the "exec" event sees; a module that the package
lists in sys.modules but has not run does not count.  Each check runs in a
fresh process, since the test process has loaded every module.
"""

import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import dirhom as dh

from conftest import make_domino

SRC = str(Path(dh.__file__).resolve().parents[1])
DEFERRED = {"scalars", "exactseq", "ez"}

# Runs `dirhom.cli.main` on the arguments, if any, and prints its exit code
# and the modules of the package whose code ran.
PROBE = """
import json, sys
from pathlib import Path
ran = set()
sys.addaudithook(lambda event, args: event == "exec" and ran.add(args[0].co_filename))
import dirhom.cli
code = 0
if sys.argv[1:]:
    try:
        dirhom.cli.main(sys.argv[1:], standalone_mode=False)
    except SystemExit as exc:
        code = exc.code
print(json.dumps([code, sorted(Path(f).stem for f in ran
                               if Path(f).parent == Path(dirhom.__file__).parent)]))
"""


def loaded(args: list[str], exit_code: int = 0) -> set[str]:
    """The deferred modules that ran in a fresh process running the CLI on
    args, which must exit with exit_code."""
    proc = subprocess.run([sys.executable, "-c", PROBE, *args], capture_output=True,
                          text=True, timeout=120, check=True,
                          env=dict(os.environ, PYTHONPATH=SRC))
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    assert code == exit_code, proc.stdout
    return set(modules) & DEFERRED


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("startup")
    paths = {name: str(d / f"{name}.json") for name in ("d2", "k", "domino", "s1cells",
                                                        "left", "right", "out")}
    dh.save(dh.directed_disc(2), paths["d2"])
    dh.save(dh.segment(), paths["k"])
    dom = make_domino()
    dh.save(dom, paths["domino"])
    Path(paths["s1cells"]).write_text(json.dumps(sorted(dh.directed_sphere(1).all_cells())))
    for name, seed in (("left", "s1"), ("right", "s2")):
        Path(paths[name]).write_text(json.dumps(sorted(dh.face_closure(dom, [seed]))))
    return paths


def test_import_loads_the_core_only():
    assert loaded([]) == set()


@pytest.mark.parametrize("args,modules", [
    (["validate", "{d2}"], set()),
    (["homology", "{d2}", "--actions", "--format", "json"], set()),
    (["cohomology", "{d2}"], set()),
    (["generate", "disc", "2", "-o", "{out}"], set()),
    (["check-pair", "{d2}", "{s1cells}"], {"exactseq", "scalars"}),
    (["relative", "{d2}", "{s1cells}"], {"exactseq", "scalars"}),
    (["mv", "{domino}", "{left}", "{right}"], {"exactseq", "scalars"}),
    (["kunneth", "{d2}", "{k}"], {"ez"}),
], ids=["validate", "homology", "cohomology", "generate", "check-pair", "relative", "mv",
        "kunneth"])
def test_each_verb_loads_only_its_layers(files, args, modules):
    assert loaded([a.format(**files) for a in args]) == modules


# The package's exports from the deferred modules, as it imported them eagerly
# before they were deferred.
EXPORTS = {
    "scalars": [
        "AlgebraError", "PathAlgebraIndex", "PresentedBimodule", "ResolvedBimodule",
        "SubcomplexExtension", "direct_sum", "extend_presented", "extend_subcomplex",
        "free_bimodule", "h_morphism", "hcompose", "path_algebra", "present_chain_module",
        "present_homology", "re_present", "restrict", "smash", "unit_bimodule",
        "zero_bimodule",
    ],
    "exactseq": [
        "ExactnessError", "ExactSequenceReport", "GoodCoverReport", "RelativePairReport",
        "SequenceError", "check_relative_pair", "connecting_map", "good_cover_check",
        "les_relative", "mayer_vietoris", "relative_complex", "verify_exact",
    ],
    "ez": [
        "ComparisonReport", "KunnethReport", "TensorComplex", "TensorSetting",
        "interleave_tensor", "kunneth_report", "split_chain", "swap_steps",
        "tensor_comparison_report", "zero_chain_count_report",
    ],
}


def test_exports_resolve_to_their_modules_objects():
    listed = dir(dh)
    for module, names in EXPORTS.items():
        assert module in listed and getattr(dh, module) is import_module(f"dirhom.{module}")
        for name in names:
            assert getattr(dh, name) is getattr(import_module(f"dirhom.{module}"), name), name
            assert name in listed, name
    with pytest.raises(AttributeError, match="no attribute 'les_relatives'"):
        dh.les_relatives


def test_moved_errors_keep_their_old_homes():
    from dirhom import exactla, exactseq

    assert exactseq.SequenceError is exactla.SequenceError is dh.SequenceError
    assert exactseq.ExactnessError is exactla.ExactnessError is dh.ExactnessError

"""The dirhom names that the benchmark's tracer and cache probe reach into.

`benchmark/tracer.py` wraps functions, methods and private helpers by
name, and `benchmark/measure.py` reads the sizes of the module-level
caches.  A rename that breaks either would otherwise show only when the
benchmark runs with ``--trace 1``.
"""

import json
import sys
from pathlib import Path

import dirhom as dh

from conftest import make_domino

BENCH = Path(__file__).resolve().parents[1] / "benchmark"


def test_tracer_installs_and_caches_are_readable():
    sys.path.insert(0, str(BENCH))
    try:
        import measure
        from tracer import Tracer
    finally:
        sys.path.remove(str(BENCH))
    tracer = Tracer()
    tracer.install()
    try:
        d2 = dh.directed_disc(2)
        dh.les_relative(d2, dh.SubsetSpec(d2, frozenset(dh.directed_sphere(1).all_cells())))
        dom = make_domino()
        dh.mayer_vietoris(dom, *(dh.SubsetSpec(dom, dh.face_closure(dom, [square]))
                                 for square in ("s1", "s2")))
    finally:
        tracer.uninstall()
    traced = {tracer.names[span[0]] for span in tracer.spans}
    # the quotient constructors are wrapped from their own class bodies
    assert {"homology.homology_of", "scalars.ResolvedBimodule._reduce",
            "exactseq.QuotientComplex.__init__", "exactseq._LeftQuotient.__init__"} <= traced
    assert set(measure.cache_sizes()) == {
        "cache.catalog_entries", "cache.quotient_entries", "cache.left_quotient_entries"}


def test_table_init_spans_the_action_check(monkeypatch):
    """`homology.action_check_s` is the `HomologyTable.__init__` span minus
    its `homology_of` children, so the check must run inside `__init__`."""
    from time import perf_counter

    from dirhom import homology

    sys.path.insert(0, str(BENCH))
    try:
        from tracer import Tracer
    finally:
        sys.path.remove(str(BENCH))
    ran = []
    check = homology.HomologyTable._verify_actions_are_chain_maps

    def timed(self):
        t0 = perf_counter()
        check(self)
        ran.append((t0, perf_counter()))

    monkeypatch.setattr(homology.HomologyTable, "_verify_actions_are_chain_maps", timed)
    tracer = Tracer()
    tracer.install()
    try:
        d2 = dh.directed_disc(2)
        dh.HomologyTable(dh.build_complex(d2), d2)
    finally:
        tracer.uninstall()
    spans = [(tracer.names[idx], t0, t1, parent) for idx, t0, t1, parent, _, _ in tracer.spans]
    tables = [k for k, span in enumerate(spans) if span[0] == "homology.HomologyTable.__init__"]
    assert len(tables) == 1 and len(ran) == 1
    _, t0, t1, _ = spans[tables[0]]
    assert t0 <= ran[0][0] and ran[0][1] <= t1
    children = [span for span in spans if span[0] == "homology.homology_of"]
    assert children and all(span[3] == tables[0] for span in children)


def test_comparison_spans_nest_and_hold_no_table():
    """`ez.setting_s` times `TensorSetting.build`, in which the three
    complexes are built, and `ez.comparison_s` and `ez.kunneth_s` time the
    two reports, which read ranks and build no homology table."""
    sys.path.insert(0, str(BENCH))
    try:
        from tracer import Tracer
    finally:
        sys.path.remove(str(BENCH))
    tracer = Tracer()
    tracer.install()
    try:
        d2, s1 = dh.directed_disc(2), dh.directed_sphere(1)
        st = dh.TensorSetting.build(d2, s1)
        assert dh.tensor_comparison_report(d2, s1, setting=st).all_ok
        assert dh.kunneth_report(d2, s1, setting=st).identity_holds
    finally:
        tracer.uninstall()
    names = [tracer.names[span[0]] for span in tracer.spans]
    assert {"ez.tensor_comparison_report", "ez.kunneth_report",
            "ez.TensorSetting.build"} <= set(names)
    setting = names.index("ez.TensorSetting.build")
    builds = [span for name, span in zip(names, tracer.spans)
              if name == "cubechain.build_complex"]
    assert len(builds) == 3 and all(span[3] == setting for span in builds)
    assert not {"homology.HomologyTable.__init__", "homology.homology_of"} & set(names)


def test_pairs_reduced_counts_the_pairs_sized(monkeypatch):
    """`scalars.pairs_reduced` counts one pair per `_reduce` call that
    reduces, so it equals the number of (bimodule, pair) whose dimension
    was asked for, however the reductions share their sweeps."""
    from dirhom import scalars

    sys.path.insert(0, str(BENCH))
    try:
        from tracer import Tracer, layer_metrics
    finally:
        sys.path.remove(str(BENCH))
    asked, kept = set(), []     # kept alive, so no two bimodules share an id
    dim = scalars.ResolvedBimodule.dim

    def counted(res, s, e):
        kept.append(res)
        asked.add((id(res), s, e))
        return dim(res, s, e)

    monkeypatch.setattr(scalars.ResolvedBimodule, "dim", counted)
    tracer = Tracer()
    tracer.install()
    try:
        d2 = dh.directed_disc(2)
        dh.les_relative(d2, dh.SubsetSpec(d2, frozenset(dh.directed_sphere(1).all_cells())))
    finally:
        tracer.uninstall()
    assert asked
    assert layer_metrics(tracer.names, tracer.spans, 1)["scalars.pairs_reduced"] == len(asked)


def test_catalog_probe_reads_a_cli_verb(tmp_path):
    """A CLI verb clears the chain catalogs when it returns, so
    `cache.catalog_entries` reads 0 after it; within the verb the tracer's
    catalog probe still tells an enumeration from a cache hit, and `mv` on
    the domino enumerates each of its four sets once."""
    from dirhom.cli import main

    sys.path.insert(0, str(BENCH))
    try:
        import measure
        from tracer import Tracer
    finally:
        sys.path.remove(str(BENCH))
    dom = make_domino()
    dh.save(dom, tmp_path / "domino.json")
    parts = []
    for square in ("s1", "s2"):
        parts.append(tmp_path / f"{square}.json")
        parts[-1].write_text(json.dumps(sorted(dh.face_closure(dom, [square]))))
    tracer = Tracer()
    tracer.install()
    try:
        code, out, error = measure.run_verb(main, ["mv", str(tmp_path / "domino.json"),
                                                   *map(str, parts)])
    finally:
        tracer.uninstall()
    assert (code, error) == (0, None) and "exact at every node" in out
    chains = [span[5] for span in tracer.spans
              if tracer.names[span[0]] == "cubechain.chain_catalog"]
    assert sum(1 for n in chains if n) == 4 and 0 in chains
    assert measure.cache_sizes()["cache.catalog_entries"] == 0

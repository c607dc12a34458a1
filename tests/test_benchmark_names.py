"""The dirhom names that the benchmark's tracer and cache probe reach into.

`benchmark/tracer.py` wraps functions, methods and private helpers by
name, and `benchmark/measure.py` reads the sizes of the module-level
caches.  A rename that breaks either would otherwise show only when the
benchmark runs with ``--trace 1``.
"""

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

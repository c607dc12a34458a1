"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
All equalities are exact (integer dimensions over exact fields); the only
tolerances are the stated wall-clock budgets.
"""

import time

import pytest
from click.testing import CliRunner

import dirhom as dh
import dirhom.cli
from dirhom.cubechain import build_complex, chain_catalog, max_chain_degree
from dirhom.exactla import PrimeField, QQ
from dirhom.homology import homology_of
from dirhom.precubical import SubsetSpec, sub, tensor
from dirhom.scalars import (
    extend_presented, path_algebra, present_chain_module, re_present,
)
from dirhom.exactseq import (
    check_relative_pair, good_cover_check, les_relative, mayer_vietoris,
)
from dirhom.ez import (
    TensorSetting, kunneth_report, swap_steps, swappable_positions,
    tensor_comparison_report, zero_chain_count_report,
)

from conftest import corpus, make_domino, sequences_of_dimension


def verdict(num, ok, text):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {text}")
    assert ok, f"criterion {num}: {text}"


def test_criterion_1_structural_suite():
    t0 = time.monotonic()
    sets = corpus()
    assert len(sets) >= 20
    for x in sets:
        cx = build_complex(x)      # asserts d.d = 0 on every component
        cx.check_boundary_square()
    elapsed = time.monotonic() - t0
    verdict(1, elapsed < 10.0,
            f"boundary square vanishes on {len(sets)} corpus sets "
            f"({elapsed:.2f}s < 10s)")


def test_criterion_2_disc_sphere_values_and_les():
    t0 = time.monotonic()
    d2 = dh.directed_disc(2)
    s1 = dh.directed_sphere(1)
    cx_d = build_complex(d2)
    cx_s = build_complex(s1)
    pair = ("00", "11")
    ok = homology_of(cx_d, 0, pair).dim == 1
    ok &= homology_of(cx_s, 0, pair).dim == 2
    spec = SubsetSpec(d2, frozenset(s1.all_cells()))
    res = les_relative(d2, spec)
    ok &= res.rel_table[(0, pair)] == 0
    ok &= res.rel_table[(1, pair)] == 1
    ok &= res.sequence is not None and res.sequence.all_exact
    alt = (res.rel_table[(0, pair)] - res.x_table[(0, pair)]
           + res.ext_table[(0, pair)] - res.rel_table[(1, pair)])
    ok &= alt == 0
    elapsed = time.monotonic() - t0
    ok &= elapsed < 1.0
    verdict(2, ok,
            f"H0(D2)=1, H0(S1)=2, H(D2,S1)=(0,1), alternating sum 0, "
            f"sequence exact ({elapsed:.2f}s < 1s)")


def test_criterion_3_degree_one_convention():
    d2 = dh.directed_disc(2)
    s1 = dh.directed_sphere(1)
    pair = ("00", "11")
    ok = homology_of(build_complex(d2), 1, pair).dim == 0
    ok &= homology_of(build_complex(s1), 1, pair).dim == 0
    runner = CliRunner()
    with runner.isolated_filesystem():
        dh.save(d2, "d2.json")
        r = runner.invoke(dh.cli.main, ["homology", "d2.json", "--pair", "00,11"])
        ok &= "H1(00,11) = 0" in r.output
        ok &= "unshifted" in r.output
    verdict(3, ok, "H1(D2)=H1(S1)=0 under the unshifted grading; "
                   "report prints the convention caveat")


def nested_triples():
    """Deterministic Z <= Y <= X triples over the corpus."""
    out = []
    d2 = dh.directed_disc(2)
    s1_cells = frozenset(dh.directed_sphere(1).all_cells())
    y1, _ = sub(d2, SubsetSpec(d2, s1_cells))
    out.append((d2, s1_cells, dh.face_closure(y1, ["a0"])))
    out.append((d2, s1_cells, dh.face_closure(y1, ["00"])))
    dom = make_domino()
    left = dh.face_closure(dom, ["s1"])
    y2, _ = sub(dom, SubsetSpec(dom, left))
    out.append((dom, left, dh.face_closure(y2, ["v1"])))
    out.append((dom, left, dh.face_closure(y2, ["00"])))
    d3 = dh.directed_disc(3)
    face = dh.face_closure(d3, ["aa0"])
    yf, _ = sub(d3, SubsetSpec(d3, face))
    out.append((d3, face, dh.face_closure(yf, ["a00"])))
    return out


def test_criterion_4_relative_pairs_compose():
    exceptions = 0
    checked = 0
    for x, y_cells, z_cells in nested_triples():
        y, inc_y = sub(x, SubsetSpec(x, y_cells))
        z, inc_z = sub(y, SubsetSpec(y, z_cells))
        rep_xy = check_relative_pair(x, SubsetSpec(x, y_cells))
        rep_yz = check_relative_pair(y, SubsetSpec(y, z_cells))
        rep_xz = check_relative_pair(x, SubsetSpec(x, z_cells))
        if not (rep_xy.accepted and rep_yz.accepted):
            continue
        checked += 1
        if not rep_xz.accepted:
            exceptions += 1
            continue
        alg_x = path_algebra(x)
        alg_y = path_algebra(y)
        for i in range(max_chain_degree(z) + 1):
            m = present_chain_module(z, i)
            one = extend_presented(m, dh.compose(inc_y, inc_z), alg_x).resolve()
            mid = extend_presented(m, inc_z, alg_y).resolve()
            two = extend_presented(re_present(mid), inc_y, alg_x).resolve()
            for s in x.vertices:
                for e in x.vertices:
                    if one.dim(s, e) != two.dim(s, e):
                        exceptions += 1
    verdict(4, checked >= 3 and exceptions == 0,
            f"relative pairs compose with equal two-step extension dims "
            f"({checked} nested triples, {exceptions} exceptions)")


def test_criterion_5_mayer_vietoris_domino():
    t0 = time.monotonic()
    dom = make_domino()
    s1 = SubsetSpec(dom, dh.face_closure(dom, ["s1"]))
    s2 = SubsetSpec(dom, dh.face_closure(dom, ["s2"]))
    cover = good_cover_check(dom, s1, s2)
    ok = cover.good
    res = mayer_vietoris(dom, s1, s2)
    ok &= res.sequence is not None and res.sequence.all_exact
    elapsed = time.monotonic() - t0
    ok &= elapsed < 5.0
    verdict(5, ok, f"domino excision isomorphism and exact Mayer-Vietoris "
                   f"sequence ({elapsed:.2f}s < 5s)")


def test_criterion_6_tensor_comparison():
    t0 = time.monotonic()
    k = dh.segment()
    s1 = dh.directed_sphere(1)
    d2 = dh.directed_disc(2)
    ok = True
    for x, y in [(k, k), (s1, s1), (d2, k)]:
        rep = tensor_comparison_report(x, y, max_degree=2)
        ok &= rep.all_ok
    elapsed = time.monotonic() - t0
    ok &= elapsed < 10.0
    verdict(6, ok, f"comparison maps verified for (K,K), (S1,S1), (D2,K) "
                   f"({elapsed:.2f}s < 10s)")


def test_criterion_7_kunneth():
    s1 = dh.directed_sphere(1)
    st = TensorSetting.build(s1, s1)
    rep = kunneth_report(s1, s1, setting=st)
    start = st.tx.pair_id("00", "00")
    end = st.tx.pair_id("11", "11")
    ok = rep.identity_holds
    ok &= rep.product_dims[(1, (start, end))] == 0
    for n in (1, 2, 3):
        dn = dh.directed_disc(n)
        cx = build_complex(dn)
        pair = ("0" * n, "1" * n)
        ok &= homology_of(cx, 0, pair).dim == 1
        for i in (1, 2):
            ok &= homology_of(cx, i, pair).dim == 0
    k = dh.segment()
    for x, y in [(k, k), (k, dh.directed_disc(2))]:
        ok &= kunneth_report(x, y).identity_holds
    verdict(7, ok, "H1(S1xS1)(start,end)=0; discs concentrated in degree 0; "
                   "dimension identity at every pair")


def test_criterion_8_obstruction_report():
    k = dh.segment()
    rep = zero_chain_count_report(k, k)
    ok = rep.tensor_side_dim0 == 9
    ok &= rep.product_chain_dim0 == 10
    ok &= rep.product_chain_dim0 != rep.tensor_side_dim0
    ok &= rep.product_chain_dim1 == 1
    ok &= "eleven" in rep.note
    verdict(8, ok, "degree-0 counts 10 vs 9 (flagged against the quoted "
                   "eleven), degree-1 count 1")


def test_criterion_9_lemma_suite():
    from test_cubechain import count_realization_morphisms
    ok = True
    # uniqueness of the full-degree chain in every realization of dim <= 2
    for dim in (0, 1, 2):
        for seq in sequences_of_dimension(dim, max_blocks=3):
            r = dh.realization(seq)
            chains = dh.enumerate_chains(r, dim, r.start, r.end)
            ok &= len(chains) == 1 and chains[0].type == seq
    # chain/morphism bijection on small realizations as targets
    targets = [dh.realization(seq) for dim in (1, 2)
               for seq in sequences_of_dimension(dim, max_blocks=2)]
    targets = [t for t in targets if sum(t.cell_count()) <= 30]
    assert targets
    for x in targets:
        for i in (0, 1, 2):
            for s in x.vertices:
                for e in x.vertices:
                    chains = dh.enumerate_chains(x, i, s, e)
                    ok &= len(chains) == count_realization_morphisms(x, i, s, e)
    # shuffle uniqueness through the product structure
    k = dh.segment()
    s1 = dh.directed_sphere(1)
    for x, y in [(k, k), (k, s1)]:
        t = tensor(x, y)
        for (i, s, e), chains in sorted(chain_catalog(t).items()):
            for c in chains:
                cx, cy = dh.project_shuffle(t, c)
                ok &= dh.enumerate_shuffles(t, cx, cy, i).count(c) == 1
    # swap differences are boundaries on both products
    for x, y in [(k, k), (s1, s1)]:
        st = TensorSetting.build(x, y)
        swaps = 0
        for (i, s, e), chains in sorted(chain_catalog(st.tx).items()):
            if i != 0:
                continue
            h = homology_of(st.cxp, 0, (s, e))
            for c in chains:
                for pos in swappable_positions(st.tx, c):
                    swaps += 1
                    other = swap_steps(st.tx, c, pos)
                    v = list(st.cxp.vector_of(c, 0, s, e))
                    v[st.cxp.chain_index(other)] = v[st.cxp.chain_index(other)] - QQ.one
                    ok &= h.is_boundary(tuple(v))
        ok &= swaps > 0
    verdict(9, ok, "uniqueness, morphism-count bijections, shuffle "
                   "uniqueness and swap-invariance all hold")


def test_criterion_10_cross_field_determinism():
    t0 = time.monotonic()
    fp = PrimeField(1009)
    mismatches = 0
    for x in corpus():
        cq = build_complex(x, None, QQ)
        cp = build_complex(x, None, fp)
        for pair in cq.pairs():
            for i in range(cq.top_degree + 1):
                if homology_of(cq, i, pair).dim != homology_of(cp, i, pair).dim:
                    mismatches += 1
    elapsed = time.monotonic() - t0
    verdict(10, mismatches == 0,
            f"homology dimensions identical over Q and F_1009 on the full "
            f"corpus ({elapsed:.2f}s, {mismatches} mismatches)")


def test_scale_guard_realization_442_over_f1009():
    # 1,348 components, the largest with 5,664 chains: each differential
    # must be reduced once, not eliminated twice per component
    r = dh.realization([4, 4, 2])
    cx = build_complex(r, None, PrimeField(1009))
    t0 = time.monotonic()
    table = dh.HomologyTable(cx, r)
    elapsed = time.monotonic() - t0
    nonzero = {k: h.dim for k, h in table.entries.items() if h.dim}
    ok = len(table.entries) == 1348
    ok &= max(cx.dim(*k) for k in cx.components_with_chains) == 5664
    ok &= len(nonzero) == 484 and all(i == 0 and d == 1 for (i, _, _), d in nonzero.items())
    ok &= elapsed < 6.0
    print(f"[{'PASS' if ok else 'FAIL'}] scale guard: HomologyTable of realization(4,4,2) "
          f"over F_1009, {len(nonzero)} nonzero entries, all H_0 = 1 ({elapsed:.2f}s < 6s)")
    assert ok


def test_scale_guard_cohomology_realization_442_over_f1009():
    # every cohomology dimension the cohomology verb lists, from the ranks of
    # coboundaries of up to 5,664 x 4,080: one reduction of the rows each
    r = dh.realization([4, 4, 2])
    t0 = time.monotonic()
    cx = build_complex(r, None, PrimeField(1009))
    dual = dh.cochain_dual(cx)
    dims = {(i, (s, e)): dual.cohomology_dim(i, s, e) for s in r.vertices
            for e in r.vertices for i in range(cx.top_degree + 1)}
    elapsed = time.monotonic() - t0
    ok = all(d == homology_of(cx, *k).dim for k, d in dims.items())
    ok &= elapsed < 8.0
    print(f"[{'PASS' if ok else 'FAIL'}] scale guard: cohomology of realization(4,4,2) over "
          f"F_1009, {len(dims)} dimensions equal to homology ({elapsed:.2f}s < 8s)")
    assert ok


def test_scale_guard_les_relative_d6_s5():
    # 7,290 extension dimensions over Q, in the pair check and the extension
    # comparison: each is a triple count minus a rank, no quotient is built
    d6 = dh.directed_disc(6)
    spec = SubsetSpec(d6, frozenset(dh.directed_sphere(5).all_cells()))
    t0 = time.monotonic()
    res = les_relative(d6, spec)
    elapsed = time.monotonic() - t0
    ok = res.pair_report.accepted and res.extension_commutes
    ok &= res.sequence is not None and res.sequence.all_exact
    ok &= elapsed < 10.0
    print(f"[{'PASS' if ok else 'FAIL'}] scale guard: les_relative(D6, S5) over Q accepted "
          f"and exact ({elapsed:.2f}s < 10s)")
    assert ok

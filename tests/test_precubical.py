import json
import math
import random

import pytest

import dirhom as dh
from dirhom.precubical import (
    FormatError, MorphismError, PcMorphism, PrecubicalError, PrecubicalSet,
    SubsetSpec, compose, face_closure, from_json, sub, tensor, tensor_morphism,
)


class TestValidate:
    def test_segment_ok(self, K):
        assert K.validate() == []
        assert K.edge_source("a") == "0" and K.edge_target("a") == "1"

    def test_self_loop_is_cycle_violation(self):
        x = PrecubicalSet("loop", [["0"], ["a"]], {"a": (["0"], ["0"])})
        kinds = [v.kind for v in x.validate()]
        assert kinds == ["cycle"]

    def test_broken_square_identity(self):
        # a square whose face bookkeeping does not commute
        vs = ["p", "q", "r", "s"]
        faces = {
            "e1": (["p"], ["q"]), "e2": (["p"], ["r"]),
            "e3": (["q"], ["s"]), "e4": (["r"], ["s"]),
            # d1^0=e2, d1^1=e3 (good so far), d2^0=e1, d2^1 wrong on purpose
            "sq": ((["e2", "e1"]), (["e3", "e1"])),
        }
        x = PrecubicalSet("bad", [vs, ["e1", "e2", "e3", "e4"], ["sq"]], faces)
        kinds = {v.kind for v in x.validate()}
        assert "identity" in kinds

    def test_validate_random_cubes(self):
        for n in range(4):
            assert dh.standard_cube(n).validate() == []


class TestStandardCube:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_cell_counts_formula(self, n):
        x = dh.standard_cube(n)
        for k in range(n + 1):
            expected = math.comb(n, k) * 2 ** (n - k)
            assert len(x.cells_of_dim(k)) == expected

    def test_square_counts(self):
        assert dh.standard_cube(2).cell_count() == (4, 4, 1)

    def test_cube_counts(self):
        assert dh.standard_cube(3).cell_count() == (8, 12, 6, 1)

    def test_face_projection(self):
        x = dh.standard_cube(2)
        assert x.face("**", 1, 0) == "0*"
        assert x.face("**", 2, 1) == "*1"


class TestDiscSphere:
    def test_disc2(self, D2):
        assert D2.cell_count() == (4, 4, 1)
        assert D2.validate() == []

    def test_sphere1(self, S1):
        assert S1.cell_count() == (4, 4)
        assert S1.validate() == []

    def test_sphere2(self, S2):
        assert S2.cell_count() == (8, 12, 6)
        assert S2.validate() == []

    def test_disc1_matches_segment(self, K):
        d1 = dh.directed_disc(1)
        assert d1.cell_count() == K.cell_count()
        assert set(d1.all_cells()) == {"0", "1", "a"}

    def test_bad_params(self):
        with pytest.raises(PrecubicalError):
            dh.directed_disc(0)


class TestRealization:
    def test_122_counts(self):
        r = dh.realization([1, 2, 2])
        assert r.cell_count() == (8, 9, 2)
        assert r.validate() == []
        assert sum(n - 1 for n in r.sequence) == 2

    def test_empty_sequence_is_point(self):
        r = dh.realization([])
        assert r.cell_count() == (1,)
        assert r.start == r.end

    def test_single_block_matches_cube(self):
        for n in (1, 2, 3):
            r = dh.realization([n])
            assert r.cell_count() == dh.standard_cube(n).cell_count()
            assert r.validate() == []

    def test_one_top_cell_per_block(self):
        seq = [2, 1, 3]
        r = dh.realization(seq)
        for k, n in enumerate(seq, start=1):
            own_top = [c for c in r.cells_of_dim(n) if c.startswith(f"b{k}.")
                       and c.count("*") == n]
            assert len(own_top) == 1
        assert r.validate() == []

    def test_endpoints_are_extremes(self):
        r = dh.realization([2, 2])
        assert r.start in r.source_vertices()
        assert r.end in r.sink_vertices()

    def test_bad_entry(self):
        with pytest.raises(PrecubicalError):
            dh.realization([1, 0])


class TestTensor:
    def test_k_tensor_k(self, K):
        t = tensor(K, K)
        assert t.cell_count() == (4, 4, 1)
        assert set(t.cells_of_dim(1)) == {"(a,0)", "(a,1)", "(0,a)", "(1,a)"}
        assert t.cells_of_dim(2) == ("(a,a)",)
        assert t.validate() == []

    def test_point_unit(self, K):
        pt = dh.standard_cube(0)
        t = tensor(pt, K)
        assert t.cell_count() == K.cell_count()

    def test_triple_tensor_matches_cube_counts(self, K):
        t = tensor(K, tensor(K, K))
        assert t.cell_count() == dh.standard_cube(3).cell_count()

    def test_tensor_associative_counts(self, K, S1):
        a = tensor(tensor(K, S1), K)
        b = tensor(K, tensor(S1, K))
        assert a.cell_count() == b.cell_count()

    def test_tensor_of_acyclic_is_acyclic(self, K, S1, D2):
        rng = random.Random(3)
        pool = [K, S1, D2, dh.realization([1, 2])]
        for _ in range(6):
            x, y = rng.choice(pool), rng.choice(pool)
            t = tensor(x, y)
            assert t.validate() == []
            assert t.is_acyclic()

    def test_face_rule(self, K):
        t = tensor(K, K)
        assert t.face("(a,a)", 1, 0) == "(0,a)"
        assert t.face("(a,a)", 2, 1) == "(a,1)"


class TestSub:
    def test_sphere_inside_disc(self, D2, S1):
        spec = SubsetSpec(D2, frozenset(S1.all_cells()))
        child, inc = sub(D2, spec)
        assert child.cell_count() == (4, 4)
        assert inc.source is child and inc.target is D2

    def test_single_vertex(self, D2):
        child, inc = sub(D2, SubsetSpec(D2, frozenset(["00"])))
        assert child.cell_count() == (1,)

    def test_not_face_closed_rejected(self, D2):
        with pytest.raises(PrecubicalError):
            sub(D2, SubsetSpec(D2, frozenset(["aa"])))

    def test_face_closure(self, D2):
        sel = face_closure(D2, ["aa"])
        assert sel == frozenset(D2.all_cells())


class TestMorphisms:
    def test_identity_compose(self, D2):
        f = PcMorphism.identity(D2)
        assert compose(f, f).mapping == f.mapping

    def test_inclusion_composition(self, D2, S1):
        spec1 = SubsetSpec(D2, frozenset(S1.all_cells()))
        y, inc = sub(D2, spec1)
        edge_cells = face_closure(y, ["a0"])
        z, inc2 = sub(y, SubsetSpec(y, edge_cells))
        comp = compose(inc, inc2)
        assert comp.source is z and comp.target is D2
        assert comp("a0") == "a0"

    def test_not_injective_on_vertices_rejected(self, K):
        pt = dh.standard_cube(0)
        two = PrecubicalSet("two", [["x", "y"]], {})
        with pytest.raises(MorphismError):
            PcMorphism(two, pt, {"x": "v", "y": "v"})

    def test_face_commutation_required(self, K, D2):
        with pytest.raises(MorphismError):
            PcMorphism(K, D2, {"0": "00", "1": "11", "a": "a0"})

    def test_tensor_morphism(self, K, D2, S1):
        spec = SubsetSpec(D2, frozenset(S1.all_cells()))
        y, inc = sub(D2, spec)
        ty = tensor(y, y)
        td = tensor(D2, D2)
        f = tensor_morphism(inc, inc, ty, td)
        assert f(ty.pair_id("a0", "00")) == td.pair_id("a0", "00")


class TestJson:
    def test_round_trip(self, D2):
        assert from_json(D2.to_json()).to_json() == D2.to_json()

    def test_unknown_top_key_rejected(self, K):
        doc = K.to_dict()
        doc["extra"] = 1
        with pytest.raises(FormatError):
            dh.precubical.from_dict(doc)

    def test_unknown_face_key_rejected(self, K):
        doc = K.to_dict()
        doc["faces"]["a"]["d2"] = []
        with pytest.raises(FormatError):
            dh.precubical.from_dict(doc)

    def test_nonconsecutive_dims_rejected(self, K):
        doc = K.to_dict()
        doc["cells"]["3"] = []
        with pytest.raises(FormatError):
            dh.precubical.from_dict(doc)

    def test_wrong_face_arity_rejected(self, K):
        doc = K.to_dict()
        doc["faces"]["a"]["d0"] = []
        with pytest.raises(FormatError):
            dh.precubical.from_dict(doc)

    def test_malformed_json(self):
        with pytest.raises(FormatError):
            from_json("{not json")

    def test_padded_dimension_key_rejected(self, K):
        doc = K.to_dict()
        doc["cells"]["01"] = doc["cells"].pop("1")
        with pytest.raises(FormatError):
            dh.precubical.from_dict(doc)

    def test_non_string_face_id_rejected(self, K):
        doc = K.to_dict()
        doc["faces"]["a"]["d0"] = [["0"]]
        with pytest.raises(FormatError):
            dh.precubical.from_dict(doc)

import json

import pytest

from sepcat import presets
from sepcat import interchange as io
from sepcat.exactalg import Field, Matrix, QQ
from sepcat.lincat import linearize, validate_category
from sepcat.cmod import canonical_bimodule, kernel_of, random_left_module, tensor_square, ShortExactSeq
from sepcat.separability import reduce_family, solve_separability, verify_family
from test_lincat import GENERATOR_PRESETS


def roundtrip(doc):
    return json.loads(json.dumps(doc))


ROUND_TRIP_CASES = [
    pytest.param(lambda seed=seed: presets.random_presentation(seed), Field(5) if seed % 2 else QQ, id=str(seed))
    for seed in range(8)
] + [
    pytest.param(GENERATOR_PRESETS[name], k, id=f"{name}-{k}")
    for name in ("G3(Z3)", "A6", "crown")
    for k in (QQ, Field(2), Field(7))
]

# a table that is total and unital but not associative: (a.a).a = a, a.(a.a) = e
NON_ASSOCIATIVE = {
    "objects": ["x"],
    "morphisms": [{"name": n, "from": "x", "to": "x"} for n in ("e", "a", "b")],
    "identity": {"x": "e"},
    "composition": [
        {"g": "a", "f": "a", "result": "b"},
        {"g": "a", "f": "b", "result": "e"},
        {"g": "b", "f": "a", "result": "a"},
        {"g": "b", "f": "b", "result": "a"},
    ],
}



def unknown_morphism(entry: dict) -> dict:
    """A one-object presentation whose composition table has the given
    entry, which names the morphism zz that it does not declare."""
    return {
        "objects": ["x"],
        "morphisms": [{"name": "e", "from": "x", "to": "x"}],
        "identity": {"x": "e"},
        "composition": [entry],
    }


class TestCategoryFormat:
    @pytest.mark.parametrize("make,k", ROUND_TRIP_CASES)
    def test_round_trip(self, make, k):
        c = linearize(make(), k)
        c2 = io.category_from_json(roundtrip(io.category_to_json(c)))
        assert c2.objects == c.objects
        assert c2.hom_basis == c.hom_basis
        assert c2.comp_table == c.comp_table
        assert c2.identity == c.identity
        assert validate_category(c2).ok

    def test_duplicate_labels_rejected(self):
        doc = {
            "field": "Q",
            "objects": ["x", "y"],
            "homs": [
                {"from": "x", "to": "x", "basis": ["e"]},
                {"from": "y", "to": "y", "basis": ["e"]},
            ],
            "identity": {"x": {"e": "1"}, "y": {"e": "1"}},
            "composition": [],
        }
        with pytest.raises(ValueError):
            io.category_from_json(doc)

    def test_unknown_label_in_identity_rejected(self):
        doc = {
            "field": "Q",
            "objects": ["x"],
            "homs": [{"from": "x", "to": "x", "basis": ["e"]}],
            "identity": {"x": {"zz": "1"}},
            "composition": [],
        }
        with pytest.raises(ValueError):
            io.category_from_json(doc)


class TestPresentationFormat:
    @pytest.mark.parametrize("seed", range(8))
    def test_round_trip(self, seed):
        p = presets.random_presentation(seed)
        p2 = io.presentation_from_json(roundtrip(io.presentation_to_json(p)))
        assert p2.objects == p.objects
        assert p2.morphisms == p.morphisms
        assert p2.identity == p.identity
        assert p2.composition == p.composition

    def test_non_associative_rejected(self):
        with pytest.raises(ValueError, match="invalid presentation: associativity fails on triple"):
            io.presentation_from_json(NON_ASSOCIATIVE)

    @pytest.mark.parametrize(
        "entry",
        [
            {"g": "zz", "f": "e", "result": "e"},
            {"g": "e", "f": "zz", "result": "e"},
            {"g": "e", "f": "e", "result": "zz"},
        ],
    )
    def test_unknown_morphism_in_composition_rejected(self, entry):
        with pytest.raises(ValueError, match="names unknown morphism 'zz'"):
            io.presentation_from_json(unknown_morphism(entry))


class TestModuleFormats:
    def test_bimodule_round_trip(self, z2_over_q):
        m = canonical_bimodule(z2_over_q)
        m2 = io.bimodule_from_json(z2_over_q, roundtrip(io.bimodule_to_json(m)))
        assert m2 == m

    def test_kernel_bimodule_round_trip(self, a2_over_q):
        _, comp_map = tensor_square(a2_over_q)
        ker, _ = kernel_of(comp_map)
        ker2 = io.bimodule_from_json(a2_over_q, roundtrip(io.bimodule_to_json(ker)))
        assert ker2 == ker

    def test_left_module_round_trip(self, z2_over_f2):
        m = random_left_module(z2_over_f2, 5)
        m2 = io.left_module_from_json(z2_over_f2, roundtrip(io.left_module_to_json(m)))
        assert m2 == m

    def test_missing_action_rejected(self, z2_over_q):
        doc = {"spaces": [{"x": "x", "dim": 2}], "action": []}
        with pytest.raises(ValueError):
            io.left_module_from_json(z2_over_q, doc)

    def test_ses_round_trip(self, z2_over_q):
        cxc, comp_map = tensor_square(z2_over_q)
        ker, incl = kernel_of(comp_map)
        ses = ShortExactSeq(ker, cxc, comp_map.target, incl, comp_map)
        ses2 = io.ses_from_json(z2_over_q, roundtrip(io.ses_to_json(ses)))
        assert ses2.m == ses.m and ses2.n == ses.n and ses2.p == ses.p
        assert ses2.i.blocks == ses.i.blocks and ses2.q.blocks == ses.q.blocks

    def test_omitted_map_blocks_read_as_zero(self, z2_over_q):
        cxc, comp_map = tensor_square(z2_over_q)
        ker, incl = kernel_of(comp_map)
        doc = io.ses_to_json(ShortExactSeq(ker, cxc, comp_map.target, incl, comp_map))
        x, y = doc["q"][0]["x"], doc["q"][0]["y"]
        del doc["q"][0]
        doc["i"] = []
        ses = io.ses_from_json(z2_over_q, roundtrip(doc))
        assert ses.i.blocks == {key: Matrix.zeros(QQ, cxc.dims[key], ker.dims[key]) for key in ker.dims}
        assert ses.q.blocks[(x, y)] == Matrix.zeros(QQ, ses.p.dims[(x, y)], cxc.dims[(x, y)])
        assert {key: b for key, b in ses.q.blocks.items() if key != (x, y)} == {
            key: b for key, b in comp_map.blocks.items() if key != (x, y)
        }


class TestCertificateFormat:
    @pytest.mark.parametrize("seed", [0, 2, 6])
    def test_round_trip_preserves_validity(self, seed):
        c = linearize(presets.random_presentation(seed), QQ)
        fam = solve_separability(c)
        if fam is None:
            pytest.skip("not separable")
        fam2 = io.certificate_from_json(c, roundtrip(io.certificate_to_json(c, fam)))
        assert fam2.blocks == fam.blocks
        assert verify_family(c, fam2).ok

    def test_unknown_basis_label_rejected(self, z2_over_q):
        doc = [{"x": "x", "y": "x", "terms": [{"coeff": "1", "u": "nope", "v": "g0"}]}]
        with pytest.raises(ValueError):
            io.certificate_from_json(z2_over_q, doc)

    def test_repeated_terms_accumulate(self, z2_over_q):
        doc = [{"x": "x", "y": "x", "terms": [
            {"coeff": "1/4", "u": "g0", "v": "g0"},
            {"coeff": "1/4", "u": "g0", "v": "g0"},
            {"coeff": "1/2", "u": "g1", "v": "g1"},
        ]}]
        fam = io.certificate_from_json(z2_over_q, doc)
        assert verify_family(z2_over_q, fam).ok


class TestReports:
    def test_cohomology_report_shape(self, z2_over_f2):
        from sepcat.cohomology import build_hm_complex, cohomology_dims

        result = cohomology_dims(build_hm_complex(z2_over_f2, canonical_bimodule(z2_over_f2), 1))
        doc = io.cohomology_report_to_json(result)
        assert doc["budget_exceeded"] is False
        assert doc["degrees"][1] == {"n": 1, "dim_cochain": 4, "rank_d": 2, "dim_H": 2}

    def test_les_report_shape(self, z2_over_q):
        from sepcat.cohomology import les_analysis

        cxc, comp_map = tensor_square(z2_over_q)
        ker, incl = kernel_of(comp_map)
        report = les_analysis(z2_over_q, ShortExactSeq(ker, cxc, comp_map.target, incl, comp_map), 1)
        doc = io.les_report_to_json(report)
        assert all(set(p) == {"position", "incoming_rank", "kernel_dim", "exact"} for p in doc["positions"])
        assert all(p["exact"] for p in doc["positions"])

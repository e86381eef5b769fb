import json
import sys

import pytest
from click.testing import CliRunner

from sepcat import presets
from sepcat import interchange as io
from sepcat.cli import main
from sepcat.cohomology import les_analysis
from sepcat.exactalg import Field, Matrix, QQ
from sepcat.lincat import FiniteCatPresentation, linearize
from sepcat.cmod import (
    Bimodule,
    BimoduleMap,
    ShortExactSeq,
    canonical_bimodule,
    kernel_of,
    representable_left_module,
    tensor_square,
    zero_bimodule,
)
from sepcat.separability import FamilyCheck, module_section, zelinsky_report
from test_interchange import NON_ASSOCIATIVE, unknown_morphism
from test_lincat import interleaved_groupoid


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def files(tmp_path):
    paths = {}

    def write(name, doc):
        p = tmp_path / name
        p.write_text(json.dumps(doc, indent=2))
        paths[name] = str(p)
        return str(p)

    write("z2_over_Q.json", io.category_to_json(linearize(presets.cyclic_group(2), QQ)))
    write("z2_over_F2.json", io.category_to_json(linearize(presets.cyclic_group(2), Field(2))))
    write("a2_over_Q.json", io.category_to_json(linearize(presets.chain_poset(2), QQ)))
    write("z2_pres.json", io.presentation_to_json(presets.cyclic_group(2)))
    write("a2_pres.json", io.presentation_to_json(presets.chain_poset(2)))
    write("d2_pres.json", io.presentation_to_json(presets.discrete_category(2)))
    paths["tmp"] = str(tmp_path)
    return paths


def invoke(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False, standalone_mode=False)
    return result


class TestSeparabilityCommands:
    def test_check_separable(self, runner, files, tmp_path):
        out = str(tmp_path / "cert.json")
        result = runner.invoke(main, ["separability", "check", files["z2_over_Q.json"], "--certificate-out", out])
        assert result.exit_code == 0
        assert "separable: yes" in result.output
        cert = json.loads((tmp_path / "cert.json").read_text())
        assert cert[0]["terms"][0]["coeff"] == "1/2"

    def test_check_over_a_large_prime(self, runner, tmp_path):
        # primality was tested by trial division, for minutes on 2**61 - 1
        cat = tmp_path / "cat.json"
        doc = io.category_to_json(linearize(presets.cyclic_group(1), QQ))
        for p, code in [(2**61 - 1, 0), (2**64 + 13, 2)]:
            cat.write_text(json.dumps({**doc, "field": {"Fp": p}}))
            result = runner.invoke(main, ["separability", "check", str(cat)])
            assert result.exit_code == code
        assert result.stderr.startswith("malformed input: prime fields need p < 2**64")

    def test_check_not_separable(self, runner, files):
        result = runner.invoke(main, ["separability", "check", files["a2_over_Q.json"]])
        assert result.exit_code == 1

    def test_verify_accepts_emitted_certificate(self, runner, files, tmp_path):
        out = str(tmp_path / "cert.json")
        runner.invoke(main, ["separability", "check", files["z2_over_Q.json"], "--certificate-out", out])
        result = runner.invoke(main, ["separability", "verify", files["z2_over_Q.json"], "--certificate", out])
        assert result.exit_code == 0

    def test_verify_reports_residuals(self, runner, files, tmp_path):
        bad = tmp_path / "bad_cert.json"
        bad.write_text(json.dumps([{"x": "x", "y": "x", "terms": [{"coeff": "1", "u": "g0", "v": "g0"}]}]))
        result = runner.invoke(main, ["separability", "verify", files["z2_over_Q.json"], "--certificate", str(bad)])
        assert result.exit_code == 1
        assert "equivariance residual" in result.output


class TestPredicateCommands:
    def test_maschke_separable(self, runner, files):
        result = runner.invoke(main, ["maschke", files["z2_pres.json"], "--field", "Q"])
        assert result.exit_code == 0

    def test_maschke_obstructed(self, runner, files):
        result = runner.invoke(main, ["maschke", files["z2_pres.json"], "--field", "Fp:2"])
        assert result.exit_code == 1
        assert "not invertible" in result.output

    def test_maschke_interleaved_components(self, runner, tmp_path):
        pres = tmp_path / "pres.json"
        pres.write_text(json.dumps(io.presentation_to_json(interleaved_groupoid())))
        result = runner.invoke(main, ["maschke", str(pres), "--field", "Q"])

        def block(x, y, *uv):
            return {"x": x, "y": y, "terms": [{"coeff": c, "u": u, "v": v} for c, u, v in uv]}

        half = "1/2"
        cert = [
            block("a", "a", (half, "g0:0>0", "g0:0>0"), (half, "g1:0>0", "g1:0>0")),
            block("b", "b", ("1", "idb", "idb")),
            block("c", "a", (half, "g0:0>1", "g0:1>0"), (half, "g1:0>1", "g1:1>0")),
        ]
        assert (result.exit_code, result.stderr) == (0, "")
        assert result.stdout == "separable: yes\n" + json.dumps(cert, indent=2) + "\n"

    def test_maschke_rejects_non_groupoid(self, runner, files):
        result = runner.invoke(main, ["maschke", files["a2_pres.json"], "--field", "Q"])
        assert result.exit_code == 2
        assert result.stderr == "malformed input: presentation is not a groupoid\n"

    def test_maschke_linearizes_once(self, runner, tmp_path, monkeypatch):
        calls = []

        def counted(p, k):
            calls.append(k)
            return linearize(p, k)

        for name, module in list(sys.modules.items()):
            if name.startswith("sepcat") and getattr(module, "linearize", None) is linearize:
                monkeypatch.setattr(module, "linearize", counted)
        pres = tmp_path / "z4_pres.json"
        pres.write_text(json.dumps(io.presentation_to_json(presets.cyclic_group(4))))
        result = runner.invoke(main, ["maschke", str(pres), "--field", "Q"])
        assert result.exit_code == 0
        assert calls == [QQ]

    def test_maschke_rejects_non_associative_presentation(self, runner, tmp_path):
        pres = tmp_path / "pres.json"
        pres.write_text(json.dumps(NON_ASSOCIATIVE))
        result = runner.invoke(main, ["maschke", str(pres), "--field", "Q"])
        assert result.exit_code == 2
        assert result.stderr.startswith("malformed input: invalid presentation: associativity fails")

    def test_maschke_names_an_unknown_morphism(self, runner, tmp_path):
        pres = tmp_path / "pres.json"
        pres.write_text(json.dumps(unknown_morphism({"g": "zz", "f": "e", "result": "e"})))
        result = runner.invoke(main, ["maschke", str(pres), "--field", "Q"])
        assert result.exit_code == 2
        assert result.stderr.startswith("malformed input: composition entry (zz,e)=e names unknown morphism 'zz'")

    def test_delta_checks_presentation_laws_once(self, runner, tmp_path, monkeypatch):
        pres = tmp_path / "a3_pres.json"
        pres.write_text(json.dumps(io.presentation_to_json(presets.chain_poset(3))))
        calls = []
        law_check = FiniteCatPresentation._law_violations
        monkeypatch.setattr(FiniteCatPresentation, "_law_violations", lambda p: calls.append(p) or law_check(p))
        result = runner.invoke(main, ["delta", str(pres)])
        assert result.exit_code == 1
        assert len(calls) == 1

    def test_delta_discrete(self, runner, files):
        result = runner.invoke(main, ["delta", files["d2_pres.json"]])
        assert result.exit_code == 0

    def test_delta_chain(self, runner, files):
        result = runner.invoke(main, ["delta", files["a2_pres.json"]])
        assert result.exit_code == 1

    def test_delta_rejects_non_delta(self, runner, files):
        # g1 is an endomorphism other than the identity
        result = runner.invoke(main, ["delta", files["z2_pres.json"]])
        assert result.exit_code == 2
        assert result.stderr == "malformed input: presentation is not a delta category\n"


class TestCohomologyCommands:
    def test_cohomology_modular_group_algebra(self, runner, files):
        result = runner.invoke(
            main, ["cohomology", files["z2_over_F2.json"], "--bimodule", "canonical", "--max-degree", "1"]
        )
        assert result.exit_code == 0
        lines = [l for l in result.output.splitlines() if l.startswith("1")]
        assert lines and lines[0].split()[-1] == "2"

    def test_cohomology_budget_exit(self, runner, files, monkeypatch):
        from sepcat.cohomology import build_hm_complex as original

        monkeypatch.setattr("sepcat.cli.build_hm_complex", lambda c, m, d: original(c, m, d, budget=2))
        result = runner.invoke(main, ["cohomology", files["z2_over_Q.json"], "--bimodule", "canonical"])
        assert result.exit_code == 3

    def test_malformed_bimodule_file_is_exit_two(self, runner, files, tmp_path):
        # one changed entry breaks functoriality of the left action of g1
        c = linearize(presets.cyclic_group(3), QQ)
        doc = io.bimodule_to_json(canonical_bimodule(c))
        entry = next(e for e in doc["left_action"] if e["f"] == "g1")
        entry["matrix"][0] = "1"
        bad = tmp_path / "bad_bimodule.json"
        bad.write_text(json.dumps(doc))
        cat = tmp_path / "z3_over_Q.json"
        cat.write_text(json.dumps(io.category_to_json(c)))
        result = runner.invoke(main, ["cohomology", str(cat), "--bimodule", str(bad)])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith(f"malformed input: {bad} is not a valid bimodule: ")
        assert "composition law fails" in result.stderr

    def test_obstruction_exit_codes(self, runner, files):
        assert runner.invoke(main, ["obstruction", files["z2_over_Q.json"]]).exit_code == 0
        assert runner.invoke(main, ["obstruction", files["a2_over_Q.json"]]).exit_code == 1

    def test_les_kernel_comp(self, runner, files):
        result = runner.invoke(main, ["les", files["z2_over_Q.json"], "--ses", "kernel-comp", "--max-degree", "1"])
        assert result.exit_code == 0
        assert "NO" not in result.output

    def test_les_file_with_invalid_bimodule_is_exit_two(self, runner, files, tmp_path):
        # 0 -> 0 -> N -> N -> 0 is exact, but doubling the left action of g1
        # at y = x breaks N's composition law (g1 . g1) = g0
        c = linearize(presets.cyclic_group(2), QQ)
        canon = canonical_bimodule(c)
        left = dict(canon.left)
        left[("g1", "x")] = left[("g1", "x")].scale(2)
        n = Bimodule(c, canon.dims, left, canon.right)
        zero = zero_bimodule(c)
        i = BimoduleMap(zero, n, {key: Matrix.zeros(QQ, d, 0) for key, d in n.dims.items()})
        q = BimoduleMap(n, n, {key: Matrix.identity(QQ, d) for key, d in n.dims.items()})
        ses = tmp_path / "bad.ses.json"
        ses.write_text(json.dumps(io.ses_to_json(ShortExactSeq(zero, n, n, i, q))))
        result = runner.invoke(main, ["les", files["z2_over_Q.json"], "--ses", str(ses), "--max-degree", "2"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith(f"malformed input: member N of {ses} is not a valid bimodule: ")
        assert "left action at y=x: composition law fails on pair (g1,g1)" in result.stderr


class TestModuleCommands:
    def test_module_split(self, runner, files, tmp_path):
        cert = str(tmp_path / "cert.json")
        runner.invoke(main, ["separability", "check", files["z2_over_Q.json"], "--certificate-out", cert])
        c = linearize(presets.cyclic_group(2), QQ)
        mod = tmp_path / "regular.json"
        mod.write_text(json.dumps(io.left_module_to_json(representable_left_module(c, "x"))))
        result = runner.invoke(
            main,
            ["module", "split", files["z2_over_Q.json"], "--module", str(mod), "--certificate", cert],
        )
        assert result.exit_code == 0
        assert "section_ok: yes" in result.output

    def test_zelinsky(self, runner, files, tmp_path):
        cert = str(tmp_path / "cert.json")
        runner.invoke(main, ["separability", "check", files["z2_over_Q.json"], "--certificate-out", cert])
        result = runner.invoke(main, ["zelinsky", files["z2_over_Q.json"], "--certificate", cert])
        assert result.exit_code == 0
        assert "yes" in result.output

    @pytest.mark.parametrize("k", [QQ, Field(7)], ids=str)
    def test_split_and_zelinsky_read_the_certificate_blocks(self, runner, tmp_path, monkeypatch, k):
        # neither verb decomposes the certificate into rank-one terms
        c = linearize(presets.connected_groupoid(presets.cyclic_group(3), 2), k)
        cat, mod, cert = (str(tmp_path / name) for name in ("cat.json", "mod.json", "cert.json"))
        (tmp_path / "cat.json").write_text(json.dumps(io.category_to_json(c)))
        (tmp_path / "mod.json").write_text(json.dumps(io.left_module_to_json(representable_left_module(c, c.objects[0]))))
        assert runner.invoke(main, ["separability", "check", cat, "--certificate-out", cert]).exit_code == 0
        verbs = [["module", "split", cat, "--module", mod, "--certificate", cert], ["zelinsky", cat, "--certificate", cert]]
        want = [runner.invoke(main, args) for args in verbs]

        def refuse(a):
            raise AssertionError("rank_factor called")

        monkeypatch.setattr("sepcat.separability.rank_factor", refuse)
        for args, before in zip(verbs, want):
            result = runner.invoke(main, args)
            assert (result.exit_code, result.stdout) == (0, before.stdout)


class TestValidateAndLinearize:
    def test_validate_category(self, runner, files):
        assert runner.invoke(main, ["validate", files["z2_over_Q.json"]]).exit_code == 0

    def test_validate_bimodule_needs_category(self, runner, files, tmp_path):
        c = linearize(presets.cyclic_group(2), QQ)
        mod = tmp_path / "canonical.json"
        mod.write_text(json.dumps(io.bimodule_to_json(canonical_bimodule(c))))
        result = runner.invoke(main, ["validate", str(mod)])
        assert result.exit_code == 2
        result = runner.invoke(main, ["validate", str(mod), "--category", files["z2_over_Q.json"]])
        assert result.exit_code == 0

    def test_linearize_round_trip(self, runner, files, tmp_path):
        out = str(tmp_path / "z2f3.json")
        result = runner.invoke(main, ["linearize", files["z2_pres.json"], "--field", "Fp:3", "-o", out])
        assert result.exit_code == 0
        c = io.category_from_json(json.loads((tmp_path / "z2f3.json").read_text()))
        assert c.field == Field(3)

    @pytest.mark.parametrize("with_category", [False, True], ids=["alone", "with-category"])
    @pytest.mark.parametrize("value", ["spaces", 3, [], None], ids=repr)
    def test_file_must_be_a_json_object(self, runner, files, tmp_path, value, with_category):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(value))
        result = runner.invoke(main, ["validate", str(bad)] + (["--category", files["z2_over_Q.json"]] if with_category else []))
        assert result.exit_code == 2
        assert result.stderr == f"malformed input: {bad} is not a JSON object\n"

    def test_malformed_json_is_exit_two(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        result = runner.invoke(main, ["validate", str(bad)])
        assert result.exit_code == 2

    def test_unknown_flag_rejected(self, runner, files):
        result = runner.invoke(main, ["obstruction", files["z2_over_Q.json"], "--frobnicate"])
        assert result.exit_code == 2


def _spoiled(fn, spoil):
    """fn, with spoil applied to each result before it is returned."""

    def wrapped(*args):
        result = fn(*args)
        spoil(result)
        return result

    return wrapped


class TestCrossCheckFailures:
    """A verb whose cross-check fails exits 3 with one stderr line."""

    @pytest.mark.parametrize(
        "verb, target, fake, message",
        [
            pytest.param(*case, id=f"{case[0]}-{case[1]}")
            for case in [
                ("maschke", "solve_separability", lambda c: None, "groupoid criterion disagrees with the solver"),
                ("maschke", "verify_family", lambda c, fam: FamilyCheck(ok=False), "formula certificate does not verify"),
                ("delta", "solve_separability", lambda c: None, "delta criterion disagrees with the solver over Q"),
                ("delta", "verify_family", lambda c, fam: FamilyCheck(ok=False), "discrete certificate does not verify"),
                ("les", "les_analysis", _spoiled(les_analysis, lambda r: setattr(r.positions[0], "exact", False)),
                 "long exact sequence is not exact"),
                ("split", "module_section", _spoiled(module_section, lambda r: setattr(r, "section_ok", False)),
                 "verified certificate produced a bad section"),
                ("zelinsky", "zelinsky_report", _spoiled(zelinsky_report, lambda r: setattr(r.pairs[0], "injective", False)),
                 "a verified certificate gave a non-injective embedding"),
            ]
        ],
    )
    def test_failed_cross_check_is_exit_three(self, runner, files, tmp_path, monkeypatch, verb, target, fake, message):
        cat = files["z2_over_Q.json"]
        cert, mod = str(tmp_path / "cert.json"), tmp_path / "regular.json"
        assert runner.invoke(main, ["separability", "check", cat, "--certificate-out", cert]).exit_code == 0
        regular = representable_left_module(linearize(presets.cyclic_group(2), QQ), "x")
        mod.write_text(json.dumps(io.left_module_to_json(regular)))
        args = {
            "maschke": ["maschke", files["z2_pres.json"], "--field", "Q"],
            "delta": ["delta", files["d2_pres.json"]],
            "les": ["les", cat, "--ses", "kernel-comp", "--max-degree", "1"],
            "split": ["module", "split", cat, "--module", str(mod), "--certificate", cert],
            "zelinsky": ["zelinsky", cat, "--certificate", cert],
        }[verb]
        monkeypatch.setattr(f"sepcat.cli.{target}", fake)
        result = runner.invoke(main, args)
        assert result.exit_code == 3
        assert result.stderr == f"internal cross-check failure: {message}\n"


class TestMalformedInput:
    """Unreadable scalars and wrongly typed JSON members are malformed
    input (exit 2 with a message), never a traceback (exit 1)."""

    @staticmethod
    def assert_malformed(result, needle):
        assert result.exit_code == 2
        assert result.stderr.startswith("malformed input: ")
        assert needle in result.stderr

    @staticmethod
    def write(tmp_path, name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    def z2_doc(self):
        return io.category_to_json(linearize(presets.cyclic_group(2), QQ))

    # each structural fault of a category file, made in the file of Z2 or of
    # the chain x1 < x2 (A2); FinLinCat rejects every one on construction
    @pytest.mark.parametrize(
        "preset,fault,needle",
        [
            ("a2", lambda d: d["homs"][-1].update(basis=["x1<=x1"]), "basis label 'x1<=x1' is not globally unique"),
            ("z2", lambda d: d["homs"].append({"from": "x", "to": "z", "basis": ["h"]}),
             "hom pair (x,z) names unknown objects"),
            ("z2", lambda d: d["composition"].append({"g": "g1", "f": "h", "result": []}),
             "composition entry (g1,h) names unknown labels"),
            ("a2", lambda d: d["composition"].append({"g": "x1<=x2", "f": "x1<=x2", "result": []}),
             "composition entry (x1<=x2,x1<=x2) refers to a non-composable pair"),
            ("a2", lambda d: d["composition"][1].update(result=[{"basis": "x1<=x1", "coeff": "1"}]),
             "composition (x1<=x2,x1<=x1) names 'x1<=x1' outside hom(x1,x2)"),
            ("a2", lambda d: d["identity"].update(x1={"x1<=x2": "1"}), "identity of x1 names 'x1<=x2' outside hom(x1,x1)"),
            ("z2", lambda d: d["identity"].update(y={}), "identity given for unknown object y"),
        ],
        ids=["duplicate-label", "unknown-object", "unknown-label", "non-composable", "result-outside-hom",
             "identity-outside-hom", "identity-of-unknown-object"],
    )
    def test_category_structure_rejected(self, runner, tmp_path, preset, fault, needle):
        doc = io.category_to_json(linearize(presets.cyclic_group(2) if preset == "z2" else presets.chain_poset(2), QQ))
        fault(doc)
        with pytest.raises(ValueError) as exc:
            io.category_from_json(doc)
        assert needle in str(exc.value)
        result = runner.invoke(main, ["validate", self.write(tmp_path, "cat.json", doc)])
        self.assert_malformed(result, needle)

    def test_repeated_result_terms_add_up(self, runner, tmp_path):
        # g1 . g1 = 1/2 g0 + 1/2 g0 = g0
        doc = self.z2_doc()
        (entry,) = [e for e in doc["composition"] if (e["g"], e["f"]) == ("g1", "g1")]
        entry["result"] = [{"basis": "g0", "coeff": "1/2"}, {"basis": "g0", "coeff": "1/2"}]
        assert io.category_from_json(doc).comp_table == linearize(presets.cyclic_group(2), QQ).comp_table
        result = runner.invoke(main, ["validate", self.write(tmp_path, "cat.json", doc)])
        assert (result.exit_code, result.output) == (0, "ok\n")

    def test_zero_denominator_in_category(self, runner, tmp_path):
        doc = self.z2_doc()
        doc["composition"][0]["result"][0]["coeff"] = "1/0"
        result = runner.invoke(main, ["validate", self.write(tmp_path, "cat.json", doc)])
        self.assert_malformed(result, "'1/0'")

    def test_zero_denominator_in_certificate(self, runner, files, tmp_path):
        doc = [{"x": "x", "y": "x", "terms": [{"coeff": "1/0", "u": "g0", "v": "g0"}]}]
        cert = self.write(tmp_path, "cert.json", doc)
        result = runner.invoke(main, ["separability", "verify", files["z2_over_Q.json"], "--certificate", cert])
        self.assert_malformed(result, "'1/0'")

    def test_zero_denominator_in_left_module(self, runner, files, tmp_path):
        doc = io.left_module_to_json(representable_left_module(linearize(presets.cyclic_group(2), QQ), "x"))
        doc["action"][1]["matrix"][1] = "2/0"
        mod = self.write(tmp_path, "mod.json", doc)
        result = runner.invoke(main, ["validate", mod, "--category", files["z2_over_Q.json"]])
        self.assert_malformed(result, "'2/0'")

    def test_zero_denominator_in_bimodule(self, runner, files, tmp_path):
        doc = io.bimodule_to_json(canonical_bimodule(linearize(presets.cyclic_group(2), QQ)))
        doc["right_action"][0]["matrix"][0] = "-1/0"
        mod = self.write(tmp_path, "bimod.json", doc)
        result = runner.invoke(main, ["cohomology", files["z2_over_Q.json"], "--bimodule", mod])
        self.assert_malformed(result, "'-1/0'")

    # the scalar grammar is "n" or "n/d" over Q and "n" over F_p, in ASCII
    # digits; what Fraction or int would also read is malformed
    @pytest.mark.parametrize("text", ["1e3", "1.5", "1_000", " 3 ", "+2"])
    @pytest.mark.parametrize("field", [QQ, Field(7)], ids=str)
    def test_scalar_text_outside_the_grammar(self, runner, tmp_path, field, text):
        doc = io.category_to_json(linearize(presets.cyclic_group(2), field))
        doc["composition"][0]["result"][0]["coeff"] = text
        result = runner.invoke(main, ["validate", self.write(tmp_path, "cat.json", doc)])
        self.assert_malformed(result, f"malformed scalar {text!r}")

    # a JSON number would be read as its binary expansion and true as 1
    NON_TEXT_SCALARS = pytest.mark.parametrize("value", [0.1, True])

    @NON_TEXT_SCALARS
    def test_identity_scalar_must_be_text(self, runner, tmp_path, value):
        doc = self.z2_doc()
        doc["identity"]["x"]["g0"] = value
        result = runner.invoke(main, ["validate", self.write(tmp_path, "cat.json", doc)])
        self.assert_malformed(result, f"scalar must be text, not {value!r}")

    @NON_TEXT_SCALARS
    def test_composition_scalar_must_be_text(self, runner, tmp_path, value):
        doc = self.z2_doc()
        doc["composition"][0]["result"][0]["coeff"] = value
        result = runner.invoke(main, ["validate", self.write(tmp_path, "cat.json", doc)])
        self.assert_malformed(result, f"scalar must be text, not {value!r}")

    @NON_TEXT_SCALARS
    def test_certificate_scalar_must_be_text(self, runner, files, tmp_path, value):
        doc = [{"x": "x", "y": "x", "terms": [{"coeff": value, "u": "g0", "v": "g0"}]}]
        cert = self.write(tmp_path, "cert.json", doc)
        result = runner.invoke(main, ["separability", "verify", files["z2_over_Q.json"], "--certificate", cert])
        self.assert_malformed(result, f"scalar must be text, not {value!r}")

    @NON_TEXT_SCALARS
    def test_matrix_scalar_must_be_text(self, runner, files, tmp_path, value):
        doc = io.left_module_to_json(representable_left_module(linearize(presets.cyclic_group(2), QQ), "x"))
        doc["action"][1]["matrix"][1] = value
        mod = self.write(tmp_path, "mod.json", doc)
        result = runner.invoke(main, ["validate", mod, "--category", files["z2_over_Q.json"]])
        self.assert_malformed(result, f"scalar must be text, not {value!r}")

    def test_identity_must_be_an_object(self, runner, tmp_path):
        doc = self.z2_doc()
        doc["identity"] = [{"g0": "1"}]
        result = runner.invoke(main, ["validate", self.write(tmp_path, "cat.json", doc)])
        self.assert_malformed(result, "member 'identity' must be a JSON object")

    def test_identity_map_must_be_an_object(self, runner, tmp_path):
        doc = self.z2_doc()
        doc["identity"]["x"] = ["g0"]
        result = runner.invoke(main, ["validate", self.write(tmp_path, "cat.json", doc)])
        self.assert_malformed(result, "member 'identity' of object 'x' must be a JSON object")

    def test_objects_must_be_an_array(self, runner, tmp_path):
        # a string would otherwise be read as one object per character
        doc = self.z2_doc()
        doc["objects"] = "x"
        result = runner.invoke(main, ["validate", self.write(tmp_path, "cat.json", doc)])
        self.assert_malformed(result, "member 'objects' must be a JSON array")

    def test_hom_basis_must_be_an_array(self, runner, tmp_path):
        # with one-letter labels e, g the string "eg" would read as that basis
        doc = json.loads(json.dumps(self.z2_doc()).replace('"g0"', '"e"').replace('"g1"', '"g"'))
        doc["homs"][0]["basis"] = "eg"
        result = runner.invoke(main, ["validate", self.write(tmp_path, "cat.json", doc)])
        self.assert_malformed(result, "member 'basis' of hom entry ('x', 'x') must be a JSON array")

    # a string or object was read term by term and failed naming 'basis';
    # a number or null failed as "'int' object is not iterable"
    @pytest.mark.parametrize("value", ["g0", {"basis": "g0", "coeff": "1"}, 7, None],
                             ids=["string", "object", "number", "null"])
    def test_composition_result_must_be_an_array(self, runner, tmp_path, value):
        doc = self.z2_doc()
        doc["composition"][0]["result"] = value
        result = runner.invoke(main, ["validate", self.write(tmp_path, "cat.json", doc)])
        self.assert_malformed(result, "category: member 'result' must be a JSON array")

    def test_prime_must_be_an_integer(self, runner, tmp_path):
        # int() would read 7.9 as the prime 7
        doc = io.category_to_json(linearize(presets.cyclic_group(2), Field(7)))
        doc["field"] = {"Fp": 7.9}
        result = runner.invoke(main, ["validate", self.write(tmp_path, "cat.json", doc)])
        self.assert_malformed(result, "bad field description")

    # each value below was read as a presentation before: "x" as the
    # objects x, arrays of pairs as objects, and {} as an empty array
    @pytest.mark.parametrize(
        "preset,member,value,verb",
        [
            ("z2", "objects", "x", "linearize"),
            ("z2", "identity", [["x", "g0"]], "maschke"),
            ("d2", "composition", {}, "linearize"),
            ("d2", "morphisms", {"idx1": ["x1", "x1"]}, "maschke"),
        ],
    )
    def test_presentation_member_types(self, runner, tmp_path, preset, member, value, verb):
        pres = presets.cyclic_group(2) if preset == "z2" else presets.discrete_category(2)
        doc = io.presentation_to_json(pres)
        doc[member] = value
        path = self.write(tmp_path, "pres.json", doc)
        args = [verb, path, "--field", "Q"] + (["-o", str(tmp_path / "cat.json")] if verb == "linearize" else [])
        kind = "array" if isinstance(value, str) or member in ("objects", "morphisms", "composition") else "object"
        result = runner.invoke(main, args)
        self.assert_malformed(result, f"presentation: member {member!r} must be a JSON {kind}")

    # a name given as a number was taken for one (a basis label 7 validated,
    # and separability check wrote "u": 7 into the certificate), and one
    # given as an array or object failed as "unhashable type", naming no member
    NAME_SITES = {
        ("category", "objects"): lambda d, v: d["objects"].__setitem__(0, v),
        ("category", "basis"): lambda d, v: d["homs"][0]["basis"].__setitem__(1, v),
        ("category", "result basis"): lambda d, v: d["composition"][0]["result"][0].update(basis=v),
        ("presentation", "objects"): lambda d, v: d["objects"].__setitem__(0, v),
        ("presentation", "name"): lambda d, v: d["morphisms"][1].update(name=v),
        ("presentation", "from"): lambda d, v: d["morphisms"][0].update({"from": v}),
        ("presentation", "to"): lambda d, v: d["morphisms"][0].update(to=v),
        ("presentation", "identity"): lambda d, v: d["identity"].update(x=v),
        ("presentation", "result"): lambda d, v: d["composition"][0].update(result=v),
    }

    @pytest.mark.parametrize("value", [7, ["g1"], {"g1": "1"}], ids=["number", "array", "object"])
    @pytest.mark.parametrize(
        "context,site", sorted(NAME_SITES), ids=[f"{c}-{s}".replace(" ", "-") for c, s in sorted(NAME_SITES)]
    )
    def test_names_must_be_strings(self, runner, tmp_path, context, site, value):
        pres = context == "presentation"
        doc = io.presentation_to_json(presets.cyclic_group(2)) if pres else self.z2_doc()
        self.NAME_SITES[(context, site)](doc, value)
        path = self.write(tmp_path, "doc.json", doc)
        if site == "name" and not isinstance(value, int):
            needle = "presentation: member 'morphisms' has a morphism entry whose 'name' is a JSON array or object"
        else:
            needle = f"{context}: member {site.split()[-1]!r} holds {value!r}, not a JSON string"
        runs = ([["maschke", path, "--field", "Q"], ["linearize", path, "--field", "Q", "-o", str(tmp_path / "c.json")]]
                if pres else [["validate", path], ["separability", "check", path]])
        for args in runs:
            self.assert_malformed(runner.invoke(main, args), needle)

    def test_inverse_member_is_ignored(self):
        # files written with the old advisory inverse table still load
        doc = io.presentation_to_json(presets.cyclic_group(2))
        assert "inverse" not in doc
        old = io.presentation_from_json({**doc, "inverse": {"g0": "g0", "g1": "g1"}})
        want = io.category_to_json(linearize(io.presentation_from_json(doc), QQ))
        assert io.category_to_json(linearize(old, QQ)) == want

    # a repeated key was read as its last entry, so the conflicting first
    # entry below was dropped without a word and the file validated
    def test_category_repeats_composition_key(self, runner, tmp_path):
        doc = self.z2_doc()
        doc["composition"].insert(0, {"g": "g1", "f": "g1", "result": [{"basis": "g1", "coeff": "1"}]})
        path = self.write(tmp_path, "cat.json", doc)
        for args in (["validate", path], ["separability", "check", path]):
            result = runner.invoke(main, args)
            self.assert_malformed(result, "category: member 'composition' gives the key ('g1', 'g1') more than once")

    def test_presentation_repeats_composition_key(self, runner, tmp_path):
        # read as the idempotent monoid, which maschke rejected as no groupoid
        doc = io.presentation_to_json(presets.cyclic_group(2))
        doc["composition"].append({"g": "g1", "f": "g1", "result": "g1"})
        result = runner.invoke(main, ["maschke", self.write(tmp_path, "pres.json", doc), "--field", "Q"])
        self.assert_malformed(result, "presentation: member 'composition' gives the key ('g1', 'g1') more than once")

    @pytest.mark.parametrize(
        "context,member,key",
        [
            ("category", "homs", "('x', 'x')"),
            ("bimodule", "spaces", "('x', 'x')"),
            ("bimodule", "left_action", "('g0', 'x')"),
            ("bimodule", "right_action", "('g0', 'x')"),
            ("left module", "spaces", "'x'"),
            ("left module", "action", "'g0'"),
            ("short exact sequence", "i", "('x', 'x')"),
            ("short exact sequence", "q", "('x', 'x')"),
        ],
    )
    def test_repeated_key(self, runner, files, tmp_path, context, member, key):
        # each file gets a second copy of its member's first entry
        doc = self.doc_of(context)
        doc[member].append(dict(doc[member][0]))
        result = runner.invoke(main, self.args_of(files, context, self.write(tmp_path, "doc.json", doc)))
        self.assert_malformed(result, f"{context}: member {member!r} gives the key {key} more than once")

    def doc_of(self, context):
        """The file of Z2, or of a Z2-module, of the kind context names."""
        if context == "category":
            return self.z2_doc()
        c = linearize(presets.cyclic_group(2), QQ)
        if context == "bimodule":
            return io.bimodule_to_json(canonical_bimodule(c))
        if context == "left module":
            return io.left_module_to_json(representable_left_module(c, "x"))
        cxc, comp_map = tensor_square(c)
        ker, incl = kernel_of(comp_map)
        return io.ses_to_json(ShortExactSeq(ker, cxc, comp_map.target, incl, comp_map))

    @staticmethod
    def args_of(files, context, path):
        """The command that reads the file path of the kind context names."""
        cat = files["z2_over_Q.json"]
        return {
            "category": ["validate", path],
            "bimodule": ["validate", path, "--category", cat],
            "left module": ["validate", path, "--category", cat],
            "short exact sequence": ["les", cat, "--ses", path, "--max-degree", "1"],
        }[context]

    # each value was read before: {"x": 1} failed as "malformed input: 0",
    # [3] as "argument of type 'int' is not iterable", and "xy" one
    # character at a time
    @pytest.mark.parametrize(
        "value,needle",
        [({"x": 1}, "member 'spaces' must be a JSON array"), ([3], "space entry: missing member 'x'"),
         ("xy", "member 'spaces' must be a JSON array")],
        ids=["object", "array-of-int", "string"],
    )
    @pytest.mark.parametrize("context", ["left module", "bimodule"])
    def test_module_spaces_must_be_an_array(self, runner, files, tmp_path, context, value, needle):
        doc = self.doc_of(context)
        doc["spaces"] = value
        result = runner.invoke(main, self.args_of(files, context, self.write(tmp_path, "mod.json", doc)))
        self.assert_malformed(result, needle)

    # {} was read as an empty table
    @pytest.mark.parametrize(
        "context,member",
        [("category", "homs"), ("category", "composition"), ("left module", "action"), ("bimodule", "left_action"),
         ("bimodule", "right_action"), ("short exact sequence", "i"), ("short exact sequence", "q")],
    )
    def test_table_must_be_an_array(self, runner, files, tmp_path, context, member):
        doc = self.doc_of(context)
        doc[member] = {}
        result = runner.invoke(main, self.args_of(files, context, self.write(tmp_path, "mod.json", doc)))
        self.assert_malformed(result, f"{context}: member {member!r} must be a JSON array")

    def test_certificate_terms_must_be_an_array(self, runner, files, tmp_path):
        cert = self.write(tmp_path, "cert.json", [{"x": "x", "y": "x", "terms": "g0"}])
        result = runner.invoke(main, ["separability", "verify", files["z2_over_Q.json"], "--certificate", cert])
        self.assert_malformed(result, "certificate: member 'terms' must be a JSON array")

    # an unknown object in an action or map entry failed with the bare key,
    # as "malformed input: ('x', 'zz')"
    @pytest.mark.parametrize(
        "context,member,field,key",
        [
            ("bimodule", "left_action", "y", "('g0', 'zz')"),
            ("bimodule", "left_action", "f", "('zz', 'x')"),
            ("bimodule", "right_action", "x", "('g0', 'zz')"),
            ("left module", "action", "f", "'zz'"),
            ("short exact sequence", "i", "y", "('x', 'zz')"),
            ("short exact sequence", "q", "x", "('zz', 'x')"),
        ],
    )
    def test_unknown_key(self, runner, files, tmp_path, context, member, field, key):
        doc = self.doc_of(context)
        doc[member][0][field] = "zz"
        result = runner.invoke(main, self.args_of(files, context, self.write(tmp_path, "doc.json", doc)))
        self.assert_malformed(result, f"{context}: member {member!r} names the unknown key {key}")

    # each failed as "malformed input: unhashable type: 'list'" (or 'dict')
    @pytest.mark.parametrize(
        "context,member,field,value",
        [
            ("bimodule", "left_action", "y", [1]),
            ("bimodule", "spaces", "x", {}),
            ("category", "homs", "from", ["x"]),
            ("short exact sequence", "q", "y", {"x": 1}),
        ],
    )
    def test_key_field_must_not_be_array_or_object(self, runner, files, tmp_path, context, member, field, value):
        doc = self.doc_of(context)
        doc[member][0][field] = value
        result = runner.invoke(main, self.args_of(files, context, self.write(tmp_path, "doc.json", doc)))
        self.assert_malformed(result, f"{context}: member {member!r} has a ")
        self.assert_malformed(result, f" entry whose {field!r} is a JSON array or object")

    # each failed with the bare message of Matrix.from_json, naming no table
    @pytest.mark.parametrize(
        "context,member,matrix,needle",
        [
            ("bimodule", "left_action", ["1", "0"],
             "bimodule: member 'left_action', left action for (g0,x): matrix entry count does not match declared shape"),
            ("short exact sequence", "i", "1",
             "short exact sequence: member 'i', map for (x,x): matrix entries must be a JSON array"),
        ],
    )
    def test_bad_matrix_names_member_and_key(self, runner, files, tmp_path, context, member, matrix, needle):
        doc = self.doc_of(context)
        doc[member][0]["matrix"] = matrix
        result = runner.invoke(main, self.args_of(files, context, self.write(tmp_path, "doc.json", doc)))
        self.assert_malformed(result, needle)

    @pytest.mark.parametrize(
        "context,member,needle",
        [("bimodule", "left_action", "bimodule: missing left action for (g0,x)"),
         ("bimodule", "right_action", "bimodule: missing right action for (g0,x)"),
         ("left module", "action", "left module: missing action for g0")],
    )
    def test_missing_action(self, runner, files, tmp_path, context, member, needle):
        # an action on a nonzero space must be given
        doc = self.doc_of(context)
        del doc[member][0]
        result = runner.invoke(main, self.args_of(files, context, self.write(tmp_path, "doc.json", doc)))
        self.assert_malformed(result, needle)

    def trivial_group_module(self, tmp_path, dim, matrix):
        cat = io.category_to_json(linearize(presets.cyclic_group(1), QQ))
        mod = {"spaces": [{"x": "x", "dim": dim}], "action": [{"f": "g0", "matrix": matrix}]}
        return ["validate", self.write(tmp_path, "mod.json", mod), "--category", self.write(tmp_path, "cat.json", cat)]

    def test_dim_must_not_be_negative(self, runner, tmp_path):
        # one entry fits the shape -1 x -1
        result = runner.invoke(main, self.trivial_group_module(tmp_path, -1, ["1"]))
        self.assert_malformed(result, "member 'dim' must be a non-negative integer, not -1")

    @pytest.mark.parametrize("dim", [1.7, True])
    def test_dim_must_be_an_integer(self, runner, tmp_path, dim):
        # int() would read either as 1
        result = runner.invoke(main, self.trivial_group_module(tmp_path, dim, ["1"]))
        self.assert_malformed(result, f"member 'dim' must be a non-negative integer, not {dim!r}")

    def test_matrix_must_be_an_array(self, runner, tmp_path):
        # the string "1001" would read as the 2 x 2 identity
        result = runner.invoke(main, self.trivial_group_module(tmp_path, 2, "1001"))
        self.assert_malformed(result, "matrix entries must be a JSON array")


class TestDeterminism:
    def test_artifacts_are_byte_identical(self, runner, files, tmp_path):
        pairs = []
        for run in (1, 2):
            cert = tmp_path / f"cert{run}.json"
            coh = tmp_path / f"coh{run}.json"
            lin = tmp_path / f"lin{run}.json"
            les = tmp_path / f"les{run}.json"
            r1 = runner.invoke(main, ["separability", "check", files["z2_over_Q.json"], "--certificate-out", str(cert)])
            r2 = runner.invoke(main, ["cohomology", files["z2_over_F2.json"], "--bimodule", "canonical",
                                      "--max-degree", "2", "--json-out", str(coh)])
            r3 = runner.invoke(main, ["linearize", files["z2_pres.json"], "--field", "Q", "-o", str(lin)])
            r4 = runner.invoke(main, ["les", files["a2_over_Q.json"], "--ses", "kernel-comp",
                                      "--max-degree", "1", "--json-out", str(les)])
            pairs.append((cert.read_bytes(), coh.read_bytes(), lin.read_bytes(), les.read_bytes(),
                          r1.output, r2.output, r3.output, r4.output))
        assert pairs[0] == pairs[1]

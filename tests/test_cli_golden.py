"""Golden bytes of the CLI verbs: exit code, stdout and every written
artifact, hashed per category and field, so that a change to the linear
algebra under the verbs cannot change what a user sees."""

import hashlib
import json

import pytest

from sepcat import presets
from sepcat import interchange as io
from sepcat.cli import main
from sepcat.cmod import representable_left_module
from sepcat.exactalg import Field, QQ
from sepcat.lincat import linearize
from cli_runner import CliRunner
from test_cohomology import crown_poset

GOLDEN_PRESETS = {
    "Z3": lambda: presets.cyclic_group(3),
    "K4": presets.klein_four,
    "G2(Z2)": lambda: presets.connected_groupoid(presets.cyclic_group(2), 2),
    "A3": lambda: presets.chain_poset(3),
    "crown": crown_poset,
}
GOLDEN_FIELDS = {"Q": QQ, "F7": Field(7)}

# sha256 prefixes of every verb's bytes below, recorded before matrices
# stored only their nonzero rows; G2(Z2)'s were recorded again when
# `separability check` began to print the trace form's Casimir element on
# it, which changes its certificate and zelinsky's report
CLI_DIGESTS = {
    ("A3", "F7"): "0203fed042859c18",
    ("A3", "Q"): "0203fed042859c18",
    ("G2(Z2)", "F7"): "c42398ae736f986a",
    ("G2(Z2)", "Q"): "41ef0945df6385ca",
    ("K4", "F7"): "62bfb3a71373b25c",
    ("K4", "Q"): "320b40c31af19946",
    ("Z3", "F7"): "17c2abd9bc82ec7f",
    ("Z3", "Q"): "677187a0f7f110ef",
    ("crown", "F7"): "58a011b4a0d7e179",
    ("crown", "Q"): "58a011b4a0d7e179",
}


def verb_bytes(tmp_path, name, field_name) -> list:
    """[verb, exit code, stdout, artifact] for each verb run on the category."""
    c = linearize(GOLDEN_PRESETS[name](), GOLDEN_FIELDS[field_name])
    cat = tmp_path / "cat.json"
    cat.write_text(json.dumps(io.category_to_json(c)))
    mod = tmp_path / "mod.json"
    mod.write_text(json.dumps(io.left_module_to_json(representable_left_module(c, c.objects[0]))))
    runner = CliRunner()
    out = []

    def run(verb, args, artifact=None):
        result = runner.invoke(main, args)
        written = (tmp_path / artifact).read_text() if artifact and (tmp_path / artifact).exists() else None
        out.append([verb, result.exit_code, result.stdout, written])
        return result.exit_code

    cert = tmp_path / "cert.json"
    separable = run("check", ["separability", "check", str(cat), "--certificate-out", str(cert)], "cert.json") == 0
    if separable:
        run("zelinsky", ["zelinsky", str(cat), "--certificate", str(cert)])
        run("split", ["module", "split", str(cat), "--module", str(mod), "--certificate", str(cert)])
    for coeff in ("canonical", "kernel-comp"):
        report = f"coh-{coeff}.json"
        run(f"cohomology {coeff}", ["cohomology", str(cat), "--bimodule", coeff, "--json-out", str(tmp_path / report)], report)
    run("obstruction", ["obstruction", str(cat)])
    run("les", ["les", str(cat), "--ses", "kernel-comp", "--json-out", str(tmp_path / "les.json")], "les.json")
    return out


@pytest.mark.parametrize("name", sorted(GOLDEN_PRESETS))
@pytest.mark.parametrize("field_name", sorted(GOLDEN_FIELDS))
def test_cli_verbs_match_golden(tmp_path, name, field_name):
    doc = verb_bytes(tmp_path, name, field_name)
    assert all(code in (0, 1) for _, code, _, _ in doc), doc
    digest = hashlib.sha256(json.dumps(doc).encode()).hexdigest()[:16]
    assert digest == CLI_DIGESTS[(name, field_name)]


CRITERION_GROUPOIDS = {
    "Z3": lambda: presets.cyclic_group(3),
    "Z7": lambda: presets.cyclic_group(7),
    "K4": presets.klein_four,
    "G2(Z2)": lambda: presets.connected_groupoid(presets.cyclic_group(2), 2),
    "G2(Z3)": lambda: presets.connected_groupoid(presets.cyclic_group(3), 2),
}
CRITERION_FIELDS = ("Q", "Fp:2", "Fp:3", "Fp:7")
DELTA_PRESETS = {
    "A3": lambda: presets.chain_poset(3),
    "crown": crown_poset,
    "D2": lambda: presets.discrete_category(2),
    "vee": presets.vee_poset,
}


def criterion_runs():
    """(verb, presentation, field spec or None): maschke on every groupoid
    over every field, delta on every delta category, and each verb once on
    a presentation it must refuse."""
    runs = [("maschke", name, spec) for name in sorted(CRITERION_GROUPOIDS) for spec in CRITERION_FIELDS]
    runs += [("delta", name, None) for name in sorted(DELTA_PRESETS)]
    return runs + [("maschke", "A3", "Q"), ("delta", "Z3", None)]


# sha256 prefixes of each run's exit code, stdout and stderr, recorded
# before the criterion verbs shared one print path
CRITERION_DIGESTS = {
    ("maschke", "G2(Z2)", "Fp:2"): "df915d8a3f8ea628",
    ("maschke", "G2(Z2)", "Fp:3"): "adcaab9ec2d41854",
    ("maschke", "G2(Z2)", "Fp:7"): "35b34ef907be8613",
    ("maschke", "G2(Z2)", "Q"): "6f720863733857cc",
    ("maschke", "G2(Z3)", "Fp:2"): "c0cc4000d6ac13d5",
    ("maschke", "G2(Z3)", "Fp:3"): "224e53f04f4a85a4",
    ("maschke", "G2(Z3)", "Fp:7"): "2a35c4e293edfaa8",
    ("maschke", "G2(Z3)", "Q"): "d5e4ad855c128b24",
    ("maschke", "K4", "Fp:2"): "45a70c9860585d2f",
    ("maschke", "K4", "Fp:3"): "b743c3c258438fb6",
    ("maschke", "K4", "Fp:7"): "f19daff8ddb55d11",
    ("maschke", "K4", "Q"): "10d3588b8d46a42a",
    ("maschke", "Z3", "Fp:2"): "0047b7392736a3e1",
    ("maschke", "Z3", "Fp:3"): "2a8e154ce0402102",
    ("maschke", "Z3", "Fp:7"): "6270d1f5345cba61",
    ("maschke", "Z3", "Q"): "6abbcf041c4db7b0",
    ("maschke", "Z7", "Fp:2"): "c51844d6f689d58c",
    ("maschke", "Z7", "Fp:3"): "c51844d6f689d58c",
    ("maschke", "Z7", "Fp:7"): "c50fbbcb48c81440",
    ("maschke", "Z7", "Q"): "46da8e43e3ba2205",
    ("delta", "A3", None): "842232990a18411f",
    ("delta", "D2", None): "691983c90fe2720f",
    ("delta", "crown", None): "842232990a18411f",
    ("delta", "vee", None): "842232990a18411f",
    ("maschke", "A3", "Q"): "e6c313648e2185aa",
    ("delta", "Z3", None): "c3cea8bbec7bf0eb",
}


@pytest.mark.parametrize("verb, name, spec", criterion_runs())
def test_criterion_verbs_match_golden(tmp_path, verb, name, spec):
    p = {**CRITERION_GROUPOIDS, **DELTA_PRESETS}[name]()
    pres = tmp_path / "pres.json"
    pres.write_text(json.dumps(io.presentation_to_json(p)))
    args = [verb, str(pres)] + (["--field", spec] if spec else [])
    result = CliRunner().invoke(main, args)
    doc = [result.exit_code, result.stdout, result.stderr]
    digest = hashlib.sha256(json.dumps(doc).encode()).hexdigest()[:16]
    assert digest == CRITERION_DIGESTS[(verb, name, spec)], doc

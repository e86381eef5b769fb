"""Golden bytes of the CLI verbs: exit code, stdout and every written
artifact, hashed per category and field, so that a change to the linear
algebra under the verbs cannot change what a user sees."""

import hashlib
import json

import pytest
from click.testing import CliRunner

from sepcat import presets
from sepcat import interchange as io
from sepcat.cli import main
from sepcat.cmod import representable_left_module
from sepcat.exactalg import Field, QQ
from sepcat.lincat import linearize
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
# stored only their nonzero rows
CLI_DIGESTS = {
    ("A3", "F7"): "0203fed042859c18",
    ("A3", "Q"): "0203fed042859c18",
    ("G2(Z2)", "F7"): "b98e9227e4a73f70",
    ("G2(Z2)", "Q"): "b80f1fd436c1bb7e",
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

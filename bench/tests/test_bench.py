"""Small tests of the benchmark itself: tiny workloads, the oracles, the tracer.

    python3 -m pytest bench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import oracle
import run
import workloads
from tracing import Tracer

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
TINY_OPS = 6


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Every workload cut to its first few ops (order kept, so inputs an op
    needs are still written before it), with outputs under tmp_path."""
    for name, build in list(workloads.WORKLOADS.items()):
        monkeypatch.setitem(workloads.WORKLOADS, name, lambda d, s, build=build: build(d, s)[:TINY_OPS])
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


def _last_json(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_workload_emits_every_metric(tiny, capsys, workload, trace):
    spec = _spec()
    assert workload in {w["name"] for w in spec["workloads"]}
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)]) == 0
    result = _last_json(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = spec["per_layer"] if trace else spec["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in want}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_benchmark_json_matches_the_runner():
    spec = _spec()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_second_run_with_same_seed_must_match_digest(tiny, capsys):
    args = ["--workload", "hm-Q", "--seed", "5", "--seconds", "0", "--trace", "0"]
    run.main(args)
    assert _last_json(capsys)["correct"]
    path = os.path.join(run.OUT, "digests", "hm-Q-seed5.sha256")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("0" * 64 + "\n")
    run.main(args)
    assert not _last_json(capsys)["correct"]


def test_wrong_output_counts_as_failed(tiny, capsys, monkeypatch):
    build = workloads.WORKLOADS["hm-Q"]

    def broken(d, s):
        ops = build(d, s)
        first = ops[0]
        real = first.output

        def lying():
            code, out, art = real()
            return code + 1, out, art

        first.output = lying
        return ops

    monkeypatch.setitem(workloads.WORKLOADS, "hm-Q", broken)
    run.main(["--workload", "hm-Q", "--seed", "1", "--seconds", "0", "--trace", "0"])
    result = _last_json(capsys)
    assert not result["correct"] and result["failed"] == 1


def test_tracer_removes_every_wrapper(tmp_path):
    workloads.import_sepcat()
    ops = workloads.hm_q(str(tmp_path), 0)[:3]
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    assert _bindings() != before
    try:
        with run.Speed() as speed:
            run.run_pass(ops, lambda i, r: None, speed, tracer)
    finally:
        tracer.remove()
    assert _bindings() == before
    names = {s.name for s in tracer.spans}
    assert {"cli", "exactalg.rref", "cohomology.build", "interchange.load"} <= names


def test_speed_factor_ignores_one_slow_probe():
    speed = run.Speed()
    speed.samples = [(0.0, 1.0), (0.25, 1.0), (0.5, 0.4), (0.75, 1.0), (1.0, 1.0)]
    assert speed.factor(0.5, 0.5) == 1.0
    speed.samples = [(0.0, 1.0), (0.25, 1.0), (0.5, 0.5), (0.75, 0.5), (1.0, 0.5), (1.25, 0.5)]
    assert speed.factor(1.0, 1.0) == 0.5  # a slow state that lasts counts
    assert speed.factor(9.0, 9.0) == 0.5  # nothing near: the nearest probe


def _bindings():
    """Every function object bound in a sepcat module or on Matrix."""
    out = {}
    for name, mod in sys.modules.items():
        if name == "sepcat" or name.startswith("sepcat."):
            out.update({(name, k): v for k, v in vars(mod).items() if callable(v)})
    matrix = sys.modules["sepcat.exactalg"].Matrix
    out.update({("Matrix", k): v for k, v in vars(matrix).items() if callable(v)})
    return out


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "hm-Q", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# -- oracles -------------------------------------------------------------------


def _pres(p):
    from sepcat import interchange

    return oracle.Pres(interchange.presentation_to_json(p))


def test_oracle_does_not_import_sepcat():
    with open(os.path.join(BENCH, "oracle.py"), encoding="utf-8") as fh:
        text = fh.read()
    assert "import sepcat" not in text and "from sepcat" not in text


def test_oracle_separability_closed_forms():
    from sepcat import presets

    assert oracle.separable(_pres(presets.cyclic_group(6)), 0)
    assert not oracle.separable(_pres(presets.cyclic_group(7)), 7)
    assert oracle.separable(_pres(presets.connected_groupoid(presets.cyclic_group(3), 2)), 7)
    assert not oracle.separable(_pres(presets.chain_poset(3)), 0)
    assert oracle.separable(_pres(presets.discrete_category(3)), 7)
    assert oracle.separable(_pres(presets.idempotent_monoid()), 0)


def test_oracle_cohomology_closed_forms():
    from sepcat import presets

    crown = presets.poset_category(["a", "b", "c", "d"], [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])
    assert oracle.order_complex_cohomology(_pres(crown), 3) == [1, 1, 0, 0]
    assert oracle.order_complex_cohomology(_pres(presets.chain_poset(4)), 2) == [1, 0, 0]
    z4 = _pres(presets.cyclic_group(4))
    assert oracle.canonical_cohomology(z4, 4, 2, 3) == [4, 4, 4, 4]
    assert oracle.canonical_cohomology(z4, 4, 0, 3) == [4, 0, 0, 0]
    assert oracle.canonical_cohomology(_pres(presets.klein_four()), 0, 0, 2) == [4, 0, 0]
    assert oracle.cochain_dims(z4, oracle.canonical_dim(z4), 3) == [4, 16, 64, 256]
    rows = [[0, 4, 0, 4], [1, 16, 16, 0], [2, 64, 48, 0]]
    assert oracle.cohomology_errors(rows, [4, 16, 64], [4, 0, 0]) == []
    assert oracle.cohomology_errors(rows, [4, 16, 64], [4, 1, 0])


def test_oracle_certificate_check_rejects_a_corrupted_certificate():
    from sepcat import presets

    z2 = _pres(presets.cyclic_group(2))
    good = [{"x": "x", "y": "x", "terms": [{"coeff": "1/2", "u": "g0", "v": "g0"},
                                           {"coeff": "1/2", "u": "g1", "v": "g1"}]}]
    assert oracle.certificate_errors(z2, good, 0) == []
    bad = [{"x": "x", "y": "x", "terms": [{"coeff": "1", "u": "g0", "v": "g0"}]}]
    assert oracle.certificate_errors(z2, bad, 0)


def test_oracle_module_checks():
    from sepcat import presets

    z2 = _pres(presets.cyclic_group(2))
    one = oracle.identity(1)
    swap = (1, 1, [[6]])
    dims = {"x": 1}
    assert oracle.left_module_errors(z2, dims, {"g0": one, "g1": swap}, 7, 2) == []
    assert oracle.left_module_errors(z2, dims, {"g0": one, "g1": (1, 1, [[2]])}, 7, 2)
    bdims = {("x", "x"): 1}
    left = {("g0", "x"): one, ("g1", "x"): one}
    right = {("g0", "x"): one, ("g1", "x"): one}
    assert oracle.bimodule_errors(z2, bdims, left, right, 7, 2) == []
    assert oracle.invariants_dim(z2, bdims, left, right, 7) == 1
    right_sign = {("g0", "x"): one, ("g1", "x"): swap}
    assert oracle.invariants_dim(z2, bdims, left, right_sign, 7) == 0

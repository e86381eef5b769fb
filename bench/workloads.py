"""The benchmark's workloads: corpus set-up and the ordered ops of one pass.

A workload's set-up imports sepcat afresh and writes every input file;
its pass is a fixed list of ops, run one at a time. Each op has a timed
call, an untimed output (exit code, stdout or a canonical text of a
library result, and the bytes of any artifact written) and an oracle
check from bench/oracle.py.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import sys
from dataclasses import dataclass
from typing import Callable

from oracle import (
    Pres,
    canonical_cohomology,
    canonical_dim,
    certificate_errors,
    cochain_dims,
    cohomology_errors,
    bimodule_errors,
    invariants_dim,
    kernel_comp_dim,
    kernel_comp_total,
    left_module_errors,
    parse_table,
    separable,
)

F7 = 7
DIM_CAP = 2  # random_bimodule / random_left_module default component cap


@dataclass
class Op:
    """One op: run() is the timed call; output() then gives its exit code,
    stdout (or a canonical text of a library result) and artifact bytes."""

    instance: str
    verb: str
    label: str
    run: Callable[[], None]
    output: Callable[[], tuple[int, str, bytes]]
    check: Callable[[int, str, bytes], list[str]]
    kind: str = "cli"  # "cli" for an in-process CLI verb, "op" for a library call


@dataclass
class Instance:
    name: str
    pres: object  # sepcat FiniteCatPresentation
    doc: dict  # its presentation document
    cyclic: int = 0  # m for Z_m, else 0

    @property
    def oracle(self) -> Pres:
        return Pres(self.doc)


def import_sepcat():
    """Import sepcat from scratch (every sepcat module is dropped first)."""
    for name in [n for n in sys.modules if n == "sepcat" or n.startswith("sepcat.")]:
        del sys.modules[name]
    return importlib.import_module("sepcat")


def _modules():
    return {
        name: importlib.import_module(f"sepcat.{name}")
        for name in ("presets", "interchange", "exactalg", "lincat", "cmod", "separability", "cohomology", "cli")
    }


def _instance(sc, name, pres, cyclic=0) -> Instance:
    return Instance(name, pres, sc["interchange"].presentation_to_json(pres), cyclic)


def _crown(presets):
    return presets.poset_category(["a", "b", "c", "d"], [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])


def _write(path: str, doc) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
    return path


def _read(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return b""


def _cli_op(sc, instance, verb, args, artifact=None, check=None) -> Op:
    main = sc["cli"].main
    state = {}

    def run():
        out = io.StringIO()
        code = 0
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            try:
                main.main(args=list(args), prog_name="sepcat")
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
        state["result"] = (code, out.getvalue())

    def output():
        return (*state["result"], _read(artifact) if artifact else b"")

    label = " ".join(os.path.basename(a) for a in args)
    return Op(instance, verb, label, run, output, check or (lambda code, out, art: []))


def _expect(code_want: int, *lines: str):
    def check(code, out, art):
        errors = [] if code == code_want else [f"exit {code}, expected {code_want}: {out.strip()[:200]}"]
        errors += [f"missing line {line!r}" for line in lines if line not in out.splitlines()]
        return errors
    return check


# -- sep-verbs ----------------------------------------------------------------


def sep_verbs(workdir: str, seed: int) -> list[Op]:
    sc = _modules()
    presets, ix = sc["presets"], sc["interchange"]
    lincat, cmod = sc["lincat"], sc["cmod"]
    exactalg = sc["exactalg"]
    instances = [_instance(sc, f"Z{n}", presets.cyclic_group(n), n) for n in range(4, 13)]
    instances += [
        _instance(sc, "G2(Z3)", presets.connected_groupoid(presets.cyclic_group(3), 2)),
        _instance(sc, "G3(Z2)", presets.connected_groupoid(presets.cyclic_group(2), 3)),
        _instance(sc, "G3(Z3)", presets.connected_groupoid(presets.cyclic_group(3), 3)),
        _instance(sc, "K4", presets.klein_four()),
        _instance(sc, "A6", presets.chain_poset(6)),
        _instance(sc, "crown", _crown(presets)),
        _instance(sc, "D4", presets.discrete_category(4)),
        _instance(sc, "idem", presets.idempotent_monoid()),
    ]
    instances += [_instance(sc, f"rand{i}", presets.random_presentation(seed + i)) for i in range(4)]
    ops: list[Op] = []
    for inst in instances:
        pres = inst.oracle
        tag = inst.name.replace("(", "").replace(")", "")
        pres_path = _write(os.path.join(workdir, f"{tag}.pres.json"), inst.doc)
        for p, field, fname in ((0, exactalg.Field(), "Q"), (F7, exactalg.Field(F7), "F7")):
            c = lincat.linearize(inst.pres, field)
            base = os.path.join(workdir, f"{tag}.{fname}")
            cat = _write(base + ".cat.json", ix.category_to_json(c))
            last = c.objects[-1]
            rep = _write(base + ".rep.json", ix.left_module_to_json(cmod.representable_left_module(c, last)))
            char = _write(
                base + ".char.json",
                ix.left_module_to_json(cmod.character_left_module(c, {f: 1 for f in c.label_info})),
            )
            cert = base + ".cert.json"
            name = f"{inst.name}/{fname}"
            sep = separable(pres, p)
            ops.append(_cli_op(sc, name, "sep_check", ["separability", "check", cat, "--certificate-out", cert],
                               cert, _check_separability(pres, p, sep)))
            if not sep:
                continue
            ops.append(_cli_op(sc, name, "sep_verify", ["separability", "verify", cat, "--certificate", cert],
                               check=_expect(0, "certificate: valid")))
            for module in (rep, char):
                ops.append(_cli_op(sc, name, "module_split",
                                   ["module", "split", cat, "--module", module, "--certificate", cert],
                                   check=_expect(0, "section_ok: yes", "linear_ok: yes")))
            ops.append(_cli_op(sc, name, "zelinsky", ["zelinsky", cat, "--certificate", cert],
                               check=_check_zelinsky(pres)))
        if pres.is_groupoid():
            for p, spec in ((0, "Q"), (F7, f"Fp:{F7}")):
                ops.append(_cli_op(sc, inst.name, "criterion", ["maschke", pres_path, "--field", spec],
                                   check=_check_criterion(pres, p)))
        elif pres.is_delta():
            ops.append(_cli_op(sc, inst.name, "criterion", ["delta", pres_path], check=_check_criterion(pres, 0)))
    return ops


def _check_separability(pres: Pres, p: int, sep: bool):
    def check(code, out, art):
        if not sep:
            return _expect(1, "separable: no")(code, out, art)
        errors = _expect(0, "separable: yes")(code, out, art)
        if errors:
            return errors
        cert = json.loads(art)
        printed = json.loads(out[out.index("["):])
        if printed != cert:
            errors.append("printed certificate differs from the written one")
        return errors + certificate_errors(pres, cert, p)
    return check


def _check_criterion(pres: Pres, p: int):
    def check(code, out, art):
        if not separable(pres, p):
            return _expect(1)(code, out, art)
        errors = _expect(0, "separable: yes")(code, out, art)
        return errors or certificate_errors(pres, json.loads(out[out.index("["):]), p)
    return check


def _check_zelinsky(pres: Pres):
    def check(code, out, art):
        errors = _expect(0)(code, out, art)
        for line in out.strip().splitlines()[1:]:
            x, z, hom_dim, bound, injective = line.split()
            if int(hom_dim) != len(pres.hom(x, z)) or injective != "yes" or int(bound) < int(hom_dim):
                errors.append(f"bad embedding row {line!r}")
        return errors
    return check


# -- hm-Q -----------------------------------------------------------------------

HM_Q_LES = ("Z3", "G2(Z2)", "A5", "crown")  # les kernel-comp runs on these
HM_Q_KERNEL_COMP = ("Z3", "Z4", "K4", "G2(Z2)", "A5", "crown")  # cohomology kernel-comp


def hm_q(workdir: str, seed: int) -> list[Op]:
    sc = _modules()
    presets, ix, lincat, exactalg = sc["presets"], sc["interchange"], sc["lincat"], sc["exactalg"]
    instances = [
        _instance(sc, "Z3", presets.cyclic_group(3), 3),
        _instance(sc, "Z4", presets.cyclic_group(4), 4),
        _instance(sc, "Z5", presets.cyclic_group(5), 5),
        _instance(sc, "K4", presets.klein_four()),
        _instance(sc, "G2(Z2)", presets.connected_groupoid(presets.cyclic_group(2), 2)),
        _instance(sc, "A5", presets.chain_poset(5)),
        _instance(sc, "crown", _crown(presets)),
    ]
    ops: list[Op] = []
    for inst in instances:
        pres = inst.oracle
        tag = inst.name.replace("(", "").replace(")", "")
        cat = _write(os.path.join(workdir, f"{tag}.cat.json"), ix.category_to_json(lincat.linearize(inst.pres, exactalg.Field())))
        report = os.path.join(workdir, f"{tag}.report.json")
        for coeff, degree in (("canonical", 2), ("canonical", 3), ("kernel-comp", 2)):
            if coeff == "kernel-comp" and inst.name not in HM_Q_KERNEL_COMP:
                continue
            args = ["cohomology", cat, "--bimodule", coeff, "--max-degree", str(degree), "--json-out", report]
            ops.append(_cli_op(sc, inst.name, "cohomology", args, report,
                               _check_cohomology(pres, inst.cyclic, coeff, degree)))
        ops.append(_cli_op(sc, inst.name, "obstruction", ["obstruction", cat], check=_check_obstruction(pres)))
        if inst.name in HM_Q_LES:
            les = os.path.join(workdir, f"{tag}.les.json")
            ops.append(_cli_op(sc, inst.name, "les",
                               ["les", cat, "--ses", "kernel-comp", "--max-degree", "2", "--json-out", les],
                               les, _check_les(pres, inst.cyclic)))
    return ops


def _want_h(pres: Pres, cyclic: int, coeff: str, top: int, p: int = 0):
    if coeff == "canonical":
        return canonical_cohomology(pres, cyclic, p, top) or [None] * (top + 1)
    if separable(pres, p):
        return [None] + [0] * top
    return [None] * (top + 1)


def _check_cohomology(pres: Pres, cyclic: int, coeff: str, top: int):
    def check(code, out, art):
        errors = _expect(0)(code, out, art)
        rows = parse_table(out)
        coeff_dim = canonical_dim(pres) if coeff == "canonical" else kernel_comp_dim(pres)
        errors += cohomology_errors(rows, cochain_dims(pres, coeff_dim, top), _want_h(pres, cyclic, coeff, top))
        report = json.loads(art)
        if [[d["n"], d["dim_cochain"], d["rank_d"], d["dim_H"]] for d in report["degrees"]] != rows:
            errors.append("JSON report differs from the printed table")
        return errors
    return check


def _check_obstruction(pres: Pres):
    def check(code, out, art):
        sep = separable(pres, 0)
        return _expect(0 if sep else 1, f"kernel of comp: total dimension {kernel_comp_total(pres)}",
                       f"is_coboundary: {'yes' if sep else 'no'}")(code, out, art)
    return check


def _check_les(pres: Pres, cyclic: int):
    def check(code, out, art):
        errors = _expect(0)(code, out, art)
        rows = [line.split() for line in out.strip().splitlines()[1:-1]]
        for position, incoming, kernel, exact in rows:
            if exact != "yes" or incoming != kernel:
                errors.append(f"not exact at {position}")
        report = json.loads(art)
        for want_key, want in (("dim_H_P", _want_h(pres, cyclic, "canonical", 2)),
                               ("dim_H_M", _want_h(pres, cyclic, "kernel-comp", 2))):
            got = [d[want_key] for d in report["degrees"]]
            if any(w is not None and g != w for g, w in zip(got, want)):
                errors.append(f"{want_key} {got} != closed form {want}")
        return errors
    return check


# -- hm-random-Fp -------------------------------------------------------------

RANDOM_REPEATS = 3  # generator seeds per category; see NOTES.md for the fixed corpus


def _plain(m) -> tuple:
    rows = [m.entries[i * m.cols : (i + 1) * m.cols] for i in range(m.rows)]
    return (m.rows, m.cols, [[int(v) for v in row] for row in rows])


def hm_random_fp(workdir: str, seed: int) -> list[Op]:
    sc = _modules()
    presets, lincat, exactalg = sc["presets"], sc["lincat"], sc["exactalg"]
    cmod, sep_mod, coh = sc["cmod"], sc["separability"], sc["cohomology"]
    instances = [_instance(sc, f"Z{n}", presets.cyclic_group(n), n) for n in range(2, 6)]
    instances += [
        _instance(sc, "K4", presets.klein_four()),
        _instance(sc, "G2(Z2)", presets.connected_groupoid(presets.cyclic_group(2), 2)),
        _instance(sc, "G2(Z3)", presets.connected_groupoid(presets.cyclic_group(3), 2)),
        _instance(sc, "A3", presets.chain_poset(3)),
        _instance(sc, "vee", presets.vee_poset()),
    ]
    field = exactalg.Field(F7)
    ops: list[Op] = []
    for i, inst in enumerate(instances):
        pres = inst.oracle
        c = lincat.linearize(inst.pres, field)
        fam = sep_mod.solve_separability(c)
        reduced = sep_mod.reduce_family(c, fam) if fam is not None else None
        for r in range(RANDOM_REPEATS):
            ops += _random_ops(cmod, sep_mod, coh, inst.name, pres, c, reduced, i + len(instances) * r)
    return ops


def _random_ops(cmod, sep_mod, coh, name, pres, c, reduced, gen_seed) -> list[Op]:
    state = {}
    name = f"{name}#{gen_seed}"

    def bimodule():
        state["bimodule"] = cmod.random_bimodule(c, gen_seed)

    def bimodule_output():
        m = state["bimodule"]
        state["b_plain"] = plain = (dict(m.dims), {k: _plain(v) for k, v in m.left.items()},
                                    {k: _plain(v) for k, v in m.right.items()})
        return 0, "".join(repr(sorted(part.items())) for part in plain), b""

    def left_module():
        state["left"] = cmod.random_left_module(c, gen_seed)

    def left_output():
        m = state["left"]
        state["l_plain"] = plain = (dict(m.dims), {k: _plain(v) for k, v in m.action.items()})
        return 0, "".join(repr(sorted(part.items())) for part in plain), b""

    def cohomology():
        state["dims"] = coh.cohomology_dims(coh.build_hm_complex(c, state["bimodule"], 2))

    def cohomology_output():
        table = "degree  dim_cochain  rank_d  dim_H\n" + "\n".join(
            f"{d.n} {d.dim_cochain} {d.rank_d} {d.dim_h}" for d in state["dims"].degrees)
        return 0, table, b""

    def section():
        state["section"] = sep_mod.module_section(c, reduced, state["left"])

    def section_output():
        result = state["section"]
        return 0, f"section_ok: {result.section_ok}\nlinear_ok: {result.linear_ok}", b""

    def check_bimodule(code, out, art):
        dims, left, right = state["b_plain"]
        return bimodule_errors(pres, dims, left, right, F7, DIM_CAP)

    def check_left(code, out, art):
        dims, action = state["l_plain"]
        return left_module_errors(pres, dims, action, F7, DIM_CAP)

    def check_cohomology(code, out, art):
        dims, left, right = state["b_plain"]
        want = [invariants_dim(pres, dims, left, right, F7)] + ([0, 0] if separable(pres, F7) else [None, None])
        return cohomology_errors(parse_table(out), cochain_dims(pres, lambda x, y: dims[(x, y)], 2), want)

    ops = [
        Op(name, "random_coeff", "random_bimodule", bimodule, bimodule_output, check_bimodule, "op"),
        Op(name, "random_coeff", "random_left_module", left_module, left_output, check_left, "op"),
        Op(name, "coeff_cohomology", "cohomology_dims", cohomology, cohomology_output, check_cohomology, "op"),
    ]
    if reduced is not None:
        ops.append(Op(name, "coeff_section", "module_section", section, section_output,
                      _expect(0, "section_ok: True", "linear_ok: True"), "op"))
    return ops


def hm_q_probe():
    """Z5 canonical cohomology to degree 3 over F_7, as library calls: the
    F_p side of the Q-vs-F_p rank gap whose Q side is the hm-Q op."""
    sc = _modules()
    c = sc["lincat"].linearize(sc["presets"].cyclic_group(5), sc["exactalg"].Field(F7))
    m = sc["cmod"].canonical_bimodule(c)
    coh = sc["cohomology"]
    return lambda: coh.cohomology_dims(coh.build_hm_complex(c, m, 3))


WORKLOADS = {"sep-verbs": sep_verbs, "hm-Q": hm_q, "hm-random-Fp": hm_random_fp}
PROBES = {"hm-Q": hm_q_probe}

"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every assertion is an exact equality (zero tolerance); each test prints a
single PASS line once its criterion holds on the whole corpus.
"""

import json
from itertools import product

import pytest

from sepcat import presets
from sepcat import interchange as io
from sepcat.exactalg import Field, QQ
from sepcat.lincat import FiniteCatPresentation, linearize
from sepcat.cmod import (
    ShortExactSeq,
    canonical_bimodule,
    character_left_module,
    kernel_of,
    random_bimodule,
    random_left_module,
    representable_left_module,
    tensor_square,
)
from sepcat.cohomology import build_hm_complex, cohomology_dims, les_analysis, obstruction_cocycle
from test_exactalg import gauss_jordan
from sepcat.separability import (
    ei_predict,
    module_section,
    reduce_family,
    solve_separability,
    verify_family,
    zelinsky_report,
)

F2, F3, F5 = Field(2), Field(3), Field(5)
ALL_FIELDS = (QQ, F2, F3, F5)

GROUPOIDS = {
    "Z2": presets.cyclic_group(2),
    "Z3": presets.cyclic_group(3),
    "Z4": presets.cyclic_group(4),
    "Z2xZ2": presets.klein_four(),
    "G2(Z2)": presets.connected_groupoid(presets.cyclic_group(2), 2),
}

DELTA_NONDISCRETE = {
    "A2": presets.chain_poset(2),
    "A3": presets.chain_poset(3),
    "vee": presets.vee_poset(),
}

DISCRETE = {f"D{n}": presets.discrete_category(n) for n in (1, 2, 3)}

# characters with values +-1, usable over every field in the corpus
SIGNS = {
    "Z2": {"g0": 1, "g1": -1},
    "Z4": {"g0": 1, "g1": -1, "g2": 1, "g3": -1},
    "Z2xZ2": {"e": 1, "a": -1, "b": 1, "c": -1},
}


def groupoid_cases():
    for name, pres in GROUPOIDS.items():
        for k in ALL_FIELDS:
            yield name, pres, k


def separable_corpus():
    """Every separable instance from criteria 1 and 2, as (name, pres, field)."""
    out = []
    for name, pres, k in groupoid_cases():
        if ei_predict(pres, k).separable:
            out.append((name, pres, k))
    for name, pres in DISCRETE.items():
        for k in (QQ, F2, F3):
            out.append((name, pres, k))
    return out


def kernel_comp_ses(c):
    cxc, comp_map = tensor_square(c)
    ker, incl = kernel_of(comp_map)
    return ShortExactSeq(ker, cxc, comp_map.target, incl, comp_map)


def test_criterion_1_maschke_groupoids():
    import time

    checked = 0
    for name, pres, k in groupoid_cases():
        started = time.monotonic()
        c = linearize(pres, k)
        verdict = ei_predict(pres, k)
        hom_sizes = {
            len(pres.hom_set(x, y))
            for x in pres.objects
            for y in pres.objects
            if pres.hom_set(x, y)
        }
        expected = all(k.of(n) for n in hom_sizes)
        assert verdict.separable == expected, f"{name} over {k}"
        solved = solve_separability(c)
        assert (solved is not None) == expected, f"solver disagrees on {name} over {k}"
        if expected:
            check = verify_family(c, verdict.family)
            assert check.ok, f"formula certificate fails on {name} over {k}"
        assert time.monotonic() - started < 1.0, f"{name} over {k} took more than a second"
        checked += 1
    assert checked == 20
    print("PASS criterion 1: Maschke groupoid criterion on 20 cases")


def test_criterion_2_delta_categories():
    for name, pres in DELTA_NONDISCRETE.items():
        assert not ei_predict(pres, QQ).separable
        for k in (QQ, F2, F3):
            assert solve_separability(linearize(pres, k)) is None, f"{name} over {k}"
    for name, pres in DISCRETE.items():
        for k in (QQ, F2, F3):
            c = linearize(pres, k)
            assert solve_separability(c) is not None, f"{name} over {k}"
            verdict = ei_predict(pres, k)
            assert verdict.separable
            assert verify_family(c, verdict.family).ok
    print("PASS criterion 2: delta criterion on 9 + 9 cases")


def test_criterion_3_vanishing_for_separable_instances():
    import time

    started = time.monotonic()
    corpus = separable_corpus()
    assert len(corpus) == 24
    checked = 0
    for name, pres, k in corpus:
        c = linearize(pres, k)
        randoms = [random_bimodule(c, seed) for seed in range(5)]
        assert all(d <= 2 for m in randoms for d in m.dims.values())
        coefficients = [canonical_bimodule(c), kernel_comp_ses(c).m] + randoms
        for m in coefficients:
            result = cohomology_dims(build_hm_complex(c, m, 2))
            assert result.dim_h(1) == 0, f"H1 != 0 for {name} over {k}"
            assert result.dim_h(2) == 0, f"H2 != 0 for {name} over {k}"
            checked += 1
    assert checked == 24 * 7
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"vanishing checks took {elapsed:.1f}s"
    print(f"PASS criterion 3: H1 = H2 = 0 on {checked} coefficient systems in {elapsed:.1f}s")


def test_criterion_4_nonvanishing_witnesses():
    z2f2 = linearize(presets.cyclic_group(2), F2)
    result = cohomology_dims(build_hm_complex(z2f2, canonical_bimodule(z2f2), 1))
    assert result.dim_h(1) == 2  # derivations-mod-inner oracle: tests/test_cohomology.py
    a2q = linearize(presets.chain_poset(2), QQ)
    assert not obstruction_cocycle(a2q).is_coboundary
    report = les_analysis(a2q, kernel_comp_ses(a2q), 1)
    assert report.connecting_ranks[0] >= 1
    print("PASS criterion 4: H1(F2[Z2]) = 2; Q[A2] obstructed with nonzero connecting map")


def test_criterion_5_solver_matches_obstruction():
    instances = []
    for name, pres, k in groupoid_cases():
        instances.append((f"{name}/{k}", pres, k))
    for name, pres in {**DELTA_NONDISCRETE, **DISCRETE}.items():
        for k in (QQ, F2, F3):
            instances.append((f"{name}/{k}", pres, k))
    for seed, k in zip(range(8), (QQ, F2, F3, QQ, F5, F2, QQ, F3)):
        instances.append((f"random{seed}/{k}", presets.random_presentation(seed), k))
    assert len(instances) >= 30
    disagreements = []
    for name, pres, k in instances:
        c = linearize(pres, k)
        feasible = solve_separability(c) is not None
        coboundary = obstruction_cocycle(c).is_coboundary
        if feasible != coboundary:
            disagreements.append(name)
    assert not disagreements, disagreements
    print(f"PASS criterion 5: feasibility equals obstruction verdict on {len(instances)} instances")


def trace_form_separable(c) -> bool:
    """Dickson's criterion, an oracle sharing no elimination code with
    sepcat. Over Q, or F_p with p > dim, the total algebra (the direct sum
    of all hom spaces, composing where composable) is separable exactly
    when its trace form Tr(L_a L_b) is nondegenerate. Tr(L_a L_b) is
    Tr(L_ab), and Tr(L_e) sums the coefficient of each basis label f in e.f."""
    labels = list(c.label_info)
    position = {info: i for i, info in enumerate(c.label_info.values())}

    def times(g, f):
        """g . f as {label position: coefficient}; {} unless composable."""
        x, y, _ = c.label_info[f]
        y2, z, _ = c.label_info[g]
        if y != y2:
            return {}
        return {position[(x, z, k)]: v for k, v in c.comp_terms(g, f)}

    trace = [sum(times(e, f).get(i, 0) for i, f in enumerate(labels)) for e in labels]
    form = [
        [sum(v * trace[k] for k, v in times(a, b).items()) for b in labels]
        for a in labels
    ]
    _, pivots = gauss_jordan(form, c.field.p)
    return len(pivots) == len(labels)


def test_trace_form_matches_solver_and_obstruction():
    presentations = {**GROUPOIDS, **DELTA_NONDISCRETE, **DISCRETE}
    presentations.update({f"random{seed}": presets.random_presentation(seed) for seed in range(8)})
    checked = 0
    for name, pres in presentations.items():
        for k in (QQ, F2, F3, F5, Field(7)):
            c = linearize(pres, k)
            if k.p is not None and k.p <= c.total_dim():
                continue
            expected = trace_form_separable(c)
            assert (solve_separability(c) is not None) == expected, f"solver on {name} over {k}"
            assert obstruction_cocycle(c).is_coboundary == expected, f"obstruction on {name} over {k}"
            checked += 1
    assert checked >= 40
    print(f"PASS trace form: solver and obstruction agree with Dickson's criterion on {checked} instances")


def test_trace_form_in_every_characteristic():
    # where Dickson's converse needs p > dim, one direction still holds: a
    # nondegenerate trace form gives a family (its Casimir element); and a
    # commutative algebra is etale exactly when its trace form is
    # nondegenerate, so on categories with no morphism between distinct
    # objects and commuting endomorphisms the two agree
    presentations = {**GROUPOIDS, **DELTA_NONDISCRETE, **DISCRETE}
    presentations.update({f"random{seed}": presets.random_presentation(seed) for seed in range(8)})
    checked = equivalences = 0
    for name, pres in presentations.items():
        commutative_disjoint = all(x == y for x, y in pres.morphisms.values()) and all(
            pres.comp(g, f) == pres.comp(f, g) for g, (x, _) in pres.morphisms.items() for f in pres.hom_set(x, x)
        )
        for k in (F2, F3, F5, Field(7)):
            c = linearize(pres, k)
            if k.p > c.total_dim():
                continue
            nondegenerate = trace_form_separable(c)
            feasible = solve_separability(c) is not None
            if commutative_disjoint:
                assert feasible == nondegenerate, f"{name} over {k}"
                equivalences += 1
            else:
                assert feasible or not nondegenerate, f"{name} over {k}"
            checked += 1
    assert checked >= 30 and equivalences >= 10
    print(f"PASS trace form: Dickson's criterion holds where p <= dim on {checked} instances")


def test_criterion_6_module_projectivity():
    checked = 0
    for name, pres, k in separable_corpus():
        c = linearize(pres, k)
        fam = reduce_family(c, solve_separability(c))
        modules = [representable_left_module(c, c.objects[0])]
        if name in SIGNS:
            modules.append(character_left_module(c, {m: k.of(v) for m, v in SIGNS[name].items()}))
        seed = 0
        while len(modules) < 5:
            modules.append(random_left_module(c, seed))
            seed += 1
        for m in modules:
            result = module_section(c, fam, m)
            assert result.section_ok, f"section fails for {name} over {k}"
            assert result.linear_ok, f"linearity fails for {name} over {k}"
            checked += 1
    assert checked == 24 * 5
    print(f"PASS criterion 6: module sections valid on {checked} module instances")


def test_criterion_7_locally_finite_embedding():
    for name, pres, k in separable_corpus():
        c = linearize(pres, k)
        fam = reduce_family(c, solve_separability(c))
        report = zelinsky_report(c, fam)
        assert report.all_injective, f"non-injective embedding for {name} over {k}"
        for rec in report.pairs:
            assert rec.bound >= rec.hom_dim
    print("PASS criterion 7: embedding injective with valid bounds on all separable instances")


def test_criterion_8_complex_sanity_and_les():
    z2q = linearize(presets.cyclic_group(2), QQ)
    a2q = linearize(presets.chain_poset(2), QQ)
    z2f2 = linearize(presets.cyclic_group(2), F2)
    for c in (z2q, a2q, z2f2):
        for m in (canonical_bimodule(c), kernel_comp_ses(c).m):
            complex = build_hm_complex(c, m, 3)
            for n in range(3):
                assert (complex.diffs[n + 1] @ complex.diffs[n]).is_zero()
    for c in (z2q, a2q):
        assert les_analysis(c, kernel_comp_ses(c), 2).all_exact
    random_cat = linearize(presets.random_presentation(5), QQ)  # a seeded random poset
    assert les_analysis(random_cat, kernel_comp_ses(random_cat), 2).all_exact
    print("PASS criterion 8: d.d = 0 to degree 3; LES exact to degree 2 on all three sequences")


def test_criterion_9_determinism(tmp_path):
    from cli_runner import CliRunner
    from sepcat.cli import main

    runner = CliRunner()
    cat_path = tmp_path / "z2q.json"
    cat_path.write_text(json.dumps(io.category_to_json(linearize(presets.cyclic_group(2), QQ))))
    pres_path = tmp_path / "z2.json"
    pres_path.write_text(json.dumps(io.presentation_to_json(presets.cyclic_group(2))))
    snapshots = []
    for run in (1, 2):
        cert = tmp_path / f"cert{run}.json"
        coh = tmp_path / f"coh{run}.json"
        lin = tmp_path / f"lin{run}.json"
        outs = [
            runner.invoke(main, ["separability", "check", str(cat_path), "--certificate-out", str(cert)]).output,
            runner.invoke(main, ["cohomology", str(cat_path), "--bimodule", "kernel-comp",
                                 "--max-degree", "2", "--json-out", str(coh)]).output,
            runner.invoke(main, ["linearize", str(pres_path), "--field", "Fp:5", "-o", str(lin)]).output,
        ]
        snapshots.append((cert.read_bytes(), coh.read_bytes(), lin.read_bytes(), outs))
    assert snapshots[0] == snapshots[1]
    print("PASS criterion 9: byte-identical artifacts and reports across reruns")

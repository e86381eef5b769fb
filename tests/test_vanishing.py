"""The vanishing theorem for separable categories, and the CLI answers built on it.

When C is separable, H^n(C, M) = 0 for every n >= 1 and every bimodule M.
A separability family e_x = sum u (x) v, with u in hom(y, x) and v in
hom(x, y) weighted by the block A[x][y], is an explicit witness: the
contracting homotopy

  (s phi)(f1, ..., f(n-1)) = sum u . phi(v, f1, ..., f(n-1))

satisfies d s + s d = id on C^n for n >= 1 (Hochschild 1945; Mitchell,
Rings with several objects, 1972). The first tests check that identity
with sepcat's own differentials, which shares no elimination with the
ranks. The rest pin the `cohomology` and `les` verbs, which compute a
separable category's complex to degree 1 and take the higher degrees from
the theorem, to the full library computation.
"""

import json
from itertools import product

import pytest

from sepcat import cohomology, interchange as io, presets
from sepcat.cli import main
from sepcat.cmod import BimoduleMap, ShortExactSeq, _kernel_comp_ses, canonical_bimodule, random_bimodule, zero_bimodule
from sepcat.exactalg import Field, Matrix, QQ
from sepcat.lincat import linearize
from sepcat.separability import SeparabilityFamily, _solve_system, _trace_casimir, verify_family
from cli_runner import CliRunner
from test_acceptance import separable_corpus

F2 = Field(2)


def cochain_basis(c, m, bases, n):
    """{(objs, args, t): index} on the argument labels bases, in the
    documented basis order: object tuples lexicographically, argument
    indices row-major, coefficient index fastest."""
    index = {}
    for objs in product(c.objects, repeat=n + 1):
        homs = [bases[(objs[i + 1], objs[i])] for i in range(n)]
        if all(homs):
            for args in product(*(range(len(h)) for h in homs)):
                for t in range(m.dims[(objs[0], objs[n])]):
                    index[(objs, args, t)] = len(index)
    return index


def homotopy(c, m, fam, n):
    """s^n: C^n -> C^(n-1), (s phi)(f1, ..., f(n-1)) = sum u . phi(v, f1, ...),
    summed over the terms A[x0][y][i, j] u_i (x) v_j of e_x0. A basis cochain
    phi at (y, x0, ..., x(n-1)) is nonzero only at its own first argument
    v, so column phi gets u . phi(v) at the tuple with v dropped."""
    fld = c.field
    bases = cohomology._argument_bases(c)
    src, tgt = cochain_basis(c, m, bases, n), cochain_basis(c, m, bases, n - 1)
    value: dict = {}
    for (objs, args, t), col in src.items():
        y, x0, last = objs[0], objs[1], objs[-1]
        blk = fam.blocks.get((x0, y))
        if blk is None:
            continue
        j = c.hom(x0, y).index(bases[(x0, y)][args[0]])
        for i, u in enumerate(c.hom(y, x0)):
            coeff = blk.row(i)[j]
            if not coeff:
                continue
            for s, v in enumerate(m.left[(u, last)].col(t)):
                if v:
                    key = (tgt[(objs[1:], args[1:], s)], col)
                    value[key] = fld.add(value.get(key, fld.zero), fld.mul(coeff, v))
    return Matrix.from_entries(fld, len(tgt), len(src), [(r, k, v) for (r, k), v in value.items()])


def assert_contracting(c, m, fam, label):
    """d^(n-1) s^n + s^(n+1) d^n = id on C^n for n = 1, 2."""
    complex = cohomology.build_hm_complex(c, m, 2)
    s = {n: homotopy(c, m, fam, n) for n in (1, 2, 3)}
    for n in (1, 2):
        assert (s[n].cols, s[n].rows) == (complex.dim(n), complex.dim(n - 1)), label
        total = complex.diffs[n - 1] @ s[n] + s[n + 1] @ complex.diffs[n]
        assert total == Matrix.identity(c.field, complex.dim(n)), f"d s + s d != id on C^{n}: {label}"


def coefficient_systems(c):
    return [("canonical", canonical_bimodule(c)), ("kernel-comp", _kernel_comp_ses(c).m)] + [
        (f"random{seed}", random_bimodule(c, seed)) for seed in (0, 1)
    ]


def separable_pairs():
    return [pytest.param(pres, k, id=f"{name}/{k}") for name, pres, k in separable_corpus()]


@pytest.mark.parametrize("pres, k", separable_pairs())
def test_casimir_element_contracts_the_complex(pres, k):
    c = linearize(pres, k)
    fam = _trace_casimir(c)
    assert fam is not None and verify_family(c, fam).ok
    for kind, m in coefficient_systems(c):
        assert_contracting(c, m, fam, kind)


@pytest.mark.parametrize("group, n_objects, k", [
    pytest.param(1, 2, F2, id="G2(Z1)/F2"),
    pytest.param(3, 2, QQ, id="G2(Z3)/Q"),
    pytest.param(2, 3, QQ, id="G3(Z2)/Q"),
])
def test_solver_family_contracts_the_complex(group, n_objects, k):
    # G2(Z1) over F2 has a degenerate trace form, so only the solver finds
    # its family; on G2(Z3) and G3(Z2) over Q it differs from the Casimir
    # element
    c = linearize(presets.connected_groupoid(presets.cyclic_group(group), n_objects), k)
    fam = _solve_system(c)
    assert verify_family(c, fam).ok
    casimir = _trace_casimir(c)
    assert casimir is None if k == F2 else casimir.blocks != fam.blocks
    for kind, m in coefficient_systems(c):
        assert_contracting(c, m, fam, kind)


def test_a_family_with_one_entry_moved_does_not_contract():
    c = linearize(presets.cyclic_group(3), QQ)
    fam = _trace_casimir(c)
    (key, blk), = fam.blocks.items()
    rows = [blk.row(i) for i in range(blk.rows)]
    j = next(j for j, v in enumerate(rows[0]) if v)
    rows[0][j], rows[0][j - 1] = rows[0][j - 1], rows[0][j]
    moved = SeparabilityFamily({key: Matrix.from_rows(c.field, rows)})
    assert not verify_family(c, moved).ok
    with pytest.raises(AssertionError, match="d s \\+ s d != id"):
        assert_contracting(c, canonical_bimodule(c), moved, "moved")


# -- the CLI's separable path against the full computation ---------------------

MAX_DEGREE = 3


def table(result):
    lines = ["degree  dim_cochain  rank_d  dim_H"]
    lines += [f"{d.n:<7} {d.dim_cochain:<12} {d.rank_d:<7} {d.dim_h}" for d in result.degrees]
    return "\n".join(lines) + "\n"


def les_text(report):
    lines = ["position  incoming_rank  kernel_dim  exact"]
    lines += [
        f"{r.position:<9} {r.incoming_rank:<14} {r.kernel_dim:<11} {'yes' if r.exact else 'NO'}"
        for r in report.positions
    ]
    lines.append("connecting ranks: " + " ".join(str(r) for r in report.connecting_ranks))
    return "\n".join(lines) + "\n"


def json_text(doc):
    return json.dumps(doc, indent=2) + "\n"


def write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def identity_ses(n):
    """0 -> 0 -> N -> N -> 0."""
    c, zero = n.cat, zero_bimodule(n.cat)
    i = BimoduleMap(zero, n, {key: Matrix.zeros(c.field, d, 0) for key, d in n.dims.items()})
    q = BimoduleMap(n, n, {key: Matrix.identity(c.field, d) for key, d in n.dims.items()})
    return ShortExactSeq(zero, n, n, i, q)


def cli_cases():
    """The separable pairs, then A5 and A2 over Q, which are not separable."""
    cases = [pytest.param(pres, k, id=f"{name}/{k}") for name, pres, k in separable_corpus()]
    return cases + [pytest.param(presets.chain_poset(n), QQ, id=f"A{n}/Q") for n in (5, 2)]


@pytest.mark.parametrize("pres, k", cli_cases())
def test_cli_answers_equal_the_full_computation(pres, k, tmp_path):
    runner = CliRunner()
    c = linearize(pres, k)
    cat = write(tmp_path / "cat.json", io.category_to_json(c))
    randoms = [random_bimodule(c, seed) for seed in (0, 1)]
    specs = [("canonical", canonical_bimodule(c)), ("kernel-comp", _kernel_comp_ses(c).m)]
    specs += [(write(tmp_path / f"random{i}.json", io.bimodule_to_json(m)), m) for i, m in enumerate(randoms)]
    out = tmp_path / "out.json"
    for spec, m in specs:
        result = runner.invoke(main, ["cohomology", cat, "--bimodule", spec, "--max-degree", str(MAX_DEGREE),
                                      "--json-out", str(out)])
        want = cohomology.cohomology_dims(cohomology.build_hm_complex(c, m, MAX_DEGREE))
        assert (result.exit_code, result.stderr, result.stdout) == (0, "", table(want)), spec
        assert out.read_text() == json_text(io.cohomology_report_to_json(want)), spec
    ses_specs = [("kernel-comp", _kernel_comp_ses(c))]
    ses_specs += [(write(tmp_path / f"ses{i}.json", io.ses_to_json(identity_ses(m))), identity_ses(m))
                  for i, m in enumerate(randoms)]
    for spec, ses in ses_specs:
        result = runner.invoke(main, ["les", cat, "--ses", spec, "--max-degree", str(MAX_DEGREE),
                                      "--json-out", str(out)])
        want = cohomology.les_analysis(c, ses, MAX_DEGREE)
        assert (result.exit_code, result.stderr, result.stdout) == (0, "", les_text(want)), spec
        assert out.read_text() == json_text(io.les_report_to_json(want)), spec


CATEGORIES = {
    "Z2/Q": (presets.cyclic_group(2), QQ),
    "A2/Q": (presets.chain_poset(2), QQ),
    "A5/Q": (presets.chain_poset(5), QQ),
    "Z5/Q": (presets.cyclic_group(5), QQ),
    "Z2/F2": (presets.cyclic_group(2), F2),
}


@pytest.fixture
def category_files(tmp_path):
    return {
        name: write(tmp_path / f"cat{i}.json", io.category_to_json(linearize(pres, k)))
        for i, (name, (pres, k)) in enumerate(CATEGORIES.items())
    }


@pytest.mark.parametrize("verb", ["cohomology", "les"])
def test_a_separable_verdict_with_nonzero_h1_is_exit_three(verb, category_files, monkeypatch):
    # A5 is not separable and H^1(A5, ker comp) is not 0; told otherwise,
    # the verbs must catch the contradiction in degree 1
    monkeypatch.setattr("sepcat.cli._is_separable", lambda c: True)
    option = "--bimodule" if verb == "cohomology" else "--ses"
    result = CliRunner().invoke(main, [verb, category_files["A5/Q"], option, "kernel-comp"])
    assert result.exit_code == 3
    message = "nonzero H^1" if verb == "cohomology" else "nonzero H^1 or connecting rank"
    assert result.stderr == f"internal cross-check failure: {message} over a separable category\n"


@pytest.mark.parametrize("verb", ["cohomology", "les"])
def test_a_family_that_does_not_verify_is_exit_three(verb, category_files, monkeypatch):
    monkeypatch.setattr("sepcat.separability.solve_separability", lambda c: SeparabilityFamily({}))
    option = "--bimodule" if verb == "cohomology" else "--ses"
    result = CliRunner().invoke(main, [verb, category_files["Z2/Q"], option, "kernel-comp"])
    assert (result.exit_code, result.stdout) == (3, "")
    assert result.stderr == "internal cross-check failure: solver output fails verification\n"


# -- contracts both paths keep: Z2 and Z5 over Q take the separable one --------


@pytest.mark.parametrize("name", ["Z2/Q", "A2/Q"])
@pytest.mark.parametrize("verb, option, spec", [("cohomology", "--bimodule", "canonical"),
                                                ("les", "--ses", "kernel-comp")])
def test_max_degree_zero_is_exit_two(verb, option, spec, name, category_files):
    result = CliRunner().invoke(main, [verb, category_files[name], option, spec, "--max-degree", "0"])
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr == "malformed input: max_degree must be at least 1\n"


@pytest.mark.parametrize("name, max_degree", [("Z5/Q", 5), ("Z2/F2", 13)])
def test_budget_overrun_names_the_first_degree_past_it(name, max_degree, category_files):
    # the bar complex of the canonical bimodule has dim C^n = |G|^(n+1):
    # Z5 passes 20000 at degree 6, Z2 at degree 14
    result = CliRunner().invoke(main, ["cohomology", category_files[name], "--bimodule", "canonical",
                                       "--max-degree", str(max_degree)])
    assert (result.exit_code, result.stdout) == (3, "")
    assert result.stderr == (
        f"budget exceeded: cochain dimension at degree {max_degree + 1} exceeds the budget of 20000 columns\n"
    )

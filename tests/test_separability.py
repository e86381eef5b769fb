from contextlib import contextmanager
from functools import lru_cache
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from sepcat import presets
from sepcat.exactalg import Field, Matrix, QQ
from sepcat.lincat import linearize
from sepcat.cmod import (
    LeftModule,
    character_left_module,
    kernel_of,
    random_left_module,
    representable_left_module,
    tensor_square,
    validate_module,
)
from sepcat.cohomology import build_hm_complex, cohomology_dims
from sepcat.separability import (
    SeparabilityFamily,
    _solve_with_freedom,
    delta_predict,
    family_from_vector,
    maschke_predict,
    module_section,
    rank_factor,
    reduce_family,
    separability_system,
    solve_separability,
    verify_family,
    zelinsky_report,
)
from test_acceptance import ALL_FIELDS, DELTA_NONDISCRETE, DISCRETE, GROUPOIDS
from test_lincat import GENERATOR_PRESETS, interleaved_groupoid, kk_idempotent_basis

F2, F3, F5, F7 = Field(2), Field(3), Field(5), Field(7)


class TestSolver:
    def test_group_algebra_over_q(self, z2_over_q):
        fam = solve_separability(z2_over_q)
        assert fam is not None
        assert verify_family(z2_over_q, fam).ok

    def test_group_algebra_in_characteristic_two(self, z2_over_f2):
        assert solve_separability(z2_over_f2) is None

    def test_chain_poset(self, a2_over_q):
        assert solve_separability(a2_over_q) is None

    @pytest.mark.parametrize("seed", range(10))
    def test_solver_soundness_on_random_categories(self, seed):
        c = linearize(presets.random_presentation(seed), QQ)
        fam = solve_separability(c)
        if fam is not None:
            assert verify_family(c, fam).ok

    @pytest.mark.parametrize(
        "pres",
        [presets.cyclic_group(1), presets.cyclic_group(2), presets.chain_poset(2),
         presets.discrete_category(2), presets.idempotent_monoid()],
        ids=["trivial", "z2", "a2", "discrete2", "idempotent"],
    )
    def test_feasibility_matches_exhaustive_search_over_f2(self, pres):
        # small enough that every coefficient assignment can be enumerated
        c = linearize(pres, F2)
        _, _, offsets = separability_system(c)
        total = sum(c.dim_hom(y, x) * c.dim_hom(x, y) for x in c.objects for y in c.objects)
        assert total <= 4
        found = False
        for bits in product((0, 1), repeat=total):
            fam = family_from_vector(c, [F2.of(b) for b in bits], offsets)
            if verify_family(c, fam).ok:
                found = True
                break
        assert found == (solve_separability(c) is not None)

    def test_split_algebra_in_idempotent_basis(self):
        # K x K presented with identity p + q, not a basis unit vector
        from sepcat.lincat import FinLinCat

        c = FinLinCat(
            QQ,
            ["x"],
            {("x", "x"): ["p", "q"]},
            {("p", "p"): [("p", 1)], ("q", "q"): [("q", 1)]},
            {"x": [("p", 1), ("q", 1)]},
        )
        fam = solve_separability(c)
        assert fam is not None and verify_family(c, fam).ok
        assert fam.blocks[("x", "x")] == Matrix.from_rows(QQ, [[1, 0], [0, 1]])

    def test_homogeneous_kernel_shifts_preserve_validity(self):
        # indiscrete groupoid: the certificate space has positive dimension
        c = linearize(presets.connected_groupoid(presets.cyclic_group(1), 2), QQ)
        mat, rhs, offsets = separability_system(c)
        sol = mat.solve_many(rhs)
        assert sol is not None
        kernel = mat.kernel_basis()
        assert kernel.cols >= 1
        for k in range(kernel.cols):
            shifted = [QQ.add(a, b) for a, b in zip(sol.entries, kernel.col(k))]
            fam = family_from_vector(c, shifted, offsets)
            assert verify_family(c, fam).ok


class TestVerify:
    def test_explicit_half_formula(self, z2_over_q):
        fam = SeparabilityFamily({("x", "x"): Matrix.from_rows(QQ, [["1/2", 0], [0, "1/2"]])})
        assert verify_family(z2_over_q, fam).ok

    def test_unit_alone_fails_equivariance(self, z2_over_q):
        fam = SeparabilityFamily({("x", "x"): Matrix.from_rows(QQ, [[1, 0], [0, 0]])})
        check = verify_family(z2_over_q, fam)
        assert not check.ok
        assert not check.unit_residuals  # e.e = 1_x holds
        assert ("g1", "x") in check.equivariance_residuals

    def test_every_label_residual_listed(self):
        # 1_x (x) 1_x on Z3: the generator g1 and the composite g2 = g1 . g1
        # both have residuals, and both are listed
        c = linearize(presets.cyclic_group(3), QQ)
        fam = SeparabilityFamily({("x", "x"): Matrix.from_rows(QQ, [[1, 0, 0], [0, 0, 0], [0, 0, 0]])})
        assert verify_family(c, fam).equivariance_witnesses == [("g1", "x"), ("g2", "x")]

    def test_discrete_certificate(self, discrete2_over_q):
        fam = SeparabilityFamily({
            (x, x): Matrix.from_rows(QQ, [[1]]) for x in discrete2_over_q.objects
        })
        assert verify_family(discrete2_over_q, fam).ok

    def test_shape_mismatch_raises(self, z2_over_q):
        fam = SeparabilityFamily({("x", "x"): Matrix.from_rows(QQ, [[1]])})
        with pytest.raises(ValueError):
            verify_family(z2_over_q, fam)


class TestReduce:
    def test_half_formula_terms(self, z2_over_q):
        fam = solve_separability(z2_over_q)
        red = reduce_family(z2_over_q, fam)
        terms = red.terms[("x", "x")]
        assert len(terms) == 2
        assert terms[0] == ((QQ.of("1/2"), QQ.of(0)), (QQ.of(1), QQ.of(0)))
        assert terms[1] == ((QQ.of(0), QQ.of("1/2")), (QQ.of(0), QQ.of(1)))

    def test_zero_blocks_have_no_terms(self, discrete2_over_q):
        fam = solve_separability(discrete2_over_q)
        red = reduce_family(discrete2_over_q, fam)
        assert set(red.terms) == {(x, x) for x in discrete2_over_q.objects}

    def test_rank_factor_merges_repeated_left_factor(self):
        # u (x) v + u (x) w has rank one and a single term u (x) (v + w)
        a = Matrix.from_rows(QQ, [[1, 1], [0, 0]])
        terms = rank_factor(a)
        assert len(terms) == 1
        assert terms[0] == ((QQ.of(1), QQ.of(0)), (QQ.of(1), QQ.of(1)))

    @pytest.mark.parametrize("seed", range(6))
    def test_recomposition_and_independence(self, seed):
        c = linearize(presets.random_presentation(seed), QQ)
        fam = solve_separability(c)
        if fam is None:
            pytest.skip("instance not separable")
        red = reduce_family(c, fam)
        for (x, y), terms in red.terms.items():
            blk = fam.blocks[(x, y)]
            assert len(terms) == blk.rank()
            g_rows = Matrix.from_rows(QQ, [list(v) for (_, v) in terms])
            assert g_rows.rank() == len(terms)


class TestMaschke:
    def test_z3_in_characteristic_three(self):
        verdict = maschke_predict(presets.cyclic_group(3), F3)
        assert not verdict.separable
        assert verdict.witness == ("x", "x", 3)

    def test_z2_over_q_formula(self, z2_over_q):
        verdict = maschke_predict(presets.cyclic_group(2), QQ)
        assert verdict.separable
        blk = verdict.family.blocks[("x", "x")]
        assert blk == Matrix.from_rows(QQ, [["1/2", 0], [0, "1/2"]])
        assert verify_family(z2_over_q, verdict.family).ok

    def test_trivial_group(self):
        verdict = maschke_predict(presets.cyclic_group(1), QQ)
        assert verdict.separable
        assert verdict.family.blocks[("x", "x")] == Matrix.from_rows(QQ, [[1]])

    def test_connected_groupoid_certificate(self):
        p = presets.connected_groupoid(presets.cyclic_group(2), 2)
        for k in (QQ, F3, F5):
            c = linearize(p, k)
            verdict = maschke_predict(p, k)
            assert verdict.separable
            assert verify_family(c, verdict.family).ok

    def test_non_groupoid_rejected(self):
        with pytest.raises(ValueError):
            maschke_predict(presets.chain_poset(2), QQ)

    def test_disconnected_groupoid(self):
        # two isolated copies of Z/2; empty cross hom-sets must not count
        from sepcat.lincat import FiniteCatPresentation

        g = presets.cyclic_group(2)
        morphs = dict(g.morphisms)
        morphs.update({"h0": ("y", "y"), "h1": ("y", "y")})
        comp = dict(g.composition)
        comp.update({("h0", "h0"): "h0", ("h0", "h1"): "h1", ("h1", "h0"): "h1", ("h1", "h1"): "h0"})
        p = FiniteCatPresentation(["x", "y"], morphs, {"x": "g0", "y": "h0"}, comp)
        verdict = maschke_predict(p, QQ)
        assert verdict.separable
        c = linearize(p, QQ)
        assert verify_family(c, verdict.family).ok
        assert not maschke_predict(p, F2).separable

    def test_components_interleaved_in_object_order(self):
        # a and c form one component and b another: each object's reference
        # object is the first of its component, so c's is a, not b
        p = interleaved_groupoid()
        verdict = maschke_predict(p, QQ)
        assert verdict.separable
        assert set(verdict.family.blocks) == {("a", "a"), ("c", "a"), ("b", "b")}
        assert verify_family(linearize(p, QQ), verdict.family).ok


class TestDelta:
    def test_discrete_two_objects(self, discrete2_over_q):
        verdict = delta_predict(presets.discrete_category(2))
        assert verdict.separable
        assert verify_family(discrete2_over_q, verdict.family).ok

    @pytest.mark.parametrize("pres", [presets.chain_poset(2), presets.chain_poset(3), presets.vee_poset()],
                             ids=["a2", "a3", "vee"])
    def test_nondiscrete_posets(self, pres):
        assert not delta_predict(pres).separable

    def test_non_delta_rejected(self):
        with pytest.raises(ValueError):
            delta_predict(presets.cyclic_group(2))


class TestOracleAgreement:
    groupoids = [presets.cyclic_group(2), presets.cyclic_group(3), presets.cyclic_group(4),
                 presets.klein_four(), presets.connected_groupoid(presets.cyclic_group(2), 2)]

    @pytest.mark.parametrize("k", [QQ, F2, F3, F5], ids=str)
    @pytest.mark.parametrize("idx", range(len(groupoids)))
    def test_groupoids_agree_with_solver(self, idx, k):
        p = self.groupoids[idx]
        c = linearize(p, k)
        verdict = maschke_predict(p, k)
        assert verdict.separable == (solve_separability(c) is not None)
        if verdict.separable:
            assert verify_family(c, verdict.family).ok

    @pytest.mark.parametrize("k", [QQ, F2, F3], ids=str)
    @pytest.mark.parametrize("pres", [presets.chain_poset(2), presets.chain_poset(3),
                                      presets.vee_poset(), presets.discrete_category(1),
                                      presets.discrete_category(2), presets.discrete_category(3)],
                             ids=["a2", "a3", "vee", "d1", "d2", "d3"])
    def test_delta_agrees_with_solver(self, pres, k):
        verdict = delta_predict(pres, k)
        c = linearize(pres, k)
        assert verdict.separable == (solve_separability(c) is not None)


SECTION_PRESETS = {
    **{f"Z{n}": (lambda n=n: presets.cyclic_group(n)) for n in range(2, 7)},
    "K4": presets.klein_four,
    "G2(Z3)": lambda: presets.connected_groupoid(presets.cyclic_group(3), 2),
    "G3(Z2)": lambda: presets.connected_groupoid(presets.cyclic_group(2), 3),
    "D2": lambda: presets.discrete_category(2),
    **{f"random{seed}": (lambda seed=seed: presets.random_presentation(seed)) for seed in range(6)},
}


def _section_modules(c):
    """Representable modules, the trivial character and two random modules."""
    mods = [representable_left_module(c, x) for x in c.objects]
    mods.append(character_left_module(c, {f: 1 for f in c.label_info}))
    mods.extend(random_left_module(c, seed) for seed in range(2))
    assert all(validate_module(c, m).ok for m in mods)
    return mods


class TestModuleSection:
    def test_trivial_category_unit_section(self, trivial_cat):
        fam = reduce_family(trivial_cat, solve_separability(trivial_cat))
        m = representable_left_module(trivial_cat, "x")
        result = module_section(trivial_cat, fam, m)
        assert result.section_ok and result.linear_ok
        assert result.psi[("x", "x")] == Matrix.from_rows(QQ, [[1]])

    def test_regular_module(self, z2_over_q):
        fam = reduce_family(z2_over_q, solve_separability(z2_over_q))
        m = representable_left_module(z2_over_q, "x")
        result = module_section(z2_over_q, fam, m)
        assert result.section_ok and result.linear_ok

    def test_sign_module_halves(self, z2_over_q):
        fam = reduce_family(z2_over_q, solve_separability(z2_over_q))
        sign = character_left_module(z2_over_q, {"g0": 1, "g1": -1})
        result = module_section(z2_over_q, fam, sign)
        assert result.section_ok and result.linear_ok
        # psi(m) = (1/2) e (x) m - (1/2) g (x) m, frozen by hand
        assert result.psi[("x", "x")] == Matrix.from_rows(QQ, [["1/2"], ["-1/2"]])

    @pytest.mark.parametrize("k", [QQ, F7], ids=str)
    @pytest.mark.parametrize("name", sorted(SECTION_PRESETS))
    def test_unreduced_family_gives_the_same_section_and_report(self, name, k):
        c = linearize(SECTION_PRESETS[name](), k)
        fam = solve_separability(c)
        if fam is None:
            pytest.skip(f"{name} is not separable over {k}")
        reduced = reduce_family(c, fam)
        for m in _section_modules(c):
            got, want = module_section(c, fam, m), module_section(c, reduced, m)
            assert got.section_ok and got.linear_ok
            assert (got.psi, got.section_ok, got.linear_ok, got.failures) == \
                (want.psi, want.section_ok, want.linear_ok, want.failures)
            # the section summed over rank-one terms u (x) (v acting), written out
            for (x, y), terms in reduced.terms.items():
                by_terms = Matrix.zeros(k, c.dim_hom(y, x) * m.dims[y], m.dims[x])
                for u, v in terms:
                    act = Matrix.zeros(k, m.dims[y], m.dims[x])
                    for lab, a in zip(c.hom(x, y), v):
                        act = act + m.action[lab].scale(a)
                    by_terms = by_terms + Matrix(k, len(u), 1, list(u)).kron(act)
                assert got.psi[(x, y)] == by_terms
        assert zelinsky_report(c, fam).pairs == zelinsky_report(c, reduced).pairs

    def test_unit_only_family_splits_but_does_not_commute(self, z2_over_q):
        # a = e (x) e satisfies the unit condition but not equivariance, so
        # psi(m) = e (x) m is a section that g does not commute with
        fam = SeparabilityFamily({("x", "x"): Matrix.from_rows(QQ, [[1, 0], [0, 0]])})
        assert verify_family(z2_over_q, fam).equivariance_witnesses
        result = module_section(z2_over_q, fam, representable_left_module(z2_over_q, "x"))
        assert result.section_ok and not result.linear_ok
        assert result.failures == ["psi does not commute with g1 at y=x"]

    @pytest.mark.parametrize("seed", range(4))
    def test_random_modules_split(self, z2_over_q, seed):
        fam = reduce_family(z2_over_q, solve_separability(z2_over_q))
        m = random_left_module(z2_over_q, seed)
        result = module_section(z2_over_q, fam, m)
        assert result.section_ok and result.linear_ok


class TestZelinsky:
    def test_group_algebra_embedding(self, z2_over_q):
        fam = reduce_family(z2_over_q, solve_separability(z2_over_q))
        report = zelinsky_report(z2_over_q, fam)
        (rec,) = report.pairs
        assert rec.hom_dim == 2 and rec.bound == 4 and rec.injective
        assert rec.v_dims == [("x", 2, 2)]

    def test_trivial_category(self, trivial_cat):
        fam = reduce_family(trivial_cat, solve_separability(trivial_cat))
        (rec,) = zelinsky_report(trivial_cat, fam).pairs
        assert rec.bound == 1 and rec.injective

    @pytest.mark.parametrize(
        "us,note",
        [
            # V[x,x] = span(e + g): closed under g, but one-dimensional
            ([(1, 1), (2, 2)], ""),
            # V[x,x] = span(e), and g . e = g leaves it
            ([(1, 0), (3, 0)], "f.V[x,x] is not contained in V[x,x]"),
        ],
    )
    def test_dependent_left_factors(self, z2_over_q, us, note):
        # hand-built terms u (x) v with linearly dependent u's, so V[x,x] has
        # fewer basis vectors than there are terms; the v's are the unit
        # vectors, so column j of the block is us[j]
        terms = [(tuple(map(QQ.of, u)), v) for u, v in zip(us, [(QQ.one, QQ.zero), (QQ.zero, QQ.one)])]
        block = Matrix.from_rows(QQ, [[u[i] for u in us] for i in range(2)])
        fam = SeparabilityFamily({("x", "x"): block}, {("x", "x"): terms})
        (rec,) = zelinsky_report(z2_over_q, fam).pairs
        assert (rec.hom_dim, rec.v_dims, rec.bound) == (2, [("x", 1, 1)], 1)
        assert (rec.injective, rec.note) == (False, note)

    def test_discrete_cross_pairs_vacuous(self, discrete2_over_q):
        fam = reduce_family(discrete2_over_q, solve_separability(discrete2_over_q))
        report = zelinsky_report(discrete2_over_q, fam)
        cross = [r for r in report.pairs if r.x != r.z]
        assert cross and all(r.hom_dim == 0 and r.bound == 0 and r.injective for r in cross)
        assert report.all_injective


# -- generators first against every label ---------------------------------


def _every_label(c):
    return list(c.label_info)


@contextmanager
def every_label_checked():
    """The reference: each per-label law checked on every basis label."""
    with mock.patch("sepcat.separability.generating_labels", _every_label), \
            mock.patch("sepcat.cmod.generating_labels", _every_label):
        yield


@lru_cache(maxsize=None)
def _generator_case(name: str, p):
    k = Field(p) if p else QQ
    return kk_idempotent_basis(k) if name == "KK" else linearize(GENERATOR_PRESETS[name](), k)


@lru_cache(maxsize=None)
def _generator_module(name: str, p, seed: int):
    return random_left_module(_generator_case(name, p), seed)


def _system_rref(c):
    mat, rhs, _ = separability_system(c)
    aug = mat.hstack(rhs).rref()
    freedom = mat.cols - sum(1 for pc in aug.pivot_cols if pc < mat.cols)
    return aug.reduced.row_terms[: aug.rank], aug.pivot_cols, freedom


def _moved(fld, mat: Matrix, data) -> Matrix:
    """mat with one entry moved by a nonzero integer (zero in F_p when p divides it)."""
    if not mat.rows * mat.cols:
        return mat
    entries = list(mat.entries)
    i = data.draw(st.integers(0, len(entries) - 1))
    entries[i] = fld.add(entries[i], fld.of(data.draw(st.sampled_from([-1, 1, 2, 3]))))
    return Matrix(fld, mat.rows, mat.cols, entries)


@given(st.sampled_from(sorted(GENERATOR_PRESETS) + ["KK"]), st.sampled_from([None, 2, 7]), st.data())
@settings(max_examples=80, deadline=None)
def test_generators_first_equals_every_label(name, p, data):
    c = _generator_case(name, p)
    fld = c.field
    # the separability system: the same augmented rref, hence the same certificate and freedom
    got = _system_rref(c)
    with every_label_checked():
        assert got == _system_rref(c)
    # a family with up to two entries moved: the same check, residuals and witness order
    blocks = dict((solve_separability(c) or SeparabilityFamily({})).blocks)
    pairs = [(x, y) for x in c.objects for y in c.objects if c.dim_hom(x, y) * c.dim_hom(y, x)]
    for _ in range(data.draw(st.integers(0, 2))):
        x, y = data.draw(st.sampled_from(pairs))
        blocks[(x, y)] = _moved(fld, SeparabilityFamily(blocks).block(c, x, y), data)
    got = verify_family(c, SeparabilityFamily(blocks))
    with every_label_checked():
        want = verify_family(c, SeparabilityFamily(blocks))
    assert got.ok == want.ok and got.unit_residuals == want.unit_residuals
    assert list(got.equivariance_residuals.items()) == list(want.equivariance_residuals.items())
    # the section of that family on valid modules: the same psi, verdicts and failures
    for m in (representable_left_module(c, data.draw(st.sampled_from(c.objects))),
              _generator_module(name, p, data.draw(st.integers(0, 2)))):
        got = module_section(c, SeparabilityFamily(blocks), m)
        with every_label_checked():
            want = module_section(c, SeparabilityFamily(blocks), m)
        assert (got.psi, got.section_ok, got.linear_ok, got.failures) == \
            (want.psi, want.section_ok, want.linear_ok, want.failures)
    # a representable left module with up to two action entries moved: the same violations
    m = representable_left_module(c, data.draw(st.sampled_from(c.objects)))
    action = dict(m.action)
    for _ in range(data.draw(st.integers(0, 2))):
        f = data.draw(st.sampled_from(sorted(c.label_info)))
        action[f] = _moved(fld, action[f], data)
    got = validate_module(c, LeftModule(c, m.dims, action)).violations
    with every_label_checked():
        assert got == validate_module(c, LeftModule(c, m.dims, action)).violations


def test_separability_system_rows_on_generators_only():
    # Z12 over Q: 12 unit rows and 12 * 12 equivariance rows for g1 alone;
    # rows for every label would number 1,596
    mat, _, _ = separability_system(linearize(presets.cyclic_group(12), QQ))
    assert mat.rows == 156


# the acceptance corpus, and seeded random categories over Q, F2, F3 and F7
FREEDOM_CASES = {
    **{(name, k): pres for name, pres in {**GROUPOIDS, **DELTA_NONDISCRETE, **DISCRETE}.items() for k in ALL_FIELDS},
    **{(f"random{seed}", k): presets.random_presentation(seed) for seed in range(8) for k in (QQ, F2, F3, F7)},
}


@pytest.mark.parametrize("name,k", sorted(FREEDOM_CASES, key=str), ids=str)
def test_freedom_is_h0_of_ker_comp(name, k):
    # the homogeneous solutions are the 0-cochains e of C (x) C with
    # comp(e) = 0 and d^0 e = 0, that is the 0-cocycles of ker comp
    c = linearize(FREEDOM_CASES[(name, k)], k)
    ker = kernel_of(tensor_square(c)[1])[0]
    assert _solve_with_freedom(c)[1] == cohomology_dims(build_hm_complex(c, ker, 1)).dim_h(0)

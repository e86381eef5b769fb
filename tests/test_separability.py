import json
from contextlib import contextmanager
from functools import lru_cache
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from sepcat import interchange as io
from sepcat import presets
from sepcat.cli import main
from sepcat.exactalg import Field, Matrix, QQ, _rank_mod
from sepcat.lincat import FinLinCat, FiniteCatPresentation, classify_presentation, generating_labels, linearize
from sepcat.cmod import (
    LeftModule,
    character_left_module,
    kernel_of,
    post_mul_matrix,
    pre_mul_matrix,
    random_left_module,
    representable_left_module,
    tensor_square,
    tensor_square_basis,
    validate_module,
)
from sepcat.cohomology import build_hm_complex, cohomology_dims
from sepcat.separability import (
    SeparabilityFamily,
    _center_freedom,
    _is_separable,
    _solve_system,
    _trace_casimir,
    ei_predict,
    family_from_vector,
    module_section,
    rank_factor,
    reduce_family,
    separability_system,
    solve_separability,
    verify_family,
    zelinsky_report,
)
from cli_runner import CliRunner
from test_acceptance import ALL_FIELDS, DELTA_NONDISCRETE, DISCRETE, GROUPOIDS
from test_cohomology import crown_poset, rebased
from test_exactalg import gauss_jordan
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

    def test_family_blocks_are_read_row_major_at_their_offsets(self):
        # only hom dimensions are read, so the composition is left out;
        # block (x, y) is dim hom(y, x) x dim hom(x, y), here 1 x 2 and 2 x 1
        c = FinLinCat(
            QQ,
            ["x", "y"],
            {("x", "x"): ["a"], ("y", "y"): ["b"], ("x", "y"): ["f", "g"], ("y", "x"): ["h"]},
            {},
            {"x": [("a", 1)], "y": [("b", 1)]},
        )
        vec = [QQ.of(v) for v in (1, 2, 0, 3, 4, 0)]
        fam = family_from_vector(c, vec, {("x", "y"): 0, ("x", "x"): 2, ("y", "x"): 3, ("y", "y"): 5})
        assert fam.blocks == {
            ("x", "y"): Matrix.from_rows(QQ, [[1, 2]]),
            ("y", "x"): Matrix.from_rows(QQ, [[3], [4]]),
        }

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
        verdict = ei_predict(presets.cyclic_group(3), F3)
        assert not verdict.separable
        assert verdict.witness == ("x", "x", 3)

    def test_z2_over_q_formula(self, z2_over_q):
        verdict = ei_predict(presets.cyclic_group(2), QQ)
        assert verdict.separable
        blk = verdict.family.blocks[("x", "x")]
        assert blk == Matrix.from_rows(QQ, [["1/2", 0], [0, "1/2"]])
        assert verify_family(z2_over_q, verdict.family).ok

    def test_trivial_group(self):
        verdict = ei_predict(presets.cyclic_group(1), QQ)
        assert verdict.separable
        assert verdict.family.blocks[("x", "x")] == Matrix.from_rows(QQ, [[1]])

    def test_connected_groupoid_certificate(self):
        p = presets.connected_groupoid(presets.cyclic_group(2), 2)
        for k in (QQ, F3, F5):
            c = linearize(p, k)
            verdict = ei_predict(p, k)
            assert verdict.separable
            assert verify_family(c, verdict.family).ok

    def test_disconnected_groupoid(self):
        # two isolated copies of Z/2; empty cross hom-sets must not count
        from sepcat.lincat import FiniteCatPresentation

        g = presets.cyclic_group(2)
        morphs = dict(g.morphisms)
        morphs.update({"h0": ("y", "y"), "h1": ("y", "y")})
        comp = dict(g.composition)
        comp.update({("h0", "h0"): "h0", ("h0", "h1"): "h1", ("h1", "h0"): "h1", ("h1", "h1"): "h0"})
        p = FiniteCatPresentation(["x", "y"], morphs, {"x": "g0", "y": "h0"}, comp)
        verdict = ei_predict(p, QQ)
        assert verdict.separable
        c = linearize(p, QQ)
        assert verify_family(c, verdict.family).ok
        assert not ei_predict(p, F2).separable

    def test_components_interleaved_in_object_order(self):
        # a and c form one component and b another: each object's reference
        # object is the first of its component, so c's is a, not b
        p = interleaved_groupoid()
        verdict = ei_predict(p, QQ)
        assert verdict.separable
        assert set(verdict.family.blocks) == {("a", "a"), ("c", "a"), ("b", "b")}
        assert verify_family(linearize(p, QQ), verdict.family).ok


class TestDelta:
    def test_discrete_two_objects(self, discrete2_over_q):
        verdict = ei_predict(presets.discrete_category(2), QQ)
        assert verdict.separable
        assert verify_family(discrete2_over_q, verdict.family).ok

    @pytest.mark.parametrize("pres", [presets.chain_poset(2), presets.chain_poset(3), presets.vee_poset()],
                             ids=["a2", "a3", "vee"])
    def test_nondiscrete_posets(self, pres):
        assert not ei_predict(pres, QQ).separable


def orbit_category(n: int) -> FiniteCatPresentation:
    """Orb(Z_n): one object q{d} = Z_n / dZ_n = Z_d per divisor d of n, and
    the Z_n-maps Z_d -> Z_e, which exist when e | d and are the reductions
    mod e followed by a translation by a in Z_e; composites add translations."""
    objects = [f"q{d}" for d in range(1, n + 1) if n % d == 0]
    maps = [(d, e, a) for d in range(1, n + 1) for e in range(1, d + 1) if n % d == 0 and d % e == 0 for a in range(e)]
    morphisms = {f"q{d}>q{e}+{a}": (f"q{d}", f"q{e}") for d, e, a in maps}
    composition = {
        (f"q{e}>q{f}+{b}", f"q{d}>q{e}+{a}"): f"q{d}>q{f}+{(a + b) % f}"
        for d, e, a in maps for e2, f, b in maps if e2 == e
    }
    return FiniteCatPresentation(objects, morphisms, {o: f"{o}>{o}+0" for o in objects}, composition)


def vee_transporter() -> FiniteCatPresentation:
    """The transporter category of Z2 = {e, s} acting on the vee x < z > y,
    s swapping x and y: a morphism a -> b is a g with g.a <= b, and
    composites multiply group elements."""
    below = {("x", "x"), ("y", "y"), ("z", "z"), ("x", "z"), ("y", "z")}
    act = {("e", o): o for o in "xyz"} | {("s", "x"): "y", ("s", "y"): "x", ("s", "z"): "z"}
    mul = {("e", "e"): "e", ("e", "s"): "s", ("s", "e"): "s", ("s", "s"): "e"}
    morphisms = {f"{g}:{a}>{b}": (a, b) for g in "es" for a in "xyz" for b in "xyz" if (act[(g, a)], b) in below}
    composition = {
        (h, g): f"{mul[(h[0], g[0])]}:{morphisms[g][0]}>{morphisms[h][1]}"
        for g in morphisms for h in morphisms if morphisms[g][1] == morphisms[h][0]
    }
    return FiniteCatPresentation(["x", "y", "z"], morphisms, {o: f"e:{o}>{o}" for o in "xyz"}, composition)


def disjoint_union(*parts: FiniteCatPresentation) -> FiniteCatPresentation:
    """The disjoint union, part i's names prefixed with c{i}."""
    objects, morphisms, identity, composition = [], {}, {}, {}
    for i, p in enumerate(parts):
        objects.extend(f"c{i}.{x}" for x in p.objects)
        morphisms.update({f"c{i}.{f}": (f"c{i}.{x}", f"c{i}.{y}") for f, (x, y) in p.morphisms.items()})
        identity.update({f"c{i}.{x}": f"c{i}.{f}" for x, f in p.identity.items()})
        composition.update({(f"c{i}.{g}", f"c{i}.{f}"): f"c{i}.{h}" for (g, f), h in p.composition.items()})
    return FiniteCatPresentation(objects, morphisms, identity, composition)


EI_PRESETS = {**{f"Orb(Z{n})": (lambda n=n: orbit_category(n)) for n in (1, 2, 3, 4, 6)}, "Z2-vee": vee_transporter}


def non_isomorphisms(p: FiniteCatPresentation) -> set[str]:
    return {
        f for f, (x, y) in p.morphisms.items()
        if not any(p.comp(g, f) == p.identity[x] and p.comp(f, g) == p.identity[y] for g in p.hom_set(y, x))
    }


class TestEI:
    @pytest.mark.parametrize("name", sorted(EI_PRESETS))
    def test_non_isomorphisms_form_a_nilpotent_ideal(self, name):
        p = EI_PRESETS[name]()
        non_iso = non_isomorphisms(p)
        assert all(x != y for x, y in map(p.morphisms.get, non_iso))  # EI
        if name != "Orb(Z1)":
            flags = classify_presentation(p)
            assert non_iso and not flags.is_groupoid and not flags.is_delta
        for f in non_iso:
            x, y = p.morphisms[f]
            assert all(p.comp(g, f) in non_iso for g in p.morphisms if p.morphisms[g][0] == y)
            assert all(p.comp(f, g) in non_iso for g in p.morphisms if p.morphisms[g][1] == x)
        # targets of composable chains of non-isomorphisms, one longer each step
        ends = {p.morphisms[f][1] for f in non_iso}
        for _ in range(len(p.objects) - 1):
            ends = {p.morphisms[f][1] for f in non_iso if p.morphisms[f][0] in ends}
        assert not ends

    @pytest.mark.parametrize("k", [QQ, F2, F3, F5, F7], ids=str)
    @pytest.mark.parametrize("name", sorted(EI_PRESETS))
    def test_agrees_with_solver_and_trace_form(self, name, k):
        p = EI_PRESETS[name]()
        c = linearize(p, k)
        verdict = ei_predict(p, k)
        assert verdict.separable == (name == "Orb(Z1)")
        assert verdict.separable == (solve_separability(c) is not None) == _is_separable(c)
        if verdict.separable:
            assert verify_family(c, verdict.family).ok

    def test_idempotent_monoid_is_refused(self):
        # separable, yet not EI: a "no" from the EI criterion would be wrong
        p = presets.idempotent_monoid()
        for k in (QQ, F2, F3):
            assert _is_separable(linearize(p, k))
        with pytest.raises(ValueError, match="^presentation is not an EI category$"):
            ei_predict(p, QQ)

    def test_witness_is_the_first_object_of_non_invertible_order(self):
        p = disjoint_union(*(presets.cyclic_group(n) for n in (1, 2, 3, 4)))
        assert ei_predict(p, F2).witness == ("c1.x", "c1.x", 2)
        assert ei_predict(p, F3).witness == ("c2.x", "c2.x", 3)
        assert ei_predict(p, F5).separable


class TestOracleAgreement:
    groupoids = [presets.cyclic_group(2), presets.cyclic_group(3), presets.cyclic_group(4),
                 presets.klein_four(), presets.connected_groupoid(presets.cyclic_group(2), 2)]

    @pytest.mark.parametrize("k", [QQ, F2, F3, F5], ids=str)
    @pytest.mark.parametrize("idx", range(len(groupoids)))
    def test_groupoids_agree_with_solver(self, idx, k):
        p = self.groupoids[idx]
        c = linearize(p, k)
        verdict = ei_predict(p, k)
        assert verdict.separable == (solve_separability(c) is not None)
        if verdict.separable:
            assert verify_family(c, verdict.family).ok

    @pytest.mark.parametrize("k", [QQ, F2, F3], ids=str)
    @pytest.mark.parametrize("pres", [presets.chain_poset(2), presets.chain_poset(3),
                                      presets.vee_poset(), presets.discrete_category(1),
                                      presets.discrete_category(2), presets.discrete_category(3)],
                             ids=["a2", "a3", "vee", "d1", "d2", "d3"])
    def test_delta_agrees_with_solver(self, pres, k):
        verdict = ei_predict(pres, k)
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
                    # u (x) act: row (i, r) is u[i] times row r of act
                    tensor = [k.mul(a, e) for a in u for e in act.entries]
                    by_terms = by_terms + Matrix(k, len(u) * act.rows, act.cols, tensor)
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


def _residuals_by_definition(c, fam) -> dict:
    """f . a[x][y] - a[z][y] . f for every label f: x -> z and object y in
    the coordinates (s, t) of hom(y, z) (x) hom(x, y), from dense
    coefficient vectors: f . u_i has coordinate s, the block entries are
    read densely, and v_j . f has coordinate t. The nonzero ones, in the
    order of labels, then objects."""
    fld = c.field

    def composite(g, f, n):
        vec = [fld.zero] * n
        for k, v in c.comp_terms(g, f):
            vec[k] = v
        return vec

    found = {}
    for f, (x, z, _) in c.label_info.items():
        for y in c.objects:
            us, vs, ws, v2s = c.hom(y, x), c.hom(x, y), c.hom(y, z), c.hom(z, y)
            a, b = fam.block(c, x, y).entries, fam.block(c, z, y).entries
            res = [[fld.zero] * len(vs) for _ in ws]
            for i, u in enumerate(us):
                fu = composite(f, u, len(ws))
                for s, t in product(range(len(ws)), range(len(vs))):
                    res[s][t] = fld.add(res[s][t], fld.mul(fu[s], a[i * len(vs) + t]))
            for s, j in product(range(len(ws)), range(len(v2s))):
                vf = composite(v2s[j], f, len(vs))
                for t in range(len(vs)):
                    res[s][t] = fld.sub(res[s][t], fld.mul(b[s * len(v2s) + j], vf[t]))
            if any(any(row) for row in res):
                found[(f, y)] = Matrix(fld, len(ws), len(vs), [v for row in res for v in row])
    return found


@lru_cache(maxsize=None)
def _oracle_case(name: str, p):
    """The generator corpus, K x K, and G2(Z3) in another basis, whose
    composites have several terms; with a separability family or {}."""
    c = rebased(_generator_case("G2(Z3)", p), 0) if name == "rebased" else _generator_case(name, p)
    return c, (solve_separability(c) or SeparabilityFamily({})).blocks


@pytest.mark.parametrize("p", [None, 2, 7], ids=["Q", "F2", "F7"])
@pytest.mark.parametrize("name", sorted(GENERATOR_PRESETS) + ["KK", "rebased"])
@given(data=st.data())
@settings(max_examples=4, deadline=None)
def test_equivariance_residuals_match_the_definition(name, p, data):
    # a family with one or two entries moved: every residual verify_family
    # reports, in its order, equals the dense evaluation on every label
    c, blocks = _oracle_case(name, p)
    blocks = dict(blocks)
    pairs = [(x, y) for x in c.objects for y in c.objects if c.dim_hom(x, y) * c.dim_hom(y, x)]
    for _ in range(data.draw(st.integers(1, 2))):
        x, y = data.draw(st.sampled_from(pairs))
        blocks[(x, y)] = _moved(c.field, SeparabilityFamily(blocks).block(c, x, y), data)
    fam = SeparabilityFamily(blocks)
    got = verify_family(c, fam).equivariance_residuals
    assert list(got.items()) == list(_residuals_by_definition(c, fam).items())


# the acceptance corpus, and seeded random categories over Q, F2, F3 and F7
FREEDOM_CASES = {
    **{(name, k): pres for name, pres in {**GROUPOIDS, **DELTA_NONDISCRETE, **DISCRETE}.items() for k in ALL_FIELDS},
    **{(f"random{seed}", k): presets.random_presentation(seed) for seed in range(8) for k in (QQ, F2, F3, F7)},
}


def _system_by_definition(c):
    """The separability system entry by entry: the unit rows from comp_terms
    on tensor_square_basis(c, x, x), and for each generating f: x -> z, y,
    s in hom(y, z) and t in hom(x, y) the row of entry (s, t) of
    f . A[x][y] - A[z][y] . f, kept when it is nonzero."""
    fld = c.field
    offsets, total = {}, 0
    for x in c.objects:
        for y in c.objects:
            offsets[(x, y)] = total
            total += c.dim_hom(y, x) * c.dim_hom(x, y)
    rows, rhs = [], []
    for x in c.objects:
        unit = [{} for _ in c.hom(x, x)]
        for j, (_, u, v) in enumerate(tensor_square_basis(c, x, x)):
            for t, coeff in c.comp_terms(u, v):
                unit[t][offsets[(x, c.objects[0])] + j] = coeff
        rows.extend(unit)
        rhs.extend(c.identity[x])
    for f in generating_labels(c):
        x, z, _ = c.label_info[f]
        for y in c.objects:
            cf = post_mul_matrix(c, f, y).row_terms  # hom(y,x) -> hom(y,z)
            rf = pre_mul_matrix(c, f, y).row_terms  # hom(z,y) -> hom(x,y)
            n_xy = c.dim_hom(x, y)
            n_zy = c.dim_hom(z, y)
            for s in range(c.dim_hom(y, z)):
                for t in range(n_xy):
                    row = {}
                    for i, coeff in cf[s]:
                        idx = offsets[(x, y)] + i * n_xy + t
                        row[idx] = fld.add(row.get(idx, fld.zero), coeff)
                    for l, coeff in rf[t]:
                        idx = offsets[(z, y)] + s * n_zy + l
                        row[idx] = fld.sub(row.get(idx, fld.zero), coeff)
                    if any(row.values()):
                        rows.append(row)
                        rhs.append(fld.zero)
    mat = Matrix.from_entries(fld, len(rows), total, ((i, j, v) for i, row in enumerate(rows) for j, v in row.items()))
    return mat, Matrix.column(fld, rhs), offsets


@pytest.mark.parametrize("name,k", sorted(FREEDOM_CASES, key=str), ids=str)
def test_separability_system_matches_the_definition(name, k):
    c = linearize(FREEDOM_CASES[(name, k)], k)
    assert separability_system(c) == _system_by_definition(c)


@pytest.mark.parametrize("name,k", sorted(FREEDOM_CASES, key=str), ids=str)
def test_freedom_is_h0_of_ker_comp(name, k):
    # the homogeneous solutions are the 0-cochains e of C (x) C with
    # comp(e) = 0 and d^0 e = 0, that is the 0-cocycles of ker comp; on a
    # separable C their dimension is sum_x dim End(x) - dim Z(C)
    c = linearize(FREEDOM_CASES[(name, k)], k)
    ker = kernel_of(tensor_square(c)[1])[0]
    h0 = cohomology_dims(build_hm_complex(c, ker, 1)).dim_h(0)
    mat = separability_system(c)[0]
    assert mat.cols - mat.rank() == h0
    if solve_separability(c) is not None:
        assert _center_freedom(c) == h0


def commutative_disjoint(p) -> bool:
    """Whether the presentation p has no morphism between distinct objects
    and commuting endomorphisms, read off its own table."""
    return all(x == y for x, y in p.morphisms.values()) and all(
        p.comp(g, f) == p.comp(f, g) for g, (x, _) in p.morphisms.items() for f in p.hom_set(x, x)
    )


# the corpus the Casimir element was checked on: 60 categories over six fields
CASIMIR_CORPUS = {
    **{f"Z{n}": presets.cyclic_group(n) for n in range(1, 13)},
    **{f"random{seed}": presets.random_presentation(seed) for seed in range(40)},
    "K4": presets.klein_four(),
    "D4": presets.discrete_category(4),
    "idem": presets.idempotent_monoid(),
    "G2(Z2)": presets.connected_groupoid(presets.cyclic_group(2), 2),
    "G2(Z3)": presets.connected_groupoid(presets.cyclic_group(3), 2),
    "A4": presets.chain_poset(4),
    "crown": crown_poset(),
    "vee": presets.vee_poset(),
}
CASIMIR_FIELDS = (QQ, F2, F3, F5, F7, Field(11))


@pytest.mark.parametrize("k", [QQ, F2, F3, F5, F7], ids=str)
def test_unique_family_is_the_casimir_element(k):
    # on a commutative-disjoint category the family, when there is one, is
    # unique: the system has full column rank, and the Casimir element is
    # the system's own solution, returned without building it
    names = [f"Z{n}" for n in range(1, 13)] + ["K4", "D4", "idem"]
    names += [name for name in CASIMIR_CORPUS if name.startswith("random") and commutative_disjoint(CASIMIR_CORPUS[name])]
    shortcuts = 0
    for name in names:
        assert commutative_disjoint(CASIMIR_CORPUS[name]), name
        c = linearize(CASIMIR_CORPUS[name], k)
        solved = _solve_system(c)
        if solved is None:
            assert _trace_casimir(c) is None, name
            continue
        mat = separability_system(c)[0]
        assert _rank_mod(mat) == mat.cols and _center_freedom(c) == 0, name
        with mock.patch("sepcat.separability.separability_system") as build:
            assert solve_separability(c) == solved, name
        assert not build.called
        shortcuts += 1
    assert shortcuts >= 10


def _spy_system():
    return mock.patch("sepcat.separability.separability_system", wraps=separability_system)


def test_shortcut_taken_on_z4_and_skipped_on_g2z3(tmp_path):
    # `separability check` takes the Casimir element wherever T is
    # nondegenerate, so Z4, G2(Z3), G3(Z2) and the matrix units over Q build
    # no system; A2 has a degenerate T, which settles "not separable" over Q
    # and over F5 (5 > dim 3) with no system either (Dickson); G2(Z1) over
    # F2 (separable) and A2 over F2 (not) are left to one system each
    path = tmp_path / "cat.json"
    for c, code, builds in [
        (linearize(presets.cyclic_group(4), QQ), 0, 0),
        (linearize(CENSUS["G2(Z3)"], QQ), 0, 0),
        (linearize(CENSUS["G3(Z2)"], QQ), 0, 0),
        (matrix_units(QQ), 0, 0),
        (linearize(presets.chain_poset(2), QQ), 1, 0),
        (linearize(presets.chain_poset(2), F5), 1, 0),
        (linearize(CENSUS["G2(Z1)"], F2), 0, 1),
        (linearize(presets.chain_poset(2), F2), 1, 1),
    ]:
        path.write_text(json.dumps(io.category_to_json(c)))
        with _spy_system() as build:
            assert CliRunner().invoke(main, ["separability", "check", str(path)]).exit_code == code
        assert build.call_count == builds


def matrix_units(k: Field) -> FinLinCat:
    """One object whose endomorphisms are the 2 x 2 matrices over k, in the
    basis of matrix units: separable, and not commutative."""
    units = [f"e{i}{j}" for i in "12" for j in "12"]
    table = {(g, f): [(f"e{g[1]}{f[2]}", 1)] if g[2] == f[1] else [] for g in units for f in units}
    return FinLinCat(k, ["x"], {("x", "x"): units}, table, {"x": [("e11", 1), ("e22", 1)]})


@pytest.mark.parametrize("k", [QQ, F5, F7], ids=str)
def test_casimir_element_where_gram_blocks_are_not_symmetric(k):
    # G2(Z3) with g1 listed before g0 in hom(o0, o1): u_i . v_t = 1 no
    # longer pairs basis index i with an involution of it, so the Gram block
    # of (o1, o0) is not symmetric and A[x][y] must be its inverse transposed
    g = presets.connected_groupoid(presets.cyclic_group(3), 2)
    order = list(g.morphisms)
    i, j = order.index("g0:0>1"), order.index("g1:0>1")
    order[i], order[j] = order[j], order[i]
    c = linearize(FiniteCatPresentation(g.objects, {f: g.morphisms[f] for f in order}, dict(g.identity), dict(g.composition)), k)
    assert c.hom("o0", "o1")[:2] == ("g1:0>1", "g0:0>1")
    assert verify_family(c, _trace_casimir(c)).ok


def _perturbed_casimir(c):
    fam = _trace_casimir(c)
    (x, y), blk = next(iter(fam.blocks.items()))
    return SeparabilityFamily({**fam.blocks, (x, y): blk + Matrix.identity(c.field, blk.rows)})


def test_a_wrong_casimir_element_is_caught(tmp_path):
    runner = CliRunner()
    cat, pres = tmp_path / "z4.json", tmp_path / "z4.pres.json"
    cat.write_text(json.dumps(io.category_to_json(linearize(presets.cyclic_group(4), QQ))))
    pres.write_text(json.dumps(io.presentation_to_json(presets.cyclic_group(4))))
    with mock.patch("sepcat.separability._trace_casimir", _perturbed_casimir):
        result = runner.invoke(main, ["separability", "check", str(cat)])
        assert result.exit_code == 3
        assert result.stderr == "internal cross-check failure: solver output fails verification\n"
        with mock.patch("sepcat.separability._solve_system", wraps=_solve_system) as solver:
            result = runner.invoke(main, ["maschke", str(pres), "--field", "Q"])
        assert result.exit_code == 3
        assert result.stderr == "internal cross-check failure: solver output fails verification\n"
        assert not solver.called


def test_trace_casimir_settles_what_it_claims_on_360_pairs():
    # for a separable category the family is unique exactly when the
    # category is commutative-disjoint, and then it is the Casimir element;
    # every Casimir element verifies; and a degenerate trace form over Q or
    # F_p with p > dim never goes with a separable category (Dickson), so
    # solve_separability answers None there without building the system
    pairs = unique = 0
    for name, pres in CASIMIR_CORPUS.items():
        for k in CASIMIR_FIELDS:
            c = linearize(pres, k)
            solved = _solve_system(c)
            casimir = _trace_casimir(c)
            if casimir is not None:
                assert verify_family(c, casimir).ok, (name, k)
            elif k.p is None or k.p > c.total_dim():
                assert solved is None, (name, k)
                with _spy_system() as build:
                    assert solve_separability(c) is None, (name, k)
                assert not build.called, (name, k)
            if solved is not None:
                mat = separability_system(c)[0]
                freedom = mat.cols - mat.rank()
                assert _center_freedom(c) == freedom, (name, k)
                assert (freedom == 0) == commutative_disjoint(pres), (name, k)
                if freedom == 0:
                    assert casimir.blocks == solved.blocks, (name, k)
                    unique += 1
            pairs += 1
    assert (pairs, unique) == (360, 228)


# CASIMIR_CORPUS and the connected groupoids of the trace-form census it lacks
CENSUS = {
    **CASIMIR_CORPUS,
    **{f"G{n}(Z{m})": presets.connected_groupoid(presets.cyclic_group(m), n) for n, m in [(2, 1), (3, 1), (3, 2), (3, 3), (5, 1), (7, 1)]},
}
CENSUS_FIELDS = (QQ, F2, F3, F5, F7)
# the separable pairs of CENSUS x CENSUS_FIELDS whose trace form is degenerate;
# random18 is G2(Z1) under other names
DEGENERATE_SEPARABLE = [
    ("G2(Z1)", F2), ("G2(Z3)", F2), ("G3(Z1)", F3), ("G3(Z2)", F3), ("G5(Z1)", F5), ("G7(Z1)", F7), ("random18", F2),
]


def _by_labels(cert: list) -> dict:
    """A certificate document as {(x, y, u, v): coeff} over basis labels."""
    return {(b["x"], b["y"], t["u"], t["v"]): t["coeff"] for b in cert for t in b["terms"]}


def _check_output(c, tmp_path) -> tuple[int, dict]:
    """What `separability check` prints for c: the solution space dimension
    and the family, by labels."""
    path = tmp_path / "cat.json"
    path.write_text(json.dumps(io.category_to_json(c)))
    result = CliRunner().invoke(main, ["separability", "check", str(path)])
    assert result.exit_code == 0, result.output
    verdict, freedom, cert = result.output.split("\n", 2)
    assert verdict == "separable: yes" and freedom.startswith("solution space dimension ")
    return int(freedom.rsplit(" ", 1)[1]), _by_labels(json.loads(cert))


def _reversed(p: FiniteCatPresentation) -> FiniteCatPresentation:
    """p with its objects and its morphisms, so each hom set, in reverse order."""
    return FiniteCatPresentation(
        p.objects[::-1], {f: p.morphisms[f] for f in reversed(p.morphisms)}, dict(p.identity), dict(p.composition)
    )


@pytest.mark.parametrize("name", sorted(CENSUS))
def test_printed_family_does_not_depend_on_the_order_of_the_bases(name, tmp_path):
    # wherever T is nondegenerate the printed family is its Casimir element,
    # which is defined without a basis: relabelling maps it to itself
    for k in CENSUS_FIELDS:
        c, r = linearize(CENSUS[name], k), linearize(_reversed(CENSUS[name]), k)
        if _trace_casimir(c) is None:
            assert _trace_casimir(r) is None, (name, k)
            continue
        assert r.objects != c.objects or len(c.objects) == 1
        assert _check_output(r, tmp_path) == _check_output(c, tmp_path), (name, k)


def test_degenerate_trace_form_exactly_on_seven_separable_pairs():
    found = [(name, k) for name in CENSUS for k in CENSUS_FIELDS
             if _trace_casimir(c := linearize(CENSUS[name], k)) is None and _solve_system(c) is not None]
    assert sorted(found, key=str) == sorted(DEGENERATE_SEPARABLE, key=str)


@pytest.mark.parametrize("name,k", DEGENERATE_SEPARABLE, ids=str)
def test_degenerate_trace_form_gets_the_solvers_family(name, k, tmp_path):
    c = linearize(CENSUS[name], k)
    solved = _solve_system(c)
    assert verify_family(c, solved).ok
    assert _check_output(c, tmp_path)[1] == _by_labels(io.certificate_to_json(c, solved))


def _homogeneous_nullity(c) -> int:
    """The dimension of the separability system's homogeneous solution
    space, eliminated by the tests' own gauss_jordan."""
    mat = _system_by_definition(c)[0]
    return mat.cols - len(gauss_jordan([mat.row(i) for i in range(mat.rows)], c.field.p)[1])


@pytest.mark.parametrize("name", sorted(CENSUS))
def test_printed_freedom_is_the_systems_nullity(name, tmp_path):
    # sum_x dim End(x) - dim Z(C) is the dimension of the affine space of
    # families of a separable C, hence the homogeneous system's nullity
    for k in CENSUS_FIELDS:
        c = linearize(CENSUS[name], k)
        if _solve_system(c) is not None:
            assert _check_output(c, tmp_path)[0] == _homogeneous_nullity(c), (name, k)


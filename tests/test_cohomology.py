import hashlib
import json
import random
import tracemalloc
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from sepcat import cohomology, exactalg, presets
from sepcat.exactalg import Field, Matrix, QQ, _rank_mod
from sepcat.errors import BudgetExceededError, InternalCheckError
from sepcat.interchange import les_report_to_json
from sepcat.lincat import FinLinCat, linearize
from sepcat.cmod import (
    Bimodule,
    BimoduleMap,
    ShortExactSeq,
    canonical_bimodule,
    kernel_of,
    random_bimodule,
    tensor_square,
    tensor_square_basis,
    zero_bimodule,
)
from sepcat.cohomology import (
    DegreeData,
    build_hm_complex,
    cohomology_dims,
    les_analysis,
    obstruction_cocycle,
)
from sepcat.separability import solve_separability
from canonical import assert_canonical
from test_acceptance import DELTA_NONDISCRETE, DISCRETE, GROUPOIDS
from test_exactalg import gauss_jordan

F2, F3, F7 = Field(2), Field(3), Field(7)


LES_CATEGORIES = {
    "Z3": presets.cyclic_group(3),
    "A4": presets.chain_poset(4),
    "vee": presets.vee_poset(),
    "idem": presets.idempotent_monoid(),
    **{f"random{seed}": presets.random_presentation(seed) for seed in (0, 1, 4, 8, 9)},
}


def bar_complex(c, m, max_degree):
    """The bar complex, whatever build_hm_complex would choose."""
    return cohomology._hm_complex(c, m, max_degree, cohomology.DEFAULT_BUDGET, c.hom_basis)


def kernel_comp_ses(c):
    cxc, comp_map = tensor_square(c)
    ker, incl = kernel_of(comp_map)
    return ShortExactSeq(ker, cxc, comp_map.target, incl, comp_map)


def center_dimension(c, m):
    """Independent H^0 oracle: dimension of {(t_x) : f.t_x = t_z.f for all f},
    assembled directly as one kernel computation."""
    diag = [(x, t) for x in c.objects for t in range(m.dims[(x, x)])]
    pos = {key: i for i, key in enumerate(diag)}
    rows = []
    for f, (x, z, _) in c.label_info.items():
        lf = m.left[(f, x)]  # M[x][x] -> M[z][x]
        rf = m.right[(f, z)]  # M[z][z] -> M[z][x]
        for s in range(m.dims[(z, x)]):
            row = [c.field.zero] * len(diag)
            for t in range(m.dims[(x, x)]):
                v = lf.entries[s * lf.cols + t]
                if v:
                    row[pos[(x, t)]] = c.field.add(row[pos[(x, t)]], v)
            for t in range(m.dims[(z, z)]):
                v = rf.entries[s * rf.cols + t]
                if v:
                    row[pos[(z, t)]] = c.field.sub(row[pos[(z, t)]], v)
            rows.append(row)
    mat = Matrix(c.field, len(rows), len(diag), [e for r in rows for e in r])
    return mat.kernel_basis().cols


class TestComplexConstruction:
    def test_trivial_category_dims(self, trivial_cat):
        complex = bar_complex(trivial_cat, canonical_bimodule(trivial_cat), 3)
        assert [complex.dim(n) for n in range(4)] == [1, 1, 1, 1]
        result = cohomology_dims(complex)
        assert [d.dim_h for d in result.degrees] == [1, 0, 0, 0]

    def test_group_algebra_cochain_dims(self, z2_over_q):
        complex = bar_complex(z2_over_q, canonical_bimodule(z2_over_q), 2)
        assert [complex.dim(n) for n in range(3)] == [2, 4, 8]

    def test_a2_degree_zero(self, a2_over_q):
        complex = build_hm_complex(a2_over_q, canonical_bimodule(a2_over_q), 2)
        assert complex.dim(0) == 2

    @pytest.mark.parametrize("seed", range(5))
    def test_differential_squares_to_zero(self, seed):
        c = linearize(presets.random_presentation(seed), F3)
        m = canonical_bimodule(c)
        complex = build_hm_complex(c, m, 2)
        for n in range(2):
            assert (complex.diffs[n + 1] @ complex.diffs[n]).is_zero()

    def test_budget_enforced(self, z2_over_q):
        with pytest.raises(BudgetExceededError):
            build_hm_complex(z2_over_q, canonical_bimodule(z2_over_q), 2, budget=5)

    def test_spaces_enumerate_nonzero_hom_chains(self, monkeypatch):
        # 8 objects with only identities: 8 tuples of each length have
        # nonzero homs, out of 8^(n+1); enumerating the rest is waste
        c = linearize(presets.discrete_category(8), QQ)
        m = canonical_bimodule(c)
        calls = []
        dim_hom = type(c).dim_hom

        def counted(self, x, y):
            calls.append((x, y))
            if len(calls) > 2000:
                raise AssertionError("dim_hom called more than 2000 times")
            return dim_hom(self, x, y)

        monkeypatch.setattr(type(c), "dim_hom", counted)
        complex = bar_complex(c, m, 12)
        assert [complex.dim(n) for n in range(14)] == [8] * 14
        assert [slot.objs for slot in complex.space(3).slots] == [(x,) * 4 for x in c.objects]
        assert [d.dim_h for d in cohomology_dims(complex).degrees] == [8] + [0] * 12


class TestCohomologyDims:
    def test_group_algebra_over_q(self, z2_over_q):
        result = cohomology_dims(build_hm_complex(z2_over_q, canonical_bimodule(z2_over_q), 2))
        assert [d.dim_h for d in result.degrees] == [2, 0, 0]

    def test_group_algebra_in_characteristic_two(self, z2_over_f2):
        result = cohomology_dims(build_hm_complex(z2_over_f2, canonical_bimodule(z2_over_f2), 2))
        assert result.dim_h(0) == 2
        assert result.dim_h(1) == 2
        assert result.dim_h(1) == derivation_space_dimension_mod2()

    def test_discrete_category(self, discrete2_over_q):
        result = cohomology_dims(build_hm_complex(discrete2_over_q, canonical_bimodule(discrete2_over_q), 2))
        assert [d.dim_h for d in result.degrees] == [2, 0, 0]

    @pytest.mark.parametrize("seed", range(5))
    def test_degree_zero_matches_center_oracle(self, seed):
        c = linearize(presets.random_presentation(seed), QQ)
        m = canonical_bimodule(c)
        result = cohomology_dims(build_hm_complex(c, m, 1))
        assert result.dim_h(0) == center_dimension(c, m)


def derivation_space_dimension_mod2():
    """Brute-force oracle for H^1 of the two-dimensional group algebra over
    F_2: enumerate all linear maps D on the basis (e, g), keep those with
    D(ab) = aD(b) + D(a)b, and quotient by inner derivations (zero here,
    the algebra being commutative)."""
    basis = [(1, 0), (0, 1)]  # e, g

    def mul(a, b):
        # (a0 e + a1 g)(b0 e + b1 g) with g^2 = e, mod 2
        return ((a[0] * b[0] + a[1] * b[1]) % 2, (a[0] * b[1] + a[1] * b[0]) % 2)

    def add(a, b):
        return ((a[0] + b[0]) % 2, (a[1] + b[1]) % 2)

    derivations = []
    for de in product((0, 1), repeat=2):
        for dg in product((0, 1), repeat=2):
            image = {(1, 0): de, (0, 1): dg}

            def d(v):
                return add(
                    tuple((v[0] * x) % 2 for x in image[(1, 0)]),
                    tuple((v[1] * x) % 2 for x in image[(0, 1)]),
                )

            if all(d(mul(a, b)) == add(mul(a, d(b)), mul(d(a), b)) for a in basis for b in basis):
                derivations.append(de + dg)
    mat = Matrix(F2, len(derivations), 4, [F2.of(v) for row in derivations for v in row])
    return mat.transpose().rank()  # inner derivations vanish: H^1 = Der


class TestObstruction:
    def test_trivial_category(self, trivial_cat):
        result = obstruction_cocycle(trivial_cat)
        assert result.cocycle.is_zero()
        assert result.is_coboundary

    def test_chain_poset_obstructed(self, a2_over_q):
        assert not obstruction_cocycle(a2_over_q).is_coboundary

    def test_group_algebra_splits(self, z2_over_q):
        assert obstruction_cocycle(z2_over_q).is_coboundary

    @pytest.mark.parametrize("seed", range(8))
    def test_cocycle_condition_always_holds(self, seed):
        c = linearize(presets.random_presentation(seed), F3)
        result = obstruction_cocycle(c)
        assert (result.complex.diffs[1] @ result.cocycle).is_zero()

    @pytest.mark.parametrize("seed", range(6))
    def test_verdict_is_section_independent(self, seed):
        # shifting the linear section by any kernel-valued correction changes
        # the cocycle by a coboundary, so the verdict must not move
        import random

        c = linearize(presets.random_presentation(seed), QQ)
        base = obstruction_cocycle(c)
        rng = random.Random(seed)
        d0 = base.complex.diffs[0]
        if d0.cols == 0:
            pytest.skip("no degree-zero cochains to shift by")
        shift = Matrix.column(QQ, [rng.randint(-2, 2) for _ in range(d0.cols)])
        shifted = base.cocycle + d0 @ shift
        assert (base.complex.diffs[1] @ shifted).is_zero()
        assert (d0.solve_many(shifted) is not None) == base.is_coboundary

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_solver_feasibility(self, seed):
        c = linearize(presets.random_presentation(seed), F3)
        assert obstruction_cocycle(c).is_coboundary == (solve_separability(c) is not None)


def reference_obstruction(c):
    """The obstruction by its definition: f . sigma_x1 - sigma_x0 . f for
    every basis f in hom(x1, x0), through the actions of C (x) C, each
    value read in the coordinates of its ker comp block."""
    cxc, comp_map = tensor_square(c)
    ker, incl = kernel_of(comp_map)
    space1 = cohomology._degree_space(c, ker, 1, cohomology.DEFAULT_BUDGET, c.hom_basis)
    fld = c.field
    sigma = {}  # 1_x (x) 1_x in the (x, x) component of C (x) C
    for x in c.objects:
        basis = tensor_square_basis(c, x, x)
        vec = [fld.zero] * len(basis)
        labels, ident = c.hom(x, x), c.identity[x]
        for s, t in product(range(len(labels)), repeat=2):
            i = basis.index((x, labels[s], labels[t]))
            vec[i] = fld.add(vec[i], fld.mul(ident[s], ident[t]))
        sigma[x] = Matrix(fld, len(basis), 1, vec)
    values = [fld.zero] * space1.dim
    for slot in space1.slots:
        x0, x1 = slot.objs
        for b_idx, b in enumerate(c.hom(x1, x0)):
            value = cxc.left[(b, x1)] @ sigma[x1] - cxc.right[(b, x0)] @ sigma[x0]
            assert (comp_map.blocks[(x0, x1)] @ value).is_zero()
            coords = incl.blocks[(x0, x1)]._coords(value)
            for s, v in enumerate(coords.col(0)):
                values[slot.offset + b_idx * slot.mdim + s] = v
    return Matrix(fld, len(values), 1, values)


ACCEPTANCE_PRESENTATIONS = {**GROUPOIDS, **DELTA_NONDISCRETE, **DISCRETE}
ACCEPTANCE_CASES = pytest.mark.parametrize(
    "name,k", [(name, k) for name in ACCEPTANCE_PRESENTATIONS for k in (QQ, F2, F3, F7)], ids=str
)


@ACCEPTANCE_CASES
def test_obstruction_matches_its_definition(name, k):
    c = linearize(ACCEPTANCE_PRESENTATIONS[name], k)
    assert obstruction_cocycle(c).cocycle == reference_obstruction(c)


@ACCEPTANCE_CASES
def test_comp_blocks_are_dense_composites(name, k):
    c = linearize(ACCEPTANCE_PRESENTATIONS[name], k)
    blocks = tensor_square(c)[1].blocks
    for x, y in product(c.objects, repeat=2):
        basis = tensor_square_basis(c, x, y)
        dense = [[k.zero] * len(basis) for _ in range(c.dim_hom(y, x))]
        for j, (_, u, v) in enumerate(basis):
            for i, coeff in c.comp_terms(u, v):
                dense[i][j] = coeff
        assert blocks[(x, y)] == Matrix(k, len(dense), len(basis), [e for row in dense for e in row])


class TestLes:
    def test_kernel_comp_sequence_group_algebra(self, z2_over_q):
        report = les_analysis(z2_over_q, kernel_comp_ses(z2_over_q), 2)
        assert report.all_exact
        for d in report.degrees:
            if d.n >= 1:
                assert (d.dim_h_m, d.dim_h_n, d.dim_h_p) == (0, 0, 0)

    def test_kernel_comp_sequence_chain_poset(self, a2_over_q):
        report = les_analysis(a2_over_q, kernel_comp_ses(a2_over_q), 2)
        assert report.all_exact
        assert report.connecting_ranks[0] >= 1
        assert not obstruction_cocycle(a2_over_q).is_coboundary

    def test_zero_first_term_gives_isomorphisms(self, z2_over_q):
        n = canonical_bimodule(z2_over_q)
        zero = zero_bimodule(z2_over_q)
        from sepcat.cmod import BimoduleMap

        i = BimoduleMap(zero, n, {key: Matrix.zeros(QQ, n.dims[key], 0) for key in n.dims})
        q = BimoduleMap(n, n, {key: Matrix.identity(QQ, n.dims[key]) for key in n.dims})
        report = les_analysis(z2_over_q, ShortExactSeq(zero, n, n, i, q), 2)
        assert report.all_exact
        assert all(r == 0 for r in report.connecting_ranks)
        for d in report.degrees:
            assert d.dim_h_n == d.dim_h_p

    def test_inexact_input_rejected(self, z2_over_q):
        cxc, comp_map = tensor_square(z2_over_q)
        zero = zero_bimodule(z2_over_q)
        from sepcat.cmod import BimoduleMap

        zmap = BimoduleMap(zero, cxc, {key: Matrix.zeros(QQ, cxc.dims[key], 0) for key in cxc.dims})
        with pytest.raises(ValueError):
            les_analysis(z2_over_q, ShortExactSeq(zero, cxc, comp_map.target, zmap, comp_map), 1)

    def test_budget_applies_to_les(self, z2_over_q):
        with pytest.raises(BudgetExceededError):
            les_analysis(z2_over_q, kernel_comp_ses(z2_over_q), 2, budget=3)

    @pytest.mark.parametrize("field", [QQ, Field(7)], ids=str)
    @pytest.mark.parametrize("name", ["Z3", "A4", "idem", "random0", "random1", "random4", "random8", "random9"])
    def test_conjugated_inclusion_gives_the_same_report(self, name, field):
        """M conjugated by a unit upper-triangular T on each component, with
        i' = i T and actions T^-1 A T, is the same sequence in another basis,
        and i' is not in kernel-basis form."""
        c = linearize(LES_CATEGORIES[name], field)
        ses = kernel_comp_ses(c)
        rng = random.Random(name)
        m2, t = in_triangular_basis(c, ses.m, lambda: field.of(rng.choice((-3, -2, -1, 1, 2, 3))))
        i2 = BimoduleMap(m2, ses.n, {key: blk @ t[key] for key, blk in ses.i.blocks.items()})
        assert any(i2.blocks[key] != blk for key, blk in ses.i.blocks.items())
        conjugated = les_analysis(c, ShortExactSeq(m2, ses.n, ses.p, i2, ses.q), 2)
        assert conjugated == les_analysis(c, ses, 2)
        assert conjugated.all_exact

    @pytest.mark.parametrize("field", [QQ, Field(7)], ids=str)
    @pytest.mark.parametrize("name", ["Z3", "vee", "idem"])
    def test_solves_are_component_sized(self, name, field, monkeypatch):
        """The zig-zag solves only on components: every system has at most as
        many rows as the largest component of N, never a whole cochain space."""
        c = linearize(LES_CATEGORIES[name], field)
        ses = kernel_comp_ses(c)
        rows = []
        solve_many = Matrix.solve_many

        def recorded(self, b):
            rows.append(self.rows)
            return solve_many(self, b)

        monkeypatch.setattr(Matrix, "solve_many", recorded)
        assert les_analysis(c, ses, 2).all_exact
        assert rows and max(rows) <= max(ses.n.dims.values())

    @pytest.mark.parametrize("field", [QQ, F3], ids=str)
    @pytest.mark.parametrize("name", ["Z3", "A4", "vee", "idem"])
    def test_dims_match_cohomology_dims(self, name, field):
        c = linearize(LES_CATEGORIES[name], field)
        ses = kernel_comp_ses(c)
        report = les_analysis(c, ses, 2)
        dims = [cohomology_dims(build_hm_complex(c, mod, 2)) for mod in (ses.m, ses.n, ses.p)]
        for d in report.degrees:
            assert (d.dim_h_m, d.dim_h_n, d.dim_h_p) == tuple(r.dim_h(d.n) for r in dims)


@given(st.sampled_from([QQ, F2, Field(7)]), st.data())
@settings(max_examples=300, deadline=None)
def test_mod_image_rank_matches_hstack_rank(field, data):
    # the rank of cols modulo the column space of an image D, read from the
    # rref of D transposed, against rank([D | cols]) - rank(D); half the
    # draws take cols in that column space, with one free column or none
    def draw_matrix(rows, cols):
        ents = data.draw(st.lists(st.sampled_from([0, 0, 1, -1, 2]), min_size=rows * cols, max_size=rows * cols))
        return Matrix(field, rows, cols, [field.of(e) for e in ents])

    m, r, s = (data.draw(st.integers(0, 5)) for _ in range(3))
    image = draw_matrix(m, r)
    cols = draw_matrix(m, s)
    if data.draw(st.booleans()):
        cols = image @ draw_matrix(r, s)
        if data.draw(st.booleans()):
            cols = cols.hstack(draw_matrix(m, 1))
    residual = cohomology._mod_image(cols, image.transpose().rref())
    assert residual.rank() == image.hstack(cols).rank() - image.rank()
    assert residual.is_zero() == (image.hstack(cols).rank() == image.rank())
    assert cohomology._mod_image(cols, None).rank() == cols.rank()


class TestVanishingTheorem:
    @pytest.mark.parametrize("seed", range(3))
    def test_separable_instances_have_trivial_h1_h2(self, z2_over_q, seed):
        assert solve_separability(z2_over_q) is not None
        m = random_bimodule(z2_over_q, seed)
        result = cohomology_dims(build_hm_complex(z2_over_q, m, 2))
        assert result.dim_h(1) == 0 and result.dim_h(2) == 0


def in_triangular_basis(c, m, above):
    """m in the basis of a unit upper-triangular T on each component, whose
    entries above the diagonal are drawn by above(): the bimodule with
    actions T^-1 A T, and the T of each component."""
    fld = c.field
    t, t_inv = {}, {}
    for key, d in m.dims.items():
        cells = [(r, r, fld.one) for r in range(d)] + [(r, s, above()) for r in range(d) for s in range(r + 1, d)]
        t[key] = Matrix.from_entries(fld, d, d, cells)
        t_inv[key] = t[key].solve_many(Matrix.identity(fld, d))
    left = {}
    for (f, y), act in m.left.items():
        x, x2, _ = c.label_info[f]
        left[(f, y)] = t_inv[(x2, y)] @ act @ t[(x, y)]
    right = {}
    for (g, x), act in m.right.items():
        y2, y, _ = c.label_info[g]
        right[(g, x)] = t_inv[(x, y2)] @ act @ t[(x, y)]
    return Bimodule(c, m.dims, left, right), t


def crown_poset():
    return presets.poset_category(["a", "b", "c", "d"], [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])


def symmetric_group_3():
    """S_3 as a one-object category, its elements named by their images."""
    perms = list(permutations(range(3)))
    name = {g: "".join(map(str, g)) for g in perms}
    table = {(name[g], name[f]): name[tuple(g[i] for i in f)] for g in perms for f in perms}
    return presets.one_object_monoid(list(name.values()), table, name[(0, 1, 2)])


def z2_times_z4():
    """Z_2 x Z_4 as a one-object category, the element (a, b) named "ab"."""
    name = {(a, b): f"{a}{b}" for a in range(2) for b in range(4)}
    table = {(name[g], name[f]): name[((g[0] + f[0]) % 2, (g[1] + f[1]) % 4)] for g in name for f in name}
    return presets.one_object_monoid(list(name.values()), table, name[(0, 0)])


def rational_rrefs(monkeypatch):
    """Record every rational rref from here on (cached or not)."""
    calls = []
    original = Matrix.rref

    def spy(self):
        if self.field.is_rationals:
            calls.append((self.rows, self.cols))
        return original(self)

    monkeypatch.setattr(Matrix, "rref", spy)
    return calls


def assert_ranks_are_rational_ranks(complex):
    result = cohomology_dims(complex)
    assert [d.rank_d for d in result.degrees] == [d.rank() for d in complex.diffs]


class TestRankCertificate:
    """Over Q, cohomology_dims takes each rank from the mod-p lower bound
    when it meets the upper bound given by d . d = 0."""

    @pytest.mark.parametrize(
        "pres",
        [
            presets.cyclic_group(3),
            presets.klein_four(),
            presets.chain_poset(3),
            presets.vee_poset(),
            presets.idempotent_monoid(),
            presets.connected_groupoid(presets.cyclic_group(2), 2),
            crown_poset(),
        ]
        + [presets.random_presentation(seed) for seed in range(4)],
    )
    def test_ranks_equal_rational_ranks(self, pres):
        c = linearize(pres, QQ)
        _, comp_map = tensor_square(c)
        for m in (canonical_bimodule(c), kernel_of(comp_map)[0]):
            assert_ranks_are_rational_ranks(bar_complex(c, m, 2))

    @pytest.mark.parametrize("pres", [presets.cyclic_group(2), presets.cyclic_group(3), presets.vee_poset()])
    @pytest.mark.parametrize("seed", range(3))
    def test_ranks_equal_rational_ranks_random_bimodule(self, pres, seed):
        c = linearize(pres, QQ)
        assert_ranks_are_rational_ranks(bar_complex(c, random_bimodule(c, seed), 2))

    def test_prime_two_falls_back(self, z2_over_q, monkeypatch):
        complex = build_hm_complex(z2_over_q, canonical_bimodule(z2_over_q), 2)
        expected = [d.dim_h for d in cohomology_dims(complex).degrees]
        # mod 2 the complex has H^n = 2 in every degree, so rho_1 < rank_Q d^1
        monkeypatch.setattr(exactalg, "_PRIME", 2)
        complex = build_hm_complex(z2_over_q, canonical_bimodule(z2_over_q), 2)
        calls = rational_rrefs(monkeypatch)
        result = cohomology_dims(complex)
        assert calls
        assert [d.dim_h for d in result.degrees] == expected == [2, 0, 0]

    def test_denominator_divisible_by_prime_has_no_bound(self):
        m = Matrix.from_rows(QQ, [[1, 2], [0, "1/7"]])
        assert _rank_mod(m, 7) is None
        assert _rank_mod(m, 5) == 2

    def test_acyclic_complex_runs_no_rational_rref(self, monkeypatch):
        c = linearize(presets.cyclic_group(4), QQ)
        complex = build_hm_complex(c, canonical_bimodule(c), 3)
        calls = rational_rrefs(monkeypatch)
        result = cohomology_dims(complex)
        assert calls == []
        assert [d.dim_h for d in result.degrees] == [4, 0, 0, 0]

    def test_nonzero_cohomology_runs_rational_rref(self, monkeypatch):
        c = linearize(crown_poset(), QQ)
        complex = build_hm_complex(c, canonical_bimodule(c), 3)
        calls = rational_rrefs(monkeypatch)
        cohomology_dims(complex)
        assert calls


@st.composite
def integer_matrices(draw):
    rows = draw(st.integers(0, 6))
    cols = draw(st.integers(0, 6))
    ents = draw(st.lists(st.integers(-30, 30), min_size=rows * cols, max_size=rows * cols))
    return rows, cols, ents


@given(integer_matrices(), st.sampled_from([2, 3, 7, 2**31 - 1]))
@settings(max_examples=200, deadline=None)
def test_rank_mod_matches_prime_field_rank(shape, p):
    rows, cols, ents = shape
    _, pivots = gauss_jordan([ents[i * cols : (i + 1) * cols] for i in range(rows)], p)
    expected = len(pivots)
    assert _rank_mod(Matrix(QQ, rows, cols, [QQ.of(e) for e in ents]), p) == expected
    # dividing by a unit mod p changes no rank; QQ.of(e) / 11 would be a
    # float, as QQ.of(e) is an int
    divided = Matrix(QQ, rows, cols, [QQ.div(QQ.of(e), QQ.of(11)) for e in ents])
    assert_canonical(divided)
    assert _rank_mod(divided, p) == expected
    # over F_p itself, as cohomology_dims takes its ranks there
    fp = Field(p)
    assert _rank_mod(Matrix(fp, rows, cols, [fp.of(e) for e in ents]), p) == expected


# -- the matrix product and the differentials ------------------------------

PRODUCT_FIELDS = (QQ, F2, Field(7), Field(2**31 - 1))


INT_SCALARS = [0, 0, 0, 1, -1, 2, -3]


@st.composite
def factor_pairs(draw, values=INT_SCALARS):
    """(m, k, n, A entries, B entries) for an m x k by k x n product; half
    the draws are A = [P | P], B = [R ; -R], whose product cancels to zero."""
    m, k, n = (draw(st.integers(0, 5)) for _ in range(3))
    scalars = st.sampled_from(values)
    p_ents = draw(st.lists(scalars, min_size=m * k, max_size=m * k))
    r_ents = draw(st.lists(scalars, min_size=k * n, max_size=k * n))
    if not draw(st.booleans()):
        return m, k, n, p_ents, r_ents
    a = [e for i in range(m) for e in p_ents[i * k : (i + 1) * k] * 2]
    return m, 2 * k, n, a, r_ents + [-e for e in r_ents]


def textbook_product(m, k, n, a, b) -> list:
    """The m x n integer product of row-major integer lists, by definition."""
    return [sum(a[i * k + l] * b[l * n + j] for l in range(k)) for i in range(m) for j in range(n)]


@given(st.sampled_from(PRODUCT_FIELDS), st.data())
@settings(max_examples=200, deadline=None)
def test_product_matches_textbook(field, data):
    # integers map to the field as a ring homomorphism, so the image of the
    # integer product is the product over the field; over Q the factors mix
    # integers, which multiply as ints, with fractions
    rational = [Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7)] if field.is_rationals else []
    m, k, n, a_ents, b_ents = data.draw(factor_pairs(INT_SCALARS + rational))
    a = Matrix(field, m, k, [field.of(e) for e in a_ents])
    b = Matrix(field, k, n, [field.of(e) for e in b_ents])
    expected = [field.of(e) for e in textbook_product(m, k, n, a_ents, b_ents)]
    product = a @ b
    assert (product.rows, product.cols) == (m, n)
    assert product.entries == tuple(expected)
    assert product.is_zero() == (not any(expected))
    assert product == Matrix(field, m, n, expected)
    # no stored zero, each row in increasing column, and every scalar in
    # canonical form: over Q an int when integral, else a Fraction
    assert_canonical(product)
    for row in product.row_terms:
        assert [j for j, _ in row] == sorted({j for j, _ in row})


class TestOneTermRows:
    """A row of the left factor with one nonzero (k, a) gives row k of the
    right factor scaled by a, and that row itself when a is 1."""

    def test_coefficient_one_shares_the_partner_row(self):
        b = Matrix.from_rows(QQ, [[0, 3, Fraction(1, 2)], [4, 0, 5]])
        a = Matrix.from_rows(QQ, [[0, 1], [1, 0], [0, 0]])
        product = a @ b
        assert product.row_terms[0] is b.row_terms[1]
        assert product.row_terms[1] is b.row_terms[0]
        assert product.row_terms[2] == ()

    def test_rational_scaling_is_canonical(self):
        product = Matrix.from_rows(QQ, [[Fraction(1, 2)]]) @ Matrix.from_rows(QQ, [[2, 3]])
        assert product.row_terms == (((0, 1), (1, Fraction(3, 2))),)
        assert type(product.row_terms[0][0][1]) is int
        assert_canonical(product)

    def test_scaling_reduces_mod_p(self):
        f7 = Field(7)
        product = Matrix.from_rows(f7, [[0, 3]]) @ Matrix.from_rows(f7, [[1, 1], [5, 0]])
        assert product.row_terms == (((0, 1),),)
        assert_canonical(product)


@st.composite
def monomial_factors(draw, values):
    """(m, k, n, A entries, B entries) with A a permutation matrix, or
    monomial: each row zero or with one nonzero from values. B is any
    matrix, or monomial too."""

    def monomial(rows, cols):
        ents = [0] * (rows * cols)
        for i in range(rows):
            if cols and draw(st.booleans()):
                ents[i * cols + draw(st.integers(0, cols - 1))] = draw(st.sampled_from(values))
        return ents

    m, k, n = (draw(st.integers(0, 5)) for _ in range(3))
    if draw(st.booleans()):
        k = m
        a = [0] * (m * m)
        for i, j in enumerate(draw(st.permutations(range(m)))):
            a[i * m + j] = 1
    else:
        a = monomial(m, k)
    if draw(st.booleans()):
        b = monomial(k, n)
    else:
        b = draw(st.lists(st.sampled_from(INT_SCALARS + values), min_size=k * n, max_size=k * n))
    return m, k, n, a, b


@given(st.sampled_from(PRODUCT_FIELDS), st.data())
@settings(max_examples=200, deadline=None)
def test_monomial_product_matches_textbook(field, data):
    rational = [Fraction(1, 2), Fraction(-2, 3), Fraction(3, 2)] if field.is_rationals else []
    m, k, n, a_ents, b_ents = data.draw(monomial_factors([1, 1, -1, 2, 3] + rational))
    a = Matrix(field, m, k, [field.of(e) for e in a_ents])
    b = Matrix(field, k, n, [field.of(e) for e in b_ents])
    expected = [field.of(e) for e in textbook_product(m, k, n, a_ents, b_ents)]
    product = a @ b
    assert product == Matrix(field, m, n, expected)
    assert_canonical(product)
    for row in product.row_terms:
        assert [j for j, _ in row] == sorted({j for j, _ in row})


DIFF_PRESETS = {
    "Z2": lambda: presets.cyclic_group(2),
    "Z3": lambda: presets.cyclic_group(3),
    "Z4": lambda: presets.cyclic_group(4),
    "K4": presets.klein_four,
    "G2(Z2)": lambda: presets.connected_groupoid(presets.cyclic_group(2), 2),
    "A3": lambda: presets.chain_poset(3),
    "vee": presets.vee_poset,
    "crown": lambda: crown_poset(),
}
DIFF_FIELDS = {"Q": QQ, "F7": Field(7)}

# digests of d^0, d^1, d^2 (entries, shape, field), recorded from the
# builder that filled dense arrays before differentials became sparse rows
DIFF_DIGESTS = {
    ("A3", "canonical", "F7"): "c2eba453063f9a3b",
    ("A3", "canonical", "Q"): "91edeeff34db716b",
    ("A3", "kernel-comp", "F7"): "ab65a5446f2c84a7",
    ("A3", "kernel-comp", "Q"): "b907af6456e34e4b",
    ("G2(Z2)", "canonical", "F7"): "96f68f1ad7cba6a2",
    ("G2(Z2)", "canonical", "Q"): "d79d0c52bf917453",
    ("G2(Z2)", "kernel-comp", "F7"): "144ecf2bb83a9f6a",
    ("G2(Z2)", "kernel-comp", "Q"): "17276449c60fcad0",
    ("K4", "canonical", "F7"): "960a77d2337f7024",
    ("K4", "canonical", "Q"): "860f183a477ea1ac",
    ("K4", "kernel-comp", "F7"): "8aae4585ee289a51",
    ("K4", "kernel-comp", "Q"): "46647d8e5a16d099",
    ("Z2", "canonical", "F7"): "af7f7301e2b05cc2",
    ("Z2", "canonical", "Q"): "45f4d5e9466b580b",
    ("Z2", "kernel-comp", "F7"): "403abf20c540fd98",
    ("Z2", "kernel-comp", "Q"): "48f21d413ca478d3",
    ("Z3", "canonical", "F7"): "192fd3bedb7f5f51",
    ("Z3", "canonical", "Q"): "74a1d6aa1226eca8",
    ("Z3", "kernel-comp", "F7"): "8e4a8ae91298cf29",
    ("Z3", "kernel-comp", "Q"): "f8826e61a0ac521e",
    ("Z4", "canonical", "F7"): "15262d0b3e644d58",
    ("Z4", "canonical", "Q"): "8c5733dfab2aa8d8",
    ("Z4", "kernel-comp", "F7"): "ca939f36c61ad477",
    ("Z4", "kernel-comp", "Q"): "74902a515c2e5a33",
    ("crown", "canonical", "F7"): "2bba13c148b2406f",
    ("crown", "canonical", "Q"): "15b0d2b0d47a664e",
    ("crown", "kernel-comp", "F7"): "f78cbb2fae606d91",
    ("crown", "kernel-comp", "Q"): "c201ad2d62a53fdd",
    ("vee", "canonical", "F7"): "fd7db6ac7759e48d",
    ("vee", "canonical", "Q"): "fb4800fcb07bdd3b",
    ("vee", "kernel-comp", "F7"): "e0e9fb3ccd294243",
    ("vee", "kernel-comp", "Q"): "72c9387b8314144b",
}


def coefficient_bimodule(c, kind):
    return canonical_bimodule(c) if kind == "canonical" else kernel_comp_ses(c).m


@pytest.mark.parametrize("name,kind,field_name", sorted(DIFF_DIGESTS))
def test_differentials_match_golden(name, kind, field_name):
    c = linearize(DIFF_PRESETS[name](), DIFF_FIELDS[field_name])
    complex = bar_complex(c, coefficient_bimodule(c, kind), 2)
    doc = [[d.rows, d.cols, str(d.field), [d.field.format(e) for e in d.entries]] for d in complex.diffs]
    assert hashlib.sha256(json.dumps(doc).encode()).hexdigest()[:16] == DIFF_DIGESTS[(name, kind, field_name)]


def textbook_differential(c, m, n):
    """d^n straight from the formula in the module docstring, one column
    per basis cochain phi: (d phi)(f1, ..., f(n+1)) is evaluated through
    comp_terms and the action matrices on every basis tuple where it can
    be nonzero, and the tuples are numbered in the documented basis order."""
    fld = c.field

    def basis(k):
        # object tuples lexicographically, input indices row-major,
        # coefficient index fastest; tuples with a zero hom or coefficient
        # space have no basis cochain
        index = {}
        for objs in product(c.objects, repeat=k + 1):
            homs = [c.hom(objs[i + 1], objs[i]) for i in range(k)]
            if all(homs):
                for combo in product(*(range(len(h)) for h in homs)):
                    for t in range(m.dims[(objs[0], objs[k])]):
                        index[(objs, combo, t)] = len(index)
        return index

    src, tgt = basis(n), basis(n + 1)
    cells = []
    for (objs, combo, t), col in src.items():
        x0, xn = objs[0], objs[n]
        value: dict = {}

        def put(key, v):
            value[tgt[key]] = fld.add(value.get(tgt[key], fld.zero), v)

        for w in c.objects:
            # f1 . phi(f2, ..., f(n+1)) for f1 in hom(x0, w)
            for b_idx, b in enumerate(c.hom(x0, w)):
                for s, v in enumerate(m.left[(b, xn)].col(t)):
                    put(((w,) + objs, (b_idx,) + combo, s), v)
            # (-1)^i phi(..., fi . f(i+1), ...) for fi in hom(w, x(i-1)) and
            # f(i+1) in hom(xi, w), where phi sees input a_i of the composite
            for i in range(1, n + 1):
                for b_idx, b in enumerate(c.hom(w, objs[i - 1])):
                    for b2_idx, b2 in enumerate(c.hom(objs[i], w)):
                        for k, gamma in c.comp_terms(b, b2):
                            if k == combo[i - 1]:
                                key = (objs[:i] + (w,) + objs[i:], combo[: i - 1] + (b_idx, b2_idx) + combo[i:], t)
                                put(key, fld.neg(gamma) if i % 2 else gamma)
            # (-1)^(n+1) phi(f1, ..., fn) . f(n+1) for f(n+1) in hom(w, xn)
            for b_idx, b in enumerate(c.hom(w, xn)):
                for s, v in enumerate(m.right[(b, x0)].col(t)):
                    put((objs + (w,), combo + (b_idx,), s), fld.neg(v) if n % 2 == 0 else v)
        cells += [(row, col, v) for row, v in value.items() if v]
    return Matrix.from_entries(fld, len(tgt), len(src), cells)


ORACLE_PRESETS = {
    **{name: DIFF_PRESETS[name] for name in ("Z3", "K4", "A3", "crown", "G2(Z2)")},
    **{f"random{seed}": lambda seed=seed: presets.random_presentation(seed) for seed in range(4)},
}


@pytest.mark.parametrize("field_name", ["Q", "F7"])
@pytest.mark.parametrize("kind", ["canonical", "kernel-comp", "random"])
@pytest.mark.parametrize("name", sorted(ORACLE_PRESETS))
def test_differentials_match_textbook_formula(name, kind, field_name):
    c = linearize(ORACLE_PRESETS[name](), DIFF_FIELDS[field_name])
    # two random draws, as one may be the zero bimodule
    if kind == "random":
        coefficients = [random_bimodule(c, 0), random_bimodule(c, 1)]
    else:
        coefficients = [coefficient_bimodule(c, kind)]
    for m in coefficients:
        # the builder alone, without the d . d check of build_hm_complex
        spaces = [cohomology._degree_space(c, m, n, cohomology.DEFAULT_BUDGET, c.hom_basis) for n in range(4)]
        composites = cohomology._composites_by_result(c, c.hom_basis)
        for n in range(3):
            d = cohomology._build_differential(c, m, c.hom_basis, composites, spaces[n], spaces[n + 1], n)
            want = textbook_differential(c, m, n)
            assert (d.rows, d.cols) == (want.rows, want.cols)
            # entry for entry, each in the same canonical form
            assert [[(j, type(v), v) for j, v in row] for row in d.row_terms] == [
                [(j, type(v), v) for j, v in row] for row in want.row_terms
            ]


@pytest.mark.parametrize("name", ["Z3", "K4"])
def test_fractional_actions_give_canonical_differentials(name):
    # the canonical bimodule in a basis with halves: its actions have proper
    # fractions as entries, and some sums of them in one entry of d^n are
    # integral, so the builder must store those as ints
    c = linearize(DIFF_PRESETS[name](), QQ)
    m, _ = in_triangular_basis(c, canonical_bimodule(c), lambda: Fraction(1, 2))
    spaces = [cohomology._degree_space(c, m, n, cohomology.DEFAULT_BUDGET, c.hom_basis) for n in range(4)]
    composites = cohomology._composites_by_result(c, c.hom_basis)
    diffs = [
        cohomology._build_differential(c, m, c.hom_basis, composites, spaces[n], spaces[n + 1], n) for n in range(3)
    ]
    assert any(type(v) is Fraction for d in diffs for row in d.row_terms for _, v in row)
    for n, d in enumerate(diffs):
        assert_canonical(d)
        assert d == textbook_differential(c, m, n)


@pytest.mark.parametrize("name,kind", [("Z3", "kernel-comp"), ("G2(Z2)", "canonical")])
@pytest.mark.parametrize("field_name", ["Q", "F7"])
@pytest.mark.parametrize("degree", [0, 1, 2])
def test_flipped_sign_fails_the_dd_check(monkeypatch, name, kind, field_name, degree):
    # the rank certificate over Q rests on this check, so one wrong sign in
    # one row of any differential must be caught when the complex is built
    # (no column of d^1 is zero in these complexes, so even a flip in d^0,
    # which only d^1 . d^0 sees, is caught)
    c = linearize(DIFF_PRESETS[name](), DIFF_FIELDS[field_name])
    m = coefficient_bimodule(c, kind)
    original = cohomology._build_differential

    def flipped(c, m, bases, composites, src, tgt, n):
        d = original(c, m, bases, composites, src, tgt, n)
        if n != degree:
            return d
        cells = [(i, j, v) for i, row in enumerate(d.row_terms) for j, v in row]
        i, j, v = cells[0]
        cells[0] = (i, j, c.field.neg(v))
        return Matrix.from_entries(d.field, d.rows, d.cols, cells)

    monkeypatch.setattr(cohomology, "_build_differential", flipped)
    with pytest.raises(InternalCheckError):
        bar_complex(c, m, 2)


# the categories of the rational cohomology benchmark
HM_Q_CORPUS = {
    "Z3": lambda: presets.cyclic_group(3),
    "Z4": lambda: presets.cyclic_group(4),
    "Z5": lambda: presets.cyclic_group(5),
    "K4": presets.klein_four,
    "G2(Z2)": lambda: presets.connected_groupoid(presets.cyclic_group(2), 2),
    "A5": lambda: presets.chain_poset(5),
    "crown": lambda: crown_poset(),
}


@pytest.mark.parametrize("name", sorted(HM_Q_CORPUS))
def test_les_over_q_stores_only_canonical_scalars(monkeypatch, name):
    # no float, bool or integral Fraction lands in any differential, cochain
    # map, product, kernel basis or rref that les takes, nor in the
    # canonical complex to degree 3
    seen = []

    def keep(fn):
        def kept(*args):
            out = fn(*args)
            seen.append(out)
            return out

        return kept

    for owner, attr in [(cohomology, "build_hm_complex"), (cohomology, "_cochain_map"), (Matrix, "__matmul__"),
                        (Matrix, "kernel_basis"), (Matrix, "rref")]:
        monkeypatch.setattr(owner, attr, keep(getattr(owner, attr)))
    c = linearize(HM_Q_CORPUS[name](), QQ)
    assert les_analysis(c, kernel_comp_ses(c), 2).all_exact
    cohomology.build_hm_complex(c, canonical_bimodule(c), 3)
    assert sum(isinstance(x, cohomology.CochainComplex) for x in seen) == 4
    for x in seen:
        if isinstance(x, cohomology.CochainComplex):
            for d in x.diffs:
                assert_canonical(d)
        else:
            assert_canonical(x.reduced if isinstance(x, exactalg.RrefResult) else x)


def test_z5_degree_three_memory():
    # a dense d^3 (3125 x 625) alone holds about 2 M entry references; the
    # nonzero rows of the whole complex and the mod-p elimination fit well
    # under 12 MB
    c = linearize(presets.cyclic_group(5), QQ)
    m = canonical_bimodule(c)
    tracemalloc.start()
    try:
        result = cohomology_dims(build_hm_complex(c, m, 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [d.dim_h for d in result.degrees] == [5, 0, 0, 0]
    assert peak < 12_000_000, f"peak {peak / 1e6:.1f} MB"


class TestClosedForms:
    """Theorems, not a second path through the same code."""

    @pytest.mark.parametrize(
        "m, fld, max_degree",
        [(2, F2, 4), (3, F3, 3), (4, F2, 3), (4, QQ, 3), (3, F2, 3), (6, F3, 2)],
    )
    def test_cyclic_group_algebra(self, m, fld, max_degree):
        # dim HH^n(K[Z_m]) = m for n = 0; for n >= 1 it is m when char K
        # divides m (K[Z_m] = K[t]/(t^m - 1) is then not separable) and 0
        # otherwise
        c = linearize(presets.cyclic_group(m), fld)
        result = cohomology_dims(build_hm_complex(c, canonical_bimodule(c), max_degree))
        higher = m if fld.p and m % fld.p == 0 else 0
        assert [d.dim_h for d in result.degrees] == [m] + [higher] * max_degree

    @pytest.mark.parametrize(
        "pres, fld, expected",
        [
            # Kunneth over F_2: dim HH^n(F_2[Z_2 x Z_2]) = 4 (n + 1)
            pytest.param(presets.klein_four(), F2, [4, 8, 12, 16], id="K4-F2"),
            # Morita invariance: a connected groupoid has the HH of its group
            pytest.param(presets.connected_groupoid(presets.cyclic_group(2), 2), F2, [2, 2, 2, 2], id="G2(Z2)-F2"),
            pytest.param(presets.connected_groupoid(presets.cyclic_group(2), 3), F2, [2, 2, 2, 2], id="G3(Z2)-F2"),
            # Kunneth for abelian A = Z_2 x Z_4 over F_2, where 2 divides both
            # factors: dim HH^n = |A| (n + 1)
            pytest.param(z2_times_z4(), F2, [8, 16, 24], id="Z2xZ4-F2"),
            # over F_2 a flipped sign is no change, so the same two over F_3,
            # where 3 does not divide the group order (Maschke): HH^n = 0, n > 0
            pytest.param(presets.connected_groupoid(presets.cyclic_group(2), 3), F3, [2, 0, 0, 0], id="G3(Z2)-F3"),
            pytest.param(z2_times_z4(), F3, [8, 0, 0], id="Z2xZ4-F3"),
            # centralizer decomposition HH^n(K[S_3]) = H^n(S_3) + H^n(Z_3) + H^n(Z_2)
            pytest.param(symmetric_group_3(), F2, [3, 2, 2, 2], id="S3-F2"),
            pytest.param(symmetric_group_3(), F3, [3, 1, 1, 2], id="S3-F3"),
            pytest.param(symmetric_group_3(), QQ, [3, 0, 0, 0], id="S3-Q"),
        ],
    )
    def test_group_algebra_closed_forms(self, pres, fld, expected):
        c = linearize(pres, fld)
        result = cohomology_dims(build_hm_complex(c, canonical_bimodule(c), len(expected) - 1))
        assert [d.dim_h for d in result.degrees] == expected

    def test_crown_poset_is_a_circle(self):
        # HH of a poset is the simplicial cohomology of its order complex
        # (Gerstenhaber-Schack); the crown's order complex is a circle
        c = linearize(crown_poset(), QQ)
        result = cohomology_dims(build_hm_complex(c, canonical_bimodule(c), 3))
        assert [d.dim_h for d in result.degrees] == [1, 1, 0, 0]


# -- normalized cochains: the bar complex's numbers from the subcomplex --

NORMALIZED_PRESENTATIONS = {
    **ACCEPTANCE_PRESENTATIONS,
    **{f"random{seed}": presets.random_presentation(seed) for seed in range(8)},
}
COEFFICIENTS = {
    "canonical": canonical_bimodule,
    "kernel-comp": lambda c: kernel_comp_ses(c).m,
    "random0": lambda c: random_bimodule(c, 0),
    "random1": lambda c: random_bimodule(c, 1),
}


@pytest.mark.parametrize("kind", sorted(COEFFICIENTS))
@pytest.mark.parametrize("field", [QQ, F2, F3, F7], ids=str)
@pytest.mark.parametrize("name", sorted(NORMALIZED_PRESENTATIONS))
def test_normalized_table_equals_the_bar_table(name, field, kind):
    c = linearize(NORMALIZED_PRESENTATIONS[name], field)
    m = COEFFICIENTS[kind](c)
    try:
        want = cohomology_dims(bar_complex(c, m, 3)).degrees
    except BudgetExceededError:
        pytest.skip("the bar complex outgrows the default budget")
    assert cohomology_dims(build_hm_complex(c, m, 3)).degrees == want


@pytest.mark.parametrize("name", sorted(HM_Q_CORPUS))
def test_les_report_equals_the_bar_complex_report(monkeypatch, name):
    c = linearize(HM_Q_CORPUS[name](), QQ)
    ses = kernel_comp_ses(c)
    normalized = les_report_to_json(les_analysis(c, ses, 2))
    monkeypatch.setattr(cohomology, "build_hm_complex", lambda c, m, max_degree, budget: bar_complex(c, m, max_degree))
    assert les_report_to_json(les_analysis(c, ses, 2)) == normalized


class TestNormalizedCut:
    def test_z5_drops_the_identity_from_every_argument(self):
        # C^n of Z_5 takes 5 values on 4^n tuples of non-identity elements;
        # the report still reads the bar complex's 5^(n+1)
        c = linearize(presets.cyclic_group(5), QQ)
        complex = build_hm_complex(c, canonical_bimodule(c), 3)
        assert [complex.dim(n) for n in range(5)] == [5 * 4**n for n in range(5)]
        assert [complex.bar_dim(n) for n in range(5)] == [5 ** (n + 1) for n in range(5)]
        assert [d.dim_cochain for d in cohomology_dims(complex).degrees] == [5, 25, 125, 625]

    def test_crown_has_no_strict_chain_of_three(self):
        # a poset keeps its strict chains only: the crown's longest has two
        # objects, so its normalized C^2 is zero
        c = linearize(crown_poset(), QQ)
        complex = build_hm_complex(c, canonical_bimodule(c), 3)
        assert [complex.dim(n) for n in range(5)] == [4, 4, 0, 0, 0]
        assert complex.space(2).slots == []

    @pytest.mark.parametrize(
        "basis, comp, ident, ranks",
        [
            # K x K in the idempotent basis {p, q}: the identity is p + q
            pytest.param(
                ["p", "q"],
                {("p", "p"): [("p", 1)], ("q", "q"): [("q", 1)]},
                [("p", 1), ("q", 1)],
                [0, 4, 4, 12],
                id="p+q",
            ),
            # K with e . e = 2e: the identity is e / 2
            pytest.param(["e"], {("e", "e"): [("e", 2)]}, [("e", Fraction(1, 2))], [0, 1, 0, 1], id="e/2"),
        ],
    )
    def test_identity_off_the_basis_builds_the_bar_complex(self, basis, comp, ident, ranks):
        # a commutative separable algebra: H^0 is all of it, H^n = 0 for n > 0
        c = FinLinCat(QQ, ["x"], {("x", "x"): basis}, comp, {"x": ident})
        complex = build_hm_complex(c, canonical_bimodule(c), 3)
        g = len(basis)
        bar_dims = [g ** (n + 1) for n in range(5)]
        assert [complex.dim(n) for n in range(5)] == [complex.bar_dim(n) for n in range(5)] == bar_dims
        assert cohomology_dims(complex).degrees == [
            DegreeData(n, bar_dims[n], ranks[n], g if n == 0 else 0) for n in range(4)
        ]


# digests of the normalized d^0, d^1, d^2 on the corpus and by the recipe of
# test_differentials_match_golden
NORMALIZED_DIFF_DIGESTS = {
    ("A3", "canonical", "F7"): "39c54c18f343fb1e",
    ("A3", "canonical", "Q"): "4ece27aca3089c77",
    ("A3", "kernel-comp", "F7"): "97fbb4a58157e016",
    ("A3", "kernel-comp", "Q"): "b97c9dede4c138f6",
    ("G2(Z2)", "canonical", "F7"): "47fc84526f55cb38",
    ("G2(Z2)", "canonical", "Q"): "dc6f68708c7cddd3",
    ("G2(Z2)", "kernel-comp", "F7"): "c93da16f595ce6ea",
    ("G2(Z2)", "kernel-comp", "Q"): "98c33f8398ad6585",
    ("K4", "canonical", "F7"): "0126c5c232c528ef",
    ("K4", "canonical", "Q"): "034ea721cb8fc4ca",
    ("K4", "kernel-comp", "F7"): "19353b02ae17d134",
    ("K4", "kernel-comp", "Q"): "9e52367907df0533",
    ("Z2", "canonical", "F7"): "7003446082c6ad0b",
    ("Z2", "canonical", "Q"): "89b99165bfa62a0a",
    ("Z2", "kernel-comp", "F7"): "9cdb77a6d882e999",
    ("Z2", "kernel-comp", "Q"): "d32ec802fde8ead5",
    ("Z3", "canonical", "F7"): "d3fd0130d755a3de",
    ("Z3", "canonical", "Q"): "6e26d49e047e8224",
    ("Z3", "kernel-comp", "F7"): "04b8e92b319bd835",
    ("Z3", "kernel-comp", "Q"): "b5787edc1203c69c",
    ("Z4", "canonical", "F7"): "254e7e66c73de9b7",
    ("Z4", "canonical", "Q"): "ffd58eef8f2bd8fc",
    ("Z4", "kernel-comp", "F7"): "c5b734bd9cdd5bed",
    ("Z4", "kernel-comp", "Q"): "595fafcbf793551b",
    ("crown", "canonical", "F7"): "fdc8cb0f97245c30",
    ("crown", "canonical", "Q"): "edc844a3b826d2f7",
    ("crown", "kernel-comp", "F7"): "5526f19dfbb0a99a",
    ("crown", "kernel-comp", "Q"): "b67ca98e43fcec00",
    ("vee", "canonical", "F7"): "580aa6280bfe72ba",
    ("vee", "canonical", "Q"): "7cbe671464ba3559",
    ("vee", "kernel-comp", "F7"): "64c82a923a4e06de",
    ("vee", "kernel-comp", "Q"): "d9018ca5fd9d3629",
}


@pytest.mark.parametrize("name,kind,field_name", sorted(NORMALIZED_DIFF_DIGESTS))
def test_normalized_differentials_match_golden(name, kind, field_name):
    c = linearize(DIFF_PRESETS[name](), DIFF_FIELDS[field_name])
    complex = build_hm_complex(c, coefficient_bimodule(c, kind), 2)
    doc = [[d.rows, d.cols, str(d.field), [d.field.format(e) for e in d.entries]] for d in complex.diffs]
    assert hashlib.sha256(json.dumps(doc).encode()).hexdigest()[:16] == NORMALIZED_DIFF_DIGESTS[(name, kind, field_name)]

import hashlib
import json
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sepcat import cmod, presets
from sepcat.exactalg import Field, Matrix, QQ
from sepcat.lincat import generating_labels, linearize
from sepcat.cmod import (
    Bimodule,
    BimoduleMap,
    LeftModule,
    _bimodule_intertwiners,
    _left_module_intertwiners,
    ShortExactSeq,
    canonical_bimodule,
    character_left_module,
    kernel_of,
    random_bimodule,
    random_left_module,
    representable_bimodule,
    representable_left_module,
    tensor_square,
    tensor_square_basis,
    validate_module,
    zero_bimodule,
)


class TestCanonicalBimodule:
    def test_group_algebra(self, z2_over_q):
        m = canonical_bimodule(z2_over_q)
        assert m.dims[("x", "x")] == 2
        assert validate_module(z2_over_q, m).ok

    def test_a2_components(self, a2_over_q):
        m = canonical_bimodule(a2_over_q)
        # component at (x, y) is hom(y, x); only x1 -> x2 morphisms exist
        assert m.dims[("x1", "x1")] == m.dims[("x2", "x2")] == 1
        assert m.dims[("x2", "x1")] == 1
        assert m.dims[("x1", "x2")] == 0
        assert validate_module(a2_over_q, m).ok

    def test_discrete(self, discrete2_over_q):
        m = canonical_bimodule(discrete2_over_q)
        for x in discrete2_over_q.objects:
            for y in discrete2_over_q.objects:
                assert m.dims[(x, y)] == (1 if x == y else 0)


class TestTensorSquare:
    def test_group_algebra_dims(self, z2_over_q):
        cc, comp_map = tensor_square(z2_over_q)
        assert cc.dims[("x", "x")] == 4
        assert comp_map.blocks[("x", "x")].rows == 2
        assert validate_module(z2_over_q, cc).ok
        assert validate_module(z2_over_q, comp_map).ok

    def test_a2_component_expansion(self, a2_over_q):
        cc, comp_map = tensor_square(a2_over_q)
        # at (x2, x1): z=x1 gives alpha (x) 1_x1, z=x2 gives 1_x2 (x) alpha
        basis = tensor_square_basis(a2_over_q, "x2", "x1")
        assert len(basis) == 2
        assert basis == [("x1", "x1<=x2", "x1<=x1"), ("x2", "x2<=x2", "x1<=x2")]
        blk = comp_map.blocks[("x2", "x1")]
        assert blk.col(0) == [QQ.of(1)] and blk.col(1) == [QQ.of(1)]

    @pytest.mark.parametrize("seed", range(6))
    def test_comp_map_componentwise_surjective(self, seed):
        c = linearize(presets.random_presentation(seed), QQ)
        _, comp_map = tensor_square(c)
        for (x, y), blk in comp_map.blocks.items():
            assert blk.rank() == c.dim_hom(y, x)


@pytest.mark.parametrize("field", [QQ, Field(2), Field(7)])
@pytest.mark.parametrize("pres", [presets.klein_four(), presets.vee_poset(), presets.idempotent_monoid()]
                         + [presets.random_presentation(seed) for seed in range(4)])
def test_tensor_square_actions_compose_factors(field, pres):
    # f acts on u (x) v as (f.u) (x) v and g as u (x) (v.g), read here off
    # the composition table by basis element
    c = linearize(pres, field)
    cxc, _ = tensor_square(c)
    index = {(x, y): {b: i for i, b in enumerate(tensor_square_basis(c, x, y))} for x in c.objects for y in c.objects}
    for (x, y), basis in index.items():
        for j, (z, u, v) in enumerate(basis):
            for f, (_, x2, _) in c.label_info.items():
                if c.label_info[f][0] != x:
                    continue
                want = {index[(x2, y)][(z, c.hom(z, x2)[k], v)]: coeff for k, coeff in c.comp_terms(f, u)}
                got = {i: e for i, e in enumerate(cxc.left[(f, y)].col(j)) if e}
                assert got == want
            for g, (y2, _, _) in c.label_info.items():
                if c.label_info[g][1] != y:
                    continue
                want = {index[(x, y2)][(z, u, c.hom(y2, z)[k])]: coeff for k, coeff in c.comp_terms(v, g)}
                got = {i: e for i, e in enumerate(cxc.right[(g, x)].col(j)) if e}
                assert got == want


class TestKernelOf:
    def test_kernel_of_comp_group_algebra(self, z2_over_q):
        _, comp_map = tensor_square(z2_over_q)
        ker, incl = kernel_of(comp_map)
        assert ker.total_dim() == 2  # 4 - 2 by rank-nullity
        assert validate_module(z2_over_q, ker).ok
        assert validate_module(z2_over_q, incl).ok
        for key, blk in comp_map.blocks.items():
            assert (blk @ incl.blocks[key]).is_zero()

    def test_kernel_of_identity_map(self, z2_over_q):
        m = canonical_bimodule(z2_over_q)
        from sepcat.cmod import BimoduleMap

        ident = BimoduleMap(
            m, m, {key: Matrix.identity(QQ, d) for key, d in m.dims.items()}
        )
        ker, _ = kernel_of(ident)
        assert ker.total_dim() == 0

    def test_kernel_of_zero_map(self, z2_over_q):
        m = canonical_bimodule(z2_over_q)
        from sepcat.cmod import BimoduleMap

        zero = BimoduleMap(
            m, m, {key: Matrix.zeros(QQ, d, d) for key, d in m.dims.items()}
        )
        ker, incl = kernel_of(zero)
        assert ker.dims == m.dims
        for key, d in m.dims.items():
            assert incl.blocks[key] == Matrix.identity(QQ, d)

    def test_non_equivariant_map_names_first_failing_label(self):
        # the kernel span(g1, g2) of the projection onto g0 is closed under
        # g0 but not under g1 or g2; all actions share one target kernel
        c = linearize(presets.cyclic_group(3), QQ)
        m = canonical_bimodule(c)
        from sepcat.cmod import BimoduleMap

        proj = BimoduleMap(m, m, {("x", "x"): Matrix.from_rows(QQ, [[1, 0, 0], [0, 0, 0], [0, 0, 0]])})
        with pytest.raises(ValueError, match="left action of g1;"):
            kernel_of(proj)

    def test_map_failing_one_right_action_names_it(self, a2_over_q):
        # on the canonical bimodule of x1 <= x2 with alpha = x1<=x2, the map
        # kills 1_x2 but not alpha = 1_x2 . alpha, so its kernel is closed
        # under every action but the right action of alpha
        m = canonical_bimodule(a2_over_q)
        one, zero = Matrix.identity(QQ, 1), Matrix.zeros(QQ, 1, 1)
        blocks = {("x1", "x1"): one, ("x2", "x2"): zero, ("x2", "x1"): one, ("x1", "x2"): Matrix.zeros(QQ, 0, 0)}
        with pytest.raises(ValueError, match=r"^map does not commute with right action of x1<=x2;"):
            kernel_of(BimoduleMap(m, m, blocks))


def _textbook_rank(m: Matrix) -> int:
    """The rank of m by textbook elimination on its dense rows, over Q or
    F_p; shares no code with sepcat's elimination."""
    p = m.field.p
    rows = [[Fraction(e) if p is None else e % p for e in m.row(i)] for i in range(m.rows)]
    rank = 0
    for j in range(m.cols):
        at = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
        if at is None:
            continue
        rows[rank], rows[at] = rows[at], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][j] / rows[rank][j] if p is None else rows[i][j] * pow(rows[rank][j], -1, p)
            rows[i] = [a - f * b if p is None else (a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _dense_product(a: Matrix, b: Matrix) -> list[list]:
    """a @ b by the definition, on dense rows and columns, reduced mod p
    over F_p."""
    p = a.field.p
    cols = [b.col(j) for j in range(b.cols)]
    out = [[sum(x * y for x, y in zip(a.row(i), col)) for col in cols] for i in range(a.rows)]
    return out if p is None else [[e % p for e in row] for row in out]


class TestEmptyComponents:
    @pytest.mark.parametrize("field", [QQ, Field(7)], ids=str)
    @pytest.mark.parametrize("pres", [presets.chain_poset(3), presets.vee_poset(), presets.cyclic_group(2)], ids=["A3", "vee", "Z2"])
    def test_kernel_of_matches_a_dense_oracle(self, field, pres):
        # comp's kernel is 0 on every diagonal component of a poset, and the
        # identity's is 0 everywhere; each kernel has source dim - rank
        # columns, is killed by the map, and each induced action A is the
        # one with incl @ A == act @ incl, which determines it since incl
        # has full column rank
        c = linearize(pres, field)
        can = canonical_bimodule(c)
        identity = BimoduleMap(can, can, {key: Matrix.identity(field, d) for key, d in can.dims.items()})
        for m in (tensor_square(c)[1], identity):
            ker, incl = kernel_of(m)
            if m is identity:
                assert set(ker.dims.values()) == {0}
            for key, blk in m.blocks.items():
                dim = m.source.dims[key] - _textbook_rank(blk)
                inc = incl.blocks[key]
                assert ker.dims[key] == dim
                assert (inc.rows, inc.cols) == (m.source.dims[key], dim)
                assert _textbook_rank(inc) == dim
                assert not any(map(any, _dense_product(blk, inc)))
            for (f, y), act in m.source.left.items():
                x, x2, _ = c.label_info[f]
                induced = ker.left[(f, y)]
                assert (induced.rows, induced.cols) == (ker.dims[(x2, y)], ker.dims[(x, y)])
                assert _dense_product(incl.blocks[(x2, y)], induced) == _dense_product(act, incl.blocks[(x, y)])
            for (g, x), act in m.source.right.items():
                y2, y, _ = c.label_info[g]
                induced = ker.right[(g, x)]
                assert (induced.rows, induced.cols) == (ker.dims[(x, y2)], ker.dims[(x, y)])
                assert _dense_product(incl.blocks[(x, y2)], induced) == _dense_product(act, incl.blocks[(x, y)])

    # each nonzero entry of an i block of A3's kernel-comp sequence,
    # raised by 1, with the violations validate_module reported for it when
    # every action, also out of a component of dimension 0, was multiplied
    # out; the same over Q and over F7
    LEFT = "map fails to commute with left action of x2<=x3 at y=x1"
    RIGHT = "map fails to commute with right action of x1<=x2 at x=x3"
    CHANGED_ENTRY_VIOLATIONS = {
        (("x2", "x1"), 0, 0): [LEFT],
        (("x2", "x1"), 1, 0): [LEFT],
        (("x3", "x1"), 0, 0): [LEFT, RIGHT],
        (("x3", "x1"), 0, 1): [RIGHT],
        (("x3", "x1"), 1, 0): [LEFT, RIGHT],
        (("x3", "x1"), 2, 1): [RIGHT],
        (("x3", "x2"), 0, 0): [RIGHT],
        (("x3", "x2"), 1, 0): [RIGHT],
    }

    @pytest.mark.parametrize("field", [QQ, Field(7)], ids=str)
    def test_changed_inclusion_reports_what_it_did(self, field):
        c = linearize(presets.chain_poset(3), field)
        cxc, comp = tensor_square(c)
        ker, incl = kernel_of(comp)
        found = {}
        for key, blk in incl.blocks.items():
            for i, row in enumerate(blk.row_terms):
                for j, v in row:
                    entries = list(blk.entries)
                    entries[i * blk.cols + j] = field.add(v, 1)
                    changed = BimoduleMap(ker, cxc, {**incl.blocks, key: Matrix(field, blk.rows, blk.cols, entries)})
                    ses = ShortExactSeq(ker, cxc, comp.target, changed, comp)
                    found[(key, i, j)] = validate_module(c, ses).violations
        assert found == self.CHANGED_ENTRY_VIOLATIONS


class TestValidate:
    def test_broken_left_action_reported(self, z2_over_q):
        # g1 . g1 must act as the identity; a shear matrix does not square to it
        m = canonical_bimodule(z2_over_q)
        bad_left = dict(m.left)
        bad_left[("g1", "x")] = Matrix.from_rows(QQ, [[1, 1], [0, 1]])
        bad = Bimodule(z2_over_q, m.dims, bad_left, m.right)
        report = validate_module(z2_over_q, bad)
        assert not report.ok
        assert any("(g1,g1)" in v for v in report.violations)

    def test_bimodule_violations_name_side_and_component(self):
        # zeroing the action of x1<=x3 on the canonical bimodule of the chain
        # x1 <= x2 <= x3 breaks (x2<=x3).(x1<=x2) = x1<=x3 on each side; a
        # right-side pair is named in C^op order
        c = linearize(presets.chain_poset(3), QQ)
        m = canonical_bimodule(c)
        zero = Matrix.zeros(QQ, 1, 1)
        left = {**m.left, ("x1<=x3", "x1"): zero}
        right = {**m.right, ("x1<=x3", "x3"): zero}
        assert validate_module(c, Bimodule(c, m.dims, left, m.right)).violations == [
            "left action at y=x1: composition law fails on pair (x2<=x3,x1<=x2)",
        ]
        assert validate_module(c, Bimodule(c, m.dims, m.left, right)).violations == [
            "right action at x=x3: composition law fails on pair (x1<=x2,x2<=x3)",
        ]

    def test_unit_law_failure_checks_every_pair(self, a2_over_q):
        # 1_x2 acting as zero breaks the unit law and the pair (1_x2, alpha),
        # whose head is no generator, while every pair headed by the only
        # generator alpha still holds
        one = Matrix.from_rows(QQ, [[1]])
        m = LeftModule(a2_over_q, {"x1": 1, "x2": 1},
                       {"x1<=x1": one, "x1<=x2": one, "x2<=x2": Matrix.from_rows(QQ, [[0]])})
        assert generating_labels(a2_over_q) == ["x1<=x2"]
        assert validate_module(a2_over_q, m).violations == [
            "unit law fails at object x2",
            "composition law fails on pair (x2<=x2,x1<=x2)",
        ]

    def test_commutation_is_tested_on_generator_pairs(self, monkeypatch):
        # the one-sided checks pass, so the pair (g1, g1) of Z12's only
        # generator is tested: 2 products rather than 2 for each of 144 pairs
        c = linearize(presets.cyclic_group(12), QQ)
        m = canonical_bimodule(c)
        monkeypatch.setattr(cmod, "_validate_left_module", lambda c, m, violations: None)
        products = []
        matmul = Matrix.__matmul__
        monkeypatch.setattr(Matrix, "__matmul__", lambda a, b: products.append((a, b)) or matmul(a, b))
        assert validate_module(c, m).ok
        assert len(products) == 2

    @pytest.mark.parametrize("broken", [False, True])
    def test_noncommuting_actions_report_every_pair(self, broken):
        # K4 = {e, a, b, c = ab} acting on Q^2 on the left by a, c -> swap and
        # on the right by a, b -> diag(1, -1): a left and a right module whose
        # actions fail to commute on four pairs. Broken, a acts on the left as
        # the identity: the composition law fails, and the pairs of the
        # generators a and b commute while (c,a) and (c,b) do not
        c = linearize(presets.klein_four(), QQ)
        one, swap, diag = (Matrix.from_rows(QQ, rows) for rows in ([[1, 0], [0, 1]], [[0, 1], [1, 0]], [[1, 0], [0, -1]]))
        left = {"e": one, "a": one if broken else swap, "b": one, "c": swap}
        right = {"e": one, "a": diag, "b": diag, "c": one}
        m = Bimodule(c, {("x", "x"): 2}, {(f, "x"): mat for f, mat in left.items()},
                     {(g, "x"): mat for g, mat in right.items()})
        commute = [f"left/right actions do not commute on ({f},{g})" for f in "eabc" for g in "eabc"
                   if left[f] @ right[g] != right[g] @ left[f]]
        violations = validate_module(c, m).violations
        head = violations[: len(violations) - len(commute)]
        assert violations[len(head):] == commute
        if broken:
            assert commute == ["left/right actions do not commute on (c,a)", "left/right actions do not commute on (c,b)"]
            assert head and all(v.startswith("left action at y=x: composition law fails") for v in head)
        else:
            assert len(commute) == 4 and head == []

    def test_ses_of_kernel_comp(self, z2_over_q):
        cc, comp_map = tensor_square(z2_over_q)
        ker, incl = kernel_of(comp_map)
        ses = ShortExactSeq(ker, cc, comp_map.target, incl, comp_map)
        assert validate_module(z2_over_q, ses).ok

    def test_inexact_ses_reported(self, z2_over_q):
        cc, comp_map = tensor_square(z2_over_q)
        zero = zero_bimodule(z2_over_q)
        from sepcat.cmod import BimoduleMap

        zmap = BimoduleMap(
            zero, cc, {key: Matrix.zeros(QQ, cc.dims[key], 0) for key in cc.dims}
        )
        ses = ShortExactSeq(zero, cc, comp_map.target, zmap, comp_map)
        report = validate_module(z2_over_q, ses)
        assert not report.ok
        assert any("im(i) != ker(q)" in v for v in report.violations)


class TestRepresentables:
    def test_regular_bimodule_of_group_algebra(self, z2_over_q):
        p = representable_bimodule(z2_over_q, "x", "x")
        assert p.dims[("x", "x")] == 4
        assert validate_module(z2_over_q, p).ok

    def test_representable_left_module(self, z2_over_q):
        m = representable_left_module(z2_over_q, "x")
        assert m.dims["x"] == 2
        assert validate_module(z2_over_q, m).ok

    def test_sign_module(self, z2_over_q):
        sign = character_left_module(z2_over_q, {"g0": 1, "g1": -1})
        assert validate_module(z2_over_q, sign).ok


class TestRandomInstances:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_bimodule_is_valid(self, z2_over_q, seed):
        b = random_bimodule(z2_over_q, seed)
        assert validate_module(z2_over_q, b).ok
        assert all(d <= 2 for d in b.dims.values())

    def test_random_bimodule_deterministic(self, a2_over_q):
        assert random_bimodule(a2_over_q, 7) == random_bimodule(a2_over_q, 7)

    def test_random_bimodules_vary_with_seed(self, z2_over_q):
        dims = {random_bimodule(z2_over_q, s).total_dim() for s in range(12)}
        assert len(dims) > 1

    @pytest.mark.parametrize("seed", range(6))
    def test_random_left_module_is_valid(self, a2_over_q, seed):
        m = random_left_module(a2_over_q, seed)
        assert validate_module(a2_over_q, m).ok
        assert all(d <= 2 for d in m.dims.values())

    def test_random_left_module_deterministic(self, z2_over_f2):
        assert random_left_module(z2_over_f2, 3) == random_left_module(z2_over_f2, 3)

    # every seed gives the zero (bi)module, drawing nothing
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("field", [QQ, Field(7)], ids=str)
    def test_random_modules_on_the_empty_category(self, field, seed):
        c = linearize(presets.discrete_category(0), field)
        assert random_bimodule(c, seed) == zero_bimodule(c)
        assert random_left_module(c, seed) == LeftModule(c, {}, {})


# -- golden draws ---------------------------------------------------------

GOLDEN_PRESETS = {
    "Z2": lambda: presets.cyclic_group(2),
    "Z3": lambda: presets.cyclic_group(3),
    "K4": presets.klein_four,
    "G2(Z2)": lambda: presets.connected_groupoid(presets.cyclic_group(2), 2),
    "A3": lambda: presets.chain_poset(3),
    "vee": presets.vee_poset,
    "idem": presets.idempotent_monoid,
    "G2(Z3)": lambda: presets.connected_groupoid(presets.cyclic_group(3), 2),
    "G3(Z2)": lambda: presets.connected_groupoid(presets.cyclic_group(2), 3),
    "Z5": lambda: presets.cyclic_group(5),
}
GOLDEN_FIELDS = {"Q": QQ, "F2": Field(2), "F3": Field(3), "F7": Field(7)}

# (random_bimodule, random_left_module) digests over seeds 0-5, recorded
# from the intertwiner-system generator that the Yoneda basis replaced.
GOLDEN_DIGESTS = {
    ("Z2", "Q"): ("5db26ba84feb88cb", "48b8bd030a167056"),
    ("Z2", "F7"): ("57626a953f2b85ae", "f0a7215658070d6b"),
    ("Z3", "Q"): ("f4536125b48b5b1e", "dbeebf43fb601c48"),
    ("Z3", "F7"): ("0d3040fa41329fe6", "5c57346f0ac03295"),
    ("K4", "Q"): ("379a7acb9b8df29c", "963574cf7924f53f"),
    ("K4", "F7"): ("22f8b73da9bf4c0b", "bf314d04d5e46211"),
    ("G2(Z2)", "Q"): ("7d22322df747675e", "2064f755efd6e2c1"),
    ("G2(Z2)", "F7"): ("460171fda0cb8002", "42377b29895a92d5"),
    ("A3", "Q"): ("99e2cda53416bf05", "c60183eb87a460d9"),
    ("A3", "F7"): ("b0aa015f29cfe1d6", "fb205eff14cb2681"),
    ("vee", "Q"): ("25e8415e56a2bc0a", "91037d3e6d61905a"),
    ("vee", "F7"): ("c6cc7b79e2613924", "7016efff05519848"),
    ("idem", "Q"): ("a03b17d9f4216f4c", "ad8b9499cbf53b0f"),
    ("idem", "F7"): ("eb1eed88e504e77c", "2daa42175ae08fdc"),
}

# The same digests where two-summand sources are refused from their
# dimensions most often, recorded from the generator that built every
# draw's basis before testing its kernels.
GOLDEN_DIGESTS_REFUSED = {
    ("G2(Z3)", "F2"): ("edde55ae48068269", "bac0adb35e262646"),
    ("G2(Z3)", "F3"): ("765f94bc2cc1c0b5", "72da058bcbd61d94"),
    ("G2(Z3)", "F7"): ("70c0f5a7a8b111d1", "6576ebcfd5d083b6"),
    ("G3(Z2)", "F2"): ("fa2310be2906bfbd", "d73118d7b579448f"),
    ("G3(Z2)", "F3"): ("b7db0233ddf6c85e", "8e87511fec463891"),
    ("G3(Z2)", "F7"): ("c963da7f4f6ae5f0", "71d79218467cb220"),
    ("Z5", "F2"): ("cb42c717d83b67f9", "f4b9a147fd3e0fc8"),
    ("Z5", "F3"): ("91d1d2049d978a97", "0299a0c615ef494b"),
    ("Z5", "F7"): ("34b3f6b0fed929ed", "515e1a09aee012aa"),
}


def _matrices_doc(fld, acts):
    return {
        "|".join(key) if isinstance(key, tuple) else key: [m.rows, m.cols, [fld.format(e) for e in m.entries]]
        for key, m in acts.items()
    }


def _module_doc(m):
    fld = m.cat.field
    if isinstance(m, Bimodule):
        return {
            "dims": {f"{x}|{y}": d for (x, y), d in m.dims.items()},
            "left": _matrices_doc(fld, m.left),
            "right": _matrices_doc(fld, m.right),
        }
    return {"dims": dict(m.dims), "action": _matrices_doc(fld, m.action)}


def _draws_digest(generator, c) -> str:
    doc = [_module_doc(generator(c, seed)) for seed in range(6)]
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


@pytest.mark.parametrize("name,field_name", sorted(GOLDEN_DIGESTS | GOLDEN_DIGESTS_REFUSED))
def test_random_draws_match_golden(name, field_name):
    c = linearize(GOLDEN_PRESETS[name](), GOLDEN_FIELDS[field_name])
    bimodule_digest, left_digest = (GOLDEN_DIGESTS | GOLDEN_DIGESTS_REFUSED)[(name, field_name)]
    assert _draws_digest(random_bimodule, c) == bimodule_digest
    assert _draws_digest(random_left_module, c) == left_digest


def _spy(monkeypatch, module, name, log=None) -> list:
    """Replace module.name by a wrapper that records each call's arguments,
    and, in log when given, the name and result of each call in order."""
    calls = []
    real = getattr(module, name)

    def spy(*args):
        calls.append(args)
        result = real(*args)
        if log is not None:
            log.append((name, result))
        return result

    monkeypatch.setattr(module, name, spy)
    return calls


class TestDrawCost:
    """Only the draw that is kept builds its kernel module, a draw refused
    from its dimensions builds nothing, each representable and each
    per-label matrix is built once, and every action is written row by
    row, with no block-diagonal copy."""

    @pytest.mark.parametrize("name", ["G2(Z2)", "A3", "idem"])
    def test_representable_builds_each_label_matrix_once(self, monkeypatch, name):
        c = linearize(GOLDEN_PRESETS[name](), QQ)
        post = _spy(monkeypatch, cmod, "post_mul_matrix")
        pre = _spy(monkeypatch, cmod, "pre_mul_matrix")
        for a in c.objects:
            for b in c.objects:
                post.clear()
                pre.clear()
                representable_bimodule(c, a, b)
                assert sorted(f for _, f, _ in post) == sorted(c.label_info)
                assert sorted(g for _, g, _ in pre) == sorted(c.label_info)

    # categories where both generators reject some draw over seeds 0-5
    @pytest.mark.parametrize("name,field_name", [("K4", "Q"), ("K4", "F7"), ("Z3", "Q"), ("Z3", "F7")])
    @pytest.mark.parametrize(
        "generator,kernel,representable",
        [(random_bimodule, "kernel_of", "_representable_sum"),
         (random_left_module, "_left_module_map_kernel", "_left_representable_sum")],
        ids=["bimodule", "left-module"],
    )
    def test_only_the_kept_draw_builds_a_kernel(self, monkeypatch, name, field_name, generator, kernel, representable):
        c = linearize(GOLDEN_PRESETS[name](), GOLDEN_FIELDS[field_name])
        log = []
        draws = _spy(monkeypatch, cmod, "_draw_coefficients", log)
        kernels = _spy(monkeypatch, cmod, kernel)
        made = _spy(monkeypatch, cmod, representable, log)
        _spy(monkeypatch, cmod, "_refused_by_dims", log)
        _spy(monkeypatch, cmod, "_yoneda_basis", log)
        retried = False
        refused = 0
        for seed in range(6):
            for calls in (draws, kernels, made, log):
                calls.clear()
            generator(c, seed)
            assert len(kernels) <= 1
            # a call that draws builds its modules (seed 2 draws the zero
            # bimodule at once), each representable or sum once
            assert made or not draws
            assert len(made) == len(set(made))
            retried |= len(draws) > 1
            # cut the log at each draw: a draw refused from its dimensions
            # builds no representable, sum or Yoneda basis, and every other
            # draw builds one basis
            per_draw = []
            for event, result in log:
                if event == "_draw_coefficients":
                    per_draw.append(Counter())
                elif event == "_refused_by_dims":
                    per_draw[-1]["refused"] = result
                else:
                    per_draw[-1]["bases" if event == "_yoneda_basis" else "modules"] += 1
            for counts in per_draw:
                if counts["refused"]:
                    assert counts["modules"] == counts["bases"] == 0
                else:
                    assert counts["bases"] == 1
            refused += sum(counts["refused"] for counts in per_draw)
        assert retried
        assert refused

    @pytest.mark.parametrize("name", ["Z3", "G2(Z2)", "A3", "idem"])
    def test_representables_build_without_kron_or_block_sums(self, monkeypatch, name):
        # no summand is built as a module of its own to be copied into a
        # sum: every sum is written from per-label matrices by the row writer
        for gone in ("_block_diag", "direct_sum_left_modules", "direct_sum_bimodules"):
            assert not hasattr(cmod, gone)
        assert not hasattr(Matrix, "kron")
        c = linearize(GOLDEN_PRESETS[name](), QQ)
        whole = [_spy(monkeypatch, cmod, f"representable_{kind}") for kind in ("bimodule", "left_module")]
        post_rows = _spy(monkeypatch, cmod, "_post_rows")
        tensor_square(c)
        for seed in range(6):
            random_bimodule(c, seed)
            random_left_module(c, seed)
        assert whole == [[], []]
        assert post_rows

# -- Yoneda intertwiner bases ----------------------------------------------
#
# Checked against the definitions only: an intertwiner is a family of blocks
# commuting with the actions, and the reference kernel solves those
# commutation equations as one dense linear system.

PROPERTY_FIELDS = (QQ, Field(2), Field(3), Field(7))
PROPERTY_PRESETS = (
    lambda: presets.cyclic_group(2),
    lambda: presets.cyclic_group(3),
    presets.klein_four,
    lambda: presets.connected_groupoid(presets.cyclic_group(2), 2),
    lambda: presets.chain_poset(3),
    presets.vee_poset,
    presets.idempotent_monoid,
)


def _split_blocks(fld, vec, comps, src_dims, tgt_dims):
    """Cut a vector into row-major blocks tgt_dims[comp] x src_dims[comp]."""
    blocks, at = {}, 0
    for comp in comps:
        r, s = tgt_dims[comp], src_dims[comp]
        blocks[comp] = Matrix(fld, r, s, vec[at : at + r * s])
        at += r * s
    assert at == len(vec)
    return blocks


def _dense_kernel(fld, comps, src_dims, tgt_dims, constraints):
    """Kernel basis of "phi[c2] @ S = T @ phi[c1]" over all constraints
    (c1, c2, S, T), the unknowns laid out block by block, row-major."""
    offset, total = {}, 0
    for comp in comps:
        offset[comp] = total
        total += tgt_dims[comp] * src_dims[comp]
    rows = []
    for c1, c2, s_act, t_act in constraints:
        s_act = [s_act.row(i) for i in range(s_act.rows)]
        t_act = [t_act.row(i) for i in range(t_act.rows)]
        for r in range(tgt_dims[c2]):
            for s in range(src_dims[c1]):
                row = [fld.zero] * total
                for m in range(src_dims[c2]):
                    idx = offset[c2] + r * src_dims[c2] + m
                    row[idx] = fld.add(row[idx], s_act[m][s])
                for m in range(tgt_dims[c1]):
                    idx = offset[c1] + m * src_dims[c1] + s
                    row[idx] = fld.sub(row[idx], t_act[r][m])
                rows.append(row)
    return Matrix(fld, len(rows), total, [e for row in rows for e in row]).kernel_basis()


def _random_case(seed):
    rng = random.Random(seed)
    fld = rng.choice(PROPERTY_FIELDS)
    pres = rng.choice(PROPERTY_PRESETS)() if seed % 4 else presets.random_presentation(seed)
    return rng, linearize(pres, fld)


def _block_diagonal(fld, mats):
    """The dense block-diagonal matrix with the given blocks in order."""
    rows, cols = sum(m.rows for m in mats), sum(m.cols for m in mats)
    dense = [[fld.zero] * cols for _ in range(rows)]
    r0 = c0 = 0
    for m in mats:
        for i in range(m.rows):
            dense[r0 + i][c0 : c0 + m.cols] = m.entries[i * m.cols : (i + 1) * m.cols]
        r0, c0 = r0 + m.rows, c0 + m.cols
    return Matrix(fld, rows, cols, [e for row in dense for e in row])


def _direct_sum_by_definition(c, summands):
    """The direct sum of bimodules: dimensions add and every action is
    block-diagonal, the summands in order."""
    dims = {key: sum(s.dims[key] for s in summands) for key in summands[0].dims}
    left = {key: _block_diagonal(c.field, [s.left[key] for s in summands]) for key in summands[0].left}
    right = {key: _block_diagonal(c.field, [s.right[key] for s in summands]) for key in summands[0].right}
    return Bimodule(c, dims, left, right)


@pytest.mark.parametrize("seed", range(24))
def test_bimodule_yoneda_basis(seed):
    rng, c = _random_case(seed)
    pairs = [(x, y) for x in c.objects for y in c.objects]
    src_pairs = [rng.choice(pairs) for _ in range(rng.choice((1, 2)))]
    src = cmod._representable_sum(c, src_pairs)
    tgt = rng.choice(
        [
            representable_bimodule(c, *rng.choice(pairs)),
            canonical_bimodule(c),
            kernel_of(tensor_square(c)[1])[0],
            _direct_sum_by_definition(c, [canonical_bimodule(c), random_bimodule(c, seed + 1)]),
        ]
    )
    basis, _ = _bimodule_intertwiners(c, src_pairs, src, tgt)
    assert basis.cols == sum(tgt.dims[p] for p in src_pairs)
    assert basis.rows == sum(tgt.dims[p] * src.dims[p] for p in pairs)
    for k in range(basis.cols):
        blocks = _split_blocks(c.field, basis.col(k), pairs, src.dims, tgt.dims)
        assert validate_module(c, BimoduleMap(src, tgt, blocks)).ok
    if basis.rows <= 400:
        constraints = [
            ((x, y), (x2, y), src.left[(f, y)], tgt.left[(f, y)])
            for f, (x, x2, _) in c.label_info.items()
            for y in c.objects
        ] + [
            ((x, y), (x, y2), src.right[(g, x)], tgt.right[(g, x)])
            for g, (y2, y, _) in c.label_info.items()
            for x in c.objects
        ]
        assert basis == _dense_kernel(c.field, pairs, src.dims, tgt.dims, constraints)


@pytest.mark.parametrize("seed", range(24))
def test_left_module_yoneda_basis(seed):
    rng, c = _random_case(seed)
    src_objs = [rng.choice(c.objects) for _ in range(rng.choice((1, 2)))]
    src = cmod._left_representable_sum(c, src_objs)
    tgt = rng.choice([representable_left_module(c, rng.choice(c.objects)), random_left_module(c, seed)])
    basis, _ = _left_module_intertwiners(c, src_objs, src, tgt)
    assert basis.cols == sum(tgt.dims[a] for a in src_objs)
    for k in range(basis.cols):
        phi = _split_blocks(c.field, basis.col(k), c.objects, src.dims, tgt.dims)
        for f, (x, y, _) in c.label_info.items():
            assert phi[y] @ src.action[f] == tgt.action[f] @ phi[x]
    constraints = [(x, y, src.action[f], tgt.action[f]) for f, (x, y, _) in c.label_info.items()]
    assert basis == _dense_kernel(c.field, list(c.objects), src.dims, tgt.dims, constraints)


# Checked against the definitions only: every unit law, every composition
# law on every composable pair of basis labels, on both sides, and the
# commutation of the two actions, in the conventions of the cmod docstring.


def _reference_bimodule_ok(c, m) -> bool:
    fld = c.field

    def combo(terms, act, rows, cols):
        out = Matrix.zeros(fld, rows, cols)
        for label, coeff in terms:
            out = out + act(label).scale(coeff)
        return out

    for x in c.objects:
        for y in c.objects:
            d = m.dims[(x, y)]
            one = Matrix.identity(fld, d)
            # 1_x acts on the left of M[x][y], 1_y on its right
            if combo(zip(c.hom(x, x), c.identity[x]), lambda e: m.left[(e, y)], d, d) != one:
                return False
            if combo(zip(c.hom(y, y), c.identity[y]), lambda e: m.right[(e, x)], d, d) != one:
                return False
    for g, (b, z, _) in c.label_info.items():
        for f, (a, b2, _) in c.label_info.items():
            if b2 != b:
                continue
            gf = [(c.hom(a, z)[k], v) for k, v in c.comp_terms(g, f)]
            for y in c.objects:
                # f then g on the left: M[a][y] -> M[b][y] -> M[z][y]
                lhs = combo(gf, lambda e: m.left[(e, y)], m.dims[(z, y)], m.dims[(a, y)])
                if lhs != m.left[(g, y)] @ m.left[(f, y)]:
                    return False
            for x in c.objects:
                # g then f on the right: M[x][z] -> M[x][b] -> M[x][a]
                lhs = combo(gf, lambda e: m.right[(e, x)], m.dims[(x, a)], m.dims[(x, z)])
                if lhs != m.right[(f, x)] @ m.right[(g, x)]:
                    return False
    for f, (x, x2, _) in c.label_info.items():
        for g, (y2, y, _) in c.label_info.items():
            if m.left[(f, y2)] @ m.right[(g, x)] != m.right[(g, x2)] @ m.left[(f, y)]:
                return False
    return True


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_bimodule_validator_matches_reference(data):
    fld = data.draw(st.sampled_from(PROPERTY_FIELDS))
    pres = data.draw(st.sampled_from(PROPERTY_PRESETS + (lambda: presets.random_presentation(data.draw(st.integers(0, 9))),)))
    c = linearize(pres(), fld)
    kind = data.draw(st.sampled_from(["canonical", "cxc", "ker comp", "random"]))
    if kind == "canonical":
        m = canonical_bimodule(c)
    elif kind == "cxc":
        m = tensor_square(c)[0]
    elif kind == "ker comp":
        m = kernel_of(tensor_square(c)[1])[0]
    else:
        m = random_bimodule(c, data.draw(st.integers(0, 5)))
    # move one entry of one action matrix on either side, or none
    side = data.draw(st.sampled_from(["none", "left", "right"]))
    acts = {"none": {}, "left": m.left, "right": m.right}[side]
    keys = sorted(k for k, mat in acts.items() if mat.rows * mat.cols)
    if keys:
        key = data.draw(st.sampled_from(keys))
        entries = list(acts[key].entries)
        i = data.draw(st.integers(0, len(entries) - 1))
        entries[i] = fld.add(entries[i], fld.of(data.draw(st.sampled_from([-1, 1, 2, 3]))))
        moved = {**acts, key: Matrix(fld, acts[key].rows, acts[key].cols, entries)}
        m = Bimodule(c, m.dims, moved, m.right) if side == "left" else Bimodule(c, m.dims, m.left, moved)
    assert validate_module(c, m).ok == _reference_bimodule_ok(c, m)


# -- representables from the definition -----------------------------------
#
# P(a, b), P(a), their sums and C (x) C written entry by entry from
# comp_terms, with no Kronecker product: this pins the basis order, u major
# then v, with the summands in the order given.


def _representables_by_definition(c, pairs) -> Bimodule:
    """The sum of the P(a_k, b_k) over pairs: component (x, y) has basis
    u (x) v of each summand k in turn, u in hom(a_k, x) major, v in
    hom(y, b_k); f acts as (f.u) (x) v and g as u (x) (v.g)."""
    index = {
        (x, y): {
            key: i
            for i, key in enumerate((k, u, v) for k, (a, b) in enumerate(pairs) for u in c.hom(a, x) for v in c.hom(y, b))
        }
        for x in c.objects
        for y in c.objects
    }
    left, right = {}, {}
    for f, (x, x2, _) in c.label_info.items():
        for y in c.objects:
            src, tgt = index[(x, y)], index[(x2, y)]
            entries = [
                (tgt[(k, c.hom(pairs[k][0], x2)[t], v)], j, coeff)
                for (k, u, v), j in src.items()
                for t, coeff in c.comp_terms(f, u)
            ]
            left[(f, y)] = Matrix.from_entries(c.field, len(tgt), len(src), entries)
    for g, (y2, y, _) in c.label_info.items():
        for x in c.objects:
            src, tgt = index[(x, y)], index[(x, y2)]
            entries = [
                (tgt[(k, u, c.hom(y2, pairs[k][1])[t])], j, coeff)
                for (k, u, v), j in src.items()
                for t, coeff in c.comp_terms(v, g)
            ]
            right[(g, x)] = Matrix.from_entries(c.field, len(tgt), len(src), entries)
    return Bimodule(c, {key: len(ix) for key, ix in index.items()}, left, right)


def _left_representables_by_definition(c, objs) -> LeftModule:
    """The sum of the P(a_k) over objs: component x has basis u of each
    summand k in turn, u in hom(a_k, x); f acts as u -> f.u."""
    index = {x: {key: i for i, key in enumerate((k, u) for k, a in enumerate(objs) for u in c.hom(a, x))} for x in c.objects}
    action = {}
    for f, (x, y, _) in c.label_info.items():
        src, tgt = index[x], index[y]
        entries = [
            (tgt[(k, c.hom(objs[k], y)[t])], j, coeff) for (k, u), j in src.items() for t, coeff in c.comp_terms(f, u)
        ]
        action[f] = Matrix.from_entries(c.field, len(tgt), len(src), entries)
    return LeftModule(c, {x: len(ix) for x, ix in index.items()}, action)


DEFINITION_PRESETS = {
    **GOLDEN_PRESETS,
    **{f"random{seed}": (lambda seed=seed: presets.random_presentation(seed)) for seed in range(4)},
}


@pytest.mark.parametrize("field", PROPERTY_FIELDS, ids=str)
@pytest.mark.parametrize("name", sorted(DEFINITION_PRESETS))
def test_representables_match_the_definition(field, name):
    c = linearize(DEFINITION_PRESETS[name](), field)
    pairs = [(a, b) for a in c.objects for b in c.objects]
    for pair in pairs:
        assert representable_bimodule(c, *pair) == _representables_by_definition(c, [pair])
    rng = random.Random(name)
    for two in ([pairs[0], pairs[-1]], [pairs[-1], pairs[0]], [pairs[0], pairs[0]], rng.sample(pairs * 2, 2)):
        want = _representables_by_definition(c, two)
        got = cmod._representable_sum(c, two)
        assert got == want
        assert validate_module(c, got).ok
        assert got.total_dim() == sum(representable_bimodule(c, *pair).total_dim() for pair in two)
    assert tensor_square(c)[0] == _representables_by_definition(c, [(z, z) for z in c.objects])
    # left modules: one object, two objects, a repeated object
    for a in c.objects:
        assert representable_left_module(c, a) == _left_representables_by_definition(c, [a])
    first, last = c.objects[0], c.objects[-1]
    for objs in ((first, last), (last, first), (first, first)):
        got = cmod._left_representable_sum(c, objs)
        assert got == _left_representables_by_definition(c, objs)
        assert validate_module(c, got).ok
        assert got.total_dim() == sum(representable_left_module(c, a).total_dim() for a in objs)

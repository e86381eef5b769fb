from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from sepcat import presets
from sepcat.cmod import post_mul_matrix, pre_mul_matrix
from sepcat.exactalg import Field, QQ
from sepcat.lincat import (
    FinLinCat,
    FiniteCatPresentation,
    classify_presentation,
    generating_labels,
    linearize,
    opposite,
    validate_category,
)
from sepcat.separability import SeparabilityFamily, solve_separability, verify_family


def test_group_algebra_validates(z2_over_q):
    assert validate_category(z2_over_q).ok


def test_broken_composition_table_reported():
    # comp(g, e) deliberately set to e: breaks a unit law and associativity
    c = FinLinCat(
        QQ,
        ["x"],
        {("x", "x"): ["e", "g"]},
        {
            ("e", "e"): [("e", 1)],
            ("e", "g"): [("g", 1)],
            ("g", "e"): [("e", 1)],
            ("g", "g"): [("e", 1)],
        },
        {"x": [("e", 1)]},
    )
    report = validate_category(c)
    assert not report.ok
    assert any("unit law" in v and "g" in v for v in report.violations)
    assert any("associativity" in v and "(g,e,g)" in v for v in report.violations)


def test_single_entry_change_can_stay_valid():
    # comp(g, g) set to g instead of e gives the idempotent monoid {1, a},
    # which is still an associative unital table
    c = FinLinCat(
        QQ,
        ["x"],
        {("x", "x"): ["e", "g"]},
        {
            ("e", "e"): [("e", 1)],
            ("e", "g"): [("g", 1)],
            ("g", "e"): [("g", 1)],
            ("g", "g"): [("g", 1)],
        },
        {"x": [("e", 1)]},
    )
    assert validate_category(c).ok


def test_missing_identity_reported():
    c = FinLinCat(QQ, ["x"], {("x", "x"): ["e"]}, {("e", "e"): [("e", 1)]}, {})
    report = validate_category(c)
    assert not report.ok
    assert any("missing identity" in v for v in report.violations)


class TestCompose:
    """Composites are read as their nonzero terms (k, coeff) over the
    basis of the target hom space."""

    def test_group_law(self, z2_over_q):
        # g1 . g1 = g0, the identity, at index 0 of hom(x, x) = (g0, g1)
        assert z2_over_q.comp_terms("g1", "g1") == ((0, QQ.one),)

    def test_unit_law_in_a2(self, a2_over_q):
        # 1_x2 . alpha = alpha, the only basis vector of hom(x1, x2)
        assert a2_over_q.hom("x1", "x2") == ("x1<=x2",)
        assert a2_over_q.comp_terms("x2<=x2", "x1<=x2") == ((0, QQ.one),)

    def test_zero_composites_are_absent(self):
        # repeated labels add up, here to p . q = 0
        table = {("p", "p"): [("p", 1)], ("p", "q"): [("q", 1), ("q", -1)]}
        c = FinLinCat(QQ, ["x"], {("x", "x"): ["p", "q"]}, table, {"x": [("p", 1), ("q", 1)]})
        assert c.comp_terms("p", "p") == ((0, QQ.one),)
        assert c.comp_terms("p", "q") == c.comp_terms("q", "p") == ()
        assert ("p", "q") not in c.comp_table

    def test_non_composable_rejected(self, a2_over_q):
        alpha = "x1<=x2"
        with pytest.raises(ValueError, match="non-composable"):
            FinLinCat(
                QQ,
                a2_over_q.objects,
                a2_over_q.hom_basis,
                {(alpha, alpha): []},
                {"x1": [("x1<=x1", 1)], "x2": [("x2<=x2", 1)]},
            )


class TestLinearize:
    def test_z2_dimension(self, z2_over_q):
        assert z2_over_q.total_dim() == 2

    def test_a2_over_f2_dims(self):
        c = linearize(presets.chain_poset(2), Field(2))
        dims = {pair: c.dim_hom(*pair) for pair in c.hom_basis}
        assert dims[("x1", "x1")] == dims[("x2", "x2")] == dims[("x1", "x2")] == 1
        assert dims[("x2", "x1")] == 0

    def test_discrete_dims(self):
        c = linearize(presets.discrete_category(3), QQ)
        for x in c.objects:
            for y in c.objects:
                assert c.dim_hom(x, y) == (1 if x == y else 0)

    def test_invalid_presentation_rejected(self):
        with pytest.raises(ValueError, match=r"^invalid presentation: right unit law fails: a \. 1_x != a$"):
            FiniteCatPresentation(
                ["x"],
                {"e": ("x", "x"), "a": ("x", "x")},
                {"x": "e"},
                {("a", "a"): "a", ("e", "a"): "a", ("a", "e"): "e"},  # breaks the unit law
            )

    def test_identity_for_unknown_object_rejected(self):
        p = presets.cyclic_group(2)
        with pytest.raises(ValueError, match="^identity given for unknown object zz$"):
            FiniteCatPresentation(p.objects, p.morphisms, {**p.identity, "zz": "nosuch"}, p.composition)

    @pytest.mark.parametrize("seed", range(12))
    def test_linearization_always_validates(self, seed):
        p = presets.random_presentation(seed)
        for k in (QQ, Field(2), Field(5)):
            assert validate_category(linearize(p, k)).ok


class TestClassify:
    def test_group(self):
        flags = classify_presentation(presets.cyclic_group(2))
        assert flags.is_groupoid and not flags.is_delta

    def test_chain_poset(self):
        flags = classify_presentation(presets.chain_poset(2))
        assert not flags.is_groupoid and flags.is_delta

    def test_isolated_objects(self):
        flags = classify_presentation(presets.discrete_category(2))
        assert flags.is_groupoid and flags.is_delta

    def test_discrete_implies_groupoid_and_delta(self):
        for n in (1, 2, 3):
            flags = classify_presentation(presets.discrete_category(n))
            assert flags.is_groupoid and flags.is_delta

    def test_two_way_homs_defeat_delta(self):
        # indiscrete groupoid on two objects: trivial endos but not skeletal
        p = presets.connected_groupoid(presets.cyclic_group(1), 2)
        flags = classify_presentation(p)
        assert flags.is_groupoid and not flags.is_delta

    def test_idempotent_monoid_is_neither(self):
        flags = classify_presentation(presets.idempotent_monoid())
        assert not flags.is_groupoid and not flags.is_delta


def test_identity_need_not_be_a_basis_element():
    # K x K in the idempotent basis {p, q}: the identity is p + q
    c = FinLinCat(
        QQ,
        ["x"],
        {("x", "x"): ["p", "q"]},
        {("p", "p"): [("p", 1)], ("q", "q"): [("q", 1)]},
        {"x": [("p", 1), ("q", 1)]},
    )
    assert validate_category(c).ok
    # p . (p + q) = p . p + p . q = p
    assert c.comp_terms("p", "p") == ((0, QQ.one),)
    assert c.comp_terms("p", "q") == ()


def test_unit_laws_hold_for_every_preset():
    for seed in range(8):
        c = linearize(presets.random_presentation(100 + seed), QQ)
        ids = {x: c.hom(x, x)[c.identity[x].index(QQ.one)] for x in c.objects}
        for (x, y), labels in c.hom_basis.items():
            for i, lab in enumerate(labels):
                assert c.comp_terms(lab, ids[x]) == ((i, QQ.one),)
                assert c.comp_terms(ids[y], lab) == ((i, QQ.one),)


# -- validate_category against a dense reference ------------------------


def _dense_linearization(p: FiniteCatPresentation):
    hom_basis: dict = {}
    for name, (x, y) in p.morphisms.items():
        hom_basis.setdefault((x, y), []).append(name)

    table = {(g, f): [(h, 1)] for (g, f), h in p.composition.items()}
    identity = {x: [(p.identity[x], 1)] for x in p.objects}
    return list(p.objects), hom_basis, table, identity


_BASES = [
    _dense_linearization(p)
    for p in [
        presets.cyclic_group(2),
        presets.cyclic_group(3),
        presets.chain_poset(2),
        presets.vee_poset(),
        presets.idempotent_monoid(),
        presets.connected_groupoid(presets.cyclic_group(2), 2),
        presets.random_presentation(3),
        presets.random_presentation(5),
    ]
] + [
    # K x K in the idempotent basis: the identity p + q is no basis element
    (["x"], {("x", "x"): ["p", "q"]}, {("p", "p"): [("p", 1)], ("q", "q"): [("q", 1)]}, {"x": [("p", 1), ("q", 1)]}),
]


def _dense_violations(k: Field, objects, hom_basis, table, identity) -> list[str]:
    """validate_category's violation list, from dense coefficient vectors
    and a bilinear composition of whole morphisms."""

    def hom(x, y):
        return hom_basis.get((x, y), [])

    def dense(x, y, terms):
        vec = [k.zero] * len(hom(x, y))
        for lab, v in terms:
            i = hom(x, y).index(lab)
            vec[i] = k.add(vec[i], k.of(v))
        return vec

    def compose(g, f, x, y, z):
        # g in hom(y, z) and f in hom(x, y) as coefficient vectors
        out = [k.zero] * len(hom(x, z))
        for gl, a in zip(hom(y, z), g):
            for fl, b in zip(hom(x, y), f):
                vec = dense(x, z, table.get((gl, fl), ()))
                for t, v in enumerate(vec):
                    out[t] = k.add(out[t], k.mul(k.mul(a, b), k.of(v)))
        return out

    def basis(x, y, i):
        return [k.one if j == i else k.zero for j in range(len(hom(x, y)))]

    ids = {x: dense(x, x, terms) for x, terms in identity.items()}
    violations = [f"missing identity vector for object {x}" for x in objects if x not in identity]
    for (x, y), labels in hom_basis.items():
        if x in ids:
            for i, lab in enumerate(labels):
                if compose(basis(x, y, i), ids[x], x, x, y) != basis(x, y, i):
                    violations.append(f"right unit law fails: {lab} . 1_{x} != {lab}")
        if y in ids:
            for i, lab in enumerate(labels):
                if compose(ids[y], basis(x, y, i), x, y, y) != basis(x, y, i):
                    violations.append(f"left unit law fails: 1_{y} . {lab} != {lab}")
    for w, x, y, z in product(objects, repeat=4):
        for a, h in enumerate(hom(y, z)):
            for b, g in enumerate(hom(x, y)):
                for c_, f in enumerate(hom(w, x)):
                    eh, eg, ef = basis(y, z, a), basis(x, y, b), basis(w, x, c_)
                    left = compose(compose(eh, eg, x, y, z), ef, w, x, z)
                    right = compose(eh, compose(eg, ef, w, x, y), w, y, z)
                    if left != right:
                        violations.append(f"associativity fails on triple ({h},{g},{f})")
    return violations


@st.composite
def perturbed_tables(draw):
    k = draw(st.sampled_from([QQ, Field(2), Field(7)]))
    objects, hom_basis, table, identity = draw(st.sampled_from(_BASES))
    info = {lab: (x, y) for (x, y), labels in hom_basis.items() for lab in labels}
    pairs = sorted((g, f) for g in info for f in info if info[f][1] == info[g][0])
    table, identity = dict(table), dict(identity)

    def terms(labels):
        # repeated labels add up and absent ones are zero
        return st.lists(st.tuples(st.sampled_from(labels), st.integers(-2, 2)), max_size=len(labels) + 1)

    for _ in range(draw(st.integers(0, 3))):
        g, f = draw(st.sampled_from(pairs))
        labels = hom_basis.get((info[f][0], info[g][1]), [])
        if labels:
            table[(g, f)] = draw(terms(labels))
    if draw(st.integers(0, 3)) == 0:
        x = draw(st.sampled_from(objects))
        identity.pop(x)
        if draw(st.booleans()):
            identity[x] = draw(terms(hom_basis[(x, x)]))
    return k, objects, hom_basis, table, identity


@given(perturbed_tables())
@settings(max_examples=150, deadline=None)
def test_validate_category_matches_dense_reference(case):
    k, objects, hom_basis, table, identity = case
    c = FinLinCat(k, objects, hom_basis, table, identity)
    assert validate_category(c).violations == _dense_violations(k, objects, hom_basis, table, identity)


def test_crown_violations_keep_the_object_order():
    # 1_b . 1_b set to zero and 1_c . (a<=c) to 2 (a<=c): the failing triples
    # lie over the object 4-tuples (a,c,c,c), (b,b,b,c) and (b,b,b,d), and are
    # reported in that order although the head 1_c comes last in label order
    objects, hom_basis, table, identity = _dense_linearization(crown())
    table = {**table, ("b<=b", "b<=b"): [], ("c<=c", "a<=c"): [("a<=c", 2)]}
    violations = validate_category(FinLinCat(QQ, objects, hom_basis, table, identity)).violations
    assert [v for v in violations if v.startswith("associativity")] == [
        "associativity fails on triple (c<=c,c<=c,a<=c)",
        "associativity fails on triple (b<=c,b<=b,b<=b)",
        "associativity fails on triple (b<=d,b<=b,b<=b)",
    ]
    assert violations == _dense_violations(QQ, objects, hom_basis, table, identity)


def cube_root_of_two(ss: Fraction) -> tuple:
    """Q[t]/(t^3 - 2) on the basis e, t, s = t^2/3 when ss = 2/9: t.t = 3s,
    t.s = s.t = 2/3 e and s.s = ss t. On the triple (t, t, s) each side is
    a one-term composite scaled: (t.t).s = 3 (s.s) = 3 ss t and
    t.(t.s) = 2/3 (t.e) = 2/3 t."""
    table = {("e", lab): [(lab, 1)] for lab in "ets"} | {(lab, "e"): [(lab, 1)] for lab in "ets"}
    table |= {("t", "t"): [("s", 3)], ("t", "s"): [("e", Fraction(2, 3))], ("s", "t"): [("e", Fraction(2, 3))],
              ("s", "s"): [("t", ss)]}
    return ["x"], {("x", "x"): ["e", "t", "s"]}, table, {"x": [("e", 1)]}


def test_one_term_composites_are_scaled():
    # the stored terms of s.s and t.e differ, (t, 2/9) against (t, 1), and
    # agree only once scaled by 3 and 2/3
    c = FinLinCat(QQ, *cube_root_of_two(Fraction(2, 9)))
    assert generating_labels(c) == ["t"]
    assert validate_category(c).ok
    # s.s = t/9 gives (t.t).s = t/3 against 2/3 t: the same term, another scalar
    case = cube_root_of_two(Fraction(1, 9))
    violations = validate_category(FinLinCat(QQ, *case)).violations
    assert "associativity fails on triple (t,t,s)" in violations
    assert violations == _dense_violations(QQ, *case)


# -- generating_labels ---------------------------------------------------


def crown():
    return presets.poset_category(["a", "b", "c", "d"], [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])


def interleaved_groupoid():
    """Objects a, b, c with a and c isomorphic, vertex group Z/2, and b
    alone: the components interleave in object order, and the morphisms
    are listed by group element, so no hom set is contiguous in them."""
    g = presets.connected_groupoid(presets.cyclic_group(2), 2)
    name = {"o0": "a", "o1": "c"}
    ends = {f: (name[x], name[y]) for f, (x, y) in g.morphisms.items()}
    order = sorted(ends, key=lambda f: f.split(":")[0])  # by group element
    order.insert(4, "idb")
    morphisms = {f: ends.get(f, ("b", "b")) for f in order}
    identity = {name[x]: e for x, e in g.identity.items()}
    return FiniteCatPresentation(["a", "b", "c"], morphisms, {**identity, "b": "idb"}, dict(g.composition))


GENERATOR_PRESETS = {
    **{f"Z{n}": (lambda n=n: presets.cyclic_group(n)) for n in range(2, 13)},
    "K4": presets.klein_four,
    "G2(Z3)": lambda: presets.connected_groupoid(presets.cyclic_group(3), 2),
    "G3(Z3)": lambda: presets.connected_groupoid(presets.cyclic_group(3), 3),
    "A6": lambda: presets.chain_poset(6),
    "crown": crown,
    "idem": presets.idempotent_monoid,
    **{f"random{seed}": (lambda seed=seed: presets.random_presentation(seed)) for seed in range(10)},
}


# K x K in the idempotent basis {p, q}: the identity p + q is no basis element
KK_TABLE = {("p", "p"): [("p", 1)], ("q", "q"): [("q", 1)]}


def kk_idempotent_basis(k: Field) -> FinLinCat:
    return FinLinCat(k, ["x"], {("x", "x"): ["p", "q"]}, KK_TABLE, {"x": [("p", 1), ("q", 1)]})


HOM_ORDER_PRESETS = {
    **GENERATOR_PRESETS,
    "vee": presets.vee_poset,
    "D3": lambda: presets.discrete_category(3),
    "interleaved": interleaved_groupoid,
}


@pytest.mark.parametrize("name", sorted(HOM_ORDER_PRESETS))
def test_hom_sets_are_the_linearized_hom_bases(name):
    # ei_predict reads hom sets off the presentation and indexes the
    # linearization's hom bases with them: the two orders must agree
    p = HOM_ORDER_PRESETS[name]()
    c = linearize(p, QQ)
    for x in p.objects:
        for y in p.objects:
            assert p.hom_set(x, y) == list(c.hom(x, y))
    assert sum(len(p.hom_set(x, y)) for x in p.objects for y in p.objects) == len(p.morphisms)


@pytest.mark.parametrize("name", sorted(GENERATOR_PRESETS))
def test_generators_reach_every_morphism(name):
    # right-nested words s1 . (s2 . (... . (sk . 1_x))), composed in the
    # presentation's own table, reach every morphism
    p = GENERATOR_PRESETS[name]()
    gens = generating_labels(linearize(p, QQ))
    reached = set(p.identity.values())
    frontier = list(reached)
    while frontier:
        m = frontier.pop()
        for s in gens:
            if p.morphisms[s][0] == p.morphisms[m][1] and p.comp(s, m) not in reached:
                reached.add(p.comp(s, m))
                frontier.append(p.comp(s, m))
    assert reached == set(p.morphisms)


@pytest.mark.parametrize("k", [QQ, Field(2), Field(7)], ids=str)
def test_generators_span_the_idempotent_basis(k):
    # the identity is p + q, so words are vectors; their span, found by the
    # textbook Gauss-Jordan, is all of hom(x, x)
    from test_exactalg import gauss_jordan

    gens = generating_labels(kk_idempotent_basis(k))
    words = [[1, 1]]
    for _ in range(2):  # words of length up to dim hom(x, x) span what longer ones do
        words += [[sum(a * v for a, lab in zip(w, "pq") for out, v in KK_TABLE.get((s, lab), ()) if out == t)
                   for t in "pq"] for s in gens for w in words]
    assert len(gauss_jordan(words, k.p)[1]) == 2


def test_generators_are_few_and_in_label_order():
    assert generating_labels(linearize(presets.cyclic_group(12), QQ)) == ["g1"]
    assert generating_labels(linearize(presets.klein_four(), QQ)) == ["a", "b"]
    c = linearize(presets.connected_groupoid(presets.cyclic_group(3), 3), Field(7))
    gens = generating_labels(c)
    assert len(gens) == 5 and gens == [lab for lab in c.label_info if lab in gens]


def _count_reads(monkeypatch) -> list:
    """Record every composition-table read, through FinLinCat.comp_terms."""
    reads = []
    table_read = FinLinCat.comp_terms
    monkeypatch.setattr(FinLinCat, "comp_terms", lambda c, g, f: reads.append((g, f)) or table_read(c, g, f))
    return reads


def test_validate_category_reads_associativity_on_generators_only(monkeypatch):
    c = linearize(presets.cyclic_group(12), QQ)
    reads = _count_reads(monkeypatch)
    assert validate_category(c).ok
    # 24 unit-law reads, 12 to find the generator g1 and 3 * 144 + 12 for
    # the triples headed by g1; every triple would take 5,352 reads
    assert len(reads) <= 480


UNIT_LAW_FAILURES = {
    # Z2 with 1 . g set to zero: the left unit law fails, and so does the
    # triple (g0, g1, g1), whose head g0 is not a generator
    "Z2": (["x"], {("x", "x"): ["g0", "g1"]},
           {("g0", "g0"): [("g0", 1)], ("g0", "g1"): [], ("g1", "g0"): [("g1", 1)], ("g1", "g1"): [("g0", 1)]},
           {"x": [("g0", 1)]}, ("g0", "g1", "g1")),
    # A2 with 1_y . 1_y set to zero: the only triple headed by the generator
    # a associates, but (1_y, 1_y, a) does not
    "A2": (["x", "y"], {("x", "x"): ["1x"], ("x", "y"): ["a"], ("y", "y"): ["1y"]},
           {("1x", "1x"): [("1x", 1)], ("a", "1x"): [("a", 1)], ("1y", "a"): [("a", 1)], ("1y", "1y"): []},
           {"x": [("1x", 1)], "y": [("1y", 1)]}, ("1y", "1y", "a")),
}


@pytest.mark.parametrize("name", sorted(UNIT_LAW_FAILURES))
def test_unit_law_failure_checks_every_triple(name):
    objects, hom_basis, table, identity, triple = UNIT_LAW_FAILURES[name]
    c = FinLinCat(QQ, objects, hom_basis, table, identity)
    assert triple[0] not in generating_labels(c)
    violations = validate_category(c).violations
    assert f"associativity fails on triple ({','.join(triple)})" in violations
    assert violations == _dense_violations(QQ, objects, hom_basis, table, identity)


def _linearized_violations(objects, morphisms, identity, table) -> list[str]:
    """_dense_violations of the linearized table over Q, with the
    composites of identities filled in where table omits them, as a
    presentation fills them in."""
    hom_basis: dict = {}
    for name, pair in morphisms.items():
        hom_basis.setdefault(pair, []).append(name)
    comp = {**{(identity[y], f): f for f, (_, y) in morphisms.items()},
            **{(f, identity[x]): f for f, (x, _) in morphisms.items()}, **table}
    return _dense_violations(QQ, objects, hom_basis, {gf: [(h, 1)] for gf, h in comp.items()},
                             {x: [(e, 1)] for x, e in identity.items()})


def test_presentation_violation_headed_by_a_non_generator():
    # left zeros a and b (a.f = a, b.f = b) with e . a = e: the left unit
    # law fails for a, and the one triple that does not associate is headed
    # by e, which is no generator, so only the check of every triple finds it
    morphisms = {"e": ("x", "x"), "a": ("x", "x"), "b": ("x", "x")}
    table = {**{(g, f): g for g in "ab" for f in "ab"}, ("e", "a"): "e"}
    violations = _linearized_violations(["x"], morphisms, {"x": "e"}, table)
    assert violations == ["left unit law fails: 1_x . a != a", "associativity fails on triple (e,a,b)"]
    left_zeros = FiniteCatPresentation(["x"], morphisms, {"x": "e"}, {(g, f): g for g in "ab" for f in "ab"})
    assert generating_labels(linearize(left_zeros, QQ)) == ["a", "b"]
    with pytest.raises(ValueError) as exc:
        FiniteCatPresentation(["x"], morphisms, {"x": "e"}, table)
    assert str(exc.value) == "invalid presentation: " + "; ".join(violations)


@pytest.mark.parametrize("name", ["Z4", "K4", "idem"])
def test_presentation_laws_match_every_triple_on_one_changed_entry(name):
    p = {"Z4": presets.cyclic_group(4), "K4": presets.klein_four(), "idem": presets.idempotent_monoid()}[name]
    morphisms, identity = dict(p.morphisms), dict(p.identity)
    checked = 0
    for key, old in p.composition.items():
        for new in morphisms:
            if new == old:
                continue
            table = {**p.composition, key: new}
            violations = _linearized_violations(p.objects, morphisms, identity, table)
            if violations:
                with pytest.raises(ValueError) as exc:
                    FiniteCatPresentation(p.objects, morphisms, identity, table)
                assert str(exc.value) == "invalid presentation: " + "; ".join(violations[:3])
            else:
                FiniteCatPresentation(p.objects, morphisms, identity, table)
            checked += 1
    assert checked == len(p.composition) * (len(morphisms) - 1)


def test_generators_are_searched_once_per_category(monkeypatch):
    c = linearize(presets.connected_groupoid(presets.cyclic_group(3), 3), QQ)
    reads = _count_reads(monkeypatch)
    first = generating_labels(c)
    assert reads
    reads.clear()
    second = generating_labels(c)
    assert second == first and not reads
    # each call hands out its own list
    second.append("extra")
    assert generating_labels(c) == first


def test_category_is_immutable():
    c = linearize(presets.chain_poset(2), QQ)
    with pytest.raises(AttributeError):
        c.field = Field(2)
    with pytest.raises(AttributeError):
        c._generating_labels = ("x",)
    with pytest.raises(TypeError):
        c.hom_basis[("x1", "x1")] = ()
    with pytest.raises(TypeError):
        c.label_info["new"] = ("x1", "x1", 0)
    with pytest.raises(TypeError):
        c.comp_table[next(iter(c.comp_table))] = ()
    with pytest.raises(TypeError):
        c.identity["x1"] = (QQ.zero,)


def test_presentation_is_immutable():
    p = presets.cyclic_group(2)
    with pytest.raises(AttributeError):
        p.objects = ("y",)
    with pytest.raises(TypeError):
        p.morphisms["h"] = ("x", "x")
    with pytest.raises(TypeError):
        p.identity["x"] = "g1"
    with pytest.raises(TypeError):
        p.composition[("g1", "g1")] = "g1"


# -- opposite ------------------------------------------------------------

OPPOSITE_PRESETS = {
    **{f"Z{n}": (lambda n=n: presets.cyclic_group(n)) for n in range(2, 7)},
    "K4": presets.klein_four,
    "G2(Z2)": lambda: presets.connected_groupoid(presets.cyclic_group(2), 2),
    "G2(Z3)": lambda: presets.connected_groupoid(presets.cyclic_group(3), 2),
    "A3": lambda: presets.chain_poset(3),
    "A5": lambda: presets.chain_poset(5),
    "vee": presets.vee_poset,
    "crown": crown,
    "idem": presets.idempotent_monoid,
    "D2": lambda: presets.discrete_category(2),
    **{f"random{seed}": (lambda seed=seed: presets.random_presentation(seed)) for seed in range(4)},
}
OPPOSITE_FIELDS = [QQ, Field(2), Field(3), Field(7)]


@pytest.mark.parametrize("k", OPPOSITE_FIELDS, ids=str)
@pytest.mark.parametrize("name", sorted(OPPOSITE_PRESETS))
def test_opposite(name, k):
    c = linearize(OPPOSITE_PRESETS[name](), k)
    op = opposite(c)
    twice = opposite(op)
    assert (twice.objects, dict(twice.hom_basis)) == (c.objects, dict(c.hom_basis))
    assert (dict(twice.comp_table), dict(twice.identity)) == (dict(c.comp_table), dict(c.identity))
    assert validate_category(op).ok
    # the right action of g on C is the left action of g on C^op
    for g in c.label_info:
        for y in c.objects:
            assert pre_mul_matrix(c, g, y) == post_mul_matrix(op, g, y)
    # C^op has the separability family of C with every block transposed
    fam = solve_separability(c)
    assert (fam is None) == (solve_separability(op) is None)
    if fam is not None:
        transposed = SeparabilityFamily({key: blk.transpose() for key, blk in fam.blocks.items()})
        assert verify_family(op, transposed).ok


def test_opposite_reverses_composition():
    # in x1 <= x2 <= x3 the composite (x2<=x3).(x1<=x2) is x1<=x3; in the
    # opposite the same labels run backwards and compose the other way round
    c = linearize(presets.chain_poset(3), QQ)
    op = opposite(c)
    assert op.hom("x3", "x1") == ("x1<=x3",) and op.hom("x1", "x3") == ()
    assert op.comp_terms("x1<=x2", "x2<=x3") == c.comp_terms("x2<=x3", "x1<=x2") == ((0, 1),)
    assert op.comp_terms("x2<=x3", "x1<=x2") == ()

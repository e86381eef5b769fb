import gc
from contextlib import contextmanager
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from canonical import assert_canonical, is_canonical
from sepcat import exactalg
from sepcat.exactalg import Field, Matrix, QQ

F2 = Field(2)
F5 = Field(5)


class TestScalars:
    def test_rational_add(self):
        assert QQ.add(QQ.of("1/2"), QQ.of("1/3")) == QQ.of("5/6")

    def test_prime_field_div(self):
        assert F5.mul(F5.of(1), F5.inv(F5.of(2))) == 3

    def test_division_by_characteristic(self):
        with pytest.raises(ZeroDivisionError):
            F2.inv(F2.of(2))

    def test_mul_and_sub(self):
        assert QQ.mul(QQ.of(2), QQ.of(3)) == QQ.of(6)
        assert F5.sub(F5.of(2), F5.of(4)) == 3

    def test_prime_validation(self):
        with pytest.raises(ValueError):
            Field(6)

    def test_primality_agrees_with_trial_division(self):
        def by_trial_division(n):
            return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))

        assert [n for n in range(10**5) if exactalg._is_prime(n) != by_trial_division(n)] == []

    @pytest.mark.parametrize("n", [2047, 3215031751, 3825123056546413051])
    def test_strong_pseudoprimes_are_not_prime(self, n):
        # strong pseudoprimes to the bases 2; 2, 3, 5, 7; and 2 to 23
        assert not exactalg._is_prime(n)
        with pytest.raises(ValueError, match="is not prime"):
            Field(n)

    def test_large_prime_field(self):
        # trial division took minutes on 2**61 - 1
        p = 2**61 - 1
        field = Field(p)
        assert field.mul(field.one, field.inv(field.of(2))) == (p + 1) // 2
        with pytest.raises(ValueError, match=r"prime fields need p < 2\*\*64"):
            Field(2**64 + 13)

    def test_text_round_trip(self):
        for text in ["0", "-3", "5/6", "-7/2"]:
            assert QQ.format(QQ.of(text)) == text
        assert F5.format(F5.of("12")) == "2"

    def test_zero_denominator_is_value_error(self):
        for text in ["1/0", "0/0", "-3/0"]:
            with pytest.raises(ValueError):
                QQ.of(text)

    def test_rational_scalar_comes_back_as_is(self):
        q = Fraction(-3, 4)
        assert QQ.of(q) is q

        class Tagged(Fraction):
            pass

        # a rational is canonical as an int when integral and otherwise as
        # an exact Fraction with denominator > 1; anything else is converted
        tagged = QQ.of(Tagged(1, 2))
        assert type(tagged) is Fraction and tagged == Fraction(1, 2)
        for value, want in [
            (3, 3),
            (Fraction(6, 3), 2),
            (Tagged(-4, 2), -2),
            ("-3/4", q),
            ("6/8", Fraction(3, 4)),
            ("4/2", 2),
            ("-0/5", 0),
        ]:
            got = QQ.of(value)
            assert type(got) is type(want) and got == want
        assert (type(QQ.zero), type(QQ.one)) == (int, int)

    @pytest.mark.parametrize("field", [QQ, Field(7)], ids=str)
    def test_float_is_rejected(self, field):
        # a float is its binary expansion, not the number it was written as:
        # 0.1 would be 3602879701896397/36028797018963968
        for value in [0.1, 2.0, float("nan")]:
            with pytest.raises(TypeError, match="cannot coerce"):
                field.of(value)

    def test_boolean_is_rejected(self):
        # a bool is an int and a numbers.Rational, but names no scalar
        for field, value in [(QQ, True), (Field(7), False)]:
            with pytest.raises(TypeError, match="cannot coerce"):
                field.of(value)
        with pytest.raises(TypeError, match="cannot coerce"):
            Matrix.from_rows(QQ, [[True]])

    def test_text_grammar(self):
        # Q reads exactly -?[0-9]+(/[0-9]+)?, F_p exactly -?[0-9]+ reduced
        # mod p
        for text, want in [("007", 7), ("-0", 0), ("-12/8", Fraction(-3, 2)), ("10/5", 2)]:
            got = QQ.of_text(text)
            assert type(got) is type(want) and got == want
        assert [F5.of_text(t) for t in ["12", "-1", "0", "-10"]] == [2, 4, 0, 0]
        malformed = ["1e3", "1.5", "1_000", " 3 ", "3\n", "+2", "", "-", "--1", "1/", "/2", "1/-2", "1/+2", "1//2",
                     "\u0663", "\u00b2", "0x10", "inf", "nan"]
        for field in (QQ, F5):
            for text in malformed + (["1/2"] if field.p else []):
                with pytest.raises(ValueError):
                    field.of_text(text)

    @pytest.mark.parametrize("field, texts, values", [
        (QQ, ["1/2", "0", "-0", "2/4", "1/2", "-3", "0", "-3"], [Fraction(1, 2), 0, 0, Fraction(1, 2), Fraction(1, 2), -3, 0, -3]),
        (F5, ["3", "0", "-0", "8", "3", "-3", "5", "-3"], [3, 0, 0, 3, 3, 2, 0, 2]),
    ], ids=str)
    def test_matrix_from_json_parses_each_text_once(self, monkeypatch, field, texts, values):
        parsed = []
        of_text = Field.of_text
        monkeypatch.setattr(Field, "of_text", lambda fld, t: parsed.append(t) or of_text(fld, t))
        m = Matrix.from_json(field, 2, 4, texts)
        assert sorted(parsed) == sorted(set(texts))
        assert m == Matrix(field, 2, 4, values)
        assert_canonical(m)

    @pytest.mark.parametrize("field", [QQ, F5], ids=str)
    def test_matrix_from_json_rejects_what_of_text_rejects(self, field):
        for value, message in [(3, "scalar must be text, not 3"), (True, "scalar must be text, not True"),
                               (1.5, "scalar must be text, not 1.5"), ([1], "scalar must be text, not [1]"),
                               ("1.5", "malformed scalar '1.5'"), ("1/0" if field.p is None else "x", None)]:
            with pytest.raises(ValueError) as exc:
                Matrix.from_json(field, 1, 2, ["1", value])
            assert message is None or str(exc.value) == message
        with pytest.raises(ValueError, match="matrix entry count does not match declared shape"):
            Matrix.from_json(field, 1, 2, ["1"])
        with pytest.raises(ValueError, match="matrix entries must be a JSON array"):
            Matrix.from_json(field, 1, 1, "1")

    def test_field_json(self):
        assert Field.from_json("Q") == QQ
        assert Field.from_json({"Fp": 7}) == Field(7)
        with pytest.raises(ValueError):
            Field.from_json({"GF": 4})


class TestRref:
    def test_identity(self):
        res = Matrix.identity(QQ, 2).rref()
        assert res.rank == 2 and res.pivot_cols == (0, 1)

    def test_proportional_rows(self):
        assert Matrix.from_rows(QQ, [[1, 2], [2, 4]]).rank() == 1

    def test_mod2_elimination(self):
        assert Matrix.from_rows(F2, [[1, 1], [1, 0]]).rank() == 2

    def test_zero_sized(self):
        assert Matrix.zeros(QQ, 0, 3).rank() == 0
        assert Matrix.zeros(QQ, 3, 0).rank() == 0


class TestSolve:
    def test_identity_system(self):
        sol = Matrix.identity(QQ, 2).solve_many(Matrix.column(QQ, [1, 2]))
        assert sol == Matrix.column(QQ, [1, 2])

    def test_inconsistent(self):
        a = Matrix.from_rows(QQ, [[1, 1], [1, 1]])
        assert a.solve_many(Matrix.column(QQ, [1, 2])) is None

    def test_free_variable_zeroed(self):
        sol = Matrix.from_rows(QQ, [[1, 2]]).solve_many(Matrix.column(QQ, [1]))
        assert sol == Matrix.column(QQ, [1, 0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            Matrix.identity(QQ, 2).solve_many(Matrix.column(QQ, [1, 2, 3]))


class TestImmutable:
    def test_entries_reject_writes(self):
        m = Matrix.from_rows(QQ, [[1, 2], [3, 4]])
        with pytest.raises(TypeError):
            m.entries[0] = QQ.of(5)
        assert m.rank() == 2
        with pytest.raises(TypeError):
            m.entries[1] = QQ.zero
        assert m == Matrix.from_rows(QQ, [[1, 2], [3, 4]])

    def test_stored_rows_reject_writes(self):
        m = Matrix.from_rows(QQ, [[1, 0], [0, 4]])
        with pytest.raises(TypeError):
            m.row_terms[0] = ()
        with pytest.raises(TypeError):
            m.row_terms[1][0] = (0, QQ.one)
        with pytest.raises(TypeError):
            m.row_terms[1][0][1] = QQ.one
        with pytest.raises(AttributeError):
            m.row_terms = ((), ())
        with pytest.raises(AttributeError):
            m.rows = 3
        assert m == Matrix.from_rows(QQ, [[1, 0], [0, 4]])

    def test_entries_are_dense_row_major(self):
        m = Matrix.from_rows(F5, [[1, 0, 2], [0, 3, 0]])
        assert m.entries == (1, 0, 2, 0, 3, 0)
        assert m.row_terms == (((0, 1), (2, 2)), ((1, 3),))
        assert Matrix.zeros(QQ, 2, 1).entries == (QQ.zero, QQ.zero)

    def test_from_entries_rejects_out_of_range(self):
        with pytest.raises(IndexError):
            Matrix.from_entries(QQ, 2, 2, [(0, 2, QQ.one)])
        with pytest.raises(IndexError):
            Matrix.identity(QQ, 2).take_cols([2])

    def test_negative_shape_is_rejected(self):
        with pytest.raises(ValueError):
            Matrix(QQ, -1, -1, [QQ.one])

    @pytest.mark.parametrize(
        "build, shape",
        [
            (lambda: Matrix(QQ, 2, -1, []), "2x-1"),
            (lambda: Matrix.from_json(QQ, -1, 0, []), "-1x0"),
            (lambda: Matrix.zeros(QQ, -1, 2), "-1x2"),
            (lambda: Matrix.zeros(QQ, 2, -3), "2x-3"),
            (lambda: Matrix.identity(QQ, -2), "-2x-2"),
            (lambda: Matrix.from_entries(QQ, -1, 3, []), "-1x3"),
            (lambda: Matrix.from_entries(F5, 3, -1, []), "3x-1"),
        ],
        ids=["init", "from_json", "zeros-rows", "zeros-cols", "identity", "from_entries-rows", "from_entries-cols"],
    )
    def test_every_constructor_rejects_a_negative_shape(self, build, shape):
        with pytest.raises(ValueError, match=f"^negative matrix shape {shape}$"):
            build()

    @pytest.mark.parametrize("index", [-1, 2])
    def test_row_and_col_reject_an_index_out_of_range(self, index):
        m = Matrix.from_rows(QQ, [[1, 2], [3, 4]])
        with pytest.raises(IndexError):
            m.row(index)
        with pytest.raises(IndexError):
            m.col(index)
        assert (m.row(1), m.col(1)) == ([3, 4], [2, 4])

    def test_dense_constructor_canonicalizes_like_field_of(self):
        # from_entries trusts its scalars; the dense constructor does not
        with pytest.raises(TypeError, match="cannot coerce"):
            Matrix(Field(7), 1, 2, [0.5, 9])
        with pytest.raises(TypeError, match="cannot coerce"):
            Matrix(QQ, 1, 1, [0.5])
        m = Matrix(Field(7), 1, 2, [4, 9])
        assert m.row_terms == (((0, 4), (1, 2)),)
        assert_canonical(m)


class TestKernel:
    def test_identity_has_no_kernel(self):
        assert Matrix.identity(QQ, 3).kernel_basis().cols == 0

    def test_zero_matrix(self):
        k = Matrix.zeros(QQ, 2, 2).kernel_basis()
        assert k == Matrix.identity(QQ, 2)

    def test_single_relation(self):
        k = Matrix.from_rows(QQ, [[1, 2]]).kernel_basis()
        assert k.cols == 1 and k.col(0) == [QQ.of(-2), QQ.of(1)]


fields = st.sampled_from([QQ, F2, F5, Field(97)])


@st.composite
def matrices(draw, field=None):
    f = field if field is not None else draw(fields)
    rows = draw(st.integers(0, 4))
    cols = draw(st.integers(0, 4))
    ents = draw(st.lists(st.integers(-9, 9), min_size=rows * cols, max_size=rows * cols))
    return Matrix(f, rows, cols, [f.of(e) for e in ents])


@given(matrices())
@settings(max_examples=150, deadline=None)
def test_kernel_columns_annihilate(a):
    k = a.kernel_basis()
    assert_canonical(k)
    assert (a @ k).is_zero()
    assert a.rank() + k.cols == a.cols


@given(matrices())
@settings(max_examples=150, deadline=None)
def test_kernel_basis_normal_form(a):
    # the documented guarantee that coordinates in a kernel basis rely on:
    # the identity at the free columns, each at its column's last nonzero
    k = a.kernel_basis()
    free = [j for j in range(a.cols) if j not in a.rref().pivot_cols]
    assert Matrix.from_rows(a.field, [k.row(j) for j in free]) == Matrix.identity(a.field, len(free))
    assert [max(i for i, v in enumerate(k.col(col)) if v) for col in range(k.cols)] == free


def _random_matrix(data, field, rows, cols):
    ents = data.draw(st.lists(st.integers(-9, 9), min_size=rows * cols, max_size=rows * cols))
    return Matrix(field, rows, cols, [field.of(e) for e in ents])


coords_fields = st.sampled_from([QQ, F2, Field(7)])


@given(coords_fields, st.data())
@settings(max_examples=300, deadline=None)
def test_kernel_coords_match_solve_many(field, data):
    """Coordinates read off a kernel basis are the ones solve_many finds,
    for images inside the kernel, outside it and with no columns, also
    when the map has full column rank and the kernel is zero."""
    cols = data.draw(st.integers(0, 4))
    m = _random_matrix(data, field, data.draw(st.integers(0, 4)), cols)
    if data.draw(st.booleans()):
        m = Matrix.identity(field, cols).hstack(m.transpose()).transpose()  # full column rank
    k = m.kernel_basis()
    width = data.draw(st.integers(0, 3))
    if data.draw(st.booleans()):
        image = k @ _random_matrix(data, field, k.cols, width)
    else:
        image = _random_matrix(data, field, cols, width)
    want = k.solve_many(image)
    got = k._coords(image)
    assert got == want
    if got is not None:
        assert_canonical(got)
    if (m @ image).is_zero():
        assert want is not None


@given(coords_fields, st.data())
@settings(max_examples=200, deadline=None)
def test_column_echelon_coords_match_solve_many(field, data):
    # the transpose of an rref is the identity at its pivot rows
    a = _random_matrix(data, field, data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4)))
    res = a.rref()
    basis = res.reduced.transpose().take_cols(range(res.rank))
    width = data.draw(st.integers(0, 3))
    if data.draw(st.booleans()):
        image = basis @ _random_matrix(data, field, res.rank, width)
    else:
        image = _random_matrix(data, field, a.cols, width)
    got = basis._coords(image, res.pivot_cols)
    assert got == basis.solve_many(image)
    if got is not None:
        assert_canonical(got)


@given(matrices())
@settings(max_examples=100, deadline=None)
def test_rref_idempotent(a):
    red = a.rref().reduced
    assert red.rref().reduced == red


def test_rref_leaves_no_reference_cycle():
    # a cycle would keep each reduced matrix, often the largest object of a
    # rational elimination, alive until the next full garbage collection
    m = Matrix.from_rows(QQ, [[1, 2], [3, 4]])
    gc.collect()
    gc.disable()
    try:
        m.rref()
        del m
        assert gc.collect() == 0
    finally:
        gc.enable()


@given(matrices(), st.data())
@settings(max_examples=100, deadline=None)
def test_solve_soundness(a, data):
    b_ents = data.draw(st.lists(st.integers(-9, 9), min_size=a.rows, max_size=a.rows))
    b = Matrix.column(a.field, b_ents)
    x = a.solve_many(b)
    if x is not None:
        assert a @ x == b


@given(matrices(), st.data())
@settings(max_examples=100, deadline=None)
def test_solve_complete_on_consistent_systems(a, data):
    x_ents = data.draw(st.lists(st.integers(-9, 9), min_size=a.cols, max_size=a.cols))
    b = a @ Matrix.column(a.field, x_ents)
    x = a.solve_many(b)
    assert x is not None and a @ x == b


@given(
    st.integers(-40, 40),
    st.integers(-40, 40),
    st.integers(1, 4),
    st.integers(1, 4),
    st.sampled_from(["add", "sub", "mul", "div", "inv"]),
)
@settings(max_examples=300, deadline=None)
def test_scalar_canonical_form(m, n, dm, dn, op):
    # over Q the operands are m/dm and n/dn, so a result of proper fractions
    # may be integral
    for f in (QQ, F5):
        a, b = (f.of(Fraction(m, dm)), f.of(Fraction(n, dn))) if f.p is None else (f.of(m), f.of(n))
        if op in ("div", "inv") and not b:
            continue
        if op == "inv":
            r = f.inv(b)
        elif op == "div":
            r = f.mul(a, f.inv(b))
        else:
            r = getattr(f, op)(a, b)
        if f.p is None:
            import math

            assert r.denominator > 0
            assert math.gcd(int(r.numerator), int(r.denominator)) == 1
        assert is_canonical(f, r)


def _int_rows(data, rows, cols):
    return [data.draw(st.lists(st.integers(-9, 9), min_size=cols, max_size=cols)) for _ in range(rows)]


@given(fields, st.integers(1, 4), st.integers(0, 4), st.data())
@settings(max_examples=100, deadline=None)
def test_from_entries_matches_from_rows(field, rows, cols, data):
    ints = _int_rows(data, rows, cols)
    triplets = ((i, j, field.of(v)) for i, row in enumerate(ints) for j, v in enumerate(row) if v)
    assert Matrix.from_entries(field, rows, cols, triplets) == Matrix.from_rows(field, ints)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_nary_hstack_is_the_binary_fold(data):
    field = data.draw(fields)
    rows = data.draw(st.integers(0, 3))
    mats = []
    for _ in range(data.draw(st.integers(1, 4))):
        cols = data.draw(st.integers(0, 3))
        ents = data.draw(st.lists(st.integers(-9, 9), min_size=rows * cols, max_size=rows * cols))
        mats.append(Matrix(field, rows, cols, [field.of(e) for e in ents]))
    folded = mats[0]
    for m in mats[1:]:
        folded = folded.hstack(m)
    assert mats[0].hstack(*mats[1:]) == folded


@given(fields, st.integers(1, 4), st.integers(1, 4), st.data())
@settings(max_examples=100, deadline=None)
def test_take_cols_picks_columns(field, rows, cols, data):
    ints = _int_rows(data, rows, cols)
    drawn = data.draw(st.lists(st.integers(0, cols - 1), max_size=5))
    # increasing, as the rref certificate picks its pivot columns, then
    # decreasing with every column repeated
    for picks in (drawn, sorted(set(drawn)), drawn[::-1] + drawn):
        by_hand = Matrix.from_rows(field, [[row[j] for j in picks] for row in ints])
        assert Matrix.from_rows(field, ints).take_cols(picks) == by_hand


@given(fields, st.integers(0, 4), st.integers(0, 4), st.data())
@settings(max_examples=100, deadline=None)
def test_transpose_matches_textbook(field, rows, cols, data):
    ints = _int_rows(data, rows, cols)
    t = Matrix(field, rows, cols, [field.of(e) for row in ints for e in row]).transpose()
    assert (t.rows, t.cols) == (cols, rows)
    assert t.entries == tuple(field.of(ints[i][j]) for j in range(cols) for i in range(rows))
    assert t == Matrix(field, cols, rows, [field.of(ints[i][j]) for j in range(cols) for i in range(rows)])


@pytest.mark.parametrize(
    "field,value",
    [
        (QQ, 3 / 11),  # QQ.of(3) / 11: int / int is a float
        (QQ, Fraction(3)),
        (QQ, True),
        (F5, 5),
        (F5, -1),
        (F5, Fraction(1, 2)),
        (F5, 1.0),
    ],
    ids=["float", "integral-fraction", "bool", "p", "negative", "fraction-mod-p", "float-mod-p"],
)
def test_canonical_checker_rejects_every_other_form(field, value):
    # from_entries trusts its scalars, so it stores these as given
    with pytest.raises(AssertionError):
        assert_canonical(Matrix.from_entries(field, 1, 1, [(0, 0, value)]))
    assert_canonical(Matrix.from_entries(field, 1, 2, [(0, 0, field.mul(field.of(3), field.inv(field.of(11)))), (0, 1, 1)]))


def gauss_jordan(rows: list[list[int]], p):
    """Textbook Gauss-Jordan over Q (p None) or F_p, sharing no code with
    sepcat: the reduced rows and the pivot columns."""
    a = [[Fraction(e) if p is None else e % p for e in row] for row in rows]
    ncols = len(a[0]) if a else 0
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        below = [i for i in range(r, len(a)) if a[i][c] != 0]
        if not below:
            continue
        a[r], a[below[0]] = a[below[0]], a[r]
        if p is None:
            a[r] = [x / a[r][c] for x in a[r]]
        else:
            inv = pow(a[r][c], p - 2, p)  # Fermat
            a[r] = [x * inv % p for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y if p is None else (x - f * y) % p for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return a, pivots


@st.composite
def half_zero_int_matrices(draw):
    rows = draw(st.integers(0, 8))
    cols = draw(st.integers(0, 8))
    entry = st.one_of(st.just(0), st.integers(-9, 9))
    return [[draw(entry) for _ in range(cols)] for _ in range(rows)], cols


@given(st.sampled_from([QQ, F2, Field(3), Field(97), Field(2**31 - 1)]), half_zero_int_matrices())
@settings(max_examples=300, deadline=None)
def test_rref_matches_textbook_gauss_jordan(field, shape):
    ints, cols = shape
    res = Matrix(field, len(ints), cols, [field.of(e) for row in ints for e in row]).rref()
    reduced, pivots = gauss_jordan(ints, field.p)
    assert res.reduced.entries == tuple(e for row in reduced for e in row)
    assert_canonical(res.reduced)
    assert res.rank == len(pivots)
    assert res.pivot_cols == tuple(pivots)


# -- block elimination -----------------------------------------------------


@st.composite
def hidden_blocks(draw):
    """An integer matrix that is block diagonal up to a shuffle of its rows
    and a permutation of its columns: 1-4 blocks of 1-4 rows and columns."""
    shapes = draw(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=1, max_size=4))
    cols = sum(c for _, c in shapes)
    entry = st.one_of(st.just(0), st.integers(-9, 9))
    rows, start = [], 0
    for r, c in shapes:
        for _ in range(r):
            row = [0] * cols
            row[start : start + c] = [draw(entry) for _ in range(c)]
            rows.append(row)
        start += c
    perm = draw(st.permutations(range(cols)))
    return [[row[j] for j in perm] for row in draw(st.permutations(rows))], cols


@given(st.sampled_from([QQ, F2, Field(3), Field(2**31 - 1)]), hidden_blocks())
@settings(max_examples=300, deadline=None)
def test_block_elimination_matches_textbook(field, shape):
    ints, cols = shape
    m = Matrix(field, len(ints), cols, [field.of(e) for row in ints for e in row])
    res = m.rref()
    reduced, pivots = gauss_jordan(ints, field.p)
    assert res.reduced.entries == tuple(e for row in reduced for e in row)
    assert_canonical(res.reduced)
    assert res.pivot_cols == tuple(pivots)
    assert exactalg._rank_mod(m) == len(gauss_jordan(ints, field.p or exactalg._PRIME)[1])


@st.composite
def repeated_blocks(draw):
    """An integer matrix of 1-3 distinct blocks of 1-3 rows and columns,
    each repeated at 1-3 column sets, with the rows and the columns of all
    the copies shuffled together. Each copy keeps the order of its own rows
    and columns, so the copies of a block are one matrix in their own
    coordinates. A block's first row is all +-1 and every other row leads
    with +-1, so in every field a block stays connected and keeps its rows.
    Returns the rows, the column count and the distinct blocks."""
    unit = st.sampled_from([1, -1])
    entry = st.one_of(st.just(0), st.integers(-9, 9))
    distinct = []
    for _ in range(draw(st.integers(1, 3))):
        r, c = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        block = [[draw(unit) for _ in range(c)]]
        for _ in range(r - 1):
            lead = draw(st.integers(0, c - 1))
            block.append([0] * lead + [draw(unit)] + [draw(entry) for _ in range(c - lead - 1)])
        distinct.append(block)
    copies = [b for b in distinct for _ in range(draw(st.integers(1, 3)))]

    def shuffle_together(sizes):
        # position -> (copy, index within the copy), indices in order per copy
        owners = draw(st.permutations([k for k, n in enumerate(sizes) for _ in range(n)]))
        taken = [0] * len(sizes)
        out = []
        for k in owners:
            out.append((k, taken[k]))
            taken[k] += 1
        return out

    rows = shuffle_together([len(b) for b in copies])
    cols = shuffle_together([len(b[0]) for b in copies])
    return [[copies[k][a][b] if k == l else 0 for l, b in cols] for k, a in rows], len(cols), distinct


@given(st.sampled_from([QQ, F2, Field(3), Field(2**31 - 1)]), repeated_blocks())
@settings(max_examples=200, deadline=None)
def test_equal_blocks_share_one_elimination(field, drawn):
    ints, cols, distinct = drawn
    m = Matrix(field, len(ints), cols, [field.of(e) for row in ints for e in row])
    # a block in its own coordinates: its rows in field values, in order of
    # leading column
    own = {
        tuple(sorted((tuple(map(field.of, row)) for row in b), key=lambda row: next(j for j, v in enumerate(row) if v)))
        for b in distinct
    }
    with echelon_primes() as calls:
        res = m.rref()
    reduced, pivots = gauss_jordan(ints, field.p)
    assert res.reduced.entries == tuple(e for row in reduced for e in row)
    assert_canonical(res.reduced)
    assert res.pivot_cols == tuple(pivots)
    # one elimination per distinct block of two or more rows; a one-row
    # block is its own echelon form
    eliminated = sum(len(b) > 1 for b in own)
    assert calls == [field.p or P] * eliminated
    with echelon_primes() as calls:
        rank = exactalg._rank_mod(m)
    assert rank == len(gauss_jordan(ints, field.p or P)[1])
    assert calls == [field.p or P] * eliminated


# -- the certified rational rref ---------------------------------------------

P = exactalg._PRIME
BOUND = isqrt((P - 1) // 2)


@contextmanager
def echelon_primes():
    """Record the modulus of every forward elimination in the block: None
    for a Fraction elimination, the prime for a modular one."""
    calls = []
    original = exactalg._echelon

    def spy(rows, p):
        calls.append(p)
        return original(rows, p)

    exactalg._echelon = spy
    try:
        yield calls
    finally:
        exactalg._echelon = original


def residue(e: Fraction, p: int):
    """e mod p, or None when p divides its denominator."""
    return None if e.denominator % p == 0 else e.numerator * pow(e.denominator, -1, p) % p


def certifiable(rows: list[list[Fraction]]) -> bool:
    """Whether the modular path can prove the rref of rows, decided with
    the textbook oracle alone: no denominator is divisible by the prime,
    the rank mod the prime is the rank over Q, and every entry of the rref
    is within the reconstruction bound."""
    residues = [[residue(e, P) for e in row] for row in rows]
    if any(r is None for row in residues for r in row):
        return False
    reduced, pivots = gauss_jordan(rows, None)
    if len(gauss_jordan(residues, P)[1]) != len(pivots):
        return False
    return all(abs(e.numerator) <= BOUND and e.denominator <= BOUND for row in reduced for e in row)


def row_blocks(rows: list[list]) -> list[list[list]]:
    """The blocks of a dense matrix, each as its rows restricted to its
    columns: the components of the graph that joins the columns of each
    row's nonzeros, found by merging every earlier block a row meets."""
    found: list[tuple[set, list[int]]] = []
    for i, row in enumerate(rows):
        cols = {j for j, e in enumerate(row) if e}
        if not cols:
            continue
        met = [b for b in found if b[0] & cols]
        found = [b for b in found if not b[0] & cols]
        found.append((cols.union(*(b[0] for b in met)), sorted([i, *(k for b in met for k in b[1])])))
    return [[[rows[i][j] for j in sorted(cols)] for i in at] for cols, at in found]


@st.composite
def adversarial_rational_rows(draw):
    """Small rational matrices, each drawn so that one fallback may be
    forced: a denominator divisible by the prime, a row that equals another
    mod the prime only, or entries past the reconstruction bound."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    entry = st.one_of(st.just(0), st.integers(-9, 9), st.fractions(-9, 9, max_denominator=6))
    a = [[Fraction(draw(entry)) for _ in range(cols)] for _ in range(rows)]
    i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))
    kind = draw(st.sampled_from(["plain", "denominator", "mod-p twin", "large"]))
    if kind == "denominator":
        a[i][j] += Fraction(draw(st.integers(1, 3)), P * draw(st.integers(1, 2)))
    elif kind == "mod-p twin":
        twin = list(a[i])
        twin[j] += P * draw(st.sampled_from([1, -2]))
        a.insert(draw(st.integers(0, rows)), twin)
    elif kind == "large":
        a[i][j] = Fraction(draw(st.integers(10**5, 10**7)), draw(st.integers(1, 10**5)))
    return a


@given(adversarial_rational_rows())
@settings(max_examples=300, deadline=None)
def test_rational_rref_matches_textbook_and_certifies_exactly_when_it_can(rows):
    reduced, pivots = gauss_jordan(rows, None)
    m = Matrix.from_rows(QQ, rows)
    with echelon_primes() as calls:
        res = m.rref()
    assert res.reduced.entries == tuple(e for row in reduced for e in row)
    assert res.pivot_cols == tuple(pivots)
    assert_canonical(res.reduced)
    # the Fraction elimination runs exactly when the modular one cannot
    # answer for some block of two or more rows
    assert (None in calls) == any(not certifiable(b) for b in row_blocks(rows) if len(b) > 1)


class TestCertifiedRref:
    @pytest.mark.parametrize(
        "rows",
        [
            pytest.param([[1, 2], [0, Fraction(1, P)]], id="denominator-divisible-by-p"),
            pytest.param([[1, 0], [1, P]], id="mod-p-pivots-differ"),
            pytest.param([[BOUND + 2, BOUND + 1, 1], [0, 0, 1]], id="entry-beyond-bound"),
        ],
    )
    def test_each_fallback_is_the_textbook_rref(self, rows):
        rows = [[Fraction(e) for e in row] for row in rows]
        with echelon_primes() as calls:
            res = Matrix.from_rows(QQ, rows).rref()
        reduced, pivots = gauss_jordan(rows, None)
        assert res.reduced.entries == tuple(e for row in reduced for e in row)
        assert_canonical(res.reduced)
        assert res.pivot_cols == tuple(pivots)
        assert None in calls

    def test_fractions_within_bound_are_certified(self):
        rows = [[3, 1, 1, 0], [1, 2, 0, Fraction(1, 3)], [0, 0, 0, BOUND]]
        with echelon_primes() as calls:
            res = Matrix.from_rows(QQ, rows).rref()
        reduced, _ = gauss_jordan(rows, None)
        assert res.reduced.entries == tuple(e for row in reduced for e in row)
        assert Fraction(2, 5) in res.reduced.entries
        assert calls == [P]

    def test_one_block_past_the_bound_falls_back_alone(self):
        # columns 0 and 2 form one block, columns 1, 3 and 4 the other, each
        # of two rows; only the second block's rref has an entry past the
        # reconstruction bound, (BOUND + 1) / (BOUND + 2)
        rows = [[1, 0, 2, 0, 0], [0, BOUND + 2, 0, BOUND + 1, 1], [3, 0, 4, 0, 0], [0, 0, 0, 0, 1]]
        with echelon_primes() as calls:
            res = Matrix.from_rows(QQ, rows).rref()
        reduced, pivots = gauss_jordan(rows, None)
        assert res.reduced.entries == tuple(e for row in reduced for e in row)
        assert res.pivot_cols == tuple(pivots)
        # both blocks mod the prime, then the second alone in Fractions
        assert calls == [P, P, None]

    def test_blocks_congruent_mod_the_prime_are_reduced_apart(self):
        # two 2 x 3 blocks on disjoint columns, equal mod the prime only
        rows = [[1, 2, 0, 0, 0, 0], [0, 1, 1, 0, 0, 0], [0, 0, 0, 1, 2 + P, 0], [0, 0, 0, 0, 1, 1]]
        with echelon_primes() as calls:
            res = Matrix.from_rows(QQ, rows).rref()
        reduced, pivots = gauss_jordan(rows, None)
        assert res.reduced.entries == tuple(e for row in reduced for e in row)
        assert res.pivot_cols == tuple(pivots)
        # each block mod the prime; -(2 + P) is past the reconstruction
        # bound, so the second then falls back to Fractions
        assert calls == [P, P, None]

    def test_z5_degree_three_rank_eliminates_its_equal_blocks_once(self):
        # the bar complex of Z_5 splits by conjugacy class: d^3 (3125 x 625)
        # has 5 blocks of 125 columns, one matrix in their own coordinates
        from sepcat import presets
        from sepcat.cmod import canonical_bimodule
        from sepcat.cohomology import DEFAULT_BUDGET, _hm_complex
        from sepcat.lincat import linearize

        c = linearize(presets.cyclic_group(5), QQ)
        d3 = _hm_complex(c, canonical_bimodule(c), 3, DEFAULT_BUDGET, c.hom_basis).diffs[3]
        with echelon_primes() as calls:
            rank = exactalg._rank_mod(d3)
        assert (d3.rows, d3.cols, rank) == (3125, 625, 525)
        assert calls == [P]

    def test_reconstruction_bound(self):
        # the largest numerator and denominator come back, one past them not
        assert exactalg._rational(BOUND, P, BOUND) == BOUND
        assert exactalg._rational(pow(BOUND, -1, P), P, BOUND) == Fraction(1, BOUND)
        assert exactalg._rational(-BOUND % P, P, BOUND) == -BOUND
        assert exactalg._rational(BOUND + 1, P, BOUND) != BOUND + 1
        assert exactalg._rational(pow(BOUND + 1, -1, P), P, BOUND) != Fraction(1, BOUND + 1)

    def test_les_and_separability_run_no_fraction_elimination(self):
        from sepcat import presets
        from sepcat.cmod import ShortExactSeq, kernel_of, tensor_square
        from sepcat.cohomology import les_analysis
        from sepcat.lincat import linearize
        from sepcat.separability import solve_separability, verify_family

        z3 = linearize(presets.cyclic_group(3), QQ)
        cxc, comp_map = tensor_square(z3)
        ker, incl = kernel_of(comp_map)
        z12 = linearize(presets.cyclic_group(12), QQ)
        with echelon_primes() as calls:
            report = les_analysis(z3, ShortExactSeq(ker, cxc, comp_map.target, incl, comp_map), 2)
            family = solve_separability(z12)
        assert report.all_exact and verify_family(z12, family).ok
        assert calls and None not in calls


# -- blocks of one row ---------------------------------------------------------


@st.composite
def one_row_blocks(draw):
    """A field among Q, F2 and F7 and a matrix over it whose nonzero rows
    have pairwise disjoint supports, zero rows and zero columns among them,
    so that every block has one row. Over Q the entries include fractions,
    values past the reconstruction bound, multiples of the prime and
    denominators divisible by it."""
    field = draw(st.sampled_from([QQ, F2, Field(7)]))
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    owner = [draw(st.integers(-1, rows - 1)) for _ in range(cols)]  # -1: a zero column
    if field.p is None:
        entry = st.one_of(
            st.fractions(-9, 9, max_denominator=6).filter(bool),
            st.integers(BOUND, 10 * BOUND),
            st.sampled_from([P, -2 * P, Fraction(1, P), Fraction(3, 2 * P)]),
        )
    else:
        entry = st.integers(1, field.p - 1)
    return field, [[draw(entry) if owner[j] == i else 0 for j in range(cols)] for i in range(rows)]


class TestOneRowBlocks:
    def check(self, field, rows):
        """rref and _rank_mod of rows equal the textbook ones, with no
        elimination."""
        m = Matrix.from_rows(field, rows)
        with echelon_primes() as calls:
            res = m.rref()
            rank = exactalg._rank_mod(m)
        reduced, pivots = gauss_jordan(rows, field.p)
        assert res.reduced.entries == tuple(e for row in reduced for e in row)
        assert_canonical(res.reduced)
        assert res.pivot_cols == tuple(pivots)
        p = field.p or P
        residues = [[residue(Fraction(e), p) for e in row] for row in rows]
        if any(r is None for row in residues for r in row):
            assert rank is None
        else:
            assert rank == len(gauss_jordan(residues, p)[1])
        assert calls == []

    @given(one_row_blocks())
    @settings(max_examples=300, deadline=None)
    def test_each_block_is_its_own_rref(self, drawn):
        self.check(*drawn)

    @pytest.mark.parametrize(
        "field, rows",
        [
            pytest.param(QQ, [[0, BOUND + 2, 0, BOUND + 1]], id="Q-entry-beyond-bound"),
            pytest.param(QQ, [[Fraction(3, 2), 0, Fraction(1, P)]], id="Q-denominator-divisible-by-p"),
            pytest.param(QQ, [[P, 0], [0, 0], [0, -3]], id="Q-zero-mod-p"),
            pytest.param(F2, [[0, 1, 1], [1, 0, 0]], id="F2"),
            pytest.param(Field(7), [[3, 0, 5], [0, 6, 0]], id="F7"),
        ],
    )
    def test_named_blocks(self, field, rows):
        self.check(field, rows)


def test_solve_many_with_no_equations_is_zero():
    for field in (QQ, F2):
        a, b = Matrix.zeros(field, 0, 3), Matrix.zeros(field, 0, 2)
        with echelon_primes() as calls:
            x = a.solve_many(b)
        assert x == Matrix.zeros(field, 3, 2)
        assert a @ x == b
        assert calls == []

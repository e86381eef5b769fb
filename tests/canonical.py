"""Checks that field scalars and matrix entries are stored in canonical form."""

from fractions import Fraction


def is_canonical(field, v) -> bool:
    """Whether v is a field scalar in its one canonical form: over Q an int
    when integral, else a Fraction with denominator > 1; over F_p an int in
    [0, p). Never a float (int / int is one) or a bool."""
    if field.p is None:
        return type(v) is int or (type(v) is Fraction and v.denominator > 1)
    return type(v) is int and 0 <= v < field.p


def assert_canonical(matrix):
    """Every stored entry of matrix is a nonzero field scalar in canonical
    form: over Q an int or a Fraction with denominator > 1, over F_p an int
    in [1, p)."""
    for i, row in enumerate(matrix.row_terms):
        for j, v in row:
            assert v and is_canonical(matrix.field, v), f"entry ({i}, {j}) of a {matrix.field} matrix is {v!r}"

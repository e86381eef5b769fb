"""Exact scalars over Q or F_p and sparse exact linear algebra.

Scalars are plain Python values in one canonical form per field. Over Q a
scalar is an int when it is integral and otherwise a fractions.Fraction
with denominator > 1, so the mostly integral structure constants,
certificates and differentials multiply at int speed and only a proper
fraction pays for Fraction arithmetic (small values inline, promoted when
needed, as FLINT's fmpz/fmpq do). Over F_p a scalar is an int in [0, p).
Since int / int is a float, Field.inv is the only division.
A Field object carries the arithmetic. A Matrix stores its field and only
its nonzero entries, row by row, in tuples, so it cannot change after
construction; the systems and differentials it holds are mostly zeros.
All Gaussian elimination, over Q and over F_p, runs through one
forward-elimination routine, _echelon, per block of the matrix: a
connected component of the graph that joins the columns of each row's
nonzeros. Its working rows are dense but only as wide as their block.
A block of one row is its own echelon form, up to its lead coefficient,
and is never eliminated; the composition matrix of a linearized
category, whose composites are single labels, splits into such blocks.
Within one rref or rank, blocks that are equal in their own coordinates,
with their exact values, share one elimination: the 5 blocks of d^3 in
the bar complex of Z_5, one per conjugacy class, are one matrix.

Over Q each distinct block of two or more rows is reduced modulo the
word-size prime _PRIME and each entry of its rref rationally
reconstructed (Wang-Guy-Davenport); the candidate is kept only when one
exact product on the block proves it, as in Dixon's p-adic solver, and
that product is checked row by row. If R has pivot columns P and
B == B[:, P] @ R, the rows of B lie in the row space of R, so
rank_Q(B) <= rank(R) = rank_p(B); and rank_p(B) <= rank_Q(B) because a
minor of the reduction is the reduction of the minor. The two row spaces
are then equal, and R, being reduced, is the unique rref of B. Otherwise
that block is eliminated in Fraction arithmetic.
"""

from __future__ import annotations

import re
from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from numbers import Rational
from typing import Callable, Iterable, Iterator, Optional, Sequence, TypeVar

__all__ = ["Field", "QQ", "Matrix", "RrefResult"]

# the word-size prime that rational matrices are reduced modulo, for the
# rref and for the ranks that bound cohomology over Q
_PRIME = 2**31 - 1
# the largest numerator and denominator rationally reconstructed mod _PRIME
_BOUND = isqrt((_PRIME - 1) // 2)

_T = TypeVar("_T")

# scalar text: "n" or "n/d" over Q, "n" over F_p, in ASCII digits
_Q_TEXT = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")
_FP_TEXT = re.compile(r"-?[0-9]+")


def _is_int(value) -> bool:
    """True for a JSON integer; bool is a subclass of int but not one."""
    return isinstance(value, int) and not isinstance(value, bool)


def _canonical(q):
    """A rational in canonical form: an int when integral, else q itself,
    a Fraction with denominator > 1."""
    return q if type(q) is int or q.denominator != 1 else q.numerator


# the first twelve primes: as Miller-Rabin bases they leave no strong
# pseudoprime below 2**64 (no composite passes all of them there)
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Whether n < 2**64 is prime, by the Miller-Rabin test to every base
    of _PRIME_BASES: n - 1 = d * 2**s with d odd, and n passes base a when
    a**d = 1 or a**(d * 2**r) = -1 mod n for some r < s."""
    if n < 2:
        return False
    for a in _PRIME_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Field:
    """The base field: rationals when p is None, else the prime field F_p."""

    p: Optional[int] = None

    def __post_init__(self) -> None:
        if self.p is not None and self.p >= 2**64:
            raise ValueError(f"prime fields need p < 2**64, not {self.p}")
        if self.p is not None and not _is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    # the same ints in every field, and canonical in each
    zero = 0
    one = 1

    def of(self, value):
        """Canonicalize an int, a rational or scalar text (see of_text) into
        a field scalar. Raises ValueError on text that names no scalar, such
        as "1/0" or "1.5", and TypeError on any other value, such as a float,
        whose binary expansion is not the number it was written as, or a
        boolean."""
        if type(value) is int:
            return value if self.p is None else value % self.p
        if isinstance(value, bool):
            raise TypeError(f"cannot coerce {value!r} into {self}")
        if isinstance(value, str):
            return self._parse(value)
        if self.p is None:
            if isinstance(value, Rational):
                return _canonical(value if type(value) is Fraction else Fraction(value))
            raise TypeError(f"cannot coerce {value!r} into Q")
        if not isinstance(value, int):
            raise TypeError(f"cannot coerce {value!r} into F_{self.p}")
        return value % self.p

    def _parse(self, text: str):
        """The scalar that text names: "n" or "n/d" over Q, "n" over F_p,
        reduced mod p, with n an optionally signed run of ASCII digits and d
        one without a sign."""
        found = (_Q_TEXT if self.p is None else _FP_TEXT).fullmatch(text)
        if found is None:
            raise ValueError(f"malformed scalar {text!r}")
        if self.p is not None:
            return int(text) % self.p
        num, den = found.groups()
        if den is None:
            return int(num)
        if int(den) == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return _canonical(Fraction(int(num), int(den)))

    def of_text(self, value):
        """A scalar as the file formats write it, as text such as "-3/4";
        raises ValueError on anything else, such as a JSON number, which
        would be read as its binary expansion, or a boolean."""
        if not isinstance(value, str):
            raise ValueError(f"scalar must be text, not {value!r}")
        return self._parse(value)

    def add(self, a, b):
        return _canonical(a + b) if self.p is None else (a + b) % self.p

    def sub(self, a, b):
        return _canonical(a - b) if self.p is None else (a - b) % self.p

    def mul(self, a, b):
        return _canonical(a * b) if self.p is None else (a * b) % self.p

    def neg(self, a):
        return -a if self.p is None else (-a) % self.p

    def inv(self, a):
        if not a:
            raise ZeroDivisionError(f"division by zero in {self}")
        return _canonical(1 / Fraction(a)) if self.p is None else pow(a, -1, self.p)

    def format(self, a) -> str:
        # Q: "n" or "n/d" in lowest terms with d > 1; F_p: least residue.
        return str(a)

    def to_json(self):
        return "Q" if self.p is None else {"Fp": self.p}

    @classmethod
    def from_json(cls, doc) -> "Field":
        if doc == "Q":
            return cls()
        if isinstance(doc, dict) and set(doc) == {"Fp"} and _is_int(doc["Fp"]):
            return cls(doc["Fp"])
        raise ValueError(f"bad field description {doc!r}")

    def __str__(self) -> str:
        return "Q" if self.p is None else f"F{self.p}"


QQ = Field()


@dataclass(frozen=True)
class RrefResult:
    reduced: "Matrix"
    rank: int
    pivot_cols: tuple[int, ...]


def _nonzeros(row: Sequence, p: Optional[int]) -> tuple:
    """The (column, value) pairs of a dense row's nonzero entries, each in
    canonical form over Q (p None); an F_p row is taken as it is."""
    if p is None:
        return tuple((j, _canonical(v)) for j, v in enumerate(row) if v)
    return tuple((j, v) for j, v in enumerate(row) if v)


def _pack(acc: dict, p: Optional[int]) -> tuple:
    """A row from {column: value} in increasing column and without zeros,
    each value in canonical form over Q (p None), else reduced mod p."""
    if p is None:
        # _canonical, inline: the products of a rational matrix land here
        items = [(j, v if type(v) is int or v.denominator != 1 else v.numerator) for j, v in acc.items() if v]
    else:
        items = []
        for j, v in acc.items():
            v %= p
            if v:
                items.append((j, v))
    if len(items) > 1:
        items.sort()
    return tuple(items)


def _check_shape(rows: int, cols: int) -> None:
    if rows < 0 or cols < 0:
        raise ValueError(f"negative matrix shape {rows}x{cols}")


class Matrix:
    """Exact matrix, stored as its nonzero entries row by row.

    row_terms[i] holds the (column, value) pairs of row i's nonzero
    entries in increasing column, so two matrices are equal exactly when
    their fields, shapes and row_terms are. Instances are immutable, so
    the reduced row echelon form, which is unique, is computed once and
    cached. entries is the dense row-major tuple, built when it is read.
    """

    __slots__ = ("field", "rows", "cols", "row_terms", "_rref")

    def __init__(self, field: Field, rows: int, cols: int, entries: Sequence):
        """From the dense row-major entries, each canonicalized as Field.of
        does it, so a float raises TypeError."""
        _check_shape(rows, cols)
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match shape")
        of = field.of
        values = [of(e) for e in entries]
        terms = tuple(_nonzeros(values[i * cols : (i + 1) * cols], field.p) for i in range(rows))
        self._set(field, rows, cols, terms)

    def _set(self, field: Field, rows: int, cols: int, terms: tuple) -> None:
        _set_field(self, field)
        _set_rows(self, rows)
        _set_cols(self, cols)
        _set_row_terms(self, terms)
        _set_rref(self, None)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def _of_rows(cls, field: Field, cols: int, terms: tuple) -> "Matrix":
        """A matrix from rows already in row_terms form."""
        m = _new(cls)
        m._set(field, len(terms), cols, terms)
        return m

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "Matrix":
        _check_shape(rows, cols)
        return cls._of_rows(field, cols, ((),) * rows)

    @classmethod
    def from_entries(cls, field: Field, rows: int, cols: int, triplets: Iterable) -> "Matrix":
        """A rows x cols matrix from (i, j, value) triplets of field scalars,
        already in canonical form; absent entries are zero and each (i, j)
        is given at most once."""
        _check_shape(rows, cols)
        acc: list[dict] = [{} for _ in range(rows)]
        for i, j, v in triplets:
            if not (0 <= i < rows and 0 <= j < cols):
                raise IndexError((i, j))
            acc[i][j] = v
        rows = []
        for a in acc:
            items = [jv for jv in a.items() if jv[1]]
            if len(items) > 1:
                items.sort()
            rows.append(tuple(items))
        return cls._of_rows(field, cols, tuple(rows))

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        _check_shape(n, n)
        one = field.one
        return cls._of_rows(field, n, tuple(((i, one),) for i in range(n)))

    @classmethod
    def from_rows(cls, field: Field, rows: Iterable[Iterable]) -> "Matrix":
        data = [[field.of(e) for e in row] for row in rows]
        ncols = len(data[0]) if data else 0
        if any(len(row) != ncols for row in data):
            raise ValueError("ragged rows")
        return cls._of_rows(field, ncols, tuple(_nonzeros(row, field.p) for row in data))

    @classmethod
    def column(cls, field: Field, values: Iterable) -> "Matrix":
        return cls._of_rows(field, 1, tuple(((0, v),) if v else () for v in map(field.of, values)))

    # -- access -------------------------------------------------------

    @property
    def entries(self) -> tuple:
        """All rows x cols entries, row-major, zeros included."""
        return tuple(e for i in range(self.rows) for e in self.row(i))

    def row(self, i: int) -> list:
        if not 0 <= i < self.rows:
            raise IndexError(i)
        out = [self.field.zero] * self.cols
        for j, v in self.row_terms[i]:
            out[j] = v
        return out

    def col(self, j: int) -> list:
        if not 0 <= j < self.cols:
            raise IndexError(j)
        zero = self.field.zero
        return [next((v for c, v in row if c == j), zero) for row in self.row_terms]

    def is_zero(self) -> bool:
        return not any(self.row_terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self.row_terms == other.row_terms
        )

    def __repr__(self) -> str:
        body = "; ".join(" ".join(self.field.format(e) for e in self.row(i)) for i in range(self.rows))
        return f"Matrix({self.field}, {self.rows}x{self.cols}, [{body}])"

    def _check_compatible(self, other: "Matrix") -> None:
        if not isinstance(other, Matrix):
            raise TypeError("expected a Matrix")
        if self.field != other.field:
            raise ValueError(f"field mismatch: {self.field} vs {other.field}")

    # -- arithmetic ---------------------------------------------------

    def _plus(self, other: "Matrix", sign: int, op: str) -> "Matrix":
        """self + sign * other, for sign 1 or -1."""
        self._check_compatible(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError(f"shape mismatch in {op}")
        p = self.field.p
        out = []
        for a, b in zip(self.row_terms, other.row_terms):
            if not b:
                out.append(a)
                continue
            acc = dict(a)
            for j, v in b:
                acc[j] = acc.get(j, 0) + sign * v
            out.append(_pack(acc, p))
        return Matrix._of_rows(self.field, self.cols, tuple(out))

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._plus(other, 1, "add")

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._plus(other, -1, "sub")

    def scale(self, scalar) -> "Matrix":
        s = self.field.of(scalar)
        if not s:
            return Matrix.zeros(self.field, self.rows, self.cols)
        p = self.field.p
        if p is None:
            rows = tuple(tuple((j, _canonical(s * v)) for j, v in row) for row in self.row_terms)
        else:
            rows = tuple(tuple((j, s * v % p) for j, v in row) for row in self.row_terms)
        return Matrix._of_rows(self.field, self.cols, rows)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """The exact product, row by row: row i of self @ other sums
        a * (row k of other) over the nonzeros a = self[i, k]. Over Q the
        integral entries are ints, so they multiply as ints.

        A row of self with one nonzero (k, a) gives row k of other scaled
        by a, with no accumulation and no sort: in a field a product of
        nonzeros is nonzero, and row k is already sorted. When a is 1 that
        is row k itself, shared, since a Matrix never changes."""
        self._check_compatible(other)
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch in matmul: {self.cols} vs {other.rows}")
        p = self.field.p
        brows = other.row_terms
        out = []
        for row in self.row_terms:
            if len(row) == 1:
                k, a = row[0]
                if a == 1:
                    out.append(brows[k])
                elif p is None:
                    out.append(tuple([(j, _canonical(a * b)) for j, b in brows[k]]))
                else:
                    out.append(tuple([(j, a * b % p) for j, b in brows[k]]))
            elif row:
                acc: dict = {}
                for k, a in row:
                    for j, b in brows[k]:
                        acc[j] = acc.get(j, 0) + a * b
                out.append(_pack(acc, p))
            else:
                out.append(())
        return Matrix._of_rows(self.field, other.cols, tuple(out))

    def transpose(self) -> "Matrix":
        cols: list[list] = [[] for _ in range(self.cols)]
        for i, row in enumerate(self.row_terms):
            for j, v in row:
                cols[j].append((i, v))
        return Matrix._of_rows(self.field, self.rows, tuple(map(tuple, cols)))

    def hstack(self, *others: "Matrix") -> "Matrix":
        """self and others side by side, in order."""
        for other in others:
            self._check_compatible(other)
            if self.rows != other.rows:
                raise ValueError("row count mismatch in hstack")
        offsets = []
        width = self.cols
        for m in others:
            offsets.append(width)
            width += m.cols
        rows = []
        for first, *rest in zip(self.row_terms, *(m.row_terms for m in others)):
            row = list(first)
            for off, part in zip(offsets, rest):
                row.extend([(off + j, v) for j, v in part])
            rows.append(tuple(row))
        return Matrix._of_rows(self.field, width, tuple(rows))

    def take_cols(self, cols: Sequence[int]) -> "Matrix":
        """The columns of self with the given indices, in the given order,
        picked in one pass over the rows; a row is sorted only when the
        indices are not increasing."""
        n = self.cols
        if any(not 0 <= j < n for j in cols):
            raise IndexError(f"column index out of range for {n} columns")
        at: dict[int, list[int]] = {}  # old column: its new columns
        for k, j in enumerate(cols):
            at.setdefault(j, []).append(k)
        rows = [[(k, v) for j, v in row if j in at for k in at[j]] for row in self.row_terms]
        if any(a >= b for a, b in zip(cols, cols[1:])):
            for row in rows:
                row.sort()
        return Matrix._of_rows(self.field, len(cols), tuple(map(tuple, rows)))

    # -- elimination ---------------------------------------------------

    def rref(self) -> RrefResult:
        """The reduced row echelon form, computed once and cached. Each
        distinct block is reduced once, in its own coordinates (see
        _distinct_blocks), and the reduced rows of every block are mapped
        back through its columns and merged by pivot column; the rref is
        unique, so it equals that of the whole matrix. A block of one row
        is reduced by dividing it by its lead coefficient, with no
        elimination (see _block_rref).

        Over Q any larger block is first reduced mod _PRIME and its entries
        reconstructed as fractions; the candidate is kept only when the
        block's own product certifies it (see _certified_block_rref), and
        otherwise that block alone is eliminated in Fraction arithmetic. A
        row of self has nonzeros in one block only, and so does a reduced
        row at its pivot column, so self == self[:, P] @ R holds exactly
        when it holds on every block."""
        cached = self._rref
        if cached is not None:
            return cached
        p = self.field.p
        found = {}
        for cols, (order, reduced) in _distinct_blocks(self, lambda rows, width: _block_rref(rows, width, p)):
            for pc, red in zip(order, reduced):
                found[cols[pc]] = tuple([(cols[j], v) for j, v in red])
        order = sorted(found)
        rows = tuple([found[pc] for pc in order]) + ((),) * (self.rows - len(order))
        # reduced does not cache result: that would be a reference cycle,
        # which keeps the whole reduced matrix alive until the next full
        # garbage collection
        result = RrefResult(Matrix._of_rows(self.field, self.cols, rows), len(order), tuple(order))
        _set_rref(self, result)
        return result

    def rank(self) -> int:
        return self.rref().rank

    def solve_many(self, b: "Matrix") -> Optional["Matrix"]:
        """Columnwise solve of self @ X = B with free variables set to zero;
        None if any column is inconsistent. With no equations (self has no
        rows) every column is consistent and X is zero, found without an
        rref."""
        self._check_compatible(b)
        if b.rows != self.rows:
            raise ValueError(f"dimension mismatch: {self.rows} equations vs {b.rows} rhs rows")
        n = self.cols
        if not self.rows:
            return Matrix.zeros(self.field, n, b.cols)
        aug = self.hstack(b).rref()
        if any(pc >= n for pc in aug.pivot_cols):
            return None
        # row pc of the solution is the right-hand part of the reduced row
        # whose pivot is pc
        rows = [()] * n
        for pc, red in zip(aug.pivot_cols, aug.reduced.row_terms):
            rows[pc] = tuple((j - n, v) for j, v in red if j >= n)
        return Matrix._of_rows(self.field, b.cols, tuple(rows))

    def kernel_basis(self) -> "Matrix":
        """Columns span ker(self): the standard free-variable basis from rref.

        Guaranteed normal form: the rows at the free (non-pivot) columns of
        self, in increasing order, form the identity, and the basis column
        of a free column j is zero below row j, so row j holds the column's
        last nonzero entry."""
        res = self.rref()
        pivot_set = set(res.pivot_cols)
        free = {j: k for k, j in enumerate(j for j in range(self.cols) if j not in pivot_set)}
        one, neg = self.field.one, self.field.neg
        rows = [((free[j], one),) if j in free else () for j in range(self.cols)]
        # a reduced row is 1 at its pivot and nonzero only at free columns after it
        for pc, red in zip(res.pivot_cols, res.reduced.row_terms):
            rows[pc] = tuple((free[j], neg(v)) for j, v in red[1:])
        return Matrix._of_rows(self.field, len(free), tuple(rows))

    def _coords(self, image: "Matrix", at: Optional[Sequence[int]] = None) -> Optional["Matrix"]:
        """The X with self @ X == image, or None when there is none, for a
        basis self whose rows at the indices at form the identity: X can
        only be image's rows there, and one product confirms it. at
        defaults to the row of each column's last nonzero entry, where a
        kernel_basis() is the identity; for a basis in reduced column
        echelon form, the transpose of an rref, pass its pivot columns."""
        self._check_compatible(image)
        if image.rows != self.rows:
            raise ValueError(f"dimension mismatch: {self.rows} basis rows vs {image.rows} image rows")
        if at is None:
            last = {j: i for i, row in enumerate(self.row_terms) for j, _ in row}
            at = [last[j] for j in range(self.cols)]
        x = Matrix._of_rows(self.field, image.cols, tuple(image.row_terms[i] for i in at))
        return x if self @ x == image else None

    def to_json(self) -> list[str]:
        return [self.field.format(e) for e in self.entries]

    @classmethod
    def from_json(cls, field: Field, rows: int, cols: int, texts: Sequence[str]) -> "Matrix":
        if not isinstance(texts, list):
            raise ValueError("matrix entries must be a JSON array")
        if len(texts) != rows * cols:
            raise ValueError("matrix entry count does not match declared shape")
        # each distinct scalar text is parsed, into canonical form, once;
        # of_text rejects any other value
        parsed: dict = {}
        values = []
        for text in texts:
            if text.__class__ is not str or text not in parsed:
                parsed[text] = field.of_text(text)
            values.append(parsed[text])
        _check_shape(rows, cols)
        terms = tuple(tuple((j, v) for j, v in enumerate(values[i * cols : (i + 1) * cols]) if v) for i in range(rows))
        return cls._of_rows(field, cols, terms)


_new = object.__new__
# the slots' own setters, which Matrix.__setattr__ does not reach
_set_field, _set_rows, _set_cols, _set_row_terms, _set_rref = (
    Matrix.__dict__[name].__set__ for name in Matrix.__slots__
)


def _rational(a: int, p: int, bound: int):
    """The n/d with |n|, d <= bound and n = a * d mod p, in canonical form,
    or None when there is none: the extended Euclidean algorithm on (p, a),
    stopped at the first remainder within bound (Wang-Guy-Davenport). With
    2 * bound**2 < p at most one such fraction exists. The cofactor t1 is
    never zero: |t1| grows strictly from 1."""
    r0, r1, t0, t1 = p, a, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 in (1, -1):
        return r1 * t1
    return _canonical(Fraction(r1, t1)) if abs(t1) <= bound else None


def _eliminate(row: list, f, prow: list, support: Iterable[int], p: Optional[int]) -> None:
    """row -= f * prow in place, over Q (p None) or F_p; support holds the
    columns where prow is nonzero. The only place a row meets a pivot row."""
    if p is None:
        for j in support:
            row[j] -= f * prow[j]
    else:
        for j in support:
            row[j] = (row[j] - f * prow[j]) % p


def _echelon(rows: Iterable[list], p: Optional[int]) -> tuple[list[int], dict[int, list]]:
    """Forward elimination of a stream of dense rows over Q (p None) or F_p.

    Each row is reduced against the pivot rows kept so far, in increasing
    pivot column. A row that becomes zero is dropped; a nonzero remainder
    is scaled to a leading 1 and kept as the pivot row of its leading
    column. Returns the sorted pivot columns and {pivot column: row}; the
    rows are consumed and nothing but the pivot rows is stored.
    """
    order: list[int] = []
    pivots: dict[int, list] = {}
    supports: dict[int, list[int]] = {}
    for row in rows:
        for pc in order:
            f = row[pc]
            if f:
                _eliminate(row, f, pivots[pc], supports[pc], p)
        if not any(row):
            continue
        lead = next(j for j, v in enumerate(row) if v)
        v = row[lead]
        if v != 1:
            s = 1 / Fraction(v) if p is None else pow(v, -1, p)
            for j in range(lead, len(row)):
                if row[j]:
                    row[j] = s * row[j] if p is None else s * row[j] % p
        pivots[lead] = row
        supports[lead] = [j for j in range(lead, len(row)) if row[j]]
        insort(order, lead)
    return order, pivots


def _back_substitute(order: list[int], pivots: dict[int, list], p: Optional[int]) -> list[tuple]:
    """The nonzero rows of the rref, in pivot order, from the output of
    _echelon over Q (p None) or F_p: each pivot column is cleared above its
    pivot, last pivot first, so every row used is already fully reduced.
    Each dense pivot row is released as soon as its nonzeros are kept, in
    canonical form over Q."""
    for k in range(len(order) - 1, 0, -1):
        pc = order[k]
        above = [pivots[r] for r in order[:k] if pivots[r][pc]]
        if above:
            prow = pivots[pc]
            support = [j for j in range(pc, len(prow)) if prow[j]]
            for row in above:
                _eliminate(row, row[pc], prow, support, p)
    return [_nonzeros(pivots.pop(pc), p) for pc in order]


def _blocks(m: Matrix) -> list[tuple[list[int], tuple]]:
    """The blocks of m: the connected components of the graph that joins
    the columns of each row's nonzeros. For each, its columns in
    increasing order and its rows in the block's own coordinates, where
    column k is the block's k-th column, in order of leading column and
    with m's exact stored values. Two blocks with equal rows are one
    matrix in their own coordinates.

    No elimination moves a row's nonzeros out of its block, so the rank of
    m is the sum of the blocks' ranks and the rref of m is their rrefs
    merged by pivot column. The order of leading column keeps the fill-in
    of the pivot rows low, and neither a rank nor an rref depends on it.
    A one-row block's columns are its row's, and its own coordinates
    number its nonzeros; a matrix with at most one nonzero row has no
    columns to join."""
    rows = sorted((r for r in m.row_terms if r), key=lambda r: r[0][0])
    groups: Iterable[list] = [rows] if rows else []
    if len(rows) > 1:
        root = list(range(m.cols))

        def find(j: int) -> int:
            while root[j] != j:
                root[j] = root[root[j]]
                j = root[j]
            return j

        for r in rows:
            a = find(r[0][0])
            for j, _ in r[1:]:
                b = find(j)
                if b != a:
                    root[b] = a
        blocks: dict[int, list] = {}
        for r in rows:
            blocks.setdefault(find(r[0][0]), []).append(r)
        groups = blocks.values()
    out = []
    for block in groups:
        if len(block) == 1:  # its columns are its row's, numbered in order
            out.append(([j for j, _ in block[0]], (tuple([(k, v) for k, (_, v) in enumerate(block[0])]),)))
            continue
        cols = sorted({j for r in block for j, _ in r})
        if len(cols) == m.cols:  # one block on every column: its coordinates are m's
            out.append((cols, tuple(block)))
            continue
        local = {j: k for k, j in enumerate(cols)}
        out.append((cols, tuple([tuple([(local[j], v) for j, v in r]) for r in block])))
    return out


def _distinct_blocks(m: Matrix, solve: Callable[[tuple, int], _T]) -> Iterator[tuple[list[int], _T]]:
    """Each block of m's columns with solve(rows, width) of its rows in its
    own coordinates, called once per distinct block: a block equal to an
    earlier one in its own coordinates shares that block's result. The
    rows are the key, exact values and not their residues, so two blocks
    congruent mod a prime but different over Q are solved apart."""
    seen: dict[tuple, _T] = {}
    for cols, rows in _blocks(m):
        result = seen.get(rows)
        if result is None:
            result = seen[rows] = solve(rows, len(cols))
        yield cols, result


def _dense_rows(rows: tuple, width: int, p: Optional[int]) -> Iterator[list]:
    """The sparse rows as dense rows of the given width, reduced mod p
    unless p is None, one at a time; pow raises ValueError when p divides a
    denominator."""
    for r in rows:
        row = [0] * width
        for j, e in r:
            row[j] = e if p is None else e % p if type(e) is int else e.numerator * pow(e.denominator, -1, p) % p
        yield row


def _block_rref(rows: tuple, width: int, p: Optional[int]) -> tuple[list[int], list[tuple]]:
    """The pivot columns and nonzero reduced rows, in pivot order, of the
    rref of one block given by its rows in its own coordinates, over F_p,
    or over Q when p is None. A block of one row is its own echelon form
    once divided by its lead coefficient, exactly and in canonical form
    over Q, so it is never eliminated. Any other block over Q is certified
    from its rref mod _PRIME when it can be (_certified_block_rref), else
    eliminated in Fraction arithmetic."""
    if len(rows) == 1:
        row, lead = rows[0], rows[0][0][1]
        if lead != 1:
            s = 1 / Fraction(lead) if p is None else pow(lead, -1, p)
            row = tuple([(j, _canonical(s * v) if p is None else s * v % p) for j, v in row])
        return [0], [row]
    found = _certified_block_rref(rows, width) if p is None else None
    if found is None:
        order, pivots = _echelon(_dense_rows(rows, width, p), p)
        found = order, _back_substitute(order, pivots, p)
    return found


def _certified_block_rref(rows: tuple, width: int) -> Optional[tuple[list[int], list[tuple]]]:
    """The pivot columns P and nonzero reduced rows R of a rational block
    B from its rref mod _PRIME, reconstructed entry by entry, kept only
    when B == B[:, P] @ R; None when the prime divides a denominator, an
    entry does not reconstruct, or the product differs. The product is
    checked in one pass over B's rows: row v of B must equal the sum of
    v[P[k]] * R[k] over the pivots P[k] where v is nonzero."""
    p = _PRIME
    try:
        order, pivots = _echelon(_dense_rows(rows, width, p), p)
    except ValueError:  # from pow: p divides a denominator
        return None
    reduced = [tuple([(j, _rational(v, p, _BOUND)) for j, v in red]) for red in _back_substitute(order, pivots, p)]
    if any(q is None for red in reduced for _, q in red):
        return None
    at = dict(zip(order, reduced))
    for row in rows:
        acc: dict = {}
        for j, v in row:
            for k, r in at.get(j, ()):
                acc[k] = acc.get(k, 0) + v * r
        if _pack(acc, None) != row:
            return None
    return order, reduced


def _rank_mod(m: Matrix, p: Optional[int] = None) -> Optional[int]:
    """Rank over F_p of m with every entry reduced mod the prime p, which
    defaults to m's own prime, or _PRIME over Q; None when some entry's
    denominator is divisible by p. Over F_p itself this is the rank of m.
    It is the sum of the ranks of m's blocks, each distinct block
    eliminated once (see _distinct_blocks); a block of one row is not
    eliminated, its rank is 1 unless p divides every entry.

    A minor of the reduction is the reduction of the minor, so for a
    rational m the result never exceeds its rank over Q.
    """
    p = p or m.field.p or _PRIME

    def rank(rows: tuple, width: int) -> int:
        dense = _dense_rows(rows, width, p)
        # one row is its width nonzeros, each reduced (so a denominator
        # divisible by p still raises): rank 1 unless p divides them all
        return len(_echelon(dense, p)[0]) if len(rows) > 1 else int(any(next(dense)))

    try:
        return sum(r for _, r in _distinct_blocks(m, rank))
    except ValueError:  # from pow: p divides a denominator
        return None

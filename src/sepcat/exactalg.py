"""Exact scalars over Q or F_p and dense exact linear algebra.

Scalars are plain Python values: fractions.Fraction for rationals and
integers in [0, p) for prime fields. A Field object carries the
arithmetic; matrices store their field and their entries as a tuple, so
they cannot change after construction. All Gaussian elimination, over Q
and over F_p, runs through one forward-elimination routine, _echelon.
The private _SparseRows keeps a mostly-zero matrix as its nonzero rows.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from typing import Iterable, Optional, Sequence

__all__ = ["Field", "QQ", "Matrix", "RrefResult"]


def _is_int(value) -> bool:
    """True for a JSON integer; bool is a subclass of int but not one."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class Field:
    """The base field: rationals when p is None, else the prime field F_p."""

    p: Optional[int] = None

    def __post_init__(self) -> None:
        if self.p is not None and not _is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    @property
    def is_rationals(self) -> bool:
        return self.p is None

    @property
    def zero(self):
        return Fraction(0) if self.p is None else 0

    @property
    def one(self):
        return Fraction(1) if self.p is None else 1

    def of(self, value):
        """Canonicalize an int, string, or rational into a field scalar;
        raises ValueError on text that names no scalar, such as "1/0"."""
        if self.p is None:
            try:
                return Fraction(value)
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in {value!r}") from None
        if isinstance(value, str):
            value = int(value)
        if not isinstance(value, int):
            raise TypeError(f"cannot coerce {value!r} into F_{self.p}")
        return value % self.p

    def of_text(self, value):
        """A scalar as the file formats write it, as text such as "-3/4";
        raises ValueError on anything else, such as a JSON number, which
        would be read as its binary expansion, or a boolean."""
        if not isinstance(value, str):
            raise ValueError(f"scalar must be text, not {value!r}")
        return self.of(value)

    def add(self, a, b):
        return a + b if self.p is None else (a + b) % self.p

    def sub(self, a, b):
        return a - b if self.p is None else (a - b) % self.p

    def mul(self, a, b):
        return a * b if self.p is None else (a * b) % self.p

    def neg(self, a):
        return -a if self.p is None else (-a) % self.p

    def inv(self, a):
        if not a:
            raise ZeroDivisionError(f"division by zero in {self}")
        return 1 / Fraction(a) if self.p is None else pow(a, -1, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def format(self, a) -> str:
        # Q: "n" or "n/d" in lowest terms with d > 0; F_p: least residue.
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


class Matrix:
    """Dense exact matrix; entries are a row-major tuple of field scalars.

    Instances are immutable, so the reduced row echelon form, which is
    unique, is computed once and cached.
    """

    __slots__ = ("field", "rows", "cols", "entries", "_rref")

    def __init__(self, field: Field, rows: int, cols: int, entries: Sequence):
        if rows < 0 or cols < 0:
            raise ValueError(f"negative matrix shape {rows}x{cols}")
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match shape")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", tuple(entries))
        object.__setattr__(self, "_rref", None)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "Matrix":
        return cls(field, rows, cols, [field.zero] * (rows * cols))

    @classmethod
    def from_entries(cls, field: Field, rows: int, cols: int, triplets: Iterable) -> "Matrix":
        """A rows x cols matrix from (i, j, value) triplets of field scalars;
        absent entries are zero and each (i, j) is given at most once."""
        ent = [field.zero] * (rows * cols)
        for i, j, v in triplets:
            if not (0 <= i < rows and 0 <= j < cols):
                raise IndexError((i, j))
            ent[i * cols + j] = v
        return cls(field, rows, cols, ent)

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        zero, one = field.zero, field.one
        ent = [zero] * (n * n)
        for i in range(n):
            ent[i * n + i] = one
        return cls(field, n, n, ent)

    @classmethod
    def from_rows(cls, field: Field, rows: Iterable[Iterable]) -> "Matrix":
        data = [[field.of(e) for e in row] for row in rows]
        ncols = len(data[0]) if data else 0
        if any(len(row) != ncols for row in data):
            raise ValueError("ragged rows")
        return cls(field, len(data), ncols, [e for row in data for e in row])

    @classmethod
    def column(cls, field: Field, values: Iterable) -> "Matrix":
        vals = [field.of(v) for v in values]
        return cls(field, len(vals), 1, vals)

    # -- access -------------------------------------------------------

    def __getitem__(self, key: tuple[int, int]):
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(key)
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> list:
        return list(self.entries[i * self.cols : (i + 1) * self.cols])

    def col(self, j: int) -> list:
        return list(self.entries[j :: self.cols]) if self.cols else []

    def is_zero(self) -> bool:
        return not any(self.entries)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
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

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_compatible(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in add")
        p = self.field.p
        if p is None:
            ent = [a + b for a, b in zip(self.entries, other.entries)]
        else:
            ent = [(a + b) % p for a, b in zip(self.entries, other.entries)]
        return Matrix(self.field, self.rows, self.cols, ent)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_compatible(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in sub")
        p = self.field.p
        if p is None:
            ent = [a - b for a, b in zip(self.entries, other.entries)]
        else:
            ent = [(a - b) % p for a, b in zip(self.entries, other.entries)]
        return Matrix(self.field, self.rows, self.cols, ent)

    def scale(self, scalar) -> "Matrix":
        s = self.field.of(scalar)
        p = self.field.p
        ent = [s * a for a in self.entries] if p is None else [(s * a) % p for a in self.entries]
        return Matrix(self.field, self.rows, self.cols, ent)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._check_compatible(other)
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch in matmul: {self.cols} vs {other.rows}")
        m, n, q = self.rows, self.cols, other.cols
        p = self.field.p
        out = [self.field.zero] * (m * q)
        a, b = self.entries, other.entries
        for i in range(m):
            ai = i * n
            oi = i * q
            for k in range(n):
                aik = a[ai + k]
                if not aik:
                    continue
                bk = k * q
                if p is None:
                    for j in range(q):
                        v = b[bk + j]
                        if v:
                            out[oi + j] += aik * v
                else:
                    for j in range(q):
                        v = b[bk + j]
                        if v:
                            out[oi + j] = (out[oi + j] + aik * v) % p
        return Matrix(self.field, m, q, out)

    def transpose(self) -> "Matrix":
        ent = [self.entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)]
        return Matrix(self.field, self.cols, self.rows, ent)

    def hstack(self, *others: "Matrix") -> "Matrix":
        """self and others side by side, in order."""
        for other in others:
            self._check_compatible(other)
            if self.rows != other.rows:
                raise ValueError("row count mismatch in hstack")
        mats = (self,) + others
        ent = []
        for i in range(self.rows):
            for m in mats:
                ent.extend(m.entries[i * m.cols : (i + 1) * m.cols])
        return Matrix(self.field, self.rows, sum(m.cols for m in mats), ent)

    def take_cols(self, cols: Sequence[int]) -> "Matrix":
        """The columns of self with the given indices, in the given order."""
        n = self.cols
        if any(not 0 <= j < n for j in cols):
            raise IndexError(f"column index out of range for {n} columns")
        ent = [self.entries[i * n + j] for i in range(self.rows) for j in cols]
        return Matrix(self.field, self.rows, len(cols), ent)

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product; row (i,k) and column (j,l) with i, j major."""
        self._check_compatible(other)
        m, n = self.rows, self.cols
        r, c = other.rows, other.cols
        fmul = self.field.mul
        out = [self.field.zero] * (m * r * n * c)
        for i in range(m):
            for j in range(n):
                a = self.entries[i * n + j]
                if not a:
                    continue
                for k in range(r):
                    base = (i * r + k) * (n * c) + j * c
                    orow = other.entries[k * c : (k + 1) * c]
                    for l, b in enumerate(orow):
                        if b:
                            out[base + l] = fmul(a, b)
        return Matrix(self.field, m * r, n * c, out)

    # -- elimination ---------------------------------------------------

    def rref(self) -> RrefResult:
        cached = self._rref
        if cached is not None:
            return cached
        nrows, ncols = self.rows, self.cols
        p = self.field.p
        order, pivots = _echelon((self.row(i) for i in range(nrows)), p)
        # back substitution: clear each pivot column above its pivot, last
        # pivot first, so every row used is already fully reduced
        for k in range(len(order) - 1, 0, -1):
            pc = order[k]
            above = [pivots[r] for r in order[:k] if pivots[r][pc]]
            if above:
                prow = pivots[pc]
                support = [j for j in range(pc, ncols) if prow[j]]
                for row in above:
                    _eliminate(row, row[pc], prow, support, p)
        # the entries go straight into one tuple, and each pivot row is
        # released once copied: a list of them and its tuple copy, both
        # alive at once, set the peak memory of a large rational solve
        rows = chain.from_iterable(pivots.pop(pc) for pc in order)
        zeros = repeat(self.field.zero, (nrows - len(order)) * ncols)
        reduced = Matrix(self.field, nrows, ncols, tuple(chain(rows, zeros)))
        # reduced does not cache result: that would be a reference cycle,
        # which keeps the whole reduced matrix alive until the next full
        # garbage collection
        result = RrefResult(reduced, len(order), tuple(order))
        object.__setattr__(self, "_rref", result)
        return result

    def rank(self) -> int:
        return self.rref().rank

    def solve_many(self, b: "Matrix") -> Optional["Matrix"]:
        """Columnwise solve of self @ X = B with free variables set to zero;
        None if any column is inconsistent."""
        self._check_compatible(b)
        if b.rows != self.rows:
            raise ValueError(f"dimension mismatch: {self.rows} equations vs {b.rows} rhs rows")
        n = self.cols
        aug = self.hstack(b).rref()
        if any(pc >= n for pc in aug.pivot_cols):
            return None
        red, k, width = aug.reduced.entries, b.cols, n + b.cols
        # row pc of the solution is the right-hand part of reduced row r
        ent = [self.field.zero] * (n * k)
        for r, pc in enumerate(aug.pivot_cols):
            ent[pc * k : (pc + 1) * k] = red[r * width + n : (r + 1) * width]
        return Matrix(self.field, n, k, ent)

    def kernel_basis(self) -> "Matrix":
        """Columns span ker(self): the standard free-variable basis from rref."""
        res = self.rref()
        red = res.reduced
        pivot_set = set(res.pivot_cols)
        free = [j for j in range(self.cols) if j not in pivot_set]
        ent = [self.field.zero] * (self.cols * len(free))
        neg = self.field.neg
        for k, fc in enumerate(free):
            ent[fc * len(free) + k] = self.field.one
            for r, pc in enumerate(res.pivot_cols):
                v = red.entries[r * red.cols + fc]
                if v:
                    ent[pc * len(free) + k] = neg(v)
        return Matrix(self.field, self.cols, len(free), ent)

    def to_json(self) -> list[str]:
        return [self.field.format(e) for e in self.entries]

    @classmethod
    def from_json(cls, field: Field, rows: int, cols: int, texts: Sequence[str]) -> "Matrix":
        if not isinstance(texts, list):
            raise ValueError("matrix entries must be a JSON array")
        if len(texts) != rows * cols:
            raise ValueError("matrix entry count does not match declared shape")
        return cls(field, rows, cols, [field.of_text(t) for t in texts])


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


class _SparseRows:
    """A matrix kept as its rows of nonzero entries, one {column: value}
    dict per row; the bar complex's differentials and cochain maps are
    almost all zeros. The rows are never changed after construction, and
    dense() builds the Matrix once, for the rref, solve and kernel that
    still need it.
    """

    __slots__ = ("field", "ncols", "rows", "_dense")

    def __init__(self, field: Field, ncols: int, rows: list[dict]):
        self.field = field
        self.ncols = ncols
        self.rows = rows
        self._dense: Optional[Matrix] = None

    def dense(self) -> Matrix:
        if self._dense is None:
            n = self.ncols
            ent = [self.field.zero] * (len(self.rows) * n)
            for i, row in enumerate(self.rows):
                base = i * n
                for j, v in row.items():
                    ent[base + j] = v
            self._dense = Matrix(self.field, len(self.rows), n, ent)
        return self._dense

    def is_zero(self) -> bool:
        return not any(self.rows)

    def __matmul__(self, other):
        """The exact product: sparse rows for a _SparseRows factor, a dense
        Matrix for a Matrix factor."""
        p = self.field.p
        if isinstance(other, _SparseRows):
            if self.ncols != len(other.rows):
                raise ValueError(f"shape mismatch in matmul: {self.ncols} vs {len(other.rows)}")
            brows = other.rows
            out = []
            for row in self.rows:
                acc: dict = {}
                for k, a in row.items():
                    for j, b in brows[k].items():
                        acc[j] = acc.get(j, 0) + a * b
                if p is not None:
                    acc = {j: v % p for j, v in acc.items()}
                out.append({j: v for j, v in acc.items() if v})
            return _SparseRows(self.field, other.ncols, out)
        if other.field != self.field:
            raise ValueError(f"field mismatch: {self.field} vs {other.field}")
        if self.ncols != other.rows:
            raise ValueError(f"shape mismatch in matmul: {self.ncols} vs {other.rows}")
        q = other.cols
        b = other.entries
        ent = [self.field.zero] * (len(self.rows) * q)
        for i, row in enumerate(self.rows):
            oi = i * q
            for k, a in row.items():
                bk = k * q
                for j in range(q):
                    v = b[bk + j]
                    if v:
                        ent[oi + j] += a * v
        if p is not None:
            ent = [v % p for v in ent]
        return Matrix(self.field, len(self.rows), q, ent)


def _rank_mod(m: _SparseRows, p: int) -> Optional[int]:
    """Rank over F_p of m with every entry reduced mod the prime p; None
    when some entry's denominator is divisible by p. Over F_p itself this
    is the rank of m.

    A minor of the reduction is the reduction of the minor, so for a
    rational m the result never exceeds its rank over Q. Each residue row
    is built from the row's nonzeros and streamed through _echelon, in
    order of leading column: the rank does not depend on the order, and
    this one keeps the fill-in of the pivot rows low (on the 3125 x 625
    d^3 of Z_5 it took a third of the time of the stored order).
    """
    ncols = m.ncols

    def residues():
        for r in sorted(m.rows, key=lambda r: min(r, default=ncols)):
            row = [0] * ncols
            for j, e in r.items():
                row[j] = e.numerator * pow(e.denominator, -1, p) % p
            yield row

    try:
        order, _ = _echelon(residues(), p)
    except ValueError:  # from pow: p divides a denominator
        return None
    return len(order)

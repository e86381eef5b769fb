"""Hochschild-Mitchell cohomology via normalized cochains.

Degree-n cochains assign to every object tuple (x0, ..., xn) a linear map
hom(x1, x0) (x) ... (x) hom(xn, x(n-1)) -> M[x0][xn]; degree 0 is the
product of the diagonal components M[x][x]. A cochain is fixed by its
values on tuples of argument labels, one basis per hom space: the bar
complex takes every basis label; the normalized complex, the cochains
that vanish when any argument is an identity, drops each identity label
from hom(x, x). It is the one built whenever every 1_x is a single basis
label with coefficient 1 (linearize makes it so), and has the bar
complex's cohomology; reports still give the bar complex's dimensions and
ranks (see cohomology_dims). The differential is

  (d phi)(f1, ..., f(n+1)) = f1 . phi(f2, ..., f(n+1))
      + sum_i (-1)^i phi(..., fi . f(i+1), ...)
      + (-1)^(n+1) phi(f1, ..., fn) . f(n+1).

Basis order is fixed: object tuples lexicographically in object order,
input indices row-major, coefficient index fastest; this makes every
matrix in this module reproducible bit-for-bit. A tuple is enumerated
only while its hom spaces are nonzero, so building a cochain space costs
work in its nonzero hom chains, not in all |objects|^(n+1) tuples. Each
differential and cochain map is written column by column straight into
the nonzero rows of one Matrix, which the d . d = 0 check, the ranks, the
obstruction and the long exact sequence all read; a differential finds
each term's row by integer strides from its column's input index. The
long exact sequence of a short exact sequence of bimodules is walked as
one list of positions H^n(M), H^n(N), H^n(P), H^(n+1)(M), ...
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod
from typing import Optional

from .exactalg import Field, Matrix, RrefResult, _rank_mod
from .errors import BudgetExceededError, InternalCheckError
from .lincat import FinLinCat
from .cmod import Bimodule, BimoduleMap, ShortExactSeq, tensor_square, tensor_square_basis, kernel_of, validate_module

__all__ = [
    "DEFAULT_BUDGET",
    "CochainComplex",
    "CohomologyResult",
    "ObstructionResult",
    "LesReport",
    "build_hm_complex",
    "cohomology_dims",
    "obstruction_cocycle",
    "les_analysis",
]

DEFAULT_BUDGET = 20000


@dataclass
class _Slot:
    objs: tuple[str, ...]
    hom_dims: tuple[int, ...]
    mdim: int
    offset: int


@dataclass
class _DegreeSpace:
    dim: int
    bar_dim: int  # dim of the bar complex's space in this degree
    slots: list[_Slot]
    by_objs: dict[tuple[str, ...], _Slot]


class CochainComplex:
    """Cochain spaces C^0 .. C^(max_degree+1) and differentials
    d^0 .. d^max_degree, each a Matrix of its nonzero rows: normalized or
    bar, as build_hm_complex chose. dim(n) is the dimension of the space
    the differentials act on, bar_dim(n) that of the bar complex's C^n.

    Invariant: every adjacent pair of differentials has passed the exact
    check d^(n+1) . d^n = 0 in build_hm_complex, so im d^(n-1) lies in
    ker d^n; cohomology_dims relies on it to certify ranks."""

    def __init__(self, cat: FinLinCat, coefficients: Bimodule, max_degree: int, spaces, diffs):
        self.cat = cat
        self.coefficients = coefficients
        self.max_degree = max_degree
        self.spaces: list[_DegreeSpace] = spaces
        self.diffs: list[Matrix] = diffs

    def space(self, n: int) -> _DegreeSpace:
        return self.spaces[n]

    def dim(self, n: int) -> int:
        return self.spaces[n].dim

    def bar_dim(self, n: int) -> int:
        return self.spaces[n].bar_dim


def _argument_bases(c: FinLinCat):
    """The argument labels of each hom space: hom_basis less each identity
    label when every 1_x is one basis label with coefficient 1 (the
    normalized complex), else hom_basis itself (the bar complex)."""
    bases = dict(c.hom_basis)
    for x in c.objects:
        ident = c.identity.get(x, ())
        if sum(1 for v in ident if v) != 1 or 1 not in ident:
            return c.hom_basis
        k = ident.index(1)
        bases[(x, x)] = bases[(x, x)][:k] + bases[(x, x)][k + 1 :]
    return bases


def _degree_space(c: FinLinCat, m: Bimodule, n: int, budget: int, bases) -> _DegreeSpace:
    """The degree-n cochains on the argument labels bases; budget bounds
    the bar complex's dimension, which is counted along the way."""
    slots: list[_Slot] = []
    by_objs = {}
    offset = bar = 0
    # object tuples grow lazily, in lexicographic order, along nonzero homs
    # only, with their argument dims and their number of bar inputs
    homs = {x: [(y, c.dim_hom(y, x), len(bases[(y, x)])) for y in c.objects] for x in c.objects}
    chains = (((x,), (), 1) for x in c.objects)
    for _ in range(n):
        chains = ((objs + (y,), dims + (a,), size * d) for objs, dims, size in chains for y, d, a in homs[objs[-1]] if d)
    for objs, hom_dims, bar_size in chains:
        mdim = m.dims[(objs[0], objs[n])]
        if mdim == 0:
            continue
        bar += mdim * bar_size
        if bar > budget:
            raise BudgetExceededError(
                f"cochain dimension at degree {n} exceeds the budget of {budget} columns"
            )
        if 0 in hom_dims:
            continue
        slot = _Slot(objs, hom_dims, mdim, offset)
        slots.append(slot)
        by_objs[objs] = slot
        offset += mdim * prod(hom_dims)
    return _DegreeSpace(offset, bar, slots, by_objs)


def _composites_by_result(c: FinLinCat, bases) -> dict:
    """{(x, w, y): {a: [(b_idx, b2_idx, gamma)]}}: the pairs of argument
    labels b in hom(w, x), b2 in hom(y, w) whose composite b . b2 has the
    nonzero coefficient gamma at argument a of hom(y, x), a field scalar:
    over Q an int when integral, as every stored rational is. A term at a
    label outside bases, a dropped identity, is left out: the cochains
    vanish there."""
    index: dict = {}
    # a basis index k of c.hom_basis[pair] as an argument index, or None
    args = {}
    for pair, labels in c.hom_basis.items():
        position = {b: a for a, b in enumerate(bases[pair])}
        args[pair] = [position.get(b) for b in labels]
    for x, w, y in product(c.objects, repeat=3):
        by_a: dict = {}
        arg = args[(y, x)]
        for b_idx, b in enumerate(bases[(w, x)]):
            for b2_idx, b2 in enumerate(bases[(y, w)]):
                for k, gamma in c.comp_terms(b, b2):
                    if arg[k] is not None:
                        by_a.setdefault(arg[k], []).append((b_idx, b2_idx, gamma))
        index[(x, w, y)] = by_a
    return index


class _Columns(dict):
    """The columns of the actions acts, times sign, by key, each built on
    its first read: column t of an action is row t of its transpose."""

    def __init__(self, acts: dict, sign: int):
        super().__init__()
        self.acts, self.sign = acts, sign

    def __missing__(self, key):
        cols = self.acts[key].transpose().row_terms
        cols = self[key] = cols if self.sign == 1 else [[(s, -v) for s, v in col] for col in cols]
        return cols


def _build_differential(
    c: FinLinCat, m: Bimodule, bases, composites: dict, src: _DegreeSpace, tgt: _DegreeSpace, n: int
) -> Matrix:
    """d^n on the cochains of the argument labels bases, column by column,
    with composites = _composites_by_result(c, bases) ({} will do for d^0,
    which has no merge terms). For a source slot every term's target row
    is an integer stride away from the column's flat input index f: the
    two actions land at off + f * stride + s, and merge i splits f into
    prefix, stored input a_i and suffix. Each column is summed with plain
    +, which adds integral rationals as the ints they are stored as, and
    each entry is reduced once: mod p, or over Q to its canonical form."""
    p = c.field.p
    last = -1 if n % 2 == 0 else 1  # (-1)^(n+1), the sign of the right action
    left, right = _Columns(m.left, 1), _Columns(m.right, last)
    rows: list[list] = [[] for _ in range(tgt.dim)]
    for slot in src.slots:
        objs, dims, mdim = slot.objs, slot.hom_dims, slot.mdim
        x0, xn = objs[0], objs[n]
        size = prod(dims)
        # (off, stride, action columns): f1 on the left, f(n+1) on the right
        actions = []
        for w in c.objects:
            ts = tgt.by_objs.get((w,) + objs)
            if ts is not None:
                step = size * ts.mdim
                actions += [(ts.offset + b * step, ts.mdim, left[(h, xn)]) for b, h in enumerate(bases[(x0, w)])]
            ts = tgt.by_objs.get(objs + (w,))
            if ts is not None:
                step = ts.hom_dims[n] * ts.mdim
                actions += [(ts.offset + b * ts.mdim, step, right[(h, x0)]) for b, h in enumerate(bases[(w, xn)])]
        # (off, suffix size, dims[i-1], merged size, terms by a_i) for merge i
        merges = []
        for i in range(1, n + 1):
            suffix = prod(dims[i:])
            for w in c.objects:
                ts = tgt.by_objs.get(objs[:i] + (w,) + objs[i:])
                if ts is None:
                    continue
                d2 = ts.hom_dims[i]
                by_a = composites[(objs[i - 1], w, objs[i])]
                terms = [
                    [((b * d2 + b2) * suffix * mdim, -g if i % 2 else g) for b, b2, g in by_a.get(a, ())]
                    for a in range(dims[i - 1])
                ]
                merges.append((ts.offset, suffix, dims[i - 1], ts.hom_dims[i - 1] * d2 * suffix, terms))
        col = slot.offset
        for f in range(size):
            for t in range(mdim):
                acc: dict = {}  # this column's entries, by row
                for off, stride, cols in actions:
                    base = off + f * stride
                    for s, v in cols[t]:
                        acc[base + s] = acc.get(base + s, 0) + v
                for off, suffix, d, merged, terms in merges:
                    q, low = divmod(f, suffix)
                    high, a = divmod(q, d)
                    base = off + (high * merged + low) * mdim + t
                    for step, g in terms[a]:
                        acc[base + step] = acc.get(base + step, 0) + g
                # columns come in increasing order, so each row stays sorted
                for r, v in acc.items():
                    if p is not None:
                        v %= p
                    elif type(v) is not int and v.denominator == 1:
                        v = v.numerator
                    if v:
                        rows[r].append((col, v))
                col += 1
    return Matrix._of_rows(c.field, src.dim, tuple(map(tuple, rows)))


def build_hm_complex(
    c: FinLinCat, m: Bimodule, max_degree: int, budget: int = DEFAULT_BUDGET
) -> CochainComplex:
    """Cochain spaces to degree max_degree + 1 and differentials to degree
    max_degree; raises BudgetExceededError when a bar complex's space
    outgrows budget columns and InternalCheckError when the exact product
    d^(n+1) . d^n of some adjacent pair is nonzero.

    When every identity 1_x is one basis label with coefficient 1, the
    complex built is the normalized one: the cochains that vanish when any
    argument is an identity. For a valid category and a valid bimodule M
    (1_x acts as the identity) they form a subcomplex of the bar complex
    whose inclusion is a quasi-isomorphism (Mac Lane, Homology, ch. X;
    for a poset it is the order complex, Gerstenhaber-Schack 1983), so it
    has the same cohomology. Otherwise the bar complex is built."""
    return _hm_complex(c, m, max_degree, budget, _argument_bases(c))


def _hm_complex(c: FinLinCat, m: Bimodule, max_degree: int, budget: int, bases) -> CochainComplex:
    """build_hm_complex on the cochains of the argument labels bases;
    c.hom_basis gives the bar complex."""
    if max_degree < 1:
        raise ValueError("max_degree must be at least 1")
    spaces = [_degree_space(c, m, n, budget, bases) for n in range(max_degree + 2)]
    composites = _composites_by_result(c, bases)
    diffs = [_build_differential(c, m, bases, composites, spaces[n], spaces[n + 1], n) for n in range(max_degree + 1)]
    for n in range(max_degree):
        if not (diffs[n + 1] @ diffs[n]).is_zero():
            raise InternalCheckError(f"d^{n + 1} . d^{n} is nonzero; differential construction is wrong")
    return CochainComplex(c, m, max_degree, spaces, diffs)


@dataclass
class DegreeData:
    n: int
    dim_cochain: int
    rank_d: int
    dim_h: int


@dataclass
class CohomologyResult:
    degrees: list[DegreeData]

    def dim_h(self, n: int) -> int:
        return self.degrees[n].dim_h


def cohomology_dims(complex: CochainComplex) -> CohomologyResult:
    """dim H^n = dim ker d^n - rank d^(n-1) for n up to max_degree.

    Every rank is first taken mod a prime, by streaming the nonzero rows
    of each block of d^n through the elimination; over F_p that is the
    rank itself.

    Over Q each rank r_n = rank d^n is sandwiched before any rref is
    taken. From below by rho_n, the rank of d^n mod the prime
    exactalg._PRIME (rho_n <= r_n). From above by the complex's invariant
    d . d = 0, checked exactly when the complex was built, which puts
    im d^(n-1) in ker d^n and im d^n in ker d^(n+1):
    r_n <= min(dim C^(n+1), dim C^n - r_(n-1), dim C^(n+1) - rho_(n+1)),
    with r_(n-1) already exact. When rho_n meets the upper bound it is r_n;
    otherwise (nonzero cohomology, or a denominator divisible by the prime)
    r_n comes from the rational rref of d^n.

    The report is in the bar complex's terms whichever complex was built:
    dim_cochain is dim C^n of the bar complex and rank_d is its rank
    R_n = dim C^n - dim H^n - R_(n-1), by rank-nullity, since a normalized
    complex has the bar complex's cohomology (see build_hm_complex; the
    bimodule must be valid). On a bar complex R_n is the rank computed.
    """
    p = complex.cat.field.p
    lower = [_rank_mod(d) for d in complex.diffs]
    out = []
    prev_rank = bar_rank = 0
    for n, rank in enumerate(lower):
        if p is None:
            upper = min(complex.dim(n + 1), complex.dim(n) - prev_rank)
            if n + 1 < len(lower) and lower[n + 1] is not None:
                upper = min(upper, complex.dim(n + 1) - lower[n + 1])
            if rank != upper:
                rank = complex.diffs[n].rank()
        dim_h = complex.dim(n) - rank - prev_rank
        bar_rank = complex.bar_dim(n) - dim_h - bar_rank
        out.append(DegreeData(n, complex.bar_dim(n), bar_rank, dim_h))
        prev_rank = rank
    return CohomologyResult(out)


@dataclass
class ObstructionResult:
    cocycle: Matrix
    is_coboundary: bool
    kernel: Bimodule
    complex: CochainComplex


def obstruction_cocycle(c: FinLinCat, budget: int = DEFAULT_BUDGET) -> ObstructionResult:
    """The splitting obstruction of comp: C (x) C -> C.

    Using the linear (not bimodule) section u -> u (x) 1 of comp, sigma is
    the 0-cochain of C (x) C with sigma_x = 1_x (x) 1_x, and d^0 sigma, the
    1-cochain f -> f . sigma - sigma . f, built by the same differential as
    every complex here, takes values in ker comp and is a cocycle there; it
    is a coboundary exactly when the category is separable. Its coordinates
    in ker comp are read through the inclusion's degree-1 cochain map. The
    cochain spaces of C (x) C share budget with those of ker comp. Both
    are bar complexes.
    """
    cxc, comp_map = tensor_square(c)
    ker, incl = kernel_of(comp_map)
    bases = c.hom_basis
    complex = _hm_complex(c, ker, 1, budget, bases)
    fld = c.field
    space0, space1 = (_degree_space(c, cxc, n, budget, bases) for n in (0, 1))
    sigma = [fld.zero] * space0.dim
    for slot in space0.slots:
        (x,) = slot.objs
        index = {b: i for i, b in enumerate(tensor_square_basis(c, x, x))}
        labels, ident = c.hom(x, x), c.identity[x]
        for (u, a), (v, b) in product(zip(labels, ident), repeat=2):
            sigma[slot.offset + index[(x, u, v)]] = fld.mul(a, b)
    value = _build_differential(c, cxc, bases, {}, space0, space1, 0) @ Matrix(fld, space0.dim, 1, sigma)
    cocycle = _cochain_map(fld, complex.space(1), space1, incl.blocks, 1)._coords(value)
    if cocycle is None:
        raise InternalCheckError("obstruction value escapes ker comp")
    if not (complex.diffs[1] @ cocycle).is_zero():
        raise InternalCheckError("obstruction cochain is not a cocycle")
    is_coboundary = complex.diffs[0].solve_many(cocycle) is not None
    return ObstructionResult(cocycle, is_coboundary, ker, complex)


@dataclass
class PositionRecord:
    position: str
    incoming_rank: int
    kernel_dim: int
    exact: bool


@dataclass
class LesDegreeDims:
    n: int
    dim_h_m: int
    dim_h_n: int
    dim_h_p: int


@dataclass
class LesReport:
    degrees: list[LesDegreeDims]
    connecting_ranks: list[int]
    positions: list[PositionRecord]

    @property
    def all_exact(self) -> bool:
        return all(rec.exact for rec in self.positions)


def _cochain_map(field: Field, sspace: _DegreeSpace, tspace: _DegreeSpace, blocks: dict, n: int) -> Matrix:
    """The degree-n cochain map between the spaces sspace and tspace of a
    bimodule map with the given blocks, applied slot by slot."""
    rows: list[list] = [[] for _ in range(tspace.dim)]
    for slot in sspace.slots:
        tslot = tspace.by_objs.get(slot.objs)
        if tslot is None:
            continue
        # column t of the block is row t of its transpose
        blk = blocks[(slot.objs[0], slot.objs[n])].transpose().row_terms
        # input index f, row-major over hom_dims, is shared by both slots
        for f in range(prod(slot.hom_dims)):
            for t in range(slot.mdim):
                col = slot.offset + f * slot.mdim + t
                for s, v in blk[t]:
                    rows[tslot.offset + f * tslot.mdim + s].append((col, v))
    return Matrix._of_rows(field, sspace.dim, tuple(map(tuple, rows)))


def _mod_image(cols: Matrix, image_rows: Optional[RrefResult]) -> Matrix:
    """The columns of cols as rows reduced modulo the column space of an
    image D, given the rref of D.transpose() (None for D = 0): with T =
    cols.transpose() and P, R that rref's pivot columns and nonzero rows,
    T - T[:, P] @ R. A row of it is zero exactly when its column of cols
    lies in the column space of D, since R is the identity at P; its rank
    is rank([D | cols]) - rank(D)."""
    t = cols.transpose()
    if image_rows is None or t.is_zero():
        return t
    r = Matrix._of_rows(t.field, t.cols, image_rows.reduced.row_terms[: image_rows.rank])
    return t - t.take_cols(image_rows.pivot_cols) @ r


def les_analysis(c: FinLinCat, ses: ShortExactSeq, max_degree: int, budget: int = DEFAULT_BUDGET) -> LesReport:
    """Verify the long exact cohomology sequence of a short exact sequence.

    M, N and P must be valid bimodules: the maps and their exactness are
    checked here, the modules are not (cli les checks those of a file).

    Walks the positions in order: position 3n + k is H^n of (M, N, P)[k]
    and maps to the next one by i, q or the connecting map delta. Each
    position takes its cocycles from the kernel basis of d^n and ranks its
    outgoing map modulo the next position's coboundaries (the last one
    modulo d_M^max_degree), reduced against the rref of that d^(n-1)
    transposed, computed once per position (see _mod_image); it is exact
    when the ranks count out and the incoming map followed by the outgoing
    one reduces to zero there.
    delta is the zig-zag through a section of each q block and a
    retraction of each i block (q is onto and i one-to-one on every
    component), confirmed by one product; another lift would move each
    value of delta by a coboundary only.
    """
    report = validate_module(c, ses)
    if not report.ok:
        raise ValueError("input sequence is not short exact: " + "; ".join(report.violations[:3]))
    complexes = [build_hm_complex(c, mod, max_degree, budget) for mod in (ses.m, ses.n, ses.p)]
    cm, cn, cp = complexes

    def right_inverse(blk: Matrix, message: str) -> Matrix:
        x = blk.solve_many(Matrix.identity(c.field, blk.rows))
        if x is None:
            raise InternalCheckError(message)
        return x

    sections = {key: right_inverse(b, "cochain-level surjectivity of q failed") for key, b in ses.q.blocks.items()}
    retractions = {
        key: right_inverse(b.transpose(), "cochain-level injectivity of i failed").transpose()
        for key, b in ses.i.blocks.items()
    }
    fld = c.field
    imaps = [_cochain_map(fld, cm.space(n), cn.space(n), ses.i.blocks, n) for n in range(max_degree + 2)]
    qmaps = [_cochain_map(fld, cn.space(n), cp.space(n), ses.q.blocks, n) for n in range(max_degree + 1)]
    lifts = [_cochain_map(fld, cp.space(n), cn.space(n), sections, n) for n in range(max_degree + 1)]
    pulls = [_cochain_map(fld, cn.space(n + 1), cm.space(n + 1), retractions, n + 1) for n in range(max_degree + 1)]

    def delta(n: int, z: Matrix) -> Matrix:
        v = cn.diffs[n] @ (lifts[n] @ z)
        u = pulls[n] @ v
        if imaps[n + 1] @ u != v:
            raise InternalCheckError("connecting lift escapes the image of i")
        return u

    outgoing = (lambda n, z: imaps[n] @ z, lambda n, z: qmaps[n] @ z, delta)

    positions, dims, ranks = [], [], []
    incoming, incoming_cols = 0, None
    for j in range(3 * (max_degree + 1)):
        n, k = divmod(j, 3)
        diffs = complexes[k].diffs
        cocycles = diffs[n].kernel_basis()
        dims.append(cocycles.cols - (diffs[n - 1].rank() if n else 0))
        # the next position's coboundaries, as the rref of d^(n-1) transposed
        n1, k1 = divmod(j + 1, 3)
        image_rows = complexes[k1].diffs[n1 - 1].transpose().rref() if n1 else None
        out_cols = outgoing[k](n, cocycles)
        ranks.append(_mod_image(out_cols, image_rows).rank())
        composite_zero = incoming_cols is None or _mod_image(outgoing[k](n, incoming_cols), image_rows).is_zero()
        kernel_dim = dims[j] - ranks[j]
        positions.append(
            PositionRecord(f"H{n}({'MNP'[k]})", incoming, kernel_dim, composite_zero and incoming == kernel_dim)
        )
        incoming, incoming_cols = ranks[j], out_cols
    degrees = [LesDegreeDims(n, *dims[3 * n : 3 * n + 3]) for n in range(max_degree + 1)]
    return LesReport(degrees, ranks[2::3], positions)

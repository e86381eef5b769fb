"""Hochschild-Mitchell cohomology via the (non-normalized) bar cochain complex.

Degree-n cochains assign to every object tuple (x0, ..., xn) a linear map
hom(x1, x0) (x) ... (x) hom(xn, x(n-1)) -> M[x0][xn]; degree 0 is the
product of the diagonal components M[x][x]. The differential is

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

from .exactalg import Matrix, RrefResult, _rank_mod
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
    slots: list[_Slot]
    by_objs: dict[tuple[str, ...], _Slot]


class CochainComplex:
    """Bar cochain spaces C^0 .. C^(max_degree+1) and differentials
    d^0 .. d^max_degree, each a Matrix of its nonzero rows.

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


def _degree_space(c: FinLinCat, m: Bimodule, n: int, budget: int) -> _DegreeSpace:
    slots: list[_Slot] = []
    by_objs = {}
    offset = 0
    # object tuples grow lazily, in lexicographic order, along nonzero homs only
    homs = {x: [(y, c.dim_hom(y, x)) for y in c.objects] for x in c.objects}
    chains = (((x,), ()) for x in c.objects)
    for _ in range(n):
        chains = ((objs + (y,), dims + (d,)) for objs, dims in chains for y, d in homs[objs[-1]] if d)
    for objs, hom_dims in chains:
        mdim = m.dims[(objs[0], objs[n])]
        if mdim == 0:
            continue
        slot = _Slot(objs, hom_dims, mdim, offset)
        slots.append(slot)
        by_objs[objs] = slot
        offset += mdim * prod(hom_dims)
        if offset > budget:
            raise BudgetExceededError(
                f"cochain dimension at degree {n} exceeds the budget of {budget} columns"
            )
    return _DegreeSpace(offset, slots, by_objs)


def _composites_by_result(c: FinLinCat) -> dict:
    """{(x, w, y): {k: [(b_idx, b2_idx, gamma)]}}: the pairs of basis
    morphisms b in hom(w, x), b2 in hom(y, w) whose composite b . b2 has
    the nonzero coefficient gamma at basis element k of hom(y, x), a field
    scalar: over Q an int when integral, as every stored rational is."""
    index: dict = {}
    for x, w, y in product(c.objects, repeat=3):
        by_k: dict = {}
        for b_idx, b in enumerate(c.hom(w, x)):
            for b2_idx, b2 in enumerate(c.hom(y, w)):
                for k, gamma in c.comp_terms(b, b2):
                    by_k.setdefault(k, []).append((b_idx, b2_idx, gamma))
        index[(x, w, y)] = by_k
    return index


def _build_differential(c: FinLinCat, m: Bimodule, src: _DegreeSpace, tgt: _DegreeSpace, n: int) -> Matrix:
    """d^n, column by column. For a source slot every term's target row
    is an integer stride away from the column's flat input index f: the
    two actions land at off + f * stride + s, and merge i splits f into
    prefix, stored input a_i and suffix. Each column is summed with plain
    +, which adds integral rationals as the ints they are stored as, and
    each entry is reduced once: mod p, or over Q to its canonical form."""
    p = c.field.p
    last = -1 if n % 2 == 0 else 1  # (-1)^(n+1), the sign of the right action
    # column t of an action is row t of its transpose
    left = {key: act.transpose().row_terms for key, act in m.left.items()}
    right = {
        key: [[(s, last * v) for s, v in col] for col in act.transpose().row_terms]
        for key, act in m.right.items()
    }
    composites = _composites_by_result(c)
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
                actions += [(ts.offset + b * step, ts.mdim, left[(h, xn)]) for b, h in enumerate(c.hom(x0, w))]
            ts = tgt.by_objs.get(objs + (w,))
            if ts is not None:
                step = ts.hom_dims[n] * ts.mdim
                actions += [(ts.offset + b * ts.mdim, step, right[(h, x0)]) for b, h in enumerate(c.hom(w, xn))]
        # (off, suffix size, dims[i-1], merged size, terms by a_i) for merge i
        merges = []
        for i in range(1, n + 1):
            suffix = prod(dims[i:])
            for w in c.objects:
                ts = tgt.by_objs.get(objs[:i] + (w,) + objs[i:])
                if ts is None:
                    continue
                d2 = ts.hom_dims[i]
                by_k = composites[(objs[i - 1], w, objs[i])]
                terms = [
                    [((b * d2 + b2) * suffix * mdim, -g if i % 2 else g) for b, b2, g in by_k.get(a, ())]
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
    max_degree; raises BudgetExceededError when a space outgrows budget
    and InternalCheckError when the exact product d^(n+1) . d^n of some
    adjacent pair is nonzero."""
    if max_degree < 1:
        raise ValueError("max_degree must be at least 1")
    spaces = [_degree_space(c, m, n, budget) for n in range(max_degree + 2)]
    diffs = [_build_differential(c, m, spaces[n], spaces[n + 1], n) for n in range(max_degree + 1)]
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
    """
    p = complex.cat.field.p
    lower = [_rank_mod(d) for d in complex.diffs]
    out = []
    prev_rank = 0
    for n, rank in enumerate(lower):
        if p is None:
            upper = min(complex.dim(n + 1), complex.dim(n) - prev_rank)
            if n + 1 < len(lower) and lower[n + 1] is not None:
                upper = min(upper, complex.dim(n + 1) - lower[n + 1])
            if rank != upper:
                rank = complex.diffs[n].rank()
        dim_ker = complex.dim(n) - rank
        out.append(DegreeData(n, complex.dim(n), rank, dim_ker - prev_rank))
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

    Using the linear (not bimodule) section u -> u (x) 1 of comp, the
    1-cochain f -> f . sigma - sigma . f takes values in ker comp and is a
    cocycle; it is a coboundary exactly when the category is separable.
    """
    cxc, comp_map = tensor_square(c)
    ker, incl = kernel_of(comp_map)
    complex = build_hm_complex(c, ker, 1, budget)
    fld = c.field
    # sigma_x = section(1_x) in the (x, x) component of C (x) C
    sigma = {}
    for x in c.objects:
        basis = tensor_square_basis(c, x, x)
        index = {b: i for i, b in enumerate(basis)}
        vec = [fld.zero] * len(basis)
        labels = c.hom(x, x)
        ident = c.identity[x]
        for s, coeff_u in enumerate(ident):
            if not coeff_u:
                continue
            for t, coeff_v in enumerate(ident):
                if coeff_v:
                    i = index[(x, labels[s], labels[t])]
                    vec[i] = fld.add(vec[i], fld.mul(coeff_u, coeff_v))
        sigma[x] = Matrix(fld, len(basis), 1, vec)
    values = [fld.zero] * complex.dim(1)
    for slot in complex.space(1).slots:
        x0, x1 = slot.objs
        for b_idx, b in enumerate(c.hom(x1, x0)):
            value = cxc.left[(b, x1)] @ sigma[x1] - cxc.right[(b, x0)] @ sigma[x0]
            if not (comp_map.blocks[(x0, x1)] @ value).is_zero():
                raise InternalCheckError("obstruction value escapes ker comp")
            coords = incl.blocks[(x0, x1)]._coords(value)
            if coords is None:
                raise InternalCheckError("obstruction value has no kernel coordinates")
            for s, v in enumerate(coords.col(0)):
                values[slot.offset + b_idx * slot.mdim + s] = v
    cocycle = Matrix(fld, len(values), 1, values)
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


def _cochain_map(src: CochainComplex, tgt: CochainComplex, blocks: dict, n: int) -> Matrix:
    sspace, tspace = src.space(n), tgt.space(n)
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
    return Matrix._of_rows(src.cat.field, sspace.dim, tuple(map(tuple, rows)))


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
    imaps = [_cochain_map(cm, cn, ses.i.blocks, n) for n in range(max_degree + 2)]
    qmaps = [_cochain_map(cn, cp, ses.q.blocks, n) for n in range(max_degree + 1)]
    lifts = [_cochain_map(cp, cn, sections, n) for n in range(max_degree + 1)]
    pulls = [_cochain_map(cn, cm, retractions, n + 1) for n in range(max_degree + 1)]

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

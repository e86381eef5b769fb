"""Separability of a finite K-linear category, decided by linear feasibility.

A separability family assigns to every ordered object pair (x, y) an
element a[x][y] of hom(y, x) (x) hom(x, y), stored as its coefficient
matrix A[x][y] of shape dim hom(y, x) by dim hom(x, y). The defining
conditions are linear:

  unit:          sum over y of comp(a[x][y]) equals the identity of x;
  equivariance:  f . a[x][y] = a[z][y] . f for every basis f in hom(x, z),

so existence is exactly the feasibility of one linear system, and a
certificate is verified by evaluating both conditions entrywise. In a
valid category the f satisfying equivariance include the identities and
are closed under composition and sums, so generators suffice: the
f in lincat.generating_labels.

The trace form T(a, b) = Tr(L_ab) of the total algebra A (the sum of all
hom spaces, composing where composable) pairs hom(y, x) only with
hom(x, y). When T is nondegenerate its Casimir element sum_i b_i (x) b_i*,
b_i* the T-dual basis, is a family: T(a, 1) = T(a, sum_i b_i b_i*) gives
the unit condition and the associativity of T equivariance (DeMeyer and
Ingraham, Separable Algebras over Commutative Rings, LNM 181, ch. II).
Over Q, or F_p with p > dim A, a degenerate T means C is not separable
(Dickson). Two families differ by a bimodule map A -> ker comp, so for a
separable C they form an affine space of dimension sum_x dim End(x) -
dim Z(C): A^e is semisimple and Hom_{A^e}(A, A (x)_E A) has dimension
sum_x dim 1_x A 1_x. dim Z(C) is the nullity of a small center system, one
unknown per endomorphism label. solve_separability returns the Casimir
element whenever T is nondegenerate, so the family it gives does not
depend on how the objects and hom bases are ordered, returns None where T
is degenerate and Dickson's criterion applies, and builds the
separability system only for the rest.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import accumulate
from typing import Optional

from .errors import InternalCheckError
from .exactalg import Field, Matrix, _pack
from .lincat import FinLinCat, FiniteCatPresentation, generating_labels
from .cmod import LeftModule, _blocks_from_vector, _post_rows, _pre_rows, comp_matrix, post_mul_matrix, pre_mul_matrix

__all__ = [
    "SeparabilityFamily",
    "FamilyCheck",
    "EIVerdict",
    "SectionResult",
    "ZelinskyReport",
    "separability_system",
    "solve_separability",
    "verify_family",
    "rank_factor",
    "reduce_family",
    "ei_predict",
    "module_section",
    "zelinsky_report",
]


@dataclass
class SeparabilityFamily:
    """Coefficient matrices A[x][y], absent pairs zero: all that is read of
    a family. reduce_family adds terms[(x, y)], an optional minimal
    decomposition into rank-many (u, v) coefficient-vector pairs with the
    v's linearly independent."""

    blocks: dict[tuple[str, str], Matrix]
    terms: Optional[dict[tuple[str, str], list[tuple[tuple, tuple]]]] = None

    def block(self, c: FinLinCat, x: str, y: str) -> Matrix:
        blk = self.blocks.get((x, y))
        if blk is None:
            return Matrix.zeros(c.field, c.dim_hom(y, x), c.dim_hom(x, y))
        return blk

    def support(self, c: FinLinCat, x: str) -> list[str]:
        return [y for y in c.objects if not self.block(c, x, y).is_zero()]


@dataclass
class FamilyCheck:
    ok: bool
    unit_residuals: dict[str, tuple] = dc_field(default_factory=dict)
    equivariance_residuals: dict[tuple[str, str], Matrix] = dc_field(default_factory=dict)

    @property
    def unit_witnesses(self) -> list[str]:
        return sorted(self.unit_residuals)

    @property
    def equivariance_witnesses(self) -> list[tuple[str, str]]:
        return sorted(self.equivariance_residuals)


def _block_layout(c: FinLinCat) -> tuple[dict[tuple[str, str], int], int]:
    """(offsets, total): the unknowns of A[x][y] start at offsets[(x, y)],
    pairs in object order, total unknowns in all. Taken over y in object
    order, the unknowns of A[x][y] are the basis of the (x, x) component of
    C (x) C in tensor_square_basis(c, x, x) order, so they start at
    offsets[(x, c.objects[0])]."""
    offsets = {}
    total = 0
    for x in c.objects:
        for y in c.objects:
            offsets[(x, y)] = total
            total += c.dim_hom(y, x) * c.dim_hom(x, y)
    return offsets, total


def separability_system(c: FinLinCat) -> tuple[Matrix, Matrix, dict[tuple[str, str], int]]:
    """The linear system over the unknown entries of all A[x][y].

    Returns (coefficient matrix, right-hand side, block offsets); the
    unknown for entry (i, t) of A[x][y] sits at offset[(x,y)] + i*n + t
    with n = dim hom(x, y). c must be a valid category: equivariance rows for
    generating_labels(c) span those for every label (module docstring).

    The unit rows for x are comp_matrix(c, x, x) shifted to the unknowns of
    the (x, x) component of C (x) C. The equivariance rows for f: x -> z
    and y are f . A[x][y] - A[z][y] . f, one per entry (s, t) of
    hom(y, z) x hom(x, y): post_mul_matrix(c, f, y) (x) 1 on A[x][y] less
    1 (x) pre_mul_matrix(c, f, y) on A[z][y], written by _post_rows and
    _pre_rows and subtracted as matrices; rows that vanish are dropped.
    """
    fld = c.field
    offsets, total = _block_layout(c)

    def rows_of(shifted: list) -> Matrix:
        return Matrix._of_rows(fld, total, tuple(shifted))

    rows: list[tuple] = []
    rhs: list = []
    for x in c.objects:
        comp = comp_matrix(c, x, x)
        rows.extend(_pre_rows(comp.row_terms, offsets[(x, c.objects[0])], 1, comp.cols))
        rhs.extend(c.identity[x])
    for f in generating_labels(c):
        x, z, _ = c.label_info[f]
        for y in c.objects:
            post = rows_of(_post_rows(post_mul_matrix(c, f, y).row_terms, offsets[(x, y)], c.dim_hom(x, y)))
            pre = rows_of(_pre_rows(pre_mul_matrix(c, f, y).row_terms, offsets[(z, y)], c.dim_hom(y, z), c.dim_hom(z, y)))
            rows.extend(row for row in (post - pre).row_terms if row)
    rhs.extend([fld.zero] * (len(rows) - len(rhs)))  # equivariance is homogeneous
    return rows_of(rows), Matrix.column(fld, rhs), offsets


def family_from_vector(c: FinLinCat, vec: list, offsets: dict[tuple[str, str], int]) -> SeparabilityFamily:
    """The family whose block (x, y), dim hom(y, x) x dim hom(x, y), is read
    row-major from vec at offsets[(x, y)]; vec holds field scalars in
    canonical form, and zero blocks are left out."""
    rows = {(x, y): c.dim_hom(y, x) for x, y in offsets}
    cols = {(x, y): c.dim_hom(x, y) for x, y in offsets}
    blocks = _blocks_from_vector(c.field, cols, rows, vec, offsets)
    return SeparabilityFamily({xy: blk for xy, blk in blocks.items() if not blk.is_zero()})


def _trace_casimir(c: FinLinCat) -> Optional[SeparabilityFamily]:
    """The Casimir element of the trace form T (module docstring), or None
    when T is degenerate. Tr(L_k), for k in End(x), sums the coefficient of
    d in k.d over the labels d into x. T(u_i, v_t) for u in hom(y, x) and v
    in hom(x, y) is the Gram block G; the T-dual of u_i is row i of G^-1
    transposed, so A[x][y] = (G^-1)^T, and T is degenerate exactly when some
    G is not square or is singular. Empty blocks are left out."""
    fld = c.field
    blocks = {}
    for x in c.objects:
        into = [(d, c.label_info[d][2]) for w in c.objects for d in c.hom(w, x)]
        trace = [fld.zero] * c.dim_hom(x, x)
        for k, lab in enumerate(c.hom(x, x)):
            for d, i in into:
                trace[k] = fld.add(trace[k], dict(c.comp_terms(lab, d)).get(i, fld.zero))
        for y in c.objects:
            us, vs = c.hom(y, x), c.hom(x, y)
            if len(us) != len(vs):
                return None
            if not us:
                continue
            gram = [[sum(v * trace[k] for k, v in c.comp_terms(u, v_t)) for v_t in vs] for u in us]
            inverse = Matrix.from_rows(fld, gram).solve_many(Matrix.identity(fld, len(us)))
            if inverse is None:
                return None
            blocks[(x, y)] = inverse.transpose()
    return SeparabilityFamily(blocks)


def _center_freedom(c: FinLinCat) -> int:
    """sum_x dim End(x) - dim Z(C), the rank of the center system: z_x in
    End(x) has its unknowns from starts[x] on, and for f: x -> z in
    generating_labels(c) the rows f . z_x - z_z . f are post_mul_matrix(c,
    f, x) less pre_mul_matrix(c, f, z), each shifted to its object's
    unknowns by _pre_rows."""
    fld = c.field
    dims = [c.dim_hom(x, x) for x in c.objects]
    starts, total = dict(zip(c.objects, accumulate(dims, initial=0))), sum(dims)

    def shifted(m: Matrix, x: str) -> Matrix:
        return Matrix._of_rows(fld, total, tuple(_pre_rows(m.row_terms, starts[x], 1, m.cols)))

    rows: list[tuple] = []
    for f in generating_labels(c):
        x, z, _ = c.label_info[f]
        rows.extend((shifted(post_mul_matrix(c, f, x), x) - shifted(pre_mul_matrix(c, f, z), z)).row_terms)
    return Matrix._of_rows(fld, total, tuple(rows)).rank()


def _solve_system(c: FinLinCat) -> Optional[SeparabilityFamily]:
    """The separability system's family, free variables zeroed, or None when
    the system is infeasible."""
    mat, rhs, offsets = separability_system(c)
    solved = mat.solve_many(rhs)
    return None if solved is None else family_from_vector(c, solved.col(0), offsets)


def solve_separability(c: FinLinCat) -> Optional[SeparabilityFamily]:
    """One separability family, or None exactly when the category is not
    separable: the trace form's Casimir element where that form is
    nondegenerate, None where Dickson's criterion settles it, else the
    system's family with its free variables zeroed, so the output is
    reproducible (module docstring)."""
    fam = _trace_casimir(c)
    if fam is not None or c.field.p is None or c.field.p > c.total_dim():
        return fam
    return _solve_system(c)


def _is_separable(c: FinLinCat) -> bool:
    """solve_separability's verdict; InternalCheckError when the family it
    returns does not verify."""
    fam = solve_separability(c)
    if fam is not None and not verify_family(c, fam).ok:
        raise InternalCheckError("solver output fails verification")
    return fam is not None


def verify_family(c: FinLinCat, fam: SeparabilityFamily) -> FamilyCheck:
    """Evaluate the unit and equivariance conditions; exact zero residuals
    are required. Raises ValueError on block shape mismatch.

    c must be a valid category. Equivariance is tested on generating_labels(c),
    which suffices (module docstring); if it fails, every label is tested.
    Entry (s, t) of the residual of (f, y) is summed straight from
    comp_table and the blocks' row_terms, and a residual Matrix is built
    only where the sum is nonzero."""
    fld, table = c.field, c.comp_table
    for (x, y), blk in fam.blocks.items():
        if (blk.rows, blk.cols) != (c.dim_hom(y, x), c.dim_hom(x, y)):
            raise ValueError(f"block ({x},{y}) has shape {blk.rows}x{blk.cols}, expected {c.dim_hom(y, x)}x{c.dim_hom(x, y)}")
    check = FamilyCheck(ok=True)
    for x in c.objects:
        total = [fld.zero] * c.dim_hom(x, x)
        for y in c.objects:
            blk = fam.blocks.get((x, y))
            if blk is None:
                continue
            us = c.hom(y, x)
            vs = c.hom(x, y)
            for i, u in enumerate(us):
                for j, coeff in blk.row_terms[i]:
                    for t, w in c.comp_terms(u, vs[j]):
                        total[t] = fld.add(total[t], fld.mul(coeff, w))
        residual = tuple(fld.sub(a, b) for a, b in zip(total, c.identity[x]))
        if any(residual):
            check.unit_residuals[x] = residual

    def residuals(labels) -> dict[tuple[str, str], Matrix]:
        # f . A[x][y] - A[z][y] . f at (s, t), summed straight from the table and the blocks' rows:
        # (f . u_i)_s A[x][y]_it less A[z][y]_sj (v_j . f)_t
        found = {}
        for f in labels:
            x, z, _ = c.label_info[f]
            for y in c.objects:
                acc: list[dict] = [{} for _ in c.hom(y, z)]
                for u, row in zip(c.hom(y, x), fam.block(c, x, y).row_terms):
                    for s, w in table.get((f, u), ()):
                        for t, a in row:
                            acc[s][t] = acc[s].get(t, 0) + w * a
                vs = c.hom(z, y)
                for out, row in zip(acc, fam.block(c, z, y).row_terms):
                    for j, a in row:
                        for t, w in table.get((vs[j], f), ()):
                            out[t] = out.get(t, 0) - a * w
                residual = tuple(_pack(out, fld.p) for out in acc)
                if any(residual):
                    found[(f, y)] = Matrix._of_rows(fld, c.dim_hom(x, y), residual)
        return found

    if residuals(generating_labels(c)):
        check.equivariance_residuals = residuals(c.label_info)
    check.ok = not check.unit_residuals and not check.equivariance_residuals
    return check


def rank_factor(a: Matrix) -> list[tuple[tuple, tuple]]:
    """Minimal decomposition of a as a sum of rank-one terms col (x) row.

    Uses the CR factorization a = a[:, pivots] @ rref(a): the returned row
    vectors are the nonzero rref rows, hence linearly independent."""
    res = a.rref()
    terms = []
    for r, pc in enumerate(res.pivot_cols):
        col = tuple(a.col(pc))
        row = tuple(res.reduced.row(r))
        terms.append((col, row))
    return terms


def reduce_family(c: FinLinCat, fam: SeparabilityFamily) -> SeparabilityFamily:
    """The verified family with terms: each block as rank-many terms u (x) v,
    the v's linearly independent, recomposing to the block entrywise."""
    check = verify_family(c, fam)
    if not check.ok:
        raise ValueError("family does not verify; refusing to reduce")
    terms = {}
    for (x, y), blk in fam.blocks.items():
        if blk.is_zero():
            continue
        decomposition = rank_factor(blk)
        recomposed = Matrix.zeros(c.field, blk.rows, blk.cols)
        for (u, v) in decomposition:
            recomposed = recomposed + Matrix(c.field, blk.rows, 1, list(u)) @ Matrix(c.field, 1, blk.cols, list(v))
        if recomposed != blk:
            raise AssertionError("rank factorization failed to recompose")
        terms[(x, y)] = decomposition
    return SeparabilityFamily(dict(fam.blocks), terms)


@dataclass
class EIVerdict:
    separable: bool
    witness: Optional[tuple[str, str, int]] = None
    family: Optional[SeparabilityFamily] = None


def ei_predict(p: FiniteCatPresentation, k: Field) -> EIVerdict:
    """EI criterion. In an EI category, one whose endomorphisms are all
    invertible, k.C is separable exactly when C is a groupoid and every
    |Aut(x)| is invertible in k. Otherwise the non-isomorphisms span a
    nonzero nilpotent ideal: a composite with a non-isomorphism is one, and
    chains of non-isomorphisms are shorter than the number of objects (Lück,
    Transformation Groups and Algebraic K-Theory, LNM 1408, 1989; Webb,
    Standard stratifications of EI categories and Alperin's weight
    conjecture, J. Algebra 320, 2008). Groupoids and delta categories are
    EI; a presentation that is not raises ValueError.

    A groupoid's witness is (x, x, |Aut(x)|) for the first object x whose
    order is not invertible; a nonempty hom(x, y) has |Aut(x)| elements.
    The certificate averages g (x) g^{-1} over hom(y0, x) for one reference
    object y0 per connected component, its first object; restricting the
    support this way is what makes the unit condition sum to exactly 1_x.
    In a groupoid the component of x is the set of objects with a morphism
    into x. On a discrete category the certificate is a[x][x] = 1_x (x) 1_x.
    """
    singular = [f for f, g in p.inverse.items() if g is None]
    if any(p.morphisms[f][0] == p.morphisms[f][1] for f in singular):
        raise ValueError("presentation is not an EI category")
    if singular:
        return EIVerdict(separable=False)
    for x in p.objects:
        n = len(p.hom_set(x, x))
        if not k.of(n):
            return EIVerdict(separable=False, witness=(x, x, n))
    blocks = {}
    for x in p.objects:
        y0 = next(y for y in p.objects if p.hom_set(y, x))
        gs = p.hom_set(y0, x)
        hs = p.hom_set(x, y0)
        inv_weight = k.inv(k.of(len(hs)))
        blocks[(x, y0)] = Matrix.from_entries(
            k, len(gs), len(hs), ((i, hs.index(p.inverse[g]), inv_weight) for i, g in enumerate(gs))
        )
    return EIVerdict(separable=True, family=SeparabilityFamily(blocks))


@dataclass
class SectionResult:
    psi: dict[tuple[str, str], Matrix]
    section_ok: bool
    linear_ok: bool
    failures: list[str] = dc_field(default_factory=list)


def _tensor_identity(a: Matrix, n: int) -> Matrix:
    """a (x) 1_n, rows and columns (i, s) with i major."""
    return Matrix._of_rows(a.field, a.cols * n, tuple(_post_rows(a.row_terms, 0, n)))


def module_section(c: FinLinCat, fam: SeparabilityFamily, m: LeftModule) -> SectionResult:
    """The splitting section psi of the evaluation map (+) hom(y,x) (x) M[y] -> M[x].

    psi_x^y = (A[x][y] (x) 1) @ S, S the actions of the hom(x, y) basis
    stacked in order, is linear in the family, so any family gives it,
    reduced or not. A[x][y] (x) 1, like f (x) 1 in the commuting test, is
    written by _post_rows. The result records whether psi is a section
    (evaluation . psi = identity) and whether it commutes with the action
    of every basis morphism. c and m must be valid: psi commutes with 1_x by
    the unit laws, and with s.h when it does with s and h, so commuting is
    tested on generating_labels(c), and on every label if one fails."""
    fld = c.field
    psi: dict[tuple[str, str], Matrix] = {}
    for x in c.objects:
        for y in c.objects:
            stacked = Matrix._of_rows(fld, m.dims[x], tuple(row for v in c.hom(x, y) for row in m.action[v].row_terms))
            psi[(x, y)] = _tensor_identity(fam.block(c, x, y), m.dims[y]) @ stacked
    failures: list[str] = []
    for x in c.objects:
        total = Matrix.zeros(fld, m.dims[x], m.dims[x])
        for y in c.objects:
            labels = c.hom(y, x)
            if not labels or not m.dims[y]:
                continue
            # evaluation block: columns (a, b) -> action(u_a) applied to e_b
            ev = m.action[labels[0]].hstack(*(m.action[lab] for lab in labels[1:]))
            total = total + ev @ psi[(x, y)]
        if total != Matrix.identity(fld, m.dims[x]):
            failures.append(f"evaluation . psi is not the identity at object {x}")
    section_ok = not failures

    def noncommuting(labels) -> list[str]:
        found = []
        for f in labels:
            z, x, _ = c.label_info[f]
            for y in c.objects:
                lhs = psi[(x, y)] @ m.action[f]
                rhs = _tensor_identity(post_mul_matrix(c, f, y), m.dims[y]) @ psi[(z, y)]
                if lhs != rhs:
                    found.append(f"psi does not commute with {f} at y={y}")
        return found

    bad = noncommuting(generating_labels(c)) and noncommuting(c.label_info)  # every label on a failure
    failures.extend(bad)
    return SectionResult(psi=psi, section_ok=section_ok, linear_ok=not bad, failures=failures)


@dataclass
class PairEmbedding:
    x: str
    z: str
    hom_dim: int
    support: list[str]
    v_dims: list[tuple[str, int, int]]  # (y, dim V[y,x], dim V[y,z])
    bound: int
    injective: bool
    note: str = ""


@dataclass
class ZelinskyReport:
    pairs: list[PairEmbedding]

    @property
    def all_injective(self) -> bool:
        return all(rec.injective for rec in self.pairs)


def zelinsky_report(c: FinLinCat, fam: SeparabilityFamily) -> ZelinskyReport:
    """Locally-finite embedding check: left composition embeds hom(x, z) into
    the direct sum over the support of maps V[y,x] -> V[y,z], where V[y,x]
    is spanned by the left tensor factors of a[x][y], which is the column
    space of A[x][y] however a[x][y] is written as rank-one terms.

    V[y,x] is kept in reduced column echelon form, the transpose of the
    rref of A[x][y] transposed, so coordinates in it are read at its pivot
    rows. hom(x, z) embeds when the map phi, whose column for a basis
    morphism f lists the coordinates of f . V[y,x] in V[y,z] over y, has
    full column rank; phi is built transposed, one row per f."""
    fld = c.field
    vbasis: dict[tuple[str, str], tuple[Matrix, tuple[int, ...]]] = {}
    for x in c.objects:
        for y in c.objects:
            res = fam.block(c, x, y).transpose().rref()
            vbasis[(y, x)] = (res.reduced.transpose().take_cols(range(res.rank)), res.pivot_cols)
    records = []
    for x in c.objects:
        support = fam.support(c, x)
        for z in c.objects:
            hom_dim = c.dim_hom(x, z)
            v_dims = [(y, vbasis[(y, x)][0].cols, vbasis[(y, z)][0].cols) for y in support]
            bound = sum(a * b for (_, a, b) in v_dims)
            note = ""
            if hom_dim == 0:
                records.append(PairEmbedding(x, z, 0, support, v_dims, bound, True))
                continue
            phi_t = []  # (f, row of phi, value) triplets of phi transposed
            width = 0
            for y in support:
                vx, _ = vbasis[(y, x)]
                vz, pivots = vbasis[(y, z)]
                for t, f in enumerate(c.hom(x, z)):
                    coords = vz._coords(post_mul_matrix(c, f, y) @ vx, pivots)
                    if coords is None:
                        note = f"f.V[{y},{x}] is not contained in V[{y},{z}]"
                        continue
                    for r, row in enumerate(coords.row_terms):
                        phi_t.extend((t, width + r * vx.cols + j, v) for j, v in row)
                width += vz.cols * vx.cols
            if note:
                records.append(PairEmbedding(x, z, hom_dim, support, v_dims, bound, False, note))
                continue
            rank = Matrix.from_entries(fld, hom_dim, width, phi_t).rank()
            records.append(PairEmbedding(x, z, hom_dim, support, v_dims, bound, rank == hom_dim))
    return ZelinskyReport(records)

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
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from typing import Optional

from .exactalg import Field, Matrix
from .lincat import FinLinCat, FiniteCatPresentation, classify_presentation, generating_labels
from .cmod import LeftModule, comp_matrix, post_mul_matrix, pre_mul_matrix

__all__ = [
    "SeparabilityFamily",
    "FamilyCheck",
    "MaschkeVerdict",
    "DeltaVerdict",
    "SectionResult",
    "ZelinskyReport",
    "separability_system",
    "solve_separability",
    "verify_family",
    "rank_factor",
    "reduce_family",
    "maschke_predict",
    "delta_predict",
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
    """
    fld = c.field
    offsets, total = _block_layout(c)
    rows: list[dict] = []  # one {column: coefficient} per equation
    rhs: list = []
    # unit condition: comp on the (x, x) component of C (x) C, one scalar
    # equation per basis vector of hom(x, x)
    for x in c.objects:
        base = offsets[(x, c.objects[0])]
        rows.extend({base + j: v for j, v in row} for row in comp_matrix(c, x, x).row_terms)
        rhs.extend(c.identity[x])
    # equivariance, one scalar equation per entry of the (f, y) identity
    for f in generating_labels(c):
        x, z, _ = c.label_info[f]
        for y in c.objects:
            cf = post_mul_matrix(c, f, y).row_terms  # hom(y,x) -> hom(y,z)
            rf = pre_mul_matrix(c, f, y).row_terms  # hom(z,y) -> hom(x,y)
            n_xy = c.dim_hom(x, y)
            n_zy = c.dim_hom(z, y)
            base_x = offsets[(x, y)]
            base_z = offsets[(z, y)]
            for s in range(c.dim_hom(y, z)):
                for t in range(n_xy):
                    row: dict = {}
                    for i, coeff in cf[s]:
                        idx = base_x + i * n_xy + t
                        row[idx] = fld.add(row.get(idx, fld.zero), coeff)
                    for l, coeff in rf[t]:
                        idx = base_z + s * n_zy + l
                        row[idx] = fld.sub(row.get(idx, fld.zero), coeff)
                    if any(row.values()):
                        rows.append(row)
                        rhs.append(fld.zero)
    mat = Matrix.from_entries(fld, len(rows), total, ((i, j, v) for i, row in enumerate(rows) for j, v in row.items()))
    return mat, Matrix.column(fld, rhs), offsets


def family_from_vector(c: FinLinCat, vec: list, offsets: dict[tuple[str, str], int]) -> SeparabilityFamily:
    blocks = {}
    for (x, y), base in offsets.items():
        m, n = c.dim_hom(y, x), c.dim_hom(x, y)
        blk = Matrix(c.field, m, n, vec[base : base + m * n])
        if not blk.is_zero():
            blocks[(x, y)] = blk
    return SeparabilityFamily(blocks)


def _solve_with_freedom(c: FinLinCat) -> tuple[Optional[SeparabilityFamily], int]:
    """solve_separability's family together with the dimension of the
    system's solution space, from one build and one elimination: the rank
    of the system is the number of pivots of the augmented rref that fall
    before the right-hand-side column."""
    mat, rhs, offsets = separability_system(c)
    n = mat.cols
    aug = mat.hstack(rhs).rref()
    rank = sum(1 for pc in aug.pivot_cols if pc < n)
    if rank < aug.rank:
        return None, n - rank
    vec = [c.field.zero] * n
    for pc, red in zip(aug.pivot_cols, aug.reduced.row_terms):
        # the right-hand side, column n, can only be a row's last nonzero
        if red[-1][0] == n:
            vec[pc] = red[-1][1]
    return family_from_vector(c, vec, offsets), n - rank


def solve_separability(c: FinLinCat) -> Optional[SeparabilityFamily]:
    """One separability family, or None exactly when the category is not
    separable. Free variables are zeroed, so the output is reproducible."""
    return _solve_with_freedom(c)[0]


def verify_family(c: FinLinCat, fam: SeparabilityFamily) -> FamilyCheck:
    """Evaluate the unit and equivariance conditions; exact zero residuals
    are required. Raises ValueError on block shape mismatch.

    c must be a valid category. Equivariance is tested on generating_labels(c),
    which suffices (module docstring); if it fails, every label is tested."""
    fld = c.field
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
        found = {}
        for f in labels:
            x, z, _ = c.label_info[f]
            for y in c.objects:
                residual = post_mul_matrix(c, f, y) @ fam.block(c, x, y) - fam.block(c, z, y) @ pre_mul_matrix(c, f, y).transpose()
                if not residual.is_zero():
                    found[(f, y)] = residual
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
class MaschkeVerdict:
    separable: bool
    witness: Optional[tuple[str, str, int]] = None
    family: Optional[SeparabilityFamily] = None


def maschke_predict(p: FiniteCatPresentation, k: Field) -> MaschkeVerdict:
    """Groupoid criterion: separable iff every nonempty hom-set has
    cardinality invertible in k.

    The emitted certificate averages g (x) g^{-1} over hom(y0, x) for one
    reference object y0 per connected component, its first object;
    restricting the support this way is what makes the unit condition sum
    to exactly 1_x. In a groupoid the component of x is the set of objects
    with a morphism into x.
    """
    if not classify_presentation(p).is_groupoid:
        raise ValueError("presentation is not a groupoid")
    for x in p.objects:
        for y in p.objects:
            n = len(p.hom_set(x, y))
            if n and not k.of(n):
                return MaschkeVerdict(separable=False, witness=(x, y, n))
    blocks = {}
    for x in p.objects:
        y0 = next(y for y in p.objects if p.hom_set(y, x))
        gs = p.hom_set(y0, x)
        hs = p.hom_set(x, y0)
        inv_weight = k.inv(k.of(len(hs)))
        blocks[(x, y0)] = Matrix.from_entries(
            k, len(gs), len(hs), ((i, hs.index(p.find_inverse(g)), inv_weight) for i, g in enumerate(gs))
        )
    return MaschkeVerdict(separable=True, family=SeparabilityFamily(blocks))


@dataclass
class DeltaVerdict:
    separable: bool
    family: Optional[SeparabilityFamily] = None


def delta_predict(p: FiniteCatPresentation, k: Field = Field()) -> DeltaVerdict:
    """Delta-category criterion: separable iff the category is discrete;
    the discrete certificate is a[x][x] = 1_x (x) 1_x."""
    flags = classify_presentation(p)
    if not flags.is_delta:
        raise ValueError("presentation is not a delta category")
    if not flags.is_discrete:
        return DeltaVerdict(separable=False)
    blocks = {}
    for x in p.objects:
        blocks[(x, x)] = Matrix.from_rows(k, [[1]])
    return DeltaVerdict(separable=True, family=SeparabilityFamily(blocks))


@dataclass
class SectionResult:
    psi: dict[tuple[str, str], Matrix]
    section_ok: bool
    linear_ok: bool
    failures: list[str] = dc_field(default_factory=list)


def module_section(c: FinLinCat, fam: SeparabilityFamily, m: LeftModule) -> SectionResult:
    """The splitting section psi of the evaluation map (+) hom(y,x) (x) M[y] -> M[x].

    psi_x^y = (A[x][y] (x) 1) @ S, S the actions of the hom(x, y) basis
    stacked in order, is linear in the family, so any family gives it,
    reduced or not. The result records whether psi is a section
    (evaluation . psi = identity) and whether it commutes with the action
    of every basis morphism. c and m must be valid: psi commutes with 1_x by
    the unit laws, and with s.h when it does with s and h, so commuting is
    tested on generating_labels(c), and on every label if one fails."""
    fld = c.field
    psi: dict[tuple[str, str], Matrix] = {}
    for x in c.objects:
        for y in c.objects:
            stacked = Matrix._of_rows(fld, m.dims[x], tuple(row for v in c.hom(x, y) for row in m.action[v].row_terms))
            psi[(x, y)] = fam.block(c, x, y).kron(Matrix.identity(fld, m.dims[y])) @ stacked
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
                rhs = post_mul_matrix(c, f, y).kron(Matrix.identity(fld, m.dims[y])) @ psi[(z, y)]
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

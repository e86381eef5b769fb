"""Left modules and bimodules over a finite K-linear category.

Conventions (fixed package-wide): a left module is covariant, so a basis
morphism f in hom(x, y) acts M[x] -> M[y]. A bimodule M has components
M[x][y]; f in hom(x, x') acts on the left M[x][y] -> M[x'][y], and
g in hom(y', y) acts on the right M[x][y] -> M[x][y']. The canonical
bimodule is the category itself with component hom(y, x) at (x, y).
A structure matrix (post_mul_matrix, pre_mul_matrix, comp_matrix) is the
transpose of its columns, each a composite as comp_terms returns it.
A tensor with an identity, a (x) 1 or 1 (x) b, is written row by row from
the rows of a or b by _post_rows or _pre_rows; the actions of
representable bimodules and left modules, of their sums and of C (x) C,
the separability system's equivariance rows, the module section and the
cochain maps of sepcat.cohomology are all built that way.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache, partial
from itertools import accumulate
from typing import Union

from .errors import InternalCheckError
from .exactalg import Field, Matrix, _canonical, _nonzeros
from .lincat import FinLinCat, ValidationReport, generating_labels, opposite

__all__ = [
    "LeftModule",
    "Bimodule",
    "BimoduleMap",
    "ShortExactSeq",
    "post_mul_matrix",
    "pre_mul_matrix",
    "comp_matrix",
    "canonical_bimodule",
    "tensor_square",
    "tensor_square_basis",
    "kernel_of",
    "validate_module",
    "zero_bimodule",
    "representable_bimodule",
    "representable_left_module",
    "character_left_module",
    "random_bimodule",
    "random_left_module",
]


def post_mul_matrix(c: FinLinCat, f: str, y: str) -> Matrix:
    """Matrix of u -> f.u on hom(y, src f) -> hom(y, tgt f)."""
    x, z, _ = c.label_info[f]
    return Matrix._of_rows(c.field, c.dim_hom(y, z), tuple(c.comp_terms(f, u) for u in c.hom(y, x))).transpose()


def pre_mul_matrix(c: FinLinCat, g: str, y: str) -> Matrix:
    """Matrix of v -> v.g on hom(tgt g, y) -> hom(src g, y)."""
    x, z, _ = c.label_info[g]
    return Matrix._of_rows(c.field, c.dim_hom(x, y), tuple(c.comp_terms(v, g) for v in c.hom(z, y))).transpose()


def comp_matrix(c: FinLinCat, x: str, y: str) -> Matrix:
    """Matrix of u (x) v -> u.v on the (x, y) component of C (x) C, in
    tensor_square_basis order, onto hom(y, x)."""
    columns = tuple(c.comp_terms(u, v) for _, u, v in tensor_square_basis(c, x, y))
    return Matrix._of_rows(c.field, c.dim_hom(y, x), columns).transpose()


class LeftModule:
    """A covariant K-linear functor to vector spaces, as dimension data plus
    one action matrix per basis morphism."""

    def __init__(self, cat: FinLinCat, dims: dict[str, int], action: dict[str, Matrix]):
        self.cat = cat
        self.dims = {x: int(dims.get(x, 0)) for x in cat.objects}
        self.action = dict(action)

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LeftModule)
            and self.dims == other.dims
            and self.action == other.action
        )


class Bimodule:
    """Component spaces M[x][y] with commuting left and right actions."""

    def __init__(
        self,
        cat: FinLinCat,
        dims: dict[tuple[str, str], int],
        left: dict[tuple[str, str], Matrix],
        right: dict[tuple[str, str], Matrix],
    ):
        self.cat = cat
        self.dims = {(x, y): int(dims.get((x, y), 0)) for x in cat.objects for y in cat.objects}
        self.left = dict(left)
        self.right = dict(right)

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Bimodule)
            and self.dims == other.dims
            and self.left == other.left
            and self.right == other.right
        )


@dataclass
class BimoduleMap:
    """Componentwise linear maps commuting with both actions."""

    source: Bimodule
    target: Bimodule
    blocks: dict[tuple[str, str], Matrix]


@dataclass
class ShortExactSeq:
    m: Bimodule
    n: Bimodule
    p: Bimodule
    i: BimoduleMap
    q: BimoduleMap


def canonical_bimodule(c: FinLinCat) -> Bimodule:
    """The category as a bimodule over itself: component hom(y, x) at (x, y)."""
    dims = {(x, y): c.dim_hom(y, x) for x in c.objects for y in c.objects}
    left = {}
    right = {}
    for f in c.label_info:
        for y in c.objects:
            left[(f, y)] = post_mul_matrix(c, f, y)
    for g in c.label_info:
        for x in c.objects:
            right[(g, x)] = pre_mul_matrix(c, g, x)
    return Bimodule(c, dims, left, right)


def tensor_square_basis(c: FinLinCat, x: str, y: str) -> list[tuple[str, str, str]]:
    """Ordered basis (z, u, v) of the (x, y) component of C (x) C.

    z runs in object order, then u over hom(z, x), then v over hom(y, z);
    the tensor u (x) v represents a pair composable to u.v in hom(y, x).
    """
    basis = []
    for z in c.objects:
        for u in c.hom(z, x):
            for v in c.hom(y, z):
                basis.append((z, u, v))
    return basis


def tensor_square(c: FinLinCat) -> tuple[Bimodule, BimoduleMap]:
    """The bimodule C (x) C together with the composition map onto C.

    C (x) C is the direct sum of the representables P(z, z) over the
    objects z, whose bases concatenate to tensor_square_basis. Its actions
    are written row by row as representable_bimodule's are, from the
    post_mul_matrix and pre_mul_matrix rows of the canonical bimodule that
    is the map's target."""
    can = canonical_bimodule(c)
    cxc = _representable_sum(c, [(z, z) for z in c.objects], can.left, can.right)
    blocks = {(x, y): comp_matrix(c, x, y) for x in c.objects for y in c.objects}
    return cxc, BimoduleMap(cxc, can, blocks)


def kernel_of(m: BimoduleMap) -> tuple[Bimodule, BimoduleMap]:
    """Componentwise kernel with the induced actions, plus its inclusion:
    each block's kernel_basis(), with each induced action read by
    _induced_action."""
    c = m.source.cat
    kernels = {key: m.blocks[key].kernel_basis() for key in m.blocks}
    dims = {key: kernels[key].cols for key in kernels}
    left_error = "map does not commute with left action of {}; kernel has no induced action"
    left = {}
    for (f, y), act in m.source.left.items():
        x, x2, _ = c.label_info[f]
        left[(f, y)] = _induced_action(act, kernels[(x, y)], kernels[(x2, y)], left_error, f)
    right_error = "map does not commute with right action of {}; kernel has no induced action"
    right = {}
    for (g, x), act in m.source.right.items():
        y2, y, _ = c.label_info[g]
        right[(g, x)] = _induced_action(act, kernels[(x, y)], kernels[(x, y2)], right_error, g)
    ker = Bimodule(c, dims, left, right)
    return ker, BimoduleMap(ker, m.source, dict(kernels))


def _induced_action(act: Matrix, ker: Matrix, ker2: Matrix, error: str, label: str) -> Matrix:
    """The action that act induces from the kernel with basis ker to the one
    with basis ker2, read off ker2's basis by _coords; ValueError with
    error.format(label) when the image of ker leaves ker2. A kernel of
    dimension 0 has no image to leave ker2: its action is the empty
    ker2.cols x 0 matrix, found with no product."""
    if not ker.cols:
        return Matrix.zeros(act.field, ker2.cols, 0)
    induced = ker2._coords(act @ ker)
    if induced is None:
        raise ValueError(error.format(label))
    return induced


def _kernel_comp_ses(c: FinLinCat) -> ShortExactSeq:
    """0 -> ker comp -> C (x) C -> C -> 0, comp the composition map of
    tensor_square and ker comp its kernel_of."""
    cxc, comp = tensor_square(c)
    ker, incl = kernel_of(comp)
    return ShortExactSeq(ker, cxc, comp.target, incl, comp)


def zero_bimodule(c: FinLinCat) -> Bimodule:
    dims = {(x, y): 0 for x in c.objects for y in c.objects}
    left = {(f, y): Matrix.zeros(c.field, 0, 0) for f in c.label_info for y in c.objects}
    right = {(g, x): Matrix.zeros(c.field, 0, 0) for g in c.label_info for x in c.objects}
    return Bimodule(c, dims, left, right)


def representable_bimodule(c: FinLinCat, a: str, b: str) -> Bimodule:
    """P(a,b) with component hom(a, x) (x) hom(y, b), basis u (x) v with u
    major; f acts on the left as post_mul_matrix(c, f, a) on u, g on the
    right as pre_mul_matrix(c, g, b) on v, each written row by row."""
    return _representable_sum(c, [(a, b)])


def _representable_sum(c: FinLinCat, pairs, post=None, pre=None) -> Bimodule:
    """The direct sum of the P(a_k, b_k) over pairs, in pair order, each
    action matrix written row by row.

    post[(f, a)] is post_mul_matrix(c, f, a) and pre[(g, b)] is
    pre_mul_matrix(c, g, b), as the canonical bimodule's left and right
    actions hold them; when not given, each is built once. Component
    (x, y) of summand k starts at off_k, and u (x) v is at off_k + u n + v,
    n = dim hom(y, b_k). So summand k of left[(f, y)] is post[(f, a_k)]
    (x) 1_n and summand k of right[(g, x)] is 1 (x) pre[(g, b_k)], each
    written at off_k by _post_rows and _pre_rows, block-diagonal."""
    objs = c.objects
    dim = c.dim_hom
    if post is None:
        post = {(f, a): post_mul_matrix(c, f, a) for a in dict.fromkeys(a for a, _ in pairs) for f in c.label_info}
    if pre is None:
        pre = {(g, b): pre_mul_matrix(c, g, b) for b in dict.fromkeys(b for _, b in pairs) for g in c.label_info}
    # (x, y): off_k per summand, then the component's dimension
    offsets = {key: list(accumulate(ds, initial=0)) for key, ds in _summand_dims(c, pairs).items()}
    dims = {key: offs[-1] for key, offs in offsets.items()}
    left = {}
    for f, (x, _, _) in c.label_info.items():
        blocks = [post[(f, a)].row_terms for a, _ in pairs]
        for y in objs:
            rows = []
            for prows, (_, b), off in zip(blocks, pairs, offsets[(x, y)]):
                rows.extend(_post_rows(prows, off, dim(y, b)))
            left[(f, y)] = Matrix._of_rows(c.field, dims[(x, y)], tuple(rows))
    right = {}
    for g, (_, y, _) in c.label_info.items():
        blocks = [pre[(g, b)].row_terms for _, b in pairs]
        for x in objs:
            rows = []
            for prows, (a, b), off in zip(blocks, pairs, offsets[(x, y)]):
                rows.extend(_pre_rows(prows, off, dim(a, x), dim(y, b)))
            right[(g, x)] = Matrix._of_rows(c.field, dims[(x, y)], tuple(rows))
    return Bimodule(c, dims, left, right)


def _summand_dims(c: FinLinCat, sources: list) -> dict:
    """The dimension of each component of each summand of a sum of
    representables, in summand order, from c.dim_hom alone. A source pair
    (a, b) is the bimodule P(a, b), of dimension dim hom(a, x) dim hom(y, b)
    at (x, y); a source object a is the left module P(a), of dimension
    dim hom(a, x) at x."""
    dim = c.dim_hom
    objs = c.objects
    if sources and isinstance(sources[0], str):
        return {x: [dim(a, x) for a in sources] for x in objs}
    return {(x, y): [dim(a, x) * dim(y, b) for a, b in sources] for x in objs for y in objs}


def _post_rows(rows, off: int, n: int) -> list:
    """The rows of a (x) 1_n, a given by its row_terms, with every column
    moved by off: row (i', s) is row i' of a with column i moved to
    off + i n + s."""
    return [tuple([(off + i * n + s, v) for i, v in row]) for row in rows for s in range(n)]


def _pre_rows(rows, off: int, m: int, n: int) -> list:
    """The rows of 1_m (x) b, b given by its row_terms with n columns,
    with every column moved by off: row (u, j') is row j' of b with
    column j moved to off + u n + j. With m = 1 this shifts b by off."""
    return [tuple([(off + u * n + j, v) for j, v in row]) for u in range(m) for row in rows]


def representable_left_module(c: FinLinCat, a: str) -> LeftModule:
    """P(a) with component hom(a, x); f acts as post_mul_matrix(c, f, a),
    written row by row."""
    return _left_representable_sum(c, (a,))


def _left_representable_sum(c: FinLinCat, objs) -> LeftModule:
    """The direct sum of the P(a_k) over objs, in order. Component x of
    summand k starts at off_k, so summand k of action[f] is
    post_mul_matrix(c, f, a_k), written at off_k by _post_rows with n = 1,
    block-diagonal."""
    offsets = {x: list(accumulate(ds, initial=0)) for x, ds in _summand_dims(c, objs).items()}
    action = {}
    for f, (x, y, _) in c.label_info.items():
        post = {a: post_mul_matrix(c, f, a).row_terms for a in dict.fromkeys(objs)}
        rows = []
        for a, off in zip(objs, offsets[x]):
            rows.extend(_post_rows(post[a], off, 1))
        action[f] = Matrix._of_rows(c.field, offsets[x][-1], tuple(rows))
    return LeftModule(c, {x: offs[-1] for x, offs in offsets.items()}, action)


def character_left_module(c: FinLinCat, values: dict[str, object]) -> LeftModule:
    """A one-dimensional module from scalar values per basis label."""
    dims = {x: 1 for x in c.objects}
    action = {f: Matrix.from_rows(c.field, [[values[f]]]) for f in c.label_info}
    return LeftModule(c, dims, action)


# -- validation ---------------------------------------------------------


def _linear_action(field: Field, terms, action: dict, rows: int, cols: int) -> Matrix:
    """The action of sum coeff label over the (label, coeff) terms, a
    rows x cols matrix, by extending action linearly; zero coefficients
    are skipped, and one label with coefficient 1 is its own action
    matrix, shared since a Matrix never changes."""
    terms = [(label, coeff) for label, coeff in terms if coeff]
    if len(terms) == 1 and terms[0][1] == 1:
        return action[terms[0][0]]
    out = Matrix.zeros(field, rows, cols)
    for label, coeff in terms:
        out = out + action[label].scale(coeff)
    return out


def _validate_left_module(c: FinLinCat, m: LeftModule, violations: list[str]) -> None:
    for f, mat in m.action.items():
        x, y, _ = c.label_info[f]
        if (mat.rows, mat.cols) != (m.dims[y], m.dims[x]):
            violations.append(f"action matrix for {f} has shape {mat.rows}x{mat.cols}")
            return
    for x in c.objects:
        ident = _linear_action(c.field, zip(c.hom(x, x), c.identity[x]), m.action, m.dims[x], m.dims[x])
        if ident != Matrix.identity(c.field, m.dims[x]):
            violations.append(f"unit law fails at object {x}")

    def failures(heads) -> list[str]:
        found = []
        for g in heads:
            gx, gy, _ = c.label_info[g]
            for f, (fx, fy, _) in c.label_info.items():
                if fy != gx:
                    continue
                labels = c.hom(fx, gy)
                gf = [(labels[k], v) for k, v in c.comp_terms(g, f)]
                lhs = _linear_action(c.field, gf, m.action, m.dims[gy], m.dims[fx])
                if lhs != m.action[g] @ m.action[f]:
                    found.append(f"composition law fails on pair ({g},{f})")
        return found

    if violations or failures(generating_labels(c)):
        violations.extend(failures(c.label_info))


def _validate_bimodule(c: FinLinCat, m: Bimodule, violations: list[str]) -> None:
    """Shapes, the one-sided checks, then commutation. Once both sides are
    modules, the f whose left action commutes with right(g) include the
    identities and are closed under composition and linear combination,
    and so are the g for a fixed f: pairs of generating labels suffice."""
    for (f, y), mat in m.left.items():
        x, x2, _ = c.label_info[f]
        if (mat.rows, mat.cols) != (m.dims[(x2, y)], m.dims[(x, y)]):
            violations.append(f"left action for ({f},{y}) has wrong shape")
            return
    for (g, x), mat in m.right.items():
        y2, y, _ = c.label_info[g]
        if (mat.rows, mat.cols) != (m.dims[(x, y2)], m.dims[(x, y)]):
            violations.append(f"right action for ({g},{x}) has wrong shape")
            return

    def check(cat: FinLinCat, side: str, dims: dict, action: dict) -> None:
        found: list[str] = []
        _validate_left_module(cat, LeftModule(cat, dims, action), found)
        violations.extend(f"{side}: {v}" for v in found)

    # column y is a left C-module; row x is a right C-module, a left C^op-module
    for y in c.objects:
        check(c, f"left action at y={y}", {x: m.dims[(x, y)] for x in c.objects}, {f: m.left[(f, y)] for f in c.label_info})
    op = opposite(c)
    for x in c.objects:
        check(op, f"right action at x={x}", {y: m.dims[(x, y)] for y in c.objects}, {g: m.right[(g, x)] for g in c.label_info})

    def noncommuting(labels) -> list[str]:
        found = []
        for f in labels:
            x, x2, _ = c.label_info[f]
            for g in labels:
                y2, y, _ = c.label_info[g]
                if m.left[(f, y2)] @ m.right[(g, x)] != m.right[(g, x2)] @ m.left[(f, y)]:
                    found.append(f"left/right actions do not commute on ({f},{g})")
        return found

    if violations or noncommuting(generating_labels(c)):
        violations.extend(noncommuting(c.label_info))


def _validate_bimodule_map(c: FinLinCat, m: BimoduleMap, violations: list[str]) -> None:
    """Append a violation for each block of m missing or of the wrong
    shape (and stop there), then for each action of C that m fails to
    commute with. An action out of a source component of dimension 0 is
    not tested: both of its sides are empty matrices of one shape."""
    for x in c.objects:
        for y in c.objects:
            blk = m.blocks.get((x, y))
            if blk is None or (blk.rows, blk.cols) != (m.target.dims[(x, y)], m.source.dims[(x, y)]):
                violations.append(f"map block at ({x},{y}) missing or has wrong shape")
                return
    for (f, y), src_act in m.source.left.items():
        x, x2, _ = c.label_info[f]
        if m.source.dims[(x, y)] and m.blocks[(x2, y)] @ src_act != m.target.left[(f, y)] @ m.blocks[(x, y)]:
            violations.append(f"map fails to commute with left action of {f} at y={y}")
    for (g, x), src_act in m.source.right.items():
        y2, y, _ = c.label_info[g]
        if m.source.dims[(x, y)] and m.blocks[(x, y2)] @ src_act != m.target.right[(g, x)] @ m.blocks[(x, y)]:
            violations.append(f"map fails to commute with right action of {g} at x={x}")


def _validate_ses(c: FinLinCat, s: ShortExactSeq, violations: list[str]) -> None:
    if s.i.source is not s.m or s.i.target is not s.n or s.q.source is not s.n or s.q.target is not s.p:
        violations.append("maps do not connect M -> N -> P")
        return
    _validate_bimodule_map(c, s.i, violations)
    _validate_bimodule_map(c, s.q, violations)
    if violations:
        return
    for x in c.objects:
        for y in c.objects:
            bi = s.i.blocks[(x, y)]
            bq = s.q.blocks[(x, y)]
            if bi.rank() != s.m.dims[(x, y)]:
                violations.append(f"inclusion not injective at ({x},{y})")
            if bq.rank() != s.p.dims[(x, y)]:
                violations.append(f"quotient map not surjective at ({x},{y})")
            if not (bq @ bi).is_zero():
                violations.append(f"q.i is nonzero at ({x},{y})")
            elif bi.rank() + bq.rank() != s.n.dims[(x, y)]:
                violations.append(f"im(i) != ker(q) at ({x},{y})")


def validate_module(
    c: FinLinCat, m: Union[LeftModule, Bimodule, BimoduleMap, ShortExactSeq]
) -> ValidationReport:
    """Check the functoriality / naturality / exactness axioms; violations are data.

    c must be a valid category. When a left module's unit law holds, the g
    whose composition law holds on all pairs (g, f) include the identities
    and, as act((s.h).f) = act(s) act(h.f), every s.h for such h; so pairs
    (s, f), s in lincat.generating_labels(c), suffice unless one fails.

    A bimodule is checked as one-sided modules by that same check: column
    y as a left C-module, row x as a left module over lincat.opposite(c).
    Their violations read "left action at y=Y: ..." and "right action at
    x=X: ...". A right-side pair is named in C^op order, so (a,b) is the
    C-composite b.a. The two actions are then tested for commutation on
    pairs of generating labels, and on every pair only if a check fails. A
    short exact sequence's maps and exactness are checked, not its three
    bimodules."""
    violations: list[str] = []
    if isinstance(m, LeftModule):
        _validate_left_module(c, m, violations)
    elif isinstance(m, Bimodule):
        _validate_bimodule(c, m, violations)
    elif isinstance(m, BimoduleMap):
        _validate_bimodule_map(c, m, violations)
    elif isinstance(m, ShortExactSeq):
        _validate_ses(c, m, violations)
    else:
        raise TypeError(f"cannot validate {type(m).__name__}")
    return ValidationReport(ok=not violations, violations=violations)


# -- random instances ---------------------------------------------------


def _yoneda_basis(
    field: Field,
    components: list,
    src_dims: dict,
    tgt_dims: dict,
    summands: list[tuple[int, dict]],
) -> tuple[Matrix, dict]:
    """Free-variable basis of the intertwiners from a sum of representables.

    By the Yoneda lemma a map out of a representable is fixed by the image t
    of its generator, and every t in the target's component at the generator
    occurs. Each summand is (dimension of that component, images), where
    images[comp] lists, over the summand's basis of comp, the
    tgt_dims[comp] x dimension matrices whose column s is the image of the
    basis element when t = e_s. Unknowns are the entries of all blocks
    phi[comp], laid out row-major in component order, with the summands'
    columns side by side.

    These vectors span the intertwiners, so the basis rebuilt from them is
    the one kernel_basis() of the intertwiner system gives: the vector of a
    free column f has a 1 at f and 0 at every other free column, and the
    free columns are the positions where a vector of the space has its last
    nonzero entry. Those are the pivots of the spanning rows' rref with the
    columns reversed, and its reduced rows are the basis vectors. Returns
    (basis, offsets).
    """
    offsets = {}
    total = 0
    for comp in components:
        offsets[comp] = total
        total += tgt_dims[comp] * src_dims[comp]
    spans: list[dict] = []
    first_col = dict.fromkeys(components, 0)
    for k, images in summands:
        span: list[dict] = [{} for _ in range(k)]
        for comp in components:
            stride = src_dims[comp]
            # reversed column of unknown (r, col) of phi[comp]
            base = total - 1 - offsets[comp] - first_col[comp]
            for j, img in enumerate(images[comp]):
                for r, row in enumerate(img.row_terms):
                    at = base - r * stride - j
                    for s, v in row:
                        span[s][at] = v
            first_col[comp] += len(images[comp])
        spans.extend(span)
    n = len(spans)
    res = Matrix.from_entries(field, n, total, ((i, j, v) for i, row in enumerate(spans) for j, v in row.items())).rref()
    if res.rank != n:
        raise InternalCheckError(f"Yoneda spanning set has rank {res.rank}, expected {n}")
    # basis columns in ascending free column: reduced rows last to first,
    # and reduced column c is basis row total - 1 - c
    rows: list[list] = [[] for _ in range(total)]
    for j, red in enumerate(reversed(res.reduced.row_terms[:n])):
        for c, v in red:
            rows[total - 1 - c].append((j, v))
    return Matrix._of_rows(field, n, tuple(map(tuple, rows))), offsets


def _draw_coefficients(rng: random.Random, field: Field, n: int) -> list:
    """n random field scalars, the coefficients of a random intertwiner on
    a basis of n columns: in [-2, 2] over Q, any residue over F_p. Every
    draw of the random generators calls this, rejected or kept, so the
    seeded stream does not depend on which draws build their basis."""
    p = field.p
    if p is None:
        return [field.of(rng.randint(-2, 2)) for _ in range(n)]
    return [field.of(rng.randrange(p)) for _ in range(n)]


def _combine_columns(basis: Matrix, coeffs: list) -> list:
    """The combination of the basis columns with the given coefficients,
    one per column, read off the basis rows in canonical form."""
    p = basis.field.p
    if p is None:
        return [_canonical(sum(coeffs[j] * v for j, v in row)) for row in basis.row_terms]
    return [sum(coeffs[j] * v for j, v in row) % p for row in basis.row_terms]


def _blocks_from_vector(field: Field, src_dims: dict, tgt_dims: dict, vec: list, offsets: dict) -> dict:
    """The row-major blocks tgt_dims[comp] x src_dims[comp] of a vector of
    field scalars in canonical form, the block of comp starting at
    offsets[comp]."""
    p = field.p
    blocks = {}
    for comp, base in offsets.items():
        r, s = tgt_dims[comp], src_dims[comp]
        rows = tuple(_nonzeros(vec[base + i * s : base + (i + 1) * s], p) for i in range(r))
        blocks[comp] = Matrix._of_rows(field, s, rows)
    return blocks


def _bimodule_intertwiners(
    c: FinLinCat, src_pairs: list[tuple[str, str]], src: Bimodule, tgt: Bimodule
) -> tuple[Matrix, dict]:
    """Yoneda basis of the maps src -> tgt, src being the direct sum of the
    representables on src_pairs: u (x) v goes to right(v) @ left(u) applied
    to the generator's image."""
    summands = []
    for a, b in src_pairs:
        images = {
            (x, y): [tgt.right[(v, x)] @ tgt.left[(u, b)] for u in c.hom(a, x) for v in c.hom(y, b)]
            for x in c.objects
            for y in c.objects
        }
        summands.append((tgt.dims[(a, b)], images))
    pairs = [(x, y) for x in c.objects for y in c.objects]
    return _yoneda_basis(c.field, pairs, src.dims, tgt.dims, summands)


def _left_module_intertwiners(
    c: FinLinCat, src_objs: list[str], src: LeftModule, tgt: LeftModule
) -> tuple[Matrix, dict]:
    """Yoneda basis of the maps src -> tgt, src being the direct sum of the
    representables on src_objs: u in hom(a, x) sends the generator's image
    t to u.t."""
    summands = [
        (tgt.dims[a], {x: [tgt.action[u] for u in c.hom(a, x)] for x in c.objects}) for a in src_objs
    ]
    return _yoneda_basis(c.field, list(c.objects), src.dims, tgt.dims, summands)


_DIM_CAP = 2  # the largest component dimension a random module keeps


def _refused_by_dims(src: dict, tgt: dict) -> bool:
    """Whether some component's block, tgt x src summed over summands as
    _summand_dims gives them, has more than _DIM_CAP columns beyond its
    rows: its kernel then exceeds the cap whatever the intertwiner."""
    return any(sum(ds) - sum(tgt[key]) > _DIM_CAP for key, ds in src.items())


def _kernels_within(blocks: dict) -> bool:
    """Whether the kernel of every block has dimension at most _DIM_CAP."""
    return all(blk.cols - blk.rank() <= _DIM_CAP for blk in blocks.values())


def _random_draw(c: FinLinCat, seed: int, counts: tuple, sources: list, build, intertwiners):
    """The draw a random generator keeps, as (source, target, blocks), or
    None when it keeps none.

    Each draw picks a summand count from counts (0 keeps nothing), that
    many source summands from sources, then one target summand. Its map is
    a random combination of the Yoneda basis of the intertwiners between
    build(c, source summands) and build(c, (target,)), found by
    intertwiners(c, source summands, source, target). Draws are retried,
    up to 32, until every block's kernel has dimension at most _DIM_CAP.
    A draw whose source has, at some component, more than _DIM_CAP
    dimensions beyond its target's must have a kernel above the cap there,
    so it is refused from c.dim_hom alone, before any sum, basis or block is
    built. Every draw, refused or not, draws the basis's column count of
    coefficients, which the dimensions give (the sum over the source
    summands s_k of the target's dimension at s_k), so the seeded stream,
    and every seeded output, is what it would be if every draw built its
    basis. The cap is checked on the blocks' kernel dimensions, so no
    kernel is built here, and each sum is built at most once per call."""
    if not sources:
        return None
    rng = random.Random(seed)
    build = cache(partial(build, c))  # for this call only
    for _ in range(32):
        n_src = rng.choice(counts)
        if n_src == 0:
            return None
        src_keys = tuple(rng.choice(sources) for _ in range(n_src))
        tgt_key = rng.choice(sources)
        src_dims = _summand_dims(c, src_keys)
        tgt_dims = _summand_dims(c, [tgt_key])
        coeffs = _draw_coefficients(rng, c.field, sum(tgt_dims[key][0] for key in src_keys))
        if _refused_by_dims(src_dims, tgt_dims):
            continue
        src = build(src_keys)
        tgt = build((tgt_key,))
        basis, offsets = intertwiners(c, src_keys, src, tgt)
        vec = _combine_columns(basis, coeffs)
        blocks = _blocks_from_vector(c.field, src.dims, tgt.dims, vec, offsets)
        if _kernels_within(blocks):
            return src, tgt, blocks
    return None


def random_bimodule(c: FinLinCat, seed: int) -> Bimodule:
    """A valid random bimodule, deterministic in the seed: the kernel of the
    map _random_draw keeps between sums of representable bimodules P(a, b),
    so every component dimension is at most 2, or the zero bimodule when
    it keeps none."""
    pairs = [(x, y) for x in c.objects for y in c.objects]
    kept = _random_draw(c, seed, (0, 1, 1, 1, 2, 2), pairs, _representable_sum, _bimodule_intertwiners)
    return zero_bimodule(c) if kept is None else kernel_of(BimoduleMap(*kept))[0]


def _left_module_map_kernel(c: FinLinCat, src: LeftModule, blocks: dict) -> LeftModule:
    """The kernel of the map out of src with the given blocks, one per
    object, with the action each label induces by _induced_action."""
    kernels = {x: blocks[x].kernel_basis() for x in c.objects}
    dims = {x: kernels[x].cols for x in c.objects}
    error = "map does not commute with action of {}"
    action = {f: _induced_action(src.action[f], kernels[x], kernels[y], error, f) for f, (x, y, _) in c.label_info.items()}
    return LeftModule(c, dims, action)


def random_left_module(c: FinLinCat, seed: int) -> LeftModule:
    """A valid random left module, deterministic in the seed: the kernel of
    the map _random_draw keeps between sums of representable left modules
    P(a), so every component dimension is at most 2, or the zero module
    when it keeps none."""
    kept = _random_draw(c, seed, (1, 1, 1, 2, 2), c.objects, _left_representable_sum, _left_module_intertwiners)
    return _zero_left_module(c) if kept is None else _left_module_map_kernel(c, kept[0], kept[2])


def _zero_left_module(c: FinLinCat) -> LeftModule:
    return LeftModule(c, {x: 0 for x in c.objects}, {f: Matrix.zeros(c.field, 0, 0) for f in c.label_info})

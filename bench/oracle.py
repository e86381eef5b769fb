"""Independent oracles for the benchmark's results.

Nothing here imports sepcat. The oracles work from closed forms and from
plain data: presentation documents (the JSON written for each instance),
certificate documents, the text a CLI verb printed, and module matrices
as lists of integers. Arithmetic is fractions.Fraction over Q (p == 0)
and Python integers mod p over F_p.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

# -- small exact linear algebra ------------------------------------------


def _norm(v, p):
    return Fraction(v) if p == 0 else int(v) % p


def rank(rows, p):
    """Rank of a list of rows over Q (p == 0) or F_p, by Gaussian elimination."""
    work = [[_norm(v, p) for v in row] for row in rows]
    if not work:
        return 0
    ncols = len(work[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = 1 / work[r][c] if p == 0 else pow(work[r][c], -1, p)
        for i in range(r + 1, len(work)):
            f = work[i][c]
            if f:
                f = f * inv if p == 0 else f * inv % p
                row_r = work[r]
                row_i = work[i]
                for j in range(c, ncols):
                    if row_r[j]:
                        row_i[j] = row_i[j] - f * row_r[j] if p == 0 else (row_i[j] - f * row_r[j]) % p
        r += 1
        if r == len(work):
            break
    return r


def matmul(a, b, p):
    """Product of matrices given as (rows, cols, list of row lists)."""
    (m, n, ra), (n2, q, rb) = a, b
    if n != n2:
        raise ValueError("shape mismatch")
    out = []
    for row in ra:
        acc = [0] * q
        for k, v in enumerate(row):
            if v:
                for j, w in enumerate(rb[k]):
                    if w:
                        acc[j] += v * w
        out.append([_norm(x, p) for x in acc])
    return (m, q, out)


def identity(n):
    return (n, n, [[int(i == j) for j in range(n)] for i in range(n)])


# -- presentations ----------------------------------------------------------


class Pres:
    """A finite ordinary category read from a presentation document."""

    def __init__(self, doc: dict):
        self.objects = list(doc["objects"])
        self.mor = {m["name"]: (m["from"], m["to"]) for m in doc["morphisms"]}
        self.ident = dict(doc["identity"])
        self.comp = {(e["g"], e["f"]): e["result"] for e in doc["composition"]}

    def hom(self, x, y):
        return [n for n, (a, b) in self.mor.items() if (a, b) == (x, y)]

    def inverse(self, f):
        x, y = self.mor[f]
        for g in self.hom(y, x):
            if self.comp[(g, f)] == self.ident[x] and self.comp[(f, g)] == self.ident[y]:
                return g
        return None

    def is_groupoid(self):
        return all(self.inverse(f) is not None for f in self.mor)

    def is_delta(self):
        if any(self.hom(x, x) != [self.ident[x]] for x in self.objects):
            return False
        return not any(
            self.hom(x, y) and self.hom(y, x)
            for i, x in enumerate(self.objects)
            for y in self.objects[i + 1 :]
        )

    def is_discrete(self):
        return set(self.mor) == set(self.ident.values())

    def components(self):
        comps, seen = [], set()
        for x in self.objects:
            if x in seen:
                continue
            comp, todo = {x}, [x]
            while todo:
                a = todo.pop()
                for b in self.objects:
                    if b not in comp and (self.hom(a, b) or self.hom(b, a)):
                        comp.add(b)
                        todo.append(b)
            seen |= comp
            comps.append(comp)
        return comps

    def conjugacy_classes(self, x):
        group = self.hom(x, x)
        classes, seen = 0, set()
        for g in group:
            if g in seen:
                continue
            classes += 1
            for h in group:
                seen.add(self.comp[(self.comp[(h, g)], self.inverse(h))])
        return classes


def _trace_form_nondegenerate(pres: Pres, p: int) -> bool:
    """Dickson's criterion on the total algebra: valid over Q, or F_p with p > dim."""
    basis = list(pres.mor)
    index = {m: i for i, m in enumerate(basis)}
    n = len(basis)

    def product(a, b):
        # basis product a * b = a . b when composable, else 0
        if pres.mor[b][1] != pres.mor[a][0]:
            return None
        return index[pres.comp[(a, b)]]

    # trace of left multiplication by basis element e_k: number of j with e_k e_j = e_j
    tr = [sum(1 for j in range(n) if product(basis[k], basis[j]) == j) for k in range(n)]
    form = []
    for a in range(n):
        row = []
        for b in range(n):
            k = product(basis[a], basis[b])
            row.append(0 if k is None else tr[k])
        form.append(row)
    return rank(form, p) == n


def separable(pres: Pres, p: int) -> bool:
    """Separability of the linearization over Q (p == 0) or F_p.

    Groupoids: every nonempty hom-set has invertible cardinality (Maschke).
    Delta categories: separable exactly when discrete. Otherwise Dickson's
    trace-form criterion, which needs p == 0 or p > total dimension.
    """
    if pres.is_groupoid():
        return all(p == 0 or len(pres.hom(x, y)) % p for x in pres.objects for y in pres.objects if pres.hom(x, y))
    if pres.is_delta():
        return pres.is_discrete()
    if p and p <= len(pres.mor):
        raise ValueError("no closed form applies to this instance")
    return _trace_form_nondegenerate(pres, p)


# -- certificates -----------------------------------------------------------


def certificate_errors(pres: Pres, cert: list, p: int) -> list[str]:
    """Check the unit and equivariance conditions of a certificate document."""
    errors = []
    blocks = {}
    for blk in cert:
        terms = blocks.setdefault((blk["x"], blk["y"]), {})
        for t in blk["terms"]:
            key = (t["u"], t["v"])
            terms[key] = _norm(terms.get(key, 0) + _parse(t["coeff"], p), p)
    for x in pres.objects:
        total = {}
        for y in pres.objects:
            for (u, v), c in blocks.get((x, y), {}).items():
                w = pres.comp[(u, v)]
                total[w] = _norm(total.get(w, 0) + c, p)
        want = {pres.ident[x]: 1}
        if {k: v for k, v in total.items() if v} != want:
            errors.append(f"unit condition fails at {x}")
    for f, (x, z) in pres.mor.items():
        for y in pres.objects:
            lhs, rhs = {}, {}
            for (u, v), c in blocks.get((x, y), {}).items():
                key = (pres.comp[(f, u)], v)
                lhs[key] = _norm(lhs.get(key, 0) + c, p)
            for (u, v), c in blocks.get((z, y), {}).items():
                key = (u, pres.comp[(v, f)])
                rhs[key] = _norm(rhs.get(key, 0) + c, p)
            if {k: v for k, v in lhs.items() if v} != {k: v for k, v in rhs.items() if v}:
                errors.append(f"equivariance fails at {f}, {y}")
    return errors


def _parse(text: str, p: int):
    return Fraction(text) if p == 0 else int(text) % p


# -- cohomology closed forms -----------------------------------------------


def cochain_dims(pres: Pres, coeff_dim, top: int) -> list[int]:
    """dim C^n for n <= top: sum over object tuples of the hom-dimension product
    times the coefficient dimension at (x0, xn)."""
    out = []
    for n in range(top + 1):
        total = 0
        for objs in itertools.product(pres.objects, repeat=n + 1):
            size = coeff_dim(objs[0], objs[n])
            for i in range(1, n + 1):
                size *= len(pres.hom(objs[i], objs[i - 1]))
            total += size
        out.append(total)
    return out


def canonical_dim(pres: Pres):
    return lambda x, y: len(pres.hom(y, x))


def kernel_comp_dim(pres: Pres):
    """Component (x, y) of ker(comp: C (x) C -> C); comp is onto because of identities."""
    def dim(x, y):
        square = sum(len(pres.hom(z, x)) * len(pres.hom(y, z)) for z in pres.objects)
        return square - len(pres.hom(y, x))
    return dim


def kernel_comp_total(pres: Pres) -> int:
    dim = kernel_comp_dim(pres)
    return sum(dim(x, y) for x in pres.objects for y in pres.objects)


def order_complex_cohomology(pres: Pres, top: int) -> list[int]:
    """Simplicial cohomology (over Q) of the order complex of a poset."""
    below = {(a, b) for (a, b) in pres.mor.values() if a != b}
    chains = [[(x,) for x in pres.objects]]
    for _ in range(top + 1):
        chains.append([c + (y,) for c in chains[-1] for y in pres.objects if (c[-1], y) in below])
    ranks = []
    for n in range(top + 1):
        index = {c: i for i, c in enumerate(chains[n])}
        rows = []
        for c in chains[n + 1]:
            row = [0] * len(chains[n])
            for i in range(len(c)):
                row[index[c[:i] + c[i + 1 :]]] += (-1) ** i
            rows.append(row)
        ranks.append(rank(rows, 0) if rows and chains[n] else 0)
    return [len(chains[n]) - ranks[n] - (ranks[n - 1] if n else 0) for n in range(top + 1)]


def canonical_cohomology(pres: Pres, cyclic: int, p: int, top: int):
    """dim HH^n(C, C) for n <= top, or None where no closed form applies;
    cyclic is m when C is Z_m, else 0.

    Cyclic groups Z_m: m at n = 0; for n >= 1, m when p divides m, else 0.
    Separable groupoids: HH^0 is the number of conjugacy classes summed over
    components (Morita invariance), and HH^n = 0 for n >= 1. Posets: the
    cohomology of the order complex (Gerstenhaber-Schack).
    """
    if cyclic:
        high = cyclic if p and cyclic % p == 0 else 0
        return [cyclic] + [high] * top
    if pres.is_groupoid() and separable(pres, p):
        classes = sum(pres.conjugacy_classes(min(comp)) for comp in pres.components())
        return [classes] + [0] * top
    if pres.is_delta() and p == 0:
        return order_complex_cohomology(pres, top)
    return None


def parse_table(text: str) -> list[list[int]]:
    """Integer rows of a whitespace table printed under a header line."""
    lines = text.strip().splitlines()[1:]
    return [[int(w) for w in line.split()] for line in lines]


def cohomology_errors(rows: list[list[int]], want_dims: list[int], want_h: list) -> list[str]:
    """Check rows (n, dim_cochain, rank_d, dim_H): the cochain dimensions, the
    rank identity dim_H^n = dim C^n - rank d^n - rank d^(n-1), and every
    known entry of want_h (None marks a degree with no closed form)."""
    if [r[0] for r in rows] != list(range(len(want_dims))):
        return [f"degrees printed {[r[0] for r in rows]}"]
    errors = []
    if [r[1] for r in rows] != want_dims:
        errors.append(f"cochain dims {[r[1] for r in rows]} != {want_dims}")
    prev = 0
    for n, dim_c, rank_d, dim_h in rows:
        if dim_h != dim_c - rank_d - prev or dim_h < 0:
            errors.append(f"degree {n}: dim_H {dim_h} breaks the rank identity")
        prev = rank_d
    for n, want in enumerate(want_h):
        if want is not None and rows[n][3] != want:
            errors.append(f"dim H^{n} = {rows[n][3]}, closed form {want}")
    return errors


# -- modules -------------------------------------------------------------------


def bimodule_errors(pres: Pres, dims: dict, left: dict, right: dict, p: int, cap: int) -> list[str]:
    """Functoriality of a bimodule given as integer matrices.

    dims[(x, y)]; left[(f, y)]: M[x][y] -> M[x'][y] for f: x -> x';
    right[(g, x)]: M[x][y] -> M[x][y'] for g: y' -> y. Matrices are
    (rows, cols, list of row lists) with entries reduced mod p.
    """
    errors = []
    if any(d > cap for d in dims.values()):
        errors.append(f"component dimension above the cap {cap}")
    for x in pres.objects:
        e = pres.ident[x]
        for y in pres.objects:
            if left[(e, y)] != identity(dims[(x, y)]) or right[(e, y)] != identity(dims[(y, x)]):
                errors.append(f"identity of {x} does not act as the identity")
    for (g, f), h in pres.comp.items():
        for y in pres.objects:
            if matmul(left[(g, y)], left[(f, y)], p) != left[(h, y)]:
                errors.append(f"left action of {g}.{f} is not the composite")
            if matmul(right[(f, y)], right[(g, y)], p) != right[(h, y)]:
                errors.append(f"right action of {g}.{f} is not the composite")
    for f, (x, x2) in pres.mor.items():
        for g, (y2, y) in pres.mor.items():
            if matmul(left[(f, y2)], right[(g, x)], p) != matmul(right[(g, x2)], left[(f, y)], p):
                errors.append(f"left {f} and right {g} do not commute")
    return errors


def left_module_errors(pres: Pres, dims: dict, action: dict, p: int, cap: int) -> list[str]:
    errors = []
    if any(d > cap for d in dims.values()):
        errors.append(f"component dimension above the cap {cap}")
    for x in pres.objects:
        if action[pres.ident[x]] != identity(dims[x]):
            errors.append(f"identity of {x} does not act as the identity")
    for (g, f), h in pres.comp.items():
        if matmul(action[g], action[f], p) != action[h]:
            errors.append(f"action of {g}.{f} is not the composite")
    return errors


def invariants_dim(pres: Pres, dims: dict, left: dict, right: dict, p: int) -> int:
    """dim H^0(C, M): families m_x in M[x][x] with f.m_x = m_x'.f for f: x -> x'."""
    offsets, total = {}, 0
    for x in pres.objects:
        offsets[x] = total
        total += dims[(x, x)]
    rows = []
    for f, (x, x2) in pres.mor.items():
        lf, rf = left[(f, x)], right[(f, x2)]
        for r in range(dims[(x2, x)]):
            row = [0] * total
            for k in range(dims[(x, x)]):
                row[offsets[x] + k] += lf[2][r][k]
            for k in range(dims[(x2, x2)]):
                row[offsets[x2] + k] -= rf[2][r][k]
            rows.append(row)
    return total - rank(rows, p)

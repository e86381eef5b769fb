"""Finite K-linear categories presented by structure constants.

A FinLinCat stores hom-space bases per ordered object pair, a sparse
composition table (absent entries mean zero), and identity coefficient
vectors. hom(x, y) holds morphisms from x to y and composition acts as
comp: hom(y, z) x hom(x, y) -> hom(x, z). Left actions are covariant:
f in hom(x, y) acts M[x] -> M[y].
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import product
from typing import Optional, Sequence

from .exactalg import Field

__all__ = [
    "ValidationReport",
    "Morphism",
    "FinLinCat",
    "FiniteCatPresentation",
    "PresentationFlags",
    "validate_category",
    "compose",
    "linearize",
    "classify_presentation",
]


@dataclass
class ValidationReport:
    ok: bool
    violations: list[str] = dc_field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class Morphism:
    """A hom-space element: coefficient vector over the hom(source, target) basis."""

    source: str
    target: str
    coeffs: tuple


class FinLinCat:
    """A finite K-linear category given by structure constants.

    Construction is permissive about the category axioms; validate_category
    reports violations as data. Structural malformations that make the data
    unreadable (duplicate labels, unknown objects, wrong vector lengths)
    raise ValueError.
    """

    def __init__(
        self,
        field: Field,
        objects: Sequence[str],
        hom_basis: dict[tuple[str, str], Sequence[str]],
        comp_table: dict[tuple[str, str], Sequence],
        identity: dict[str, Sequence],
    ):
        self.field = field
        self.objects = tuple(objects)
        if len(set(self.objects)) != len(self.objects):
            raise ValueError("duplicate object names")
        obj_set = set(self.objects)
        self.hom_basis: dict[tuple[str, str], tuple[str, ...]] = {}
        for (x, y), labels in hom_basis.items():
            if x not in obj_set or y not in obj_set:
                raise ValueError(f"hom pair ({x},{y}) names unknown objects")
            self.hom_basis[(x, y)] = tuple(labels)
        for x in self.objects:
            for y in self.objects:
                self.hom_basis.setdefault((x, y), ())
        self.label_info: dict[str, tuple[str, str, int]] = {}
        for (x, y), labels in self.hom_basis.items():
            for i, lab in enumerate(labels):
                if lab in self.label_info:
                    raise ValueError(f"basis label {lab!r} is not globally unique")
                self.label_info[lab] = (x, y, i)
        self.comp_table: dict[tuple[str, str], tuple] = {}
        for (g, f), vec in comp_table.items():
            if g not in self.label_info or f not in self.label_info:
                raise ValueError(f"composition entry ({g},{f}) names unknown labels")
            x, y, _ = self.label_info[f]
            y2, z, _ = self.label_info[g]
            if y != y2:
                raise ValueError(f"composition entry ({g},{f}) refers to a non-composable pair")
            target_dim = len(self.hom_basis[(x, z)])
            vec = tuple(field.of(v) for v in vec)
            if len(vec) != target_dim:
                raise ValueError(f"composition ({g},{f}) has vector length {len(vec)}, expected {target_dim}")
            self.comp_table[(g, f)] = vec
        self.identity: dict[str, tuple] = {}
        for x, vec in identity.items():
            if x not in obj_set:
                raise ValueError(f"identity given for unknown object {x}")
            vec = tuple(field.of(v) for v in vec)
            if len(vec) != len(self.hom_basis[(x, x)]):
                raise ValueError(f"identity vector for {x} has wrong length")
            self.identity[x] = vec

    def hom(self, x: str, y: str) -> tuple[str, ...]:
        return self.hom_basis[(x, y)]

    def dim_hom(self, x: str, y: str) -> int:
        return len(self.hom_basis[(x, y)])

    def total_dim(self) -> int:
        return sum(len(b) for b in self.hom_basis.values())

    def comp_vector(self, g: str, f: str) -> tuple:
        """Coefficients of g . f over the hom(src f, tgt g) basis; zeros if absent."""
        vec = self.comp_table.get((g, f))
        if vec is not None:
            return vec
        x, _, _ = self.label_info[f]
        _, z, _ = self.label_info[g]
        return (self.field.zero,) * len(self.hom_basis[(x, z)])

    def basis_morphism(self, label: str) -> Morphism:
        x, y, i = self.label_info[label]
        coeffs = [self.field.zero] * len(self.hom_basis[(x, y)])
        coeffs[i] = self.field.one
        return Morphism(x, y, tuple(coeffs))

    def identity_morphism(self, x: str) -> Morphism:
        return Morphism(x, x, self.identity[x])


def compose(c: FinLinCat, g: Morphism, f: Morphism) -> Morphism:
    """Bilinear extension of the composition table: g . f."""
    if g.source != f.target:
        raise ValueError(f"non-composable pair: {f.source}->{f.target} then {g.source}->{g.target}")
    fld = c.field
    out = [fld.zero] * c.dim_hom(f.source, g.target)
    g_labels = c.hom(g.source, g.target)
    f_labels = c.hom(f.source, f.target)
    for j, gc in enumerate(g.coeffs):
        if not gc:
            continue
        for i, fc in enumerate(f.coeffs):
            if not fc:
                continue
            s = fld.mul(gc, fc)
            vec = c.comp_table.get((g_labels[j], f_labels[i]))
            if vec is None:
                continue
            for k, v in enumerate(vec):
                if v:
                    out[k] = fld.add(out[k], fld.mul(s, v))
    return Morphism(f.source, g.target, tuple(out))


def validate_category(c: FinLinCat) -> ValidationReport:
    """Check identity laws and associativity on all composable basis triples."""
    violations: list[str] = []
    for x in c.objects:
        if x not in c.identity:
            violations.append(f"missing identity vector for object {x}")
    # unit laws against the stored identity vectors
    for (x, y), labels in c.hom_basis.items():
        if x in c.identity:
            one_x = c.identity_morphism(x)
            for lab in labels:
                f = c.basis_morphism(lab)
                if compose(c, f, one_x).coeffs != f.coeffs:
                    violations.append(f"right unit law fails: {lab} . 1_{x} != {lab}")
        if y in c.identity:
            one_y = c.identity_morphism(y)
            for lab in labels:
                f = c.basis_morphism(lab)
                if compose(c, one_y, f).coeffs != f.coeffs:
                    violations.append(f"left unit law fails: 1_{y} . {lab} != {lab}")
    # associativity on basis triples, read off the composition table:
    # (h.g).f = sum_k (h.g)_k e_k.f and h.(g.f) = sum_k (g.f)_k h.e_k
    fld = c.field

    def combine(dim: int, terms) -> list:
        out = [fld.zero] * dim
        for coeff, vec in terms:
            for k, v in enumerate(vec):
                if v:
                    out[k] = fld.add(out[k], fld.mul(coeff, v))
        return out

    for w, x, y, z in product(c.objects, repeat=4):
        dim, hom_xz, hom_wy = c.dim_hom(w, z), c.hom(x, z), c.hom(w, y)
        for h in c.hom(y, z):
            for g in c.hom(x, y):
                hg = c.comp_vector(h, g)
                for f in c.hom(w, x):
                    gf = c.comp_vector(g, f)
                    left = combine(dim, ((a, c.comp_vector(e, f)) for a, e in zip(hg, hom_xz) if a))
                    right = combine(dim, ((a, c.comp_vector(h, e)) for a, e in zip(gf, hom_wy) if a))
                    if left != right:
                        violations.append(f"associativity fails on triple ({h},{g},{f})")
    return ValidationReport(ok=not violations, violations=violations)


@dataclass
class PresentationFlags:
    is_groupoid: bool
    is_delta: bool
    is_discrete: bool


class FiniteCatPresentation:
    """A finite ordinary category: named morphisms and a total composition table.

    Compositions with identities may be omitted; they are filled in on
    construction. The inverse table is optional and only advisory; groupoid
    classification searches for two-sided inverses directly.
    """

    def __init__(
        self,
        objects: Sequence[str],
        morphisms: dict[str, tuple[str, str]],
        identity: dict[str, str],
        composition: dict[tuple[str, str], str],
        inverse: Optional[dict[str, str]] = None,
    ):
        self.objects = tuple(objects)
        if len(set(self.objects)) != len(self.objects):
            raise ValueError("duplicate object names")
        self.morphisms = dict(morphisms)
        self.identity = dict(identity)
        self.inverse = dict(inverse) if inverse else None
        for name, (x, y) in self.morphisms.items():
            if x not in self.objects or y not in self.objects:
                raise ValueError(f"morphism {name} has unknown endpoint")
        for x in self.objects:
            e = self.identity.get(x)
            if e is None or self.morphisms.get(e) != (x, x):
                raise ValueError(f"object {x} lacks an identity endomorphism")
        self.composition = dict(composition)
        for name, (x, y) in self.morphisms.items():
            self.composition.setdefault((self.identity[y], name), name)
            self.composition.setdefault((name, self.identity[x]), name)
        for (g, f), h in self.composition.items():
            gx, gy = self.morphisms[g]
            fx, fy = self.morphisms[f]
            if fy != gx:
                raise ValueError(f"composition entry ({g},{f}) is not composable")
            if self.morphisms[h] != (fx, gy):
                raise ValueError(f"composition ({g},{f})={h} has wrong endpoints")

    def hom_set(self, x: str, y: str) -> list[str]:
        return [n for n, (a, b) in self.morphisms.items() if (a, b) == (x, y)]

    def comp(self, g: str, f: str) -> str:
        return self.composition[(g, f)]

    def validate(self) -> ValidationReport:
        violations: list[str] = []
        for g, (gx, gy) in self.morphisms.items():
            for f, (fx, fy) in self.morphisms.items():
                if fy == gx and (g, f) not in self.composition:
                    violations.append(f"composition table is missing the pair ({g},{f})")
        if violations:
            return ValidationReport(False, violations)
        for h, (hx, hy) in self.morphisms.items():
            for g, (gx, gy) in self.morphisms.items():
                if gy != hx:
                    continue
                hg = self.comp(h, g)
                for f, (fx, fy) in self.morphisms.items():
                    if fy != gx:
                        continue
                    if self.comp(hg, f) != self.comp(h, self.comp(g, f)):
                        violations.append(f"associativity fails on triple ({h},{g},{f})")
        for f, (x, y) in self.morphisms.items():
            if self.comp(self.identity[y], f) != f or self.comp(f, self.identity[x]) != f:
                violations.append(f"unit law fails for {f}")
        return ValidationReport(ok=not violations, violations=violations)

    def find_inverse(self, f: str) -> Optional[str]:
        x, y = self.morphisms[f]
        for g in self.hom_set(y, x):
            if self.comp(g, f) == self.identity[x] and self.comp(f, g) == self.identity[y]:
                return g
        return None


def classify_presentation(p: FiniteCatPresentation) -> PresentationFlags:
    """Groupoid / delta / discrete flags of a valid presentation.

    Delta means: every endomorphism set is exactly the identity, and no two
    distinct objects have morphisms both ways (such a pair would compose to
    identities and yield a cross-object isomorphism).
    """
    report = p.validate()
    if not report.ok:
        raise ValueError("invalid presentation: " + "; ".join(report.violations[:3]))
    ids = set(p.identity.values())
    is_discrete = set(p.morphisms) == ids
    is_groupoid = all(p.find_inverse(f) is not None for f in p.morphisms)
    is_delta = all(p.hom_set(x, x) == [p.identity[x]] for x in p.objects)
    if is_delta:
        for i, x in enumerate(p.objects):
            for y in p.objects[i + 1 :]:
                if p.hom_set(x, y) and p.hom_set(y, x):
                    is_delta = False
    return PresentationFlags(is_groupoid=is_groupoid, is_delta=is_delta, is_discrete=is_discrete)


def linearize(p: FiniteCatPresentation, k: Field) -> FinLinCat:
    """The K-linearization: hom bases are the morphism name sets of p."""
    report = p.validate()
    if not report.ok:
        raise ValueError("invalid presentation: " + "; ".join(report.violations[:3]))
    hom_basis: dict[tuple[str, str], list[str]] = {}
    for name, (x, y) in p.morphisms.items():
        hom_basis.setdefault((x, y), []).append(name)
    comp_table: dict[tuple[str, str], list] = {}
    for (g, f), h in p.composition.items():
        fx, _ = p.morphisms[f]
        _, gy = p.morphisms[g]
        basis = hom_basis[(fx, gy)]
        vec = [k.zero] * len(basis)
        vec[basis.index(h)] = k.one
        comp_table[(g, f)] = vec
    identity = {}
    for x in p.objects:
        basis = hom_basis[(x, x)]
        vec = [k.zero] * len(basis)
        vec[basis.index(p.identity[x])] = k.one
        identity[x] = vec
    return FinLinCat(k, p.objects, hom_basis, comp_table, identity)

"""Finite K-linear categories presented by structure constants.

A FinLinCat stores hom-space bases per ordered object pair, a sparse
composition table (each composite as its nonzero terms; absent entries
mean zero), and identity coefficient vectors. hom(x, y) holds morphisms
from x to y and composition acts as comp: hom(y, z) x hom(x, y) ->
hom(x, z). Left actions are covariant: f in hom(x, y) acts M[x] -> M[y].
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import product
from types import MappingProxyType
from typing import Optional, Sequence

from .exactalg import Field

__all__ = [
    "ValidationReport",
    "FinLinCat",
    "FiniteCatPresentation",
    "PresentationFlags",
    "validate_category",
    "generating_labels",
    "linearize",
    "classify_presentation",
]


@dataclass
class ValidationReport:
    ok: bool
    violations: list[str] = dc_field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok


class FinLinCat:
    """A finite K-linear category given by structure constants.

    Construction is permissive about the category axioms; validate_category
    reports violations as data. Structural malformations that make the data
    unreadable (duplicate labels, unknown objects, wrong vector lengths)
    raise ValueError. Like Matrix, a FinLinCat is immutable: its tables are
    read-only mappings and assigning an attribute raises, so what is derived
    from it, such as generating_labels, can be kept on it.
    """

    def __init__(
        self,
        field: Field,
        objects: Sequence[str],
        hom_basis: dict[tuple[str, str], Sequence[str]],
        comp_table: dict[tuple[str, str], Sequence],
        identity: dict[str, Sequence],
    ):
        objects = tuple(objects)
        if len(set(objects)) != len(objects):
            raise ValueError("duplicate object names")
        obj_set = set(objects)
        homs: dict[tuple[str, str], tuple[str, ...]] = {}
        for (x, y), labels in hom_basis.items():
            if x not in obj_set or y not in obj_set:
                raise ValueError(f"hom pair ({x},{y}) names unknown objects")
            homs[(x, y)] = tuple(labels)
        for x in objects:
            for y in objects:
                homs.setdefault((x, y), ())
        label_info: dict[str, tuple[str, str, int]] = {}
        for (x, y), labels in homs.items():
            for i, lab in enumerate(labels):
                if lab in label_info:
                    raise ValueError(f"basis label {lab!r} is not globally unique")
                label_info[lab] = (x, y, i)
        table: dict[tuple[str, str], tuple[tuple[int, object], ...]] = {}
        for (g, f), vec in comp_table.items():
            if g not in label_info or f not in label_info:
                raise ValueError(f"composition entry ({g},{f}) names unknown labels")
            x, y, _ = label_info[f]
            y2, z, _ = label_info[g]
            if y != y2:
                raise ValueError(f"composition entry ({g},{f}) refers to a non-composable pair")
            target_dim = len(homs[(x, z)])
            vec = tuple(field.of(v) for v in vec)
            if len(vec) != target_dim:
                raise ValueError(f"composition ({g},{f}) has vector length {len(vec)}, expected {target_dim}")
            terms = tuple((k, v) for k, v in enumerate(vec) if v)
            if terms:
                table[(g, f)] = terms
        ident: dict[str, tuple] = {}
        for x, vec in identity.items():
            if x not in obj_set:
                raise ValueError(f"identity given for unknown object {x}")
            vec = tuple(field.of(v) for v in vec)
            if len(vec) != len(homs[(x, x)]):
                raise ValueError(f"identity vector for {x} has wrong length")
            ident[x] = vec
        vars(self).update(
            field=field,
            objects=objects,
            hom_basis=MappingProxyType(homs),
            label_info=MappingProxyType(label_info),
            comp_table=MappingProxyType(table),
            identity=MappingProxyType(ident),
            _generating_labels=None,  # set by the first generating_labels(self)
        )

    def __setattr__(self, name, value):
        raise AttributeError("FinLinCat is immutable")

    def hom(self, x: str, y: str) -> tuple[str, ...]:
        return self.hom_basis[(x, y)]

    def dim_hom(self, x: str, y: str) -> int:
        return len(self.hom_basis[(x, y)])

    def total_dim(self) -> int:
        return sum(len(b) for b in self.hom_basis.values())

    def comp_terms(self, g: str, f: str) -> tuple:
        """The nonzero terms (k, coeff) of g . f over the hom(src f, tgt g)
        basis, k the basis index; () when g . f is zero."""
        return self.comp_table.get((g, f), ())


def _combine(fld: Field, pairs) -> dict:
    """sum a (g.f) over pairs (a, terms of g.f), as its nonzero terms {k: coeff}."""
    out: dict = {}
    for a, terms in pairs:
        for k, v in terms:
            out[k] = fld.add(out[k], fld.mul(a, v)) if k in out else fld.mul(a, v)
    return {k: v for k, v in out.items() if v}


def generating_labels(c: FinLinCat) -> list[str]:
    """Basis labels S, chosen greedily in label order, whose right-nested
    composites s1 . (s2 . (... . (sk . 1_x))) span every hom space when the
    right unit law holds. A label joins S when it is not in the span of the
    composites of the labels before it, read off the composition table and
    the identity vectors, which need not be basis labels.

    The search runs once per category and is kept on it; each call returns
    a fresh list."""
    if c._generating_labels is None:
        object.__setattr__(c, "_generating_labels", tuple(_search_generators(c)))
    return list(c._generating_labels)


def _search_generators(c: FinLinCat) -> list[str]:
    fld = c.field
    # the span in hom(x, y) as rows {k: coeff}, keyed by their least k, where coeff is one
    span: dict[tuple[str, str], dict[int, dict]] = {pair: {} for pair in c.hom_basis}
    gens: list[str] = []

    def reduce(pair, vec: dict) -> dict:
        for p, row in sorted(span[pair].items()):
            a = vec.get(p)
            if a:
                for k, v in row.items():
                    vec[k] = fld.sub(vec[k], fld.mul(a, v)) if k in vec else fld.neg(fld.mul(a, v))
        return {k: v for k, v in vec.items() if v}

    def compose(s: str, pair, vec: dict) -> dict:
        return _combine(fld, ((a, c.comp_terms(s, c.hom(*pair)[t])) for t, a in vec.items()))

    def close(todo: list) -> None:
        while todo:
            (w, y), vec = todo.pop()
            vec = reduce((w, y), vec)
            if vec:
                inv = fld.inv(vec[min(vec)])
                span[(w, y)][min(vec)] = {k: fld.mul(inv, v) for k, v in vec.items()}
                todo.extend(((w, c.label_info[s][1]), compose(s, (w, y), vec)) for s in gens if c.label_info[s][0] == y)

    close([((x, x), {t: a for t, a in enumerate(vec) if a}) for x, vec in c.identity.items()])
    for lab, (x, y, i) in c.label_info.items():
        if reduce((x, y), {i: fld.one}):
            gens.append(lab)
            close([((w, y), compose(lab, (w, x), row)) for w in c.objects for row in span[(w, x)].values()])
    return gens


def validate_category(c: FinLinCat) -> ValidationReport:
    """Check identity laws and associativity on all composable basis triples.

    The associator a(h, g, f) = (h.g).f - h.(g.f) vanishes for an identity h
    by the left unit law, and a(s.h, g, f) = s.a(h, g, f) once every
    a(s, -, -) vanishes. So when both unit laws hold, triples headed by
    generating_labels(c) are checked, and every triple only if one fails."""
    violations: list[str] = []
    for x in c.objects:
        if x not in c.identity:
            violations.append(f"missing identity vector for object {x}")
    fld = c.field
    # unit laws against the stored identity vectors: f . 1_x = sum_t (1_x)_t f.e_t
    for (x, y), labels in c.hom_basis.items():
        if x in c.identity:
            one_x = [(a, e) for a, e in zip(c.identity[x], c.hom(x, x)) if a]
            for i, lab in enumerate(labels):
                if _combine(fld, ((a, c.comp_terms(lab, e)) for a, e in one_x)) != {i: fld.one}:
                    violations.append(f"right unit law fails: {lab} . 1_{x} != {lab}")
        if y in c.identity:
            one_y = [(a, e) for a, e in zip(c.identity[y], c.hom(y, y)) if a]
            for i, lab in enumerate(labels):
                if _combine(fld, ((a, c.comp_terms(e, lab)) for a, e in one_y)) != {i: fld.one}:
                    violations.append(f"left unit law fails: 1_{y} . {lab} != {lab}")

    def associativity(heads) -> list[str]:
        # on basis triples (h, g, f) with h in heads, read off the table:
        # (h.g).f = sum_k (h.g)_k e_k.f and h.(g.f) = sum_k (g.f)_k h.e_k
        found = []
        for w, x, y, z in product(c.objects, repeat=4):
            hom_xz, hom_wy = c.hom(x, z), c.hom(w, y)
            for h in c.hom(y, z):
                if h not in heads:
                    continue
                for g in c.hom(x, y):
                    hg = c.comp_terms(h, g)
                    for f in c.hom(w, x):
                        left = _combine(fld, ((a, c.comp_terms(hom_xz[k], f)) for k, a in hg))
                        right = _combine(fld, ((a, c.comp_terms(h, hom_wy[k])) for k, a in c.comp_terms(g, f)))
                        if left != right:
                            found.append(f"associativity fails on triple ({h},{g},{f})")
        return found

    if violations or associativity(set(generating_labels(c))):
        violations.extend(associativity(c.label_info))
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

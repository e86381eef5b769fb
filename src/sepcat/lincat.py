"""Finite K-linear categories presented by structure constants.

A FinLinCat stores hom-space bases per ordered object pair, a sparse
composition table (each composite as its nonzero terms; absent entries
mean zero), and identity coefficient vectors. hom(x, y) holds morphisms
from x to y and composition acts as comp: hom(y, z) x hom(x, y) ->
hom(x, z). Left actions are covariant: f in hom(x, y) acts M[x] -> M[y].
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from types import MappingProxyType
from typing import Iterable, Sequence

from .exactalg import Field

__all__ = [
    "ValidationReport",
    "FinLinCat",
    "FiniteCatPresentation",
    "PresentationFlags",
    "validate_category",
    "generating_labels",
    "linearize",
    "opposite",
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

    composition[(g, f)], a sequence, and identity[x], an iterable, hold
    the (basis label, scalar) terms of g . f in hom(src f, tgt g) and of
    1_x in hom(x, x); repeated labels add up and absent labels are zero.
    The constructor is the one place that checks the structure: a duplicate
    object or label, an unknown object or label, a non-composable pair or a
    term outside its hom space raises ValueError. It is permissive about
    the category axioms; validate_category reports violations as data.
    Like Matrix, a FinLinCat is immutable: its tables are read-only
    mappings and assigning an attribute raises, so what is derived from it,
    such as generating_labels, can be kept on it.
    """

    def __init__(
        self,
        field: Field,
        objects: Sequence[str],
        hom_basis: dict[tuple[str, str], Sequence[str]],
        composition: dict[tuple[str, str], Sequence[tuple[str, object]]],
        identity: dict[str, Iterable[tuple[str, object]]],
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

        def summed(pair: tuple[str, str], terms, what: str, *names) -> tuple:
            # the nonzero (k, coeff) of terms over the basis of hom pair, in k
            # order; what % names is the entry, formatted only for an error
            out: dict = {}
            for lab, v in terms:
                x, y, k = label_info.get(lab, (None, None, None))
                if (x, y) != pair:
                    raise ValueError(f"{what % names} names {lab!r} outside hom({pair[0]},{pair[1]})")
                v = field.of(v)
                out[k] = field.add(out[k], v) if k in out else v
            return tuple((k, out[k]) for k in sorted(out) if out[k])

        table: dict[tuple[str, str], tuple[tuple[int, object], ...]] = {}
        for (g, f), terms in composition.items():
            if g not in label_info or f not in label_info:
                raise ValueError(f"composition entry ({g},{f}) names unknown labels")
            x, y, _ = label_info[f]
            y2, z, _ = label_info[g]
            if y != y2:
                raise ValueError(f"composition entry ({g},{f}) refers to a non-composable pair")
            if len(terms) == 1 and label_info.get(terms[0][0], ())[:2] == (x, z):
                # one term in its hom space, as every entry of a linearized category is
                ((lab, v),) = terms
                v = field.of(v)
                terms = ((label_info[lab][2], v),) if v else ()
            else:
                terms = summed((x, z), terms, "composition (%s,%s)", g, f)
            if terms:
                table[(g, f)] = terms
        ident: dict[str, tuple] = {}
        for x, terms in identity.items():
            if x not in obj_set:
                raise ValueError(f"identity given for unknown object {x}")
            vec = [field.zero] * len(homs[(x, x)])
            for k, v in summed((x, x), terms, "identity of %s", x):
                vec[k] = v
            ident[x] = tuple(vec)
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


def _combine(fld: Field, pairs: list) -> tuple:
    """sum a (g.f) over pairs (a, terms of g.f), each a nonzero, as its
    nonzero terms ((k, coeff), ...) in k order, the form comp_terms gives:
    one pair is its terms themselves, scaled when a is not 1."""
    if len(pairs) == 1:
        ((a, terms),) = pairs
        return terms if a == 1 else tuple((k, fld.mul(a, v)) for k, v in terms)
    out: dict = {}
    for a, terms in pairs:
        for k, v in terms:
            out[k] = fld.add(out[k], fld.mul(a, v)) if k in out else fld.mul(a, v)
    return tuple((k, out[k]) for k in sorted(out) if out[k])


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
        return dict(_combine(fld, [(a, c.comp_terms(s, c.hom(*pair)[t])) for t, a in vec.items()]))

    def close(todo: list) -> None:
        while todo:
            (w, y), vec = todo.pop()
            vec = reduce((w, y), vec)
            if vec:
                lead = min(vec)
                if vec[lead] != 1:
                    inv = fld.inv(vec[lead])
                    vec = {k: fld.mul(inv, v) for k, v in vec.items()}
                span[(w, y)][lead] = vec
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
    generating_labels(c) are checked, and every triple only if one fails.
    Only composable triples (h, g, f) are visited, f: w -> x, g: x -> y and
    h: y -> z, and reported in the order of (w, x, y, z) in c.objects, then
    of their basis indices.

    Both laws are read straight off comp_table: per head h the composites
    h.e with every label e into y once, per (h, g) the labels of h.g once.
    A one-term composite with coefficient 1, such as every composite and
    identity of a linearized category, selects one table entry; any other
    is summed by _combine."""
    violations: list[str] = []
    for x in c.objects:
        if x not in c.identity:
            violations.append(f"missing identity vector for object {x}")
    fld, table = c.field, c.comp_table
    one = {x: [(a, e) for a, e in zip(vec, c.hom(x, x)) if a] for x, vec in c.identity.items()}
    # where 1_x is one label e with coefficient 1, f . 1_x and 1_x . f are table entries
    unit = {x: terms[0][1] for x, terms in one.items() if len(terms) == 1 and terms[0][0] == 1}
    # unit laws against the stored identity vectors: f . 1_x = sum_t (1_x)_t f.e_t
    for (x, y), labels in c.hom_basis.items():
        if x in one:
            for i, lab in enumerate(labels):
                if (table.get((lab, unit[x]), ()) if x in unit else
                        _combine(fld, [(a, table.get((lab, e), ())) for a, e in one[x]])) != ((i, fld.one),):
                    violations.append(f"right unit law fails: {lab} . 1_{x} != {lab}")
        if y in one:
            for i, lab in enumerate(labels):
                if (table.get((unit[y], lab), ()) if y in unit else
                        _combine(fld, [(a, table.get((e, lab), ())) for a, e in one[y]])) != ((i, fld.one),):
                    violations.append(f"left unit law fails: 1_{y} . {lab} != {lab}")
    position = {x: n for n, x in enumerate(c.objects)}
    into: dict[str, list] = {x: [] for x in c.objects}
    for lab, (x, y, i) in c.label_info.items():
        into[y].append((lab, x, i))

    def associativity(heads) -> list[str]:
        # on basis triples (h, g, f) with h in heads, read off the table:
        # (h.g).f = sum_k (h.g)_k e_k.f and h.(g.f) = sum_k (g.f)_k h.e_k,
        # where a one-term composite with coefficient 1 picks one table entry
        found = []
        for h in heads:
            y, z, i = c.label_info[h]
            h_on = {w: [table.get((h, e), ()) for e in c.hom(w, y)] for w in c.objects}
            for g, x, j in into[y]:
                hom_xz = c.hom(x, z)
                hg = [(a, hom_xz[t]) for t, a in table.get((h, g), ())]
                e = hg[0][1] if len(hg) == 1 and hg[0][0] == 1 else None
                for f, w, k in into[x]:
                    gf, h_w = table.get((g, f), ()), h_on[w]
                    left = table.get((e, f), ()) if e is not None else _combine(fld, [(a, table.get((d, f), ())) for a, d in hg])
                    right = h_w[gf[0][0]] if len(gf) == 1 and gf[0][1] == 1 else _combine(fld, [(a, h_w[t]) for t, a in gf])
                    if left != right:
                        key = (position[w], position[x], position[y], position[z], i, j, k)
                        found.append((key, f"associativity fails on triple ({h},{g},{f})"))
        return [v for _, v in sorted(found)]

    if violations or associativity(generating_labels(c)):
        violations.extend(associativity(c.label_info))
    return ValidationReport(ok=not violations, violations=violations)


@dataclass
class PresentationFlags:
    is_groupoid: bool
    is_delta: bool


class FiniteCatPresentation:
    """A finite ordinary category: named morphisms and a total composition table.

    Compositions with identities may be omitted; they are filled in on
    construction. The constructor checks the whole structure once: an
    unknown endpoint, a missing identity, an entry naming an unknown
    morphism or a non-composable entry raises
    ValueError, and so does a table that misses a composable pair or breaks
    associativity or a unit law, as "invalid presentation: ...". So every
    presentation is a category, and what reads one does not check it again.
    Like FinLinCat it is immutable. The constructor also indexes the
    morphisms by hom pair once, each hom set in the order of morphisms:
    hom_set reads that index, linearize takes it as the hom bases, and
    ei_predict reads it, so all of them share one order. Once the laws
    hold, it also stores inverse: each morphism's two-sided inverse, or
    None, which classify_presentation and ei_predict read.
    """

    def __init__(
        self,
        objects: Sequence[str],
        morphisms: dict[str, tuple[str, str]],
        identity: dict[str, str],
        composition: dict[tuple[str, str], str],
    ):
        objects = tuple(objects)
        if len(set(objects)) != len(objects):
            raise ValueError("duplicate object names")
        morphisms = dict(morphisms)
        identity = dict(identity)
        for name, (x, y) in morphisms.items():
            if x not in objects or y not in objects:
                raise ValueError(f"morphism {name} has unknown endpoint")
        for x in objects:
            e = identity.get(x)
            if e is None or morphisms.get(e) != (x, x):
                raise ValueError(f"object {x} lacks an identity endomorphism")
        composition = dict(composition)
        homs: dict[tuple[str, str], list[str]] = {}
        for name, (x, y) in morphisms.items():
            homs.setdefault((x, y), []).append(name)
            composition.setdefault((identity[y], name), name)
            composition.setdefault((name, identity[x]), name)
        for (g, f), h in composition.items():
            try:
                (gx, gy), (fx, fy), hxy = morphisms[g], morphisms[f], morphisms[h]
            except KeyError as exc:
                raise ValueError(f"composition entry ({g},{f})={h} names unknown morphism {exc.args[0]!r}") from None
            if fy != gx:
                raise ValueError(f"composition entry ({g},{f}) is not composable")
            if hxy != (fx, gy):
                raise ValueError(f"composition ({g},{f})={h} has wrong endpoints")
        vars(self).update(
            objects=objects,
            morphisms=MappingProxyType(morphisms),
            identity=MappingProxyType(identity),
            composition=MappingProxyType(composition),
            _homs=MappingProxyType({pair: tuple(names) for pair, names in homs.items()}),  # nonempty hom sets
        )
        violations = self._law_violations()
        if violations:
            raise ValueError("invalid presentation: " + "; ".join(violations[:3]))
        # a two-sided inverse needs the whole table, so this waits for the law check
        vars(self)["inverse"] = MappingProxyType({
            f: next((g for g in self.hom_set(y, x) if self.comp(g, f) == identity[x] and self.comp(f, g) == identity[y]), None)
            for f, (x, y) in morphisms.items()
        })

    def __setattr__(self, name, value):
        raise AttributeError("FiniteCatPresentation is immutable")

    def _law_violations(self) -> list[str]:
        """The composable pairs the table misses or, when it is total, the
        triples that do not associate and the morphisms a unit law fails for.
        (h.g).f = h.(g.f) holds for an identity h by the unit laws, and for
        s.h once it holds for s and h; so when the unit laws hold, triples
        headed by _generators() are checked, and every triple when one fails."""
        into: dict[str, list[str]] = {x: [] for x in self.objects}
        for (_, y), names in self._homs.items():
            into[y].extend(names)
        missing = [
            f"composition table is missing the pair ({g},{f})"
            for g, (gx, _) in self.morphisms.items()
            for f in into[gx]
            if (g, f) not in self.composition
        ]
        if missing:
            return missing
        comp = self.comp
        units = [
            f"unit law fails for {f}"
            for f, (x, y) in self.morphisms.items()
            if comp(self.identity[y], f) != f or comp(f, self.identity[x]) != f
        ]

        def associativity(heads) -> list[str]:
            return [
                f"associativity fails on triple ({h},{g},{f})"
                for h in heads
                for g in into[self.morphisms[h][0]]
                for f in into[self.morphisms[g][0]]
                if comp(comp(h, g), f) != comp(h, comp(g, f))
            ]

        if units or associativity(self._generators()):
            return associativity(self.morphisms) + units
        return []

    def _generators(self) -> list[str]:
        """Morphisms S, in the order of morphisms, that reach every morphism
        as s1.(s2.(... .(sk.1_x))) through the table: a morphism joins S when
        it is not reached by those before it."""
        reached, gens = set(self.identity.values()), []
        for m in self.morphisms:
            if m in reached:
                continue
            gens.append(m)
            todo = list(reached)
            while todo:
                r = todo.pop()
                for s in gens:
                    sr = self.composition.get((s, r))
                    if sr is not None and sr not in reached:
                        reached.add(sr)
                        todo.append(sr)
        return gens

    def hom_set(self, x: str, y: str) -> list[str]:
        return list(self._homs.get((x, y), ()))

    def comp(self, g: str, f: str) -> str:
        return self.composition[(g, f)]


def classify_presentation(p: FiniteCatPresentation) -> PresentationFlags:
    """Groupoid / delta flags of a presentation, whose laws its constructor
    has checked.

    Delta means: every endomorphism set is exactly the identity, and no two
    distinct objects have morphisms both ways (such a pair would compose to
    identities and yield a cross-object isomorphism).
    """
    is_groupoid = None not in p.inverse.values()
    is_delta = all(p.hom_set(x, x) == [p.identity[x]] for x in p.objects) and not any(
        x != y and (y, x) in p._homs for x, y in p._homs
    )
    return PresentationFlags(is_groupoid=is_groupoid, is_delta=is_delta)


def linearize(p: FiniteCatPresentation, k: Field) -> FinLinCat:
    """The K-linearization: hom bases are the hom sets of p, in the order
    hom_set gives them, and g . f is the basis label p.comp(g, f). p is a
    category by construction, so its linearization satisfies the category
    axioms."""
    composition = {gf: ((h, k.one),) for gf, h in p.composition.items()}
    identity = {x: ((p.identity[x], k.one),) for x in p.objects}
    return FinLinCat(k, p.objects, p._homs, composition, identity)


def opposite(c: FinLinCat) -> FinLinCat:
    """The opposite category C^op: its hom(x, y) is c's hom(y, x) with the
    same labels, g . f in C^op is f . g in C, and the identities are c's.
    A left C^op-module is a right C-module."""
    hom_basis = {(y, x): labels for (x, y), labels in c.hom_basis.items()}
    composition = {
        (f, g): [(c.hom(c.label_info[f][0], c.label_info[g][1])[k], v) for k, v in terms]
        for (g, f), terms in c.comp_table.items()
    }
    identity = {x: zip(c.hom(x, x), vec) for x, vec in c.identity.items()}
    return FinLinCat(c.field, c.objects, hom_basis, composition, identity)

"""Stock finite category presentations: groups, groupoids, posets, monoids.

These feed the test corpus and double as worked examples for the JSON
interchange formats.
"""

from __future__ import annotations

import random
from typing import Sequence

from .lincat import FiniteCatPresentation

__all__ = [
    "one_object_monoid",
    "cyclic_group",
    "klein_four",
    "connected_groupoid",
    "poset_category",
    "chain_poset",
    "vee_poset",
    "discrete_category",
    "idempotent_monoid",
    "random_presentation",
]


def one_object_monoid(elements: Sequence[str], table: dict[tuple[str, str], str], unit: str) -> FiniteCatPresentation:
    """A monoid as a one-object category on the object x; table is total
    multiplication."""
    morphisms = {e: ("x", "x") for e in elements}
    return FiniteCatPresentation(["x"], morphisms, {"x": unit}, table)


def cyclic_group(n: int) -> FiniteCatPresentation:
    """Z/n as a one-object groupoid with elements g0 (= identity), g1, ..."""
    if n < 1:
        raise ValueError("n must be positive")
    elements = [f"g{i}" for i in range(n)]
    table = {(f"g{i}", f"g{j}"): f"g{(i + j) % n}" for i in range(n) for j in range(n)}
    return one_object_monoid(elements, table, "g0")


def klein_four() -> FiniteCatPresentation:
    """Z/2 x Z/2 as a one-object groupoid."""
    els = ["e", "a", "b", "c"]
    mul = {}
    code = {"e": (0, 0), "a": (1, 0), "b": (0, 1), "c": (1, 1)}
    dec = {v: k for k, v in code.items()}
    for g in els:
        for h in els:
            gg, hh = code[g], code[h]
            mul[(g, h)] = dec[((gg[0] + hh[0]) % 2, (gg[1] + hh[1]) % 2)]
    return one_object_monoid(els, mul, "e")


def connected_groupoid(group: FiniteCatPresentation, n_objects: int) -> FiniteCatPresentation:
    """The connected groupoid on n objects with the given one-object vertex group.

    The morphism i -> j carrying group element g is named "g:i>j"; composition is
    (h:j>k) . (g:i>j) = (hg):i>k.
    """
    if n_objects < 1:
        raise ValueError("need at least one object")
    if len(group.objects) != 1:
        raise ValueError("vertex group must be a one-object presentation")
    (base,) = group.objects
    els = list(group.morphisms)
    objects = [f"o{i}" for i in range(n_objects)]
    morphisms = {}
    for i in range(n_objects):
        for j in range(n_objects):
            for g in els:
                morphisms[f"{g}:{i}>{j}"] = (objects[i], objects[j])
    unit = group.identity[base]
    identity = {objects[i]: f"{unit}:{i}>{i}" for i in range(n_objects)}
    composition = {}
    for i in range(n_objects):
        for j in range(n_objects):
            for k in range(n_objects):
                for g in els:
                    for h in els:
                        hg = group.comp(h, g)
                        composition[(f"{h}:{j}>{k}", f"{g}:{i}>{j}")] = f"{hg}:{i}>{k}"
    return FiniteCatPresentation(objects, morphisms, identity, composition)


def poset_category(objects: Sequence[str], relations: Sequence[tuple[str, str]]) -> FiniteCatPresentation:
    """The incidence category of the poset generated by x <= y relations.

    The unique morphism x -> y (when x <= y) is named "x<=y"; the reflexive
    and transitive closure of the given relations is taken.
    """
    objects = list(objects)
    le = {(x, x) for x in objects}
    le.update(relations)
    changed = True
    while changed:
        changed = False
        for (a, b) in list(le):
            for (c, d) in list(le):
                if b == c and (a, d) not in le:
                    le.add((a, d))
                    changed = True
    for x in objects:
        for y in objects:
            if x != y and (x, y) in le and (y, x) in le:
                raise ValueError(f"relation is not antisymmetric on ({x},{y})")
    morphisms = {f"{x}<={y}": (x, y) for (x, y) in sorted(le)}
    identity = {x: f"{x}<={x}" for x in objects}
    composition = {}
    for (x, y) in le:
        for (y2, z) in le:
            if y == y2:
                composition[(f"{y}<={z}", f"{x}<={y}")] = f"{x}<={z}"
    return FiniteCatPresentation(objects, morphisms, identity, composition)


def chain_poset(n: int) -> FiniteCatPresentation:
    """The chain x1 < x2 < ... < xn (the A_n quiver as a poset)."""
    objects = [f"x{i}" for i in range(1, n + 1)]
    relations = [(objects[i], objects[i + 1]) for i in range(n - 1)]
    return poset_category(objects, relations)


def vee_poset() -> FiniteCatPresentation:
    """The poset {x < z > y}: two minimal elements under a common top."""
    return poset_category(["x", "y", "z"], [("x", "z"), ("y", "z")])


def discrete_category(n: int) -> FiniteCatPresentation:
    objects = [f"x{i}" for i in range(1, n + 1)]
    morphisms = {f"id{x}": (x, x) for x in objects}
    identity = {x: f"id{x}" for x in objects}
    return FiniteCatPresentation(objects, morphisms, identity, {})


def idempotent_monoid() -> FiniteCatPresentation:
    """The two-element monoid {1, a} with a.a = a (neither groupoid nor delta)."""
    return one_object_monoid(["e", "a"], {("e", "e"): "e", ("e", "a"): "a", ("a", "e"): "a", ("a", "a"): "a"}, "e")


_RANDOM_FAMILIES = (
    "cyclic",
    "klein",
    "connected_groupoid",
    "chain",
    "vee",
    "discrete",
    "idempotent",
    "disjoint_pair",
)


def random_presentation(seed: int) -> FiniteCatPresentation:
    """A seeded random small presentation drawn from the stock families."""
    rng = random.Random(seed)
    kind = rng.choice(_RANDOM_FAMILIES)
    if kind == "cyclic":
        return cyclic_group(rng.randint(1, 4))
    if kind == "klein":
        return klein_four()
    if kind == "connected_groupoid":
        return connected_groupoid(cyclic_group(rng.randint(1, 3)), rng.randint(1, 2))
    if kind == "chain":
        return chain_poset(rng.randint(2, 3))
    if kind == "vee":
        return vee_poset()
    if kind == "discrete":
        return discrete_category(rng.randint(1, 3))
    if kind == "idempotent":
        return idempotent_monoid()
    # disjoint union of a cyclic group object and an isolated object
    n = rng.randint(1, 3)
    g = cyclic_group(n)
    objects = list(g.objects) + ["y"]
    morphisms = dict(g.morphisms)
    morphisms["idy"] = ("y", "y")
    identity = dict(g.identity)
    identity["y"] = "idy"
    return FiniteCatPresentation(objects, morphisms, identity, dict(g.composition))

"""JSON interchange formats for categories, modules, certificates, reports.

All scalar values are exchanged as text: rationals as "n" or "n/d" in
lowest terms with positive denominator, prime-field elements as the least
non-negative residue in decimal. Omitted hom pairs, composition entries,
module spaces, and certificate blocks are zero. Each keyed entry (a hom
pair, morphism name, composition pair, space, action or map block) is
given at most once; repeated certificate terms and blocks add up.
Malformed documents raise ValueError.
"""

from __future__ import annotations

from typing import Any

from .exactalg import Field, Matrix, _is_int
from .lincat import FinLinCat, FiniteCatPresentation
from .cmod import Bimodule, BimoduleMap, LeftModule, ShortExactSeq
from .cohomology import CohomologyResult, LesReport
from .separability import SeparabilityFamily

__all__ = [
    "category_to_json",
    "category_from_json",
    "presentation_to_json",
    "presentation_from_json",
    "bimodule_to_json",
    "bimodule_from_json",
    "left_module_to_json",
    "left_module_from_json",
    "ses_to_json",
    "ses_from_json",
    "certificate_to_json",
    "certificate_from_json",
    "cohomology_report_to_json",
    "les_report_to_json",
]


def _require(doc: Any, key: str, context: str):
    if not isinstance(doc, dict) or key not in doc:
        raise ValueError(f"{context}: missing member {key!r}")
    return doc[key]


def _require_type(value: Any, kind: type, member: str, context: str):
    """value, after checking that the JSON member is an array (list) or an
    object (dict): a string would otherwise be read one character at a
    time, and an array of pairs as an object."""
    if not isinstance(value, kind):
        name = "a JSON array" if kind is list else "a JSON object"
        raise ValueError(f"{context}: member {member!r} must be {name}")
    return value


def _keyed(entries: list, fields: tuple[str, ...], entry_name: str, member: str, context: str):
    """(key, entry) for each entry of the JSON array member, key being the
    tuple of the entry's values of fields. Each key is given at most once:
    a later entry would otherwise replace an earlier one without a word."""
    seen = set()
    for entry in entries:
        key = tuple(_require(entry, name, entry_name) for name in fields)
        if key in seen:
            shown = key if len(key) > 1 else key[0]
            raise ValueError(f"{context}: member {member!r} gives the key {shown!r} more than once")
        seen.add(key)
        yield key, entry


def _require_dim(entry: Any) -> int:
    dim = _require(entry, "dim", "space entry")
    if not _is_int(dim) or dim < 0:
        raise ValueError(f"space entry: member 'dim' must be a non-negative integer, not {dim!r}")
    return dim


def category_to_json(c: FinLinCat) -> dict:
    homs = []
    for x in c.objects:
        for y in c.objects:
            basis = c.hom(x, y)
            if basis:
                homs.append({"from": x, "to": y, "basis": list(basis)})
    identity = {}
    for x in c.objects:
        labels = c.hom(x, x)
        identity[x] = {
            labels[t]: c.field.format(v) for t, v in enumerate(c.identity[x]) if v
        }
    composition = []
    for (g, f), terms in sorted(c.comp_table.items()):
        x, _, _ = c.label_info[f]
        _, z, _ = c.label_info[g]
        basis = c.hom(x, z)
        result = [{"basis": basis[k], "coeff": c.field.format(v)} for k, v in terms]
        composition.append({"g": g, "f": f, "result": result})
    return {
        "field": c.field.to_json(),
        "objects": list(c.objects),
        "homs": homs,
        "identity": identity,
        "composition": composition,
    }


def category_from_json(doc: dict) -> FinLinCat:
    """The category a document describes. This checks the JSON shape and
    reads the scalars; FinLinCat checks the labels and the hom spaces."""
    field = Field.from_json(_require(doc, "field", "category"))
    objects = _require_type(_require(doc, "objects", "category"), list, "objects", "category")
    hom_basis: dict[tuple[str, str], list[str]] = {}
    for pair, entry in _keyed(doc.get("homs", []), ("from", "to"), "hom entry", "homs", "category"):
        basis = _require(entry, "basis", "hom entry")
        if not isinstance(basis, list):
            raise ValueError(f"category: member 'basis' of hom entry {pair} must be a JSON array")
        hom_basis[pair] = basis
    identity_doc = _require_type(_require(doc, "identity", "category"), dict, "identity", "category")
    identity = {}
    for x, coeffs in identity_doc.items():
        if not isinstance(coeffs, dict):
            raise ValueError(f"category: member 'identity' of object {x!r} must be a JSON object")
        identity[x] = [(lab, field.of_text(text)) for lab, text in coeffs.items()]
    composition = {}
    entries = doc.get("composition", [])
    for key, entry in _keyed(entries, ("g", "f"), "composition entry", "composition", "category"):
        composition[key] = [
            (_require(term, "basis", "composition term"), field.of_text(_require(term, "coeff", "composition term")))
            for term in _require(entry, "result", "composition entry")
        ]
    return FinLinCat(field, objects, hom_basis, composition, identity)


def presentation_to_json(p: FiniteCatPresentation) -> dict:
    return {
        "objects": list(p.objects),
        "morphisms": [
            {"name": name, "from": src, "to": tgt} for name, (src, tgt) in p.morphisms.items()
        ],
        "identity": dict(p.identity),
        "composition": [
            {"g": g, "f": f, "result": h} for (g, f), h in sorted(p.composition.items())
        ],
    }


def presentation_from_json(doc: dict) -> FiniteCatPresentation:
    objects = _require_type(_require(doc, "objects", "presentation"), list, "objects", "presentation")
    morphisms = {}
    entries = _require_type(_require(doc, "morphisms", "presentation"), list, "morphisms", "presentation")
    for (name,), entry in _keyed(entries, ("name",), "morphism entry", "morphisms", "presentation"):
        morphisms[name] = (_require(entry, "from", "morphism entry"), _require(entry, "to", "morphism entry"))
    identity = _require_type(_require(doc, "identity", "presentation"), dict, "identity", "presentation")
    composition = {}
    entries = _require_type(doc.get("composition", []), list, "composition", "presentation")
    for key, entry in _keyed(entries, ("g", "f"), "composition entry", "composition", "presentation"):
        composition[key] = _require(entry, "result", "composition entry")
    return FiniteCatPresentation(objects, morphisms, identity, composition)


def bimodule_to_json(m: Bimodule) -> dict:
    c = m.cat
    spaces = [
        {"x": x, "y": y, "dim": m.dims[(x, y)]}
        for x in c.objects
        for y in c.objects
        if m.dims[(x, y)]
    ]
    left = []
    for f in sorted(c.label_info):
        for y in c.objects:
            mat = m.left[(f, y)]
            if mat.rows * mat.cols:
                left.append({"f": f, "y": y, "matrix": mat.to_json()})
    right = []
    for g in sorted(c.label_info):
        for x in c.objects:
            mat = m.right[(g, x)]
            if mat.rows * mat.cols:
                right.append({"g": g, "x": x, "matrix": mat.to_json()})
    return {"spaces": spaces, "left_action": left, "right_action": right}


def bimodule_from_json(c: FinLinCat, doc: dict) -> Bimodule:
    dims = {(x, y): 0 for x in c.objects for y in c.objects}
    entries = _require(doc, "spaces", "bimodule")
    for pair, entry in _keyed(entries, ("x", "y"), "space entry", "spaces", "bimodule"):
        if pair not in dims:
            raise ValueError(f"bimodule: space entry names unknown objects {pair}")
        dims[pair] = _require_dim(entry)
    left = {}
    entries = doc.get("left_action", [])
    for (f, y), entry in _keyed(entries, ("f", "y"), "left action entry", "left_action", "bimodule"):
        if f not in c.label_info:
            raise ValueError(f"bimodule: unknown morphism label {f!r}")
        x, x2, _ = c.label_info[f]
        left[(f, y)] = Matrix.from_json(
            c.field, dims[(x2, y)], dims[(x, y)], _require(entry, "matrix", "left action entry")
        )
    right = {}
    entries = doc.get("right_action", [])
    for (g, x), entry in _keyed(entries, ("g", "x"), "right action entry", "right_action", "bimodule"):
        if g not in c.label_info:
            raise ValueError(f"bimodule: unknown morphism label {g!r}")
        y2, y, _ = c.label_info[g]
        right[(g, x)] = Matrix.from_json(
            c.field, dims[(x, y2)], dims[(x, y)], _require(entry, "matrix", "right action entry")
        )
    for f, (x, x2, _) in c.label_info.items():
        for y in c.objects:
            if (f, y) not in left:
                if dims[(x2, y)] * dims[(x, y)]:
                    raise ValueError(f"bimodule: missing left action for ({f},{y})")
                left[(f, y)] = Matrix.zeros(c.field, dims[(x2, y)], dims[(x, y)])
    for g, (y2, y, _) in c.label_info.items():
        for x in c.objects:
            if (g, x) not in right:
                if dims[(x, y2)] * dims[(x, y)]:
                    raise ValueError(f"bimodule: missing right action for ({g},{x})")
                right[(g, x)] = Matrix.zeros(c.field, dims[(x, y2)], dims[(x, y)])
    return Bimodule(c, dims, left, right)


def left_module_to_json(m: LeftModule) -> dict:
    c = m.cat
    spaces = [{"x": x, "dim": m.dims[x]} for x in c.objects if m.dims[x]]
    action = []
    for f in sorted(c.label_info):
        mat = m.action[f]
        if mat.rows * mat.cols:
            action.append({"f": f, "matrix": mat.to_json()})
    return {"spaces": spaces, "action": action}


def left_module_from_json(c: FinLinCat, doc: dict) -> LeftModule:
    dims = {x: 0 for x in c.objects}
    entries = _require(doc, "spaces", "left module")
    for (x,), entry in _keyed(entries, ("x",), "space entry", "spaces", "left module"):
        if x not in dims:
            raise ValueError(f"left module: unknown object {x!r}")
        dims[x] = _require_dim(entry)
    action = {}
    for (f,), entry in _keyed(doc.get("action", []), ("f",), "action entry", "action", "left module"):
        if f not in c.label_info:
            raise ValueError(f"left module: unknown morphism label {f!r}")
        x, y, _ = c.label_info[f]
        action[f] = Matrix.from_json(c.field, dims[y], dims[x], _require(entry, "matrix", "action entry"))
    for f, (x, y, _) in c.label_info.items():
        if f not in action:
            if dims[x] * dims[y]:
                raise ValueError(f"left module: missing action for {f}")
            action[f] = Matrix.zeros(c.field, dims[y], dims[x])
    return LeftModule(c, dims, action)


def _map_blocks_to_json(m: BimoduleMap) -> list:
    c = m.source.cat
    out = []
    for x in c.objects:
        for y in c.objects:
            blk = m.blocks[(x, y)]
            if blk.rows * blk.cols:
                out.append({"x": x, "y": y, "matrix": blk.to_json()})
    return out


def _map_blocks_from_json(c: FinLinCat, src: Bimodule, tgt: Bimodule, doc: dict, member: str) -> BimoduleMap:
    blocks = {
        (x, y): Matrix.zeros(c.field, tgt.dims[(x, y)], src.dims[(x, y)])
        for x in c.objects
        for y in c.objects
    }
    entries = _require(doc, member, "short exact sequence")
    for pair, entry in _keyed(entries, ("x", "y"), "map entry", member, "short exact sequence"):
        blocks[pair] = Matrix.from_json(
            c.field, tgt.dims[pair], src.dims[pair], _require(entry, "matrix", "map entry")
        )
    return BimoduleMap(src, tgt, blocks)


def ses_to_json(s: ShortExactSeq) -> dict:
    return {
        "M": bimodule_to_json(s.m),
        "N": bimodule_to_json(s.n),
        "P": bimodule_to_json(s.p),
        "i": _map_blocks_to_json(s.i),
        "q": _map_blocks_to_json(s.q),
    }


def ses_from_json(c: FinLinCat, doc: dict) -> ShortExactSeq:
    m = bimodule_from_json(c, _require(doc, "M", "short exact sequence"))
    n = bimodule_from_json(c, _require(doc, "N", "short exact sequence"))
    p = bimodule_from_json(c, _require(doc, "P", "short exact sequence"))
    i = _map_blocks_from_json(c, m, n, doc, "i")
    q = _map_blocks_from_json(c, n, p, doc, "q")
    return ShortExactSeq(m, n, p, i, q)


def certificate_to_json(c: FinLinCat, fam: SeparabilityFamily) -> list:
    out = []
    for x in c.objects:
        for y in c.objects:
            blk = fam.blocks.get((x, y))
            if blk is None or blk.is_zero():
                continue
            us = c.hom(y, x)
            vs = c.hom(x, y)
            terms = []
            for i, row in enumerate(blk.row_terms):
                for j, v in row:
                    terms.append({"coeff": c.field.format(v), "u": us[i], "v": vs[j]})
            out.append({"x": x, "y": y, "terms": terms})
    return out


def certificate_from_json(c: FinLinCat, doc: list) -> SeparabilityFamily:
    if not isinstance(doc, list):
        raise ValueError("certificate: expected a JSON array of blocks")
    # repeated terms and blocks add up: coefficients per block and cell
    sums: dict[tuple[str, str], dict[tuple[int, int], object]] = {}
    for entry in doc:
        x = _require(entry, "x", "certificate block")
        y = _require(entry, "y", "certificate block")
        if x not in c.objects or y not in c.objects:
            raise ValueError(f"certificate: unknown objects ({x},{y})")
        us = c.hom(y, x)
        vs = c.hom(x, y)
        cells = sums.setdefault((x, y), {})
        for term in entry.get("terms", []):
            u = _require(term, "u", "certificate term")
            v = _require(term, "v", "certificate term")
            if u not in us:
                raise ValueError(f"certificate: label {u!r} is not in hom({y},{x})")
            if v not in vs:
                raise ValueError(f"certificate: label {v!r} is not in hom({x},{y})")
            cell = (us.index(u), vs.index(v))
            coeff = c.field.of_text(_require(term, "coeff", "certificate term"))
            cells[cell] = c.field.add(cells.get(cell, c.field.zero), coeff)
    blocks = {
        (x, y): Matrix.from_entries(
            c.field, c.dim_hom(y, x), c.dim_hom(x, y), ((i, j, v) for (i, j), v in cells.items())
        )
        for (x, y), cells in sums.items()
    }
    return SeparabilityFamily(blocks)


def cohomology_report_to_json(result: CohomologyResult, budget_exceeded: bool = False) -> dict:
    return {
        "degrees": [
            {"n": d.n, "dim_cochain": d.dim_cochain, "rank_d": d.rank_d, "dim_H": d.dim_h}
            for d in result.degrees
        ],
        "budget_exceeded": budget_exceeded,
    }


def les_report_to_json(report: LesReport) -> dict:
    return {
        "degrees": [
            {"n": d.n, "dim_H_M": d.dim_h_m, "dim_H_N": d.dim_h_n, "dim_H_P": d.dim_h_p}
            for d in report.degrees
        ],
        "connecting_ranks": list(report.connecting_ranks),
        "positions": [
            {
                "position": r.position,
                "incoming_rank": r.incoming_rank,
                "kernel_dim": r.kernel_dim,
                "exact": r.exact,
            }
            for r in report.positions
        ],
    }

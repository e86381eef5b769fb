"""JSON interchange formats for categories, modules, certificates, reports.

All scalar values are exchanged as text: rationals as "n" or "n/d" in
lowest terms with positive denominator, prime-field elements as the least
non-negative residue in decimal; a prime field {"Fp": p} needs a prime
p < 2**64. Omitted hom pairs, composition entries, module spaces, map
blocks of a short exact sequence, and certificate blocks are zero; an
action may be omitted only where its matrix is empty. Each keyed entry (a
hom pair, morphism name, composition pair, space, action or map block) is
given at most once, in a JSON array, and an entry naming an unknown label
or object is malformed; repeated certificate terms and blocks add up.
Names of objects, basis labels and morphisms are JSON strings: a number
would be taken for a name, and an array or object cannot be one.
Malformed documents raise ValueError.
"""

from __future__ import annotations

from itertools import product
from operator import itemgetter
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
    """value, after checking that the JSON member is an array (list), an
    object (dict) or a string (str, for a name): a string would otherwise
    be read one character at a time, an array of pairs as an object, and a
    number as a name."""
    if not isinstance(value, kind):
        if kind is str:
            raise ValueError(f"{context}: member {member!r} holds {value!r}, not a JSON string")
        name = "a JSON array" if kind is list else "a JSON object"
        raise ValueError(f"{context}: member {member!r} must be {name}")
    return value


def _keyed(entries: Any, fields: tuple[str, ...], entry_name: str, member: str, context: str, known: dict | None = None):
    """(key, entry) for each entry of the JSON array member, key being the
    entry's value of its one field, or the tuple of its values of fields.
    Each key is given at most once: a later entry would otherwise replace
    an earlier one without a word. With known given, each key is in it.
    A key field may not hold a JSON array or object, which names nothing."""
    seen = set()
    key_of = itemgetter(*fields)
    for entry in _require_type(entries, list, member, context):
        try:
            key = key_of(entry)
            repeated = key in seen
        except (KeyError, TypeError):
            # an entry that is no JSON object, a missing key field, or one holding an array or object
            for name, value in zip(fields, [_require(entry, name, entry_name) for name in fields]):
                if isinstance(value, (list, dict)):
                    raise ValueError(
                        f"{context}: member {member!r} has a {entry_name} whose {name!r} is a JSON array or object"
                    ) from None
            raise
        if repeated:
            raise ValueError(f"{context}: member {member!r} gives the key {key!r} more than once")
        if known is not None and key not in known:
            raise ValueError(f"{context}: member {member!r} names the unknown key {key!r}")
        seen.add(key)
        yield key, entry


def _dims_from_json(doc: Any, fields: tuple[str, ...], keys, context: str) -> dict:
    """The dimension of the space at each key, 0 where member 'spaces' of
    the module document doc gives none."""
    dims = dict.fromkeys(keys, 0)
    for key, entry in _keyed(_require(doc, "spaces", context), fields, "space entry", "spaces", context, dims):
        dim = dims[key] = _require(entry, "dim", "space entry")
        if not _is_int(dim) or dim < 0:
            raise ValueError(f"space entry: member 'dim' must be a non-negative integer, not {dim!r}")
    return dims


def _table_from_json(field: Field, entries: Any, fields: tuple[str, ...], shapes: dict, what: str, member: str,
                     context: str, required: bool) -> dict:
    """The matrix at each key of shapes, read from the keyed table member: a
    JSON array of {fields..., "matrix"} entries, each naming a key of
    shapes. A key without an entry gets the zero matrix of its shape; when
    required (an action), only where that shape is empty. An unreadable
    matrix is named by its member and key."""

    def shown(key) -> str:
        return f"({','.join(key)})" if len(fields) > 1 else key

    given = {}
    for key, entry in _keyed(entries, fields, f"{what} entry", member, context, shapes):
        texts = _require(entry, "matrix", f"{what} entry")
        try:
            given[key] = Matrix.from_json(field, *shapes[key], texts)
        except ValueError as err:
            raise ValueError(f"{context}: member {member!r}, {what} for {shown(key)}: {err}") from err
    for key, (rows, cols) in shapes.items():
        if required and rows * cols and key not in given:
            raise ValueError(f"{context}: missing {what} for {shown(key)}")
    return {key: given[key] if key in given else Matrix.zeros(field, *shape) for key, shape in shapes.items()}


def _table_to_json(mats: dict, keys, fields: tuple[str, ...]) -> list:
    """The keyed table of mats: one {fields..., "matrix"} entry for each
    key of keys whose matrix is not empty, in the order of keys."""
    out = []
    for key in keys:
        mat = mats[key]
        if mat.rows * mat.cols:
            out.append({**dict(zip(fields, key if len(fields) > 1 else (key,))), "matrix": mat.to_json()})
    return out


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
    reads the scalars; FinLinCat checks the labels and the hom spaces.
    A composition term that is a JSON object with a string 'basis' and
    string 'coeff' is read as it stands, each distinct scalar text parsed
    once; any other term takes the member checks, which name its fault."""
    field = Field.from_json(_require(doc, "field", "category"))
    objects = _require_type(_require(doc, "objects", "category"), list, "objects", "category")
    for x in objects:
        _require_type(x, str, "objects", "category")
    hom_basis: dict[tuple[str, str], list[str]] = {}
    for pair, entry in _keyed(doc.get("homs", []), ("from", "to"), "hom entry", "homs", "category"):
        basis = _require(entry, "basis", "hom entry")
        if not isinstance(basis, list):
            raise ValueError(f"category: member 'basis' of hom entry {pair} must be a JSON array")
        hom_basis[pair] = [_require_type(lab, str, "basis", "category") for lab in basis]
    parsed: dict[str, object] = {}

    def scalar(text):
        # each distinct scalar text is parsed once; of_text rejects any other value
        if text.__class__ is not str or text not in parsed:
            parsed[text] = field.of_text(text)
        return parsed[text]

    identity_doc = _require_type(_require(doc, "identity", "category"), dict, "identity", "category")
    identity = {}
    for x, coeffs in identity_doc.items():
        if not isinstance(coeffs, dict):
            raise ValueError(f"category: member 'identity' of object {x!r} must be a JSON object")
        identity[x] = [(lab, scalar(text)) for lab, text in coeffs.items()]
    composition = {}
    entries = doc.get("composition", [])
    for key, entry in _keyed(entries, ("g", "f"), "composition entry", "composition", "category"):
        composition[key] = [
            (term["basis"], scalar(term["coeff"]))
            if term.__class__ is dict and term.get("basis").__class__ is str and term.get("coeff").__class__ is str
            else (_require_type(_require(term, "basis", "composition term"), str, "basis", "category"),
                  scalar(_require(term, "coeff", "composition term")))
            for term in _require_type(_require(entry, "result", "composition entry"), list, "result", "category")
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
    context = "presentation"
    objects = _require_type(_require(doc, "objects", context), list, "objects", context)
    for x in objects:
        _require_type(x, str, "objects", context)
    morphisms = {}
    entries = _require(doc, "morphisms", context)
    for name, entry in _keyed(entries, ("name",), "morphism entry", "morphisms", context):
        morphisms[_require_type(name, str, "name", context)] = tuple(
            _require_type(_require(entry, end, "morphism entry"), str, end, context) for end in ("from", "to")
        )
    identity = _require_type(_require(doc, "identity", context), dict, "identity", context)
    for e in identity.values():
        _require_type(e, str, "identity", context)
    composition = {}
    entries = doc.get("composition", [])
    for key, entry in _keyed(entries, ("g", "f"), "composition entry", "composition", context):
        composition[key] = _require_type(_require(entry, "result", "composition entry"), str, "result", context)
    return FiniteCatPresentation(objects, morphisms, identity, composition)


def bimodule_to_json(m: Bimodule) -> dict:
    c = m.cat
    spaces = [
        {"x": x, "y": y, "dim": m.dims[(x, y)]}
        for x in c.objects
        for y in c.objects
        if m.dims[(x, y)]
    ]
    keys = list(product(sorted(c.label_info), c.objects))
    return {
        "spaces": spaces,
        "left_action": _table_to_json(m.left, keys, ("f", "y")),
        "right_action": _table_to_json(m.right, keys, ("g", "x")),
    }


def bimodule_from_json(c: FinLinCat, doc: dict) -> Bimodule:
    dims = _dims_from_json(doc, ("x", "y"), product(c.objects, repeat=2), "bimodule")
    # f: x -> x2 acts at column y, g: y2 -> y at row x
    shapes = {(f, y): (dims[(x2, y)], dims[(x, y)]) for f, (x, x2, _) in c.label_info.items() for y in c.objects}
    left = _table_from_json(
        c.field, doc.get("left_action", []), ("f", "y"), shapes, "left action", "left_action", "bimodule", True
    )
    shapes = {(g, x): (dims[(x, y2)], dims[(x, y)]) for g, (y2, y, _) in c.label_info.items() for x in c.objects}
    right = _table_from_json(
        c.field, doc.get("right_action", []), ("g", "x"), shapes, "right action", "right_action", "bimodule", True
    )
    return Bimodule(c, dims, left, right)


def left_module_to_json(m: LeftModule) -> dict:
    c = m.cat
    spaces = [{"x": x, "dim": m.dims[x]} for x in c.objects if m.dims[x]]
    return {"spaces": spaces, "action": _table_to_json(m.action, sorted(c.label_info), ("f",))}


def left_module_from_json(c: FinLinCat, doc: dict) -> LeftModule:
    dims = _dims_from_json(doc, ("x",), c.objects, "left module")
    shapes = {f: (dims[y], dims[x]) for f, (x, y, _) in c.label_info.items()}
    entries = doc.get("action", [])
    action = _table_from_json(c.field, entries, ("f",), shapes, "action", "action", "left module", True)
    return LeftModule(c, dims, action)


def ses_to_json(s: ShortExactSeq) -> dict:
    pairs = list(product(s.m.cat.objects, repeat=2))
    return {
        "M": bimodule_to_json(s.m),
        "N": bimodule_to_json(s.n),
        "P": bimodule_to_json(s.p),
        "i": _table_to_json(s.i.blocks, pairs, ("x", "y")),
        "q": _table_to_json(s.q.blocks, pairs, ("x", "y")),
    }


def ses_from_json(c: FinLinCat, doc: dict) -> ShortExactSeq:
    context = "short exact sequence"
    m, n, p = (bimodule_from_json(c, _require(doc, name, context)) for name in "MNP")

    def map_from_json(src: Bimodule, tgt: Bimodule, member: str) -> BimoduleMap:
        shapes = {pair: (tgt.dims[pair], src.dims[pair]) for pair in src.dims}
        entries = _require(doc, member, context)
        blocks = _table_from_json(c.field, entries, ("x", "y"), shapes, "map", member, context, False)
        return BimoduleMap(src, tgt, blocks)

    return ShortExactSeq(m, n, p, map_from_json(m, n, "i"), map_from_json(n, p, "q"))


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
        for term in _require_type(entry.get("terms", []), list, "terms", "certificate"):
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

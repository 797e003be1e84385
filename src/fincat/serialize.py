"""UTF-8 structured-text (JSON) serialization with round-trip identity.

Sets are {"size": n, "labels": [...]}; maps are {"dom", "cod", "table"};
internal categories are {"C0", "C1", "d0", "d1", "i", "m"} where the
composition table is indexed by the canonical lexicographic enumeration of
composable pairs ((u, v) with source(u) = target(v), ordered by (index of u,
index of v)). Parse failures raise ParseError naming the field; well-formed
but lawless data raises ValidationError carrying the validator report.
"""

import json

from .errors import ParseError, ValidationError
from .finset import FinMap, FinObj
from .internal import (InternalCategory, InternalFunctor, InternalNatTrans,
                       count_pairs, validate_category, validate_functor,
                       validate_nat_trans)


def _dump(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def obj_doc(x: FinObj):
    doc = {"size": x.size}
    if x.labels is not None:
        doc["labels"] = list(x.labels)
    return doc


def map_doc(f: FinMap):
    return {"dom": obj_doc(f.dom), "cod": obj_doc(f.cod), "table": list(f.table)}


def category_doc(c: InternalCategory):
    return {"C0": obj_doc(c.C0), "C1": obj_doc(c.C1),
            "d0": list(c.d0.table), "d1": list(c.d1.table),
            "i": list(c.i.table), "m": list(c.m.table)}


def functor_doc(f: InternalFunctor):
    return {"dom": category_doc(f.dom), "cod": category_doc(f.cod),
            "f0": list(f.f0.table), "f1": list(f.f1.table)}


def nat_trans_doc(t: InternalNatTrans):
    return {"src": functor_doc(t.src), "tgt": functor_doc(t.tgt),
            "alpha": list(t.alpha.table)}


def serialize_obj(x):
    return _dump(obj_doc(x))


def serialize_map(f):
    return _dump(map_doc(f))


def serialize_category(c):
    return _dump(category_doc(c))


def serialize_functor(f):
    return _dump(functor_doc(f))


def serialize_nat_trans(t):
    return _dump(nat_trans_doc(t))


def serialize_report(report: dict):
    return _dump(report)


def parse_report(text):
    doc = _load(text)
    if not isinstance(doc, dict) or "entries" not in doc:
        raise ParseError("expected an audit report document")
    return doc


def _load(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: line {exc.lineno}", field=None) from exc
    except RecursionError as exc:
        raise ParseError("JSON nested too deeply") from exc


def _object(doc, field):
    if not isinstance(doc, dict):
        raise ParseError("expected an object document", field=field)


def _is_int(value):
    """JSON integers only: true and false are not indices."""
    return isinstance(value, int) and not isinstance(value, bool)


def _require(doc, field, kind=None):
    if field not in doc:
        raise ParseError("missing", field=field)
    value = doc[field]
    if kind is not None and (isinstance(value, bool)
                             or not isinstance(value, kind)):
        raise ParseError(f"expected {kind.__name__}", field=field)
    return value


def parse_obj_doc(doc, field="set"):
    _object(doc, field)
    size = _require(doc, "size", int)
    if size < 0:
        raise ParseError("must be at least 0", field=f"{field}.size")
    labels = doc.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or len(labels) != size:
            raise ParseError("labels length must equal size", field=f"{field}.labels")
        labels = tuple(labels)
    return FinObj(size, labels)


def parse_map_doc(doc, field="map"):
    _object(doc, field)
    dom = parse_obj_doc(_require(doc, "dom"), field=f"{field}.dom")
    cod = parse_obj_doc(_require(doc, "cod"), field=f"{field}.cod")
    table = _require(doc, "table", list)
    if len(table) != dom.size:
        raise ParseError("table length must equal dom size", field=f"{field}.table")
    if any(not _is_int(v) or not 0 <= v < cod.size for v in table):
        raise ParseError("table entry outside codomain", field=f"{field}.table")
    return FinMap(dom, cod, tuple(table))


def _table(doc, field, length, cod_size):
    table = _require(doc, field, list)
    if len(table) != length:
        raise ParseError(f"table length must be {length}", field=field)
    if any(not _is_int(v) or not 0 <= v < cod_size for v in table):
        raise ParseError("table entry out of range", field=field)
    return tuple(table)


def parse_category_doc(doc, field="category"):
    _object(doc, field)
    c0 = parse_obj_doc(_require(doc, "C0"), field=f"{field}.C0")
    c1 = parse_obj_doc(_require(doc, "C1"), field=f"{field}.C1")
    d0 = FinMap(c1, c0, _table(doc, "d0", c1.size, c0.size))
    d1 = FinMap(c1, c0, _table(doc, "d1", c1.size, c0.size))
    i = FinMap(c0, c1, _table(doc, "i", c0.size, c1.size))
    # count the composable pairs before listing them: a short document can
    # describe millions of pairs, and then its m cannot match
    n_pairs = count_pairs(d0.table, d1.table)
    m = FinMap(FinObj(n_pairs), c1, _table(doc, "m", n_pairs, c1.size))
    cat = InternalCategory(c0, c1, d0, d1, i, m)
    report = validate_category(cat)
    if not report.ok:
        raise ValidationError(report)
    return cat


def parse_functor_doc(doc, field="functor"):
    _object(doc, field)
    dom = parse_category_doc(_require(doc, "dom"), field=f"{field}.dom")
    cod = parse_category_doc(_require(doc, "cod"), field=f"{field}.cod")
    f0 = FinMap(dom.C0, cod.C0, _table(doc, "f0", dom.C0.size, cod.C0.size))
    f1 = FinMap(dom.C1, cod.C1, _table(doc, "f1", dom.C1.size, cod.C1.size))
    fun = InternalFunctor(dom, cod, f0, f1)
    report = validate_functor(fun)
    if not report.ok:
        raise ValidationError(report)
    return fun


def parse_nat_trans_doc(doc, field="cell"):
    _object(doc, field)
    src = parse_functor_doc(_require(doc, "src"), field=f"{field}.src")
    tgt = parse_functor_doc(_require(doc, "tgt"), field=f"{field}.tgt")
    alpha = FinMap(src.dom.C0, src.cod.C1,
                   _table(doc, "alpha", src.dom.C0.size, src.cod.C1.size))
    cell = InternalNatTrans(src, tgt, alpha)
    report = validate_nat_trans(cell)
    if not report.ok:
        raise ValidationError(report)
    return cell


def parse(text):
    """Dispatch on the document's keys: category, functor, cell, map or set."""
    doc = _load(text)
    if not isinstance(doc, dict):
        raise ParseError("expected a JSON object at top level")
    if "alpha" in doc:
        return parse_nat_trans_doc(doc)
    if "f0" in doc:
        return parse_functor_doc(doc)
    if "C0" in doc:
        return parse_category_doc(doc)
    if "table" in doc:
        return parse_map_doc(doc)
    if "size" in doc:
        return parse_obj_doc(doc)
    raise ParseError("unrecognised document shape")


def parse_category(text):
    return parse_category_doc(_load(text))


def parse_functor(text):
    return parse_functor_doc(_load(text))


def parse_nat_trans(text):
    return parse_nat_trans_doc(_load(text))

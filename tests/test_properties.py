"""Property tests: serialize/parse round trips on generated corpora, and
malformed documents, which the command line must refuse with exit code 2
(never 1, which means "refuted", and never a traceback)."""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fincat import serialize
from fincat.cli import main
from fincat.corpus import CorpusSpec, generate_corpus, generate_functor_corpus
from fincat.errors import FincatError
from fincat.internal import id_nat_trans
from fincat.limits import enumerate_cells

# few examples and a fixed example sequence, so the suite's time and its
# verdicts stay the same from run to run
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True,
                    database=None)

specs = st.builds(CorpusSpec, seed=st.integers(0, 2 ** 16),
                  max_objects=st.integers(0, 3), max_arrows=st.integers(0, 6),
                  count=st.integers(1, 5))
# caps under which the corpus starts with the free arrow
specs_with_arrow = st.builds(CorpusSpec, seed=st.integers(0, 2 ** 16),
                             max_objects=st.integers(2, 3),
                             max_arrows=st.integers(3, 6),
                             count=st.integers(1, 5))


@PROPERTY
@given(specs)
def test_round_trip_generated_corpora(spec):
    corpus = generate_corpus(spec)
    for cat in corpus:
        text = serialize.serialize_category(cat)
        assert serialize.parse_category(text) == cat
        assert serialize.serialize_category(serialize.parse(text)) == text
    functors = generate_functor_corpus(corpus, seed=spec.seed)
    for f in functors:
        text = serialize.serialize_functor(f)
        assert serialize.parse_functor(text) == f
        assert serialize.serialize_functor(serialize.parse(text)) == text
    for f in functors[:6]:
        for g in functors[:6]:
            if (f.dom, f.cod) != (g.dom, g.cod):
                continue
            for cell in [id_nat_trans(f)] * (f == g) + enumerate_cells(f, g):
                text = serialize.serialize_nat_trans(cell)
                assert serialize.parse_nat_trans(text) == cell
                assert serialize.serialize_nat_trans(serialize.parse(text)) == text


# ---------------------------------------------------------------------------
# Malformed documents.
# ---------------------------------------------------------------------------

def _category_fields(doc, path):
    """The required fields of a category document as (path, type), and its
    tables as (path, size of the set their entries index)."""
    fields = [(path, dict)]
    for part in ("C0", "C1"):
        fields += [(path + (part,), dict), (path + (part, "size"), int)]
    fields += [(path + (t,), list) for t in ("d0", "d1", "i", "m")]
    n0, n1 = doc["C0"]["size"], doc["C1"]["size"]
    tables = [(path + ("d0",), n0), (path + ("d1",), n0),
              (path + ("i",), n1), (path + ("m",), n1)]
    return fields, tables, [path]


def _fields(doc, path=()):
    """Required fields, tables and category paths of a category, functor or
    cell document."""
    if "alpha" in doc:
        parts, part_fields = ("src", "tgt"), _fields
        own = [(path + ("alpha",), doc["src"]["cod"]["C1"]["size"])]
    elif "f0" in doc:
        parts, part_fields = ("dom", "cod"), _category_fields
        cod = doc["cod"]
        own = [(path + ("f0",), cod["C0"]["size"]),
               (path + ("f1",), cod["C1"]["size"])]
    else:
        return _category_fields(doc, path)
    fields, tables, cats = [(path, dict)], [], []
    for part in parts:
        f, t, c = part_fields(doc[part], path + (part,))
        fields, tables, cats = fields + f, tables + t, cats + c
    return fields + [(p, list) for p, _n in own], tables + own, cats


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _set(doc, path, value):
    if not path:
        return value
    _get(doc, path[:-1])[path[-1]] = value
    return doc


_VALUES = {
    dict: st.dictionaries(st.text(max_size=4), st.integers(0, 3), max_size=2),
    list: st.lists(st.integers(0, 3), max_size=3),
    int: st.integers(-3, 3),
}
# a value of any JSON type but the one expected (a boolean is no int)
_OTHER = {kind: st.one_of(st.none(), st.booleans(), st.text(max_size=3),
                          st.floats(allow_nan=False, allow_infinity=False),
                          *(v for k, v in _VALUES.items() if k is not kind))
          for kind in _VALUES}


def _wrong_type(data, doc, fields, tables, cats):
    path, kind = data.draw(st.sampled_from(fields))
    return _set(doc, path, data.draw(_OTHER[kind]))


def _wrong_entry_type(data, doc, fields, tables, cats):
    path = _draw_entry(data, doc, tables)
    return _set(doc, path, data.draw(_OTHER[int]))


def _boolean(data, doc, fields, tables, cats):
    sizes = [p for p, kind in fields if kind is int]
    entries = [p + (k,) for p, _n in tables for k in range(len(_get(doc, p)))]
    path = data.draw(st.sampled_from(sizes + entries))
    return _set(doc, path, data.draw(st.booleans()))


def _out_of_range(data, doc, fields, tables, cats):
    path = _draw_entry(data, doc, tables)
    size = dict(tables)[path[:-1]]
    value = data.draw(st.integers(size, size + 3) | st.integers(-3, -1))
    return _set(doc, path, value)


def _missing(data, doc, fields, tables, cats):
    path = data.draw(st.sampled_from([p for p, _k in fields if p]))
    del _get(doc, path[:-1])[path[-1]]
    return doc


def _m_length(data, doc, fields, tables, cats):
    cat = _get(doc, data.draw(st.sampled_from(cats)))
    m = cat["m"]
    n = data.draw(st.integers(0, len(m) + 3).filter(lambda k: k != len(m)))
    cat["m"] = (m + [0] * n)[:n]
    return doc


def _draw_entry(data, doc, tables):
    # a table entry; every document drawn has an object, so a non-empty table
    path = data.draw(st.sampled_from([p for p, _n in tables if _get(doc, p)]))
    return path + (data.draw(st.integers(0, len(_get(doc, path)) - 1)),)


MUTATIONS = (_wrong_type, _wrong_entry_type, _boolean, _out_of_range, _missing,
             _m_length)


def _exit_code(command, doc, path):
    path.write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, str(path)])
    return code, err.getvalue()


@pytest.mark.parametrize("mutation", MUTATIONS, ids=lambda m: m.__name__[1:])
@settings(PROPERTY, max_examples=20)
@given(spec=specs_with_arrow, data=st.data())
def test_malformed_documents_are_input_errors(tmp_path_factory, mutation, spec,
                                              data):
    corpus = generate_corpus(spec)
    functors = generate_functor_corpus(corpus, seed=spec.seed)
    # documents with a non-empty table, so that every mutation applies
    docs = [("validate", serialize.category_doc(c)) for c in corpus
            if c.C0.size]
    docs += [("factor", serialize.functor_doc(f)) for f in functors
             if f.dom.C0.size]
    command, doc = data.draw(st.sampled_from(docs))
    bad = mutation(data, copy.deepcopy(doc), *_fields(doc))
    code, err = _exit_code(command, bad,
                           tmp_path_factory.mktemp("doc") / "doc.json")
    assert code == 2, (mutation.__name__, bad, err)
    assert "error" in err


@pytest.mark.parametrize("mutation", MUTATIONS, ids=lambda m: m.__name__[1:])
@settings(PROPERTY, max_examples=20)
@given(spec=specs_with_arrow, data=st.data())
def test_malformed_cell_documents_raise_only_fincat_errors(mutation, spec, data):
    # no command reads a cell document, so the parser is the surface
    corpus = generate_corpus(spec)
    functors = generate_functor_corpus(corpus, seed=spec.seed)
    cells = [cell for f in functors[:6] if f.dom.C0.size
             for cell in enumerate_cells(f, f)]
    doc = serialize.nat_trans_doc(data.draw(st.sampled_from(cells)))
    bad = mutation(data, copy.deepcopy(doc), *_fields(doc))
    try:
        serialize.parse(json.dumps(bad))
    except FincatError:
        pass

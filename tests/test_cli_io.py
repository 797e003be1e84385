"""Serialization round-trips, corpus determinism, the naive oracle, and the
command-line surface with its exit-code contract."""

import json
import os
import subprocess
import sys

import pytest

from fincat import finset, naive, serialize
from fincat.cli import main
from fincat.corpus import CorpusSpec, generate_corpus, generate_functor_corpus
from fincat.errors import ParseError, ValidationError
from fincat.finset import FinMap, FinObj
from fincat.internal import id_functor, id_nat_trans, validate_category
from fincat.limits import enumerate_functors, free_arrow, terminal_cat
from fincat.transfer import disc

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def test_round_trip_categories(corpus):
    for cat in corpus:
        text = serialize.serialize_category(cat)
        back = serialize.parse_category(text)
        assert back == cat
        assert serialize.serialize_category(back) == text


def test_round_trip_functors_and_cells(functor_corpus):
    for f in functor_corpus[:20]:
        text = serialize.serialize_functor(f)
        assert serialize.parse_functor(text) == f
        cell = id_nat_trans(f)
        text = serialize.serialize_nat_trans(cell)
        assert serialize.parse_nat_trans(text) == cell


def test_round_trip_disc_two():
    cat = disc(FinObj(2))
    assert serialize.parse_category(serialize.serialize_category(cat)) == cat


def test_parse_dispatch():
    two = free_arrow()
    assert serialize.parse(serialize.serialize_category(two)) == two
    f = id_functor(two)
    assert serialize.parse(serialize.serialize_functor(f)) == f
    m = FinMap(FinObj(2), FinObj(3), (0, 2))
    assert serialize.parse(serialize.serialize_map(m)) == m
    assert serialize.parse(serialize.serialize_obj(FinObj(4))) == FinObj(4)


def test_malformed_table_length_names_field():
    doc = json.loads(serialize.serialize_category(free_arrow()))
    doc["m"] = doc["m"][:-1]
    with pytest.raises(ParseError) as err:
        serialize.parse_category_doc(doc)
    assert err.value.field == "m"
    doc = json.loads(serialize.serialize_category(free_arrow()))
    doc["d0"] = doc["d0"] + [0]
    with pytest.raises(ParseError) as err:
        serialize.parse_category_doc(doc)
    assert err.value.field == "d0"


def test_lawless_data_raises_validation_error():
    doc = json.loads(serialize.serialize_category(free_arrow()))
    doc["m"] = [0, 1, 0, 2]  # break the left unit law for the arrow
    with pytest.raises(ValidationError) as err:
        serialize.parse_category_doc(doc)
    assert not err.value.report.ok


def test_fixture_parses_to_free_arrow():
    with open(os.path.join(FIXTURES, "walking_arrow.json"), encoding="utf-8") as fh:
        cat = serialize.parse_category(fh.read())
    assert cat == free_arrow()


def test_round_trip_on_entire_fixture_set():
    for name in sorted(os.listdir(FIXTURES)):
        with open(os.path.join(FIXTURES, name), encoding="utf-8") as fh:
            text = fh.read()
        value = serialize.parse(text)
        assert serialize.serialize_category(value) == text


def test_report_round_trip():
    from fincat.audit import AuditConfig, run_audit
    report = run_audit(AuditConfig(corpus_size=4))
    text = serialize.serialize_report(report)
    assert serialize.parse_report(text) == json.loads(text)


def test_corpus_determinism_and_caps():
    spec = CorpusSpec(seed=99, max_objects=3, max_arrows=8, count=10)
    first = generate_corpus(spec)
    second = generate_corpus(spec)
    assert len(first) == len(second) == 10
    for a, b in zip(first, second):
        assert a == b
    for cat in first:
        assert cat.C0.size <= 3 and cat.C1.size <= 8
        assert validate_category(cat).ok
    assert generate_corpus(CorpusSpec(seed=99, count=0)) == []


def test_functor_corpus_deterministic(corpus):
    a = generate_functor_corpus(corpus, seed=5)
    b = generate_functor_corpus(corpus, seed=5)
    assert a == b


def test_oracle_functor_counts():
    two = naive.oracle_from_internal(free_arrow())
    assert naive.validate_naive(two) == []
    funs = naive.oracle_functors(two, two)
    assert len(funs) == 3
    one = naive.oracle_from_internal(terminal_cat())
    assert len(naive.oracle_functors(two, one)) == 1
    ident = [f for f in funs if f[0] == (0, 1)][0]
    assert len(naive.oracle_nat_trans(two, two, ident, ident)) >= 1


def test_oracle_agrees_with_internal_enumeration(corpus):
    small = [c for c in corpus if c.C0.size <= 3 and c.C1.size <= 5][:4]
    for a in small:
        for b in small:
            na, nb = naive.oracle_from_internal(a), naive.oracle_from_internal(b)
            assert len(naive.oracle_functors(na, nb)) == \
                len(enumerate_functors(a, b))


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_cli_validate_fixture(capsys):
    assert main(["validate", os.path.join(FIXTURES, "walking_arrow.json")]) == 0
    out = capsys.readouterr().out
    assert "valid internal category" in out


def test_cli_validate_malformed(tmp_path, capsys):
    path = _write(tmp_path, "bad.json", "{\"C0\": {\"size\": 1}}")
    assert main(["validate", path]) == 2


def test_cli_non_object_document_is_input_error(tmp_path, capsys):
    five = _write(tmp_path, "five.json", "5")
    assert main(["hom", five, five]) == 2
    assert main(["validate", _write(tmp_path, "list.json", "[1, 2]")]) == 2
    assert main(["factor", _write(tmp_path, "text.json", "\"f0\"")]) == 2
    # a non-object nested where a category belongs
    doc = json.loads(serialize.serialize_functor(id_functor(free_arrow())))
    doc["cod"] = 5
    assert main(["factor", _write(tmp_path, "nested.json", json.dumps(doc))]) == 2
    assert "expected an object document" in capsys.readouterr().err
    for text in ("5", "[]", "null"):
        for parse in (serialize.parse_category, serialize.parse_functor,
                      serialize.parse_nat_trans):
            with pytest.raises(ParseError):
                parse(text)


def test_cli_bool_table_entry_is_input_error(tmp_path):
    doc = json.loads(serialize.serialize_category(free_arrow()))
    doc["d0"] = [0, True, True]
    assert main(["validate", _write(tmp_path, "d0.json", json.dumps(doc))]) == 2
    doc = json.loads(serialize.serialize_category(terminal_cat()))
    doc["C0"]["size"] = True
    assert main(["validate", _write(tmp_path, "size.json", json.dumps(doc))]) == 2
    doc = json.loads(serialize.serialize_functor(id_functor(free_arrow())))
    doc["f1"] = [0, True, 2]
    assert main(["factor", _write(tmp_path, "f1.json", json.dumps(doc))]) == 2
    with pytest.raises(ParseError):
        serialize.parse_map_doc({"dom": {"size": 1}, "cod": {"size": 2},
                                 "table": [True]})


@pytest.mark.parametrize("kind", ["missing", "non_utf8", "directory",
                                  "deep_nesting"])
def test_cli_unreadable_input_is_input_error(kind, tmp_path, capsys):
    path = tmp_path / "doc.json"
    if kind == "non_utf8":
        path.write_bytes(b'{"C0": "\xff"}')
    elif kind == "directory":
        path = tmp_path
    elif kind == "deep_nesting":
        path.write_text("[" * 100_000, encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err.startswith("input error: ")


def test_cli_pair_count_is_checked_before_pairs_are_listed(tmp_path):
    # one object with 4,000 loops has 16 million composable pairs; a wrong
    # m length must be an input error, not a memory blow-up listing them
    loops = 4000
    doc = {"C0": {"size": 1}, "C1": {"size": loops}, "d0": [0] * loops,
           "d1": [0] * loops, "i": [0], "m": [0]}
    path = _write(tmp_path, "loops.json", json.dumps(doc))
    script = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from fincat.cli import main
sys.exit(main(["validate", sys.argv[1]]))
"""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", script, path], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 2, run.stdout + run.stderr
    assert "m: table length must be 16000000" in run.stderr


def test_cli_factor_and_power(tmp_path, capsys):
    two = free_arrow()
    f = id_functor(two)
    path = _write(tmp_path, "f.json", serialize.serialize_functor(f))
    assert main(["factor", path, "--ofs", "epi-mono"]) == 0
    cat_path = os.path.join(FIXTURES, "walking_arrow.json")
    assert main(["power", cat_path]) == 0
    assert "3 objects, 6 squares" in capsys.readouterr().out
    assert main(["copower", cat_path]) == 0


def test_cli_hom_and_oracle_compare(capsys):
    a = os.path.join(FIXTURES, "walking_arrow.json")
    b = os.path.join(FIXTURES, "indisc2.json")
    assert main(["hom", a, a]) == 0
    assert "3 functors, 6 cells" in capsys.readouterr().out
    assert main(["oracle-compare", a, b]) == 0
    assert "match" in capsys.readouterr().out


def test_cli_oracle_compare_certifies_the_isomorphism(monkeypatch, capsys):
    from fincat import cli, limits
    a = os.path.join(FIXTURES, "walking_arrow.json")
    b = os.path.join(FIXTURES, "indisc2.json")

    def comp_moved(x, y, bound):
        # the true lists, so the sizes agree, with one composite moved
        hc = limits.hom_category(x, y, bound)
        comp = dict(hc.comp)
        key = next(iter(comp))
        comp[key] = (comp[key] + 1) % len(hc.arrows)
        return limits.HomCategory(hc.objects, hc.arrows, hc.identity, comp)

    monkeypatch.setattr(cli, "hom_category", comp_moved)
    assert main(["oracle-compare", a, b]) == 1
    out = capsys.readouterr().out
    assert "end formula: 4 functors, 16 cells" in out
    assert "oracle:      4 functors, 16 cells" in out
    assert out.rstrip().endswith("MISMATCH")


def test_cli_classify_and_section(tmp_path, capsys):
    from fincat.transfer import functor_to_indisc, indisc_map
    one = terminal_cat()
    inc = functor_to_indisc(one, FinMap(one.C0, FinObj(2), (0,)))
    path = _write(tmp_path, "inc.json", serialize.serialize_functor(inc))
    assert main(["classify", path]) == 0
    e = indisc_map(FinMap(FinObj(3), FinObj(2), (0, 1, 0)))
    path = _write(tmp_path, "e.json", serialize.serialize_functor(e))
    assert main(["section", path]) == 0
    # precondition failure is an input error
    two = free_arrow()
    from fincat.limits import bang_functor
    path = _write(tmp_path, "bang.json",
                  serialize.serialize_functor(bang_functor(two)))
    assert main(["classify", path]) == 2
    assert main(["section", path]) == 2


def test_cli_audit_exit_code_and_determinism(capsys):
    code = main(["audit", "--seed", "7", "--corpus-size", "6",
                 "--format", "structured"])
    first = capsys.readouterr().out
    assert code == 0
    assert json.loads(first)["entries"]["nno"]["verdict"] == "refuted"
    main(["audit", "--seed", "7", "--corpus-size", "6", "--format", "structured"])
    second = capsys.readouterr().out
    assert first == second


def test_cli_audit_suite_selection(capsys):
    # a suite left out is skipped, and a skipped suite, nno included, never
    # fails the run
    assert main(["audit", "--suite", "boolean", "--format", "structured"]) == 0
    entries = json.loads(capsys.readouterr().out)["entries"]
    assert entries["boolean"]["verdict"] == "verified-at-scale"
    assert {v["verdict"] for k, v in entries.items() if k != "boolean"} == \
        {"skipped"}
    # an unknown suite is refused by the parser
    with pytest.raises(SystemExit) as err:
        main(["audit", "--suite", "nosuch"])
    assert err.value.code == 2
    assert "invalid choice: 'nosuch'" in capsys.readouterr().err


def test_cli_audit_nothing_compared_is_skipped(capsys):
    code = main(["audit", "--size-bound", "0", "--corpus-size", "4",
                 "--format", "structured"])
    entry = json.loads(capsys.readouterr().out)["entries"]["cartesianClosed"]
    assert code == 0
    assert entry == {"verdict": "skipped",
                     "witnesses": {"pairs_compared": 0, "agreements": 0}}


@pytest.mark.parametrize("option", ["--max-objects", "--max-arrows"])
def test_cli_audit_small_sizes_run(option, capsys):
    for size in (0, 1):
        argv = ["audit", option, str(size), "--corpus-size", "4"]
        assert main(argv + ["--format", "structured"]) == 0
        entries = json.loads(capsys.readouterr().out)["entries"]
        assert entries["nno"]["verdict"] == "refuted"
    # the corpus keeps to the caps: with 0 or 1 object no free arrow
    for max_objects, max_arrows in ((0, 10), (1, 10), (4, 0), (4, 1)):
        spec = CorpusSpec(seed=7, max_objects=max_objects,
                          max_arrows=max_arrows, count=6)
        for cat in generate_corpus(spec):
            assert cat.C0.size <= max_objects and cat.C1.size <= max_arrows


@pytest.mark.parametrize("option,value", [
    ("--max-objects", "-1"), ("--max-arrows", "-2"), ("--corpus-size", "-1"),
    ("--size-bound", "-1")])
def test_cli_audit_negative_sizes_are_input_errors(option, value, capsys):
    with pytest.raises(SystemExit) as err:
        main(["audit", option, value])
    assert err.value.code == 2
    assert "must be at least 0" in capsys.readouterr().err


def test_cli_structured_output_parses_back(capsys):
    a = os.path.join(FIXTURES, "walking_arrow.json")
    assert main(["hom", a, a, "--format", "structured"]) == 0
    out = capsys.readouterr().out
    cat = serialize.parse_category(out)
    assert (cat.C0.size, cat.C1.size) == (3, 6)

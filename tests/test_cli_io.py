"""Serialization round-trips, corpus determinism, the naive oracle, and the
command-line surface with its exit-code contract."""

import json
import os
import subprocess
import sys
from dataclasses import asdict, replace

import pytest

from fincat import audit, cli, naive, serialize
from fincat.cli import main
from fincat.corpus import (CorpusSpec, generate_corpus, generate_functor_corpus,
                           monoid_delooping)
from fincat.errors import SIZE_BOUND, ParseError, ValidationError
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


def test_lawless_data_raises_validation_error(tmp_path, capsys):
    doc = json.loads(serialize.serialize_category(free_arrow()))
    doc["m"] = [0, 1, 0, 2]  # id_1 . arrow becomes id_0, which ends at 0
    with pytest.raises(ValidationError) as err:
        serialize.parse_category_doc(doc)
    assert not err.value.report.ok
    # well-formed but lawless input is refuted (exit 1), not an input error
    assert main(["validate", _write(tmp_path, "lawless.json", json.dumps(doc))]) == 1
    assert capsys.readouterr().out.startswith("invalid: composite-target at (1, 2)")


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


def _path_count(n_nodes, edges):
    """The paths of an acyclic graph, identities included, by recursion on
    the first edge of a path."""
    starting = {}

    def count(a):
        if a not in starting:
            starting[a] = 1 + sum(count(b) for x, b in edges if x == a)
        return starting[a]

    return sum(count(a) for a in range(n_nodes))


def test_corpus_builds_nothing_over_its_caps(monkeypatch):
    # a random DAG on 32 nodes has some 860,000 paths on average; every
    # size is decided before the item is built
    from fincat import corpus as module
    spec = CorpusSpec(seed=0, max_objects=32, count=12)
    built = []

    def capped(name, sizes, build):
        def checked(*args):
            n_objects, n_arrows = sizes(*args)
            assert n_objects <= spec.max_objects, (name, n_objects)
            assert n_arrows <= spec.max_arrows, (name, n_arrows)
            built.append(name)
            item = build(*args)
            cat = getattr(item, "category", item)
            assert (cat.C0.size, cat.C1.size) == (n_objects, n_arrows), name
            return item
        monkeypatch.setattr(module, name, checked)

    capped("free_on_dag", lambda n, edges: (n, _path_count(n, edges)),
           module.free_on_dag)
    capped("preorder_category", lambda rel, n: (n, len(rel)),
           module.preorder_category)
    capped("indisc", lambda obj: (obj.size, obj.size ** 2), module.indisc)
    capped("product_cat", lambda a, b: (a.C0.size * b.C0.size,
                                        a.C1.size * b.C1.size),
           module.product_cat)
    for seed in range(1, 5):
        assert len(module.generate_corpus(replace(spec, seed=seed))) == spec.count
    assert set(built) == {"free_on_dag", "preorder_category", "indisc",
                          "product_cat"}


def test_cli_audit_large_object_cap_finishes():
    script = "import sys; from fincat.cli import main; sys.exit(main(sys.argv[1:]))"
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    run = subprocess.run(
        [sys.executable, "-c", script, "audit", "--max-objects", "1000",
         "--format", "structured"], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout)["config"]["max_objects"] == 1000


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


def _naive_walking_arrow(**change):
    """The naive free arrow, 0 -> 1 by arrow 2, with some fields changed."""
    fields = {"objects": 2, "arrows": ((0, 0), (1, 1), (0, 1)),
              "identities": (0, 1),
              "comp": {(0, 0): 0, (1, 1): 1, (2, 0): 2, (1, 2): 2}}
    fields.update(change)
    return naive.NaiveCategory(**fields)


def _naive_monoid(table):
    """The one-object naive category of a monoid table, arrow 0 its unit."""
    n = len(table)
    return naive.NaiveCategory(1, ((0, 0),) * n, (0,),
                               {(g, f): table[g][f] for g in range(n) for f in range(n)})


def test_naive_validator_names_each_broken_axiom():
    arrow = _naive_walking_arrow()
    assert naive.validate_naive(arrow) == []
    assert naive.validate_naive(_naive_walking_arrow(identities=(0,))) == [
        "identities must list one arrow per object"]
    assert naive.validate_naive(_naive_walking_arrow(identities=(0, 2))) == [
        "identity of 1 has wrong endpoints"]
    missing = dict(arrow.comp)
    del missing[(2, 0)]
    assert naive.validate_naive(_naive_walking_arrow(comp=missing)) == [
        "missing composite (2, 0)"]
    assert naive.validate_naive(_naive_walking_arrow(
        comp={**arrow.comp, (2, 0): 0})) == ["composite (2, 0) has wrong endpoints"]
    assert naive.validate_naive(_naive_walking_arrow(
        comp={**arrow.comp, (0, 1): 0})) == [
        "composite defined for non-composable (0, 1)"]
    # {e, a} with a.a = a is a monoid; breaking e.a or a.e breaks one unit
    assert naive.validate_naive(_naive_monoid(((0, 1), (1, 1)))) == []
    assert "left unit fails at 1" in naive.validate_naive(_naive_monoid(((0, 0), (1, 1))))
    assert "right unit fails at 1" in naive.validate_naive(_naive_monoid(((0, 1), (0, 1))))
    # units hold, but (a.a).b = b.b = a while a.(a.b) = a.a = b
    problems = naive.validate_naive(_naive_monoid(((0, 1, 2), (1, 2, 1), (2, 1, 1))))
    assert "associativity fails at (1, 1, 2)" in problems
    assert all(p.startswith("associativity fails") for p in problems)


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


def test_cli_negative_size_is_input_error(tmp_path, capsys):
    doc = {"C0": {"size": -1}, "C1": {"size": 0}, "d0": [], "d1": [], "i": [],
           "m": []}
    assert main(["validate", _write(tmp_path, "neg.json", json.dumps(doc))]) == 2
    assert capsys.readouterr().err == \
        "input error: category.C0.size: must be at least 0\n"
    with pytest.raises(ParseError) as err:
        serialize.parse('{"size": -2}')
    assert err.value.field == "set.size"


def test_cli_non_json_and_lawless_functor_are_input_errors(tmp_path, capsys):
    assert main(["validate", _write(tmp_path, "text.json", "not json")]) == 2
    assert capsys.readouterr().err.startswith("input error: not valid JSON")
    # the free arrow's arrow sent to an identity: well-formed, not a functor
    doc = json.loads(serialize.serialize_functor(id_functor(free_arrow())))
    doc["f1"] = [0, 1, 0]
    assert main(["classify", _write(tmp_path, "f.json", json.dumps(doc))]) == 2
    assert capsys.readouterr().err.startswith("input error: ")


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


def test_cli_hom_over_its_component_tables_is_an_input_error(tmp_path, capsys):
    # disc 3 has one functor into the delooping of Z/2, and 2^3 component
    # tables: one arrow of the two at each of its 3 objects
    a = os.path.join(FIXTURES, "disc3.json")
    b = tmp_path / "z2.json"
    b.write_text(serialize.serialize_category(monoid_delooping([[0, 1], [1, 0]])))
    assert main(["hom", a, str(b), "--size-bound", "7"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("input error: ")
    assert "8 component tables" in err
    assert main(["hom", a, str(b)]) == 0
    assert "1 functors, 8 cells" in capsys.readouterr().out


def test_cli_hom_over_its_functor_pairs_is_an_input_error(capsys):
    # disc 3 has 8 functors into indisc 2: 8 * 8 pairs
    a = os.path.join(FIXTURES, "disc3.json")
    b = os.path.join(FIXTURES, "indisc2.json")
    assert main(["hom", a, b, "--size-bound", "63"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("input error: ")
    assert "64 pairs of functors" in err


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


def test_cli_audit_repeated_suite_is_listed_once(capsys):
    # a suite given twice runs once and is listed once, so the report and
    # the exit code are those of the suite given once
    once = ["audit", "--suite", "boolean", "--format", "structured"]
    want = main(once), capsys.readouterr().out
    assert main(once + ["--suite", "boolean"]) == want[0]
    assert capsys.readouterr().out == want[1]
    assert json.loads(want[1])["config"]["suites"] == ["boolean"]


def test_cli_audit_unexpected_verdict_exits_one(monkeypatch, capsys):
    monkeypatch.setitem(audit.SUITES, "boolean",
                        replace(audit.SUITES["boolean"],
                                check=lambda corpus, functors, config:
                                (False, 0, {})))
    assert main(["audit", "--suite", "boolean", "--format", "structured"]) == 1
    entries = json.loads(capsys.readouterr().out)["entries"]
    assert entries["boolean"]["verdict"] == "refuted"


def test_cli_builds_its_parser_once_and_suites_do_not_accumulate(monkeypatch,
                                                                  capsys):
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    cli._parser.cache_clear()
    try:
        for suite in ("boolean", "twoValued"):
            assert main(["audit", "--suite", suite, "--corpus-size", "4",
                         "--format", "structured"]) == 0
            report = json.loads(capsys.readouterr().out)
            assert report["config"]["suites"] == [suite]
        assert built == [1]
    finally:
        cli._parser.cache_clear()


def test_cli_defaults_are_the_audit_config_and_the_size_bound():
    parser = cli.build_parser()
    args = vars(parser.parse_args(["audit"]))
    config = asdict(audit.AuditConfig())
    del config["suites"]  # no --suite selects every suite
    assert {name: args[name] for name in config} == config
    for argv in (["audit"], ["hom", "a", "b"], ["oracle-compare", "a", "b"]):
        assert parser.parse_args(argv).size_bound is SIZE_BOUND, argv[0]


def test_cli_builds_no_parser_at_import():
    code = ("import fincat.cli as cli; "
            "print(cli._parser.cache_info().currsize)")
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "0"


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

"""Each benchmark check accepts a correct output and rejects a corrupted one.

Run with: python3 -m pytest perfbench/tests
"""

import dataclasses
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from fincat import naive, serialize  # noqa: E402
from fincat.audit import AuditConfig, run_audit  # noqa: E402
from fincat.corpus import (CorpusSpec, generate_corpus,  # noqa: E402
                           generate_functor_corpus)
from fincat.factorisation import (epi_mono_ofs, factor_internal,  # noqa: E402
                                  lift_square)
from fincat.finset import FinMap  # noqa: E402
from fincat.internal import (InternalFunctor, compose_functors,  # noqa: E402
                             id_functor, is_epi_on_objects, is_full_mono,
                             is_fully_faithful)
from fincat.limits import (enumerate_functors, free_arrow,  # noqa: E402
                           internal_hom, power_by_two, product_cat)


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(CorpusSpec())


@pytest.fixture(scope="module")
def functors(corpus):
    return generate_functor_corpus(corpus, seed=7)


def with_arrow_entry(f, arrow, value):
    table = list(f.f1.table)
    table[arrow] = value
    return InternalFunctor(f.dom, f.cod, f.f0, FinMap(f.dom.C1, f.cod.C1, tuple(table)))


def with_object_entry(f, obj, value):
    table = list(f.f0.table)
    table[obj] = value
    return InternalFunctor(f.dom, f.cod, FinMap(f.dom.C0, f.cod.C0, tuple(table)), f.f1)


# -- hom-sweep ---------------------------------------------------------------

@pytest.fixture(scope="module")
def hom_and_oracle(corpus):
    x, y = corpus[0], corpus[5]
    ih = internal_hom(x, y)
    oracle = naive.oracle_hom_category(naive.oracle_from_internal(x),
                                       naive.oracle_from_internal(y))
    return ih, oracle


def test_hom_check_accepts_the_oracle(hom_and_oracle):
    ih, (funs, cells, cat) = hom_and_oracle
    assert checks.check_hom_against_oracle(ih, funs, cells, cat) == len(cells)


def test_hom_check_rejects_swapped_composition_entries(hom_and_oracle):
    ih, (funs, cells, cat) = hom_and_oracle
    keys = sorted(cat.comp)
    a = keys[0]
    b = next(k for k in keys if cat.comp[k] != cat.comp[a])
    comp = dict(cat.comp)
    comp[a], comp[b] = comp[b], comp[a]
    bad = dataclasses.replace(cat, comp=comp)
    with pytest.raises(checks.CheckFailed, match="composite"):
        checks.check_hom_against_oracle(ih, funs, cells, bad)


def test_hom_check_rejects_a_missing_cell(hom_and_oracle):
    ih, (funs, cells, cat) = hom_and_oracle
    with pytest.raises(checks.CheckFailed, match="cells"):
        checks.check_hom_against_oracle(ih, funs, cells[:-1], cat)


def test_hom_check_rejects_swapped_identities(hom_and_oracle):
    ih, (funs, cells, cat) = hom_and_oracle
    ids = list(cat.identities)
    ids[0], ids[1] = ids[1], ids[0]
    bad = dataclasses.replace(cat, identities=tuple(ids))
    with pytest.raises(checks.CheckFailed, match="identity"):
        checks.check_hom_against_oracle(ih, funs, cells, bad)


# -- hom-transpose -----------------------------------------------------------

@pytest.fixture(scope="module")
def transposes():
    two = free_arrow()
    ih = internal_hom(two, two)
    prod = product_cat(two, two)
    hs = enumerate_functors(prod.category, two)
    curried = [ih.curry(two, prod, h) for h in hs]
    n_two = naive.oracle_from_internal(two)
    to_hom = naive.oracle_functors(n_two, naive.oracle_from_internal(ih.carrier))
    from_prod = naive.oracle_functors(naive.oracle_from_internal(prod.category), n_two)
    return SimpleNamespace(ih=ih, prod=prod, hs=hs, curried=curried,
                           to_hom=to_hom, from_prod=from_prod)


def test_round_trip_accepts_curry(transposes):
    t = transposes
    for h, c in zip(t.hs, t.curried):
        assert checks.check_round_trip(t.ih, t.prod, h, c) == 1
    assert checks.check_transposes(t.curried, t.to_hom, t.from_prod) == len(t.hs)


def test_round_trip_rejects_a_changed_entry(transposes):
    t = transposes
    h, c = t.hs[0], t.curried[0]
    other = next(v for v in range(c.cod.C0.size)
                 if t.ih.level0[v].eta0[(0,)] != t.ih.level0[c.f0.table[0]].eta0[(0,)])
    with pytest.raises(checks.CheckFailed, match="round trip"):
        checks.check_round_trip(t.ih, t.prod, h, with_object_entry(c, 0, other))


def test_transposes_reject_a_repeated_transpose(transposes):
    t = transposes
    repeated = [t.curried[0]] + t.curried[:-1]
    with pytest.raises(checks.CheckFailed, match="injective"):
        checks.check_transposes(repeated, t.to_hom, t.from_prod)


def test_transposes_reject_unequal_oracle_counts(transposes):
    t = transposes
    with pytest.raises(checks.CheckFailed, match="oracle counts"):
        checks.check_transposes(t.curried, t.to_hom[:-1], t.from_prod)


def test_transposes_reject_a_non_functor(transposes):
    t = transposes
    c = t.curried[0]
    arrow = next(a for a in range(c.dom.C1.size)
                 if a not in c.dom.i.table)
    value = next(v for v in range(c.cod.C1.size) if v != c.f1.table[arrow]
                 and checks.tables(with_arrow_entry(c, arrow, v))
                 not in {checks.tables(x) for x in t.curried})
    bad = [with_arrow_entry(c, arrow, value)] + t.curried[1:]
    with pytest.raises(checks.CheckFailed, match="not an oracle functor"):
        checks.check_transposes(bad, t.to_hom, t.from_prod)


# -- model-audit ---------------------------------------------------------------

@pytest.fixture(scope="module")
def report_text():
    return serialize.serialize_report(run_audit(AuditConfig(seed=1)))


def test_audit_check_accepts_the_report(report_text):
    assert checks.check_audit_report(json.loads(report_text), 0) > 0


def test_audit_check_rejects_a_flipped_verdict(report_text):
    report = json.loads(report_text)
    report["entries"]["boolean"]["verdict"] = "refuted"
    with pytest.raises(checks.CheckFailed, match="boolean"):
        checks.check_audit_report(report, 0)


def test_audit_check_rejects_an_unrefuted_nno(report_text):
    report = json.loads(report_text)
    report["entries"]["nno"]["verdict"] = "verified-at-scale"
    with pytest.raises(checks.CheckFailed, match="nno"):
        checks.check_audit_report(report, 0)


def test_audit_check_rejects_a_false_counterexample(report_text):
    report = json.loads(report_text)
    ex = report["entries"]["nno"]["witnesses"]["counterexamples"][0]
    ex["outcome"] = ("multipleRecursors" if ex["outcome"] == "noRecursor"
                     else "noRecursor")
    with pytest.raises(checks.CheckFailed, match="brute force"):
        checks.check_audit_report(report, 0)


def test_audit_check_rejects_a_failing_exit_code(report_text):
    with pytest.raises(checks.CheckFailed, match="exited"):
        checks.check_audit_report(json.loads(report_text), 1)


def test_recursor_count_by_brute_force():
    # N = {0, 1}, z = 0, s = identity; X = {0, 1}, f = 0, g = identity:
    # u(0) = 0 is forced and u(1) is free, so two recursors.
    assert checks.count_recursors(2, [0], [0, 1], 2, [0], [0, 1]) == 2
    # a 1-cycle against a 2-cycle: u(0) = 0 and u(0) = g(u(0)) = 1 conflict
    assert checks.count_recursors(1, [0], [0], 2, [0], [1, 0]) == 0
    assert checks.nno_candidate_count(3) == 10


def test_factorisation_check_accepts_the_factorisation(functors):
    for f in functors[:20]:
        fact = factor_internal(f, epi_mono_ofs())
        assert checks.check_factorisation(f, fact, "epi-mono") == 1


def test_factorisation_check_rejects_a_changed_composite(functors):
    f = next(g for g in functors if g.dom.C1.size > 0)
    fact = factor_internal(f, epi_mono_ofs())
    right = fact.right
    arrow = fact.left.f1.table[0]
    value = next(v for v in range(right.cod.C1.size) if v != right.f1.table[arrow])
    bad = dataclasses.replace(fact, right=with_arrow_entry(right, arrow, value))
    with pytest.raises(checks.CheckFailed, match="compose back"):
        checks.check_factorisation(f, bad, "epi-mono")


def test_factorisation_check_rejects_a_right_factor_not_fully_faithful(functors):
    f = next(g for g in functors if not is_fully_faithful(g))
    fact = SimpleNamespace(left=id_functor(f.dom), right=f)
    with pytest.raises(checks.CheckFailed, match="fully faithful"):
        checks.check_factorisation(f, fact, "iso-all")


def test_factorisation_check_rejects_a_left_factor_not_epi(corpus):
    a = next(c for c in corpus if c.C0.size == 1)
    two = free_arrow()
    # the functor picking the source object: not epi on objects
    f = InternalFunctor(a, two, FinMap(a.C0, two.C0, (0,)),
                        FinMap(a.C1, two.C1, (0,) * a.C1.size))
    fact = SimpleNamespace(left=f, right=id_functor(two))
    with pytest.raises(checks.CheckFailed, match="epi on objects"):
        checks.check_factorisation(f, fact, "epi-mono")


@pytest.fixture(scope="module")
def square(functors):
    lefts = [s for s in functors if is_epi_on_objects(s) and s.cod.C1.size <= 6]
    rights = [f for f in functors if is_full_mono(f) and f.dom.C1.size <= 6]
    for s in lefts:
        for f in rights:
            for u in enumerate_functors(s.cod, f.dom):
                if u.dom.C1.size:
                    return (s, f, compose_functors(u, s), compose_functors(f, u))
    raise AssertionError("no square found")


def _fillers(sq):
    s, f = sq[0], sq[1]
    return naive.oracle_functors(naive.oracle_from_internal(s.cod),
                                 naive.oracle_from_internal(f.dom))


def test_lift_check_accepts_the_lift(square):
    lift = lift_square(*square, epi_mono_ofs())
    assert checks.check_lift(square, lift, _fillers(square)) == 1


def test_lift_check_rejects_another_functor(square):
    lift = lift_square(*square, epi_mono_ofs())
    other = next(w for w in _fillers(square) if w != checks.tables(lift))
    bad = InternalFunctor(lift.dom, lift.cod, FinMap(lift.dom.C0, lift.cod.C0, other[0]),
                          FinMap(lift.dom.C1, lift.cod.C1, other[1]))
    with pytest.raises(checks.CheckFailed, match="diagonals"):
        checks.check_lift(square, bad, _fillers(square))


def test_lift_check_rejects_a_second_diagonal(square):
    lift = lift_square(*square, epi_mono_ofs())
    fillers = _fillers(square) + [checks.tables(lift)]
    with pytest.raises(checks.CheckFailed, match="2 diagonals"):
        checks.check_lift(square, lift, fillers)


def test_power_check(corpus):
    a = corpus[5]
    p = power_by_two(a)
    na, two = naive.oracle_from_internal(a), naive.oracle_from_internal(free_arrow())
    funs = naive.oracle_functors(two, na)
    cells = naive.count_all_nat_trans(two, na, funs)
    assert checks.check_power(p, len(funs), cells) == 1
    with pytest.raises(checks.CheckFailed, match="power"):
        checks.check_power(p, len(funs), cells + 1)


# -- the runner ----------------------------------------------------------------

def test_rounds_must_reproduce_the_first():
    workload = SimpleNamespace(digest=lambda label, out: out)
    first = run.Round(workload, ())
    first.op(("op", 0), lambda: (1, 2), lambda out: 1)
    first.finish()
    assert first.items == 1 and not first.problems
    same = run.Round(workload, (), first)
    same.op(("op", 0), lambda: (1, 2), lambda out: 1)
    same.finish()
    assert not same.problems and same.items == 0   # checks run in round 1 only
    changed = run.Round(workload, (), first)
    changed.op(("op", 0), lambda: (1, 3))
    changed.finish()
    assert any("differs" in p for p in changed.problems)


def test_a_refused_operation_is_timed_and_counted():
    workload = SimpleNamespace(digest=lambda label, out: out)

    def refuse():
        raise KeyError("bound")

    first = run.Round(workload, (KeyError,))
    assert first.op(("op", 0), refuse) is None
    first.op(("op", 1), lambda: 1)
    first.finish()
    assert first.failures == {("op", 0): "KeyError"} and set(first.times) == {
        ("op", 0), ("op", 1)}
    later = run.Round(workload, (KeyError,), first)
    later.op(("op", 0), lambda: 1)
    later.op(("op", 1), lambda: 1)
    later.finish()
    assert any("failed other" in p for p in later.problems)


def test_a_failed_check_marks_the_round():
    workload = SimpleNamespace(digest=lambda label, out: out)
    first = run.Round(workload, ())
    first.op(("op", 0), lambda: 1,
             lambda out: checks.require(out == 2, "wrong output") or 1)
    assert first.problems == ["wrong output"]


def test_tracer_records_nested_spans_and_restores_the_program():
    import fincat.limits as limits
    original = limits.product_cat
    tracer = spans.Tracer()
    tracer.install("fincat")
    try:
        assert limits.product_cat is not original
        tracer.phase = 0
        two = free_arrow()
        limits.product_cat(two, two)
        tracer.phase = None
        limits.product_cat(two, two)       # inactive: not recorded
    finally:
        tracer.uninstall()
    assert limits.product_cat is original
    counts = tracer.phases[0]
    assert counts["limits.product_cat.calls"] == 1
    assert counts["finset.compose.calls"] > 0
    parent = {span[0]: span for span in tracer.spans}
    names = tracer.names
    top = [s for s in tracer.spans if names[s[2]] == "limits.product_cat"]
    assert len(top) == 1 and top[0][1] == -1
    children = [s for s in tracer.spans if s[1] == top[0][0]]
    assert children and all(parent[s[1]] is top[0] for s in children)
    assert counts["limits.product_cat.self_s"] < counts["limits.product_cat.s"]


def test_benchmark_json_lists_the_printed_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] \
        == list(spans.PER_LAYER)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] \
        == [m for m in run.END_TO_END]
    assert {w["name"] for w in doc["workloads"]} == set(run.WORKLOADS)

"""Recursor search, finite-NNO refutation, generator checks, and the
aggregate audit report."""

import random
from itertools import product as iproduct

import pytest

from fincat import finset
from fincat.audit import (SUITES, AuditConfig, Suite, arrow_functor,
                          generator_check, nno_candidates, recursor_search,
                          refute_finite_nno, run_audit,
                          two_dimensional_nno_check, two_well_pointed_check)
from fincat.corpus import CorpusSpec, generate_corpus
from fincat.finset import FinMap, FinObj, identity
from fincat.internal import (InternalFunctor, ValidationReport, Violation,
                             compose_functors, id_functor, validate_category,
                             validate_functor)
from fincat.limits import enumerate_functors, free_arrow
from fincat.serialize import serialize_report
from fincat.transfer import disc


def brute_recursors(n, z, s, x, f, g):
    """Independent oracle: filter all maps N -> X by the recursion equations."""
    out = []
    for table in iproduct(range(x.size), repeat=n.size):
        if table[z.table[0]] != f.table[0]:
            continue
        if all(table[s.table[k]] == g.table[table[k]] for k in range(n.size)):
            out.append(table)
    return out


def classify_brute(n, z, s, x, f, g):
    sols = brute_recursors(n, z, s, x, f, g)
    if not sols:
        return "noRecursor"
    return "uniqueRecursor" if len(sols) == 1 else "multipleRecursors"


def test_recursor_search_swap_example():
    n, x = FinObj(1), FinObj(2)
    z = FinMap(finset.terminal(), n, (0,))
    s = identity(n)
    f = FinMap(finset.terminal(), x, (0,))
    g = FinMap(x, x, (1, 0))
    assert recursor_search(n, z, s, x, f, g).outcome == "noRecursor"


def test_recursor_search_terminal_codomain():
    rng = random.Random(21)
    x = FinObj(1)
    f = FinMap(finset.terminal(), x, (0,))
    g = identity(x)
    for size in (1, 2, 3, 4):
        n = FinObj(size)
        z = FinMap(finset.terminal(), n, (rng.randrange(size),))
        s = FinMap(n, n, tuple(rng.randrange(size) for _ in range(size)))
        assert recursor_search(n, z, s, x, f, g).outcome == "uniqueRecursor"


def test_recursor_search_unreachable_element():
    n, x = FinObj(2), FinObj(2)
    z = FinMap(finset.terminal(), n, (0,))
    s = FinMap(n, n, (0, 1))
    f = FinMap(finset.terminal(), x, (0,))
    g = identity(x)
    v = recursor_search(n, z, s, x, f, g)
    assert v.outcome == "multipleRecursors"
    assert v.recursor.table != v.second.table


def test_recursor_search_agrees_with_exhaustive_small():
    # every system with |N|, |X| <= 2, exhaustively
    for ns in (1, 2):
        for xs in (1, 2):
            n, x = FinObj(ns), FinObj(xs)
            for zt in range(ns):
                z = FinMap(finset.terminal(), n, (zt,))
                for st in iproduct(range(ns), repeat=ns):
                    s = FinMap(n, n, st)
                    for ft in range(xs):
                        f = FinMap(finset.terminal(), x, (ft,))
                        for gt in iproduct(range(xs), repeat=xs):
                            g = FinMap(x, x, gt)
                            got = recursor_search(n, z, s, x, f, g).outcome
                            assert got == classify_brute(n, z, s, x, f, g)


def test_recursor_search_agrees_with_exhaustive_sampled():
    rng = random.Random(31)
    for _ in range(400):
        ns, xs = rng.randint(1, 4), rng.randint(1, 4)
        n, x = FinObj(ns), FinObj(xs)
        z = FinMap(finset.terminal(), n, (rng.randrange(ns),))
        s = FinMap(n, n, tuple(rng.randrange(ns) for _ in range(ns)))
        f = FinMap(finset.terminal(), x, (rng.randrange(xs),))
        g = FinMap(x, x, tuple(rng.randrange(xs) for _ in range(xs)))
        assert recursor_search(n, z, s, x, f, g).outcome == \
            classify_brute(n, z, s, x, f, g)


def test_refute_finite_nno_size_one():
    refs = refute_finite_nno(1)
    assert len(refs) == 1
    (x, f, g) = refs[0].test
    assert x.size == 2 and g.table == (1, 0)
    assert refs[0].verdict.outcome == "noRecursor"


def test_refute_finite_nno_counts_and_verification():
    for max_size in (1, 2, 3):
        cands = nno_candidates(max_size)
        refs = refute_finite_nno(max_size)
        assert len(refs) == len(cands)
        for r in refs:
            n, z, s = r.candidate
            x, f, g = r.test
            # counterexample re-verifies against the independent oracle
            assert classify_brute(n, z, s, x, f, g) == r.verdict.outcome
            assert r.verdict.outcome in ("noRecursor", "multipleRecursors")


def test_two_dimensional_check_identity_cell():
    two = free_arrow()
    n = FinObj(1)
    z = FinMap(finset.terminal(), n, (0,))
    s = identity(n)
    alpha = FinMap(finset.terminal(), two.C1, (0,))
    v = two_dimensional_nno_check(n, z, s, two, id_functor(two), alpha)
    assert v.outcome == "uniqueRecursor"
    assert v.recursor.table == (0,)


def test_two_dimensional_check_agrees_with_recursor_search():
    two = free_arrow()
    rng = random.Random(41)
    for g in enumerate_functors(two, two):
        for ns in (1, 2, 3):
            n = FinObj(ns)
            z = FinMap(finset.terminal(), n, (0,))
            s = FinMap(n, n, tuple(rng.randrange(ns) for _ in range(ns)))
            for a0 in range(two.C1.size):
                alpha = FinMap(finset.terminal(), two.C1, (a0,))
                lhs = two_dimensional_nno_check(n, z, s, two, g, alpha)
                rhs = recursor_search(n, z, s, two.C1, alpha, g.f1)
                assert lhs.outcome == rhs.outcome


def test_two_dimensional_refutations():
    two = free_arrow()
    # shift-style refutation carries over to the arrows level
    n = FinObj(1)
    z = FinMap(finset.terminal(), n, (0,))
    s = identity(n)
    swap_like = [g for g in enumerate_functors(two, two)]
    refuted = 0
    for g in swap_like:
        for a0 in range(two.C1.size):
            alpha = FinMap(finset.terminal(), two.C1, (a0,))
            if two_dimensional_nno_check(n, z, s, two, g, alpha).outcome == "noRecursor":
                refuted += 1
    assert refuted > 0


def test_generator_check_with_free_arrow(functor_corpus):
    pairs = []
    for i, f in enumerate(functor_corpus):
        for g in functor_corpus[i + 1:]:
            if f.dom == g.dom and f.cod == g.cod and f != g:
                pairs.append((f, g))
    assert generator_check([free_arrow()], pairs) == ()


def test_generator_check_vacuous_on_equal_pair():
    two = free_arrow()
    f = id_functor(two)
    assert generator_check([free_arrow()], [(f, f)]) == ()


def test_disc_one_fails_on_arrow_only_difference():
    # two functors equal on objects, different on arrows
    from fincat.corpus import monoid_delooping
    z2 = monoid_delooping([[0, 1], [1, 0]])
    two = free_arrow()
    fs = [h for h in enumerate_functors(two, z2)]
    same_objects = [(f, g) for f in fs for g in fs
                    if f.f0.table == g.f0.table and f.f1.table != g.f1.table]
    assert same_objects
    failures = generator_check([disc(finset.terminal())], same_objects[:1])
    assert failures == tuple(same_objects[:1])
    assert generator_check([free_arrow()], same_objects[:1]) == ()


def test_generator_separates_two_cells_via_powers():
    # distinct parallel 2-cells correspond to distinct functors into the
    # power, which the free arrow separates on 1-cells
    from fincat.limits import enumerate_cells, power_by_two
    from fincat.transfer import indisc
    b = indisc(FinObj(2))
    two = free_arrow()
    fs = enumerate_functors(two, b)
    cells = [c for f in fs for g in fs for c in enumerate_cells(f, g)]
    p = power_by_two(b)
    reps = [p.cell_to_functor(c) for c in cells]
    seen = set()
    for i, r in enumerate(reps):
        for j, r2 in enumerate(reps[:i]):
            if cells[i] != cells[j]:
                assert r != r2
                assert generator_check([free_arrow()], [(r, r2)]) == ()
                seen.add((i, j))
    assert seen


def test_arrow_probe_recipe():
    two = free_arrow()
    for cat in (two, disc(FinObj(3))):
        for arrow in range(cat.C1.size):
            h = arrow_functor(cat, arrow)
            assert validate_functor(h).ok
            assert h.f1.table[2] == arrow


def test_two_well_pointed(functor_corpus):
    pairs = []
    for i, f in enumerate(functor_corpus[:40]):
        for g in functor_corpus[i + 1:40]:
            if f.dom == g.dom and f.cod == g.cod and f != g:
                pairs.append((f, g))
    assert two_well_pointed_check(pairs, range(6)) == ()


def test_two_well_pointed_catches_planted_pair():
    # mutate a functor's arrow table to plant a distinct parallel pair
    two = free_arrow()
    from fincat.corpus import monoid_delooping
    z2 = monoid_delooping([[0, 1], [1, 0]])
    f = [h for h in enumerate_functors(two, z2) if h.f1.table[2] == 0][0]
    g = InternalFunctor(two, z2, f.f0, FinMap(two.C1, z2.C1, (0, 0, 1)))
    assert validate_functor(g).ok
    probe = arrow_functor(two, 2)
    assert compose_functors(f, probe) != compose_functors(g, probe)
    assert two_well_pointed_check([(f, g)], range(4)) == ()


def test_run_audit_default_expectations():
    report = run_audit(AuditConfig(corpus_size=10))
    entries = report["entries"]
    assert entries["nno"]["verdict"] == "refuted"
    for name, data in entries.items():
        if name != "nno":
            assert data["verdict"] == "verified-at-scale", name


def test_cartesian_closed_checks_the_isomorphism(monkeypatch):
    from fincat import audit, limits
    real = limits.hom_category

    def one_cell_repeated(a, b, bound):
        # as many cells as the true hom, but one of them listed twice
        hc = real(a, b, bound)
        if len(hc.arrows) < 2:
            return hc
        arrows = hc.arrows[:-2] + (hc.arrows[-1],) * 2
        return limits.HomCategory(hc.objects, arrows, hc.identity, hc.comp)

    config = AuditConfig(corpus_size=6, suites=("cartesianClosed",))
    honest = run_audit(config)["entries"]["cartesianClosed"]
    assert honest["verdict"] == "verified-at-scale"
    monkeypatch.setattr(audit, "hom_category", one_cell_repeated)
    entry = run_audit(config)["entries"]["cartesianClosed"]
    assert entry["verdict"] == "refuted"
    compared = entry["witnesses"]["pairs_compared"]
    assert compared == honest["witnesses"]["pairs_compared"]
    assert entry["witnesses"]["agreements"] < compared


def test_finite_limits_reports_the_first_failing_product(monkeypatch):
    from fincat import audit
    bad = ValidationReport((Violation("planted", 0, "planted failure"),))
    calls = []

    def third_fails(cat):
        calls.append(cat)
        return bad if len(calls) == 3 else validate_category(cat)

    monkeypatch.setattr(audit, "validate_category", third_fails)
    config = AuditConfig(suites=("finiteLimits",))
    corpus = generate_corpus(CorpusSpec(
        seed=config.seed, max_objects=config.max_objects,
        max_arrows=config.max_arrows, count=config.corpus_size))
    entry = run_audit(config)["entries"]["finiteLimits"]
    # the third product is corpus[0] x corpus[2], and the suite stops there
    assert entry == {"verdict": "refuted",
                     "witnesses": {"pair": (corpus[0].C0.size, corpus[2].C0.size)}}
    assert len(calls) == 3


def test_run_audit_zero_corpus_skips():
    # a suite that reads the corpus checks nothing on an empty one, so it is
    # skipped with its zero counts; boolean and twoValued read no corpus
    entries = run_audit(AuditConfig(corpus_size=0))["entries"]
    assert {name: data["verdict"] for name, data in entries.items()} == {
        **dict.fromkeys(SUITES, "skipped"), "nno": "refuted",
        "boolean": "verified-at-scale", "twoValued": "verified-at-scale"}
    assert entries["finiteLimits"]["witnesses"] == {"products_checked": 0}
    assert entries["wellPointed2"]["witnesses"] == {"pairs_tested": 0}


@pytest.mark.parametrize("max_objects,max_arrows", [(0, 10), (4, 1)])
def test_well_pointed_with_no_parallel_pair_is_skipped(max_objects, max_arrows):
    # the corpus is not empty, but no functor out of a category with an
    # object has a distinct parallel partner
    config = AuditConfig(max_objects=max_objects, max_arrows=max_arrows,
                         suites=("wellPointed2",))
    assert run_audit(config)["entries"]["wellPointed2"] == {
        "verdict": "skipped", "witnesses": {"pairs_tested": 0}}


@pytest.mark.parametrize("holds,checked,verdict", [
    (False, 0, "refuted"), (False, 2, "refuted"),
    (True, 0, "skipped"), (True, 1, "verified-at-scale")])
def test_run_audit_names_the_verdict(holds, checked, verdict, monkeypatch):
    # a failure is refuted even when nothing was counted
    monkeypatch.setitem(SUITES, "boolean", Suite(
        lambda corpus, functors, config: (holds, checked, {"n": checked})))
    entry = run_audit(AuditConfig(suites=("boolean",)))["entries"]["boolean"]
    assert entry == {"verdict": verdict, "witnesses": {"n": checked}}


def test_well_pointed_base_failure_is_refuted(monkeypatch):
    # the base checks count toward no item, but their failure is a refutation
    from fincat import audit
    monkeypatch.setattr(audit, "diagonal_equaliser_holds", lambda a: a.size != 3)
    entry = run_audit(AuditConfig(suites=("wellPointed2",)))["entries"]
    assert entry["wellPointed2"]["verdict"] == "refuted"


def test_well_pointed_base_sizes_keep_within_the_size_bound(monkeypatch):
    # A x A x A has n ** 3 elements; at max_objects 40 the sizes reach 41
    from fincat import audit
    real, seen = audit.diagonal_equaliser_holds, []

    def within_bound(a):
        if a.size ** 3 > 1000:
            raise AssertionError(f"A x A x A of size {a.size ** 3} built")
        seen.append(a.size)
        return real(a)

    monkeypatch.setattr(audit, "diagonal_equaliser_holds", within_bound)
    config = AuditConfig(max_objects=40, size_bound=1000)
    assert SUITES["wellPointed2"].check([], [], config) == (
        True, 0, {"pairs_tested": 0})
    assert seen == list(range(11))


def test_run_audit_deterministic():
    a = serialize_report(run_audit(AuditConfig(corpus_size=8)))
    b = serialize_report(run_audit(AuditConfig(corpus_size=8)))
    assert a == b


def test_default_suites_are_the_registry_in_order():
    assert AuditConfig().suites == tuple(SUITES)
    report = run_audit(AuditConfig(corpus_size=4))
    assert list(report["entries"]) == list(SUITES)
    # the benchmark's report check requires an entry for every suite
    assert set(report["entries"]) == set(report["config"]["suites"])


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_each_suite_alone_gives_its_default_entry(seed):
    default = run_audit(AuditConfig(seed=seed))["entries"]
    for name in SUITES:
        alone = run_audit(AuditConfig(seed=seed, suites=(name,)))["entries"]
        assert alone[name] == default[name], name
        assert all(alone[other]["verdict"] == "skipped"
                   for other in SUITES if other != name), name


def test_selected_suites_are_listed_once_in_the_order_first_given():
    report = run_audit(AuditConfig(corpus_size=0, suites=("nno", "boolean", "nno")))
    assert report["config"]["suites"] == ["nno", "boolean"]


def test_unknown_suite_is_refused_before_the_corpus(monkeypatch):
    from fincat import audit

    def no_corpus(spec):
        raise AssertionError("the corpus was built")

    monkeypatch.setattr(audit, "generate_corpus", no_corpus)
    with pytest.raises(ValueError, match="nosuch, Boolean"):
        run_audit(AuditConfig(suites=("nosuch", "Boolean", "boolean")))

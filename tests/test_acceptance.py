"""Acceptance criteria, one test per criterion, each printing a verdict line.

The corpus is the default deterministic one: 25 categories with at most 4
objects and 10 arrows each, seed 7.
"""

import random
import time
from itertools import product as iproduct

from fincat import finset, serialize
from fincat.audit import (AuditConfig, recursor_search, refute_finite_nno,
                          run_audit, two_well_pointed_check)
from fincat.classifiers import (classify_full_mono,
                                classifying_square_is_pullback,
                                full_subobject_classifier, is_boolean,
                                is_two_valued, section_of_ff_epi)
from fincat.corpus import CorpusSpec, generate_corpus
from fincat.errors import SizeBound
from fincat.factorisation import (epi_mono_ofs, factor_internal,
                                  in_lifted_left, in_lifted_right, is_acute,
                                  iso_all_ofs, left_orthogonal_to, lift_square,
                                  lift_two_cell)
from fincat.finset import FinMap, FinObj, compose, identity
from fincat.internal import (InternalNatTrans, compose_functors, id_functor,
                             id_nat_trans, is_epi_on_objects, is_full_mono,
                             is_fully_faithful, validate_category,
                             validate_functor, validate_nat_trans,
                             whisker_left, whisker_right)
from fincat.limits import (enumerate_cells, enumerate_functors, free_arrow,
                           hom_category, hom_iso_with_oracle, internal_hom,
                           power_by_two)
from fincat.transfer import (adjunction_disc_objects,
                             adjunction_objects_indisc, adjunction_pi0_disc,
                             functor_to_indisc, indisc_map, pi0, pi0_quotient)
from fincat.internal import reflects_identities


SIZE_BOUND = 10 ** 6


def _verdict(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_01_oracle_hom_equivalence(corpus):
    assert len(corpus) >= 25
    assert all(c.C0.size <= 4 and c.C1.size <= 10 for c in corpus)
    start = time.time()
    compared = 0
    hom_s = oracle_s = 0.0  # on the pairs compared: end path, oracle
    skipped = {}  # SizeBound stage -> corpus pairs skipped there
    for i, a in enumerate(corpus):
        for j, b in enumerate(corpus):
            try:
                t0 = time.perf_counter()
                ih = internal_hom(a, b, SIZE_BOUND)
                t1 = time.perf_counter()
                hc = hom_category(a, b, SIZE_BOUND)
                t2 = time.perf_counter()
            except SizeBound as exc:
                skipped.setdefault(exc.stage, []).append((i, j))
                continue
            hom_s += t1 - t0
            oracle_s += t2 - t1
            assert ih.carrier.C0.size == len(hc.objects), (a, b)
            assert ih.carrier.C1.size == len(hc.arrows), (a, b)
            hom_iso_with_oracle(ih, hc)
            compared += 1
    elapsed = time.time() - start
    causes = ", ".join(f"{len(pairs)} at {stage}"
                       for stage, pairs in sorted(skipped.items()))
    # (10, 4) and (10, 9) are refused before the level-1 end: each ranges
    # over 16,777,216 component tables; (20, 9) has 1,048,576 composable
    # pairs of cells
    assert skipped == {"component tables": [(10, 4), (10, 9)],
                       "cell pairs": [(20, 9)]}, skipped
    ratio = f", ratio {hom_s / oracle_s:.2f}" if oracle_s else ""
    _verdict("criterion 1: oracle hom equivalence", compared > 0 and elapsed < 120,
             f"{compared} pairs agreed, {sum(map(len, skipped.values()))} "
             f"skipped by bound ({causes or 'none'}), {elapsed:.1f}s; "
             f"hom {hom_s:.2f}s, oracle {oracle_s:.2f}s{ratio}")


def test_criterion_01_segal_join_completes_pair_21_20(corpus):
    # a hom of 64 functors whose level-2 end exceeds the step bound; the
    # join composes it from level 1 alone
    a, b = corpus[21], corpus[20]
    ih = internal_hom(a, b, SIZE_BOUND)
    hc = hom_category(a, b, SIZE_BOUND)
    assert (ih.carrier.C0.size, ih.carrier.C1.size) == (64, 343)
    assert (len(hc.objects), len(hc.arrows)) == (64, 343)
    hom_iso_with_oracle(ih, hc)


def test_criterion_02_power_by_two(corpus):
    two = free_arrow()
    for a in corpus:
        p = power_by_two(a)
        assert p.carrier.C0.size == a.C1.size, "objects of the power are arrows"
    p = power_by_two(two)
    # brute force over composable pairs with equal composite
    pairs = [(u, v) for u in range(3) for v in range(3)
             if two.d1.table[u] == two.d0.table[v]]
    squares = [(x, y) for x in pairs for y in pairs if two.comp(*x) == two.comp(*y)]
    assert len(squares) == 6 and p.carrier.C1.size == 6
    matched = 0
    for a in corpus:
        if a.C1.size > 8:
            continue
        p = power_by_two(a)
        hc = hom_category(two, a)
        assert p.carrier.C0.size == len(hc.objects)
        assert p.carrier.C1.size == len(hc.arrows)
        _assert_power_iso(a, p, hc)
        matched += 1
    _verdict("criterion 2: power-by-2 correctness",
             matched >= 5, f"{matched} corpus categories matched against [2, A]")


def _assert_power_iso(a, p, hc):
    """Explicit isomorphism from the power onto the enumerated functor
    category [2, A]: an object of the power is an arrow of a, which picks a
    functor from the free arrow; a square picks a 2-cell. Checked against the
    oracle's own identity and composition tables."""
    from fincat.audit import arrow_functor
    obj_index = {h: i for i, h in enumerate(hc.objects)}
    cell_index = {c: i for i, c in enumerate(hc.arrows)}
    table0 = []
    for u in range(a.C1.size):
        h = arrow_functor(a, u)
        table0.append(obj_index[(h.f0.table, h.f1.table)])
    carrier = p.carrier
    table1 = []
    for sq in range(carrier.C1.size):
        u = carrier.d1.table[sq]
        v = carrier.d0.table[sq]
        h_comp = p.source_proj.f1.table[sq]
        k_comp = p.target_proj.f1.table[sq]
        # the 2-cell between the picked functors has components (h, k)
        table1.append(cell_index[(table0[u], table0[v], (h_comp, k_comp))])
    assert sorted(table0) == list(range(len(hc.objects)))
    assert sorted(table1) == list(range(len(hc.arrows)))
    for u in range(carrier.C0.size):
        assert table1[carrier.i.table[u]] == hc.identity[table0[u]]
    for q, (s2, s1) in enumerate(carrier.pairs.tuples):
        assert table1[carrier.m.table[q]] == hc.comp[(table1[s2], table1[s1])]


def test_criterion_03_factorisation_suite(corpus, functor_corpus):
    functors = functor_corpus
    if len(functors) < 200:
        functors = functors * (200 // len(functors) + 1)
    functors = functors[:max(200, len(functors))]
    assert len(functors) >= 200
    failures = 0
    for ofs in (epi_mono_ofs(), iso_all_ofs()):
        for f in functors:
            fact = factor_internal(f, ofs)
            ok = (compose_functors(fact.right, fact.left) == f
                  and in_lifted_left(fact.left, ofs)
                  and in_lifted_right(fact.right, ofs)
                  and validate_category(fact.middle).ok
                  and validate_functor(fact.left).ok
                  and validate_functor(fact.right).ok)
            if not ok:
                failures += 1
    squares = _generate_lifting_squares(functor_corpus, need=100)
    assert len(squares) >= 100
    for (s, f, p, q, ofs, known) in squares:
        got = lift_square(s, f, p, q, ofs)
        if got != known:
            failures += 1
            continue
        fillers = [w for w in enumerate_functors(s.cod, f.dom)
                   if compose_functors(f, w) == q and compose_functors(w, s) == p]
        if fillers != [got]:
            failures += 1
    cells_checked = _check_two_cell_lifts(functor_corpus)
    _verdict("criterion 3: factorisation suite", failures == 0 and cells_checked >= 10,
             f"{2 * len(functors)} factorisations, {len(squares)} squares, "
             f"{cells_checked} 2-cell lifts, {failures} failures")


def _generate_lifting_squares(functor_corpus, need):
    squares = []
    em, ia = epi_mono_ofs(), iso_all_ofs()
    lefts_em = [s for s in functor_corpus
                if is_epi_on_objects(s) and s.cod.C1.size <= 6 and s.dom.C1.size <= 6]
    lefts_ia = [s for s in lefts_em if finset.is_iso(s.f0)]
    rights = [f for f in functor_corpus
              if is_full_mono(f) and f.dom.C1.size <= 6 and f.cod.C1.size <= 6]
    for ofs, lefts in ((em, lefts_em), (ia, lefts_ia)):
        for s in lefts:
            for f in rights:
                for u in enumerate_functors(s.cod, f.dom)[:3]:
                    squares.append((s, f, compose_functors(u, s),
                                    compose_functors(f, u), ofs, u))
                    if len(squares) >= need * 2:
                        return squares
    return squares


def _check_two_cell_lifts(functor_corpus):
    checked = 0
    em = epi_mono_ofs()
    lefts = [s for s in functor_corpus
             if is_epi_on_objects(s) and s.cod.C0.size <= 4 and s.cod.C1.size <= 6]
    rights = [f for f in functor_corpus
              if is_full_mono(f) and f.dom.C1.size <= 6 and f.cod.C1.size <= 6]
    for s in lefts[:4]:
        for f in rights[:4]:
            fillers = enumerate_functors(s.cod, f.dom)
            for u0 in fillers[:2]:
                for u1 in fillers[:2]:
                    for gamma in enumerate_cells(u0, u1)[:2]:
                        alpha_bar = whisker_right(gamma, s)
                        beta_bar = whisker_left(f, gamma)
                        got = lift_two_cell(s, f, alpha_bar, beta_bar, u0, u1, em)
                        assert got == gamma
                        x = f.dom
                        b = s.cod
                        winners = [
                            t for t in iproduct(range(x.C1.size), repeat=b.C0.size)
                            if compose(f.f1, FinMap(b.C0, x.C1, t)).table == beta_bar.alpha.table
                            and compose(FinMap(b.C0, x.C1, t), s.f0).table == alpha_bar.alpha.table
                            and validate_nat_trans(
                                InternalNatTrans(u0, u1, FinMap(b.C0, x.C1, t))).ok]
                        assert winners == [gamma.alpha.table]
                        checked += 1
    return checked


def test_criterion_04_classifier_suite(corpus, functor_corpus):
    fsc = full_subobject_classifier()
    monos = [f for f in functor_corpus if is_full_mono(f)]
    assert monos
    classified = unique_checked = 0
    for f in monos:
        chi = classify_full_mono(f)
        assert classifying_square_is_pullback(f, chi, fsc)
        classified += 1
        b = f.cod
        if b.C0.size <= 4 and b.C1.size <= 8:
            winners = [t for t in iproduct(range(2), repeat=b.C0.size)
                       if classifying_square_is_pullback(
                           f, functor_to_indisc(b, FinMap(b.C0, FinObj(2), t)), fsc)]
            assert winners == [chi.f0.table]
            unique_checked += 1
    # the classifier is the free-living isomorphism: 2 objects, 4 arrows,
    # singleton homs, every arrow invertible
    omega = fsc.omega
    iso_shape = (omega.C0.size == 2 and omega.C1.size == 4
                 and all(len(omega.homs.get((x, y), ())) == 1
                         for x in range(2) for y in range(2)))
    for u in range(omega.C1.size):
        src, tgt = omega.d1.table[u], omega.d0.table[u]
        v = omega.homs.get((tgt, src), ())[0]
        iso_shape = iso_shape and (omega.comp(v, u) == omega.i.table[src]
                                   and omega.comp(u, v) == omega.i.table[tgt])
    _verdict("criterion 4: classifier suite",
             classified == len(monos) and unique_checked >= 3 and iso_shape,
             f"{classified} full monos classified, {unique_checked} uniqueness checks")


def test_criterion_05_choice_suite(corpus, functor_corpus):
    certs = 0
    for e in functor_corpus:
        if not (is_fully_faithful(e) and is_epi_on_objects(e)):
            continue
        cert = section_of_ff_epi(e)
        assert compose_functors(e, cert.section) == id_functor(e.cod)
        assert whisker_left(e, cert.unit) == id_nat_trans(e)
        assert whisker_right(cert.unit, cert.section) == id_nat_trans(cert.section)
        certs += 1
    from fincat.corpus import full_subcategory_inclusion
    monos = [r for r in functor_corpus
             if is_full_mono(r) and r.dom.C0.size <= 5 and r.dom.C1.size <= 5
             and r.cod.C0.size <= 5 and r.cod.C1.size <= 5]
    probes = [f for f in functor_corpus
              if f.dom.C0.size <= 3 and f.dom.C1.size <= 4
              and f.cod.C0.size <= 3 and f.cod.C1.size <= 4][:6]
    agreements = 0
    for f in probes:
        family = monos[:5]
        image = sorted(set(f.f0.table))
        if 0 < len(image) < f.cod.C0.size:
            # the inclusion of the image objects witnesses non-acuteness
            _sub, inc = full_subcategory_inclusion(f.cod, image)
            family = family + [inc]
        direct = all(left_orthogonal_to(f, r) for r in family)
        assert is_acute(f) == direct, "acuteness disagrees with orthogonality"
        agreements += 1
    _verdict("criterion 5: choice suite", certs >= 5 and agreements == len(probes),
             f"{certs} section certificates, {agreements} orthogonality agreements")


def test_criterion_06_nno_refutation():
    refs = refute_finite_nno(4)
    assert refs, "no candidates enumerated"
    for r in refs:
        assert r.verdict.outcome in ("noRecursor", "multipleRecursors")
        n, z, s = r.candidate
        x, f, g = r.test
        brute = _brute_recursor_count(n, z, s, x, f, g)
        expected = 0 if r.verdict.outcome == "noRecursor" else 2
        assert (brute == 0) == (r.verdict.outcome == "noRecursor")
        assert (brute >= 2) == (r.verdict.outcome == "multipleRecursors")
    rng = random.Random(61)
    agree = 0
    for _ in range(250):
        ns, xs = rng.randint(1, 4), rng.randint(1, 4)
        n, x = FinObj(ns), FinObj(xs)
        z = FinMap(finset.terminal(), n, (rng.randrange(ns),))
        s = FinMap(n, n, tuple(rng.randrange(ns) for _ in range(ns)))
        f = FinMap(finset.terminal(), x, (rng.randrange(xs),))
        g = FinMap(x, x, tuple(rng.randrange(xs) for _ in range(xs)))
        got = recursor_search(n, z, s, x, f, g).outcome
        count = _brute_recursor_count(n, z, s, x, f, g)
        want = ("noRecursor" if count == 0
                else "uniqueRecursor" if count == 1 else "multipleRecursors")
        assert got == want
        agree += 1
    _verdict("criterion 6: nno refutation",
             len(refs) > 0 and agree == 250,
             f"{len(refs)} candidates refuted, {agree} sampled agreements")


def _brute_recursor_count(n, z, s, x, f, g):
    count = 0
    for table in iproduct(range(x.size), repeat=n.size):
        if table[z.table[0]] != f.table[0]:
            continue
        if all(table[s.table[k]] == g.table[table[k]] for k in range(n.size)):
            count += 1
            if count >= 2:
                return count
    return count


def test_criterion_07_two_well_pointedness(corpus, functor_corpus):
    pairs = []
    for i, f in enumerate(functor_corpus):
        for g in functor_corpus[i + 1:]:
            if f.dom == g.dom and f.cod == g.cod and f != g:
                pairs.append((f, g))
    failures = two_well_pointed_check(pairs, range(6))
    assert pi0(free_arrow()).size == 1
    _verdict("criterion 7: 2-well-pointedness",
             failures == () and len(pairs) > 0,
             f"{len(pairs)} distinct parallel pairs separated by the free arrow")


def test_criterion_08_adjunction_suite(corpus, functor_corpus):
    rng = random.Random(71)
    d_adj = adjunction_disc_objects()
    i_adj = adjunction_objects_indisc()
    p_adj = adjunction_pi0_disc()
    round_trips = 0
    for a in corpus[:10]:
        if a.C0.size == 0:
            continue
        x = FinObj(2)
        for _ in range(5):
            t = FinMap(x, a.C0, tuple(rng.randrange(a.C0.size) for _ in range(2)))
            assert d_adj.transpose_forward(d_adj.transpose_backward(x, a, t)).table == t.table
            t2 = FinMap(a.C0, x, tuple(rng.randrange(2) for _ in range(a.C0.size)))
            assert i_adj.transpose_backward(i_adj.transpose_forward(a, x, t2)).table == t2.table
            p = pi0(a)
            t3 = FinMap(p, x, tuple(rng.randrange(2) for _ in range(p.size)))
            assert p_adj.transpose_backward(p_adj.transpose_forward(a, x, t3)).table == t3.table
            round_trips += 3
        # triangle identities
        eps = d_adj.counit(a)
        assert compose(eps.f0, d_adj.unit(a.C0)).table == identity(a.C0).table
        assert i_adj.unit(a).f0.table == identity(a.C0).table
        q = pi0_quotient(a)
        induced = finset.coeq_factor(q, compose(p_adj.counit(pi0(a)), p_adj.unit(a).f0))
        assert induced.table == identity(pi0(a)).table
    ff_agree = refl_agree = 0
    for f in functor_corpus:
        a, b = f.dom, f.cod
        unit_a = functor_to_indisc(a, identity(a.C0))
        unit_b = functor_to_indisc(b, identity(b.C0))
        ind_f = indisc_map(f.f0)
        level1 = finset.is_pullback_square(f.f1, unit_a.f1, unit_b.f1, ind_f.f1)
        assert level1 == is_fully_faithful(f)
        ff_agree += 1
        eps_a, eps_b = d_adj.counit(a), d_adj.counit(b)
        level1c = finset.is_pullback_square(f.f0, eps_a.f1, eps_b.f1, f.f1)
        assert level1c == reflects_identities(f)
        refl_agree += 1
    _verdict("criterion 8: adjunction suite", round_trips > 0 and ff_agree > 0,
             f"{round_trips} round trips, {ff_agree} ff/unit and "
             f"{refl_agree} reflects-identities/counit agreements")


def test_criterion_09_boolean_two_valued():
    boolean = is_boolean()
    verdict, report = is_two_valued()
    ok = (boolean and verdict and report["objects"] == 2
          and report["free_living_isomorphism"])
    _verdict("criterion 9: boolean and two-valued", ok,
             f"2 truth functors, hom-category is the free-living isomorphism")


def test_criterion_10_determinism(corpus):
    rep1 = serialize.serialize_report(run_audit(AuditConfig(corpus_size=8)))
    rep2 = serialize.serialize_report(run_audit(AuditConfig(corpus_size=8)))
    spec = CorpusSpec(seed=13, count=12)
    texts1 = [serialize.serialize_category(c) for c in generate_corpus(spec)]
    texts2 = [serialize.serialize_category(c) for c in generate_corpus(spec)]
    _verdict("criterion 10: determinism",
             rep1 == rep2 and texts1 == texts2,
             "byte-identical audit reports and serialized corpora")

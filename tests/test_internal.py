"""Internal categories, functors, 2-cells: validators, 2-category operations,
predicates, and the naive-category oracle equivalence."""

import random
from collections import Counter
from itertools import product as iproduct

import pytest

from fincat import finset, naive
from fincat.corpus import (CorpusSpec, category_from_tables, free_on_dag,
                           full_subcategory_inclusion, generate_corpus,
                           generate_functor_corpus, monoid_delooping,
                           opposite)
from fincat.errors import DomainMismatch, FiberNotSingleton, SizeBound
from fincat.factorisation import epi_mono_ofs, factor_internal, iso_all_ofs
from fincat.finset import FinMap, FinObj, compose, identity
from fincat.internal import (InternalCategory, InternalFunctor,
                             InternalNatTrans, Violation, compose_functors,
                             full_image, hcomp, id_functor,
                             id_nat_trans, is_epi_on_objects, is_faithful,
                             is_full_mono, is_fully_faithful,
                             is_iso_on_objects, is_mono_functor, lift_arrows,
                             validate_category, validate_functor,
                             validate_nat_trans, vcomp, whisker_left,
                             whisker_right)
from fincat.limits import (coproduct_cat, enumerate_cells, enumerate_functors,
                           free_arrow, internal_hom, power_by_two, product_cat)
from fincat.transfer import disc, disc_map, indisc


def walking_arrow_by_hand():
    # transcribe the ordinary two-object category with one non-identity arrow
    return category_from_tables(
        2, [(0, 0), (1, 1), (0, 1)],
        {(0, 0): 0, (1, 1): 1, (2, 0): 2, (1, 2): 2}, [0, 1])


def test_discrete_category_is_valid():
    assert validate_category(disc(FinObj(3))).ok


def test_walking_arrow_transcription_is_valid():
    cat = walking_arrow_by_hand()
    assert validate_category(cat).ok
    assert (cat.C0.size, cat.C1.size) == (2, 3)


def test_corrupt_composition_names_broken_axiom():
    cat = free_arrow()
    bad_m = list(cat.m.table)
    bad_m[2] = 0  # id_tgt . arrow should be the arrow, send it elsewhere
    bad = InternalCategory(cat.C0, cat.C1, cat.d0, cat.d1, cat.i,
                           FinMap(cat.m.dom, cat.C1, tuple(bad_m)))
    report = validate_category(bad)
    assert not report.ok
    axioms = {v.axiom for v in report.violations}
    assert axioms & {"left-unit", "right-unit", "associativity",
                     "composite-target", "composite-source"}


def _reference_violations(c):
    """validate_category's report, written as plain loops over arrows: the
    composable pairs are listed in lexicographic (u, v) order, the order of
    the table of m."""
    d0, d1, i = c.d0.table, c.d1.table, c.i.table
    arrows = range(c.C1.size)
    pairs = [(u, v) for u in arrows for v in arrows if d1[u] == d0[v]]
    comp = dict(zip(pairs, c.m.table))
    out = []
    for x in range(c.C0.size):
        if d0[i[x]] != x:
            out.append(Violation("identity-target", x, "d0(i(x)) != x"))
        if d1[i[x]] != x:
            out.append(Violation("identity-source", x, "d1(i(x)) != x"))
    for u, v in pairs:
        if d0[comp[(u, v)]] != d0[u]:
            out.append(Violation("composite-target", (u, v),
                                 "d0(u.v) != d0(u)"))
        if d1[comp[(u, v)]] != d1[v]:
            out.append(Violation("composite-source", (u, v),
                                 "d1(u.v) != d1(v)"))
    if out:
        return tuple(out)
    for a in arrows:
        if comp[(i[d0[a]], a)] != a:
            out.append(Violation("left-unit", a, "id . a != a"))
        if comp[(a, i[d1[a]])] != a:
            out.append(Violation("right-unit", a, "a . id != a"))
    for u in arrows:
        for v in arrows:
            for w in arrows:
                if d1[u] != d0[v] or d1[v] != d0[w]:
                    continue
                if comp[(comp[(u, v)], w)] != comp[(u, comp[(v, w)])]:
                    out.append(Violation("associativity", (u, v, w),
                                         "(u.v).w != u.(v.w)"))
    return tuple(out)


def _corrupted(c, rng, count, same_hom):
    """c with `count` entries of m replaced: by any arrow, or, with
    `same_hom`, by an arrow with the composite's endpoints, so that the unit
    and associativity checks are reached."""
    m = list(c.m.table)
    for _ in range(count):
        k = rng.randrange(len(m))
        u, v = c.pairs.tuples[k]
        if same_hom:
            m[k] = rng.choice(c.homs[(c.d1.table[v], c.d0.table[u])])
        else:
            m[k] = rng.randrange(c.C1.size)
    return InternalCategory(c.C0, c.C1, c.d0, c.d1, c.i,
                            FinMap(c.m.dom, c.C1, tuple(m)))


def test_validate_category_matches_reference_on_corrupted_corpus(corpus):
    rng = random.Random(10)
    axioms = Counter()
    for c in corpus:
        assert validate_category(c).violations == _reference_violations(c) == ()
        if not c.m.table:
            continue
        for count in (1, 2, 3):
            for same_hom in (False, True):
                bad = _corrupted(c, rng, count, same_hom)
                report = validate_category(bad)
                assert report.violations == _reference_violations(bad)
                axioms.update({v.axiom for v in report.violations})
    assert axioms["associativity"] and axioms["left-unit"]
    assert axioms["composite-target"] or axioms["composite-source"]


def test_validate_category_does_not_build_triples():
    for c in (_path3(), _cyclic(3), indisc(FinObj(3))):
        assert validate_category(c).ok
        assert "triples" not in c.__dict__
        # the nerve still builds its level of composable triples on demand
        assert c.nerve.levels[3].size == c.triples.apex.size


def _lawful_single_changes(c):
    """Every category that differs from the category c in one entry of m,
    changed to another arrow with the same endpoints, as validate_category
    judges it. Associativity at the triples (p, q, w) and (u, p, q) of the
    changed pair (p, q) is checked first as a sieve: a change that breaks
    one of them is one that validate_category rejects."""
    m, d0, d1 = c.m.table, c.d0.table, c.d1.table
    into, out_of = {}, {}
    for a, (src, tgt) in enumerate(zip(d1, d0)):
        into.setdefault(tgt, []).append(a)
        out_of.setdefault(src, []).append(a)
    for k, (p, q) in enumerate(c.pairs.tuples):
        for alt in c.homs[(d1[q], d0[p])]:
            if alt == m[k]:
                continue

            def comp(u, v, p=p, q=q, alt=alt):
                return alt if (u, v) == (p, q) else c.comp(u, v)

            if (any(comp(alt, w) != comp(p, comp(q, w))
                    for w in into.get(d1[q], ()))
                    or any(comp(comp(u, p), q) != comp(u, alt)
                           for u in out_of.get(d0[p], ()))):
                continue
            changed = InternalCategory(
                c.C0, c.C1, c.d0, c.d1, c.i,
                FinMap(c.m.dom, c.C1, m[:k] + (alt,) + m[k + 1:]))
            if validate_category(changed).ok:
                yield changed


def _some_certificate_fails(functors):
    return not all(validate_functor(f).ok for f in functors)


def test_lawful_wrong_power_composition_fails_projections(corpus):
    # a composition table that is a category but not the power's own one
    # passes validate_category; the projections' certificates reject it
    lawful = 0
    for a in corpus:
        power = power_by_two(a)
        for changed in _lawful_single_changes(power.carrier):
            lawful += 1
            assert _some_certificate_fails(
                InternalFunctor(changed, a, proj.f0, proj.f1)
                for proj in (power.source_proj, power.target_proj))
    assert lawful > 0


def test_lawful_wrong_middle_composition_fails_factors(functor_corpus):
    lawful = 0
    for f in functor_corpus:
        for ofs in (epi_mono_ofs(), iso_all_ofs()):
            fac = factor_internal(f, ofs)
            for changed in _lawful_single_changes(fac.middle):
                lawful += 1
                assert _some_certificate_fails((
                    InternalFunctor(f.dom, changed, fac.left.f0, fac.left.f1),
                    InternalFunctor(changed, f.cod, fac.right.f0, fac.right.f1)))
    assert lawful > 0


def test_full_image_and_lift_arrows_reject_malformed_input():
    two, i2 = free_arrow(), indisc(FinObj(2))
    with pytest.raises(DomainMismatch):
        full_image(FinMap(FinObj(1), FinObj(3), (2,)), two)
    # an identity assigner that leaves the arrows between images
    bad_i = InternalCategory(two.C0, two.C1, two.d0, two.d1,
                             FinMap(two.C0, two.C1, (2, 1)), two.m)
    with pytest.raises(DomainMismatch):
        full_image(identity(two.C0), bad_i)
    ff = full_image(identity(i2.C0), i2)
    objects, arrows = identity(two.C0), FinMap(two.C1, i2.C1, (0, 3, 2))
    with pytest.raises(DomainMismatch):
        lift_arrows(ff, two, FinMap(FinObj(1), i2.C0, (0,)), arrows)
    with pytest.raises(DomainMismatch):
        lift_arrows(ff, two, objects, FinMap(FinObj(2), i2.C1, (0, 3)))
    with pytest.raises(FiberNotSingleton):
        # arrow 2 of two goes 0 -> 1, but arrow 0 of indisc 2 is 0 -> 0
        lift_arrows(ff, two, objects, FinMap(two.C1, i2.C1, (0, 3, 0)))
    assert lift_arrows(ff, two, objects, arrows).table == (0, 3, 2)


def test_identity_functor_and_cell_are_valid():
    cat = free_arrow()
    f = id_functor(cat)
    assert validate_functor(f).ok
    cell = id_nat_trans(f)
    assert cell.alpha.table == compose(cat.i, f.f0).table
    assert validate_nat_trans(cell).ok


def test_invalid_cell_names_violation():
    cat = free_arrow()
    f = id_functor(cat)
    bad = InternalNatTrans(f, f, FinMap(cat.C0, cat.C1, (2, 1)))
    report = validate_nat_trans(bad)
    assert not report.ok
    assert any(v.axiom in ("component-source", "component-target")
               for v in report.violations)


def test_compose_functors_unit_laws():
    two = free_arrow()
    cells = enumerate_functors(two, disc(FinObj(2)))
    for f in cells:
        assert compose_functors(f, id_functor(two)) == f
        assert compose_functors(id_functor(f.cod), f) == f


def test_compose_functors_tables():
    two = free_arrow()
    target = walking_arrow_by_hand()
    swap0 = FinMap(two.C0, two.C0, (1, 0))
    fs = enumerate_functors(two, two)
    gs = enumerate_functors(two, target)
    for f in fs:
        for g in gs:
            gf = compose_functors(g, f)
            assert gf.f0.table == tuple(g.f0.table[v] for v in f.f0.table)
            assert gf.f1.table == tuple(g.f1.table[v] for v in f.f1.table)
            assert validate_functor(gf).ok


def chain3():
    # free category on the graph 0 -> 1 -> 2
    return free_on_dag(3, [(0, 1), (1, 2)])


def test_vcomp_units_and_chain_composite():
    c = chain3()
    one = disc(finset.terminal())
    objs = enumerate_functors(one, c)
    by_obj = {f.f0.table[0]: f for f in objs}
    # arrow indices: find e01, e12, e02 from the tables
    e01 = c.hom(0, 1)[0]
    e12 = c.hom(1, 2)[0]
    e02 = c.hom(0, 2)[0]
    alpha = InternalNatTrans(by_obj[0], by_obj[1], FinMap(one.C0, c.C1, (e01,)))
    beta = InternalNatTrans(by_obj[1], by_obj[2], FinMap(one.C0, c.C1, (e12,)))
    assert validate_nat_trans(alpha).ok and validate_nat_trans(beta).ok
    assert vcomp(id_nat_trans(by_obj[1]), alpha) == alpha
    assert vcomp(alpha, id_nat_trans(by_obj[0])) == alpha
    composite = vcomp(beta, alpha)
    assert composite.alpha.table == (e02,)


def test_whisker_with_identity_functor():
    two = free_arrow()
    for f in enumerate_functors(two, two):
        for g in enumerate_functors(two, two):
            for cell in enumerate_cells(f, g):
                assert whisker_left(id_functor(two), cell).alpha.table == cell.alpha.table
                assert whisker_right(cell, id_functor(two)).alpha.table == cell.alpha.table
    assert hcomp(id_nat_trans(id_functor(two)), id_nat_trans(id_functor(two))) \
        == id_nat_trans(id_functor(two))


def test_interchange_on_small_grids():
    a = disc(finset.terminal())
    b = chain3()
    cs = [chain3(), free_arrow()]
    rng = random.Random(2)
    checked = 0
    for c in cs:
        fs = enumerate_functors(a, b)
        gs = enumerate_functors(b, c)
        for f, f2, f3 in iproduct(fs, fs, fs):
            al = enumerate_cells(f, f2)
            al2 = enumerate_cells(f2, f3)
            if not al or not al2:
                continue
            for g, g2, g3 in iproduct(gs[:4], gs[:4], gs[:4]):
                be = enumerate_cells(g, g2)
                be2 = enumerate_cells(g2, g3)
                if not be or not be2:
                    continue
                alpha, alpha2 = al[0], al2[0]
                beta, beta2 = be[0], be2[0]
                lhs = hcomp(vcomp(beta2, beta), vcomp(alpha2, alpha))
                rhs = vcomp(hcomp(beta2, alpha2), hcomp(beta, alpha))
                assert lhs == rhs
                checked += 1
                if checked > 40:
                    return
    assert checked > 0


def test_hcomp_middle_four_orders_agree():
    b = chain3()
    c = free_arrow()
    one = disc(finset.terminal())
    fs = enumerate_functors(one, b)
    gs = enumerate_functors(b, c)
    for f, f2 in iproduct(fs, fs):
        for alpha in enumerate_cells(f, f2):
            for g, g2 in iproduct(gs, gs):
                for beta in enumerate_cells(g, g2):
                    left_first = vcomp(whisker_right(beta, f2), whisker_left(g, alpha))
                    right_first = vcomp(whisker_left(g2, alpha), whisker_right(beta, f))
                    assert left_first == right_first == hcomp(beta, alpha)


def test_predicates_on_identity():
    two = free_arrow()
    f = id_functor(two)
    assert is_fully_faithful(f)
    assert is_mono_functor(f)
    assert is_full_mono(f)
    assert is_epi_on_objects(f)
    assert is_iso_on_objects(f)


def test_disc_of_mono_is_full_mono():
    i = FinMap(FinObj(2), FinObj(4), (1, 3))
    f = disc_map(i)
    assert is_full_mono(f)
    assert not is_epi_on_objects(f)


def test_endpoint_inclusion_predicates():
    two = free_arrow()
    one = disc(finset.terminal())
    inc = InternalFunctor(one, two, FinMap(one.C0, two.C0, (0,)),
                          FinMap(one.C1, two.C1, (0,)))
    assert is_fully_faithful(inc)
    assert is_mono_functor(inc)
    assert not is_epi_on_objects(inc)


def test_fully_faithful_iff_fiber_bijection(corpus, functor_corpus):
    # direct re-implementation: every hom-fiber maps bijectively
    for f in functor_corpus[:40]:
        a, b = f.dom, f.cod
        expected = True
        for x in range(a.C0.size):
            for y in range(a.C0.size):
                fiber = a.hom(x, y)
                image = [f.f1.table[u] for u in fiber]
                target = b.hom(f.f0.table[x], f.f0.table[y])
                if sorted(image) != sorted(target) or len(set(image)) != len(image):
                    expected = False
        assert is_fully_faithful(f) == expected


def test_operations_self_validate(corpus, functor_corpus):
    for f in functor_corpus[:30]:
        assert validate_functor(f).ok
        assert validate_nat_trans(id_nat_trans(f)).ok


def test_oracle_equivalence_with_naive_categories(corpus):
    for cat in corpus:
        if cat.C0.size > 4 or cat.C1.size > 10:
            continue
        nc = naive.oracle_from_internal(cat)
        assert naive.validate_naive(nc) == []
    small = [c for c in corpus if c.C0.size <= 3 and c.C1.size <= 6][:5]
    for a in small:
        for b in small:
            fs = enumerate_functors(a, b)
            na, nb = naive.oracle_from_internal(a), naive.oracle_from_internal(b)
            oracle = naive.oracle_functors(na, nb)
            assert len(fs) == len(oracle)
            cells = sum(len(enumerate_cells(f, g)) for f in fs for g in fs)
            assert cells == naive.count_all_nat_trans(na, nb, oracle)


def _functors_by_brute_force(a, b):
    """Every (f0, f1) table pair that validate_functor accepts, in table order."""
    out = []
    for f0 in iproduct(range(b.C0.size), repeat=a.C0.size):
        for f1 in iproduct(range(b.C1.size), repeat=a.C1.size):
            fun = InternalFunctor(a, b, FinMap(a.C0, b.C0, f0),
                                  FinMap(a.C1, b.C1, f1))
            if validate_functor(fun).ok:
                out.append(fun)
    return out


def _cyclic(n):
    return monoid_delooping([[(u + v) % n for v in range(n)] for u in range(n)])


def _path3():
    return free_on_dag(3, [(0, 1), (1, 2)])


def test_functor_search_matches_brute_force(corpus):
    # composites that more than one arrow of b could take: a missed
    # composition check lets through a table that is no functor
    pairs = [(_path3(), _cyclic(2)), (_cyclic(2), _cyclic(3)),
             (free_arrow(), indisc(FinObj(2)))]
    pairs += [(a, b) for a in corpus for b in corpus
              if b.C0.size ** a.C0.size * b.C1.size ** a.C1.size <= 256]
    for a, b in pairs:
        assert enumerate_functors(a, b) == _functors_by_brute_force(a, b)


def test_functor_search_step_counts():
    # the search's step counts, one per object or arrow candidate tried, as
    # the search that rescanned every assigned pair gave them: each
    # composition triangle is checked once, when its last arrow is assigned,
    # so every search node keeps its verdict
    two, i2, path3 = free_arrow(), indisc(FinObj(2)), _path3()
    cases = [(two, two, 17), (two, i2, 18), (path3, _cyclic(2), 26),
             (_cyclic(2), _cyclic(3), 5), (i2, path3, 33), (path3, path3, 132)]
    for a, b, steps in cases:
        na, nb = naive.oracle_from_internal(a), naive.oracle_from_internal(b)
        with pytest.raises(SizeBound) as err:
            naive.oracle_functors(na, nb, steps - 1)
        assert (err.value.stage, err.value.steps, err.value.bound) == \
            ("oracle functors", steps, steps - 1)
        assert naive.oracle_functors(na, nb, steps) == naive.oracle_functors(na, nb)


def _reference_endpoint_pullback(t, b):
    """The endpoint pullback built from its definition: t x t and (d0, d1)
    mediated into the chosen products, then pulled back."""
    prod_x = finset.product(t.dom, t.dom)
    prod_b = finset.product(b.C0, b.C0)
    txt = prod_b.mediate(compose(t, prod_x.projections[0]),
                         compose(t, prod_x.projections[1]))
    return prod_x, finset.pullback(txt, prod_b.mediate(b.d0, b.d1))


def _reference_ff_pullback(f):
    """The endpoint pullback of f0, together with the canonical map A1 into
    it: f is fully faithful when that map is bijective, and faithful when it
    is injective."""
    a = f.dom
    prod_a, pb = _reference_endpoint_pullback(f.f0, f.cod)
    return pb, pb.mediate(prod_a.mediate(a.d0, a.d1), f.f1)


def test_faithfulness_by_hom_sets_matches_endpoint_pullback():
    checked = 0
    for seed in (1, 7, 11):
        cats = generate_corpus(CorpusSpec(seed=seed))
        for f in generate_functor_corpus(cats, seed=seed):
            _pb, induced = _reference_ff_pullback(f)
            assert is_fully_faithful(f) == finset.is_iso(induced), (seed, f)
            assert is_faithful(f) == finset.is_mono(induced), (seed, f)
            checked += 1
    assert checked > 100


def _assert_full_image_is_reference(ff, t, b):
    """ff has object map t, and its arrows, endpoints, identities and
    composites are those of the reference endpoint pullback along t x t."""
    ref_prod, ref = _reference_endpoint_pullback(t, b)
    pair_proj, arrow_proj = ref.projections
    dom = ff.dom
    assert ff.cod is b and ff.f0.table == t.table
    assert dom.C0 == t.dom and dom.C1 == ref.apex
    assert ff.f1.table == arrow_proj.table
    assert dom.d0.table == compose(ref_prod.projections[0], pair_proj).table
    assert dom.d1.table == compose(ref_prod.projections[1], pair_proj).table
    ident = ref.mediate(ref_prod.mediate(identity(t.dom), identity(t.dom)),
                        compose(b.i, t))
    assert dom.i.table == ident.table
    pr_u, pr_v = dom.pairs.projections
    composite = ref.mediate(
        ref_prod.mediate(compose(dom.d0, pr_u), compose(dom.d1, pr_v)),
        compose(b.m, b.pairs.mediate(compose(ff.f1, pr_u), compose(ff.f1, pr_v))))
    assert dom.m.table == composite.table
    assert is_fully_faithful(ff) and validate_functor(ff).ok


def test_full_image_matches_reference(functor_corpus):
    for f in functor_corpus:
        _assert_full_image_is_reference(full_image(f.f0, f.cod), f.f0, f.cod)
        for ofs in (epi_mono_ofs(), iso_all_ofs()):
            _l0, r0 = ofs.factor(f.f0)
            fac = factor_internal(f, ofs)
            _assert_full_image_is_reference(fac.right, r0, f.cod)
            assert fac.middle is fac.right.dom


def _reference_indisc(n):
    """indisc numbered by the chosen product: arrow (t, s) is t·n + s."""
    arrows = [(t, s) for t in range(n) for s in range(n)]
    pairs = [(u, v) for u in range(n * n) for v in range(n * n)
             if arrows[u][1] == arrows[v][0]]
    return ([t for t, _s in arrows], [s for _t, s in arrows],
            [x * n + x for x in range(n)],
            [arrows[u][0] * n + arrows[v][1] for u, v in pairs])


def test_indisc_is_product_numbered():
    for n in range(6):
        c = indisc(FinObj(n))
        assert (c.C0.size, c.C1.size) == (n, n * n)
        d0, d1, i, m = _reference_indisc(n)
        assert (list(c.d0.table), list(c.d1.table), list(c.i.table),
                list(c.m.table)) == (d0, d1, i, m)


def test_one_pairs_pullback_per_new_category(monkeypatch, corpus, functor_corpus):
    """Each construction builds its category's composable pairs once, and
    the category keeps them."""
    seen = []
    real_pullback = finset.pullback

    def counting_pullback(f, g):
        seen.append((f, g))
        return real_pullback(f, g)

    monkeypatch.setattr(finset, "pullback", counting_pullback)
    arrow = free_arrow()
    small = [c for c in corpus if c.C1.size <= 4][:3]
    constructions = [("disc", lambda: disc(FinObj(3))),
                     ("indisc", lambda: indisc(FinObj(3))),
                     ("category_from_tables", walking_arrow_by_hand),
                     ("opposite", lambda: opposite(corpus[5])),
                     ("full subcategory",
                      lambda: full_subcategory_inclusion(corpus[5], [0])[0]),
                     ("coproduct_cat", lambda: coproduct_cat(arrow, arrow).category),
                     ("internal_hom", lambda: internal_hom(arrow, arrow).carrier)]
    constructions += [("product_cat", lambda c=c: product_cat(c, arrow).category)
                      for c in small]
    constructions += [("power_by_two", lambda c=c: power_by_two(c).carrier)
                      for c in small]
    constructions += [("factor_internal", lambda f=f, ofs=ofs: factor_internal(f, ofs).middle)
                      for f in functor_corpus[:20]
                      for ofs in (epi_mono_ofs(), iso_all_ofs())]
    for name, build in constructions:
        seen.clear()
        cat = build()
        assert validate_category(cat).ok, name
        assert cat.pairs.apex == cat.m.dom, name
        calls = sum(1 for f, g in seen if f is cat.d1 and g is cat.d0)
        assert calls == 1, (name, calls)

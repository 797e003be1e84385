"""Transfer functors and adjunctions: disc, indisc, connected components,
the truncated nerve, and the executable adjunction witnesses."""

import random
from itertools import product as iproduct

import pytest

from fincat import finset
from fincat.corpus import preorder_category
from fincat.errors import DomainMismatch, NotInHomSet, ShapeMismatch
from fincat.finset import FinMap, FinObj, compose, identity
from fincat.internal import (compose_functors, is_fully_faithful,
                             monotone_maps, ordinal, reflects_identities,
                             simplicial_map, validate_category,
                             validate_functor, validate_nat_trans)
from fincat.limits import enumerate_functors, free_arrow, terminal_cat
from fincat.transfer import (adjunction_disc_objects,
                             adjunction_objects_indisc, adjunction_pi0_disc,
                             arrows_part, disc, disc_map,
                             discrete_nat_trans_bijection, functor_from_disc,
                             functor_to_indisc, indisc, indisc_map,
                             objects_part, pi0, pi0_map, pi0_quotient)


def test_disc_basics():
    assert disc(FinObj(0)).C0.size == 0
    assert disc(FinObj(1)).C1.size == 1
    two = free_arrow()
    assert objects_part(two).size == 2
    assert arrows_part(two).size == 3


def test_indisc_basics():
    assert indisc(FinObj(1)).C1.size == 1
    i2 = indisc(FinObj(2))
    assert (i2.C0.size, i2.C1.size) == (2, 4)
    for x in range(2):
        for y in range(2):
            assert len(i2.homs.get((x, y), ())) == 1
    assert validate_category(indisc(FinObj(3))).ok


def test_pi0_values():
    x = FinObj(4)
    assert pi0(disc(x)).size == 4
    assert pi0(free_arrow()).size == 1
    assert pi0(indisc(FinObj(3))).size == 1


def test_pi0_map_functoriality(functor_corpus):
    for f in functor_corpus[:25]:
        pf = pi0_map(f)
        qa, qb = pi0_quotient(f.dom), pi0_quotient(f.cod)
        assert compose(pf, qa).table == compose(qb, f.f0).table
    for f in functor_corpus[:10]:
        for g in functor_corpus[:10]:
            if g.dom == f.cod and g.dom.C1.size == f.cod.C1.size:
                if g.dom.d0.table == f.cod.d0.table:
                    lhs = pi0_map(compose_functors(g, f))
                    rhs = compose(pi0_map(g), pi0_map(f))
                    assert lhs.table == rhs.table


def test_disc_objects_adjunction_witness():
    adj = adjunction_disc_objects()
    a = free_arrow()
    counit = adj.counit(a)
    assert counit.f0.table == identity(a.C0).table
    assert counit.f1.table == a.i.table
    assert validate_functor(counit).ok
    x = FinObj(3)
    assert adj.unit(x).table == identity(x).table
    rng = random.Random(1)
    for _ in range(50):
        t = FinMap(x, a.C0, tuple(rng.randrange(2) for _ in range(3)))
        h = adj.transpose_backward(x, a, t)
        assert validate_functor(h).ok
        assert adj.transpose_forward(h).table == t.table
    with pytest.raises(NotInHomSet):
        adj.transpose_backward(x, a, FinMap(FinObj(2), a.C0, (0, 0)))


def test_functor_to_indisc_rejects_map_from_wrong_objects():
    # t must be A0 -> Y; a shorter or longer table is a DomainMismatch, not
    # an IndexError from reading t at an object of A
    a = free_arrow()
    for n in (1, 3):
        with pytest.raises(DomainMismatch):
            functor_to_indisc(a, FinMap(FinObj(n), FinObj(2), (0,) * n))


def test_functor_to_indisc_keeps_the_codomain_labels():
    # FinObj equality ignores labels, and 1 == True: each call must still
    # land in indisc of the caller's own Y
    a = free_arrow()
    for labels in ((1, 0), (True, False), (1.0, 0.0), None):
        y = FinObj(2, labels)
        got = functor_to_indisc(a, FinMap(a.C0, y, (0, 1))).cod.C0.labels
        assert got is labels


def test_objects_indisc_adjunction_witness():
    adj = adjunction_objects_indisc()
    a = free_arrow()
    unit = adj.unit(a)
    assert unit.f0.table == identity(a.C0).table
    prod = finset.product(a.C0, a.C0)
    expected = tuple(prod.encode((a.d0.table[u], a.d1.table[u]))
                     for u in range(a.C1.size))
    assert unit.f1.table == expected
    rng = random.Random(2)
    y = FinObj(3)
    for _ in range(50):
        t = FinMap(a.C0, y, tuple(rng.randrange(3) for _ in range(2)))
        h = adj.transpose_forward(a, y, t)
        assert validate_functor(h).ok
        assert adj.transpose_backward(h).table == t.table


def test_pi0_disc_adjunction_witness():
    adj = adjunction_pi0_disc()
    a = free_arrow()
    b = FinObj(3)
    p = pi0(a)
    rng = random.Random(3)
    for _ in range(50):
        t = FinMap(p, b, tuple(rng.randrange(3) for _ in range(p.size)))
        h = adj.transpose_forward(a, b, t)
        assert validate_functor(h).ok
        assert adj.transpose_backward(h).table == t.table
    unit = adj.unit(a)
    assert validate_functor(unit).ok
    assert unit.cod.C0.size == p.size
    assert adj.counit(b).table == identity(b).table


def test_adjunction_triangle_identities(corpus):
    d_adj = adjunction_disc_objects()
    i_adj = adjunction_objects_indisc()
    p_adj = adjunction_pi0_disc()
    for a in corpus[:10]:
        # disc -| objects: counit after disc(unit) is the identity on disc(A0)
        eps = d_adj.counit(a)
        assert compose(eps.f0, d_adj.unit(a.C0)).table == identity(a.C0).table
        # objects -| indisc: objects-part of the unit is the identity
        assert i_adj.unit(a).f0.table == identity(a.C0).table
        # pi0 -| disc: counit after pi0(unit) is the identity on pi0(A)
        q = pi0_quotient(a)
        unit = p_adj.unit(a)
        induced = finset.coeq_factor(q, compose(p_adj.counit(pi0(a)), unit.f0))
        assert induced.table == identity(pi0(a)).table


def test_adjunction_naturality_in_both_variables(corpus, functor_corpus):
    d_adj = adjunction_disc_objects()
    rng = random.Random(4)
    pool = [f for f in functor_corpus if f.dom.C0.size and f.cod.C0.size][:12]
    for f in pool:
        a, b = f.dom, f.cod
        x = FinObj(2)
        for _ in range(6):
            t = FinMap(x, a.C0, tuple(rng.randrange(a.C0.size) for _ in range(2)))
            h = d_adj.transpose_backward(x, a, t)
            # naturality in the internal-category variable
            lhs = d_adj.transpose_forward(compose_functors(f, h))
            rhs = compose(f.f0, d_adj.transpose_forward(h))
            assert lhs.table == rhs.table
        # naturality in the base variable
        s = FinMap(FinObj(3), x, tuple(rng.randrange(2) for _ in range(3)))
        t = FinMap(x, a.C0, tuple(rng.randrange(a.C0.size) for _ in range(2)))
        h = d_adj.transpose_backward(x, a, t)
        lhs = d_adj.transpose_forward(compose_functors(h, disc_map(s)))
        assert lhs.table == compose(t, s).table


def test_ff_iff_unit_square_pullback(functor_corpus):
    for f in functor_corpus[:60]:
        a, b = f.dom, f.cod
        unit_a = functor_to_indisc(a, identity(a.C0))
        unit_b = functor_to_indisc(b, identity(b.C0))
        ind_f = indisc_map(f.f0)
        # the square commutes by naturality of the unit
        lhs = compose_functors(ind_f, unit_a)
        rhs = compose_functors(unit_b, f)
        assert lhs.f1.table == rhs.f1.table
        level0 = finset.is_pullback_square(f.f0, identity(a.C0),
                                           identity(b.C0), f.f0)
        level1 = finset.is_pullback_square(f.f1, unit_a.f1, unit_b.f1, ind_f.f1)
        assert (level0 and level1) == is_fully_faithful(f)


def test_reflects_identities_iff_counit_square_pullback(functor_corpus):
    d_adj = adjunction_disc_objects()
    for f in functor_corpus[:60]:
        a, b = f.dom, f.cod
        eps_a, eps_b = d_adj.counit(a), d_adj.counit(b)
        df = disc_map(f.f0)
        assert compose_functors(f, eps_a) == compose_functors(eps_b, df)
        level1 = finset.is_pullback_square(f.f0, eps_a.f1, eps_b.f1, f.f1)
        assert level1 == reflects_identities(f)


def test_disc_indisc_fully_faithful_on_homs():
    sizes = [0, 1, 2, 3]
    for xs in sizes:
        for ys in sizes:
            x, y = FinObj(xs), FinObj(ys)
            base_count = ys ** xs if xs else 1
            disc_count = len(enumerate_functors(disc(x), disc(y)))
            indisc_count = len(enumerate_functors(indisc(x), indisc(y)))
            assert disc_count == base_count
            assert indisc_count == base_count


def test_nerve_of_disc_is_constant():
    n = disc(FinObj(3)).nerve
    assert [lv.size for lv in n.levels] == [3, 3, 3, 3]


def test_nerve_of_free_arrow_sizes():
    n = free_arrow().nerve
    assert [lv.size for lv in n.levels] == [2, 3, 4, 5]


def test_ordinal_is_the_preorder_on_its_vertices():
    assert ordinal(0) == terminal_cat()
    for k in range(4):
        leq = {(s, t) for s in range(k + 1) for t in range(s, k + 1)}
        assert ordinal(k) == preorder_category(leq, k + 1)
        assert ordinal(k) is ordinal(k)


def test_nerve_levels_are_functors_out_of_ordinals(corpus):
    # an n-simplex of the nerve is a functor [n] -> C
    for c in corpus:
        assert [lv.size for lv in c.nerve.levels] == \
            [len(enumerate_functors(ordinal(n), c)) for n in range(4)]


def test_nerve_is_cached_on_its_category():
    cat = indisc(FinObj(2))
    assert cat.nerve is cat.nerve
    # an equal but distinct category owns its own nerve with equal tables
    twin = indisc(FinObj(2))
    assert twin.nerve is not cat.nerve
    assert twin.nerve.faces[(2, 1)].table == cat.nerve.faces[(2, 1)].table


def test_simplicial_map_is_built_once():
    cat = free_arrow()
    first = simplicial_map(cat, [0, 0, 1], 1, 2)
    assert simplicial_map(cat, (0, 0, 1), 1, 2) is first
    assert cat.nerve.act([0, 0, 1], 1, 2) is first
    assert cat.nerve.degeneracies[(1, 0)] is first
    assert simplicial_map(cat, [0, 1], 3, 1) is not first


def test_simplicial_map_rejects_wrong_shape():
    cat = free_arrow()
    with pytest.raises(ShapeMismatch):
        simplicial_map(cat, [0, 1], 1, 2)
    with pytest.raises(ShapeMismatch):
        simplicial_map(cat, [0, 2], 1, 1)


def test_monotone_maps_are_memoised_tuples():
    maps = monotone_maps(1, 2)
    assert maps == ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
    assert monotone_maps(1, 2) is maps
    for m in range(4):
        for n in range(4):
            assert monotone_maps(m, n) == tuple(
                t for t in iproduct(range(n + 1), repeat=m + 1) if list(t) == sorted(t))


def test_simplicial_identities_on_indisc():
    n = indisc(FinObj(2)).nerve
    # face-face identities: d_i d_j = d_{j-1} d_i for i < j
    for lev in (2, 3):
        for j in range(lev + 1):
            for i in range(j):
                lhs = compose(n.faces[(lev - 1, i)], n.faces[(lev, j)])
                rhs = compose(n.faces[(lev - 1, j - 1)], n.faces[(lev, i)])
                assert lhs.table == rhs.table
    # face-degeneracy identities
    for lev in (0, 1, 2):
        for k in range(lev + 1):
            s = n.degeneracies[(lev, k)]
            assert compose(n.faces[(lev + 1, k)], s).table == identity(n.levels[lev]).table
            assert compose(n.faces[(lev + 1, k + 1)], s).table == identity(n.levels[lev]).table
    # degeneracy-degeneracy identities: s_i s_j = s_{j+1} s_i for i <= j
    for lev in (0, 1):
        for j in range(lev + 1):
            for i in range(j + 1):
                lhs = compose(n.degeneracies[(lev + 1, i)], n.degeneracies[(lev, j)])
                rhs = compose(n.degeneracies[(lev + 1, j + 1)], n.degeneracies[(lev, i)])
                assert lhs.table == rhs.table


def test_simplicial_action_composes():
    cat = indisc(FinObj(3))
    rng = random.Random(6)
    for _ in range(30):
        n_from = rng.randint(0, 3)
        n_mid = rng.randint(0, 3)
        n_to = rng.randint(0, 3)
        phis = monotone_maps(n_mid, n_from)
        psis = monotone_maps(n_to, n_mid)
        phi = phis[rng.randrange(len(phis))]
        psi = psis[rng.randrange(len(psis))]
        composite = tuple(phi[j] for j in psi)
        lhs = compose(simplicial_map(cat, list(psi), n_mid, n_to),
                      simplicial_map(cat, list(phi), n_from, n_mid))
        rhs = simplicial_map(cat, list(composite), n_from, n_to)
        assert lhs.table == rhs.table


def test_discrete_nat_trans_bijection_counts():
    two = free_arrow()
    one = FinObj(1)
    to_cell, to_map = discrete_nat_trans_bijection(one, two)
    cells = []
    for t in finset.all_maps(one, two.C1):
        cell = to_cell(t)
        assert validate_nat_trans(cell).ok
        assert to_map(cell).table == t.table
        cells.append(cell)
    assert len(cells) == 3


def test_discrete_nat_trans_identity_case():
    from fincat.internal import id_nat_trans
    two = free_arrow()
    x = FinObj(2)
    to_cell, _ = discrete_nat_trans_bijection(x, two)
    f0 = FinMap(x, two.C0, (0, 1))
    t = compose(two.i, f0)
    cell = to_cell(t)
    assert cell.src == cell.tgt == functor_from_disc(x, two, f0)
    assert cell == id_nat_trans(cell.src)


def test_discrete_nat_trans_round_trip_exhaustive():
    x = FinObj(2)
    for cat in (free_arrow(), indisc(FinObj(2))):
        if cat.C1.size > 6:
            continue
        to_cell, to_map = discrete_nat_trans_bijection(x, cat)
        for t in finset.all_maps(x, cat.C1):
            assert to_map(to_cell(t)).table == t.table

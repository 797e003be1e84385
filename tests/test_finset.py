"""Base category: chosen limits, colimits, exponentials, classifier,
factorisation, sections."""

import random
from itertools import product as iproduct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fincat import finset
from fincat.errors import DomainMismatch, NotEpi, NotMono
from fincat.finset import FinMap, FinObj, compose, identity


def test_compose_identity_law():
    g = FinMap(FinObj(2), FinObj(3), (1, 0))
    assert compose(g, identity(FinObj(2))).table == g.table
    assert compose(identity(FinObj(3)), g).table == g.table


def test_compose_involution():
    f = FinMap(FinObj(2), FinObj(2), (1, 0))
    assert compose(f, f).table == (0, 1)


def test_compose_hand_oracle():
    f = FinMap(FinObj(3), FinObj(2), (0, 0, 1))
    g = FinMap(FinObj(2), FinObj(3), (2, 0))
    # evaluate the table composition by hand: x -> g(f(x))
    assert compose(g, f).table == (2, 2, 0)


def test_compose_domain_mismatch():
    f = FinMap(FinObj(2), FinObj(3), (0, 1))
    with pytest.raises(DomainMismatch):
        compose(f, f)


def test_labels_do_not_affect_equality():
    assert FinObj(2, ("a", "b")) == FinObj(2)
    assert FinObj(2) != FinObj(3)


def test_product_over_terminal_is_product():
    f = FinMap(FinObj(2), finset.terminal(), (0, 0))
    g = FinMap(FinObj(3), finset.terminal(), (0, 0, 0))
    assert finset.pullback(f, g).apex.size == 6


def test_equalizer_of_equal_maps():
    eq = finset.equalizer(identity(FinObj(2)), identity(FinObj(2)))
    assert eq.apex.size == 2
    assert eq.projections[0].table == (0, 1)


def test_pullback_brute_force_oracle():
    f = FinMap(FinObj(3), FinObj(2), (0, 1, 0))
    g = FinMap(FinObj(2), FinObj(2), (1, 1))
    expected = sorted((x, y) for x in range(3) for y in range(2)
                      if f.table[x] == g.table[y])
    pb = finset.pullback(f, g)
    assert pb.apex.size == 2
    assert list(pb.tuples) == expected == [(1, 0), (1, 1)]


def test_pullback_rejects_non_cospan():
    f = FinMap(FinObj(2), FinObj(2), (0, 1))
    with pytest.raises(DomainMismatch, match="cospan"):
        finset.pullback(f, FinMap(FinObj(2), FinObj(3), (0, 2)))
    # codomains are compared by size, so labels do not matter
    g = FinMap(FinObj(1), FinObj(2, ("p", "q")), (1,))
    assert list(finset.pullback(f, g).tuples) == [(1, 0)]


def test_lexicographic_enumeration():
    prod = finset.product(FinObj(2), FinObj(3))
    assert list(prod.tuples) == sorted(prod.tuples)
    pb = finset.pullback(FinMap(FinObj(4), FinObj(2), (0, 1, 0, 1)),
                         FinMap(FinObj(4), FinObj(2), (1, 0, 1, 0)))
    assert list(pb.tuples) == sorted(pb.tuples)


def test_coproduct_sizes_and_injections():
    obj, inj0, inj1 = finset.coproduct(FinObj(2), FinObj(3))
    assert obj.size == 5
    assert inj0.table == (0, 1)
    assert inj1.table == (2, 3, 4)


def test_copair_is_one_concatenation_over_the_chosen_coproduct():
    rng = random.Random(30)
    for a_s, b_s, c_s in iproduct(range(4), range(4), range(1, 3)):
        a, b, c = FinObj(a_s), FinObj(b_s), FinObj(c_s)
        f = FinMap(a, c, tuple(rng.randrange(c_s) for _ in range(a_s)))
        g = FinMap(b, c, tuple(rng.randrange(c_s) for _ in range(b_s)))
        obj, inj0, inj1 = finset.coproduct(a, b)
        h = finset.copair(f, g)
        assert (h.dom, h.cod, h.table) == (obj, c, f.table + g.table)
        assert compose(h, inj0).table == f.table
        assert compose(h, inj1).table == g.table
    with pytest.raises(DomainMismatch, match="common codomain"):
        finset.copair(identity(FinObj(2)), identity(FinObj(3)))


def test_coequalizer_of_identities():
    q_obj, q = finset.coequalizer(identity(FinObj(3)), identity(FinObj(3)))
    assert q_obj.size == 3
    assert q.table == (0, 1, 2)


def test_coequalizer_union_find_oracle():
    f = FinMap(FinObj(3), FinObj(3), (0, 1, 0))
    g = FinMap(FinObj(3), FinObj(3), (1, 1, 2))
    # classes merge via 0~1 and 0~2, so everything collapses
    q_obj, _q = finset.coequalizer(f, g)
    assert q_obj.size == 1


def test_exponential_sizes():
    assert finset.exponential(FinObj(2), FinObj(2)).obj.size == 4
    assert finset.exponential(FinObj(0), FinObj(5)).obj.size == 1


def test_exponential_eval_decodes_tables():
    exp = finset.exponential(FinObj(2), FinObj(2))
    k = exp.encode((1, 0))
    assert exp.eval_map.table[exp.prod.encode((k, 0))] == 1
    assert exp.eval_map.table[exp.prod.encode((k, 1))] == 0


def test_classifier_basics():
    omega, top = finset.subobject_classifier()
    assert omega.size == 2
    assert top.table == (1,)
    b = FinObj(3)
    assert finset.characteristic_map(identity(b)).table == (1, 1, 1)
    i = FinMap(finset.terminal(), FinObj(2), (0,))
    assert finset.characteristic_map(i).table == (1, 0)
    with pytest.raises(NotMono):
        finset.characteristic_map(FinMap(FinObj(2), FinObj(2), (0, 0)))


def test_classifying_square_is_pullback():
    i = FinMap(FinObj(2), FinObj(4), (1, 3))
    chi = finset.characteristic_map(i)
    _omega, top = finset.subobject_classifier()
    assert finset.is_pullback_square(i, finset.bang(i.dom), chi, top)


def test_characteristic_map_unique_among_all_candidates():
    rng = random.Random(3)
    omega, top = finset.subobject_classifier()
    for b_size in (1, 2, 4, 6, 12):
        b = FinObj(b_size)
        k = rng.randint(0, b_size)
        image = sorted(rng.sample(range(b_size), k))
        i = FinMap(FinObj(k), b, tuple(image))
        winners = [cand for cand in finset.all_maps(b, omega)
                   if finset.is_pullback_square(i, finset.bang(i.dom), cand, top)]
        assert winners == [finset.characteristic_map(i)]


def test_factor_epi_mono_hand_oracle():
    f = FinMap(FinObj(3), FinObj(3), (0, 0, 2))
    l, r = finset.factor_epi_mono(f)
    assert l.table == (0, 0, 1)
    assert r.table == (0, 2)
    assert compose(r, l).table == f.table


def test_factor_injective_gives_iso_left():
    f = FinMap(FinObj(3), FinObj(5), (4, 0, 2))
    l, _r = finset.factor_epi_mono(f)
    assert finset.is_iso(l)


def test_choose_section_least_preimage():
    e = FinMap(FinObj(3), FinObj(2), (0, 1, 0))
    s = finset.choose_section(e)
    assert s.table == (0, 1)
    assert compose(e, s).table == (0, 1)
    with pytest.raises(NotEpi):
        finset.choose_section(FinMap(FinObj(1), FinObj(2), (0,)))


def _random_map(rng, max_size=5):
    a = FinObj(rng.randint(0, max_size))
    b = FinObj(rng.randint(1, max_size))
    return FinMap(a, b, tuple(rng.randrange(b.size) for _ in range(a.size)))


def test_mediating_map_unique_by_exhaustion():
    rng = random.Random(11)
    tested = 0
    while tested < 20:
        f = _random_map(rng)
        g = _random_map(rng)
        if f.cod != g.cod:
            continue
        pb = finset.pullback(f, g)
        if not 0 < pb.apex.size <= 64:
            continue
        z = FinObj(rng.randint(1, 3))
        # build a legal cone by post-composing a map into the apex
        into = FinMap(z, pb.apex,
                      tuple(rng.randrange(pb.apex.size) for _ in range(z.size)))
        legs = [compose(p, into) for p in pb.projections]
        med = pb.mediate(*legs)
        assert med.table == into.table
        commuting = [cand for cand in finset.all_maps(z, pb.apex)
                     if all(compose(p, cand).table == leg.table
                            for p, leg in zip(pb.projections, legs))]
        assert commuting == [med]
        tested += 1


def test_epi_mono_orthogonality():
    rng = random.Random(5)
    tested = 0
    while tested < 8:
        e = _random_map(rng, 3)
        m = _random_map(rng, 3)
        if not (finset.is_epi(e) and finset.is_mono(m)):
            continue
        squares = 0
        for p in finset.all_maps(e.dom, m.dom):
            for q in finset.all_maps(e.cod, m.cod):
                if compose(m, p).table != compose(q, e).table:
                    continue
                squares += 1
                diagonals = [d for d in finset.all_maps(e.cod, m.dom)
                             if compose(d, e).table == p.table
                             and compose(m, d).table == q.table]
                assert len(diagonals) == 1
        tested += 1


def test_coproducts_are_extensive():
    rng = random.Random(9)
    for _ in range(30):
        a, b = FinObj(rng.randint(0, 4)), FinObj(rng.randint(0, 4))
        obj, inj0, inj1 = finset.coproduct(a, b)
        if obj.size == 0:
            continue
        z = FinObj(rng.randint(0, 5))
        h = FinMap(z, obj, tuple(rng.randrange(obj.size) for _ in range(z.size)))
        pb0 = finset.pullback(h, inj0)
        pb1 = finset.pullback(h, inj1)
        assert pb0.apex.size + pb1.apex.size == z.size
        # the coproduct of the pullbacks covers z over a + b
        covered = sorted([t[0] for t in pb0.tuples] + [t[0] for t in pb1.tuples])
        assert covered == list(range(z.size))


def test_exponential_transpose_bijection():
    rng = random.Random(13)
    shapes = [(x, a, b) for x in range(1, 5) for a in range(0, 5) for b in range(1, 5)]
    for (x_s, a_s, b_s) in shapes:
        x, a, b = FinObj(x_s), FinObj(a_s), FinObj(b_s)
        exp = finset.exponential(a, b)
        prod_xa = finset.product(x, a)
        n_maps = b_s ** prod_xa.apex.size
        if n_maps <= 256:
            samples = list(finset.all_maps(prod_xa.apex, b))
        else:
            samples = [FinMap(prod_xa.apex, b,
                              tuple(rng.randrange(b_s) for _ in range(prod_xa.apex.size)))
                       for _ in range(40)]
        for f in samples:
            h = exp.curry(f, x, prod_xa)
            assert exp.uncurry(h, prod_xa).table == f.table
        for h in [FinMap(x, exp.obj, tuple(rng.randrange(max(exp.obj.size, 1))
                                           for _ in range(x_s)))
                  for _ in range(20)] if exp.obj.size else []:
            f = exp.uncurry(h, prod_xa)
            assert exp.curry(f, x, prod_xa).table == h.table


def test_product_rows_and_join_read_the_numbering():
    for a_s, b_s in iproduct(range(4), repeat=2):
        a, b = FinObj(a_s), FinObj(b_s)
        prod = finset.product(a, b)
        table = tuple(range(prod.apex.size))
        rows = prod.rows(table)
        assert rows == [tuple(prod.encode((x, y)) for y in range(b_s))
                        for x in range(a_s)]
        assert prod.join(rows) == table
        assert finset.is_product(prod, a, b)
        assert finset.is_product(prod, b, a) == (a_s == b_s)
    pb = finset.pullback(finset.bang(FinObj(2)), finset.bang(FinObj(3)))
    assert not finset.is_product(pb, FinObj(2), FinObj(3))


def test_exponential_transpose_needs_the_chosen_product():
    x, a, b = FinObj(2), FinObj(3), FinObj(2)
    exp = finset.exponential(a, b)
    swapped = finset.product(a, x)
    f = FinMap(swapped.apex, b, (0, 1) * 3)
    with pytest.raises(DomainMismatch):
        exp.curry(f, x, swapped)
    with pytest.raises(DomainMismatch):
        exp.uncurry(FinMap(x, exp.obj, (0, 5)), swapped)


def test_public_constructor_rejects_short_and_out_of_range_tables():
    with pytest.raises(DomainMismatch):
        FinMap(FinObj(3), FinObj(2), (0, 1))
    with pytest.raises(DomainMismatch):
        FinMap(FinObj(2), FinObj(2), (0, 2))
    with pytest.raises(DomainMismatch):
        FinMap(FinObj(2), FinObj(2), (-1, 0))
    with pytest.raises(DomainMismatch):
        FinMap(FinObj(1), FinObj(0), (0,))


def _limits_over_two_points():
    two = FinObj(2)
    return (finset.product(two, two),
            finset.pullback(finset.bang(two), finset.bang(two)))


def test_mediate_rejects_legs_from_different_domains():
    f = FinMap(FinObj(2), FinObj(2), (0, 1))
    g = FinMap(FinObj(3), FinObj(2), (0, 1, 1))
    for limit in _limits_over_two_points():
        with pytest.raises(DomainMismatch):
            limit.mediate(f, g)
        with pytest.raises(DomainMismatch):
            limit.mediate(g, f)


def test_mediate_rejects_legs_into_the_wrong_codomain():
    f = FinMap(FinObj(2), FinObj(2), (0, 1))
    g = FinMap(FinObj(2), FinObj(3), (1, 0))
    for limit in _limits_over_two_points():
        with pytest.raises(DomainMismatch):
            limit.mediate(f, g)
        with pytest.raises(DomainMismatch):
            limit.mediate(g, f)


@st.composite
def products_with_legs(draw):
    """Sizes 0..6 of A and B, and legs D -> A and D -> B."""
    a, b = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    d = draw(st.integers(0, 6)) if a and b else 0
    f = draw(st.lists(st.integers(0, a - 1), min_size=d, max_size=d)) if d else []
    g = draw(st.lists(st.integers(0, b - 1), min_size=d, max_size=d)) if d else []
    return a, b, d, tuple(f), tuple(g)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(products_with_legs())
def test_product_agrees_with_lexicographic_enumeration(case):
    a, b, d, f, g = case
    lex = list(iproduct(range(a), range(b)))
    prod = finset.product(FinObj(a), FinObj(b))
    assert prod.apex.size == len(lex)
    assert prod.projections[0].table == tuple(x for x, _ in lex)
    assert prod.projections[1].table == tuple(y for _, y in lex)
    assert prod.tuples == tuple(lex)
    assert prod.index == {t: k for k, t in enumerate(lex)}
    assert [prod.decode(k) for k in range(len(lex))] == lex
    assert [prod.encode(t) for t in lex] == list(range(len(lex)))
    dom = FinObj(d)
    med = prod.mediate(FinMap(dom, FinObj(a), f), FinMap(dom, FinObj(b), g))
    assert med.dom == dom and med.cod == prod.apex
    assert med.table == tuple(lex.index(t) for t in zip(f, g))

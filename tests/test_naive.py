"""The naive oracle's functor search, pinned: its lists (one digest over
1,024 searches) and its step thresholds, so that a faster search must give
the same functors in the same order and refuse exactly the same calls. The
oracle hom-category is pinned the same way: one digest over its functors,
cells, identities and composition table, and the bounds at which it refuses
for cells and for composable pairs of cells. Also the step counter's `spend`,
and the unit-law triangles the search skips only when the codomain's
identities are units."""

import hashlib
from itertools import product

import pytest

from fincat import naive
from fincat.corpus import monoid_delooping
from fincat.errors import Budget, SizeBound
from fincat.finset import FinObj
from fincat.internal import ordinal
from fincat.limits import product_cat
from fincat.transfer import disc

# the homs [X, Y] and the categories Z of the hom-transpose benchmark
_TRANSPOSE_HOMS = ((0, 0), (0, 5), (17, 6), (3, 3), (17, 17), (5, 12))
_TRANSPOSE_ZS = (0, 6, 18, 21, 22, 20)

_ORACLE_DIGEST = "648a3daf9be688855561d988185ce017c83bc0098d3d4de2173da14c2db32b01"

# (case, s): the search succeeds at bound s and refuses at s - 1
_THRESHOLDS = (
    (("transpose", 3, 3, 21), 24), (("transpose", 17, 17, 6), 90),
    (("transpose", 5, 12, 0), 120), (("transpose", 17, 6, 6), 158),
    (("transpose", 3, 3, 20), 229), (("transpose", 0, 5, 21), 533),
    (("transpose", 17, 17, 20), 1582), (("transpose", 17, 6, 20), 4094),
    (("cylinder", 0, 17, 17), 14), (("cylinder", 0, 3, 19), 4),
    (("cylinder", 1, 1, 17), 14), (("cylinder", 1, 11, 3), 7),
    (("cylinder", 1, 17, 17), 82), (("cylinder", 2, 19, 1), 15),
    (("cylinder", 2, 1, 17), 34), (("cylinder", 2, 17, 17), 338),
    (("pair", 1, 1), 2), (("pair", 24, 18), 4), (("pair", 3, 16), 6),
    (("pair", 23, 0), 6), (("pair", 18, 8), 8), (("pair", 3, 10), 12),
    (("pair", 14, 16), 16), (("pair", 6, 15), 22), (("pair", 16, 20), 50),
    (("pair", 21, 21), 120), (("pair", 20, 21), 309),
    (("pair", 10, 18), 1086), (("pair", 20, 10), 1256),
    (("pair", 10, 10), 1856), (("pair", 10, 9), 3161),
    (("cyclic", 2, 3), 7), (("cyclic", 2, 4), 9), (("cyclic", 2, 6), 13),
    (("cyclic", 3, 6), 46), (("cyclic", 4, 6), 81),
)


def _cyclic_identity_last(n):
    """Z/n with the identity as its last arrow (arrow j < n - 1 is g^(j+1)),
    so that the identity completes the triangles g^i . g^(n-i) = 1 and a
    run of identities can fail a triangle."""
    def arrow(power):
        return (power - 1) % n

    comp = {(u, v): arrow(u + v + 2) for u in range(n) for v in range(n)}
    return naive.NaiveCategory(1, ((0, 0),) * n, (n - 1,), comp)


def _search_pair(corpus, case):
    """The naive categories (A, B) of one case: a hom-transpose product
    domain Z x X into Y, a cylinder [k] x X into Y, a corpus pair, or Z/n
    with its identity last into Z/m."""
    nv = naive.oracle_from_internal
    kind, *args = case
    if kind == "cyclic":
        n, m = args
        return _cyclic_identity_last(n), nv(monoid_delooping(
            [[(u + v) % m for v in range(m)] for u in range(m)]))
    if kind == "transpose":
        xi, yi, zi = args
        return nv(product_cat(corpus[zi], corpus[xi]).category), nv(corpus[yi])
    if kind == "cylinder":
        k, xi, yi = args
        return nv(product_cat(ordinal(k), corpus[xi]).category), nv(corpus[yi])
    i, j = args
    return nv(corpus[i]), nv(corpus[j])


def _pinned_cases(corpus):
    cases = [("transpose", xi, yi, zi)
             for xi, yi in _TRANSPOSE_HOMS for zi in _TRANSPOSE_ZS]
    small = [i for i, c in enumerate(corpus) if c.C1.size <= 2]
    cases += [("cylinder", k, xi, yi)
              for k in range(3) for xi in small for yi in small]
    cases += [("pair", i, j) for i in range(len(corpus)) for j in range(len(corpus))]
    return cases


def test_oracle_functor_lists_are_pinned(corpus):
    # the 36 hom-transpose product domains, the cylinders [k] x X -> Y for
    # members with at most 2 arrows and k <= 2, and all 625 corpus pairs,
    # all at the default bound
    cases = _pinned_cases(corpus)
    assert len(cases) == 1024
    digest = hashlib.sha256()
    for case in cases:
        digest.update(repr(naive.oracle_functors(*_search_pair(corpus, case))).encode())
    assert digest.hexdigest() == _ORACLE_DIGEST


@pytest.mark.parametrize("case,steps", _THRESHOLDS)
def test_oracle_functor_step_thresholds(corpus, case, steps):
    a, b = _search_pair(corpus, case)
    with pytest.raises(SizeBound) as err:
        naive.oracle_functors(a, b, steps - 1)
    assert (err.value.stage, err.value.steps, err.value.bound) == \
        ("oracle functors", steps, steps - 1)
    assert naive.oracle_functors(a, b, steps) == naive.oracle_functors(a, b)


def test_oracle_functors_out_of_and_into_the_empty_category(corpus):
    # no object table is tried, so no step is counted
    empty, one = naive.oracle_from_internal(disc(FinObj(0))), \
        naive.oracle_from_internal(corpus[1])
    assert naive.oracle_functors(empty, one, 0) == [((), ())]
    assert naive.oracle_functors(one, empty, 0) == []


def test_budget_spend_reports_the_first_step_over_the_bound():
    budget = Budget(10, "stage")
    budget.spend(4)
    budget.tick()
    budget.spend(5)
    assert budget.steps == 10
    budget.spend(0)
    with pytest.raises(SizeBound) as err:
        budget.spend(7)
    assert (err.value.stage, err.value.steps, err.value.bound) == ("stage", 11, 10)
    # as tick would report it: the step after the bound, never the request
    with pytest.raises(SizeBound) as err:
        Budget(3, "stage").spend(100)
    assert err.value.steps == 4


def _functors_by_definition(a, b):
    """Every (object table, arrow table) pair, in table order, that sends
    each identity to the identity of its object's image, every other arrow
    to an arrow between the images of its ends, and every composition
    triangle of a to one of b."""
    out = []
    for obj in product(range(b.objects), repeat=a.objects):
        for arr in product(range(len(b.arrows)), repeat=len(a.arrows)):
            if (all(arr[k] == b.identities[obj[s]] if a.identities[s] == k
                    else b.arrows[arr[k]] == (obj[s], obj[t])
                    for k, (s, t) in enumerate(a.arrows))
                    and all(b.comp.get((arr[g], arr[f])) == arr[gf]
                            for (g, f), gf in a.comp.items())):
                out.append((obj, arr))
    return out


def test_unit_triangles_are_checked_when_the_codomain_has_no_units(corpus):
    # the search skips the triangles g . 1 = g and 1 . f = f only when b's
    # identities are units; on a table whose identity fails a unit law it
    # checks them, and finds exactly the functors of the definition
    def monoid(comp):
        return naive.NaiveCategory(1, ((0, 0),) * 2, (0,), comp)

    lawful = monoid({(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1})
    no_right_unit = monoid({(0, 0): 0, (0, 1): 1, (1, 0): 0, (1, 1): 1})
    no_left_unit = monoid({(0, 0): 0, (0, 1): 0, (1, 0): 1, (1, 1): 1})
    domains = [naive.oracle_from_internal(c) for c in corpus if c.C1.size <= 3]
    domains.append(lawful)
    cut = 0
    for b in (lawful, no_right_unit, no_left_unit):
        for a in domains:
            found = naive.oracle_functors(a, b)
            assert found == _functors_by_definition(a, b)
            cut += b is not lawful and len(found) < len(naive.oracle_functors(a, lawful))
    assert cut > 0


# a digest of oracle_hom_category's (functors, cells, composition table in
# insertion order, identities) over every ordered pair of corpus members with
# at most 3 arrows and then (21, 20), the hom-sweep benchmark's slice
_ORACLE_HOM_DIGEST = "2c49d56ba296d792d663238bebf62679a25f6e7dad0df012ab55ea28d108cfc7"

# (i, j, cells, composable pairs of cells) of oracle_hom_category on corpus
# pair (i, j): each above the functor search's steps, so that the bound
# refuses the cells at cells - 1 and the pairs at pairs - 1
_CELL_THRESHOLDS = (
    (1, 4, 4, 16), (13, 13, 6, 18), (8, 10, 10, 18), (5, 23, 10, 52),
    (17, 4, 16, 256), (3, 4, 36, 330), (21, 15, 64, 512), (18, 9, 128, 2048),
    (21, 20, 343, 1728),
)


def test_oracle_hom_categories_are_pinned(corpus):
    small = [i for i, c in enumerate(corpus) if c.C1.size <= 3]
    pairs = [(i, j) for i in small for j in small] + [(21, 20)]
    assert len(pairs) == 325
    digest = hashlib.sha256()
    for i, j in pairs:
        pair = _search_pair(corpus, ("pair", i, j))
        funs, arrows, cat = naive.oracle_hom_category(*pair)
        assert cat.arrows == tuple((s, t) for s, t, _c in arrows)
        digest.update(repr((funs, arrows, list(cat.comp.items()),
                            cat.identities)).encode())
    assert digest.hexdigest() == _ORACLE_HOM_DIGEST


@pytest.mark.parametrize("i,j,cells,pairs", _CELL_THRESHOLDS)
def test_oracle_hom_category_cell_thresholds(corpus, i, j, cells, pairs):
    a, b = _search_pair(corpus, ("pair", i, j))
    for stage, count in (("oracle cells", cells),
                         ("oracle composable cell pairs", pairs)):
        with pytest.raises(SizeBound) as err:
            naive.oracle_hom_category(a, b, count - 1)
        assert (err.value.stage, err.value.steps, err.value.bound) == \
            (stage, count, count - 1)
    _funs, arrows, cat = naive.oracle_hom_category(a, b, pairs)
    assert (len(arrows), len(cat.comp)) == (cells, pairs)

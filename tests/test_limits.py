"""2-limits and cartesian structure: products, pullbacks, powers, coproducts,
the free arrow, copowers, and internal homs with their oracles."""

import hashlib
import inspect
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import replace
from itertools import product

import pytest

from fincat import ends, finset, naive
from fincat.audit import AuditConfig, diagonal_equaliser_holds
from fincat.corpus import (CorpusSpec, category_from_tables, generate_corpus,
                           monoid_delooping)
from fincat.ends import Family, check_family, end_families
from fincat.errors import SIZE_BOUND, CertificateFailure, DomainMismatch, SizeBound
from fincat.finset import FinMap, FinObj, identity
from fincat.internal import (InternalCategory, InternalFunctor, InternalNatTrans,
                             compose_functors, id_functor, monotone_maps, ordinal,
                             validate_category, validate_functor,
                             validate_nat_trans)
from fincat.limits import (HomCategory, constant_functor, coproduct_cat,
                           copower_by_two, enumerate_cells, enumerate_functors,
                           free_arrow, hom_category, hom_iso_with_oracle,
                           internal_hom, power_by_two, product_cat,
                           pullback_cat, terminal_cat, validate_hom_carrier)
from fincat.transfer import disc, indisc


def test_terminal_cat_is_disc_one():
    t = terminal_cat()
    assert (t.C0.size, t.C1.size) == (1, 1)
    assert t.d0.table == t.d1.table == t.i.table == (0,)


def test_product_of_free_arrows():
    two = free_arrow()
    pc = product_cat(two, two)
    assert (pc.category.C0.size, pc.category.C1.size) == (4, 9)
    assert validate_category(pc.category).ok
    assert validate_functor(pc.proj0).ok and validate_functor(pc.proj1).ok


def test_pullback_of_identities_is_domain():
    two = free_arrow()
    f = id_functor(two)
    pb = pullback_cat(f, f)
    assert (pb.category.C0.size, pb.category.C1.size) == (2, 3)
    assert validate_category(pb.category).ok


def test_mediating_functor_commutes():
    two = free_arrow()
    pc = product_cat(two, two)
    f = id_functor(two)
    med = pc.mediate(f, f)
    assert compose_functors(pc.proj0, med) == f
    assert compose_functors(pc.proj1, med) == f


def test_levelwise_limit_reflection():
    # the chosen product cone is limiting levelwise; a padded fake cone fails
    two = free_arrow()
    pc = product_cat(two, two)
    assert pc.l0.apex.size == two.C0.size * two.C0.size
    assert pc.l1.apex.size == two.C1.size * two.C1.size
    # fake cone: drop an element from the apex; the induced map is not epi
    assert not finset.is_pullback_square(
        FinMap(FinObj(3), two.C0, (0, 0, 1)),
        FinMap(FinObj(3), two.C0, (0, 1, 1)),
        finset.bang(two.C0), finset.bang(two.C0))


def test_power_of_discrete_is_discrete():
    x = FinObj(3)
    p = power_by_two(disc(x))
    assert p.carrier.C0.size == 3
    assert p.carrier.C1.size == 3
    assert p.carrier.d0.table == p.carrier.d1.table == identity(FinObj(3)).table


def test_power_of_free_arrow_brute_force():
    two = free_arrow()
    p = power_by_two(two)
    assert p.carrier.C0.size == two.C1.size == 3
    # independent brute force: pairs of composable pairs with equal composite
    pairs = [(u, v) for u in range(3) for v in range(3)
             if two.d1.table[u] == two.d0.table[v]]
    squares = [(a, b) for a in pairs for b in pairs
               if two.comp(*a) == two.comp(*b)]
    assert len(squares) == 6
    assert p.carrier.C1.size == 6


def test_power_universal_property_bijection(corpus):
    two = free_arrow()
    probes = [two, disc(FinObj(2)), indisc(FinObj(2))]
    for a in corpus[:8]:
        if a.C1.size > 6:
            continue
        p = power_by_two(a)
        hc = hom_category(two, a)
        assert p.carrier.C0.size == a.C1.size
        assert p.carrier.C1.size == len(hc.arrows)
        # functors from small probes into the power biject with 2-cells
        for x in probes:
            fs = enumerate_functors(x, p.carrier)
            cells = [c for f in enumerate_functors(x, a)
                     for g in enumerate_functors(x, a)
                     for c in enumerate_cells(f, g)]
            assert len(fs) == len(cells)
            for cell in cells[:6]:
                h = p.cell_to_functor(cell)
                assert validate_functor(h).ok
                back = p.functor_to_cell(h)
                assert back == cell


def test_power_sizes_against_naive_oracle(corpus):
    two = free_arrow()
    n_two = naive.oracle_from_internal(two)
    for a in corpus[:8]:
        if a.C1.size > 6:
            continue
        p = power_by_two(a)
        na = naive.oracle_from_internal(a)
        funs, cells, _cat = naive.oracle_hom_category(n_two, na)
        assert p.carrier.C0.size == len(funs)
        assert p.carrier.C1.size == len(cells)


def test_internal_hom_higher_levels_match_end(corpus):
    from fincat.ends import end_families
    two = free_arrow()
    i2 = indisc(FinObj(2))
    for (x, y) in [(two, two), (two, i2), (i2, two), (terminal_cat(), two)]:
        ih = internal_hom(x, y)
        assert ih.carrier.pairs.apex.size == len(end_families(x, y, 2))
        assert ih.carrier.nerve.levels[3].size == len(end_families(x, y, 3))


def _level_two_m(ih, x, y):
    """Composition read off the level-2 end: each family's edges (1, 2) and
    (0, 1) compose to its edge (0, 2), and the Segal map is a bijection."""
    idx0 = {f.key(): i for i, f in enumerate(ih.level0)}

    def edge_key(fam, s, t):
        return idx0[fam.vertex(s)], idx0[fam.vertex(t)], fam.eta1[(s, t)]

    idx1 = {edge_key(f, 0, 1): i for i, f in enumerate(ih.level1)}

    seen = {}
    for fam in end_families(x, y, 2):
        pair = (idx1[edge_key(fam, 1, 2)], idx1[edge_key(fam, 0, 1)])
        assert pair not in seen
        seen[pair] = idx1[edge_key(fam, 0, 2)]
    assert len(seen) == ih.carrier.pairs.apex.size
    return tuple(seen[t] for t in ih.carrier.pairs.tuples)


def test_internal_hom_join_matches_level_two_end(corpus):
    two = free_arrow()
    i2 = indisc(FinObj(2))
    cases = [(two, two), (two, i2), (i2, two), (terminal_cat(), two)]
    cases += [(corpus[i], corpus[j])
              for i, j in [(0, 3), (13, 19), (22, 13), (22, 22)]]
    for x, y in cases:
        ih = internal_hom(x, y)
        assert ih.carrier.m.table == _level_two_m(ih, x, y)


def test_internal_hom_bound_caps_cell_pairs():
    # [2, indisc 3] has 9 functors, 81 cells and 729 composable pairs of
    # cells; the end search and the object tables stay under that count
    x, y = free_arrow(), indisc(FinObj(3))
    ih = internal_hom(x, y, bound=729)
    assert (ih.carrier.C0.size, ih.carrier.C1.size) == (9, 81)
    assert ih.carrier.pairs.apex.size == 729
    with pytest.raises(SizeBound) as err:
        internal_hom(x, y, bound=728)
    assert (err.value.stage, err.value.steps, err.value.bound) == \
        ("cell pairs", 729, 728)


def test_evaluation_is_built_on_first_read_under_the_bound(monkeypatch):
    # the product [2, indisc 3] x 2 has 729 * 4 composable pairs: the hom is
    # built under bound 729, its evaluation only under 2916
    import fincat.limits as limits
    x, y = free_arrow(), indisc(FinObj(3))
    built = []
    real = limits.product_cat
    monkeypatch.setattr(limits, "product_cat",
                        lambda a, b: built.append((a, b)) or real(a, b))
    ih = internal_hom(x, y, bound=729)
    assert built == []
    with pytest.raises(SizeBound) as err:
        ih.evaluation
    assert (err.value.stage, err.value.steps, err.value.bound) == \
        ("evaluation pairs", 2916, 729)
    ih = internal_hom(x, y, bound=2916)
    assert ih.evaluation is ih.evaluation
    assert ih.evaluation.dom is ih.prod.category
    assert built == [(ih.carrier, x)]
    assert validate_functor(ih.evaluation).ok


def test_internal_hom_missing_join_is_certificate_failure(monkeypatch):
    # drop from the level-1 end a cell w = u . v with u, v kept: the join of
    # u after v then has nowhere to go
    import fincat.limits as limits
    two = free_arrow()
    hom = internal_hom(two, two).carrier
    w = next(hom.m.table[p] for p, (u, v) in enumerate(hom.pairs.tuples)
             if hom.m.table[p] not in (u, v))
    real = limits.end_families

    def without_w(x, y, k, bound):
        fams = real(x, y, k, bound)
        return [f for i, f in enumerate(fams) if k != 1 or i != w]

    monkeypatch.setattr(limits, "end_families", without_w)
    with pytest.raises(CertificateFailure) as err:
        internal_hom(two, two)
    assert not isinstance(err.value, (KeyError, SizeBound))


def _with_m(c, k, w):
    """c with its composition table's entry k replaced by w."""
    table = list(c.m.table)
    table[k] = w
    return InternalCategory(c.C0, c.C1, c.d0, c.d1, c.i,
                            FinMap(c.m.dom, c.C1, tuple(table)))


def _with_i(c, o, e):
    """c with the identity of object o replaced by the arrow e."""
    table = list(c.i.table)
    table[o] = e
    return InternalCategory(c.C0, c.C1, c.d0, c.d1,
                            FinMap(c.C0, c.C1, tuple(table)), c.m)


def test_hom_certificate_rejects_a_perturbed_composition():
    # [1, B M] for the monoid M = {e, a} with a.a = a is B M again; setting
    # a.a = e there gives B(Z/2), still a category, but not the hom
    y = monoid_delooping([[0, 1], [1, 1]])
    ih = internal_hom(terminal_cat(), y)
    c = ih.carrier
    a = next(u for u in range(c.C1.size) if u not in c.i.table)
    k = c.pairs.index[(a, a)]
    assert c.m.table[k] == a
    bad = _with_m(c, k, c.i.table[0])
    assert validate_category(bad).ok
    report = validate_hom_carrier(replace(ih, carrier=bad))
    assert [v.axiom for v in report.violations] == ["composite-cell"]
    with pytest.raises(CertificateFailure, match="hom carrier"):
        report.certify("hom carrier")


def test_hom_certificate_rejects_merged_cells():
    # [1, B(Z/2)] has two parallel cells; give the second the family of the
    # first, and the two encode alike
    ih = internal_hom(terminal_cat(), monoid_delooping([[0, 1], [1, 0]]))
    assert ih.carrier.homs == {(0, 0): (0, 1)}
    merged = (ih.level1[0], ih.level1[0])
    report = validate_hom_carrier(replace(ih, level1=merged))
    assert [v.axiom for v in report.violations] == ["cell-encoding"]
    with pytest.raises(CertificateFailure, match="hom carrier"):
        report.certify("hom carrier")


def _with_diagonal(ih, cell, diag):
    """ih with the diagonal eta1[(0, 1)] of one cell replaced."""
    fam = ih.level1[cell]
    bad = Family(fam.k, fam.eta0, {**fam.eta1, (0, 1): tuple(diag)})
    return replace(ih, level1=ih.level1[:cell] + (bad,) + ih.level1[cell + 1:])


def test_hom_certificate_rejects_a_component_out_of_its_hom():
    # one cell's component at an object of the free arrow, read off its
    # diagonal at that object's identity, moved to an arrow of y with
    # another target
    x, y = free_arrow(), indisc(FinObj(2))
    ih = internal_hom(x, y)
    cell = next(c for c in range(ih.carrier.C1.size)
                if c not in ih.carrier.i.table)
    diag = list(ih.level1[cell].eta1[(0, 1)])
    at = x.i.table[0]
    diag[at] = next(b for b in range(y.C1.size)
                    if y.d0.table[b] != y.d0.table[diag[at]])
    report = validate_hom_carrier(_with_diagonal(ih, cell, diag))
    assert [v.axiom for v in report.violations] == ["cell-components"]
    assert report.violations[0].witness == cell


def test_homs_compare_and_hash_by_value():
    two = free_arrow()
    a, b = internal_hom(two, two), internal_hom(two, two)
    assert a is not b and a.carrier == b.carrier
    assert a == b and hash(a) == hash(b)
    assert a.level1[0] == b.level1[0] and a.level1[0] != a.level1[1]
    # the hom with one cell's diagonal changed is another value
    diag = list(a.level1[0].eta1[(0, 1)])
    diag[0] = next(u for u in range(two.C1.size) if u != diag[0])
    assert _with_diagonal(a, 0, diag) != a


def test_corrupted_evaluation_fails_on_first_read():
    # one cell's diagonal at the free arrow's non-identity arrow is sent to
    # an arrow of y with another target
    two = free_arrow()
    y = indisc(FinObj(2))
    ih = internal_hom(two, y)
    cell = next(c for c, fam in enumerate(ih.level1)
                if fam.eta0[(0,)] != fam.eta0[(1,)])
    diag = list(ih.level1[cell].eta1[(0, 1)])
    diag[2] = next(b for b in range(y.C1.size)
                   if y.d0.table[b] != y.d0.table[diag[2]])
    bad = _with_diagonal(ih, cell, diag)
    assert validate_functor(ih.evaluation).ok
    with pytest.raises(CertificateFailure, match="evaluation"):
        bad.evaluation


def test_hom_certificate_agrees_with_validate_category(corpus):
    # on every hom of small corpus categories, and on copies with one
    # identity or one unit composite moved to another cell or one composite
    # moved to a cell with other endpoints; a composite moved to a parallel
    # cell can give another category, which only the certificate rejects
    rng = random.Random(7)
    small = [c for c in corpus if c.C1.size <= 3]
    checked = 0
    for x in small:
        for y in small:
            ih = internal_hom(x, y)
            c = ih.carrier
            copies = [c]
            for o in range(c.C0.size):
                others = [u for u in range(c.C1.size) if u != c.i.table[o]]
                if others:
                    copies.append(_with_i(c, o, rng.choice(others)))
            for k, (u, v) in enumerate(c.pairs.tuples):
                uv = c.m.table[k]
                if u in c.i.table:
                    others = [w for w in range(c.C1.size) if w != uv]
                else:
                    others = [w for w in range(c.C1.size)
                              if (c.d1.table[w], c.d0.table[w])
                              != (c.d1.table[uv], c.d0.table[uv])]
                if others:
                    copies.append(_with_m(c, k, rng.choice(others)))
            for cat in copies:
                assert (validate_hom_carrier(replace(ih, carrier=cat)).ok
                        == validate_category(cat).ok)
                checked += 1
    assert checked > 1000


def test_internal_hom_certificates_survive_optimised_python():
    # each failed validation raises CertificateFailure even under -O
    script = """
import fincat.limits as limits
from fincat.errors import CertificateFailure
from fincat.internal import ValidationReport, Violation
bad = ValidationReport((Violation("planted", 0, "planted failure"),))
x = limits.free_arrow()
for name in ("validate_hom_carrier", "validate_functor"):
    real = getattr(limits, name)
    setattr(limits, name, lambda _value: bad)
    try:
        limits.internal_hom(x, x).evaluation
    except CertificateFailure:
        pass
    else:
        raise SystemExit(name + " failure was not raised")
    setattr(limits, name, real)
"""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stdout + run.stderr


def test_power_and_copower_certificates_survive_optimised_python():
    # the free arrow, the power by 2 and the copower by 2 check themselves
    # with code that -O keeps
    script = """
import fincat.limits as limits
from fincat.errors import CertificateFailure
from fincat.internal import ValidationReport, Violation
bad = ValidationReport((Violation("planted", 0, "planted failure"),))
x = limits.free_arrow()
cases = [("_build_free_arrow", "validate_category"),
         ("power_by_two", "validate_category"),
         ("power_by_two", "validate_functor"),
         ("power_by_two", "validate_nat_trans"),
         ("copower_by_two", "validate_nat_trans")]
for build, check in cases:
    real = getattr(limits, check)
    setattr(limits, check, lambda _value: bad)
    args = () if build == "_build_free_arrow" else (x,)
    try:
        getattr(limits, build)(*args)
    except CertificateFailure:
        pass
    else:
        raise SystemExit(build + ": " + check + " failure was not raised")
    setattr(limits, check, real)
"""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stdout + run.stderr


class _CountingBudget(ends.Budget):
    """The end search's step budget, keeping every instance made so that a
    test can read the steps a search spent."""

    made = []

    def __init__(self, *args):
        super().__init__(*args)
        self.made.append(self)


@pytest.fixture
def counted(monkeypatch):
    """end_families(x, y, k, bound) -> (families, steps spent)."""
    monkeypatch.setattr(ends, "Budget", _CountingBudget)

    def run(x, y, k, bound=10 ** 6):
        _CountingBudget.made.clear()
        fams = end_families(x, y, k, bound)
        return fams, _CountingBudget.made[-1].steps

    return run


def _small_pairs(corpus):
    two = free_arrow()
    i2 = indisc(FinObj(2))
    return ([(two, two), (two, i2), (i2, two), (terminal_cat(), two),
             (disc(FinObj(0)), two)]
            + [(corpus[i], corpus[j])
               for i, j in [(0, 3), (13, 19), (22, 13), (22, 22)]])


def _component_tables(x, y):
    """The component tables the level-1 end of (x, y) ranges over: for each
    ordered pair (F, G) of functors, prod_x |Y(F x, G x)|, from the oracle's
    functors and y.homs."""
    functors = naive.oracle_functors(naive.oracle_from_internal(x),
                                     naive.oracle_from_internal(y))
    return sum(math.prod(len(y.homs.get((p, q), ())) for p, q in zip(f0, g0))
               for f0, _f1 in functors for g0, _g1 in functors)


def test_component_tables_bound_the_cells(corpus):
    refused = 0
    for x, y in _small_pairs(corpus):
        tables = _component_tables(x, y)
        ih = internal_hom(x, y)
        assert ih.carrier.C1.size <= tables
        try:
            internal_hom(x, y, tables - 1)
        except SizeBound as exc:
            if exc.stage == "component tables":
                assert (exc.steps, exc.bound) == (tables, tables - 1)
                refused += 1
    assert refused >= 2


@pytest.fixture
def end_levels(monkeypatch):
    """The level k of every end_families call that internal_hom makes."""
    import fincat.limits as limits
    real, levels = limits.end_families, []

    def recorded(x, y, k, bound):
        levels.append(k)
        return real(x, y, k, bound)

    monkeypatch.setattr(limits, "end_families", recorded)
    return levels


# the refusals below are timed in CPU time, which a loaded machine does not
# stretch the way it stretches wall-clock time


def test_over_budget_level_one_refused_by_its_component_tables(corpus,
                                                                end_levels):
    for i, j in [(10, 4), (10, 9)]:
        a, b = corpus[i], corpus[j]
        end_levels.clear()
        start = time.process_time()
        with pytest.raises(SizeBound) as err:
            internal_hom(a, b, 10 ** 6)
        elapsed = time.process_time() - start
        assert elapsed < 0.1, (i, j, elapsed)
        assert (err.value.stage, err.value.steps, err.value.bound) == \
            ("component tables", 16_777_216, 10 ** 6)
        assert "component tables" in str(err.value)
        # refused before the level-1 end starts
        assert end_levels == [0], (i, j)


def test_oversize_functor_pairs_refused_before_their_component_tables(
        end_levels):
    # disc n -> disc m has m^n functors but only m^n component tables: a
    # pair of distinct functors has none, yet counting them, or starting
    # the level-1 end, runs over every pair. disc 2 -> disc 40 (2,560,000
    # pairs) has a cheap level-0 end; disc 4 -> disc 10 (10^8 pairs) spends
    # its time in the level-0 end
    for n, m, limit in [(2, 40, 0.1), (4, 10, 1.0)]:
        end_levels.clear()
        start = time.process_time()
        with pytest.raises(SizeBound) as err:
            internal_hom(disc(FinObj(n)), disc(FinObj(m)), 10 ** 6)
        elapsed = time.process_time() - start
        assert elapsed < limit, (n, m, elapsed)
        assert (err.value.stage, err.value.steps, err.value.bound) == \
            ("functor pairs", m ** (2 * n), 10 ** 6)
        assert end_levels == [0], (n, m)


def test_level_one_end_steps_once_per_pair_of_functors(counted):
    # disc 2 -> disc 3 has 9 functors and no jump cell with a candidate
    # off the diagonal: the level-1 end still spends a step on each of
    # the 81 pairs
    x, y = disc(FinObj(2)), disc(FinObj(3))
    functors, level0 = counted(x, y, 0)
    cells, level1 = counted(x, y, 1)
    assert (len(functors), len(cells)) == (9, 9)
    assert level1 >= level0 + 81


def test_size_bound_names_its_stage(counted):
    two, i2 = free_arrow(), indisc(FinObj(2))
    with pytest.raises(SizeBound) as err:
        internal_hom(indisc(FinObj(4)), indisc(FinObj(4)), bound=10)
    assert (err.value.stage, err.value.steps, err.value.bound) == \
        ("object tables", 256, 10)
    with pytest.raises(SizeBound) as err:
        internal_hom(two, indisc(FinObj(3)), bound=728)
    assert (err.value.stage, err.value.steps, err.value.bound) == \
        ("cell pairs", 729, 728)
    # a bound one below the steps of the whole level-1 search
    _fams, steps = counted(two, i2, 1)
    with pytest.raises(SizeBound) as err:
        counted(two, i2, 1, steps - 1)
    assert (err.value.stage, err.value.steps, err.value.bound) == \
        ("level-1 end", steps, steps - 1)
    # the object-table step and the first arrow candidate of the functor search
    for bound in (0, 1):
        with pytest.raises(SizeBound) as err:
            enumerate_functors(two, i2, bound)
        assert (err.value.stage, err.value.steps, err.value.bound) == \
            ("oracle functors", bound + 1, bound)


_TWO, _D1, _D3 = free_arrow(), disc(FinObj(1)), disc(FinObj(3))
_I2, _I3, _I4 = indisc(FinObj(2)), indisc(FinObj(3)), indisc(FinObj(4))

# stage, the call that is refused there, and the count and bound it reports
_REFUSALS = [
    ("object tables", lambda: internal_hom(_I4, _I4, 10), 256, 10),
    ("level-0 end", lambda: internal_hom(_TWO, _I2, 17), 18, 17),
    ("functor pairs", lambda: internal_hom(_D3, _I2, 63), 64, 63),
    ("component tables",
     lambda: internal_hom(_D3, monoid_delooping([[0, 1], [1, 0]]), 7), 8, 7),
    ("level-1 end", lambda: internal_hom(_TWO, _I2, 81), 82, 81),
    ("cell pairs", lambda: internal_hom(_TWO, _I3, 728), 729, 728),
    ("evaluation pairs", lambda: internal_hom(_TWO, _I3, 729).evaluation,
     2916, 729),
    ("oracle functors", lambda: enumerate_functors(_TWO, _I2, 17), 18, 17),
    ("oracle cells", lambda: hom_category(_D1, _I3, 8), 9, 8),
    ("oracle composable cell pairs", lambda: hom_category(_D1, _I3, 26), 27, 26),
]


@pytest.mark.parametrize("stage, refused, steps, bound", _REFUSALS,
                         ids=[case[0] for case in _REFUSALS])
def test_every_refusal_names_its_stage_count_and_bound(stage, refused, steps,
                                                       bound):
    with pytest.raises(SizeBound) as err:
        refused()
    assert (err.value.stage, err.value.steps, err.value.bound) == \
        (stage, steps, bound)
    message = str(err.value)
    assert stage in message and str(steps) in message and str(bound) in message


def test_every_search_defaults_to_the_size_bound():
    defaults = [(naive.oracle_functors, "bound"),
                (naive.oracle_hom_category, "bound"), (end_families, "budget"),
                (internal_hom, "bound"), (enumerate_functors, "bound"),
                (hom_category, "bound"), (AuditConfig, "size_bound")]
    for fn, name in defaults:
        assert inspect.signature(fn).parameters[name].default is SIZE_BOUND, \
            fn.__name__
    assert SIZE_BOUND == 10 ** 6


# steps, family count and a digest of the family keys in order, for the
# cases of test_internal_hom_join_matches_level_two_end at levels 0, 1 and 2;
# the level-1 and level-2 counts and digests are those the search gave when
# it searched every vertex block again, and the level-0 ones were recorded
# before it checked each composition instance only at the cell completing it
_END_DIGESTS = [
    (0, 17, 3, "9f23903a0502ab5b"),
    (1, 45, 6, "c27078c1b3923d1b"), (2, 163, 10, "99024ba0c1bc729b"),
    (0, 18, 4, "ec7acb8fe3fec345"),
    (1, 82, 16, "b987c8f05892f3e2"), (2, 658, 64, "c89658282439bd62"),
    (0, 17, 2, "196705bb23a6e578"),
    (1, 33, 3, "4727ef04fa7556bd"), (2, 81, 4, "3063df6e07324601"),
    (0, 4, 2, "0a831f77332c8cf6"),
    (1, 11, 3, "e62992c8bafabfe6"), (2, 26, 4, "4db0917518a2a907"),
    (0, 6, 2, "048fc06e34b6f3e2"),
    (1, 50, 10, "7594a9049515f534"), (2, 450, 52, "254705b4f4e6f968"),
    (0, 4, 2, "c57998967a37ae7a"),
    (1, 24, 6, "8c56095ffb5f2d5c"), (2, 128, 18, "fc2c389af56db920"),
    (0, 7, 2, "699dc63cf205cfcf"),
    (1, 39, 12, "e7389b02d69188a0"), (2, 455, 72, "dd3d8e920e10c804"),
    (0, 22, 6, "8accaf8e63f7ffd9"),
    (1, 151, 21, "476af954f06cccc6"), (2, 1476, 95, "6265130672c7d17e"),
]


def test_end_families_steps_and_order_unchanged(corpus, counted):
    pairs = [p for p in _small_pairs(corpus) if p[0].C0.size]
    got = []
    for x, y in pairs:
        for k in (0, 1, 2):
            fams, steps = counted(x, y, k)
            keys = repr([f.key() for f in fams]).encode()
            got.append((k, steps, len(fams), hashlib.sha256(keys).hexdigest()[:16]))
    assert got == _END_DIGESTS


# a digest of the hom's numbering, the carrier's (d0, d1, i, m), over every
# ordered pair of corpus members with at most 3 arrows and then (21, 20),
# recorded before the hom keyed its cells by (source, target, diagonal)
_HOM_DIGEST = "22e7618263a073b3289eb419c73b55fe4b05189e9bd2ef414017da861113c97d"


def test_hom_numbering_unchanged(corpus):
    small = [c for c in corpus if c.C1.size <= 3]
    pairs = [(x, y) for x in small for y in small] + [(corpus[21], corpus[20])]
    assert len(pairs) == 325
    tables = []
    for x, y in pairs:
        c = internal_hom(x, y).carrier
        tables.append((c.d0.table, c.d1.table, c.i.table, c.m.table))
    assert hashlib.sha256(repr(tables).encode()).hexdigest() == _HOM_DIGEST


# a digest of the steps and the family keys, in order, of end_families at
# k = 1 and 2 over the pairs of test_hom_numbering_unchanged
_SLICE_END_DIGEST = "661de234f705d7faebbf4855b66be36805298ea819765143e90d719b0e99e6b4"


def test_slice_end_families_steps_and_order_unchanged(corpus, counted):
    small = [c for c in corpus if c.C1.size <= 3]
    pairs = [(x, y) for x in small for y in small] + [(corpus[21], corpus[20])]
    digest = hashlib.sha256()
    for x, y in pairs:
        for k in (1, 2):
            fams, steps = counted(x, y, k)
            digest.update(repr((k, steps, [f.key() for f in fams])).encode())
    assert digest.hexdigest() == _SLICE_END_DIGEST


# a digest of the steps and the family keys, in order, of end_families at
# k = 3 over the ordered pairs of corpus members with at most 2 arrows,
# recorded while the plan kept the first jump cell's ends in a slot of their
# own; it pins the steps that the skipped vertex tuples spend at k >= 2
_K3_END_DIGEST = "1c5361c3d1873430702b0a45f993f1720f6e9619a620f06cad9aa2fd27099e04"


def test_level_three_end_families_steps_and_order_unchanged(corpus, counted):
    small = [c for c in corpus if c.C1.size <= 2]
    pairs = [(x, y) for x in small for y in small]
    assert len(pairs) == 121
    digest = hashlib.sha256()
    for x, y in pairs:
        fams, steps = counted(x, y, 3)
        digest.update(repr((3, steps, [f.key() for f in fams])).encode())
    assert digest.hexdigest() == _K3_END_DIGEST


# (i, j, s): the level-1 end of corpus pair (i, j) succeeds at bound s and is
# refused at s - 1
_LEVEL1_THRESHOLDS = (
    (1, 1, 4), (24, 13, 5), (15, 1, 11), (3, 12, 16), (6, 14, 33),
    (22, 4, 299), (18, 18, 1246), (21, 20, 7291), (20, 18, 11682),
)


@pytest.mark.parametrize("i,j,steps", _LEVEL1_THRESHOLDS)
def test_level1_end_step_thresholds(corpus, i, j, steps):
    x, y = corpus[i], corpus[j]
    with pytest.raises(SizeBound) as err:
        end_families(x, y, 1, steps - 1)
    assert (err.value.stage, err.value.steps, err.value.bound) == \
        ("level-1 end", steps, steps - 1)
    assert ([f.key() for f in end_families(x, y, 1, steps)]
            == [f.key() for f in end_families(x, y, 1)])


def _fresh(c):
    """An equal copy of c with none of its derived data built."""
    return InternalCategory(c.C0, c.C1, c.d0, c.d1, c.i, c.m)


def test_end_plans_are_stateless_and_built_once(corpus, counted, monkeypatch):
    # a plan kept on X and read by searches into many Y, interleaved over
    # k = 0, 1, 2, gives what a search over an equal copy of X without a
    # plan gives; the kept copy builds one plan per level
    built = []

    class CountedPlan(ends.EndPlan):
        def __init__(self, x_cat, k):
            built.append((x_cat, k))
            super().__init__(x_cat, k)

    monkeypatch.setattr(ends, "EndPlan", CountedPlan)
    kept = [_fresh(corpus[i]) for i in (0, 6, 13, 21, 22)]
    ys = [corpus[j] for j in (0, 3, 13, 17, 22)] + [free_arrow()]
    for _ in range(2):
        for y in ys:
            for k in (0, 1, 2):
                for x in kept:
                    got, got_steps = counted(x, y, k)
                    want, want_steps = counted(_fresh(x), y, k)
                    assert got_steps == want_steps
                    assert [f.key() for f in got] == [f.key() for f in want]
                    assert ([(f.eta0, f.eta1) for f in got]
                            == [(f.eta0, f.eta1) for f in want])
    kept_builds = [(id(x), k) for x, k in built if any(x is c for c in kept)]
    assert sorted(kept_builds) == sorted((id(x), k) for x in kept for k in (0, 1, 2))
    assert all(set(x.end_plans) == {0, 1, 2} for x in kept)


def test_memoised_check_family_rejects_every_perturbation():
    # every single-entry change to a natural family either gives another
    # solution of the end or must fail the sweep
    two, i2 = free_arrow(), indisc(FinObj(2))
    for x, y in [(two, two), (two, i2)]:
        fams = end_families(x, y, 1)
        natural = {f.key() for f in fams}
        for fam in fams:
            assert check_family(x, y, fam)
            for level, tables, size in [(0, fam.eta0, y.C0.size),
                                        (1, fam.eta1, y.C1.size)]:
                for psi, row in tables.items():
                    for a, val in enumerate(row):
                        for new in range(size):
                            if new == val:
                                continue
                            eta = dict(tables)
                            eta[psi] = row[:a] + (new,) + row[a + 1:]
                            bad = (ends.Family(1, eta, fam.eta1) if level == 0
                                   else ends.Family(1, fam.eta0, eta))
                            assert check_family(x, y, bad) == (bad.key() in natural)


def test_coproduct_with_empty():
    two = free_arrow()
    empty = disc(FinObj(0))
    cop = coproduct_cat(two, empty)
    assert (cop.category.C0.size, cop.category.C1.size) == (2, 3)
    assert cop.category.m.table == two.m.table


def test_coproduct_one_plus_one():
    one = terminal_cat()
    cop = coproduct_cat(one, one)
    d2 = disc(FinObj(2))
    assert (cop.category.C0.size, cop.category.C1.size) == (2, 2)
    assert cop.category.d0.table == d2.d0.table


def test_coproduct_free_arrow_indisc():
    cop = coproduct_cat(free_arrow(), indisc(FinObj(2)))
    assert validate_category(cop.category).ok
    assert (cop.category.C0.size, cop.category.C1.size) == (4, 7)


def _coproduct_pairs(corpus):
    """(a, b, a + b) over the ordered pairs of corpus[:12], for the corpora
    of seeds 1, 2, 3 and 7."""
    corpora = [generate_corpus(CorpusSpec(seed=s)) for s in (1, 2, 3)]
    for members in corpora + [corpus]:
        for a in members[:12]:
            for b in members[:12]:
                yield a, b, coproduct_cat(a, b)


# a digest of coproduct_cat's tables (d0, d1, i, m and both injections) over
# _coproduct_pairs, recorded before m was built as a copair
_COPRODUCT_DIGEST = "c7322b414380a3d64f425451333967d576022fdbec43ed18db020387d04fa3c8"


def test_coproduct_tables_unchanged(corpus):
    tables = []
    for _a, _b, cop in _coproduct_pairs(corpus):
        c = cop.category
        tables.append((c.d0.table, c.d1.table, c.i.table, c.m.table,
                       cop.inj0.f0.table, cop.inj0.f1.table,
                       cop.inj1.f0.table, cop.inj1.f1.table))
    assert len(tables) == 576
    assert hashlib.sha256(repr(tables).encode()).hexdigest() == _COPRODUCT_DIGEST


def test_coproduct_pairs_are_the_summands_pairs(corpus):
    # why m is a copair: a's composable pairs, then b's shifted past a's arrows
    for a, b, cop in _coproduct_pairs(corpus):
        na = a.C1.size
        assert cop.category.pairs.tuples == a.pairs.tuples + tuple(
            (u + na, v + na) for u, v in b.pairs.tuples)


def test_copair_needs_a_leg_out_of_each_summand():
    two, one = free_arrow(), terminal_cat()
    cop = coproduct_cat(two, two)
    # a leg out of the terminal category is not a leg out of the free arrow
    with pytest.raises(DomainMismatch, match="each summand"):
        cop.copair(constant_functor(one, two, 1), id_functor(two))
    with pytest.raises(DomainMismatch, match="each summand"):
        cop.copair(id_functor(two), constant_functor(one, two, 1))
    cop = coproduct_cat(one, two)
    with pytest.raises(DomainMismatch, match="each summand"):
        cop.copair(id_functor(two), constant_functor(one, two, 1))
    legs = cop.copair(constant_functor(one, two, 1), id_functor(two))
    assert validate_functor(legs).ok
    assert (legs.f0.table, legs.f1.table) == ((1, 0, 1), (1, 0, 1, 2))


def test_free_arrow_shape():
    two = free_arrow()
    assert (two.C0.size, two.C1.size) == (2, 3)
    non_identity = [u for u in range(3) if u not in set(two.i.table)]
    assert len(non_identity) == 1
    u = non_identity[0]
    assert two.d1.table[u] != two.d0.table[u]


def test_free_arrow_oracle_isomorphism():
    two = free_arrow()
    hand = category_from_tables(2, [(0, 0), (1, 1), (0, 1)],
                                {(0, 0): 0, (1, 1): 1, (2, 0): 2, (1, 2): 2},
                                [0, 1])
    isos = [h for h in enumerate_functors(two, hand)
            if finset.is_iso(h.f0) and finset.is_iso(h.f1)]
    assert len(isos) == 1


def test_each_category_converted_to_the_oracle_once(monkeypatch):
    converted = []
    convert = naive.oracle_from_internal
    monkeypatch.setattr(naive, "oracle_from_internal",
                        lambda cat: converted.append(cat) or convert(cat))
    a, b = disc(FinObj(2)), indisc(FinObj(2))
    first = enumerate_functors(a, b)
    assert enumerate_functors(a, b) == first
    enumerate_cells(first[0], first[1])
    hom_category(a, b)
    assert list(map(id, converted)) == [id(a), id(b)]


def test_copower_of_terminal_is_free_arrow():
    cp = copower_by_two(terminal_cat())
    assert (cp.carrier.C0.size, cp.carrier.C1.size) == (2, 3)
    isos = [h for h in enumerate_functors(cp.carrier, free_arrow())
            if finset.is_iso(h.f0) and finset.is_iso(h.f1)]
    assert len(isos) == 1


def test_copower_object_count(corpus):
    for a in corpus[:6]:
        cp = copower_by_two(a)
        assert cp.carrier.C0.size == 2 * a.C0.size


def test_copower_universal_bijection():
    rng = random.Random(8)
    pool = [free_arrow(), indisc(FinObj(2)), disc(FinObj(2))]
    for a in pool:
        cp = copower_by_two(a)
        for b in pool:
            if b.C1.size > 5 or a.C1.size > 5:
                continue
            cells = [c for f in enumerate_functors(a, b)
                     for g in enumerate_functors(a, b)
                     for c in enumerate_cells(f, g)]
            hs = enumerate_functors(cp.carrier, b)
            assert len(cells) == len(hs)
            for cell in cells:
                h = cp.cell_to_functor(cell)
                assert validate_functor(h).ok
                back = cp.functor_to_cell(h)
                assert back == cell


def test_two_cell_transposes_refuse_a_cell_that_is_not_natural(corpus):
    # every cell alpha: f => g between functors 2 -> Y whose components have
    # the right ends, for the members Y with at most 6 arrows: a natural one
    # transposes to a functor into Y's power and one out of 2's copower, and
    # back; both refuse any other, such as alpha = (e, a) on f = g sending
    # every arrow to e, for the monoid {e, a} with a.a = a (corpus[3])
    two = free_arrow()
    cp = copower_by_two(two)
    counts = [0, 0]
    for y in corpus:
        if y.C1.size > 6:
            continue
        p = power_by_two(y)
        functors = enumerate_functors(two, y)
        for f, g in product(functors, repeat=2):
            for alpha in product(*(y.homs.get((f.f0.table[x], g.f0.table[x]), ())
                                   for x in range(two.C0.size))):
                cell = InternalNatTrans(f, g, FinMap(two.C0, y.C1, alpha))
                natural = validate_nat_trans(cell).ok
                counts[natural] += 1
                for transpose in (p, cp):
                    if natural:
                        h = transpose.cell_to_functor(cell)
                        assert validate_functor(h).ok
                        assert transpose.functor_to_cell(h) == cell
                    else:
                        with pytest.raises(DomainMismatch, match="naturality at"):
                            transpose.cell_to_functor(cell)
    assert counts == [450, 327]


def test_internal_hom_unit_law():
    two = free_arrow()
    ih = internal_hom(terminal_cat(), two)
    assert (ih.carrier.C0.size, ih.carrier.C1.size) == (two.C0.size, two.C1.size)
    isos = [h for h in enumerate_functors(ih.carrier, two)
            if finset.is_iso(h.f0) and finset.is_iso(h.f1)]
    assert len(isos) >= 1


def test_internal_hom_of_free_arrows():
    ih = internal_hom(free_arrow(), free_arrow())
    assert ih.carrier.C0.size == 3
    assert ih.carrier.C1.size == 6
    assert validate_category(ih.carrier).ok
    assert validate_functor(ih.evaluation).ok


def test_internal_hom_matches_oracle(corpus):
    checked = 0
    for a in corpus:
        for b in corpus:
            if a.C1.size > 5 or b.C1.size > 5:
                continue
            try:
                ih = internal_hom(a, b, bound=200000)
            except SizeBound:
                continue
            hc = hom_category(a, b)
            assert ih.carrier.C0.size == len(hc.objects)
            assert ih.carrier.C1.size == len(hc.arrows)
            hom_iso_with_oracle(ih, hc)
            checked += 1
            if checked >= 12:
                return
    assert checked > 0


def test_hom_iso_with_oracle_rejects_tampered_oracle():
    two = free_arrow()
    ih = internal_hom(two, two)
    hc = hom_category(two, two)
    hom_iso_with_oracle(ih, hc)
    # drop one non-identity arrow; the end hom's cell for it has no image
    dropped = next(i for i in reversed(range(len(hc.arrows)))
                   if i not in hc.identity)
    tampered = HomCategory(hc.objects, hc.arrows[:dropped] + hc.arrows[dropped + 1:],
                           hc.identity, hc.comp)
    with pytest.raises(CertificateFailure):
        hom_iso_with_oracle(ih, tampered)
    # a permuted object list still gives a bijection, but not a functor
    swapped = HomCategory(hc.objects[::-1], hc.arrows, hc.identity, hc.comp)
    with pytest.raises(CertificateFailure):
        hom_iso_with_oracle(ih, swapped)
    # the same lists with one composite or one identity moved: bijective and
    # endpoint-preserving still, but not a functor onto the oracle's tables
    key = next(iter(hc.comp))
    comp = dict(hc.comp)
    comp[key] = (comp[key] + 1) % len(hc.arrows)
    with pytest.raises(CertificateFailure):
        hom_iso_with_oracle(ih, HomCategory(hc.objects, hc.arrows, hc.identity, comp))
    identity_moved = ((hc.identity[0] + 1) % len(hc.arrows),) + hc.identity[1:]
    with pytest.raises(CertificateFailure):
        hom_iso_with_oracle(ih, HomCategory(hc.objects, hc.arrows, identity_moved,
                                            hc.comp))


def test_end_families_are_the_functors_out_of_the_cylinder(corpus):
    # a level-k family is a functor [k] x X -> Y: decoded by joining its
    # tables in psi order, the end's families are the naive oracle's
    # functors out of the chosen product, in the same order
    members = {k: [c for c in corpus if c.C1.size <= (2 if k == 3 else 3)]
               for k in range(4)}
    triples = 0
    for k, small in members.items():
        for x in small:
            cylinder = naive.oracle_from_internal(product_cat(ordinal(k), x).category)
            for y in small:
                decoded = [
                    (sum((fam.eta0[psi] for psi in monotone_maps(0, k)), ()),
                     sum((fam.eta1[psi] for psi in monotone_maps(1, k)), ()))
                    for fam in end_families(x, y, k)]
                assert decoded == naive.oracle_functors(
                    cylinder, naive.oracle_from_internal(y))
                triples += 1
    assert triples == 1093


def test_functors_out_of_two_are_composable_pairs(corpus):
    # Segal: [2] is [1] glued to [1] along [0], so a functor [2] -> A is a
    # composable pair (u, v) of A, sent 0 -> 2 to the composite u . v
    arrow = {ends: k for k, ends in enumerate(monotone_maps(1, 2))}
    functors = 0
    for a in corpus:
        funs = enumerate_functors(ordinal(2), a)
        pairs = [(f.f1.table[arrow[(1, 2)]], f.f1.table[arrow[(0, 1)]]) for f in funs]
        assert sorted(pairs) == sorted(a.pairs.tuples)  # each pair once
        for f, (u, v) in zip(funs, pairs):
            assert f.f1.table[arrow[(0, 2)]] == a.comp(u, v)
        functors += len(funs)
    assert functors == 149


def test_end_families_full_naturality_sweep():
    two = free_arrow()
    i2 = indisc(FinObj(2))
    for (x, y) in [(two, two), (two, i2), (i2, two)]:
        for k in range(3):
            for fam in end_families(x, y, k):
                assert check_family(x, y, fam)


# the homs [X, Y] whose families the hom-transpose benchmark sweeps
_SWEPT_HOMS = ((0, 0), (0, 5), (17, 6), (3, 3), (17, 17), (5, 12))


def _slot_table(fam, x, y, n, psi):
    """fam's table at the slot (n, psi), assembling levels 2 and 3 by spines:
    KeyError where the image of a spine does not compose in y."""
    if n == 0:
        return fam.eta0[psi]
    if n == 1:
        return fam.eta1[psi]
    xn, simplex = x.nerve, y.nerve.simplex
    v0 = fam.eta0[(psi[0],)]
    cols = [fam.eta1[(psi[j - 1], psi[j])] for j in range(1, n + 1)]
    return tuple(simplex(v0[first], [col[a] for col, a in zip(cols, sp)])
                 for first, sp in zip(xn.first[n], xn.spines[n]))


def _reference_natural(x, y, fam):
    """The naturality sweep as a plain loop over every equation, in order."""
    tables = {}
    for n in range(4):
        for psi in monotone_maps(n, fam.k):
            try:
                tables[(n, psi)] = _slot_table(fam, x, y, n, psi)
            except KeyError:  # a spine whose image does not compose
                return False
    for n in range(4):
        for m in range(4):
            for theta in monotone_maps(m, n):
                x_theta = x.nerve.act(theta, n, m).table
                y_theta = y.nerve.act(theta, n, m).table
                for psi in monotone_maps(n, fam.k):
                    top = tables[(n, psi)]
                    low = tables[(m, tuple(psi[j] for j in theta))]
                    for s, a in enumerate(x_theta):
                        if low[a] != y_theta[top[s]]:
                            return False
    return True


def _perturbations(fam, y):
    """Every family that differs from fam in one level-0 or level-1 entry,
    the new entry in range."""
    for level, tables, size in [(0, fam.eta0, y.C0.size), (1, fam.eta1, y.C1.size)]:
        for psi, row in tables.items():
            for a, val in enumerate(row):
                for new in range(size):
                    if new != val:
                        eta = dict(tables)
                        eta[psi] = row[:a] + (new,) + row[a + 1:]
                        yield (Family(fam.k, eta, fam.eta1) if level == 0
                               else Family(fam.k, fam.eta0, eta))


def test_check_family_matches_the_equation_loop(corpus):
    checked = 0
    for xi, yi in _SWEPT_HOMS:
        x, y = corpus[xi], corpus[yi]
        ih = internal_hom(x, y)
        for fam in ih.level0 + ih.level1:
            assert check_family(x, y, fam) and _reference_natural(x, y, fam)
            for bad in _perturbations(fam, y):
                assert check_family(x, y, bad) == _reference_natural(x, y, bad)
                checked += 1
    assert checked == 948


def test_check_family_matches_the_equation_loop_at_level_two():
    # the k = 2 sweep reads slots at levels 2 and 3 with psi onto [2]
    two = free_arrow()
    checked = 0
    for y in (two, indisc(FinObj(2))):
        for fam in end_families(two, y, 2):
            assert check_family(two, y, fam) and _reference_natural(two, y, fam)
            for bad in _perturbations(fam, y):
                assert check_family(two, y, bad) == _reference_natural(two, y, bad)
                checked += 1
    assert checked == 4260


def test_check_family_builds_each_plan_once(monkeypatch):
    # one plan per (X, k) serves the search and the check; the first check
    # at level k builds the cylinder [k] x X on that plan, and the next
    # checks read it
    import fincat.limits as limits
    plans, cylinders = [], []

    class CountedPlan(ends.EndPlan):
        def __init__(self, x_cat, k):
            plans.append((x_cat, k))
            super().__init__(x_cat, k)

    real = limits.product_cat
    monkeypatch.setattr(ends, "EndPlan", CountedPlan)
    monkeypatch.setattr(limits, "product_cat",
                        lambda a, b: cylinders.append((a, b)) or real(a, b))
    x, y = disc(FinObj(2)), indisc(FinObj(2))  # a category no other test planned
    fams = {k: end_families(x, y, k) for k in (0, 1)}
    assert [plan.cylinder for plan in x.end_plans.values()] == [None, None]
    for _ in range(2):
        for k, found in fams.items():
            assert all(check_family(x, y, fam) for fam in found)
    assert [(a, b is x) for a, b in cylinders] == [(ordinal(0), True),
                                                  (ordinal(1), True)]
    assert [(k, plan.cylinder.proj0.cod) for k, plan in x.end_plans.items()] == \
        [(0, ordinal(0)), (1, ordinal(1))]
    assert [(c is x, k) for c, k in plans] == [(True, 0), (True, 1)]


def test_end_search_builds_no_nerve(corpus):
    # the hom reads X's plan and Y's tables, never a nerve, and leaves the
    # cylinder of each plan to the first check_family
    for xi, yi in _SWEPT_HOMS + ((21, 20), (13, 22), (6, 6)):
        x, y = _fresh(corpus[xi]), _fresh(corpus[yi])
        internal_hom(x, y)
        assert "nerve" not in x.__dict__ and "nerve" not in y.__dict__
        assert [plan.cylinder for plan in x.end_plans.values()] == [None, None]


@pytest.mark.parametrize("k", [0, 1])
def test_out_of_range_entries_fail_the_sweep(k):
    # an entry past Y_n or below 0 fails, as an uncomposable spine does; the
    # sweep never reads another table's entries in its place
    x = y = free_arrow()
    for fam in end_families(x, y, k):
        for level, tables, size in [(0, fam.eta0, y.C0.size),
                                    (1, fam.eta1, y.C1.size)]:
            for psi, row in tables.items():
                for new in (size, size + 1, -1, -size):
                    eta = dict(tables)
                    eta[psi] = (new,) + row[1:]
                    bad = (Family(k, eta, fam.eta1) if level == 0
                           else Family(k, fam.eta0, eta))
                    assert not check_family(x, y, bad)


def test_internal_hom_curry_round_trip():
    two = free_arrow()
    i2 = indisc(FinObj(2))
    for (z, x, y) in [(two, two, two), (two, two, i2), (i2, two, two)]:
        ih = internal_hom(x, y)
        prod_zx = product_cat(z, x)
        for h in enumerate_functors(prod_zx.category, y)[:8]:
            g = ih.curry(z, prod_zx, h)
            assert validate_functor(g).ok
            # uncurry: ev . (g x 1)
            lifted = ih.prod.mediate(compose_functors(g, prod_zx.proj0),
                                     prod_zx.proj1)
            back = compose_functors(ih.evaluation, lifted)
            assert back == h


def _reference_curry(ih, z, prod_zx, h):
    """curry as it was first written: build each transpose's whole end family
    through the nerve of Z, then look its key up in the hom."""
    idx0, idx1 = ({f.key(): i for i, f in enumerate(fams)}
                  for fams in (ih.level0, ih.level1))
    zn, x = z.nerve, ih.dom
    at0, at1 = prod_zx.l0.index, prod_zx.l1.index

    def family_for(z_simplex, k):
        eta0 = {psi: tuple(h.f0.table[at0[(zn.act(psi, k, 0).table[z_simplex], xv)]]
                           for xv in range(x.C0.size))
                for psi in monotone_maps(0, k)}
        eta1 = {psi: tuple(h.f1.table[at1[(zn.act(psi, k, 1).table[z_simplex], a)]]
                           for a in range(x.C1.size))
                for psi in monotone_maps(1, k)}
        return Family(k, eta0, eta1)

    return (tuple(idx0[family_for(zz, 0).key()] for zz in range(z.C0.size)),
            tuple(idx1[family_for(c, 1).key()] for c in range(z.C1.size)))


def test_family_key_and_the_hom_cell_index(corpus):
    # a family's key is its eta0 tables, then its eta1 tables, in psi order;
    # the hom keys a cell by (source index, target index, diagonal)
    for x in corpus[:8]:
        for y in corpus[:8]:
            ih = internal_hom(x, y, 10 ** 5)
            for fam in ih.level0:
                assert fam.key() == fam.vertex(0)
            for fam in ih.level1:
                eta0, eta1 = fam.eta0, fam.eta1
                assert fam.key() == (eta0[(0,)], eta0[(1,)], eta1[(0, 0)],
                                     eta1[(0, 1)], eta1[(1, 1)])
            d0, d1 = ih.carrier.d0.table, ih.carrier.d1.table
            assert ih.family_index[1] == {(d1[c], d0[c], fam.eta1[(0, 1)]): c
                                          for c, fam in enumerate(ih.level1)}
            assert len(ih.family_index[1]) == ih.carrier.C1.size


def _assert_built_publicly_alike(fun):
    """curry, enumerate_functors and compose_functors build their results
    without the shape re-check: each must be the functor the public
    constructor builds from the same maps."""
    public = InternalFunctor(fun.dom, fun.cod, fun.f0, fun.f1)
    assert fun == public and hash(fun) == hash(public)
    assert vars(fun) == vars(public)


def test_curry_matches_the_family_reference(corpus):
    # the six homs and six categories Z of perfbench's hom-transpose workload
    transposes = 0
    for xi, yi in ((0, 0), (0, 5), (17, 6), (3, 3), (17, 17), (5, 12)):
        ih = internal_hom(corpus[xi], corpus[yi])
        for z in (corpus[zi] for zi in (0, 6, 18, 21, 22, 20)):
            prod_zx = product_cat(z, ih.dom)
            for h in enumerate_functors(prod_zx.category, ih.cod):
                g = ih.curry(z, prod_zx, h)
                assert (g.f0.table, g.f1.table) == _reference_curry(ih, z, prod_zx, h)
                _assert_built_publicly_alike(h)
                _assert_built_publicly_alike(g)
                transposes += 1
    assert transposes == 741


def test_trusted_functors_equal_the_publicly_built_ones(corpus):
    # every functor between seed-7 members with at most 3 arrows, and a
    # composite of each with a functor back
    small = [c for c in corpus if c.C1.size <= 3]
    functors = 0
    for a in small:
        for b in small:
            funs = enumerate_functors(a, b)
            for f in funs:
                _assert_built_publicly_alike(f)
            for f, g in zip(funs, enumerate_functors(b, a)):
                _assert_built_publicly_alike(compose_functors(g, f))
            functors += len(funs)
    assert functors == 674


def test_curry_of_a_non_functor_is_domain_mismatch():
    two = free_arrow()
    ih = internal_hom(two, two)
    prod_zx = product_cat(two, two)
    h = enumerate_functors(prod_zx.category, two)[0]
    # send one arrow of Z x X to an arrow between the wrong objects
    f1 = list(h.f1.table)
    f1[0] = next(a for a in range(two.C1.size)
                 if two.d1.table[a] != two.d1.table[f1[0]])
    bad = replace(h, f1=FinMap(h.f1.dom, h.f1.cod, tuple(f1)))
    assert not validate_functor(bad).ok
    with pytest.raises(DomainMismatch):
        ih.curry(two, prod_zx, bad)


def test_curry_over_a_cone_that_is_not_the_chosen_product(corpus):
    # a pullback of f: Z -> X along the identity is a cone over Z and X whose
    # tables are not numbered by rows, so curry cannot slice them
    z, x, y = corpus[6], corpus[0], corpus[5]
    ih = internal_hom(x, y)
    cone = pullback_cat(enumerate_functors(z, x)[1], id_functor(x))
    h = enumerate_functors(cone.category, y)[0]
    with pytest.raises(DomainMismatch, match="chosen product"):
        ih.curry(z, cone, h)
    # the chosen product of other factors is refused too
    other = product_cat(corpus[18], x)
    assert (other.l0.apex.size, other.l1.apex.size) != (
        z.C0.size * x.C0.size, z.C1.size * x.C1.size)
    h = enumerate_functors(other.category, y)[0]
    with pytest.raises(DomainMismatch, match="chosen product"):
        ih.curry(z, other, h)


def test_disc_preserves_internal_homs():
    for (ys, zs) in [(2, 2), (2, 3), (3, 2), (0, 2)]:
        y, z = FinObj(ys), FinObj(zs)
        ih = internal_hom(disc(y), disc(z))
        exp = finset.exponential(y, z)
        assert ih.carrier.C0.size == exp.obj.size
        assert ih.carrier.C1.size == exp.obj.size
        assert ih.carrier.d0.table == ih.carrier.d1.table


def test_internal_hom_size_bound():
    big = indisc(FinObj(4))
    with pytest.raises(SizeBound):
        internal_hom(big, big, bound=10)


def test_hom_category_of_terminal_source(corpus):
    for a in corpus[:6]:
        hc = hom_category(terminal_cat(), a)
        assert len(hc.objects) == a.C0.size
        assert len(hc.arrows) == a.C1.size


def test_hom_category_composition_associative():
    hc = hom_category(free_arrow(), free_arrow())
    assert len(hc.objects) == 3
    for (i2, i1), c21 in hc.comp.items():
        for (j2, j1), c32 in hc.comp.items():
            if j1 == i2:
                assert hc.comp[(j2, c21)] == hc.comp[(c32, i1)]


def test_extensivity_of_coproducts(corpus, functor_corpus):
    two = free_arrow()
    i2 = indisc(FinObj(2))
    cop = coproduct_cat(two, i2)
    # pull back sample functors into the coproduct along both injections
    probes = [compose_functors(cop.inj0, id_functor(two)),
              compose_functors(cop.inj1, id_functor(i2))]
    for h in probes:
        pb0 = pullback_cat(h, cop.inj0)
        pb1 = pullback_cat(h, cop.inj1)
        assert pb0.category.C0.size + pb1.category.C0.size == h.dom.C0.size
        assert pb0.category.C1.size + pb1.category.C1.size == h.dom.C1.size
        assert validate_category(pb0.category).ok
        assert validate_category(pb1.category).ok


def test_diagonal_equaliser_identity():
    for n in range(6):
        assert diagonal_equaliser_holds(FinObj(n))

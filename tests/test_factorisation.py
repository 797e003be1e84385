"""Lifted orthogonal factorisation: both base instances, square and 2-cell
lifting with exhaustive uniqueness, acuteness."""

import os
import random
import subprocess
import sys

import pytest

from fincat import finset
from fincat.errors import NotInClass
from fincat.factorisation import (epi_mono_ofs, factor_internal,
                                  in_lifted_left, in_lifted_right, is_acute,
                                  iso_all_ofs, left_orthogonal_to,
                                  lift_square, lift_two_cell)
from fincat.finset import FinMap, FinObj, compose
from fincat.internal import (compose_functors, id_functor, id_nat_trans,
                             InternalFunctor, InternalNatTrans,
                             is_epi_on_objects, is_full_mono,
                             is_fully_faithful, is_iso_on_objects,
                             validate_category, validate_functor,
                             validate_nat_trans, whisker_left, whisker_right)
from fincat.limits import (bang_functor, coproduct_cat, enumerate_cells,
                           enumerate_functors, free_arrow, terminal_cat)
from fincat.corpus import full_subcategory_inclusion
from fincat.transfer import indisc, indisc_map


BOTH = (epi_mono_ofs(), iso_all_ofs())


def test_collapse_factorisation_epi_mono():
    two = free_arrow()
    fact = factor_internal(bang_functor(two), epi_mono_ofs())
    assert fact.middle.C0.size == 1
    assert is_epi_on_objects(fact.left)
    assert compose_functors(fact.right, fact.left) == bang_functor(two)


def test_full_mono_factors_with_iso_left():
    two = free_arrow()
    _sub, inc = full_subcategory_inclusion(two, [0])
    assert is_full_mono(inc)
    fact = factor_internal(inc, epi_mono_ofs())
    assert finset.is_iso(fact.left.f0)
    assert fact.middle.C0.size == inc.dom.C0.size
    # the right part reproduces the original up to the canonical image
    assert compose_functors(fact.right, fact.left) == inc


def test_iso_all_instance_gives_bo_ff():
    two = free_arrow()
    fact = factor_internal(bang_functor(two), iso_all_ofs())
    assert is_iso_on_objects(fact.left)
    assert is_fully_faithful(fact.right)
    # objects stay, arrows are pulled back from the terminal category
    assert fact.middle.C0.size == 2
    assert fact.middle.C1.size == 4


def test_factor_corpus_class_correct(functor_corpus):
    for ofs in BOTH:
        for f in functor_corpus[:60]:
            fact = factor_internal(f, ofs)
            assert compose_functors(fact.right, fact.left) == f
            assert in_lifted_left(fact.left, ofs)
            assert in_lifted_right(fact.right, ofs)
            assert validate_category(fact.middle).ok
            assert validate_functor(fact.left).ok
            assert validate_functor(fact.right).ok


def test_factorisation_unique_up_to_compatible_iso():
    two = free_arrow()
    i2 = indisc(FinObj(2))
    cop = coproduct_cat(two, i2)
    f = cop.copair(
        enumerate_functors(two, i2)[1],
        id_functor(i2))
    for ofs in BOTH:
        fact1 = factor_internal(f, ofs)
        # an isomorphic presentation: swap the indiscrete summand's objects
        perm0 = FinMap(f.dom.C0, f.dom.C0, (0, 1, 3, 2))
        perm1_candidates = [h for h in enumerate_functors(f.dom, f.dom)
                            if h.f0.table == perm0.table
                            and finset.is_iso(h.f1)]
        assert perm1_candidates
        perm = perm1_candidates[0]
        fact2 = factor_internal(compose_functors(f, perm), ofs)
        comparisons = [
            h for h in enumerate_functors(fact2.middle, fact1.middle)
            if finset.is_iso(h.f0) and finset.is_iso(h.f1)
            and compose_functors(h, fact2.left) == compose_functors(fact1.left, perm)
            and compose_functors(fact1.right, h) == fact2.right]
        assert len(comparisons) == 1


def _square_from_filler(s, f, u):
    return compose_functors(u, s), compose_functors(f, u)


def test_lift_square_identity_edges():
    two = free_arrow()
    i2 = indisc(FinObj(2))
    p = enumerate_functors(two, i2)[0]
    # s = identity: the lift is the top edge
    u = lift_square(id_functor(two), id_functor(i2), p, p, epi_mono_ofs())
    assert u == p
    # f = identity: the lift is the bottom edge
    e = indisc_map(FinMap(FinObj(3), FinObj(2), (0, 1, 0)))
    q = enumerate_functors(i2, i2)[0]
    u = lift_square(e, id_functor(i2), compose_functors(q, e), q, epi_mono_ofs())
    assert u == q


def test_lift_square_unique_among_exhaustive(functor_corpus):
    rng = random.Random(17)
    lefts = [s for s in functor_corpus
             if is_epi_on_objects(s) and s.dom.C1.size <= 6 and s.cod.C1.size <= 6]
    rights = [f for f in functor_corpus
              if is_full_mono(f) and f.dom.C1.size <= 6 and f.cod.C1.size <= 6]
    checked = 0
    for s in lefts[:6]:
        for f in rights[:6]:
            fillers = enumerate_functors(s.cod, f.dom)
            for u in fillers[:3]:
                p, q = _square_from_filler(s, f, u)
                got = lift_square(s, f, p, q, epi_mono_ofs())
                assert compose_functors(f, got) == q
                assert compose_functors(got, s) == p
                matching = [w for w in fillers
                            if compose_functors(f, w) == q
                            and compose_functors(w, s) == p]
                assert matching == [got]
                checked += 1
    assert checked >= 5


def test_iso_all_lift_square_is_the_unique_filler(functor_corpus):
    ia = iso_all_ofs()
    lefts = [s for s in functor_corpus
             if is_iso_on_objects(s) and s.dom.C1.size <= 6 and s.cod.C1.size <= 6]
    rights = [f for f in functor_corpus
              if is_full_mono(f) and f.dom.C1.size <= 6 and f.cod.C1.size <= 6]
    checked = 0
    for s in lefts[:6]:
        for f in rights[:6]:
            fillers = enumerate_functors(s.cod, f.dom)
            for u in fillers[:3]:
                p, q = _square_from_filler(s, f, u)
                got = lift_square(s, f, p, q, ia)
                matching = [w for w in fillers
                            if compose_functors(f, w) == q
                            and compose_functors(w, s) == p]
                assert matching == [got]
                checked += 1
    assert checked >= 5
    # a left that is epi but not iso on objects is outside (iso, all)'s L'
    s = next(s for s in functor_corpus
             if is_epi_on_objects(s) and not is_iso_on_objects(s))
    f = id_functor(s.cod)
    with pytest.raises(NotInClass):
        lift_square(s, f, s, s, ia)


def test_lift_square_rejects_bad_input():
    two = free_arrow()
    one = terminal_cat()
    inc = InternalFunctor(one, two, FinMap(one.C0, two.C0, (0,)),
                          FinMap(one.C1, two.C1, (0,)))
    with pytest.raises(NotInClass):
        lift_square(inc, id_functor(two), id_functor(two), id_functor(two),
                    epi_mono_ofs())


def test_lift_two_cell_identity_cases():
    i3, i2 = indisc(FinObj(3)), indisc(FinObj(2))
    e = indisc_map(FinMap(FinObj(3), FinObj(2), (0, 1, 0)))
    f = id_functor(i2)
    u = lift_square(e, f, compose_functors(id_functor(i2), e), id_functor(i2),
                    epi_mono_ofs())
    gamma = lift_two_cell(e, f, whisker_right(id_nat_trans(u), e),
                          id_nat_trans(id_functor(i2)), u, u, epi_mono_ofs())
    assert gamma == id_nat_trans(u)


def test_lift_two_cell_unique_among_assigners():
    two = free_arrow()
    i2 = indisc(FinObj(2))
    # s: collapse-free epi-on-objects, f: full mono into an indiscrete target
    s = factor_internal(bang_functor(two), iso_all_ofs()).left  # iso on objects
    f = id_functor(i2)
    b, x = s.cod, f.dom
    fillers = enumerate_functors(b, x)
    rng = random.Random(23)
    count = 0
    for u0 in fillers:
        for u1 in fillers:
            for gamma in enumerate_cells(u0, u1):
                alpha_bar = whisker_right(gamma, s)
                beta_bar = whisker_left(f, gamma)
                got = lift_two_cell(s, f, alpha_bar, beta_bar, u0, u1,
                                    iso_all_ofs())
                assert got == gamma
                from itertools import product as table_space
                candidates = [
                    InternalNatTrans(u0, u1, FinMap(b.C0, x.C1, t))
                    for t in table_space(range(x.C1.size), repeat=b.C0.size)]
                winners = [c for c in candidates
                           if validate_nat_trans(c).ok
                           and compose(f.f1, c.alpha).table == beta_bar.alpha.table
                           and compose(c.alpha, s.f0).table == alpha_bar.alpha.table]
                assert winners == [gamma]
                count += 1
                if count >= 6:
                    return
    assert count > 0


def test_is_acute_examples():
    two = free_arrow()
    cop = coproduct_cat(two, two)
    codiag = cop.copair(id_functor(two), id_functor(two))
    assert is_acute(codiag)
    one = terminal_cat()
    inc = InternalFunctor(one, two, FinMap(one.C0, two.C0, (0,)),
                          FinMap(one.C1, two.C1, (0,)))
    assert not is_acute(inc)


def test_is_acute_agrees_with_direct_orthogonality(corpus, functor_corpus):
    monos = [r for r in functor_corpus
             if is_full_mono(r) and r.dom.C0.size <= 5 and r.dom.C1.size <= 5
             and r.cod.C0.size <= 5 and r.cod.C1.size <= 5][:6]
    probes = [f for f in functor_corpus
              if f.dom.C0.size <= 3 and f.dom.C1.size <= 4
              and f.cod.C0.size <= 3 and f.cod.C1.size <= 4][:8]
    assert monos and probes
    for f in probes:
        direct = all(left_orthogonal_to(f, r) for r in monos)
        if is_acute(f):
            assert direct
        else:
            # acuteness failures must be witnessed by some full mono, provided
            # the sample contains one of matching shape; test the converse on
            # a tailored witness: the inclusion of the image objects
            l, r0 = finset.factor_epi_mono(f.f0)
            if r0.dom.size != f.cod.C0.size:
                _sub, inc = full_subcategory_inclusion(
                    f.cod, sorted(set(f.f0.table)))
                assert not left_orthogonal_to(f, inc)


def test_pullback_stability_of_left_class(functor_corpus):
    from fincat.limits import pullback_cat
    lefts = [s for s in functor_corpus if is_epi_on_objects(s)][:5]
    others = [g for g in functor_corpus][:10]
    checked = 0
    for s in lefts:
        for g in others:
            if g.cod != s.cod or g is s:
                continue
            pb = pullback_cat(s, g)
            assert is_epi_on_objects(pb.proj1)
            checked += 1
    assert checked > 0


def test_certificates_survive_optimised_python():
    # the self-checks of the factorisation, both lifts, both corpora and the
    # NNO refutation raise CertificateFailure with code that -O keeps
    script = """
import types
import fincat.audit as audit
import fincat.corpus as corpus
import fincat.factorisation as fac
from fincat.errors import CertificateFailure
from fincat.internal import ValidationReport, Violation, id_functor, id_nat_trans
from fincat.limits import free_arrow
bad = ValidationReport((Violation("planted", 0, "planted failure"),))
e = id_functor(free_arrow())
cell = id_nat_trans(e)
ofs = fac.epi_mono_ofs()
cases = [
    (fac, "validate_category", lambda: fac.factor_internal(e, ofs)),
    (fac, "validate_functor", lambda: fac.factor_internal(e, ofs)),
    (fac, "validate_functor", lambda: fac.lift_square(e, e, e, e, ofs)),
    (fac, "validate_nat_trans",
     lambda: fac.lift_two_cell(e, e, cell, cell, e, e, ofs)),
    (corpus, "validate_category",
     lambda: corpus.generate_corpus(corpus.CorpusSpec(count=3))),
    (corpus, "validate_functor",
     lambda: corpus.generate_functor_corpus([free_arrow()])),
]
for module, name, run in cases:
    real = getattr(module, name)
    setattr(module, name, lambda *_args: bad)
    try:
        run()
    except CertificateFailure:
        pass
    else:
        raise SystemExit(module.__name__ + "." + name + " failure was not raised")
    setattr(module, name, real)
audit.recursor_search = lambda *_args: types.SimpleNamespace(outcome="unique")
try:
    audit.refute_finite_nno(1)
except CertificateFailure:
    pass
else:
    raise SystemExit("refute_finite_nno failure was not raised")
"""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stdout + run.stderr

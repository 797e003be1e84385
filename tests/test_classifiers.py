"""Full subobject classifiers, strict bi-sieves, boolean/two-valued
diagnostics, sections and the categorified choice audit."""

import os
import subprocess
import sys
from itertools import product as iproduct

import pytest

from fincat import finset
from fincat.classifiers import (categorified_choice_audit, classify_full_mono,
                                classify_strict_bi_sieve,
                                classifying_square_is_pullback,
                                endpoint_functors, full_subobject_classifier,
                                is_boolean, is_strict_bi_sieve, is_two_valued,
                                section_of_ff_epi, strict_bi_sieve_classifier)
from fincat.errors import CertificateFailure, NotBiSieve, NotFFEpi, NotFullMono
from fincat.finset import FinMap, FinObj, compose
from fincat.internal import (InternalFunctor, compose_functors, id_functor,
                             id_nat_trans, is_full_mono, is_fully_faithful,
                             validate_nat_trans, whisker_left, whisker_right)
from fincat.limits import (coproduct_cat, enumerate_cells, enumerate_functors,
                           free_arrow, terminal_cat)
from fincat.transfer import disc, functor_to_indisc, indisc, indisc_map


def test_classifier_shape():
    fsc = full_subobject_classifier()
    assert (fsc.omega.C0.size, fsc.omega.C1.size) == (2, 4)
    assert is_full_mono(fsc.top)


def test_classifier_is_free_living_isomorphism():
    fsc = full_subobject_classifier()
    # two objects, four arrows, every hom a singleton, all arrows invertible
    for x in range(2):
        for y in range(2):
            assert len(fsc.omega.homs.get((x, y), ())) == 1
    for u in range(4):
        src, tgt = fsc.omega.d1.table[u], fsc.omega.d0.table[u]
        inverse = fsc.omega.homs.get((tgt, src), ())[0]
        assert fsc.omega.comp(inverse, u) == fsc.omega.i.table[src]
        assert fsc.omega.comp(u, inverse) == fsc.omega.i.table[tgt]


def test_classify_identity_constant_true():
    two = free_arrow()
    chi = classify_full_mono(id_functor(two))
    assert chi.f0.table == (1, 1)


def test_classify_endpoint_of_indisc():
    i2 = indisc(FinObj(2))
    one = terminal_cat()
    inc = functor_to_indisc(one, FinMap(one.C0, FinObj(2), (0,)))
    assert is_full_mono(inc)
    chi = classify_full_mono(inc)
    assert chi.f0.table == (1, 0)
    fsc = full_subobject_classifier()
    assert classifying_square_is_pullback(inc, chi, fsc)


def test_truth_value_image_is_built_once(monkeypatch):
    import fincat.classifiers as classifiers
    built = []
    monkeypatch.setattr(classifiers, "full_image",
                        lambda *args: built.append(args))
    omega = full_subobject_classifier().omega
    left, right = endpoint_functors()
    for f in (left, right, left, right):
        chi = classify_full_mono(f)
        assert chi.cod is omega and chi.cod.C0.labels == ("false", "true")
        assert chi == functor_to_indisc(f.cod, finset.characteristic_map(f.f0))
    assert built == []


def test_classify_rejects_non_full_mono():
    from fincat.limits import bang_functor
    two = free_arrow()
    # the collapse to the terminal category is epi on objects, not mono
    with pytest.raises(NotFullMono):
        classify_full_mono(bang_functor(two))
    # a mono on objects that is not fully faithful is also rejected
    one = terminal_cat()
    inc = InternalFunctor(one, two, FinMap(one.C0, two.C0, (0,)),
                          FinMap(one.C1, two.C1, (0,)))
    assert is_full_mono(inc)  # endpoint inclusions are genuine full monos
    chi = classify_full_mono(inc)
    assert chi.f0.table == (1, 0)


def test_classifying_square_pullback_and_uniqueness(functor_corpus):
    fsc = full_subobject_classifier()
    checked = 0
    for f in functor_corpus:
        if not is_full_mono(f):
            continue
        b = f.cod
        if b.C0.size > 4 or b.C1.size > 8:
            continue
        chi = classify_full_mono(f)
        assert classifying_square_is_pullback(f, chi, fsc)
        # exhaustive uniqueness: candidates are determined by object tables
        winners = []
        for table in iproduct(range(2), repeat=b.C0.size):
            cand = functor_to_indisc(b, FinMap(b.C0, FinObj(2), table))
            if classifying_square_is_pullback(f, cand, fsc):
                winners.append(cand.f0.table)
        assert winners == [chi.f0.table]
        checked += 1
    assert checked >= 3


def test_classifying_square_decomposes_through_ff_pullback(functor_corpus):
    # the arrows-level classifying square is the paste of the
    # fully-faithfulness square with the product of two object-level squares
    checked = 0
    for f in functor_corpus:
        if not is_full_mono(f) or f.cod.C0.size > 4:
            continue
        a, b = f.dom, f.cod
        chi = classify_full_mono(f)
        # left square: ff pullback
        prod_a = finset.product(a.C0, a.C0)
        endpoints_a = prod_a.mediate(a.d0, a.d1)
        prod_b = finset.product(b.C0, b.C0)
        endpoints_b = prod_b.mediate(b.d0, b.d1)
        f0xf0 = prod_b.mediate(compose(f.f0, prod_a.projections[0]),
                               compose(f.f0, prod_a.projections[1]))
        assert finset.is_pullback_square(f.f1, endpoints_a, endpoints_b, f0xf0)
        # right square: pairing of the object-level classifying squares
        omega2 = finset.product(FinObj(2), FinObj(2))
        chi_x_chi = omega2.mediate(compose(chi.f0, prod_b.projections[0]),
                                   compose(chi.f0, prod_b.projections[1]))
        top_pair = FinMap(finset.terminal(), omega2.apex, (omega2.encode((1, 1)),))
        bang_pair = finset.bang(prod_a.apex)
        assert finset.is_pullback_square(f0xf0, bang_pair, chi_x_chi, top_pair)
        checked += 1
    assert checked >= 3


def test_unique_cell_between_functors_into_indisc(corpus):
    i3 = indisc(FinObj(3))
    for a in corpus[:6]:
        if a.C0.size == 0 or a.C1.size > 6:
            continue
        fs = enumerate_functors(a, i3)
        for f in fs[:4]:
            for g in fs[:4]:
                assert len(enumerate_cells(f, g)) == 1


def test_strict_bi_sieve_identity():
    two = free_arrow()
    assert is_strict_bi_sieve(id_functor(two))
    chi = classify_strict_bi_sieve(id_functor(two))
    assert chi.f0.table == (1, 1)
    assert classifying_square_is_pullback(id_functor(two), chi,
                                          strict_bi_sieve_classifier())


def test_strict_bi_sieve_component_inclusion():
    two = free_arrow()
    extra = disc(finset.terminal())
    cop = coproduct_cat(two, extra)
    inc = cop.inj0
    assert is_strict_bi_sieve(inc)
    chi = classify_strict_bi_sieve(inc)
    assert classifying_square_is_pullback(inc, chi, strict_bi_sieve_classifier())
    # distinguishes the two components
    assert chi.f0.table == (1, 1, 0)


def test_components_coequalized_once_per_category(monkeypatch):
    targets = []  # the target map of each coequalized pair
    coequalizer = finset.coequalizer
    monkeypatch.setattr(finset, "coequalizer",
                        lambda f, g: targets.append(f) or coequalizer(f, g))
    part = indisc(FinObj(2))
    cop = coproduct_cat(part, disc(finset.terminal()))
    for _ in range(2):
        chi = classify_strict_bi_sieve(cop.inj0)
        assert chi.f0.table == (1, 1, 0)
        assert sorted(map(id, targets)) == sorted([id(part.d0), id(cop.category.d0)])


def test_endpoint_inclusion_is_not_bi_sieve():
    two = free_arrow()
    one = terminal_cat()
    inc = InternalFunctor(one, two, FinMap(one.C0, two.C0, (0,)),
                          FinMap(one.C1, two.C1, (0,)))
    assert is_full_mono(inc)
    assert not is_strict_bi_sieve(inc)
    with pytest.raises(NotBiSieve):
        classify_strict_bi_sieve(inc)


def test_strict_bi_sieves_classified_uniquely(functor_corpus):
    # as criterion 4 for full monos: chi's square is a pullback, and no other
    # functor into disc(truth values) gives one
    classifier = strict_bi_sieve_classifier()
    sieves = [f for f in functor_corpus if is_strict_bi_sieve(f)]
    assert len(sieves) == 40
    for f in sieves:
        chi = classify_strict_bi_sieve(f)
        assert classifying_square_is_pullback(f, chi, classifier)
        winners = [g for g in enumerate_functors(f.cod, classifier.omega)
                   if classifying_square_is_pullback(f, g, classifier)]
        assert winners == [chi]


def test_wrong_component_map_fails_the_certificate(monkeypatch):
    import fincat.classifiers as classifiers
    inc = coproduct_cat(free_arrow(), disc(finset.terminal())).inj0
    # pi0(inc) sends the free arrow's one component to the extra component
    monkeypatch.setattr(classifiers, "pi0_map",
                        lambda f: FinMap(FinObj(1), FinObj(2), (1,)))
    with pytest.raises(CertificateFailure):
        classify_strict_bi_sieve(inc)


def test_boolean_and_two_valued():
    assert is_boolean()
    verdict, report = is_two_valued()
    assert verdict
    assert report["objects"] == 2
    assert report["arrows"] == 4
    assert report["all_invertible"]
    assert report["free_living_isomorphism"]


def test_boolean_endpoint_functors_are_full_monos():
    left, right = endpoint_functors()
    assert is_full_mono(left) and is_full_mono(right)
    chi_l, chi_r = classify_full_mono(left), classify_full_mono(right)
    assert sorted(chi_l.f0.table) == [0, 1]
    assert sorted(chi_r.f0.table) == [0, 1]
    assert chi_l.f0.table != chi_r.f0.table


def test_section_of_identity():
    two = free_arrow()
    cert = section_of_ff_epi(id_functor(two))
    assert cert.section == id_functor(two)
    assert cert.unit == id_nat_trans(id_functor(two))


def test_section_of_indisc_surjection():
    e = indisc_map(FinMap(FinObj(3), FinObj(2), (0, 1, 0)))
    cert = section_of_ff_epi(e)
    # the section is the indiscrete functor on the least-preimage section
    assert cert.section.f0.table == (0, 1)
    assert compose_functors(e, cert.section) == id_functor(e.cod)
    assert validate_nat_trans(cert.unit).ok


def test_counit_rejected_unless_discrete():
    from fincat.transfer import adjunction_disc_objects
    two = free_arrow()
    eps = adjunction_disc_objects().counit(two)
    assert not is_fully_faithful(eps)
    with pytest.raises(NotFFEpi):
        section_of_ff_epi(eps)
    d3 = disc(FinObj(3))
    eps_disc = adjunction_disc_objects().counit(d3)
    cert = section_of_ff_epi(eps_disc)
    assert cert.section == id_functor(d3)


def test_section_certificates_verify_triangles(functor_corpus):
    count = 0
    for e in functor_corpus:
        if not (is_fully_faithful(e) and finset.is_epi(e.f0)):
            continue
        cert = section_of_ff_epi(e)
        s, eta = cert.section, cert.unit
        assert compose_functors(e, s) == id_functor(e.cod)
        assert whisker_left(e, eta) == id_nat_trans(e)
        assert whisker_right(eta, s) == id_nat_trans(s)
        # invertibility re-check, independent of the constructor's assertion
        a = e.dom
        for x in range(a.C0.size):
            u = eta.alpha.table[x]
            src, tgt = a.d1.table[u], a.d0.table[u]
            assert any(a.comp(v, u) == a.i.table[src]
                       and a.comp(u, v) == a.i.table[tgt]
                       for v in a.homs.get((tgt, src), ()))
        count += 1
    assert count >= 5


def test_choice_audit_outcomes(functor_corpus):
    results = categorified_choice_audit(functor_corpus)
    assert len(results) == len(functor_corpus)
    assert all(r.outcome in ("certificate", "skipped") for r in results)
    assert any(r.outcome == "certificate" for r in results)
    assert categorified_choice_audit([]) == []
    two = free_arrow()
    planted = categorified_choice_audit([bang_functor_not_ff()])
    assert planted[0].outcome == "skipped"
    assert "faithful" in planted[0].reason


def test_section_certificate_survives_optimised_python():
    # each failed check of the certificate is a counterexample even under -O
    script = """
import fincat.classifiers as classifiers
from fincat.errors import CertificateFailure
from fincat.internal import ValidationReport, Violation, id_functor
from fincat.limits import free_arrow
bad = ValidationReport((Violation("planted", 0, "planted failure"),))
e = id_functor(free_arrow())
planted = {"validate_functor": lambda _value: bad,
           "validate_nat_trans": lambda _value: bad,
           "_invertible_cell": lambda _cell: False,
           "whisker_left": lambda _f, _cell: None,
           "whisker_right": lambda _cell, _f: None}
for name, fake in planted.items():
    real = getattr(classifiers, name)
    setattr(classifiers, name, fake)
    entry, = classifiers.categorified_choice_audit([e])
    if entry.outcome != "counterexample":
        raise SystemExit(name + " failure gave " + entry.outcome)
    try:
        classifiers.section_of_ff_epi(e)
    except CertificateFailure:
        pass
    else:
        raise SystemExit(name + " failure was not raised")
    setattr(classifiers, name, real)
"""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stdout + run.stderr


def bang_functor_not_ff():
    from fincat.limits import bang_functor
    return bang_functor(free_arrow())

"""Full subobject classifiers, strict bi-sieve classifiers, boolean and
two-valued diagnostics, and the categorified axiom of choice.

The classifier for full monomorphisms is the indiscrete category on the base
truth-value object, with the truth functor picking the true object. Strict
bi-sieves (mono on objects, both endpoint squares pullbacks) are classified
through connected components into the discrete category on the truth values;
that construction is only sketched upstream, so the classifying square is
re-verified per instance and the outcome is part of the certificate.
"""

from dataclasses import dataclass

from . import finset
from .errors import CertificateFailure, NotBiSieve, NotFFEpi, NotFullMono
from .finset import FinMap, compose, identity
from .internal import (InternalCategory, InternalFunctor, InternalNatTrans,
                       compose_functors, fiber_arrow, id_functor, id_nat_trans,
                       is_epi_on_objects, is_full_mono, is_fully_faithful,
                       lift_arrows, validate_functor, validate_nat_trans,
                       whisker_left, whisker_right)
from .limits import free_arrow, hom_category, terminal_cat
from .transfer import (disc, functor_from_disc, functor_to_disc,
                       functor_to_indisc, indisc, pi0_map, pi0_quotient)


@dataclass(frozen=True)
class FullSubobjectClassifier:
    omega: InternalCategory   # indisc on the base truth values
    top: InternalFunctor      # terminal -> omega, picking true


def full_subobject_classifier() -> FullSubobjectClassifier:
    omega_base, top_base = finset.subobject_classifier()
    omega = indisc(omega_base)
    top = functor_from_disc(finset.terminal(), omega, top_base)
    return FullSubobjectClassifier(omega, top)


def classify_full_mono(f: InternalFunctor) -> InternalFunctor:
    """The unique functor into indisc(truth values) whose classifying square
    is a levelwise pullback; objects part is the base characteristic map."""
    if not is_full_mono(f):
        raise NotFullMono("classify_full_mono needs a fully faithful mono")
    chi0 = finset.characteristic_map(f.f0)
    return functor_to_indisc(f.cod, chi0)


def classifying_square_is_pullback(f: InternalFunctor, chi: InternalFunctor,
                                   fsc: FullSubobjectClassifier) -> bool:
    """Levelwise pullback check of the square (f, !) over (chi, top)."""
    return _square_is_pullback(f, chi, fsc.top)


def _square_is_pullback(f: InternalFunctor, chi: InternalFunctor,
                        top: InternalFunctor) -> bool:
    """Levelwise pullback check of the square (f, !) over (chi, top), for top
    out of the terminal category."""
    a = f.dom
    bang1 = FinMap(a.C1, top.dom.C1, (0,) * a.C1.size)
    return (finset.is_pullback_square(f.f0, finset.bang(a.C0), chi.f0, top.f0)
            and finset.is_pullback_square(f.f1, bang1, chi.f1, top.f1))


def is_strict_bi_sieve(f: InternalFunctor) -> bool:
    """Mono on objects with both endpoint squares pullbacks."""
    if not finset.is_mono(f.f0):
        return False
    a, b = f.dom, f.cod
    return (finset.is_pullback_square(f.f1, a.d0, b.d0, f.f0)
            and finset.is_pullback_square(f.f1, a.d1, b.d1, f.f0))


@dataclass(frozen=True)
class BiSieveCertificate:
    chi: InternalFunctor
    pi0_mono: bool            # tested, not assumed
    square_is_pullback: bool  # levelwise verification outcome


def classify_strict_bi_sieve(f: InternalFunctor) -> BiSieveCertificate:
    """Classifier into disc(truth values) through connected components."""
    if not is_strict_bi_sieve(f):
        raise NotBiSieve("classify_strict_bi_sieve needs a strict bi-sieve")
    p = pi0_map(f)
    pi0_mono = finset.is_mono(p)
    omega_base, top_base = finset.subobject_classifier()
    if pi0_mono:
        chi_pi0 = finset.characteristic_map(p)
    else:
        # fall back to classifying the image; recorded via pi0_mono = False
        _, image = finset.factor_epi_mono(p)
        chi_pi0 = finset.characteristic_map(image)
    chi0 = compose(chi_pi0, pi0_quotient(f.cod))
    chi = functor_to_disc(f.cod, chi0)
    top = InternalFunctor(disc(finset.terminal()), disc(omega_base), top_base, top_base)
    return BiSieveCertificate(chi, pi0_mono, _square_is_pullback(f, chi, top))


def endpoint_functors():
    """The two full monos terminal -> free arrow picking the endpoints."""
    two = free_arrow()
    one = terminal_cat()
    left = InternalFunctor(one, two, FinMap(one.C0, two.C0, (0,)),
                           FinMap(one.C1, two.C1, (0,)))
    right = InternalFunctor(one, two, FinMap(one.C0, two.C0, (1,)),
                            FinMap(one.C1, two.C1, (1,)))
    return left, right


def is_boolean() -> bool:
    """Classify the endpoint inclusions of the free arrow and test that the
    induced functors to the classifier are isomorphisms on objects."""
    left, right = endpoint_functors()
    chi_left = classify_full_mono(left)
    chi_right = classify_full_mono(right)
    return (finset.is_iso(chi_left.f0) and finset.is_iso(chi_right.f0))


def is_two_valued():
    """Count functors terminal -> classifier; report the hom-category shape.

    Returns (verdict, report) where the report carries the counts and whether
    the hom-category is the free-living isomorphism.
    """
    fsc = full_subobject_classifier()
    hc = hom_category(terminal_cat(), fsc.omega)
    n_obj = len(hc.objects)
    n_arr = len(hc.arrows)
    invertible = all(
        any(hc.comp.get((j, i)) == hc.identity[s] and hc.comp.get((i, j)) == hc.identity[t]
            for j, (s2, t2, _c2) in enumerate(hc.arrows) if (s2, t2) == (t, s))
        for i, (s, t, _c) in enumerate(hc.arrows))
    report = {"objects": n_obj, "arrows": n_arr, "all_invertible": invertible,
              "free_living_isomorphism": n_obj == 2 and n_arr == 4 and invertible}
    return n_obj == 2, report


@dataclass(frozen=True)
class SectionCertificate:
    """A section s of a fully faithful epi-on-objects functor e, with the
    invertible unit of the induced adjoint equivalence; every invariant is
    verified before the certificate is issued."""

    section: InternalFunctor
    unit: InternalNatTrans   # 1_A => s . e


def section_of_ff_epi(e: InternalFunctor) -> SectionCertificate:
    if not (is_fully_faithful(e) and is_epi_on_objects(e)):
        raise NotFFEpi("section construction needs a fully faithful epi-on-objects functor")
    a, b = e.dom, e.cod
    s0 = finset.choose_section(e.f0)
    s = InternalFunctor(b, a, s0, lift_arrows(e, b, s0, identity(b.C1)))
    validate_functor(s).certify("section")
    _certify(compose_functors(e, s) == id_functor(b), "e . s is not the identity")
    eta_table = tuple(
        fiber_arrow(e, b.i.table[e.f0.table[x]], x, s0.table[e.f0.table[x]])
        for x in range(a.C0.size))
    eta = InternalNatTrans(id_functor(a), compose_functors(s, e),
                           FinMap(a.C0, a.C1, eta_table))
    validate_nat_trans(eta).certify("unit")
    _certify(_invertible_cell(eta), "unit is not invertible")
    # triangle identities for the adjunction e -| s with identity counit
    _certify(whisker_left(e, eta) == id_nat_trans(e), "triangle on e fails")
    _certify(whisker_right(eta, s) == id_nat_trans(s), "triangle on s fails")
    return SectionCertificate(s, eta)


def _certify(holds: bool, failure: str):
    if not holds:
        raise CertificateFailure(failure)


def _invertible_cell(t: InternalNatTrans) -> bool:
    """Each component has a two-sided inverse arrow."""
    b = t.src.cod
    for u in t.alpha.table:
        src, tgt = b.d1.table[u], b.d0.table[u]
        if not any(b.comp(v, u) == b.i.table[src] and b.comp(u, v) == b.i.table[tgt]
                   for v in b.homs.get((tgt, src), ())):
            return False
    return True


@dataclass(frozen=True)
class ChoiceAuditEntry:
    outcome: str               # "certificate", "counterexample", "skipped"
    reason: str = ""
    certificate: SectionCertificate = None


def categorified_choice_audit(functors) -> list:
    """For every acute fully faithful functor, a section certificate; functors
    outside the precondition are skipped with a reason."""
    out = []
    for e in functors:
        if not is_fully_faithful(e):
            out.append(ChoiceAuditEntry("skipped", "not fully faithful"))
            continue
        if not is_epi_on_objects(e):
            out.append(ChoiceAuditEntry("skipped", "not epi-on-objects"))
            continue
        try:
            cert = section_of_ff_epi(e)
            out.append(ChoiceAuditEntry("certificate", certificate=cert))
        except CertificateFailure as exc:  # a real refutation
            out.append(ChoiceAuditEntry("counterexample", str(exc)))
    return out

"""Full subobject classifiers, strict bi-sieve classifiers, boolean and
two-valued diagnostics, and the categorified axiom of choice.

Both classifiers are a `Classifier`: a category on the base truth values with
`top` picking true, and a map classifies when its square against `top` is a
levelwise pullback. Full monomorphisms are classified into the indiscrete
category on the truth values. Strict bi-sieves (mono on objects, both
endpoint squares pullbacks) are classified through connected components into
the discrete one; that construction is only sketched upstream, so its square
is re-verified per instance, and a failed square raises CertificateFailure.
"""

from dataclasses import dataclass

from . import finset
from .errors import CertificateFailure, NotBiSieve, NotFFEpi, NotFullMono
from .finset import FinMap, compose, identity
from .internal import (InternalCategory, InternalFunctor, InternalNatTrans,
                       compose_functors, fiber_arrow, full_image, id_functor,
                       id_nat_trans, is_epi_on_objects, is_full_mono,
                       is_fully_faithful, lift_arrows, validate_functor,
                       validate_nat_trans, whisker_left, whisker_right)
from .limits import constant_functor, free_arrow, hom_category, terminal_cat
from .transfer import (disc, functor_from_disc, functor_to_disc, pi0_map,
                       pi0_quotient)


@dataclass(frozen=True)
class Classifier:
    omega: InternalCategory   # a category on the base truth values
    top: InternalFunctor      # terminal -> omega, picking true


# indisc(truth values), built once as their full image in the terminal category
_OMEGA = full_image(finset.bang(finset.subobject_classifier()[0]), terminal_cat())


def _classifier(omega: InternalCategory) -> Classifier:
    return Classifier(omega, functor_from_disc(
        finset.terminal(), omega, finset.subobject_classifier()[1]))


def full_subobject_classifier() -> Classifier:
    """indisc(truth values), classifying full monos."""
    return _classifier(_OMEGA.dom)


def strict_bi_sieve_classifier() -> Classifier:
    """disc(truth values), classifying strict bi-sieves."""
    return _classifier(disc(finset.subobject_classifier()[0]))


def classify_full_mono(f: InternalFunctor) -> InternalFunctor:
    """The unique functor into indisc(truth values) whose classifying square
    is a levelwise pullback; objects part is the base characteristic map."""
    if not is_full_mono(f):
        raise NotFullMono("classify_full_mono needs a fully faithful mono")
    a, chi0 = f.cod, finset.characteristic_map(f.f0)
    return InternalFunctor(a, _OMEGA.dom, chi0,
                           lift_arrows(_OMEGA, a, chi0, finset.bang(a.C1)))


def classifying_square_is_pullback(f: InternalFunctor, chi: InternalFunctor,
                                   classifier: Classifier) -> bool:
    """Levelwise pullback check of the square (f, !) over (chi, top)."""
    a, top = f.dom, classifier.top
    return (finset.is_pullback_square(f.f0, finset.bang(a.C0), chi.f0, top.f0)
            and finset.is_pullback_square(f.f1, finset.bang(a.C1), chi.f1, top.f1))


def is_strict_bi_sieve(f: InternalFunctor) -> bool:
    """Mono on objects with both endpoint squares pullbacks."""
    if not finset.is_mono(f.f0):
        return False
    a, b = f.dom, f.cod
    return (finset.is_pullback_square(f.f1, a.d0, b.d0, f.f0)
            and finset.is_pullback_square(f.f1, a.d1, b.d1, f.f0))


def classify_strict_bi_sieve(f: InternalFunctor) -> InternalFunctor:
    """The functor into disc(truth values) classifying f, through connected
    components; CertificateFailure if its square is not a pullback.

    The image of a strict bi-sieve is a union of components: every arrow of
    the codomain that touches it lifts, with both ends in the image. So
    pi0(f) is mono, and its characteristic map classifies f's components."""
    if not is_strict_bi_sieve(f):
        raise NotBiSieve("classify_strict_bi_sieve needs a strict bi-sieve")
    chi0 = compose(finset.characteristic_map(pi0_map(f)), pi0_quotient(f.cod))
    chi = functor_to_disc(f.cod, chi0)
    _certify(classifying_square_is_pullback(f, chi, strict_bi_sieve_classifier()),
             "classifying square is not a pullback")
    return chi


def endpoint_functors():
    """The two full monos terminal -> free arrow picking the endpoints."""
    two = free_arrow()
    one = terminal_cat()
    return constant_functor(one, two, 0), constant_functor(one, two, 1)


def is_boolean() -> bool:
    """Classify the endpoint inclusions of the free arrow and test that the
    induced functors to the classifier are isomorphisms on objects."""
    left, right = endpoint_functors()
    chi_left = classify_full_mono(left)
    chi_right = classify_full_mono(right)
    return (finset.is_iso(chi_left.f0) and finset.is_iso(chi_right.f0))


def is_two_valued():
    """Count functors terminal -> classifier; report the hom-category shape.

    Returns (holds, report) where the report carries the counts and whether
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

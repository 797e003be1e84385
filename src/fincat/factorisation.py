"""The lifted orthogonal factorisation system on internal categories.

A base-level (L, R) policy lifts to the pair

    (L-on-objects,  R-on-objects and fully faithful)

on internal functors: any functor factors through the full image of r0 for
the base factorisation f0 = r0 . l0 (`internal.full_image`), and the left
factor's arrows are lifted through that right factor (`internal.lift_arrows`).
Lifting against the right class fills squares uniquely, in both the
one-dimensional and two-dimensional senses. Instances ship for (epi, mono)
and (iso, all).
"""

from dataclasses import dataclass

from . import finset
from .errors import NonCommuting, NotInClass
from .finset import FinMap, compose, identity, inverse
from .internal import (InternalCategory, InternalFunctor, InternalNatTrans,
                       compose_functors, fiber_arrow, full_image,
                       is_epi_on_objects, is_fully_faithful, lift_arrows,
                       validate_category, validate_functor, validate_nat_trans)
from .limits import enumerate_functors


@dataclass(frozen=True)
class BaseOFS:
    """A base orthogonal factorisation system as an executable policy."""

    name: str
    in_left: callable
    in_right: callable
    factor: callable   # FinMap -> (l, r) with r . l = input
    lift: callable     # (s in L, f in R, p, q with f.p = q.s) -> unique diagonal


def _epi_mono_lift(s: FinMap, f: FinMap, p: FinMap, q: FinMap) -> FinMap:
    table = [None] * s.cod.size
    for x in range(s.dom.size):
        table[s.table[x]] = p.table[x]
    u = FinMap(s.cod, f.dom, tuple(table))
    if compose(f, u).table != q.table or compose(u, s).table != p.table:
        raise NonCommuting("no diagonal exists for this square")
    return u


def epi_mono_ofs() -> BaseOFS:
    return BaseOFS("epi-mono", finset.is_epi, finset.is_mono,
                   finset.factor_epi_mono, _epi_mono_lift)


def _iso_all_lift(s: FinMap, f: FinMap, p: FinMap, q: FinMap) -> FinMap:
    u = compose(p, inverse(s))
    if compose(f, u).table != q.table:
        raise NonCommuting("no diagonal exists for this square")
    return u


def iso_all_ofs() -> BaseOFS:
    return BaseOFS("iso-all", finset.is_iso, lambda f: True,
                   lambda f: (identity(f.dom), f), _iso_all_lift)


@dataclass(frozen=True)
class LiftedFactorisation:
    middle: InternalCategory
    left: InternalFunctor    # L-on-objects
    right: InternalFunctor   # R-on-objects and fully faithful


def factor_internal(f: InternalFunctor, ofs: BaseOFS) -> LiftedFactorisation:
    """Factor f through the middle category built over the base factorisation
    of f0: the full image of r0 in the codomain, with f's arrows lifted
    through it."""
    l0, r0 = ofs.factor(f.f0)
    right = full_image(r0, f.cod)
    middle = right.dom
    left = InternalFunctor(f.dom, middle, l0, lift_arrows(right, f.dom, l0, f.f1))
    validate_category(middle).certify("factorisation: middle category")
    validate_functor(left).certify("factorisation: left factor")
    validate_functor(right).certify("factorisation: right factor")
    return LiftedFactorisation(middle, left, right)


def in_lifted_left(s: InternalFunctor, ofs: BaseOFS) -> bool:
    return ofs.in_left(s.f0)


def in_lifted_right(f: InternalFunctor, ofs: BaseOFS) -> bool:
    return ofs.in_right(f.f0) and is_fully_faithful(f)


def _require_classes(s: InternalFunctor, f: InternalFunctor, ofs: BaseOFS):
    """NotInClass unless s is in L' and f in R'."""
    if not in_lifted_left(s, ofs):
        raise NotInClass(f"s is not {ofs.name}-left-on-objects")
    if not in_lifted_right(f, ofs):
        raise NotInClass(f"f is not in the lifted right class of {ofs.name}")


def lift_square(s: InternalFunctor, f: InternalFunctor, p: InternalFunctor,
                q: InternalFunctor, ofs: BaseOFS) -> InternalFunctor:
    """The unique u with f.u = q and u.s = p, for s in L' and f in R'."""
    _require_classes(s, f, ofs)
    if compose_functors(f, p) != compose_functors(q, s):
        raise NonCommuting("the square does not commute")
    u0 = ofs.lift(s.f0, f.f0, p.f0, q.f0)
    u = InternalFunctor(s.cod, f.dom, u0, lift_arrows(f, s.cod, u0, q.f1))
    validate_functor(u).certify("square lift")
    return u


def lift_two_cell(s: InternalFunctor, f: InternalFunctor,
                  alpha_bar: InternalNatTrans, beta_bar: InternalNatTrans,
                  u0_functor: InternalFunctor, u1_functor: InternalFunctor,
                  ofs: BaseOFS) -> InternalNatTrans:
    """The unique gamma: u0 => u1 with f.gamma = beta_bar and gamma.s = alpha_bar.

    alpha_bar: p0 => p1 and beta_bar: q0 => q1 must satisfy the compatibility
    f . alpha_bar = beta_bar . s; u0_functor, u1_functor are the 1-dimensional
    lifts of the two squares.
    """
    _require_classes(s, f, ofs)
    if compose(f.f1, alpha_bar.alpha).table != compose(beta_bar.alpha, s.f0).table:
        raise NonCommuting("the 2-cells are not compatible over the square")
    b = s.cod
    table = [fiber_arrow(f, beta_bar.alpha.table[obj],
                         u0_functor.f0.table[obj],
                         u1_functor.f0.table[obj])
             for obj in range(b.C0.size)]
    gamma = InternalNatTrans(u0_functor, u1_functor,
                             FinMap(b.C0, f.dom.C1, tuple(table)))
    validate_nat_trans(gamma).certify("2-cell lift")
    return gamma


def is_acute(f: InternalFunctor) -> bool:
    """Left orthogonal to every full monomorphism; over the (epi, mono) base
    system this is exactly being an epimorphism on objects."""
    return is_epi_on_objects(f)


def left_orthogonal_to(f: InternalFunctor, r: InternalFunctor) -> bool:
    """Direct orthogonality test: every commuting square from f to r has
    exactly one diagonal filler, checked by exhaustive enumeration."""
    ps = enumerate_functors(f.dom, r.dom)
    qs = enumerate_functors(f.cod, r.cod)
    fillers = enumerate_functors(f.cod, r.dom)
    for p in ps:
        rp = compose_functors(r, p)
        for q in qs:
            if compose_functors(q, f) != rp:
                continue
            count = sum(1 for u in fillers
                        if compose_functors(u, f) == p
                        and compose_functors(r, u) == q)
            if count != 1:
                return False
    return True

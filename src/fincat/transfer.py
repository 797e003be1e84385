"""Functors and adjunctions between the base and the 2-category of internal
categories: disc, indisc (the full image of X in the terminal category),
objects/arrows parts, connected components, and executable adjunction
witnesses. The truncated nerve is `InternalCategory.nerve`.

Each adjunction ships as a witness object with callable transposes and
unit/counit constructors, because later modules use the adjunctions as
computational devices.
"""

from dataclasses import dataclass

from . import finset
from .errors import NotInHomSet
from .finset import FinMap, FinObj, compose, identity
from .internal import (InternalCategory, InternalFunctor, InternalNatTrans,
                       full_image, lift_arrows)


def disc(x: FinObj) -> InternalCategory:
    """The discrete internal category: C0 = C1 = X, all structure maps identity."""
    idx = identity(x)
    return InternalCategory.with_composition(
        x, x, idx, idx, idx, lambda pairs: pairs.projections[0])


_ONE = disc(finset.terminal())  # the terminal category, built once


def indisc(x: FinObj) -> InternalCategory:
    """The indiscrete internal category: the full image of X in the terminal
    category, whose arrows are the pairs (target, source), numbered
    target·|X| + source."""
    return full_image(finset.bang(x), _ONE).dom


def objects_part(c: InternalCategory) -> FinObj:
    return c.C0


def arrows_part(c: InternalCategory) -> FinObj:
    return c.C1


def pi0(c: InternalCategory) -> FinObj:
    """Connected components: the coequalizer of target and source."""
    return pi0_quotient(c).cod


def pi0_quotient(c: InternalCategory) -> FinMap:
    """The coequalizing map C0 -> pi0(C)."""
    _, q = finset.coequalizer(c.d0, c.d1)
    return q


def pi0_map(f: InternalFunctor) -> FinMap:
    """The induced map on connected components."""
    qa = pi0_quotient(f.dom)
    qb = pi0_quotient(f.cod)
    return finset.coeq_factor(qa, compose(qb, f.f0))


def disc_map(t: FinMap) -> InternalFunctor:
    """disc applied to a base map."""
    return functor_to_disc(disc(t.dom), t)


def indisc_map(t: FinMap) -> InternalFunctor:
    """indisc applied to a base map."""
    return functor_to_indisc(indisc(t.dom), t)


def functor_to_disc(a: InternalCategory, t: FinMap) -> InternalFunctor:
    """The functor A -> disc(Y) determined by a map t: A0 -> Y."""
    return InternalFunctor(a, disc(t.cod), t, compose(t, a.d0))


def functor_to_indisc(a: InternalCategory, t: FinMap) -> InternalFunctor:
    """The functor A -> indisc(Y) determined by a map t: A0 -> Y: each arrow
    goes to the one arrow between the images of its ends."""
    ff = full_image(finset.bang(t.cod), _ONE)
    return InternalFunctor(a, ff.dom, t,
                           lift_arrows(ff, a, t, finset.bang(a.C1)))


def functor_from_disc(x: FinObj, a: InternalCategory, t: FinMap) -> InternalFunctor:
    """The functor disc(X) -> A determined by a map t: X -> A0."""
    return InternalFunctor(disc(x), a, t, compose(a.i, t))


@dataclass(frozen=True)
class AdjunctionWitness:
    """Executable adjunction data between the base and internal categories.

    transpose_forward / transpose_backward are mutually inverse bijections of
    hom-sets; unit and counit build components. `left_name . right_name` names
    the pair for reports.
    """

    left_name: str
    right_name: str
    transpose_forward: callable    # hom(L X, A) -> hom(X, R A)
    transpose_backward: callable   # hom(X, R A) -> hom(L X, A)
    unit: callable                 # X -> component at X
    counit: callable               # A -> component at A

    def __repr__(self):
        return f"AdjunctionWitness({self.left_name} -| {self.right_name})"


def adjunction_disc_objects() -> AdjunctionWitness:
    """disc -| (-)0: internal functors disc(X) -> A biject with maps X -> A0."""

    def forward(h: InternalFunctor) -> FinMap:
        return h.f0

    def backward(x: FinObj, a: InternalCategory, t: FinMap) -> InternalFunctor:
        if t.dom != x or t.cod != a.C0:
            raise NotInHomSet("expected a map X -> A0")
        return functor_from_disc(x, a, t)

    def unit(x: FinObj) -> FinMap:
        return identity(x)

    def counit(a: InternalCategory) -> InternalFunctor:
        return InternalFunctor(disc(a.C0), a, identity(a.C0), a.i)

    return AdjunctionWitness("disc", "objects", forward, backward, unit, counit)


def adjunction_objects_indisc() -> AdjunctionWitness:
    """(-)0 -| indisc: maps A0 -> Y biject with internal functors A -> indisc(Y)."""

    def forward(a: InternalCategory, y: FinObj, t: FinMap) -> InternalFunctor:
        if t.dom != a.C0 or t.cod != y:
            raise NotInHomSet("expected a map A0 -> Y")
        return functor_to_indisc(a, t)

    def backward(h: InternalFunctor) -> FinMap:
        return h.f0

    def unit(a: InternalCategory) -> InternalFunctor:
        return functor_to_indisc(a, identity(a.C0))

    def counit(y: FinObj) -> FinMap:
        return identity(y)

    return AdjunctionWitness("objects", "indisc", forward, backward, unit, counit)


def adjunction_pi0_disc() -> AdjunctionWitness:
    """pi0 -| disc: maps pi0(A) -> B biject with internal functors A -> disc(B)."""

    def forward(a: InternalCategory, b: FinObj, t: FinMap) -> InternalFunctor:
        if t.dom != pi0(a) or t.cod != b:
            raise NotInHomSet("expected a map pi0(A) -> B")
        return functor_to_disc(a, compose(t, pi0_quotient(a)))

    def backward(h: InternalFunctor) -> FinMap:
        return finset.coeq_factor(pi0_quotient(h.dom), h.f0)

    def unit(a: InternalCategory) -> InternalFunctor:
        q = pi0_quotient(a)
        return functor_to_disc(a, q)

    def counit(x: FinObj) -> FinMap:
        # the coequalizer of (id, id) is numbered identically, so this is id
        return finset.coeq_factor(pi0_quotient(disc(x)), identity(x))

    return AdjunctionWitness("pi0", "disc", forward, backward, unit, counit)


def discrete_nat_trans_bijection(x: FinObj, a: InternalCategory):
    """The bijection between maps X -> A1 and 2-cells between functors disc(X) -> A.

    Returns (to_cell, to_map), mutually inverse.
    """

    def to_cell(t: FinMap) -> InternalNatTrans:
        if t.dom != x or t.cod != a.C1:
            raise NotInHomSet("expected a map X -> A1")
        src = functor_from_disc(x, a, compose(a.d1, t))
        tgt = functor_from_disc(x, a, compose(a.d0, t))
        return InternalNatTrans(src, tgt, t)

    def to_map(cell: InternalNatTrans) -> FinMap:
        return cell.alpha

    return to_cell, to_map

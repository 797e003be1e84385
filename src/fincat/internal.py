"""Internal categories, functors and natural transformations over finite sets.

Orientation convention, fixed globally:
  * d1 = source, d0 = target;
  * a composable pair (u, v) satisfies d1(u) = d0(v), and m(u, v) = u . v
    (v is applied first);
  * a 2-cell alpha: f => g has components alpha_x: f(x) -> g(x), so
    d1 . alpha = f0 and d0 . alpha = g0;
  * vertical composition pairs (beta_x, alpha_x).

The objects of composable pairs/triples are derived on demand from (d0, d1)
via the chosen pullbacks of the base; they are never independent state.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import combinations_with_replacement

from . import finset
from .errors import (CertificateFailure, DomainMismatch, FiberNotSingleton,
                     ShapeMismatch)
from .finset import FinMap, FinObj, compose, identity


@dataclass(frozen=True)
class Violation:
    axiom: str
    witness: object
    detail: str

    def __str__(self):
        return f"{self.axiom} at {self.witness}: {self.detail}"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple

    @property
    def ok(self):
        return not self.violations

    def __str__(self):
        if self.ok:
            return "valid"
        return "; ".join(str(v) for v in self.violations)

    def certify(self, what):
        """Raise CertificateFailure naming `what` unless the report is clean."""
        if not self.ok:
            raise CertificateFailure(f"{what} failed validation: {self}")


@dataclass(frozen=True)
class InternalCategory:
    """A category object: (C0, C1, d0, d1, i, m) with m indexed by the derived
    object of composable pairs (canonical lexicographic (u, v) order)."""

    C0: FinObj
    C1: FinObj
    d0: FinMap  # target assigner C1 -> C0
    d1: FinMap  # source assigner C1 -> C0
    i: FinMap   # identity assigner C0 -> C1
    m: FinMap   # composition C2 -> C1

    def __post_init__(self):
        if self.d0.dom != self.C1 or self.d0.cod != self.C0:
            raise ShapeMismatch("d0 must be C1 -> C0")
        if self.d1.dom != self.C1 or self.d1.cod != self.C0:
            raise ShapeMismatch("d1 must be C1 -> C0")
        if self.i.dom != self.C0 or self.i.cod != self.C1:
            raise ShapeMismatch("i must be C0 -> C1")
        if self.m.dom != self.pairs.apex or self.m.cod != self.C1:
            raise ShapeMismatch("m must be C2 -> C1 over the derived pairs")

    @cached_property
    def pairs(self):
        """Chosen pullback of composable pairs: (u, v) with d1(u) = d0(v)."""
        return finset.pullback(self.d1, self.d0)

    @cached_property
    def triples(self):
        """Chosen object of composable triples ((u, v), w) with d1(v) = d0(w)."""
        inner_src = compose(self.d1, self.pairs.projections[1])
        return finset.pullback(inner_src, self.d0)

    @cached_property
    def nerve(self):
        """Levels 0..3 of the nerve, with every action table built once."""
        return Nerve(self)

    def comp(self, u, v):
        """Composite u . v of arrows with d1(u) = d0(v)."""
        return self.m.table[self.pairs.encode((u, v))]

    @cached_property
    def homs(self):
        """Arrow indices keyed by (source, target), in arrow order; a pair
        with no arrow between them is absent."""
        out = {}
        for a, key in enumerate(zip(self.d1.table, self.d0.table)):
            out.setdefault(key, []).append(a)
        return {key: tuple(arrows) for key, arrows in out.items()}

    def hom(self, x, y):
        """Arrow indices from x to y."""
        return list(self.homs.get((x, y), ()))

    def __repr__(self):
        return f"InternalCategory(|C0|={self.C0.size}, |C1|={self.C1.size})"


def derived_unit_maps(c: InternalCategory):
    """i0 = <i.d0, 1> and i1 = <1, i.d1> into the object of composable pairs."""
    i0 = c.pairs.mediate(compose(c.i, c.d0), identity(c.C1))
    i1 = c.pairs.mediate(identity(c.C1), compose(c.i, c.d1))
    return i0, i1


def derived_assoc_maps(c: InternalCategory):
    """m0: ((u,v),w) -> (u.v, w) and m1: ((u,v),w) -> (u, v.w)."""
    tr = c.triples
    pr_pair, pr_w = tr.projections
    m0 = c.pairs.mediate(compose(c.m, pr_pair), pr_w)
    u_of = compose(c.pairs.projections[0], pr_pair)
    v_of = compose(c.pairs.projections[1], pr_pair)
    inner = c.pairs.mediate(v_of, pr_w)
    m1 = c.pairs.mediate(u_of, compose(c.m, inner))
    return m0, m1


def validate_category(c: InternalCategory) -> ValidationReport:
    """Checks every axiom, reporting all violations with concrete witnesses."""
    out = []
    for x in range(c.C0.size):
        if c.d0.table[c.i.table[x]] != x:
            out.append(Violation("identity-target", x, "d0(i(x)) != x"))
        if c.d1.table[c.i.table[x]] != x:
            out.append(Violation("identity-source", x, "d1(i(x)) != x"))
    pr0, pr1 = c.pairs.projections
    for k, (u, v) in enumerate(c.pairs.tuples):
        w = c.m.table[k]
        if c.d0.table[w] != c.d0.table[u]:
            out.append(Violation("composite-target", (u, v),
                                 "d0(u.v) != d0(u)"))
        if c.d1.table[w] != c.d1.table[v]:
            out.append(Violation("composite-source", (u, v),
                                 "d1(u.v) != d1(v)"))
    if out:
        # unit/associativity pairings need well-shaped endpoints first
        return ValidationReport(tuple(out))
    i0, i1 = derived_unit_maps(c)
    for a in range(c.C1.size):
        if c.m.table[i0.table[a]] != a:
            out.append(Violation("left-unit", a, "id . a != a"))
        if c.m.table[i1.table[a]] != a:
            out.append(Violation("right-unit", a, "a . id != a"))
    m0, m1 = derived_assoc_maps(c)
    for t in range(c.triples.apex.size):
        if c.m.table[m0.table[t]] != c.m.table[m1.table[t]]:
            pair, w = c.triples.decode(t)
            u, v = c.pairs.decode(pair)
            out.append(Violation("associativity", (u, v, w),
                                 "(u.v).w != u.(v.w)"))
    return ValidationReport(tuple(out))


@dataclass(frozen=True)
class InternalFunctor:
    dom: InternalCategory
    cod: InternalCategory
    f0: FinMap
    f1: FinMap

    def __post_init__(self):
        if self.f0.dom != self.dom.C0 or self.f0.cod != self.cod.C0:
            raise ShapeMismatch("f0 must be A0 -> B0")
        if self.f1.dom != self.dom.C1 or self.f1.cod != self.cod.C1:
            raise ShapeMismatch("f1 must be A1 -> B1")

    def __eq__(self, other):
        return (isinstance(other, InternalFunctor)
                and self.dom == other.dom and self.cod == other.cod
                and self.f0.table == other.f0.table
                and self.f1.table == other.f1.table)

    def __hash__(self):
        return hash((self.f0.table, self.f1.table))

    def __repr__(self):
        return f"InternalFunctor(f0={list(self.f0.table)}, f1={list(self.f1.table)})"


def validate_functor(f: InternalFunctor) -> ValidationReport:
    out = []
    a, b = f.dom, f.cod
    for u in range(a.C1.size):
        if b.d0.table[f.f1.table[u]] != f.f0.table[a.d0.table[u]]:
            out.append(Violation("functor-target", u, "d0(f1(u)) != f0(d0(u))"))
        if b.d1.table[f.f1.table[u]] != f.f0.table[a.d1.table[u]]:
            out.append(Violation("functor-source", u, "d1(f1(u)) != f0(d1(u))"))
    for x in range(a.C0.size):
        if f.f1.table[a.i.table[x]] != b.i.table[f.f0.table[x]]:
            out.append(Violation("functor-identity", x, "f1(i(x)) != i(f0(x))"))
    if out:
        return ValidationReport(tuple(out))
    for k, (u, v) in enumerate(a.pairs.tuples):
        lhs = f.f1.table[a.m.table[k]]
        rhs = b.comp(f.f1.table[u], f.f1.table[v])
        if lhs != rhs:
            out.append(Violation("functor-composition", (u, v),
                                 "f1(u.v) != f1(u).f1(v)"))
    return ValidationReport(tuple(out))


def id_functor(c: InternalCategory) -> InternalFunctor:
    return InternalFunctor(c, c, identity(c.C0), identity(c.C1))


def compose_functors(g: InternalFunctor, f: InternalFunctor) -> InternalFunctor:
    if f.cod != g.dom:
        raise DomainMismatch("functors not composable")
    return InternalFunctor(f.dom, g.cod, compose(g.f0, f.f0), compose(g.f1, f.f1))


@dataclass(frozen=True)
class InternalNatTrans:
    """A 2-cell src => tgt between parallel functors, given by its component
    assigner alpha: A0 -> B1."""

    src: InternalFunctor
    tgt: InternalFunctor
    alpha: FinMap

    def __post_init__(self):
        if self.src.dom != self.tgt.dom or self.src.cod != self.tgt.cod:
            raise ShapeMismatch("2-cell needs a parallel pair of functors")
        if self.alpha.dom != self.src.dom.C0 or self.alpha.cod != self.src.cod.C1:
            raise ShapeMismatch("assigner must be A0 -> B1")

    def __eq__(self, other):
        return (isinstance(other, InternalNatTrans)
                and self.src == other.src and self.tgt == other.tgt
                and self.alpha.table == other.alpha.table)

    def __hash__(self):
        return hash((self.src, self.tgt, self.alpha.table))

    def __repr__(self):
        return f"InternalNatTrans(alpha={list(self.alpha.table)})"


def validate_nat_trans(t: InternalNatTrans) -> ValidationReport:
    out = []
    f, g = t.src, t.tgt
    a, b = f.dom, f.cod
    for x in range(a.C0.size):
        if b.d1.table[t.alpha.table[x]] != f.f0.table[x]:
            out.append(Violation("component-source", x, "d1(alpha_x) != f0(x)"))
        if b.d0.table[t.alpha.table[x]] != g.f0.table[x]:
            out.append(Violation("component-target", x, "d0(alpha_x) != g0(x)"))
    if out:
        return ValidationReport(tuple(out))
    for u in range(a.C1.size):
        x, y = a.d1.table[u], a.d0.table[u]
        lhs = b.comp(g.f1.table[u], t.alpha.table[x])
        rhs = b.comp(t.alpha.table[y], f.f1.table[u])
        if lhs != rhs:
            out.append(Violation("naturality", u, "g(u).alpha_x != alpha_y.f(u)"))
    return ValidationReport(tuple(out))


def id_nat_trans(f: InternalFunctor) -> InternalNatTrans:
    """The identity 2-cell on f, with assigner i . f0."""
    return InternalNatTrans(f, f, compose(f.cod.i, f.f0))


def vcomp(beta: InternalNatTrans, alpha: InternalNatTrans) -> InternalNatTrans:
    """Vertical composite: component assigner x -> beta_x . alpha_x."""
    if alpha.tgt != beta.src:
        raise DomainMismatch("2-cells not vertically composable")
    b = alpha.src.cod
    p = b.pairs.mediate(beta.alpha, alpha.alpha)
    return InternalNatTrans(alpha.src, beta.tgt, compose(b.m, p))


def whisker_left(h: InternalFunctor, alpha: InternalNatTrans) -> InternalNatTrans:
    """h . alpha : h f => h g for alpha: f => g with cod(f) = dom(h)."""
    if alpha.src.cod != h.dom:
        raise DomainMismatch("whisker_left needs cod(alpha) = dom(h)")
    return InternalNatTrans(compose_functors(h, alpha.src),
                            compose_functors(h, alpha.tgt),
                            compose(h.f1, alpha.alpha))


def whisker_right(alpha: InternalNatTrans, k: InternalFunctor) -> InternalNatTrans:
    """alpha . k : f k => g k for alpha: f => g with dom(f) = cod(k)."""
    if k.cod != alpha.src.dom:
        raise DomainMismatch("whisker_right needs cod(k) = dom(alpha)")
    return InternalNatTrans(compose_functors(alpha.src, k),
                            compose_functors(alpha.tgt, k),
                            compose(alpha.alpha, k.f0))


def hcomp(beta: InternalNatTrans, alpha: InternalNatTrans) -> InternalNatTrans:
    """Horizontal composite of alpha: f => f' (A -> B) and beta: g => g' (B -> C),
    computed as whisker-then-vcomp; the two middle-four orders agree."""
    if alpha.src.cod != beta.src.dom:
        raise DomainMismatch("2-cells not horizontally composable")
    return vcomp(whisker_right(beta, alpha.tgt), whisker_left(beta.src, alpha))


def endpoint_pullback(t: FinMap, b: InternalCategory):
    """The chosen product X x X of the domain of t: X -> B0, and the chosen
    pullback of b's endpoint map (d0, d1): B1 -> B0 x B0 along t x t.

    An element of the pullback is a (target, source) pair of X with an arrow
    of b between their images."""
    prod_x = finset.product(t.dom, t.dom)
    prod_b = finset.product(b.C0, b.C0)
    txt = prod_b.mediate(compose(t, prod_x.projections[0]),
                         compose(t, prod_x.projections[1]))
    return prod_x, finset.pullback(txt, prod_b.mediate(b.d0, b.d1))


def ff_pullback(f: InternalFunctor):
    """The endpoint pullback of f0, together with the canonical map A1 into
    it. Fully faithful = that map is bijective."""
    a = f.dom
    prod_a, pb = endpoint_pullback(f.f0, f.cod)
    return pb, pb.mediate(prod_a.mediate(a.d0, a.d1), f.f1)


def is_fully_faithful(f: InternalFunctor) -> bool:
    _, induced = ff_pullback(f)
    return finset.is_iso(induced)


def is_faithful(f: InternalFunctor) -> bool:
    _, induced = ff_pullback(f)
    return finset.is_mono(induced)


def is_mono_functor(f: InternalFunctor) -> bool:
    return is_faithful(f) and finset.is_mono(f.f0)


def is_full_mono(f: InternalFunctor) -> bool:
    return is_fully_faithful(f) and finset.is_mono(f.f0)


def is_epi_on_objects(f: InternalFunctor) -> bool:
    return finset.is_epi(f.f0)


def is_iso_on_objects(f: InternalFunctor) -> bool:
    return finset.is_iso(f.f0)


def reflects_identities(f: InternalFunctor) -> bool:
    """Whether the square f1 . i = i . f0 is a pullback."""
    a, b = f.dom, f.cod
    return finset.is_pullback_square(f.f0, a.i, b.i, f.f1)


def fiber_arrow(f: InternalFunctor, target_arrow, src_obj, tgt_obj):
    """The unique arrow u of dom(f) with f1(u) = target_arrow, d1(u) = src_obj,
    d0(u) = tgt_obj; requires f fully faithful (singleton fiber)."""
    fiber = [u for u in f.dom.homs.get((src_obj, tgt_obj), ())
             if f.f1.table[u] == target_arrow]
    if not fiber:
        raise FiberNotSingleton("fiber is empty")
    if len(fiber) > 1:
        raise FiberNotSingleton("fiber has more than one element")
    return fiber[0]


# ---------------------------------------------------------------------------
# Truncated simplicial structure of the nerve.
#
# Simplices are encoded: level 0 by C0 indices, level 1 by C1 indices, level 2
# by indices of the derived pairs object, level 3 by the derived triples. The
# spine of a simplex lists its arrows in diagram order (first applied first).
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def monotone_maps(m: int, n: int):
    """All monotone maps [m] -> [n], lexicographic by value sequence."""
    return tuple(combinations_with_replacement(range(n + 1), m + 1))


class Nerve:
    """Levels 0..3 of the nerve of a category, with its simplicial action.

    levels[n] is the object of n-simplices; spines[n][k] and first[n][k] are
    the spine and first vertex of simplex k, and simplex() encodes one back.
    Each action table is built on first use and kept, so repeated reads
    return the same FinMap.

    faces[(n, k)] : level n -> level n-1 (0 <= k <= n, 1 <= n <= 3)
    degeneracies[(n, k)] : level n -> level n+1 (0 <= k <= n, 0 <= n <= 2)
    """

    def __init__(self, c: InternalCategory):
        self.c = c
        pairs = c.pairs.tuples
        self.spines = (((),) * c.C0.size,
                       tuple((a,) for a in range(c.C1.size)),
                       tuple((v, u) for u, v in pairs),
                       tuple((w,) + pairs[p][::-1] for p, w in c.triples.tuples))
        self.levels = tuple(FinObj(len(sp)) for sp in self.spines)
        self.first = (tuple(range(c.C0.size)),) + tuple(
            tuple(c.d1.table[sp[0]] for sp in spines) for spines in self.spines[1:])
        self._acts = {}

    def simplex(self, vertex0, arrows):
        """Encode the simplex with the given first vertex and spine arrows."""
        c = self.c
        if not arrows:
            return vertex0
        if len(arrows) == 1:
            return arrows[0]
        if len(arrows) == 2:
            v, u = arrows
            return c.pairs.index[(u, v)]
        w, v, u = arrows
        return c.triples.index[(c.pairs.index[(u, v)], w)]

    def act(self, phi, n_from: int, n_to: int) -> FinMap:
        """The action N_{n_from} -> N_{n_to} of a monotone phi: [n_to] -> [n_from]."""
        phi = tuple(phi)
        table = self._acts.get((phi, n_from, n_to))
        if table is not None:
            return table
        if len(phi) != n_to + 1 or (phi and phi[-1] > n_from):
            raise ShapeMismatch("monotone map has wrong shape")
        c = self.c

        def run(vertex, arrows):
            # composite of consecutive spine arrows, identity if there are none
            if not arrows:
                return c.i.table[vertex]
            return reduce(lambda acc, a: c.comp(a, acc), arrows[1:], arrows[0])

        out = []
        for v0, sp in zip(self.first[n_from], self.spines[n_from]):
            vs = (v0,) + tuple(c.d0.table[a] for a in sp)
            out.append(self.simplex(vs[phi[0]], [
                run(vs[phi[j - 1]], sp[phi[j - 1]:phi[j]]) for j in range(1, n_to + 1)]))
        table = FinMap(self.levels[n_from], self.levels[n_to], tuple(out))
        self._acts[(phi, n_from, n_to)] = table
        return table

    @cached_property
    def faces(self):
        return {(n, k): self.act([j for j in range(n + 1) if j != k], n, n - 1)
                for n in range(1, 4) for k in range(n + 1)}

    @cached_property
    def degeneracies(self):
        return {(n, k): self.act([min(j, k) if j <= k else j - 1
                                  for j in range(n + 2)], n, n + 1)
                for n in range(3) for k in range(n + 1)}


def simplicial_map(c: InternalCategory, phi, n_from: int, n_to: int) -> FinMap:
    """The nerve's action N_{n_from} -> N_{n_to} of a monotone phi: [n_to] -> [n_from]."""
    return c.nerve.act(phi, n_from, n_to)

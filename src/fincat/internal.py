"""Internal categories, functors and natural transformations over finite sets.

Orientation convention, fixed globally:
  * d1 = source, d0 = target;
  * a composable pair (u, v) satisfies d1(u) = d0(v), and m(u, v) = u . v
    (v is applied first);
  * a 2-cell alpha: f => g has components alpha_x: f(x) -> g(x), so
    d1 . alpha = f0 and d0 . alpha = g0;
  * vertical composition pairs (beta_x, alpha_x).

The objects of composable pairs/triples are derived from (d0, d1) via the
chosen pullbacks of the base; they are never independent state. A category
built by `InternalCategory.with_composition` keeps the pairs pullback its
composition was tabulated over; otherwise pairs are built on first read. The
triples are the nerve's level 3, built by the nerve.
"""

from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import combinations_with_replacement, product

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


def count_pairs(d0, d1):
    """The number of composable pairs (u, v), d1(u) = d0(v), of arrows with
    target table d0 and source table d1, counted without listing them."""
    into = Counter(d0)
    return sum(map(into.__getitem__, d1))


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
        self._check_shapes(count_pairs(self.d0.table, self.d1.table))

    def _check_shapes(self, n_pairs):
        """ShapeMismatch unless every map has its stated shape, with n_pairs
        the number of composable pairs; finite sets are equal when their
        sizes are."""
        c0, c1 = self.C0.size, self.C1.size
        if self.d0.dom.size != c1 or self.d0.cod.size != c0:
            raise ShapeMismatch("d0 must be C1 -> C0")
        if self.d1.dom.size != c1 or self.d1.cod.size != c0:
            raise ShapeMismatch("d1 must be C1 -> C0")
        if self.i.dom.size != c0 or self.i.cod.size != c1:
            raise ShapeMismatch("i must be C0 -> C1")
        if self.m.dom.size != n_pairs or self.m.cod.size != c1:
            raise ShapeMismatch("m must be C2 -> C1 over the derived pairs")

    @classmethod
    def with_composition(cls, C0, C1, d0, d1, i, composition):
        """The category whose m is composition(pairs), for pairs the chosen
        pullback of (d1, d0); that pullback is built once, kept as the
        category's `pairs` and read for the size of m's domain, so the pairs
        are not counted again."""
        pairs = finset.pullback(d1, d0)
        c = object.__new__(cls)
        c.__dict__.update(C0=C0, C1=C1, d0=d0, d1=d1, i=i, m=composition(pairs),
                          pairs=pairs)
        c._check_shapes(pairs.apex.size)
        return c

    def __eq__(self, other):
        # the relation of the generated field-wise comparison: finite sets
        # are equal when their sizes are, and the maps' sizes follow from them
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.C0.size == other.C0.size and self.C1.size == other.C1.size
                and self.d0.table == other.d0.table
                and self.d1.table == other.d1.table
                and self.i.table == other.i.table and self.m.table == other.m.table)

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self):
        """The hash of the field tuple, computed once."""
        return hash((self.C0, self.C1, self.d0, self.d1, self.i, self.m))

    @cached_property
    def pairs(self):
        """Chosen pullback of composable pairs: (u, v) with d1(u) = d0(v)."""
        return finset.pullback(self.d1, self.d0)

    @cached_property
    def nerve(self):
        """Levels 0..3 of the nerve, with every action table built once."""
        return Nerve(self)

    @cached_property
    def end_plans(self):
        """The plans of the level-k end with this category as X, by k
        (`ends.EndPlan`), each built on first use by the end search or the
        naturality check, whichever comes first."""
        return {}

    def comp(self, u, v):
        """Composite u . v of arrows with d1(u) = d0(v)."""
        return self.m.table[self.pairs.index[(u, v)]]

    @cached_property
    def components(self):
        """The coequalizing map C0 -> pi0 of target and source, numbering
        the connected components."""
        return finset.coequalizer(self.d0, self.d1)[1]

    @cached_property
    def homs(self):
        """Arrow indices keyed by (source, target), in arrow order; a pair
        with no arrow between them is absent."""
        out = {}
        for a, key in enumerate(zip(self.d1.table, self.d0.table)):
            out.setdefault(key, []).append(a)
        return {key: tuple(arrows) for key, arrows in out.items()}

    def __repr__(self):
        return f"InternalCategory(|C0|={self.C0.size}, |C1|={self.C1.size})"


def derived_unit_maps(c: InternalCategory):
    """i0 = <i.d0, 1> and i1 = <1, i.d1> into the object of composable pairs."""
    i0 = c.pairs.mediate(compose(c.i, c.d0), identity(c.C1))
    i1 = c.pairs.mediate(identity(c.C1), compose(c.i, c.d1))
    return i0, i1


def validate_category(c: InternalCategory) -> ValidationReport:
    """Checks every axiom, reporting all violations with concrete witnesses.

    Units and associativity are checked by lookups in the table of m, keyed
    by the composable pairs; composable triples are visited in the order of
    the nerve's level 3 without building the nerve."""
    d0, d1, i, m = c.d0.table, c.d1.table, c.i.table, c.m.table
    pairs = c.pairs.tuples
    out = []
    for x in range(c.C0.size):
        if d0[i[x]] != x:
            out.append(Violation("identity-target", x, "d0(i(x)) != x"))
        if d1[i[x]] != x:
            out.append(Violation("identity-source", x, "d1(i(x)) != x"))
    after = [{} for _ in range(c.C1.size)]  # after[u][v] = u.v
    for (u, v), uv in zip(pairs, m):
        after[u][v] = uv
        if d0[uv] != d0[u]:
            out.append(Violation("composite-target", (u, v),
                                 "d0(u.v) != d0(u)"))
        if d1[uv] != d1[v]:
            out.append(Violation("composite-source", (u, v),
                                 "d1(u.v) != d1(v)"))
    if out:
        # unit/associativity lookups need well-shaped endpoints first
        return ValidationReport(tuple(out))
    for a in range(c.C1.size):
        if after[i[d0[a]]][a] != a:
            out.append(Violation("left-unit", a, "id . a != a"))
        if after[a][i[d1[a]]] != a:
            out.append(Violation("right-unit", a, "a . id != a"))
    into = {}
    for w, x in enumerate(d0):
        into.setdefault(x, []).append(w)
    for (u, v), uv in zip(pairs, m):
        after_uv, after_u, after_v = after[uv], after[u], after[v]
        for w in into.get(d1[v], ()):
            if after_uv[w] != after_u[after_v[w]]:
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
        f0, f1, a, b = self.f0, self.f1, self.dom, self.cod
        if f0.dom.size != a.C0.size or f0.cod.size != b.C0.size:
            raise ShapeMismatch("f0 must be A0 -> B0")
        if f1.dom.size != a.C1.size or f1.cod.size != b.C1.size:
            raise ShapeMismatch("f1 must be A1 -> B1")

    @classmethod
    def _trusted(cls, dom, cod, f0, f1):
        """A functor whose maps are A0 -> B0 and A1 -> B1 by construction;
        nothing is checked."""
        f = object.__new__(cls)
        object.__setattr__(f, "dom", dom)
        object.__setattr__(f, "cod", cod)
        object.__setattr__(f, "f0", f0)
        object.__setattr__(f, "f1", f1)
        return f

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
    return InternalFunctor._trusted(f.dom, g.cod, compose(g.f0, f.f0),
                                    compose(g.f1, f.f1))


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
        if (self.alpha.dom.size != self.src.dom.C0.size
                or self.alpha.cod.size != self.src.cod.C1.size):
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


def full_image(t: FinMap, b: InternalCategory) -> InternalFunctor:
    """The fully faithful functor into b with object map t: X -> B0.

    Its domain's arrows are the pullback of b's endpoint map along t x t,
    read off `b.homs`: for each (target, source) pair in the order of X x X,
    the arrows of b between their images, in b's order. Identities and
    composites are looked up by (target, source, b's identity or composite)."""
    if t.cod.size != b.C0.size:
        raise DomainMismatch("full_image needs a map into b's objects")
    x, homs, trusted = t.dom, b.homs, FinMap._trusted  # tables in range
    keys = [(tgt, src, arrow)
            for tgt, t_tgt in enumerate(t.table)
            for src, t_src in enumerate(t.table)
            for arrow in homs.get((t_src, t_tgt), ())]
    c1 = FinObj(len(keys))
    index = dict(zip(keys, range(c1.size)))
    tgt_col, src_col, arrow_col = tuple(zip(*keys)) or ((), (), ())

    def arrows_at(wanted, dom):
        try:
            return trusted(dom, c1, tuple(map(index.__getitem__, wanted)))
        except KeyError as exc:
            raise DomainMismatch(
                f"{exc.args[0]} is not an arrow between images") from exc

    i = arrows_at(((obj, obj, b.i.table[t_obj])
                   for obj, t_obj in enumerate(t.table)), x)

    def composition(pairs):
        # (target of u, source of v, u.v in b) for each composable (u, v)
        us, vs = (proj.table for proj in pairs.projections)
        b_us, b_vs = map(arrow_col.__getitem__, us), map(arrow_col.__getitem__, vs)
        return arrows_at(zip(map(tgt_col.__getitem__, us), map(src_col.__getitem__, vs),
                             map(b.comp, b_us, b_vs)), pairs.apex)

    dom = InternalCategory.with_composition(
        x, c1, trusted(c1, x, tgt_col), trusted(c1, x, src_col), i, composition)
    return InternalFunctor(dom, b, t, trusted(c1, b.C1, arrow_col))


def _maps_hom_sets(f: InternalFunctor, onto: bool) -> bool:
    """Whether f1 maps each hom-set A(x, x') injectively into B(f0 x, f0 x'),
    and with `onto` also onto it, for every pair (x, x') of A0."""
    a, f0, f1 = f.dom, f.f0.table, f.f1.table
    a_homs, b_homs = a.homs, f.cod.homs
    keys = product(range(a.C0.size), repeat=2) if onto else a_homs
    for x, x2 in keys:
        arrows = a_homs.get((x, x2), ())
        images = set(map(f1.__getitem__, arrows))
        if len(images) != len(arrows):
            return False
        if onto and images != set(b_homs.get((f0[x], f0[x2]), ())):
            return False
    return True


def is_fully_faithful(f: InternalFunctor) -> bool:
    """Whether f1 is a bijection A(x, x') -> B(f0 x, f0 x') for all x, x'."""
    return _maps_hom_sets(f, onto=True)


def is_faithful(f: InternalFunctor) -> bool:
    """Whether f1 is injective on every hom-set of A."""
    return _maps_hom_sets(f, onto=False)


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


def lift_arrows(f: InternalFunctor, a: InternalCategory, u0: FinMap,
                g1: FinMap) -> FinMap:
    """The arrow map of the functor a -> dom(f) with object map u0 whose
    composite with the fully faithful f has arrow map g1: each arrow of a
    goes to the unique arrow over its image between the images of its ends."""
    if ((u0.dom.size, u0.cod.size, g1.dom.size, g1.cod.size)
            != (a.C0.size, f.dom.C0.size, a.C1.size, f.cod.C1.size)):
        raise DomainMismatch("lift_arrows needs u0: A0 -> dom(f)0, g1: A1 -> cod(f)1")
    u, g = u0.table, g1.table
    return FinMap(a.C1, f.dom.C1, tuple(
        fiber_arrow(f, g[arrow], u[src], u[tgt])
        for arrow, (src, tgt) in enumerate(zip(a.d1.table, a.d0.table))))


# ---------------------------------------------------------------------------
# Truncated simplicial structure of the nerve.
#
# Simplices are encoded: level 0 by C0 indices, level 1 by C1 indices, level 2
# by indices of the derived pairs object, level 3 by the nerve's triples. The
# spine of a simplex lists its arrows in diagram order (first applied first).
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def monotone_maps(m: int, n: int):
    """All monotone maps [m] -> [n], lexicographic by value sequence."""
    return tuple(combinations_with_replacement(range(n + 1), m + 1))


@lru_cache(maxsize=None)
def ordinal(k: int) -> InternalCategory:
    """The ordinal [k] = {0 <= 1 <= ... <= k} as a category, built once per k.
    Its arrows are the monotone maps [1] -> [k] in their order, the arrow
    (s, t) running from s to t; (t, u) after (s, t) is (s, u)."""
    arrows = monotone_maps(1, k)
    index = dict(zip(arrows, range(len(arrows))))
    c0, c1 = FinObj(k + 1), FinObj(len(arrows))

    def composition(pairs):
        return FinMap(pairs.apex, c1, tuple(index[(arrows[v][0], arrows[u][1])]
                                            for u, v in pairs.tuples))

    return InternalCategory.with_composition(
        c0, c1, FinMap(c1, c0, tuple(t for _s, t in arrows)),
        FinMap(c1, c0, tuple(s for s, _t in arrows)),
        FinMap(c0, c1, tuple(index[(t, t)] for t in range(k + 1))), composition)


class Nerve:
    """Levels 0..3 of the nerve of a category, with its simplicial action.

    levels[n] is the object of n-simplices; spines[n][k] and first[n][k] are
    the spine and first vertex of simplex k, and simplex() encodes one back.
    Each action table is built on first use and kept, so repeated reads
    return the same FinMap. The package reads the nerve only through
    `simplicial_map`.

    faces[(n, k)] : level n -> level n-1 (0 <= k <= n, 1 <= n <= 3)
    degeneracies[(n, k)] : level n -> level n+1 (0 <= k <= n, 0 <= n <= 2)
    """

    def __init__(self, c: InternalCategory):
        self.c = c
        pairs = c.pairs.tuples
        # composable triples ((u, v), w) with d1(v) = d0(w)
        self.triples = finset.pullback(compose(c.d1, c.pairs.projections[1]), c.d0)
        self.spines = (((),) * c.C0.size,
                       tuple((a,) for a in range(c.C1.size)),
                       tuple((v, u) for u, v in pairs),
                       tuple((w,) + pairs[p][::-1] for p, w in self.triples.tuples))
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
        return self.triples.index[(c.pairs.index[(u, v)], w)]

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
    """The nerve's action N_{n_from} -> N_{n_to} of a monotone phi: [n_to] -> [n_from].
    A module-level name, because `perfbench/spans.py` wraps it by that name."""
    return c.nerve.act(phi, n_from, n_to)

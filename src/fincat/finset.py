"""The base category: finite sets with chosen, canonical finite (co)limits.

Objects are {0..n-1}; maps are tabulated. Every limit comes with a fixed
element encoding (lexicographic tuple enumeration) so that derived structure
maps are bit-exact and diagrams commute on the nose. All values are immutable
after construction and every operation is a pure function.

Maps built by callers or parsed from input go through the public FinMap
constructor, which checks the table's length and range. The maps this module
builds in range by construction skip those checks: `identity`, `compose`,
every limit projection and coproduct injection, `ChosenLimit.mediate` and
`copair`. A limit is stored as its projections; its `tuples` and `index` are
built on first read. The chosen product numbers (x, y) as x·|B| + y, so its
projections and `mediate` are arithmetic, and a table over A x B is |A| rows
of width |B|. The product's `rows` and `join` are the one reader of that
numbering: `rows` cuts a table into its rows and `join` concatenates rows
back, and `is_product` says whether a limit is the chosen product of two
given sets, so that its tables may be read by rows. The chosen coproduct
A + B numbers A's elements first, and `copair`, which concatenates the
tables of the two cases, is the one reader of that numbering.

Determinism conventions:
  * chosen-limit apexes enumerate solution tuples lexicographically,
  * quotient classes are numbered by least representative,
  * sections pick least preimages,
  * images are ordered by increasing codomain index.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from itertools import product as iproduct
from operator import add, mul

from .errors import DomainMismatch, NotEpi, NotMono


@dataclass(frozen=True)
class FinObj:
    """A finite set {0..size-1}. Labels are display-only; equality is by size."""

    size: int
    labels: tuple = None

    def __post_init__(self):
        if self.size < 0:
            raise DomainMismatch(f"negative size {self.size}")
        if self.labels is not None and len(self.labels) != self.size:
            raise DomainMismatch("labels length must equal size")

    def __eq__(self, other):
        return isinstance(other, FinObj) and self.size == other.size

    def __hash__(self):
        return hash(("FinObj", self.size))

    def __repr__(self):
        return f"FinObj({self.size})"


@dataclass(frozen=True, slots=True)
class FinMap:
    """A tabulated function between finite sets."""

    dom: FinObj
    cod: FinObj
    table: tuple

    def __post_init__(self):
        object.__setattr__(self, "table", tuple(self.table))
        if len(self.table) != self.dom.size:
            raise DomainMismatch(
                f"table length {len(self.table)} != domain size {self.dom.size}")
        if self.table and (min(self.table) < 0 or max(self.table) >= self.cod.size):
            raise DomainMismatch("table entry outside codomain")

    @classmethod
    def _trusted(cls, dom, cod, table):
        """A map whose table is a tuple of length dom.size with entries in
        range(cod.size) by construction; nothing is checked."""
        f = object.__new__(cls)
        object.__setattr__(f, "dom", dom)
        object.__setattr__(f, "cod", cod)
        object.__setattr__(f, "table", table)
        return f

    def __repr__(self):
        return f"FinMap({self.dom.size}->{self.cod.size}, {list(self.table)})"


_trusted = FinMap._trusted


def identity(a: FinObj) -> FinMap:
    return _trusted(a, a, tuple(range(a.size)))


def compose(g: FinMap, f: FinMap) -> FinMap:
    """g after f; defined iff f.cod = g.dom."""
    if f.cod.size != g.dom.size:
        raise DomainMismatch(f"cannot compose: f.cod={f.cod.size}, g.dom={g.dom.size}")
    return _trusted(f.dom, g.cod, tuple(map(g.table.__getitem__, f.table)))


def is_mono(f: FinMap) -> bool:
    return len(set(f.table)) == len(f.table)


def is_epi(f: FinMap) -> bool:
    return len(set(f.table)) == f.cod.size


def is_iso(f: FinMap) -> bool:
    return f.dom.size == f.cod.size and is_mono(f)


def inverse(f: FinMap) -> FinMap:
    if not is_iso(f):
        raise DomainMismatch("not invertible")
    table = [0] * f.cod.size
    for x, y in enumerate(f.table):
        table[y] = x
    return FinMap(f.cod, f.dom, tuple(table))


@dataclass(frozen=True)
class ChosenLimit:
    """A chosen limit: apex indices biject with solution tuples, lex ordered.

    Apex element k is the tuple of `projections[i].table[k]`. `tuples[k]`
    decodes apex element k and `index[t]` encodes tuple t back; both are built
    on first read. Projections commute with the defining cone exactly.
    """

    apex: FinObj
    projections: tuple

    @cached_property
    def tuples(self):
        return tuple(zip(*(p.table for p in self.projections)))

    @cached_property
    def index(self):
        return dict(zip(self.tuples, range(self.apex.size)))

    def decode(self, k):
        return self.tuples[k]

    def encode(self, t):
        return self.index[tuple(t)]

    def _legs_domain(self, legs):
        """The common domain of legs, one into each projection's codomain."""
        if len(legs) != len(self.projections):
            raise DomainMismatch("wrong number of legs")
        dom = legs[0].dom
        for leg, proj in zip(legs, self.projections):
            if leg.dom.size != dom.size:
                raise DomainMismatch("legs must share one domain")
            if leg.cod.size != proj.cod.size:
                raise DomainMismatch("leg does not land in its projection's codomain")
        return dom

    def mediate(self, *legs):
        """The unique map into the apex commuting with the projections.

        `legs[i]` must be a FinMap into projections[i].cod, all from one domain,
        and the legs must satisfy the defining equations of the limit.
        """
        dom = self._legs_domain(legs)
        try:
            table = tuple(map(self.index.__getitem__,
                              zip(*(leg.table for leg in legs))))
        except KeyError as exc:
            raise DomainMismatch(
                f"legs do not satisfy the limit equations at {exc.args[0]}") from exc
        return _trusted(dom, self.apex, table)


class _Product(ChosenLimit):
    """The chosen product A x B, with (x, y) numbered x·|B| + y."""

    def mediate(self, *legs):
        dom = self._legs_domain(legs)
        f, g = legs
        width = self.projections[1].cod.size
        return _trusted(dom, self.apex,
                        tuple(map(add, map(mul, f.table, repeat(width)), g.table)))

    def rows(self, table):
        """The |A| rows of a table over A x B: row x is the slice of width |B|
        holding the entries at (x, 0), ..., (x, |B| - 1), as a tuple."""
        width = self.projections[1].cod.size
        if not width:
            return [()] * self.projections[0].cod.size
        entries = iter(table)
        return list(zip(*repeat(entries, width)))

    @staticmethod
    def join(rows):
        """The table over A x B whose row x is rows[x]; the inverse of `rows`."""
        return tuple(chain.from_iterable(rows))


def is_product(limit: ChosenLimit, a: FinObj, b: FinObj) -> bool:
    """Whether `limit` is the chosen product a x b, so that its `rows` and
    `join` read its tables."""
    return (isinstance(limit, _Product) and limit.projections[0].cod.size == a.size
            and limit.projections[1].cod.size == b.size)


def _chosen(cods, columns):
    """The limit whose apex element k has components column[k], one column
    per projection, into the matching entry of cods."""
    apex = FinObj(len(columns[0]))
    return ChosenLimit(apex, tuple(_trusted(apex, cod, column)
                                   for cod, column in zip(cods, columns)))


def terminal() -> FinObj:
    return FinObj(1)


def bang(a: FinObj) -> FinMap:
    """The unique map to the terminal object."""
    return FinMap(a, terminal(), (0,) * a.size)


def product(a: FinObj, b: FinObj) -> ChosenLimit:
    """Pairs (x, y), lexicographic; (x, y) is apex element x·|B| + y."""
    apex = FinObj(a.size * b.size)
    left = tuple(chain.from_iterable(repeat(x, b.size) for x in range(a.size)))
    return _Product(apex, (_trusted(apex, a, left),
                           _trusted(apex, b, tuple(range(b.size)) * a.size)))


def pullback(f: FinMap, g: FinMap) -> ChosenLimit:
    """Pairs (x, y) with f(x) = g(y), lexicographic, projecting to f.dom, g.dom."""
    if f.cod.size != g.cod.size:
        raise DomainMismatch("pullback needs a cospan")
    buckets = {}
    for y, c in enumerate(g.table):
        buckets.setdefault(c, []).append(y)
    left, right = [], []
    for x, c in enumerate(f.table):
        ys = buckets.get(c)
        if ys:
            left += repeat(x, len(ys))
            right += ys
    return _chosen((f.dom, g.dom), (tuple(left), tuple(right)))


def equalizer(f: FinMap, g: FinMap) -> ChosenLimit:
    """Solutions x with f(x) = g(x); single projection into the common domain."""
    if f.dom.size != g.dom.size or f.cod.size != g.cod.size:
        raise DomainMismatch("equalizer needs a parallel pair")
    column = tuple(x for x, (fx, gx) in enumerate(zip(f.table, g.table)) if fx == gx)
    return _chosen((f.dom,), (column,))


def coproduct(a: FinObj, b: FinObj):
    """Disjoint union with a's elements first; returns (object, inj0, inj1)."""
    obj = FinObj(a.size + b.size)
    return (obj, _trusted(a, obj, tuple(range(a.size))),
            _trusted(b, obj, tuple(range(a.size, obj.size))))


def copair(f: FinMap, g: FinMap) -> FinMap:
    """The map out of the chosen coproduct f.dom + g.dom that is f on the
    first summand and g on the second: f's table followed by g's."""
    if f.cod.size != g.cod.size:
        raise DomainMismatch("copairing needs a common codomain")
    return _trusted(FinObj(f.dom.size + g.dom.size), f.cod, f.table + g.table)


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            # keep the smaller index as root so numbering stays canonical
            if rx > ry:
                rx, ry = ry, rx
            self.parent[ry] = rx


def coequalizer(f: FinMap, g: FinMap):
    """Quotient of the codomain by the closure of f(x) ~ g(x).

    Classes are numbered by least member in domain order. Returns (object, q).
    """
    if f.dom.size != g.dom.size or f.cod.size != g.cod.size:
        raise DomainMismatch("coequalizer needs a parallel pair")
    uf = _UnionFind(f.cod.size)
    for x in range(f.dom.size):
        uf.union(f.table[x], g.table[x])
    roots = sorted({uf.find(y) for y in range(f.cod.size)})
    number = {r: k for k, r in enumerate(roots)}
    q = FinMap(f.cod, FinObj(len(roots)),
               tuple(number[uf.find(y)] for y in range(f.cod.size)))
    return q.cod, q


def coeq_factor(q: FinMap, h: FinMap) -> FinMap:
    """The unique map through a coequalizer q for h constant on q's classes."""
    if h.dom != q.dom:
        raise DomainMismatch("factorisation needs matching domains")
    table = [None] * q.cod.size
    for y in range(q.dom.size):
        c = q.table[y]
        if table[c] is None:
            table[c] = h.table[y]
        elif table[c] != h.table[y]:
            raise DomainMismatch("map does not coequalize the pair")
    return FinMap(q.cod, h.cod, tuple(table))


@dataclass(frozen=True)
class Exponential:
    """The chosen exponential: all tables A -> B enumerated lexicographically."""

    base: FinObj
    exponent: FinObj
    obj: FinObj
    prod: ChosenLimit  # chosen product obj x exponent, domain of eval
    eval_map: FinMap

    def decode(self, k):
        """Index -> table, big-endian lexicographic."""
        n, size = self.exponent.size, self.base.size
        digits = []
        for _ in range(n):
            digits.append(k % size)
            k //= size
        return tuple(reversed(digits))

    def encode(self, table):
        k = 0
        for y in table:
            k = k * self.base.size + y
        return k

    def curry(self, f: FinMap, x: FinObj, prod_xa: ChosenLimit) -> FinMap:
        """The unique transpose X -> B^A of f: X x A -> B, over prod_xa = X x A,
        encoding each row of f."""
        if f.dom != prod_xa.apex or not is_product(prod_xa, x, self.exponent):
            raise DomainMismatch("curry needs a map out of the chosen product X x A")
        return FinMap(x, self.obj, tuple(map(self.encode, prod_xa.rows(f.table))))

    def uncurry(self, h: FinMap, prod_xa: ChosenLimit) -> FinMap:
        """Inverse of curry: X -> B^A gives X x A -> B, over prod_xa = X x A,
        whose row z is the table that h(z) encodes."""
        if not is_product(prod_xa, h.dom, self.exponent):
            raise DomainMismatch("uncurry needs the chosen product X x A")
        return FinMap(prod_xa.apex, self.base, prod_xa.join(map(self.decode, h.table)))


def exponential(a: FinObj, b: FinObj) -> Exponential:
    """The object of all maps a -> b with evaluation; size |b|^|a|. Row k of
    the evaluation is the k-th table in lexicographic order."""
    obj = FinObj(b.size ** a.size)
    prod = product(obj, a)
    eval_map = _trusted(prod.apex, b,
                        prod.join(iproduct(range(b.size), repeat=a.size)))
    return Exponential(b, a, obj, prod, eval_map)


def subobject_classifier():
    """Returns (omega, top) with index 1 = true."""
    omega = FinObj(2, ("false", "true"))
    return omega, FinMap(terminal(), omega, (1,))


def characteristic_map(i: FinMap) -> FinMap:
    """The map classifying a mono: sends b to true iff b is in the image."""
    if not is_mono(i):
        raise NotMono("characteristic map needs a monomorphism")
    omega, _ = subobject_classifier()
    image = set(i.table)
    return FinMap(i.cod, omega, tuple(1 if b in image else 0 for b in range(i.cod.size)))


def factor_epi_mono(f: FinMap):
    """f = r . l with l epi onto the image and r mono; image ordered by codomain index."""
    image = sorted(set(f.table))
    mid = FinObj(len(image))
    number = {y: k for k, y in enumerate(image)}
    l = FinMap(f.dom, mid, tuple(number[y] for y in f.table))
    r = FinMap(mid, f.cod, tuple(image))
    return l, r


def choose_section(e: FinMap) -> FinMap:
    """The section picking the least preimage of each codomain element."""
    if not is_epi(e):
        raise NotEpi("section requires a surjection")
    table = [None] * e.cod.size
    for x, y in enumerate(e.table):
        if table[y] is None:
            table[y] = x
    return FinMap(e.cod, e.dom, tuple(table))


def is_pullback_square(p: FinMap, q: FinMap, f: FinMap, g: FinMap) -> bool:
    """Whether the commuting square with legs p, q over the cospan f, g is a pullback.

    p: P -> dom(f), q: P -> dom(g), with f.p = g.q; checks that the induced map
    into the chosen pullback of (f, g) is a bijection.
    """
    if compose(f, p).table != compose(g, q).table:
        return False
    pb = pullback(f, g)
    seen = set()
    for z in range(p.dom.size):
        t = (p.table[z], q.table[z])
        if t not in pb.index or t in seen:
            return False
        seen.add(t)
    return len(seen) == pb.apex.size


def all_maps(a: FinObj, b: FinObj):
    """All maps a -> b in lexicographic table order."""
    for table in iproduct(range(b.size), repeat=a.size):
        yield FinMap(a, b, table)

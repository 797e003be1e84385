"""Finite 2-limits and cartesian structure of the category of internal
categories: terminal, binary products, pullbacks, powers by the free arrow,
extensive coproducts, copowers, and internal homs via the simplicial end.

The internal hom is computed by the end formula (see ends.py) as the
definitional path: its objects and cells are the level-0 and level-1 ends, and
its composition is the Segal join of composable cells, read off level 1
without a level-2 search. A functor is keyed by its (object, arrow) tables
(Family.vertex) and a cell by the numbers of its source and target functors
and its diagonal; curry reads those keys straight off the tables of the
functor it transposes, whose rows are slices of the chosen product's
numbering (finset's `rows`), and the evaluation's rows are the families'
tables (`join`). The carrier is certified by the components of its cells
(validate_hom_carrier), in time linear in its composable pairs of cells. The
product carrier x X and the evaluation functor are built, and the evaluation
certified, only when first read. A count over `bound` raises SizeBound, whose
message names its stage, the count and the bound (internal_hom lists the
stages).

The functor, cell and hom-category searches all live in naive.py, which shares
with the end path only what errors.py holds: enumerate_functors,
enumerate_cells and hom_category are typed views over them, and
hom_iso_with_oracle checks the end hom against the oracle's hom-category.
"""

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
import math

from . import finset
from .ends import end_families
from .errors import SIZE_BOUND, CertificateFailure, DomainMismatch, SizeBound
from .finset import FinMap, FinObj, compose, identity
from .internal import (InternalCategory, InternalFunctor, InternalNatTrans,
                       ValidationReport, Violation, compose_functors,
                       count_pairs, derived_unit_maps, id_functor,
                       validate_category, validate_functor, validate_nat_trans,
                       whisker_left)
from .naive import oracle_functors, oracle_hom_category, oracle_nat_trans
from .transfer import _ONE


def terminal_cat() -> InternalCategory:
    """The terminal category, built once."""
    return _ONE


def bang_functor(a: InternalCategory) -> InternalFunctor:
    return InternalFunctor(a, terminal_cat(), finset.bang(a.C0), finset.bang(a.C1))


@dataclass(frozen=True)
class LimitCone:
    """A chosen 2-limit: carrier with projection functors and a mediator."""

    category: InternalCategory
    l0: finset.ChosenLimit
    l1: finset.ChosenLimit
    proj0: InternalFunctor
    proj1: InternalFunctor

    def mediate(self, p: InternalFunctor, q: InternalFunctor) -> InternalFunctor:
        if p.dom != q.dom:
            raise DomainMismatch("mediating functor needs a common domain")
        return InternalFunctor(p.dom, self.category,
                               self.l0.mediate(p.f0, q.f0),
                               self.l1.mediate(p.f1, q.f1))


def _cone_from_levels(l0, l1, a: InternalCategory, b: InternalCategory) -> LimitCone:
    """The limit cone on chosen levelwise limits of a and b: the internal
    category structure on them and its projection functors to a and b."""
    p1a, p1b = l1.projections
    d0 = l0.mediate(compose(a.d0, p1a), compose(b.d0, p1b))
    d1 = l0.mediate(compose(a.d1, p1a), compose(b.d1, p1b))
    p0a, p0b = l0.projections
    i = l1.mediate(compose(a.i, p0a), compose(b.i, p0b))

    def composition(pairs):
        pr_u, pr_v = pairs.projections
        ua, va = compose(p1a, pr_u), compose(p1a, pr_v)
        ub, vb = compose(p1b, pr_u), compose(p1b, pr_v)
        ma = compose(a.m, a.pairs.mediate(ua, va))
        mb = compose(b.m, b.pairs.mediate(ub, vb))
        return l1.mediate(ma, mb)

    cat = InternalCategory.with_composition(l0.apex, l1.apex, d0, d1, i,
                                            composition)
    return LimitCone(cat, l0, l1,
                     InternalFunctor(cat, a, p0a, p1a),
                     InternalFunctor(cat, b, p0b, p1b))


def product_cat(a: InternalCategory, b: InternalCategory) -> LimitCone:
    return _cone_from_levels(finset.product(a.C0, b.C0),
                             finset.product(a.C1, b.C1), a, b)


def pullback_cat(f: InternalFunctor, g: InternalFunctor) -> LimitCone:
    if f.cod != g.cod:
        raise DomainMismatch("pullback needs a cospan of functors")
    return _cone_from_levels(finset.pullback(f.f0, g.f0),
                             finset.pullback(f.f1, g.f1), f.dom, g.dom)


@dataclass(frozen=True)
class CoproductCone:
    category: InternalCategory
    inj0: InternalFunctor
    inj1: InternalFunctor

    def copair(self, p: InternalFunctor, q: InternalFunctor) -> InternalFunctor:
        """The functor that is p on the first summand and q on the second."""
        if p.dom != self.inj0.dom or q.dom != self.inj1.dom or p.cod != q.cod:
            raise DomainMismatch("copairing needs a leg out of each summand, "
                                 "in order, into a common codomain")
        return InternalFunctor(self.category, p.cod, finset.copair(p.f0, q.f0),
                               finset.copair(p.f1, q.f1))


def coproduct_cat(a: InternalCategory, b: InternalCategory) -> CoproductCone:
    """Levelwise disjoint union: each structure map is the copair of a's and
    b's through the injections; so is m, as the chosen pullback of (d1, d0)
    lists a's composable pairs, then b's (no arrow of a composes with b's)."""
    c0, i00, i01 = finset.coproduct(a.C0, b.C0)
    c1, i10, i11 = finset.coproduct(a.C1, b.C1)

    def copair(i, j, f, g):
        return finset.copair(compose(i, f), compose(j, g))

    cat = InternalCategory(
        c0, c1, copair(i00, i01, a.d0, b.d0), copair(i00, i01, a.d1, b.d1),
        copair(i10, i11, a.i, b.i), copair(i10, i11, a.m, b.m))
    return CoproductCone(cat, InternalFunctor(a, cat, i00, i10),
                         InternalFunctor(b, cat, i01, i11))


def _build_free_arrow() -> InternalCategory:
    c0 = FinObj(2, ("src", "tgt"))
    c1 = FinObj(3, ("id_src", "id_tgt", "arrow"))
    d1 = FinMap(c1, c0, (0, 1, 0))   # sources
    d0 = FinMap(c1, c0, (0, 1, 1))   # targets
    i = FinMap(c0, c1, (0, 1))
    cat = InternalCategory(c0, c1, d0, d1, i, FinMap(FinObj(4), c1, (0, 1, 2, 2)))
    validate_category(cat).certify("free arrow")
    return cat


_FREE_ARROW = _build_free_arrow()


def free_arrow() -> InternalCategory:
    """The free-living internal arrow: 2 objects, 3 arrows, one non-identity."""
    return _FREE_ARROW


def _require_natural(cell: InternalNatTrans):
    """DomainMismatch, naming the first violation, unless cell is natural."""
    violations = validate_nat_trans(cell).violations
    if violations:
        raise DomainMismatch(f"not a 2-cell: {violations[0]}")


@dataclass(frozen=True)
class PowerByTwo:
    """The internal arrow category of a: objects are a's arrows, arrows are
    its commutative squares (pairs of composable pairs with equal composite)."""

    carrier: InternalCategory
    source_proj: InternalFunctor
    target_proj: InternalFunctor
    universal_cell: InternalNatTrans
    squares: finset.ChosenLimit  # pullback of (m, m)

    def functor_to_cell(self, h: InternalFunctor) -> InternalNatTrans:
        """A functor X -> a^2 corresponds to a 2-cell between functors X -> a."""
        if h.cod != self.carrier:
            raise DomainMismatch("expected a functor into the power")
        return InternalNatTrans(compose_functors(self.source_proj, h),
                                compose_functors(self.target_proj, h),
                                h.f0)

    def cell_to_functor(self, cell: InternalNatTrans) -> InternalFunctor:
        """The functor X -> a^2 of a natural cell: u goes to its square."""
        _require_natural(cell)
        f, g, alpha = cell.src, cell.tgt, cell.alpha
        pairs, x = f.cod.pairs, f.dom
        arrows = self.squares.mediate(pairs.mediate(g.f1, compose(alpha, x.d1)),
                                      pairs.mediate(compose(alpha, x.d0), f.f1))
        return InternalFunctor(x, self.carrier, alpha, arrows)


def power_by_two(a: InternalCategory) -> PowerByTwo:
    sq = finset.pullback(a.m, a.m)
    pr0, pr1 = sq.projections          # into the object of composable pairs
    pu, pv = a.pairs.projections       # (u, v): u applied second
    k_map = compose(pu, pr0)           # target-side component
    u_map = compose(pv, pr0)           # source object (an arrow of a)
    v_map = compose(pu, pr1)           # target object
    h_map = compose(pv, pr1)           # source-side component
    i0, i1 = derived_unit_maps(a)
    i_sq = sq.mediate(i0, i1)

    def composition(pairs):
        pr_s, pr_t = pairs.projections
        kk = compose(a.m, a.pairs.mediate(compose(k_map, pr_s), compose(k_map, pr_t)))
        hh = compose(a.m, a.pairs.mediate(compose(h_map, pr_s), compose(h_map, pr_t)))
        p_new = a.pairs.mediate(kk, compose(u_map, pr_t))
        q_new = a.pairs.mediate(compose(v_map, pr_s), hh)
        return sq.mediate(p_new, q_new)

    carrier = InternalCategory.with_composition(a.C1, sq.apex, v_map, u_map, i_sq,
                                                composition)
    source_proj = InternalFunctor(carrier, a, a.d1, h_map)
    target_proj = InternalFunctor(carrier, a, a.d0, k_map)
    cell = InternalNatTrans(source_proj, target_proj, identity(a.C1))
    validate_category(carrier).certify("power by 2: carrier")
    validate_functor(source_proj).certify("power by 2: source projection")
    validate_functor(target_proj).certify("power by 2: target projection")
    validate_nat_trans(cell).certify("power by 2: universal cell")
    return PowerByTwo(carrier, source_proj, target_proj, cell, sq)


def constant_functor(a: InternalCategory, b: InternalCategory, obj: int) -> InternalFunctor:
    return InternalFunctor(a, b,
                           FinMap(a.C0, b.C0, (obj,) * a.C0.size),
                           FinMap(a.C1, b.C1, (b.i.table[obj],) * a.C1.size))


@dataclass(frozen=True)
class CopowerByTwo:
    """The copower of a by the free arrow: the product with it, plus the
    universal 2-cell between the two coprojections."""

    carrier: InternalCategory
    prod: LimitCone
    in0: InternalFunctor
    in1: InternalFunctor
    universal_cell: InternalNatTrans

    def cell_to_functor(self, cell: InternalNatTrans) -> InternalFunctor:
        """The functor 2 x A -> B of a natural cell f => g: A -> B: its rows at
        the free arrow's objects are f and g, and its row at the arrow sends
        u: x -> y to g(u) . alpha_x."""
        _require_natural(cell)
        f, g = cell.src, cell.tgt
        a, b = f.dom, f.cod
        arrow_row = tuple(map(b.comp, g.f1.table,
                              map(cell.alpha.table.__getitem__, a.d1.table)))
        l0, l1 = self.prod.l0, self.prod.l1
        return InternalFunctor(self.carrier, b,
                               FinMap(self.carrier.C0, b.C0,
                                      l0.join((f.f0.table, g.f0.table))),
                               FinMap(self.carrier.C1, b.C1,
                                      l1.join((f.f1.table, g.f1.table, arrow_row))))

    def functor_to_cell(self, h: InternalFunctor) -> InternalNatTrans:
        return whisker_left(h, self.universal_cell)


def copower_by_two(a: InternalCategory) -> CopowerByTwo:
    two = free_arrow()
    prod = product_cat(two, a)
    carrier = prod.category
    in0 = prod.mediate(constant_functor(a, two, 0), id_functor(a))
    in1 = prod.mediate(constant_functor(a, two, 1), id_functor(a))
    # the component at x is (arrow, i(x)), read off row 2 of the numbering
    arrow_row = prod.l1.rows(range(carrier.C1.size))[2]
    alpha = FinMap(a.C0, carrier.C1, tuple(map(arrow_row.__getitem__, a.i.table)))
    cell = InternalNatTrans(in0, in1, alpha)
    validate_nat_trans(cell).certify("copower by 2: universal cell")
    return CopowerByTwo(carrier, prod, in0, in1, cell)


# ---------------------------------------------------------------------------
# Internal hom via the end formula.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InternalHom:
    """The hom [dom, cod]: its carrier, and the level-0 and level-1 end
    families that are the carrier's objects and cells, in index order, with
    the carrier index of each object and each cell by its key
    (`family_index`), built by internal_hom with the carrier: an object's
    key is its functor's (object, arrow) tables, and a cell's key is
    (source index, target index, diagonal eta1[(0, 1)]).

    `prod` and `evaluation` are built the first time they are read, and the
    evaluation is certified then; SizeBound (stage "evaluation pairs") when
    the product's composable pairs exceed `bound`."""

    carrier: InternalCategory
    dom: InternalCategory    # the exponent X
    cod: InternalCategory    # the target Y
    level0: tuple            # Family objects for functors
    level1: tuple            # Family objects for cells
    bound: int
    # key -> carrier index of each object and each cell; derived from level0
    # and level1, so it takes no part in equality or hashing
    family_index: tuple = field(compare=False, repr=False)

    @cached_property
    def prod(self) -> LimitCone:
        """carrier x X, the domain of evaluation."""
        SizeBound.check(self.carrier.pairs.apex.size * self.dom.pairs.apex.size,
                        self.bound, "evaluation pairs", "composable pairs")
        return product_cat(self.carrier, self.dom)

    @cached_property
    def evaluation(self) -> InternalFunctor:
        """ev: carrier x X -> Y, sending (cell, arrow a) to the cell's
        diagonal at a. CertificateFailure if it is not a functor."""
        prod = self.prod
        ev0 = FinMap(prod.l0.apex, self.cod.C0,
                     prod.l0.join(fam.eta0[(0,)] for fam in self.level0))
        ev1 = FinMap(prod.l1.apex, self.cod.C1,
                     prod.l1.join(fam.eta1[(0, 1)] for fam in self.level1))
        evaluation = InternalFunctor(prod.category, self.cod, ev0, ev1)
        validate_functor(evaluation).certify("evaluation")
        return evaluation

    def curry(self, z: InternalCategory, prod_zx: LimitCone,
              h: InternalFunctor) -> InternalFunctor:
        """Transpose a functor Z x X -> Y (over the chosen product) to Z -> hom.
        h's tables are read by rows of the chosen product: an object z is
        keyed by h's rows at z and at i(z), and an arrow c by its ends'
        transposes and h's row at c. DomainMismatch if prod_zx is not the
        chosen product Z x X at both levels, or if a key is missing from the
        hom, which happens only when h is not a functor."""
        x, y = self.dom, self.cod
        if h.dom != prod_zx.category or h.cod != y:
            raise DomainMismatch("curry needs a functor Z x X -> Y")
        l0, l1 = prod_zx.l0, prod_zx.l1
        if not (finset.is_product(l0, z.C0, x.C0) and finset.is_product(l1, z.C1, x.C1)):
            raise DomainMismatch("curry needs the chosen product Z x X")
        idx0, idx1 = self.family_index
        rows1 = l1.rows(h.f1.table)
        try:
            f0 = tuple(map(idx0.__getitem__, zip(
                l0.rows(h.f0.table), map(rows1.__getitem__, z.i.table))))
            f1 = tuple(map(idx1.__getitem__, zip(
                map(f0.__getitem__, z.d1.table), map(f0.__getitem__, z.d0.table),
                rows1)))
        except KeyError as exc:
            raise DomainMismatch("curry needs a functor Z x X -> Y: a transpose "
                                 "is not in the hom") from exc
        # hom indices, so in range by construction
        carrier, trusted = self.carrier, FinMap._trusted
        return InternalFunctor._trusted(z, carrier, trusted(z.C0, carrier.C0, f0),
                                        trusted(z.C1, carrier.C1, f1))


def validate_hom_carrier(ih: InternalHom) -> ValidationReport:
    """Certifies ih.carrier by the components of its cells, in time linear
    in its composable pairs of cells times |X0|.

    A cell is encoded as (source, target, components), its component at an
    object of X read off its family's diagonal at that object's identity.
    The encoding must be injective, each component must run from the source
    functor's image of its object to the target's, each identity cell must
    have identity components, and m(u, v) must encode as (d1 v, d0 u, the
    pointwise composites u_x . v_x in Y). The encoding then carries the
    carrier's identities and composites injectively to pointwise ones, so
    its unit and associativity laws follow from those of the category Y."""
    carrier, x, y = ih.carrier, ih.dom, ih.cod
    d0, d1 = carrier.d0.table, carrier.d1.table
    objects = [fam.eta0[(0,)] for fam in ih.level0]
    codes = [(s, t, tuple(map(fam.eta1[(0, 1)].__getitem__, x.i.table)))
             for s, t, fam in zip(d1, d0, ih.level1)]
    out = []
    first = {}
    for c, code in enumerate(codes):
        if first.setdefault(code, c) != c:
            out.append(Violation("cell-encoding", (first[code], c),
                                 "two cells have one encoding"))
    y_d0, y_d1 = y.d0.table, y.d1.table
    for c, (s, t, comps) in enumerate(codes):
        if (tuple(map(y_d1.__getitem__, comps)) != objects[s]
                or tuple(map(y_d0.__getitem__, comps)) != objects[t]):
            out.append(Violation("cell-components", c,
                                 "a component does not run from the source "
                                 "functor's image to the target's"))
    y_i = y.i.table
    for o, e in enumerate(carrier.i.table):
        if codes[e] != (o, o, tuple(map(y_i.__getitem__, objects[o]))):
            out.append(Violation("identity-cell", o,
                                 "i(o) is not the identity cell of o"))
    if out:
        # the pointwise composites need well-shaped components first
        return ValidationReport(tuple(out))
    y_pair, y_m = y.pairs.index, y.m.table
    for (u, v), uv in zip(carrier.pairs.tuples, carrier.m.table):
        comps = tuple(map(y_m.__getitem__,
                          map(y_pair.__getitem__, zip(codes[u][2], codes[v][2]))))
        if codes[uv] != (d1[v], d0[u], comps):
            out.append(Violation("composite-cell", (u, v),
                                 "m(u, v) is not the pointwise composite"))
    return ValidationReport(tuple(out))


def internal_hom(x: InternalCategory, y: InternalCategory,
                 bound: int = SIZE_BOUND) -> InternalHom:
    """The internal hom [x, y]: levels 0 and 1 are the stated ends, and
    composition is the Segal join of composable level-1 cells.

    SizeBound at the first of these stages whose count passes `bound`:
    "object tables", "level-0 end", "functor pairs", "component tables",
    "level-1 end", "cell pairs". The component tables of a pair (F, G) of
    functors choose one arrow of Y(Fx, Gx) at each object x of X; they
    bound the cells from F to G, whose other diagonal entries are forced.
    They are counted only when their upper bound, the number of functor pairs
    times w ** |X0| for w the size of Y's largest hom-set, passes `bound`.
    CertificateFailure if the carrier fails validate_hom_carrier.

    The result's `prod` and `evaluation` are built, and the evaluation
    certified, on first read ("evaluation pairs" under the same `bound`).
    """
    if x.C0.size:
        SizeBound.check(y.C0.size ** x.C0.size, bound, "object tables",
                        "object tables")
    hom0 = tuple(end_families(x, y, 0, bound))
    SizeBound.check(len(hom0) ** 2, bound, "functor pairs", "pairs of functors")
    homs = y.homs
    widest = max(map(len, homs.values()), default=0)
    if len(hom0) ** 2 * widest ** x.C0.size > bound:
        objects = Counter(f.eta0[(0,)] for f in hom0)
        components = sum(
            cp * cq * math.prod(len(homs.get(pq, ())) for pq in zip(p, q))
            for p, cp in objects.items() for q, cq in objects.items())
        SizeBound.check(components, bound, "component tables", "component tables")
    hom1 = tuple(end_families(x, y, 1, bound))
    idx0 = {f.key(): i for i, f in enumerate(hom0)}
    diagonals = [f.eta1[(0, 1)] for f in hom1]
    # hom indices read off idx0 and idx1, so in range by construction
    c0, c1, trusted = FinObj(len(hom0)), FinObj(len(hom1)), FinMap._trusted
    d0 = trusted(c1, c0, tuple(idx0[f.vertex(1)] for f in hom1))
    d1 = trusted(c1, c0, tuple(idx0[f.vertex(0)] for f in hom1))
    SizeBound.check(count_pairs(d0.table, d1.table), bound, "cell pairs",
                    "composable pairs of cells")
    idx1 = {cell: c for c, cell in enumerate(zip(d1.table, d0.table, diagonals))}
    # the composite of u after v at an arrow a: p -> q of x is u at q after
    # v's diagonal at a; its source is v's and its target u's
    at_target = tuple(x.i.table[q] for q in x.d0.table)
    y_pair, y_m = y.pairs.index, y.m.table
    src, tgt = d1.table, d0.table

    def join(pairs):
        table = []
        for cu, cv in pairs.tuples:
            u_diag, v_diag = diagonals[cu], diagonals[cv]
            diag = tuple(y_m[y_pair[(u_diag[t], v_diag[a])]]
                         for a, t in enumerate(at_target))
            table.append(idx1[(src[cv], tgt[cu], diag)])
        return trusted(pairs.apex, c1, tuple(table))

    try:
        i = trusted(c0, c1, tuple(idx1[(o, o, f.eta1[(0, 0)])]
                                  for o, f in enumerate(hom0)))
        carrier = InternalCategory.with_composition(c0, c1, d0, d1, i, join)
    except KeyError as exc:
        raise CertificateFailure(
            f"hom cell join missing from level 1: {exc.args[0]}") from exc
    ih = InternalHom(carrier, x, y, hom0, hom1, bound, (idx0, idx1))
    validate_hom_carrier(ih).certify("hom carrier")
    return ih


# ---------------------------------------------------------------------------
# Functors, cells and the hom-category: typed views over the naive oracle's
# searches, against which the end path is checked.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HomCategory:
    objects: tuple      # functors as (f0 table, f1 table)
    arrows: tuple       # cells as (src_index, tgt_index, component tuple)
    identity: tuple     # arrow index per object
    comp: dict          # (later, earlier) -> arrow index


def enumerate_functors(a: InternalCategory, b: InternalCategory,
                       bound: int = SIZE_BOUND):
    """All internal functors a -> b, ordered by (f0, f1) tables, as found by
    the naive oracle's functor search.

    SizeBound, with stage "oracle functors", past `bound` search steps."""
    funs = oracle_functors(a.oracle, b.oracle, bound)
    # objects come from range(|B0|) and arrows from b's hom-sets, so in range
    trusted, functor = FinMap._trusted, InternalFunctor._trusted
    return [functor(a, b, trusted(a.C0, b.C0, f0), trusted(a.C1, b.C1, f1))
            for f0, f1 in funs]


def enumerate_cells(f: InternalFunctor, g: InternalFunctor):
    """All 2-cells f => g, ordered by component table, as found by the naive
    oracle."""
    a, b = f.dom, f.cod
    comps = oracle_nat_trans(a.oracle, b.oracle, (f.f0.table, f.f1.table),
                             (g.f0.table, g.f1.table))
    return [InternalNatTrans(f, g, FinMap(a.C0, b.C1, c)) for c in comps]


def hom_category(a: InternalCategory, b: InternalCategory,
                 bound: int = SIZE_BOUND) -> HomCategory:
    """The hom-category of a and b as the naive oracle enumerates it, with its
    composition table; `bound` caps the functor search steps, the cells and
    the composable pairs of cells."""
    funs, arrows, cat = oracle_hom_category(a.oracle, b.oracle, bound)
    return HomCategory(tuple(funs), tuple(arrows), cat.identities, cat.comp)


def hom_iso_with_oracle(ih: InternalHom, hc: HomCategory):
    """An explicit isomorphism from the end-computed hom onto the enumerated
    one, as its object table and its cell table.

    Each end family decodes to functor tables, or to a cell's endpoints and
    components, located by search in the oracle's lists. The tables must be
    bijections that preserve endpoints, identities and composition, checked
    against hc's own tables. CertificateFailure if a family is missing from
    the lists or any of these checks fails.
    """
    obj_index = {h: i for i, h in enumerate(hc.objects)}
    arr_index = {arr: i for i, arr in enumerate(hc.arrows)}
    x, carrier = ih.dom, ih.carrier
    try:
        table0 = tuple(obj_index[fam.vertex(0)] for fam in ih.level0)
        table1 = tuple(
            arr_index[(obj_index[fam.vertex(0)], obj_index[fam.vertex(1)],
                       tuple(map(fam.eta1[(0, 1)].__getitem__, x.i.table)))]
            for fam in ih.level1)
        iso = (sorted(table0) == list(range(len(hc.objects)))
               and sorted(table1) == list(range(len(hc.arrows)))
               and all(hc.arrows[table1[u]][:2] == (table0[s], table0[t])
                       for u, (s, t) in enumerate(zip(carrier.d1.table,
                                                      carrier.d0.table)))
               and all(table1[e] == hc.identity[table0[xx]]
                       for xx, e in enumerate(carrier.i.table))
               and all(table1[w] == hc.comp.get((table1[u], table1[v]))
                       for (u, v), w in zip(carrier.pairs.tuples, carrier.m.table)))
    except (KeyError, IndexError) as exc:
        raise CertificateFailure(f"hom comparison failed: {exc!r}") from exc
    if not iso:
        raise CertificateFailure("hom comparison is not an isomorphism")
    return table0, table1

"""Finite 2-limits and cartesian structure of the category of internal
categories: terminal, binary products, pullbacks, powers by the free arrow,
extensive coproducts, copowers, and internal homs via the simplicial end.

The internal hom is computed by the end formula (see ends.py) as the
definitional path: its objects and cells are the level-0 and level-1 ends, and
its composition is the Segal join of composable cells, read off level 1
without a level-2 search. `bound` caps the object tables, the end search steps
(refused up front when the level-1 search's counted prefix exceeds it) and the
composable triples of cells that validating the result lists.

The functor, cell and hom-category searches all live in naive.py, which shares
no code with the end path: enumerate_functors, enumerate_cells and
hom_category are typed views over them, and hom_iso_with_oracle checks the
end hom against the oracle's hom-category.
"""

from dataclasses import dataclass

from . import finset
from .ends import Family, end_families
from .errors import CertificateFailure, DomainMismatch, SizeBound
from .finset import FinMap, FinObj, compose, identity
from .internal import (InternalCategory, InternalFunctor, InternalNatTrans,
                       compose_functors, derived_unit_maps, id_functor,
                       monotone_maps, validate_category, validate_functor,
                       validate_nat_trans, whisker_left)
from .naive import (oracle_from_internal, oracle_functors, oracle_hom_category,
                    oracle_nat_trans)
from .transfer import disc


def terminal_cat() -> InternalCategory:
    return disc(finset.terminal())


def bang_functor(a: InternalCategory) -> InternalFunctor:
    return InternalFunctor(a, terminal_cat(), finset.bang(a.C0), finset.bang(a.C1))


def _category_from_levels(l0, l1, a: InternalCategory, b: InternalCategory):
    """Internal category structure on chosen levelwise limits of a and b."""
    p1a, p1b = l1.projections
    d0 = l0.mediate(compose(a.d0, p1a), compose(b.d0, p1b))
    d1 = l0.mediate(compose(a.d1, p1a), compose(b.d1, p1b))
    p0a, p0b = l0.projections
    i = l1.mediate(compose(a.i, p0a), compose(b.i, p0b))
    return InternalCategory(l0.apex, l1.apex, d0, d1, i,
                            _pair_m(l0, l1, a, b, d0, d1))


def _pair_m(l0, l1, a, b, d0, d1):
    pairs = finset.pullback(d1, d0)
    p1a, p1b = l1.projections
    pr_u, pr_v = pairs.projections
    ua, va = compose(p1a, pr_u), compose(p1a, pr_v)
    ub, vb = compose(p1b, pr_u), compose(p1b, pr_v)
    ma = compose(a.m, a.pairs.mediate(ua, va))
    mb = compose(b.m, b.pairs.mediate(ub, vb))
    return l1.mediate(ma, mb)


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


def product_cat(a: InternalCategory, b: InternalCategory) -> LimitCone:
    l0 = finset.product(a.C0, b.C0)
    l1 = finset.product(a.C1, b.C1)
    cat = _category_from_levels(l0, l1, a, b)
    proj0 = InternalFunctor(cat, a, l0.projections[0], l1.projections[0])
    proj1 = InternalFunctor(cat, b, l0.projections[1], l1.projections[1])
    return LimitCone(cat, l0, l1, proj0, proj1)


def pullback_cat(f: InternalFunctor, g: InternalFunctor) -> LimitCone:
    if f.cod != g.cod:
        raise DomainMismatch("pullback needs a cospan of functors")
    l0 = finset.pullback(f.f0, g.f0)
    l1 = finset.pullback(f.f1, g.f1)
    cat = _category_from_levels(l0, l1, f.dom, g.dom)
    proj0 = InternalFunctor(cat, f.dom, l0.projections[0], l1.projections[0])
    proj1 = InternalFunctor(cat, g.dom, l0.projections[1], l1.projections[1])
    return LimitCone(cat, l0, l1, proj0, proj1)


@dataclass(frozen=True)
class CoproductCone:
    category: InternalCategory
    inj0: InternalFunctor
    inj1: InternalFunctor

    def copair(self, p: InternalFunctor, q: InternalFunctor) -> InternalFunctor:
        if p.cod != q.cod:
            raise DomainMismatch("copairing needs a common codomain")
        c = self.category
        f0 = finset.copair(p.f0, q.f0, c.C0, self.inj0.f0, self.inj1.f0)
        f1 = finset.copair(p.f1, q.f1, c.C1, self.inj0.f1, self.inj1.f1)
        return InternalFunctor(c, p.cod, f0, f1)


def coproduct_cat(a: InternalCategory, b: InternalCategory) -> CoproductCone:
    """Levelwise disjoint union, a's elements first."""
    c0, i00, i01 = finset.coproduct(a.C0, b.C0)
    c1, i10, i11 = finset.coproduct(a.C1, b.C1)
    d0 = finset.copair(compose(i00, a.d0), compose(i01, b.d0), c1, i10, i11)
    d1 = finset.copair(compose(i00, a.d1), compose(i01, b.d1), c1, i10, i11)
    i = finset.copair(compose(i10, a.i), compose(i11, b.i), c0, i00, i01)
    pairs = finset.pullback(d1, d0)
    na = a.C1.size
    table = []
    for u, v in pairs.tuples:
        if u < na:
            table.append(i10.table[a.comp(u, v)])
        else:
            table.append(i11.table[b.comp(u - na, v - na)])
    m = FinMap(pairs.apex, c1, tuple(table))
    cat = InternalCategory(c0, c1, d0, d1, i, m)
    inj0 = InternalFunctor(a, cat, i00, i10)
    inj1 = InternalFunctor(b, cat, i01, i11)
    return CoproductCone(cat, inj0, inj1)


_FREE_ARROW = None


def free_arrow() -> InternalCategory:
    """The free-living internal arrow: 2 objects, 3 arrows, one non-identity."""
    global _FREE_ARROW
    if _FREE_ARROW is None:
        c0 = FinObj(2, ("src", "tgt"))
        c1 = FinObj(3, ("id_src", "id_tgt", "arrow"))
        d1 = FinMap(c1, c0, (0, 1, 0))   # sources
        d0 = FinMap(c1, c0, (0, 1, 1))   # targets
        i = FinMap(c0, c1, (0, 1))
        cat = InternalCategory(c0, c1, d0, d1, i,
                               FinMap(FinObj(4), c1, (0, 1, 2, 2)))
        validate_category(cat).certify("free arrow")
        _FREE_ARROW = cat
    return _FREE_ARROW


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
        a = cell.src.cod
        f, g = cell.src, cell.tgt
        table = []
        for u in range(f.dom.C1.size):
            x, y = f.dom.d1.table[u], f.dom.d0.table[u]
            p = a.pairs.encode((g.f1.table[u], cell.alpha.table[x]))
            q = a.pairs.encode((cell.alpha.table[y], f.f1.table[u]))
            table.append(self.squares.encode((p, q)))
        return InternalFunctor(f.dom, self.carrier, cell.alpha,
                               FinMap(f.dom.C1, self.carrier.C1, tuple(table)))


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
    carrier_d0, carrier_d1 = v_map, u_map
    pairs = finset.pullback(carrier_d1, carrier_d0)
    pr_s, pr_t = pairs.projections
    kk = compose(a.m, a.pairs.mediate(compose(k_map, pr_s), compose(k_map, pr_t)))
    hh = compose(a.m, a.pairs.mediate(compose(h_map, pr_s), compose(h_map, pr_t)))
    p_new = a.pairs.mediate(kk, compose(u_map, pr_t))
    q_new = a.pairs.mediate(compose(v_map, pr_s), hh)
    m_sq = sq.mediate(p_new, q_new)
    carrier = InternalCategory(a.C1, sq.apex, carrier_d0, carrier_d1, i_sq, m_sq)
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
        """The functor 2 x A -> B corresponding to a 2-cell f => g : A -> B."""
        f, g = cell.src, cell.tgt
        a, b = f.dom, f.cod
        table0 = []
        for j, x in self.prod.l0.tuples:
            table0.append(f.f0.table[x] if j == 0 else g.f0.table[x])
        table1 = []
        for e, u in self.prod.l1.tuples:
            if e == 0:
                table1.append(f.f1.table[u])
            elif e == 1:
                table1.append(g.f1.table[u])
            else:
                x = a.d1.table[u]
                table1.append(b.comp(g.f1.table[u], cell.alpha.table[x]))
        return InternalFunctor(self.carrier, b,
                               FinMap(self.carrier.C0, b.C0, tuple(table0)),
                               FinMap(self.carrier.C1, b.C1, tuple(table1)))

    def functor_to_cell(self, h: InternalFunctor) -> InternalNatTrans:
        return whisker_left(h, self.universal_cell)


def copower_by_two(a: InternalCategory) -> CopowerByTwo:
    two = free_arrow()
    prod = product_cat(two, a)
    carrier = prod.category
    in0 = prod.mediate(constant_functor(a, two, 0), id_functor(a))
    in1 = prod.mediate(constant_functor(a, two, 1), id_functor(a))
    alpha = FinMap(a.C0, carrier.C1,
                   tuple(prod.l1.encode((2, a.i.table[x])) for x in range(a.C0.size)))
    cell = InternalNatTrans(in0, in1, alpha)
    validate_nat_trans(cell).certify("copower by 2: universal cell")
    return CopowerByTwo(carrier, prod, in0, in1, cell)


# ---------------------------------------------------------------------------
# Internal hom via the end formula.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InternalHom:
    carrier: InternalCategory
    dom: InternalCategory    # the exponent X
    cod: InternalCategory    # the target Y
    prod: LimitCone          # carrier x X, domain of evaluation
    evaluation: InternalFunctor
    level0: tuple            # Family objects for functors
    level1: tuple            # Family objects for cells

    def curry(self, z: InternalCategory, prod_zx: LimitCone,
              h: InternalFunctor) -> InternalFunctor:
        """Transpose a functor Z x X -> Y (over the chosen product) to Z -> hom."""
        x, y = self.dom, self.cod
        if h.dom != prod_zx.category or h.cod != y:
            raise DomainMismatch("curry needs a functor Z x X -> Y")
        idx0 = {f.key(): i for i, f in enumerate(self.level0)}
        idx1 = {f.key(): i for i, f in enumerate(self.level1)}
        zn = z.nerve

        def family_for(z_simplex, k):
            eta0 = {}
            eta1 = {}
            for psi in monotone_maps(0, k):
                zs = zn.act(psi, k, 0).table[z_simplex]
                eta0[psi] = tuple(h.f0.table[prod_zx.l0.encode((zs, xv))]
                                  for xv in range(x.C0.size))
            for psi in monotone_maps(1, k):
                za = zn.act(psi, k, 1).table[z_simplex]
                eta1[psi] = tuple(h.f1.table[prod_zx.l1.encode((za, aa))]
                                  for aa in range(x.C1.size))
            return Family(k, eta0, eta1)

        f0 = FinMap(z.C0, self.carrier.C0,
                    tuple(idx0[family_for(zz, 0).key()] for zz in range(z.C0.size)))
        f1 = FinMap(z.C1, self.carrier.C1,
                    tuple(idx1[family_for(zz, 1).key()] for zz in range(z.C1.size)))
        return InternalFunctor(z, self.carrier, f0, f1)


def _composable_triples(d0: FinMap, d1: FinMap) -> int:
    """Number of composable triples of arrows with targets d0 and sources d1,
    counted from in- and out-degrees without listing them."""
    into = [0] * d0.cod.size
    out_of = [0] * d0.cod.size
    for t in d0.table:
        into[t] += 1
    for s in d1.table:
        out_of[s] += 1
    return sum(out_of[t] * into[s] for t, s in zip(d0.table, d1.table))


def internal_hom(x: InternalCategory, y: InternalCategory,
                 bound: int = 10 ** 6) -> InternalHom:
    """The internal hom [x, y]: levels 0 and 1 are the stated ends, and
    composition is the Segal join of composable level-1 cells.

    SizeBound, with its `stage`, if there are more than `bound` object
    tables, if an end search would exceed `bound` steps or the hom has more
    than `bound` composable triples of cells. The level-1 end refuses up
    front, before searching past its functor blocks, when the steps it must
    spend before its second jump cell, counted exactly, exceed `bound`.
    CertificateFailure if the result fails its own validation.
    """
    if x.C0.size and y.C0.size ** x.C0.size > bound:
        tables = y.C0.size ** x.C0.size
        raise SizeBound(f"{tables} object tables, over the bound {bound}",
                        stage="object tables", steps=tables, bound=bound)
    hom0 = end_families(x, y, 0, bound)
    hom1 = end_families(x, y, 1, bound)
    idx0 = {f.key(): i for i, f in enumerate(hom0)}
    idx1 = {f.key(): i for i, f in enumerate(hom1)}

    def vertex_key(fam, t):
        return (fam.eta0[(t,)], fam.eta1[(t, t)])

    c0 = FinObj(len(hom0))
    c1 = FinObj(len(hom1))
    d0 = FinMap(c1, c0, tuple(idx0[vertex_key(f, 1)] for f in hom1))
    d1 = FinMap(c1, c0, tuple(idx0[vertex_key(f, 0)] for f in hom1))
    triples = _composable_triples(d0, d1)
    if triples > bound:
        raise SizeBound(f"hom has {triples} composable triples of cells, "
                        f"over the bound {bound}", stage="composable triples",
                        steps=triples, bound=bound)
    # the composite of u after v at an arrow a: p -> q of x is u at q after
    # v's diagonal at a; its other slots are v's source and u's target
    at_target = tuple(x.i.table[q] for q in x.d0.table)
    y_pair, y_m = y.pairs.index, y.m.table
    pairs = finset.pullback(d1, d0)
    try:
        i = FinMap(c0, c1, tuple(
            idx1[(f.eta0[(0,)], f.eta0[(0,)], f.eta1[(0, 0)], f.eta1[(0, 0)],
                  f.eta1[(0, 0)])] for f in hom0))
        table = []
        for cu, cv in pairs.tuples:
            u, v = hom1[cu], hom1[cv]
            u_diag, v_diag = u.eta1[(0, 1)], v.eta1[(0, 1)]
            diag = tuple(y_m[y_pair[(u_diag[t], v_diag[a])]]
                         for a, t in enumerate(at_target))
            table.append(idx1[(v.eta0[(0,)], u.eta0[(1,)], v.eta1[(0, 0)],
                               diag, u.eta1[(1, 1)])])
    except KeyError as exc:
        raise CertificateFailure(
            f"hom cell join missing from level 1: {exc.args[0]}") from exc
    m = FinMap(pairs.apex, c1, tuple(table))
    carrier = InternalCategory(c0, c1, d0, d1, i, m)
    validate_category(carrier).certify("hom carrier")
    prod = product_cat(carrier, x)
    ev0 = FinMap(prod.l0.apex, y.C0,
                 tuple(hom0[fi].eta0[(0,)][xv] for fi, xv in prod.l0.tuples))
    ev1 = FinMap(prod.l1.apex, y.C1,
                 tuple(hom1[ci].eta1[(0, 1)][a] for ci, a in prod.l1.tuples))
    evaluation = InternalFunctor(prod.category, y, ev0, ev1)
    validate_functor(evaluation).certify("evaluation")
    return InternalHom(carrier, x, y, prod, evaluation, tuple(hom0), tuple(hom1))


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
                       bound: int = 10 ** 6):
    """All internal functors a -> b, ordered by (f0, f1) tables, as found by
    the naive oracle's functor search.

    SizeBound, with stage "oracle functors", past `bound` search steps."""
    funs = oracle_functors(oracle_from_internal(a), oracle_from_internal(b), bound)
    return [InternalFunctor(a, b, FinMap(a.C0, b.C0, f0), FinMap(a.C1, b.C1, f1))
            for f0, f1 in funs]


def enumerate_cells(f: InternalFunctor, g: InternalFunctor):
    """All 2-cells f => g, ordered by component table, as found by the naive
    oracle."""
    a, b = f.dom, f.cod
    comps = oracle_nat_trans(oracle_from_internal(a), oracle_from_internal(b),
                             (f.f0.table, f.f1.table), (g.f0.table, g.f1.table))
    return [InternalNatTrans(f, g, FinMap(a.C0, b.C1, c)) for c in comps]


def hom_category(a: InternalCategory, b: InternalCategory,
                 bound: int = 10 ** 6) -> HomCategory:
    """The hom-category of a and b as the naive oracle enumerates it, with its
    composition table; `bound` caps the functor search steps, the cells and
    the composable pairs of cells."""
    funs, arrows, cat = oracle_hom_category(
        oracle_from_internal(a), oracle_from_internal(b), bound)
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
        table0 = tuple(obj_index[(fam.eta0[(0,)], fam.eta1[(0, 0)])]
                       for fam in ih.level0)
        table1 = tuple(
            arr_index[(obj_index[(fam.eta0[(0,)], fam.eta1[(0, 0)])],
                       obj_index[(fam.eta0[(1,)], fam.eta1[(1, 1)])],
                       tuple(fam.eta1[(0, 1)][x.i.table[xx]]
                             for xx in range(x.C0.size)))]
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

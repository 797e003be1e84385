"""A naive finite-category representation with its own validator and
enumerators. This is the independent oracle: it shares with the
internal-category validators and the end-formula path only the error types,
the step counter errors.Budget and the default bound errors.SIZE_BOUND, none
of which can confirm a result, so a shared bug cannot silently confirm itself.

Its searches for functors, natural transformations and hom-categories are the
package's only ones; limits.enumerate_functors, enumerate_cells and
hom_category are typed views over them.

A bounded search counts one step per candidate it tries, as a search that
tries them one at a time would count them, so a call is refused exactly when
that count passes the bound. The functor search counts its object steps in
closed form before it walks the object tables, each arrow's candidates when
it reaches the arrow, and a run of identities, which does not branch, once.

The natural transformation searches (one pair, all pairs, the hom-category)
share one helper. It searches a functor pair (f, g) only when every hom-set
b(f x, g x) is inhabited, since a pair with an empty one has no cell, and it
checks each naturality square once, when the later of its two components is
set. The hom-category's bounds count cells and composable pairs of cells,
not pairs visited, so the skipped pairs change no count.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import compress, product, repeat

from .errors import SIZE_BOUND, Budget, SizeBound


@dataclass(frozen=True)
class NaiveCategory:
    """objects: count; arrows: (source, target) pairs; comp[(g, f)] = g after f
    for target(f) = source(g); identities: arrow index per object."""

    objects: int
    arrows: tuple
    identities: tuple
    comp: dict

    @cached_property
    def homs(self):
        """Arrow indices keyed by (source, target), in arrow order."""
        out = {}
        for a, key in enumerate(self.arrows):
            out.setdefault(key, []).append(a)
        return {key: tuple(arrows) for key, arrows in out.items()}


def validate_naive(c: NaiveCategory):
    """Ordinary category axioms, checked directly on the tables."""
    problems = []
    if len(c.identities) != c.objects:
        problems.append("identities must list one arrow per object")
        return problems
    for x, e in enumerate(c.identities):
        if c.arrows[e] != (x, x):
            problems.append(f"identity of {x} has wrong endpoints")
    for g, (sg, tg) in enumerate(c.arrows):
        for f, (sf, tf) in enumerate(c.arrows):
            if tf == sg:
                if (g, f) not in c.comp:
                    problems.append(f"missing composite ({g}, {f})")
                    continue
                h = c.comp[(g, f)]
                if c.arrows[h] != (sf, tg):
                    problems.append(f"composite ({g}, {f}) has wrong endpoints")
            elif (g, f) in c.comp:
                problems.append(f"composite defined for non-composable ({g}, {f})")
    if problems:
        # unit/associativity lookups need every composite, well-shaped, first
        return problems
    for x in range(c.objects):
        e = c.identities[x]
        for a, (s, t) in enumerate(c.arrows):
            if s == x and c.comp.get((a, e)) != a:
                problems.append(f"right unit fails at {a}")
            if t == x and c.comp.get((e, a)) != a:
                problems.append(f"left unit fails at {a}")
    for h, (sh, th) in enumerate(c.arrows):
        for g, (sg, tg) in enumerate(c.arrows):
            if tg != sh:
                continue
            for f, (sf, tf) in enumerate(c.arrows):
                if tf != sg:
                    continue
                if c.comp[(c.comp[(h, g)], f)] != c.comp[(h, c.comp[(g, f)])]:
                    problems.append(f"associativity fails at ({h}, {g}, {f})")
    return problems


def oracle_from_internal(cat) -> NaiveCategory:
    """Convert an internal category's tables to the naive representation."""
    arrows = tuple((cat.d1.table[a], cat.d0.table[a]) for a in range(cat.C1.size))
    identities = tuple(cat.i.table)
    comp = {}
    for p, (u, v) in enumerate(cat.pairs.tuples):
        comp[(u, v)] = cat.m.table[p]
    return NaiveCategory(cat.C0.size, arrows, identities, comp)


def oracle_functors(a: NaiveCategory, b: NaiveCategory, bound: int = SIZE_BOUND):
    """All functors a -> b as (object table, arrow table) pairs, sorted: the
    object tables in lexicographic order, and for each, arrow assignments by
    backtracking in arrow order.

    An identity goes to the identity of its object's image, so a run of
    identities is assigned in a loop, without branching. Each composition
    triangle of a is checked once, at the arrow that completes it: the
    largest of its two factors and its composite. An arrow that is the
    composite of two earlier ones can only go to their composite, so that is
    the one candidate checked. When a's identities are loops and b's
    identities are units (checked once per call), a triangle that only
    restates a unit law, g . 1 = g or 1 . f = f, holds for every candidate
    and is not checked.

    `bound` caps the search steps, one per object or arrow candidate tried:
    one per node of the tree of partial object tables, sum of |B0| ** l for
    l = 1..|A0|, counted before the walk; then, per object table, each
    arrow's candidates when it is reached. SizeBound("oracle functors",
    bound + 1, bound) exactly when that count passes `bound`."""
    budget = Budget(bound, "oracle functors")
    budget.spend(sum(b.objects ** depth for depth in range(1, a.objects + 1)))
    n, a_arrows, a_ids = len(a.arrows), a.arrows, set(a.identities)
    homs, b_ids, b_arrows, b_comp = b.homs, b.identities, b.arrows, b.comp
    units = (all(a_arrows[e] == (x, x) for x, e in enumerate(a.identities))
             and all(b_arrows[e] == (x, x) for x, e in enumerate(b_ids))
             and all(b_comp.get((b_ids[t], y)) == y == b_comp.get((y, b_ids[s]))
                     for y, (s, t) in enumerate(b_arrows)))
    completes = [[] for _ in a_arrows]
    for (g, f), gf in a.comp.items():
        unit_law = (g in a_ids and gf == f and a_arrows[f][1] == a_arrows[g][0]
                    or f in a_ids and gf == g and a_arrows[g][0] == a_arrows[f][0])
        if not (units and unit_law):
            completes[max(g, f, gf)].append((g, f, gf))
    plan = [(s, t, a.identities[s] == k,
             next(((g, f) for g, f, gf in completes[k] if gf == k and k not in (g, f)),
                  None),
             completes[k])
            for k, (s, t) in enumerate(a_arrows)]
    spend = budget.spend
    results = []
    arr = [None] * n
    obj = ()  # the object table, set by the walk below

    def extend(k):
        start = k
        while k < n:
            s, t, ident, forced, triangles = plan[k]
            if not ident:
                break
            arr[k] = b_ids[obj[s]]
            for g, f, gf in triangles:
                if b_comp[arr[g], arr[f]] != arr[gf]:
                    spend(k + 1 - start)
                    return
            k += 1
        else:
            spend(k - start)
            results.append((obj, tuple(arr)))
            return
        ends = (obj[s], obj[t])
        cands = homs.get(ends, ())
        spend(k - start + len(cands))
        if forced is not None and cands:
            y = b_comp[arr[forced[0]], arr[forced[1]]]
            cands = (y,) if b_arrows[y] == ends else ()
        for y in cands:
            arr[k] = y
            for g, f, gf in triangles:
                if b_comp[arr[g], arr[f]] != arr[gf]:
                    break
            else:
                extend(k + 1)

    for obj in product(range(b.objects), repeat=a.objects):
        extend(0)
    results.sort()
    return results


def _cells(a: NaiveCategory, b: NaiveCategory, sources, targets):
    """(source index, target index, components) of every natural
    transformation from one of `sources` to one of `targets`, by source,
    then target, then components in lexicographic order.

    A pair f, g with an empty hom-set b(f x, g x) has no cell and is not
    searched; the targets of each source are filtered in C. The components
    of the other pairs are found by backtracking over the objects of a in
    order. The squares are listed once per call: the arrow u: s -> t is
    checked when the component at max(s, t) is set."""
    squares = [[] for _ in range(a.objects)]
    for u, (s, t) in enumerate(a.arrows):
        squares[max(s, t)].append((u, s, t))
    homs, b_comp, last = b.homs, b.comp, a.objects
    has_arrows = set(homs).issuperset
    comp, found = [None] * last, []
    cands = arr_f = arr_g = None  # the pair being searched, set below

    def rec(x):
        if x == last:
            found.append(tuple(comp))
            return
        for c in cands[x]:
            comp[x] = c
            for u, s, t in squares[x]:
                if b_comp[arr_g[u], comp[s]] != b_comp[comp[t], arr_f[u]]:
                    break
            else:
                rec(x + 1)

    target_objects = [obj for obj, _arr in targets]
    for si, (obj_f, arr_f) in enumerate(sources):
        # the targets g with every b(f x, g x) inhabited, tested in C
        live = compress(enumerate(targets),
                        map(has_arrows, map(zip, repeat(obj_f), target_objects)))
        for ti, (obj_g, arr_g) in live:
            cands = [homs[ends] for ends in zip(obj_f, obj_g)]
            rec(0)
            for components in found:
                yield si, ti, components
            found.clear()


def oracle_nat_trans(a: NaiveCategory, b: NaiveCategory, fun_f, fun_g):
    """All natural transformations between two oracle functors, as component
    tuples indexed by objects of a, sorted."""
    return [comp for _f, _g, comp in _cells(a, b, (fun_f,), (fun_g,))]


def count_all_nat_trans(a: NaiveCategory, b: NaiveCategory, functors):
    """Total count of natural transformations over all ordered functor pairs."""
    return sum(1 for _cell in _cells(a, b, functors, functors))


def oracle_hom_category(a: NaiveCategory, b: NaiveCategory, bound: int = SIZE_BOUND):
    """The hom-category as a naive category: objects are oracle functors,
    arrows are (source index, target index, component tuple), composition is
    pointwise in b. `bound` caps the functor search steps, the cells and the
    composable pairs of cells (stages "oracle functors", "oracle cells" and
    "oracle composable cell pairs"). Returns (functors, arrows,
    NaiveCategory).

    Only the functor pairs (f, g) with every b(f x, g x) inhabited are
    searched for cells; the others have none. So the cells, their order and
    the counts the bound is held to are those of a search of every pair."""
    funs = oracle_functors(a, b, bound)
    arrows = []
    for cell in _cells(a, b, funs, funs):
        arrows.append(cell)
        SizeBound.check(len(arrows), bound, "oracle cells", "cells")
    index = {arr: i for i, arr in enumerate(arrows)}
    b_id = b.identities.__getitem__
    identities = tuple(index[(i, i, tuple(map(b_id, obj)))]
                       for i, (obj, _arr) in enumerate(funs))
    by_target = [[] for _ in funs]
    for i1, (_s1, t1, _c1) in enumerate(arrows):
        by_target[t1].append(i1)
    cell_pairs = sum(len(by_target[s2]) for s2, _t2, _c2 in arrows)
    SizeBound.check(cell_pairs, bound, "oracle composable cell pairs",
                    "composable pairs of cells")
    comp, b_comp = {}, b.comp.__getitem__
    for i2, (s2, t2, c2) in enumerate(arrows):
        for i1 in by_target[s2]:
            s1, _t1, c1 = arrows[i1]
            comp[(i2, i1)] = index[(s1, t2, tuple(map(b_comp, zip(c2, c1))))]
    cat = NaiveCategory(len(funs),
                        tuple((s, t) for s, t, _c in arrows),
                        identities, comp)
    return funs, arrows, cat

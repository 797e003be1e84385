"""A naive finite-category representation with its own validator and
enumerators. This is the independent oracle: it shares with the
internal-category validators and the end-formula path only the error types and
the step counter errors.Budget, neither of which can confirm a result, so a
shared bug cannot silently confirm itself.

Its searches for functors, natural transformations and hom-categories are the
package's only ones; limits.enumerate_functors, enumerate_cells and
hom_category are typed views over them.
"""

from dataclasses import dataclass
from functools import cached_property

from .errors import Budget, SizeBound


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


def oracle_functors(a: NaiveCategory, b: NaiveCategory, bound: int = 10 ** 6):
    """All functors a -> b as (object table, arrow table) pairs, enumerated by
    backtracking over object tables and then arrow assignments in arrow order.

    An identity goes to the identity of its object's image. Each composition
    triangle of a is checked once, at the arrow that completes it: the
    largest of its two factors and its composite. `bound` caps the search
    steps, one per object or arrow candidate tried."""
    results = []
    budget = Budget(bound, "oracle functors")
    obj = [None] * a.objects
    arr = [None] * len(a.arrows)
    completes = [[] for _ in a.arrows]
    for (g, f), gf in a.comp.items():
        completes[max(g, f, gf)].append((g, f, gf))

    def obj_rec(x):
        if x == a.objects:
            arr_rec(0)
            return
        for y in range(b.objects):
            budget.tick()
            obj[x] = y
            obj_rec(x + 1)

    def arr_rec(k):
        if k == len(a.arrows):
            results.append((tuple(obj), tuple(arr)))
            return
        s, t = a.arrows[k]
        if a.identities[s] == k:
            cands = [b.identities[obj[s]]]
        else:
            cands = b.homs.get((obj[s], obj[t]), ())
        for y in cands:
            budget.tick()
            arr[k] = y
            if all(b.comp[(arr[g], arr[f])] == arr[gf]
                   for g, f, gf in completes[k]):
                arr_rec(k + 1)

    obj_rec(0)
    results.sort()
    return results


def oracle_nat_trans(a: NaiveCategory, b: NaiveCategory, fun_f, fun_g):
    """All natural transformations between two oracle functors, as component
    tuples indexed by objects of a."""
    obj_f, arr_f = fun_f
    obj_g, arr_g = fun_g
    results = []
    comp = [None] * a.objects

    def rec(x):
        if x == a.objects:
            results.append(tuple(comp))
            return
        for c in b.homs.get((obj_f[x], obj_g[x]), ()):
            comp[x] = c
            if all(b.comp[(arr_g[u], comp[s])] == b.comp[(comp[t], arr_f[u])]
                   for u, (s, t) in enumerate(a.arrows)
                   if comp[s] is not None and comp[t] is not None):
                rec(x + 1)
            comp[x] = None

    rec(0)
    results.sort()
    return results


def count_all_nat_trans(a: NaiveCategory, b: NaiveCategory, functors):
    """Total count of natural transformations over all ordered functor pairs."""
    return sum(len(oracle_nat_trans(a, b, f, g)) for f in functors for g in functors)


def oracle_hom_category(a: NaiveCategory, b: NaiveCategory, bound: int = 10 ** 6):
    """The hom-category as a naive category: objects are oracle functors,
    arrows are (source index, target index, component tuple), composition is
    pointwise in b. `bound` caps the functor search steps, the cells and the
    composable pairs of cells (stages "oracle functors", "oracle cells" and
    "oracle composable cell pairs"). Returns (functors, arrows,
    NaiveCategory)."""
    funs = oracle_functors(a, b, bound)
    arrows = []
    for si, f in enumerate(funs):
        for ti, g in enumerate(funs):
            for comp in oracle_nat_trans(a, b, f, g):
                arrows.append((si, ti, comp))
                SizeBound.check(len(arrows), bound, "oracle cells", "cells")
    index = {arr: i for i, arr in enumerate(arrows)}
    identities = tuple(
        index[(i, i, tuple(b.identities[f[0][x]] for x in range(a.objects)))]
        for i, f in enumerate(funs))
    by_target = [[] for _ in funs]
    for i1, (_s1, t1, _c1) in enumerate(arrows):
        by_target[t1].append(i1)
    cell_pairs = sum(len(by_target[s2]) for s2, _t2, _c2 in arrows)
    SizeBound.check(cell_pairs, bound, "oracle composable cell pairs",
                    "composable pairs of cells")
    comp = {}
    for i2, (s2, t2, c2) in enumerate(arrows):
        for i1 in by_target[s2]:
            s1, _t1, c1 = arrows[i1]
            composite = tuple(b.comp[(c2[x], c1[x])] for x in range(a.objects))
            comp[(i2, i1)] = index[(s1, t2, composite)]
    cat = NaiveCategory(len(funs),
                        tuple((s, t) for s, t, _c in arrows),
                        identities, comp)
    return funs, arrows, cat

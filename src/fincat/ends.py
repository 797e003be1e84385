"""Simplicial ends over the three-truncated simplex category.

Level k of the internal hom of two internal categories is the end, over
[n] in the truncation, of the products of mapping objects indexed by the
monotone maps [n] -> [k]; concretely, the subobject of a finite product of
table objects cut out by the naturality equations (an equalizer of two maps
between finite products). A family eta assigns to each slot (n, psi) a table
X_n -> Y_n, and the equations say

    eta[m, psi . theta] . X_theta = Y_theta . eta[n, psi]

for every monotone theta: [m] -> [n] and psi: [n] -> [k].

Everything that depends on X and k alone is X's level-k plan (`EndPlan`):
the slots at levels 0 and 1 in one order, the flat layout of their tables,
the search's cell order and each cell's flat indices, and the cylinder
[k] x X that the naturality check reads. X owns its plans, one per k, built
on first use and kept on the category (`InternalCategory.end_plans`), so the
search and the check out of X read one plan. The solver enumerates the
level-0 and level-1 slot tables entry by entry, in the plan's order, writing
one flat list. The endpoint and degeneracy equations limit each entry's
candidates. Each composition instance is checked once, inline through Y's
pairs index and composition table, at the entry that completes it in that
order, and an entry is forced by the first instance whose two factors come
before it. Solutions are returned in the lexicographic order of the ambient
product encoding, and `budget` caps the search steps.

The functor at each vertex t <= k is a level-0 solution, so the search runs
the t = 0 block (the level-0 search) once, copies each (k + 1)-tuple of its
completions in turn into the plan's vertex rows, and searches only the jump
slots. A jump slot takes its arrows by larger endpoint, identity first: each
identity entry is a component, and each other entry is then forced and
checked by the components at its ends. The first jump cell x -> x', in the
slot (0, 1), is neither: its candidates are all of Y(F0 x, F1 x'). The
tuples are walked as (F0, F1, rest), and when Y(F0 x, F1 x') is empty no
tuple starting with F0, F1 has a family: each would spend its own step and
find no candidate for that cell. Those tuples are not walked; their steps
are spent at once, so the counts and refusals are those of a search that
walks every tuple.

The internal hom (limits.internal_hom) uses only levels 0 and 1: level 2 of a
Segal category is the join of composable level-1 cells, so its composition is
built from level 1 directly. A family's key is its eta0 tables, then its
eta1 tables, in psi order (Family.key), and the hom numbers a level-1 family
by its source and target functors' numbers and its diagonal.

A category's nerve is determined by its levels 0 to 2 (it is 2-coskeletal),
so a level-k family is natural at every level up to 3 exactly when its
tables form a functor [k] x X -> Y, for [k] the ordinal (`ordinal`).
`check_family` joins the eta0 tables in psi order into the object table
over the chosen product [k] x X, whose row t holds the objects at vertex t,
and the eta1 tables into its arrow table, whose row psi holds the arrows over
psi: [1] -> [k], and certifies that functor with `validate_functor`. The
level-2 and level-3 ends stay available; the tests check every level against
the naive functor search on [k] x X.
"""

from itertools import accumulate, product as iproduct

from .errors import SIZE_BOUND, Budget
from .finset import FinMap
from .internal import (InternalCategory, InternalFunctor, monotone_maps, ordinal,
                       validate_functor)


class Family:
    """A solved family: tables for every slot at levels 0 and 1."""

    __slots__ = ("k", "eta0", "eta1", "_key")

    def __init__(self, k, eta0, eta1):
        self.k = k
        self.eta0 = eta0  # dict psi -> tuple over X0
        self.eta1 = eta1  # dict psi -> tuple over X1
        # the eta0 tables, then the eta1 tables, each in psi order
        self._key = (tuple(map(eta0.__getitem__, sorted(eta0)))
                     + tuple(map(eta1.__getitem__, sorted(eta1))))

    def key(self):
        return self._key

    def __eq__(self, other):
        return (isinstance(other, Family) and self.k == other.k
                and self._key == other._key)

    def __hash__(self):
        return hash((self.k, self._key))

    def vertex(self, t):
        """The level-0 key of the functor at vertex t: (object, arrow) tables."""
        return self.eta0[(t,)], self.eta1[(t, t)]


class EndPlan:
    """The plan of the level-k end out of X: what its search and its
    naturality check read that depends on X and k alone.

    A family's slot tables at levels 0 and 1, concatenated in psi order,
    form one flat list of `size` entries: the tables eta0[(t,)] over X0 for
    t <= k, then eta1[psi] over X1 for psi: [1] -> [k], at the slices in
    `rows0` and `rows1`. The functor at vertex t is copied into the rows
    `vertex_rows[t]` of eta0[(t,)] and eta1[(t, t)]. `cells` lists the
    cells in assignment order, the first `block` of them the t = 0 block and
    the next, when there is one, the first jump cell, each as flat indices
    (entry, source, target, identity, forced, completes):

      * entry: the entry the cell sets;
      * source, target: the entries holding its endpoints' images (None for
        an object cell, whose candidates are all of Y0);
      * identity: for a degenerate cell, the entry of the object whose
        identity it must be, else None;
      * forced: the two factors (u, v) of the first instance whose factors
        come before the cell, which force it to be their composite, else None;
      * completes: the instances (u, v, uv) whose last cell it is, checked
        as m_Y(eta[u], eta[v]) = eta[uv] once the cell is set.

    `cylinder` is the chosen product [k] x X (a `limits.LimitCone`), whose
    row t of objects is the slice of eta0[(t,)] and row psi of arrows that
    of eta1[psi]; the search never reads it, so it is None until the first
    `check_family` out of X at level k."""

    __slots__ = ("size", "rows0", "rows1", "vertex_rows", "block", "cells",
                 "cylinder")

    def __init__(self, x_cat: InternalCategory, k: int):
        x0, x1 = x_cat.C0.size, x_cat.C1.size
        d0, d1 = x_cat.d0.table, x_cat.d1.table
        # a slot's psi has n + 1 values, so psi alone names the slot
        widths = ([(psi, x0) for psi in monotone_maps(0, k)]
                  + [(psi, x1) for psi in monotone_maps(1, k)])
        offset = dict(zip((psi for psi, _w in widths),
                          accumulate((w for _psi, w in widths), initial=0)))
        rows = {psi: slice(offset[psi], offset[psi] + w) for psi, w in widths}
        self.size = sum(w for _psi, w in widths)
        self.rows0 = tuple((psi, rows[psi]) for psi in monotone_maps(0, k))
        self.rows1 = tuple((psi, rows[psi]) for psi in monotone_maps(1, k))
        self.vertex_rows = tuple((rows[(t,)], rows[(t, t)]) for t in range(k + 1))
        self.cylinder = None
        degenerate = {x_cat.i.table[x]: x for x in range(x0)}

        # assignment order: the t = 0 functor block, then the jump slots with
        # the narrowest jumps first; within a jump slot the arrows go by
        # larger endpoint, identity first, so that every other entry is
        # forced and checked right after the components at its ends
        order = [((0,), x) for x in range(x0)] + [((0, 0), a) for a in range(x1)]
        self.block = len(order)
        jump_order = sorted((psi for psi, _at in self.rows1 if psi[0] != psi[1]),
                            key=lambda psi: (psi[1] - psi[0], psi[0]))
        arrows_by_larger_end = sorted(
            range(x1), key=lambda a: (max(d0[a], d1[a]), a not in degenerate, a))
        for psi in jump_order:
            order += [(psi, a) for a in arrows_by_larger_end]
        entries = [offset[psi] + elem for psi, elem in order]

        # composition instances m_Y(eta1[s12][u], eta1[s01][v]) = eta1[s02][uv],
        # placed by the order above: the vertex rows t > 0 are set before any
        # jump cell (place -1). An instance is checked once, at the cell that
        # completes it, so one made of vertex cells at t > 0 alone is never
        # checked; a cell is forced by the first instance whose two factors
        # are placed before it.
        place = dict(zip(entries, range(len(entries))))
        completes = [[] for _ in entries]
        forced_by = {}
        for psi2 in monotone_maps(2, k):
            at12 = offset[(psi2[1], psi2[2])]
            at01 = offset[(psi2[0], psi2[1])]
            at02 = offset[(psi2[0], psi2[2])]
            for (u, v), uv in zip(x_cat.pairs.tuples, x_cat.m.table):
                inst = (at12 + u, at01 + v, at02 + uv)
                at_u, at_v, at_uv = (place.get(e, -1) for e in inst)
                last = max(at_u, at_v, at_uv)
                if last >= 0:
                    completes[last].append(inst)
                if max(at_u, at_v) < at_uv:
                    forced_by.setdefault(inst[2], inst[:2])

        cells = []
        for entry, (psi, elem), checks in zip(entries, order, completes):
            if len(psi) == 1:
                cells.append((entry, None, None, None, None, ()))
                continue
            s, t = psi
            identity = (offset[(t,)] + degenerate[elem]
                        if s == t and elem in degenerate else None)
            cells.append((entry, offset[(s,)] + d1[elem], offset[(t,)] + d0[elem],
                          identity, forced_by.get(entry), tuple(checks)))
        self.cells = tuple(cells)


def _plan(x_cat: InternalCategory, k: int) -> EndPlan:
    """X's level-k plan, built on first use and kept in `x_cat.end_plans`."""
    plans = x_cat.end_plans
    plan = plans.get(k)
    if plan is None:
        plan = plans[k] = EndPlan(x_cat, k)
    return plan


def end_families(x_cat: InternalCategory, y_cat: InternalCategory, k: int,
                 budget: int = SIZE_BOUND):
    """All natural families at level k, lex-ordered by product encoding.

    SizeBound (stage "level-k end") when the search would exceed `budget`
    steps. A step is a candidate tried for one cell or, at k > 0, one
    (k + 1)-tuple of functors that the jump slots start from, whether it is
    walked or skipped by the first jump cell (see the module docstring).
    """
    plan = _plan(x_cat, k)
    counter = Budget(budget, f"level-{k} end")
    tick = counter.tick
    cells, flat = plan.cells, [None] * plan.size
    objects, y_homs, y_i = range(y_cat.C0.size), y_cat.homs, y_cat.i.table
    pair_at, m_table = y_cat.pairs.index.get, y_cat.m.table

    def rec(pos, stop, done):
        if pos == stop:
            done()
            return
        entry, src, tgt, identity, forced, checks = cells[pos]
        if src is None:
            values = objects
        else:
            values = y_homs.get((flat[src], flat[tgt]), ())
            if identity is not None:
                want = y_i[flat[identity]]
                values = (want,) if want in values else ()
            elif forced is not None:
                pair = pair_at((flat[forced[0]], flat[forced[1]]))
                values = ((m_table[pair],) if pair is not None
                          and m_table[pair] in values else ())
        # a cell reads only entries placed before it, so an entry is
        # overwritten by the next candidate and never cleared
        for val in values:
            tick()
            flat[entry] = val
            for u, v, uv in checks:
                pair = pair_at((flat[u], flat[v]))
                if pair is None or m_table[pair] != flat[uv]:
                    break
            else:
                rec(pos + 1, stop, done)

    solutions = []
    rows0, rows1 = plan.rows0, plan.rows1

    def emit():
        full = tuple(flat)
        solutions.append(Family(k, {psi: full[at] for psi, at in rows0},
                                {psi: full[at] for psi, at in rows1}))

    if not k:
        rec(0, plan.block, emit)  # the t = 0 block is the whole search
    else:
        # the t = 0 block alone is the level-0 search; its completions are
        # the functors at every vertex, whose rows stay set from here on
        firsts = []
        (objects0, arrows0), (objects1, arrows1), *later = plan.vertex_rows
        rec(0, plan.block,
            lambda: firsts.append((tuple(flat[objects0]), tuple(flat[arrows0]))))
        src = tgt = None  # the first jump cell's ends: F0 x and F1 x'
        if len(cells) > plan.block:
            _entry, src, tgt, *_rest = cells[plan.block]
        skipped = len(firsts) ** (k - 1)
        for f0 in firsts:
            flat[objects0], flat[arrows0] = f0
            for f1_objects, f1_arrows in firsts:
                flat[objects1] = f1_objects
                if src is not None and (flat[src], flat[tgt]) not in y_homs:
                    counter.spend(skipped)
                    continue
                flat[arrows1] = f1_arrows
                for rest in iproduct(firsts, repeat=k - 1):
                    tick()  # each vertex tuple is one step of the jump search
                    for (objects_t, arrows_t), (f_obj, f_arr) in zip(later, rest):
                        flat[objects_t] = f_obj
                        flat[arrows_t] = f_arr
                    rec(plan.block, len(cells), emit)
    solutions.sort(key=Family.key)
    return solutions


def check_family(x_cat, y_cat, fam: Family) -> bool:
    """Whether fam is natural at every level up to 3: whether its tables,
    joined in psi order, are the object and arrow tables of a functor
    [k] x X -> Y. False when a table is missing, has the wrong length or has
    an entry outside Y0 or Y1."""
    plan = _plan(x_cat, fam.k)
    if plan.cylinder is None:
        from .limits import product_cat  # limits imports ends
        plan.cylinder = product_cat(ordinal(fam.k), x_cat)
    tables = []
    for eta, rows, size in ((fam.eta0, plan.rows0, y_cat.C0.size),
                            (fam.eta1, plan.rows1, y_cat.C1.size)):
        table = [eta.get(psi) for psi, _at in rows]
        for row, (_psi, at) in zip(table, rows):
            if row is None or len(row) != at.stop - at.start or (
                    row and (min(row) < 0 or max(row) >= size)):
                return False
        tables.append(table)
    # the rows of the chosen product [k] x X, each checked in range above
    cylinder, trusted = plan.cylinder, FinMap._trusted
    l0, l1 = cylinder.l0, cylinder.l1
    return validate_functor(InternalFunctor(
        cylinder.category, y_cat, trusted(l0.apex, y_cat.C0, l0.join(tables[0])),
        trusted(l1.apex, y_cat.C1, l1.join(tables[1])))).ok

"""Simplicial ends over the three-truncated simplex category.

Level k of the internal hom of two internal categories is the end, over
[n] in the truncation, of the products of mapping objects indexed by the
monotone maps [n] -> [k]; concretely, the subobject of a finite product of
table objects cut out by the naturality equations (an equalizer of two maps
between finite products). A family eta assigns to each slot (n, psi) a table
X_n -> Y_n, and the equations say

    eta[m, psi . theta] . X_theta = Y_theta . eta[n, psi]

for every monotone theta: [m] -> [n] and psi: [n] -> [k].

The solver enumerates the level-0 and level-1 slot tables entry by entry, in
an order fixed before the search starts. The endpoint and degeneracy
equations limit each entry's candidates. Each composition instance is checked
once, at the entry that completes it in that order, and an entry is forced by
the first instance whose two factors come before it. Slots at levels 2 and 3
are then assembled by spines and the assembled family is checked. Solutions
are returned in the lexicographic order of the ambient product encoding, and
`budget` caps the search steps.

The functor at each vertex t <= k is a level-0 solution, so the search runs
the t = 0 block (the level-0 search) once, sets the vertex blocks from each
(k + 1)-tuple of its completions in turn, and searches only the jump slots.
A jump slot takes its arrows by larger endpoint, identity first: each
identity entry is a component, and each other entry is then forced and
checked by the components at its ends.

The internal hom (limits.internal_hom) uses only levels 0 and 1: level 2 of a
Segal category is the join of composable level-1 cells, so its composition is
built from level 1 directly. A level-1 family is keyed by its source and
target functors (Family.vertex) and its diagonal (Family.cell_key). The
level-2 and level-3 ends stay available as the fidelity check that the join
equals them. `brute_families` materialises the full product and filters by
every equation; it is the literal equalizer, feasible only at tiny sizes, and
the fidelity oracle for the solver. One naturality sweep (`_natural`) serves
it and `check_family`, which differ only in where a slot table comes from.
The sweep reads index plans that the nerves own and build on first use: X's
nerve fixes the slot order and, for every equation, the flat indices of its
two entries and the theta it uses (`Nerve.sweep_plan`); Y's nerve keeps its
action tables in the sweep's theta order (`Nerve.sweep_tables`). A sweep
concatenates the family's slot tables into one flat list, refusing a table
with an entry outside Y_n, and compares every equation through C-level maps,
stopping at the first that fails.
"""

from itertools import product as iproduct
from operator import eq, getitem

from .errors import Budget, SizeBound
from .internal import InternalCategory, monotone_maps


class Family:
    """A solved family: tables for every slot at levels 0 and 1."""

    __slots__ = ("k", "eta0", "eta1", "_key")

    def __init__(self, k, eta0, eta1):
        self.k = k
        self.eta0 = eta0  # dict psi -> tuple over X0
        self.eta1 = eta1  # dict psi -> tuple over X1
        if k == 0:
            self._key = self.vertex(0)
        elif k == 1:
            self._key = self.cell_key(self.vertex(0), self.vertex(1), eta1[(0, 1)])
        else:
            self._key = (tuple(eta0[p] for p in sorted(eta0))
                         + tuple(eta1[p] for p in sorted(eta1)))

    def key(self):
        return self._key

    def vertex(self, t):
        """The level-0 key of the functor at vertex t: (object, arrow) tables."""
        return self.eta0[(t,)], self.eta1[(t, t)]

    @staticmethod
    def cell_key(source, target, diagonal):
        """The level-1 key with these vertex keys and diagonal eta1[(0, 1)]."""
        return source[0], target[0], source[1], diagonal, target[1]

    def table(self, x_cat: InternalCategory, y_cat: InternalCategory, n, psi):
        """The slot table at (n, psi), assembling levels 2 and 3 by spines."""
        psi = tuple(psi)
        if n == 0:
            return self.eta0[psi]
        if n == 1:
            return self.eta1[psi]
        xn, simplex = x_cat.nerve, y_cat.nerve.simplex
        v0 = self.eta0[(psi[0],)]
        cols = [self.eta1[(psi[j - 1], psi[j])] for j in range(1, n + 1)]
        return tuple(simplex(v0[first], [col[a] for col, a in zip(cols, sp)])
                     for first, sp in zip(xn.first[n], xn.spines[n]))


def end_families(x_cat: InternalCategory, y_cat: InternalCategory, k: int,
                 budget: int = 10 ** 6):
    """All natural families at level k, lex-ordered by product encoding.

    SizeBound (stage "level-k end") when the search would exceed `budget`
    steps. A step is a candidate tried for one cell or, at k > 0, one
    (k + 1)-tuple of functors that the jump slots start from.
    """
    slots1 = monotone_maps(1, k)
    x0, x1 = x_cat.C0.size, x_cat.C1.size
    y_fibers = y_cat.homs
    budget = Budget(budget, f"level-{k} end")

    eta0 = {(t,): [None] * x0 for t in range(k + 1)}
    eta1 = {psi: [None] * x1 for psi in slots1}
    degenerate = {x_cat.i.table[x]: x for x in range(x_cat.C0.size)}

    # assignment order: the t = 0 functor block, then the jump slots with the
    # narrowest jumps first; within a jump slot the arrows go by larger
    # endpoint, identity first, so that every other entry is forced and
    # checked right after the components at its ends
    cells = [("0", (0,), x) for x in range(x0)]
    cells += [("1", (0, 0), a) for a in range(x1)]
    block = len(cells)
    jump_order = sorted((psi for psi in slots1 if psi[0] != psi[1]),
                        key=lambda psi: (psi[1] - psi[0], psi[0]))
    arrows_by_larger_end = sorted(
        range(x1), key=lambda a: (max(x_cat.d0.table[a], x_cat.d1.table[a]),
                                  a not in degenerate, a))
    for psi in jump_order:
        cells += [("1", psi, a) for a in arrows_by_larger_end]

    # composition instances m_Y(eta1[s12][u], eta1[s01][v]) = eta1[s02][uv],
    # placed by the order above: the vertex blocks t > 0 are set before any
    # jump cell (place -1). An instance is checked once, at the cell that
    # completes it, so one made of vertex cells at t > 0 alone is never
    # checked; a cell is forced by the first instance whose two factors are
    # placed before it.
    place = {(psi, elem): pos for pos, (_kind, psi, elem) in enumerate(cells)}
    completes = [[] for _ in cells]
    forced_by = {}
    for psi2 in monotone_maps(2, k):
        s01 = (psi2[0], psi2[1])
        s12 = (psi2[1], psi2[2])
        s02 = (psi2[0], psi2[2])
        for (u, v), uv in zip(x_cat.pairs.tuples, x_cat.m.table):
            inst = ((s12, u), (s01, v), (s02, uv))
            at_u, at_v, at_uv = (place.get(cell, -1) for cell in inst)
            last = max(at_u, at_v, at_uv)
            if last >= 0:
                completes[last].append(inst)
            if max(at_u, at_v) < at_uv:
                forced_by.setdefault(inst[2], inst)

    solutions = []
    pair_index = y_cat.pairs.index
    m_table = y_cat.m.table

    def composite(inst):
        """The Y-composite of the instance's two factors, or None."""
        (s12, u), (s01, v), _uv = inst
        pair = pair_index.get((eta1[s12][u], eta1[s01][v]))
        return None if pair is None else m_table[pair]

    def holds(inst):
        s02, uv = inst[2]
        return composite(inst) == eta1[s02][uv]

    def candidates(kind, psi, elem):
        if kind == "0":
            return range(y_cat.C0.size)
        s, t = psi
        src = eta0[(s,)][x_cat.d1.table[elem]]
        tgt = eta0[(t,)][x_cat.d0.table[elem]]
        fiber = y_fibers.get((src, tgt), ())
        if s == t and elem in degenerate:
            want = y_cat.i.table[eta0[(t,)][degenerate[elem]]]
            return (want,) if want in fiber else ()
        inst = forced_by.get((psi, elem))
        if inst is not None:
            forced = composite(inst)
            return (forced,) if forced in fiber else ()
        return fiber

    def rec(pos, stop, done):
        if pos == stop:
            done()
            return
        kind, psi, elem = cells[pos]
        row = (eta0 if kind == "0" else eta1)[psi]
        checks = completes[pos]
        for val in candidates(kind, psi, elem):
            budget.tick()
            row[elem] = val
            if all(map(holds, checks)):
                rec(pos + 1, stop, done)
            row[elem] = None

    def emit():
        solutions.append(Family(
            k, {p: tuple(v) for p, v in eta0.items()},
            {p: tuple(v) for p, v in eta1.items()}))

    # the t = 0 block alone is the level-0 search; its completions are the
    # functors at every vertex, whose cells stay set from here on
    firsts = []
    rec(0, block, lambda: firsts.append((tuple(eta0[(0,)]), tuple(eta1[(0, 0)]))))
    for combo in iproduct(firsts, repeat=k + 1):
        if k:
            budget.tick()  # each vertex tuple is one step of the jump search
        for t, (f0, f1) in enumerate(combo):
            eta0[(t,)][:] = f0
            eta1[(t, t)][:] = f1
        rec(block, len(cells), emit)
    solutions.sort(key=Family.key)
    return solutions


def _natural(x_cat, y_cat, k, table) -> bool:
    """The naturality sweep of one level-k family, with table(n, psi) the slot
    table at (n, psi): every theta: [m] -> [n] and psi: [n] -> [k] at levels
    0..3. A None table fails, and so does a table of the wrong length or with
    an entry outside Y_n, before any equation is read. The equations then run
    in C through x's sweep plan and y's sweep tables, and stop at the first
    that fails."""
    plan, xs = x_cat.nerve.sweep_plan(k), x_cat.nerve.levels
    ys, y_tables = y_cat.nerve.levels, y_cat.nerve.sweep_tables
    flat = []
    for n, psi in plan.slots:
        top = table(n, psi)
        if top is None or len(top) != xs[n].size or (
                top and (min(top) < 0 or max(top) >= ys[n].size)):
            return False
        flat += top
    entry = flat.__getitem__
    y_images = map(getitem, map(y_tables.__getitem__, plan.theta_ids),
                   map(entry, plan.top))
    return all(map(eq, map(entry, plan.low), y_images))


def check_family(x_cat, y_cat, fam: Family) -> bool:
    """Full naturality sweep: every theta and psi at levels 0..3."""

    def table(n, psi):
        """The slot table, or None where the image of a spine is not
        composable in y, so that a face equation at level 1 already fails."""
        try:
            return fam.table(x_cat, y_cat, n, psi)
        except KeyError:
            return None

    return _natural(x_cat, y_cat, fam.k, table)


def brute_families(x_cat, y_cat, k: int):
    """The literal equalizer: filter the full product of all slot tables.

    Only feasible at tiny sizes; used as the fidelity oracle for end_families.
    SizeBound (stage "brute-force product") past 200,000 families.
    """
    limit = 200000
    xn, yn = x_cat.nerve, y_cat.nerve
    slots = [(n, psi) for n in range(4) for psi in monotone_maps(n, k)]
    total = 1
    for n, _psi in slots:
        total *= yn.levels[n].size ** xn.levels[n].size
        SizeBound.check(total, limit, "brute-force product", "families")
    tables_per_slot = [list(iproduct(range(yn.levels[n].size), repeat=xn.levels[n].size))
                       for n, _psi in slots]
    families = (dict(zip(slots, combo)) for combo in iproduct(*tables_per_slot))
    return [fam for fam in families
            if _natural(x_cat, y_cat, k, lambda n, psi: fam[(n, psi)])]

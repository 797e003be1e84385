"""Simplicial ends over the three-truncated simplex category.

Level k of the internal hom of two internal categories is the end, over
[n] in the truncation, of the products of mapping objects indexed by the
monotone maps [n] -> [k]; concretely, the subobject of a finite product of
table objects cut out by the naturality equations (an equalizer of two maps
between finite products). A family eta assigns to each slot (n, psi) a table
X_n -> Y_n, and the equations say

    eta[m, psi . theta] . X_theta = Y_theta . eta[n, psi]

for every monotone theta: [m] -> [n] and psi: [n] -> [k].

The solver enumerates the level-0 and level-1 slot tables entry by entry,
propagating the equations (endpoint, degeneracy and composition instances);
slots at levels 2 and 3 are then assembled by spines and the assembled family
is checked. Solutions are returned in the lexicographic order of the ambient
product encoding, and `budget` caps the search steps.

The search assigns one functor block per vertex t <= k (the level-0 search
again), then the jump slots. It runs the t = 0 block alone first and counts,
from that block's steps and completions, exactly the steps the search spends
before its second jump cell (`_prefix_steps`). When that prefix exceeds
`budget` it raises SizeBound up front, before any further search; otherwise
it runs the remaining cells from each block-0 completion in turn, so the
steps, the verdict and the solutions are those of one depth-first search.

The internal hom (limits.internal_hom) uses only levels 0 and 1: level 2 of a
Segal category is the join of composable level-1 cells, so its composition is
built from level 1 directly. The level-2 and level-3 ends stay available as
the fidelity check that the join equals them. `brute_families` materialises
the full product and filters by every equation; it is the literal equalizer,
feasible only at tiny sizes, and the fidelity oracle for the solver.
"""

from collections import Counter
from itertools import product as iproduct

from .errors import SizeBound
from .internal import InternalCategory, monotone_maps


class Family:
    """A solved family: tables for every slot at levels 0 and 1."""

    __slots__ = ("k", "eta0", "eta1", "_key")

    def __init__(self, k, eta0, eta1):
        self.k = k
        self.eta0 = eta0  # dict psi -> tuple over X0
        self.eta1 = eta1  # dict psi -> tuple over X1
        self._key = None

    def key(self):
        if self._key is None:
            parts = [self.eta0[psi] for psi in sorted(self.eta0)]
            parts += [self.eta1[psi] for psi in sorted(self.eta1)]
            self._key = tuple(parts)
        return self._key

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


class _Budget:
    def __init__(self, limit, stage):
        self.limit = limit
        self.stage = stage
        self.steps = 0

    def tick(self):
        self.steps += 1
        if self.steps > self.limit:
            raise SizeBound(f"{self.stage} search exceeded {self.limit} steps",
                            stage=self.stage, steps=self.steps, bound=self.limit)


def end_families(x_cat: InternalCategory, y_cat: InternalCategory, k: int,
                 budget: int = 10 ** 6):
    """All natural families at level k, lex-ordered by product encoding.

    SizeBound (stage "level-k end") when the search would exceed `budget`
    steps, raised up front (stage "level-k end prefix") when the steps it
    must spend before its second jump cell already exceed it.
    """
    slots1 = monotone_maps(1, k)
    x0, x1 = x_cat.C0.size, x_cat.C1.size
    y_fibers = y_cat.homs
    budget = _Budget(budget, f"level-{k} end")

    # composition instances: equation m_Y(eta1[s12][u], eta1[s01][v]) = eta1[s02][uv]
    instances = []
    cells_of = {}  # (psi, arrow) -> list of instance ids (once per distinct cell)
    for psi2 in monotone_maps(2, k):
        s01 = (psi2[0], psi2[1])
        s12 = (psi2[1], psi2[2])
        s02 = (psi2[0], psi2[2])
        for p, (u, v) in enumerate(x_cat.pairs.tuples):
            uv = x_cat.m.table[p]
            iid = len(instances)
            inst_cells = {(s12, u), (s01, v), (s02, uv)}
            instances.append(((s12, u), (s01, v), (s02, uv), len(inst_cells)))
            for cell in inst_cells:
                cells_of.setdefault(cell, []).append(iid)
    missing = [inst[3] for inst in instances]

    eta0 = {(t,): [None] * x0 for t in range(k + 1)}
    eta1 = {psi: [None] * x1 for psi in slots1}
    degenerate = {x_cat.i.table[x]: x for x in range(x_cat.C0.size)}

    # assignment order: per-vertex functor blocks first, then jump slots with
    # the narrowest jumps first; within a jump slot the degenerate arrows come
    # first so that composition instances force every remaining entry
    cells = []
    for t in range(k + 1):
        cells += [("0", (t,), x) for x in range(x0)]
        cells += [("1", (t, t), a) for a in range(x1)]
    jump_order = sorted((psi for psi in slots1 if psi[0] != psi[1]),
                        key=lambda psi: (psi[1] - psi[0], psi[0]))
    arrows_deg_first = ([a for a in range(x1) if a in degenerate]
                        + [a for a in range(x1) if a not in degenerate])
    for psi in jump_order:
        cells += [("1", psi, a) for a in arrows_deg_first]

    solutions = []
    pair_index = y_cat.pairs.index
    m_table = y_cat.m.table

    def complete_instances_hold(incident):
        for iid in incident:
            if missing[iid]:
                continue
            c_u, c_v, c_uv, _n = instances[iid]
            pair = pair_index.get((eta1[c_u[0]][c_u[1]], eta1[c_v[0]][c_v[1]]))
            if pair is None or m_table[pair] != eta1[c_uv[0]][c_uv[1]]:
                return False
        return True

    def forced_value(cell):
        """Value forced by a composition instance whose factors are both set."""
        for iid in cells_of.get(cell, ()):
            inst = instances[iid]
            if inst[2] == cell and missing[iid] == 1:
                vu = eta1[inst[0][0]][inst[0][1]]
                vv = eta1[inst[1][0]][inst[1][1]]
                if vu is not None and vv is not None:
                    pair = pair_index.get((vu, vv))
                    if pair is None:
                        return -1  # impossible: factors not composable
                    return m_table[pair]
        return None

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
        forced = forced_value((psi, elem))
        if forced is not None:
            return (forced,) if forced in fiber else ()
        return fiber

    def rec(pos, stop, done):
        if pos == stop:
            done()
            return
        kind, psi, elem = cells[pos]
        if kind == "0":
            row = eta0[psi]
            for val in candidates(kind, psi, elem):
                budget.tick()
                row[elem] = val
                rec(pos + 1, stop, done)
                row[elem] = None
            return
        row = eta1[psi]
        cand = candidates(kind, psi, elem)
        incident = cells_of.get((psi, elem), ())
        for iid in incident:
            missing[iid] -= 1
        for val in cand:
            budget.tick()
            row[elem] = val
            if complete_instances_hold(incident):
                rec(pos + 1, stop, done)
            row[elem] = None
        for iid in incident:
            missing[iid] += 1

    def emit():
        solutions.append(Family(
            k, {p: tuple(v) for p, v in eta0.items()},
            {p: tuple(v) for p, v in eta1.items()}))

    # the t = 0 block alone: the level-0 search, s0 steps and len(firsts)
    # functors; no completion of it depends on the slots after it
    block = x0 + x1
    firsts = []
    rec(0, block, lambda: firsts.append((tuple(eta0[(0,)]), tuple(eta1[(0, 0)]))))
    x_star = arrows_deg_first[0] if k and arrows_deg_first else None
    prefix = _prefix_steps(budget.steps, firsts, k, x_star, x_cat, y_fibers)
    if prefix > budget.limit:
        raise SizeBound(f"level-{k} end search needs {prefix} steps before its "
                        f"second jump cell, over the bound {budget.limit}",
                        stage=f"level-{k} end prefix", steps=prefix,
                        bound=budget.limit)
    # the t = 0 block's cells stay set from here on, one completion at a time
    for a in range(x1):
        for iid in cells_of.get(((0, 0), a), ()):
            missing[iid] -= 1
    for f0, f1 in firsts:
        eta0[(0,)][:] = f0
        eta1[(0, 0)][:] = f1
        rec(block, len(cells), emit)
    solutions.sort(key=Family.key)
    return solutions


def _prefix_steps(s0, firsts, k, x_star, x_cat, y_fibers):
    """Steps the level-k search spends before its second jump cell, counted
    from the t = 0 block's s0 steps and its completions `firsts`.

    Each block t <= k repeats the t = 0 search once per completion of the
    blocks before it. The first jump cell, slot (0, 1) at the first identity
    arrow x_star (None when there is no jump cell), has no factor set that
    could force it, so it tries its whole fiber once per completion of all
    k + 1 blocks: a pair (f, g) of block-0 and block-1 completions, times
    the F^(k-1) completions of blocks 2..k.
    """
    f = len(firsts)
    steps = s0 * sum(f ** t for t in range(k + 1))
    if x_star is None:
        return steps
    src = Counter(f0[x_cat.d1.table[x_star]] for f0, _f1 in firsts)
    tgt = Counter(f0[x_cat.d0.table[x_star]] for f0, _f1 in firsts)
    jump = sum(cp * cq * len(y_fibers.get((p, q), ()))
               for p, cp in src.items() for q, cq in tgt.items())
    return steps + f ** (k - 1) * jump


def check_family(x_cat, y_cat, fam: Family) -> bool:
    """Full naturality sweep: every theta and psi at levels 0..3."""
    xn, yn = x_cat.nerve, y_cat.nerve
    tables = {}  # (n, psi) -> slot table, for this sweep only

    def table(n, psi):
        """The slot table, or None where the image of a spine is not
        composable in y, so that a face equation at level 1 already fails."""
        if (n, psi) not in tables:
            try:
                tables[(n, psi)] = fam.table(x_cat, y_cat, n, psi)
            except KeyError:
                tables[(n, psi)] = None
        return tables[(n, psi)]

    for n in range(4):
        for m in range(4):
            for theta in monotone_maps(m, n):
                x_theta = xn.act(theta, n, m).table
                y_theta = yn.act(theta, n, m).table
                for psi in monotone_maps(n, fam.k):
                    top = table(n, psi)
                    low = table(m, tuple(psi[j] for j in theta))
                    if top is None or low is None or any(
                            low[a] != y_theta[b] for a, b in zip(x_theta, top)):
                        return False
    return True


def brute_families(x_cat, y_cat, k: int):
    """The literal equalizer: filter the full product of all slot tables.

    Only feasible at tiny sizes; used as the fidelity oracle for end_families.
    """
    limit = 200000
    xn, yn = x_cat.nerve, y_cat.nerve
    slots = [(n, psi) for n in range(4) for psi in monotone_maps(n, k)]
    total = 1
    for n, _psi in slots:
        total *= yn.levels[n].size ** xn.levels[n].size
        if total > limit:
            raise SizeBound("brute-force product too large",
                            stage="brute-force product", steps=total, bound=limit)

    def natural(fam):
        for n, psi in slots:
            for m in range(4):
                for theta in monotone_maps(m, n):
                    low, top = fam[(m, tuple(psi[j] for j in theta))], fam[(n, psi)]
                    y_theta = yn.act(theta, n, m).table
                    if any(low[a] != y_theta[b]
                           for a, b in zip(xn.act(theta, n, m).table, top)):
                        return False
        return True

    tables_per_slot = [list(iproduct(range(yn.levels[n].size), repeat=xn.levels[n].size))
                       for n, _psi in slots]
    families = (dict(zip(slots, combo)) for combo in iproduct(*tables_per_slot))
    return [fam for fam in families if natural(fam)]

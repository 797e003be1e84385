"""Deterministic corpus generation for the property and acceptance suites.

Categories come from a fixed constructor set: free categories on acyclic
graphs (cycles would generate infinitely many arrows), monoid deloopings,
preorders, discrete and indiscrete categories, and closure under product,
coproduct and opposite applied to earlier items. Every generated item passes
the validator. A companion generator produces functors, including targeted
families: full subcategory inclusions (full monos) and projections away from
indiscrete factors (fully faithful and epi-on-objects).
"""

import random
from dataclasses import dataclass

from .errors import SizeBound
from .finset import FinMap, FinObj
from .internal import (InternalCategory, InternalFunctor, id_functor,
                       validate_category, validate_functor)
from .limits import coproduct_cat, enumerate_functors, free_arrow, product_cat
from .transfer import disc, indisc, indisc_map


DEFAULT_CONSTRUCTORS = ("freeOnDAG", "monoidDelooping", "preorder", "product",
                        "coproduct", "disc", "indisc", "opposite")


@dataclass(frozen=True)
class CorpusSpec:
    seed: int = 7
    max_objects: int = 4
    max_arrows: int = 10
    count: int = 25
    constructors: tuple = DEFAULT_CONSTRUCTORS


def category_from_tables(n_objects, arrows, comp_pairs, identities):
    """Build an internal category from naive-style tables.

    arrows: list of (source, target); comp_pairs: dict (g, f) -> composite
    for source(g) = target(f); identities: arrow index per object.
    """
    c0 = FinObj(n_objects)
    c1 = FinObj(len(arrows))
    d1 = FinMap(c1, c0, tuple(s for s, _t in arrows))
    d0 = FinMap(c1, c0, tuple(t for _s, t in arrows))
    i = FinMap(c0, c1, tuple(identities))
    return InternalCategory.with_composition(
        c0, c1, d0, d1, i, lambda pairs: FinMap(
            pairs.apex, c1, tuple(comp_pairs[(u, v)] for u, v in pairs.tuples)))


def free_on_dag(n_nodes, edges):
    """The free category on an acyclic graph: arrows are paths."""
    paths = [((x,), ()) for x in range(n_nodes)]  # (vertex sequence, edge seq)
    frontier = list(paths)
    while frontier:
        nxt = []
        for verts, eseq in frontier:
            for k, (a, b) in enumerate(edges):
                if a == verts[-1]:
                    item = (verts + (b,), eseq + (k,))
                    nxt.append(item)
        paths += nxt
        frontier = nxt
    paths.sort(key=lambda p: (p[0][0], p[0][-1], p[1]))
    index = {p: k for k, p in enumerate(paths)}
    arrows = [(p[0][0], p[0][-1]) for p in paths]
    identities = [index[((x,), ())] for x in range(n_nodes)]
    comp = {}
    for gi, g in enumerate(paths):
        for fi, f in enumerate(paths):
            if f[0][-1] == g[0][0]:
                comp[(gi, fi)] = index[(f[0] + g[0][1:], f[1] + g[1])]
    return category_from_tables(n_nodes, arrows, comp, identities)


def monoid_delooping(op_table):
    """One object; arrows are monoid elements, composition is the operation.

    op_table[u][v] must be associative with identity element 0.
    """
    n = len(op_table)
    arrows = [(0, 0)] * n
    comp = {(g, f): op_table[g][f] for g in range(n) for f in range(n)}
    return category_from_tables(1, arrows, comp, [0])


def preorder_category(relation, n):
    """Arrows are related pairs (x, y), composition by transitivity."""
    pairs = sorted(relation)
    index = {p: k for k, p in enumerate(pairs)}
    arrows = list(pairs)
    identities = [index[(x, x)] for x in range(n)]
    comp = {}
    for (gy, gz) in pairs:
        for (fx, fy) in pairs:
            if fy == gy:
                comp[(index[(gy, gz)], index[(fx, fy)])] = index[(fx, gz)]
    return category_from_tables(n, arrows, comp, identities)


def opposite(c: InternalCategory) -> InternalCategory:
    return InternalCategory.with_composition(
        c.C0, c.C1, c.d1, c.d0, c.i, lambda pairs: FinMap(
            pairs.apex, c.C1, tuple(c.comp(v, u) for u, v in pairs.tuples)))


def _monoid_tables(rng, max_arrows):
    kind = rng.choice(["cyclic", "max", "or"])
    if kind == "cyclic":
        n = rng.randint(2, min(4, max_arrows))
        return [[(u + v) % n for v in range(n)] for u in range(n)]
    if kind == "max":
        n = rng.randint(2, min(4, max_arrows))
        return [[max(u, v) for v in range(n)] for u in range(n)]
    return [[u | v for v in range(2)] for u in range(2)]


def _random_preorder(rng, n):
    rel = {(x, x) for x in range(n)}
    for x in range(n):
        for y in range(x + 1, n):
            if rng.random() < 0.4:
                rel.add((x, y))
    changed = True
    while changed:
        changed = False
        for (a, b) in list(rel):
            for (c, d) in list(rel):
                if b == c and (a, d) not in rel:
                    rel.add((a, d))
                    changed = True
    return rel


def generate_corpus(spec: CorpusSpec):
    """Deterministic under seed; every item passes the validator and fits
    the caps, so the free arrow leads the list only where it fits."""
    rng = random.Random(spec.seed)

    def fits(cat):
        return cat.C0.size <= spec.max_objects and cat.C1.size <= spec.max_arrows

    two = free_arrow()
    out = [two] if spec.count > 0 and fits(two) else []
    attempts = 0
    while len(out) < spec.count and attempts < spec.count * 40:
        attempts += 1
        name = rng.choice([c for c in spec.constructors])
        cat = None
        # a constructor whose smallest item cannot fit draws nothing
        if name == "disc":
            cat = disc(FinObj(rng.randint(0, spec.max_objects)))
        elif name == "indisc":
            cat = indisc(FinObj(rng.randint(1, max(1, spec.max_objects // 2))))
        elif name == "monoidDelooping" and spec.max_arrows >= 2:
            cat = monoid_delooping(_monoid_tables(rng, spec.max_arrows))
        elif name == "preorder" and spec.max_objects >= 1:
            n = rng.randint(1, spec.max_objects)
            cat = preorder_category(_random_preorder(rng, n), n)
        elif name == "freeOnDAG" and spec.max_objects >= 1:
            n = rng.randint(1, spec.max_objects)
            edges = [(a, b) for a in range(n) for b in range(a + 1, n)
                     if rng.random() < 0.5]
            cat = free_on_dag(n, edges)
        elif name == "product" and out:
            a, b = rng.choice(out), rng.choice(out)
            cat = product_cat(a, b).category
        elif name == "coproduct" and out:
            a, b = rng.choice(out), rng.choice(out)
            cat = coproduct_cat(a, b).category
        elif name == "opposite" and out:
            cat = opposite(rng.choice(out))
        if cat is None or not fits(cat):
            continue
        validate_category(cat).certify("corpus category")
        out.append(cat)
    return out


def full_subcategory_inclusion(c: InternalCategory, objects):
    """The inclusion of the full subcategory on a subset of objects."""
    objects = sorted(objects)
    obj_index = {x: k for k, x in enumerate(objects)}
    arrows = [a for a in range(c.C1.size)
              if c.d1.table[a] in obj_index and c.d0.table[a] in obj_index]
    arr_index = {a: k for k, a in enumerate(arrows)}
    c0 = FinObj(len(objects))
    c1 = FinObj(len(arrows))
    d1 = FinMap(c1, c0, tuple(obj_index[c.d1.table[a]] for a in arrows))
    d0 = FinMap(c1, c0, tuple(obj_index[c.d0.table[a]] for a in arrows))
    i = FinMap(c0, c1, tuple(arr_index[c.i.table[x]] for x in objects))
    sub = InternalCategory.with_composition(
        c0, c1, d0, d1, i, lambda pairs: FinMap(
            pairs.apex, c1, tuple(arr_index[c.comp(arrows[u], arrows[v])]
                                  for u, v in pairs.tuples)))
    inc = InternalFunctor(sub, c,
                          FinMap(c0, c.C0, tuple(objects)),
                          FinMap(c1, c.C1, tuple(arrows)))
    return sub, inc


def ff_epi_examples(corpus, rng):
    """Fully faithful epi-on-objects functors: indiscrete surjections and
    projections away from indiscrete factors."""
    out = []
    sizes = sorted({c.C0.size for c in corpus if 0 < c.C0.size <= 3})
    for n in sizes:
        for k in range(1, n + 1):
            table = tuple(rng.randrange(k) for _ in range(n - k)) + tuple(range(k))
            out.append(indisc_map(FinMap(FinObj(n), FinObj(k), table)))
    for c in corpus[:6]:
        if c.C0.size == 0 or c.C0.size > 3 or c.C1.size > 6:
            continue
        prod = product_cat(c, indisc(FinObj(2)))
        out.append(prod.proj0)
    return out


def generate_functor_corpus(corpus, seed=7):
    """Deterministic functor family: identities, canonical constructions,
    full subcategory inclusions, ff-epi examples, and up to three sampled
    functors between each pair of small corpus members."""
    rng = random.Random(seed * 65537 + 1)
    out = []
    for c in corpus[:8]:
        out.append(id_functor(c))
    for c in corpus:
        if 0 < c.C0.size <= 3:
            sub_objects = [x for x in range(c.C0.size) if rng.random() < 0.7]
            if sub_objects:
                _sub, inc = full_subcategory_inclusion(c, sub_objects)
                out.append(inc)
    out += ff_epi_examples(corpus, rng)
    small = [c for c in corpus if c.C0.size <= 3 and c.C1.size <= 6][:8]
    for a in small:
        for b in small:
            try:
                fs = enumerate_functors(a, b, bound=20000)
            except SizeBound:
                continue
            if fs:
                picks = sorted(rng.sample(range(len(fs)), min(3, len(fs))))
                out += [fs[k] for k in picks]
    for f in out:
        validate_functor(f).certify("corpus functor")
    return out

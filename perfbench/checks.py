"""Correctness checks for the benchmark's outputs.

Every check compares a program output with a computation written here or
made by the naive oracle (``fincat.naive``, which shares no code with the end
formula), or with a property the construction must have. Checks read only
tables, so a fault in the program's own comparison helpers cannot confirm
itself. Each check returns the number of items it verified and raises
`CheckFailed` on the first disagreement.
"""

from itertools import product as iproduct


class CheckFailed(Exception):
    """A program output disagrees with its independent check."""


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


def check_holds(verdict, what):
    """A program's own yes/no verdict that must be yes."""
    require(verdict is True, f"{what} does not hold")
    return 1


# ---------------------------------------------------------------------------
# Plain-table helpers (no fincat code).
# ---------------------------------------------------------------------------

def tables(f):
    """The (objects, arrows) tables of an internal functor."""
    return tuple(f.f0.table), tuple(f.f1.table)


def compose_tables(g, f):
    """Tables of g after f, both given as (objects, arrows) tables."""
    return (tuple(g[0][x] for x in f[0]), tuple(g[1][a] for a in f[1]))


def hom_lists(cat):
    """Arrows of an internal category grouped by (source, target)."""
    out = {}
    for a in range(cat.C1.size):
        out.setdefault((cat.d1.table[a], cat.d0.table[a]), []).append(a)
    return out


def is_fully_faithful(f):
    """Every hom-set of f.dom maps bijectively onto the matching one of f.cod."""
    src, tgt = hom_lists(f.dom), hom_lists(f.cod)
    for a in range(f.dom.C0.size):
        for b in range(f.dom.C0.size):
            image = sorted(f.f1.table[u] for u in src.get((a, b), ()))
            want = sorted(tgt.get((f.f0.table[a], f.f0.table[b]), ()))
            if image != want:
                return False
    return True


def is_injective(table):
    return len(set(table)) == len(table)


def is_surjective(table, size):
    return set(table) == set(range(size))


# ---------------------------------------------------------------------------
# hom-sweep: the end-formula hom against the oracle hom-category.
# ---------------------------------------------------------------------------

def check_hom_against_oracle(ih, funs, cells, oracle_cat):
    """Sizes, then an explicit bijection onto the oracle's hom-category that
    respects endpoints, identities and the oracle's own composition table.
    Returns the number of cells matched."""
    carrier = ih.carrier
    require(carrier.C0.size == len(funs),
            f"hom has {carrier.C0.size} functors, oracle {len(funs)}")
    require(carrier.C1.size == len(cells),
            f"hom has {carrier.C1.size} cells, oracle {len(cells)}")
    fun_index = {f: i for i, f in enumerate(funs)}
    cell_index = {c: i for i, c in enumerate(cells)}
    x = ih.dom
    table0 = []
    for fam in ih.level0:
        key = (fam.eta0[(0,)], fam.eta1[(0, 0)])
        require(key in fun_index, "a hom object is not an oracle functor")
        table0.append(fun_index[key])
    table1 = []
    for fam in ih.level1:
        s = fun_index.get((fam.eta0[(0,)], fam.eta1[(0, 0)]))
        t = fun_index.get((fam.eta0[(1,)], fam.eta1[(1, 1)]))
        comp = tuple(fam.eta1[(0, 1)][x.i.table[xx]] for xx in range(x.C0.size))
        require((s, t, comp) in cell_index, "a hom cell is not an oracle cell")
        table1.append(cell_index[(s, t, comp)])
    require(sorted(table0) == list(range(len(funs))), "objects are not a bijection")
    require(sorted(table1) == list(range(len(cells))), "cells are not a bijection")
    for u in range(carrier.C1.size):
        require(oracle_cat.arrows[table1[u]] == (table0[carrier.d1.table[u]],
                                                 table0[carrier.d0.table[u]]),
                f"cell {u} has the wrong endpoints")
    for xx in range(carrier.C0.size):
        require(table1[carrier.i.table[xx]] == oracle_cat.identities[table0[xx]],
                f"identity of object {xx} differs from the oracle's")
    for p, (u, v) in enumerate(carrier.pairs.tuples):
        require(table1[carrier.m.table[p]] == oracle_cat.comp[(table1[u], table1[v])],
                f"composite of cells ({u}, {v}) differs from the oracle's")
    return carrier.C1.size


# ---------------------------------------------------------------------------
# hom-transpose: currying round trips and counts.
# ---------------------------------------------------------------------------

def check_round_trip(ih, prod_zx, h, curried):
    """ev . (curry(h) x 1) = h, computed on the tables of the chosen products."""
    ev = ih.evaluation
    c0, c1 = curried.f0.table, curried.f1.table
    for k, (z, xv) in enumerate(prod_zx.l0.tuples):
        got = ev.f0.table[ih.prod.l0.encode((c0[z], xv))]
        require(got == h.f0.table[k], f"round trip differs on object {(z, xv)}")
    for k, (za, xa) in enumerate(prod_zx.l1.tuples):
        got = ev.f1.table[ih.prod.l1.encode((c1[za], xa))]
        require(got == h.f1.table[k], f"round trip differs on arrow {(za, xa)}")
    return 1


def check_transposes(curried, naive_to_hom, naive_from_product):
    """Curry is injective, every transpose is a functor Z -> [X, Y] found by
    the oracle, and the oracle counts the same number of functors on both
    sides of the adjunction. Returns the number of transposes checked."""
    keys = [tables(c) for c in curried]
    require(len(set(keys)) == len(keys), "curry is not injective")
    require(len(naive_to_hom) == len(naive_from_product),
            f"oracle counts {len(naive_to_hom)} functors Z -> [X, Y] but "
            f"{len(naive_from_product)} functors Z x X -> Y")
    require(len(keys) == len(naive_from_product),
            f"{len(keys)} transposes for {len(naive_from_product)} functors")
    known = set(naive_to_hom)
    require(all(k in known for k in keys), "a transpose is not an oracle functor")
    return len(keys)


# ---------------------------------------------------------------------------
# model-audit: the report, factorisations, lifts and powers.
# ---------------------------------------------------------------------------

EXPECTED_VERDICTS = {"nno": "refuted"}
DEFAULT_VERDICT = "verified-at-scale"


def count_recursors(n, z, s, x, f, g):
    """Brute force: maps u: N -> X with u(z) = f and u(s(k)) = g(u(k))."""
    count = 0
    for u in iproduct(range(x), repeat=n):
        if u[z[0]] != f[0]:
            continue
        if all(u[s[k]] == g[u[k]] for k in range(n)):
            count += 1
    return count


def nno_candidate_count(max_size):
    """Orbit shapes (tail, cycle) with tail + cycle <= n, for n up to max_size."""
    return sum(1 for n in range(1, max_size + 1) for tail in range(n)
               for _cycle in range(1, n - tail + 1))


def check_audit_report(report, exit_code):
    """Every verdict is the expected one, and every NNO counterexample is
    recounted by brute force. Returns the number of items checked."""
    require(exit_code == 0, f"fincat audit exited with {exit_code}")
    entries = report["entries"]
    require(set(entries) == set(report["config"]["suites"]),
            "the report does not cover every suite")
    for name, data in entries.items():
        want = EXPECTED_VERDICTS.get(name, DEFAULT_VERDICT)
        require(data["verdict"] == want,
                f"{name} is {data['verdict']}, expected {want}")
    witnesses = entries["nno"]["witnesses"]
    examples = witnesses["counterexamples"]
    want = nno_candidate_count(report["config"]["nno_max_size"])
    require(witnesses["candidates"] == len(examples) == want,
            f"{len(examples)} NNO counterexamples for {want} candidates")
    for ex in examples:
        cand, test = ex["candidate"], ex["test"]
        count = count_recursors(cand["N"], cand["z"], cand["s"],
                                test["X"], test["f"], test["g"])
        outcome = ex["outcome"]
        require((outcome == "noRecursor" and count == 0)
                or (outcome == "multipleRecursors" and count >= 2),
                f"counterexample for s={cand['s']} claims {outcome}, "
                f"brute force counts {count} recursors")
    return len(entries) + len(examples)


def check_factorisation(f, fact, system):
    """right . left = f, left in the lifted left class and right in the lifted
    right class of the named base system ("epi-mono" or "iso-all")."""
    left, right = fact.left, fact.right
    require(left.dom == f.dom and right.cod == f.cod and left.cod == right.dom,
            "factorisation has the wrong shape")
    require(compose_tables(tables(right), tables(left)) == tables(f),
            "the factors do not compose back to the input")
    n = left.cod.C0.size
    if system == "epi-mono":
        require(is_surjective(left.f0.table, n), "left factor not epi on objects")
        require(is_injective(right.f0.table), "right factor not mono on objects")
    else:
        require(is_surjective(left.f0.table, n) and is_injective(left.f0.table),
                "left factor not iso on objects")
    require(is_fully_faithful(right), "right factor not fully faithful")
    return 1


def check_lift(square, lift, fillers):
    """The lift is the only diagonal among the oracle's functors s.cod -> f.dom.

    square: (s, f, p, q) internal functors; fillers: every functor
    s.cod -> f.dom as (objects, arrows) tables, enumerated by the oracle."""
    s, f, p, q = square
    diagonals = [w for w in fillers
                 if compose_tables(w, tables(s)) == tables(p)
                 and compose_tables(tables(f), w) == tables(q)]
    require(diagonals == [tables(lift)],
            f"{len(diagonals)} diagonals found, the lift is not the only one")
    return 1


def check_power(power, oracle_objects, oracle_cells):
    """The carrier of A^2 has the oracle's counts of functors 2 -> A and of
    cells between them."""
    carrier = power.carrier
    require((carrier.C0.size, carrier.C1.size) == (oracle_objects, oracle_cells),
            f"power has {carrier.C0.size} objects and {carrier.C1.size} arrows, "
            f"oracle [2, A] has {oracle_objects} and {oracle_cells}")
    return 1

"""The model-axiom checklist: recursor search and finite-NNO refutation,
generator and 2-well-pointedness verification, and the aggregate report.

The finite-set base cannot carry a natural numbers object; the audit does not
assume this but refutes every candidate up to the configured size with a
verified counterexample. Verdicts use the vocabulary
{verified-at-scale, refuted, skipped}: desk-scale checks cannot certify
universally quantified axioms.
"""

from dataclasses import dataclass

from . import finset
from .classifiers import (categorified_choice_audit, classify_full_mono,
                          classifying_square_is_pullback,
                          full_subobject_classifier, is_boolean, is_two_valued)
from .corpus import CorpusSpec, generate_corpus, generate_functor_corpus
from .errors import CertificateFailure, ShapeMismatch, SizeBound
from .finset import FinMap, FinObj, identity
from .internal import (InternalCategory, InternalFunctor, compose_functors,
                       is_full_mono, validate_category)
from .limits import (coproduct_cat, enumerate_functors, free_arrow, internal_hom,
                     product_cat, pullback_cat)
from .transfer import pi0


# ---------------------------------------------------------------------------
# Natural numbers object refutation.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RecursorVerdict:
    outcome: str            # uniqueRecursor | noRecursor | multipleRecursors
    recursor: FinMap = None
    second: FinMap = None   # a distinct recursor when multiple exist


def recursor_search(n_obj: FinObj, z: FinMap, s: FinMap,
                    x_obj: FinObj, f: FinMap, g: FinMap) -> RecursorVerdict:
    """Exact classification of maps u with u.z = f and u.s = g.u.

    The orbit of z forces values; elements outside the orbit are solved by
    backtracking over the recursion constraints, stopping at two solutions.
    """
    if z.dom != finset.terminal() or z.cod != n_obj or s.dom != n_obj or s.cod != n_obj:
        raise ShapeMismatch("candidate must be (N, z: 1 -> N, s: N -> N)")
    if f.dom != finset.terminal() or f.cod != x_obj or g.dom != x_obj or g.cod != x_obj:
        raise ShapeMismatch("test datum must be (X, f: 1 -> X, g: X -> X)")
    u = [None] * n_obj.size
    # forced values along the orbit of z
    node, val = z.table[0], f.table[0]
    while u[node] is None:
        u[node] = val
        node, val = s.table[node], g.table[val]
    if u[node] != val:
        return RecursorVerdict("noRecursor")
    free = [k for k in range(n_obj.size) if u[k] is None]
    solutions = []

    def consistent(k):
        nxt = s.table[k]
        if u[nxt] is not None and g.table[u[k]] != u[nxt]:
            return False
        for j in range(n_obj.size):
            if u[j] is not None and s.table[j] == k and g.table[u[j]] != u[k]:
                return False
        return True

    def rec(idx):
        if len(solutions) >= 2:
            return
        if idx == len(free):
            solutions.append(FinMap(n_obj, x_obj, tuple(u)))
            return
        k = free[idx]
        for v in range(x_obj.size):
            u[k] = v
            if consistent(k):
                rec(idx + 1)
            u[k] = None

    rec(0)
    if not solutions:
        return RecursorVerdict("noRecursor")
    if len(solutions) == 1:
        return RecursorVerdict("uniqueRecursor", solutions[0])
    return RecursorVerdict("multipleRecursors", solutions[0], solutions[1])


@dataclass(frozen=True)
class NNORefutation:
    candidate: tuple        # (N, z, s)
    test: tuple             # (X, f, g)
    verdict: RecursorVerdict


def nno_candidates(max_size: int):
    """Canonical candidates (N, z, s), one per orbit shape (tail, cycle) and
    total size; extra elements beyond the orbit are fixed points."""
    out = []
    for n in range(1, max_size + 1):
        n_obj = FinObj(n)
        z = FinMap(finset.terminal(), n_obj, (0,))
        for tail in range(0, n):
            for cycle in range(1, n - tail + 1):
                table = list(range(1, tail + cycle)) + [tail]
                table += [k for k in range(tail + cycle, n)]
                # orbit: 0 -> 1 -> ... -> tail+cycle-1 -> tail; rest fixed
                out.append((n_obj, z, FinMap(n_obj, n_obj, tuple(table))))
    return out


def refute_finite_nno(max_size: int):
    """Exhibit a failing test datum for every candidate up to max_size."""
    out = []
    for (n_obj, z, s) in nno_candidates(max_size):
        # orbit shape of z
        seen = {}
        node, step = z.table[0], 0
        while node not in seen:
            seen[node] = step
            node, step = s.table[node], step + 1
        tail, cycle = seen[node], step - seen[node]
        if len(seen) < n_obj.size:
            # a free element gives multiple recursors against the identity
            x_obj = FinObj(2)
            f = FinMap(finset.terminal(), x_obj, (0,))
            g = identity(x_obj)
        else:
            # a strictly longer shift forces a conflict on the cycle
            x_obj = FinObj(cycle + 1)
            f = FinMap(finset.terminal(), x_obj, (0,))
            g = FinMap(x_obj, x_obj,
                       tuple((k + 1) % (cycle + 1) for k in range(cycle + 1)))
        verdict = recursor_search(n_obj, z, s, x_obj, f, g)
        if verdict.outcome not in ("noRecursor", "multipleRecursors"):
            raise CertificateFailure(
                f"counterexample failed to refute candidate {s.table}")
        out.append(NNORefutation((n_obj, z, s), (x_obj, f, g), verdict))
    return out


def two_dimensional_nno_check(n_obj: FinObj, z: FinMap, s: FinMap,
                              x_cat: InternalCategory, g: InternalFunctor,
                              alpha: FinMap) -> RecursorVerdict:
    """The 2-cell aspect for a discrete candidate: the unique cell assigner
    phi: N -> X1 with phi.z = alpha and g1.phi = phi.s reduces to a recursor
    search on the object of arrows."""
    if alpha.dom != finset.terminal() or alpha.cod != x_cat.C1:
        raise ShapeMismatch("the test 2-cell must be a map 1 -> X1")
    if g.dom != x_cat or g.cod != x_cat:
        raise ShapeMismatch("g must be an endofunctor of the test category")
    return recursor_search(n_obj, z, s, x_cat.C1, alpha, g.f1)


# ---------------------------------------------------------------------------
# Generators and 2-well-pointedness.
# ---------------------------------------------------------------------------

def arrow_functor(a: InternalCategory, arrow: int) -> InternalFunctor:
    """The functor from the free arrow picking a given arrow of a."""
    two = free_arrow()
    src, tgt = a.d1.table[arrow], a.d0.table[arrow]
    f0 = FinMap(two.C0, a.C0, (src, tgt))
    f1 = FinMap(two.C1, a.C1, (a.i.table[src], a.i.table[tgt], arrow))
    return InternalFunctor(two, a, f0, f1)


@dataclass(frozen=True)
class GeneratorVerdict:
    verdict: str
    failures: tuple = ()


def generator_check(family, test_pairs) -> GeneratorVerdict:
    """For each distinct parallel pair (f, g), find a probe h from a family
    member with f.h != g.h. Free-arrow members use the arrow-probe recipe;
    other members fall back to exhaustive functor enumeration."""
    failures = []
    for f, g in test_pairs:
        if f == g:
            continue
        separated = False
        for member in family:
            if member == free_arrow():
                if f.f1.table != g.f1.table:
                    arrow = next(k for k in range(f.dom.C1.size)
                                 if f.f1.table[k] != g.f1.table[k])
                    h = arrow_functor(f.dom, arrow)
                    if compose_functors(f, h) != compose_functors(g, h):
                        separated = True
                        break
            else:
                for h in enumerate_functors(member, f.dom):
                    if compose_functors(f, h) != compose_functors(g, h):
                        separated = True
                        break
                if separated:
                    break
        if not separated:
            failures.append((f, g))
    return GeneratorVerdict("verified-at-scale" if not failures else "refuted",
                            tuple(failures))


def diagonal_equaliser_holds(a: FinObj) -> bool:
    """The diagonal equalises the two pairings A x A => A x A x A."""
    p2 = finset.product(a, a)
    p3 = finset.product(p2.apex, a)
    pi1, pi2 = p2.projections
    diag = p2.mediate(identity(a), identity(a))
    e1 = p3.mediate(p2.mediate(pi1, pi1), pi2)   # (x, y) -> (x, x, y)
    e2 = p3.mediate(p2.mediate(pi1, pi2), pi2)   # (x, y) -> (x, y, y)
    eq = finset.equalizer(e1, e2)
    if eq.apex.size != a.size:
        return False
    image = {diag.table[x] for x in range(a.size)}
    return image == {t[0] for t in eq.tuples}


def two_well_pointed_check(test_pairs, base_sizes=range(6)) -> GeneratorVerdict:
    """Generator check with the free arrow, plus its connected components and
    the diagonal-equaliser identity on small base objects."""
    if pi0(free_arrow()).size != 1:
        return GeneratorVerdict("refuted", (("pi0", "free arrow not connected"),))
    for n in base_sizes:
        if not diagonal_equaliser_holds(FinObj(n)):
            return GeneratorVerdict("refuted", (("equaliser", n),))
    return generator_check([free_arrow()], test_pairs)


# ---------------------------------------------------------------------------
# Aggregate audit.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AuditConfig:
    seed: int = 7
    max_objects: int = 4
    max_arrows: int = 10
    corpus_size: int = 12
    nno_max_size: int = 3
    size_bound: int = 10 ** 6
    suites: tuple = ("finiteLimits", "cartesianClosed", "wellPointed2", "nno",
                     "fullSubobjectClassifier", "categorifiedChoice",
                     "extensivity", "boolean", "twoValued")


def run_audit(config: AuditConfig) -> dict:
    """Execute the per-axiom suites at the configured scale and assemble the
    report; deterministic for a fixed config."""
    # read from limits at call time, so that a patched limits is the one used
    from .limits import hom_category, hom_iso_with_oracle

    report = {"config": {
        "seed": config.seed, "max_objects": config.max_objects,
        "max_arrows": config.max_arrows, "corpus_size": config.corpus_size,
        "nno_max_size": config.nno_max_size, "size_bound": config.size_bound,
        "suites": list(config.suites)}, "entries": {}}
    spec = CorpusSpec(seed=config.seed, max_objects=config.max_objects,
                      max_arrows=config.max_arrows, count=config.corpus_size)
    corpus = generate_corpus(spec)
    functors = generate_functor_corpus(corpus, seed=config.seed)
    entries = report["entries"]

    def entry(name, verdict, **witnesses):
        entries[name] = {"verdict": verdict, "witnesses": witnesses}

    empty = not corpus
    for name in AuditConfig.suites:
        if name not in config.suites or (empty and name != "nno"):
            entry(name, "skipped")

    if "finiteLimits" in config.suites and not empty:
        pairs = [(a, b) for a in corpus[:4] for b in corpus[:4]]
        bad = next(((a, b) for a, b in pairs
                    if not validate_category(product_cat(a, b).category).ok), None)
        if bad is None:
            entry("finiteLimits", "verified-at-scale", products_checked=len(pairs))
        else:
            entry("finiteLimits", "refuted", pair=(bad[0].C0.size, bad[1].C0.size))

    if "cartesianClosed" in config.suites and not empty:
        agree = 0
        tried = 0
        for a in corpus:
            for b in corpus:
                try:
                    ih = internal_hom(a, b, config.size_bound)
                    hc = hom_category(a, b, config.size_bound)
                except SizeBound:
                    continue
                tried += 1
                try:
                    hom_iso_with_oracle(ih, hc)
                except CertificateFailure:
                    pass
                else:
                    agree += 1
                if tried >= 10:
                    break
            if tried >= 10:
                break
        # no pair under the size bound means nothing was compared
        verdict = ("skipped" if not tried else
                   "verified-at-scale" if agree == tried else "refuted")
        entry("cartesianClosed", verdict, pairs_compared=tried, agreements=agree)

    if "wellPointed2" in config.suites and not empty:
        pairs = _parallel_pairs(functors)
        verdict = two_well_pointed_check(pairs, range(config.max_objects + 2))
        entry("wellPointed2", verdict.verdict, pairs_tested=len(pairs))

    if "nno" in config.suites:
        refutations = refute_finite_nno(config.nno_max_size)
        witnesses = [{
            "candidate": {"N": r.candidate[0].size,
                          "z": list(r.candidate[1].table),
                          "s": list(r.candidate[2].table)},
            "test": {"X": r.test[0].size, "f": list(r.test[1].table),
                     "g": list(r.test[2].table)},
            "outcome": r.verdict.outcome,
        } for r in refutations]
        entry("nno", "refuted", candidates=len(refutations),
              counterexamples=witnesses,
              note="no finite candidate admits unique recursors; every "
                   "candidate refuted with a verified counterexample")

    if "fullSubobjectClassifier" in config.suites and not empty:
        fsc = full_subobject_classifier()
        monos = [f for f in functors if is_full_mono(f)]
        bad = [f for f in monos
               if not classifying_square_is_pullback(f, classify_full_mono(f), fsc)]
        entry("fullSubobjectClassifier",
              "verified-at-scale" if not bad else "refuted",
              full_monos_classified=len(monos), failures=len(bad))

    if "categorifiedChoice" in config.suites and not empty:
        results = categorified_choice_audit(functors)
        certs = sum(1 for r in results if r.outcome == "certificate")
        bad = sum(1 for r in results if r.outcome == "counterexample")
        entry("categorifiedChoice", "verified-at-scale" if not bad else "refuted",
              certificates=certs, skipped=len(results) - certs - bad)

    if "extensivity" in config.suites and not empty:
        ok = True
        tested = 0
        for a in corpus[:3]:
            for b in corpus[:3]:
                cop = coproduct_cat(a, b)
                if not validate_category(cop.category).ok:
                    ok = False
                probes = [h for h in functors if h.cod == a][:2]
                for p in probes:
                    h = compose_functors(cop.inj0, p)
                    pb0 = pullback_cat(h, cop.inj0)
                    pb1 = pullback_cat(h, cop.inj1)
                    if (pb0.category.C0.size + pb1.category.C0.size
                            != h.dom.C0.size
                            or pb0.category.C1.size + pb1.category.C1.size
                            != h.dom.C1.size):
                        ok = False
                    tested += 1
        entry("extensivity", "verified-at-scale" if ok else "refuted",
              pullback_decompositions=tested)

    if "boolean" in config.suites and not empty:
        entry("boolean", "verified-at-scale" if is_boolean() else "refuted")

    if "twoValued" in config.suites and not empty:
        verdict, info = is_two_valued()
        entry("twoValued", "verified-at-scale" if verdict else "refuted", **info)

    return report


def _parallel_pairs(functors):
    pairs = []
    for i, f in enumerate(functors):
        for g in functors[i + 1:]:
            if f.dom == g.dom and f.cod == g.cod and f != g and f.dom.C0.size:
                pairs.append((f, g))
    return pairs

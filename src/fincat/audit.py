"""The model-axiom checklist: recursor search and finite-NNO refutation,
generator and 2-well-pointedness verification, and the aggregate report.

The report's suites come from one registry, `SUITES`, in report order, of
each suite's function and expected verdict; `fincat audit --suite` takes its
names. A suite says whether its claim held and how much it checked, and
`run_audit` alone names the verdict: verified-at-scale, refuted or skipped,
as desk-scale checks cannot certify universally quantified axioms. The
finite-set base cannot carry a natural numbers object; the audit refutes
every candidate up to NNO_MAX_SIZE elements with a verified counterexample.
"""

from dataclasses import asdict, dataclass
from itertools import product as iproduct

from . import finset
from .classifiers import (categorified_choice_audit, classify_full_mono,
                          classifying_square_is_pullback,
                          full_subobject_classifier, is_boolean, is_two_valued)
from .corpus import CorpusSpec, generate_corpus, generate_functor_corpus
from .errors import SIZE_BOUND, CertificateFailure, ShapeMismatch, SizeBound
from .finset import FinMap, FinObj, identity
from .internal import (InternalCategory, InternalFunctor, compose_functors,
                       is_full_mono, validate_category)
from .limits import (coproduct_cat, enumerate_functors, free_arrow, hom_category,
                     hom_iso_with_oracle, internal_hom, product_cat, pullback_cat)
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
    # finite sets are equal when their sizes are
    n, x = n_obj.size, x_obj.size
    if (z.dom.size, z.cod.size, s.dom.size, s.cod.size) != (1, n, n, n):
        raise ShapeMismatch("candidate must be (N, z: 1 -> N, s: N -> N)")
    if (f.dom.size, f.cod.size, g.dom.size, g.cod.size) != (1, x, x, x):
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
    if alpha.dom.size != 1 or alpha.cod.size != x_cat.C1.size:
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
    failures = tuple((f, g) for f, g in test_pairs if f != g and not any(
        _separates(member, f, g) for member in family))
    return GeneratorVerdict("verified-at-scale" if not failures else "refuted",
                            failures)


def _separates(member, f, g) -> bool:
    """Some probe h from `member` has f.h != g.h."""
    if member == free_arrow():
        # one probe, picking the first arrow where f and g differ, if any
        differ = [k for k, (x, y) in enumerate(zip(f.f1.table, g.f1.table)) if x != y]
        probes = [arrow_functor(f.dom, k) for k in differ[:1]]
    else:
        probes = enumerate_functors(member, f.dom)
    return any(compose_functors(f, h) != compose_functors(g, h) for h in probes)


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


def two_well_pointed_check(test_pairs, base_sizes) -> GeneratorVerdict:
    """Generator check with the free arrow, plus its connected components and
    the diagonal-equaliser identity on small base objects."""
    if pi0(free_arrow()).size != 1:
        return GeneratorVerdict("refuted", (("pi0", "free arrow not connected"),))
    for n in base_sizes:
        if not diagonal_equaliser_holds(FinObj(n)):
            return GeneratorVerdict("refuted", (("equaliser", n),))
    return generator_check([free_arrow()], test_pairs)


# ---------------------------------------------------------------------------
# Aggregate audit: one function per suite, in one registry.
# ---------------------------------------------------------------------------

NNO_MAX_SIZE = 3  # the largest NNO candidate the audit refutes


def _finite_limits(corpus, functors, config):
    pairs = [(a, b) for a in corpus[:4] for b in corpus[:4]]
    for checked, (a, b) in enumerate(pairs, 1):
        if not validate_category(product_cat(a, b).category).ok:
            return False, checked, {"pair": (a.C0.size, b.C0.size)}
    return True, len(pairs), {"products_checked": len(pairs)}


def _cartesian_closed(corpus, functors, config):
    tried = agree = 0
    for a, b in iproduct(corpus, repeat=2):
        try:
            ih = internal_hom(a, b, config.size_bound)
            hc = hom_category(a, b, config.size_bound)
        except SizeBound:
            continue
        tried += 1
        try:
            hom_iso_with_oracle(ih, hc)
            agree += 1
        except CertificateFailure:
            pass
        if tried == 10:
            break
    return agree == tried, tried, {"pairs_compared": tried, "agreements": agree}


def _well_pointed2(corpus, functors, config):
    pairs = _parallel_pairs(functors)
    # A x A x A has n ** 3 elements: no base size past the size bound
    sizes = [n for n in range(config.max_objects + 2) if n ** 3 <= config.size_bound]
    verdict = two_well_pointed_check(pairs, sizes)
    return not verdict.failures, len(pairs), {"pairs_tested": len(pairs)}


def _nno(corpus, functors, config):
    refutations = refute_finite_nno(NNO_MAX_SIZE)
    witnesses = [{
        "candidate": {"N": r.candidate[0].size, "z": list(r.candidate[1].table),
                      "s": list(r.candidate[2].table)},
        "test": {"X": r.test[0].size, "f": list(r.test[1].table),
                 "g": list(r.test[2].table)},
        "outcome": r.verdict.outcome,
    } for r in refutations]
    return False, len(refutations), {
        "candidates": len(refutations), "counterexamples": witnesses,
        "note": "no finite candidate admits unique recursors; every "
                "candidate refuted with a verified counterexample"}


def _full_subobject_classifier(corpus, functors, config):
    fsc = full_subobject_classifier()
    monos = [f for f in functors if is_full_mono(f)]
    bad = [f for f in monos
           if not classifying_square_is_pullback(f, classify_full_mono(f), fsc)]
    return not bad, len(monos), {"full_monos_classified": len(monos),
                                 "failures": len(bad)}


def _categorified_choice(corpus, functors, config):
    outcomes = [r.outcome for r in categorified_choice_audit(functors)]
    certs, bad = outcomes.count("certificate"), outcomes.count("counterexample")
    return not bad, certs + bad, {"certificates": certs,
                                  "skipped": len(outcomes) - certs - bad}


def _extensivity(corpus, functors, config):
    """Coproducts of the first three corpus members validate, and pulling a
    functor into a summand back along both injections splits its domain."""
    ok, tested = True, 0
    for a in corpus[:3]:
        probes = [h for h in functors if h.cod == a][:2]
        for b in corpus[:3]:
            cop = coproduct_cat(a, b)
            ok &= validate_category(cop.category).ok
            for p in probes:
                h = compose_functors(cop.inj0, p)
                pb0 = pullback_cat(h, cop.inj0).category
                pb1 = pullback_cat(h, cop.inj1).category
                ok &= (pb0.C0.size + pb1.C0.size == h.dom.C0.size
                       and pb0.C1.size + pb1.C1.size == h.dom.C1.size)
                tested += 1
    return ok, len(corpus[:3]) ** 2 + tested, {"pullback_decompositions": tested}


def _boolean(corpus, functors, config):
    return is_boolean(), 1, {}


def _two_valued(corpus, functors, config):
    holds, info = is_two_valued()
    return holds, 1, info


@dataclass(frozen=True)
class Suite:
    """A registry entry: `check(corpus, functors, config)` returns (holds,
    checked, witnesses), and `run_audit` names the verdict."""
    check: callable
    expected: str = "verified-at-scale"


SUITES = {
    "finiteLimits": Suite(_finite_limits),
    "cartesianClosed": Suite(_cartesian_closed),
    "wellPointed2": Suite(_well_pointed2),
    # finiteness forbids a natural numbers object
    "nno": Suite(_nno, expected="refuted"),
    "fullSubobjectClassifier": Suite(_full_subobject_classifier),
    "categorifiedChoice": Suite(_categorified_choice),
    "extensivity": Suite(_extensivity),
    "boolean": Suite(_boolean),
    "twoValued": Suite(_two_valued),
}


@dataclass(frozen=True)
class AuditConfig:
    seed: int = CorpusSpec.seed
    max_objects: int = CorpusSpec.max_objects
    max_arrows: int = CorpusSpec.max_arrows
    corpus_size: int = 12
    size_bound: int = SIZE_BOUND
    suites: tuple = tuple(SUITES)


def run_audit(config: AuditConfig) -> dict:
    """Run the selected suites and assemble the report, deterministic for a
    fixed config: refuted when a claim failed, else verified-at-scale when an
    item was checked, else skipped. A name outside `SUITES` is a ValueError."""
    unknown = [name for name in config.suites if name not in SUITES]
    if unknown:
        raise ValueError(f"unknown audit suites: {', '.join(unknown)}")
    spec = CorpusSpec(seed=config.seed, max_objects=config.max_objects,
                      max_arrows=config.max_arrows, count=config.corpus_size)
    corpus = generate_corpus(spec)
    functors = generate_functor_corpus(corpus, seed=config.seed)
    entries = {}
    for name, suite in SUITES.items():
        verdict, witnesses = "skipped", {}
        if name in config.suites:
            holds, checked, witnesses = suite.check(corpus, functors, config)
            verdict = ("refuted" if not holds else
                       "verified-at-scale" if checked else "skipped")
        entries[name] = {"verdict": verdict, "witnesses": witnesses}
    return {"config": {**asdict(config), "nno_max_size": NNO_MAX_SIZE,
                       "suites": list(dict.fromkeys(config.suites))},
            "entries": entries}


def _parallel_pairs(functors):
    """Pairs (f, g) of distinct parallel functors, f listed before g, whose
    domain has an object; functors are grouped by (dom, cod) first."""
    groups, place = {}, []
    for f in functors:
        group = groups.setdefault((f.dom, f.cod), [])
        place.append((group, len(group)))
        group.append(f)
    pairs = []
    for f, (group, k) in zip(functors, place):
        if f.dom.C0.size:
            pairs.extend((f, g) for g in group[k + 1:] if f != g)
    return pairs

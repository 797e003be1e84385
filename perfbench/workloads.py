"""The benchmark's workloads.

A workload prepares its inputs during set-up, then runs rounds: each round
calls `rnd.op(label, thunk, check)` for the same operations in the same
order. The runner times each thunk; in the first round it passes the output
to `check`, which returns the number of items it verified. `rnd.check(fn)`
adds a check over several outputs. `digest` gives the part of an output that
later rounds must reproduce exactly.

`fc` is a namespace holding the freshly imported fincat modules; workloads
call the program only through it, so that traced runs see every call.
"""

import contextlib
import io
import json
import random

import checks

HOM_BOUND = 10 ** 6   # criterion 1's SIZE_BOUND


def carrier_tables(cat):
    return (cat.d0.table, cat.d1.table, cat.i.table, cat.m.table)


class Workload:
    name = ""
    refusable = False     # whether SizeBound counts as a failed operation

    def prepare(self, fc, corpus, seed):
        raise NotImplementedError

    def run_round(self, fc, inputs, rnd):
        raise NotImplementedError

    def digest(self, label, output):
        raise NotImplementedError


# ---------------------------------------------------------------------------

class HomSweep(Workload):
    """Criterion 1's traffic on a slice of its corpus (CorpusSpec defaults:
    seed 7, 25 categories): for each ordered pair, internal_hom by the end
    formula and the naive oracle hom-category.

    The slice is every ordered pair of categories with at most three arrows,
    plus two pairs the end search refuses with SizeBound: (21, 20), whose
    level-2 search exceeds the step bound although its hom is small, and
    (10, 9), a hom of 65,536 cells that level 1 searches for seconds before
    the bound refuses it.
    """

    name = "hom-sweep"
    refusable = True
    max_arrows = 3
    refused_pairs = ((21, 20), (10, 9))

    def prepare(self, fc, corpus, seed):
        small = [i for i, c in enumerate(corpus) if c.C1.size <= self.max_arrows]
        pairs = [(i, j) for i in small for j in small]
        pairs += [p for p in self.refused_pairs if p not in pairs]
        random.Random(seed).shuffle(pairs)
        return {"corpus": corpus, "pairs": pairs}

    def run_round(self, fc, inputs, rnd):
        corpus, naive = inputs["corpus"], fc.naive
        for i, j in inputs["pairs"]:
            a, b = corpus[i], corpus[j]

            def op(a=a, b=b):
                ih = fc.limits.internal_hom(a, b, HOM_BOUND)
                na, nb = naive.oracle_from_internal(a), naive.oracle_from_internal(b)
                return ih, naive.oracle_hom_category(na, nb, HOM_BOUND)

            rnd.op(("hom", i, j), op,
                   lambda out: checks.check_hom_against_oracle(out[0], *out[1]))

    def digest(self, label, output):
        ih, (funs, arrows, oracle_cat) = output
        return (carrier_tables(ih.carrier),
                [f.key() for f in ih.level0], [f.key() for f in ih.level1],
                funs, arrows, oracle_cat.comp)


# ---------------------------------------------------------------------------

class HomTranspose(Workload):
    """Homs that are used rather than built. Each round builds a few small
    homs [X, Y] between corpus categories, enumerates every functor
    Z x X -> Y for a few small corpus categories Z and transposes each by
    InternalHom.curry, and runs the full naturality sweep of
    ends.check_family on every level-0 and level-1 family of each hom."""

    name = "hom-transpose"
    homs = ((0, 0), (0, 5), (17, 6), (3, 3), (17, 17), (5, 12))
    zs = (0, 6, 18, 21, 22, 20)

    def prepare(self, fc, corpus, seed):
        rng = random.Random(seed)
        homs, zs = list(self.homs), list(self.zs)
        rng.shuffle(homs)
        rng.shuffle(zs)
        return {"corpus": corpus, "homs": homs, "zs": zs, "seed": seed}

    def run_round(self, fc, inputs, rnd):
        corpus, limits = inputs["corpus"], fc.limits
        built = {}
        for xi, yi in inputs["homs"]:
            x, y = corpus[xi], corpus[yi]
            built[(xi, yi)] = rnd.op(
                ("hom", xi, yi), lambda x=x, y=y: limits.internal_hom(x, y),
                lambda ih, x=x, y=y: self._check_hom(fc, x, y, ih))
        groups, curry_ops = {}, []
        for xi, yi in inputs["homs"]:
            x, y = corpus[xi], corpus[yi]
            for zi in inputs["zs"]:
                def enum(z=corpus[zi], x=x, y=y):
                    prod = limits.product_cat(z, x)
                    return prod, limits.enumerate_functors(prod.category, y)

                prod, hs = rnd.op(("enum", xi, yi, zi), enum)
                groups[(xi, yi, zi)] = (prod, hs, {})
                curry_ops += [(xi, yi, zi, k) for k in range(len(hs))]
        check_ops = [(xi, yi, level, k)
                     for xi, yi in inputs["homs"]
                     for level, fams in enumerate((built[(xi, yi)].level0,
                                                   built[(xi, yi)].level1))
                     for k in range(len(fams))]
        # the same seeded interleaving in every round
        rng = random.Random(inputs["seed"])
        rng.shuffle(curry_ops)
        rng.shuffle(check_ops)
        for xi, yi, zi, k in curry_ops:
            ih, z = built[(xi, yi)], corpus[zi]
            prod, hs, curried = groups[(xi, yi, zi)]
            curried[k] = rnd.op(
                ("curry", xi, yi, zi, k),
                lambda ih=ih, z=z, prod=prod, h=hs[k]: ih.curry(z, prod, h),
                lambda c, ih=ih, prod=prod, h=hs[k]:
                    checks.check_round_trip(ih, prod, h, c))
        for xi, yi, level, k in check_ops:
            x, y = corpus[xi], corpus[yi]
            fam = (built[(xi, yi)].level0, built[(xi, yi)].level1)[level][k]
            rnd.op(("check", xi, yi, level, k),
                   lambda x=x, y=y, fam=fam: fc.ends.check_family(x, y, fam),
                   lambda ok, label=(xi, yi, level, k): checks.check_holds(
                       ok, f"check_family on family {label}"))
        for (xi, yi, zi), (prod, hs, curried) in groups.items():
            rnd.check(lambda ih=built[(xi, yi)], z=corpus[zi], y=corpus[yi],
                      prod=prod, curried=curried:
                      self._check_group(fc, ih, z, y, prod, curried))

    @staticmethod
    def _check_hom(fc, x, y, ih):
        naive = fc.naive
        nx, ny = naive.oracle_from_internal(x), naive.oracle_from_internal(y)
        funs = naive.oracle_functors(nx, ny)
        cells = naive.count_all_nat_trans(nx, ny, funs)
        checks.require((ih.carrier.C0.size, ih.carrier.C1.size) == (len(funs), cells),
                       "hom sizes differ from the oracle's")
        return 1

    @staticmethod
    def _check_group(fc, ih, z, y, prod, curried):
        naive = fc.naive
        to_hom = naive.oracle_functors(naive.oracle_from_internal(z),
                                       naive.oracle_from_internal(ih.carrier))
        from_prod = naive.oracle_functors(naive.oracle_from_internal(prod.category),
                                          naive.oracle_from_internal(y))
        return checks.check_transposes([curried[k] for k in sorted(curried)],
                                       to_hom, from_prod)

    def digest(self, label, output):
        kind = label[0]
        if kind == "hom":
            return carrier_tables(output.carrier)
        if kind == "enum":
            return [checks.tables(h) for h in output[1]]
        if kind == "curry":
            return checks.tables(output)
        return output


# ---------------------------------------------------------------------------

class ModelAudit(Workload):
    """`fincat audit` through cli.main over a range of audit seeds, with the
    lifted factorisation (both base systems) of every functor of each seed's
    functor corpus, lifting squares drawn from it, and the power by the free
    arrow of each of its categories."""

    name = "model-audit"
    audit_seeds = tuple(range(1, 17))
    corpus_size = 12          # the audit's default
    squares_per_system = 10

    def prepare(self, fc, corpus, seed):
        spec = fc.corpus.CorpusSpec
        systems = {"epi-mono": fc.factorisation.epi_mono_ofs(),
                   "iso-all": fc.factorisation.iso_all_ofs()}
        ops = []
        for s in self.audit_seeds:
            cats = fc.corpus.generate_corpus(spec(seed=s, count=self.corpus_size))
            funs = fc.corpus.generate_functor_corpus(cats, seed=s)
            ops.append((("audit", s), None))
            for k, f in enumerate(funs):
                ops += [(("factor", s, k, name), f) for name in systems]
            ops += [(("power", s, k), a) for k, a in enumerate(cats)]
            rng = random.Random(seed * 1_000_003 + s)
            for k, (name, sq) in enumerate(self._squares(fc, funs, rng)):
                ops.append((("lift", s, k, name), sq))
        random.Random(seed).shuffle(ops)
        two = fc.naive.oracle_from_internal(fc.limits.free_arrow())
        return {"ops": ops, "systems": systems, "two": two}

    def _squares(self, fc, funs, rng):
        """Commuting squares (s, f, u.s, f.u) with s in the lifted left class
        and f in the lifted right class, u drawn from the functors between."""
        internal, finset = fc.internal, fc.finset
        lefts = [s for s in funs if internal.is_epi_on_objects(s)
                 and s.cod.C1.size <= 6 and s.dom.C1.size <= 6]
        rights = [f for f in funs if internal.is_full_mono(f)
                  and f.dom.C1.size <= 6 and f.cod.C1.size <= 6]
        out = []
        for name, ls in (("epi-mono", lefts),
                         ("iso-all", [s for s in lefts if finset.is_iso(s.f0)])):
            found = 0
            for _attempt in range(200):
                if found == self.squares_per_system or not ls or not rights:
                    break
                s, f = rng.choice(ls), rng.choice(rights)
                fillers = fc.limits.enumerate_functors(s.cod, f.dom)
                if not fillers:
                    continue
                u = rng.choice(fillers)
                out.append((name, (s, f, internal.compose_functors(u, s),
                                   internal.compose_functors(f, u))))
                found += 1
        return out

    def run_round(self, fc, inputs, rnd):
        systems, naive = inputs["systems"], fc.naive
        for label, arg in inputs["ops"]:
            kind = label[0]
            if kind == "audit":
                def op(s=label[1]):
                    buf = io.StringIO()
                    with contextlib.redirect_stdout(buf):
                        code = fc.cli.main(["audit", "--seed", str(s),
                                            "--format", "structured"])
                    return code, buf.getvalue()

                def check(out):
                    return checks.check_audit_report(json.loads(out[1]), out[0])
            elif kind == "factor":
                def op(f=arg, ofs=systems[label[3]]):
                    return fc.factorisation.factor_internal(f, ofs)

                def check(out, f=arg, name=label[3]):
                    return checks.check_factorisation(f, out, name)
            elif kind == "power":
                def op(a=arg):
                    return fc.limits.power_by_two(a)

                def check(out, a=arg):
                    na = naive.oracle_from_internal(a)
                    funs = naive.oracle_functors(inputs["two"], na)
                    cells = naive.count_all_nat_trans(inputs["two"], na, funs)
                    return checks.check_power(out, len(funs), cells)
            else:
                def op(sq=arg, ofs=systems[label[3]]):
                    return fc.factorisation.lift_square(*sq, ofs)

                def check(out, sq=arg):
                    fillers = naive.oracle_functors(
                        naive.oracle_from_internal(sq[0].cod),
                        naive.oracle_from_internal(sq[1].dom))
                    return checks.check_lift(sq, out, fillers)
            rnd.op(label, op, check)

    def digest(self, label, output):
        kind = label[0]
        if kind == "audit":
            return output
        if kind == "factor":
            return (checks.tables(output.left), checks.tables(output.right))
        if kind == "power":
            return carrier_tables(output.carrier)
        return checks.tables(output)


WORKLOADS = {w.name: w for w in (HomSweep(), HomTranspose(), ModelAudit())}

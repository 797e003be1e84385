"""Command-line surface.

Exit codes: 0 on success/verified, 1 on refuted/counterexample, 2 on input
error. Results print as the structured-text format plus a human-readable
summary; `--format structured` suppresses the summary lines.
"""

import argparse
import sys
from functools import lru_cache

from . import serialize
from .audit import SUITES, AuditConfig, run_audit
from .classifiers import classify_full_mono, section_of_ff_epi
from .errors import (SIZE_BOUND, CertificateFailure, FincatError, NotFFEpi,
                     NotFullMono, ParseError, SizeBound, ValidationError)
from .factorisation import epi_mono_ofs, factor_internal, iso_all_ofs
from .limits import (copower_by_two, hom_category, hom_iso_with_oracle,
                     internal_hom, power_by_two)


def _read(path):
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _emit(args, structured, *summary):
    sys.stdout.write(structured)
    if args.format != "structured":
        for line in summary:
            print(line)


def cmd_validate(args):
    try:
        cat = serialize.parse_category(_read(args.file))
    except ValidationError as exc:
        print(f"invalid: {exc.report}")
        return 1
    _emit(args, serialize.serialize_category(cat),
          f"valid internal category: {cat.C0.size} objects, {cat.C1.size} arrows")
    return 0


def cmd_factor(args):
    fun = serialize.parse_functor(_read(args.file))
    ofs = epi_mono_ofs() if args.ofs == "epi-mono" else iso_all_ofs()
    fact = factor_internal(fun, ofs)
    _emit(args,
          serialize.serialize_functor(fact.left) + serialize.serialize_functor(fact.right),
          f"middle category: {fact.middle.C0.size} objects, {fact.middle.C1.size} arrows",
          f"left in {ofs.name}-left-on-objects, right fully faithful")
    return 0


def cmd_hom(args):
    a = serialize.parse_category(_read(args.file_a))
    b = serialize.parse_category(_read(args.file_b))
    ih = internal_hom(a, b, args.size_bound)
    _emit(args, serialize.serialize_category(ih.carrier),
          f"internal hom: {ih.carrier.C0.size} functors, {ih.carrier.C1.size} cells")
    return 0


def cmd_power(args):
    a = serialize.parse_category(_read(args.file))
    p = power_by_two(a)
    _emit(args, serialize.serialize_category(p.carrier),
          f"power by 2: {p.carrier.C0.size} objects, {p.carrier.C1.size} squares")
    return 0


def cmd_copower(args):
    a = serialize.parse_category(_read(args.file))
    c = copower_by_two(a)
    _emit(args, serialize.serialize_category(c.carrier),
          f"copower by 2: {c.carrier.C0.size} objects, {c.carrier.C1.size} arrows")
    return 0


def cmd_classify(args):
    fun = serialize.parse_functor(_read(args.file))
    chi = classify_full_mono(fun)
    _emit(args, serialize.serialize_functor(chi),
          "classifying functor into the indiscrete truth-value category")
    return 0


def cmd_section(args):
    fun = serialize.parse_functor(_read(args.file))
    cert = section_of_ff_epi(fun)
    _emit(args,
          serialize.serialize_functor(cert.section) + serialize.serialize_nat_trans(cert.unit),
          "section certificate: identity counit, invertible unit, triangles verified")
    return 0


def cmd_audit(args):
    suites = tuple(args.suite) if args.suite else AuditConfig.suites
    config = AuditConfig(seed=args.seed, max_objects=args.max_objects,
                         max_arrows=args.max_arrows, corpus_size=args.corpus_size,
                         size_bound=args.size_bound, suites=suites)
    report = run_audit(config)
    _emit(args, serialize.serialize_report(report))
    bad = False
    for name, data in sorted(report["entries"].items()):
        verdict = data["verdict"]
        # a skipped suite never fails the run
        expected = SUITES[name].expected
        if args.format != "structured":
            print(f"{name}: {verdict}")
        if verdict not in (expected, "skipped"):
            bad = True
    return 1 if bad else 0


def cmd_oracle_compare(args):
    a = serialize.parse_category(_read(args.file_a))
    b = serialize.parse_category(_read(args.file_b))
    ih = internal_hom(a, b, args.size_bound)
    hc = hom_category(a, b, args.size_bound)
    try:
        hom_iso_with_oracle(ih, hc)
        match = True
    except CertificateFailure:
        match = False
    print(f"end formula: {ih.carrier.C0.size} functors, {ih.carrier.C1.size} cells")
    print(f"oracle:      {len(hc.objects)} functors, {len(hc.arrows)} cells")
    print("match" if match else "MISMATCH")
    return 0 if match else 1


def count(text):
    """A non-negative integer option value: sizes, counts and bounds."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fincat",
        description="category theory internal to finite sets, with verification")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["text", "structured"], default="text")
    bounded = argparse.ArgumentParser(add_help=False)
    bounded.add_argument("--size-bound", type=count, default=SIZE_BOUND)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, *parents, **kwargs):
        return sub.add_parser(name, parents=[common, *parents], **kwargs)

    p = add("validate", help="validate an internal category file")
    p.add_argument("file")
    p.set_defaults(fn=cmd_validate)

    p = add("factor", help="factor an internal functor")
    p.add_argument("file")
    p.add_argument("--ofs", choices=["epi-mono", "iso-all"], default="epi-mono")
    p.set_defaults(fn=cmd_factor)

    p = add("hom", bounded, help="internal hom of two categories")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.set_defaults(fn=cmd_hom)

    p = add("power", help="power by the free arrow")
    p.add_argument("file")
    p.set_defaults(fn=cmd_power)

    p = add("copower", help="copower by the free arrow")
    p.add_argument("file")
    p.set_defaults(fn=cmd_copower)

    p = add("classify", help="classify a full monomorphism")
    p.add_argument("file")
    p.set_defaults(fn=cmd_classify)

    p = add("section", help="section of a fully faithful epi-on-objects functor")
    p.add_argument("file")
    p.set_defaults(fn=cmd_section)

    p = add("audit", bounded, help="run the model-axiom audit")
    p.add_argument("--seed", type=int, default=AuditConfig.seed)
    p.add_argument("--max-objects", type=count, default=AuditConfig.max_objects)
    p.add_argument("--max-arrows", type=count, default=AuditConfig.max_arrows)
    p.add_argument("--corpus-size", type=count, default=AuditConfig.corpus_size)
    p.add_argument("--suite", action="append", choices=tuple(SUITES),
                   metavar="SUITE",
                   help="restrict to a named suite (repeatable)")
    p.set_defaults(fn=cmd_audit)

    p = add("oracle-compare", bounded, help="compare the end formula with the oracle")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.set_defaults(fn=cmd_oracle_compare)

    return parser


@lru_cache(maxsize=None)
def _parser():
    """The parser, built on the first call of main and kept."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, ValidationError, NotFullMono, NotFFEpi, SizeBound) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except FincatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

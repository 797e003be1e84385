"""Each refusal of malformed input, and each negative answer, that no other
test reaches: one table row per case, with the error type it raises or the
value it returns, and the two command-line outputs no other test reads."""

import json
import os

import pytest

from fincat import cli, finset, serialize
from fincat.audit import SUITES, recursor_search, two_dimensional_nno_check
from fincat.classifiers import is_strict_bi_sieve
from fincat.corpus import monoid_delooping
from fincat.errors import (CertificateFailure, DomainMismatch, FiberNotSingleton,
                           NonCommuting, NotInClass, NotInHomSet, ParseError,
                           ShapeMismatch, ValidationError)
from fincat.factorisation import (epi_mono_ofs, iso_all_ofs, left_orthogonal_to,
                                  lift_square, lift_two_cell)
from fincat.finset import FinMap, FinObj, identity
from fincat.internal import (InternalCategory, InternalFunctor, InternalNatTrans,
                             compose_functors, fiber_arrow, hcomp, id_functor,
                             id_nat_trans, vcomp, whisker_left, whisker_right)
from fincat.limits import (bang_functor, constant_functor, free_arrow,
                           internal_hom, power_by_two, product_cat, pullback_cat,
                           terminal_cat)
from fincat.transfer import (adjunction_objects_indisc, adjunction_pi0_disc, disc,
                             discrete_nat_trans_bijection, functor_from_disc)

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")

TWO, ONE, D2 = free_arrow(), terminal_cat(), disc(FinObj(2))
ID2, ID1 = id_functor(TWO), id_functor(ONE)


def _map(dom, cod, table):
    return FinMap(FinObj(dom), FinObj(cod), tuple(table))


def _const_cell():
    return id_nat_trans(constant_functor(TWO, TWO, 0))


def _candidate(s_table):
    """An NNO candidate (N, z, s) on two elements with z = 0."""
    return FinObj(2), _map(1, 2, (0,)), _map(len(s_table), 2, s_table)


def _cell_doc(alpha):
    doc = json.loads(serialize.serialize_nat_trans(id_nat_trans(ID2)))
    doc["alpha"] = alpha
    return json.dumps(doc)


CASES = [
    # finset
    ("negative-size", lambda: FinObj(-1), DomainMismatch),
    ("labels-length", lambda: FinObj(2, ("a",)), DomainMismatch),
    ("inverse-of-non-iso", lambda: finset.inverse(_map(2, 1, (0, 0))), DomainMismatch),
    ("mediate-leg-count", lambda: finset.pullback(
        finset.bang(FinObj(2)), finset.bang(FinObj(2))).mediate(identity(FinObj(2))),
     DomainMismatch),
    ("mediate-off-the-limit", lambda: finset.equalizer(
        identity(FinObj(2)), _map(2, 2, (1, 0))).mediate(identity(FinObj(2))),
     DomainMismatch),
    ("equalizer-not-parallel", lambda: finset.equalizer(
        identity(FinObj(2)), identity(FinObj(3))), DomainMismatch),
    ("coequalizer-not-parallel", lambda: finset.coequalizer(
        identity(FinObj(2)), identity(FinObj(3))), DomainMismatch),
    ("coeq-factor-domains", lambda: finset.coeq_factor(
        finset.coequalizer(identity(FinObj(2)), identity(FinObj(2)))[1],
        identity(FinObj(3))), DomainMismatch),
    ("coeq-factor-not-constant", lambda: finset.coeq_factor(
        finset.coequalizer(_map(1, 2, (0,)), _map(1, 2, (1,)))[1],
        identity(FinObj(2))), DomainMismatch),
    # internal
    ("category-d0-shape", lambda: InternalCategory(
        TWO.C0, TWO.C1, _map(3, 3, TWO.d0.table), TWO.d1, TWO.i, TWO.m),
     ShapeMismatch),
    ("category-d1-shape", lambda: InternalCategory(
        TWO.C0, TWO.C1, TWO.d0, _map(3, 3, TWO.d1.table), TWO.i, TWO.m),
     ShapeMismatch),
    ("category-i-shape", lambda: InternalCategory(
        TWO.C0, TWO.C1, TWO.d0, TWO.d1, _map(2, 4, TWO.i.table), TWO.m),
     ShapeMismatch),
    ("functor-f0-shape", lambda: InternalFunctor(
        TWO, TWO, _map(3, 2, (0, 1, 1)), ID2.f1), ShapeMismatch),
    ("functor-f1-shape", lambda: InternalFunctor(
        TWO, TWO, ID2.f0, _map(2, 3, (0, 1))), ShapeMismatch),
    ("functors-not-composable", lambda: compose_functors(ID1, ID2), DomainMismatch),
    ("cell-not-parallel", lambda: InternalNatTrans(ID2, ID1, TWO.i), ShapeMismatch),
    ("vcomp-not-composable", lambda: vcomp(_const_cell(), id_nat_trans(ID2)),
     DomainMismatch),
    ("whisker-left-mismatch", lambda: whisker_left(ID1, id_nat_trans(ID2)),
     DomainMismatch),
    ("whisker-right-mismatch", lambda: whisker_right(id_nat_trans(ID2), ID1),
     DomainMismatch),
    ("hcomp-mismatch", lambda: hcomp(id_nat_trans(ID1), id_nat_trans(ID2)),
     DomainMismatch),
    # both arrows of the delooping of Z/2 go to the one identity
    ("fiber-of-two-arrows", lambda: fiber_arrow(
        bang_functor(monoid_delooping([[0, 1], [1, 0]])), 0, 0, 0), FiberNotSingleton),
    # limits
    ("cone-mediate-domains", lambda: product_cat(TWO, TWO).mediate(ID2, ID1),
     DomainMismatch),
    ("pullback-not-cospan", lambda: pullback_cat(ID2, ID1), DomainMismatch),
    ("power-functor-elsewhere", lambda: power_by_two(TWO).functor_to_cell(ID2),
     DomainMismatch),
    ("curry-not-from-the-product", lambda: internal_hom(TWO, TWO).curry(
        TWO, product_cat(TWO, TWO), ID2), DomainMismatch),
    # transfer
    ("objects-indisc-wrong-map", lambda: adjunction_objects_indisc()
     .transpose_forward(TWO, FinObj(2), identity(FinObj(3))), NotInHomSet),
    ("objects-indisc-counit", lambda: adjunction_objects_indisc().counit(FinObj(3)),
     identity(FinObj(3))),
    ("pi0-disc-wrong-map", lambda: adjunction_pi0_disc()
     .transpose_forward(TWO, FinObj(1), identity(FinObj(2))), NotInHomSet),
    ("discrete-cell-wrong-map", lambda: discrete_nat_trans_bijection(
        FinObj(1), TWO)[0](identity(FinObj(2))), NotInHomSet),
    # factorisation
    ("epi-mono-no-diagonal", lambda: epi_mono_ofs().lift(
        identity(FinObj(1)), identity(FinObj(2)), _map(1, 2, (0,)), _map(1, 2, (1,))),
     NonCommuting),
    ("iso-all-no-diagonal", lambda: iso_all_ofs().lift(
        identity(FinObj(1)), identity(FinObj(2)), _map(1, 2, (0,)), _map(1, 2, (1,))),
     NonCommuting),
    ("lift-outside-right-class", lambda: lift_square(
        ID2, bang_functor(D2), ID2, ID2, epi_mono_ofs()), NotInClass),
    ("lift-square-not-commuting", lambda: lift_square(
        ID2, ID2, ID2, constant_functor(TWO, TWO, 0), epi_mono_ofs()), NonCommuting),
    ("lift-two-cell-incompatible", lambda: lift_two_cell(
        ID2, ID2, id_nat_trans(ID2), _const_cell(), ID2, ID2, epi_mono_ofs()),
     NonCommuting),
    # the inclusion 1 -> disc 2 has two fillers against disc 2 -> 1
    ("left-orthogonal-two-fillers", lambda: left_orthogonal_to(
        functor_from_disc(FinObj(1), D2, _map(1, 2, (0,))), bang_functor(D2)), False),
    # classifiers
    ("bi-sieve-not-mono-on-objects", lambda: is_strict_bi_sieve(bang_functor(D2)),
     False),
    # audit
    ("recursor-candidate-shape", lambda: recursor_search(
        *_candidate((0,)), FinObj(1), _map(1, 1, (0,)), identity(FinObj(1))),
     ShapeMismatch),
    ("recursor-test-shape", lambda: recursor_search(
        *_candidate((1, 0)), FinObj(2), _map(1, 2, (0,)), _map(1, 2, (0,))),
     ShapeMismatch),
    ("nno-2-cell-shape", lambda: two_dimensional_nno_check(
        *_candidate((1, 0)), TWO, ID2, _map(1, 2, (0,))), ShapeMismatch),
    ("nno-not-an-endofunctor", lambda: two_dimensional_nno_check(
        *_candidate((1, 0)), TWO, ID1, _map(1, 3, (0,))), ShapeMismatch),
    # serialize
    ("report-not-a-report", lambda: serialize.parse_report('{"config": {}}'),
     ParseError),
    ("labels-length-in-document", lambda: serialize.parse(
        '{"size": 2, "labels": ["a"]}'), ParseError),
    ("map-table-length", lambda: serialize.parse(
        '{"dom": {"size": 2}, "cod": {"size": 2}, "table": [0]}'), ParseError),
    # the component at the source object is the arrow out of it
    ("cell-not-natural", lambda: serialize.parse(_cell_doc([2, 1])), ValidationError),
    ("unrecognised-document", lambda: serialize.parse('{"x": 1}'), ParseError),
]


@pytest.mark.parametrize("call,expected", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_refusal(call, expected):
    if isinstance(expected, type) and issubclass(expected, Exception):
        with pytest.raises(expected):
            call()
    else:
        assert call() == expected


def _planted(*args):
    raise CertificateFailure("planted")


@pytest.mark.parametrize("argv,patch,code,out_tail,err", [
    # the text format follows the report with one line per suite, by name
    (["audit", "--suite", "boolean"], None, 0,
     "".join(f"{name}: {'verified-at-scale' if name == 'boolean' else 'skipped'}\n"
             for name in sorted(SUITES)), ""),
    # an error that is no input error is still exit 2, with its message
    (["power", os.path.join(FIXTURES, "walking_arrow.json")],
     ("power_by_two", _planted), 2, "", "error: planted\n"),
], ids=["audit-text-summary", "generic-error"])
def test_cli_output(argv, patch, code, out_tail, err, monkeypatch, capsys):
    if patch:
        monkeypatch.setattr(cli, *patch)
    assert cli.main(argv) == code
    out = capsys.readouterr()
    assert out.out.endswith(out_tail)
    assert out.err == err

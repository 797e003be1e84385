"""Rules on the package source that no single behaviour test pins: a
certificate must be checked by code that `python -O` keeps, so no `assert`
statement, and no handler may catch every exception, so no bare `except:`
and no `except Exception`. The oracle (`naive`) shares nothing with the
paths it checks but the error types, and the category layer (`internal`)
does not reach up into the end search or the limits built on it. Each audit
suite is named once, in the registry `audit.SUITES`, and returns whether its
claim held, not a verdict: `audit.run_audit` alone names one. The nerve is
read only through `internal.simplicial_map`. The default bound is written
once, as `errors.SIZE_BOUND`, and the CLI writes no number as an option's
default: it reads the bound and `audit.AuditConfig`'s fields."""

import ast
import os

import pytest

from fincat.audit import SUITES

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "fincat")
FILES = sorted(name for name in os.listdir(SRC) if name.endswith(".py"))


def _catches_everything(handler):
    caught = handler.type
    types = caught.elts if isinstance(caught, ast.Tuple) else [caught]
    return any(t is None or (isinstance(t, ast.Name) and t.id == "Exception")
               for t in types)


def _parse(name):
    with open(os.path.join(SRC, name), encoding="utf-8") as f:
        return ast.parse(f.read(), name)


def _package_imports(name):
    """The modules of the package that the source file `name` imports."""
    found = set()
    for node in ast.walk(_parse(name)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:  # relative: within the package
                module = "fincat." + module if module else "fincat"
            modules = ([module] if module != "fincat"
                       else [f"fincat.{alias.name}" for alias in node.names])
        else:
            continue
        found.update(m.split(".")[1] for m in modules if m.startswith("fincat."))
        found.update(m for m in modules if m == "fincat")
    return found


def test_oracle_imports_only_the_error_types():
    assert _package_imports("naive.py") <= {"errors"}


def test_category_layer_imports_neither_ends_nor_limits():
    assert not _package_imports("internal.py") & {"ends", "limits"}


def _nerve_reads(name):
    """module.function of each read of an attribute `nerve` in `name`."""
    reads = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.Attribute) and node.attr == "nerve":
            reads.append(f"{name[:-3]}.{scope}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(_parse(name), None)
    return reads


def test_only_simplicial_map_reads_the_nerve():
    assert [read for name in FILES for read in _nerve_reads(name)] == \
        ["internal.simplicial_map"]


def test_each_suite_name_is_written_once():
    written = {}
    for name in FILES:
        for node in ast.walk(_parse(name)):
            if isinstance(node, ast.Constant) and node.value in SUITES:
                written.setdefault(node.value, []).append(f"{name}:{node.lineno}")
    assert {suite: len(places) for suite, places in written.items()} == \
        dict.fromkeys(SUITES, 1), written
    assert not any(place.startswith("cli.py:")
                   for places in written.values() for place in places)


VERDICTS = {"verified-at-scale", "refuted", "skipped"}


def test_no_suite_returns_a_verdict():
    checks = {suite.check.__name__ for suite in SUITES.values()}
    found, named = set(), []
    for node in ast.walk(_parse("audit.py")):
        if not (isinstance(node, ast.FunctionDef) and node.name in checks):
            continue
        found.add(node.name)
        for ret in ast.walk(node):
            if not isinstance(ret, ast.Return):
                continue
            # a witness key may read like a verdict; a returned value may not
            keys = {id(key) for part in ast.walk(ret) if isinstance(part, ast.Dict)
                    for key in part.keys}
            named += [f"audit.py:{part.lineno}: {node.name}"
                      for part in ast.walk(ret) if isinstance(part, ast.Constant)
                      and part.value in VERDICTS and id(part) not in keys]
    assert found == checks
    assert not named, named


def _is_million(node):
    """Whether node is the literal 10 ** 6 or 1000000."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        return (isinstance(node.left, ast.Constant)
                and isinstance(node.right, ast.Constant)
                and (node.left.value, node.right.value) == (10, 6))
    return isinstance(node, ast.Constant) and node.value == 10 ** 6


def test_the_default_bound_is_written_once():
    written = [(name, node.lineno) for name in FILES
               for node in ast.walk(_parse(name)) if _is_million(node)]
    assert [name for name, _line in written] == ["errors.py"], written


def _number_literal(node):
    """Whether node writes a number out: constants and arithmetic on them."""
    parts = list(ast.walk(node))
    return (all(isinstance(part, (ast.Constant, ast.BinOp, ast.UnaryOp,
                                  ast.operator, ast.unaryop)) for part in parts)
            and any(isinstance(part, ast.Constant)
                    and type(part.value) in (int, float) for part in parts))


def test_cli_writes_no_numeric_option_default():
    numeric = [f"cli.py:{node.lineno}" for node in ast.walk(_parse("cli.py"))
               if isinstance(node, ast.keyword) and node.arg == "default"
               and _number_literal(node.value)]
    assert not numeric, numeric


@pytest.mark.parametrize("name", FILES)
def test_source_has_no_assert_and_no_catch_all(name):
    tree = _parse(name)
    found = [f"{name}:{node.lineno}: assert" for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    found += [f"{name}:{node.lineno}: except catches everything"
              for node in ast.walk(tree)
              if isinstance(node, ast.ExceptHandler) and _catches_everything(node)]
    assert not found, found

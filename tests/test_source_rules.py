"""Rules on the package source that no single behaviour test pins: a
certificate must be checked by code that `python -O` keeps, so no `assert`
statement, and no handler may catch every exception, so no bare `except:`
and no `except Exception`. The oracle (`naive`) shares nothing with the
paths it checks but the error types, and the category layer (`internal`)
does not reach up into the end search or the limits built on it. Each audit
suite is named once, in the registry `audit.SUITES`."""

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


@pytest.mark.parametrize("name", FILES)
def test_source_has_no_assert_and_no_catch_all(name):
    tree = _parse(name)
    found = [f"{name}:{node.lineno}: assert" for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    found += [f"{name}:{node.lineno}: except catches everything"
              for node in ast.walk(tree)
              if isinstance(node, ast.ExceptHandler) and _catches_everything(node)]
    assert not found, found

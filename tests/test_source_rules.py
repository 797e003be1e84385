"""Rules on the package source that no single behaviour test pins: a
certificate must be checked by code that `python -O` keeps, so no `assert`
statement, and no handler may catch every exception, so no bare `except:`
and no `except Exception`."""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "fincat")
FILES = sorted(name for name in os.listdir(SRC) if name.endswith(".py"))


def _catches_everything(handler):
    caught = handler.type
    types = caught.elts if isinstance(caught, ast.Tuple) else [caught]
    return any(t is None or (isinstance(t, ast.Name) and t.id == "Exception")
               for t in types)


@pytest.mark.parametrize("name", FILES)
def test_source_has_no_assert_and_no_catch_all(name):
    with open(os.path.join(SRC, name), encoding="utf-8") as f:
        tree = ast.parse(f.read(), name)
    found = [f"{name}:{node.lineno}: assert" for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    found += [f"{name}:{node.lineno}: except catches everything"
              for node in ast.walk(tree)
              if isinstance(node, ast.ExceptHandler) and _catches_everything(node)]
    assert not found, found

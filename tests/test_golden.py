"""Golden bytes: the CLI output of the default audit and of `validate`,
`power`, `copower` and `hom` on the fixtures, compared byte for byte with
the files under `tests/golden/`.

A refactor that changes no result leaves these bytes alone. To record them
again after a deliberate change of output, run
`PYTHONPATH=src python tests/test_golden.py` and review the diff.
"""

import contextlib
import io
import os

import pytest

from fincat.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "..", "fixtures")
GOLDEN = os.path.join(HERE, "golden")
NAMES = sorted(n[:-len(".json")] for n in os.listdir(FIXTURES) if n.endswith(".json"))


def _fixture(name):
    return os.path.join(FIXTURES, name + ".json")


def _cases():
    """(golden file name, argv) for every recorded command."""
    cases = [("audit.txt", ["audit", "--format", "structured"])]
    for cmd in ("validate", "power", "copower"):
        cases += [(f"{cmd}-{n}.txt", [cmd, _fixture(n)]) for n in NAMES]
    cases += [(f"hom-{a}-{b}.txt", ["hom", _fixture(a), _fixture(b)])
              for a in NAMES for b in NAMES]
    return cases


def _run(argv):
    """The exit code and stdout of `cli.main(argv)`, as golden-file text."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return f"exit {code}\n{out.getvalue()}"


@pytest.mark.parametrize("name,argv", _cases(), ids=[c[0] for c in _cases()])
def test_cli_output_matches_golden_bytes(name, argv):
    with open(os.path.join(GOLDEN, name), encoding="utf-8", newline="") as handle:
        expected = handle.read()
    assert _run(argv) == expected


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    for name, argv in _cases():
        with open(os.path.join(GOLDEN, name), "w", encoding="utf-8", newline="") as handle:
            handle.write(_run(argv))

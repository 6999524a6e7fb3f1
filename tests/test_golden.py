"""Byte-identity gate: ``analyze --max-power 3 --json`` on every shipped fixture
must reproduce the committed document in ``tests/golden``.

The documents were written from the repository root by

    fibrephi analyze fixtures/<name>.setup --max-power 3 --json tests/golden/<name>.json

Only the ``input`` field depends on how the path was spelled, so it is the one
field rewritten before the bytes are compared.  A verdict or report format that
changes on purpose means regenerating the documents with that command and
saying so in CHANGES.md.
"""

import json
from pathlib import Path

import pytest

from fibrephi.cli import main

from conftest import FIXTURES

GOLDEN = Path(__file__).resolve().parent / "golden"
NAMES = sorted(p.stem for p in FIXTURES.glob("*.setup"))


def test_every_fixture_has_a_golden_document():
    assert NAMES == sorted(p.stem for p in GOLDEN.glob("*.json"))


@pytest.mark.parametrize("name", NAMES)
def test_analyze_document_is_byte_identical(name, tmp_path, capsys):
    path = FIXTURES / f"{name}.setup"
    out = tmp_path / "report.json"
    assert main(["analyze", str(path), "--max-power", "3", "--json", str(out)]) == 0
    capsys.readouterr()
    written = f'  "input": {json.dumps(str(path))},\n'
    golden = f'  "input": {json.dumps(f"fixtures/{name}.setup")},\n'
    text = out.read_text(encoding="utf-8")
    assert text.count(written) == 1
    expected = (GOLDEN / f"{name}.json").read_bytes()
    assert text.replace(written, golden).encode("utf-8") == expected

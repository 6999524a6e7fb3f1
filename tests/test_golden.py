"""Byte-identity gate: ``analyze --max-power 3 --json`` on every shipped fixture
must reproduce the committed document in ``tests/golden``, ``stratify --json``
the one in ``tests/golden/stratify``, and ``verify-power --json`` the one in
``tests/golden/verify-power``.

The documents were written from the repository root by

    fibrephi analyze fixtures/<name>.setup --max-power 3 --json tests/golden/<name>.json
    fibrephi stratify fixtures/<name>.setup --json tests/golden/stratify/<name>.json
    fibrephi verify-power fixtures/<name>.setup --i 1 --json tests/golden/verify-power/<name>_i1.json
    fibrephi verify-power fixtures/<name>.setup --i 2 --json tests/golden/verify-power/<name>_i2.json
    fibrephi verify-power fixtures/quadric_cone.setup --i 3 --json tests/golden/verify-power/quadric_cone_i3.json

The ``analyze`` documents carry only the verdicts of the fibred powers; the
``verify-power`` documents also pin the witness and detail of the vertical
test on them.  Power 3 is listed for ``quadric_cone`` alone, the one fixture
whose third power is vertical.

Only the ``input`` field depends on how the path was spelled, so it is the one
field rewritten before the bytes are compared.  A verdict or report format that
changes on purpose means regenerating the documents with these commands and
saying so in CHANGES.md.
"""

import json
from pathlib import Path

import pytest

from fibrephi.cli import main

from conftest import FIXTURES

GOLDEN = Path(__file__).resolve().parent / "golden"
NAMES = sorted(p.stem for p in FIXTURES.glob("*.setup"))
POWERS = [(name, i) for name in NAMES for i in (1, 2)] + [("quadric_cone", 3)]


def assert_matches_golden(command, options, name, golden, tmp_path, capsys):
    path = FIXTURES / f"{name}.setup"
    out = tmp_path / "report.json"
    assert main([command, str(path), *options, "--json", str(out)]) == 0
    capsys.readouterr()
    written = f'  "input": {json.dumps(str(path))},\n'
    expected_input = f'  "input": {json.dumps(f"fixtures/{name}.setup")},\n'
    text = out.read_text(encoding="utf-8")
    assert text.count(written) == 1
    assert text.replace(written, expected_input).encode("utf-8") == golden.read_bytes()


def test_every_fixture_has_a_golden_document():
    assert NAMES == sorted(p.stem for p in GOLDEN.glob("*.json"))
    assert NAMES == sorted(p.stem for p in (GOLDEN / "stratify").glob("*.json"))
    listed = sorted(f"{name}_i{i}" for name, i in POWERS)
    assert listed == sorted(p.stem for p in (GOLDEN / "verify-power").glob("*.json"))


@pytest.mark.parametrize("name", NAMES)
def test_analyze_document_is_byte_identical(name, tmp_path, capsys):
    golden = GOLDEN / f"{name}.json"
    assert_matches_golden("analyze", ["--max-power", "3"], name, golden, tmp_path, capsys)


@pytest.mark.parametrize("name", NAMES)
def test_stratify_document_is_byte_identical(name, tmp_path, capsys):
    golden = GOLDEN / "stratify" / f"{name}.json"
    assert_matches_golden("stratify", [], name, golden, tmp_path, capsys)


@pytest.mark.parametrize("name,i", POWERS)
def test_verify_power_document_is_byte_identical(name, i, tmp_path, capsys):
    golden = GOLDEN / "verify-power" / f"{name}_i{i}.json"
    assert_matches_golden("verify-power", ["--i", str(i)], name, golden, tmp_path, capsys)

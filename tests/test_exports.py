"""Every name the package exports has a reader outside the tests: code in
``src/fibrephi`` that uses it, the benchmark harness in ``perfbench/`` or the
README.  A helper that only tests call belongs in the tests or nowhere."""

import ast
import re
import types
from pathlib import Path

import fibrephi

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fibrephi"


def _names_read_in_package() -> set[str]:
    """Names that a module of the package, other than ``__init__.py``, loads,
    reads as an attribute or imports; a def, a class or an assignment of a
    name is its definition, not a read."""
    read: set[str] = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return read


def test_every_export_has_a_reader_outside_the_tests():
    read = _names_read_in_package()
    texts = [p.read_text(encoding="utf-8") for p in sorted((ROOT / "perfbench").glob("*.py"))]
    texts.append((ROOT / "README.md").read_text(encoding="utf-8"))
    exports = [
        name
        for name in fibrephi.__all__
        if not isinstance(getattr(fibrephi, name), types.ModuleType)
    ]
    assert "Ideal" in exports and "groebner" not in exports
    unread = [
        name
        for name in exports
        if name not in read
        and not any(re.search(rf"\b{re.escape(name)}\b", text) for text in texts)
    ]
    assert unread == []

"""Every name the package exports, every public method and property of an
exported class and every public module-level definition, exported or not,
has a reader outside the tests: code in ``src/fibrephi`` that uses it, the
benchmark harness in ``perfbench/`` or the README.  Every private
module-level helper has a reader in the package itself.  A helper
that only tests call belongs in the tests or nowhere."""

import ast
import re
import types
from functools import cached_property
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


def _unread(names) -> list[str]:
    """Those of ``names`` that no module of the package reads (``__init__.py``
    aside) and that ``perfbench/`` and the README never name as a word."""
    read = _names_read_in_package()
    texts = [p.read_text(encoding="utf-8") for p in sorted((ROOT / "perfbench").glob("*.py"))]
    texts.append((ROOT / "README.md").read_text(encoding="utf-8"))
    return [
        name
        for name in names
        if name not in read
        and not any(re.search(rf"\b{re.escape(name)}\b", text) for text in texts)
    ]


def _exports():
    return [
        name
        for name in fibrephi.__all__
        if not isinstance(getattr(fibrephi, name), types.ModuleType)
    ]


def test_every_export_has_a_reader_outside_the_tests():
    exports = _exports()
    assert "Ideal" in exports and "groebner" not in exports
    assert _unread(exports) == []


def test_every_public_method_of_an_exported_class_has_a_reader_outside_the_tests():
    # methods, properties and cached properties the class itself defines;
    # inherited and underscore names are not its public surface
    kinds = (types.FunctionType, property, cached_property, classmethod, staticmethod)
    classes = [getattr(fibrephi, name) for name in _exports()]
    members = [
        (cls.__name__, attr)
        for cls in classes
        if isinstance(cls, type)
        for attr, value in vars(cls).items()
        if not attr.startswith("_") and isinstance(value, kinds)
    ]
    assert ("Polynomial", "monic") in members
    unread = set(_unread({attr for _, attr in members}))
    assert [f"{c}.{attr}" for c, attr in members if attr in unread] == []


def _module_definitions() -> list[str]:
    """The functions, classes and constants that a module of the package
    defines at module level (dunder names aside), as ``module.name``."""
    names = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, ast.Assign):
                targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                targets = [node.target.id]
            else:
                targets = []
            names += [f"{path.stem}.{name}" for name in targets if not name.startswith("__")]
    return names


def test_every_public_definition_of_a_module_has_a_reader_outside_the_tests():
    public = [d for d in _module_definitions() if not d.split(".")[1].startswith("_")]
    assert "geometry.relative_terms" in public and "cli.required_max_power" in public
    unread = set(_unread({d.split(".")[1] for d in public}))
    assert [d for d in public if d.split(".")[1] in unread] == []


def test_every_private_helper_has_a_reader_in_the_package():
    helpers = [d for d in _module_definitions() if d.split(".")[1].startswith("_")]
    assert "groebner._buchberger" in helpers and "poly._NAME_RE" in helpers
    read = _names_read_in_package()
    assert [h for h in helpers if h.split(".")[1] not in read] == []

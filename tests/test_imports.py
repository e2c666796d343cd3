"""Every name a library module imports is used in that module."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted(
    path
    for path in (Path(__file__).parent.parent / "src" / "pblocks").glob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list:
    """Return the names a module imports but never references."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


def test_checker_flags_an_unused_name():
    source = "import os\nfrom math import gcd, isqrt\n\nprint(gcd(4, 6), os.sep)\n"
    assert unused_imports(source) == ["isqrt"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unreferenced_private_names(sources: dict) -> list:
    """Return the top-level _name functions and classes no library module references.

    sources maps a module name to its source text.  A reference is a name,
    an attribute or an imported name anywhere outside the definition itself.
    """
    defined = []
    used = set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            private = (
                isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and node.name.startswith("_")
                and not node.name.startswith("__")
            )
            names = {
                getattr(sub, "id", None) or getattr(sub, "attr", None) or getattr(sub, "name", None)
                for sub in ast.walk(node)
                if isinstance(sub, (ast.Name, ast.Attribute, ast.alias))
            }
            if private:
                defined.append((module, node.name))
                names.discard(node.name)
            used |= names
    return sorted(f"{module}.{name}" for module, name in defined if name not in used)


def test_private_name_checker_flags_a_test_only_helper():
    sources = {
        "a": "def _kept():\n    return 1\n\n\ndef _alone(n):\n    return _alone(n - 1)\n",
        "b": "from .a import _kept\n\n\nclass _Used:\n    pass\n\n\nx = _Used()\n",
    }
    assert unreferenced_private_names(sources) == ["a._alone"]


def test_every_private_name_is_used_in_the_library():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SOURCES}
    assert unreferenced_private_names(sources) == []

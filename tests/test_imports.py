"""Every name a library module imports or defines is used outside the tests."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SOURCES = sorted(
    path for path in (ROOT / "src" / "pblocks").glob("*.py") if path.name != "__init__.py"
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


def _references(node, strings: bool = False) -> set:
    """Return the names, attributes and imported names under a node, and its strings if asked."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, (ast.Name, ast.Attribute, ast.alias)):
            out.add(getattr(sub, "id", None) or getattr(sub, "attr", None) or sub.name)
        elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.add(sub.value)
    return out


def unreferenced_names(sources: dict, private: bool, elsewhere=frozenset(), methods=False) -> list:
    """Return the definitions of one kind that nothing references.

    sources maps a module name to its source text.  private picks the
    _name definitions, otherwise the public ones.  methods picks the
    non-dunder methods of top-level classes, named Class.method, in place
    of the top-level functions and classes.  A reference is a name, an
    attribute or an imported name anywhere outside the definition itself,
    or a member of elsewhere; a method is matched by its name alone.
    """
    defined = []
    used = set(elsewhere)
    for module, source in sources.items():
        for node in ast.parse(source).body:
            parts = [("", node)]
            if methods and isinstance(node, ast.ClassDef):
                header = node.bases + node.keywords + node.decorator_list
                parts = [(f"{node.name}.", part) for part in header + node.body]
            for prefix, part in parts:
                names = _references(part)
                if (
                    isinstance(part, (ast.FunctionDef, ast.ClassDef))
                    and bool(prefix) == methods
                    and part.name.startswith("_") == private
                    and not part.name.startswith("__")
                ):
                    defined.append((module, prefix, part.name))
                    names.discard(part.name)
                used |= names
    return sorted(f"{module}.{prefix}{name}" for module, prefix, name in defined
                  if name not in used)


def test_private_name_checker_flags_a_test_only_helper():
    sources = {
        "a": "def _kept():\n    return 1\n\n\ndef _alone(n):\n    return _alone(n - 1)\n",
        "b": "from .a import _kept\n\n\nclass _Used:\n    pass\n\n\nx = _Used()\n",
    }
    assert unreferenced_names(sources, private=True) == ["a._alone"]


def test_public_name_checker_counts_references_elsewhere():
    sources = {"a": "def kept():\n    return 1\n\n\ndef named():\n    return kept()\n",
               "b": "def alone(n):\n    return alone(n - 1)\n"}
    assert unreferenced_names(sources, private=False) == ["a.named", "b.alone"]
    assert unreferenced_names(sources, private=False, elsewhere={"named"}) == ["b.alone"]


def test_method_checker_flags_a_method_only_its_own_body_calls():
    sources = {"a": "class K:\n    def __init__(self):\n        self.kept()\n\n"
                    "    def kept(self):\n        return 1\n\n"
                    "    def alone(self, n):\n        return self.alone(n - 1)\n\n"
                    "    def _helper(self):\n        return 2\n\n\n"
                    "def alone_too():\n    return 3\n"}
    assert unreferenced_names(sources, private=False, methods=True) == ["a.K.alone"]
    assert unreferenced_names(sources, private=True, methods=True) == ["a.K._helper"]
    assert unreferenced_names(sources, private=False, methods=True, elsewhere={"alone"}) == []


def test_every_private_name_is_used_in_the_library():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SOURCES}
    assert unreferenced_names(sources, private=True) == []


def _outside_the_tests() -> set:
    """Return what the demos and perfbench reference; perfbench names what it traces in strings."""
    elsewhere = set()
    for folder, strings in (("demos", False), ("perfbench", True)):
        for path in (ROOT / folder).rglob("*.py"):
            elsewhere |= _references(ast.parse(path.read_text(encoding="utf-8")), strings)
    return elsewhere


def test_every_public_name_is_used_outside_the_tests():
    # a name only tests (or the package's own exports) reach belongs in the tests
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SOURCES}
    assert unreferenced_names(sources, private=False, elsewhere=_outside_the_tests()) == []


@pytest.mark.parametrize("private", [False, True], ids=["public", "private"])
def test_every_method_is_used_outside_the_tests(private):
    # the rule of the two tests above, applied to the methods of library classes
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SOURCES}
    elsewhere = frozenset() if private else _outside_the_tests()
    assert unreferenced_names(sources, private, elsewhere, methods=True) == []

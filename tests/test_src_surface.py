"""Every function in ``src/entlab`` earns its place.

A top-level function or method stays only if another part of ``src/`` names
it, ``entlab/__init__.py`` exports it, or ``README.md`` names it as API.
Dunders and the ``@_criterion``-registered acceptance checks are exempt: the
interpreter and :data:`entlab.selftest.REGISTRY` call them.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "entlab"


def _is_criterion(fn) -> bool:
    return any(isinstance(d, ast.Call) and getattr(d.func, "id", None) == "_criterion"
               for d in fn.decorator_list)


def _functions(tree):
    """(qualified name, node) of each top-level function and method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def _references(node) -> Counter:
    """How often each name is read as an identifier or attribute under ``node``."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute)))


def unreached(src: Path = SRC, readme: Path = ROOT / "README.md") -> list[str]:
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    exported = {alias.asname or alias.name for node in ast.walk(trees["__init__.py"])
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    references = sum(map(_references, trees.values()), Counter())
    documented = set(re.findall(r"\w+", readme.read_text()))
    out = []
    for module, tree in trees.items():
        for qualname, fn in _functions(tree):
            name = fn.name
            if name.startswith("__") and name.endswith("__") or _is_criterion(fn):
                continue
            if name in exported or name in documented:
                continue
            if references[name] > _references(fn)[name]:  # named outside its own body
                continue
            out.append(f"{module}:{qualname}")
    return out


def test_every_src_function_is_called_exported_or_documented():
    assert unreached() == []


def test_an_unreferenced_function_is_reported(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import exported\n")
    (tmp_path / "a.py").write_text(
        "def exported():\n    return helper()\n\n"
        "def helper():\n    return 1\n\n"
        "def orphan():\n    return orphan()\n\n"
        "def documented():\n    pass\n\n"
        "class K:\n    def __init__(self):\n        pass\n\n    def unused(self):\n        pass\n")
    readme = tmp_path / "README.md"
    readme.write_text("`documented` is public API.\n")
    assert unreached(tmp_path, readme) == ["a.py:orphan", "a.py:K.unused"]

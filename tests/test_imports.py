"""Every name a library module imports is used in that module.

Checked on the syntax tree with the standard library only; the package's
``__init__.py`` re-exports its imports and is exempt.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "gylat"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _annotation_names(tree: ast.AST):
    """Names inside quoted annotations such as ``-> "Vec2"``."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            notes = [a.annotation for a in args.posonlyargs + args.args + args.kwonlyargs]
            notes += [a.annotation for a in (args.vararg, args.kwarg) if a] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            notes = [node.annotation]
        else:
            continue
        for note in notes:
            for sub in ast.walk(note) if note else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    yield from (n.id for n in ast.walk(ast.parse(sub.value, mode="eval"))
                                if isinstance(n, ast.Name))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used.update(_annotation_names(tree))
    return sorted(name for name in imported if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_a_leftover():
    source = "from itertools import repeat\nfrom .core import Vec2\n\ndef f(x) -> 'Vec2':\n    return x\n"
    assert unused_imports(source) == ["repeat"]

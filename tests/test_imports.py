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


def imported_modules(source: str) -> set[str]:
    """Absolute or package-relative names of the modules ``source`` imports from,
    at any depth (function bodies included)."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            names.add(base)
            if not node.module:  # from . import spectrum
                names.update(base + alias.name for alias in node.names)
    return names


def test_transfer_does_not_import_the_oracle():
    """Determinants, primed ones included, take no eigenvalue from gylat.spectrum."""
    names = imported_modules((SRC / "transfer.py").read_text())
    assert not names & {".spectrum", "gylat.spectrum"}


def test_the_import_check_sees_a_nested_import():
    source = "def f():\n    from .spectrum import oracle_spectrum\n    from . import core\n"
    assert imported_modules(source) == {".spectrum", ".", ".core"}


def test_primed_determinants_and_interval_energies_run_without_the_oracle(monkeypatch):
    import numpy as np

    import gylat.spectrum
    from gylat import (LatticeSpec, Potential, determinant, dirichlet, neumann, periodic, robin,
                       twisted, vacuum_energy)

    def refuse(*args, **kwargs):
        raise AssertionError("the eigenvalue oracle was called")

    monkeypatch.setattr(gylat.spectrum, "oracle_spectrum", refuse)
    nu = 5000  # above both oracle caps
    v = Potential(np.random.default_rng(1).uniform(0, 1, nu))
    for bc in (dirichlet(), neumann(), robin(0.5, -1.0), periodic(), twisted(0.3)):
        spec = LatticeSpec.circle(nu, L=1.0) if bc.is_circle else LatticeSpec.interval(nu, L=1.0)
        for pot in (Potential.zeros(nu), v):
            assert determinant(pot, bc, spec, prime=True).sign != 0
        if bc.is_interval:
            assert vacuum_energy(v, bc, spec) > 0
    with pytest.raises(AssertionError, match="oracle"):
        vacuum_energy(v, periodic(), LatticeSpec.circle(nu, L=1.0))

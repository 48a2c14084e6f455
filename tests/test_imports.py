"""Every name a library module imports is used in that module, every
module it imports is from the standard library or numpy, every parameter
with a default is set by some call in the repository, every public name
has a caller outside the tests or a stated reason to stay, and every private
module-level name has a reader outside the tests.

Checked on the syntax tree with the standard library only; the package's
``__init__.py`` re-exports its imports and is exempt from the first rule.
"""

import ast
import math
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gylat"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _sources(*dirs: str) -> list[str]:
    return [p.read_text() for d in dirs for p in sorted((ROOT / d).rglob("*.py"))]


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


def optional_parameters(source: str):
    """(called name, function, parameter, position) for each parameter with a
    default; a method's position leaves out self or cls, keyword-only ones have
    None, and ``__init__`` is called by its class's name."""
    tree = ast.parse(source)
    owner = {id(f): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        cls = owner.get(id(node))
        bound = cls is not None and not any(
            isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
        called = cls if node.name == "__init__" else node.name
        name = f"{cls}.{node.name}" if cls else node.name
        args = node.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        for i, arg in enumerate(positional[first:], first - bound):
            yield called, name, arg.arg, i
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield called, name, arg.arg, None


def calls(source: str):
    """(called name, positional count, keyword names) of each call by name or
    attribute; ``*args`` passes every later position, ``**kwargs`` (None) every keyword."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            starred = [i for i, a in enumerate(node.args) if isinstance(a, ast.Starred)]
            count = math.inf if starred else len(node.args)
            yield name, count, {k.arg for k in node.keywords}


def unset_options(library: list[str], callers: list[str]) -> list[str]:
    """``function(parameter=)`` for each defaulted parameter of ``library`` that no
    call in ``callers`` sets, by keyword or by position."""
    passed = {}
    for source in callers:
        for name, count, keywords in calls(source):
            passed.setdefault(name, []).append((count, keywords))
    return sorted(f"{name}({param}=)" for source in library
                  for called, name, param, pos in optional_parameters(source)
                  if not any(param in kw or None in kw or pos is not None and pos < count
                             for count, kw in passed.get(called, ())))


def options_only_tests_set(library: list[str], callers: list[str], tests: list[str]) -> list[str]:
    """The options of ``library`` that ``tests`` set and no source in ``callers`` does."""
    return sorted(set(unset_options(library, callers)) - set(unset_options(library, callers + tests)))


def test_every_optional_parameter_is_passed():
    """An option that no caller sets is a code path that never runs; one that only
    tests set has a stated reason in TEST_ONLY_OPTIONS, and an entry whose option
    gains a caller in src/, demos/ or perfbench/ leaves TEST_ONLY_OPTIONS."""
    library = [p.read_text() for p in MODULES]
    callers, tests = _sources("src", "demos", "perfbench"), _sources("tests")
    assert unset_options(library, callers + tests) == []
    found = set(options_only_tests_set(library, callers, tests))
    assert sorted(found - set(TEST_ONLY_OPTIONS)) == []  # give these a caller, or state why they stay
    assert sorted(set(TEST_ONLY_OPTIONS) - found) == []  # these have a caller now


def test_the_option_check_sees_a_leftover():
    source = textwrap.dedent("""
        def f(x, y=1, *, z=2):
            return x
        class C:
            def __init__(self, a=0, b=0):
                pass
            def m(self, c=1):
                pass
            @staticmethod
            def s(d=1):
                pass
        f(1, 2)
        C(1, **{"b": 2}).m(*[1])
        C.s(z=1)
    """)
    assert unset_options([source], [source]) == ["C.s(d=)", "f(z=)"]
    assert options_only_tests_set([source], [source], ["f(1, z=3)\nC(b=1)\n"]) == ["f(z=)"]


def module_names(source: str, private: bool = False) -> list[str]:
    """The public (or the private) module-level functions, classes and constants
    ``source`` defines."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [name for name in names if name.startswith("_") == private]


def loaded_names(source: str) -> set[str]:
    """Every name ``source`` reads, bare or as an attribute (``gylat.Potential``)."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


def uncalled(library: list[str], callers: list[str], private: bool = False) -> set[str]:
    """The public (or the private) names of ``library`` that no source in ``callers`` reads."""
    read = set().union(*map(loaded_names, callers))
    return {name for source in library for name in module_names(source, private) if name not in read}


_PAPER = "the paper's formalism, kept as the tests' reference: "
_SERIES = "perfbench/workloads.py builds its name in an f-string"
_TRACED = "perfbench/tracing.py names it, to leave it unwrapped"
#: Public names with no caller in src/, demos/ or perfbench/, and why they stay.
ALLOWED = {
    **{f"cmd_{command}": "main looks up each subcommand's handler by name"
       for command in ("det", "spectrum", "sums", "casimir", "limit", "chebyshev")},
    **dict.fromkeys(["dirichlet_trace_series", "neumann_trace_series",
                     "dirichlet_det_series", "neumann_det_series"], _SERIES),
    "render_json": _TRACED,
    "render_csv": _TRACED,
    "step_matrix": _PAPER + "the one-site matrix M(j); " + _TRACED,
    "casoratian": _PAPER + "the discrete Wronskian, constant along solutions",
    "propagate": _PAPER + "the phase-space path Upsilon(j)",
    "J": _PAPER + "the symplectic metric that every step matrix keeps",
    "A_PROJ": _PAPER + "the projector A of the split M = B - lambda A",
    "periodic_char_fn": _PAPER + "the circle condition tr K - 2 cos(2 pi tau)",
    "symmetric_factor_check": _PAPER + "the nu = 3 factor theorem",
    "trace_series_by_tuples": _PAPER + "the vertex-tuple formula, off the GY sweep",
    "cheb_v": "tests/test_golden_poly.py hashes its values",
    "cheb_t_poly": "tests/test_golden_poly.py hashes its coefficients",
}


_ORDER = "the paper's order-by-order truncation; perfbench/workloads.py runs the full series"
_HOOK = "test hook: block lengths other than sqrt(nu) must give the same bits"
#: Options that only tests set, and why they stay.
TEST_ONLY_OPTIONS = {
    **dict.fromkeys([f"{kind}_{series}_series(order=)" for kind in ("dirichlet", "neumann")
                     for series in ("det", "trace")], _ORDER),
    **dict.fromkeys(["dirichlet_trace_series(exact=)", "neumann_trace_series(exact=)"],
                    "the float or the exact sweep for either kind of potential, as in char_poly"),
    "trace_series_by_tuples(order=)": "the tests' independent reference for truncated series",
    "trace_series_by_tuples(neumann=)": "the tests' independent reference for Neumann series",
    "symmetric_factor_check(v3=)": "an asymmetric potential, where the factor must be absent",
    "free_eigenvalues(mass=)": "the massive free spectrum that tests/test_cli.py checks "
                               "`casimir --mass` against",
    "Mat2.identity(one=)": "the identity over the ring of the tests' matrix products",
    "CharPoly.lam(exact=)": "the exact lambda of the tests' reference sweeps over CharPoly states",
    "Propagator.matrix(jprime=)": _PAPER + "K(lambda; j, j') for j' > 0, the composition law",
    "_blocked_difference_sweep(block=)": _HOOK,
    "_blocked_jet_sweep(block=)": _HOOK,
}


def test_every_public_name_has_a_caller():
    """A public name that only tests read copies another route or wraps a private
    call, unless ALLOWED states why it stays; the package's re-exports are no
    caller, and an ALLOWED name that gains a caller leaves ALLOWED."""
    callers = [p.read_text() for p in MODULES] + _sources("demos", "perfbench")
    found = uncalled([p.read_text() for p in MODULES], callers)
    assert sorted(found - set(ALLOWED)) == []  # delete these, or state why they stay
    assert sorted(set(ALLOWED) - found) == []  # these have a caller now: not ALLOWED


def test_every_allowed_name_is_tested():
    """An ALLOWED name stays only as long as a test uses it; a handler counts as
    used where a test names its subcommand."""
    tests = _sources("tests")
    used = set().union(*map(loaded_names, tests))
    used |= {f"cmd_{node.value}" for source in tests for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    assert sorted(set(ALLOWED) - used) == []


def test_the_caller_check_sees_a_leftover():
    library = textwrap.dedent("""
        LIMIT = 3
        def used(x):
            return x
        def leftover(x):
            return used(x) + LIMIT
        class Kept:
            pass
    """)
    callers = [library, "import lib\nlib.Kept()\n"]
    assert uncalled([library], callers) == {"leftover"}


def test_every_private_name_has_a_reader():
    """A private module-level name that no library, demo or perfbench source reads is
    a leftover, such as a table or helper whose last reader went; tests are no reader."""
    library = [p.read_text() for p in MODULES]
    assert sorted(uncalled(library, library + _sources("demos", "perfbench"), private=True)) == []


def test_the_caller_check_sees_a_private_leftover():
    library = textwrap.dedent("""
        _SIZE = 3
        _WIDTHS: list = [1, 2]
        def _used(x):
            return x + _SIZE
        def _leftover(x):
            return _used(x)
        class _Kept:
            pass
        def run():
            return _Kept()
    """)
    assert uncalled([library], [library], private=True) == {"_WIDTHS", "_leftover"}
    assert uncalled([library], [library]) == {"run"}


#: The packed states of the GY sweep (transfer.py), which one function drives.
CARRIER = {"_Packed", "_Scale", "_slot_bits", "_pack", "_unpack", "_unscale"}


def carrier_readers(source: str, driver: str | None) -> list[str]:
    """The module-level functions and classes of ``source`` other than ``driver``, and
    ``<module>`` for its other statements, that read a CARRIER name not their own."""
    readers = set()
    for node in ast.parse(source).body:
        name = getattr(node, "name", "<module>")
        if name != driver and loaded_names(ast.unparse(node)) & (CARRIER - {name}):
            readers.add(name)
    return sorted(readers)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_one_function_drives_the_packed_carrier(path):
    """Every polynomial read of P, the perturbation series included, is one call of
    transfer._terminal: no other function or class builds, sweeps or reads packed states."""
    driver = "_terminal" if path.name == "transfer.py" else None
    assert carrier_readers(path.read_text(), driver) == []


def test_the_carrier_check_sees_a_second_driver():
    source = textwrap.dedent("""
        class _Scale:
            def again(self):
                return _Scale()
        def _terminal(p):
            return _unscale(_unpack(_pack(p)))
        def _graded(p):
            return transfer._unpack(p)
        WIDTH = _slot_bits([])
    """)
    assert carrier_readers(source, "_terminal") == ["<module>", "_graded"]
    assert carrier_readers(source, None) == ["<module>", "_graded", "_terminal"]


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


def foreign_imports(source: str) -> set[str]:
    """Absolute imports of ``source`` from neither the standard library nor numpy."""
    return {name for name in imported_modules(source) if not name.startswith(".")
            and name.split(".")[0] not in sys.stdlib_module_names | {"numpy"}}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_library_imports_only_the_standard_library_and_numpy(path):
    """numpy is the one declared dependency; scipy and the rest are not."""
    assert foreign_imports(path.read_text()) == set()


def test_the_dependency_check_sees_a_nested_import():
    source = "import math\nimport numpy.linalg\n\ndef f():\n    from scipy import linalg\n"
    assert foreign_imports(source) == {"scipy"}


def import_time_numpy(source: str) -> list[int]:
    """Lines where ``source`` imports numpy outside every function body, so that
    importing the module would load it; an ``if TYPE_CHECKING:`` block never runs."""
    lines = []

    def visit(nodes):
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING":
                visit(node.orelse)
                continue
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import) else
                     [node.module or ""] if isinstance(node, ast.ImportFrom) and not node.level else [])
            if any(name.split(".")[0] == "numpy" for name in names):
                lines.append(node.lineno)
            visit(ast.iter_child_nodes(node))

    visit(ast.parse(source).body)
    return lines


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_numpy_when_imported(path):
    """numpy loads in the functions that use arrays, so ``import gylat`` and the
    calls that need none run without it (tests/test_startup.py)."""
    assert import_time_numpy(path.read_text()) == []


def test_the_numpy_check_sees_an_import_time_import():
    source = textwrap.dedent("""\
        from typing import TYPE_CHECKING
        if TYPE_CHECKING:
            import numpy as np
        try:
            from numpy import linalg
        except ImportError:
            pass
        class C:
            import numpy.random
            def f(self):
                import numpy as np
        def g():
            from . import numpy
            return lambda: __import__("numpy")
    """)
    assert import_time_numpy(source) == [5, 9]


def test_transfer_does_not_import_the_oracle():
    """Determinants, primed ones included, take no eigenvalue from gylat.spectrum:
    transfer imports only the operator's matrix form from it, for eigenfunctions."""
    source = (SRC / "transfer.py").read_text()
    assert imported_modules(source) & {".spectrum", "gylat.spectrum"} == {".spectrum"}
    taken = {alias.name for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.ImportFrom) and node.module == "spectrum"
             for alias in node.names}
    assert taken == {"tridiagonal_matrix"}


def test_closed_forms_share_no_code_with_the_sweep():
    """The free closed forms check the GY terminal value, so closedform takes
    only the domain types from the package, nothing from transfer or chebyshev."""
    source = (SRC / "closedform.py").read_text()
    assert {name for name in imported_modules(source) if name.startswith(".")} == {".core"}


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


def refuse_eigensolvers(monkeypatch):
    """Make the oracle, np.roots and numpy's eigen routines raise when called."""
    import numpy as np

    import gylat

    def refuse(*args, **kwargs):
        raise AssertionError("an eigenvalue solver was called")

    for module in (gylat, gylat.spectrum):
        monkeypatch.setattr(module, "oracle_spectrum", refuse)
    monkeypatch.setattr(np, "roots", refuse)
    for name in ("eig", "eigh", "eigvals", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, refuse)


def test_poly_roots_runs_without_any_eigensolver(monkeypatch):
    """poly_roots takes no point from the oracle, np.roots or numpy's eigen
    routines, so it stays an independent check of them."""
    from gylat import Potential, char_poly, dirichlet, oracle_spectrum, periodic, poly_roots

    pot = Potential((1, -2, 0, 3, 1, 0, -1, 2, -3, 1, 0, 2))
    cases = [(bc, oracle_spectrum(pot, bc).lambdas) for bc in (dirichlet(), periodic())]
    refuse_eigensolvers(monkeypatch)
    for bc, want in cases:
        got = poly_roots(char_poly(pot, bc, exact=True)).lambdas
        assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-12


def test_eigenfunctions_run_without_any_eigensolver(monkeypatch):
    """eigenfunctions solve for the eigenvalues they are given, with no call of the
    oracle, np.roots or numpy's eigen routines."""
    import numpy as np

    from gylat import Potential, dirichlet, eigenfunctions, oracle_spectrum, robin

    pot = Potential(np.random.default_rng(3).uniform(-1, 1, 300))
    cases = [(bc, oracle_spectrum(pot, bc)) for bc in (dirichlet(), robin(0.5, 1.2))]
    refuse_eigensolvers(monkeypatch)
    for bc, spectrum in cases:
        table = eigenfunctions(pot, bc, spectrum)
        assert table.shape == (300, 300) and np.max(np.abs(table)) == 1.0

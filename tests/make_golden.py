"""Golden bytes of the CLI's default output.

Each case is a fixed argv list; its record is the exit code and the sha256
of everything ``gylat.cli.main`` prints to stdout.  ``test_golden.py`` replays
the cases and compares against ``golden_cli.json``.  A change that alters CLI
bytes on purpose re-records the file from the repository root with

    PYTHONPATH=src python tests/make_golden.py

and lists every changed entry in CHANGES.md.

``{pot}`` in an argv stands for a potential file of the case's nu, with the
deterministic values of :func:`potential_values`; ``{phys}`` stands for a
``{"physical": [...], "h": ...}`` file with :func:`physical_values` and
h = 1/(nu + 1); ``{wells}`` stands for a file of :func:`well_values`, whose
O(1) disorder localises the eigenfunctions, so their tables span exponents
down to e-252.  Giving case names records only those cases and keeps the
other entries of the file as they are:

    PYTHONPATH=src python tests/make_golden.py det-phys-periodic limit-periodic
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from gylat.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden_cli.json"

_EF = ["--potential", "{pot}", "--eigenfunctions"]

CASES: dict[str, list[str]] = {
    "spectrum-dirichlet-eigenfunctions": [
        "spectrum", "--bc", "dirichlet", "--nu", "60", "--h", "1", *_EF],
    "spectrum-neumann-eigenfunctions-csv": [
        "spectrum", "--bc", "neumann", "--nu", "40", "--L", "1", *_EF, "--format", "csv"],
    "spectrum-robin-eigenfunctions": [
        "spectrum", "--bc", "robin", "--alpha", "0.3", "--beta", "-0.4", "--nu", "50",
        "--h", "0.5", *_EF],
    "spectrum-robin-eigenfunctions-csv": [
        "spectrum", "--bc", "robin", "--alpha", "1.5", "--beta", "0.25", "--nu", "30",
        "--h", "1", *_EF, "--format", "csv"],
    "spectrum-dirichlet-eigenfunctions-large": [
        "spectrum", "--bc", "dirichlet", "--nu", "300", "--L", "1", *_EF],
    "spectrum-dirichlet-eigenfunctions-wells": [
        "spectrum", "--bc", "dirichlet", "--nu", "300", "--h", "1", "--potential", "{wells}",
        "--eigenfunctions"],
    "spectrum-dirichlet-eigenfunctions-wells-csv": [
        "spectrum", "--bc", "dirichlet", "--nu", "120", "--h", "1", "--potential", "{wells}",
        "--eigenfunctions", "--format", "csv"],
    "spectrum-periodic": [
        "spectrum", "--bc", "periodic", "--nu", "50", "--potential", "{pot}"],
    "spectrum-twisted": ["spectrum", "--bc", "twisted", "--tau", "0.3", "--nu", "40"],
    "casimir-potential": [
        "casimir", "--bc", "dirichlet", "--nu", "40", "--L", "1", "--potential", "{pot}"],
    "det-potential": [
        "det", "--bc", "robin", "--alpha", "0.5", "--beta", "1.5", "--nu", "200",
        "--h", "0.1", "--potential", "{pot}"],
    "det-potential-exact": [
        "det", "--bc", "neumann", "--nu", "12", "--h", "1", "--potential", "{pot}", "--exact"],
    "det-free-dirichlet": ["det", "--bc", "dirichlet", "--nu", "100000", "--L", "1"],
    "det-free-robin-mass": [
        "det", "--bc", "robin", "--alpha", "0.5", "--beta", "0.5", "--mass", "2",
        "--nu", "100000", "--L", "1"],
    "det-free-twisted": ["det", "--bc", "twisted", "--tau", "0.25", "--nu", "500"],
    "det-free-neumann-prime": ["det", "--bc", "neumann", "--nu", "300", "--L", "1", "--prime"],
    "sums": ["sums", "--bc", "robin", "--alpha", "0.5", "--beta", "2", "--nu", "20", "--h", "1"],
    "limit": ["limit", "--bc", "dirichlet", "--mass", "1", "--nu", "2000", "--L", "1"],
    "chebyshev": ["chebyshev"],
    "det-phys-periodic": [
        "det", "--bc", "periodic", "--potential", "{phys}", "--nu", "100000", "--L", "1"],
    "det-twisted-potential-mass": [
        "det", "--bc", "twisted", "--tau", "0.3", "--potential", "{pot}", "--mass", "3",
        "--nu", "20000", "--L", "1"],
    "det-robin-delta-mass": [
        "det", "--bc", "robin", "--alpha", "0.7", "--beta", "1.2", "--delta-site", "7",
        "--delta-v", "1.5", "--mass", "2", "--nu", "200000", "--L", "1"],
    "limit-periodic": ["limit", "--bc", "periodic", "--mass", "2", "--nu", "50000"],
    "spectrum-phys-neumann-mass": [
        "spectrum", "--bc", "neumann", "--potential", "{phys}", "--mass", "1", "--nu", "300",
        "--L", "1"],
    "det-robin-exact-64": [
        "det", "--bc", "robin", "--alpha", "0.5", "--beta", "1.5", "--nu", "64", "--h", "1",
        "--potential", "{pot}", "--exact"],
    "sums-exact-dirichlet": [
        "sums", "--bc", "dirichlet", "--nu", "30", "--h", "1", "--potential", "{pot}", "--exact"],
    "sums-twisted-potential": [
        "sums", "--bc", "twisted", "--tau", "0.3", "--nu", "20", "--potential", "{pot}"],
    "sums-dirichlet-400": ["sums", "--bc", "dirichlet", "--nu", "400", "--h", "1"],
    "casimir-sweep": [
        "casimir", "--bc", "dirichlet", "--L", "1", "--nu", "9", "--sweep", "h:0.002:0.02:10"],
    "casimir-periodic": ["casimir", "--bc", "periodic", "--nu", "4"],
    "casimir-twisted": ["casimir", "--bc", "twisted", "--tau", "0.3", "--nu", "40"],
    "limit-robin": [
        "limit", "--bc", "robin", "--alpha", "1.5", "--beta", "0.5", "--mass", "1",
        "--nu", "2000", "--L", "1"],
    "sums-robin-free": [
        "sums", "--bc", "robin", "--alpha", "0.5", "--beta", "1.5", "--nu", "30", "--h", "1"],
    "det-robin-potential": [
        "det", "--bc", "robin", "--nu", "50", "--h", "0.5", "--potential", "{pot}"],
    "det-prime-robin-potential": [
        "det", "--bc", "robin", "--alpha", "0.5", "--beta", "1.5", "--nu", "200", "--h", "0.1",
        "--potential", "{pot}", "--prime"],
    "det-prime-periodic-potential": [
        "det", "--bc", "periodic", "--nu", "300", "--L", "1", "--potential", "{phys}", "--prime"],
    "det-prime-periodic-free": ["det", "--bc", "periodic", "--nu", "500", "--prime"],
    "casimir-neumann-phys": [
        "casimir", "--bc", "neumann", "--nu", "300", "--L", "1", "--potential", "{phys}"],
    "casimir-robin-mass": [
        "casimir", "--bc", "robin", "--alpha", "0.3", "--beta", "0.8", "--mass", "2",
        "--nu", "100", "--L", "1"],
    "sums-exact-robin-potential": [
        "sums", "--bc", "robin", "--alpha", "0.5", "--beta", "1.5", "--nu", "30", "--h", "1",
        "--potential", "{pot}", "--exact"],
    "sums-exact-periodic-potential": [
        "sums", "--bc", "periodic", "--nu", "20", "--h", "1", "--potential", "{pot}", "--exact"],
    "sums-exact-twisted-potential": [
        "sums", "--bc", "twisted", "--tau", "0.3", "--nu", "20", "--h", "1",
        "--potential", "{pot}", "--exact"],
    "sums-exact-200": [
        "sums", "--bc", "dirichlet", "--nu", "200", "--h", "1", "--potential", "{pot}",
        "--exact"],
    "det-exact-dirichlet-64": [
        "det", "--bc", "dirichlet", "--nu", "64", "--h", "1", "--potential", "{pot}", "--exact"],
    "casimir-robin-free": [
        "casimir", "--bc", "robin", "--alpha", "0.3", "--beta", "0.8", "--nu", "100", "--L", "1"],
}


def potential_values(nu: int) -> list[float]:
    """A fixed, machine-independent pseudo-random potential in [-0.1, 0.1]."""
    return [((37 * j + 11) % 101 - 50) / 500 for j in range(1, nu + 1)]


def physical_values(nu: int) -> list[float]:
    """A fixed physical potential in [0, 32], not exactly representable in binary."""
    return [((53 * j + 7) % 97) / 3 for j in range(1, nu + 1)]


def well_values(nu: int) -> list[float]:
    """A fixed lattice potential in [0, 20]: O(1) disorder in lattice units."""
    return [((37 * j + 11) % 101) / 5 for j in range(1, nu + 1)]


def case_argv(argv: list[str], workdir: Path) -> list[str]:
    """``argv`` with ``{pot}``, ``{phys}`` and ``{wells}`` replaced by files written
    to ``workdir``."""
    files = {
        "{pot}": lambda nu: potential_values(nu),
        "{wells}": lambda nu: well_values(nu),
        "{phys}": lambda nu: {"physical": physical_values(nu), "h": 1 / (nu + 1)},
    }
    for key, data in files.items():
        if key in argv:
            nu = int(argv[argv.index("--nu") + 1])
            path = workdir / f"{key.strip('{}')}_{nu}.json"
            path.write_text(json.dumps(data(nu)))
            argv = [str(path) if a == key else a for a in argv]
    return argv


def run_case(argv: list[str], workdir: Path) -> tuple[int, str]:
    """Exit code and sha256 of the stdout of ``gylat`` on ``argv``."""
    argv = case_argv(argv, workdir)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def record(names) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        return {name: dict(zip(("exit", "sha256"), run_case(CASES[name], Path(tmp))))
                for name in names}


if __name__ == "__main__":
    names = sys.argv[1:]
    golden = json.loads(GOLDEN.read_text()) if names else {}
    golden.update(record(names or CASES))
    GOLDEN.write_text(json.dumps({k: golden[k] for k in CASES}, indent=2) + "\n")
    sys.exit(0)

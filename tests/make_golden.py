"""Golden bytes of the CLI's default output.

Each case is a fixed argv list; its record is the exit code and the sha256
of everything ``gylat.cli.main`` prints to stdout.  ``test_golden.py`` replays
the cases and compares against ``golden_cli.json``.  A change that alters CLI
bytes on purpose re-records the file from the repository root with

    PYTHONPATH=src python tests/make_golden.py

and lists every changed entry in CHANGES.md.

``{pot}`` in an argv stands for a potential file of the case's nu, with the
deterministic values of :func:`potential_values`.
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
}


def potential_values(nu: int) -> list[float]:
    """A fixed, machine-independent pseudo-random potential in [-0.1, 0.1]."""
    return [((37 * j + 11) % 101 - 50) / 500 for j in range(1, nu + 1)]


def run_case(argv: list[str], workdir: Path) -> tuple[int, str]:
    """Exit code and sha256 of the stdout of ``gylat`` on ``argv``."""
    if "{pot}" in argv:
        nu = int(argv[argv.index("--nu") + 1])
        path = workdir / f"potential_{nu}.json"
        path.write_text(json.dumps(potential_values(nu)))
        argv = [str(path) if a == "{pot}" else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def record() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        return {name: dict(zip(("exit", "sha256"), run_case(argv, Path(tmp))))
                for name, argv in CASES.items()}


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=2) + "\n")
    sys.exit(0)

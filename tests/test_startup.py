"""Small calls start without numpy.

The argvs below run through ``gylat.cli.main`` in one fresh interpreter, which
reports after each call whether numpy has been loaded, and what the call
printed and returned: the bytes and the exit code must be those of the same
call in process.  The routes that need arrays (the oracle behind
``spectrum``, the jet behind float ``sums``) must load it, so the boundary is
pinned from both sides.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gylat.cli import main
from gylat.core import _NUMPY_SITES

SRC = Path(__file__).resolve().parent.parent / "src"

CHILD = """
import contextlib, io, json, sys
import gylat
report = {"import gylat": "numpy" in sys.modules}
import gylat.cli
report["import gylat.cli"] = "numpy" in sys.modules
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = gylat.cli.main(argv)
    report[" ".join(argv)] = [out.getvalue(), code, "numpy" in sys.modules]
print(json.dumps(report))
"""

BCS = [["--bc", "dirichlet"], ["--bc", "neumann"],
       ["--bc", "robin", "--alpha", "0.5", "--beta", "1.5"],
       ["--bc", "periodic"], ["--bc", "twisted", "--tau", "0.3"]]


def fresh_run(argvs: list[list[str]]) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", CHILD, json.dumps(argvs)], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    return json.loads(out.stdout)


def in_process(argv: list[str], capsys) -> list:
    code = main(argv)
    return [capsys.readouterr().out, code]


def numpy_free_argvs(tmp_path) -> list[list[str]]:
    """det at and below _NUMPY_SITES on every boundary condition, free, with a
    delta site, a mass and both kinds of potential file; the exact reads, limit,
    chebyshev and the free Casimir energy."""
    files = {}
    for nu in (12, _NUMPY_SITES):
        values = [0.25 + 0.5 * ((7 * j) % 11) / 11 for j in range(nu)]
        for kind, data in (("plain", values), ("physical", {"physical": values, "h": 0.1})):
            files[nu, kind] = path = tmp_path / f"{kind}{nu}.json"
            path.write_text(json.dumps(data))
    argvs = []
    for bc in BCS:
        for nu in (12, _NUMPY_SITES):
            lattice = ["det", *bc, "--nu", str(nu), "--h", "0.5"]
            argvs += [lattice, lattice + ["--delta-site", "3", "--delta-v", "0.75"],
                      lattice + ["--mass", "1.5"],
                      lattice + ["--potential", str(files[nu, "plain"])],
                      lattice + ["--potential", str(files[nu, "physical"])]]
    return argvs + [
        ["det", "--bc", "robin", "--alpha", "0.5", "--beta", "1.5", "--nu", "12", "--h", "0.5",
         "--exact", "--potential", str(files[12, "plain"])],
        ["sums", "--bc", "dirichlet", "--nu", "12", "--h", "1", "--exact",
         "--potential", str(files[12, "physical"])],
        ["sums", "--bc", "dirichlet", "--nu", "12", "--h", "1", "--exact"],
        ["limit", "--bc", "dirichlet", "--mass", "1", "--L", "1", "--nu", str(_NUMPY_SITES)],
        ["limit", "--bc", "twisted", "--tau", "0.3", "--L", "1", "--nu", "100"],
        ["chebyshev"],
        ["casimir", "--bc", "periodic", "--nu", "4"],
        ["casimir", "--bc", "dirichlet", "--L", "1", "--nu", "9"],
    ]


def test_small_calls_run_without_numpy(tmp_path, capsys):
    argvs = numpy_free_argvs(tmp_path)
    report = fresh_run(argvs)
    assert report.pop("import gylat") is False
    assert report.pop("import gylat.cli") is False
    for argv in argvs:
        out, code, loaded = report[" ".join(argv)]
        assert not loaded, argv
        assert [out, code] == in_process(argv, capsys), argv


@pytest.mark.parametrize("argv", [
    ["spectrum", "--bc", "dirichlet", "--nu", "12", "--h", "1"],
    ["sums", "--bc", "neumann", "--nu", "12", "--h", "1", "--mass", "0.5"],
], ids=["spectrum", "float sums"])
def test_array_routes_load_numpy(argv, capsys):
    out, code, loaded = fresh_run([argv])[" ".join(argv)]
    assert loaded
    assert [out, code] == in_process(argv, capsys)

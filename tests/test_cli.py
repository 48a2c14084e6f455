"""CLI surface: subcommands, formats, determinism, exit codes."""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import textwrap
import time
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gylat
from gylat import LatticeSpec, MassParam, Potential, determinant, dirichlet, free_determinant, robin
from gylat.cli import _fmt_float, build_parser, main, render_csv, render_json
from gylat.closedform import free_eigenvalues
from gylat.spectrum import tridiagonal_matrix


def mpmath_sums(values, kmax=4) -> list[float]:
    """Dirichlet Euler-Rayleigh sums from P's Taylor jet at 0, swept in 50 digits."""
    with mpmath.workdps(50):
        a, b = [mpmath.mpf(0)] * (kmax + 1), [mpmath.mpf(1)] + [mpmath.mpf(0)] * kmax
        for v in values:  # y(j+1) = (v_j + 2 - lambda) y(j) - y(j-1)
            w = mpmath.mpf(v) + 2
            a, b = b, [w * b[k] - (b[k - 1] if k else 0) - a[k] for k in range(kmax + 1)]
        c = [x / b[0] for x in b]
        sums = []
        for m in range(1, kmax + 1):  # Newton's identities for the roots 1/lambda_n
            sums.append(-m * c[m] - sum(c[i] * sums[m - i - 1] for i in range(1, m)))
        return [float(x) for x in sums]


# the five conditions; Robin ends near -1 (tall modes) or exactly -1 (pinned)
_ROBIN_END = st.one_of(st.sampled_from([-1.0, -1.0 + 1e-13, -1.0 + 1e-9, -0.9999997]),
                       st.floats(-0.99, 2.0))
_SUMS_BCS = st.one_of(
    st.sampled_from([["dirichlet"], ["neumann"], ["periodic"]]),
    st.floats(0.01, 0.99).map(lambda tau: ["twisted", f"--tau={tau!r}"]),
    st.tuples(_ROBIN_END, _ROBIN_END).map(
        lambda ab: ["robin", f"--alpha={ab[0]!r}", f"--beta={ab[1]!r}"]))


def quiet_cli(*argv):
    """(exit code, stdout, stderr) of one CLI call, without pytest's capture fixture."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_exit(capsys, *argv):
    """Like run_cli, with argparse's own refusals (SystemExit) read as exit codes."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert out, f"no output (stderr: {err})"
    return code, json.loads(out)


class TestDet:
    def test_dirichlet_free(self, capsys):
        code, data = run_json(capsys, "det", "--bc", "dirichlet", "--nu", "3", "--h", "1")
        assert code == 0
        assert data["dimensionless_det"] == 4
        assert data["closed_form_agreement"] is True

    def test_neumann_zero_mode_hint(self, capsys):
        code, data = run_json(capsys, "det", "--bc", "neumann", "--nu", "4", "--h", "1")
        assert code == 0
        assert data["sign"] == 0
        assert "--prime" in data["hint"]

    def test_neumann_primed(self, capsys):
        code, data = run_json(capsys, "det", "--bc", "neumann", "--nu", "4", "--h", "1", "--prime")
        assert code == 0
        assert data["zero_modes"] == 1
        assert abs(data["dimensionless_det"] - 4.0) < 1e-9

    def test_neumann_primed_at_large_nu(self, capsys):
        """--prime runs at any nu: the jet at lambda = 0 needs no eigenvalue."""
        code, data = run_json(capsys, "det", "--prime", "--bc", "neumann", "--nu", "100000",
                              "--L", "1")
        assert code == 0
        assert data["zero_modes"] == 1 and data["closed_form_agreement"] is True

    @pytest.mark.parametrize("nu", [10, 1000])
    @pytest.mark.parametrize("alpha, beta", [(-1.0, 0.5), (0.5, -1.0), (-1.0, -1.0)])
    def test_free_degenerate_robin(self, capsys, nu, alpha, beta):
        """alpha or beta = -1 has no closed form: the determinant alone, that
        of the matrix on the sites the pinned ends leave."""
        code, data = run_json(capsys, "det", "--bc", "robin", "--alpha", repr(alpha),
                              "--beta", repr(beta), "--nu", str(nu), "--h", "1")
        assert code == 0 and not any(key.startswith("closed_form") for key in data)
        d = np.full(nu, 2.0)
        for end, par in ((0, alpha), (-1, beta)):
            if par != -1.0:
                d[end] -= 1.0 / (1.0 + par)
        d = d[(alpha == -1.0):nu - (beta == -1.0)]
        sign, logdet = np.linalg.slogdet(np.diag(d) - np.eye(len(d), k=1) - np.eye(len(d), k=-1))
        assert data["sign"] == sign
        assert abs(data["log10_abs"] - logdet / math.log(10)) <= 1e-13 * max(1.0, abs(logdet))

    @pytest.mark.parametrize("nu", [10, 1000, 100000])
    @pytest.mark.parametrize("alpha, beta", [(-1.0 + 1e-13, 0.5), (-1.0 + 1e-9, 0.5),
                                             (-0.9999997, -0.9999997)])
    def test_near_degenerate_robin_has_its_closed_form(self, capsys, nu, alpha, beta):
        """Only exactly -1 is degenerate; the sweep meets the closed form just above it."""
        code, data = run_json(capsys, "det", "--bc", "robin", "--alpha", repr(alpha),
                              "--beta", repr(beta), "--nu", str(nu), "--h", "1")
        assert code == 0 and data["closed_form_agreement"] is True
        assert data["closed_form_rel_diff"] <= 1e-13

    def test_spectrum_near_degenerate_robin(self, capsys):
        code, data = run_json(capsys, "spectrum", "--bc", "robin", "--alpha", repr(-1.0 + 1e-13),
                              "--beta", "0.5", "--nu", "4", "--h", "1")
        assert code == 0
        assert data["eigenvalues_dimensionless"][0] < -1e12  # 2 - 1/(1 + alpha)

    def test_dimensionless_det_from_the_unit_lattice(self, capsys):
        """dimensionless_det is read off the h = 1 determinant, not off the physical log."""
        code, data = run_json(capsys, "det", "--bc", "dirichlet", "--nu", "100000", "--L", "1")
        assert code == 0
        assert abs(data["dimensionless_det"] - 100001) <= 1e-15 * 100001

    def test_delta_zero_mode(self, capsys):
        code, data = run_json(capsys, "det", "--bc", "dirichlet", "--nu", "5", "--h", "1",
                              "--delta-site", "2", "--delta-v", "-0.75")
        assert code == 0
        assert data["sign"] == 0

    def test_exact_rational(self, capsys):
        code, data = run_json(capsys, "det", "--bc", "dirichlet", "--nu", "3", "--h", "1",
                              "--exact")
        assert data["dimensionless_det_exact"] == "4/1"

    @pytest.mark.parametrize("bc", [["dirichlet"], ["neumann"], ["robin", "--alpha", "0.5",
                                    "--beta", "1.5"], ["robin", "--alpha", "-1", "--beta", "0.3"]])
    @pytest.mark.parametrize("nu", [1, 7, 64])
    def test_exact_is_normalised_polynomial_value(self, capsys, tmp_path, bc, nu):
        """The exact lambda = 0 sweep gives (-1)^degree P(0) / lead of exact char_poly."""
        values = np.random.default_rng(nu).uniform(-1, 1, nu).tolist()
        path = tmp_path / "pot.json"
        path.write_text(json.dumps(values))
        code, data = run_json(capsys, "det", "--bc", *bc, "--nu", str(nu), "--h", "1",
                              "--potential", str(path), "--exact")
        bco = robin(float(bc[2]), float(bc[4])) if bc[0] == "robin" else {
            "dirichlet": dirichlet(), "neumann": gylat.neumann()}[bc[0]]
        p = gylat.char_poly(Potential(values), bco, exact=True)
        want = (-1) ** p.degree * Fraction(p.coeffs[0]) / Fraction(p.leading())
        assert code == 0
        assert data["dimensionless_det_exact"] == f"{want.numerator}/{want.denominator}"

    def test_exact_vanishing_polynomial(self, capsys):
        """nu = 1 with both ends pinned: P is 0, but the operator is empty, det 1."""
        code, data = run_json(capsys, "det", "--bc", "robin", "--alpha", "-1", "--beta", "-1",
                              "--nu", "1", "--h", "1", "--delta-site", "1", "--delta-v", "0.5",
                              "--exact")
        assert code == 0 and data["sign"] == 1 and data["dimensionless_det_exact"] == "1/1"

    @pytest.mark.parametrize("argv", [["det"], ["det", "--prime"], ["det", "--exact"],
                                      ["sums"], ["sums", "--exact"]])
    @pytest.mark.parametrize("h", ["1", "0.5"])
    def test_one_site_pinned_twice_is_empty(self, capsys, argv, h):
        """nu = 1 with both ends pinned answers as nu = 2 does, the empty operator,
        scaled by h^(-2 nu) like any plain determinant."""
        pinned = ["--bc", "robin", "--alpha", "-1", "--beta", "-1", "--h", h]
        got = {}
        for nu in (1, 2):
            code, got[nu] = run_json(capsys, *argv, *pinned, "--nu", str(nu), "--delta-site",
                                     "1", "--delta-v", "0.5")
            assert code == 0
        keep = ("sign", "dimensionless_det", "zero_modes", "dimensionless_det_exact",
                "inverse_power_sums")
        assert {k: v for k, v in got[1].items() if k in keep} == \
            {k: v for k, v in got[2].items() if k in keep}
        if argv[0] == "det":
            n = 0 if "--prime" in argv else 1  # h^(-2 nu), or h^0 for the primed degree
            assert got[1]["log10_abs"] == pytest.approx(-2 * n * math.log10(float(h)), abs=1e-15)

    def test_potential_file(self, capsys, tmp_path):
        path = tmp_path / "pot.json"
        path.write_text("[1, 1, 1]")
        code, data = run_json(capsys, "det", "--bc", "dirichlet", "--nu", "3", "--h", "1",
                              "--potential", str(path))
        assert code == 0
        assert abs(data["dimensionless_det"] - 21.0) < 1e-9

    def test_mass_against_closed_form(self, capsys):
        code, data = run_json(capsys, "det", "--bc", "dirichlet", "--nu", "1", "--h", "1",
                              "--mass", "1")
        assert code == 0
        assert abs(data["dimensionless_det"] - 3.0) < 1e-10
        assert data["closed_form_agreement"] is True

    def test_massive_neumann_at_large_nu(self, capsys):
        # the sweep never rounds 2 + mu^2 and the closed form never rounds
        # x0 = 1 + mu^2/2, so they agree far inside the 1e-8 check
        code, data = run_json(capsys, "det", "--bc", "neumann", "--mass", "0.75",
                              "--nu", "150000", "--L", "1")
        assert code == 0
        assert data["closed_form_agreement"] is True
        assert data["closed_form_rel_diff"] <= 1e-9

    def test_overflowing_dimensionless_det_is_infinity(self, capsys, tmp_path):
        # O(1) dimensionless potential at nu = 1000: Det * h^(2 nu) ~ 1e456
        # overflows a float, while log10_abs stays exact
        rng = np.random.default_rng(3)
        v = rng.uniform(0.5, 2.0, 1000)
        path = tmp_path / "pot.json"
        path.write_text(json.dumps(v.tolist()))
        code, out, err = run_cli(capsys, "det", "--bc", "dirichlet", "--nu", "1000", "--L", "1",
                                 "--potential", str(path))
        assert code == 0, err
        assert '"dimensionless_det": Infinity' in out
        data = json.loads(out)
        assert data["dimensionless_det"] == math.inf
        diag, off = tridiagonal_matrix(Potential(tuple(v)), dirichlet())
        dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        sign, logdet = np.linalg.slogdet(dense)
        assert data["sign"] == sign == 1
        expected = (logdet - 2000 * math.log(data["h"])) / math.log(10.0)
        assert abs(data["log10_abs"] - expected) <= 1e-12 * abs(expected)


    def test_closed_form_rel_diff_compares_dimensionless_logs(self, capsys):
        # the physical logs are ~2.3e6 here, one ulp of which is 2^-31
        nu = 100000
        code, data = run_json(capsys, "det", "--bc", "robin", "--alpha", "0.5", "--beta", "0.5",
                              "--mass", "2", "--nu", str(nu), "--L", "1")
        assert code == 0
        spec, unit = LatticeSpec.interval(nu, L=1.0), LatticeSpec.interval(nu, h=1.0)
        pot = Potential(((spec.h * 2.0) ** 2,) * nu)
        transfer = determinant(pot, robin(0.5, 0.5), unit)
        closed = free_determinant(robin(0.5, 0.5), unit, MassParam.physical(2.0, spec))
        assert data["closed_form_rel_diff"] == abs(math.expm1(transfer.log_abs - closed.log_abs))
        assert data["closed_form_rel_diff"] not in (0.0, 4.6566128741615948e-10)


class TestConfigErrors:
    def test_missing_spacing(self, capsys):
        code, out, err = run_cli(capsys, "det", "--bc", "dirichlet", "--nu", "3")
        assert code == 2 and "error" in err

    def test_both_spacings(self, capsys):
        code, out, err = run_cli(capsys, "det", "--bc", "dirichlet", "--nu", "3",
                                 "--h", "1", "--L", "4")
        assert code == 2

    def test_bad_tau(self, capsys):
        code, out, err = run_cli(capsys, "det", "--bc", "twisted", "--nu", "3", "--tau", "1.5")
        assert code == 2

    def test_potential_length_mismatch(self, capsys, tmp_path):
        path = tmp_path / "pot.json"
        path.write_text("[1, 2]")
        code, out, err = run_cli(capsys, "det", "--bc", "dirichlet", "--nu", "3", "--h", "1",
                                 "--potential", str(path))
        assert code == 2


# A valid invocation of each subcommand, and the options that every subcommand
# once accepted but that this one does not read: given one, it exits 2.
BASE_ARGV = {
    "det": ["det", "--bc", "dirichlet", "--nu", "20", "--h", "1"],
    "spectrum": ["spectrum", "--bc", "dirichlet", "--nu", "20", "--h", "1"],
    "sums": ["sums", "--bc", "dirichlet", "--nu", "20", "--h", "1"],
    "casimir": ["casimir", "--bc", "dirichlet", "--nu", "20", "--L", "1"],
    "limit": ["limit", "--bc", "dirichlet", "--nu", "20", "--L", "1"],
    "chebyshev": ["chebyshev"],
}
UNREAD = {
    "det": ["--order", "--sweep", "--eigenfunctions"],
    "spectrum": ["--prime", "--order", "--sweep", "--exact"],
    "sums": ["--prime", "--sweep", "--eigenfunctions"],
    "casimir": ["--prime", "--order", "--exact", "--eigenfunctions"],
    "limit": ["--h", "--potential", "--delta-site", "--delta-v", "--prime", "--order", "--sweep",
              "--exact", "--eigenfunctions"],
    "chebyshev": ["--nu", "--h", "--L", "--alpha", "--beta", "--tau", "--mass", "--potential",
                  "--delta-site", "--delta-v", "--prime", "--order", "--sweep", "--exact",
                  "--eigenfunctions"],
}
OPTION_VALUE = {
    "--nu": "20", "--h": "0.01", "--L": "1", "--alpha": "0.5", "--beta": "0.5", "--tau": "0.5",
    "--mass": "1", "--potential": "{pot}", "--delta-site": "2", "--delta-v": "0.5",
    "--order": "2", "--sweep": "h:0.002:0.02:10",
}


class TestOptionRefusal:
    """A subcommand refuses, with exit 2 and nothing on stdout, any option it does not read."""

    def test_table_covers_every_parent_slot(self):
        # 6 subcommands x 16 options + --bc for the five that take one = 101; 63 remain
        assert sum(map(len, UNREAD.values())) == 101 - 63

    @pytest.mark.parametrize("command", sorted(BASE_ARGV))
    def test_base_runs(self, capsys, command):
        assert run_exit(capsys, *BASE_ARGV[command])[0] == 0

    @pytest.mark.parametrize("command, option",
                             [(c, o) for c, options in UNREAD.items() for o in options])
    def test_unread_option(self, capsys, tmp_path, command, option):
        (tmp_path / "pot.json").write_text(json.dumps([0.0] * 20))
        value = OPTION_VALUE.get(option, "").replace("{pot}", str(tmp_path / "pot.json"))
        argv = BASE_ARGV[command] + [option] + ([value] if value else [])
        code, out, err = run_exit(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert f"unrecognized arguments: {option}" in err

    @pytest.mark.parametrize("argv", [
        ["limit", "--bc", "dirichlet", "--nu", "20", "--L", "1", "--h", "0.01"],  # not --help
        ["det", "--bc", "dirichlet", "--nu", "20", "--h", "1", "--pot", "{pot}"],
        ["spectrum", "--bc", "dirichlet", "--nu", "20", "--h", "1", "--eigen"],
        ["casimir", "--bc", "dirichlet", "--nu", "20", "--L", "1", "--sw", "h:0.002:0.02:10"],
    ], ids=["limit-h", "det-pot", "spectrum-eigen", "casimir-sw"])
    def test_no_abbreviations(self, capsys, tmp_path, argv):
        (tmp_path / "pot.json").write_text(json.dumps([0.0] * 20))
        argv = [str(tmp_path / "pot.json") if a == "{pot}" else a for a in argv]
        code, out, err = run_exit(capsys, *argv)
        assert (code, out) == (2, "")
        assert "unrecognized arguments" in err

    def test_every_parser_refuses_abbreviations(self):
        parser = build_parser()
        subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert not parser.allow_abbrev
        assert not any(p.allow_abbrev for p in subparsers.choices.values())


class TestValueRules:
    """Rules between option values: exit 2, ``error: ...`` on stderr, nothing on stdout."""

    @pytest.mark.parametrize("argv, message", [
        (["det", "--bc", "neumann", "--nu", "9", "--h", "1", "--alpha", "0.5"],
         "--alpha needs --bc robin"),
        (["spectrum", "--bc", "dirichlet", "--nu", "9", "--h", "1", "--beta", "0.5"],
         "--beta needs --bc robin"),
        (["sums", "--bc", "periodic", "--nu", "9", "--tau", "0.5"], "--tau needs --bc twisted"),
        (["casimir", "--bc", "robin", "--nu", "9", "--L", "1", "--tau", "0.5"],
         "--tau needs --bc twisted"),
        (["limit", "--bc", "dirichlet", "--nu", "9", "--L", "1", "--alpha", "1"],
         "--alpha needs --bc robin"),
        (["det", "--bc", "dirichlet", "--nu", "9", "--h", "1", "--delta-v", "0.5"],
         "--delta-v needs --delta-site"),
        (["casimir", "--bc", "dirichlet", "--nu", "9", "--L", "1", "--delta-v", "0.5"],
         "--delta-v needs --delta-site"),
        (["casimir", "--bc", "dirichlet", "--nu", "9", "--L", "1", "--sweep", "h:0.002:0.02:10",
          "--potential", "{pot}"], "--sweep fits the free massless closed forms"),
        (["casimir", "--bc", "dirichlet", "--nu", "9", "--L", "1", "--sweep", "h:0.002:0.02:10",
          "--delta-site", "2", "--delta-v", "0.5"], "--sweep fits the free massless closed forms"),
        (["casimir", "--bc", "dirichlet", "--nu", "9", "--L", "1", "--sweep", "h:0.002:0.02:10",
          "--mass", "1"], "--sweep fits the free massless closed forms"),
    ], ids=["alpha-neumann", "beta-dirichlet", "tau-periodic", "tau-robin", "limit-alpha",
            "delta-v-alone", "casimir-delta-v-alone", "sweep-potential", "sweep-delta",
            "sweep-mass"])
    def test_refused(self, capsys, tmp_path, argv, message):
        (tmp_path / "pot.json").write_text(json.dumps([0.1] * 9))
        argv = [str(tmp_path / "pot.json") if a == "{pot}" else a for a in argv]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}")

    @pytest.mark.parametrize("command", ["det", "sums", "spectrum", "casimir"])
    def test_unset_parameters_keep_library_defaults(self, capsys, command):
        lattice = ["--nu", "9", "--L", "1", "--mass", "1"]  # the mass lifts zero modes
        pairs = [(["--bc", "robin"], ["--bc", "robin", "--alpha", "0", "--beta", "0"]),
                 (["--bc", "twisted"], ["--bc", "twisted", "--tau", "1"])]
        for bare, explicit in pairs:
            first = run_cli(capsys, command, *bare, *lattice)
            assert first == run_cli(capsys, command, *explicit, *lattice) and first[0] == 0

    def test_sweep_with_zero_mass_runs(self, capsys):
        code, data = run_json(capsys, "casimir", "--bc", "dirichlet", "--L", "1", "--nu", "9",
                              "--sweep", "h:0.002:0.02:10", "--mass", "0")
        assert code == 0 and "universal_constant" in data


class TestNonFiniteOptions:
    """NaN and infinite numeric options exit 2 with nothing on stdout."""

    @pytest.mark.parametrize("argv", [
        ["det", "--bc", "dirichlet", "--nu", "5", "--h", "nan"],
        ["det", "--bc", "dirichlet", "--nu", "5", "--L", "inf"],
        ["det", "--bc", "dirichlet", "--nu", "5", "--h", "1", "--mass", "nan"],
        ["det", "--bc", "robin", "--nu", "5", "--h", "1", "--alpha", "nan"],
        ["det", "--bc", "robin", "--nu", "5", "--h", "1", "--beta=-inf"],
        ["det", "--bc", "dirichlet", "--nu", "5", "--h", "1", "--delta-site", "2",
         "--delta-v", "inf"],
        ["spectrum", "--bc", "dirichlet", "--nu", "5", "--h", "nan"],
    ], ids=["h", "L", "mass", "alpha", "beta", "delta-v", "spectrum-h"])
    def test_option(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        option = [a for a in argv if a.startswith("--")][-1].split("=")[0]
        assert code == 2 and out == ""
        assert err.startswith(f"error: {option} must be finite, got ")

    @pytest.mark.parametrize("sweep", ["h:nan:0.02:10", "h:0.002:inf:10", "h:0.002:nan:10"])
    def test_sweep_bounds(self, capsys, sweep):
        code, out, err = run_cli(capsys, "casimir", "--bc", "dirichlet", "--L", "1",
                                  "--nu", "9", "--sweep", sweep)
        assert code == 2 and out == ""
        assert err.startswith("error: --sweep needs finite")


class TestNegativeMass:
    """--mass < 0 exits 2 in every subcommand that builds a potential."""

    @pytest.mark.parametrize("command", ["det", "spectrum", "sums", "casimir"])
    @pytest.mark.parametrize("source", [[], ["--potential", "{pot}"],
                                        ["--delta-site", "2", "--delta-v", "0.5"]],
                             ids=["free", "potential", "delta"])
    def test_refused(self, capsys, tmp_path, command, source):
        (tmp_path / "pot.json").write_text("[0.1, 0.2, 0.3, 0.4, 0.5]")
        source = [str(tmp_path / "pot.json") if a == "{pot}" else a for a in source]
        code, out, err = run_cli(capsys, command, "--bc", "dirichlet", "--nu", "5", "--h", "1",
                                 "--mass", "-1", *source)
        assert (code, out) == (2, "")
        assert err == "error: --mass must be >= 0, got -1.0\n"


class TestSums:
    def test_dirichlet_closed_form(self, capsys):
        code, data = run_json(capsys, "sums", "--bc", "dirichlet", "--nu", "9", "--h", "1")
        assert code == 0
        # (1/4)(2/3)(p^2 - 1) at p = 10
        assert abs(data["inverse_power_sums"][0] - 16.5) < 1e-10
        assert abs(data["closed_form_sum1"] - 16.5) < 1e-10
        assert data["closed_form_agreement"] is True

    def test_robin_closed_form(self, capsys):
        code, data = run_json(capsys, "sums", "--bc", "robin", "--alpha", "1", "--beta", "0",
                              "--nu", "2", "--h", "1")
        assert code == 0
        assert abs(data["inverse_power_sums"][0] - 5.0) < 1e-10
        assert data["closed_form_agreement"] is True

    def test_order_zero_is_config_error(self, capsys):
        code, out, err = run_cli(capsys, "sums", "--bc", "dirichlet", "--nu", "9", "--h", "1",
                                 "--order", "0")
        assert code == 2 and out == ""
        assert err.startswith("error: --order must be 1..4")

    def test_zero_mode_is_config_error(self, capsys):
        code, out, err = run_cli(capsys, "sums", "--bc", "neumann", "--nu", "4", "--h", "1")
        assert code == 2 and "zero mode" in err

    @pytest.mark.parametrize("exact", [[], ["--exact"]])
    def test_pinned_ends_leave_no_eigenvalues(self, capsys, exact):
        """Robin(-1, -1) at nu = 2 has degree 0: every sum is 0 (not -0)."""
        code, out, _ = run_cli(capsys, "sums", "--bc", "robin", "--alpha", "-1", "--beta", "-1",
                               "--nu", "2", "--h", "1", *exact)
        assert code == 0 and '"inverse_power_sums": [0, 0, 0, 0]' in out

    @pytest.mark.parametrize("nu, lo, hi", [(40, 0, 0), (400, 0, 0), (3000, 0, 0),
                                            (400, -1, 1), (2000, -1, 1)])
    def test_float_jet_against_mpmath(self, capsys, tmp_path, nu, lo, hi):
        """Float sums at any nu, against a 50-digit jet; not against LAPACK, whose
        absolute eigenvalue error dominates S_4 once lambda_min ~ 1e-6."""
        values = np.random.default_rng(nu).uniform(lo, hi, nu).tolist()
        path = tmp_path / "pot.json"
        path.write_text(json.dumps(values))
        code, data = run_json(capsys, "sums", "--bc", "dirichlet", "--nu", str(nu), "--h", "1",
                              *(["--potential", str(path)] if hi else []))
        assert code == 0
        want = mpmath_sums(values)
        got = data["inverse_power_sums"]
        assert max(abs(g - w) / abs(w) for g, w in zip(got, want)) < 1e-10

    @pytest.mark.parametrize("nu, hi, reason", [(1000, 1, "bound 1.97e-06"),
                                                (3000, 2, "bound 0.00029")])
    def test_float_jet_guard(self, capsys, tmp_path, nu, hi, reason):
        """Cancellation in the float jet exits 3 and points to --exact."""
        path = tmp_path / "pot.json"
        path.write_text(json.dumps(np.random.default_rng(nu).uniform(0, hi, nu).tolist()))
        code, out, err = run_cli(capsys, "sums", "--bc", "dirichlet", "--nu", str(nu),
                                 "--h", "1", "--potential", str(path))
        assert code == 3 and out == ""
        assert err.startswith("error: float jet") and reason in err and "--exact" in err

    def test_exact_at_nu_1000(self, capsys, tmp_path):
        """The integer carrier takes --exact, the float route's fallback, to nu = 1000
        in about a second; LAPACK's eigenvalues are the reference."""
        nu = 1000
        v = np.random.default_rng(nu).uniform(0, 1, nu)
        path = tmp_path / "pot.json"
        path.write_text(json.dumps(v.tolist()))
        start = time.perf_counter()
        code, data = run_json(capsys, "sums", "--bc", "dirichlet", "--nu", str(nu), "--h", "1",
                              "--potential", str(path), "--exact")
        assert code == 0 and time.perf_counter() - start < 10.0
        lams = np.linalg.eigvalsh(np.diag(2.0 + v) - np.eye(nu, k=1) - np.eye(nu, k=-1))
        for k, got in enumerate(data["inverse_power_sums"], start=1):
            want = math.fsum(lams ** -k)
            assert abs(got - want) <= 1e-10 * want

    @pytest.mark.parametrize("argv", [
        ["--bc", "neumann", "--nu", "10"], ["--bc", "periodic", "--nu", "10"],
        ["--bc", "dirichlet", "--nu", "5", "--delta-site", "2", "--delta-v", "-0.75"],
        ["--bc", "dirichlet", "--nu", "5", "--delta-site", "2", "--delta-v", "-0.5"],
        ["--bc", "dirichlet", "--nu", "64"], ["--bc", "twisted", "--tau", "0.3", "--nu", "64"],
        ["--bc", "robin", "--alpha", "0.5", "--beta", "1.5", "--nu", "40"]])
    @pytest.mark.parametrize("exact", [[], ["--exact"]])
    def test_zero_mode_exactly_when_det_sign_zero(self, capsys, argv, exact):
        _, det = run_json(capsys, "det", *argv, "--h", "1")
        code, out, err = run_cli(capsys, "sums", *argv, "--h", "1", *exact)
        assert (code == 2) == (det["sign"] == 0)
        assert code in (0, 2) and ("zero mode" in err) == (code == 2)

    @pytest.mark.parametrize("bc", [["dirichlet"], ["robin", "--alpha", "0.5", "--beta", "1.5"],
                                    ["twisted", "--tau", "0.3"]])
    def test_float_jet_does_not_overflow(self, capsys, tmp_path, bc):
        """P(0) of uniform(-1, 2) at nu = 2000 overflows a float; its scaled jet does not."""
        path = tmp_path / "pot.json"
        path.write_text(json.dumps(np.random.default_rng(2000).uniform(-1, 2, 2000).tolist()))
        argv = ["sums", "--bc", *bc, "--nu", "2000", "--h", "1", "--potential", str(path)]
        code, got = run_json(capsys, *argv)
        assert code == 0
        _, want = run_json(capsys, *argv, "--exact")
        for g, w in zip(got["inverse_power_sums"], want["inverse_power_sums"]):
            assert abs(g - w) <= 1e-10 * abs(w)

    @pytest.mark.parametrize("nu", [5, 50])
    @pytest.mark.parametrize("gap", [1e-6, 1e-8, 1e-9, 1e-10])
    def test_near_zero_mode_is_guarded(self, capsys, tmp_path, nu, gap):
        """A constant potential gap above -lambda_1: c_0 keeps only the digits left
        above its yardstick, and the guard counts them (without that count, nu = 5
        at gap 1e-9 exits 0 with sums 1.6e-8 off)."""
        path = tmp_path / "pot.json"
        path.write_text(json.dumps([gap - 4 * math.sin(math.pi / (2 * nu + 2)) ** 2] * nu))
        argv = ["sums", "--bc", "dirichlet", "--nu", str(nu), "--h", "1", "--potential", str(path)]
        code, out, err = run_cli(capsys, *argv)
        _, want = run_json(capsys, *argv, "--exact")
        if code == 0:
            got = json.loads(out)["inverse_power_sums"]
            assert all(abs(g - w) <= 1e-8 * abs(w) for g, w in zip(got, want["inverse_power_sums"]))
        else:
            assert code == 3 and "Newton cancellation bound" in err
        assert (code == 3) == (nu == 5 and gap <= 1e-8 or nu == 50 and gap <= 1e-10)

    @pytest.mark.parametrize("nu, want", [(2, [0, 2, 0, 2]), (10, [0, 30, 0, 310])])
    def test_spectrum_symmetric_about_zero(self, capsys, tmp_path, nu, want):
        """A constant -2 Dirichlet potential makes every weight -lambda, so the spectrum
        is symmetric about 0 and P's odd coefficients are exact zeros: they lose no
        digits, and the guard must not read one as an infinite loss."""
        path = tmp_path / "pot.json"
        path.write_text(json.dumps([-2] * nu))
        for exact in ([], ["--exact"]):
            code, data = run_json(capsys, "sums", "--bc", "dirichlet", "--nu", str(nu), "--h", "1",
                                  "--potential", str(path), *exact)
            assert code == 0 and data["inverse_power_sums"] == want

    def test_float_sums_run_one_sweep(self, capsys, monkeypatch):
        """The float route reads c_0..c_order and their zero test from one jet sweep."""
        def refuse(*args, **kwargs):
            raise AssertionError("a second sweep")

        monkeypatch.setattr(gylat.cli, "determinant", refuse)
        monkeypatch.setattr(gylat.cli, "_terminal", refuse)
        code, data = run_json(capsys, "sums", "--bc", "dirichlet", "--nu", "9", "--h", "1")
        assert code == 0 and data["closed_form_agreement"] is True

    @settings(max_examples=150)
    @given(nu=st.integers(1, 300), bc=_SUMS_BCS, seed=st.integers(0, 2 ** 32 - 1),
           kind=st.sampled_from(["uniform", "indefinite", "well"]))
    def test_float_sums_keep_the_guards_promise(self, nu, bc, seed, kind):
        """Float sums exit 0 only within 1e-8 of --exact, exit 3 naming the bound
        (its exit 2, a zero mode, may be a near one), and never 0 on an exact zero mode."""
        rng = np.random.default_rng(seed)
        if kind == "well":  # a deep well over the middle third, 0 elsewhere
            values = np.zeros(nu)
            values[nu // 3:max(2 * nu // 3, nu // 3 + 1)] = -rng.uniform(0.5, 4.0)
        else:
            values = rng.uniform(*((0, 1) if kind == "uniform" else (-1, 2)), nu)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "pot.json"
            path.write_text(json.dumps(values.tolist()))
            argv = ["sums", f"--bc={bc[0]}", *bc[1:], f"--nu={nu}", "--h=1", f"--potential={path}"]
            (code, out, err), (xcode, xout, _) = (quiet_cli(*argv), quiet_cli(*argv, "--exact"))
        assert xcode in (0, 2)
        if code == 0:
            assert xcode == 0
            got, want = (json.loads(o)["inverse_power_sums"] for o in (out, xout))
            assert all(abs(g - w) <= 1e-8 * abs(w) for g, w in zip(got, want))
        elif code == 3:
            assert "Newton cancellation bound" in err and "--exact" in err
        else:
            assert code == 2 and "zero mode" in err


class TestCasimir:
    def test_periodic_nu4(self, capsys):
        code, data = run_json(capsys, "casimir", "--bc", "periodic", "--nu", "4")
        assert code == 0
        assert abs(data["energy"] - 1.5369360885246874) < 1e-12
        assert data["rel_diff"] < 1e-14

    def test_sweep_constant(self, capsys):
        code, data = run_json(capsys, "casimir", "--bc", "dirichlet", "--L", "1", "--nu", "9",
                              "--sweep", "h:0.002:0.02:10")
        assert code == 0
        assert abs(data["universal_constant"] + math.pi / 24) < 1e-3
        assert len(data["sweep_points"]) >= 5

    @pytest.mark.parametrize("bc", [["dirichlet"], ["neumann"], ["periodic"],
                                    ["twisted", "--tau", "0.3"]])
    @pytest.mark.parametrize("nu, mass", [(9, 5.0), (40, 0.7)])
    def test_mass_against_free_spectrum(self, capsys, bc, nu, mass):
        """--mass m sums the massive free spectrum; it is not dropped for the massless one."""
        code, data = run_json(capsys, "casimir", "--bc", *bc, "--nu", str(nu), "--L", "1",
                              "--mass", repr(mass))
        kind = gylat.BoundaryCondition(bc[0], tau=float(bc[2]) if len(bc) > 1 else 1.0)
        spec = (LatticeSpec.circle(nu, L=1.0) if kind.is_circle
                else LatticeSpec.interval(nu, L=1.0))
        lams = free_eigenvalues(kind, spec, MassParam.physical(mass, spec)).lambdas
        weight = 1.0 if bc[0] == "twisted" else 0.5
        want = weight * math.fsum(math.sqrt(lam / spec.h ** 2) for lam in lams)
        assert code == 0
        assert abs(data["energy"] - want) <= 1e-12 * want
        massless = run_json(capsys, "casimir", "--bc", *bc, "--nu", str(nu), "--L", "1")[1]
        assert data["energy"] > massless["energy"]


    @pytest.mark.parametrize("nu", [10, 1000])
    def test_free_robin(self, capsys, nu):
        """Free Robin has no closed form: the potential route's payload, from the contour."""
        code, data = run_json(capsys, "casimir", "--bc", "robin", "--alpha", "0.3",
                              "--beta", "0.8", "--nu", str(nu), "--L", "1")
        assert code == 0 and list(data)[-3:] == ["nu", "h", "energy"]
        spec = LatticeSpec.interval(nu, L=1.0)
        d = tridiagonal_matrix(Potential.zeros(nu), robin(0.3, 0.8))[0]
        lams = np.linalg.eigvalsh(np.diag(d) - np.eye(nu, k=1) - np.eye(nu, k=-1))
        want = 0.5 * math.fsum(np.sqrt(lams)) / spec.h
        assert abs(data["energy"] - want) <= 1e-14 * want + 1e-14 * float(np.sum(1 / np.sqrt(lams)))

    @pytest.mark.parametrize("bc", [["neumann"], ["robin", "--alpha", "0", "--beta", "0"]])
    def test_zero_mode_potential_is_not_nan(self, capsys, tmp_path, bc):
        """A potential that rounds to the free Neumann matrix keeps its zero mode."""
        path = tmp_path / "pot.json"
        path.write_text(json.dumps([0] * 9 + [1e-300]))
        code, data = run_json(capsys, "casimir", "--bc", *bc, "--nu", "10", "--h", "1",
                              "--potential", str(path))
        assert code == 0
        # the free closed form; a zero mode costs the contour its last digits
        assert abs(data["energy"] - 5.8531023680873524) <= 1e-12 * data["energy"]

    def test_massive_dirichlet_at_large_nu(self, capsys):
        """Beyond the oracle's cap the contour integral sums the massive free modes."""
        nu, mass = 100000, 3.0
        code, data = run_json(capsys, "casimir", "--bc", "dirichlet", "--mass", repr(mass),
                              "--nu", str(nu), "--L", "1")
        h = data["h"]
        want = math.fsum(math.sqrt(4 * math.sin(math.pi * n / (2 * (nu + 1))) ** 2
                                   + (h * mass) ** 2) / (2 * h) for n in range(1, nu + 1))
        assert code == 0
        assert abs(data["energy"] - want) <= 1e-14 * want


class TestLimit:
    def test_dirichlet_sinh(self, capsys):
        code, data = run_json(capsys, "limit", "--bc", "dirichlet", "--mass", "1",
                              "--L", "1", "--nu", "800")
        assert code == 0
        assert abs(data["target"] - math.sinh(1.0)) < 1e-12
        assert data["rel_error"] < 1e-3
        assert 1.8 < data["observed_order"] < 2.2

    def test_robin_limit(self, capsys):
        code, data = run_json(capsys, "limit", "--bc", "robin", "--alpha", "1", "--beta", "2",
                              "--mass", "1", "--L", "1", "--nu", "800")
        assert code == 0
        assert data["rel_error"] < 1e-2

    @pytest.mark.parametrize("circle", [["periodic"], ["twisted", "--tau", "0.25"],
                                        ["twisted", "--tau", "0.9"]])
    def test_massive_circle(self, capsys, circle):
        # h^(2 nu) Det -> 2 cosh(mubar L) - 2 cos(2 pi tau) on the default L = 2 pi
        code, data = run_json(capsys, "limit", "--bc", *circle, "--mass", "2", "--nu", "20000")
        tau = float(circle[2]) if len(circle) > 1 else 1.0
        want = 2 * math.cosh(4 * math.pi) - 2 * math.cos(2 * math.pi * tau)
        assert code == 0
        assert abs(data["target"] - want) <= 1e-14 * want
        assert data["rel_error"] < 1e-6
        assert abs(data["observed_order"] - 2) < 0.1


class TestChebyshevSelfTest:
    def test_all_pass(self, capsys):
        code, data = run_json(capsys, "chebyshev")
        assert code == 0
        assert data["all_passed"] is True
        assert set(data["checks"]) == {"turan", "composition", "product_series",
                                       "matrix_power_det", "neumann_difference"}

    @pytest.mark.parametrize("name, bad, failing", [
        ("cheb_u", (5, 1), {"turan", "composition", "product_series", "matrix_power_det"}),
        # the product series never reads U_{-1}
        ("cheb_u", (-1, -2), {"turan", "composition", "matrix_power_det"}),
        ("cheb_v_poly", (17,), {"neumann_difference"}),
    ])
    def test_one_wrong_value_fails(self, capsys, monkeypatch, name, bad, failing):
        """Each value is computed once, on a path that the identities share,
        yet one wrong value still fails every identity that reads it, and the
        command exits 3.  name(*bad) is the value made wrong on its path."""
        source, offset = {"cheb_u": ("cheb_u_path", 2),
                          "cheb_v_poly": ("cheb_v_poly_path", 0)}[name]
        index, *at = bad
        right = getattr(gylat.chebyshev, source)

        def wrong(n, *x):
            path = right(n, *x)
            if list(x) == at:
                path[index + offset] = path[index + offset] + 1
            return path

        monkeypatch.setattr(gylat.chebyshev, source, wrong)
        code, data = run_json(capsys, "chebyshev")
        assert code == 3 and data["all_passed"] is False
        assert {k for k, ok in data["checks"].items() if not ok} == failing


def ref_render_json(obj, indent=0):
    """The per-item renderer that render_json's float-list path must match."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{pad}  "{k}": {ref_render_json(v, indent + 1)}' for k, v in obj.items())
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return "[" + ", ".join(ref_render_json(v, indent + 1) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, int):
        return str(obj)
    if obj is None:
        return "null"
    return json.dumps(str(obj))


RENDER_CASES = [
    [math.nan, 1.5], [math.inf, -math.inf], [0.1, math.inf, -2.0], [-0.0], [0.0, -0.0],
    [5e-324, -5e-324], [1.7976931348623157e308, -1.7976931348623157e308],
    [2.2250738585072014e-308, 1e16, 1e17, 123456789012345678.0, 1 / 3],
    [1, 2.5, True, False, None], (1.5, 2.5), (1.5, math.nan), [[], [[]], [[], []]],
    [np.float64(0.1), 0.2], [np.float64(math.nan), 0.5], [[0.1, 0.2], [3.0, 4]],
    {"a": [0.25, -7.5e-300], "b": [], "c": {"d": [math.nan], "e": "x"}},
]


def _ref_flatten(obj, prefix="", out=None):
    if out is None:
        out = {}
    if isinstance(obj, dict):
        for k, v in obj.items():
            _ref_flatten(v, f"{prefix}{k}.", out)
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _ref_flatten(v, f"{prefix}{i}.", out)
    else:
        out[prefix[:-1]] = obj
    return out


def ref_render_csv(obj):
    """The dict-per-row renderer that render_csv must match byte for byte."""
    rows = obj if isinstance(obj, list) else [obj]
    flats = [_ref_flatten(r) for r in rows]
    keys = list(dict.fromkeys(k for f in flats for k in f))

    def cell(v):
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, float):
            return _fmt_float(v)
        return "" if v is None else str(v)

    return "\n".join([",".join(keys)] + [",".join(cell(f.get(k)) for k in keys) for f in flats])


CSV_CASES = RENDER_CASES + [
    {}, [], 5, 2.5, None, "x", [{}], [[0.5, 1.5]], [1.5, 2.5], [{"a": 1}, {}],
    # dotted keys that collide: first place, last value
    {"a": [0.5, 1.5], "a.1": 7.0, "b": {"c": 1}, "b.c": None},
    {"a": {"b": [0.25]}, "a.b.0": [0.5, math.nan], "a.b": {"0": True}},
    {1: 0.5, "1": [0.25, 0.75]}, {"x": (1.5, 2.5), "y": [[0.1, -0.0], [math.inf]]},
    [{"a": [0.1, 0.2]}, {"a": [0.3], "b": 1}, {"a.0": 9.0}],
]


class TestOutputDiscipline:
    @pytest.mark.parametrize("obj", RENDER_CASES)
    def test_render_json_matches_per_item_renderer(self, obj):
        assert render_json(obj) == ref_render_json(obj)

    @pytest.mark.parametrize("obj", CSV_CASES)
    def test_render_csv_matches_dict_renderer(self, obj):
        assert render_csv(obj) == ref_render_csv(obj)

    def test_render_csv_float_rows_match_dict_renderer(self):
        rng = np.random.default_rng(8)
        bits = rng.integers(0, 2**64, 20000, dtype=np.uint64).view(np.float64).tolist()
        rows = [bits[i:i + 100] for i in range(0, len(bits), 100)]
        payload = {"n": 3, "rows": rows, "tail": {"ok": True, "v": bits[:7]}}
        assert render_csv(payload) == ref_render_csv(payload)

    def test_render_json_float_rows_match_per_item_renderer(self):
        # random bit patterns: every exponent, subnormals, and a few NaN rows
        rng = np.random.default_rng(7)
        bits = rng.integers(0, 2**64, 20000, dtype=np.uint64).view(np.float64).tolist()
        rows = [bits[i:i + 100] for i in range(0, len(bits), 100)]
        assert any(math.isnan(x) for x in bits)
        assert render_json({"rows": rows}) == ref_render_json({"rows": rows})

    def test_eigenfunctions_of_localised_modes_exit_3(self, capsys, tmp_path):
        path = tmp_path / "pot.json"
        path.write_text(json.dumps(np.random.default_rng(400).uniform(-1, 1, 400).tolist()))
        code, out, err = run_cli(capsys, "spectrum", "--bc", "dirichlet", "--nu", "400",
                                 "--h", "1", "--potential", str(path), "--eigenfunctions")
        assert code == 3
        assert out == ""
        assert "of 400 eigenfunction rows miss T y = lambda y" in err

    def test_byte_determinism(self, capsys):
        _, out1, _ = run_cli(capsys, "spectrum", "--bc", "robin", "--alpha", "0.3",
                             "--beta", "-0.2", "--nu", "5", "--h", "0.7")
        _, out2, _ = run_cli(capsys, "spectrum", "--bc", "robin", "--alpha", "0.3",
                             "--beta", "-0.2", "--nu", "5", "--h", "0.7")
        assert out1 == out2

    def test_csv_flattening(self, capsys):
        code, out, err = run_cli(capsys, "spectrum", "--bc", "dirichlet", "--nu", "2",
                                 "--h", "1", "--format", "csv")
        assert code == 0
        header, row = out.strip().split("\n")
        cols = header.split(",")
        vals = row.split(",")
        assert "eigenvalues_dimensionless.0" in cols
        ix = cols.index("eigenvalues_dimensionless.0")
        assert abs(float(vals[ix]) - 1.0) < 1e-9

    def test_csv_header_is_union_of_keys_in_first_seen_order(self):
        rows = [{"a": 1, "b": {"x": 2.5}}, {"c": None, "a": True}, {"b": {"y": [3, 4.0]}}]
        assert render_csv(rows) == "a,b.x,c,b.y.0,b.y.1\n1,2.5,,,\ntrue,,,,\n,,,3,4"

    def test_seventeen_digit_floats(self, capsys):
        _, out, _ = run_cli(capsys, "casimir", "--bc", "periodic", "--nu", "4")
        assert "1.5369360885246874" in out

    def test_library_reproduces_cli_numbers(self, capsys):
        from gylat import (LatticeSpec, Potential, free_energy_closed,
                           oracle_spectrum, periodic, robin)
        _, data = run_json(capsys, "casimir", "--bc", "periodic", "--nu", "4")
        spec = LatticeSpec.circle(4, L=2 * math.pi)
        assert data["energy"] == pytest.approx(
            free_energy_closed(periodic(), spec), abs=0.0, rel=0.0)
        _, data = run_json(capsys, "spectrum", "--bc", "robin", "--alpha", "0.4",
                           "--beta", "-0.1", "--nu", "4", "--h", "0.5")
        lam = oracle_spectrum(Potential.zeros(4), robin(0.4, -0.1),
                              LatticeSpec.interval(4, h=0.5))
        assert data["eigenvalues_dimensionless"] == list(lam.lambdas)
        assert data["eigenvalues_physical"] == list(lam.physical)

    def test_eigenfunction_table(self, capsys):
        code, data = run_json(capsys, "spectrum", "--bc", "dirichlet", "--nu", "3",
                              "--h", "1", "--eigenfunctions")
        assert code == 0
        assert len(data["eigenfunctions"]) == 3
        assert len(data["eigenfunctions"][0]) == 3


class TestParserReuse:
    """main builds its argparse parser once per process and reuses it."""

    EXTRAS = [
        # limit takes no --h; the circle's default L = 2 pi comes from _build_spec
        ["limit", "--bc", "periodic", "--mass", "2", "--nu", "400"],
        ["det", "--bc", "dirichlet", "--nu", "3"],  # config error: no spacing
        ["det", "--bc", "nowhere", "--nu", "3", "--h", "1"],  # argparse refusal
        ["spectrum", "--bc", "twisted", "--tau", "0.3", "--nu", "40"],
    ]

    @staticmethod
    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def test_golden_replay_forward_and_reversed(self, tmp_path):
        from make_golden import CASES, GOLDEN, case_argv

        recorded = json.loads(GOLDEN.read_text())
        names = sorted(CASES)
        first = {}
        for k, name in enumerate(names + names[::-1]):
            code, out, _ = self.run(case_argv(CASES[name], tmp_path))
            assert {"exit": code, "sha256": hashlib.sha256(out.encode()).hexdigest()} == \
                recorded[name], name
            extra = self.EXTRAS[k % len(self.EXTRAS)]
            got = self.run(extra)
            assert first.setdefault(tuple(extra), got) == got, extra
        codes = [first[tuple(e)][0] for e in self.EXTRAS]
        assert codes == [0, 2, 2, 0]
        assert "supply one of --h and --L" in first[tuple(self.EXTRAS[1])][2]
        assert "invalid choice" in first[tuple(self.EXTRAS[2])][2]

    def test_subcommand_is_looked_up_per_call(self, monkeypatch, capsys):
        """A wrapper bound over cmd_* after the parser exists still runs (tracing relies on it)."""
        main(["chebyshev"])
        calls = []
        monkeypatch.setattr(gylat.cli, "cmd_chebyshev",
                            lambda args: calls.append(args.command) or ({"ok": True}, 0))
        assert main(["chebyshev"]) == 0 and calls == ["chebyshev"]
        assert capsys.readouterr().out.endswith('"ok": true\n}\n')

    def test_import_builds_no_parser(self):
        code = textwrap.dedent("""
            import argparse
            built = []
            init = argparse.ArgumentParser.__init__
            def counting(self, *a, **k):
                built.append(1)
                init(self, *a, **k)
            argparse.ArgumentParser.__init__ = counting
            import gylat.cli as cli
            print(len(built), cli.build_parser.cache_info().currsize == 0)
            cli.main(["det", "--bc", "dirichlet", "--nu", "3"])
            once = len(built)
            cli.main(["det", "--bc", "dirichlet", "--nu", "3"])
            print(once > 0, len(built) == once)
        """)
        src = str(Path(gylat.__file__).resolve().parents[1])
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert res.stdout.split() == ["0", "True", "True", "True"], res.stderr

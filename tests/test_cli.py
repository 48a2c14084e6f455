"""CLI surface: subcommands, formats, determinism, exit codes."""

import json
import math

import numpy as np
import pytest

from gylat import LatticeSpec, MassParam, Potential, determinant, dirichlet, free_determinant, robin
from gylat.cli import _fmt_float, main, render_csv, render_json
from gylat.spectrum import tridiagonal_matrix


def run_cli(capsys, *argv):
    code = main(list(argv))
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

    def test_delta_zero_mode(self, capsys):
        code, data = run_json(capsys, "det", "--bc", "dirichlet", "--nu", "5", "--h", "1",
                              "--delta-site", "2", "--delta-v", "-0.75")
        assert code == 0
        assert data["sign"] == 0

    def test_exact_rational(self, capsys):
        code, data = run_json(capsys, "det", "--bc", "dirichlet", "--nu", "3", "--h", "1",
                              "--exact")
        assert data["dimensionless_det_exact"] == "4/1"

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

    def test_zero_mode_is_config_error(self, capsys):
        code, out, err = run_cli(capsys, "sums", "--bc", "neumann", "--nu", "4", "--h", "1")
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


class TestChebyshevSelfTest:
    def test_all_pass(self, capsys):
        code, data = run_json(capsys, "chebyshev")
        assert code == 0
        assert data["all_passed"] is True
        assert set(data["checks"]) == {"turan", "composition", "product_series",
                                       "matrix_power_det", "neumann_difference"}


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


class TestOutputDiscipline:
    @pytest.mark.parametrize("obj", RENDER_CASES)
    def test_render_json_matches_per_item_renderer(self, obj):
        assert render_json(obj) == ref_render_json(obj)

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

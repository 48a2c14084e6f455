"""Domain types: lattice geometry, potentials, polynomials, 2x2 algebra."""

import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from gylat import (
    BoundaryCondition,
    CharPoly,
    LatticeSpec,
    LogDet,
    Mat2,
    Potential,
    Spectrum,
    Vec2,
    J,
    char_poly,
    determinant,
    dirichlet,
    load_potential,
    neumann,
    oracle_spectrum,
    periodic,
    robin,
    twisted,
)
from gylat.core import DIRICHLET, PERIODIC
from gylat.transfer import step_matrix


class TestLatticeSpec:
    def test_interval_h_to_L(self):
        spec = LatticeSpec.interval(4, h=0.25)
        assert spec.L == 0.25 * 5
        assert spec.h == 0.25

    def test_interval_L_to_h(self):
        spec = LatticeSpec.interval(9, L=1.0)
        assert spec.h == 0.1
        assert spec.h * (spec.nu + 1) == spec.L

    def test_circle_relation(self):
        spec = LatticeSpec.circle(8, L=2 * math.pi)
        assert spec.h * spec.nu == spec.L

    def test_exactly_one_of_h_L(self):
        with pytest.raises(ValueError):
            LatticeSpec.interval(3, h=1.0, L=4.0)
        with pytest.raises(ValueError):
            LatticeSpec.interval(3)

    @pytest.mark.parametrize("h, L", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0),
                                      (1.0, math.inf), (0.0, 1.0), (1.0, -1.0)])
    def test_spacing_and_length_positive_and_finite(self, h, L):
        with pytest.raises(ValueError, match="positive and finite"):
            LatticeSpec(3, h, L)

    def test_nu_zero_is_legal_on_interval(self):
        spec = LatticeSpec.interval(0, h=1.0)
        assert spec.L == 1.0

    def test_to_physical(self):
        assert Spectrum((2.0,), LatticeSpec.interval(3, h=1.0)).physical == (2.0,)
        assert Spectrum((2.0,), LatticeSpec.interval(3, h=0.5)).physical == (8.0,)
        # twisted mode n=1 on the nu=4 unit circle: lambda = 4 sin^2(pi/4) = 2
        spec = LatticeSpec.circle(4, h=math.pi / 2)
        lam = 4.0 * math.sin(math.pi / 4) ** 2
        assert abs(Spectrum((lam,), spec).physical[0] - 8.0 / math.pi**2) < 1e-12


class TestPotential:
    def test_round_trip(self):
        vbar = [0.3, -1.7, 2.2]
        pot = Potential.from_physical(vbar, h=0.2)
        back = [v / (0.2 * 0.2) for v in pot.values]
        assert all(abs(a - b) < 1e-15 for a, b in zip(back, vbar))

    def test_delta(self):
        pot = Potential.delta(5, 2, 0.7)
        assert pot.values == (0, 0.7, 0, 0, 0)
        with pytest.raises(ValueError):
            Potential.delta(5, 6, 1.0)

    def test_load_plain_array(self, tmp_path):
        path = tmp_path / "pot.json"
        path.write_text("[0.1, 0.2, 0.3]")
        pot = load_potential(str(path))
        assert pot.values == (0.1, 0.2, 0.3)

    def test_load_physical_object(self, tmp_path):
        path = tmp_path / "pot.json"
        path.write_text(json.dumps({"physical": [1.0, 2.0], "h": 0.5}))
        pot = load_potential(str(path), nu=2)
        assert pot.values == (0.25, 0.5)

    def test_load_length_mismatch(self, tmp_path):
        path = tmp_path / "pot.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError):
            load_potential(str(path), nu=3)


class TestBoundaryConditions:
    def test_robin_zero_is_neumann(self):
        # identical CharPoly coefficient arrays in exact mode, any potential
        rng = random.Random(11)
        for nu in range(1, 11):
            pot = Potential(tuple(rng.uniform(-2, 2) for _ in range(nu)))
            pn = char_poly(pot, neumann(), exact=True)
            pr = char_poly(pot, robin(0.0, 0.0), exact=True)
            assert pn.coeffs == pr.coeffs

    def test_twisted_one_is_periodic(self):
        rng = random.Random(12)
        for nu in (1, 2, 3, 6, 9):
            pot = Potential(tuple(rng.uniform(-1, 1) for _ in range(nu)))
            sp = oracle_spectrum(pot, periodic()).lambdas
            st = oracle_spectrum(pot, twisted(1.0)).lambdas
            assert max(abs(a - b) for a, b in zip(sp, st)) < 1e-12

    def test_twist_range(self):
        with pytest.raises(ValueError):
            twisted(0.0)
        with pytest.raises(ValueError):
            twisted(1.5)

    def test_vectors(self):
        assert dirichlet().in_vector() == Vec2(0, 1)
        assert neumann().in_vector() == Vec2(1, 1)
        assert robin(0.5, 0.25).in_vector() == Vec2(1, 1.5)
        assert robin(0.5, 0.25).out_adjoint() == Vec2(-1, 1.25)
        with pytest.raises(ValueError):
            periodic().in_vector()


class TestCharPoly:
    def test_backend_inference(self):
        assert CharPoly([1, 2]).backend == "exact"
        assert CharPoly([1.0, 2.0]).backend == "float"

    def test_exact_trim(self):
        p = CharPoly([1, 2, 0, 0])
        assert p.coeffs == [1, 2]
        assert p.degree == 1

    def test_float_trim_threshold(self):
        # only exact zeros are trimmed: a tiny top coefficient is kept
        p = CharPoly([1.0, 2.0, 1e-15])
        assert p.degree == 2
        p = CharPoly([1.0, 2.0, 0.0])
        assert p.degree == 1 and p.coeffs == [1.0, 2.0]

    def test_eval_and_derivative(self):
        p = CharPoly([3, -4, 1])
        assert p(0) == 3 and p(1) == 0 and p(3) == 0
        assert p.derivative().coeffs == [-4, 2]

    def test_mul_exact(self):
        p = CharPoly([1, 1]) * CharPoly([-1, 1])
        assert p.coeffs == [-1, 0, 1]

    def test_mixed_backend_degrades(self):
        p = CharPoly([1, 2]) + CharPoly([0.5])
        assert p.backend == "float"

    def test_scalar_ops(self):
        p = 2 * CharPoly([1, 1]) - 1
        assert p.coeffs == [1, 2]


class TestMat2Vec2:
    def test_step_matrix_det_exact(self):
        m = step_matrix(Fraction(1, 3), Fraction(1, 7))
        assert m.det() == 1

    def test_step_matrix_det_float(self):
        rng = random.Random(5)
        for _ in range(50):
            m = step_matrix(rng.uniform(-3, 3), rng.uniform(-4, 4))
            assert abs(m.det() - 1.0) <= 1e-14

    def test_symplectic_metric(self):
        assert (J.a, J.b, J.c, J.d) == (0, 1, -1, 0)
        assert J.det() == 1

    def test_matmul_and_vec(self):
        m = Mat2(1, 2, 3, 4)
        assert m @ Vec2(1, 1) == Vec2(3, 7)
        assert (m @ m).a == 7

    def test_identity_generic(self):
        one = CharPoly([1])
        ident = Mat2.identity(one)
        assert ident.b.coeffs == [0] and ident.a.coeffs == [1]


class TestSpectrumType:
    def test_physical_conversion(self):
        spec = LatticeSpec.interval(2, h=0.5)
        s = Spectrum((1.0, 3.0), spec)
        assert s.physical == (4.0, 12.0)

    def test_physical_requires_spec(self):
        with pytest.raises(ValueError):
            Spectrum((1.0,)).physical


class TestLogDet:
    def test_zero_modes_flag(self):
        ld = LogDet(1, 0.0, zero_modes_removed=1)
        assert ld.zero_modes_removed == 1
        assert ld.value == 1.0

    def test_invalid_sign(self):
        with pytest.raises(ValueError):
            LogDet(2, 0.0)


class TestNonFiniteRefused:
    """NaN or infinite inputs raise ValueError instead of giving a NaN determinant."""

    @pytest.mark.parametrize("make", [
        lambda: Potential((0.1, math.nan)), lambda: Potential(np.array([1.0, math.inf])),
        lambda: Potential.constant(3, -math.inf), lambda: Potential.delta(4, 2, math.nan),
        lambda: Potential.from_physical([1e200, 2.0], 1e200)])
    def test_potential(self, make):
        with pytest.raises(ValueError, match="finite"):
            make()

    @pytest.mark.parametrize("make", [
        lambda: robin(math.nan, 0.0), lambda: robin(0.0, math.inf), lambda: twisted(math.nan),
        lambda: BoundaryCondition(DIRICHLET, alpha=math.nan),
        lambda: BoundaryCondition(PERIODIC, tau=-math.inf)])
    def test_boundary_condition(self, make):
        with pytest.raises(ValueError):
            make()

    def test_library_determinant_reproductions(self):
        """NaN inputs used to return a LogDet with a NaN log_abs (nu = 5, h = 1)."""
        spec = LatticeSpec.interval(5, h=1.0)
        with pytest.raises(ValueError):
            determinant(Potential.zeros(5), robin(math.nan, 0.0), spec)
        with pytest.raises(ValueError):
            determinant(Potential((0.0, 0.1, math.nan, 0.2, 0.0)), dirichlet(), spec)

"""Chebyshev calculus: values, identities, matrix powers, exact polynomials."""

import math
import random
from fractions import Fraction

import pytest

from gylat import (
    CharPoly,
    cheb_matrix_power,
    cheb_t,
    cheb_t_poly,
    cheb_u,
    cheb_u_poly,
    cheb_v,
    cheb_v_poly,
)
from gylat.chebyshev import cheb_u_pair, cheb_u_path, cheb_u_poly_path, cheb_v_poly_path


class TestValues:
    def test_u_seeds(self):
        assert cheb_u(-2, 0.37) == -1
        assert cheb_u(-1, 0.37) == 0
        assert cheb_u(0, 0.37) == 1

    def test_u_at_one(self):
        # U_n(1) = n + 1
        assert cheb_u(3, 1) == 4
        assert all(cheb_u(n, 1) == n + 1 for n in range(20))

    def test_u_trig_zero(self):
        # sin(3 theta)/sin(theta) at theta = pi/3
        assert abs(cheb_u(2, 0.5)) < 1e-15

    def test_v_values(self):
        assert cheb_v(0, 0.37) == 1
        assert cheb_v(1, 0.8) == 2 * 0.8 - 1
        assert cheb_v(5, 1) == 1  # cosh ratio at gamma = 0

    def test_v_cosh_ratio(self):
        g = 0.3
        x = math.cosh(2 * g)
        for n in range(8):
            ref = math.cosh((2 * n + 1) * g) / math.cosh(g)
            assert abs(cheb_v(n, x) - ref) < 1e-12 * abs(ref)

    def test_t_values(self):
        assert cheb_t(0, 0.9) == 1
        assert abs(cheb_t(2, 0.5) - math.cos(2 * math.pi / 3)) < 1e-15
        assert cheb_t(4, 1) == 1

    def test_u_hyperbolic(self):
        g = 0.7
        x = math.cosh(2 * g)
        for n in range(1, 10):
            ref = math.sinh(2 * g * (n + 1)) / math.sinh(2 * g)
            assert abs(cheb_u(n, x) - ref) < 1e-12 * abs(ref)


class TestMatrixPower:
    def test_identity_at_zero(self):
        m = cheb_matrix_power(0, 0.4)
        assert (m.a, m.b, m.c, m.d) == (1, 0.0, 0.0, 1)

    def test_against_literal_product(self):
        from gylat import Mat2
        rng = random.Random(3)
        for _ in range(20):
            x = rng.uniform(-2, 2)
            n = rng.randint(0, 12)
            c = Mat2(0.0, 1.0, -1.0, 2 * x)
            acc = Mat2.identity(1.0)
            for _ in range(n):
                acc = c @ acc
            m = cheb_matrix_power(n, x)
            for got, want in ((m.a, acc.a), (m.b, acc.b), (m.c, acc.c), (m.d, acc.d)):
                assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    def test_displayed_entries(self):
        x = 0.5
        m = cheb_matrix_power(2, x)
        assert (m.a, m.b, m.c, m.d) == (-1, 2 * x, -2 * x, 4 * x * x - 1)

    def test_det_one_exact(self):
        for x in range(-3, 4):
            for n in range(31):
                assert cheb_matrix_power(n, x).det() == 1


class TestIdentities:
    def test_turan_exact(self):
        # U_{n-1}^2 - U_n U_{n-2} = 1, integer arguments
        for x in range(-4, 5):
            for n in range(31):
                um1, un = cheb_u_pair(n, x)
                unm2 = 2 * x * um1 - un
                assert um1 * um1 - un * unm2 == 1

    def test_turan_float(self):
        rng = random.Random(17)
        for _ in range(40):
            x = rng.uniform(-1, 1)
            for n in (10, 50, 200):
                um1, un = cheb_u_pair(n, x)
                unm2 = 2 * x * um1 - un
                assert abs(um1 * um1 - un * unm2 - 1.0) <= 1e-9

    def test_composition_exact(self):
        # U_{m+n} = U_m U_n - U_{m-1} U_{n-1}, all 0 <= m, n <= 30
        for x in range(-2, 3):
            us = [cheb_u(k, x) for k in range(-1, 62)]  # us[k+1] = U_k
            for m in range(31):
                for n in range(31):
                    assert us[m + n + 1] == us[m + 1] * us[n + 1] - us[m] * us[n]

    def test_product_series_parity_step(self):
        # U_m U_n = sum_{k = |m-n|, step 2}^{m+n} U_k
        for x in range(-2, 3):
            for m in range(13):
                for n in range(13):
                    lhs = cheb_u(m, x) * cheb_u(n, x)
                    rhs = sum(cheb_u(k, x) for k in range(abs(m - n), m + n + 1, 2))
                    assert lhs == rhs

    def test_product_series_needs_parity_step(self):
        # the unstepped sum disagrees already at m = n = 1
        x = 2
        lhs = cheb_u(1, x) * cheb_u(1, x)
        unstepped = sum(cheb_u(k, x) for k in range(0, 3))
        assert lhs != unstepped
        assert lhs == cheb_u(0, x) + cheb_u(2, x)

    def test_generating_function(self):
        # sum U_n(x) t^n matches the expansion of 1/(1 - 2tx + t^2)
        rng = random.Random(23)
        N = 20
        for _ in range(10):
            x = rng.uniform(-1, 1)
            # 1/(1 - 2tx + t^2) by power-series division, coefficients in t
            series = []
            for n in range(N + 1):
                c = (1.0 if n == 0 else 0.0)
                if n >= 1:
                    c += 2 * x * series[n - 1]
                if n >= 2:
                    c -= series[n - 2]
                series.append(c)
            for n in range(N + 1):
                assert abs(series[n] - cheb_u(n, x)) <= 1e-12

    def test_neumann_difference_identity(self):
        # V_j - V_{j-1} = (2x - 2) U_{j-1} as polynomials in lambda (x = 1 - lambda/2)
        for j in range(1, 31):
            lhs = cheb_v_poly(j) - cheb_v_poly(j - 1)
            rhs = CharPoly([0, -1], backend="exact") * cheb_u_poly(j - 1)
            assert lhs == rhs


class TestPolynomials:
    def test_u_poly_small(self):
        assert cheb_u_poly(1).coeffs == [2, -1]
        assert cheb_u_poly(2).coeffs == [3, -4, 1]

    def test_u_poly_constant_term(self):
        for n in range(25):
            assert cheb_u_poly(n).coeffs[0] == n + 1

    def test_u_poly_matches_values(self):
        for n in range(12):
            p = cheb_u_poly(n)
            for lam in (Fraction(1, 3), Fraction(-2), Fraction(7, 2)):
                assert p(lam) == cheb_u(n, 1 - lam / 2)

    def test_v_poly_constant_term(self):
        # V_n(1) = 1
        for n in range(20):
            assert cheb_v_poly(n).coeffs[0] == 1

    def test_paths_hold_every_value(self):
        # one sweep gives what a sweep per order gives, bit for bit
        for x in (3, Fraction(-2, 3), 0.37, -1.9, CharPoly([1, Fraction(-1, 2)], backend="exact")):
            assert cheb_u_path(30, x) == [cheb_u(k, x) for k in range(-2, 31)]
        assert [cheb_u_path(n, 2) for n in (-2, -1, 0)] == [[-1], [-1, 0], [-1, 0, 1]]
        for path, poly in ((cheb_u_poly_path, cheb_u_poly), (cheb_v_poly_path, cheb_v_poly)):
            assert [p.coeffs for p in path(30)] == [poly(n).coeffs for n in range(31)]

    def test_t_poly_values(self):
        for n in range(12):
            p = cheb_t_poly(n)
            assert p(Fraction(0)) == 1  # T_n(1) = 1
            got = p(Fraction(1, 2))
            ref = cheb_t(n, Fraction(3, 4))
            assert got == ref


    def test_t_keeps_an_exact_poly_exact(self):
        # x = 1 - lambda/2 with an exact lambda gives cheb_t_poly(n), exact
        x = 1 - CharPoly.lam(exact=True) * Fraction(1, 2)
        for n in (0, 1, 2, 7, 60):
            t = cheb_t(n, x)
            assert t.backend == "exact" and t == cheb_t_poly(n)


class TestErrors:
    def test_bad_order(self):
        with pytest.raises(ValueError):
            cheb_u(-3, 0.5)
        with pytest.raises(ValueError):
            cheb_v(-1, 0.5)
        with pytest.raises(ValueError):
            cheb_t(-1, 0.5)
        with pytest.raises(ValueError):
            cheb_matrix_power(-1, 0.5)
        with pytest.raises(ValueError):
            cheb_u_path(-3, 0.5)
        for path in (cheb_u_poly_path, cheb_v_poly_path):
            with pytest.raises(ValueError):
                path(-1)

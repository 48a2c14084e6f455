"""Vacuum energies: mode sums, closed forms, universal constants."""

import math

import mpmath
import numpy as np
import pytest

from gylat import (
    LatticeSpec,
    Potential,
    dirichlet,
    extract_constant,
    free_energy_closed,
    neumann,
    oracle_spectrum,
    periodic,
    robin,
    twisted,
    vacuum_energy,
)
from gylat.spectrum import tridiagonal_matrix
from gylat.vacuum import _interval_root_sum, bernoulli_polynomial, twisted_bernoulli_series


def circle(nu, L=2 * math.pi):
    return LatticeSpec.circle(nu, L=L)


class TestModeSums:
    def test_dirichlet_nu1(self):
        spec = LatticeSpec.interval(1, h=1.0)
        assert abs(vacuum_energy(None, dirichlet(), spec) - math.sin(math.pi / 4)) < 1e-15

    def test_periodic_nu4(self):
        got = vacuum_energy(None, periodic(), circle(4))
        want = (2 / math.pi) / math.tan(math.pi / 8)
        assert abs(got - want) < 1e-12
        # direct mode sum (1/2)(2 sqrt(2) + 2)/h
        direct = 0.5 * (2 * math.sqrt(2.0) + 2.0) / circle(4).h
        assert abs(got - direct) < 1e-12

    def test_twisted_at_integer_twist_doubles_periodic(self):
        for nu in (3, 4, 9):
            spec = circle(nu)
            ep = vacuum_energy(None, periodic(), spec)
            et = vacuum_energy(None, twisted(1.0), spec)
            assert abs(et - 2 * ep) < 1e-12 * ep

    def test_mode_count_always_nu(self):
        from gylat import free_eigenvalues
        for bc in (dirichlet(), neumann(), periodic(), twisted(0.25)):
            for nu in (1, 2, 5, 6):
                spec = circle(nu) if bc.is_circle else LatticeSpec.interval(nu, h=1.0)
                assert len(free_eigenvalues(bc, spec)) == nu

    def test_negative_eigenvalue_raises(self):
        spec = LatticeSpec.interval(4, h=1.0)
        pot = Potential.delta(4, 2, -5.0)
        with pytest.raises(ValueError):
            vacuum_energy(pot, dirichlet(), spec)

    def test_potential_case_matches_oracle(self):
        spec = LatticeSpec.interval(4, h=1.0)
        pot = Potential.constant(4, 0.5)
        lams = oracle_spectrum(pot, dirichlet(), spec)
        want = 0.5 * math.fsum(math.sqrt(x) for x in lams.physical)
        assert abs(vacuum_energy(pot, dirichlet(), spec) - want) < 1e-12


class TestContour:
    """Interval energies with a potential: the contour integral against eigenvalue sums."""

    BCS = [dirichlet(), neumann(), robin(0.3, 1.7)]
    TOPS = [1.0, 50.0, 1e-6]

    @staticmethod
    def energy_and_root_sum(v, bc, h=1.0):
        nu = len(v)
        return (vacuum_energy(Potential(v), bc, LatticeSpec.interval(nu, h=h)),
                tridiagonal_matrix(Potential(v), bc)[0])

    @pytest.mark.parametrize("bc", BCS, ids=lambda bc: bc.kind)
    @pytest.mark.parametrize("top", TOPS)
    def test_against_mpmath_at_nu_10(self, bc, top):
        v = np.random.default_rng(10).uniform(0, top, 10)
        got, d = self.energy_and_root_sum(v, bc)
        with mpmath.workdps(40):
            a = mpmath.matrix(10, 10)
            for i, x in enumerate(d.tolist()):
                a[i, i] = x
                if i:
                    a[i, i - 1] = a[i - 1, i] = -1
            want = 0.5 * float(mpmath.fsum(mpmath.sqrt(x) for x in mpmath.eigsy(a, eigvals_only=True)))
        assert abs(got - want) <= 1e-14 * want

    @pytest.mark.parametrize("bc", BCS, ids=lambda bc: bc.kind)
    @pytest.mark.parametrize("top", TOPS)
    def test_against_lapack_at_nu_100(self, bc, top):
        v = np.random.default_rng(100).uniform(0, top, 100)
        got, d = self.energy_and_root_sum(v, bc, h=0.5)
        lams = np.linalg.eigvalsh(np.diag(d) - np.eye(100, k=1) - np.eye(100, k=-1))
        want = 0.5 * math.fsum(np.sqrt(lams)) / 0.5
        # LAPACK's eigenvalues carry an absolute error of a few eps
        tol = 1e-14 * want + 1e-14 * float(np.sum(0.5 / np.sqrt(lams)))
        assert abs(got - want) <= tol

    @pytest.mark.parametrize("bc, top", list(zip(BCS, TOPS)),
                             ids=["dirichlet-1", "neumann-50", "robin-1e-06"])
    def test_against_oracle_at_nu_3000(self, bc, top):
        v = np.random.default_rng(3000).uniform(0, top, 3000)
        got, _ = self.energy_and_root_sum(v, bc)
        lams = np.array(oracle_spectrum(Potential(v), bc).lambdas)
        want = 0.5 * math.fsum(np.sqrt(lams))
        # the oracle's eigenvalues carry an absolute error of ~1e-14
        tol = 1e-14 * want + 1e-13 * float(np.sum(0.5 / np.sqrt(lams)))
        assert abs(got - want) <= tol

    @pytest.mark.parametrize("alpha, beta", [(-1.0, 0.7), (1.3, -1.0), (-1.0, -1.0)])
    def test_degenerate_robin_against_reduced_matrix(self, alpha, beta):
        """alpha (beta) = -1 pins y(1) (y(nu)) = 0: the modes are those of the other sites."""
        nu = 50
        v = np.random.default_rng(5).uniform(0, 1, nu)
        d = 2.0 + v
        for end, par in ((0, alpha), (-1, beta)):
            if par != -1.0:
                d[end] -= 1.0 / (1.0 + par)
        d = d[(alpha == -1.0):nu - (beta == -1.0)]
        lams = np.linalg.eigvalsh(np.diag(d) - np.eye(len(d), k=1) - np.eye(len(d), k=-1))
        want = 0.5 * math.fsum(np.sqrt(lams))
        got = vacuum_energy(Potential(v), robin(alpha, beta), LatticeSpec.interval(nu, h=1.0))
        assert abs(got - want) <= 1e-14 * want

    @staticmethod
    def lapack_root_sum(d):
        """sum_n sqrt(lambda_n) from LAPACK, and the error allowance near a zero mode.

        A lowest eigenvalue within rounding of 0 is off by ~eps |A| in either
        route, and its square root by ~sqrt(eps |A|)."""
        lams = np.linalg.eigvalsh(np.diag(d) - np.eye(len(d), k=1) - np.eye(len(d), k=-1))
        want = math.fsum(np.sqrt(np.maximum(lams, 0.0)))
        return want, 1e-13 * want + 2 * math.sqrt(2.0 ** -52 * (float(np.max(np.abs(d))) + 2))

    @pytest.mark.parametrize("bc", [neumann(), robin(0.0, 0.0)], ids=["neumann", "robin-0-0"])
    @pytest.mark.parametrize("nu", [10, 100, 1000])
    @pytest.mark.parametrize("tip", [1e-300, 1e-20, 0.0])
    def test_exact_zero_mode_is_not_nan(self, bc, nu, tip):
        """v = (0, ..., 0, tip): d_nu = 2 + tip - 1 rounds to 1, so A is the free Neumann
        matrix with its zero mode, and the contour's last pivot is 0 where t is lost."""
        v = np.zeros(nu)
        v[-1] = tip
        got = _interval_root_sum(Potential(v), bc)
        spec = LatticeSpec.interval(nu, h=1.0)
        assert abs(got - 2 * free_energy_closed(neumann(), spec)) <= 1e-12 * got
        want, tol = self.lapack_root_sum(tridiagonal_matrix(Potential(v), bc)[0])
        assert abs(got - want) <= tol

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("nu", [10, 100, 1000])
    def test_rounded_zero_mode(self, seed, nu):
        """v = Laplacian(y) / y for a positive y gives a zero mode, which rounding moves
        to ~1e-16 on either side of 0: an energy, never a negative-eigenvalue refusal."""
        y = np.random.default_rng(seed).uniform(0.5, 2.0, nu)
        lap = np.empty(nu)
        lap[1:-1] = y[:-2] - 2 * y[1:-1] + y[2:]
        lap[0], lap[-1] = y[1] - y[0], y[-2] - y[-1]
        v = lap / y  # (T_Neumann + v) y = 0
        got = _interval_root_sum(Potential(v), neumann())
        want, tol = self.lapack_root_sum(tridiagonal_matrix(Potential(v), neumann())[0])
        assert abs(got - want) <= tol

    @pytest.mark.parametrize("nu", [10, 1000])
    def test_free_robin(self, nu):
        """Free Robin has no closed-form spectrum; the contour sums it at any nu."""
        bc = robin(0.3, 0.8)
        got = vacuum_energy(None, bc, LatticeSpec.interval(nu, h=1.0))
        d = tridiagonal_matrix(Potential.zeros(nu), bc)[0]
        lams = np.linalg.eigvalsh(np.diag(d) - np.eye(nu, k=1) - np.eye(nu, k=-1))
        want = 0.5 * math.fsum(np.sqrt(lams))
        tol = 1e-14 * want + 1e-14 * float(np.sum(0.5 / np.sqrt(lams)))
        assert abs(got - want) <= tol

    @pytest.mark.parametrize("nu", [10, 100, 1000])
    def test_free_robin_zero_mode_locus(self, nu):
        """alpha + beta + (nu + 1) alpha beta = 0 puts a mode at 0 (y linear in j)."""
        alpha = 0.5
        bc = robin(alpha, -alpha / (1 + (nu + 1) * alpha))
        got = 2 * vacuum_energy(None, bc, LatticeSpec.interval(nu, h=1.0))
        want, tol = self.lapack_root_sum(tridiagonal_matrix(Potential.zeros(nu), bc)[0])
        assert abs(got - want) <= tol

    @pytest.mark.parametrize("nu", [3, 300, 5000])
    def test_negative_eigenvalues_are_counted(self, nu):
        """The negative pivots at t = 0 count the negative eigenvalues."""
        v = np.zeros(nu)
        v[nu // 3] = v[(2 * nu) // 3] = -5.0  # two deep wells, one bound state each
        with pytest.raises(ValueError, match=r"^2 negative eigenvalue\(s\)"):
            vacuum_energy(Potential(v), dirichlet(), LatticeSpec.interval(nu, h=1.0))


class TestClosedForms:
    def test_dirichlet_nu1(self):
        spec = LatticeSpec.interval(1, h=1.0)
        want = 0.5 * (1.0 / math.tan(math.pi / 8) - 1.0)
        assert abs(free_energy_closed(dirichlet(), spec) - want) < 1e-15

    def test_periodic_nu3(self):
        spec = circle(3)
        want = (3 / (2 * math.pi)) / math.tan(math.pi / 6)
        got = free_energy_closed(periodic(), spec)
        assert abs(got - want) < 1e-14
        direct = 2 * math.sin(math.pi / 3) / spec.h
        assert abs(got - direct) < 1e-14

    def test_twisted_nu2_half(self):
        spec = circle(2)
        got = free_energy_closed(twisted(0.5), spec)
        assert abs(got - (2 / math.pi) * math.sqrt(2.0)) < 1e-14

    def test_equal_mode_sums_large_nu(self):
        for bc in (dirichlet(), neumann()):
            for nu in (10, 999, 10 ** 4):
                spec = LatticeSpec.interval(nu, L=1.0)
                e_sum = vacuum_energy(None, bc, spec)
                e_closed = free_energy_closed(bc, spec)
                assert abs(e_sum - e_closed) <= 1e-12 * abs(e_closed)
        for tau in (0.25, 0.5, 0.75, 1.0):
            for nu in (10, 999, 10 ** 4):
                spec = circle(nu)
                e_sum = vacuum_energy(None, twisted(tau), spec)
                e_closed = free_energy_closed(twisted(tau), spec)
                assert abs(e_sum - e_closed) <= 1e-12 * abs(e_closed)
        for nu in (10, 999, 10 ** 4):
            spec = circle(nu)
            assert abs(vacuum_energy(None, periodic(), spec)
                       - free_energy_closed(periodic(), spec)) \
                <= 1e-12 * free_energy_closed(periodic(), spec)


class TestExtractConstant:
    def test_dirichlet_universal(self):
        hs = [1.0 / (20 * 2 ** (k / 4)) for k in range(16)]
        fit = extract_constant(dirichlet(), 1.0, hs)
        assert abs(fit.constant + math.pi / 24) < 1e-4

    def test_neumann_universal(self):
        # the Neumann expansion carries a genuine O(h) tail; absorbing it
        # with the positive-power columns recovers the universal constant
        hs = [1.0 / (60 * 2 ** (k / 3)) for k in range(16)]
        fit = extract_constant(neumann(), 1.0, hs, with_positive_powers=True)
        assert abs(fit.constant + math.pi / 24) < 1e-5

    def test_periodic_universal(self):
        hs = [2 * math.pi / n for n in range(30, 330, 20)]
        fit = extract_constant(periodic(), 2 * math.pi, hs)
        assert abs(fit.constant + 1.0 / 12.0) < 1e-4

    def test_twisted_universal(self):
        hs = [2 * math.pi / n for n in range(30, 330, 20)]
        for tau in (0.25, 0.5, 0.75):
            fit = extract_constant(twisted(tau), 2 * math.pi, hs)
            want = -(1.0 / 6.0 - tau + tau * tau)
            assert abs(fit.constant - want) < 1e-4

    def test_needs_five_points(self):
        with pytest.raises(ValueError):
            extract_constant(dirichlet(), 1.0, [0.1, 0.05])

    def test_narrow_window_ill_conditioned(self):
        hs = [0.01 * (1 + 1e-9 * k) for k in range(8)]
        with pytest.raises(ValueError):
            extract_constant(dirichlet(), 1.0, hs)

    def test_leading_coefficients(self):
        # E_D = 2L/(pi h^2) - 1/(2h) - pi/(24 L) + ...
        hs = [1.0 / (20 * 2 ** (k / 4)) for k in range(16)]
        fit = extract_constant(dirichlet(), 1.0, hs)
        assert abs(fit.coefficients[-2] - 2.0 / math.pi) < 1e-4
        assert abs(fit.coefficients[-1] + 0.5) < 1e-3

    def test_dn_vs_p_half_lattice_puzzle(self):
        # The h^-2 and h^0 terms of E_D + E_N on the half circle match E_P,
        # but the h^-1 terms do not cancel - the known lattice mismatch.
        hs = [1.0 / (20 * 2 ** (k / 4)) for k in range(16)]
        fit_d = extract_constant(dirichlet(), 1.0, hs, with_positive_powers=True)
        fit_n = extract_constant(neumann(), 1.0, hs, with_positive_powers=True)
        fit_p = extract_constant(periodic(), 2.0, [2.0 / n for n in range(40, 440, 25)])
        assert abs((fit_d.coefficients[-2] + fit_n.coefficients[-2])
                   - fit_p.coefficients[-2]) < 1e-4
        assert abs((fit_d.constant + fit_n.constant) - fit_p.constant) < 1e-4
        mismatch = fit_d.coefficients[-1] + fit_n.coefficients[-1] - fit_p.coefficients[-1]
        assert abs(mismatch + 1.0 + 2.0 / math.pi) < 1e-3  # the h^-1 terms do not cancel


class TestBernoulliSeries:
    def test_bernoulli_polynomial(self):
        for x in (0.0, 0.3, 1.0):
            assert abs(bernoulli_polynomial(2, x) - (x * x - x + 1.0 / 6.0)) < 1e-15

    def test_leading_term(self):
        # m = 0 term alone is 8/h^2
        h = 0.37
        assert abs(twisted_bernoulli_series(0.5, h, 0)
                   - (8.0 / (h * h) * bernoulli_polynomial(0, 0.5))) < 1e-12

    def test_constant_term(self):
        # m <= 1 partial sum is 8/h^2 - (1/6 - tau + tau^2)
        h, tau = 0.2, 0.3
        got = twisted_bernoulli_series(tau, h, 1)
        want = 8.0 / (h * h) - (1.0 / 6.0 - tau + tau * tau)
        assert abs(got - want) < 1e-12

    def test_matches_closed_form(self):
        for tau in (0.25, 0.5, 0.9):
            nu = 63
            spec = circle(nu)
            got = twisted_bernoulli_series(tau, spec.h, 3)
            want = free_energy_closed(twisted(tau), spec)
            assert abs(got - want) <= 1e-8

    def test_matches_analytic_form_off_lattice(self):
        # against (2/h) cosec(h/4) cos((h/4)(2 tau - 1)) at literal h = 0.1
        h, tau = 0.1, 0.5
        want = 2.0 / (h * math.sin(h / 4)) * math.cos((h / 4) * (2 * tau - 1))
        assert abs(twisted_bernoulli_series(tau, h, 3) - want) <= 1e-8

    def test_range_checks(self):
        with pytest.raises(ValueError):
            twisted_bernoulli_series(0.0, 0.1, 2)
        with pytest.raises(ValueError):
            twisted_bernoulli_series(0.5, 0.1, 9)

"""Free-field closed forms: spectra, determinants, continuum targets."""

import math
import random
import sys

import mpmath
import pytest

from gylat import (
    LatticeSpec,
    MassParam,
    Potential,
    cheb_u,
    cheb_v,
    continuum_limit_targets,
    continuum_scaling_exponent,
    determinant,
    dirichlet,
    free_determinant,
    free_eigenvalues,
    free_energy_closed,
    neumann,
    periodic,
    robin,
    twisted,
)
from gylat.closedform import _log_cosh, _log_sinh, _log_u
from gylat.transfer import Propagator

ALL_FREE_BCS = (dirichlet(), neumann(), periodic(), twisted(0.25), twisted(0.5))


def spec_for(bc, nu, h=1.0):
    return LatticeSpec.circle(nu, h=h) if bc.is_circle else LatticeSpec.interval(nu, h=h)


def from_mu(mu, spec):
    """A MassParam built from its dimensionless mu, so that only mubar can overflow."""
    return MassParam(mubar=mu / spec.h, mu=mu, gamma0=math.asinh(0.5 * mu))


def robin_element(nu, a, b, lam, mu=0.0):
    """out . K(lambda; nu) . in for Robin(a, b) on the constant potential mu^2, whose
    Chebyshev forms the tests below check."""
    bc = robin(a, b)
    y = Propagator(Potential.constant(nu, mu * mu), float(lam)).matrix(nu) @ bc.in_vector()
    out = bc.out_adjoint()
    return out.a * y.a + out.b * y.b


class TestMassParam:
    def test_dimensionless_relation(self):
        spec = LatticeSpec.interval(10, h=0.25)
        m = MassParam.physical(2.0, spec)
        assert m.mu == 0.5
        assert abs(4.0 * math.sinh(m.gamma0) ** 2 - m.mu ** 2) < 1e-14
        assert abs(1.0 + 0.5 * m.mu * m.mu - math.cosh(2 * m.gamma0)) < 1e-14

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError):
            MassParam.physical(-1.0, LatticeSpec.interval(2, h=1.0))

    @pytest.mark.parametrize("mass", [math.nan, math.inf, -math.inf, 1e308])
    @pytest.mark.parametrize("make", [MassParam.physical, from_mu])
    def test_non_finite_mass_rejected(self, make, mass):
        """NaN passed the old mubar < 0 test; 1e308 at h = 10 gives an infinite mu."""
        with pytest.raises(ValueError, match="finite"):
            make(mass, LatticeSpec.interval(5, h=10.0 if make == MassParam.physical else 0.1))

    def test_free_determinant_nan_mass_reproduction(self):
        """Used to return sign +1 with a NaN log_abs at nu = 5, h = 1."""
        spec = LatticeSpec.interval(5, h=1.0)
        with pytest.raises(ValueError):
            free_determinant(dirichlet(), spec, MassParam.physical(math.nan, spec))


class TestFreeEigenvalues:
    def test_dirichlet_nu3(self):
        spec = LatticeSpec.interval(3, h=1.0)
        lams = free_eigenvalues(dirichlet(), spec).lambdas
        want = [4 * math.sin(math.pi * n / 8) ** 2 for n in (1, 2, 3)]
        assert max(abs(a - b) for a, b in zip(lams, want)) < 1e-14
        assert abs(lams[1] - 2.0) < 1e-14

    def test_neumann_zero_mode_is_mass(self):
        spec = LatticeSpec.interval(5, h=0.5)
        m = MassParam.physical(1.7, spec)
        lams = free_eigenvalues(neumann(), spec, m)
        assert abs(lams.physical[0] - 1.7 ** 2) < 1e-12

    def test_twisted_half_nu2(self):
        spec = LatticeSpec.circle(2, h=0.7)
        lams = free_eigenvalues(twisted(0.5), spec)
        assert max(abs(x - 2.0) for x in lams.lambdas) < 1e-14
        assert max(abs(x - 2.0 / 0.49) for x in lams.physical) < 1e-12

    def test_periodic_bookkeeping_matches_twisted_one(self):
        for nu in (2, 3, 4, 7, 8):
            spec = LatticeSpec.circle(nu, h=1.0)
            p = free_eigenvalues(periodic(), spec).lambdas
            t = free_eigenvalues(twisted(1.0), spec).lambdas
            assert len(p) == nu
            assert max(abs(a - b) for a, b in zip(p, t)) < 1e-12

    def test_even_nu_alternating_mode(self):
        spec = LatticeSpec.circle(6, h=1.0)
        lams = free_eigenvalues(periodic(), spec).lambdas
        assert abs(lams[-1] - 4.0) < 1e-14  # the lattice-cutoff wave

    def test_mass_shift_exact(self):
        spec = LatticeSpec.interval(6, h=0.3)
        m = MassParam.physical(2.0, spec)
        massless = free_eigenvalues(dirichlet(), spec).lambdas
        massive = free_eigenvalues(dirichlet(), spec, m).lambdas
        for a, b in zip(massless, massive):
            assert b == a + m.mu ** 2  # exact float identity: same sin^2 term

    def test_count_is_nu(self):
        for bc in ALL_FREE_BCS:
            for nu in (1, 2, 5, 8):
                spec = spec_for(bc, nu)
                assert len(free_eigenvalues(bc, spec)) == nu

    def test_robin_has_no_closed_form(self):
        with pytest.raises(ValueError):
            free_eigenvalues(robin(0.5, 0.5), LatticeSpec.interval(3, h=1.0))


class TestTopologyCheck:
    """A closed form on a spec of the other topology used to take L from the wrong
    link count: free_determinant(periodic(), interval spec, prime=True) gave log_abs
    4.605 where the circle spec gives 4.159."""

    @pytest.mark.parametrize("closed", [
        free_eigenvalues, free_determinant, free_energy_closed,
        lambda bc, spec: free_determinant(bc, spec, prime=True)],
        ids=["free_eigenvalues", "free_determinant", "free_energy_closed", "free_determinant'"])
    @pytest.mark.parametrize("bc, spec", [
        (periodic(), LatticeSpec.interval(4, h=1.0)), (twisted(0.3), LatticeSpec.interval(4, h=1.0)),
        (dirichlet(), LatticeSpec.circle(4, h=1.0)), (neumann(), LatticeSpec.circle(4, h=1.0))],
        ids=["periodic-interval", "twisted-interval", "dirichlet-circle", "neumann-circle"])
    def test_mismatch_raises(self, closed, bc, spec):
        with pytest.raises(ValueError, match=f"{bc.kind} conditions do not fit {spec.topology}"):
            closed(bc, spec)


class TestFreeDeterminant:
    def test_dirichlet_nu1_mass1(self):
        spec = LatticeSpec.interval(1, h=1.0)
        ld = free_determinant(dirichlet(), spec, MassParam.physical(1.0, spec))
        assert abs(ld.value - 3.0) < 1e-12

    def test_neumann_nu1_mass1(self):
        spec = LatticeSpec.interval(1, h=1.0)
        ld = free_determinant(neumann(), spec, MassParam.physical(1.0, spec))
        assert abs(ld.value - 1.0) < 1e-12

    def test_neumann_massless_zero(self):
        spec = LatticeSpec.interval(5, h=1.0)
        assert free_determinant(neumann(), spec).sign == 0
        ldp = free_determinant(neumann(), spec, prime=True)
        assert ldp.zero_modes_removed == 1 and abs(ldp.value - 5.0) < 1e-12

    def test_twisted_half(self):
        spec = LatticeSpec.circle(4, h=1.0)
        ld = free_determinant(twisted(0.5), spec)
        assert abs(ld.value - 4.0) < 1e-12  # 4 sin^2(pi/2) / h^(2 nu)

    def test_periodic_primed_value(self):
        # Det'_P = 4 L^2 / h^(2 nu + 2) in the paper's bookkeeping
        for nu in (2, 3, 6):
            spec = LatticeSpec.circle(nu, L=2 * math.pi)
            ld = free_determinant(periodic(), spec, prime=True)
            want = 4 * (2 * math.pi) ** 2 / spec.h ** (2 * nu + 2)
            assert abs(ld.value - want) < 1e-9 * want

    def test_product_formula(self):
        # prod lambda_bar from the spectrum equals the determinant (log domain)
        for bc in ALL_FREE_BCS:
            for nu in (1, 2, 7, 40, 200, 500):
                spec = spec_for(bc, nu, h=0.8)
                for mubar in (0.1, 1.0):
                    m = MassParam.physical(mubar, spec)
                    lams = free_eigenvalues(bc, spec, m)
                    log_prod = math.fsum(math.log(x) for x in lams.physical)
                    ld = free_determinant(bc, spec, m)
                    assert ld.sign == 1
                    assert abs(ld.log_abs - log_prod) < 1e-9 * max(1.0, abs(log_prod))

    def test_matches_transfer_determinant(self):
        for bc in ALL_FREE_BCS:
            for nu in (1, 2, 13, 60, 200):
                spec = spec_for(bc, nu, h=0.8)
                for mubar in (0.0, 0.1, 1.0):
                    m = MassParam.physical(mubar, spec)
                    pot = Potential.constant(nu, m.mu ** 2)
                    ld_t = determinant(pot, bc, spec)
                    ld_c = free_determinant(bc, spec, m)
                    assert ld_t.sign == ld_c.sign
                    if ld_c.sign != 0:
                        assert abs(ld_t.log_abs - ld_c.log_abs) <= 1e-10 * max(1.0, abs(ld_c.log_abs))

    def test_robin_free_determinant(self):
        # massless normalised determinant: (ab (nu+1) + a + b) / ((1+a)(1+b))
        rng = random.Random(21)
        for _ in range(20):
            nu = rng.randint(1, 30)
            a, b = rng.uniform(-0.7, 2.0), rng.uniform(-0.7, 2.0)
            spec = LatticeSpec.interval(nu, h=1.0)
            ld = free_determinant(robin(a, b), spec)
            want = (a * b * (nu + 1) + a + b) / ((1 + a) * (1 + b))
            if abs(want) < 1e-12:
                assert ld.sign == 0
            else:
                assert abs(ld.value - want) < 1e-9 * abs(want)


def mp_free_det(bc, nu, mu):
    """Dimensionless free determinant from x0 = 1 + mu^2/2 in 50-digit mpmath."""
    mu2 = mpmath.mpf(mu) ** 2
    x0 = 1 + mu2 / 2

    def u(n):
        t = mpmath.acosh(x0)
        return mpmath.sinh((n + 1) * t) / mpmath.sinh(t)
    if bc.kind == "dirichlet":
        return u(nu)
    if bc.is_circle:
        tn = mpmath.cosh(nu * mpmath.acosh(x0))
        return 2 * (tn - mpmath.cos(2 * mpmath.pi * mpmath.mpf(bc.twist)))
    a, b = mpmath.mpf(bc.robin_alpha), mpmath.mpf(bc.robin_beta)
    return ((a + b + a * b) * u(nu) - (a + b - mu2) * u(nu - 1)) / ((1 + a) * (1 + b))


class TestMassiveAgainstMpmath:
    """Every closed form from gamma0, small and large nu mu, against mpmath.

    mu = 0.75/nu and 3/nu are the continuum-limit masses, where x0 rounds
    mu^2/2 against 1; twisted(0.999) sits next to the periodic cancellation.
    """

    @pytest.mark.parametrize("nu", [1, 7, 1000, 150_000])
    @pytest.mark.parametrize("bc", [dirichlet(), neumann(), robin(0.3, 1.2), robin(1e-5, 2e-5),
                                    periodic(), twisted(0.3), twisted(0.999)],
                             ids=lambda bc: f"{bc.kind}-{bc.alpha}-{bc.twist}")
    def test_log_det(self, nu, bc):
        spec = spec_for(bc, nu)
        for mu in (0.75 / nu, 3.0 / nu, 0.5):
            ld = free_determinant(bc, spec, MassParam.physical(mu, spec))  # h = 1: mubar is mu
            with mpmath.workdps(50):
                want = mp_free_det(bc, nu, mu)
                assert ld.sign == (1 if want > 0 else -1)
                want = float(mpmath.log(abs(want)))
            assert abs(ld.log_abs - want) <= 1e-12 * max(1.0, abs(want))

    @pytest.mark.parametrize("tau", [1e-7, 0.3, 0.5, 0.999, 0.999999, 0.9999999])
    def test_massless_twisted_near_periodic(self, tau):
        # 4 sin^2(pi (tau - 1)) does not cancel as tau -> 1, as 2 - 2 cos would
        spec = LatticeSpec.circle(10, h=1.0)
        ld = free_determinant(twisted(tau), spec)
        with mpmath.workdps(50):
            want = float(mpmath.log(mp_free_det(twisted(tau), 10, 0.0)))
        assert ld.sign == 1
        assert abs(ld.log_abs - want) <= 1e-14 * max(1.0, abs(want))


def log_v(n, g):
    """log V_n(cosh 2g) = log cosh((2n+1)g) - log cosh(g), as free_determinant forms it."""
    return _log_cosh((2.0 * n + 1.0) * g) - _log_cosh(g)


class TestLogDomain:
    """The log-domain forms of U_n and V_n at x = cosh 2g; z > 30 takes the
    exponential branch of _log_sinh and _log_cosh, smaller z the direct one."""

    @pytest.mark.parametrize("z", [1e-3, 1.0, 29.5, 30.5, 700.0, 5000.0])
    def test_log_sinh_and_log_cosh(self, z):
        with mpmath.workdps(50):
            want_sinh = float(mpmath.log(mpmath.sinh(z)))
            want_cosh = float(mpmath.log(mpmath.cosh(z)))
        assert abs(_log_sinh(z) - want_sinh) <= 1e-13 * max(1.0, abs(want_sinh))
        assert abs(_log_cosh(z) - want_cosh) <= 1e-13 * max(1.0, abs(want_cosh))

    @pytest.mark.parametrize("n, g", [(5, 0.01), (40, 0.3), (200, 0.1), (300, 1.0)])
    def test_in_float_range_against_the_recurrence(self, n, g):
        x = math.cosh(2 * g)
        for got, want in ((_log_u(n, g), math.log(cheb_u(n, x))),
                          (log_v(n, g), math.log(cheb_v(n, x)))):
            assert abs(got - want) <= 1e-10 * abs(want)

    @pytest.mark.parametrize("g", [0.2, 1.0, 3.0])
    def test_beyond_float_range_against_mpmath(self, g):
        n = 2000
        with mpmath.workdps(50):
            mg = mpmath.mpf(g)
            want_u = float(mpmath.log(mpmath.sinh(2 * (n + 1) * mg) / mpmath.sinh(2 * mg)))
            want_v = float(mpmath.log(mpmath.cosh((2 * n + 1) * mg) / mpmath.cosh(mg)))
        assert want_u > math.log(sys.float_info.max)  # U_n itself overflows
        assert abs(_log_u(n, g) - want_u) <= 1e-13 * want_u
        assert abs(log_v(n, g) - want_v) <= 1e-13 * want_v


class TestRobinMatrixElement:
    def test_neumann_reduction(self):
        # alpha = beta = 0: P = -lambda U_{nu-1}(1 - lambda/2)
        for nu in (1, 2, 5, 9):
            for lam in (0.3, 1.7, 3.9):
                got = robin_element(nu, 0.0, 0.0, lam)
                want = -lam * cheb_u(nu - 1, 1 - lam / 2)
                assert abs(got - want) < 1e-11 * max(1.0, abs(want))

    def test_nu1_hand_product(self):
        for lam in (0.0, 0.5, 2.0):
            assert abs(robin_element(1, 1.0, 0.0, lam) - (1 - 2 * lam)) < 1e-13

    def test_massless_normalised_determinant(self):
        rng = random.Random(22)
        for _ in range(20):
            nu = rng.randint(1, 12)
            a, b = rng.uniform(-0.5, 1.5), rng.uniform(-0.5, 1.5)
            got = robin_element(nu, a, b, 0.0) / ((1 + a) * (1 + b))
            want = (a * b * (nu + 1) + a + b) / ((1 + a) * (1 + b))
            assert abs(got - want) < 1e-10 * max(1.0, abs(want))

    def test_chebyshev_form(self):
        # (a+b+ab) U_nu - (a+b+lambda-mu^2) U_{nu-1} at x = 1 + (mu^2-lambda)/2
        rng = random.Random(23)
        for _ in range(25):
            nu = rng.randint(1, 15)
            a, b = rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)
            lam = rng.uniform(-2, 5)
            spec = LatticeSpec.interval(nu, h=0.5)
            m = MassParam.physical(rng.uniform(0, 2), spec)
            x = 1 + (m.mu ** 2 - lam) / 2
            want = ((a + b + a * b) * cheb_u(nu, x)
                    - (a + b + lam - m.mu ** 2) * cheb_u(nu - 1, x))
            got = robin_element(nu, a, b, lam, m.mu)
            assert abs(got - want) < 1e-9 * max(1.0, abs(want))

    def test_trace_form_and_binomial_expansion(self):
        # Equivalent massless trace form:
        #   (a+b+ab) T_nu + (ab - (ab+a+b+2) lambda / 2) U_{nu-1},
        # whose two pieces have the explicit binomial expansions
        #   T_nu    = sum_s [nu/(2nu-s)] C(2nu-s, s) (-lambda)^(nu-s)
        #   U_{nu-1} = sum_s C(2nu-s-1, s) (-lambda)^(nu-s-1).
        # The alternating sums cancel catastrophically in float, so the
        # expansion identities are checked in exact rationals.
        from fractions import Fraction

        from gylat import cheb_t
        rng = random.Random(24)
        for nu in range(1, 21):
            lam = Fraction(rng.randint(-12, 35), 8)
            x = 1 - lam / 2
            t_sum = sum(Fraction(nu, 2 * nu - s) * math.comb(2 * nu - s, s)
                        * (-lam) ** (nu - s) for s in range(nu + 1))
            u_sum = sum(math.comb(2 * nu - s - 1, s) * (-lam) ** (nu - s - 1)
                        for s in range(nu))
            assert t_sum == cheb_t(nu, x)
            assert u_sum == cheb_u(nu - 1, x)
            # and the trace form reassembles the direct matrix element
            a, b = rng.uniform(-1, 1), rng.uniform(-1, 1)
            got = robin_element(nu, a, b, lam)
            want = ((a + b + a * b) * float(t_sum)
                    + (a * b - 0.5 * (a * b + a + b + 2) * float(lam)) * float(u_sum))
            assert abs(got - want) < 1e-8 * max(1.0, abs(want), abs(float(t_sum)))


class TestContinuumTargets:
    def test_dirichlet_values(self):
        assert abs(continuum_limit_targets(dirichlet(), 1.0, L=1.0) - math.sinh(1.0)) < 1e-15
        assert continuum_limit_targets(dirichlet(), 0.0, L=2.5) == 2.5

    def test_robin_specialisations(self):
        mubar = 1.3
        got = continuum_limit_targets(robin(0, 0), mubar, 0.0, 0.0, L=2.0)
        assert abs(got - mubar * math.sinh(mubar * 2.0)) < 1e-12
        got = continuum_limit_targets(robin(0, 0), 1.0, 1.0, 2.0, L=1.0)
        want = 3.0 * math.cosh(1.0) + 3.0 * math.sinh(1.0)
        assert abs(got - want) < 1e-12

    def test_circle_targets(self):
        assert continuum_limit_targets(periodic(), 0.0, L=2 * math.pi) == 4 * (2 * math.pi) ** 2
        t = continuum_limit_targets(twisted(0.25), 0.0, L=2 * math.pi)
        assert abs(t - 4 * math.sin(math.pi * 0.25) ** 2) < 1e-15

    def test_massive_circle_targets(self):
        # 2 cosh(mubar L) - 2 cos(2 pi tau), periodic at tau = 1
        L, mubar = 2 * math.pi, 2.0
        for bc in (periodic(), twisted(0.25), twisted(0.9)):
            want = 2 * math.cosh(mubar * L) - 2 * math.cos(2 * math.pi * bc.twist)
            got = continuum_limit_targets(bc, mubar, L=L)
            assert abs(got - want) <= 1e-14 * want

    def test_scaling_exponents(self):
        nu = 50
        assert continuum_scaling_exponent(periodic(), nu, prime=True) == 2 * nu + 2
        assert continuum_scaling_exponent(periodic(), nu) == 2 * nu
        assert continuum_scaling_exponent(twisted(0.3), nu, prime=True) == 2 * nu
        assert continuum_scaling_exponent(neumann(), nu, prime=True) == 2 * nu - 1

    def test_convergence_dirichlet(self):
        # h^(2 nu + 1) Det_D approaches sinh(mubar L)/mubar at order ~2
        L, mubar = 1.0, 1.0
        errs = {}
        for nu in (200, 400):
            spec = LatticeSpec.interval(nu, L=L)
            m = MassParam.physical(mubar, spec)
            ld = free_determinant(dirichlet(), spec, m)
            val = ld.scaled_value((2 * nu + 1) * math.log(spec.h))
            errs[nu] = abs(val - math.sinh(1.0))
        order = math.log(errs[200] / errs[400]) / math.log(2)
        assert 1.9 < order < 2.1

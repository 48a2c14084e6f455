"""Transfer-matrix machinery: propagation, polynomials, determinants."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from gylat import (
    A_PROJ,
    J,
    CharPoly,
    LatticeSpec,
    Mat2,
    Potential,
    Vec2,
    casoratian,
    char_poly,
    cheb_u,
    cheb_v,
    determinant,
    dirichlet,
    eigenfunctions,
    neumann,
    oracle_spectrum,
    periodic,
    periodic_char_fn,
    propagate,
    robin,
    step_matrix,
)
from gylat.spectrum import tridiagonal_matrix
from gylat.transfer import Propagator, _sweep


def random_potential(rng, nu, lo=-1.0, hi=1.0):
    return Potential(tuple(rng.uniform(lo, hi) for _ in range(nu)))


class TestStepMatrix:
    def test_free_zero_energy(self):
        m = step_matrix(0.0, 0.0)
        assert (m.a, m.b, m.c, m.d) == (0.0, 1.0, -1.0, 2.0)

    def test_det_one(self):
        rng = random.Random(1)
        for _ in range(30):
            assert abs(step_matrix(rng.uniform(-2, 2), rng.uniform(-4, 4)).det() - 1) < 1e-14

    def test_symbolic_entries(self):
        lam = CharPoly.lam(exact=True)
        m = step_matrix(1, lam)
        assert m.d.coeffs == [3, -1]  # 3 - lambda

    def test_msplit_relations(self):
        # B~ J B = J, A~ J A = 0, A~ J B = -A, with M = B - lambda A
        rng = random.Random(2)
        for _ in range(10):
            v = rng.randint(-3, 3)
            b = Mat2(0, 1, -1, v + 2)
            bt = b.transpose()
            at = A_PROJ.transpose()
            bjb = bt @ (J @ b)
            aja = at @ (J @ A_PROJ)
            ajb = at @ (J @ b)
            assert (bjb.a, bjb.b, bjb.c, bjb.d) == (J.a, J.b, J.c, J.d)
            assert (aja.a, aja.b, aja.c, aja.d) == (0, 0, 0, 0)
            assert (ajb.a, ajb.b, ajb.c, ajb.d) == (0, 0, 0, -1)
            lam = CharPoly.lam(exact=True)
            m = step_matrix(v, lam)
            recomposed = Mat2(m.a(0), m.b(0), m.c(0), m.d(0))
            assert (recomposed.a, recomposed.b, recomposed.c, recomposed.d) == (b.a, b.b, b.c, b.d)


class TestPropagate:
    def test_free_dirichlet_zero_energy(self):
        # y(j) = j from the (0, 1) seed
        ups = propagate(Potential.zeros(6), 0.0, Vec2(0.0, 1.0))
        for j, u in enumerate(ups):
            assert u == Vec2(float(j), float(j + 1))

    def test_free_dirichlet_is_cheb_u(self):
        lam = 0.7
        x = 1 - lam / 2
        ups = propagate(Potential.zeros(8), lam, Vec2(0.0, 1.0))
        for j, u in enumerate(ups):
            assert abs(u.b - cheb_u(j, x)) < 1e-12

    def test_free_neumann_is_cheb_v(self):
        lam = 1.3
        x = 1 - lam / 2
        ups = propagate(Potential.zeros(8), lam, Vec2(1.0, 1.0))
        for j, u in enumerate(ups):
            # y(j) = V_{j-1}(x); top entry of Upsilon(j) is y(j)
            if j >= 1:
                assert abs(u.a - cheb_v(j - 1, x)) < 1e-12


class TestPropagator:
    def test_causality(self):
        prop = Propagator(Potential.zeros(4), 0.3)
        with pytest.raises(ValueError):
            prop.matrix(1, 3)

    def test_identity_convention(self):
        prop = Propagator(Potential.zeros(4), 0.3)
        for j in range(5):
            m = prop.matrix(j, j)
            assert (m.a, m.b, m.c, m.d) == (1.0, 0.0, 0.0, 1.0)

    def test_semigroup(self):
        rng = random.Random(3)
        pot = random_potential(rng, 7)
        prop = Propagator(pot, 0.9)
        for j, jp, jpp in ((7, 4, 0), (6, 3, 1), (5, 5, 2)):
            lhs = prop.matrix(j, jp) @ prop.matrix(jp, jpp)
            rhs = prop.matrix(j, jpp)
            for a, b in zip((lhs.a, lhs.b, lhs.c, lhs.d), (rhs.a, rhs.b, rhs.c, rhs.d)):
                assert abs(a - b) < 1e-12 * max(1.0, abs(b))

    def test_equation_of_motion_exact(self):
        # K(j, j') = 1 delta_{jj'} + M(j) K(j-1, j'), entrywise exact
        rng = random.Random(4)
        pot = Potential(tuple(rng.randint(-2, 2) for _ in range(6)))
        lam = Fraction(1, 3)
        prop = Propagator(pot, lam)
        for jp in range(0, 6):
            for j in range(jp, 7):
                lhs = prop.matrix(j, jp)
                if j == jp:
                    assert (lhs.a, lhs.b, lhs.c, lhs.d) == (1, 0, 0, 1)
                    continue
                rhs = prop.step(j) @ prop.matrix(j - 1, jp)
                assert (lhs.a, lhs.b, lhs.c, lhs.d) == (rhs.a, rhs.b, rhs.c, rhs.d)

    def test_power_series_decomposition_exact(self):
        # the vertex-ordered expansion reproduces the product term by term
        rng = random.Random(5)
        pot = Potential(tuple(rng.randint(-2, 2) for _ in range(6)))
        prop = Propagator(pot, Fraction(2, 5))
        for jp in range(7):
            for j in range(jp, 7):
                acc = Mat2.identity(Fraction(1))
                for k in range(jp + 1, j + 1):
                    acc = prop.step(k) @ acc
                got = prop.matrix(j, jp)
                assert (got.a, got.b, got.c, got.d) == (acc.a, acc.b, acc.c, acc.d)

    def test_theta_is_inverse_difference_of_delta(self):
        # theta(j, j') as an index array is the cumulative sum of the
        # identity (Delta^{-1} delta), and the translation matrix E (ones on
        # the subdiagonal) satisfies E Theta = Theta - 1
        n = 9
        theta = np.tril(np.ones((n, n)))
        delta = np.eye(n)
        assert np.array_equal(np.cumsum(delta, axis=0), theta)
        E = np.diag(np.ones(n - 1), -1)
        assert np.array_equal(E @ theta, theta - np.eye(n))


class TestCharPoly:
    def test_free_nu2(self):
        p = char_poly(Potential.zeros(2), dirichlet(), exact=True)
        assert p.coeffs == [3, -4, 1]

    def test_robin_nu1(self):
        p = char_poly(Potential.zeros(1), robin(1.0, 0.0))
        assert [round(c, 12) for c in p.coeffs] == [1.0, -2.0]

    def test_nu3_symmetric_function_form(self):
        # P = -l^3 + l^2 (6 + S1) - l (10 + 4 S1 + S2) + 4 + v2 + 3 S1 + 2 S2 + S3
        rng = random.Random(6)
        for _ in range(40):
            v1, v2, v3 = (rng.randint(-5, 5) for _ in range(3))
            s1, s2, s3 = v1 + v2 + v3, v1 * v2 + v1 * v3 + v2 * v3, v1 * v2 * v3
            p = char_poly(Potential((v1, v2, v3)), dirichlet(), exact=True)
            assert p.coeffs == [4 + v2 + 3 * s1 + 2 * s2 + s3,
                                -(10 + 4 * s1 + s2), 6 + s1, -1]

    def test_degree_and_leading(self):
        rng = random.Random(7)
        for nu in (1, 3, 6):
            pot = random_potential(rng, nu)
            for alpha, beta in ((0.0, 0.0), (0.7, -0.3), (2.0, 1.0)):
                p = char_poly(pot, robin(alpha, beta))
                assert p.degree == nu
                assert abs(abs(p.leading()) - abs((1 + alpha) * (1 + beta))) < 1e-9
        p = char_poly(random_potential(rng, 4), dirichlet())
        assert abs(abs(p.leading()) - 1.0) < 1e-12

    def test_degenerate_robin_degree_drop(self):
        p = char_poly(Potential.zeros(3), robin(-1.0, 0.0))
        assert p.degree < 3

    def test_empty_potential_is_constant(self):
        p = char_poly(Potential.zeros(0), dirichlet(), exact=True)
        assert p.degree == 0 and p.coeffs == [1]

    def test_roots_are_oracle_eigenvalues(self):
        from gylat import poly_roots
        rng = random.Random(8)
        for _ in range(10):
            nu = rng.randint(1, 8)
            pot = random_potential(rng, nu)
            bc = robin(rng.uniform(-0.5, 1.0), rng.uniform(-0.5, 1.0))
            got = poly_roots(char_poly(pot, bc)).lambdas
            want = oracle_spectrum(pot, bc).lambdas
            assert max(abs(a - b) for a, b in zip(got, want)) < 1e-9


class TestPeriodicCharFn:
    def test_uniform_zero_mode(self):
        assert abs(periodic_char_fn(Potential.zeros(5), 1.0, 0.0)) < 1e-14

    def test_nu2_half_twist(self):
        assert abs(periodic_char_fn(Potential.zeros(2), 0.5, 2.0)) < 1e-14

    def test_free_closed_form(self):
        # tr C^nu - 2 cos(2 pi tau) = 2 (T_nu(1 - lambda/2) - cos 2 pi tau)
        from gylat import cheb_t
        rng = random.Random(9)
        for _ in range(20):
            nu = rng.randint(1, 9)
            tau = rng.uniform(0.1, 1.0)
            lam = rng.uniform(-1.0, 5.0)
            got = periodic_char_fn(Potential.zeros(nu), tau, lam)
            want = 2 * (cheb_t(nu, 1 - lam / 2) - math.cos(2 * math.pi * tau))
            assert abs(got - want) < 1e-10 * max(1.0, abs(want))


class TestDeterminant:
    def test_dirichlet_free(self):
        spec = LatticeSpec.interval(3, h=1.0)
        ld = determinant(Potential.zeros(3), dirichlet(), spec)
        assert ld.sign == 1
        assert abs(math.exp(ld.log_abs) - 4.0) < 1e-12

    def test_neumann_zero_mode(self):
        for nu in (2, 5, 8):
            spec = LatticeSpec.interval(nu, h=1.0)
            ld = determinant(Potential.zeros(nu), neumann(), spec)
            assert ld.sign == 0

    def test_neumann_primed(self):
        for nu in (2, 4, 7):
            spec = LatticeSpec.interval(nu, h=1.0)
            ld = determinant(Potential.zeros(nu), neumann(), spec, prime=True)
            assert ld.zero_modes_removed == 1
            assert abs(math.exp(ld.log_abs) - nu) < 1e-10 * nu

    def test_physical_scaling(self):
        pot = Potential.zeros(3)
        for h in (0.5, 1.0, 2.0):
            spec = LatticeSpec.interval(3, h=h)
            ld = determinant(pot, dirichlet(), spec)
            assert abs(ld.log_abs - (math.log(4.0) - 6 * math.log(h))) < 1e-12

    def test_negative_eigenvalue_sign(self):
        # a deep single-site well pushes one eigenvalue negative
        pot = Potential.delta(4, 2, -5.0)
        spec = LatticeSpec.interval(4, h=1.0)
        lams = oracle_spectrum(pot, dirichlet()).lambdas
        assert lams[0] < 0
        ld = determinant(pot, dirichlet(), spec)
        assert ld.sign == -1

    @pytest.mark.parametrize("nu", [36, 400, 5000])
    @pytest.mark.parametrize("alpha, beta", [(-1.0, 0.7), (1.3, -1.0), (-1.0, -1.0)])
    def test_degenerate_robin_against_reduced_matrix(self, nu, alpha, beta):
        # alpha = -1 pins y(1) = 0 and beta = -1 pins y(nu) = 0, so the
        # operator is the tridiagonal matrix on the remaining sites
        v = np.random.default_rng(nu).uniform(-0.5, 0.5, nu)
        d = 2.0 + v
        for end, par in ((0, alpha), (-1, beta)):
            if par != -1.0:
                d[end] -= 1.0 / (1.0 + par)
        d = d[(alpha == -1.0):nu - (beta == -1.0)]
        # log|det| from the LU pivots of the reduced matrix; LAPACK's slogdet
        # agrees where the dense matrix is cheap
        pivots = [d[0]]
        for x in d[1:]:
            pivots.append(x - 1.0 / pivots[-1])
        sign = -1 if sum(p < 0 for p in pivots) % 2 else 1
        logdet = math.fsum(math.log(abs(p)) for p in pivots)
        if nu <= 400:
            dense = np.diag(d) - np.eye(len(d), k=1) - np.eye(len(d), k=-1)
            lapack_sign, lapack_logdet = np.linalg.slogdet(dense)
            assert lapack_sign == sign
            assert abs(lapack_logdet - logdet) <= 1e-12 * max(1.0, abs(logdet))
        ld = determinant(Potential(tuple(v.tolist())), robin(alpha, beta), LatticeSpec.interval(nu, h=1.0))
        assert ld.sign == sign
        assert abs(ld.log_abs - logdet) <= 1e-12 * max(1.0, abs(logdet))

    def test_nu_zero(self):
        spec = LatticeSpec.interval(0, h=1.0)
        ld = determinant(Potential.zeros(0), dirichlet(), spec)
        assert ld.sign == 1 and ld.log_abs == 0.0

    def test_topology_mismatch_rejected(self):
        pot = Potential.zeros(3)
        with pytest.raises(ValueError):
            determinant(pot, dirichlet(), LatticeSpec.circle(3, h=1.0))
        with pytest.raises(ValueError):
            determinant(pot, periodic(), LatticeSpec.interval(3, h=1.0))

    def test_prime_requires_oracle(self):
        import gylat.spectrum as sp
        nu = sp.ORACLE_MAX_NU + 1
        pot = Potential.zeros(nu)
        spec = LatticeSpec.interval(nu, h=1.0)
        with pytest.raises(ValueError):
            determinant(pot, neumann(), spec, prime=True)


class TestCasoratian:
    def test_antisymmetry(self):
        v = Vec2(0.3, -1.2)
        assert casoratian(v, v) == 0.0

    def test_metric_entry(self):
        assert casoratian(Vec2(0, 1), Vec2(1, 0)) == -1

    def test_uniform_along_solutions(self):
        rng = random.Random(11)
        pot = random_potential(rng, 12)
        lam = 0.37
        u1 = propagate(pot, lam, Vec2(1.0, 0.3))
        u2 = propagate(pot, lam, Vec2(-0.5, 2.0))
        vals = [casoratian(a, b) for a, b in zip(u1, u2)]
        assert max(abs(v - vals[0]) for v in vals) < 1e-10 * max(1.0, abs(vals[0]))


class TestSymplecticInvariance:
    def test_ktjk_equals_j(self):
        rng = random.Random(12)
        for _ in range(20):
            nu = rng.randint(1, 100)
            pot = random_potential(rng, nu)
            lam = rng.uniform(-4, 4)
            prop = Propagator(pot, lam)
            k = prop.matrix(nu)
            kt = k.transpose()
            res = kt @ (J @ k)
            dev = max(abs(res.a - J.a), abs(res.b - J.b), abs(res.c - J.c), abs(res.d - J.d))
            assert dev <= 1e-10 * (1.0 + k.norm() ** 2)

    def test_christoffel_darboux(self):
        # K~(mu; nu) J K(lambda; nu) - J = (mu - lambda) sum_j K~(mu; j) A K(lambda; j).
        # The expansion of M~(mu) J M(lambda) with the split relations gives
        # J - (lambda - mu) A, hence the (mu - lambda) prefactor after
        # telescoping (the orthogonality conclusion is sign-independent).
        rng = random.Random(13)
        for _ in range(10):
            nu = rng.randint(2, 50)
            pot = random_potential(rng, nu)
            lam, mu = rng.uniform(-3, 3), rng.uniform(-3, 3)
            pl = Propagator(pot, lam)
            pm = Propagator(pot, mu)
            acc = Mat2(0.0, 0.0, 0.0, 0.0)
            for j in range(nu):
                km = pm.matrix(j).transpose()
                term = km @ (A_PROJ @ pl.matrix(j))
                acc = acc + term
            acc = (mu - lam) * acc
            kk = pm.matrix(nu).transpose() @ (J @ pl.matrix(nu))
            lhs = kk - J
            scale = max(1.0, pl.matrix(nu).norm() * pm.matrix(nu).norm())
            for a, b in zip((lhs.a, lhs.b, lhs.c, lhs.d), (acc.a, acc.b, acc.c, acc.d)):
                assert abs(a - b) <= 1e-8 * scale


def ref_eigenfunctions(potential, bc, spectrum):
    """The per-mode loop the batched eigenfunctions replaced: scalar Newton
    on the terminal residual, then one _sweep row per mode."""
    vin, out = bc.in_vector(), bc.out_adjoint()
    a0, b0 = float(vin.a), float(vin.b)
    oa, ob = float(out.a), float(out.b)

    def terminal_residual(lam):
        a, b, da, db = a0, b0, 0.0, 0.0
        for v in potential:
            w = float(v) + 2.0 - lam
            a, b, da, db = b, -a + w * b, db, -da + w * db - b
        return oa * a + ob * b, oa * da + ob * db

    nu = potential.nu
    table = np.empty((nu, nu))
    for n, lam in enumerate(spectrum):
        lam = float(lam)
        for _ in range(3):
            res, slope = terminal_residual(lam)
            if slope == 0.0:
                break
            step = res / slope
            if abs(step) > 1e-6 * max(1.0, abs(lam)):
                break
            lam -= step
            if abs(step) <= 1e-16 * max(1.0, abs(lam)):
                break
        ys = [b0]
        _sweep((v + 2 - lam for v in potential), a0, b0, path=ys)
        table[n, :] = ys[:nu]
    return table


INTERVAL_BCS = [dirichlet(), neumann(), robin(0.3, -0.4)]


class TestEigenfunctions:
    @pytest.mark.parametrize("nu", [1, 2, 3, 50, 300])
    @pytest.mark.parametrize("bc", INTERVAL_BCS, ids=["dirichlet", "neumann", "robin"])
    def test_bit_identical_to_per_mode_loop(self, nu, bc):
        rng = np.random.default_rng(nu)
        for pot in (Potential.zeros(nu), Potential(tuple(rng.uniform(-0.01, 0.01, nu)))):
            spectrum = oracle_spectrum(pot, bc)
            assert np.array_equal(eigenfunctions(pot, bc, spectrum),
                                  ref_eigenfunctions(pot, bc, spectrum))

    @pytest.mark.parametrize("bc", INTERVAL_BCS, ids=["dirichlet", "neumann", "robin"])
    def test_bit_identical_with_order_one_potentials(self, bc):
        rng = np.random.default_rng(20)
        for nu in range(1, 21):
            pot = Potential(tuple(rng.uniform(-1, 1, nu)))
            spectrum = oracle_spectrum(pot, bc)
            assert np.array_equal(eigenfunctions(pot, bc, spectrum),
                                  ref_eigenfunctions(pot, bc, spectrum))

    @pytest.mark.parametrize("nu, nonfinite", [(400, "0 rows"), (1500, r"[1-9]\d* rows")])
    def test_localised_modes_raise(self, nu, nonfinite):
        # uniform(-1, 1) at h = 1 localises most modes within a few dozen
        # sites; forward shooting then misses T y = lambda y, and at nu = 1500
        # some rows overflow
        pot = Potential(tuple(np.random.default_rng(nu).uniform(-1, 1, nu)))
        spectrum = oracle_spectrum(pot, dirichlet())
        with pytest.raises(ArithmeticError,
                           match=rf"^\d+ of {nu} eigenfunction rows .*, {nonfinite} not finite"):
            eigenfunctions(pot, dirichlet(), spectrum)

    def test_weak_disorder_returns_eigenfunctions(self):
        pot = Potential(tuple(np.random.default_rng(400).uniform(-0.01, 0.01, 400)))
        spectrum = oracle_spectrum(pot, dirichlet())
        table = eigenfunctions(pot, dirichlet(), spectrum)
        d, _ = tridiagonal_matrix(pot, dirichlet())
        ty = d * table
        ty[:, 1:] -= table[:, :-1]
        ty[:, :-1] -= table[:, 1:]
        lams = np.array(spectrum.lambdas)[:, None]
        rel = np.max(np.abs(ty - lams * table), axis=1) / np.max(np.abs(table), axis=1)
        assert np.max(rel) <= 1e-8

    def test_dirichlet_free_sines(self):
        nu = 3
        pot = Potential.zeros(nu)
        spectrum = oracle_spectrum(pot, dirichlet())
        table = eigenfunctions(pot, dirichlet(), spectrum)
        for n in range(nu):
            ref = np.array([math.sin((n + 1) * j * math.pi / (nu + 1)) for j in range(1, nu + 1)])
            got = table[n]
            ratio = got[np.argmax(np.abs(ref))] / ref[np.argmax(np.abs(ref))]
            assert np.allclose(got, ratio * ref, atol=1e-9)

    def test_neumann_free_modes(self):
        nu = 3
        pot = Potential.zeros(nu)
        spectrum = oracle_spectrum(pot, neumann())
        table = eigenfunctions(pot, neumann(), spectrum)
        assert np.allclose(table[0], table[0][0], atol=1e-9)  # uniform zero mode
        ref = np.array([math.cos(math.pi * (2 * j - 1) / 6) for j in range(1, nu + 1)])
        got = table[1]
        ratio = got[0] / ref[0]
        assert np.allclose(got, ratio * ref, atol=1e-9)

    def test_orthogonality_and_completeness(self):
        rng = random.Random(14)
        for bc in (dirichlet(), neumann(), robin(0.6, -0.2)):
            nu = 12
            pot = random_potential(rng, nu)
            spectrum = oracle_spectrum(pot, bc)
            table = eigenfunctions(pot, bc, spectrum)
            gram = table @ table.T
            off = gram - np.diag(np.diag(gram))
            assert np.max(np.abs(off)) < 1e-8 * np.max(np.diag(gram))
            # dual (completeness) relation
            norm = table / np.sqrt(np.diag(gram))[:, None]
            assert np.allclose(norm.T @ norm, np.eye(nu), atol=1e-8)

    def test_circle_rejected(self):
        pot = Potential.zeros(3)
        spectrum = oracle_spectrum(pot, periodic())
        with pytest.raises(ValueError):
            eigenfunctions(pot, periodic(), spectrum)

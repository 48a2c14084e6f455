"""Acceptance suite: one test per contract criterion, at stated tolerances.

Run with -s to see one PASS line per criterion.
"""

import math
import random

import numpy as np

from gylat import (
    A_PROJ,
    J,
    LatticeSpec,
    Mat2,
    Potential,
    char_poly,
    cheb_u,
    cosecant_sum,
    determinant,
    dirichlet,
    dirichlet_trace_series,
    eigenfunctions,
    extract_constant,
    free_energy_closed,
    neumann,
    neumann_trace_series,
    oracle_spectrum,
    periodic,
    robin,
    robin_cosec_sum,
    twisted,
    vacuum_energy,
)
from gylat.chebyshev import cheb_matrix_power, cheb_u_pair
from gylat.closedform import MassParam, continuum_limit_targets
from gylat.transfer import Propagator


def _report(num: int, text: str):
    print(f"PASS criterion {num:2d}: {text}")


def random_bc(rng):
    kind = rng.randrange(5)
    if kind == 0:
        return dirichlet()
    if kind == 1:
        return neumann()
    if kind == 2:
        return robin(rng.uniform(-0.8, 1.5), rng.uniform(-0.8, 1.5))
    if kind == 3:
        return periodic()
    return twisted(rng.uniform(0.05, 1.0))


def spec_for(bc, nu, h):
    return LatticeSpec.circle(nu, h=h) if bc.is_circle else LatticeSpec.interval(nu, h=h)


def test_criterion_01_triple_agreement_determinant():
    rng = random.Random(101)
    checked = 0
    worst = 0.0
    while checked < 200:
        nu = rng.randint(1, 12)
        pot = Potential(tuple(rng.uniform(-1, 1) for _ in range(nu)))
        bc = random_bc(rng)
        h = rng.choice([0.5, 1.0, 2.0])
        spec = spec_for(bc, nu, h)
        lambar = [x / (h * h) for x in oracle_spectrum(pot, bc).lambdas]
        if min(abs(x) for x in lambar) < 1e-6:
            continue  # zero-mode neighbourhood: determinants legitimately vanish
        sign_o = -1 if sum(1 for x in lambar if x < 0) % 2 else 1
        log_o = math.fsum(math.log(abs(x)) for x in lambar)
        ld = determinant(pot, bc, spec)
        poly = char_poly(pot, bc)
        p0, lead = poly.coeffs[0], poly.leading()
        sign_p = (-1) ** poly.degree * (1 if p0 * lead > 0 else -1)
        log_p = math.log(abs(p0 / lead)) - 2 * nu * math.log(h)
        assert ld.sign == sign_o == sign_p
        for a, b in ((ld.log_abs, log_o), (log_o, log_p), (ld.log_abs, log_p)):
            rel = abs(math.expm1(a - b))
            worst = max(worst, rel)
            assert rel <= 1e-9
        checked += 1
    _report(1, f"transfer = oracle product = char-poly determinant on 200 cases "
               f"(worst pairwise rel {worst:.2e} <= 1e-9)")


def test_criterion_02_nu3_closed_form_exact():
    rng = random.Random(102)
    for _ in range(100):
        v1, v2, v3 = (rng.randint(-9, 9) for _ in range(3))
        s1 = v1 + v2 + v3
        s2 = v1 * v2 + v1 * v3 + v2 * v3
        s3 = v1 * v2 * v3
        poly = char_poly(Potential((v1, v2, v3)), dirichlet(), exact=True)
        assert poly.coeffs == [4 + v2 + 3 * s1 + 2 * s2 + s3,
                               -(10 + 4 * s1 + s2), 6 + s1, -1]
    _report(2, "nu=3 characteristic polynomial matches the symmetric-function "
               "closed form exactly for 100 random integer potentials")


def test_criterion_03_cosecant_identity():
    worst = 0.0
    for p in range(2, 51):
        err = abs(cosecant_sum(p, 1) - (2.0 / 3.0) * (p * p - 1))
        worst = max(worst, err)
        assert err <= 1e-9
    p = 10 ** 4
    scaled = (math.pi / (2 * p)) ** 2 * cosecant_sum(p, 1)
    assert abs(scaled - math.pi ** 2 / 6) <= 1e-4
    _report(3, f"cosecant sums equal (2/3)(p^2-1) for p <= 50 (worst {worst:.2e}) "
               f"and reach pi^2/6 at p = 10^4")


def test_criterion_04_series_equals_transfer():
    rng = random.Random(104)
    for nu in range(1, 11):
        for _ in range(4):
            pot = Potential(tuple(rng.randint(-3, 3) for _ in range(nu)))
            assert dirichlet_trace_series(pot) == char_poly(pot, dirichlet(), exact=True)
            assert neumann_trace_series(pot) == char_poly(pot, neumann(), exact=True)
    _report(4, "full-order Chebyshev-propagator series reproduce the transfer "
               "polynomials coefficient-exactly (nu <= 10, Dirichlet and Neumann)")


def test_criterion_05_robin_rayleigh_sum():
    rng = random.Random(105)
    checked = 0
    worst = 0.0
    while checked < 100:
        nu = rng.randint(1, 50)
        a = rng.uniform(-0.9, 2.0)
        b = rng.uniform(-0.9, 2.0)
        if abs((1 + nu) * a * b + a + b) < 0.1:
            continue
        lams = oracle_spectrum(Potential.zeros(nu), robin(a, b)).lambdas
        ref = math.fsum(4.0 / x for x in lams)
        got = robin_cosec_sum(nu, a, b)
        rel = abs(got - ref) / max(1.0, abs(ref))
        worst = max(worst, rel)
        assert rel <= 1e-8
        checked += 1
    nu = 10 ** 4
    h = 1.0 / (nu + 1)
    abar, bbar = 1.0, 2.0
    got = h * h * robin_cosec_sum(nu, h * abar, h * bbar) / 4.0
    want = (3 * (abar + bbar) + abar * bbar + 6) / (6 * (abar * bbar + abar + bbar))
    assert abs(got - want) <= 1e-3
    _report(5, f"Robin Rayleigh sum matches the oracle on 100 draws "
               f"(worst rel {worst:.2e}) and its continuum limit at nu = 10^4")


def test_criterion_06_chebyshev_suite():
    for x in range(-4, 5):
        for n in range(31):
            um1, un = cheb_u_pair(n, x)
            unm2 = 2 * x * um1 - un
            assert um1 * um1 - un * unm2 == 1  # Turan
            assert cheb_matrix_power(n, x).det() == 1
    for x in range(-2, 3):
        for m in range(13):
            for n in range(13):
                assert cheb_u(m + n, x) == (cheb_u(m, x) * cheb_u(n, x)
                                            - cheb_u(m - 1, x) * cheb_u(n - 1, x))
                assert cheb_u(m, x) * cheb_u(n, x) == sum(
                    cheb_u(k, x) for k in range(abs(m - n), m + n + 1, 2))
    _report(6, "Turan (n <= 30), composition and parity-stepped product rules "
               "(m, n <= 12), det C^n = 1: all exact")


def test_criterion_07_symplectic_and_christoffel_darboux():
    rng = random.Random(107)
    worst_s = worst_cd = 0.0
    for _ in range(25):
        nu = rng.randint(2, 50)
        pot = Potential(tuple(rng.uniform(-1, 1) for _ in range(nu)))
        lam = rng.uniform(-4, 4)
        mu = rng.uniform(-4, 4)
        pl = Propagator(pot, lam)
        pm = Propagator(pot, mu)
        k = pl.matrix(nu)
        res = k.transpose() @ (J @ k)
        dev = max(abs(res.a - J.a), abs(res.b - J.b), abs(res.c - J.c), abs(res.d - J.d))
        bound = 1e-10 * (1.0 + k.norm() ** 2)
        worst_s = max(worst_s, dev / bound)
        assert dev <= bound
        acc = Mat2(0.0, 0.0, 0.0, 0.0)
        for j in range(nu):
            acc = acc + (pm.matrix(j).transpose() @ (A_PROJ @ pl.matrix(j)))
        acc = (mu - lam) * acc  # sign as derived from the split relations
        lhs = pm.matrix(nu).transpose() @ (J @ pl.matrix(nu)) - J
        scale = max(1.0, pl.matrix(nu).norm() * pm.matrix(nu).norm())
        dev = max(abs(a - b) for a, b in zip(
            (lhs.a, lhs.b, lhs.c, lhs.d), (acc.a, acc.b, acc.c, acc.d)))
        worst_cd = max(worst_cd, dev / scale)
        assert dev <= 1e-8 * scale
    _report(7, f"symplectic invariance (worst {worst_s:.2e} of bound) and "
               f"Christoffel-Darboux to rel {worst_cd:.2e} <= 1e-8, nu <= 50")


def test_criterion_08_delta_potential():
    rng = random.Random(108)
    # determinant closed form, exact to 1e-12, nu <= 100
    for nu in list(range(2, 21)) + [50, 100]:
        v = rng.uniform(-2.0, 2.0)
        spec = LatticeSpec.interval(nu, h=1.0)
        ld = determinant(Potential.delta(nu, 2, v), dirichlet(), spec)
        want = nu + 1 + 2 * v * (nu - 1)
        got = 0.0 if ld.sign == 0 else ld.value
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
    # zero-mode location by root solve in v
    for nu in (5, 20, 100):
        spec = LatticeSpec.interval(nu, h=1.0)

        def det_of(v):
            ld = determinant(Potential.delta(nu, 2, v), dirichlet(), spec)
            return 0.0 if ld.sign == 0 else ld.value

        lo, hi = -2.0, 0.0
        assert det_of(lo) < 0 < det_of(hi)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if det_of(mid) < 0:
                lo = mid
            else:
                hi = mid
        found = 0.5 * (lo + hi)
        assert abs(found + (nu + 1) / (2 * (nu - 1))) <= 1e-10
    # top eigenvalue hits 4 at the opposite sign
    for nu in (5, 20, 100):
        v = (nu + 1) / (2 * (nu - 1))
        lams = oracle_spectrum(Potential.delta(nu, 2, v), dirichlet()).lambdas
        assert abs(lams[-1] - 4.0) <= 1e-9
    _report(8, "delta potential: determinant nu+1+2v(nu-1) to 1e-12 (nu <= 100), "
               "zero mode at -(nu+1)/(2(nu-1)) to 1e-10, top eigenvalue 4 to 1e-9")


def test_criterion_09_vacuum_energies():
    worst = 0.0
    for nu in (10, 137, 1024, 10 ** 4):
        spec = LatticeSpec.interval(nu, L=1.0)
        for bc in (dirichlet(), neumann()):
            a = vacuum_energy(None, bc, spec)
            b = free_energy_closed(bc, spec)
            rel = abs(a - b) / abs(b)
            worst = max(worst, rel)
            assert rel <= 1e-12
        cspec = LatticeSpec.circle(nu, L=2 * math.pi)
        for bc in (periodic(), twisted(0.25), twisted(0.5), twisted(0.75)):
            a = vacuum_energy(None, bc, cspec)
            b = free_energy_closed(bc, cspec)
            rel = abs(a - b) / abs(b)
            worst = max(worst, rel)
            assert rel <= 1e-12
    hs = [1.0 / (20 * 2 ** (k / 4)) for k in range(16)]
    fit = extract_constant(dirichlet(), 1.0, hs)
    assert abs(fit.constant + math.pi / 24) <= 1e-4
    chs = [2 * math.pi / n for n in range(30, 330, 20)]
    fit = extract_constant(periodic(), 2 * math.pi, chs)
    assert abs(fit.constant + 1.0 / 12.0) <= 1e-4
    for tau in (0.25, 0.5, 0.75):
        fit = extract_constant(twisted(tau), 2 * math.pi, chs)
        assert abs(fit.constant + (1.0 / 6.0 - tau + tau * tau)) <= 1e-4
    _report(9, f"closed forms = mode sums to rel {worst:.2e} <= 1e-12 up to "
               f"nu = 10^4; extracted constants hit -pi/24, -1/12, "
               f"-(1/6-tau+tau^2) within 1e-4")


def test_criterion_10_continuum_determinants():
    # Dirichlet, mubar = 1, L = 1
    vals = {}
    for nu in (1250, 5000, 10 ** 4):
        spec = LatticeSpec.interval(nu, L=1.0)
        m = MassParam.physical(1.0, spec)
        pot = Potential.constant(nu, m.mu * m.mu)
        ld = determinant(pot, dirichlet(), spec)
        vals[nu] = ld.scaled_value((2 * nu + 1) * math.log(spec.h))
    target = math.sinh(1.0)
    rel = abs(vals[10 ** 4] - target) / target
    assert rel <= 1e-3
    # convergence order measured where discretization dominates rounding:
    # beyond nu ~ 5000 the h^2 error (~2e-9) sinks under the accumulated
    # float64 noise of a 10^4-step recurrence (~2e-9)
    order = math.log(abs(vals[1250] - target) / abs(vals[5000] - target)) / math.log(4)
    assert order >= 1.9
    # Robin (abar, bbar, mubar) = (1, 2, 1), L = 1
    nu = 10 ** 4
    spec = LatticeSpec.interval(nu, L=1.0)
    m = MassParam.physical(1.0, spec)
    pot = Potential.constant(nu, m.mu * m.mu)
    bc = robin(1.0 * spec.h, 2.0 * spec.h)
    ld = determinant(pot, bc, spec)
    got = ld.scaled_value((2 * nu - 1) * math.log(spec.h))
    want = continuum_limit_targets(robin(0, 0), 1.0, 1.0, 2.0, L=1.0)
    rel_r = abs(got - want) / abs(want)
    assert rel_r <= 1e-2
    _report(10, f"h^(2nu+1) Det_D -> sinh(1) (rel {rel:.2e}, order {order:.2f}) "
                f"and h^(2nu-1) Det_R -> continuum Robin value (rel {rel_r:.2e})")


def test_criterion_11_orthogonality_completeness():
    rng = random.Random(111)
    worst = 0.0
    for bc_maker in (lambda: dirichlet(), lambda: neumann(),
                     lambda: robin(rng.uniform(-0.5, 1.5), rng.uniform(-0.5, 1.5))):
        for _ in range(6):
            nu = rng.randint(2, 30)
            pot = Potential(tuple(rng.uniform(-1, 1) for _ in range(nu)))
            bc = bc_maker()
            spectrum = oracle_spectrum(pot, bc)
            table = eigenfunctions(pot, bc, spectrum)
            norms = np.sqrt((table * table).sum(axis=1))
            unit = table / norms[:, None]
            gram = unit @ unit.T
            dev_orth = np.max(np.abs(gram - np.eye(nu)))
            dev_comp = np.max(np.abs(unit.T @ unit - np.eye(nu)))
            worst = max(worst, dev_orth, dev_comp)
            assert dev_orth <= 1e-8 and dev_comp <= 1e-8
    _report(11, f"eigenfunction orthogonality and completeness to {worst:.2e} "
                f"<= 1e-8 (nu <= 30, all interval conditions)")


def test_criterion_12_boundary_condition_coherence():
    rng = random.Random(112)
    worst = 0.0
    for _ in range(20):
        nu = rng.randint(1, 10)
        pot = Potential(tuple(rng.uniform(-1, 1) for _ in range(nu)))
        a = oracle_spectrum(pot, neumann()).lambdas
        b = oracle_spectrum(pot, robin(0.0, 0.0)).lambdas
        dev = max(abs(x - y) for x, y in zip(a, b))
        worst = max(worst, dev)
        assert dev <= 1e-12
        c = oracle_spectrum(pot, periodic()).lambdas
        d = oracle_spectrum(pot, twisted(1.0)).lambdas
        dev = max(abs(x - y) for x, y in zip(c, d))
        worst = max(worst, dev)
        assert dev <= 1e-12
        pn = char_poly(pot, neumann(), exact=True)
        pr = char_poly(pot, robin(0.0, 0.0), exact=True)
        assert pn.coeffs == pr.coeffs
    _report(12, f"Robin(0,0) = Neumann and Twisted(1) = Periodic, spectra equal "
                f"to {worst:.2e} <= 1e-12 (and identical exact polynomials)")

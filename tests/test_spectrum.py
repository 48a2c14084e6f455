"""Eigenvalue oracle, polynomial roots, Euler-Rayleigh sums.

The oracle's guarded Sturm counts, the bisection built on them and the
doubled real form of the cyclic solve are kept below as references: the
interval oracle must reproduce them exactly (``==``) and the cyclic one to
rounding.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gylat import (
    CharPoly,
    LatticeSpec,
    Potential,
    char_poly,
    cosecant_sum,
    determinant,
    dirichlet,
    inverse_power_sums,
    neumann,
    oracle_spectrum,
    periodic,
    poly_roots,
    robin,
    robin_cosec_sum,
    twisted,
)
from gylat import spectrum
from gylat.spectrum import _sturm_counts, cyclic_matrix, tridiagonal_matrix


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


class TestOperatorMatrix:
    def test_dirichlet_entries(self):
        d, e = tridiagonal_matrix(Potential((0.5, -0.2, 0.1)), dirichlet())
        assert np.allclose(d, [2.5, 1.8, 2.1])
        assert np.all(e == -1)

    def test_neumann_end_entries(self):
        d, _ = tridiagonal_matrix(Potential((0.5, -0.2, 0.1)), neumann())
        assert np.allclose(d, [1.5, 1.8, 1.1])

    def test_robin_end_entries_match_char_poly_roots(self):
        # the end diagonals 2 + v - 1/(1+alpha) come from eliminating y(0);
        # validated wholesale against the transfer-matrix route
        rng = random.Random(31)
        for _ in range(25):
            nu = rng.randint(1, 9)
            pot = Potential(tuple(rng.uniform(-1, 1) for _ in range(nu)))
            a, b = rng.uniform(-0.8, 1.5), rng.uniform(-0.8, 1.5)
            got = oracle_spectrum(pot, robin(a, b)).lambdas
            want = poly_roots(char_poly(pot, robin(a, b), exact=True)).lambdas
            assert max(abs(x - y) for x, y in zip(got, want)) < 1e-9

    def test_degenerate_robin_rejected(self):
        with pytest.raises(ValueError):
            tridiagonal_matrix(Potential.zeros(3), robin(-1.0, 0.0))

    def test_cyclic_hermitian(self):
        H = cyclic_matrix(Potential((0.1, 0.2, 0.3, 0.4)), twisted(0.3))
        assert np.allclose(H, H.conj().T)


class TestOracle:
    def test_dirichlet_nu2(self):
        lams = oracle_spectrum(Potential.zeros(2), dirichlet()).lambdas
        assert abs(lams[0] - 1) < 1e-12 and abs(lams[1] - 3) < 1e-12

    def test_robin_example(self):
        lams = oracle_spectrum(Potential.zeros(1), robin(1.0, 0.0)).lambdas
        assert abs(lams[0] - 0.5) < 1e-12

    def test_neumann_2x2_closed_form(self):
        a, b = 0.37, -0.21
        lams = oracle_spectrum(Potential((a, b)), neumann()).lambdas
        m = np.array([[1 + a, -1], [-1, 1 + b]])
        want = np.linalg.eigvalsh(m)
        assert max(abs(x - y) for x, y in zip(lams, want)) < 1e-11

    def test_matches_numpy_tridiagonal(self):
        rng = random.Random(32)
        for _ in range(20):
            nu = rng.randint(1, 40)
            pot = Potential(tuple(rng.uniform(-2, 2) for _ in range(nu)))
            bc = robin(rng.uniform(-0.5, 1.0), rng.uniform(-0.5, 1.0))
            d, e = tridiagonal_matrix(pot, bc)
            dense = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
            want = np.linalg.eigvalsh(dense)
            got = oracle_spectrum(pot, bc).lambdas
            assert max(abs(x - y) for x, y in zip(got, want)) < 1e-11

    def test_multiplicities_preserved(self):
        lams = oracle_spectrum(Potential.zeros(4), periodic()).lambdas
        assert abs(lams[1] - lams[2]) < 1e-12  # degenerate pair at 2

    def test_interlacing_under_site_increase(self):
        # raising any v_j weakly raises every eigenvalue (rank-one update)
        rng = random.Random(33)
        for _ in range(15):
            nu = rng.randint(2, 10)
            vals = [rng.uniform(-1, 1) for _ in range(nu)]
            bc = random_bc(rng)
            before = oracle_spectrum(Potential(tuple(vals)), bc).lambdas
            j = rng.randrange(nu)
            vals[j] += rng.uniform(0.0, 1.0)
            after = oracle_spectrum(Potential(tuple(vals)), bc).lambdas
            assert all(b >= a - 1e-10 for a, b in zip(before, after))


class TestPolyRoots:
    def test_factorable(self):
        assert max(abs(a - b) for a, b in zip(
            poly_roots(CharPoly([3, -4, 1])).lambdas, (1.0, 3.0))) < 1e-12

    def test_quadratic_formula(self):
        got = poly_roots(CharPoly([1, -5, 2])).lambdas
        want = ((5 - math.sqrt(17)) / 4, (5 + math.sqrt(17)) / 4)
        assert max(abs(a - b) for a, b in zip(got, want)) < 1e-12

    def test_linear(self):
        assert abs(poly_roots(CharPoly([1, -2])).lambdas[0] - 0.5) < 1e-14

    def test_double_root(self):
        p = CharPoly([1, -2, 1]) * CharPoly([-3, 1])  # (x-1)^2 (x-3)
        got = poly_roots(p).lambdas
        assert len(got) == 3
        assert abs(got[0] - 1) < 1e-10 and abs(got[1] - 1) < 1e-10 and abs(got[2] - 3) < 1e-10

    def test_complex_roots_raise(self):
        with pytest.raises(ArithmeticError):
            poly_roots(CharPoly([1, 0, 1]))  # x^2 + 1

    @pytest.mark.parametrize("nu", [16, 24, 40])
    @pytest.mark.parametrize("bc", [dirichlet(), neumann(), robin(0.5, 0.25), periodic()],
                             ids=lambda bc: bc.kind)
    @pytest.mark.parametrize("potential", ["free", "integer"])
    def test_oracle_at_large_degree(self, nu, bc, potential):
        # the monomial coefficients grow like 4^nu; signs decided in float
        # Horner gave wrong roots from nu = 16 (periodic has double roots)
        values = [0] * nu if potential == "free" else random.Random(nu).choices(range(-3, 4), k=nu)
        pot = Potential(tuple(values))
        got = poly_roots(char_poly(pot, bc, exact=True)).lambdas
        want = oracle_spectrum(pot, bc).lambdas
        assert len(got) == nu
        assert max(abs(a - b) / max(1.0, abs(b)) for a, b in zip(got, want)) <= 1e-12

    @settings(max_examples=50)
    @given(values=st.integers(1, 24).flatmap(lambda nu: st.lists(
               st.one_of(st.integers(-4, 4), st.integers(-64, 64).map(lambda k: k / 16)),
               min_size=nu, max_size=nu)),
           bc=st.sampled_from([dirichlet(), neumann(), robin(0.5, 0.25), robin(-0.5, 2.0),
                               periodic(), twisted(0.5)]),
           centre=st.integers(-8, 8), width=st.integers(1, 16))
    def test_oracle_property(self, values, bc, centre, width):
        pot = Potential(tuple(values))
        p = char_poly(pot, bc, exact=True)
        got = poly_roots(p).lambdas
        want = oracle_spectrum(pot, bc).lambdas
        assert len(got) == len(values)
        assert max(abs(a - b) / max(1.0, abs(b)) for a, b in zip(got, want)) <= 1e-12
        # times (x - c)^2 + w^2, which has the complex roots c +- i w
        c, w = Fraction(centre, 4), Fraction(width, 16)
        with pytest.raises(ArithmeticError):
            poly_roots(p * CharPoly([c * c + w * w, -2 * c, 1]))

    def test_oracle_equivalence_200_cases(self):
        # exact-coefficient polynomials agree with the oracle to 1e-9; the
        # float backend is limited to ~2e-9 at nu = 12 by monomial-basis
        # coefficient rounding (top-of-spectrum root conditioning), checked
        # at its own level
        rng = random.Random(34)
        count = 0
        while count < 200:
            nu = rng.randint(1, 12)
            pot = Potential(tuple(rng.uniform(-1, 1) for _ in range(nu)))
            bc = random_bc(rng)
            want = oracle_spectrum(pot, bc).lambdas
            got = poly_roots(char_poly(pot, bc, exact=True)).lambdas
            assert len(got) == nu
            assert max(abs(a - b) for a, b in zip(got, want)) < 1e-9
            got_f = poly_roots(char_poly(pot, bc)).lambdas
            assert max(abs(a - b) for a, b in zip(got_f, want)) < 1e-8
            count += 1


class TestInversePowerSums:
    def test_dirichlet_free_nu3(self):
        p = char_poly(Potential.zeros(3), dirichlet(), exact=True)
        sums = inverse_power_sums(p, 1)
        assert abs(sums[0] - 2.5) < 1e-12

    def test_robin_example(self):
        sums = inverse_power_sums(CharPoly([1, -5, 2]), 2)
        assert abs(sums[0] - 5.0) < 1e-12
        # roots r1 r2 = 1/2, r1 + r2 = 5/2 -> sum 1/r^2 = 25/4 - 2*2 = 21
        assert abs(sums[1] - 21.0) < 1e-10

    def test_delta_site2_nu3(self):
        pot = Potential.delta(3, 2, 1)
        p = char_poly(pot, dirichlet(), exact=True)
        sums = inverse_power_sums(p, 1)
        assert abs(sums[0] - 1.75) < 1e-12

    def test_matches_spectrum(self):
        rng = random.Random(35)
        for _ in range(15):
            nu = rng.randint(1, 9)
            pot = Potential(tuple(rng.uniform(0.1, 1.0) for _ in range(nu)))
            bc = dirichlet()
            p = char_poly(pot, bc)
            lams = oracle_spectrum(pot, bc).lambdas
            sums = inverse_power_sums(p, 4)
            for m in range(1, 5):
                ref = math.fsum(x ** -m for x in lams)
                assert abs(sums[m - 1] - ref) < 1e-8 * max(1.0, abs(ref))

    def test_exact_backend_at_large_nu(self):
        # the middle coefficients dwarf p(0) = nu + 1, which a relative float
        # zero test took for a zero mode; free Dirichlet sums are integers
        p = char_poly(Potential.zeros(60), dirichlet(), exact=True)
        assert inverse_power_sums(p, 4) == [620, 153946, 54557396, 20304670098]

    @settings(max_examples=300)
    @given(st.lists(st.one_of(st.integers(-9, 9), st.integers(-2 ** 70, 2 ** 70),
                              st.fractions(max_denominator=40),
                              st.floats(-3, 3).map(Fraction).map(lambda f: f / 2 ** 900)),
                    min_size=1, max_size=6),
           st.integers(1, 4))
    def test_integer_newton_sums_round_as_fractions(self, coeffs, kmax):
        """The integer recurrence gives float(S_m) of the Fraction identities,
        bit for bit, zero sums (+0.0) and a negative c_0 included."""
        coeffs = [int(c) if c.denominator == 1 else c for c in map(Fraction, coeffs)]
        coeffs[0] = coeffs[0] or Fraction(-3, 7)
        coeffs += [0, -coeffs[0]] if len(coeffs) == 1 else []  # S_1 = 0 when c_1 = 0

        def outcome(fn):
            try:
                return [repr(float(s)) for s in fn()]
            except OverflowError:
                return "overflow"

        want = outcome(lambda: spectrum._newton_sums([Fraction(c) for c in coeffs], kmax)[0])
        assert outcome(lambda: spectrum._exact_newton_sums(coeffs, kmax)) == want

    def test_zero_mode_rejected(self):
        p = char_poly(Potential.zeros(4), neumann(), exact=True)
        with pytest.raises(ZeroDivisionError):
            inverse_power_sums(p, 2)


class TestCosecantSums:
    def test_closed_form(self):
        for p in range(2, 51):
            assert abs(cosecant_sum(p, 1) - (2.0 / 3.0) * (p * p - 1)) < 1e-9 * p * p

    def test_p2(self):
        assert abs(cosecant_sum(2, 1) - 2.0) < 1e-14

    def test_euler_limit(self):
        p = 10 ** 4
        scaled = (math.pi / (2 * p)) ** 2 * cosecant_sum(p, 1)
        assert abs(scaled - math.pi ** 2 / 6) < 1e-4

    def test_fourth_power_positive(self):
        s2 = cosecant_sum(10, 2)
        direct = math.fsum(math.sin(math.pi * n / 20) ** -4 for n in range(1, 10))
        assert abs(s2 - direct) < 1e-12 * direct


class TestRobinCosecSum:
    def test_example_nu1(self):
        assert abs(robin_cosec_sum(1, 1.0, 0.0) - 8.0) < 1e-12

    def test_example_nu2(self):
        assert abs(robin_cosec_sum(2, 1.0, 0.0) - 20.0) < 1e-12

    def test_zero_mode_locus(self):
        with pytest.raises(ZeroDivisionError):
            robin_cosec_sum(5, 0.0, 0.0)  # Neumann zero mode

    def test_against_oracle(self):
        rng = random.Random(36)
        for _ in range(30):
            nu = rng.randint(1, 50)
            while True:
                a, b = rng.uniform(-0.8, 2.0), rng.uniform(-0.8, 2.0)
                if abs((1 + nu) * a * b + a + b) >= 0.1:
                    break
            lams = oracle_spectrum(Potential.zeros(nu), robin(a, b)).lambdas
            ref = math.fsum(4.0 / x for x in lams)
            got = robin_cosec_sum(nu, a, b)
            assert abs(got - ref) <= 1e-8 * max(1.0, abs(ref))

    def test_continuum_limit(self):
        # h^2 sum(4/lambda)/4 -> (3(a+b) + ab + 6) / (6(ab + a + b)) at L = 1
        nu = 10 ** 4
        h = 1.0 / (nu + 1)
        abar, bbar = 1.0, 2.0
        got = h * h * robin_cosec_sum(nu, h * abar, h * bbar) / 4.0
        want = (3 * (abar + bbar) + abar * bbar + 6) / (6 * (abar * bbar + abar + bbar))
        assert abs(got - want) < 1e-3


class TestDeterminantVsSpectrum:
    def test_log_domain_agreement(self):
        rng = random.Random(37)
        for _ in range(25):
            nu = rng.randint(1, 10)
            pot = Potential(tuple(rng.uniform(-1, 1) for _ in range(nu)))
            bc = random_bc(rng)
            h = rng.choice([0.5, 1.0, 2.0])
            spec = (LatticeSpec.circle(nu, h=h) if bc.is_circle
                    else LatticeSpec.interval(nu, h=h))
            lambar = [x / h ** 2 for x in oracle_spectrum(pot, bc).lambdas]
            if min(abs(x) for x in lambar) < 1e-8:
                continue
            ld = determinant(pot, bc, spec)
            ref = math.fsum(math.log(abs(x)) for x in lambar)
            assert abs(ld.log_abs - ref) < 1e-9 * max(1.0, abs(ref))


# -- the oracle against the guarded counts and the doubled form it replaced --

def ref_pivmin(d):
    return 1e-290 * max(1.0, abs(float(np.min(d)) - 2.0), abs(float(np.max(d)) + 2.0))


def ref_sturm_counts(d, xs, pivmin):
    """Eigenvalues below each shift; pivots smaller than pivmin become -pivmin."""
    q = d[0] - xs
    q = np.where(np.abs(q) < pivmin, -pivmin, q)
    count = (q < 0).astype(np.int64)
    for k in range(1, len(d)):
        q = d[k] - xs - 1.0 / q
        q = np.where(np.abs(q) < pivmin, -pivmin, q)
        count += q < 0
    return count


def ref_bisection(d):
    n = len(d)
    lo = float(np.min(d)) - 2.0
    hi = float(np.max(d)) + 2.0
    los, his = np.full(n, lo), np.full(n, hi)
    targets = np.arange(1, n + 1)
    for _ in range(64):
        mids = 0.5 * (los + his)
        below = ref_sturm_counts(d, mids, ref_pivmin(d)) >= targets
        his = np.where(below, mids, his)
        los = np.where(below, los, mids)
        if np.max(his - los) < 1e-14:
            break
    return 0.5 * (los + his)


def ref_doubled_cyclic(H):
    """Eigenvalues of Hermitian H from [[Re H, -Im H], [Im H, Re H]], halved."""
    A, B = H.real, H.imag
    return np.sort(np.linalg.eigvalsh(np.block([[A, -B], [B, A]])))[::2]


ORDINARY = st.floats(-3.0, 5.0)
TINY = st.sampled_from([0.0, 5e-324, -5e-324, -3e-320, 1e-310, 2.2250738585072014e-308,
                        1e-300, -1e-300])


@st.composite
def diagonals_and_shifts(draw):
    """Diagonals of ordinary, exactly-2 and subnormal entries, with shifts
    that hit entries, the Gershgorin ends, 2 and dyadic bisection points.

    The last entry stays away from zero: a tiny nonzero last pivot has no
    successor to pair with.  It needs d_nu and the shift both tiny, which no
    assembled operator produces (2 + v_j is 0 or above 1e-16 in size, and
    bisection midpoints are dyadic points of the Gershgorin interval).
    There the unguarded count follows the pivot's sign, where the guard
    always counted it.
    """
    head = draw(st.lists(st.one_of(ORDINARY, TINY, st.just(2.0)), max_size=11))
    last = st.one_of(st.floats(1e-3, 5.0), st.floats(-3.0, -1e-3), st.just(2.0))
    d = np.array(head + [draw(last)])
    lo, hi = float(np.min(d)) - 2.0, float(np.max(d)) + 2.0
    xs = draw(st.lists(st.one_of(st.floats(lo, hi), TINY), max_size=6))
    dyadic = [lo + (hi - lo) * k / 64 for k in range(65)]
    return d, np.array(xs + list(d) + dyadic + [2.0])


class TestSturmCounts:
    @settings(max_examples=300)
    @given(case=diagonals_and_shifts())
    def test_equal_to_guarded_counts(self, case):
        d, xs = case
        with np.errstate(divide="ignore", over="ignore"):
            want = ref_sturm_counts(d, xs, ref_pivmin(d))
        assert np.array_equal(_sturm_counts(d, xs), want)

    @pytest.mark.parametrize("nu", [1, 63, 64, 65, 129])
    def test_block_edges_and_repeated_shifts(self, nu):
        # pivots are counted in blocks of 64 sites; a shift may repeat
        rng = np.random.default_rng(nu)
        xs = rng.uniform(-1.0, 5.0, 40)
        xs = np.concatenate([xs, xs[:10], [2.0, 2.0, 0.0, -0.0, 0.0]])
        for d in (2.0 + rng.uniform(-1.0, 1.0, nu), np.full(nu, 2.0)):
            xs_d = np.concatenate([xs, np.repeat(d[:3], 3)])
            with np.errstate(divide="ignore", over="ignore"):
                want = ref_sturm_counts(d, xs_d, ref_pivmin(d))
            assert np.array_equal(_sturm_counts(d, xs_d), want)

    @pytest.mark.parametrize("nu", [1, 3, 5, 41])
    def test_exact_zero_last_pivot_counts_as_below(self, nu):
        # free Dirichlet, odd nu, at x = 2: every odd pivot is exactly zero,
        # the last one included, and the eigenvalue at 2 counts as below
        d = np.full(nu, 2.0)
        xs = np.array([2.0])
        want = ref_sturm_counts(d, xs, ref_pivmin(d))[0]
        assert _sturm_counts(d, xs)[0] == want == (nu + 1) // 2


def oracle_potentials(nu):
    """Free, random O(1) and deep-well (down to -50) potentials."""
    rng = np.random.default_rng(nu)
    return [Potential.zeros(nu), Potential(tuple(rng.uniform(-1, 1, nu))),
            Potential(tuple(rng.uniform(-50, 5, nu)))]


class TestOracleAgainstReferences:
    @pytest.mark.parametrize("nu", [1, 2, 50, 64, 65, 500, 1000])
    @pytest.mark.parametrize("bc", [dirichlet(), neumann(), robin(0.3, -0.4)],
                             ids=["dirichlet", "neumann", "robin"])
    def test_interval_bit_identical(self, nu, bc):
        for pot in oracle_potentials(nu):
            d, _ = tridiagonal_matrix(pot, bc)
            assert oracle_spectrum(pot, bc).lambdas == tuple(ref_bisection(d))

    def test_bisection_stops_when_brackets_stop_moving(self, monkeypatch):
        # brackets around |lambda| >= 64 end one ulp (1.4e-14) wide, above the
        # absolute 1e-14 stop, so only the no-progress test ends the loop early
        pot = Potential(tuple(np.random.default_rng(200).uniform(60.0, 70.0, 200)))
        d, _ = tridiagonal_matrix(pot, dirichlet())
        calls = []

        def counting(d, xs):
            calls.append(1)
            return _sturm_counts(d, xs)
        monkeypatch.setattr(spectrum, "_sturm_counts", counting)
        got = oracle_spectrum(pot, dirichlet()).lambdas
        assert len(calls) < 64
        assert got == tuple(ref_bisection(d))

    @pytest.mark.parametrize("nu", [1, 2, 3, 200])
    @pytest.mark.parametrize("tau", [1.0, 0.5, 0.3])
    def test_cyclic_matches_doubled_form(self, nu, tau):
        bc = periodic() if tau == 1.0 else twisted(tau)
        for pot in oracle_potentials(nu):
            got = np.array(oracle_spectrum(pot, bc).lambdas)
            want = ref_doubled_cyclic(cyclic_matrix(pot, bc))
            assert len(got) == nu
            assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
        # free spectrum 2 - 2 cos(2 pi (k + tau) / nu), periodic pairs kept
        free = np.sort(2.0 - 2.0 * np.cos(2.0 * np.pi * (np.arange(nu) + tau) / nu))
        got = np.array(oracle_spectrum(Potential.zeros(nu), bc).lambdas)
        assert np.all(np.abs(got - free) <= 1e-12)

    @pytest.mark.parametrize("nu", [1, 2, 3, 7])
    def test_cyclic_matrix_real_at_exact_twists(self, nu):
        pot = Potential(tuple(0.1 * j for j in range(nu)))
        for bc in (periodic(), twisted(1.0), twisted(0.5)):
            assert not cyclic_matrix(pot, bc).imag.any()
        assert cyclic_matrix(pot, twisted(0.3)).imag.any() == (nu > 1)

"""The sweep kernels against the references they replaced.

The exact, polynomial and path routes (propagate, Propagator, char_poly and
the Chebyshev recurrences) run on ``transfer._sweep``.  The references below
multiply ``step_matrix`` factors site by site, the textbook form of the
transfer-matrix product, and the kernel must reproduce them exactly (``==``)
on floats, ints, Fractions and CharPoly entries.  The float P(0) of
``determinant`` comes from the blocked difference-form sweep, which rounds
differently by design: it is checked against exact integer arithmetic, the
sequential difference-form loop, mpmath, and LAPACK at user sizes.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gylat import (
    CharPoly,
    LatticeSpec,
    Mat2,
    Potential,
    Vec2,
    char_poly,
    determinant,
    dirichlet,
    neumann,
    periodic,
    propagate,
    robin,
    step_matrix,
    twisted,
)
from gylat import chebyshev as cheb
from gylat.core import _exactify
from gylat.spectrum import cyclic_matrix, tridiagonal_matrix
from gylat.transfer import (
    Propagator,
    _blocked_difference_sweep,
    _blocked_jet_sweep,
    _taylor_at_zero,
    _twist_shift,
)

SETTINGS = settings(max_examples=40)

small_ints = st.lists(st.integers(-3, 3), max_size=8)
small_floats = st.lists(st.floats(-2.0, 2.0), max_size=10)
fractions = st.fractions(min_value=-3, max_value=3, max_denominator=7)
robin_params = st.sampled_from([0.0, 0.5, -0.7, 1.0, 2.0, -1.0])
boundary_conditions = st.one_of(
    st.just(dirichlet()),
    st.just(neumann()),
    st.builds(robin, robin_params, robin_params),
    st.just(periodic()),
    st.builds(twisted, st.sampled_from([0.25, 0.3, 0.5, 0.75, 1.0])),
)


# -- references: site-by-site step-matrix products ---------------------------

def ref_product(values, lam, one):
    """K = M(nu) ... M(1) as a Mat2."""
    acc = Mat2.identity(one)
    for v in values:
        acc = step_matrix(v, lam) @ acc
    return acc


def ref_propagate(potential, lam, v0):
    out = [v0]
    cur = v0
    for v in potential:
        cur = step_matrix(v, lam) @ cur
        out.append(cur)
    return out


def ref_char_poly(potential, bc, exact=False):
    backend = "exact" if exact else "float"
    lam = CharPoly.lam(exact=exact)
    vals = [_exactify(v) for v in potential] if exact else list(potential)
    if bc.is_interval:
        vin, out = bc.in_vector(), bc.out_adjoint()
        if exact:
            vin = Vec2(_exactify(vin.a), _exactify(vin.b))
            out = Vec2(_exactify(out.a), _exactify(out.b))
        cur = Vec2(CharPoly([vin.a], backend=backend), CharPoly([vin.b], backend=backend))
        for v in vals:
            cur = step_matrix(v, lam) @ cur
        return out.a * cur.a + out.b * cur.b
    acc = ref_product(vals, lam, CharPoly([1], backend=backend))
    return acc.trace() - _twist_shift(bc.twist, exact)


def exact_interval_p0(potential, bc) -> Fraction:
    """P(0) = out_adjoint . (y(nu), y(nu+1)) in exact integer arithmetic.

    The float weights w_j = 2 + v_j are lifted exactly to W_j / 2^E, and the
    seeds to integers over D; Y(j) = D 2^(E j) y(j) then obeys
    Y(j+1) = W_j Y(j) - 2^(2E) Y(j-1) in Python integers.
    """
    ws = [Fraction(float(v)) + 2 for v in potential]
    E = max((w.denominator.bit_length() - 1 for w in ws), default=0)
    W = [w.numerator << (E - w.denominator.bit_length() + 1) for w in ws]
    vin, out = bc.in_vector(), bc.out_adjoint()
    y0, y1 = Fraction(float(vin.a)), Fraction(float(vin.b))
    D = math.lcm(y0.denominator, y1.denominator)
    prev, cur = int(y0 * D), int(y1 * D) << E
    unit = 1 << (2 * E)
    for w in W:
        prev, cur = cur, w * cur - unit * prev
    nu = len(W)
    y_nu = Fraction(prev, D << (E * nu))
    y_next = Fraction(cur, D << (E * (nu + 1)))
    return Fraction(float(out.a)) * y_nu + Fraction(float(out.b)) * y_next


def p0_error(got, want: Fraction) -> float:
    """|c_0 - P(0) 2^-e| over the zero-test yardstick, ``got`` = (cs, refs, e)."""
    cs, refs, e = got
    with mpmath.workdps(50):
        scaled = mpmath.ldexp(mpmath.mpf(want.numerator) / want.denominator, -e)
        return float(abs(cs[0] - scaled)) / refs[0]


def ref_difference_sweep(u, cols):
    """The difference-form columns stepped site by site, renormalised by 2^e."""
    y1, d1, y2, d2 = cols
    exponent = 0
    for x in u:
        d1 += x * y1
        y1 += d1
        d2 += x * y2
        y2 += d2
        e = math.frexp(max(abs(y1), abs(d1), abs(y2), abs(d2)))[1]
        y1, d1, y2, d2 = (math.ldexp(t, -e) for t in (y1, d1, y2, d2))
        exponent += e
    return [y1, d1, y2, d2], exponent


def ref_cheb_u_pair(n, x):
    """(U_{n-1}, U_n) from n applications of C(x) = [[0, 1], [-1, 2x]]."""
    zero = x - x
    one = zero + 1
    c = Mat2(zero, one, -one, 2 * x)
    cur = Vec2(zero, one)
    for _ in range(n):
        cur = c @ cur
    return cur.a, cur.b


def entries(m: Mat2):
    return (m.a, m.b, m.c, m.d)


# -- the kernel against the references ---------------------------------------

class TestCharPoly:
    @SETTINGS
    @given(values=small_floats, bc=boundary_conditions)
    def test_float(self, values, bc):
        if bc.is_circle and not values:
            return
        pot = Potential(tuple(values))
        assert char_poly(pot, bc) == ref_char_poly(pot, bc)

    @SETTINGS
    @given(values=st.lists(st.one_of(st.integers(-3, 3), fractions), max_size=7),
           bc=boundary_conditions)
    def test_exact(self, values, bc):
        if bc.is_circle and not values:
            return
        pot = Potential(tuple(values))
        assert char_poly(pot, bc, exact=True) == ref_char_poly(pot, bc, exact=True)


class TestPropagation:
    @SETTINGS
    @given(values=small_floats, lam=st.floats(-1.0, 5.0),
           seed=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)))
    def test_propagate_float(self, values, lam, seed):
        pot = Potential(tuple(values))
        v0 = Vec2(*seed)
        assert propagate(pot, lam, v0) == ref_propagate(pot, lam, v0)

    @SETTINGS
    @given(values=small_ints, lam=fractions)
    def test_propagate_exact(self, values, lam):
        pot = Potential(tuple(values))
        v0 = Vec2(lam - lam, lam - lam + 1)
        assert propagate(pot, lam, v0) == ref_propagate(pot, lam, v0)

    @SETTINGS
    @given(values=small_floats, lam=st.one_of(st.floats(-1.0, 5.0), fractions))
    def test_propagator_matrix(self, values, lam):
        if isinstance(lam, Fraction):
            values = [Fraction(v) for v in values]
        pot = Potential(tuple(values))
        prop = Propagator(pot, lam)
        one = (lam - lam) + 1
        nu = len(values)
        for jp in range(nu + 1):
            for j in range(jp, nu + 1):
                want = ref_product(values[jp:j], lam, one)
                assert entries(prop.matrix(j, jp)) == entries(want)

    def test_propagator_matrix_charpoly(self):
        pot = Potential((1, -2, 0, 3, Fraction(1, 2)))
        lam = CharPoly.lam(exact=True)
        prop = Propagator(pot, lam)
        for jp in range(6):
            for j in range(jp, 6):
                want = ref_product(pot.values[jp:j], lam, prop._one)
                assert entries(prop.matrix(j, jp)) == entries(want)

    @SETTINGS
    @given(seed=st.integers(0, 2**32 - 1), nu=st.integers(0, 800),
           bc=st.sampled_from([dirichlet(), neumann(), robin(0.5, -0.7), robin(2.0, 1.0)]))
    def test_interval_p0(self, seed, nu, bc):
        # from nu ~ 300 on P(0) leaves float range, so the scale is checked too
        values = np.random.default_rng(seed).uniform(-1.0, 2.5, nu)
        pot = Potential(tuple(values.tolist()))
        assert p0_error(_taylor_at_zero(pot, bc, 0), exact_interval_p0(pot, bc)) <= 1e-11

    def test_interval_p0_rescales(self):
        pot = Potential.constant(2000, 1.0)  # y grows like 2.6^j
        got = _taylor_at_zero(pot, dirichlet(), 0)
        assert got[2] * math.log(2.0) > 1900.0
        assert p0_error(got, exact_interval_p0(pot, dirichlet())) <= 1e-11

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), nu=st.integers(1, 600),
           bc=st.sampled_from([dirichlet(), neumann(), robin(0.5, -0.7), periodic(), twisted(0.3)]))
    def test_chain_and_jet_read_one_c0(self, seed, nu, bc):
        """c_0 of the Python-float chain (order 0) and of the jet sweep agree."""
        pot = Potential(np.random.default_rng(seed).uniform(-1.0, 2.5, nu))
        chain, chain_refs, e0 = _taylor_at_zero(pot, bc, 0)
        jet, jet_refs, e = _taylor_at_zero(pot, bc, 1 if bc.is_interval else 2)
        scale = e - e0  # both on the chain's scale
        yardstick = max(chain_refs[0], math.ldexp(jet_refs[0], scale))
        assert abs(chain[0] - math.ldexp(jet[0], scale)) <= 1e-11 * yardstick


class TestBlockedDifferenceSweep:
    """Block length 1, the default sqrt(nu), and the growth cap (|u| ~ 1e30
    allows 5 sites per block) against the sequential difference form."""

    @SETTINGS
    @given(seed=st.integers(0, 2**32 - 1), nu=st.integers(0, 600),
           scale=st.sampled_from([1e-6, 1.0, 3.0, 1e30]), block=st.sampled_from([1, None]),
           cols=st.sampled_from([[1.0, 0.0, 0.0, 1.0], [1.0, 1.0, 0.0, 0.0],
                                 [1.3, 0.3, 0.0, 0.0]]))
    def test_matches_sequential(self, seed, nu, scale, block, cols):
        u = scale * np.random.default_rng(seed).uniform(-1.0, 1.0, nu)
        got, e = _blocked_difference_sweep(u, list(cols), block)
        want, e_ref = ref_difference_sweep(u.tolist(), cols)
        got = [math.ldexp(x, e - e_ref) for x in got]
        top = max(abs(x) for x in want)
        # both routes round; oscillatory sites (|u| < 4) cost them digits
        # alike, up to 7e-12 of the largest entry over 2000 random draws
        assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-10 * top

    def test_free_is_exact(self):
        # u = 0: every block is [[1, L], [0, 1]], so the columns stay integers
        for nu in (1, 7, 100, 1000):
            got, e = _blocked_difference_sweep(np.zeros(nu), [1.0, 0.0, 0.0, 1.0])
            assert [math.ldexp(x, e) for x in got] == [1.0, 0.0, float(nu), 1.0]

    def test_huge_sites_do_not_overflow(self):
        u = np.full(50, 1e300)
        got, e = _blocked_difference_sweep(u, [1.0, 1.0, 0.0, 0.0])
        assert all(math.isfinite(x) for x in got) and e > 50 * 996


class TestBlockedJetSweep:
    """The jet sweep against the difference form stepped site by site in
    exact arithmetic, each entry a jet in lambda: Delta_k += u y_k - y_(k-1),
    y_k += Delta_k."""

    @staticmethod
    def exact_jets(u, cols, order):
        m1 = order + 1
        out = []
        for col in np.asarray(cols).T.tolist():
            y, d = [Fraction(x) for x in col[:m1]], [Fraction(x) for x in col[m1:]]
            for uj in map(Fraction, u.tolist()):
                d = [d[k] + uj * y[k] - (y[k - 1] if k else 0) for k in range(m1)]
                y = [y[k] + d[k] for k in range(m1)]
            out.append(y + d)
        return np.array(out, dtype=object).T

    @SETTINGS
    @given(seed=st.integers(0, 2**32 - 1), nu=st.integers(1, 200), order=st.integers(1, 2),
           scale=st.sampled_from([1e-6, 1.0, 3.0, 1e30]), block=st.sampled_from([1, None]))
    def test_matches_exact_steps(self, seed, nu, order, scale, block):
        rng = np.random.default_rng(seed)
        u = scale * rng.uniform(-1.0, 1.0, nu)
        cols = rng.uniform(-1.0, 1.0, (2 * (order + 1), 2))
        got, e = _blocked_jet_sweep(u, cols, order, block)
        want = self.exact_jets(u, cols, order)
        for k in range(order + 1):  # each order against its own largest entry
            rows = [k, order + 1 + k]
            top = max(abs(x) for x in want[rows].ravel())
            err = max(abs(Fraction(float(g)) * Fraction(2) ** e - w)
                      for g, w in zip(got[rows].ravel(), want[rows].ravel()))
            assert err <= Fraction(1, 10 ** 10) * top

    def test_free_neumann_is_exact(self):
        """u = 0 keeps every entry an integer: y = 1 - lambda j (j - 1) / 2 + ..."""
        nu = 1000
        cols = np.zeros((4, 1))
        cols[0, 0] = 1.0  # the Neumann seed (y(1), Delta(1)) = (1, 0)
        got, e = _blocked_jet_sweep(np.zeros(nu), cols, 1)
        y0, y1, d0, d1 = (math.ldexp(x, e) for x in got[:, 0])
        assert (y0, d0, d1) == (1.0, 0.0, -float(nu))
        assert y1 == -float(nu * (nu + 1) // 2)


class TestChebyshev:
    scalars = st.one_of(st.floats(-3.0, 3.0), st.integers(-3, 3), fractions,
                        st.builds(lambda c: CharPoly([c, 1], backend="exact"),
                                  st.integers(-2, 2)))

    @SETTINGS
    @given(n=st.integers(0, 20), x=scalars)
    def test_u_and_pair(self, n, x):
        if isinstance(x, CharPoly):
            n = min(n, 8)
        want = ref_cheb_u_pair(n, x)
        assert cheb.cheb_u_pair(n, x) == want
        assert cheb.cheb_u(n, x) == want[1]

    def test_charpoly_float_argument(self):
        x = CharPoly([0.5, -0.5])
        for n in range(10):
            assert cheb.cheb_u_pair(n, x) == ref_cheb_u_pair(n, x)

    @pytest.mark.parametrize("n", range(16))
    def test_polys(self, n):
        lam = CharPoly.lam(exact=True)
        one = CharPoly([1], backend="exact")
        zero = one - one
        k = ref_product([0] * n, lam, one)
        # U_n from the (U_{-1}, U_0) = (0, 1) seed, V_n from (1, 1)
        u = (k @ Vec2(zero, one)).b
        v = (k @ Vec2(one, one)).b
        assert cheb.cheb_u_poly(n) == u
        assert cheb.cheb_v_poly(n) == v
        assert cheb.cheb_t_poly(n).coeffs == [Fraction(c, 2) for c in k.trace().coeffs]


# -- user sizes: P(0) far outside float range ---------------------------------

class TestDeterminantAtUserSizes:
    """O(1) potentials make P(0) ~ 1e230..1e910, far outside float range.

    Three deep wells push three eigenvalues below zero, so the sign is -1.
    """

    @pytest.mark.parametrize("nu", [500, 2000])
    @pytest.mark.parametrize("bc", [dirichlet(), neumann(), robin(0.5, -0.3), periodic(),
                                    twisted(0.3)], ids=lambda bc: bc.kind)
    def test_against_lapack(self, nu, bc):
        rng = np.random.default_rng(nu)
        v = rng.uniform(0.5, 2.0, nu)
        v[rng.choice(nu, 3, replace=False)] = -4.0
        pot = Potential(tuple(v.tolist()))
        if bc.is_circle:
            spec = LatticeSpec.circle(nu, L=1.0)
            dense = cyclic_matrix(pot, bc)
        else:
            spec = LatticeSpec.interval(nu, L=1.0)
            d, e = tridiagonal_matrix(pot, bc)
            dense = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        sign, logdet = np.linalg.slogdet(dense)
        ld = determinant(pot, bc, spec)
        assert ld.sign == round(sign.real) == -1
        dimensionless = ld.log_abs + 2.0 * nu * math.log(spec.h)
        assert abs(dimensionless - logdet) <= 1e-12 * abs(logdet)


def mp_circle_p0(values, tau):
    """tr K - 2 cos(2 pi tau) by the w-form recurrence in 60-digit mpmath."""
    with mpmath.workdps(60):
        trace = 0
        for a, b, top in ((1, 0, True), (0, 1, False)):
            a, b = mpmath.mpf(a), mpmath.mpf(b)
            for v in values:
                a, b = b, (2 + mpmath.mpf(v)) * b - a
            trace += a if top else b
        return trace - 2 * mpmath.cos(2 * mpmath.pi * mpmath.mpf(tau))


class TestSignChangingCircle:
    """v = h^2 uniform(-60, 60): the circle determinant is O(1) while the
    columns of K grow like nu; the rounded weight 2 + v_j cost the w-form
    sweep ~1e-8 of log|det| here."""

    @pytest.mark.parametrize("bc", [periodic(), twisted(0.3)], ids=lambda bc: bc.kind)
    def test_against_lapack(self, bc):
        nu = 2000
        spec = LatticeSpec.circle(nu, h=1.0)
        values = (np.random.default_rng(nu).uniform(-60.0, 60.0, nu) / (nu * nu)).tolist()
        pot = Potential(tuple(values))
        sign, logdet = np.linalg.slogdet(cyclic_matrix(pot, bc))
        ld = determinant(pot, bc, spec)
        assert ld.sign == round(sign.real)
        assert abs(ld.log_abs - logdet) <= 1e-10

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("bc", [periodic(), twisted(0.3)], ids=lambda bc: bc.kind)
    def test_against_mpmath(self, bc, seed):
        # LAPACK factors the rounded matrix and drifts by up to ~1e-9 on some
        # of these draws; the 60-digit recurrence on the exact v_j does not
        nu = 2000
        values = (np.random.default_rng(seed).uniform(-60.0, 60.0, nu) / (nu * nu)).tolist()
        ld = determinant(Potential(tuple(values)), bc, LatticeSpec.circle(nu, h=1.0))
        want = mp_circle_p0(values, bc.twist)
        assert ld.sign == (1 if want > 0 else -1)
        assert abs(ld.log_abs - float(mpmath.log(abs(want)))) <= 1e-12


@pytest.mark.parametrize("bc", [dirichlet(), neumann()], ids=lambda bc: bc.kind)
def test_constant_mass_against_sinh_formula(bc):
    # Det = U_nu(x0) (Dirichlet), mu^2 U_{nu-1}(x0) (Neumann), U_n(cosh 2g) =
    # sinh(2(n+1)g)/sinh(2g) with sinh g = mu/2; h = 1 keeps log|det| O(1)
    nu = 100_000
    mu2 = (0.75 / (nu + 1)) ** 2
    ld = determinant(Potential.constant(nu, mu2), bc, LatticeSpec.interval(nu, h=1.0))
    with mpmath.workdps(40):
        g = mpmath.asinh(mpmath.sqrt(mpmath.mpf(mu2)) / 2)
        if bc.kind == "dirichlet":
            want = mpmath.sinh(2 * (nu + 1) * g) / mpmath.sinh(2 * g)
        else:
            want = mpmath.mpf(mu2) * mpmath.sinh(2 * nu * g) / mpmath.sinh(2 * g)
        want = float(mpmath.log(want))
    assert ld.sign == 1
    assert abs(ld.log_abs - want) <= 1e-11

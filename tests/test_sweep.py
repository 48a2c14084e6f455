"""The shared sweep kernel against the step-matrix product it replaced.

Every route (propagate, Propagator, char_poly, the scalar P(0) sweep and the
Chebyshev recurrences) runs on ``transfer._sweep``.  The references below
multiply ``step_matrix`` factors site by site, the textbook form of the
transfer-matrix product, and the kernel must reproduce them exactly (``==``)
on floats, ints, Fractions and CharPoly entries.  The last class checks
determinants at user sizes, deep in the rescaling regime, against LAPACK.
"""

import math
from fractions import Fraction

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
from gylat.transfer import Propagator, _RESCALE_AT, _scaled_scalar_p0, _twist_shift

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)

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


def ref_interval_p0(potential, bc):
    """(mantissa, log_scale, ref) of P(0) by rescaled step-matrix stepping."""
    vin = bc.in_vector()
    cur = Vec2(float(vin.a), float(vin.b))
    log_scale = 0.0
    for v in potential:
        cur = step_matrix(float(v), 0.0) @ cur
        m = max(abs(cur.a), abs(cur.b))
        if m > _RESCALE_AT:
            cur = Vec2(cur.a / m, cur.b / m)
            log_scale += math.log(m)
    out = bc.out_adjoint()
    return (float(out.a) * cur.a + float(out.b) * cur.b, log_scale,
            max(abs(cur.a), abs(cur.b), 1e-300))


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
        # from nu ~ 300 on these weights cross _RESCALE_AT, so rescaling is compared too
        values = np.random.default_rng(seed).uniform(-1.0, 2.5, nu)
        pot = Potential(tuple(values.tolist()))
        assert _scaled_scalar_p0(pot, bc) == ref_interval_p0(pot, bc)

    def test_interval_p0_rescales(self):
        pot = Potential.constant(2000, 1.0)  # y grows like 2.6^j
        got = _scaled_scalar_p0(pot, dirichlet())
        assert got[1] > 3.0 * math.log(_RESCALE_AT)
        assert got == ref_interval_p0(pot, dirichlet())


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


# -- user sizes: deep in the rescaling regime --------------------------------

class TestDeterminantAtUserSizes:
    """O(1) potentials make P(0) ~ 1e230..1e910, far past _RESCALE_AT.

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

"""Chebyshev-propagator series, delta potential, symmetric factor."""

import math
import random
from array import array
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
    cheb_u_poly,
    delta_potential,
    determinant,
    dirichlet,
    dirichlet_det_series,
    dirichlet_trace_series,
    neumann,
    neumann_det_series,
    neumann_trace_series,
    oracle_spectrum,
    symmetric_factor_check,
)
from gylat import transfer
from gylat.core import _exactify, _lift
from gylat.perturbation import trace_series_by_tuples
from gylat.transfer import _slot_bits
from test_terminal import exact_slot_bits


class TestDirichletSeries:
    def test_free_is_cheb_u(self):
        for nu in (1, 3, 6):
            assert dirichlet_trace_series(Potential.zeros(nu)) == cheb_u_poly(nu)

    def test_single_site_closed_form(self):
        # U_nu + v (2 - lambda) U_{nu-2} for the site-2 insertion
        for nu in (2, 4, 7):
            v = 3
            got = dirichlet_trace_series(Potential.delta(nu, 2, v))
            want = cheb_u_poly(nu) + v * (CharPoly([2, -1], backend="exact") * cheb_u_poly(nu - 2))
            assert got == want

    def test_nu3_example(self):
        got = dirichlet_trace_series(Potential((0, 1, 0)))
        assert got.coeffs == [8, -14, 7, -1]

    def test_full_order_equals_transfer_exact(self):
        rng = random.Random(41)
        for nu in range(1, 11):
            pot = Potential(tuple(rng.randint(-3, 3) for _ in range(nu)))
            assert dirichlet_trace_series(pot) == char_poly(pot, dirichlet(), exact=True)

    def test_matches_tuple_enumeration(self):
        rng = random.Random(42)
        for nu in range(1, 7):
            pot = Potential(tuple(rng.randint(-2, 2) for _ in range(nu)))
            for order in range(nu + 1):
                assert (dirichlet_trace_series(pot, order)
                        == trace_series_by_tuples(pot, order, neumann=False))

    def test_truncation_error_scaling(self):
        # order-k truncation misses O(eps^(k+1)) when v -> eps v
        base = (0.8, -0.5, 0.3, 0.9)
        full = [CharPoly([c for c in
                          dirichlet_trace_series(Potential(tuple(e * v for v in base))).coeffs])
                for e in (1.0,)]
        for k in (0, 1, 2):
            resid = []
            for eps in (1e-2, 1e-3):
                pot = Potential(tuple(eps * v for v in base))
                diff = dirichlet_trace_series(pot) - dirichlet_trace_series(pot, k)
                resid.append(max(abs(c) for c in diff.coeffs))
            ratio = resid[0] / resid[1]
            order_est = math.log10(ratio)
            assert abs(order_est - (k + 1)) < 0.2


class TestNeumannSeries:
    def test_free_is_lambda_u(self):
        # Delta V_{nu-1} = -lambda U_{nu-1}
        for nu in (1, 3, 6):
            got = neumann_trace_series(Potential.zeros(nu))
            want = CharPoly([0, -1], backend="exact") * cheb_u_poly(nu - 1)
            assert got == want

    def test_nu2_determinant(self):
        a, b = 3, 5
        poly = neumann_trace_series(Potential((a, b)))
        assert poly(0) == a + b + a * b

    def test_single_site_constant_term(self):
        for nu in (2, 5):
            for site in (1, 2, nu):
                poly = neumann_trace_series(Potential.delta(nu, site, 7))
                assert poly(0) == 7  # V factors are unity at lambda = 0

    def test_full_order_equals_transfer_exact(self):
        rng = random.Random(43)
        for nu in range(1, 11):
            pot = Potential(tuple(rng.randint(-3, 3) for _ in range(nu)))
            assert neumann_trace_series(pot) == char_poly(pot, neumann(), exact=True)

    def test_matches_tuple_enumeration(self):
        rng = random.Random(44)
        for nu in range(1, 7):
            pot = Potential(tuple(rng.randint(-2, 2) for _ in range(nu)))
            assert (neumann_trace_series(pot)
                    == trace_series_by_tuples(pot, neumann=True))


class TestDetSeries:
    def test_dirichlet_free(self):
        for nu in (1, 4, 9):
            assert dirichlet_det_series(Potential.zeros(nu)) == nu + 1

    def test_dirichlet_delta_site2(self):
        assert dirichlet_det_series(Potential.delta(3, 2, 1)) == 8

    def test_dirichlet_ones(self):
        # 4 + 10 + 6 + 1 term by term
        assert dirichlet_det_series(Potential((1, 1, 1))) == 21
        per_order = [dirichlet_det_series(Potential((1, 1, 1)), k)
                     for k in range(4)]
        assert per_order == [4, 14, 20, 21]

    def test_neumann_values(self):
        assert neumann_det_series(Potential.zeros(5)) == 0
        assert neumann_det_series(Potential.delta(4, 3, 9)) == 9
        a, b = 2, 7
        assert neumann_det_series(Potential((a, b))) == a + b + a * b

    def test_equals_normalised_char_poly(self):
        rng = random.Random(45)
        for nu in range(1, 9):
            pot = Potential(tuple(rng.randint(-2, 2) for _ in range(nu)))
            pd = char_poly(pot, dirichlet(), exact=True)
            assert dirichlet_det_series(pot) == (-1) ** nu * Fraction(pd(0), pd.leading())
            pn = char_poly(pot, neumann(), exact=True)
            assert neumann_det_series(pot) == (-1) ** nu * Fraction(pn(0), pn.leading())


exact_values = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))

SERIES = [(dirichlet(), dirichlet_trace_series, dirichlet_det_series, False),
          (neumann(), neumann_trace_series, neumann_det_series, True)]


class TestGradedSweep:
    """The series run on the GY sweep that char_poly shares; the vertex-tuple
    enumeration is the route that does not."""

    @settings(max_examples=20)
    @given(values=st.one_of(st.integers(1, 6), st.integers(7, 40)).flatmap(
        lambda nu: st.lists(exact_values, min_size=nu, max_size=nu)), data=st.data())
    def test_against_char_poly_and_tuples(self, values, data):
        pot = Potential(tuple(values))
        nu = pot.nu
        order = data.draw(st.integers(0, nu), label="order")
        for bc, trace, det, is_neumann in SERIES:
            p = char_poly(pot, bc, exact=True)
            assert trace(pot) == p
            assert det(pot) == (-1) ** nu * Fraction(p(0), p.leading())
            truncated = trace(pot, order)
            assert det(pot, order) == truncated(0)
            if nu <= 6:
                assert truncated == trace_series_by_tuples(pot, order, neumann=is_neumann)

    def test_nu_zero(self):
        # the Neumann determinant series keeps the empty product, although
        # its trace series, y(1) - y(0) of the seed (1, 1), vanishes
        empty = Potential(())
        assert dirichlet_det_series(empty) == neumann_det_series(empty) == 1
        assert dirichlet_trace_series(empty) == CharPoly([1])
        assert neumann_trace_series(empty) == CharPoly([0])

    def test_nu_zero_reads_exact_however_built(self):
        """No entries count as exact, from a tuple or from an empty float buffer."""
        for empty in (Potential(()), Potential(np.empty(0)), Potential(array("d"))):
            for trace, is_neumann in ((dirichlet_trace_series, False), (neumann_trace_series, True)):
                assert trace(empty).backend == "exact"
                assert trace_series_by_tuples(empty, neumann=is_neumann).backend == "exact"


class TestDeltaPotential:
    def test_polynomial_and_det(self):
        res = delta_potential(3, 2, 1)
        assert res.det == 8
        assert res.char_poly == char_poly(Potential.delta(3, 2, 1), dirichlet(), exact=True)

    def test_zero_mode_location(self):
        for nu in (2, 5, 30):
            res = delta_potential(nu, 2, 1)
            v0 = res.zero_mode_v
            assert v0 == -Fraction(nu + 1, 2 * (nu - 1))
            at_zero = delta_potential(nu, 2, v0)
            assert at_zero.det == 0

    def test_general_site(self):
        for nu, site in ((5, 1), (5, 3), (7, 7)):
            res = delta_potential(nu, site, 2)
            assert res.det == nu + 1 + 2 * (nu - site + 1) * site
            assert res.char_poly == char_poly(Potential.delta(nu, site, 2), dirichlet(), exact=True)

    def test_top_eigenvalue_four_at_opposite_sign(self):
        for nu in (5, 12, 40):
            v = (nu + 1) / (2 * (nu - 1))
            lams = oracle_spectrum(Potential.delta(nu, 2, v), dirichlet()).lambdas
            assert abs(lams[-1] - 4.0) < 1e-9

    def test_site_out_of_range(self):
        with pytest.raises(ValueError):
            delta_potential(4, 5, 1.0)

    def test_cli_zero_mode_case(self):
        # nu = 5, site 2, v = -(nu+1)/(2(nu-1)) = -0.75: determinant vanishes
        spec = LatticeSpec.interval(5, h=1.0)
        ld = determinant(Potential.delta(5, 2, -0.75), dirichlet(), spec)
        assert ld.sign == 0


class TestSymmetricFactor:
    def test_symmetric_cases(self):
        assert symmetric_factor_check(1, 0)
        assert symmetric_factor_check(0, 0)
        assert symmetric_factor_check(Fraction(2, 7), Fraction(-3, 5))
        assert symmetric_factor_check(0.3, -1.2)

    def test_asymmetric_case(self):
        assert not symmetric_factor_check(1, 0, 2)
        assert not symmetric_factor_check(0.5, 0.1, 0.5001)


def graded_reference(values, order, two, neumann, states=None):
    """Order-k parts, k = 0..order, of the terminal value on the weights two + e v_j,
    swept term by term: the reference of the packed graded sweep.  A state is the list
    of its e^k parts (CharPolys, or scalars for the determinant series), exact zeros
    past its end; (two + e v) y keeps two y_k + v y_(k-1) up to e^order (two y_k alone
    where v = 0), and a difference of unequal lengths copies or negates the longer
    one's tail.  With ``states`` the seeds and each y(j) are appended to it."""
    zero = two - two
    a, b = [zero + 1 if neumann else zero], [zero + 1]
    states = [] if states is None else states
    states += [a, b]
    for v in values:
        w = [two * y for y in b]
        if v:
            w = ([w[0]] + [x + v * y for x, y in zip(w[1:], b)] + [v * b[-1]])[:order + 1]
        a, b = b, difference(w, a)
        states.append(b)
    return difference(b, a) if neumann else b


def difference(a, b):
    return [x - y for x, y in zip(a, b)] + a[len(b):] + [-y for y in b[len(a):]]


def trace_reference(pot, order, exact, neumann):
    two = CharPoly([2, -1], backend="exact" if exact else "float")  # 2 - lambda
    terms = graded_reference([_exactify(v) for v in pot] if exact else pot.values, order, two,
                             neumann)
    return sum(terms[1:], terms[0])


def det_reference(pot, order, neumann):
    return sum(graded_reference(pot.values, order, 2, neumann)) if pot.nu else 1


def float_bits(x) -> int:
    return int(np.float64(x).view(np.int64))


def assert_identical(got, want):
    """Equal values and Python types, float bits included (so the sign of a zero)."""
    if isinstance(want, CharPoly):
        assert got.backend == want.backend
        got, want = got.coeffs, want.coeffs
        assert len(got) == len(want)
    else:
        got, want = [got], [want]
    assert list(map(type, got)) == list(map(type, want))
    assert [float_bits(x) if isinstance(x, float) else x for x in got] == \
        [float_bits(x) if isinstance(x, float) else x for x in want]


SERIES_ENTRIES = {
    "int": st.integers(-9, 9),
    "fraction": st.builds(Fraction, st.integers(-30, 30), st.sampled_from([1, 2, 3, 6, 7])),
    # the weight-zero site -2.0, zeros of either sign, O(1) and dyadic values
    "float": st.one_of(st.sampled_from([-2.0, 0.0, -0.0]), st.floats(-3.0, 3.0),
                       st.builds(lambda n, e: math.ldexp(n, -e), st.integers(-99, 99),
                                 st.integers(0, 60))),
    "zero": st.just(0),
}


@st.composite
def series_cases(draw):
    kind = draw(st.sampled_from(sorted(SERIES_ENTRIES)))
    exact = draw(st.booleans())
    # the exact reference on Fraction and float inputs is slow past nu 20
    top = 20 if exact and kind in ("fraction", "float") else 60
    nu = draw(st.one_of(st.integers(0, 6), st.integers(0, top)))
    values = draw(st.lists(SERIES_ENTRIES[kind], min_size=nu, max_size=nu))
    return Potential(values), draw(st.integers(0, nu)), exact, draw(st.booleans())


class TestPackedSeries:
    """The series sweep packs each graded state into one int (exact) or one float64
    array; the values are those of the term-by-term sweep, with its Python types and
    float bits."""

    @settings(max_examples=300)
    @given(case=series_cases())
    def test_trace_series(self, case):
        pot, order, exact, is_neumann = case
        trace = neumann_trace_series if is_neumann else dirichlet_trace_series
        want = trace_reference(pot, order, exact, is_neumann)
        assert_identical(trace(pot, order, exact=exact), want)

    @settings(max_examples=300)
    @given(case=series_cases())
    def test_det_series(self, case):
        pot, order, _, is_neumann = case
        det = neumann_det_series if is_neumann else dirichlet_det_series
        assert_identical(det(pot, order), det_reference(pot, order, is_neumann))

    def test_det_series_types(self):
        """An int at order 0 and from int insertions; a Fraction once a Fraction enters,
        integral or not; a float once a float does."""
        cases = [((1, 2, 3), 0, int), ((1, 2, 3), 2, int), ((Fraction(1, 2), 0, 1), 0, int),
                 ((Fraction(2), 1), 1, Fraction), ((Fraction(1, 2), Fraction(1, 2)), 2, Fraction),
                 ((Fraction(0), 3), 1, int), ((0.5, 1.5), 0, int), ((0.5, 1.5), 1, float),
                 ((0.0, -0.0), 2, int)]
        for values, order, kind in cases:
            for det, is_neumann in ((dirichlet_det_series, False), (neumann_det_series, True)):
                got = det(Potential(values), order)
                assert type(got) is kind
                assert_identical(got, det_reference(Potential(values), order, is_neumann))

    @pytest.mark.parametrize("series", [dirichlet_det_series, neumann_det_series,
                                        dirichlet_trace_series, neumann_trace_series])
    def test_float_out_of_range_raises(self, series):
        """The float series are read out as float char_poly is: the det series used to
        return nan here, the Dirichlet trace series [nan, nan, inf, -inf, 5e200, -1.0]."""
        with pytest.raises(OverflowError, match="exact=True"):
            series(Potential([1e200] * 5))

    def test_exact_trace_series_has_no_float_range(self):
        assert neumann_trace_series(Potential([1e200] * 5), exact=True).degree == 5


M = 2 ** 40 + 3
# exact inputs whose graded coefficients come near the slot bound
GRADED_ADVERSARIAL = {"all -M": [-M] * 30, "alternating M": [(-1) ** j * M for j in range(30)],
                      "all weight zero": [-2] * 30,
                      "-M thirds": [Fraction(-M, 3)] * 12 + [Fraction(M, 7)] * 12,
                      "-M thirds in floats": [-M / 3] * 12 + [M / 7] * 12}  # D = 2^14


def graded_slot_args(pot, is_neumann):
    """``_terminal``'s arguments to ``_slot_bits`` for the series of ``pot``: the potential
    and the end vectors lifted together over their common denominator D."""
    bc = neumann() if is_neumann else dirichlet()
    ns, d = _lift([*pot, *bc.in_vector(), *bc.out_adjoint()])
    return [2 * d + abs(n) for n in ns[:pot.nu]], d, ns[pot.nu:]


class TestGradedSlots:
    """The slot width S of the graded sweep bounds every coefficient of every state."""

    @pytest.mark.parametrize("is_neumann", [False, True])
    @pytest.mark.parametrize("name", sorted(GRADED_ADVERSARIAL))
    def test_every_state_fits(self, name, is_neumann, monkeypatch):
        pot = Potential(GRADED_ADVERSARIAL[name])
        args = graded_slot_args(pot, is_neumann)
        slot, d = _slot_bits(*args), args[1]
        used = []  # the widths the exact series sweep at
        monkeypatch.setattr(transfer, "_slot_bits", lambda *a: used.append(_slot_bits(*a)) or used[-1])
        (neumann_trace_series if is_neumann else dirichlet_trace_series)(pot, exact=True)
        (neumann_det_series if is_neumann else dirichlet_det_series)(pot)  # floats on floats
        assert used == [slot] * (1 + (pot._exact is not None))
        # seeded with D (y(0), D y(1)), the packed sweep holds D^(j+1) y(j), j = 0..nu+1,
        # and reads D^(nu+3) times the result, its e^k parts and their sum
        states = []
        read = graded_reference([_exactify(v) for v in pot], pot.nu,
                                CharPoly([2, -1], backend="exact"), is_neumann, states)
        scaled = [(y, d ** (j + 1)) for j, y in enumerate(states)]
        scaled += [(read, d ** (pot.nu + 3)), ([sum(read[1:], read[0])], d ** (pot.nu + 3))]
        coeffs = [c * scale for y, scale in scaled for t in y for c in t.coeffs]
        assert all(c.denominator == 1 for c in coeffs)
        assert max(abs(int(c)).bit_length() for c in coeffs) <= slot - 1

    @pytest.mark.parametrize("is_neumann", [False, True])
    @pytest.mark.parametrize("name", sorted(GRADED_ADVERSARIAL))
    def test_slot_is_never_narrower_than_the_exact_bound(self, name, is_neumann):
        args = graded_slot_args(Potential(GRADED_ADVERSARIAL[name]), is_neumann)
        assert _slot_bits(*args) >= exact_slot_bits(*args)

    @pytest.mark.parametrize("is_neumann", [False, True])
    @pytest.mark.parametrize("name", ["all -M", "alternating M", "-M thirds"])
    def test_one_byte_less_does_not_fit(self, name, is_neumann, monkeypatch):
        """Where the coefficients reach the bound, a slot one byte narrower breaks both series."""
        pot = Potential(GRADED_ADVERSARIAL[name])
        trace = neumann_trace_series if is_neumann else dirichlet_trace_series
        det = neumann_det_series if is_neumann else dirichlet_det_series
        want = [trace_reference(pot, pot.nu, True, is_neumann),
                det_reference(pot, pot.nu, is_neumann)]
        assert [trace(pot), det(pot)] == want
        monkeypatch.setattr(transfer, "_slot_bits", lambda *args: _slot_bits(*args) - 8)
        assert trace(pot) != want[0] and det(pot) != want[1]

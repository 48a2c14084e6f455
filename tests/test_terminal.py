"""One terminal-value routine for every read of P(lambda).

``transfer._terminal`` sweeps once, exact or in floats: the polynomial, and
``order=m`` only its coefficients of lambda^0..lambda^m, read from the same
packed sweep kept modulo lambda^(m+1).  They must be the polynomial's own coefficients
(bit for bit in floats), and the routes rebuilt on it must keep their answers.
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
    Potential,
    char_poly,
    dirichlet,
    inverse_power_sums,
    neumann,
    periodic,
    periodic_char_fn,
    robin,
    symmetric_factor_check,
    twisted,
)
from gylat.core import _exactify, _lift
from gylat.transfer import (
    _lead_and_degree,
    _slot_bits,
    _sweep,
    _terminal,
    _twist_shift,
    _unscale,
)

BCS = [dirichlet(), neumann(), robin(0.5, 1.5), robin(-1.0, 0.3), robin(0.25, -1.0),
       periodic(), twisted(0.3), twisted(0.25)]


def bits(values) -> list[int]:
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


def truncated(p: CharPoly, m: int) -> CharPoly:
    """P modulo lambda^(m+1): the coefficients of lambda^0..lambda^m, trimmed as CharPoly trims."""
    return CharPoly(p.coeffs[:m + 1], backend=p.backend)


def assert_same(got: CharPoly, want: CharPoly):
    """Equal values and types when exact, equal bits when float."""
    assert got.backend == want.backend
    if want.backend == "exact":
        assert got.coeffs == want.coeffs and list(map(type, got.coeffs)) == list(map(type, want.coeffs))
    else:
        assert bits(got.coeffs) == bits(want.coeffs)


def fraction_terminal(potential, bc, lam):
    """P(lambda) in exact scalars swept step by step, each step reduced as Fractions
    reduce: the arithmetic that the integer carrier of ``_terminal`` replaced."""
    ws = [_exactify(v) + 2 - lam for v in potential]
    zero = lam - lam

    def sweep(a, b):
        for w in ws:
            a, b = b, w * b - a
        return a, b
    if bc.is_interval:
        vin, out = bc.in_vector(), bc.out_adjoint()
        a, b = sweep(zero + _exactify(vin.a), zero + _exactify(vin.b))
        return _exactify(out.a) * a + _exactify(out.b) * b
    one = zero + 1
    return sweep(one, zero)[0] + sweep(zero, one)[1] - _twist_shift(bc.twist, True)


EXACT_PARAMS = [-1, 0, 0.5, -0.75, 1.25, 3, Fraction(1, 3), Fraction(-2, 7)]


@st.composite
def carrier_cases(draw):
    kind = draw(st.sampled_from(["dirichlet", "neumann", "robin", "periodic", "twisted"]))
    if kind == "robin":
        bc = robin(draw(st.sampled_from(EXACT_PARAMS)), draw(st.sampled_from(EXACT_PARAMS)))
    elif kind == "twisted":
        bc = twisted(draw(st.sampled_from([0.25, 0.5, 1.0, 0.3])))
    else:
        bc = {"dirichlet": dirichlet(), "neumann": neumann(), "periodic": periodic()}[kind]
    nu = draw(st.integers(1 if bc.is_circle else 0, 40))
    entry = {
        "int": st.integers(-5, 5),
        "dyadic": st.builds(lambda n, e: math.ldexp(n, -e), st.integers(-99, 99),
                            st.integers(0, 60)),
        "float": st.floats(-3.0, 3.0),
        "fraction": st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3, 7])),
    }[draw(st.sampled_from(["int", "dyadic", "float", "fraction"]))]
    return Potential(draw(st.lists(entry, min_size=nu, max_size=nu))), bc


def charpoly_terminal(potential, bc, exact, states=None):
    """P(lambda) swept with CharPoly states over the weights v + 2 - CharPoly.lam(exact),
    lifted over D as ``_terminal`` lifts them: the carrier that the packed states of
    ``char_poly`` replaced.  With ``states``, the seeds, every swept state and the
    read-out before its division by a power of D are appended to it."""
    nu, lam = potential.nu, CharPoly.lam(exact)
    ends = [*bc.in_vector(), *bc.out_adjoint()] if bc.is_interval else []
    vs, d = potential, 1
    if exact:
        vs, d = _lift([*potential, *ends])
        vs, ends, lam = vs[:nu], vs[nu:], d * lam
    ws = [v + 2 * d - lam for v in vs]
    zero, d2 = lam - lam, (d * d if d != 1 else None)
    states = [] if states is None else states
    if bc.is_interval:
        if nu in (1, 2) and _lead_and_degree(bc, nu)[1] == 0:
            return zero + _lead_and_degree(bc, nu, exact)[0]
        ia, ib, oa, ob = ends
        seeds = [zero + ia, zero + d * ib]
        a, b = _sweep(ws, *seeds, path=states, d2=d2)
        states += [*seeds, oa * d * a + ob * b]
        return _unscale(states[-1], d, nu + 3)
    seed = zero + d
    states.append(_sweep(ws, seed, zero, path=states, d2=d2)[0]
                  + _sweep(ws, zero, seed, path=states, d2=d2)[1])
    return _unscale(states[-1], d, nu + 1) - _twist_shift(bc.twist, exact)


PACKED_BCS = [dirichlet(), neumann(), robin(0.5, 1.5), robin(-1, 0.7), robin(0.25, -1.0),
              robin(-1, -1), robin(Fraction(1, 3), -0.75), twisted(0.25), twisted(0.3),
              twisted(0.5), periodic()]

# float entries: the weight-zero site -2.0, O(1) values and magnitudes 1e-30 to 1e30
FLOAT_ENTRIES = st.one_of(
    st.just(-2.0), st.floats(-3.0, 3.0),
    st.builds(lambda sign, e: sign * 10.0 ** e, st.sampled_from([-1.0, 1.0]), st.floats(-30, 30)))


@st.composite
def packed_cases(draw):
    bc, exact = draw(st.sampled_from(PACKED_BCS)), draw(st.booleans())
    kind = draw(st.sampled_from(["int", "fraction", "float", "zero"]))
    # exact sweeps of float inputs carry ~100 bits a site; their reference is slow past 60
    top = 60 if exact and kind == "float" else 300
    nu = max(draw(st.one_of(st.integers(0, 4), st.integers(0, 40), st.integers(0, top))),
             int(bc.is_circle))
    entry = {"int": st.integers(-9, 9), "float": FLOAT_ENTRIES, "zero": st.just(0),
             "fraction": st.builds(Fraction, st.integers(-30, 30), st.sampled_from([3, 5, 6, 7, 9]))}
    return Potential(draw(st.lists(entry[kind], min_size=nu, max_size=nu))), bc, exact


M = 2 ** 40 + 3
PRIMES = [1009, 1013, 1019, 1021, 1031, 1033, 1039, 1049, 1051, 1061, 1063, 1069]
# exact inputs that push the coefficients of the swept states towards the slot bound
ADVERSARIAL = {
    "all -M": [-M] * 40,
    "alternating M": [(-1) ** j * M for j in range(40)],
    "all weight zero": [-2] * 40,
    "coprime denominators": [Fraction((-1) ** j * M, p) for j, p in enumerate(PRIMES)],
    "-M over coprime denominators": [Fraction(-M, p) for p in PRIMES],
    "dyadic": [math.ldexp(-1.0, -60)] + [-M * 1.0] * 20,
}


class TestPackedCarriers:
    """``char_poly`` packs each swept state into one int (exact) or one float64
    vector; the coefficients are those of the CharPoly carrier, float bit for bit."""

    @settings(max_examples=200)
    @given(case=packed_cases())
    def test_matches_charpoly_states(self, case):
        pot, bc, exact = case
        want = charpoly_terminal(pot, bc, exact)
        if not all(map(math.isfinite, want.coeffs)):
            with pytest.raises(OverflowError, match="exact=True"):
                char_poly(pot, bc)
            return
        assert_same(char_poly(pot, bc, exact=exact), want)

    @pytest.mark.parametrize("values", [(-2, 0, -4, -2), (-2, -1, -3, -2)])
    @pytest.mark.parametrize("bc", [periodic(), twisted(0.25)])
    def test_zero_coefficients_keep_their_sign(self, values, bc):
        """Packed states may hold a -0.0 where CharPoly's 0.0 + x holds 0.0; here one
        reaches an interior zero of P unless the read-out turns it into 0.0."""
        pot = Potential(values)
        want = charpoly_terminal(pot, bc, False)
        assert 0.0 in want.coeffs and bits(char_poly(pot, bc).coeffs) == bits(want.coeffs)

    @pytest.mark.parametrize("bc", PACKED_BCS)
    @pytest.mark.parametrize("name", sorted(ADVERSARIAL))
    def test_every_state_fits_its_slot(self, bc, name):
        pot = Potential(ADVERSARIAL[name])
        states = []
        charpoly_terminal(pot, bc, True, states)
        ends = [*bc.in_vector(), *bc.out_adjoint()] if bc.is_interval else []
        vs, d = _lift([*pot, *ends])
        slot = _slot_bits([v + 2 * d for v in vs[:pot.nu]], d, vs[pot.nu:])
        assert max(abs(c).bit_length() for y in states for c in y.coeffs) <= slot - 1


    @pytest.mark.parametrize("bc", PACKED_BCS)
    @pytest.mark.parametrize("name", sorted(ADVERSARIAL))
    def test_slot_is_never_narrower_than_the_exact_bound(self, bc, name):
        pot = Potential(ADVERSARIAL[name])
        ends = [*bc.in_vector(), *bc.out_adjoint()] if bc.is_interval else []
        vs, d = _lift([*pot, *ends])
        a0s = [v + 2 * d for v in vs[:pot.nu]]
        assert _slot_bits(a0s, d, vs[pot.nu:]) >= exact_slot_bits(a0s, d, vs[pot.nu:])


def exact_slot_bits(a0s, d, ends):
    """``_slot_bits`` with its recursion in ints as wide as the bound itself."""
    (lo, hi), reads = ((ends[0], d * ends[1]), (ends[2] * d, ends[3])) if ends else ((d, d), (1, 1))
    lo, hi = abs(lo), abs(hi)
    top, dd = lo, d * d
    for a0 in a0s:
        lo, hi = hi, (abs(a0) + d) * hi + dd * lo
    top = max(top, hi, abs(reads[0]) * lo + abs(reads[1]) * hi)
    return -(-(top.bit_length() + 1) // 8) * 8


class TestTruncatedRead:
    """``_terminal(..., order=m)`` reads lambda^0..lambda^m of ``char_poly``'s packed
    sweep, each exact state kept modulo 2**(S (m + 1)), each float one as m + 1 entries."""

    @settings(max_examples=200)
    @given(case=packed_cases(), data=st.data())
    def test_is_the_polynomials_prefix(self, case, data):
        pot, bc, exact = case
        m = data.draw(st.sampled_from([0, 1, 2, 3, 4, pot.nu, pot.nu + 1]), label="m")
        try:
            full = char_poly(pot, bc, exact=exact)
        except OverflowError:  # a float coefficient past the float range: the reference's own
            full = charpoly_terminal(pot, bc, False)
        want = truncated(full, m)
        with np.errstate(over="ignore", invalid="ignore"):
            if all(map(math.isfinite, want.coeffs)):
                assert_same(_terminal(pot, bc, exact, order=m), want)
                return
            # the error counts the non-finite coefficients among those read
            n = min(m + 1, pot.nu + 1)
            bad = sum(not math.isfinite(c) for c in full.coeffs[:n])
            with pytest.raises(OverflowError, match=rf"\({bad} of {n} not finite\)"):
                _terminal(pot, bc, exact, order=m)

    @settings(max_examples=150)
    @given(case=carrier_cases(), m=st.sampled_from([0, 4]))
    def test_equals_fraction_sweep(self, case, m):
        pot, bc = case
        lam = CharPoly.lam(exact=True)
        assert_same(_terminal(pot, bc, True, order=m), truncated(fraction_terminal(pot, bc, lam), m))

    @pytest.mark.parametrize("bc", PACKED_BCS)
    @pytest.mark.parametrize("name", sorted(ADVERSARIAL))
    def test_adversarial_inputs(self, bc, name):
        pot = Potential(ADVERSARIAL[name])
        full = charpoly_terminal(pot, bc, True)
        for m in range(5):
            assert_same(_terminal(pot, bc, True, order=m), truncated(full, m))

    def test_integer_inputs_stay_integers(self):
        """D = 1: no scaling, and the packed sweep's ints come back."""
        for bc in (robin(1, 3), periodic()):
            for m in (0, 2, None):
                p = _terminal(Potential([1, -2, 3]), bc, True, order=m)
                assert p.coeffs != [0] and all(type(c) is int for c in p.coeffs)


class TestUnscale:
    """``_unscale`` divides the exact carrier's coefficients by D**power once; a power of
    two D takes each numerator's trailing zero bits off instead of a gcd."""

    @pytest.mark.parametrize("values", [[1, -2, 3], [Fraction(1, 3), Fraction(-5, 6)],
                                        [Fraction(3, 4), -1], [0.5, -0.375, 1e-30],
                                        [math.ldexp(1.0, -60), 3.0]])
    def test_equals_reduced_fraction(self, values):
        d = _lift(values)[1]
        for power in (1, 4, 37):
            k = d ** power
            cs = [0, 1, -1, 7, -12, k, -k, 3 * k, k // 2 or 1, -(k << 5), 5 << 300, -(3 << 4000),
                  k * (2 ** 6000 + 1), (2 ** 6000 + 1) << 150]
            for c, got in zip(cs, _unscale(CharPoly(cs + [1], backend="exact"), d, power).coeffs):
                want = Fraction(c, k)
                assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
                assert type(got) is (int if want.denominator == 1 else Fraction)


class TestFloatOverflow:
    """A float char_poly whose coefficients leave the float range raises."""

    def test_large_potential(self):
        with pytest.raises(OverflowError, match=r"lambda\^0 is nan .*exact=True"):
            char_poly(Potential([1e200] * 5), dirichlet())
        assert char_poly(Potential([1e200] * 5), dirichlet(), exact=True).degree == 5

    def test_names_the_first_non_finite_coefficient(self):
        pot = Potential(np.random.default_rng(1).uniform(0.0, 2.0, 700))
        first = next(k for k, c in enumerate(charpoly_terminal(pot, neumann(), False).coeffs)
                     if not math.isfinite(c))
        with pytest.raises(OverflowError, match=rf"lambda\^{first} is -?(inf|nan) "):
            char_poly(pot, neumann())
        with pytest.raises(OverflowError):  # the sums read the polynomial first
            inverse_power_sums(char_poly(pot, neumann()), 1)


class TestLeadAndDegree:
    @pytest.mark.parametrize("bc", BCS)
    @pytest.mark.parametrize("nu", [1, 2, 7])
    def test_matches_exact_polynomial(self, bc, nu):
        p = char_poly(Potential([Fraction(j, 3) for j in range(nu)]), bc, exact=True)
        if p.degree == 0 and p.coeffs == [0]:
            return  # nu = 1 with both ends pinned: P vanishes identically
        assert _lead_and_degree(bc, nu, exact=True) == (p.leading(), p.degree)
        lead, degree = _lead_and_degree(bc, nu)
        assert degree == p.degree and lead == float(p.leading())


class TestPeriodicCharFnTwist:
    @pytest.mark.parametrize("tau", [0.0, -0.25, 1.5, math.nan])
    def test_twist_outside_range_raises(self, tau):
        with pytest.raises(ValueError):
            periodic_char_fn(Potential.zeros(4), tau, 0.5)


def old_symmetric_factor_check(v1, v2, v3=None) -> bool:
    """The synthetic-division route that the remainder theorem replaced."""
    if v3 is None:
        v3 = v1
    rem = list(char_poly(Potential((v1, v2, v3)), dirichlet(), exact=True).coeffs)
    div = CharPoly([-(_exactify(v1) + 2), 1], backend="exact").coeffs
    for k in range(len(rem) - len(div), -1, -1):
        q = Fraction(rem[k + len(div) - 1]) / Fraction(div[-1])
        for i, c in enumerate(div):
            rem[k + i] = rem[k + i] - q * c
    return all(c == 0 for c in rem[:len(div) - 1])


class TestSymmetricFactorCheck:
    def test_matches_synthetic_division(self):
        rng = random.Random(7)
        draws = [lambda: rng.randint(-4, 4),
                 lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
                 lambda: rng.choice([0.5, -1.25, 0.1, 0.3, 1e-3, -2.0])]
        found = set()
        for _ in range(300):
            v1, v2 = (rng.choice(draws)() for _ in range(2))
            v3 = rng.choice([None, v1, rng.choice(draws)()])
            got = symmetric_factor_check(v1, v2, v3)
            assert got == old_symmetric_factor_check(v1, v2, v3)
            found.add(got)
        assert found == {True, False}

"""CharPoly arithmetic against generic coefficient loops.

The reference below builds every operand and result with the public
constructor, coerces a scalar to a one-term polynomial and runs one plain
loop per operation (subtraction as addition of the negation).  The one
implementation in ``core.CharPoly`` must give the same ``repr`` of the
coefficients and the same backend, bit for bit, on both backends, mixed
backends and scalars on either side (Python, Fraction, numpy and bool), or
raise the same exception type.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gylat.core import CharPoly


def _coerce(p: CharPoly, other) -> CharPoly:
    if isinstance(other, CharPoly):
        return other
    backend = "float" if isinstance(other, (float, np.floating)) else p.backend
    return CharPoly([other], backend=backend)


def _join(a: CharPoly, b: CharPoly) -> str:
    return "exact" if a.backend == b.backend == "exact" else "float"


def ref_add(p: CharPoly, other) -> CharPoly:
    other = _coerce(p, other)
    a, b = p.coeffs, other.coeffs
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for k, c in enumerate(b):
        out[k] = out[k] + c
    return CharPoly(out, backend=_join(p, other))


def ref_neg(p: CharPoly) -> CharPoly:
    return CharPoly([-c for c in p.coeffs], backend=p.backend)


def ref_sub(p: CharPoly, other) -> CharPoly:
    return ref_add(p, ref_neg(_coerce(p, other)))


def ref_rsub(p: CharPoly, other) -> CharPoly:
    return ref_add(_coerce(p, other), ref_neg(p))


def ref_mul(p: CharPoly, other) -> CharPoly:
    other = _coerce(p, other)
    a, b = p.coeffs, other.coeffs
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] = out[i + j] + ca * cb
    return CharPoly(out, backend=_join(p, other))


def _outcome(fn, *args):
    try:
        r = fn(*args)
    except (ArithmeticError, TypeError, ValueError) as exc:
        return type(exc).__name__
    return repr(r.coeffs), r.backend


ints = st.one_of(st.integers(-4, 4), st.integers(-2 ** 80, 2 ** 80))
fractions = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 4))  # some reduce to ints
floats = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.0, 1e300, 5e-324, math.inf,
                                    -math.inf, math.nan]),
                   st.floats(allow_nan=False, allow_infinity=False))
exact_coeffs = st.lists(st.one_of(ints, fractions, st.just(0)), max_size=6)
float_coeffs = st.lists(floats, max_size=6)


@st.composite
def polys(draw):
    coeffs = draw(st.one_of(exact_coeffs, float_coeffs))
    if draw(st.booleans()):  # a zero top coefficient for the constructor to trim
        coeffs = coeffs + [draw(st.sampled_from([0, 0.0, -0.0, Fraction(0)]))]
    backend = draw(st.sampled_from([None, "float"]))
    return CharPoly(coeffs, backend=backend)


scalars = st.one_of(ints, fractions, floats, floats.map(np.float64),
                    st.integers(-2 ** 62, 2 ** 62).map(np.int64),
                    st.floats(width=32).map(np.float32),
                    st.integers(-2 ** 31, 2 ** 31 - 1).map(np.int32), st.booleans())

OPS = [(operator.add, ref_add, ref_add), (operator.sub, ref_sub, ref_rsub),
       (operator.mul, ref_mul, ref_mul)]


@settings(max_examples=400)
@given(polys(), polys())
def test_poly_op_poly(p, q):
    for op, ref, _ in OPS:
        assert _outcome(op, p, q) == _outcome(ref, p, q)
    assert _outcome(operator.neg, p) == _outcome(ref_neg, p)


@settings(max_examples=400)
@given(polys(), scalars)
def test_poly_op_scalar(p, s):
    for op, ref, rref in OPS:
        assert _outcome(op, p, s) == _outcome(ref, p, s)
        assert _outcome(op, s, p) == _outcome(rref, p, s)


@settings(max_examples=200)
@given(st.lists(st.one_of(ints, fractions), min_size=1, max_size=4),
       st.lists(floats, min_size=1, max_size=4), polys())
def test_degree_one_factor(exact, floating, q):
    """GY weights v + 2 - lambda on the left of a product, zero constant terms included."""
    for w in (CharPoly([exact[0], -1]), CharPoly([0, exact[-1] or 1]),
              CharPoly([floating[0], -1.0]), CharPoly([-0.0, floating[-1] or 1.0])):
        assert _outcome(operator.mul, w, q) == _outcome(ref_mul, w, q)
        assert _outcome(operator.mul, q, w) == _outcome(ref_mul, q, w)

"""Golden values of the polynomial routes, coefficient bit for coefficient bit.

The CLI never prints a CharPoly, so the golden CLI bytes cannot see a changed
coefficient.  This test builds a seeded dump of ``char_poly`` (float and
exact, every boundary condition, int, float, Fraction and zero potentials, up
to nu = 200 in one group and at nu 120-400 in another),
the Chebyshev polynomials and the perturbation series (up to nu = 12 in one
group and at the benchmark's sizes, nu 20-100, in another), one line per value
holding its ``repr`` (for a CharPoly, that of its coefficient list and its
backend), and compares the sha256 of each group with the recorded one.  A
change that alters a value on purpose re-records with

    PYTHONPATH=src python tests/test_golden_poly.py

and lists the changed groups in CHANGES.md; ``--lines GROUP`` prints one
group's lines instead, so that a re-record can be diffed against the lines of
the parent commit entry by entry.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
from fractions import Fraction

import pytest

from gylat import (CharPoly, Potential, char_poly, cheb_matrix_power, cheb_t, cheb_t_poly,
                   cheb_u, cheb_u_poly, cheb_v, cheb_v_poly, dirichlet, dirichlet_det_series,
                   dirichlet_trace_series, neumann, neumann_det_series, neumann_trace_series,
                   periodic, robin, twisted)
from gylat.perturbation import trace_series_by_tuples

BCS = [dirichlet(), neumann(), robin(0.5, 1.5), robin(-1, 0.7), periodic(), twisted(0.3),
       twisted(0.5)]
KINDS = ("int", "float", "fraction", "zero")
CHAR_POLY_NUS = [*range(61), 200]


def _line(value) -> str:
    if isinstance(value, CharPoly):
        return f"{value.coeffs!r} {value.backend}"
    return repr(value)


def _potential(kind: str, nu: int, rng: random.Random) -> Potential:
    """A seeded potential; the int and float ones hit -2, the weight-0 site."""
    if kind == "int":
        return Potential([rng.randint(-3, 3) for _ in range(nu)])
    if kind == "float":
        return Potential([-2.0 if rng.random() < 0.1 else rng.uniform(-1.0, 1.5)
                          for _ in range(nu)])
    if kind == "fraction":
        return Potential([Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(nu)])
    return Potential.zeros(nu)


def _char_polys():
    rng = random.Random(13)
    for nu in CHAR_POLY_NUS:
        for i, bc in enumerate(BCS):
            if bc.is_circle and nu < 1:
                continue
            pot = _potential(KINDS[(nu + i) % len(KINDS)], nu, rng)
            for exact in (False, True):
                yield char_poly(pot, bc, exact=exact)


def _char_polys_large():
    """The sizes past ``CHAR_POLY_NUS``: float at nu 120 and 400 on every kind of
    potential, exact at nu 300 on int potentials, under every condition."""
    rng = random.Random(23)
    for nu in (120, 400):
        for bc in BCS:
            for kind in KINDS:
                yield char_poly(_potential(kind, nu, rng), bc)
    for bc in BCS:
        yield char_poly(_potential("int", 300, rng), bc, exact=True)


def _chebyshev():
    for n in range(41):
        yield from (cheb_u_poly(n), cheb_v_poly(n), cheb_t_poly(n))
        for exact in (False, True):
            lam = CharPoly.lam(exact)
            yield from (cheb_u(n, lam), cheb_v(n, lam), cheb_t(n, lam))
            yield cheb_matrix_power(n, 1 - lam * Fraction(1, 2)).det()


def _series():
    rng = random.Random(17)
    for nu in range(13):
        for kind in KINDS:
            pot = _potential(kind, nu, rng)
            for order in sorted({0, min(1, nu), min(2, nu), nu}):
                yield dirichlet_det_series(pot, order)
                yield neumann_det_series(pot, order)
                for exact in (False, True):
                    yield dirichlet_trace_series(pot, order, exact=exact)
                    yield neumann_trace_series(pot, order, exact=exact)
                if nu <= 5:
                    yield trace_series_by_tuples(pot, order)
                    yield trace_series_by_tuples(pot, order, neumann=True)


def _series_large():
    """The series at the benchmark's sizes: the trace series, float and exact, at nu
    20-40 (exact on float potentials at nu 20 only), and the determinant series at nu
    50-100, every kind of potential, at orders 0, 1, 2, nu // 2 and nu."""
    rng = random.Random(29)
    for nu in (20, 31, 40):
        for kind in KINDS:
            pot = _potential(kind, nu, rng)
            for order in (0, 1, 2, nu // 2, nu):
                for exact in (False, True)[:1 + (kind != "float" or nu == 20)]:
                    yield dirichlet_trace_series(pot, order, exact=exact)
                    yield neumann_trace_series(pot, order, exact=exact)
    for nu in (50, 73, 100):
        for kind in KINDS:
            pot = _potential(kind, nu, rng)
            for order in (0, 1, 2, nu // 2, nu):
                yield dirichlet_det_series(pot, order)
                yield neumann_det_series(pot, order)


GROUPS = {"char_poly": _char_polys, "char_poly_large": _char_polys_large,
          "chebyshev": _chebyshev, "series": _series, "series_large": _series_large}

RECORDED = {
    "char_poly": "f0c503e1f9424e10988506bf6019dfc3558348e7d9817f7e2818bc7c4c87ee35",
    "char_poly_large": "09fc9c508f4f3ff7afbeb3941ff4e06aaf2fca19c4889a28ff2bee29faf25e89",
    "chebyshev": "fc79b23d3ee4844ec306d8ba38c6b0e4d30983afcd2128c20f0d27422e80a6b1",
    "series": "396b0a401ad16e77f11608d306ab8f7c921b51ee8f6bdde1ca6a48c4ed1011ab",
    "series_large": "39bb6a073f5d61e18acd2f952b54a730bbe275dd6771b3a71bb918b53e1ed4b6",
}


def lines(name: str) -> str:
    return "\n".join(map(_line, GROUPS[name]()))


def digest(name: str) -> str:
    return hashlib.sha256(lines(name).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_polynomial_values(name):
    assert digest(name) == RECORDED[name]


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Print every group's digest, or one group's lines.")
    parser.add_argument("--lines", choices=sorted(GROUPS), metavar="GROUP",
                        help="print this group's lines, one value per line")
    args = parser.parse_args()
    if args.lines:
        print(lines(args.lines))
    else:
        print(json.dumps({name: digest(name) for name in GROUPS}, indent=4))

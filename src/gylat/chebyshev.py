"""Chebyshev polynomials of the first (T), second (U) and third (V) kinds.

These are the free propagators of the lattice problem: U_n solves the free
recurrence with the Dirichlet seed, V_n = U_n - U_{n-1} with the Neumann
seed, and the n-th power of the driving matrix C(x) = [[0, 1], [-1, 2x]]
collects them all,

    C^n = [[-U_{n-2}, U_{n-1}], [-U_{n-1}, U_n]].

Everything is evaluated by the three-term recurrence

    P_{n+1} = 2x P_n - P_{n-1}

seeded appropriately (U_{-2} = -1, U_{-1} = 0), never by sinh/sin ratios,
so one code path covers the oscillatory (|x| < 1), boundary (|x| = 1) and
hyperbolic (|x| > 1) regimes.  That recurrence is the lattice sweep of
:mod:`gylat.transfer` with the constant weight 2x (2 - lambda for the
polynomials in lambda), so it runs on the same kernel.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat

from .core import CharPoly, Mat2
from .transfer import _sweep


def cheb_u(n: int, x):
    """Chebyshev U_n(x) by recurrence; n >= -2 with U_{-2} = -1, U_{-1} = 0.

    Works on any scalar supporting ring arithmetic (float, int, Fraction,
    CharPoly).
    """
    if n < -2:
        raise ValueError(f"cheb_u needs n >= -2, got {n}")
    zero = x - x
    return (zero - 1, zero)[n + 2] if n < 0 else cheb_u_pair(n, x)[1]


def cheb_u_pair(n: int, x):
    """(U_{n-1}(x), U_n(x)) in one recurrence sweep; n >= 0."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    zero = x - x
    return _sweep(repeat(2 * x, n), zero, zero + 1)


def cheb_u_path(n: int, x) -> list:
    """[U_{-2}(x), U_{-1}(x), U_0(x), ..., U_n(x)] from one recurrence sweep; n >= -2."""
    if n < -2:
        raise ValueError(f"cheb_u_path needs n >= -2, got {n}")
    zero = x - x
    path = [zero - 1, zero]
    _sweep(repeat(2 * x, n + 1), path[0], path[1], path)
    return path[:n + 3]


def cheb_v(n: int, x):
    """Third-kind V_n = U_n - U_{n-1}; equals cosh((2n+1)g)/cosh(g) at x = cosh 2g."""
    if n < 0:
        raise ValueError(f"cheb_v needs n >= 0, got {n}")
    um1, un = cheb_u_pair(n, x)
    return un - um1


def cheb_t(n: int, x):
    """First-kind T_n = (U_n - U_{n-2})/2; tr C^n = 2 T_n."""
    if n < 0:
        raise ValueError(f"cheb_t needs n >= 0, got {n}")
    if n == 0:
        return (x - x) + 1
    um1, un = cheb_u_pair(n, x)
    unm2 = 2 * x * um1 - un  # one downward recurrence step
    diff = un - unm2
    if isinstance(diff, int):
        return diff // 2 if diff % 2 == 0 else Fraction(diff, 2)
    return diff * Fraction(1, 2)  # 0.5 on floats, exact on an exact CharPoly


def cheb_matrix_power(n: int, x) -> Mat2:
    """C(x)^n with C = [[0, 1], [-1, 2x]]; the empty product is the identity."""
    if n < 0:
        raise ValueError(f"cheb_matrix_power needs n >= 0, got {n}")
    um1, un = cheb_u_pair(n, x)
    unm2 = 2 * x * um1 - un if n else (x - x) - 1  # U_{-2} = -1
    return Mat2(-unm2, um1, -um1, un)


def _poly_path(n: int, seed_prev: int) -> list[CharPoly]:
    """[P_0, ..., P_n] of P_{k+1} = (2 - lambda) P_k - P_{k-1}, i.e. x = 1 - lambda/2,
    from one sweep with P_0 = 1 and P_{-1} = ``seed_prev``; n >= 0."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    two_x = CharPoly([2, -1], backend="exact")
    path = [CharPoly([1], backend="exact")]
    _sweep(repeat(two_x, n), CharPoly([seed_prev], backend="exact"), path[0], path)
    return path


def cheb_u_poly(n: int) -> CharPoly:
    """Exact integer coefficients of U_n(1 - lambda/2) in lambda; n >= 0.

    2x = 2 - lambda has integer coefficients, so the recurrence stays in
    integer arithmetic throughout; Python ints cannot overflow.
    """
    return cheb_u_poly_path(n)[-1]


def cheb_v_poly(n: int) -> CharPoly:
    """Exact coefficients of V_n(1 - lambda/2); V_{-1} = 1 seeds the recurrence."""
    return cheb_v_poly_path(n)[-1]


def cheb_u_poly_path(n: int) -> list[CharPoly]:
    """[cheb_u_poly(0), ..., cheb_u_poly(n)] from one sweep; n >= 0."""
    return _poly_path(n, 0)


def cheb_v_poly_path(n: int) -> list[CharPoly]:
    """[cheb_v_poly(0), ..., cheb_v_poly(n)] from one sweep; n >= 0."""
    return _poly_path(n, 1)


def cheb_t_poly(n: int) -> CharPoly:
    """Exact coefficients of T_n(1 - lambda/2); T_0 = 1, T_1 = x."""
    return cheb_t(n, CharPoly([1, Fraction(-1, 2)], backend="exact"))


"""Chebyshev-propagator series for the characteristic polynomial.

Expanding the vertex-ordered product over insertions of the potential turns
the Dirichlet matrix element into a finite, exact perturbation series with
Chebyshev polynomials as free propagators:

    P_D = U_nu + sum_{j1} U_{nu-j1} v_{j1} U_{j1-1}
              + sum_{j1>j2} U_{nu-j1} v_{j1} U_{j1-j2-1} v_{j2} U_{j2-1} + ...

(arguments 1 - lambda/2 throughout; the all-sites term is v_1...v_nu).  The
Neumann series is identical except the end propagators are third-kind
polynomials V and the zeroth-order term is V_nu - V_{nu-1}.  Setting
lambda = 0 (U_n -> n+1, V_n -> 1) gives the determinant series.

The order-k term is the e^k part of P when the potential is scaled to e v,
so the whole series is ``char_poly``'s read (:func:`gylat.transfer._terminal`)
graded by e: one GY sweep over the weights (2 - lambda) + e v_j from the
Dirichlet or Neumann end vectors, each y(j) truncated above the requested
order, one int per state when exact and one float64 array otherwise (a
float outside the float range raises OverflowError).  The determinant series
is the same read at lambda = 0.
The vertex-tuple enumeration :func:`trace_series_by_tuples` shares no code
with the sweep and stays as the independent reference for small nu.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .chebyshev import cheb_u_poly, cheb_u_poly_path, cheb_v_poly_path
from .core import CharPoly, Potential, _exactify, dirichlet, neumann
from .transfer import _terminal, char_poly

FULL_ORDER = None  # sentinel: include every order up to nu

_BCS = (dirichlet(), neumann())  # the series' end vectors, by the neumann flag


def _resolve_order(potential: Potential, order) -> int:
    if order is FULL_ORDER:
        return potential.nu
    order = int(order)
    if order < 0 or order > potential.nu:
        raise ValueError(f"order must be in 0..nu={potential.nu} or FULL_ORDER")
    return order


def _trace_series(potential: Potential, order, exact: bool | None, neumann: bool) -> CharPoly:
    order = _resolve_order(potential, order)
    if exact is None:  # the entries' own backend; no entries at all count as exact
        exact = potential._exact is not None or not potential.nu
    return _terminal(potential, _BCS[neumann], exact, None, order)


def dirichlet_trace_series(potential: Potential, order=FULL_ORDER,
                           exact: bool | None = None) -> CharPoly:
    """Dirichlet characteristic polynomial, truncated at ``order`` insertions.

    At full order this equals the transfer-matrix char_poly identically
    (coefficient-exact in the exact backend).  Floats out of range raise OverflowError.
    """
    return _trace_series(potential, order, exact, neumann=False)


def neumann_trace_series(potential: Potential, order=FULL_ORDER,
                         exact: bool | None = None) -> CharPoly:
    """Neumann characteristic polynomial; end propagators are third kind.

    Computed as the terminal difference y(nu+1) - y(nu) of the Neumann-seed
    series, which reproduces the V-ended vertex sums.  Floats out of range raise OverflowError.
    """
    return _trace_series(potential, order, exact, neumann=True)


def _det_series(potential: Potential, order, neumann: bool):
    """Order-by-order determinant at lambda = 0, summed up to ``order``: an int from int
    insertions or none, else a Fraction or a float (finite, or OverflowError) as they are."""
    order = _resolve_order(potential, order)
    nu, entries = potential.nu, potential._exact  # the exact entries, or None
    if not nu:
        return 1  # the empty product (the Neumann seed would give y(1) - y(0) = 0)
    if not order or potential.is_free():
        return 0 if neumann else nu + 1  # the free determinant, the order-0 term
    p = _terminal(potential, _BCS[neumann], entries is not None, 0, order).coeffs[0]
    return Fraction(p) if entries and any(v and isinstance(v, Fraction) for v in entries) else p


def dirichlet_det_series(potential: Potential, order=FULL_ORDER):
    """Dirichlet determinant series: (nu+1) + sum (nu-j1+1) j1 v_{j1} + ...

    At full order this is the dimensionless Dirichlet determinant,
    (-1)^nu P(0) / leading.
    """
    return _det_series(potential, order, neumann=False)


def neumann_det_series(potential: Potential, order=FULL_ORDER):
    """Neumann determinant series: sum v_{j1} + sum v_{j1}(j1-j2)v_{j2} + ...

    Vanishes identically at v = 0 (the uniform zero mode).
    """
    return _det_series(potential, order, neumann=True)


def trace_series_by_tuples(potential: Potential, order=FULL_ORDER,
                           neumann: bool = False) -> CharPoly:
    """Direct enumeration of strictly decreasing vertex tuples.

    The paper's vertex-tuple formula, evaluated term by term.  It is the one
    route to the polynomial that does not run on the GY sweep shared by
    char_poly and the series functions, so the tests keep it as their
    independent reference.  Exponential in nu; meant for nu <= 6.
    """
    nu = potential.nu
    order = _resolve_order(potential, order)
    exact = potential._exact is not None or not nu  # no entries count as exact
    u = [p if exact else p.to_float() for p in cheb_u_poly_path(nu)]
    v = [p if exact else p.to_float() for p in cheb_v_poly_path(nu)]
    end = v if neumann else u
    total = (v[nu] - v[nu - 1] if nu >= 1 else CharPoly([0])) if neumann else u[nu]
    vals = potential.values
    for k in range(1, order + 1):
        for tup in combinations(range(nu, 0, -1), k):  # j1 > j2 > ... > jk
            weight = end[nu - tup[0]]
            for a, b in zip(tup, tup[1:]):
                weight = weight * u[a - b - 1]
            weight = weight * end[tup[-1] - 1]
            coeff = 1
            for j in tup:
                coeff = coeff * vals[j - 1]
            total = total + coeff * weight
    return total


@dataclass(frozen=True)
class DeltaPotentialResult:
    """Single-site potential v at ``site``: polynomial, determinant, zero-mode v."""

    char_poly: CharPoly
    det: float
    zero_mode_v: float


def delta_potential(nu: int, site: int, v) -> DeltaPotentialResult:
    """Dirichlet closed forms for the potential v * delta_{j,site}.

        P(lambda)   = U_nu + v U_{nu-site} U_{site-1}
        Det         = nu + 1 + v (nu - site + 1) site
        zero mode at v = -(nu+1) / ((nu - site + 1) site)

    Site 2 reduces to P = U_nu + v (2 - lambda) U_{nu-2} and
    Det = nu + 1 + 2 v (nu - 1).
    """
    if not 1 <= site <= nu:
        raise ValueError(f"site {site} outside 1..{nu}")
    exact = isinstance(v, (int, Fraction))
    poly = cheb_u_poly(nu) + v * (cheb_u_poly(nu - site) * cheb_u_poly(site - 1))
    if not exact:
        poly = poly.to_float()
    weight = (nu - site + 1) * site
    det = nu + 1 + v * weight
    zero_mode_v = -Fraction(nu + 1, weight) if exact else -(nu + 1) / weight
    return DeltaPotentialResult(poly, det, zero_mode_v)


def symmetric_factor_check(v1, v2, v3=None) -> bool:
    """Does (lambda - v1 - 2) divide the nu = 3 Dirichlet polynomial?

    The potential is (v1, v2, v3) with v3 defaulting to v1; the linear
    factor is present exactly when the potential is symmetric (v3 = v1).
    Decided by the remainder theorem: the exact P(v1 + 2) is zero.
    """
    if v3 is None:
        v3 = v1
    # the root from the exactified v1, matching the sweep's own lift of the
    # potential (computing v1 + 2 in float first would round)
    return char_poly(Potential((v1, v2, v3)), dirichlet(), exact=True)(_exactify(v1) + 2) == 0

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

The series is generated by iterating the summed propagation equation

    y(j+1) = F(j) + sum_{j1<=j} U_{j-j1} v_{j1} y(j1),

order by order in v (F is the free solution fixed by the seed), which costs
O(nu^2 * order) polynomial operations instead of enumerating vertex tuples;
the tuple enumeration is retained as a second oracle for small nu.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .chebyshev import cheb_u_poly, cheb_v_poly
from .core import CharPoly, Potential, _exactify

FULL_ORDER = None  # sentinel: include every order up to nu


def _is_exact_potential(potential: Potential) -> bool:
    return all(isinstance(v, (int, Fraction)) for v in potential.values)


def _exact_or_not(potential: Potential, exact: bool | None) -> tuple[Potential, bool]:
    if exact is None:
        exact = _is_exact_potential(potential)
    if exact and not _is_exact_potential(potential):
        potential = Potential(tuple(_exactify(v) for v in potential))
    return potential, exact


def _orderwise_terminals(potential: Potential, order: int, free: list[CharPoly],
                         u: list[CharPoly], seed0) -> list[list[CharPoly]]:
    """y^k(j) for k = 0..order, j = 0..nu+1, for the seed behind ``free``.

    free[j] is the order-0 value of y(j+1); seed0 is y(0); u[m] is
    U_m(1 - lambda/2).  Returns terms[k][j] = order-k part of y(j).
    """
    nu = potential.nu
    vals = potential.values
    zero = free[0] - free[0]
    # terms[k][j]: j runs 0..nu+1
    terms: list[list[CharPoly]] = [[zero] * (nu + 2) for _ in range(order + 1)]
    terms[0][0] = zero + seed0
    for j in range(nu + 1):
        terms[0][j + 1] = free[j]
    sites = [j1 for j1 in range(1, nu + 1) if vals[j1 - 1] != 0]
    for k in range(1, order + 1):
        prev = terms[k - 1]
        for j in range(nu + 1):
            acc = zero
            for j1 in sites:
                if j1 > j:
                    break
                acc = acc + (u[j - j1] * vals[j1 - 1]) * prev[j1]
            terms[k][j + 1] = acc
    return terms


def _resolve_order(potential: Potential, order) -> int:
    if order is FULL_ORDER or order == "full":
        return potential.nu
    order = int(order)
    if order < 0 or order > potential.nu:
        raise ValueError(f"order must be in 0..nu={potential.nu} or full")
    return order


def dirichlet_trace_series(potential: Potential, order=FULL_ORDER,
                           exact: bool | None = None) -> CharPoly:
    """Dirichlet characteristic polynomial, truncated at ``order`` insertions.

    At full order this equals the transfer-matrix char_poly identically
    (coefficient-exact in the exact backend).
    """
    nu = potential.nu
    order = _resolve_order(potential, order)
    potential, exact = _exact_or_not(potential, exact)
    u = [cheb_u_poly(m) if exact else cheb_u_poly(m).to_float() for m in range(nu + 1)]
    free = u  # Dirichlet seed: y(j+1) = U_j, y(0) = 0
    terms = _orderwise_terminals(potential, order, free, u, seed0=0)
    total = terms[0][nu + 1]
    for k in range(1, order + 1):
        total = total + terms[k][nu + 1]
    return total


def neumann_trace_series(potential: Potential, order=FULL_ORDER,
                         exact: bool | None = None) -> CharPoly:
    """Neumann characteristic polynomial; end propagators are third kind.

    Computed as the terminal difference y(nu+1) - y(nu) of the Neumann-seed
    series, which reproduces the V-ended vertex sums.
    """
    nu = potential.nu
    order = _resolve_order(potential, order)
    potential, exact = _exact_or_not(potential, exact)
    u = [cheb_u_poly(m) if exact else cheb_u_poly(m).to_float() for m in range(nu + 1)]
    v = [cheb_v_poly(m) if exact else cheb_v_poly(m).to_float() for m in range(nu + 1)]
    terms = _orderwise_terminals(potential, order, v, u, seed0=1)
    total = terms[0][nu + 1] - terms[0][nu]
    for k in range(1, order + 1):
        total = total + (terms[k][nu + 1] - terms[k][nu])
    return total


def _det_series(potential: Potential, order: int, neumann: bool):
    """Order-by-order determinant at lambda = 0, where U_m -> m+1, V_m -> 1."""
    nu = potential.nu
    u = [m + 1 for m in range(nu + 1)]
    # y(0) is read only at nu = 0, where seed 0 keeps the empty product 1
    terms = _orderwise_terminals(potential, order, [1] * (nu + 1) if neumann else u, u, seed0=0)
    if neumann:
        return [t[nu + 1] - t[nu] for t in terms]
    return [t[nu + 1] for t in terms]


def dirichlet_det_series(potential: Potential, order=FULL_ORDER):
    """Dirichlet determinant series: (nu+1) + sum (nu-j1+1) j1 v_{j1} + ...

    At full order this is the dimensionless Dirichlet determinant,
    (-1)^nu P(0) / leading.
    """
    order = _resolve_order(potential, order)
    return sum(_det_series(potential, order, neumann=False))


def neumann_det_series(potential: Potential, order=FULL_ORDER):
    """Neumann determinant series: sum v_{j1} + sum v_{j1}(j1-j2)v_{j2} + ...

    Vanishes identically at v = 0 (the uniform zero mode).
    """
    order = _resolve_order(potential, order)
    return sum(_det_series(potential, order, neumann=True))


def trace_series_by_tuples(potential: Potential, order=FULL_ORDER,
                           neumann: bool = False) -> CharPoly:
    """Second oracle: direct enumeration of strictly decreasing vertex tuples.

    Exponential in nu; intended for nu <= 6 cross-checks of the iterated
    series.
    """
    nu = potential.nu
    order = _resolve_order(potential, order)
    exact = _is_exact_potential(potential)
    u = [cheb_u_poly(m) if exact else cheb_u_poly(m).to_float() for m in range(nu + 1)]
    v = [cheb_v_poly(m) if exact else cheb_v_poly(m).to_float() for m in range(nu + 1)]
    end = v if neumann else u
    if neumann:
        total = v[nu] - v[nu - 1] if nu >= 1 else CharPoly([0])
    else:
        total = u[nu]
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
    Decided by exact synthetic division, remainder identically zero.
    """
    from .core import dirichlet
    from .transfer import char_poly

    if v3 is None:
        v3 = v1
    pot = Potential((v1, v2, v3))
    poly = char_poly(pot, dirichlet(), exact=True)
    # build the root from the exactified value, matching the polynomial's
    # own lift of v1 (computing -v1 - 2 in float first would round)
    root = _exactify(v1) + 2
    factor = CharPoly([-root, 1], backend="exact")
    _, rem = poly.divmod(factor)
    return rem.is_zero()

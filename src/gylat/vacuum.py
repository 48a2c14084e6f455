"""Lattice Casimir (vacuum) energies and their universal constants.

The vacuum energy is half the sum of the physical mode frequencies,
E = (1/2) sum_n sqrt(lambda_bar_n); for the complexified twisted field the
complex modes carry a factor of two, E = sum_n sqrt(lambda_bar_n).  In the
massless free case the finite sine sums collapse to cotangents, e.g. on the
interval

    E_D = (1/h) sum_{n=1}^{nu} sin(pi n / (2(nu+1)))
        = (1/(2h)) (cot(pi/(4(nu+1))) - 1)
        = 2L/(pi h^2) - 1/(2h) - pi/(24 L) + O(h^2),

whose h-independent term is the zeta-regularised universal value.  The
circle forms (1/h) cot(pi/(2 nu)) etc. reduce to the cot(h/4) expressions
on the unit circle, where h = 2 pi / nu.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING

from .core import (
    DIRICHLET,
    NEUMANN,
    PERIODIC,
    ROBIN,
    TWISTED,
    BoundaryCondition,
    LatticeSpec,
    Potential,
    _check_lattice,
    _check_topology,
)
from .closedform import free_eigenvalues
from .spectrum import _interval_diagonal

if TYPE_CHECKING:  # annotations only: numpy loads in the functions that use arrays
    import numpy as np


def _mode_weight(bc: BoundaryCondition) -> float:
    # Twisted fields are complex; complexification doubles the half-sum.
    return 1.0 if bc.kind == TWISTED else 0.5


# The contour integral of :func:`_interval_root_sum` is a trapezoid rule in
# x = log u.  Its integrand is analytic in the strip |Im x| < pi/2, so the
# rule's relative error is about exp(-pi^2 / step), 7e-18 at step 0.25; the
# range ends where a bound on each tail falls below _CONTOUR_TAIL of the sum.
_CONTOUR_STEP = 0.25
_CONTOUR_TAIL = 1e-16
# Sites whose terms of g are held, and summed pairwise, as one block.
_CONTOUR_BLOCK = 256
# An eigenvalue above -_ZERO_MODE_FLOOR times the spectrum's scale is a
# rounded zero mode and adds sqrt(0); below it, the energy is undefined.
_ZERO_MODE_FLOOR = 1e-12


def vacuum_energy(potential: Potential | None, bc: BoundaryCondition,
                  spec: LatticeSpec) -> float:
    """(1/2) sum sqrt(lambda_bar) (doubled for complexified twisted fields).

    Routes:
    - a free (or None) potential sums the closed-form massless spectrum, so
      mode sums stay cheap up to nu ~ 10^4; free Robin has none;
    - interval conditions with any other potential (a mass included), and
      free Robin, take the contour integral of :func:`_interval_root_sum`,
      which computes no eigenvalue and has no size limit;
    - circle conditions with any other potential sum the eigenvalue
      oracle's spectrum (nu <= 800).
    Negative eigenvalues raise ValueError: no analytic continuation is
    attempted; so does a ``spec`` that does not fit the potential and ``bc``.
    """
    if potential is None:
        potential = Potential.zeros(spec.nu)
    _check_lattice(potential, bc, spec)
    if potential.is_free() and bc.kind != ROBIN:
        lams = free_eigenvalues(bc, spec).lambdas
    elif bc.is_interval:
        return _mode_weight(bc) * (_interval_root_sum(potential, bc) / spec.h)
    else:
        from .spectrum import oracle_spectrum
        lams = oracle_spectrum(potential, bc).lambdas
    hh = spec.h * spec.h
    floor = -_ZERO_MODE_FLOOR * max(abs(x) for x in lams) if lams else 0.0
    roots = []
    for lam in lams:
        if lam < floor:
            raise ValueError(f"negative eigenvalue {lam / hh}: vacuum energy undefined")
        roots.append(math.sqrt(max(lam, 0.0) / hh))
    return _mode_weight(bc) * math.fsum(roots)


def _interval_root_sum(potential: Potential, bc: BoundaryCondition) -> float:
    """sum_n sqrt(lambda_n) over the dimensionless interval operator A, by a contour integral.

    For A >= 0, sum_n sqrt(lambda_n) = (2/pi) int_0^inf g(u) du with
    g(u) = tr A (A + u^2)^-1 = sum_n lambda_n / (lambda_n + u^2) (Kirsten &
    McKane, Ann. Phys. 308 (2003) 502, here on the lattice).  g at t = u^2
    is the Riccati sweep of the pivots r_j of A + t and of
    e_j = r_j - t dr_j/dt, which has no cancellation: with q = 1/r_(j-1)
    (0 at the first site),

        r_j = (d_j + t) - q,    e_j = d_j - q (2 - e_(j-1) q),    g = sum_j e_j / r_j,

    where e_(j-1) q is the previous term of g.

    One numpy vector over all quadrature nodes advances site by site.  An
    extra node at t = s, with s = _ZERO_MODE_FLOOR times the Gershgorin bound
    max |d_j| + 2 on |A|, counts the negative pivots of A + s, the
    eigenvalues of A below -s (Sylvester), and any raises ValueError; one
    above -s is a zero mode that rounding may have left just below 0.  Only
    the last pivot of A >= 0 can vanish, on a zero mode, and by interlacing
    each exact term e_j / r_j lies in [0, 1], so the last site's terms are
    clipped to [0, 1]: a 0/0 where rounding has lost t counts 0, a zero
    mode's limit.  The integral is the
    trapezoid rule in x = log u; g <= nu and g <= tr A / u^2 bound the tails
    beyond the range against sqrt(tr A) <= sum_n sqrt(lambda_n).

    A is :func:`spectrum._interval_diagonal`'s operator, so a Robin end
    with alpha (or beta) = -1, which pins y(1) = 0 (or y(nu) = 0), leaves
    the matrix of the other sites.
    """
    import numpy as np
    d = _interval_diagonal(potential, bc)
    n = len(d)
    if n == 0:
        return 0.0
    size = math.sqrt(max(float(np.sum(d)), 1e-300))  # sqrt(tr A)
    x_lo = math.log(_CONTOUR_TAIL * size / n)
    count = math.ceil((math.log(size / _CONTOUR_TAIL) - x_lo) / _CONTOUR_STEP) + 1
    u = np.exp(x_lo + _CONTOUR_STEP * np.arange(count))
    t = np.append(u * u, _ZERO_MODE_FLOOR * (float(np.max(np.abs(d))) + 2.0))
    q, e, r = np.zeros_like(t), np.empty_like(t), np.empty_like(t)
    terms = np.zeros((min(n, _CONTOUR_BLOCK), len(t)))  # terms[i] is site i of a block
    sums = np.empty((-(-n // len(terms)), len(t)))
    prev = terms[0]  # e_(j-1) q is the previous term e_(j-1) / r_(j-1); 0 at the start
    negative = 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for b, start in enumerate(range(0, n, len(terms))):
            block = d[start:start + len(terms)].tolist()
            for i, dj in enumerate(block):
                np.add(t, dj, out=r)
                r -= q
                np.subtract(2.0, prev, out=e)
                e *= q
                np.subtract(dj, e, out=e)
                prev = terms[i]
                np.divide(e, r, out=prev)
                np.divide(1.0, r, out=q)
                negative += r[-1] < 0.0
            if start + len(block) == n:  # the last site: NaN (0/0) becomes 0
                np.fmin(np.fmax(prev, 0.0, out=prev), 1.0, out=prev)
            prev = prev.copy()  # the sum below overwrites the rows
            sums[b] = _pairwise_rows(terms[:len(block)])
    if negative:
        raise ValueError(f"{negative} negative eigenvalue(s): vacuum energy undefined")
    g = _pairwise_rows(sums)[:-1]
    return 2.0 / math.pi * _CONTOUR_STEP * float(np.dot(g, u))


def _pairwise_rows(a: np.ndarray) -> np.ndarray:
    """The sum of the rows of ``a``, added pairwise in place (a running sum of
    1e5 rows would lose ~1e-13 of it)."""
    k = len(a)
    while k > 1:
        half = k // 2
        a[:half] += a[k - half:k]  # an odd k leaves its middle row for the next pass
        k -= half
    return a[0]


def free_energy_closed(bc: BoundaryCondition, spec: LatticeSpec) -> float:
    """Closed-form massless vacuum energy; equals the direct mode sum.

    Dirichlet: (1/(2h)) (cot(pi/(4(nu+1))) - 1)
    Neumann:   (1/(2h)) (cot(pi/(4 nu)) - 1)
    Periodic:  (1/h) cot(pi/(2 nu))             [= (1/h) cot(h/4) at L = 2 pi]
    Twisted:   (2/h) cosec(pi/(2 nu)) cos((pi/(2 nu))(2 tau - 1))
    """
    _check_topology(bc, spec)
    nu = spec.nu
    h = spec.h
    if nu < 1:
        return 0.0
    if bc.kind == DIRICHLET:
        return 0.5 / h * (1.0 / math.tan(math.pi / (4.0 * (nu + 1))) - 1.0)
    if bc.kind == NEUMANN:
        return 0.5 / h * (1.0 / math.tan(math.pi / (4.0 * nu)) - 1.0)
    if bc.kind == PERIODIC:
        return 1.0 / (h * math.tan(math.pi / (2.0 * nu)))
    if bc.kind == TWISTED:
        x = math.pi / (2.0 * nu)
        return 2.0 / (h * math.sin(x)) * math.cos(x * (2.0 * bc.tau - 1.0))
    raise ValueError(f"no closed-form vacuum energy for {bc.kind}")


@dataclass(frozen=True)
class EnergyExpansion:
    """Least-squares fit of E(h) on the basis {h^-2, h^-1, 1 (, h, h^2)}.

    ``coefficients`` maps the basis power of h to its fitted coefficient;
    the power-0 entry is the extracted universal constant.
    """

    coefficients: dict[int, float]
    residual_norm: float
    h_values: tuple[float, ...]

    @property
    def constant(self) -> float:
        return self.coefficients[0]


def _admissible_lattice(bc: BoundaryCondition, L: float, h: float) -> LatticeSpec:
    """Snap h to the nearest lattice with an integer vertex count."""
    if bc.is_interval:
        nu = max(1, round(L / h) - 1)
        return LatticeSpec.interval(nu, L=L)
    nu = max(2, round(L / h))
    return LatticeSpec.circle(nu, L=L)


def extract_constant(bc: BoundaryCondition, L: float, h_values,
                     with_positive_powers: bool = False) -> EnergyExpansion:
    """Fit E(h) over a geometric h sweep and extract the universal constant.

    Targets: -pi/(24 L) for Dirichlet and Neumann; on the unit circle
    (L = 2 pi), -1/12 for Periodic and -(1/6 - tau + tau^2) for Twisted,
    with tau = ``bc.tau``.  Each requested h snaps to the nearest admissible
    lattice.  Raises when fewer than 5 distinct lattices survive or when
    the fit is too ill-conditioned (advice: widen the h window).
    """
    import numpy as np
    specs = {}
    for h in h_values:
        spec = _admissible_lattice(bc, L, float(h))
        specs[spec.nu] = spec
    if len(specs) < 5:
        raise ValueError(f"need >= 5 distinct h values (got {len(specs)}); "
                         "use a geometric sweep spanning at least a decade")
    lattices = sorted(specs.values(), key=lambda s: s.h)
    hs = np.array([s.h for s in lattices])
    es = np.array([free_energy_closed(bc, s) for s in lattices])
    powers = [-2, -1, 0] + ([1, 2] if with_positive_powers else [])
    cols = [hs.astype(float) ** p for p in powers]
    design = np.column_stack(cols)
    norms = np.linalg.norm(design, axis=0)
    scaled = design / norms
    cond = np.linalg.cond(scaled)
    if cond > 1e8:
        raise ValueError(f"ill-conditioned fit (cond ~ {cond:.2e}); "
                         "widen the h window")
    coef_scaled, *_ = np.linalg.lstsq(scaled, es, rcond=None)
    coef = coef_scaled / norms
    residual = float(np.linalg.norm(design @ coef - es))
    return EnergyExpansion(
        coefficients={p: float(c) for p, c in zip(powers, coef)},
        residual_norm=residual,
        h_values=tuple(float(h) for h in hs),
    )


@lru_cache(maxsize=None)
def _bernoulli_numbers(n: int) -> tuple[Fraction, ...]:
    """B_0..B_n, exact, B_1 = -1/2 convention."""
    out = [Fraction(1)]
    for m in range(1, n + 1):
        acc = Fraction(0)
        for j in range(m):
            acc += Fraction(math.comb(m + 1, j)) * out[j]
        out.append(-acc / (m + 1))
    return tuple(out)


def bernoulli_polynomial(n: int, x: float) -> float:
    """B_n(x) = sum_k C(n, k) B_k x^(n-k)."""
    bs = _bernoulli_numbers(n)
    return math.fsum(math.comb(n, k) * float(bs[k]) * x ** (n - k) for k in range(n + 1))


def twisted_bernoulli_series(tau: float, h: float, mmax: int) -> float:
    """Partial sum of E(tau) = 2 sum_m (-1)^m/(2m)! B_2m(tau) (h/2)^(2m-2).

    The m = 0 term is 8/h^2 and the m = 1 term is -(1/6 - tau + tau^2);
    truncation at mmax matches the closed form to O(h^(2 mmax)) as h -> 0.
    """
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau must lie in (0, 1], got {tau}")
    if mmax > 8:
        raise ValueError("mmax <= 8: treat the expansion as asymptotic")
    total = 0.0
    for m in range(mmax + 1):
        term = 2.0 * (-1.0) ** m / math.factorial(2 * m) \
            * bernoulli_polynomial(2 * m, tau) * (0.5 * h) ** (2 * m - 2)
        total += term
    return total

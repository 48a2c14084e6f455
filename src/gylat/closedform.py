"""Closed forms for the free field (zero potential, constant mass).

With mass mubar the dimensionless mass is mu = h*mubar and the hyperbolic
parameter gamma0 satisfies mu = 2 sinh(gamma0); the Chebyshev argument at
lambda = 0 is x0 = cosh(2 gamma0) = 1 + mu^2/2.  The determinants are
evaluated from gamma0 itself, in the log domain, never from x0: x0 rounds
mu^2/2 against 1, which would cost the relative accuracy of mu^2 once mu is
small.  With x0 = cosh 2g,

    U_n(x0) = sinh(2(n+1)g) / sinh(2g),
    V_n(x0) = U_n - U_{n-1} = cosh((2n+1)g) / cosh(g),
    T_n(x0) - cos(2 pi tau) = 2 sinh^2(n g) + 2 sin^2(pi tau),

and none of them subtracts nearly equal numbers.  At mu = 0 they take their
limits U_n = n+1, V_n = 1, T_n = 1.  Nothing here runs the GY sweep: the
module takes only the domain types of :mod:`gylat.core`, so it stays an
independent check of the terminal value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (
    DIRICHLET,
    NEUMANN,
    PERIODIC,
    ROBIN,
    TWISTED,
    BoundaryCondition,
    LatticeSpec,
    LogDet,
    Spectrum,
    _check_topology,
)


@dataclass(frozen=True)
class MassParam:
    """Physical mass mubar >= 0 with its dimensionless companions."""

    mubar: float
    mu: float
    gamma0: float

    def __post_init__(self):
        if not (0 <= self.mubar < math.inf and 0 <= self.mu < math.inf):  # NaN fails too
            raise ValueError(f"mass must be finite and >= 0, got {self.mubar} (mu = {self.mu})")

    @classmethod
    def physical(cls, mubar: float, spec: LatticeSpec) -> "MassParam":
        mu = spec.h * mubar
        return cls(mubar=mubar, mu=mu, gamma0=math.asinh(0.5 * mu))

    @classmethod
    def massless(cls) -> "MassParam":
        return cls(0.0, 0.0, 0.0)


def free_eigenvalues(bc: BoundaryCondition, spec: LatticeSpec,
                     mass: MassParam | None = None) -> Spectrum:
    """The nu free eigenvalues (dimensionless, ascending, with multiplicity).

    Dirichlet: mu^2 + 4 sin^2(pi n / (2(nu+1))), n = 1..nu.
    Neumann:   mu^2 + 4 sin^2(pi n / (2 nu)),    n = 0..nu-1.
    Twisted:   mu^2 + 4 sin^2(pi (n+tau) / nu),  n = 0..nu-1.
    Periodic:  real-field bookkeeping - the zero mode, doubly degenerate
    pairs, and for even nu the single alternating mode at mu^2 + 4 (a wave
    at the lattice cutoff).  The multiset coincides with Twisted(1).
    """
    _check_topology(bc, spec)
    mass = mass or MassParam.massless()
    nu = spec.nu
    mu2 = mass.mu * mass.mu
    if nu < 1:
        return Spectrum((), spec)
    if bc.kind == DIRICHLET:
        lams = [mu2 + 4.0 * math.sin(math.pi * n / (2.0 * (nu + 1))) ** 2
                for n in range(1, nu + 1)]
    elif bc.kind == NEUMANN:
        lams = [mu2 + 4.0 * math.sin(math.pi * n / (2.0 * nu)) ** 2
                for n in range(nu)]
    elif bc.kind == TWISTED:
        lams = [mu2 + 4.0 * math.sin(math.pi * (n + bc.tau) / nu) ** 2
                for n in range(nu)]
    elif bc.kind == PERIODIC:
        lams = [mu2]  # uniform mode
        for n in range(1, (nu - 1) // 2 + 1):
            lam = mu2 + 4.0 * math.sin(math.pi * n / nu) ** 2
            lams.extend([lam, lam])
        if nu % 2 == 0:
            lams.append(mu2 + 4.0)  # alternating mode cos(pi j)
    else:
        raise ValueError(f"no closed-form spectrum for {bc.kind} (use the oracle)")
    return Spectrum(tuple(sorted(lams)), spec)


def _logdet_from(sign: int, log_dimless: float, nu: int, h: float) -> LogDet:
    return LogDet(sign, log_dimless - 2.0 * nu * math.log(h))


def free_determinant(bc: BoundaryCondition, spec: LatticeSpec,
                     mass: MassParam | None = None, prime: bool = False) -> LogDet:
    """Closed-form free determinant as a LogDet (product of physical modes).

    Dirichlet: U_nu(x0) / h^(2 nu).
    Neumann:   mu^2 U_{nu-1}(x0) / h^(2 nu); sign 0 at mu = 0 unless primed,
               where Det' = nu / h^(2 nu - 2).
    Twisted:   2 (T_nu(x0) - cos 2 pi tau) / h^(2 nu); this is the
               half (real-product) form, matching the transfer-matrix and
               eigenvalue-product values.
    Periodic:  Twisted at tau = 1; sign 0 at mu = 0 unless primed, where
               Det' = 4 L^2 / h^(2 nu + 2) (the removed mode's (2/h)^2
               prefactor is kept in this convention).
    """
    _check_topology(bc, spec)
    mass = mass or MassParam.massless()
    nu = spec.nu
    h = spec.h
    g = mass.gamma0
    if nu == 0:
        return LogDet(1, 0.0)
    if bc.kind == DIRICHLET:
        return _logdet_from(1, _log_u(nu, g), nu, h)
    if bc.kind in (NEUMANN, ROBIN):
        alpha, beta = bc.robin_alpha, bc.robin_beta
        if bc.kind == NEUMANN or (alpha == 0.0 and beta == 0.0):
            if mass.mu == 0.0:
                if not prime:
                    return LogDet(0, math.nan, 0)
                # remove the uniform zero mode: product of the others is nu
                return LogDet(1, math.log(nu) - (2.0 * nu - 2.0) * math.log(h), 1)
            return _logdet_from(1, _log_u(nu - 1, g) + 2.0 * math.log(mass.mu), nu, h)
        return _robin_free_determinant(nu, alpha, beta, mass, h)
    # circle conditions
    tau = bc.twist
    if abs(tau - round(tau)) < 1e-15 and mass.mu == 0.0:
        if not prime:
            return LogDet(0, math.nan, 0)
        # paper bookkeeping: drop the zero mode's sin^2 factor but keep its
        # (2/h)^2 prefactor, giving Det' = 4 L^2 / h^(2 nu + 2)
        return LogDet(1, math.log(4.0 * spec.L * spec.L) - (2.0 * nu + 2.0) * math.log(h), 1)
    # F(0) = 4 (sinh^2(nu g) + sin^2(pi tau)); tau - round(tau) makes the
    # sine exactly 0 at integer tau and keeps it accurate as tau -> 1.  The
    # zero-mode return above leaves at least one term nonzero.
    terms = []
    if g > 0.0:
        terms.append((1.0, 2.0 * _log_sinh(nu * g)))
    sine = abs(math.sin(math.pi * (tau - round(tau))))
    if sine:
        terms.append((1.0, 2.0 * math.log(sine)))
    log_dimless = math.log(4.0) + _signed_log_sum(terms)[1]
    return _logdet_from(1, log_dimless, nu, h)


def _log_u(n: int, g: float) -> float:
    """log U_n(cosh 2g) for n >= 0, g >= 0; U_n(1) = n + 1."""
    if g == 0.0:
        return math.log(n + 1)
    return _log_sinh(2.0 * (n + 1) * g) - _log_sinh(2.0 * g)


def _log_sinh(z: float) -> float:
    if z > 30.0:
        return z - math.log(2.0) + math.log1p(-math.exp(-2.0 * z))
    return math.log(math.sinh(z))


def _log_cosh(z: float) -> float:
    if z > 30.0:
        return z - math.log(2.0) + math.log1p(math.exp(-2.0 * z))
    return math.log(math.cosh(z))


def _robin_free_determinant(nu: int, alpha: float, beta: float, mass: MassParam,
                            h: float) -> LogDet:
    """((a+b) V_nu + ab U_nu + mu^2 U_{nu-1}) / ((1+a)(1+b)), normalised.

    This is (a+b+ab) U_nu - (a+b-mu^2) U_{nu-1} with U_nu - U_{nu-1} = V_nu
    taken out, so no two large terms cancel when a, b >= 0.
    """
    norm = (1.0 + alpha) * (1.0 + beta)
    if norm == 0.0:
        raise ValueError("degenerate Robin parameter (alpha or beta = -1) has no "
                         "closed form; transfer.determinant handles it")
    g = mass.gamma0
    log_v = _log_cosh((2.0 * nu + 1.0) * g) - _log_cosh(g)
    sign, log_p0 = _signed_log_sum([(alpha + beta, log_v), (alpha * beta, _log_u(nu, g)),
                                    (mass.mu * mass.mu, _log_u(nu - 1, g))])
    if sign == 0:
        return LogDet(0, math.nan, 0)
    sign = sign if norm > 0 else -sign
    return _logdet_from(sign, log_p0 - math.log(abs(norm)), nu, h)


def _signed_log_sum(terms) -> tuple[int, float]:
    """sign and log|sum c e^l| over (c, l) pairs without leaving the log domain."""
    scaled = [(c, l + math.log(abs(c))) for c, l in terms if c != 0.0]
    if not scaled:
        return 0, math.nan
    top = max(a for _, a in scaled)
    total = math.fsum(math.copysign(math.exp(a - top), c) for c, a in scaled)
    if total == 0.0:
        return 0, math.nan
    return (1 if total > 0 else -1), top + math.log(abs(total))


def continuum_limit_targets(bc: BoundaryCondition, mubar: float = 0.0,
                            alphabar: float = 0.0, betabar: float = 0.0,
                            L: float = 1.0) -> float:
    """The h -> 0 target of the suitably rescaled lattice determinant.

    Dirichlet:        h^(2nu+1) Det_D      -> sinh(mubar L)/mubar
    Neumann (primed): h^(2nu-1) Det'_N     -> L            (massless)
    Robin:            h^(2nu-1) Det_R      -> (abar+bbar) cosh(mubar L)
                                              + (abar bbar + mubar^2) sinh(mubar L)/mubar
    Periodic (primed): h^(2nu+2) Det'_P    -> 4 L^2        (massless)
    Other circles:    h^(2nu)   Det        -> 2 cosh(mubar L) - 2 cos(2 pi tau)
    """
    z = mubar * L
    sinhc = L if mubar == 0.0 else math.sinh(z) / mubar
    if bc.kind == DIRICHLET:
        return sinhc
    if bc.kind == NEUMANN:  # massive: the Robin(0, 0) specialisation
        return L if mubar == 0.0 else mubar * math.sinh(z)
    if bc.kind == ROBIN:
        return (alphabar + betabar) * math.cosh(z) + (alphabar * betabar + mubar * mubar) * sinhc
    if bc.kind == PERIODIC and mubar == 0.0:
        return 4.0 * L * L
    if bc.is_circle:  # 2 cosh z - 2 cos 2 pi tau, without cancellation
        return 4.0 * (math.sinh(z / 2) ** 2 + math.sin(math.pi * bc.twist) ** 2)
    raise ValueError(f"unknown boundary condition {bc.kind!r}")


def continuum_scaling_exponent(bc: BoundaryCondition, nu: int, prime: bool = False) -> int:
    """Power p such that h^p * Det (h^p * Det' with ``prime``) approaches the
    continuum target; periodic Det' keeps the removed mode's (2/h)^2."""
    if bc.kind == DIRICHLET:
        return 2 * nu + 1
    if bc.kind in (NEUMANN, ROBIN):
        return 2 * nu - 1
    if bc.kind == PERIODIC and prime:
        return 2 * nu + 2
    return 2 * nu

"""Independent reference routes for checking benchmark results.

Nothing here calls the gylat route it checks.  Spectra and determinants come
from LAPACK on the matrix form of the operator, assembled here from the
dimensionless site values; exact determinants come from the cofactor
expansion of the matrix at fixed points, in integers.  Checks that need the
free closed forms take them from ``gylat.closedform``, and only for routes
that sweep the recurrence.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal, lapack

EPS = np.finfo(float).eps


def interval_diagonal(v, kind: str, alpha: float = 0.0, beta: float = 0.0) -> np.ndarray:
    """Diagonal of the interval operator; every off-diagonal entry is -1.

    Eliminating y(0) and y(nu+1) with the Robin conditions
    Delta y(0) = alpha y(0), Delta y(nu) = -beta y(nu+1) shifts the end
    entries by -1/(1+alpha) and -1/(1+beta); Neumann is Robin(0, 0).
    """
    d = 2.0 + np.asarray(v, dtype=float)
    if kind in ("neumann", "robin"):
        d[0] -= 1.0 / (1.0 + alpha)
        d[-1] -= 1.0 / (1.0 + beta)
    return d


def tridiagonal_logdet(d: np.ndarray) -> float:
    """log det of the positive definite matrix tridiag(-1, d, -1) (LAPACK dpttrf)."""
    dd, _, info = lapack.dpttrf(d, -np.ones(len(d) - 1))
    if info != 0:
        raise ValueError(f"matrix not positive definite (dpttrf info={info})")
    return float(np.sum(np.log(dd)))


def circle_logdet(v, tau: float) -> tuple[int, float]:
    """(sign, log|det H|) of the twisted cyclic operator, by the determinant lemma.

    H = T + U C U^T, with T the open chain tridiag(-1, 2 + v, -1), U = [e_1, e_nu]
    and C the wrap-around couplings -exp(-+2 pi i tau).  Then
    det H = det T * det(I + C U^T T^-1 U), and the 2x2 factor is real:
    1 - 2 cos(2 pi tau) g_1n + g_1n^2 - g_11 g_nn with g = T^-1.
    """
    d = 2.0 + np.asarray(v, dtype=float)
    n = len(d)
    if n < 3:
        raise ValueError("the determinant lemma form needs nu >= 3")
    dd, ee, info = lapack.dpttrf(d, -np.ones(n - 1))
    if info != 0:
        raise ValueError(f"open chain not positive definite (dpttrf info={info})")
    rhs = np.zeros((n, 2))
    rhs[0, 0] = rhs[-1, 1] = 1.0
    x, info = lapack.dpttrs(dd, ee, rhs)
    if info != 0:
        raise ValueError(f"dpttrs failed (info={info})")
    g11, g1n, gnn = x[0, 0], x[0, 1], x[-1, 1]
    m = 1.0 - 2.0 * math.cos(2.0 * math.pi * tau) * g1n + g1n * g1n - g11 * gnn
    if m == 0.0:
        return 0, math.nan
    return (1 if m > 0 else -1), float(np.sum(np.log(dd))) + math.log(abs(m))


def interval_eigenvalues(v, kind: str, alpha: float = 0.0, beta: float = 0.0) -> np.ndarray:
    d = interval_diagonal(v, kind, alpha, beta)
    return eigvalsh_tridiagonal(d, -np.ones(len(d) - 1))


def cyclic_matrix(v, tau: float) -> np.ndarray:
    """Dense Hermitian cyclic operator; the twist phase sits on the corners."""
    n = len(v)
    phase = complex(math.cos(2.0 * math.pi * tau), math.sin(2.0 * math.pi * tau))
    H = np.diag(2.0 + np.asarray(v, dtype=float)).astype(complex)
    if n == 1:
        H[0, 0] -= 2.0 * phase.real
        return H
    idx = np.arange(n - 1)
    H[idx, idx + 1] -= 1.0
    H[idx + 1, idx] -= 1.0
    H[0, n - 1] -= phase.conjugate()
    H[n - 1, 0] -= phase
    return H


def circle_eigenvalues(v, tau: float) -> np.ndarray:
    """Eigenvalues of the complex Hermitian form (numpy eigvalsh), ascending."""
    return np.linalg.eigvalsh(cyclic_matrix(v, tau))


def _dyadic(x) -> tuple[int, int]:
    """(m, e) with x == m / 2**e exactly; floats and ints are always dyadic."""
    f = Fraction(x)
    e = f.denominator.bit_length() - 1
    if f.denominator != 1 << e:
        raise ValueError(f"{x!r} is not a dyadic rational")
    return f.numerator, e


def _exact_diagonal(v, kind: str, alpha, beta) -> tuple[list[int], int]:
    """Diagonal as integers a_k over a common 2**E; Robin ends need dyadic 1/(1+a)."""
    d = [2 + Fraction(x) for x in v]
    if kind in ("neumann", "robin"):
        d[0] -= 1 / (1 + Fraction(alpha))
        d[-1] -= 1 / (1 + Fraction(beta))
    pairs = [_dyadic(x) for x in d]
    E = max(e for _, e in pairs)
    return [m << (E - e) for m, e in pairs], E


def _scaled_continuant(a: list[int], E: int, shift: int) -> int:
    """2**(E nu) det(T - shift) for T = tridiag(-1, a / 2**E, -1), in integers.

    Cofactor expansion along the last row gives D_k = d_k D_(k-1) - D_(k-2);
    scaling D_k by 2**(E k) keeps every step in Python integers.
    """
    unit = 1 << (2 * E)
    s = shift << E
    prev, cur = 1, a[0] - s
    for ak in a[1:]:
        prev, cur = cur, (ak - s) * cur - unit * prev
    return cur


def exact_interval_det(v, kind: str, alpha=0, beta=0) -> Fraction:
    """det T in exact arithmetic; floats are lifted exactly."""
    a, E = _exact_diagonal(v, kind, alpha, beta)
    return Fraction(_scaled_continuant(a, E, 0), 1 << (E * len(a)))


def poly_matches_interval(coeffs, v, kind: str, alpha=0, beta=0) -> bool:
    """Exact identity P(x) == (1+alpha)(1+beta) det(T - x), checked at deg + 1 points.

    Two polynomials of degree <= nu that agree at nu + 1 points are equal.
    """
    if len(coeffs) != len(v) + 1:
        return False
    coeffs = [Fraction(c) for c in coeffs]
    den = math.lcm(*(c.denominator for c in coeffs))
    nums = [c.numerator * (den // c.denominator) for c in coeffs]
    scale = Fraction(1)
    if kind in ("neumann", "robin"):
        scale = (1 + Fraction(alpha)) * (1 + Fraction(beta))
    a, E = _exact_diagonal(v, kind, alpha, beta)
    for x in range(-1, -len(coeffs) - 1, -1):
        value = 0
        for c in reversed(nums):
            value = value * x + c
        # value / den == scale * S / 2**(E nu), cross-multiplied
        S = _scaled_continuant(a, E, x)
        if value * scale.denominator << (E * len(a)) != scale.numerator * S * den:
            return False
    return True


def poly_from_roots(roots, leading: float) -> np.ndarray:
    """Ascending coefficients of leading * prod(x - r)."""
    return leading * np.poly(np.asarray(roots))[::-1]


def rel_close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def logdet_rtol(nu: int) -> float:
    """Relative agreement expected between two double-precision det routes.

    The lowest mode of these operators is O(h^2) and the diagonal entries
    2 + v_j store v_j with an absolute error of eps, so the relative
    conditioning of det grows like nu^2; Neumann and circle conditions reach
    ~4e-5 at 2e5 sites, Dirichlet stays near 1e-9.
    """
    return 1e-8 + 10.0 * EPS * nu * nu

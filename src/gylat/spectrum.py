"""Brute-force eigenvalue oracle and characteristic-polynomial root finding.

The oracle never touches the transfer-matrix code: it assembles the operator
as a symmetric tridiagonal (interval) or Hermitian cyclic (circle) matrix in
the dimensionless variables and solves it by Sturm-sequence bisection on
IEEE pivot signs (tridiagonal) or dense diagonalisation of the nu x nu
matrix itself (cyclic).  Root finding for characteristic polynomials goes
the other way - Sturm chains of the polynomial itself - so the two routes
stay independent checks of one another.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .core import (
    NEUMANN,
    ROBIN,
    BoundaryCondition,
    CharPoly,
    LatticeSpec,
    Potential,
    Spectrum,
    _exactify,
)

# Caps beyond which the oracle refuses (callers get an explicit error
# rather than an open-ended run).
ORACLE_MAX_NU = 3000
ORACLE_MAX_NU_CYCLIC = 800

_BISECTION_STEPS = 64


# ---------------------------------------------------------------------------
# Operator assembly
# ---------------------------------------------------------------------------

def tridiagonal_matrix(potential: Potential, bc: BoundaryCondition) -> tuple[np.ndarray, np.ndarray]:
    """(diagonal, off-diagonal) of the dimensionless operator, interval bcs.

    The off-diagonal is -1 throughout.  End diagonals come from eliminating
    the boundary values y(0), y(nu+1) with the Robin conditions
    Delta y(0) = alpha y(0), Delta y(nu) = -beta y(nu+1):

        y(0) = y(1)/(1+alpha)   =>   d_1 = 2 + v_1 - 1/(1+alpha),

    and mirrored on the right; alpha = 0 reproduces the Neumann entry
    1 + v_1, Dirichlet keeps 2 + v_1.  For nu = 1 both corrections act on
    the single site.
    """
    if not bc.is_interval:
        raise ValueError("tridiagonal form exists only for interval conditions")
    nu = potential.nu
    if nu < 1:
        raise ValueError("need nu >= 1")
    d = 2.0 + potential.as_array()
    if bc.kind in (NEUMANN, ROBIN):
        alpha = float(bc.robin_alpha)
        beta = float(bc.robin_beta)
        if abs(1.0 + alpha) < 1e-12 or abs(1.0 + beta) < 1e-12:
            raise ValueError("degenerate Robin parameter (alpha or beta = -1); "
                             "the matrix form does not exist")
        d[0] -= 1.0 / (1.0 + alpha)
        d[-1] -= 1.0 / (1.0 + beta)
    e = -np.ones(max(nu - 1, 0))
    return d, e


def cyclic_matrix(potential: Potential, bc: BoundaryCondition) -> np.ndarray:
    """Dense Hermitian matrix for periodic/twisted conditions.

    The twist phase exp(2 pi i tau), exactly +-1 at tau = 1 and 1/2 so that
    those H are real, sits on the wrap-around couplings; for nu = 1 and
    nu = 2 the wrap-around and nearest-neighbour couplings merge.
    """
    if not bc.is_circle:
        raise ValueError("cyclic form exists only for circle conditions")
    nu = potential.nu
    if nu < 1:
        raise ValueError("need nu >= 1")
    theta = 2.0 * math.pi * bc.twist
    phase = {1.0: 1.0, 0.5: -1.0}.get(bc.twist, complex(math.cos(theta), math.sin(theta)))
    H = np.diag((2.0 + potential.as_array()).astype(complex))
    if nu == 1:
        H[0, 0] -= phase + phase.conjugate()
        return H
    H -= np.eye(nu, k=1) + np.eye(nu, k=-1)
    H[0, nu - 1] -= phase.conjugate()
    H[nu - 1, 0] -= phase
    return H


# ---------------------------------------------------------------------------
# Sturm-sequence bisection (tridiagonal, all off-diagonals -1)
# ---------------------------------------------------------------------------

def _sturm_counts(d: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Number of eigenvalues below each shift in xs (LDL pivot signs).

    Pivots are carried negated, p_k = x - d_k - 1/p_{k-1}, and unguarded
    (Demmel, Dhillon & Ren, ETNA 3 (1995) 116-149): an exact zero is +0 and
    counts as negative, and a zero or tiny pivot makes the next one infinite
    or huge with the other sign, so the pair adds one, as a -pivmin guard does.
    """
    q = xs - d[0]
    r = np.empty_like(q)
    pos = np.signbit(q)  # the pivot itself is positive
    positive = pos.astype(np.int64)
    with np.errstate(divide="ignore", over="ignore"):
        for k in range(1, len(d)):
            np.reciprocal(q, out=r)
            np.subtract(xs, d[k], out=q)
            q -= r
            np.signbit(q, out=pos)
            positive += pos
    return len(d) - positive


def _tridiagonal_eigenvalues(d: np.ndarray) -> np.ndarray:
    """All eigenvalues, ascending, by per-index bisection to ~1e-13."""
    n = len(d)
    # Gershgorin bounds; couplings contribute at most 2.
    lo = float(np.min(d)) - 2.0
    hi = float(np.max(d)) + 2.0
    los = np.full(n, lo)
    his = np.full(n, hi)
    targets = np.arange(1, n + 1)
    for _ in range(_BISECTION_STEPS):
        mids = 0.5 * (los + his)
        counts = _sturm_counts(d, mids)
        below = counts >= targets
        new_his = np.where(below, mids, his)
        new_los = np.where(below, los, mids)
        # a round that moves no bracket end repeats itself forever; brackets
        # at |lambda| >= 64 stop one ulp wide, above the absolute 1e-14
        if np.array_equal(new_his, his) and np.array_equal(new_los, los):
            break
        his, los = new_his, new_los
        if np.max(his - los) < 1e-14:
            break
    return 0.5 * (los + his)


def oracle_spectrum(potential: Potential, bc: BoundaryCondition,
                    spec: LatticeSpec | None = None) -> Spectrum:
    """All nu dimensionless eigenvalues, ascending, multiplicities preserved.

    Interval conditions use Sturm-sequence bisection on the tridiagonal
    form (absolute accuracy ~1e-12; clustered eigenvalues come out as exact
    multiplicities because bisection is driven by Sturm counts).  Circle
    conditions diagonalise the nu x nu Hermitian H, as a real symmetric
    matrix when H is real (periodic and tau = 1/2).
    """
    nu = potential.nu
    if nu < 1:
        raise ValueError("oracle needs nu >= 1")
    if bc.is_interval:
        if nu > ORACLE_MAX_NU:
            raise ValueError(f"oracle supports nu <= {ORACLE_MAX_NU} for interval conditions")
        d, _ = tridiagonal_matrix(potential, bc)
        lams = _tridiagonal_eigenvalues(d)
        return Spectrum(tuple(lams), spec)
    if nu > ORACLE_MAX_NU_CYCLIC:
        raise ValueError(f"oracle supports nu <= {ORACLE_MAX_NU_CYCLIC} for circle conditions")
    H = cyclic_matrix(potential, bc)
    if not H.imag.any():
        H = H.real
    return Spectrum(tuple(np.linalg.eigvalsh(H)), spec)


def oracle_available(potential: Potential, bc: BoundaryCondition) -> bool:
    cap = ORACLE_MAX_NU if bc.is_interval else ORACLE_MAX_NU_CYCLIC
    return 1 <= potential.nu <= cap


# ---------------------------------------------------------------------------
# Polynomial root finding via Sturm chains
# ---------------------------------------------------------------------------

def _poly_eval(coeffs: list[float], x: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _normalise(coeffs: list[Fraction]) -> list[Fraction]:
    top = max(abs(c) for c in coeffs)
    if top == 0:
        return coeffs
    return [c / top for c in coeffs]


def _sturm_chain(coeffs: list[Fraction]) -> list[list[Fraction]]:
    """Canonical Sturm chain of p; built exactly so termination is exact.

    The last member is (up to sign and scale) gcd(p, p'), which is
    non-constant precisely when p has multiple roots.
    """
    p0 = _normalise(list(coeffs))
    p1 = _normalise([k * c for k, c in enumerate(p0)][1:] or [Fraction(0)])
    chain = [p0, p1]
    while len(chain[-1]) > 1:
        a, b = chain[-2], chain[-1]
        rem = list(a)
        # rem <- a mod b
        while len(rem) >= len(b) and any(c != 0 for c in rem):
            if rem[-1] == 0:
                rem.pop()
                continue
            q = rem[-1] / b[-1]
            shift = len(rem) - len(b)
            for i, c in enumerate(b):
                rem[shift + i] -= q * c
            rem.pop()
        while len(rem) > 1 and rem[-1] == 0:
            rem.pop()
        if not rem or all(c == 0 for c in rem):
            break
        chain.append(_normalise([-c for c in rem]))
    return chain


def _chain_floats(chain: list[list[Fraction]]) -> list[list[float]]:
    out = []
    for member in chain:
        top = max(abs(c) for c in member)
        scale = float(top) if top != 0 else 1.0
        out.append([float(c) / scale for c in member])
    return out


def _poly_eval_with_noise(coeffs: list[float], x: float) -> tuple[float, float]:
    """Horner value and a rounding-noise yardstick sum_k |c_k| |x|^k * eps."""
    acc = 0.0
    mag = 0.0
    ax = abs(x)
    for c in reversed(coeffs):
        acc = acc * x + c
        mag = mag * ax + abs(c)
    return acc, 1e-15 * (2 * len(coeffs)) * mag


def _sign_variations(chain_f: list[list[float]], x: float) -> int:
    signs = []
    for member in chain_f:
        v, noise = _poly_eval_with_noise(member, x)
        # Values within rounding noise of zero are dropped like exact zeros.
        if abs(v) > noise:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _count_roots(chain_f, a: float, b: float) -> int:
    """Distinct real roots in (a, b]."""
    return _sign_variations(chain_f, a) - _sign_variations(chain_f, b)


def _isolate_roots(chain_f, lo: float, hi: float) -> list[tuple[float, float, int]]:
    """Intervals (a, b] holding one distinct root each, narrowed to ~1e-4.

    Count bisection is reliable well below that width (its limit is the
    rounding-noise band of the chain evaluations); the exact-arithmetic
    polish finishes the job.  Unresolvable clusters come out with their
    count > 1.
    """
    total = _count_roots(chain_f, lo, hi)
    found: list[tuple[float, float, int]] = []

    def recurse(a: float, b: float, k: int):
        if k == 0:
            return
        cluster_floor = 1e-12 * max(1.0, abs(a), abs(b))
        if k == 1 or b - a <= cluster_floor:
            aa, bb = a, b
            while bb - aa > 1e-4 * max(1.0, abs(aa), abs(bb)):
                mid = 0.5 * (aa + bb)
                if mid <= aa or mid >= bb:
                    break
                if _count_roots(chain_f, aa, mid) >= 1:
                    bb = mid
                else:
                    aa = mid
            found.append((aa, bb, k))
            return
        mid = 0.5 * (a + b)
        kl = _count_roots(chain_f, a, mid)
        recurse(a, mid, kl)
        recurse(mid, b, k - kl)

    recurse(lo, hi, total)
    return sorted(found)


def _exact_sign(coeffs: list[Fraction], x: float) -> int:
    acc = Fraction(0)
    fx = Fraction(x)
    for c in reversed(coeffs):
        acc = acc * fx + c
    return 0 if acc == 0 else (1 if acc > 0 else -1)


def _polish_root_exact(coeffs: list[Fraction], a: float, b: float) -> float:
    """Bisection on exact rational signs of p inside an isolating interval.

    Exact signs cannot be fooled by rounding noise, so a simple root is
    pinned to ~1e-14 relative no matter how flat p is in float arithmetic.
    """
    sa = _exact_sign(coeffs, a)
    sb = _exact_sign(coeffs, b)
    if sa == 0:
        return a
    if sb == 0:
        return b
    if sa == sb:
        return 0.5 * (a + b)  # even multiplicity or mis-isolation; gcd path owns it
    for _ in range(80):
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b or (b - a) <= 1e-15 * max(1.0, abs(mid)):
            break
        sm = _exact_sign(coeffs, mid)
        if sm == 0:
            return mid
        if sm == sa:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def _distinct_roots_with_multiplicity(coeffs: list[Fraction]) -> list[tuple[float, int]]:
    chain = _sturm_chain(coeffs)
    chain_f = _chain_floats(chain)
    bound = 1.0 + max(abs(c) for c in chain_f[0][:-1]) / abs(chain_f[0][-1])
    lo, hi = -bound - 1.0, bound + 1.0
    intervals = _isolate_roots(chain_f, lo, hi)
    gcd = chain[-1]
    # Multiplicity in p is 1 + multiplicity in gcd(p, p'); the gcd locates a
    # multiple root with lower multiplicity, hence more sharply - prefer its
    # refined position.  A false match would break the degree check in
    # poly_roots anyway.
    sub = _distinct_roots_with_multiplicity(gcd) if len(gcd) > 1 else []
    exact_normalised = chain[0]
    out = []
    for a, b, k in intervals:
        if k > 1:  # unresolvable cluster: report the midpoint k times
            out.extend([(0.5 * (a + b), 1)] * k)
            continue
        r = 0.5 * (a + b)
        mult = 1
        for rs, ms in sub:
            if a - 1e-9 <= rs <= b + 1e-9 or abs(rs - r) <= 1e-4 * max(1.0, abs(r)):
                mult = 1 + ms
                r = rs
                break
        if mult == 1:
            r = _polish_root_exact(exact_normalised, a, b)
        out.append((r, mult))
    return out


def poly_roots(p: CharPoly, spec: LatticeSpec | None = None) -> Spectrum:
    """All real roots of p, ascending with multiplicity, refined to ~1e-12.

    Roots are isolated by sign changes of the Sturm chain of p (built in
    exact rational arithmetic, so multiple roots are detected exactly via
    the chain's gcd tail) and refined by bisection on the chain counts.
    The total count must equal the degree - all eigenvalues of these
    operators are real - otherwise an internal-consistency error signals a
    conditioning failure.
    """
    if p.degree < 1:
        raise ValueError("poly_roots needs degree >= 1")
    exact_coeffs = [Fraction(_exactify(c)) for c in p.coeffs]
    pairs = _distinct_roots_with_multiplicity(exact_coeffs)
    roots: list[float] = []
    for r, m in pairs:
        roots.extend([r] * m)
    if len(roots) != p.degree:
        raise ArithmeticError(
            f"found {len(roots)} real roots for a degree-{p.degree} polynomial; "
            "polynomial conditioning failure")
    return Spectrum(tuple(sorted(roots)), spec)


# ---------------------------------------------------------------------------
# Inverse-power (Euler-Rayleigh) sums
# ---------------------------------------------------------------------------

def inverse_power_sums(p: CharPoly, kmax: int) -> list[float]:
    """[sum_n lambda_n^-m for m = 1..kmax] from the coefficients of p.

    Newton's identities applied to the reversed polynomial, whose roots are
    1/lambda_n; no root extraction involved.  Requires p(0) != 0.
    """
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    coeffs = p.as_floats()
    d = p.degree
    c0 = coeffs[0]
    scale = max(abs(c) for c in coeffs)
    if c0 == 0 or abs(c0) <= 1e-14 * scale:
        raise ZeroDivisionError(
            "p(0) = 0: the operator has a zero mode; remove it (primed determinant) first")
    # reversed monic: a[d - m] = c_m / c0, roots 1/lambda_n
    a = [c / c0 for c in coeffs]
    sums: list[float] = []
    for m in range(1, kmax + 1):
        acc = -m * a[m] if m <= d else 0.0
        for i in range(1, m):
            if i <= d:
                acc -= a[i] * sums[m - i - 1]
        sums.append(acc)
    return sums


def cosecant_sum(p: int, m: int = 1) -> float:
    """sum_{n=1}^{p-1} cosec^(2m)(pi n / 2p), evaluated directly.

    m = 1 has the closed form (2/3)(p^2 - 1) (asserted by the tests, not
    used here); m = 2 is the plain numerical sum.
    """
    if p < 2:
        raise ValueError("need p >= 2")
    if m not in (1, 2):
        raise ValueError("m must be 1 or 2")
    power = 2 * m
    return math.fsum(math.sin(math.pi * n / (2 * p)) ** -power for n in range(1, p))


def robin_cosec_sum(nu: int, alpha: float, beta: float) -> float:
    """Closed form for sum_n cosec^2(theta_n) = sum_n 4/lambda_n, free Robin case.

        2 [3 nu^2 s + nu (nu^2 - 1) ab + 3 nu (s + 2)] / [3 ((1+nu) ab + a + b)]

    with s = ab + a + b.  The denominator vanishing is the zero-mode locus
    (alpha = beta = 0 is the Neumann zero mode).
    """
    if nu < 1:
        raise ValueError("need nu >= 1")
    ab = alpha * beta
    s = ab + alpha + beta
    den = 3.0 * ((1.0 + nu) * ab + alpha + beta)
    scale = 3.0 * (1.0 + nu) * (abs(ab) + abs(alpha) + abs(beta)) + 1e-30
    if abs(den) <= 1e-12 * scale:
        raise ZeroDivisionError(
            "zero-mode locus: (1+nu)*alpha*beta + alpha + beta = 0 (e.g. Neumann)")
    num = 2.0 * (3.0 * nu * nu * s + nu * (nu * nu - 1.0) * ab + 3.0 * nu * (s + 2.0))
    return num / den

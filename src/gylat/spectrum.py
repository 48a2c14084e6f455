"""Brute-force eigenvalue oracle and characteristic-polynomial root finding.

The oracle never touches the transfer-matrix code: it assembles the operator
as a symmetric tridiagonal (interval) or Hermitian cyclic (circle) matrix in
the dimensionless variables and solves it by Sturm-sequence bisection on
IEEE pivot signs (tridiagonal) or dense diagonalisation of the nu x nu
matrix itself (cyclic).  Root finding for characteristic polynomials goes
the other way - Sturm chains of the polynomial itself, with every sign
decided in integer arithmetic - so the two routes stay independent checks
of one another.
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
)

# Caps beyond which the oracle refuses (callers get an explicit error
# rather than an open-ended run).
ORACLE_MAX_NU = 3000
ORACLE_MAX_NU_CYCLIC = 800

_BISECTION_STEPS = 64

# Sites whose pivot signs _sturm_counts counts in one numpy call.
_STURM_BLOCK = 64


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
    Pivots go into a block of _STURM_BLOCK sites x shifts: the x - d_k of a
    whole block is one call, each site then subtracts its 1/p_{k-1} (two
    calls), and the block's sign bits are counted together.
    """
    n = len(d)
    rows = min(n, _STURM_BLOCK)
    block = np.empty((rows, len(xs)))
    signs = np.empty(block.shape, dtype=bool)
    r = np.empty(len(xs))
    positive = np.zeros(len(xs), dtype=np.int64)  # the pivot itself is positive
    with np.errstate(divide="ignore", over="ignore"):
        for start in range(0, n, rows):
            k = min(rows, n - start)
            if start:
                np.reciprocal(block[-1], out=r)  # the previous block's last pivot
            np.subtract(xs, d[start:start + k, None], out=block[:k])
            if start:
                block[0] -= r
            for i in range(1, k):
                np.reciprocal(block[i - 1], out=r)
                block[i] -= r
            positive += np.signbit(block[:k], out=signs[:k]).sum(axis=0)
    return n - positive


def _tridiagonal_eigenvalues(d: np.ndarray) -> np.ndarray:
    """All eigenvalues, ascending, by per-index bisection to ~1e-13.

    Each round counts each run of equal midpoints once (brackets stay
    ordered by index, so equal midpoints are neighbours): round k has at most
    2^k distinct brackets.  Midpoints are compared by their bits, so +0 and
    -0 stay distinct shifts.
    """
    n = len(d)
    # Gershgorin bounds; couplings contribute at most 2.
    lo = float(np.min(d)) - 2.0
    hi = float(np.max(d)) + 2.0
    los = np.full(n, lo)
    his = np.full(n, hi)
    targets = np.arange(1, n + 1)
    fresh = np.ones(n, dtype=bool)  # mids[i] differs from mids[i - 1]
    for _ in range(_BISECTION_STEPS):
        mids = 0.5 * (los + his)
        bits = mids.view(np.int64)
        fresh[1:] = bits[1:] != bits[:-1]
        counts = _sturm_counts(d, mids[fresh])[np.cumsum(fresh) - 1]
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


# ---------------------------------------------------------------------------
# Polynomial root finding via Sturm chains
# ---------------------------------------------------------------------------

def _primitive(coeffs) -> list[int]:
    """The coefficients times a positive rational: coprime integers, same signs.

    Float coefficients are exact dyadic rationals, so every backend lands here.
    """
    fracs = [Fraction(c) for c in coeffs]
    den = math.lcm(*(f.denominator for f in fracs))
    ints = [f.numerator * (den // f.denominator) for f in fracs]
    while len(ints) > 1 and ints[-1] == 0:
        ints.pop()
    content = math.gcd(*ints) or 1
    return [c // content for c in ints]


def _sign_at(p: list[int], n: int, d: int) -> int:
    """Sign of p(n/d), d > 0, from the integer sum_k p_k n^k d^(deg-k)."""
    acc = 0
    dk = 1
    for c in reversed(p):
        acc = acc * n + c * dk
        dk *= d
    return (acc > 0) - (acc < 0)


def _quotient(a: list[int], b: list[int]) -> list[int]:
    """a / b for integer polynomials with b primitive and b | a."""
    rem = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = rem[k + len(b) - 1] // b[-1]
        for i, bc in enumerate(b):
            rem[k + i] -= c * bc
    return q


def _sturm_chain(p: list[int]) -> list[list[int]]:
    """p, p', then minus pseudo-remainders, each reduced to its primitive part.

    The pseudo-remainder multiplies by |lc|, not lc, so every member keeps the
    sign of the true Sturm member.  The last member is gcd(p, p') up to a
    constant.
    """
    chain = [p, _primitive([k * c for k, c in enumerate(p)][1:])]
    while len(chain[-1]) > 1:
        rem, b = list(chain[-2]), chain[-1]
        scale, sign = abs(b[-1]), (1 if b[-1] > 0 else -1)
        while len(rem) >= len(b):
            c = sign * rem.pop()
            if c:
                shift = len(rem) - len(b) + 1
                rem = [x * scale for x in rem]
                for i, bc in enumerate(b[:-1]):
                    rem[shift + i] -= c * bc
        rem = _primitive(rem)
        if rem == [0]:
            break
        chain.append([-c for c in rem])
    return chain


def _square_free_chains(p: list[int]) -> list[list[list[int]]]:
    """Sturm chains of the square-free parts of p, g = gcd(p, p'), gcd(g, g'), ...

    A root of multiplicity m is a simple root of the first m of them.  Each
    chain is p's own divided by its gcd tail, so no member vanishes at a
    multiple root and sign variations count distinct roots in (a, b].
    """
    chains = []
    while len(p) > 1:
        chain = _sturm_chain(p)
        p = chain[-1]
        chains.append([_quotient(m, p) for m in chain] if len(p) > 1 else chain)
    return chains


def _variations(chain: list[list[int]], x: float) -> int:
    """Sign changes along the chain at x, zeros dropped."""
    n, d = x.as_integer_ratio()
    signs = [s for s in (_sign_at(m, n, d) for m in chain) if s]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _root_bound(p: list[int]) -> float:
    """A power of two above every |root| of p (Fujiwara's bound, in bit lengths)."""
    top = abs(p[-1]).bit_length()
    deg = len(p) - 1
    exps = (-(-(abs(c).bit_length() - top + 1) // (deg - k)) for k, c in enumerate(p[:-1]) if c)
    return math.ldexp(1.0, 1 + max(exps, default=0))


def _narrow(q: list[int], a: float, b: float) -> tuple[float, float, float]:
    """Bisect (a, b], holding one root of square-free q, down to adjacent floats.

    Returns the float nearest the root and the final bracket (a, b].
    """
    sb = _sign_at(q, *b.as_integer_ratio())
    while sb:
        mid = 0.5 * (a + b)
        if not a < mid < b:
            # the exact midpoint of the adjacent floats a, b picks the nearer
            sm = _sign_at(q, *((Fraction(a) + Fraction(b)) / 2).as_integer_ratio())
            return (a if sm == sb else b), a, b
        sm = _sign_at(q, *mid.as_integer_ratio())
        if sm == -sb:
            a = mid
        else:
            b, sb = mid, sm
    return b, a, b


def poly_roots(p: CharPoly, spec: LatticeSpec | None = None) -> Spectrum:
    """All real roots of p, ascending with multiplicity, each the nearest float.

    Every sign is decided in integer arithmetic: p is scaled to a primitive
    integer polynomial, its Sturm chain is built by pseudo-remainders, and
    members are evaluated at float (dyadic) points by integer Horner.
    Distinct roots are isolated by Sturm counts and narrowed to adjacent
    floats on the sign of the square-free part; a root's multiplicity is the
    number of square-free chains (of p, gcd(p, p'), ...) that count it in the
    final bracket.  The count must equal the degree, otherwise p has complex
    roots and an ArithmeticError is raised.
    """
    if p.degree < 1:
        raise ValueError("poly_roots needs degree >= 1")
    chains = _square_free_chains(_primitive(p.coeffs))
    chain = chains[0]
    bound = _root_bound(chain[0])
    roots: list[float] = []
    stack = [(-bound, bound, _variations(chain, -bound), _variations(chain, bound))]
    while stack:
        a, b, va, vb = stack.pop()
        mid = 0.5 * (a + b)
        if va - vb > 1 and a < mid < b:
            vm = _variations(chain, mid)
            stack += [(a, mid, va, vm), (mid, b, vm, vb)]
        elif va > vb:
            r = b  # more than one distinct root within one ulp: report b
            if va - vb == 1:
                r, a, b = _narrow(chain[0], a, b)
            mult = va - vb + sum(_variations(c, a) - _variations(c, b) for c in chains[1:])
            roots += [r] * mult
    if len(roots) != p.degree:
        raise ArithmeticError(
            f"found {len(roots)} real roots for a degree-{p.degree} polynomial; "
            "the others are complex")
    return Spectrum(tuple(sorted(roots)), spec)


# ---------------------------------------------------------------------------
# Inverse-power (Euler-Rayleigh) sums
# ---------------------------------------------------------------------------

def inverse_power_sums(p: CharPoly, kmax: int) -> list[float]:
    """[sum_n lambda_n^-m for m = 1..kmax] from the coefficients of p.

    Newton's identities applied to the reversed polynomial, whose roots are
    1/lambda_n; no root extraction involved.  Requires p(0) != 0.  The exact
    backend runs in Fractions, tests p(0) == 0 exactly and rounds each sum
    once at the end; the float backend treats |p(0)| <= 1e-14 max|c_k| as 0.
    """
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    exact = p.backend == "exact"
    coeffs = [Fraction(c) for c in p.coeffs] if exact else p.as_floats()
    d = p.degree
    c0 = coeffs[0]
    if c0 == 0 or (not exact and abs(c0) <= 1e-14 * max(abs(c) for c in coeffs)):
        raise ZeroDivisionError(
            "p(0) = 0: the operator has a zero mode; remove it (primed determinant) first")
    # reversed monic: a[d - m] = c_m / c0, roots 1/lambda_n
    a = [c / c0 for c in coeffs]
    sums = []
    for m in range(1, kmax + 1):
        acc = -m * a[m] if m <= d else 0
        for i in range(1, m):
            if i <= d:
                acc -= a[i] * sums[m - i - 1]
        sums.append(acc)
    return [float(s) for s in sums]


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

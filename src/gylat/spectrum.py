"""Brute-force eigenvalue oracle and characteristic-polynomial root finding.

The oracle never touches the transfer-matrix code: it assembles the operator
as a symmetric tridiagonal (interval) or Hermitian cyclic (circle) matrix in
the dimensionless variables and solves it by Sturm-sequence bisection on
IEEE pivot signs (tridiagonal), or by dense diagonalisation of the nu x nu
matrix itself (cyclic).  The bisection runs in two steps over one record of
counted shifts: Newton steps on the same pivots first close in on each
eigenvalue that sits alone in its bracket, then bisection is replayed from
the record, so it counts only the midpoints the record leaves open.  Root
finding for characteristic polynomials goes the other way - Sturm chains of
the polynomial itself, with every value computed in integer arithmetic, and
Newton steps on those exact values kept inside each isolating bracket - so
the two routes stay independent checks of one another.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING

from .core import (
    DIRICHLET,
    BoundaryCondition,
    CharPoly,
    LatticeSpec,
    Potential,
    Spectrum,
    _check_lattice,
    _lift,
)

if TYPE_CHECKING:  # annotations only: numpy loads in the functions that use arrays
    import numpy as np

# Caps beyond which the oracle refuses (callers get an explicit error
# rather than an open-ended run).
ORACLE_MAX_NU = 3000
ORACLE_MAX_NU_CYCLIC = 800

# Sites whose pivot signs _sturm_counts counts in one numpy call.
_STURM_BLOCK = 64

# Half-width of the pair of shifts that closes a bracket around a root that
# Newton has located, relative to max(1, |root|): two ulps at 1.  Newton's
# root and the shift where the count steps mostly agree to an ulp or so; a
# pair that misses the step tries again four times wider.
_NEWTON_CLOSE = 4.4e-16

# Newton steps pay when the indices taking them, times the rounds left after
# the few they take, reach this many (each saves a shift a round).
_NEWTON_WORK = 4000


# ---------------------------------------------------------------------------
# Operator assembly
# ---------------------------------------------------------------------------

def _interval_diagonal(potential: Potential, bc: BoundaryCondition) -> np.ndarray:
    """Diagonal of the dimensionless interval operator; every off-diagonal is -1.

    End diagonals come from eliminating the boundary values y(0), y(nu+1)
    with the Robin conditions Delta y(0) = alpha y(0), Delta y(nu) = -beta y(nu+1):

        y(0) = y(1)/(1+alpha)   =>   d_1 = 2 + v_1 - 1/(1+alpha),

    and mirrored on the right; alpha = 0 reproduces the Neumann entry
    1 + v_1, Dirichlet keeps 2 + v_1.  For nu = 1 both corrections act on
    the single site.  An alpha (beta) of exactly -1 pins y(1) (y(nu)) to 0
    instead, and its site is dropped, so the diagonal may be shorter than nu.
    """
    d = 2.0 + potential.as_array()
    if bc.kind == DIRICHLET:
        return d
    alpha, beta = float(bc.robin_alpha), float(bc.robin_beta)
    for end, par in ((0, alpha), (-1, beta)):
        if par != -1.0:
            d[end] -= 1.0 / (1.0 + par)
    return d[(alpha == -1.0):len(d) - (beta == -1.0)]


def tridiagonal_matrix(potential: Potential, bc: BoundaryCondition) -> tuple[np.ndarray, np.ndarray]:
    """(diagonal, off-diagonal) of the dimensionless operator, interval bcs:
    :func:`_interval_diagonal` and -1 throughout.  A degenerate Robin end
    (alpha or beta exactly -1) raises ValueError."""
    import numpy as np
    if not bc.is_interval:
        raise ValueError("tridiagonal form exists only for interval conditions")
    nu = potential.nu
    if nu < 1:
        raise ValueError("need nu >= 1")
    d = _interval_diagonal(potential, bc)
    if len(d) < nu:
        raise ValueError("degenerate Robin parameter (alpha or beta = -1); "
                         "the matrix form does not exist")
    e = -np.ones(max(nu - 1, 0))
    return d, e


def cyclic_matrix(potential: Potential, bc: BoundaryCondition) -> np.ndarray:
    """Dense Hermitian matrix for periodic/twisted conditions.

    The twist phase exp(2 pi i tau), exactly +-1 at tau = 1 and 1/2, where H
    is a float64 matrix, sits on the wrap-around couplings; for nu = 1 and
    nu = 2 the wrap-around and nearest-neighbour couplings merge.  The
    entries are written through a flat view, with no nu x nu temporaries.
    """
    import numpy as np
    if not bc.is_circle:
        raise ValueError("cyclic form exists only for circle conditions")
    nu = potential.nu
    if nu < 1:
        raise ValueError("need nu >= 1")
    theta = 2.0 * math.pi * bc.twist
    phase = {1.0: 1.0, 0.5: -1.0}.get(bc.twist, complex(math.cos(theta), math.sin(theta)))
    H = np.zeros((nu, nu), type(phase))
    flat = H.reshape(-1)
    flat[::nu + 1] = 2.0 + potential.as_array()
    if nu == 1:
        H[0, 0] -= phase + phase.conjugate()
        return H
    flat[1::nu + 1] = flat[nu::nu + 1] = -1.0
    H[0, nu - 1] -= phase.conjugate()
    H[nu - 1, 0] -= phase
    return H


# ---------------------------------------------------------------------------
# Sturm-sequence bisection (tridiagonal, all off-diagonals -1)
# ---------------------------------------------------------------------------

def _sturm_counts(d: np.ndarray, xs: np.ndarray, slopes: np.ndarray | None = None) -> np.ndarray:
    """Number of eigenvalues below each shift in xs (LDL pivot signs).

    Pivots are carried negated, p_k = x - d_k - 1/p_{k-1}, and unguarded
    (Demmel, Dhillon & Ren, ETNA 3 (1995) 116-149): an exact zero is +0 and
    counts as negative, and a zero or tiny pivot makes the next one infinite
    or huge with the other sign, so the pair adds one, as a -pivmin guard does.
    Pivots go into a block of _STURM_BLOCK sites x shifts: the x - d_k of a
    whole block is one call, each site then subtracts its 1/p_{k-1} (two
    calls), and the block's sign bits are counted together.

    If given, slopes receives Q'/Q = sum_k p'_k / p_k at the first
    len(slopes) shifts, Q(x) = det(x - T) = prod_k p_k, with
    p'_k = 1 + p'_{k-1} / p_{k-1}^2 carried on those columns only.  A zero
    or tiny pivot can make a slope inf or nan; the counts never change.
    """
    import numpy as np
    n, m, asked = len(d), (0 if slopes is None else len(slopes)), len(xs)
    if asked == 1 or m == 1:
        # numpy's in-place loops take twice as long on one element as on two
        xs, m = np.concatenate([xs[:1], xs]), m + (m > 0)
    rows = min(n, _STURM_BLOCK)
    block = np.empty((rows, len(xs)))
    signs = np.empty(block.shape, dtype=bool)
    r = np.empty(len(xs))
    piv = list(block)  # row views, made once
    positive = np.zeros(len(xs), dtype=np.int64)  # the pivot itself is positive
    if m:
        rm = r[:m]
        grow = np.empty((rows, m))  # p'_k of the first m shifts
        terms = np.empty((rows, m))  # their p'_k / p_k, once 1/p_k is known
        one = np.ones(m)
        dpiv, tpiv = list(grow), list(terms)
        total = np.zeros(m)  # sum of p'_k / p_k
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for start in range(0, n, rows):
            k = min(rows, n - start)
            if start:
                np.reciprocal(piv[-1], out=r)  # the previous block's last pivot
            np.subtract(xs, d[start:start + k, None], out=block[:k])
            if start:
                np.subtract(piv[0], r, out=piv[0])
                if m:
                    np.multiply(dpiv[-1], rm, out=tpiv[-1])
                    total += tpiv[-1]
                    np.multiply(tpiv[-1], rm, out=dpiv[0])
                    np.add(dpiv[0], one, out=dpiv[0])
            elif m:
                grow[0] = 1.0
            for i in range(1, k):
                np.reciprocal(piv[i - 1], out=r)
                np.subtract(piv[i], r, out=piv[i])
                if m:
                    np.multiply(dpiv[i - 1], rm, out=tpiv[i - 1])
                    np.multiply(tpiv[i - 1], rm, out=dpiv[i])
                    np.add(dpiv[i], one, out=dpiv[i])
            if m:
                total += terms[:k - 1].sum(axis=0)
            np.signbit(block[:k], out=signs[:k])
            positive += signs[:k].view(np.uint8).sum(axis=0, dtype=np.uint8)
        if m:
            total += grow[k - 1] / block[k - 1, :m]
    if m:
        slopes[:] = total[m - len(slopes):]
    return n - positive[len(xs) - asked:]


def _fresh(xs: np.ndarray) -> np.ndarray:
    """Which shifts differ in bits from the one before: the first of each run."""
    import numpy as np
    bits = xs.view(np.int64)
    fresh = np.ones(len(xs), dtype=bool)
    fresh[1:] = bits[1:] != bits[:-1]
    return fresh


def _counts(d: np.ndarray, xs: np.ndarray, m: int = 0) -> tuple[np.ndarray, np.ndarray | None]:
    """_sturm_counts at xs and the slopes at its first m shifts; each run of
    equal later shifts is counted once."""
    import numpy as np
    if not len(xs):
        return np.zeros(0, dtype=np.int64), None
    if not m:
        fresh = _fresh(xs)
        return _sturm_counts(d, xs[fresh])[np.cumsum(fresh) - 1], None
    fresh = _fresh(xs[m:])
    slopes = np.empty(m)
    counts = _sturm_counts(d, np.concatenate([xs[:m], xs[m:][fresh]]), slopes)
    return np.concatenate([counts[:m], counts[m:][np.cumsum(fresh) - 1]]), slopes


class _Counted:
    """The record of counted shifts: for each count c = 0..n, the largest
    and the smallest shift counted c (-inf and inf where none was).  No
    shift counted here is -0, so comparing floats orders shifts as the
    count, which is monotone, does."""

    def __init__(self, n: int):
        import numpy as np
        self.top, self.bottom = np.full(n + 1, -np.inf), np.full(n + 1, np.inf)

    def add(self, xs: np.ndarray, got: np.ndarray) -> None:
        """Record shifts xs, counted got."""
        import numpy as np
        np.maximum.at(self.top, got, xs)
        np.minimum.at(self.bottom, got, xs)

    def brackets(self) -> tuple[np.ndarray, np.ndarray]:
        """Per index i (0-based): low, the largest shift counted <= i (-inf
        if none), and high, the smallest counted > i (inf if none)."""
        import numpy as np
        low = np.maximum.accumulate(self.top[:-1])
        high = np.minimum.accumulate(self.bottom[:0:-1])[::-1]
        return low, high

    def alone(self, low: np.ndarray, high: np.ndarray) -> np.ndarray:
        """Which brackets hold their eigenvalue alone: counts i and i + 1."""
        import numpy as np
        return (self.top[:-1] == low) & (self.bottom[1:] == high) & (low > -np.inf) & (high < np.inf)


def _close_in(d: np.ndarray, lo: float, hi: float, counted: _Counted) -> None:
    """Step one: count shifts into counted, one _sturm_counts call a round,
    until every eigenvalue has a tight bracket there or Newton steps can no
    longer pay.

    An index that is not alone bisects from the Gershgorin bounds (lo, hi]
    as step two will, and counts each midpoint the record does not decide.
    An index alone in (low, high) takes Newton steps x - Q/Q',
    Q(x) = det(x - T), on the same pivots (Li & Zeng, SIAM J. Sci. Comput.
    15 (1994) 1145-1173): from its last root, or from the midpoint of
    (low, high) where the last step left the bracket or did not halve.
    Once converged, it counts a pair of shifts _NEWTON_CLOSE max(1, |root|)
    either side of the root, four times wider after a pair that misses the
    step of the count.  Newton steps cost three more numpy calls a site, so
    they run only in bulk, or once the alone indices are most of what is
    left to count and a dozen rounds remain for the counts they spare;
    otherwise alone indices bisect too.
    """
    import numpy as np
    n = len(d)
    index = np.arange(n)
    los, his = np.full(n, lo), np.full(n, hi)
    root = np.full(n, np.nan)  # Newton's last root, nan to restart from the midpoint
    step = np.full(n, np.inf)  # the step that gave it
    error = np.full(n, np.inf)  # its estimated error
    reach = np.ones(n)  # the closing pair's width, in _NEWTON_CLOSE max(1, |root|)
    shut = np.zeros(n, dtype=bool)  # a tight bracket in the record
    width = min(hi - lo, np.finfo(float).max)  # halves every round, so that step one ends
    # roots, margins and steps may overflow on diagonals near the float
    # range; a root that is not finite is dropped, and nan is never inside,
    # near or converged, so every shift counted is finite
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        while True:
            left = math.log2(max(width, 1e-14)) - math.log2(1e-14)
            # once Newton steps can no longer pay, what is left is bisection,
            # which step two does
            if shut.all() or (left < 12 and n * (left - 6) < _NEWTON_WORK):
                return
            low, high = counted.brackets()
            mids = 0.5 * (los + his)
            todo = (low < mids) & (mids < high)
            j = np.flatnonzero(counted.alone(low, high) & ~shut)
            rest = np.count_nonzero(todo) - np.count_nonzero(todo[j])
            if len(j) * (left - 6) < _NEWTON_WORK and (len(j) < rest or left < 12):
                j = j[:0]
            todo[j] = False  # the midpoints to count
            k = p = j  # the indices taking Newton steps and closing pairs
            xs = mids[todo]
            if len(j):
                g, lj, hj = root[j], low[j], high[j]
                close = _NEWTON_CLOSE * np.maximum(1.0, np.abs(g))
                margin = reach[j] * close
                pair = (lj - margin <= g) & (g <= hj + margin) & (error[j] <= 0.5 * close)
                ends = np.clip([g - margin, g + margin], lj, hj)[:, pair].ravel()
                k, p, g, lj, hj = j[~pair], j[pair], g[~pair], lj[~pair], hj[~pair]
                inside = (lj < g) & (g < hj)
                x = np.where(inside, g, 0.5 * (lj + hj))
                xs = np.concatenate([x, xs, ends])
            got, slopes = _counts(d, xs, len(k))
            counted.add(xs, got)
            b = len(xs) - 2 * len(p)
            if len(k):
                # Newton's error after a step s is about C s^2, and the last
                # root, from a step s_last, was about C s_last^2 off
                size = np.abs(1.0 / slopes)
                ratio = np.where(inside, size / step[k], 1.0)
                error[k] = size * np.minimum(1.0, ratio) ** 2
                z = x - 1.0 / slopes
                root[k] = np.where(((ratio <= 0.5) | ~inside) & np.isfinite(z), z, np.nan)
                step[k] = size
            if len(p):
                tight = (got[b:b + len(p)] <= p) & (got[b + len(p):] > p)
                shut[p[tight]] = True
                reach[p[~tight]] *= 4.0
            # a midpoint moves as bisection moves it once it is counted or
            # the record decides it
            below = mids >= high
            moved = todo | below | (mids <= low)
            below[todo] = got[len(k):b] > index[todo]
            his, los = np.where(moved & below, mids, his), np.where(moved & ~below, mids, los)
            width *= 0.5


def _tridiagonal_eigenvalues(d: np.ndarray) -> np.ndarray:
    """All eigenvalues, ascending, by per-index bisection to 1e-14.

    Round by round, every bracket (los, his] moves to the half that holds
    its eigenvalue, from the Gershgorin bounds until all are narrower than
    1e-14 or a round moves none: brackets at |lambda| >= 64 stop one ulp
    wide.  Each eigenvalue is then within 1e-14 of the shift where its
    computed count steps, or within an ulp above 64.  There is no round
    cap: both stops come after about log2(Gershgorin width / 1e-14) rounds,
    which is more than 64 once max |d| is above ~1e5.

    It runs in two steps over one record of counted shifts (_Counted).
    Step one (_close_in) counts shifts of its own choosing, bisection
    midpoints and Newton steps, until every eigenvalue has a tight counted
    bracket or Newton steps can no longer pay.  Step two is the bisection
    above: it decides each midpoint by comparing it with the record, and
    counts, in one _sturm_counts call a round, only the midpoints that fall
    inside a bracket.  The computed count is monotone in the shift (IEEE
    arithmetic; Demmel, Dhillon & Ren 1995), so step two is plain
    bisection, and step one only adds counted shifts: the bits are those of
    counting every midpoint, whatever step one counted.
    """
    import numpy as np
    n = len(d)
    # Gershgorin bounds; couplings contribute at most 2.
    lo = float(np.min(d)) - 2.0
    hi = float(np.max(d)) + 2.0
    counted = _Counted(n)
    _close_in(d, lo, hi, counted)
    index = np.arange(n)
    los = np.full(n, lo)
    his = np.full(n, hi)
    low, high = counted.brackets()
    while True:
        mids = 0.5 * (los + his)
        below = mids >= high
        todo = (low < mids) & ~below
        if todo.any():
            got = _counts(d, mids[todo])[0]
            counted.add(mids[todo], got)
            below[todo] = got > index[todo]
            low, high = counted.brackets()
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
    form (absolute accuracy ~1e-14, an ulp or two above |lambda| = 64, at
    any height of the potential; clustered eigenvalues come out as exact
    multiplicities because bisection is driven by Sturm counts).  It runs
    in two steps over one record of counted shifts: Newton steps in
    isolated brackets close in on their eigenvalues first, and bisection,
    replayed from the record, counts only the midpoints it leaves open, so
    the eigenvalues are those of plain bisection, bit for bit.  A diagonal
    whose Gershgorin bound min d - 2 or max d + 2 reaches 2^1023 in
    magnitude raises ValueError: bisection's midpoints would overflow to
    infinite eigenvalues.  Circle conditions diagonalise the nu x nu
    Hermitian H of :func:`cyclic_matrix`, a real symmetric matrix when the
    twist phase is +-1 (periodic and tau = 1/2).  A given ``spec`` must fit
    the potential and ``bc``.
    """
    if spec is not None:
        _check_lattice(potential, bc, spec)
    import numpy as np
    nu = potential.nu
    if nu < 1:
        raise ValueError("oracle needs nu >= 1")
    if bc.is_interval:
        if nu > ORACLE_MAX_NU:
            raise ValueError(f"oracle supports nu <= {ORACLE_MAX_NU} for interval conditions")
        d, _ = tridiagonal_matrix(potential, bc)
        # below 2^1023 in magnitude no sum of two bracket ends, a midpoint's, overflows
        bounds = float(np.min(d)) - 2.0, float(np.max(d)) + 2.0
        if max(map(abs, bounds)) >= 2.0 ** 1023:
            raise ValueError("oracle needs Gershgorin bounds below 2^1023 in magnitude, "
                             f"got [{bounds[0]:.17g}, {bounds[1]:.17g}]")
        lams = _tridiagonal_eigenvalues(d)
        return Spectrum(tuple(lams), spec)
    if nu > ORACLE_MAX_NU_CYCLIC:
        raise ValueError(f"oracle supports nu <= {ORACLE_MAX_NU_CYCLIC} for circle conditions")
    return Spectrum(tuple(np.linalg.eigvalsh(cyclic_matrix(potential, bc))), spec)


# ---------------------------------------------------------------------------
# Polynomial root finding via Sturm chains
# ---------------------------------------------------------------------------

def _primitive(coeffs) -> list[int]:
    """The coefficients times a positive rational: coprime integers, same signs.

    Float coefficients are exact dyadic rationals, so every backend lands here.
    """
    ints = _lift(coeffs)[0]
    while len(ints) > 1 and ints[-1] == 0:
        ints.pop()
    content = math.gcd(*ints) or 1
    return [c // content for c in ints]


def _dyadic(x) -> tuple[int, int]:
    """(n, s) with x = n / 2^s, for a float or the midpoint of two."""
    n, d = x.as_integer_ratio()
    return n, d.bit_length() - 1


def _value(p: list[int], n: int, s: int) -> int:
    """p(n / 2^s) 2^(s deg p) in integers: one Horner pass that scales by shifts."""
    acc = shift = 0
    for c in reversed(p):
        acc = acc * n + (c << shift)
        shift += s
    return acc


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
    n, s = _dyadic(x)
    signs = [v > 0 for v in (_value(m, n, s) for m in chain) if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _root_bound(p: list[int]) -> float:
    """A power of two above every |root| of p (Fujiwara's bound, in bit lengths),
    at least 2^-1074, the least positive float: a root below it comes out 0.0."""
    top = abs(p[-1]).bit_length()
    deg = len(p) - 1
    exps = (-(-(abs(c).bit_length() - top + 1) // (deg - k)) for k, c in enumerate(p[:-1]) if c)
    return math.ldexp(1.0, max(-1074, 1 + max(exps, default=0)))


def _narrow(q: list[int], a: float, b: float) -> tuple[float, float, float]:
    """Narrow (a, b], holding one root of square-free q, down to adjacent floats.

    Safeguarded Newton iteration (rtsafe; Brent, *Algorithms for Minimization
    without Derivatives*, 1973): from x, the last point it stepped to, the
    point x - q(x)/q'(x), one correctly rounded int / int, is evaluated if it
    lies strictly inside the bracket, and one that rounds to x probes the
    next float inward.  A step that leaves the bracket, or has no slope or no
    float size, takes the midpoint, and so do the 1, 3, 7, ... points after
    it, the run doubling with each such step in a row until one lands inside;
    two evaluations in a row that have not halved the bracket force a midpoint.
    The sign of q at each point moves the bracket, so the answer is that of
    bisection whatever the path: a point where q is zero, or else the float
    nearest the root, by the sign at the exact midpoint of the adjacent final
    a, b (ties to b).  Returns it and the final bracket (a, b].
    """
    x = t = b
    n, s = _dyadic(x)
    v = vt = _value(q, n, s)  # q at x, the point Newton steps from, and at t, the last point
    dq = [k * c for k, c in enumerate(q)][1:] if v else []
    up = v > 0  # the sign of q at b
    before = last = math.inf  # the widths before the last two evaluations
    run = wait = 0  # the midpoints after the last step out of the bracket; those still to take
    while vt:
        mid = 0.5 * (a + b)
        if not a < mid < b:
            # the exact midpoint of the adjacent floats a, b picks the nearer
            vm = _value(q, *_dyadic((Fraction(a) + Fraction(b)) / 2))
            return (a if vm and (vm > 0) == up else b), a, b
        t = mid
        if not wait:
            try:
                z = x - v / (_value(dq, n, s) << s)
            except (ZeroDivisionError, OverflowError):
                z = mid
            if z == x:
                z = math.nextafter(x, a if x == b else b)
            if a < z < b:
                t = z
        before, last = last, b - a
        nt, st = _dyadic(t)
        vt = _value(q, nt, st)
        if vt and (vt > 0) != up:
            a = t
        else:
            b = t
        if not wait or not (x == a or x == b):
            x, n, s, v = t, nt, st, vt
        if not wait:  # 1, 3, 7, ... midpoints after each step out of the bracket in a row
            run = 2 * run + 1 if t == mid else 0
        wait = max(wait - 1 if wait else run, int(b - a > 0.5 * before))
    return t, a, b


def poly_roots(p: CharPoly) -> Spectrum:
    """All real roots of p, ascending with multiplicity, each the nearest float.

    Every sign is decided in integer arithmetic: p is scaled to a primitive
    integer polynomial, its Sturm chain is built by pseudo-remainders, and
    members are evaluated at float (dyadic) points n / 2^s by integer Horner
    scaled by shifts.  Distinct roots are isolated by Sturm counts and
    narrowed to adjacent floats by Newton steps on the exact values of the
    square-free part, kept inside the bracket by its signs and falling back
    to bisection (:func:`_narrow`); the float returned is the one bisection
    would return, bit for bit.  A root's multiplicity is the
    number of square-free chains (of p, gcd(p, p'), ...) that count it in the
    final bracket.  The count must equal the degree, otherwise p has complex
    roots and an ArithmeticError is raised.  A non-finite float coefficient
    raises ValueError.
    """
    if p.degree < 1:
        raise ValueError("poly_roots needs degree >= 1")
    if p.backend == "float" and (bad := [k for k, c in enumerate(p.coeffs) if not math.isfinite(c)]):
        raise ValueError(f"poly_roots needs finite coefficients; that of lambda^{bad[0]} "
                         f"is {p.coeffs[bad[0]]}")
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
    return Spectrum(tuple(sorted(roots)))


# ---------------------------------------------------------------------------
# Inverse-power (Euler-Rayleigh) sums
# ---------------------------------------------------------------------------

ZERO_MODE_MESSAGE = "p(0) = 0: the operator has a zero mode; remove it (primed determinant) first"
CONSISTENCY_RTOL = 1e-8  # the float sums' promised relative error; the CLI's agreement tolerance


def inverse_power_sums(p: CharPoly, kmax: int) -> list[float]:
    """[sum_n lambda_n^-m for m = 1..kmax] from the coefficients of p.

    Newton's identities on the reversed polynomial, whose roots are 1/lambda_n, in
    integers (:func:`_exact_newton_sums`) or guarded floats (:func:`_float_newton_sums`).
    Requires p(0) != 0 exactly: a bare polynomial has no error yardstick, so a float
    p(0) rounded off a zero mode is the caller's to rule out (sums ~ 1/p(0) follow).
    """
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    if p.coeffs[0] == 0:
        raise ZeroDivisionError(ZERO_MODE_MESSAGE)
    if p.backend == "exact":
        return _exact_newton_sums(p.coeffs, kmax)
    return _float_newton_sums(p.coeffs, kmax, p.degree)


def _float_newton_sums(coeffs: list[float], kmax: int, degree: int, refs=()) -> list[float]:
    """:func:`_newton_sums` of float c_0..c_degree (c_0 != 0, any common scale), or
    ArithmeticError unless each S_m is finite with degree 2^-53 size_m / |S_m| <= CONSISTENCY_RTOL.
    ``lost`` counts digits lost below the ``transfer._taylor_at_zero`` yardstick: c_0's over the
    sweep (near a zero mode); c_k's, k >= 1, in one read-out rounding, so not times degree."""
    coeffs = coeffs[:degree + 1]
    lost = [max(0.0, r / abs(c) - 1.0) / (degree if k else 1) if c else 0.0  # an exact 0 loses none
            for k, (c, r) in enumerate(zip(coeffs, refs))]
    sums, sizes = _newton_sums(coeffs, kmax, lost)
    # a sum of no terms (size 0) has no cancellation; a nonzero size over 0 has no bound
    bound = degree * 2.0 ** -53 * max(size / max(abs(s), 5e-324) for s, size in zip(sums, sizes))
    if not (bound <= CONSISTENCY_RTOL and all(map(math.isfinite, sums))):
        raise ArithmeticError(
            f"float jet for the inverse-power sums may be inaccurate: Newton cancellation "
            f"bound {bound:.3g} exceeds {CONSISTENCY_RTOL:g}; rerun with --exact")
    return [float(s) for s in sums]


def _newton_sums(coeffs: list, kmax: int, lost=()) -> tuple[list, list]:
    """S_m = sum_n lambda_n^-m, m = 1..kmax, from c_0..c_kmax of P (c_0 != 0).

    Newton's identities on the reversed polynomial, in the arithmetic of the coefficients; a
    missing c_k counts as 0.  Also returns each S_m's size: the sum of its |terms|, those of
    a_k = c_k / c_0 times 1 + x_k (x = ``lost``), plus m x_0 |S_m|: c_0 (1 + x) has S_m (1 + x)^-m.
    """
    c0 = coeffs[0]
    # reversed monic: a[d - m] = c_m / c0, roots 1/lambda_n
    a = [c / c0 for c in coeffs[:kmax + 1]]
    a += [0] * (kmax + 1 - len(a))
    x = [*lost, *[0] * (kmax + 1)]
    sums, sizes = [], []
    for m in range(1, kmax + 1):
        acc = -m * a[m]
        size = abs(acc) * (1 + x[m])
        for i in range(1, m):
            term = a[i] * sums[m - i - 1]
            acc -= term
            size += abs(term) * (1 + x[i])
        sums.append(acc)
        sizes.append(size + m * x[0] * abs(acc))
    return sums, sizes


def _exact_newton_sums(coeffs: list, kmax: int) -> list[float]:
    """:func:`_newton_sums` of exact c_k = p_k / q (q their common denominator,
    c_0 != 0) in integers: T_m = S_m p_0^m = -m p_m p_0^(m-1) - sum_(0<i<m)
    p_i p_0^(i-1) T_(m-i), and S_m = T_m / p_0^m, rounded once as float(Fraction)."""
    p = _lift(coeffs[:kmax + 1])[0]
    p = [-c for c in p] if p[0] < 0 else p  # a positive p_0^m keeps the sign of a zero S_m
    p += [0] * (kmax + 1 - len(p))
    powers = [p[0] ** m for m in range(kmax + 1)]
    t = [0]  # t[m] = T_m
    for m in range(1, kmax + 1):
        t.append(-m * p[m] * powers[m - 1]
                 - sum(p[i] * powers[i - 1] * t[m - i] for i in range(1, m)))
    return [t[m] / powers[m] for m in range(1, kmax + 1)]


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

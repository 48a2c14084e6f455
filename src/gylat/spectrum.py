"""Brute-force eigenvalue oracle and characteristic-polynomial root finding.

The oracle never touches the transfer-matrix code: it assembles the operator
as a symmetric tridiagonal (interval) or Hermitian cyclic (circle) matrix in
the dimensionless variables and solves it by Sturm-sequence bisection on
IEEE pivot signs, with Newton steps on the same pivots once an eigenvalue
sits alone in its bracket (tridiagonal), or by dense diagonalisation of the
nu x nu matrix itself (cyclic).  Root finding for characteristic polynomials goes
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
    bits = xs.view(np.int64)
    fresh = np.ones(len(xs), dtype=bool)
    fresh[1:] = bits[1:] != bits[:-1]
    return fresh


def _counts(d: np.ndarray, xs: np.ndarray, m: int = 0) -> tuple[np.ndarray, np.ndarray | None]:
    """_sturm_counts at xs and the slopes at its first m shifts; each run of
    equal later shifts is counted once."""
    if not len(xs):
        return np.zeros(0, dtype=np.int64), None
    if not m:
        fresh = _fresh(xs)
        return _sturm_counts(d, xs[fresh])[np.cumsum(fresh) - 1], None
    fresh = _fresh(xs[m:])
    slopes = np.empty(m)
    counts = _sturm_counts(d, np.concatenate([xs[:m], xs[m:][fresh]]), slopes)
    return np.concatenate([counts[:m], counts[m:][np.cumsum(fresh) - 1]]), slopes


def _close(x: np.ndarray) -> np.ndarray:
    """How far from a converged Newton root x its closing shifts go."""
    return _NEWTON_CLOSE * np.maximum(1.0, np.abs(x))


class _Known:
    """Per index i (0-based), the tightest counted shifts low < high with
    count(low) <= i < count(high), and their counts; -inf and inf count 0
    and n.  No shift counted here is -0, so comparing floats orders shifts
    as the count, which is monotone, does."""

    def __init__(self, n: int):
        self.low, self.high = np.full(n, -np.inf), np.full(n, np.inf)
        self.n_low, self.n_high = np.zeros(n, dtype=np.int64), np.full(n, n, dtype=np.int64)
        self.index = np.arange(n)

    def alone(self) -> np.ndarray:
        """Which (low, high) hold their eigenvalue alone."""
        return (self.n_low == self.index) & (self.n_high == self.index + 1)

    def open(self, idx: np.ndarray, xs: np.ndarray) -> np.ndarray:
        """Which shifts xs lie strictly between low and high of their index."""
        return (self.low[idx] < xs) & (xs < self.high[idx])

    def narrow(self, idx: np.ndarray, xs: np.ndarray, got: np.ndarray) -> None:
        """Move low or high of each index in idx (repeats allowed), alone in
        (low, high), to its shift in xs, counted got, where that is tighter;
        the counts stay i and i + 1."""
        up = got > idx
        np.minimum.at(self.high, idx[up], xs[up])
        np.maximum.at(self.low, idx[~up], xs[~up])

    def take(self, todo: np.ndarray, mids: np.ndarray, got: np.ndarray) -> None:
        """Move low or high of each index in todo to its midpoint, which lies
        strictly between, counted got (in the order of the indices)."""
        full = np.zeros(len(mids), dtype=np.int64)
        full[todo] = got
        up = full > self.index
        down = todo & ~up
        self.high, self.n_high = np.where(up, mids, self.high), np.where(up, full, self.n_high)
        self.low, self.n_low = np.where(down, mids, self.low), np.where(down, full, self.n_low)


class _Newton:
    """Newton's iteration on Q(x) = det(x - T) for the indices whose
    (low, high) holds their eigenvalue alone, until a pair of shifts closes
    in on the root."""

    def __init__(self, n: int):
        self.busy = np.zeros(n, dtype=bool)  # alone, not yet closed in
        self.closed = np.zeros(n, dtype=bool)
        self.guess = np.full(n, np.nan)  # Newton's root
        self.error = np.full(n, np.inf)  # its estimated error
        self.stride = np.full(n, np.nan)  # the step that gave it
        self.sure = np.zeros(n, dtype=bool)  # error estimated from two steps
        self.reach = np.ones(n)  # the closing pair's width, in _close units

    def count(self, d: np.ndarray, known: _Known, todo: np.ndarray, mids: np.ndarray,
              left: float) -> None:
        """Decide every midpoint in todo, in one _sturm_counts call as a rule,
        about left rounds before the bisection stops."""
        j = np.flatnonzero(self.busy)
        if len(j):
            idle = todo & ~self.busy
            rest = np.flatnonzero(idle)
        # Newton steps cost three more numpy calls per site; they pay in bulk,
        # or once the busy indices are most of what is left to count and a
        # dozen rounds remain for the calls they spare
        if not len(j) or (len(j) * (left - 6) < _NEWTON_WORK
                          and (len(j) < len(rest) or left < 12)):
            if todo.any():
                known.take(todo, mids, _counts(d, mids[todo])[0])
                self.busy = known.alone() & ~self.closed
            return
        # roots, margins and steps may overflow on diagonals near the float
        # range; an infinite or nan one is never near, far or settled
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            self._step(d, known, todo, mids, j, idle, rest)

    def _step(self, d: np.ndarray, known: _Known, todo: np.ndarray, mids: np.ndarray,
              j: np.ndarray, idle: np.ndarray, rest: np.ndarray) -> None:
        """One round with Newton steps for the busy indices j; rest are the
        other undecided indices (idle as a mask)."""
        asked = todo[j]
        m, g, e, sure = mids[j], self.guess[j], self.error[j], self.sure[j]
        low, high = known.low[j], known.high[j]
        # a root just outside (low, high) is taken to its edge, where the
        # count steps
        slack = self.reach[j] * _close(g)
        near = (low - slack <= g) & (g <= high + slack)
        g = np.clip(g, low, high)
        inside = (low < g) & (g < high)
        settled = near & (e <= 0.5 * _close(g))
        margin = np.where(settled, self.reach[j] * _close(g), np.maximum(_close(g), 2.0 * e))
        side = np.copysign(margin, m - g)
        # a shift between the root and the midpoint, clear of the root's
        # error, decides the midpoint and closes in on the root
        far = asked & near & (settled | sure) & (np.abs(m - g) > 2.0 * margin)
        # a root not yet sure steps on from itself, beside the midpoint
        onward = inside & ~sure
        x = np.where(far, g + side, np.where(asked & ~onward, m, g))
        sloped = ~settled & (asked | inside)
        plain = asked & ~far & (settled | onward)  # midpoints still to count
        # a converged root is closed in from both sides at once
        below, above = g - margin, g + margin
        pair_lo = settled & known.open(j, below)
        pair_hi = settled & known.open(j, above)
        k = j[sloped]
        idx = np.concatenate([k, j[plain], j[pair_lo], j[pair_hi]])
        xs = np.concatenate([x[sloped], m[plain], below[pair_lo], above[pair_hi]])
        got, slopes = _counts(d, np.concatenate([xs[:len(k)], mids[rest], xs[len(k):]]), len(k))
        r = len(k) + len(rest)
        known.take(idle, mids, got[len(k):r])
        known.narrow(idx, xs, np.concatenate([got[:len(k)], got[r:]]))
        if len(k):
            step = 1.0 / slopes
            z = x[sloped] - step
            size = np.abs(step)
            # Newton's error after a step s is about C s^2, and the last root,
            # from a step s_last, was about C s_last^2 off
            est = np.fmin(size, np.abs(z - g[sloped]) * (size / self.stride[k]) ** 2)
            ok = np.isfinite(z)
            steady = ok & near[sloped]  # stepped from near the last root
            self.guess[k] = np.where(ok, z, np.nan)
            self.error[k] = np.where(steady, est, np.where(ok, size, np.inf))
            self.stride[k] = size
            self.sure[k] = steady
        if far.any():
            # a root off by more than its margin leaves the midpoint open
            miss = far & known.open(j, m)
            if miss.any():
                self.sure[j[miss]] = False
                known.narrow(j[miss], m[miss], _counts(d, m[miss])[0])
        # a pair that missed the step of the count tries again four times wider
        shut = settled & (known.low[j] >= below) & (known.high[j] <= above)
        self.closed[j[shut]] = True
        self.reach[j[settled & ~shut]] *= 4.0
        self.busy = known.alone() & ~self.closed


def _tridiagonal_eigenvalues(d: np.ndarray) -> np.ndarray:
    """All eigenvalues, ascending, by per-index bisection to 1e-14.

    Round by round, every bracket (los, his] moves to the half that holds
    its eigenvalue, from the Gershgorin bounds until all are narrower than
    1e-14 or a round moves none: brackets at |lambda| >= 64 stop one ulp
    wide.  Each eigenvalue is then within 1e-14 of the shift where its
    computed count steps, or within an ulp above 64.  There is no round
    cap: both stops come after about log2(Gershgorin width / 1e-14) rounds,
    which is more than 64 once max |d| is above ~1e5.

    The decisions, and so the bits, are those of counting every midpoint,
    but most are taken without a count.  The computed count is monotone in
    the shift (IEEE arithmetic; Demmel, Dhillon & Ren 1995), so a midpoint
    at or below the low of its index, or at or above its high (_Known), is
    decided by comparison.  The other midpoints are counted, each run of
    equal ones once, in one _sturm_counts call a round, and every count
    tightens a low or a high.

    An index whose (low, high) holds its eigenvalue alone takes Newton
    steps x - Q/Q', Q(x) = det(x - T), on the same pivots and in the same
    call (Li & Zeng, SIAM J. Sci. Comput. 15 (1994) 1145-1173): from its
    midpoint, then from its last root, or from just short of that root on
    the side of its midpoint, a shift that decides the midpoint as well.
    Once a root has converged, a pair of shifts a few 1e-16 either side of
    it closes (low, high) in, and almost every later midpoint is decided.
    An index that never isolates, such as a pair of eigenvalues closer than
    1e-14, bisects as before.
    """
    n = len(d)
    # Gershgorin bounds; couplings contribute at most 2.
    lo = float(np.min(d)) - 2.0
    hi = float(np.max(d)) + 2.0
    los = np.full(n, lo)
    his = np.full(n, hi)
    known, newton = _Known(n), _Newton(n)
    width = hi - lo
    while True:
        mids = 0.5 * (los + his)
        todo = (known.low < mids) & (mids < known.high)
        newton.count(d, known, todo, mids, math.log2(max(width, 1e-14)) - math.log2(1e-14))
        below = mids >= known.high
        new_his = np.where(below, mids, his)
        new_los = np.where(below, los, mids)
        # a round that moves no bracket end repeats itself forever; brackets
        # at |lambda| >= 64 stop one ulp wide, above the absolute 1e-14
        if np.array_equal(new_his, his) and np.array_equal(new_los, los):
            break
        his, los = new_his, new_los
        width = np.max(his - los)
        if width < 1e-14:
            break
    return 0.5 * (los + his)


def oracle_spectrum(potential: Potential, bc: BoundaryCondition,
                    spec: LatticeSpec | None = None) -> Spectrum:
    """All nu dimensionless eigenvalues, ascending, multiplicities preserved.

    Interval conditions use Sturm-sequence bisection on the tridiagonal
    form, with Newton steps in isolated brackets that only spare counts
    (absolute accuracy ~1e-14, an ulp or two above |lambda| = 64, at any
    height of the potential; clustered eigenvalues come out as exact
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

ZERO_MODE_MESSAGE = "p(0) = 0: the operator has a zero mode; remove it (primed determinant) first"


def inverse_power_sums(p: CharPoly, kmax: int) -> list[float]:
    """[sum_n lambda_n^-m for m = 1..kmax] from the coefficients of p.

    Newton's identities applied to the reversed polynomial, whose roots are
    1/lambda_n; no root extraction involved.  Requires p(0) != 0.  The exact
    backend runs in integers (:func:`_exact_newton_sums`), tests p(0) == 0
    exactly and rounds each sum once at the end; the float backend treats
    |p(0)| <= 1e-14 max|c_k| as 0.
    """
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    exact = p.backend == "exact"
    coeffs = p.coeffs if exact else p.as_floats()
    c0 = coeffs[0]
    if c0 == 0 or (not exact and abs(c0) <= 1e-14 * max(abs(c) for c in coeffs)):
        raise ZeroDivisionError(ZERO_MODE_MESSAGE)
    sums = _exact_newton_sums(coeffs, kmax) if exact else _newton_sums(coeffs, kmax)[0]
    return [float(s) for s in sums]


def _newton_sums(coeffs: list, kmax: int) -> tuple[list, list]:
    """S_m = sum_n lambda_n^-m, m = 1..kmax, from c_0..c_kmax of P (c_0 != 0).

    Newton's identities on the reversed polynomial, in the arithmetic of the
    coefficients; a missing c_k counts as 0.  Also returns, per S_m, the sum
    of the absolute values of the terms it adds up (its cancellation size).
    """
    c0 = coeffs[0]
    # reversed monic: a[d - m] = c_m / c0, roots 1/lambda_n
    a = [c / c0 for c in coeffs[:kmax + 1]]
    a += [0] * (kmax + 1 - len(a))
    sums, sizes = [], []
    for m in range(1, kmax + 1):
        acc = -m * a[m]
        size = abs(acc)
        for i in range(1, m):
            term = a[i] * sums[m - i - 1]
            acc -= term
            size += abs(term)
        sums.append(acc)
        sizes.append(size)
    return sums, sizes


def _exact_newton_sums(coeffs: list, kmax: int) -> list[float]:
    """:func:`_newton_sums` of exact c_k = p_k / q (q their common denominator,
    c_0 != 0) in integers: T_m = S_m p_0^m = -m p_m p_0^(m-1) - sum_(0<i<m)
    p_i p_0^(i-1) T_(m-i), and S_m = T_m / p_0^m, rounded once as float(Fraction)."""
    q = math.lcm(*(c.denominator for c in coeffs[:kmax + 1]))
    p = [c.numerator * (q // c.denominator) for c in coeffs[:kmax + 1]]
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

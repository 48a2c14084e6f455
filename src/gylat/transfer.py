"""Transfer-matrix machinery for arbitrary site potentials.

The second-order recurrence

    y(j+1) + (lambda - v_j - 2) y(j) + y(j-1) = 0

becomes first order for the phase-space vector Upsilon(j) = (y(j), y(j+1)):

    Upsilon(j) = M(j) Upsilon(j-1),    M(j) = [[0, 1], [-1, v_j + 2 - lambda]].

det M(j) = 1, so propagation is symplectic.  Boundary conditions enter only
through an in-vector and the symplectic adjoint of an out-vector; the
characteristic polynomial is the matrix element

    P(lambda) = out_adjoint . M(nu) ... M(1) . in_vector,

whose roots are the nu dimensionless eigenvalues and whose value at
lambda = 0, normalised by the leading coefficient, gives the determinant.
On the circle the eigenvalue condition is tr K(lambda; nu) = 2 cos(2 pi tau)
instead.

The exact, polynomial and path routes run on one kernel, :func:`_sweep`,
which advances the scalar recurrence y(j+1) = w_j y(j) - y(j-1) over
diagonal weights w_j = v_j + 2 - lambda.  Each column of K is one sweep from
a unit seed, so no route multiplies 2x2 matrices site by site.  The kernel
takes weights rather than (v, lambda), so each caller keeps its own
arithmetic: floats, exact ints and Fractions, or CharPoly entries.

The float determinant at lambda = 0 takes its own route,
:func:`_blocked_difference_sweep`.  It carries (y(j), Delta(j) =
y(j) - y(j-1)), stepped as Delta += v_j y, y += Delta, so the rounded
weight 2 + v_j is never formed.  By the composition law
K(j, j'') = K(j, j') K(j', j''), the sites are cut into about sqrt(nu)
blocks whose matrices advance together as numpy arrays, and the blocks are
then chained in Python with exact power-of-two renormalisation.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .core import (
    CIRCLE,
    DIRICHLET,
    BoundaryCondition,
    CharPoly,
    LatticeSpec,
    LogDet,
    Mat2,
    Potential,
    Spectrum,
    Vec2,
    _exactify,
)

# |lambda_bar| below this fraction of max_n |lambda_bar_n| counts as a zero
# mode when forming primed determinants.
ZERO_MODE_RTOL = 1e-10

# A block of the difference-form sweep may grow its columns by at most this
# many bits (about 1e150), so chaining it onto an O(1) state cannot overflow.
_BLOCK_GROWTH_BITS = 500

# A swept P(0) below 2**_FOLD_BITS is returned unscaled (log_scale 0), so that
# exact small determinants stay exact; 2**500 ~ 1e150 leaves room to square it.
_FOLD_BITS = 500

# An eigenfunction row whose terminal residual exceeds this fraction of its
# largest entry is not returned.
_EIGENFUNCTION_RTOL = 1e-8

_LN2 = math.log(2.0)


def step_matrix(v, lam) -> Mat2:
    """One-site step matrix [[0, 1], [-1, v + 2 - lambda]]; det = 1."""
    zero = lam - lam
    one = zero + 1
    return Mat2(zero, one, -one, v + 2 - lam)


def casoratian(a: Vec2, b: Vec2):
    """Discrete Wronskian a~ J b; constant along any two solutions."""
    return a.a * b.b - a.b * b.a


def _sweep(ws, a, b, path=None):
    """Advance (a, b) = (y(j-1), y(j)) by y(j+1) = w_j y(j) - y(j-1) over ``ws``.

    Returns the terminal pair (a, b).  Entries may be any ring scalars
    (float, int, Fraction, CharPoly).  With ``path`` each new ``b`` is
    appended to it.
    """
    for w in ws:
        a, b = b, w * b - a
        if path is not None:
            path.append(b)
    return a, b


def propagate(potential: Potential, lam, v0: Vec2) -> list[Vec2]:
    """All phase-space vectors Upsilon(j) = M(j)...M(1) v0 for j = 0..nu."""
    ys = [v0.a, v0.b]
    _sweep((v + 2 - lam for v in potential), v0.a, v0.b, path=ys)
    return [Vec2(ys[j], ys[j + 1]) for j in range(len(ys) - 1)]


class Propagator:
    """Vertex-ordered products K(lambda; j, j') = M(j)...M(j'+1), j >= j'.

    K(lambda; j, j) is the identity; requests with j < j' are rejected
    (causal propagation).  Entries may be scalars or CharPoly, depending on
    ``lam``.  Each request sweeps its two columns afresh; nothing is cached.
    """

    def __init__(self, potential: Potential, lam):
        self.potential = potential
        self.lam = lam
        self._one = (lam - lam) + 1

    def step(self, j: int) -> Mat2:
        """The one-site step matrix M(j)."""
        return self.matrix(j, j - 1)

    def matrix(self, j: int, jprime: int = 0) -> Mat2:
        nu = len(self.potential)
        if not (0 <= jprime <= nu and 0 <= j <= nu):
            raise ValueError(f"indices ({j}, {jprime}) outside 0..{nu}")
        if j < jprime:
            raise ValueError(f"acausal propagator request: j = {j} < j' = {jprime}")
        ws = [v + 2 - self.lam for v in self.potential.values[jprime:j]]
        one = self._one
        zero = one - one
        a1, b1 = _sweep(ws, one, zero)
        a2, b2 = _sweep(ws, zero, one)
        return Mat2(a1, a2, b1, b2)


def char_poly(potential: Potential, bc: BoundaryCondition, exact: bool = False) -> CharPoly:
    """Characteristic polynomial P(lambda); roots are the eigenvalues.

    Interval conditions use the boundary matrix element; circle conditions
    use tr K(lambda; nu) - 2 cos(2 pi tau), still a degree-nu real
    polynomial (doubly degenerate periodic eigenvalues appear as double
    roots).  nu = 0 yields a constant polynomial, not an error.
    """
    backend = "exact" if exact else "float"
    lam = CharPoly.lam(exact=exact)
    # A float scalar would silently drag the arithmetic back to the float
    # backend, so lift the potential into exact scalars up front.
    ws = [v + 2 - lam for v in (map(_exactify, potential) if exact else potential)]
    if bc.is_interval:
        vin = bc.in_vector()
        out = bc.out_adjoint()
        if exact:
            vin = Vec2(_exactify(vin.a), _exactify(vin.b))
            out = Vec2(_exactify(out.a), _exactify(out.b))
        a, b = _sweep(ws, CharPoly([vin.a], backend=backend), CharPoly([vin.b], backend=backend))
        return out.a * a + out.b * b
    if potential.nu < 1:
        raise ValueError("circle topology needs nu >= 1")
    one = CharPoly([1], backend=backend)
    zero = one - one
    # tr K = top of the (1, 0) column + bottom of the (0, 1) column
    trace = _sweep(ws, one, zero)[0] + _sweep(ws, zero, one)[1]
    return trace - _twist_shift(bc.twist, exact)


def _twist_shift(tau: float, exact: bool):
    """2 cos(2 pi tau); kept exact at the rational points the tests pin."""
    if exact:
        if tau == 1.0:
            return 2
        if tau == 0.5:
            return -2
        if tau in (0.25, 0.75):
            return 0
        return Fraction(2.0 * math.cos(2.0 * math.pi * tau))
    return 2.0 * math.cos(2.0 * math.pi * tau)


def periodic_char_fn(potential: Potential, tau: float, lam: float) -> float:
    """tr K(lambda; nu) - 2 cos(2 pi tau); zeros are the twisted eigenvalues."""
    if potential.nu < 1:
        raise ValueError("circle topology needs nu >= 1")
    lam = float(lam)
    ws = [float(v) + 2 - lam for v in potential]
    trace = _sweep(ws, 1.0, 0.0)[0] + _sweep(ws, 0.0, 1.0)[1]
    return trace - 2.0 * math.cos(2.0 * math.pi * tau)


def _blocked_difference_sweep(u: np.ndarray, cols: list[float],
                              block: int | None = None) -> tuple[list[float], int]:
    """Advance difference-form columns over every site, block by block.

    ``cols`` = [y1, d1, y2, d2] holds two columns (y(j), Delta(j)) at j = 1;
    each site steps them by Delta += u_j y, y += Delta, the step matrix
    [[1 + u_j, 1], [u_j, 1]].  Returns the columns at j = nu + 1 as
    (mantissas, e), the true columns being mantissas * 2**e.

    The sites are cut into blocks of about sqrt(nu) (``block`` overrides
    that; it is a test hook for checking other lengths), capped so that a block's growth bound prod(|u_j| + 2) stays below
    2**_BLOCK_GROWTH_BITS.  The unit columns of every block advance together
    as numpy arrays; the block matrices are then chained onto ``cols`` in
    Python, with the largest entry brought to [0.5, 1) by an exact power of
    two after each block, so exact zeros stay exact.
    """
    nu = len(u)
    if nu == 0:
        return cols, 0
    growth = math.log2(2.0 + float(np.max(np.abs(u))))  # bits one site may add
    cap = int(_BLOCK_GROWTH_BITS / growth) if growth < _BLOCK_GROWTH_BITS else 1
    nblocks = -(-nu // max(1, min(block or math.isqrt(nu), cap)))
    length = -(-nu // nblocks)
    short = nblocks * length - nu  # the first ``short`` blocks have length - 1 sites
    grid = np.zeros((length, nblocks))  # grid[k, i] = u at step k of block i
    cut = short * (length - 1)
    grid[1:, :short] = u[:cut].reshape(short, length - 1).T
    grid[:, short:] = u[cut:].reshape(nblocks - short, length).T
    # both columns after each block's first step, S(u) applied to I; a short
    # block skips that step (its grid[0] is 0, and y of column 2 is reset)
    ys = np.ones((2, nblocks))
    ds = np.ones((2, nblocks))
    ys[0] += grid[0]
    ds[0] = grid[0]
    ys[1, :short] = 0.0
    for row in grid[1:]:
        ds += row * ys
        ys += ds
    y1, d1, y2, d2 = cols
    exponent = 0
    for p, q, r, s in zip(ys[0].tolist(), ys[1].tolist(), ds[0].tolist(), ds[1].tolist()):
        y1, d1 = p * y1 + q * d1, r * y1 + s * d1
        y2, d2 = p * y2 + q * d2, r * y2 + s * d2
        e = math.frexp(max(abs(y1), abs(d1), abs(y2), abs(d2)))[1]
        y1, d1, y2, d2 = (math.ldexp(y1, -e), math.ldexp(d1, -e),
                          math.ldexp(y2, -e), math.ldexp(d2, -e))
        exponent += e
    return [y1, d1, y2, d2], exponent


def _scaled_scalar_p0(potential: Potential, bc: BoundaryCondition) -> tuple[float, float, float]:
    """P(0) by the blocked difference-form sweep, as (mantissa, log_scale, ref).

    P(0) = mantissa * exp(log_scale); ``ref`` is the magnitude of the final
    components (y(nu), y(nu+1)) (the Frobenius norm of K on the circle), on
    the mantissa's scale: the natural yardstick for a zero test.
    """
    u = potential.as_array()
    if bc.is_interval:
        # (y(1), Delta(1)) from y(0) = 0, y(1) = 1, or y(0) = 1, Delta y(0) = alpha
        alpha = float(bc.robin_alpha)
        seed = [1.0, 1.0] if bc.kind == DIRICHLET else [1.0 + alpha, alpha]
        (y, d, _, _), e = _blocked_difference_sweep(u, seed + [0.0, 0.0])
        # out_adjoint . (y(nu), y(nu+1)) = y for Dirichlet, else Delta + beta y
        p0 = y if bc.kind == DIRICHLET else d + float(bc.robin_beta) * y
        ref = max(abs(y - d), abs(y))
    else:
        (p, r, q, s), e = _blocked_difference_sweep(u, [1.0, 0.0, 0.0, 1.0])
        # K = S^-1 D S with D = [[p, q], [r, s]] and S (y(j-1), y(j)) = (y, Delta)
        ref = math.hypot(s - q, p + q - r - s, q, p + q)
        p0 = p + s - math.ldexp(_twist_shift(bc.twist, False), -e)
    if e <= _FOLD_BITS:
        # fold the scale back: log(0.5) + 3 log 2 is not log 4
        return math.ldexp(p0, e), 0.0, max(math.ldexp(ref, e), 1e-300)
    return p0, e * _LN2, max(ref, 1e-300)


def determinant(potential: Potential, bc: BoundaryCondition, spec: LatticeSpec,
                prime: bool = False) -> LogDet:
    """Operator determinant as a LogDet: Det = (-1)^d P(0)/a * h^(-2 nu).

    ``a`` is the polynomial's actual leading coefficient and d its actual
    degree, both read off the boundary condition (an alpha or beta of
    exactly -1 drops one degree each), so the value is the product of the
    physical eigenvalues and is insensitive to the overall scale of P.
    With ``prime`` set, eigenvalues with
    |lambda_bar| < 1e-10 * max|lambda_bar| are removed from the product via
    the eigenvalue oracle (each removal also drops one factor of h^-2) and
    counted in ``zero_modes_removed``.
    """
    nu = potential.nu
    if nu != spec.nu:
        raise ValueError(f"potential has nu={nu}, lattice spec has nu={spec.nu}")
    if bc.is_circle != (spec.topology == CIRCLE):
        raise ValueError(f"{bc.kind} conditions do not fit {spec.topology} topology")
    if nu == 0:
        return LogDet(1, 0.0, 0)  # empty product
    if prime:
        return _primed_determinant(potential, bc, spec)

    log_h2nu = -2.0 * nu * math.log(spec.h)
    # P(0) always comes from the blocked difference-form sweep: it cannot
    # overflow, it never rounds the weights 2 + v_j, and its final magnitude
    # is the right yardstick for "the determinant vanishes" (the
    # polynomial's large mid coefficients are not).
    p0, log_scale, ref = _scaled_scalar_p0(potential, bc)
    if abs(p0) <= 1e-11 * ref:
        return LogDet(0, math.nan, 0)

    # P's leading coefficient is (-1)^nu (1+alpha)(1+beta); an end with
    # alpha or beta exactly -1 (y(1) or y(nu) pinned to 0) drops its factor
    # and one degree
    ends = [1 + bc.robin_alpha, 1 + bc.robin_beta] if bc.is_interval else []
    kept = [f for f in ends if f != 0]
    degree = nu - (len(ends) - len(kept))
    lead = (-1) ** nu * math.prod(kept)
    # Det = (-1)^degree P(0)/lead * h^(-2 nu)
    sign = (-1) ** degree * (1 if p0 > 0 else -1) * (1 if lead > 0 else -1)
    log_abs = math.log(abs(p0)) + log_scale - math.log(abs(lead)) + log_h2nu
    return LogDet(sign, log_abs, 0)


def _primed_determinant(potential: Potential, bc: BoundaryCondition, spec: LatticeSpec) -> LogDet:
    from .spectrum import ORACLE_MAX_NU, oracle_spectrum

    if potential.nu > ORACLE_MAX_NU:
        raise ValueError(
            f"primed determinant needs the eigenvalue oracle, unavailable for nu > {ORACLE_MAX_NU}")
    lams = oracle_spectrum(potential, bc).lambdas
    hh = spec.h * spec.h
    lambar = [x / hh for x in lams]
    top = max(abs(x) for x in lambar)
    if top == 0.0:
        return LogDet(1, 0.0, len(lambar))
    keep = [x for x in lambar if abs(x) > ZERO_MODE_RTOL * top]
    removed = len(lambar) - len(keep)
    if not keep:
        return LogDet(1, 0.0, removed)
    sign = -1 if sum(1 for x in keep if x < 0) % 2 else 1
    log_abs = math.fsum(math.log(abs(x)) for x in keep)
    return LogDet(sign, log_abs, removed)


def eigenfunctions(potential: Potential, bc: BoundaryCondition, spectrum: Spectrum) -> np.ndarray:
    """Table y_n(j), n = 0..nu-1, j = 1..nu, as an (nu, nu) float array.

    Row n propagates the in-vector at lambda_n = spectrum[n], first polished
    by up to three Newton steps on the terminal boundary residual (a raw
    oracle eigenvalue leaves an O(1e-13) residual that near-degenerate pairs
    would amplify; a step above 1e-6 max(1, |lambda|) keeps the caller's
    value).  All modes advance together, one numpy vector per site, in the
    scalar recurrence's order, so each entry has a per-mode sweep's bits.
    Interval conditions only (circle eigenfunctions are complex).

    Forward propagation meets every interior equation to rounding, so a
    row's residual |(T - lambda) y| is P(lambda) / (1 + beta) on the last
    site (P when beta = -1).  Modes localised far from the left end defeat
    forward shooting: if any row's residual exceeds 1e-8 max_j |y(j)|, or a
    row is not finite, ArithmeticError is raised instead.
    """
    if not bc.is_interval:
        raise ValueError("eigenfunctions via in-vector propagation need an interval condition")
    nu = potential.nu
    if len(spectrum) != nu:
        raise ValueError(f"spectrum has {len(spectrum)} entries, potential has nu={nu}")
    vin, out = bc.in_vector(), bc.out_adjoint()
    a0, b0 = float(vin.a), float(vin.b)
    oa, ob = float(out.a), float(out.b)
    shifted = (potential.as_array() + 2.0).tolist()  # w_j = (v_j + 2) - lambda
    lam = np.fromiter(spectrum, dtype=float, count=nu)
    ys = np.empty((nu, nu))  # ys[j - 1, n] = y_n(j)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        live = np.arange(nu)  # modes still taking Newton steps
        for _ in range(3):
            lam_l = lam[live]
            a, b = np.full(len(live), a0), np.full(len(live), b0)
            da = db = np.zeros(len(live))
            # (y, dy/dlambda) jointly; x - a rounds exactly as -a + x
            for s in shifted:
                w = s - lam_l
                a, b, da, db = b, w * b - a, db, w * db - da - b
            slope = oa * da + ob * db
            step = (oa * a + ob * b) / slope
            # a zero slope stops, a step out of the Newton basin keeps the
            # caller's value; np.fmax, like Python's max, passes over a NaN
            take = (slope != 0.0) & ~(np.abs(step) > 1e-6 * np.fmax(1.0, np.abs(lam_l)))
            lam[live[take]] = lam_l[take] - step[take]
            done = np.abs(step) <= 1e-16 * np.fmax(1.0, np.abs(lam_l - step))
            live = live[take & ~done]
            if not len(live):
                break
        a, b = np.full(nu, a0), np.full(nu, b0)
        for j, s in enumerate(shifted):
            ys[j] = b
            a, b = b, (s - lam) * b - a
        residual = np.abs(oa * a + ob * b) / (abs(ob) or 1.0)
        # max_j |y(j)| per mode, without an nu x nu temporary
        size = np.maximum(ys.max(axis=0, initial=0.0), -ys.min(axis=0, initial=0.0))
        rel = residual / size
    bad = ~(rel <= _EIGENFUNCTION_RTOL)
    if bad.any():
        finite = np.isfinite(rel)
        worst = float(np.max(rel[finite], initial=0.0))
        raise ArithmeticError(
            f"{int(bad.sum())} of {nu} eigenfunction rows miss T y = lambda y by more than "
            f"{_EIGENFUNCTION_RTOL:g} relative (worst finite residual {worst:.3g}, "
            f"{int((~finite).sum())} rows not finite); forward shooting cannot follow modes "
            f"localised away from the left end")
    return ys.T

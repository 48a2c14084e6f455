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

Every route but the float determinant (below), the perturbation series
included, runs on one kernel, :func:`_sweep`, which advances the scalar
recurrence y(j+1) = w_j y(j) - y(j-1) over weights w_j = v_j + 2 - lambda.
Each column of K is one sweep from a unit seed, so no route multiplies 2x2
matrices site by site.  Every read of P itself is one call of
:func:`_terminal`, which sweeps in the arithmetic of lambda: a float for
:func:`periodic_char_fn` and ``closedform.robin_matrix_element``, a CharPoly
for :func:`char_poly`, exact scalars for ``det --exact`` and
``perturbation.symmetric_factor_check``, and a truncated Taylor jet
(:class:`_Series`) for the ``eigenfunctions`` Newton slope (order 1, over
all modes at once) and the CLI's Euler-Rayleigh sums (order <= 4 at 0).
Exact reads sweep Python integers over the inputs' common denominator and
divide once at the end (the fraction-free idea of Bareiss, Math. Comp. 22
(1968) 565).

The float determinant at lambda = 0 takes its own route,
:func:`_blocked_difference_sweep`.  It carries (y(j), Delta(j) =
y(j) - y(j-1)), stepped as Delta += v_j y, y += Delta, so the rounded
weight 2 + v_j is never formed.  By the composition law
K(j, j'') = K(j, j') K(j', j''), the sites are cut into about sqrt(nu)
blocks whose matrices advance together as numpy arrays
(:func:`_block_matrices`), and the blocks are then chained in Python with
exact power-of-two renormalisation.  Primed determinants need the first
Taylor coefficients of P at 0 when P(0) vanishes; :func:`_blocked_jet_sweep`
runs the same blocks with every entry a jet in lambda, so no eigenvalue is
ever computed here.
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
    twisted,
)

# A Taylor coefficient of P at lambda = 0 at most this fraction of the
# magnitude of the swept state's entries of its order tests zero.
_ZERO_RTOL = 1e-11

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


def _sweep(ws, a, b, path=None, d2=None):
    """Advance (a, b) = (y(j-1), y(j)) by y(j+1) = w_j y(j) - y(j-1) over ``ws``.

    Returns the terminal pair (a, b).  Entries may be any ring scalars
    (float, int, Fraction, CharPoly).  With ``path`` each new ``b`` is
    appended to it.  With ``d2`` the step is y(j+1) = w_j y(j) - d2 y(j-1),
    the recurrence of the exact carrier in :func:`_terminal`.
    """
    for w in ws:
        a, b = b, w * b - (a if d2 is None else d2 * a)
        if path is not None:
            path.append(b)
    return a, b


class _Series:
    """Series c[0] + c[1] e + ... truncated above e^m, with exact zeros past the
    end of ``c``: a graded y(j) for :func:`_sweep`, over any scalar it takes.
    A plain scalar on either side of ``+``, ``-`` or ``*`` is the series c[0]."""

    __slots__ = ("c", "m")
    __array_ufunc__ = None  # ndarray (op) _Series defers to the reflected method

    def __init__(self, c, m):
        self.c, self.m = (c if len(c) <= m + 1 else c[:m + 1]), m

    def __add__(self, other):
        a, b = self.c, other.c if isinstance(other, _Series) else [other]
        return _Series([x + y for x, y in zip(a, b)] + a[len(b):] + b[len(a):], self.m)

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self.c, other.c if isinstance(other, _Series) else [other]
        return _Series([x - y for x, y in zip(a, b)] + a[len(b):] + [-y for y in b[len(a):]],
                       self.m)

    def __rsub__(self, other):
        return _Series([other - self.c[0]] + [-y for y in self.c[1:]], self.m)

    def __mul__(self, other):
        if not isinstance(other, _Series):
            return _Series([x * other for x in self.c], self.m)
        a, b = self.c, other.c
        out = []
        for k in range(min(len(a) + len(b) - 1, self.m + 1)):
            lo = max(0, k - len(b) + 1)
            acc = a[lo] * b[k - lo]
            for i in range(lo + 1, min(k, len(a) - 1) + 1):
                acc = acc + a[i] * b[k - i]
            out.append(acc)
        return _Series(out, self.m)

    __rmul__ = __mul__


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


def _terminal(potential: Potential, bc: BoundaryCondition, lam, exact: bool = False):
    """P(lambda), the terminal value of one GY sweep, in the arithmetic of ``lam``.

    out . K(lambda; nu) . in on the interval, tr K(lambda; nu) - 2 cos(2 pi tau)
    on the circle.  A float ``lam`` gives the value, ``CharPoly.lam(exact)``
    the polynomial, ``_Series([x, 1], m)`` the Taylor coefficients of P at x
    up to order m (x may be a numpy vector over modes).

    With ``exact`` the potential, the boundary vectors' entries and a scalar
    ``lam`` are lifted once into exact scalars (a float among them would
    drag the arithmetic back to floats), over their common denominator D: a
    power of two for float inputs, 1 for integers.  The sweep then carries
    Y(j) = D^j y(j) in Python ints, Y(j+1) = D w_j Y(j) - D^2 Y(j-1), and the
    result is divided by a power of D once at the end, one Fraction per
    coefficient, instead of reducing a Fraction at every step.  Integer
    inputs (D = 1) take the plain sweep.  The twist is subtracted after
    that division.
    """
    nu = potential.nu
    if bc.is_circle and nu < 1:
        raise ValueError("circle topology needs nu >= 1")
    # the in-vector and the out-adjoint, (y(0), y(1)) and the row read at nu
    ends = [*bc.in_vector(), *bc.out_adjoint()] if bc.is_interval else []
    vs, d = potential, 1
    if exact:
        scalar = isinstance(lam, (int, Fraction))
        vs, d = _lift([*potential, *ends] + ([lam] if scalar else []))
        if scalar:
            lam = vs.pop()
        elif d != 1:
            lam = d * lam
        vs, ends = vs[:nu], vs[nu:]
    two = 2 * d
    ws = [v + two - lam for v in vs]  # D w_j
    zero = lam - lam
    d2 = d * d if d != 1 else None
    if bc.is_interval:
        # seeded with D (y(0), D y(1)), the sweep ends on D^(nu+1) (y(nu), D y(nu+1))
        ia, ib, oa, ob = ends
        a, b = _sweep(ws, zero + ia, zero + d * ib, d2=d2)
        return _unscale(oa * d * a + ob * b, d, nu + 3)
    seed = zero + d
    # tr K = top of the (1, 0) column + bottom of the (0, 1) column, both seeded with D
    trace = _sweep(ws, seed, zero, d2=d2)[0] + _sweep(ws, zero, seed, d2=d2)[1]
    return _unscale(trace, d, nu + 1) - _twist_shift(bc.twist, exact)


def _lift(xs: list) -> tuple[list[int], int]:
    """(ns, d) with exact scalars xs = ns / d: d the lcm of their denominators
    (1 for ints, a power of two for floats) and ns ints."""
    xs = [_exactify(x) for x in xs]
    d = math.lcm(*(x.denominator for x in xs))
    return [x.numerator * (d // x.denominator) for x in xs], d


def _unscale(x, d: int, power: int):
    """x / d**power for the exact carrier, one Fraction per coefficient; x if d is 1."""
    if d == 1:
        return x
    n = d ** power
    if isinstance(x, CharPoly):
        return CharPoly([Fraction(c, n) for c in x.coeffs], backend="exact")
    if isinstance(x, _Series):
        return _Series([Fraction(c, n) for c in x.c], x.m)
    return Fraction(x, n)


def char_poly(potential: Potential, bc: BoundaryCondition, exact: bool = False) -> CharPoly:
    """Characteristic polynomial P(lambda); roots are the eigenvalues.

    Interval conditions use the boundary matrix element; circle conditions
    use tr K(lambda; nu) - 2 cos(2 pi tau), still a degree-nu real
    polynomial (doubly degenerate periodic eigenvalues appear as double
    roots).  nu = 0 yields a constant polynomial, not an error.
    """
    return _terminal(potential, bc, CharPoly.lam(exact=exact), exact)


def _twist_shift(tau: float, exact: bool):
    """2 cos(2 pi tau); kept exact at the rational points the tests pin."""
    shift = 2.0 * math.cos(2.0 * math.pi * tau)
    return {1.0: 2, 0.5: -2, 0.25: 0, 0.75: 0}.get(tau, Fraction(shift)) if exact else shift


def periodic_char_fn(potential: Potential, tau: float, lam: float) -> float:
    """tr K(lambda; nu) - 2 cos(2 pi tau); zeros are the twisted eigenvalues."""
    return _terminal(potential, twisted(tau), float(lam))


def _lead_and_degree(bc: BoundaryCondition, nu: int, exact: bool = False):
    """P's leading coefficient (-1)^nu (1+alpha)(1+beta), lifted as :func:`_terminal`
    lifts it, and degree; an alpha or beta of exactly -1 drops its factor and a degree."""
    if not bc.is_interval:
        return (-1) ** nu, nu
    ends = [1 + bc.robin_alpha, 1 + bc.robin_beta]  # the boundary vectors' entries
    if exact:
        ends = [_exactify(f) for f in ends]
    kept = [f for f in ends if f != 0]
    return (-1) ** nu * math.prod(kept), nu - (len(ends) - len(kept))


def _block_matrices(u: np.ndarray, order: int = 0,
                    block: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Difference-form matrices of every block of sites, as Taylor jets in lambda.

    Each site steps a column (y(j), Delta(j)) by Delta += (u_j - lambda) y,
    y += Delta, the step matrix [[1 + u_j - lambda, 1], [u_j - lambda, 1]];
    every entry is carried as its coefficients of lambda^0..lambda^order.
    Returns (ys, ds), each of shape (2, order + 1, nblocks): column c of
    block i sends the unit vector e_c of (y, Delta) to (ys[c, :, i], ds[c, :, i]).

    The sites are cut into blocks of about sqrt(nu) (``block`` overrides
    that; it is a test hook for checking other lengths), capped so that a
    block's growth bound prod(|u_j| + 2) stays below 2**_BLOCK_GROWTH_BITS.
    The unit columns of every block advance together as numpy arrays.
    """
    nu = len(u)
    growth = math.log2(2.0 + float(np.max(np.abs(u))))  # bits one site may add
    cap = int(_BLOCK_GROWTH_BITS / growth) if growth < _BLOCK_GROWTH_BITS else 1
    nblocks = -(-nu // max(1, min(block or math.isqrt(nu), cap)))
    length = -(-nu // nblocks)
    short = nblocks * length - nu  # the first ``short`` blocks have length - 1 sites
    grid = np.zeros((length, nblocks))  # grid[k, i] = u at step k of block i
    cut = short * (length - 1)
    grid[1:, :short] = u[:cut].reshape(short, length - 1).T
    grid[:, short:] = u[cut:].reshape(nblocks - short, length).T
    ys = np.zeros((2, order + 1, nblocks))
    ds = np.zeros((2, order + 1, nblocks))
    ys[0, 0] = ds[1, 0] = 1.0
    # a short block skips its first step, so it starts on the view of the others
    for k, row in enumerate(grid):
        y, d, w = (ys, ds, row) if k else (ys[..., short:], ds[..., short:], row[short:])
        d += w * y
        if order:
            d[:, 1:] -= y[:, :-1]  # the -lambda y of the step
        y += d
    return ys, ds


def _blocked_difference_sweep(u: np.ndarray, cols: list[float],
                              block: int | None = None) -> tuple[list[float], int]:
    """Advance difference-form columns over every site, block by block.

    ``cols`` = [y1, d1, y2, d2] holds two columns (y(j), Delta(j)) at j = 1;
    each site steps them by Delta += u_j y, y += Delta.  Returns the columns
    at j = nu + 1 as (mantissas, e), the true columns being mantissas * 2**e.

    The block matrices of :func:`_block_matrices` are chained onto ``cols``
    in Python, with the largest entry brought to [0.5, 1) by an exact power
    of two after each block, so exact zeros stay exact.
    """
    if len(u) == 0:
        return cols, 0
    ys, ds = _block_matrices(u, 0, block)
    y1, d1, y2, d2 = cols
    exponent = 0
    for p, q, r, s in zip(ys[0, 0].tolist(), ys[1, 0].tolist(), ds[0, 0].tolist(),
                          ds[1, 0].tolist()):
        y1, d1 = p * y1 + q * d1, r * y1 + s * d1
        y2, d2 = p * y2 + q * d2, r * y2 + s * d2
        e = math.frexp(max(abs(y1), abs(d1), abs(y2), abs(d2)))[1]
        y1, d1, y2, d2 = (math.ldexp(y1, -e), math.ldexp(d1, -e),
                          math.ldexp(y2, -e), math.ldexp(d2, -e))
        exponent += e
    return [y1, d1, y2, d2], exponent


def _blocked_jet_sweep(u: np.ndarray, cols: np.ndarray, order: int,
                       block: int | None = None) -> tuple[np.ndarray, int]:
    """:func:`_blocked_difference_sweep` for jets in lambda up to ``order``.

    ``cols`` has shape (2 (order + 1), ncols): per column the coefficients
    of y(1), then those of Delta(1).  Each block is the matrix of its jets'
    products (lower-triangular Toeplitz blocks) and is chained onto ``cols``
    with the same power-of-two renormalisation.  Returns the columns at
    j = nu + 1 as (mantissas, e).
    """
    if len(u) == 0:
        return cols, 0
    ys, ds = _block_matrices(u, order, block)
    m1 = order + 1
    i, j = np.tril_indices(m1)
    mats = np.zeros((ys.shape[-1], 2 * m1, 2 * m1))
    for (top, left), entry in (((0, 0), ys[0]), ((0, m1), ys[1]), ((m1, 0), ds[0]),
                               ((m1, m1), ds[1])):
        mats[:, top + i, left + j] = entry[i - j].T  # (a b)_k = sum_i a_(k-i) b_i
    exponent = 0
    for mat in mats:
        cols = mat @ cols
        e = math.frexp(float(np.max(np.abs(cols))))[1]
        cols = np.ldexp(cols, -e)
        exponent += e
    return cols, exponent


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


def _lowest_jet_coefficient(potential: Potential, bc: BoundaryCondition) -> tuple[float, float, int]:
    """(c_k, log_scale, k): the first Taylor coefficient c_k of P at lambda = 0,
    k >= 1, that does not test zero, as mantissa and log of its scale
    (folded back as :func:`_scaled_scalar_p0` folds P(0)).

    The coefficients come from one blocked jet sweep in the difference form,
    of order 1 on the interval (its eigenvalues are simple) and 2 on the
    circle (at most double).  c_k tests zero when it is at most _ZERO_RTOL
    times the order-k entries of the final state, measured as ``ref`` is in
    :func:`_scaled_scalar_p0`.  If every c_k up to the order tests zero,
    ArithmeticError is raised.
    """
    order = 1 if bc.is_interval else 2
    m1 = order + 1
    u = potential.as_array()
    if bc.is_interval:
        alpha = float(bc.robin_alpha)
        cols = np.zeros((2 * m1, 1))
        cols[0, 0], cols[m1, 0] = (1.0, 1.0) if bc.kind == DIRICHLET else (1.0 + alpha, alpha)
        cols, e = _blocked_jet_sweep(u, cols, order)
        y, d = cols[:m1, 0], cols[m1:, 0]
        coeffs = y if bc.kind == DIRICHLET else d + float(bc.robin_beta) * y
        refs = np.maximum(np.abs(y - d), np.abs(y))
    else:
        cols, e = _blocked_jet_sweep(u, np.eye(2 * m1)[:, [0, m1]], order)
        (p, q), (r, s) = cols[:m1].T, cols[m1:].T
        coeffs = p + s  # the order-0 entry, P(0), is not read
        refs = np.sqrt((s - q) ** 2 + (p + q - r - s) ** 2 + q ** 2 + (p + q) ** 2)
    for k in range(1, m1):
        if abs(coeffs[k]) > _ZERO_RTOL * refs[k]:
            c = float(coeffs[k])
            return (math.ldexp(c, e), 0.0, k) if e <= _FOLD_BITS else (c, e * _LN2, k)
    raise ArithmeticError(
        f"P(lambda) and its first {order} derivatives test zero at lambda = 0, but "
        f"{'interval' if bc.is_interval else 'circle'} eigenvalues have multiplicity "
        f"at most {order}")


def determinant(potential: Potential, bc: BoundaryCondition, spec: LatticeSpec,
                prime: bool = False) -> LogDet:
    """Operator determinant as a LogDet: Det = (-1)^d P(0)/a * h^(-2 nu).

    ``a`` is the polynomial's actual leading coefficient and d its actual
    degree, both read off the boundary condition (an alpha or beta of
    exactly -1 drops one degree each), so the value is insensitive to the
    overall scale of P.  It is the product of the physical eigenvalues
    when d = nu.  A degenerate Robin end (d < nu) still scales by
    h^(-2 nu), not h^(-2 d): the value is that product times h^(-2 (nu - d)),
    off by h^-2 per degenerate end when h != 1.
    P(0) tests zero (sign 0) when |P(0)| is at most _ZERO_RTOL times the
    magnitude of the swept state.

    With ``prime`` set, k zero modes are removed: k is the number of leading
    Taylor coefficients c_0, c_1, ... of P at 0 that test zero (c_0 by the
    test above, so the primed determinant removes a mode exactly when the
    plain one has sign 0; c_1 and c_2 by :func:`_lowest_jet_coefficient`),
    and Det' = (-1)^(d-k) c_k/a * h^(-2 (d-k)), with ``zero_modes_removed``
    = k.  No eigenvalue is computed, so there is no size limit.
    """
    nu = potential.nu
    if nu != spec.nu:
        raise ValueError(f"potential has nu={nu}, lattice spec has nu={spec.nu}")
    if bc.is_circle != (spec.topology == CIRCLE):
        raise ValueError(f"{bc.kind} conditions do not fit {spec.topology} topology")
    if nu == 0:
        return LogDet(1, 0.0, 0)  # empty product

    # P(0) always comes from the blocked difference-form sweep: it cannot
    # overflow, it never rounds the weights 2 + v_j, and its final magnitude
    # is the right yardstick for "the determinant vanishes" (the
    # polynomial's large mid coefficients are not).
    p0, log_scale, ref = _scaled_scalar_p0(potential, bc)
    k = 0
    if abs(p0) <= _ZERO_RTOL * ref:
        if not prime:
            return LogDet(0, math.nan, 0)
        p0, log_scale, k = _lowest_jet_coefficient(potential, bc)

    lead, degree = _lead_and_degree(bc, nu)
    # factors h^-2 of the product: d - k when primed; the plain determinant
    # keeps nu, also where a degenerate Robin end leaves d < nu
    modes = (degree if prime else nu) - k
    sign = (-1) ** (degree - k) * (1 if p0 > 0 else -1) * (1 if lead > 0 else -1)
    log_abs = (math.log(abs(p0)) + log_scale - math.log(abs(lead))
               + -2.0 * modes * math.log(spec.h))
    return LogDet(sign, log_abs, k)


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
    floats = Potential(potential.as_array())  # Fraction entries would leave numpy's floats
    lam = np.fromiter(spectrum, dtype=float, count=nu)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        live = np.arange(nu)  # modes still taking Newton steps
        for _ in range(3):
            lam_l = lam[live]
            # P and dP/dlambda jointly: the order-1 jet of P at lam_l
            p, slope = _terminal(floats, bc, _Series([lam_l, 1.0], 1)).c
            step = p / slope
            # a zero slope stops, a step out of the Newton basin keeps the
            # caller's value; np.fmax, like Python's max, passes over a NaN
            take = (slope != 0.0) & ~(np.abs(step) > 1e-6 * np.fmax(1.0, np.abs(lam_l)))
            lam[live[take]] = lam_l[take] - step[take]
            done = np.abs(step) <= 1e-16 * np.fmax(1.0, np.abs(lam_l - step))
            live = live[take & ~done]
            if not len(live):
                break
        rows = [np.full(nu, b0)]  # rows[j - 1][n] = y_n(j)
        a, b = _sweep((s - lam for s in shifted), np.full(nu, a0), rows[0], path=rows)
        ys = np.reshape(rows[:nu], (nu, nu))
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

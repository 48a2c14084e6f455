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

Every route but the float reads at lambda = 0 (below) and the eigenfunction
tables (ratios y(j+1)/y(j) swept from both ends), the perturbation series
included, runs on one kernel, :func:`_sweep`, which advances
y(j+1) = w_j y(j) - y(j-1) over weights w_j = v_j + 2 - lambda; each column
of K is one sweep from a unit seed (:class:`Propagator`; :func:`periodic_char_fn`
is its trace at a float lambda).  Every read of the polynomial P is one call of
:func:`_terminal`, float or exact, whole or, truncated, its low coefficients
(``det --exact`` reads P(0), ``sums --exact`` the Taylor coefficients at 0),
and graded by the order of the potential for the perturbation series.
Exact reads sweep Python integers over the inputs' common denominator and
divide once at the end (the fraction-free idea of Bareiss, Math. Comp. 22
(1968) 565).

That read packs the states of the sweep (:class:`_Packed`): an exact Y(j)
into one Python int, coefficient k in slot k of S bits (Kronecker
substitution, lambda -> 2**S, S from an a-priori bound on every
coefficient), a float one into one float64 array, so that a site costs a
few whole-object operations; :func:`_unpack` reads out every one.  A read
of the coefficients up to lambda^m keeps each exact state modulo
2**(S (m + 1)), a float one as its m + 1 low rows.

Determinants and the float sums read the Taylor coefficients of P at 0
from :func:`_taylor_at_zero`, one zero test for both
(:func:`_nonzero_coefficient`).  Its sweep carries (y(j), Delta(j) =
y(j) - y(j-1)), stepped as Delta += v_j y, y += Delta, so the rounded
weight 2 + v_j is never formed.  By the composition law
K(j, j'') = K(j, j') K(j', j''), the sites are cut into about sqrt(nu)
blocks whose matrices, jets in lambda past order 0, advance together as
numpy arrays (:func:`_block_matrices`), or at order 0 over at most
``core._NUMPY_SITES`` sites one by one in Python floats, in the same bits
(:func:`_unit_columns`); the blocks are then chained in Python with exact
power-of-two renormalisation, so nothing overflows and no eigenvalue is
ever computed here.  numpy is imported by the functions that use arrays,
so a short determinant or an exact read never loads it.
"""

from __future__ import annotations

import contextlib
import math
import numbers
from collections import namedtuple
from fractions import Fraction
from typing import TYPE_CHECKING

from .core import (
    DIRICHLET,
    BoundaryCondition,
    CharPoly,
    LatticeSpec,
    LogDet,
    Mat2,
    Potential,
    Spectrum,
    Vec2,
    _NUMPY_SITES,
    _check_lattice,
    _exactify,
    _lift,
    twisted,
)
from .spectrum import tridiagonal_matrix

if TYPE_CHECKING:  # annotations only: numpy loads in the functions that use arrays
    import numpy as np

# A Taylor coefficient of P at lambda = 0 at most this fraction of the
# magnitude of the swept state's entries of its order tests zero.
_ZERO_RTOL = 1e-11

# A block of the difference-form sweep may grow its columns by at most this
# many bits (about 1e150), so chaining it onto an O(1) state cannot overflow.
_BLOCK_GROWTH_BITS = 500

# A swept Taylor coefficient of P at 0 below 2**_FOLD_BITS is read unscaled
# (log_scale 0), so that exact small determinants stay exact; 2**500 ~ 1e150
# leaves room to square it.
_FOLD_BITS = 500

# An eigenfunction row whose backward error, max_j |(T - lambda) y|_j over
# |d_j| + |lambda| + 2, exceeds this fraction of its largest entry is not returned.
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


def _terminal(potential: Potential, bc: BoundaryCondition, exact: bool,
              order: int | None = None, grades: int | None = None) -> CharPoly:
    """P(lambda), the terminal value of one GY sweep, exact or in floats.

    out . K(lambda; nu) . in on the interval, tr K(lambda; nu) - 2 cos(2 pi tau)
    on the circle: the polynomial, or with ``order``
    = m its coefficients of lambda^0..lambda^m (P modulo lambda^(m+1)).  With
    ``grades`` = g the potential enters as e v_j and P is read up to e^g at e = 1:
    the perturbation series (``order`` None or 0; 1 < m + 1 <= nu is not supported).

    The sweep runs on packed states (:class:`_Packed`), unpacked once
    (:func:`_unpack`) into the coefficients, float bits included, that
    CharPoly states would give; a float read that is not finite raises
    OverflowError.  An exact read lifts the potential and the boundary
    vectors' entries once into ints n_j over their common denominator D (a
    power of two for float inputs, 1 for integers) and carries Y(j) = D^j
    y(j), Y(j+1) = D w_j Y(j) - D^2 Y(j-1), each one int of slots of S bits
    (:func:`_slot_bits`).  The result is divided by a power of D once
    (:func:`_unscale`), and only then is the twist subtracted.  A
    truncated exact read keeps each state modulo 2**(S (m + 1)), a graded one
    modulo 2**(S (m + 1) (g + 1)) for 0 < g < nu: a ring map that sends every
    slot above those read to 0 and leaves the low ones as they are.
    """
    nu = potential.nu
    if bc.is_circle and nu < 1:
        raise ValueError("circle topology needs nu >= 1")
    if bc.is_interval and nu in (1, 2) and _lead_and_degree(bc, nu)[1] == 0:
        # every site pinned: no eigenvalues, P is lead (the sweep's 0 at nu = 1)
        return CharPoly([_lead_and_degree(bc, nu, exact)[0]], backend="exact" if exact else "float")
    # the in-vector and the out-adjoint, (y(0), y(1)) and the row read at nu
    ends = [*bc.in_vector(), *bc.out_adjoint()] if bc.is_interval else []
    n = nu + 1 if order is None else min(order + 1, nu + 1)  # coefficients read
    rows = 1 if grades is None else grades + 1  # e^0..e^g
    vs, d, d2, slot, mask, shape = potential, 1, None, None, None, None
    if exact:  # one int per state, see _Packed
        vs, d = _lift([*potential, *ends])
        vs, ends = vs[:nu], vs[nu:]
        if n * rows > 1:  # a read of P(0) alone sweeps the plain ints
            slot = _slot_bits([2 * d + (v if grades is None else abs(v)) for v in vs], d, ends)
            if (n <= nu) if grades is None else (0 < grades < nu):  # truncated reads only
                mask = (1 << slot * n * rows) - 1
        lam, d2 = n > 1 and _Scale(d, slot), _Scale(d * d) if d != 1 else None  # D = 2^e: shifts
        guard = contextlib.nullcontext()
    else:  # one float64 array per state
        import numpy as np
        lam, ends, shape = n > 1, [float(x) for x in ends], (n, rows)
        guard = np.errstate(over="ignore", invalid="ignore")  # a non-finite float raises below
    if grades is None:
        ws = [_Packed(v + 2 * d if exact else float(v + 2), lam, None, mask) for v in vs]
    else:  # D w_j = 2 D - D lambda + e n_j
        ws = [_Packed(2 * d, lam, v and grades and _Scale(v, slot * n), mask) if exact
              else _Packed(2.0, lam, float(v), None) for v in vs]
    with guard:
        if bc.is_interval:
            # seeded with D (y(0), D y(1)), the sweep ends on D^(nu+1) (y(nu), D y(nu+1))
            ia, ib, oa, ob = ends
            a, b = _sweep(ws, _pack(ia, shape), _pack(d * ib, shape), d2=d2)
            p, power = oa * d * a + ob * b, nu + 3
        else:
            seed, nil = _pack(d, shape), _pack(0, shape)
            # tr K = top of the (1, 0) column + bottom of the (0, 1) column, both seeded with D
            p, power = _sweep(ws, seed, nil, d2=d2)[0] + _sweep(ws, nil, seed, d2=d2)[1], nu + 1
        p = _unscale(_unpack(p, n, slot, rows), d, power)
    return p if bc.is_interval else p - _twist_shift(bc.twist, exact)


class _Packed:
    """A weight acting on a packed state in :func:`_terminal`: D w_j = a0 - D lambda,
    plus e n_j (n_j = D v_j) in a graded read, the perturbation series.

    A packed state holds the coefficients of y(j), or of Y(j) = D^j y(j) when
    exact, in one object, so that a site costs a few whole-object operations
    instead of a pass of Python over up to nu coefficients.

    - exact: one Python int, lambda^i in signed slot i of S bits and e^k lambda^i
      in slot k W + i, that is Y(j) at lambda = 2**S, e = 2**(S W) (Kronecker
      substitution, Kronecker 1882; von zur Gathen & Gerhard, *Modern Computer
      Algebra*, section 8.4).  ``lam`` and ``e`` scale by D 2**S and n_j 2**(S W)
      (:class:`_Scale`); ``mask`` keeps a truncated read's slots 0..m, modulo
      2**(S (m + 1)).  A read of one slot needs neither scale: plain ints.
    - float (D = 1): one float64 array, lambda^i in row i and e^k in column k.
      Entry (i, k) of the product is (a0 y_(i,k) - y_(i-1,k)) + v_j y_(i,k-1)
      (``lam`` true, ``e`` = v_j), rounded as CharPoly's products and sums
      round it, except that a CharPoly product starts each coefficient from
      0: that only turns a -0.0 into 0.0, which never changes a nonzero
      result, so the read-out turns each zero into 0.0 once, at the end, and
      every bit is the same.
    """

    __slots__ = ("a0", "lam", "e", "mask")

    def __init__(self, a0, lam, e, mask: int | None):
        self.a0, self.lam, self.e, self.mask = a0, lam, e, mask

    def __mul__(self, y):
        out = self.a0 * y
        if type(y) is int:
            if self.lam:
                out -= self.lam * y
            if self.e:
                out += self.e * y
            return out & self.mask if self.mask else out
        if self.lam:
            out[1:] -= y[:-1]
        if self.e:
            out[:, 1:] += self.e * y[:, :-1]
        return out


class _Scale:
    """Multiplication of a packed int by d 2**k: with d = m 2**e, m odd, a shift by
    k + e after a multiply by m unless m is 1."""

    __slots__ = ("m", "k")

    def __init__(self, d: int, k: int = 0):
        e = (d & -d).bit_length() - 1
        self.m, self.k = d >> e, k + e

    def __mul__(self, y):
        return (y if self.m == 1 else self.m * y) << self.k


def _slot_bits(a0s: list[int], d: int, ends: list[int]) -> int:
    """Slot width S of the exact packed carrier, a multiple of 8, such that every
    coefficient of every swept state Y(j) and of the read-out is below 2**(S - 1)
    in magnitude; ``ends`` are :func:`_terminal`'s lifted boundary entries.

    A bound B(j) on the coefficients of Y(j) follows from the step Y(j+1) =
    (a0_j - D lambda) Y(j) - D^2 Y(j-1): B(j+1) = (|a0_j| + D) B(j) + D^2 B(j-1),
    from the seeds D (y(0), D y(1)); both circle sweeps are bounded by one from
    (D, D), read as B(nu) + B(nu+1).  B grows from j = 1 on, so its largest
    value is B(0) or B(nu+1).  A truncated read needs no other bound: its
    slots are the low ones of the full read-out.  A graded read passes a0_j =
    2 D + |n_j|, which bounds its e n_j term too.

    The recursion keeps B(j - 1) and B(j) as ints times a common 2**e, both
    cut to 64 bits of B(j - 1) and rounded up, so a site costs a few word
    operations, not an int as wide as the states.  Each cut adds at most a
    part in 2**63 to the bound, so S is never below that of the exact bound.
    """
    (lo, hi), reads = ((ends[0], d * ends[1]), (ends[2] * d, ends[3])) if ends else ((d, d), (1, 1))
    lo, hi = abs(lo), abs(hi)
    top, dd, e = lo, d * d, 0
    for a0 in a0s:
        lo, hi = hi, (abs(a0) + d) * hi + dd * lo
        cut = lo.bit_length() - 64
        if cut > 0:
            lo, hi, e = (lo >> cut) + 1, (hi >> cut) + 1, e + cut
    top = max(top, hi << e, (abs(reads[0]) * lo + abs(reads[1]) * hi) << e)
    return -(-(top.bit_length() + 1) // 8) * 8


def _pack(c, shape: tuple[int, int] | None):
    """The constant c as a packed state (see :class:`_Packed`): a float64 array of
    ``shape`` with c in entry (0, 0), or the int c itself when exact (``shape`` None)."""
    if shape is None:
        return c
    import numpy as np
    y = np.zeros(shape)
    y[0, 0] = c
    return y


def _unpack(y, n: int, slot: int | None, rows: int = 1) -> CharPoly:
    """The CharPoly of the n low coefficients of a packed state (see :class:`_Packed`) at
    e = 1: the sum of an exact one's ``rows`` blocks of n slots, or of a float one's columns.
    Adding 2**(S - 1) to each of the n low slots of an int and keeping the sum
    modulo 2**(S n) makes each slot a plain unsigned field of its bytes,
    whatever lies above them.  A graded read's ``rows`` blocks so offset add
    up as plain ints into one block, each field the sum of ``rows`` of them;
    the sums fit their slots (:func:`_slot_bits` bounds the sum of every
    |coefficient|), so taking ``rows`` - 1 offsets off leaves n plain fields.
    Float columns add in order from column 0 (``cumsum``; ``sum`` is pairwise), as
    CharPoly sums the e^k parts, and one column is read as it is; then 0.0 is added to
    each entry.  A coefficient that is not finite raises OverflowError.
    """
    if not isinstance(y, int):  # a float state, one ndarray
        import numpy as np
        c = (y[:, 0] if y.shape[1] == 1 else np.cumsum(y, axis=1)[:, -1]) + 0.0
        bad = np.flatnonzero(~np.isfinite(c))
        if bad.size:
            k = int(bad[0])
            raise OverflowError(
                f"float sweep overflows: the coefficient of lambda^{k} is {c[k]} ({bad.size} "
                f"of {n} not finite); exact=True, or int and Fraction inputs, have no such limit")
        return CharPoly(c.tolist(), backend="float")
    if n * rows == 1:  # a plain int, see _Packed
        return CharPoly([y], backend="exact")
    width, half, size = slot // 8, 1 << (slot - 1), n * rows
    field = bytes(width - 1) + b"\x80"  # one slot's offset, 2**(S - 1)
    offsets = int.from_bytes(field * size, "little")
    raw = ((y + offsets) & ((1 << slot * size) - 1)).to_bytes(size * width, "little")
    if rows > 1:  # one block of n fields, each the sum of rows offset slots
        step = n * width
        blocks = sum(int.from_bytes(raw[i:i + step], "little") for i in range(0, len(raw), step))
        raw = (blocks - (rows - 1) * int.from_bytes(field * n, "little")).to_bytes(step, "little")
    return CharPoly([int.from_bytes(raw[i:i + width], "little") - half
                     for i in range(0, n * width, width)], backend="exact")


def _unscale(p: CharPoly, d: int, power: int) -> CharPoly:
    """p / d**power for the exact carrier, one exact scalar per coefficient; p if d is 1."""
    if d == 1:
        return p
    if d & (d - 1):
        n = d ** power
        return CharPoly([Fraction(c, n) for c in p.coeffs], backend="exact")
    k, out = (d.bit_length() - 1) * power, []
    for c in p.coeffs:  # a power of two d (every float input's): c's trailing zeros, no gcd
        z = min((c & -c).bit_length() - 1, k) if c else k
        out.append(c >> z if z == k else Fraction(_Reduced(c >> z, 1 << (k - z))))
    return CharPoly(out, backend="exact")


# a numerator and denominator in lowest terms: Fraction(_Reduced(n, d)) copies them
_Reduced = namedtuple("_Reduced", "numerator denominator")
numbers.Rational.register(_Reduced)


def char_poly(potential: Potential, bc: BoundaryCondition, exact: bool = False) -> CharPoly:
    """Characteristic polynomial P(lambda); roots are the eigenvalues.

    Interval conditions use the boundary matrix element; circle conditions
    use tr K(lambda; nu) - 2 cos(2 pi tau), still a degree-nu real
    polynomial (doubly degenerate periodic eigenvalues appear as double
    roots).  nu = 0 yields a constant polynomial, not an error.  A float
    coefficient outside the float range raises OverflowError; ``exact``
    has no such limit.
    """
    return _terminal(potential, bc, exact)


def _twist_shift(tau: float, exact: bool):
    """2 cos(2 pi tau); kept exact at the rational points the tests pin."""
    shift = 2.0 * math.cos(2.0 * math.pi * tau)
    return {1.0: 2, 0.5: -2, 0.25: 0, 0.75: 0}.get(tau, Fraction(shift)) if exact else shift


def periodic_char_fn(potential: Potential, tau: float, lam: float) -> float:
    """tr K(lambda; nu) - 2 cos(2 pi tau), K by :class:`Propagator`; zeros: twisted eigenvalues."""
    shift = _twist_shift(twisted(tau).twist, False)  # twisted() checks tau
    if potential.nu < 1:
        raise ValueError("circle topology needs nu >= 1")
    return Propagator(potential, float(lam)).matrix(potential.nu).trace() - shift


def _lead_and_degree(bc: BoundaryCondition, nu: int, exact: bool = False):
    """P's leading coefficient (-1)^nu (1+alpha)(1+beta), lifted as :func:`_terminal`
    lifts it, and degree; an alpha or beta of exactly -1 drops its factor and a degree (to >= 0)."""
    if not bc.is_interval:
        return (-1) ** nu, nu
    ends = [1 + bc.robin_alpha, 1 + bc.robin_beta]  # the boundary vectors' entries
    if exact:
        ends = [_exactify(f) for f in ends]
    kept = [f for f in ends if f != 0]
    return (-1) ** nu * math.prod(kept), max(nu - (len(ends) - len(kept)), 0)


def _block_partition(nu: int, top: float, block: int | None) -> tuple[int, int, int]:
    """(nblocks, length, short): nu sites cut into nblocks blocks of length sites,
    the first ``short`` of them one site shorter.

    Blocks hold about sqrt(nu) sites (``block`` overrides that; it is a test
    hook for checking other lengths), capped so that a block's growth bound
    prod(|u_j| + 2), with ``top`` = max |u_j|, stays below 2**_BLOCK_GROWTH_BITS.
    """
    growth = math.log2(2.0 + top)  # bits one site may add
    cap = int(_BLOCK_GROWTH_BITS / growth) if growth < _BLOCK_GROWTH_BITS else 1
    nblocks = -(-nu // max(1, min(block or math.isqrt(nu), cap)))
    length = -(-nu // nblocks)
    return nblocks, length, nblocks * length - nu


def _block_matrices(u: np.ndarray, order: int = 0,
                    block: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Difference-form matrices of every block of sites, as Taylor jets in lambda.

    Each site steps a column (y(j), Delta(j)) by Delta += (u_j - lambda) y,
    y += Delta, the step matrix [[1 + u_j - lambda, 1], [u_j - lambda, 1]];
    every entry is carried as its coefficients of lambda^0..lambda^order.
    Returns (ys, ds), each of shape (2, order + 1, nblocks): column c of
    block i sends the unit vector e_c of (y, Delta) to (ys[c, :, i], ds[c, :, i]).
    The blocks are :func:`_block_partition`'s, and the unit columns of every
    block advance together as numpy arrays.
    """
    import numpy as np
    nu = len(u)
    nblocks, length, short = _block_partition(nu, float(np.max(np.abs(u))), block)
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


def _unit_columns(u, block: int | None = None):
    """:func:`_block_matrices` at order 0 in Python floats: per block, (p, q, r, s)
    with columns (p, r) and (q, s) the images of (y, Delta) = (1, 0) and (0, 1),
    stepped site by site in the same operations, so in the same bits."""
    nblocks, length, short = _block_partition(len(u), max(map(abs, u)), block)
    stop = 0
    for i in range(nblocks):
        start, stop = stop, stop + length - (i < short)
        p, q, r, s = 1.0, 0.0, 0.0, 1.0
        for w in u[start:stop]:
            r += w * p
            p += r
            s += w * q
            q += s
        yield p, q, r, s


def _blocked_difference_sweep(u, cols: list[float],
                              block: int | None = None) -> tuple[list[float], int]:
    """Advance difference-form columns over every site, block by block.

    ``u`` holds the sites' floats (an ``array('d')`` or ndarray); ``cols`` =
    [y1, d1, y2, d2] holds two columns (y(j), Delta(j)) at j = 1; each site
    steps them by Delta += u_j y, y += Delta.  Returns the columns at
    j = nu + 1 as (mantissas, e), the true columns being mantissas * 2**e.

    Each block's matrix (p, q, r, s) is chained onto ``cols`` in Python, with
    the largest entry brought to [0.5, 1) by an exact power of two after each
    block, so exact zeros stay exact.  Up to _NUMPY_SITES sites the matrices
    come from :func:`_unit_columns` in Python floats, above it from
    :func:`_block_matrices` in numpy: in process, numpy's per-call overhead
    outweighs a short sweep (0.008 ms in Python against 0.024 ms at nu = 10;
    the two meet near 300 sites), and a fresh process would also pay ~70 ms
    to load numpy.  Both step the same blocks in the same operations, so the
    bits are the same on either side of the switch.
    """
    if len(u) == 0:
        return cols, 0
    if len(u) > _NUMPY_SITES:
        import numpy as np
        ys, ds = _block_matrices(np.asarray(u, dtype=np.float64), 0, block)
        blocks = zip(ys[0, 0].tolist(), ys[1, 0].tolist(), ds[0, 0].tolist(), ds[1, 0].tolist())
    else:
        blocks = _unit_columns(u, block)
    y1, d1, y2, d2 = cols
    exponent = 0
    for p, q, r, s in blocks:
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
    import numpy as np
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


def _taylor_at_zero(potential: Potential, bc: BoundaryCondition,
                    order: int) -> tuple[list[float], list[float], int]:
    """Taylor coefficients c_0..c_order of P at lambda = 0, as (cs, refs, e).

    The true c_k is cs[k] * 2**e.  refs[k], on the same scale, is the
    magnitude of the swept state's order-k entries, of (y(nu), y(nu+1)) on
    the interval and of K on the circle: the yardstick of c_k's zero test
    (P's large mid coefficients are not) and of the float sums' guard.
    Order 0 chains Python floats (:func:`_blocked_difference_sweep`), and up
    to _NUMPY_SITES sites steps its blocks in them too, so that a short
    determinant never imports numpy; higher orders take one
    :func:`_blocked_jet_sweep`.
    """
    lead, degree = _lead_and_degree(bc, potential.nu)
    if degree == 0 < potential.nu:  # every site pinned: P is lead, as in _terminal
        return [float(lead)] + [0.0] * order, [abs(float(lead))] + [0.0] * order, 0
    alpha = float(bc.robin_alpha)
    # (y(1), Delta(1)) from y(0) = 0, y(1) = 1, or from y(0) = 1, Delta y(0) =
    # alpha; on the circle the two columns of K, on (y, Delta)
    seed = ([1.0, 0.0, 0.0, 1.0] if bc.is_circle
            else [1.0, 1.0] if bc.kind == DIRICHLET else [1.0 + alpha, alpha])
    if order == 0:
        # the chain steps two columns; an interval's second one is zero
        cols, e = _blocked_difference_sweep(potential._floats(), (seed + [0.0, 0.0])[:4])
        rows = [cols[:len(seed)]]
    else:
        import numpy as np
        u = potential.as_array()
        m1 = order + 1
        cols = np.zeros((2 * m1, len(seed) // 2))
        cols[[0, m1]] = np.reshape(seed, (-1, 2)).T
        cols, e = _blocked_jet_sweep(u, cols, order)
        # rows[k] lists every column's order-k (y, Delta), as ``seed`` does
        rows = cols.reshape(2, m1, -1).transpose(1, 2, 0).reshape(m1, -1).tolist()
    cs, refs = [], []
    for row in rows:
        if bc.is_interval:
            y, d = row
            # out_adjoint . (y(nu), y(nu+1)) = y for Dirichlet, else Delta + beta y
            cs.append(y if bc.kind == DIRICHLET else d + float(bc.robin_beta) * y)
            refs.append(max(abs(y - d), abs(y)))
        else:
            # K = S^-1 D S with D = [[p, q], [r, s]] and S (y(j-1), y(j)) = (y, Delta)
            p, r, q, s = row
            cs.append(p + s)
            refs.append(math.hypot(s - q, p + q - r - s, q, p + q))
    if bc.is_circle:
        cs[0] -= math.ldexp(_twist_shift(bc.twist, False), -e)
    return cs, refs, e


def _nonzero_coefficient(cs: list, refs: list, e: int, k: int) -> tuple[float, int] | None:
    """c_k of :func:`_taylor_at_zero` as (c, fold), c_k = c 2**(e - fold) with fold = e up to
    _FOLD_BITS, else 0; or None where |c_k| is at most _ZERO_RTOL times refs[k]."""
    fold = e if e <= _FOLD_BITS else 0
    c = math.ldexp(cs[k], fold)
    return None if abs(c) <= _ZERO_RTOL * max(math.ldexp(refs[k], fold), 1e-300) else (c, fold)


def _h_power(bc: BoundaryCondition, nu: int, removed: int, prime: bool) -> int:
    """n of :func:`determinant`'s factor h^(-2 n): P's degree less ``removed``
    when primed, else nu, also where a degenerate Robin end drops a degree."""
    return (_lead_and_degree(bc, nu)[1] if prime else nu) - removed


def determinant(potential: Potential, bc: BoundaryCondition, spec: LatticeSpec,
                prime: bool = False) -> LogDet:
    """Operator determinant as a LogDet: Det = (-1)^d P(0)/a * h^(-2 nu).

    ``a`` is the polynomial's actual leading coefficient and d its actual
    degree, both read off the boundary condition (an alpha or beta of
    exactly -1 drops one degree each), so the value is insensitive to the
    overall scale of P.  It is the product of the physical eigenvalues when
    d = nu; a degenerate Robin end (d < nu) still scales by h^(-2 nu), and
    d = 0 gives h^(-2 nu).  c_0 = P(0) testing zero gives sign 0.

    With ``prime`` set, k zero modes are removed: k is the number of leading
    coefficients c_0, c_1, ... that test zero (c_1, and c_2 on the circle,
    from one jet sweep), and Det' = (-1)^(d-k) c_k/a * h^(-2 (d-k)), with
    ``zero_modes_removed`` = k.  No eigenvalue is computed: no size limit.
    """
    _check_lattice(potential, bc, spec)
    nu = potential.nu
    if nu == 0:
        return LogDet(1, 0.0, 0)  # empty product

    order = 1 if bc.is_interval else 2  # an eigenvalue's largest multiplicity
    cs, refs, e = _taylor_at_zero(potential, bc, 0)
    for k in range(order + 1):
        if k == 1:
            if not prime:
                return LogDet(0, math.nan, 0)
            cs, refs, e = _taylor_at_zero(potential, bc, order)
        if folded := _nonzero_coefficient(cs, refs, e, k):
            break
    else:
        raise ArithmeticError(
            f"P(lambda) and its first {order} derivatives test zero at lambda = 0, but "
            f"{'interval' if bc.is_interval else 'circle'} eigenvalues have multiplicity "
            f"at most {order}")

    c, fold = folded
    lead, degree = _lead_and_degree(bc, nu)
    sign = (-1) ** (degree - k) * (1 if c > 0 else -1) * (1 if lead > 0 else -1)
    log_abs = (math.log(abs(c)) + (e - fold) * _LN2 - math.log(abs(lead))
               + -2.0 * _h_power(bc, nu, k, prime) * math.log(spec.h))
    return LogDet(sign, log_abs, k)


def eigenfunctions(potential: Potential, bc: BoundaryCondition, spectrum: Spectrum) -> np.ndarray:
    """Table y_n(j), n = 0..nu-1, j = 1..nu, as an (nu, nu) float array.

    Row n solves T y = lambda_n y, lambda_n = spectrum[n], for T of
    :func:`spectrum.tridiagonal_matrix` (circle conditions, nu = 0 and an alpha or
    beta of exactly -1 raise its ValueError) by the twisted factorisation of
    Fernando (SIAM J. Matrix Anal. Appl. 18 (1997) 1013) and Dhillon & Parlett
    (Linear Algebra Appl. 387 (2004) 1): the GY pivots r_j = y(j+1)/y(j) =
    (d_j - lambda) - 1/r_(j-1) from the left end and s_j from the right meet at
    the twist k minimising |r_k + s_k - (d_k - lambda)|, where the mode is near
    its largest; from y(k) = 1, y(j) = y(j+1)/r_j for j < k and y(j-1)/s_j for
    j > k.  Each row is scaled so that its first entry of largest magnitude is
    exactly +1.  A row whose backward error max_j |(T - lambda) y|_j / (|d_j| +
    |lambda| + 2), the residual of each site against the rounding of its row,
    exceeds 1e-8 max_j |y_j|, or is not finite, raises ArithmeticError.
    """
    import numpy as np
    d, _ = tridiagonal_matrix(potential, bc)
    nu = len(d)
    if len(spectrum) != nu:
        raise ValueError(f"spectrum has {len(spectrum)} entries, potential has nu={nu}")
    lam = np.fromiter(spectrum, dtype=float, count=nu)
    blocks = [slice(lo, lo + 64) for lo in range(0, nu, 64)]  # sites per numpy call
    cols, site = np.arange(nu), np.arange(1, nu + 1)[:, None]
    # rows 1..nu are the sites, one column per mode; the zero rows 0 and nu + 1
    # are 1/r_0 and 1/s_(nu+1), and y(0) and y(nu+1) once fwd holds y
    fwd, bwd = np.zeros((nu + 2, nu)), np.zeros((nu + 2, nu))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # 1/r_j into fwd, 1/s_j into bwd; an exact zero pivot is +0, and capping its
        # reciprocal makes 1/r_j 1/r_(j+1) = y(j)/y(j+2) come out -1, not inf * -0 = NaN
        for rows, sites, back in ((fwd, range(1, nu + 1), -1), (bwd, range(nu, 0, -1), 1)):
            for j in sites:
                row = np.subtract(d[j - 1], lam, out=rows[j])
                row -= rows[j + back]
                np.minimum(np.reciprocal(row, out=row), 2.0 ** 500, out=row)
        gap, twist = np.full(nu, np.inf), np.zeros(nu, dtype=np.intp)
        for b in blocks:  # r_k + s_k - (d_k - lambda) = (d_k - lambda) - 1/r_(k-1) - 1/s_(k+1)
            g = np.abs(d[b, None] - lam - fwd[:-2][b] - bwd[2:][b])
            at = g.argmin(axis=0)
            closer = g[at, cols] < gap
            gap[closer], twist[closer] = g[at, cols][closer], site[b][at[closer], 0]
        for b in blocks:  # keep 1/r_j left of the twist and 1/s_j right of it
            np.putmask(fwd[1:-1][b], site[b] >= twist, 1.0)
            np.putmask(bwd[1:-1][b], site[b] <= twist, 1.0)
        for j in range(1, nu):  # from y(k) = 1, y(i) = y(i+1)/r_i leftward, y(i-1)/s_i rightward
            fwd[nu - j] *= fwd[nu - j + 1]
            bwd[j + 1] *= bwd[j]
        ys = fwd[1:-1]
        ys *= bwd[1:-1]
        res, size, peak = np.zeros(nu), np.zeros(nu), np.zeros(nu, dtype=np.intp)
        row_size = np.abs(lam) + 2.0  # with |d_j|, the size of row j of T - lambda
        for b in blocks:  # the backward error and the first j of largest |y_j|
            r = np.abs((d[b, None] - lam) * ys[b] - fwd[:-2][b] - fwd[2:][b])
            r /= np.abs(d[b, None]) + row_size
            np.maximum(res, r.max(axis=0), out=res)
            np.abs(ys[b], out=r)
            at = r.argmax(axis=0)
            higher = r[at, cols] > size
            size[higher], peak[higher] = r[at, cols][higher], site[b][at[higher], 0] - 1
        rel = res / size
        ys /= ys[peak, cols]
    bad = ~(rel <= _EIGENFUNCTION_RTOL)
    if bad.any():
        finite = np.isfinite(rel)
        raise ArithmeticError(
            f"{int(bad.sum())} of {nu} eigenfunction rows miss T y = lambda y: twisted "
            f"factorisation, worst finite backward error "
            f"{float(np.max(rel[finite], initial=0.0)):.3g} of max|y| against "
            f"{_EIGENFUNCTION_RTOL:g}, {int((~finite).sum())} rows not finite")
    return ys.T

"""Shared domain types for 1-d lattice Schrodinger operators.

The operator acts on a scalar field y(j) living on equally spaced vertices.
On the interval there are nu dynamical (interior) vertices plus two boundary
ones, total length L = h*(nu+1); on the circle there are nu vertices and
L = h*nu.  All internal arithmetic is dimensionless: the spectral variable
lambda and the potential v relate to their physical counterparts by

    lambda = h^2 * lambda_bar,    v_j = h^2 * vbar_j.

Physical units enter only through :class:`LatticeSpec` at the API edges.

Two scalar backends coexist.  The float backend is ordinary float64.  The
exact backend keeps every coefficient an ``int`` (or ``Fraction`` when the
inputs are not integers), so identity tests can demand bit-exact equality;
Python integers are arbitrary precision, hence exact arithmetic can never
silently wrap.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:  # annotations only: numpy loads in the functions that use arrays
    import numpy as np

INTERVAL = "interval"
CIRCLE = "circle"

# A site-by-site step over at most this many sites runs in Python floats, over
# more as numpy operations: the in-process crossover of the two on the order-0
# chain of transfer._blocked_difference_sweep, ~0.06 ms each at 300 sites.
# Both give the same bits, so it only decides when a call pays numpy's import.
_NUMPY_SITES = 300


# ---------------------------------------------------------------------------
# Lattice geometry and potentials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatticeSpec:
    """Lattice geometry: nu dynamical vertices with spacing h.

    Exactly one of (h, L) is user supplied; the other is derived from
    L = h*(nu+1) on the interval and L = h*nu on the circle.
    """

    nu: int
    h: float
    L: float
    topology: str = INTERVAL

    def __post_init__(self):
        if self.nu < 0:
            raise ValueError(f"nu must be >= 0, got {self.nu}")
        if not (0 < self.h < math.inf and 0 < self.L < math.inf):  # NaN fails too
            raise ValueError("lattice spacing and length must be positive and finite")
        if self.topology not in (INTERVAL, CIRCLE):
            raise ValueError(f"unknown topology {self.topology!r}")

    @property
    def n_links(self) -> int:
        """Number of lattice links: L / h."""
        return self.nu + 1 if self.topology == INTERVAL else self.nu

    @classmethod
    def interval(cls, nu: int, h: float | None = None, L: float | None = None) -> "LatticeSpec":
        h, L = _resolve_spacing(nu + 1, h, L)
        return cls(nu=nu, h=h, L=L, topology=INTERVAL)

    @classmethod
    def circle(cls, nu: int, h: float | None = None, L: float | None = None) -> "LatticeSpec":
        if nu < 1:
            raise ValueError("circle topology needs nu >= 1")
        h, L = _resolve_spacing(nu, h, L)
        return cls(nu=nu, h=h, L=L, topology=CIRCLE)


def _resolve_spacing(links: int, h: float | None, L: float | None) -> tuple[float, float]:
    if (h is None) == (L is None):
        raise ValueError("supply exactly one of h and L")
    if h is not None:
        return float(h), float(h) * links
    return float(L) / links, float(L)


class Potential:
    """Dimensionless site potential v_j = h^2 * vbar_j; ``values[j-1]`` holds v_j.

    All-int/Fraction entries (exact backend) stay a tuple; anything else is
    one ``array('d')`` of float64 entries, copied through the buffer from an
    ndarray, whose ``values`` are Python floats.  ``as_array()`` returns a
    read-only float64 ndarray viewing that storage, made on the first call
    and then shared; an exact potential's is a float copy of its tuple.  Only
    ``as_array()``, and ``from_physical`` above _NUMPY_SITES sites, import numpy.
    """

    __slots__ = ("_exact", "_data", "_view")

    def __init__(self, values):
        self._exact = self._view = None
        np = sys.modules.get("numpy")  # no ndarray exists before numpy is loaded
        if np is not None and isinstance(values, np.ndarray):
            values = np.asarray(values, dtype=np.float64)
            if values.ndim != 1:
                raise ValueError(f"a potential has one value per site, not shape {values.shape}")
            finite = np.isfinite(values).all()
            self._data = array("d")
            self._data.frombytes(memoryview(np.ascontiguousarray(values)).cast("B"))
        else:
            if not isinstance(values, array):
                values = tuple(values)
                if all(isinstance(v, (int, Fraction)) for v in values):
                    self._exact, self._data = values, None
                    return
            self._data = array("d", values)
            # a sum is finite only if every term is; one that overflows checks them one by one
            finite = math.isfinite(sum(self._data)) or all(map(math.isfinite, self._data))
        if not finite:
            raise ValueError(_NOT_FINITE)

    @classmethod
    def _of(cls, data: array) -> "Potential":
        """A float potential on ``data`` itself, whose entries the caller has checked."""
        pot = cls.__new__(cls)
        pot._exact, pot._data, pot._view = None, data, None
        return pot

    def _floats(self) -> array:
        """The entries as an ``array('d')``, the storage itself; not to be written."""
        if self._data is None:
            self._data = array("d", map(float, self._exact))
        return self._data

    @property
    def values(self) -> tuple:
        return self._exact if self._exact is not None else tuple(self._data)

    def __len__(self) -> int:
        return len(self._exact if self._exact is not None else self._data)

    nu = property(__len__)

    def __iter__(self):
        return iter(self._exact if self._exact is not None else self._data)

    def __eq__(self, other):
        return self.values == other.values if isinstance(other, Potential) else NotImplemented

    def __hash__(self):
        return hash(self.values)

    def __repr__(self):
        return f"Potential(values={self.values!r})"

    def __reduce__(self):  # the entries alone; a copy makes its own view
        return Potential, (self._exact if self._exact is not None else self._data,)

    @classmethod
    def zeros(cls, nu: int) -> "Potential":
        pot = cls._of(array("d", [0.0]) * nu)
        pot._exact = (0,) * nu
        return pot

    @classmethod
    def constant(cls, nu: int, v) -> "Potential":
        if isinstance(v, (int, Fraction)):
            return cls((v,) * nu)
        return cls._of(array("d", [_finite(v)]) * nu)

    @classmethod
    def delta(cls, nu: int, site: int, v) -> "Potential":
        """Potential supported on a single vertex, 1-based ``site``."""
        if not 1 <= site <= nu:
            raise ValueError(f"site {site} outside 1..{nu}")
        if isinstance(v, (int, Fraction)):
            vals = [0] * nu
            vals[site - 1] = v
            return cls(vals)
        data = array("d", [0.0]) * nu
        data[site - 1] = _finite(v)
        return cls._of(data)

    @classmethod
    def from_physical(cls, vbar: Sequence[float], h: float) -> "Potential":
        hh = h * h  # (h*h)*v per site, as Python evaluates h * h * v
        if not isinstance(hh, float):
            return cls([hh * v for v in vbar])
        if len(vbar) > _NUMPY_SITES:
            import numpy as np
            return cls(hh * np.asarray(vbar, dtype=np.float64))
        return cls(array("d", [hh * float(v) for v in vbar]))

    def as_array(self) -> np.ndarray:
        if self._view is None:
            import numpy as np
            view = np.frombuffer(self._floats(), dtype=np.float64)
            view.flags.writeable = False
            self._view = view
        return self._view

    def is_free(self) -> bool:
        return not any(self._data) if self._exact is None else all(v == 0 for v in self._exact)


_NOT_FINITE = "potential values must be finite numbers"


def _finite(v) -> float:
    """float(v), unless it is not finite."""
    v = float(v)
    if not math.isfinite(v):
        raise ValueError(_NOT_FINITE)
    return v


def load_potential(source, nu: int | None = None) -> Potential:
    """Load a potential from JSON.

    Accepts a path, an open file object, or a parsed object.  The JSON is
    either a plain array of dimensionless values, or an object
    ``{"physical": [...], "h": x}`` triggering the v = h^2 * vbar
    conversion.  Each entry is read as ``float()`` reads it, into one
    ``array('d')``.  Raises ValueError unless values are finite and h positive.
    """
    if isinstance(source, (str, bytes)):
        with open(source) as fh:
            data = json.load(fh)
    elif hasattr(source, "read"):
        data = json.load(source)
    else:
        data = source
    h = 1.0  # a plain array is already dimensionless; 1.0 * v is v, bit for bit
    if isinstance(data, dict):
        try:
            data, h = data["physical"], float(data["h"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError("potential object needs 'physical' and a number 'h'") from exc
        if not 0 < h < math.inf:
            raise ValueError(f"potential 'h' must be finite and positive, got {h!r}")
    if not isinstance(data, list):
        raise ValueError(f"potential values must be a flat list of numbers, not {type(data).__name__}")
    try:
        try:
            vbar = array("d", data)
        except TypeError:  # numeric strings among the numbers
            vbar = array("d", map(float, data))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"potential values must be a flat list of numbers ({exc})") from exc
    pot = Potential.from_physical(vbar, h)  # refuses values that are not finite
    if nu is not None and pot.nu != nu:
        raise ValueError(f"potential has {pot.nu} entries, lattice wants {nu}")
    return pot


# ---------------------------------------------------------------------------
# Boundary conditions
# ---------------------------------------------------------------------------

DIRICHLET = "dirichlet"
NEUMANN = "neumann"
ROBIN = "robin"
PERIODIC = "periodic"
TWISTED = "twisted"

_INTERVAL_KINDS = (DIRICHLET, NEUMANN, ROBIN)
_CIRCLE_KINDS = (PERIODIC, TWISTED)


@dataclass(frozen=True)
class BoundaryCondition:
    """One of Dirichlet, Neumann, Robin(alpha, beta), Periodic, Twisted(tau).

    Robin parameters are the dimensionless ones in the conditions
    Delta y(0) = alpha*y(0), Delta y(nu) = -beta*y(nu+1); Robin(0, 0) is
    Neumann.  Twisted(tau) imposes y(j+nu) = exp(2*pi*i*tau)*y(j), and
    Twisted(1) is Periodic.
    """

    kind: str
    alpha: float = 0.0
    beta: float = 0.0
    tau: float = 1.0

    def __post_init__(self):
        if self.kind not in _INTERVAL_KINDS + _CIRCLE_KINDS:
            raise ValueError(f"unknown boundary condition {self.kind!r}")
        if not all(map(math.isfinite, (self.alpha, self.beta, self.tau))):
            raise ValueError(f"boundary parameters must be finite, got alpha={self.alpha}, "
                             f"beta={self.beta}, tau={self.tau}")
        if self.kind == TWISTED and not 0.0 < self.tau <= 1.0:
            raise ValueError(f"twist parameter must lie in (0, 1], got {self.tau}")

    @property
    def is_interval(self) -> bool:
        return self.kind in _INTERVAL_KINDS

    @property
    def is_circle(self) -> bool:
        return self.kind in _CIRCLE_KINDS

    @property
    def robin_alpha(self):
        """Effective left Robin parameter (an exact 0 for the other kinds)."""
        return self.alpha if self.kind == ROBIN else 0

    @property
    def robin_beta(self):
        return self.beta if self.kind == ROBIN else 0

    @property
    def twist(self) -> float:
        """Twist parameter tau; Periodic counts as tau = 1."""
        return self.tau if self.kind == TWISTED else 1.0

    def in_vector(self) -> "Vec2":
        """Seed phase-space vector (y(0), y(1)) fixing the left condition."""
        if self.kind == DIRICHLET:
            return Vec2(0, 1)
        if self.kind in (NEUMANN, ROBIN):
            return Vec2(1, 1 + self.robin_alpha)
        raise ValueError(f"{self.kind} has no in-vector (circle topology)")

    def out_adjoint(self) -> "Vec2":
        """Row vector w such that w . Upsilon(nu) is the eigenvalue polynomial.

        This is the symplectic adjoint of the out vector: for the Robin out
        vector (1+beta, 1) the adjoint row is (-1, 1+beta); for Dirichlet the
        out vector (1, 0) gives (0, 1).
        """
        if self.kind == DIRICHLET:
            return Vec2(0, 1)
        if self.kind in (NEUMANN, ROBIN):
            return Vec2(-1, 1 + self.robin_beta)
        raise ValueError(f"{self.kind} has no out-vector (circle topology)")


def dirichlet() -> BoundaryCondition:
    return BoundaryCondition(DIRICHLET)


def neumann() -> BoundaryCondition:
    return BoundaryCondition(NEUMANN)


def robin(alpha: float, beta: float) -> BoundaryCondition:
    return BoundaryCondition(ROBIN, alpha=alpha, beta=beta)


def periodic() -> BoundaryCondition:
    return BoundaryCondition(PERIODIC)


def twisted(tau: float) -> BoundaryCondition:
    return BoundaryCondition(TWISTED, tau=tau)


def _check_lattice(potential: Potential, bc: BoundaryCondition, spec: LatticeSpec) -> None:
    """Raise ValueError unless ``spec`` has the potential's nu and the topology of ``bc``."""
    if potential.nu != spec.nu:
        raise ValueError(f"potential has nu={potential.nu}, lattice spec has nu={spec.nu}")
    _check_topology(bc, spec)


def _check_topology(bc: BoundaryCondition, spec: LatticeSpec) -> None:
    """Raise ValueError unless ``spec`` has the topology of ``bc``."""
    if bc.is_circle != (spec.topology == CIRCLE):
        raise ValueError(f"{bc.kind} conditions do not fit {spec.topology} topology")


# ---------------------------------------------------------------------------
# Characteristic polynomials
# ---------------------------------------------------------------------------

def _exactify(x):
    """Lift a scalar into the exact backend (int stays int, float -> Fraction)."""
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    if isinstance(x, float):
        return _exactify(Fraction(x))
    if isinstance(x, numbers.Integral):  # numpy's integer scalars among them
        return int(x)
    if isinstance(x, numbers.Real):  # and its floating ones
        return _exactify(float(x))
    raise TypeError(f"cannot use {type(x).__name__} in exact arithmetic")


def _lift(xs: list) -> tuple[list[int], int]:
    """(ns, d) with exact scalars xs = ns / d: d the lcm of their denominators
    (1 for ints, a power of two for floats) and ns ints."""
    xs = [_exactify(x) for x in xs]
    d = math.lcm(*(x.denominator for x in xs))
    return (xs if d == 1 else [x.numerator * (d // x.denominator) for x in xs]), d  # d 1: all ints


class CharPoly:
    """Dense polynomial in the dimensionless spectral variable lambda.

    Coefficients are stored ascending, ``coeffs[k]`` multiplying lambda**k.
    ``backend`` is "float" or "exact"; exact coefficients are ints or
    Fractions and all arithmetic on them is exact.  Both backends drop
    exactly-zero top coefficients and nothing else, so the degree is the
    index of the last nonzero coefficient (exact alpha or beta = -1 Robin
    conditions yield exact zeros and lose their degrees).

    Every result goes through the constructor, which lifts the coefficients
    into the backend: Python floats, or ints and Fractions whose denominator
    is not 1.  A scalar is a one-term polynomial, exact only when it is
    integral or a Fraction and self is exact; an operation on two
    polynomials is exact only when both are.  A product starts each
    coefficient from 0 and adds the terms in the order of the left factor's
    index, skipping its zeros.
    """

    __slots__ = ("coeffs", "backend")

    def __init__(self, coeffs: Iterable, backend: str | None = None):
        coeffs = list(coeffs) or [0]
        if backend is None:
            backend = "exact" if all(isinstance(c, (Fraction, numbers.Integral)) for c in coeffs) else "float"
        if backend == "float":
            coeffs = [float(c) for c in coeffs]
        elif backend == "exact":
            if set(map(type, coeffs)) != {int}:
                coeffs = [_exactify(c) for c in coeffs]
        else:
            raise ValueError(f"unknown backend {backend!r}")
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs, self.backend = coeffs, backend

    # -- constructors -------------------------------------------------------

    @classmethod
    def lam(cls, exact: bool = False) -> "CharPoly":
        """The monomial lambda."""
        return cls([0, 1], backend="exact" if exact else "float")

    # -- basic queries -------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def leading(self):
        """Leading coefficient after the backend's zero-trim rule."""
        return self.coeffs[-1]

    def to_float(self) -> "CharPoly":
        return CharPoly(self.coeffs, backend="float")

    def __call__(self, x):
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    def derivative(self) -> "CharPoly":
        return CharPoly([k * c for k, c in enumerate(self.coeffs)][1:], backend=self.backend)

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other) -> "CharPoly | None":
        """``other`` as a polynomial, a scalar as a one-term one; None if it is not a number."""
        if isinstance(other, CharPoly):
            return other
        if self.backend == "exact" and isinstance(other, (Fraction, numbers.Integral)):
            return CharPoly([other], backend="exact")
        if isinstance(other, numbers.Real):
            return CharPoly([other], backend="float")
        return None

    def _join(self, other: "CharPoly") -> str:
        return "exact" if self.backend == other.backend == "exact" else "float"

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return CharPoly([x + y for x, y in zip(a, b)] + a[len(b):], backend=self._join(other))

    __radd__ = __add__

    def __neg__(self):
        return CharPoly([-c for c in self.coeffs], backend=self.backend)

    def __sub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else _difference(self, other)

    def __rsub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else _difference(other, self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x != 0:
                out[i:i + len(b)] = [o + x * y for o, y in zip(out[i:i + len(b)], b)]
        return CharPoly(out, backend=self._join(other))

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, CharPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(self.coeffs))

    def __repr__(self):
        return f"CharPoly({self.coeffs}, backend={self.backend!r})"


def _difference(p: CharPoly, q: CharPoly) -> CharPoly:
    """p - q in one pass of x + -y, which is x - y on floats; across backends an
    int 0 has no sign to flip, and -0.0 + -0 is 0.0 where -0.0 - 0 is -0.0."""
    a, b = p.coeffs, q.coeffs
    return CharPoly([x + -y for x, y in zip(a, b)] + a[len(b):] + [-y for y in b[len(a):]],
                    backend=p._join(q))


# ---------------------------------------------------------------------------
# 2x2 phase-space algebra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Vec2:
    """Phase-space 2-vector; entries are scalars or CharPoly."""

    a: object
    b: object

    def __iter__(self):
        return iter((self.a, self.b))

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.a + other.a, self.b + other.b)

    def __rmul__(self, s) -> "Vec2":
        return Vec2(s * self.a, s * self.b)


@dataclass(frozen=True)
class Mat2:
    """2x2 matrix over scalars or CharPoly entries.

    Layout [[a, b], [c, d]].
    """

    a: object
    b: object
    c: object
    d: object

    def __matmul__(self, other):
        if isinstance(other, Mat2):
            return Mat2(
                self.a * other.a + self.b * other.c,
                self.a * other.b + self.b * other.d,
                self.c * other.a + self.d * other.c,
                self.c * other.b + self.d * other.d,
            )
        if isinstance(other, Vec2):
            return Vec2(self.a * other.a + self.b * other.b,
                        self.c * other.a + self.d * other.b)
        return NotImplemented

    def det(self):
        return self.a * self.d - self.b * self.c

    def trace(self):
        return self.a + self.d

    def transpose(self) -> "Mat2":
        return Mat2(self.a, self.c, self.b, self.d)

    def __add__(self, other: "Mat2") -> "Mat2":
        return Mat2(self.a + other.a, self.b + other.b, self.c + other.c, self.d + other.d)

    def __sub__(self, other: "Mat2") -> "Mat2":
        return Mat2(self.a - other.a, self.b - other.b, self.c - other.c, self.d - other.d)

    def __rmul__(self, s) -> "Mat2":
        return Mat2(s * self.a, s * self.b, s * self.c, s * self.d)

    @staticmethod
    def identity(one=1) -> "Mat2":
        zero = one - one
        return Mat2(one, zero, zero, one)

    def norm(self) -> float:
        return math.sqrt(sum(float(x) ** 2 for x in (self.a, self.b, self.c, self.d)))


#: Symplectic metric J = [[0, 1], [-1, 0]]; every step matrix M obeys M~ J M = J.
J = Mat2(0, 1, -1, 0)

#: Projector A = [[0, 0], [0, 1]] from the split M = B - lambda*A.
A_PROJ = Mat2(0, 0, 0, 1)


# ---------------------------------------------------------------------------
# Spectra and log-determinants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Spectrum:
    """Ascending dimensionless eigenvalues; count always equals nu."""

    lambdas: tuple
    spec: LatticeSpec | None = None

    def __post_init__(self):
        object.__setattr__(self, "lambdas", tuple(float(x) for x in self.lambdas))

    def __len__(self) -> int:
        return len(self.lambdas)

    def __iter__(self):
        return iter(self.lambdas)

    def __getitem__(self, i):
        return self.lambdas[i]

    @property
    def physical(self) -> tuple:
        """Eigenvalues in physical units, lambda / h^2."""
        if self.spec is None:
            raise ValueError("no LatticeSpec attached; cannot convert to physical units")
        hh = self.spec.h * self.spec.h
        return tuple(x / hh for x in self.lambdas)


@dataclass(frozen=True)
class LogDet:
    """Determinant as (sign, log|Det|), overflow-proof at the h^(-2*nu) scale.

    ``sign == 0`` flags a vanishing determinant (zero mode); ``log_abs`` is
    then meaningless.  ``zero_modes_removed`` is nonzero only for primed
    determinants.
    """

    sign: int
    log_abs: float
    zero_modes_removed: int = 0

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise ValueError("sign must be -1, 0 or +1")

    @property
    def value(self) -> float:
        """exp back to a plain float; overflows to +-inf for large logs."""
        return self.scaled_value(0.0)

    @property
    def log10_abs(self) -> float:
        return self.log_abs / math.log(10.0)

    def scaled_value(self, log_scale: float) -> float:
        """sign * exp(log_abs + log_scale), +-inf on overflow; used for h^p * Det limits."""
        if self.sign == 0:
            return 0.0
        try:
            mag = math.exp(self.log_abs + log_scale)
        except OverflowError:
            mag = math.inf
        return self.sign * mag

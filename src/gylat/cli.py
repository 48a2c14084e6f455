"""Command-line front end: determinants, spectra, sums, vacuum energies,
continuum sweeps.

Output is byte-deterministic for a fixed invocation: field order is fixed
(documented in docs/cli_schema.md, schema version 1) and floats are
rendered with 17 significant digits.  CSV output is the flattened JSON.

Output is written to stdout as it is rendered, in 64 KiB batches, with the
bytes of rendering it whole; the eigenfunction table stays one float64
array and is formatted a row at a time, so ``spectrum --eigenfunctions``
peaks at about the nu x nu table plus the two pivot tables of
:func:`transfer.eigenfunctions`.

Exit codes: 0 ok, 2 configuration error, 3 numerical-consistency failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import sys
from fractions import Fraction

from . import chebyshev as cheb
from .closedform import (
    MassParam,
    continuum_limit_targets,
    continuum_scaling_exponent,
    free_determinant,
)
from .core import (
    DIRICHLET,
    NEUMANN,
    PERIODIC,
    ROBIN,
    TWISTED,
    BoundaryCondition,
    CharPoly,
    LatticeSpec,
    LogDet,
    Potential,
    _NUMPY_SITES,
    load_potential,
)
from .spectrum import (CONSISTENCY_RTOL, ZERO_MODE_MESSAGE, _exact_newton_sums, _float_newton_sums,
                       cosecant_sum, oracle_spectrum, robin_cosec_sum)
from .transfer import (_h_power, _lead_and_degree, _nonzero_coefficient, _taylor_at_zero, _terminal,
                       determinant, eigenfunctions)
from .vacuum import _admissible_lattice, extract_constant, free_energy_closed, vacuum_energy

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONSISTENCY = 3


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# Deterministic rendering
# ---------------------------------------------------------------------------

def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return f"{x:.17g}"


def _float_text(xs, sep: str) -> str:
    """A list of ``float`` items by one ``%`` format over the whole list.

    "%.17g" gives the bytes of :func:`_fmt_float` for every finite float, and
    a list holding NaN or an infinity falls back to it per item.
    """
    text = sep.join(["%.17g"] * len(xs)) % tuple(xs)
    if "n" in text:  # only "inf" and "nan" put an "n" in %g output
        text = sep.join(map(_fmt_float, xs))
    return text


def _floats(obj) -> bool:
    """True for a nonempty list or tuple whose items are all of type ``float``.

    Subclasses such as numpy's float64 make it False: they take the per-item path.
    """
    return isinstance(obj, (list, tuple)) and bool(obj) and set(map(type, obj)) == {float}


def _ndarray(obj) -> bool:
    """Whether obj is a numpy array; none can exist before numpy is loaded."""
    np = sys.modules.get("numpy")
    return np is not None and isinstance(obj, np.ndarray)


def _lists(obj):
    """An ndarray as its ``tolist()``, a row at a time from 2-D up; anything else as is."""
    if _ndarray(obj):
        return obj.tolist() if obj.ndim < 2 else list(obj)
    return obj


def _nested(obj) -> bool:
    """Whether the walks below descend into obj."""
    return isinstance(obj, (dict, list, tuple)) or _ndarray(obj)


def _json_scalar(obj) -> str:
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, int):
        return str(obj)
    return "null" if obj is None else json.dumps(str(obj))


def _json_chunks(obj, indent: int = 0):
    """The text of :func:`render_json` in pieces: one per scalar with the keys
    and punctuation before it, and one per all-``float`` list and per row of
    a 2-D array, so a table is never held as text or as Python floats all at once."""
    obj = _lists(obj)
    if _floats(obj):
        yield "[" + _float_text(obj, ", ") + "]"
    elif not isinstance(obj, (dict, list, tuple)):
        yield _json_scalar(obj)
    elif not obj:
        yield "{}" if isinstance(obj, dict) else "[]"
    else:
        pad = "  " * indent
        if isinstance(obj, dict):
            opening, sep, close = "{\n", ",\n", "\n" + pad + "}"
            items = ((f'{pad}  "{k}": ', v) for k, v in obj.items())
        else:
            opening, sep, close = "[", ", ", "]"
            items = (("", v) for v in obj)
        for key, v in items:
            if _nested(v):
                yield opening + key
                yield from _json_chunks(v, indent + 1)
            else:
                yield opening + key + _json_scalar(v)
            opening = sep
        yield close


def render_json(obj) -> str:
    """Schema-v1 JSON text: fixed field order, floats with 17 significant digits.

    A list or tuple whose items are all of type ``float`` (eigenvalue lists)
    and each row of a 2-D ndarray (the eigenfunction table) is rendered by
    one ``%`` format (:func:`_float_text`); an ndarray renders as its ``tolist()``.
    """
    return "".join(_json_chunks(obj))


def _leaves(obj, prefix: str = ""):
    """(dotted key + ".", value) for each leaf of ``obj``; list entries get indices.

    A nonempty all-``float`` list (a table row among them) is one leaf, whose
    entries get their indices from the reader.
    """
    obj = _lists(obj)
    if isinstance(obj, dict):
        items = ((f"{prefix}{k}.", v) for k, v in obj.items())
    elif isinstance(obj, (list, tuple)) and not _floats(obj):
        items = ((f"{prefix}{i}.", v) for i, v in enumerate(obj))
    else:
        yield prefix, obj
        return
    for key, v in items:
        if _nested(v):
            yield from _leaves(v, key)
        else:
            yield key, v


def _keys(prefix: str, v) -> list[str]:
    """The dotted keys of one leaf of :func:`_leaves`."""
    if isinstance(v, (list, tuple)):
        return [f"{prefix}{i}" for i in range(len(v))]
    return [prefix[:-1]]


def _cells(v) -> str:
    """The CSV cells of one leaf of :func:`_leaves`, comma-joined."""
    if isinstance(v, (list, tuple)):
        return _float_text(v, ",")
    return ("true" if v is True else "false" if v is False else "" if v is None else
            _fmt_float(v) if isinstance(v, float) else str(v))


def _csv_chunks(obj):
    """The text of :func:`render_csv` in pieces: the payload is walked twice,
    once for the header and once for the cells, each leaf one piece."""
    header = (",".join(_keys(prefix, v)) for prefix, v in _leaves(obj))
    for start, line in (("", header), ("\n", (_cells(v) for _, v in _leaves(obj)))):
        yield start + next(line, "")
        for piece in line:
            yield "," + piece


def render_csv(obj) -> str:
    """Header of dotted keys, then one line of cells.

    The payload is a dict whose keys are str and hold no ".", as every
    subcommand's is, so no two leaves share a dotted key.  All-``float``
    lists and 2-D ndarray rows format as in :func:`render_json`.
    """
    return "".join(_csv_chunks(obj))


def _batches(pieces):
    """The pieces joined into strings of at least 64 KiB, and the rest."""
    batch, length = [], 0
    for piece in pieces:
        batch.append(piece)
        length += len(piece)
        if length >= 1 << 16:
            yield "".join(batch)
            batch, length = [], 0
    yield "".join(batch)


def emit(payload, fmt: str) -> None:
    """Write ``payload`` and a newline to stdout as it is rendered.

    The bytes are those of ``print(render_json(payload))`` (or
    ``render_csv``), written in batches of 64 KiB: one write for a small
    payload, and about one batch of a table's text held at a time.
    """
    pieces = _csv_chunks(payload) if fmt == "csv" else _json_chunks(payload)
    sys.stdout.writelines(_batches(itertools.chain(pieces, ["\n"])))


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

def _build_bc(args) -> BoundaryCondition:
    """``--bc`` with its parameters; an unset one keeps the library default."""
    params = {}
    for name, kind in (("alpha", ROBIN), ("beta", ROBIN), ("tau", TWISTED)):
        if getattr(args, name) is not None:
            if args.bc != kind:
                raise ConfigError(f"--{name} needs --bc {kind}")
            params[name] = getattr(args, name)
    return BoundaryCondition(args.bc, **params)


def _build_spec(args, bc: BoundaryCondition) -> LatticeSpec:
    if args.nu is None or args.nu < 1:
        raise ConfigError("--nu must be a positive integer")
    h, L = getattr(args, "h", None), args.L  # limit takes no --h
    if h is not None and L is not None:
        raise ConfigError("supply exactly one of --h and --L")
    if h is None and L is None:
        if bc.is_circle:
            L = 2.0 * math.pi  # unit circle, the conventional normalisation
        else:
            raise ConfigError("supply one of --h and --L")
    if bc.is_circle:
        return LatticeSpec.circle(args.nu, h=h, L=L)
    return LatticeSpec.interval(args.nu, h=h, L=L)


def _build_potential(args, spec: LatticeSpec) -> Potential:
    sources = sum(x is not None for x in (args.potential, args.delta_site))
    if sources > 1:
        raise ConfigError("give at most one of --potential and --delta-site")
    if args.delta_v is not None and args.delta_site is None:
        raise ConfigError("--delta-v needs --delta-site")
    if args.potential is not None:
        try:
            pot = load_potential(args.potential, nu=spec.nu)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot load potential: {exc}") from exc
    elif args.delta_site is not None:
        if args.delta_v is None:
            raise ConfigError("--delta-site needs --delta-v")
        try:
            pot = Potential.delta(spec.nu, args.delta_site, args.delta_v)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    else:
        pot = Potential.zeros(spec.nu)
    if args.mass < 0:
        raise ConfigError(f"--mass must be >= 0, got {args.mass}")
    if args.mass:
        mu2 = (spec.h * args.mass) ** 2
        pot = Potential(pot.as_array() + mu2 if spec.nu > _NUMPY_SITES
                        else [v + mu2 for v in pot._floats()])
    return pot


def _parse_sweep(text: str) -> tuple[str, float, float, int]:
    try:
        param, lo, hi, n = text.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError as exc:
        raise ConfigError(f"--sweep wants param:lo:hi:n, got {text!r}") from exc
    if n < 2 or not 0 < lo < hi < math.inf:
        raise ConfigError("--sweep needs finite 0 < lo < hi and n >= 2")
    return param, lo, hi, n


def _geometric(lo: float, hi: float, n: int) -> list[float]:
    ratio = (hi / lo) ** (1.0 / (n - 1))
    return [lo * ratio ** k for k in range(n)]


def _head(args, spec: LatticeSpec | None = None) -> dict:
    """The leading payload fields, with the lattice's nu, h and L when ``spec`` is given."""
    head = {"schema_version": SCHEMA_VERSION, "command": args.command, "bc": args.bc}
    if spec is not None:
        head.update(nu=spec.nu, h=spec.h, L=spec.L)
    return head


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_det(args) -> tuple[dict, int]:
    bc = _build_bc(args)
    spec = _build_spec(args, bc)
    pot = _build_potential(args, spec)
    # on the unit lattice (h = 1) a determinant is the dimensionless one
    unit = LatticeSpec(spec.nu, 1.0, float(spec.n_links), spec.topology)
    dimless = determinant(pot, bc, unit, prime=args.prime)
    removed = dimless.zero_modes_removed
    # determinant's own h^(-2 n) step, so the physical fields keep their bits
    ld = LogDet(dimless.sign, dimless.log_abs
                - 2.0 * _h_power(bc, spec.nu, removed, args.prime) * math.log(spec.h), removed)
    payload = {
        **_head(args, spec),
        "sign": ld.sign,
        "log10_abs": ld.log10_abs if ld.sign != 0 else None,
        "dimensionless_det": dimless.value,
        "zero_modes": removed,
    }
    if ld.sign == 0 and not args.prime:
        payload["hint"] = "determinant vanishes (zero mode); rerun with --prime"
    code = EXIT_OK
    is_free_case = args.potential is None and args.delta_site is None
    # a Robin end pinned by alpha or beta = -1 drops a degree and has no closed form
    if is_free_case and _lead_and_degree(bc, spec.nu)[1] == spec.nu:
        mass = MassParam.physical(args.mass, spec)
        closed = free_determinant(bc, spec, mass, prime=args.prime)
        payload["closed_form_sign"] = closed.sign
        payload["closed_form_log10_abs"] = closed.log10_abs if closed.sign != 0 else None
        if args.prime and bc.kind in (PERIODIC, TWISTED):
            # the closed-form primed circle value keeps the removed mode's
            # (2/h)^2 prefactor; no like-for-like check is possible
            payload["closed_form_convention"] = "keeps (2/h)^2 of removed mode"
            payload["closed_form_agreement"] = None
        elif closed.sign == ld.sign == 0:
            payload["closed_form_agreement"] = True
        elif closed.sign != ld.sign:
            payload["closed_form_agreement"] = False
            code = EXIT_CONSISTENCY
        else:
            # compare dimensionless logs: adding -2 nu log h first (~2.3e6 at
            # nu = 1e5) would round away everything below 2^-31
            closed_dimless = free_determinant(bc, unit, mass, prime=args.prime)
            rel = abs(math.expm1(dimless.log_abs - closed_dimless.log_abs))
            payload["closed_form_rel_diff"] = rel
            payload["closed_form_agreement"] = rel <= CONSISTENCY_RTOL
            if rel > CONSISTENCY_RTOL:
                code = EXIT_CONSISTENCY
    if args.exact and spec.nu <= 64 and bc.is_interval:
        # the exact sweep at lambda = 0: Det = (-1)^degree P(0) / lead
        lead, degree = _lead_and_degree(bc, spec.nu, exact=True)
        exact_det = Fraction(_terminal(pot, bc, CharPoly.lam(exact=True), order=0).coeffs[0]) / lead
        exact_det = -exact_det if degree % 2 else exact_det
        payload["dimensionless_det_exact"] = f"{exact_det.numerator}/{exact_det.denominator}"
    return payload, code


def cmd_spectrum(args) -> tuple[dict, int]:
    bc = _build_bc(args)
    spec = _build_spec(args, bc)
    pot = _build_potential(args, spec)
    if args.eigenfunctions and not bc.is_interval:  # refused before the oracle runs
        raise ConfigError("--eigenfunctions needs an interval boundary condition")
    lam = oracle_spectrum(pot, bc, spec)
    payload = {
        **_head(args, spec),
        "eigenvalues_dimensionless": list(lam.lambdas),
        "eigenvalues_physical": list(lam.physical),
    }
    if args.eigenfunctions:
        payload["eigenfunctions"] = eigenfunctions(pot, bc, lam)  # rendered a row at a time
    return payload, EXIT_OK


def cmd_sums(args) -> tuple[dict, int]:
    bc = _build_bc(args)
    spec = _build_spec(args, bc)
    pot = _build_potential(args, spec)
    kmax = 4 if args.order is None else args.order
    if not 1 <= kmax <= 4:
        raise ConfigError("--order must be 1..4 for sums")
    if args.exact:
        coeffs = _terminal(pot, bc, CharPoly.lam(exact=True), order=kmax).coeffs
        if coeffs[0] == 0:
            raise ConfigError(ZERO_MODE_MESSAGE)
        sums = _exact_newton_sums(coeffs, kmax)
    else:  # c_0..c_kmax of P at 0 up to a common 2^e, c_0 tested zero by det's rule
        cs, refs, e = _taylor_at_zero(pot, bc, kmax)
        if _nonzero_coefficient(cs, refs, e, 0) is None:
            raise ConfigError(ZERO_MODE_MESSAGE)
        sums = _float_newton_sums(cs, kmax, _lead_and_degree(bc, spec.nu)[1], refs)
    payload = {**_head(args, spec), "inverse_power_sums": sums}
    closed = None
    if pot.is_free() and bc.kind == DIRICHLET:
        closed = 0.25 * cosecant_sum(spec.nu + 1, m=1)
    elif pot.is_free() and bc.kind == ROBIN:
        with contextlib.suppress(ZeroDivisionError):
            closed = 0.25 * robin_cosec_sum(spec.nu, bc.alpha, bc.beta)
    if closed is None:
        return payload, EXIT_OK
    payload["closed_form_sum1"] = closed
    rel = abs(sums[0] - closed) / max(1.0, abs(closed))
    payload["closed_form_agreement"] = rel <= CONSISTENCY_RTOL
    return payload, EXIT_OK if rel <= CONSISTENCY_RTOL else EXIT_CONSISTENCY


def _casimir_point(bc: BoundaryCondition, spec: LatticeSpec) -> dict:
    energy = vacuum_energy(None, bc, spec)
    closed = free_energy_closed(bc, spec)
    return {
        "nu": spec.nu,
        "h": spec.h,
        "energy": energy,
        "closed_form": closed,
        "rel_diff": abs(energy - closed) / max(1.0, abs(closed)),
    }


def cmd_casimir(args) -> tuple[dict, int]:
    bc = _build_bc(args)
    spec = _build_spec(args, bc)
    pot = _build_potential(args, spec)
    # with a potential or a mass there is no closed form (vacuum_energy picks the route)
    shifted = args.potential is not None or args.delta_site is not None or args.mass != 0.0
    if args.sweep:
        if shifted:
            raise ConfigError("--sweep fits the free massless closed forms; "
                              "it takes no --potential, --delta-site or --mass")
        param, lo, hi, n = _parse_sweep(args.sweep)
        if param != "h":
            raise ConfigError("casimir sweeps run over h (use --sweep h:lo:hi:n)")
        hs = _geometric(lo, hi, n)
        fit = extract_constant(bc, spec.L, hs)
        points = [_casimir_point(bc, _admissible_lattice(bc, spec.L, h)) for h in fit.h_values]
        payload = {
            **_head(args),
            "L": spec.L,
            "sweep_points": points,
            "fit_coefficients": {str(k): v for k, v in fit.coefficients.items()},
            "fit_residual_norm": fit.residual_norm,
            "universal_constant": fit.constant,
        }
        return payload, EXIT_OK
    if shifted or bc.kind == ROBIN:  # free Robin has no closed form to compare with
        return {**_head(args), "nu": spec.nu, "h": spec.h,
                "energy": vacuum_energy(pot, bc, spec)}, EXIT_OK
    point = _casimir_point(bc, spec)
    payload = {**_head(args), "L": spec.L, **point}
    code = EXIT_OK if point["rel_diff"] <= 1e-10 else EXIT_CONSISTENCY
    return payload, code


def _limit_point(bc: BoundaryCondition, nu: int, L: float, mubar: float) -> tuple[float, float]:
    """Scaled determinant and h at nu sites; Robin's alpha and beta are physical here."""
    spec = (LatticeSpec.circle(nu, L=L) if bc.is_circle
            else LatticeSpec.interval(nu, L=L))
    mass = MassParam.physical(mubar, spec)
    prime = bc.kind in (NEUMANN, PERIODIC) and mubar == 0.0
    if prime:
        # zero-mode removal goes through the closed form: its periodic Det'
        # keeps the removed mode's (2/h)^2, as the continuum targets assume
        ld = free_determinant(bc, spec, mass, prime=True)
    else:
        pot = (Potential.constant(spec.nu, mass.mu * mass.mu) if mubar
               else Potential.zeros(spec.nu))
        if bc.kind == ROBIN:
            bc_lattice = BoundaryCondition(ROBIN, alpha=bc.alpha * spec.h, beta=bc.beta * spec.h)
        else:
            bc_lattice = bc
        ld = determinant(pot, bc_lattice, spec)
    power = continuum_scaling_exponent(bc, spec.nu, prime)
    return ld.scaled_value(power * math.log(spec.h)), spec.h


def cmd_limit(args) -> tuple[dict, int]:
    bc = _build_bc(args)
    if args.L is None and bc.is_interval:
        raise ConfigError("limit needs --L (the physical size is held fixed)")
    spec = _build_spec(args, bc)
    nu = spec.nu
    target = continuum_limit_targets(bc, args.mass, bc.alpha, bc.beta, spec.L)
    coarse_nu = max(2, nu // 2)
    fine_val, fine_h = _limit_point(bc, nu, spec.L, args.mass)
    coarse_val, coarse_h = _limit_point(bc, coarse_nu, spec.L, args.mass)
    fine_err = abs(fine_val - target)
    coarse_err = abs(coarse_val - target)
    order = None
    if fine_err > 0 and coarse_err > 0 and coarse_h != fine_h:  # at nu = 2 the lattices coincide
        order = math.log(coarse_err / fine_err) / math.log(coarse_h / fine_h)
    payload = {
        **_head(args),
        "nu": nu,
        "L": spec.L,
        "mass": args.mass,
        "scaled_det": fine_val,
        "target": target,
        "rel_error": fine_err / max(1e-300, abs(target)),
        "coarse_nu": coarse_nu,
        "coarse_scaled_det": coarse_val,
        "observed_order": order,
    }
    return payload, EXIT_OK


def cmd_chebyshev(args) -> tuple[dict, int]:
    """Identity self-test on the polynomial calculus; the U_k(x) of each x, and
    the U_j and V_j in lambda, come from one recurrence sweep each, and every
    identity reads those shared paths."""
    checks: dict[str, bool] = {}
    # paths[x][k + 2] = U_k(x), k = -2..30
    paths = {x: cheb.cheb_u_path(30, x) for x in range(-3, 4)}
    # Turan: U_{n-1}^2 - U_n U_{n-2} = 1, integer arguments, exact
    checks["turan"] = all(u[n + 1] * u[n + 1] - u[n + 2] * u[n] == 1
                          for u in paths.values() for n in range(0, 31))
    pairs = [(m, n) for m in range(0, 13) for n in range(0, 13)]
    inner = [paths[x] for x in range(-2, 3)]
    # Composition: U_{m+n} = U_m U_n - U_{m-1} U_{n-1}
    checks["composition"] = all(u[m + n + 2] == u[m + 2] * u[n + 2] - u[m + 1] * u[n + 1]
                                for u in inner for m, n in pairs)
    # Product series with parity step 2: sum_{k=|m-n|, step 2}^{m+n} U_k = s(m+n) - s(|m-n|-2)
    # for the parity sums s(k) = U_k + U_{k-2} + ..., s(-1) = s(-2) = 0, held at s[k + 2]
    sums = [[0, 0] for _ in inner]
    for u, s in zip(inner, sums):
        for k in range(25):
            s.append(u[k + 2] + s[k])
    checks["product_series"] = all(u[m + 2] * u[n + 2] == s[m + n + 2] - s[abs(m - n)]
                                   for u, s in zip(inner, sums) for m, n in pairs)
    # det C^n = 1, C^n = [[-U_{n-2}, U_{n-1}], [-U_{n-1}, U_n]]
    checks["matrix_power_det"] = all(
        cheb.Mat2(-u[n], u[n + 1], -u[n + 1], u[n + 2]).det() == 1
        for u in inner for n in range(0, 31))
    # V_j - V_{j-1} = (2x - 2) U_{j-1} as polynomials
    us, v = cheb.cheb_u_poly_path(29), cheb.cheb_v_poly_path(30)
    minus_lambda = cheb.CharPoly([0, -1], backend="exact")
    checks["neumann_difference"] = all(
        v[j] - v[j - 1] == minus_lambda * us[j - 1] for j in range(1, 31))
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "chebyshev",
        "checks": checks,
        "all_passed": all(checks.values()),
    }
    return payload, EXIT_OK if all(checks.values()) else EXIT_CONSISTENCY


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

# One definition per option: flag -> add_argument keywords.
_OPTIONS = {
    "--bc": dict(required=True, choices=(DIRICHLET, NEUMANN, PERIODIC, ROBIN, TWISTED),
                 help="boundary condition"),
    "--nu": dict(type=int, help="number of dynamical vertices"),
    "--h": dict(type=float, help="lattice spacing"),
    "--L": dict(type=float, help="total length"),
    "--alpha": dict(type=float, help="Robin parameter (left; --bc robin only)"),
    "--beta": dict(type=float, help="Robin parameter (right; --bc robin only)"),
    "--tau": dict(type=float, help="twist parameter in (0, 1] (--bc twisted only)"),
    "--mass": dict(type=float, default=0.0, help="physical mass"),
    "--potential": dict(help="JSON potential file"),
    "--delta-site": dict(type=int, help="single-site potential vertex (1-based)"),
    "--delta-v": dict(type=float, help="single-site potential strength"),
    "--prime": dict(action="store_true", help="remove zero modes from the determinant"),
    "--exact": dict(action="store_true", help="exact rational backend"),
    "--order": dict(type=int, help="sum order"),
    "--eigenfunctions": dict(action="store_true", help="emit the eigenfunction table"),
    "--sweep": dict(help="parameter sweep, param:lo:hi:n (geometric)"),
    "--format": dict(choices=("json", "csv"), default="json"),
}

# Per subcommand, the options its cmd_* reads; every subcommand also takes --format.
_LATTICE = ("--bc", "--nu", "--h", "--L", "--alpha", "--beta", "--tau", "--mass",
            "--potential", "--delta-site", "--delta-v")
_SUBCOMMANDS = {
    "det": (*_LATTICE, "--prime", "--exact"),
    "spectrum": (*_LATTICE, "--eigenfunctions"),
    "sums": (*_LATTICE, "--order", "--exact"),
    "casimir": (*_LATTICE, "--sweep"),
    "limit": ("--bc", "--nu", "--L", "--alpha", "--beta", "--tau", "--mass"),
    "chebyshev": (),
}


@functools.cache  # built on the first call to main, then shared by the process
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gylat", allow_abbrev=False,
        description="Determinants, spectra and vacuum energies of 1-d lattice operators")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, flags in _SUBCOMMANDS.items():
        # no abbreviations: with them an option that a subcommand lacks, such as
        # limit's --h, would resolve to another one (--help) instead of exiting 2
        p = sub.add_parser(name, allow_abbrev=False, **(
            {"help": "run the Chebyshev identity self-test"} if name == "chebyshev" else {}))
        for flag in (*flags, "--format"):
            p.add_argument(flag, **_OPTIONS[flag])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for name, value in vars(args).items():  # the numeric options, as argparse read them
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"--{name.replace('_', '-')} must be finite, got {value}")
        # looked up by name on every call: the shared parser holds no functions
        payload, code = globals()[f"cmd_{args.command}"](args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ArithmeticError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONSISTENCY
    emit(payload, args.format)
    return code


if __name__ == "__main__":
    sys.exit(main())

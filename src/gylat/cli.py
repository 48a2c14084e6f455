"""Command-line front end: determinants, spectra, sums, vacuum energies,
continuum sweeps.

Output is byte-deterministic for a fixed invocation: field order is fixed
(documented in docs/cli_schema.md, schema version 1) and floats are
rendered with 17 significant digits.  CSV output is the flattened JSON.

Exit codes: 0 ok, 2 configuration error, 3 numerical-consistency failure.
"""

from __future__ import annotations

import argparse
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
    LatticeSpec,
    LogDet,
    Potential,
    load_potential,
)
from .spectrum import cosecant_sum, inverse_power_sums, oracle_spectrum, robin_cosec_sum
from .transfer import char_poly, determinant, eigenfunctions
from .vacuum import _admissible_lattice, extract_constant, free_energy_closed, vacuum_energy

SCHEMA_VERSION = 1
CONSISTENCY_RTOL = 1e-8

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


def render_json(obj, indent: int = 0) -> str:
    """Schema-v1 JSON text: fixed field order, floats with 17 significant digits.

    A list or tuple whose items are all of type ``float`` (eigenvalue lists,
    eigenfunction rows) is rendered by one ``%`` format over the whole list;
    "%.17g" gives the bytes of :func:`_fmt_float` for every finite float, and
    a list holding NaN or an infinity falls back to it per item.  Subclasses
    such as numpy's float64 take the per-item path.
    """
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{pad}  "{k}": {render_json(v, indent + 1)}' for k, v in obj.items())
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if set(map(type, obj)) == {float}:
            text = ("[" + ", ".join(["%.17g"] * len(obj)) + "]") % tuple(obj)
            if "n" not in text:  # only "inf" and "nan" put an "n" in %g output
                return text
            return "[" + ", ".join(map(_fmt_float, obj)) + "]"
        items = ", ".join(render_json(v, indent + 1) for v in obj)
        return "[" + items + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, int):
        return str(obj)
    if obj is None:
        return "null"
    return json.dumps(str(obj))


def _flatten(obj, prefix: str = "", out: dict | None = None) -> dict:
    """Dotted-key flattening; list entries get integer indices."""
    if out is None:
        out = {}
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(v, f"{prefix}{k}.", out)
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _flatten(v, f"{prefix}{i}.", out)
    else:
        out[prefix[:-1]] = obj
    return out


def render_csv(obj) -> str:
    rows = obj if isinstance(obj, list) else [obj]
    flats = [_flatten(r) for r in rows]
    keys = list(dict.fromkeys(k for f in flats for k in f))

    def cell(v) -> str:
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, float):
            return _fmt_float(v)
        if v is None:
            return ""
        return str(v)

    lines = [",".join(keys)]
    for f in flats:
        lines.append(",".join(cell(f.get(k)) for k in keys))
    return "\n".join(lines)


def emit(payload, fmt: str) -> None:
    if fmt == "csv":
        print(render_csv(payload))
    else:
        print(render_json(payload))


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

_BC_NAMES = {
    "dirichlet": DIRICHLET,
    "neumann": NEUMANN,
    "robin": ROBIN,
    "periodic": PERIODIC,
    "twisted": TWISTED,
}


def _build_bc(args) -> BoundaryCondition:
    kind = _BC_NAMES.get(args.bc)
    if kind is None:
        raise ConfigError(f"unknown --bc {args.bc!r}")
    if kind == ROBIN:
        return BoundaryCondition(ROBIN, alpha=args.alpha, beta=args.beta)
    if kind == TWISTED:
        if not 0.0 < args.tau <= 1.0:
            raise ConfigError("--tau must lie in (0, 1]")
        return BoundaryCondition(TWISTED, tau=args.tau)
    return BoundaryCondition(kind)


def _build_spec(args, bc: BoundaryCondition) -> LatticeSpec:
    if args.nu is None or args.nu < 1:
        raise ConfigError("--nu must be a positive integer")
    h, L = args.h, args.L
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
    if args.mass:
        mu2 = (spec.h * args.mass) ** 2
        pot = Potential(tuple(v + mu2 for v in pot.values))
    return pot


def _mass(args, spec: LatticeSpec) -> MassParam:
    return MassParam.physical(args.mass, spec)


def _parse_sweep(text: str) -> tuple[str, float, float, int]:
    try:
        param, lo, hi, n = text.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError as exc:
        raise ConfigError(f"--sweep wants param:lo:hi:n, got {text!r}") from exc
    if n < 2 or lo <= 0 or hi <= lo:
        raise ConfigError("--sweep needs 0 < lo < hi and n >= 2")
    return param, lo, hi, n


def _geometric(lo: float, hi: float, n: int) -> list[float]:
    ratio = (hi / lo) ** (1.0 / (n - 1))
    return [lo * ratio ** k for k in range(n)]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_det(args) -> tuple[dict, int]:
    bc = _build_bc(args)
    spec = _build_spec(args, bc)
    pot = _build_potential(args, spec)
    # on the unit lattice (h = 1) a determinant is the dimensionless one
    unit = LatticeSpec(spec.nu, 1.0, float(spec.n_links), spec.topology)
    if args.prime:
        ld = determinant(pot, bc, spec, prime=True)
    else:
        dimless = determinant(pot, bc, unit)
        # determinant's own h^(-2 nu) step, so the physical fields keep their bits
        ld = LogDet(dimless.sign, dimless.log_abs - 2.0 * spec.nu * math.log(spec.h))
    nu_eff = spec.nu - ld.zero_modes_removed
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "det",
        "bc": args.bc,
        "nu": spec.nu,
        "h": spec.h,
        "L": spec.L,
        "sign": ld.sign,
        "log10_abs": ld.log10_abs if ld.sign != 0 else None,
        "dimensionless_det": (
            0.0 if ld.sign == 0
            else ld.scaled_value(2.0 * nu_eff * math.log(spec.h))),
        "zero_modes": ld.zero_modes_removed,
    }
    if ld.sign == 0 and not args.prime:
        payload["hint"] = "determinant vanishes (zero mode); rerun with --prime"
    code = EXIT_OK
    is_free_case = args.potential is None and args.delta_site is None
    if is_free_case:
        closed = free_determinant(bc, spec, _mass(args, spec), prime=args.prime)
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
            # nu = 1e5) would round away everything below 2^-31; --prime runs
            # the oracle, capped at nu 3000, where the physical log resolves ~1e-11
            log_t = ld.log_abs + 2.0 * nu_eff * math.log(spec.h) if args.prime else dimless.log_abs
            closed_dimless = free_determinant(bc, unit, _mass(args, spec), prime=args.prime)
            rel = abs(math.expm1(log_t - closed_dimless.log_abs))
            payload["closed_form_rel_diff"] = rel
            payload["closed_form_agreement"] = rel <= CONSISTENCY_RTOL
            if rel > CONSISTENCY_RTOL:
                code = EXIT_CONSISTENCY
    if args.exact and spec.nu <= 64 and bc.is_interval:
        poly = char_poly(pot, bc, exact=True)
        p0 = Fraction(poly.coeffs[0])
        lead = Fraction(poly.coeffs[-1])
        exact_det = (-1) ** poly.degree * p0 / lead
        payload["dimensionless_det_exact"] = f"{exact_det.numerator}/{exact_det.denominator}"
    return payload, code


def cmd_spectrum(args) -> tuple[dict, int]:
    bc = _build_bc(args)
    spec = _build_spec(args, bc)
    pot = _build_potential(args, spec)
    lam = oracle_spectrum(pot, bc, spec)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "spectrum",
        "bc": args.bc,
        "nu": spec.nu,
        "h": spec.h,
        "L": spec.L,
        "eigenvalues_dimensionless": list(lam.lambdas),
        "eigenvalues_physical": list(lam.physical),
    }
    if args.eigenfunctions:
        if not bc.is_interval:
            raise ConfigError("--eigenfunctions needs an interval boundary condition")
        table = eigenfunctions(pot, bc, lam)
        payload["eigenfunctions"] = table.tolist()
    return payload, EXIT_OK


def cmd_sums(args) -> tuple[dict, int]:
    bc = _build_bc(args)
    spec = _build_spec(args, bc)
    pot = _build_potential(args, spec)
    kmax = args.order if args.order else 4
    if not 1 <= kmax <= 4:
        raise ConfigError("--order must be 1..4 for sums")
    poly = char_poly(pot, bc, exact=args.exact)
    try:
        sums = inverse_power_sums(poly, kmax)
    except ZeroDivisionError as exc:
        raise ConfigError(str(exc)) from exc
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "sums",
        "bc": args.bc,
        "nu": spec.nu,
        "h": spec.h,
        "L": spec.L,
        "inverse_power_sums": [float(s) for s in sums],
    }
    code = EXIT_OK
    is_free = pot.is_free()
    if is_free and bc.kind == DIRICHLET:
        closed = 0.25 * cosecant_sum(spec.nu + 1, m=1)
        payload["closed_form_sum1"] = closed
        rel = abs(sums[0] - closed) / max(1.0, abs(closed))
        payload["closed_form_agreement"] = rel <= CONSISTENCY_RTOL
        if rel > CONSISTENCY_RTOL:
            code = EXIT_CONSISTENCY
    elif is_free and bc.kind == ROBIN:
        try:
            closed = 0.25 * robin_cosec_sum(spec.nu, args.alpha, args.beta)
        except ZeroDivisionError:
            closed = None
        if closed is not None:
            payload["closed_form_sum1"] = closed
            rel = abs(sums[0] - closed) / max(1.0, abs(closed))
            payload["closed_form_agreement"] = rel <= CONSISTENCY_RTOL
            if rel > CONSISTENCY_RTOL:
                code = EXIT_CONSISTENCY
    return payload, code


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


def cmd_casimir(args) -> tuple[dict | list, int]:
    bc = _build_bc(args)
    spec = _build_spec(args, bc)
    if args.potential is not None or args.delta_site is not None:
        pot = _build_potential(args, spec)
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": "casimir",
            "bc": args.bc,
            "nu": spec.nu,
            "h": spec.h,
            "energy": vacuum_energy(pot, bc, spec),
        }
        return payload, EXIT_OK
    if args.sweep:
        param, lo, hi, n = _parse_sweep(args.sweep)
        if param != "h":
            raise ConfigError("casimir sweeps run over h (use --sweep h:lo:hi:n)")
        hs = _geometric(lo, hi, n)
        tau = args.tau if bc.kind == TWISTED else None
        fit = extract_constant(bc, spec.L, hs, tau=tau)
        points = [_casimir_point(bc, _admissible_lattice(bc, spec.L, h)) for h in fit.h_values]
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": "casimir",
            "bc": args.bc,
            "L": spec.L,
            "sweep_points": points,
            "fit_coefficients": {str(k): v for k, v in fit.coefficients.items()},
            "fit_residual_norm": fit.residual_norm,
            "universal_constant": fit.constant,
        }
        return payload, EXIT_OK
    point = _casimir_point(bc, spec)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "casimir",
        "bc": args.bc,
        "L": spec.L,
        **point,
    }
    code = EXIT_OK if point["rel_diff"] <= 1e-10 else EXIT_CONSISTENCY
    return payload, code


def _limit_point(bc: BoundaryCondition, nu: int, L: float, mubar: float,
                 alphabar: float, betabar: float) -> tuple[float, float]:
    spec = (LatticeSpec.circle(nu, L=L) if bc.is_circle
            else LatticeSpec.interval(nu, L=L))
    mass = MassParam.physical(mubar, spec)
    prime = bc.kind in (NEUMANN, PERIODIC) and mubar == 0.0
    if prime:
        # zero-mode removal at continuum-sized nu goes through the closed
        # form (the oracle route is capped)
        ld = free_determinant(bc, spec, mass, prime=True)
    else:
        pot = (Potential.constant(spec.nu, mass.mu * mass.mu) if mubar
               else Potential.zeros(spec.nu))
        if bc.kind == ROBIN:
            bc_lattice = BoundaryCondition(ROBIN, alpha=alphabar * spec.h,
                                           beta=betabar * spec.h)
        else:
            bc_lattice = bc
        ld = determinant(pot, bc_lattice, spec)
    power = continuum_scaling_exponent(bc, spec.nu)
    return ld.scaled_value(power * math.log(spec.h)), spec.h


def cmd_limit(args) -> tuple[dict, int]:
    bc = _build_bc(args)
    if args.L is None:
        if bc.is_circle:
            args.L = 2.0 * math.pi
        else:
            raise ConfigError("limit needs --L (the physical size is held fixed)")
    if args.h is not None:
        raise ConfigError("limit is parametrised by --nu and --L, not --h")
    spec = _build_spec(args, bc)
    nu = spec.nu
    target = continuum_limit_targets(bc, args.mass, args.alpha, args.beta, spec.L)
    coarse_nu = max(2, nu // 2)
    fine_val, fine_h = _limit_point(bc, nu, spec.L, args.mass, args.alpha, args.beta)
    coarse_val, coarse_h = _limit_point(bc, coarse_nu, spec.L, args.mass, args.alpha, args.beta)
    fine_err = abs(fine_val - target)
    coarse_err = abs(coarse_val - target)
    order = None
    if fine_err > 0 and coarse_err > 0:
        order = math.log(coarse_err / fine_err) / math.log(coarse_h / fine_h)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "limit",
        "bc": args.bc,
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
    """Identity self-test on the polynomial calculus."""
    checks: dict[str, bool] = {}
    # Turan: U_{n-1}^2 - U_n U_{n-2} = 1, integer arguments, exact
    ok = True
    for x in range(-3, 4):
        for n in range(0, 31):
            um1, un = cheb.cheb_u_pair(n, x)
            unm2 = 2 * x * um1 - un
            if um1 * um1 - un * unm2 != 1:
                ok = False
    checks["turan"] = ok
    # Composition: U_{m+n} = U_m U_n - U_{m-1} U_{n-1}
    ok = True
    for x in range(-2, 3):
        for m in range(0, 13):
            for n in range(0, 13):
                if cheb.cheb_u(m + n, x) != (cheb.cheb_u(m, x) * cheb.cheb_u(n, x)
                                             - cheb.cheb_u(m - 1, x) * cheb.cheb_u(n - 1, x)):
                    ok = False
    checks["composition"] = ok
    # Product series with parity step 2
    ok = True
    for x in range(-2, 3):
        for m in range(0, 13):
            for n in range(0, 13):
                lhs = cheb.cheb_u(m, x) * cheb.cheb_u(n, x)
                rhs = sum(cheb.cheb_u(k, x) for k in range(abs(m - n), m + n + 1, 2))
                if lhs != rhs:
                    ok = False
    checks["product_series"] = ok
    # det C^n = 1
    checks["matrix_power_det"] = all(
        cheb.cheb_matrix_power(n, x).det() == 1 for x in range(-2, 3) for n in range(0, 31))
    # V_j - V_{j-1} = (2x - 2) U_{j-1} as polynomials
    ok = True
    for j in range(1, 31):
        lhs = cheb.cheb_v_poly(j) - cheb.cheb_v_poly(j - 1)
        rhs = cheb.CharPoly([0, -1], backend="exact") * cheb.cheb_u_poly(j - 1)
        if lhs != rhs:
            ok = False
    checks["neumann_difference"] = ok
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

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gylat",
        description="Determinants, spectra and vacuum energies of 1-d lattice operators")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, need_bc=True):
        if need_bc:
            p.add_argument("--bc", required=True,
                           choices=sorted(_BC_NAMES), help="boundary condition")
        p.add_argument("--nu", type=int, help="number of dynamical vertices")
        p.add_argument("--h", type=float, help="lattice spacing")
        p.add_argument("--L", type=float, help="total length")
        p.add_argument("--alpha", type=float, default=0.0, help="Robin parameter (left)")
        p.add_argument("--beta", type=float, default=0.0, help="Robin parameter (right)")
        p.add_argument("--tau", type=float, default=1.0, help="twist parameter in (0, 1]")
        p.add_argument("--mass", type=float, default=0.0, help="physical mass")
        p.add_argument("--potential", help="JSON potential file")
        p.add_argument("--delta-site", type=int, dest="delta_site",
                       help="single-site potential vertex (1-based)")
        p.add_argument("--delta-v", type=float, dest="delta_v",
                       help="single-site potential strength")
        p.add_argument("--prime", action="store_true",
                       help="remove zero modes from the determinant")
        p.add_argument("--order", type=int, help="series/sum order")
        p.add_argument("--sweep", help="parameter sweep, param:lo:hi:n (geometric)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--exact", action="store_true", help="exact-integer backend")
        p.add_argument("--eigenfunctions", action="store_true",
                       help="emit the eigenfunction table (spectrum)")

    for name, fn in (("det", cmd_det), ("spectrum", cmd_spectrum), ("sums", cmd_sums),
                     ("casimir", cmd_casimir), ("limit", cmd_limit)):
        p = sub.add_parser(name)
        common(p)
        p.set_defaults(fn=fn)
    p = sub.add_parser("chebyshev", help="run the Chebyshev identity self-test")
    common(p, need_bc=False)
    p.set_defaults(fn=cmd_chebyshev)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, code = args.fn(args)
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

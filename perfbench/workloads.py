"""Seeded job mixes for the three benchmark workloads, with their checks.

A workload is a list of templates.  Round r runs, in list order, every
template whose ``period`` divides r - ``phase``, ``count`` times each; the
runner completes whole rounds, so runs of equal length have the same job mix
and the same share of expected failures.

The k-th job of a template takes nu near the middle of one of STRATA equal
slices of log [lo, hi], jittered by up to a tenth of a slice; the slice is
bitrev((k + offset) mod STRATA), so any run of consecutive jobs covers the
range evenly (log-uniformly) and two seeds differ in size only by the jitter.
Everything else (potentials, boundary parameters, sites, masses) comes from a
numpy generator seeded with (seed, template index, k): the same seed gives
the same jobs and the same potential files.  A run's length is a number of
rounds (see ``Workload``), so the job mix does not depend on how fast the
machine is.

Each job is one user request: a ``gylat`` subcommand run in-process through
``gylat.cli.main`` with its output captured, or one public library call.  The
program sees only argv lists, potential JSON files and ``Potential`` objects.
Every result is checked outside the timed region against a route from
``refs`` that does not call the route it checks.

Templates with an ``expect`` pattern reproduce defects known at the
benchmark's introduction (see README.md).  Their jobs count as failures but
do not make the run incorrect, as long as the failure reason matches the
pattern; their checks still verify every part of the output that the defect
leaves valid, so a wrong value or an early exit gives another reason.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import gylat
import gylat.cli
import refs
from gylat import closedform

STRATA = 16
INTERVAL = ("dirichlet", "neumann", "robin")
CIRCLE = ("periodic", "twisted")


# ---------------------------------------------------------------------------
# Jobs and templates
# ---------------------------------------------------------------------------

@dataclass
class Job:
    id: int
    template: str
    label: str
    expect: str  # pattern of the known defect's failure reason, or ""
    run: Callable[[], object]
    check: Callable[[object], str | None]
    # input file -> function that makes its text; written once, before the
    # job first runs, so a big potential is not encoded again on every pass
    files: dict[Path, Callable[[], str]] = field(default_factory=dict)


@dataclass(frozen=True)
class Template:
    name: str
    build: Callable
    lo: int = 1
    hi: int = 1
    count: int = 1
    expect: str = ""
    period: int = 1
    phase: int = 0


@dataclass
class Ctx:
    """What a template's build function gets for its k-th job."""

    nu: int
    k: int
    rng: np.random.Generator
    workdir: Path
    job_id: int

    def path(self) -> Path:
        return self.workdir / f"job{self.job_id}-pot.json"


def _bitrev(x: int, bits: int) -> int:
    return int(format(x, f"0{bits}b")[::-1], 2)


def stratified_nu(lo: int, hi: int, k: int, offset: int, u: float) -> int:
    """nu for the k-th job; u in [0, 1) sets the jitter inside the slice."""
    if lo >= hi:
        return lo
    slot = _bitrev((k + offset) % STRATA, STRATA.bit_length() - 1)
    x = math.log(lo) + (slot + 0.4 + 0.2 * u) / STRATA * (math.log(hi) - math.log(lo))
    return min(hi, max(lo, round(math.exp(x))))


def rounds(templates: list[Template], seed: int, workdir: Path):
    """Yield the job lists of rounds 0, 1, ... for this seed."""
    r = job_id = 0
    while True:
        jobs = []
        for t_idx, t in enumerate(templates):
            if r % t.period != t.phase:
                continue
            for c in range(t.count):
                k = r // t.period * t.count + c
                rng = np.random.default_rng([seed % 2**64, t_idx, k])
                # A template's top slice comes at its t_idx-th job, so the
                # largest jobs of the first templates land in the first rounds.
                offset = (STRATA - 1 - t_idx) % STRATA
                nu = stratified_nu(t.lo, t.hi, k, offset, float(rng.random()))
                ctx = Ctx(nu, k, rng, workdir, job_id)
                label, run, check, files = t.build(ctx)
                jobs.append(Job(job_id, t.name, label, t.expect, run, check, files))
                job_id += 1
        yield jobs
        r += 1


# ---------------------------------------------------------------------------
# Running requests
# ---------------------------------------------------------------------------

@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str


def cli_job(argv: list[str]) -> Callable[[], CliResult]:
    def run() -> CliResult:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = gylat.cli.main(argv)
            except SystemExit as exc:  # argparse refusals
                code = exc.code if isinstance(exc.code, int) else 2
        return CliResult(code, out.getvalue(), err.getvalue())
    return run


def lib(name: str):
    """Public gylat function, looked up at call time so wrappers apply."""
    return getattr(gylat, name)


def _payload(out: CliResult) -> tuple[dict | None, str | None]:
    if out.code != 0:
        return None, f"exit {out.code}: {out.stderr.strip()[:160]}"
    return json.loads(out.stdout), None


def _csv_payload(out: CliResult) -> tuple[dict | None, str | None]:
    if out.code != 0:
        return None, f"exit {out.code}: {out.stderr.strip()[:160]}"
    header, row = out.stdout.rstrip("\n").split("\n")
    return dict(zip(header.split(","), row.split(","))), None


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Bc:
    kind: str
    alpha: float = 0.0
    beta: float = 0.0
    tau: float = 1.0

    @property
    def circle(self) -> bool:
        return self.kind in CIRCLE

    def argv(self) -> list[str]:
        out = ["--bc", self.kind]
        if self.kind == "robin":
            out += ["--alpha", repr(self.alpha), "--beta", repr(self.beta)]
        if self.kind == "twisted":
            out += ["--tau", repr(self.tau)]
        return out

    def obj(self):
        return gylat.BoundaryCondition(self.kind, alpha=self.alpha, beta=self.beta, tau=self.tau)


def pick_bc(kind: str, rng, dyadic: bool = False) -> Bc:
    """Boundary condition of this kind with seeded parameters.

    ``dyadic`` Robin parameters (1 or 3) keep 1/(1+alpha) exact in binary, so
    exact references stay in integer arithmetic.
    """
    if kind == "robin":
        if dyadic:
            a, b = (float(x) for x in rng.choice([1.0, 3.0], size=2))
        else:
            a, b = (float(x) for x in rng.uniform(0.2, 2.0, size=2))
        return Bc("robin", alpha=a, beta=b)
    if kind == "twisted":
        return Bc("twisted", tau=float(rng.uniform(0.05, 0.95)))
    return Bc(kind)


def lattice_h(nu: int, circle: bool, L: float = 1.0) -> float:
    """Spacing exactly as gylat.LatticeSpec derives it from L."""
    return float(L) / (nu if circle else nu + 1)


def physical_potential(ctx: Ctx, h: float, vmax_range=(20.0, 100.0)):
    """Random physical potential on [0, Vmax]; returns (v, maker of the file text).

    gylat converts v_j = h * h * vbar_j in that order, and so does this.
    """
    vmax = float(ctx.rng.uniform(*vmax_range))
    vbar = ctx.rng.uniform(0.0, vmax, ctx.nu)
    return h * h * vbar, lambda: json.dumps({"physical": vbar.tolist(), "h": h})


def int_values(ctx: Ctx, top: int = 3) -> list[int]:
    return [int(x) for x in ctx.rng.integers(0, top + 1, ctx.nu)]


def float_values(ctx: Ctx, top: float = 2.0) -> list[float]:
    return [float(x) for x in ctx.rng.uniform(0.0, top, ctx.nu)]


def potential(values):
    return gylat.Potential(tuple(values))


def spec_for(nu: int, circle: bool, L: float = 1.0):
    return gylat.LatticeSpec.circle(nu, L=L) if circle else gylat.LatticeSpec.interval(nu, L=L)


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------

def ref_logdet(v, bc: Bc) -> tuple[int, float]:
    """(sign, log|det|) of the dimensionless operator, by LAPACK."""
    if bc.circle:
        return refs.circle_logdet(v, bc.tau)
    return 1, refs.tridiagonal_logdet(refs.interval_diagonal(v, bc.kind, bc.alpha, bc.beta))


def ref_eigs(v, bc: Bc) -> np.ndarray:
    if bc.circle:
        return refs.circle_eigenvalues(v, bc.tau)
    return refs.interval_eigenvalues(v, bc.kind, bc.alpha, bc.beta)


def _logdet_mismatch(sign, log_abs, ref_sign, ref_log, nu) -> str | None:
    if sign != ref_sign:
        return f"sign {sign} != reference {ref_sign}"
    if ref_sign == 0:
        return None
    tol = refs.logdet_rtol(nu) + 4 * refs.EPS * abs(ref_log)
    if not abs(log_abs - ref_log) <= tol:
        return f"log|det| off by {abs(log_abs - ref_log):.3g} (tol {tol:.3g})"
    return None


def _check_det_payload(p: dict, v, bc: Bc, h: float) -> str | None:
    nu = len(v)
    sign, ref_log = ref_logdet(v, bc)
    if p["zero_modes"] != 0:
        return f"{p['zero_modes']} zero modes removed without --prime"
    dimless = p["dimensionless_det"]
    bad = _logdet_mismatch(p["sign"], math.log(abs(dimless)) if dimless else math.nan,
                           sign, ref_log, nu)
    if bad:
        return "dimensionless_det: " + bad
    physical = ref_log - 2.0 * nu * math.log(h)
    return _logdet_mismatch(p["sign"], p["log10_abs"] * math.log(10.0), sign, physical, nu)


def _eig_mismatch(got, ref) -> str | None:
    got = np.asarray(got, dtype=float)
    if got.shape != ref.shape:
        return f"{got.size} eigenvalues, reference has {ref.size}"
    err = float(np.max(np.abs(got - ref))) if ref.size else 0.0
    tol = 1e-10 * max(1.0, float(np.max(np.abs(ref))))
    if not err <= tol:
        return f"eigenvalues off by {err:.3g} (tol {tol:.3g})"
    return None


def _eigenfunction_mismatch(table: np.ndarray, lams: np.ndarray, d: np.ndarray) -> str | None:
    """Residual of T y = lambda y for every row, relative to the row's size."""
    if table.shape != (len(d), len(d)):
        return f"eigenfunction table has shape {table.shape}"
    ty = d * table
    ty[:, 1:] -= table[:, :-1]
    ty[:, :-1] -= table[:, 1:]
    res = np.max(np.abs(ty - lams[:, None] * table), axis=1)
    size = np.max(np.abs(table), axis=1)
    worst = float(np.max(res / size))
    if not worst <= 1e-9:
        return f"eigenfunction residual {worst:.3g}"
    return None


# ---------------------------------------------------------------------------
# gy-det: long scalar and circle GY sweeps
# ---------------------------------------------------------------------------

ALL_BC = INTERVAL + CIRCLE


def _cycle(kinds, ctx: Ctx, shift: int = 0) -> str:
    return kinds[(ctx.k + shift) % len(kinds)]


def det_file(ctx: Ctx, kinds=ALL_BC):
    """CLI det with a random physical potential file."""
    bc = pick_bc(_cycle(kinds, ctx), ctx.rng)
    h = lattice_h(ctx.nu, bc.circle)
    v, text = physical_potential(ctx, h)
    path = ctx.path()
    argv = ["det", *bc.argv(), "--nu", str(ctx.nu), "--L", "1", "--potential", str(path)]

    def check(out):
        p, bad = _payload(out)
        return bad or _check_det_payload(p, v, bc, h)
    return f"det {bc.kind} file nu={ctx.nu}", cli_job(argv), check, {path: text}


def det_delta(ctx: Ctx, kinds=ALL_BC):
    """CLI det with a single-site potential."""
    bc = pick_bc(_cycle(kinds, ctx, 1), ctx.rng)
    h = lattice_h(ctx.nu, bc.circle)
    site = int(ctx.rng.integers(1, ctx.nu + 1))
    strength = float(ctx.rng.uniform(0.5, 2.0))
    v = np.zeros(ctx.nu)
    v[site - 1] = strength
    argv = ["det", *bc.argv(), "--nu", str(ctx.nu), "--L", "1",
            "--delta-site", str(site), "--delta-v", repr(strength)]

    def check(out):
        p, bad = _payload(out)
        return bad or _check_det_payload(p, v, bc, h)
    return f"det {bc.kind} delta nu={ctx.nu}", cli_job(argv), check, {}


def det_mass(ctx: Ctx, kinds=("dirichlet", "robin", "periodic", "twisted"), mass=(2.0, 6.0)):
    """CLI det with a constant mass; the CLI exits 3 if its closed form disagrees.

    On exit 3 the payload is still printed, and its sweep is checked too.
    """
    bc = pick_bc(_cycle(kinds, ctx, 2), ctx.rng)
    h = lattice_h(ctx.nu, bc.circle)
    m = float(ctx.rng.uniform(*mass))
    v = np.full(ctx.nu, (h * m) ** 2)
    argv = ["det", *bc.argv(), "--nu", str(ctx.nu), "--L", "1", "--mass", repr(m)]

    def check(out):
        if out.code == 3 and out.stdout:
            p = json.loads(out.stdout)
            bad = _check_det_payload(p, v, bc, h)
            if bad or p["closed_form_agreement"] is not False:
                return f"exit 3: {bad or 'closed form agrees'}"
            return f"exit 3: sweep right, closed form off by {p['closed_form_rel_diff']:.3g}"
        p, bad = _payload(out)
        return bad or _check_det_payload(p, v, bc, h)
    return f"det {bc.kind} mass nu={ctx.nu}", cli_job(argv), check, {}


def det_dimensionless(ctx: Ctx):
    """CLI det with an O(1) dimensionless potential file (a plain JSON array)."""
    bc = pick_bc(_cycle(ALL_BC, ctx, 3), ctx.rng)
    h = lattice_h(ctx.nu, bc.circle)
    v = ctx.rng.uniform(0.5, 2.0, ctx.nu)
    path = ctx.path()
    argv = ["det", *bc.argv(), "--nu", str(ctx.nu), "--L", "1", "--potential", str(path)]

    def check(out):
        p, bad = _payload(out)
        if bad:
            return bad
        sign, ref_log = ref_logdet(v, bc)
        return _logdet_mismatch(p["sign"], p["log10_abs"] * math.log(10.0), sign,
                                ref_log - 2.0 * ctx.nu * math.log(h), ctx.nu)
    return (f"det {bc.kind} dimensionless nu={ctx.nu}", cli_job(argv), check,
            {path: lambda: json.dumps(v.tolist())})


def limit(ctx: Ctx):
    """CLI limit with a mass: two sweeps (nu and nu/2) against the closed forms."""
    bc = pick_bc(_cycle(ALL_BC, ctx, 4), ctx.rng)
    m = float(ctx.rng.uniform(1.0, 4.0))
    ab, bb = (float(x) for x in ctx.rng.uniform(0.5, 2.0, size=2))
    argv = ["limit", "--bc", bc.kind, "--nu", str(ctx.nu), "--L", "1", "--mass", repr(m)]
    if bc.kind == "robin":
        argv += ["--alpha", repr(ab), "--beta", repr(bb)]
    if bc.kind == "twisted":
        argv += ["--tau", repr(bc.tau)]

    def closed(nu):
        spec = spec_for(nu, bc.circle)
        kind = gylat.BoundaryCondition(bc.kind, alpha=ab * spec.h, beta=bb * spec.h, tau=bc.tau)
        ld = closedform.free_determinant(kind, spec, closedform.MassParam.physical(m, spec))
        power = closedform.continuum_scaling_exponent(kind, nu)
        return ld.sign, ld.log_abs + power * math.log(spec.h)

    def check(out):
        p, bad = _payload(out)
        if bad:
            return bad
        for key, nu in (("scaled_det", ctx.nu), ("coarse_scaled_det", p["coarse_nu"])):
            sign, ref_log = closed(nu)
            got = p[key]
            bad = _logdet_mismatch(int(math.copysign(1, got)) if got else 0,
                                   math.log(abs(got)) if got else math.nan, sign, ref_log, nu)
            if bad:
                return f"{key}: {bad}"
        return None
    return f"limit {bc.kind} nu={ctx.nu}", cli_job(argv), check, {}


def lib_det(ctx: Ctx, mass: bool = False):
    """Library determinant on a Potential object (random, or constant mass)."""
    bc = pick_bc(_cycle(ALL_BC, ctx, 5 if mass else 6), ctx.rng)
    h = lattice_h(ctx.nu, bc.circle)
    if mass:
        m = float(ctx.rng.uniform(1.0, 6.0))
        pot = potential([(h * m) ** 2] * ctx.nu)
    else:
        v, _ = physical_potential(ctx, h)
        pot = potential(v.tolist())
    v = np.asarray(pot.values, dtype=float)
    spec, bco = spec_for(ctx.nu, bc.circle), bc.obj()

    def check(ld):
        sign, ref_log = ref_logdet(v, bc)
        return _logdet_mismatch(ld.sign, ld.log_abs + 2.0 * ctx.nu * math.log(h),
                                sign, ref_log, ctx.nu)
    kind = "mass" if mass else "random"
    return (f"determinant {bc.kind} {kind} nu={ctx.nu}",
            lambda: lib("determinant")(pot, bco, spec), check, {})


# ---------------------------------------------------------------------------
# spectral: oracle, eigenfunctions, rendering
# ---------------------------------------------------------------------------

def spectrum_interval(ctx: Ctx, eigenfunctions: bool = False, fmt: str = "json"):
    """CLI spectrum on the interval; optionally with the eigenfunction table."""
    bc = pick_bc(_cycle(INTERVAL, ctx), ctx.rng)
    h = lattice_h(ctx.nu, False)
    v, text = physical_potential(ctx, h)
    path = ctx.path()
    argv = ["spectrum", *bc.argv(), "--nu", str(ctx.nu), "--L", "1", "--potential", str(path)]
    if eigenfunctions:
        argv.append("--eigenfunctions")
    if fmt == "csv":
        argv += ["--format", "csv"]

    def check(out):
        nu = ctx.nu
        if fmt == "csv":
            row, bad = _csv_payload(out)
            if bad:
                return bad
            lams = np.array([float(row[f"eigenvalues_dimensionless.{i}"]) for i in range(nu)])
            phys = np.array([float(row[f"eigenvalues_physical.{i}"]) for i in range(nu)])
            table = None
            if eigenfunctions:
                table = np.array([[float(row[f"eigenfunctions.{n}.{j}"]) for j in range(nu)]
                                  for n in range(nu)])
        else:
            p, bad = _payload(out)
            if bad:
                return bad
            lams = np.array(p["eigenvalues_dimensionless"])
            phys = np.array(p["eigenvalues_physical"])
            table = np.array(p["eigenfunctions"]) if eigenfunctions else None
        bad = _eig_mismatch(lams, ref_eigs(v, bc))
        if bad:
            return bad
        if not np.allclose(phys, lams / (h * h), rtol=1e-12, atol=0.0):
            return "physical eigenvalues are not lambda / h^2"
        if table is not None:
            d = refs.interval_diagonal(v, bc.kind, bc.alpha, bc.beta)
            return _eigenfunction_mismatch(table, lams, d)
        return None
    what = "eigenfunctions " + fmt if eigenfunctions else "spectrum"
    return f"{what} {bc.kind} nu={ctx.nu}", cli_job(argv), check, {path: text}


def spectrum_circle(ctx: Ctx, kind: str = "periodic"):
    """CLI spectrum on the circle (dense oracle); twisted jobs alternate free and file."""
    bc = pick_bc(kind, ctx.rng)
    h = lattice_h(ctx.nu, True)
    argv = ["spectrum", *bc.argv(), "--nu", str(ctx.nu), "--L", "1"]
    files = {}
    if kind == "periodic" or ctx.k % 2:
        v, text = physical_potential(ctx, h)
        path = ctx.path()
        files[path] = text
        argv += ["--potential", str(path)]
    else:
        v = np.zeros(ctx.nu)

    def check(out):
        p, bad = _payload(out)
        return bad or _eig_mismatch(p["eigenvalues_dimensionless"], ref_eigs(v, bc))
    return f"spectrum {bc.kind} nu={ctx.nu}", cli_job(argv), check, files


PRIME_CASES = (("neumann", False), ("periodic", False), ("dirichlet", True), ("robin", True),
               ("twisted", True), ("neumann", True), ("periodic", True), ("dirichlet", False))


def det_prime(ctx: Ctx):
    """CLI det --prime: zero modes removed through the eigenvalue oracle."""
    kind, with_pot = PRIME_CASES[ctx.k % len(PRIME_CASES)]
    bc = pick_bc(kind, ctx.rng)
    h = lattice_h(ctx.nu, bc.circle)
    argv = ["det", *bc.argv(), "--nu", str(ctx.nu), "--L", "1", "--prime"]
    files = {}
    v = np.zeros(ctx.nu)
    if with_pot:
        v, text = physical_potential(ctx, h)
        path = ctx.path()
        files[path] = text
        argv += ["--potential", str(path)]

    def check(out):
        p, bad = _payload(out)
        if bad:
            return bad
        lams = ref_eigs(v, bc)
        keep = lams[np.abs(lams) > 1e-10 * np.max(np.abs(lams))]
        removed = ctx.nu - keep.size
        if p["zero_modes"] != removed:
            return f"{p['zero_modes']} zero modes removed, reference finds {removed}"
        sign = -1 if np.count_nonzero(keep < 0) % 2 else 1
        dimless = p["dimensionless_det"]
        return _logdet_mismatch(p["sign"], math.log(abs(dimless)), sign,
                                float(np.sum(np.log(np.abs(keep)))), ctx.nu)
    label = f"det --prime {bc.kind} {'file' if with_pot else 'free'} nu={ctx.nu}"
    return label, cli_job(argv), check, files


def casimir_potential(ctx: Ctx, kinds=("dirichlet", "neumann", "periodic", "twisted")):
    """CLI casimir with a potential: mode sum over the oracle spectrum."""
    bc = pick_bc(_cycle(kinds, ctx), ctx.rng)
    h = lattice_h(ctx.nu, bc.circle)
    v, text = physical_potential(ctx, h)
    path = ctx.path()
    argv = ["casimir", *bc.argv(), "--nu", str(ctx.nu), "--L", "1", "--potential", str(path)]

    def check(out):
        p, bad = _payload(out)
        if bad:
            return bad
        weight = 1.0 if bc.kind == "twisted" else 0.5
        ref = weight * math.fsum(np.sqrt(np.maximum(ref_eigs(v, bc), 0.0) / (h * h)))
        if not refs.rel_close(p["energy"], ref, 1e-10):
            return f"energy {p['energy']!r} != reference {ref!r}"
        return None
    return f"casimir {bc.kind} nu={ctx.nu}", cli_job(argv), check, {path: text}


# ---------------------------------------------------------------------------
# poly-exact: many short sweeps with polynomial and big-number carriers
# ---------------------------------------------------------------------------

def sums(ctx: Ctx, free: bool = False):
    """CLI sums (Euler-Rayleigh sums k = 1..4); --exact on every other job."""
    exact = bool(ctx.k % 2)
    # The condition changes every second job, so both backends meet both.
    bc = Bc("dirichlet") if free else pick_bc(_cycle(("dirichlet", "robin"), ctx, ctx.k // 2),
                                              ctx.rng)
    argv = ["sums", *bc.argv(), "--nu", str(ctx.nu), "--h", "1"]
    files = {}
    v = np.zeros(ctx.nu)
    if not free:
        values = int_values(ctx) if ctx.k % 4 < 2 else float_values(ctx)
        v = np.asarray(values, dtype=float)
        path = ctx.path()
        files[path] = functools.partial(json.dumps, values)
        argv += ["--potential", str(path)]
    if exact:
        argv.append("--exact")

    def check(out):
        p, bad = _payload(out)
        if bad:
            return bad
        lams = ref_eigs(v, bc)
        for k, got in enumerate(p["inverse_power_sums"], start=1):
            ref = math.fsum(lams ** -k)
            if not refs.rel_close(got, ref, 1e-8):
                return f"sum of lambda^-{k}: {got!r} != reference {ref!r}"
        return None
    label = f"sums {bc.kind} {'free' if free else 'file'}{' exact' if exact else ''} nu={ctx.nu}"
    return label, cli_job(argv), check, files


EXACT_DET_CASES = tuple((k, p) for p in ("int", "float", "free") for k in ALL_BC
                        if (k, p) not in (("periodic", "free"),))


def det_exact(ctx: Ctx):
    """CLI det --exact: exact rational determinant on the interval."""
    kind, pot = EXACT_DET_CASES[ctx.k % len(EXACT_DET_CASES)]
    bc = pick_bc(kind, ctx.rng, dyadic=True)
    argv = ["det", *bc.argv(), "--nu", str(ctx.nu), "--h", "1", "--exact"]
    files = {}
    values = [0] * ctx.nu
    if pot != "free":
        values = int_values(ctx) if pot == "int" else float_values(ctx)
        path = ctx.path()
        files[path] = functools.partial(json.dumps, values)
        argv += ["--potential", str(path)]
    v = [float(x) for x in values]  # the CLI reads every entry as a float

    def check(out):
        p, bad = _payload(out)
        if bad:
            return bad
        if bc.circle:
            sign, ref_log = ref_logdet(np.asarray(v), bc)
            return _logdet_mismatch(p["sign"], math.log(abs(p["dimensionless_det"])),
                                    sign, ref_log, ctx.nu)
        exact = refs.exact_interval_det(v, bc.kind, bc.alpha, bc.beta)
        got = p.get("dimensionless_det_exact")
        if got != f"{exact.numerator}/{exact.denominator}":
            return f"exact det {got} != reference {exact}"
        sign = (exact > 0) - (exact < 0)
        if sign == 0:
            return None if p["sign"] == 0 else f"sign {p['sign']} for a singular operator"
        return _logdet_mismatch(p["sign"], math.log(abs(p["dimensionless_det"])), sign,
                                math.log(abs(exact)), ctx.nu)
    return f"det --exact {kind} {pot} nu={ctx.nu}", cli_job(argv), check, files


CHEBYSHEV_CHECKS = ("turan", "composition", "product_series", "matrix_power_det",
                    "neumann_difference")


def chebyshev(ctx: Ctx):
    """CLI chebyshev identity self-test; its own checks are the reference."""
    def check(out):
        p, bad = _payload(out)
        if bad:
            return bad
        if tuple(p["checks"]) != CHEBYSHEV_CHECKS or not all(p["checks"].values()):
            return f"identity checks {p['checks']}"
        return None
    return "chebyshev", cli_job(["chebyshev"]), check, {}


def _leading_scale(bc: Bc) -> float:
    return (1.0 + bc.alpha) * (1.0 + bc.beta) if bc.kind == "robin" else 1.0


def char_poly_float(ctx: Ctx):
    """Library char_poly, float backend, float potential."""
    bc = pick_bc(_cycle(("dirichlet", "neumann", "robin", "periodic"), ctx), ctx.rng)
    values = float_values(ctx)
    pot, bco = potential(values), bc.obj()

    def check(poly):
        lams = ref_eigs(np.asarray(values), bc)
        ref = refs.poly_from_roots(lams, (-1) ** ctx.nu * _leading_scale(bc))
        got, d = np.asarray(poly.coeffs, dtype=float), poly.degree
        if d < ctx.nu:
            # Trimmed leading coefficients: the kept ones must still be right
            # to 1e-9 of the largest, and the dropped ones must be tiny.
            scale = float(np.max(np.abs(ref)))
            kept = float(np.max(np.abs(got - ref[:d + 1]))) / scale
            dropped = float(np.max(np.abs(ref[d + 1:]))) / scale
            if kept <= 1e-9 and dropped <= 1e-10:
                return (f"degree {d} < nu = {ctx.nu}: coefficients below 1e-10 of the "
                        "largest dropped")
            return f"degree {d} < nu = {ctx.nu}, kept off by {kept:.3g}, dropped {dropped:.3g}"
        if d != ctx.nu:
            return f"degree {d} != nu = {ctx.nu}"
        err = float(np.max(np.abs(got - ref) / np.abs(ref)))
        return None if err <= 1e-9 else f"coefficients off by {err:.3g} relative"
    return (f"char_poly float {bc.kind} nu={ctx.nu}",
            lambda: lib("char_poly")(pot, bco), check, {})


def char_poly_exact(ctx: Ctx, floats: bool = False):
    """Library char_poly, exact backend; float potentials are Fraction-lifted."""
    bc = pick_bc(_cycle(INTERVAL, ctx), ctx.rng, dyadic=True)
    values = float_values(ctx) if floats else int_values(ctx)
    pot, bco = potential(values), bc.obj()

    def check(poly):
        if poly.backend != "exact":
            return f"backend {poly.backend}"
        if not refs.poly_matches_interval(poly.coeffs, values, bc.kind, bc.alpha, bc.beta):
            return "coefficients differ from (1+a)(1+b) det(T - x)"
        return None
    kind = "float" if floats else "int"
    return (f"char_poly exact {bc.kind} {kind} nu={ctx.nu}",
            lambda: lib("char_poly")(pot, bco, exact=True), check, {})


def poly_roots(ctx: Ctx, free_or_int: bool = False):
    """Library poly_roots of the exact char poly, against the interval eigenvalues."""
    bc = pick_bc(_cycle(INTERVAL, ctx), ctx.rng, dyadic=True)
    if free_or_int:
        values = [0] * ctx.nu if ctx.k % 2 == 0 else int_values(ctx)
    else:
        values = int_values(ctx) if ctx.k % 2 == 0 else float_values(ctx)
    pot, bco = potential(values), bc.obj()

    def run():
        return lib("poly_roots")(lib("char_poly")(pot, bco, exact=True))

    def check(spectrum):
        got = np.asarray(spectrum.lambdas)
        ref = ref_eigs(np.asarray(values, dtype=float), bc)
        if got.shape != ref.shape:
            return f"{got.size} roots, reference has {ref.size}"
        err = float(np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))))
        return None if err <= 1e-9 else f"roots off by {err:.3g}"
    return f"poly_roots {bc.kind} nu={ctx.nu}", run, check, {}


def trace_series(ctx: Ctx):
    """Library perturbation series of the char poly at full order, exact."""
    kind = ("dirichlet", "neumann")[ctx.k % 2]
    values = int_values(ctx)
    pot = potential(values)
    name = f"{kind}_trace_series"

    def check(poly):
        if not refs.poly_matches_interval(poly.coeffs, values, kind):
            return "series differs from det(T - x)"
        return None
    return f"{name} nu={ctx.nu}", lambda: lib(name)(pot), check, {}


def det_series(ctx: Ctx):
    """Library determinant series; integer potentials stay exact."""
    kind = ("dirichlet", "neumann")[ctx.k % 2]
    values = int_values(ctx) if ctx.k % 4 < 2 else float_values(ctx)
    pot = potential(values)
    name = f"{kind}_det_series"

    def check(got):
        exact = refs.exact_interval_det(values, kind)
        ok = refs.rel_close(got, float(exact), 1e-9) if isinstance(got, float) else got == exact
        return None if ok else f"{got!r} != reference {exact}"
    return f"{name} nu={ctx.nu}", lambda: lib(name)(pot), check, {}


def det_degenerate_robin(ctx: Ctx):
    """Library determinant with alpha or beta = -1, which takes the polynomial route.

    The degenerate end pins y = 0 on its first interior site, so the reference
    is the determinant of the remaining nu - 1 sites.  gylat scales the result
    by h^(-2 nu) (see transfer.determinant).
    """
    left = ctx.k % 2 == 0
    other = float(ctx.rng.uniform(0.5, 2.0))
    bc = Bc("robin", alpha=-1.0, beta=other) if left else Bc("robin", alpha=other, beta=-1.0)
    v = np.asarray(float_values(ctx, top=0.5))
    pot, bco, spec = potential(v.tolist()), bc.obj(), spec_for(ctx.nu, False)
    h = spec.h

    def check(ld):
        d = 2.0 + (v[1:] if left else v[:-1])
        if left:
            d[-1] -= 1.0 / (1.0 + other)
        else:
            d[0] -= 1.0 / (1.0 + other)
        return _logdet_mismatch(ld.sign, ld.log_abs + 2.0 * ctx.nu * math.log(h), 1,
                                refs.tridiagonal_logdet(d), ctx.nu)
    side = "left" if left else "right"
    return (f"determinant robin degenerate {side} nu={ctx.nu}",
            lambda: lib("determinant")(pot, bco, spec), check, {})


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

P = functools.partial

BIG = (1000, 200_000)


@dataclass(frozen=True)
class Workload:
    """A job mix and how a run measures it.

    ``round_s`` is the mean wall time of one round on a shared 2-core x86
    virtual machine (Python 3.11, numpy 2.4) when the benchmark was
    introduced; a run of S seconds has ceil(S / (passes * round_s)) rounds
    per pass, whatever the machine's speed.  ``passes`` runs of the same jobs
    give each job's latency as the fastest of its executions.  Spectral has
    two: its rounds take seconds, and a third pass made its runs 40% longer
    without making them steadier.
    """

    templates: list
    round_s: float
    passes: int


WORKLOADS: dict[str, Workload] = {
    "gy-det": Workload(round_s=1.25, passes=5, templates=[
        Template("det-file", det_file, *BIG, count=2),
        Template("det-delta", det_delta, *BIG, count=2),
        Template("det-mass", det_mass, *BIG, count=2),
        Template("limit", limit, *BIG, count=2),
        Template("lib-det", lib_det, *BIG, count=2),
        Template("lib-det-mass", P(lib_det, mass=True), *BIG, count=2),
        # Known defects (README.md): the CLI's fixed 1e-8 closed-form check
        # rejects massive Neumann sweeps at these sizes, and O(1)
        # dimensionless potentials overflow the printed dimensionless_det.
        Template("det-mass-neumann", P(det_mass, kinds=("neumann",), mass=(0.5, 1.0)),
                 100_000, 200_000, expect=r"^exit 3: sweep right, closed form off by "),
        Template("det-dimensionless", det_dimensionless, *BIG,
                 expect=r"^exit 3: error: math range error$"),
    ]),
    "spectral": Workload(round_s=3.3, passes=2, templates=[
        # One of the three heavy kinds per round, in turn.
        Template("spectrum-interval", spectrum_interval, 200, 3000, period=3),
        Template("eigenfunctions-json", P(spectrum_interval, eigenfunctions=True), 100, 1000,
                 period=3, phase=1),
        Template("eigenfunctions-csv", P(spectrum_interval, eigenfunctions=True, fmt="csv"),
                 50, 150, period=3, phase=2),
        Template("spectrum-periodic", P(spectrum_circle, kind="periodic"), 100, 800, count=3),
        Template("spectrum-twisted", P(spectrum_circle, kind="twisted"), 100, 800, count=3),
        Template("det-prime", det_prime, 100, 800, count=4),
        Template("casimir", casimir_potential, 100, 800, count=4),
    ]),
    "poly-exact": Workload(round_s=0.34, passes=7, templates=[
        Template("sums-free", P(sums, free=True), 5, 39),
        Template("sums-file", sums, 5, 60),
        Template("det-exact", det_exact, 4, 64),
        Template("chebyshev", chebyshev),
        Template("char-poly-float", char_poly_float, 8, 18),
        Template("char-poly-exact-int", char_poly_exact, 10, 200),
        Template("char-poly-exact-float", P(char_poly_exact, floats=True), 10, 100),
        Template("poly-roots", poly_roots, 6, 8),
        Template("trace-series", trace_series, 5, 30),
        Template("det-series", det_series, 5, 100),
        Template("det-degenerate-robin", det_degenerate_robin, 6, 18),
        # Open item 1: polynomial routes that break at these sizes today.
        # The passing templates above stop where no failure showed in 200+
        # seeded jobs; sizes in between fail for some potentials only.
        Template("sums-free-large", P(sums, free=True), 40, 60,
                 expect=r"^exit 2: error: p\(0\) = 0: the operator has a zero mode"),
        Template("poly-roots-large", P(poly_roots, free_or_int=True), 16, 24,
                 expect=r"^roots off by |^raised ArithmeticError: found \d+ real roots "
                        r"for a degree-\d+ polynomial"),
        Template("char-poly-float-large", char_poly_float, 32, 400,
                 expect=r"^degree \d+ < nu = \d+: coefficients below 1e-10 of the largest "
                        r"dropped$"),
        Template("det-degenerate-robin-large", det_degenerate_robin, 36, 400,
                 expect=r"^log\|det\| off by "),
    ]),
}

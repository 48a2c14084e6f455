"""``determinant`` against the dense matrix at the sizes users run.

The GY sweep's determinant at h = 1 must agree with ``np.linalg.slogdet`` of the
operator's dense matrix, built by ``tridiagonal_matrix`` or ``cyclic_matrix``,
which share no code with the sweep: the same sign, and log|Det| within a
first-order rounding bound from the dense matrix's eigenpairs.  Both routes are
backward stable to a few roundings in each row, a perturbation dT with |dT| <=
c eps (max|d| + 2), which moves log|det| by |tr(T^-1 dT)| <= |dT| sum_k
1/|lambda_k| to first order; slogdet's sum of nu logs, whose partial sums reach
|log|det|| = L, adds nu eps (1 + L) more.  The sweep
carries a Robin parameter p itself where the matrix carries 1/(1 + p), and a
rounding of p (relative eps) moves that end's diagonal entry by eps |p| / (1 +
p)^2, so log|det| by that times |T^-1| at the end, sum_k q_k(end)^2 / |lambda_k|.

The same dense matrix checks three more routes through ``np.linalg.eigvalsh``: the
interval eigenvalue oracle, the Casimir contour of ``vacuum_energy``, and
``determinant(prime=True)`` on operators built with an exact zero mode.  The sums
(the root sum, log|Det'|) are bounded as above, with a few roundings in each row;
single eigenvalues by eigvalsh's p(n) eps |T|, p(n) = n (LAPACK Users' Guide,
section 4.7): against bisection to full accuracy its error grows like 1.4 sqrt(nu)
eps |T| at nu 300-3000.
"""

import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gylat import (
    LatticeSpec,
    Potential,
    determinant,
    dirichlet,
    free_determinant,
    neumann,
    periodic,
    robin,
    twisted,
    vacuum_energy,
)
from gylat.cli import main
from gylat.spectrum import cyclic_matrix, oracle_spectrum, tridiagonal_matrix
from gylat.vacuum import _CONTOUR_STEP, _CONTOUR_TAIL
from test_closedform import spec_for

EPS = 2.0 ** -52

# Robin ends: ordinary ones and tall ones at -1 +- 10^-k, never exactly -1
ROBIN_ENDS = [0.3, 2.5] + [-1.0 + s * 10.0 ** -k for k in range(3, 10) for s in (1, -1)]


def dense(pot, bc):
    if bc.is_circle:
        return cyclic_matrix(pot, bc)
    d, e = tridiagonal_matrix(pot, bc)
    return np.diag(d) + np.diag(e, 1) + np.diag(e, -1)


def rounding_bound(matrix, bc, log_abs: float) -> float:
    """8 nu eps (1 + L) + 8 eps sum_k ((max|d| + 2) + sum_ends |p| q_k(end)^2 / (1 + p)^2) / |lambda_k|,
    over the eigenpairs (lambda_k, q_k) of the dense matrix."""
    lams, vecs = np.linalg.eigh(matrix)
    weight = float(np.max(np.abs(np.diag(matrix)))) + 2.0
    if bc.kind == "robin":
        for end, p in ((0, bc.alpha), (-1, bc.beta)):
            weight = weight + abs(p) / (1.0 + p) ** 2 * np.abs(vecs[end]) ** 2
    return 8 * len(lams) * EPS * (1.0 + abs(log_abs)) + 8 * EPS * float(np.sum(weight / np.abs(lams)))


@st.composite
def cases(draw):
    nu = draw(st.one_of(st.integers(1, 12), st.integers(1, 300)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = draw(st.sampled_from(["uniform", "well", "plateau"]))
    if shape == "uniform":  # O(1)
        values = rng.uniform(-1.0, 2.0, nu)
    elif shape == "well":  # deep wells: many bound states, most sites far from weight 2
        values = rng.uniform(-50.0, 5.0, nu)
    else:  # a plateau of one level on a stretch of sites, another elsewhere
        lo, hi = sorted(rng.integers(0, nu + 1, 2))
        values = np.full(nu, rng.uniform(-1.0, 3.0))
        values[lo:hi] = rng.uniform(-3.0, 3.0)
    kind = draw(st.sampled_from(["dirichlet", "neumann", "robin", "periodic", "twisted"]))
    if kind == "robin":
        bc = robin(draw(st.sampled_from(ROBIN_ENDS)), draw(st.sampled_from(ROBIN_ENDS)))
    elif kind == "twisted":
        offset = draw(st.one_of(st.sampled_from([0.0, 0.5]), st.floats(1e-3, 0.5)))
        bc = twisted(draw(st.sampled_from([1.0 - offset, offset])) or 1.0)
    else:
        bc = {"dirichlet": dirichlet(), "neumann": neumann(), "periodic": periodic()}[kind]
    return Potential(values), bc


class TestDeterminantAgainstDenseMatrix:
    @settings(max_examples=150)
    @given(case=cases())
    def test_sign_and_log_abs(self, case):
        pot, bc = case
        matrix = dense(pot, bc)
        sign, log_abs = np.linalg.slogdet(matrix)
        ld = determinant(pot, bc, spec_for(bc, pot.nu))
        bound = rounding_bound(matrix, bc, log_abs)
        assert ld.sign == np.sign(sign.real) or bound >= 1.0  # past 1, no digit is certain
        assert abs(ld.log_abs - log_abs) <= bound


def gershgorin(matrix) -> float:
    """max|d| + 2, a bound on |T| for the interval matrix, whose couplings are -1."""
    return float(np.max(np.abs(np.diag(matrix)))) + 2.0


@st.composite
def interval_cases(draw, max_nu: int, positive: bool = False):
    """An interval potential and condition; with ``positive``, v >= 0 and Robin p >= 0, so
    that the operator is positive definite."""
    nu = draw(st.one_of(st.integers(1, 40), st.integers(1, max_nu),
                        st.integers(max_nu // 2, max_nu)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = draw(st.sampled_from(["uniform", "well", "sparse"]))
    if shape == "uniform":
        values = rng.uniform(0.0 if positive else -1.0, 2.0, nu)
    elif shape == "well":  # tall barriers, or deep wells with many bound states
        values = rng.uniform(0.0, 50.0, nu) if positive else rng.uniform(-50.0, 5.0, nu)
    else:  # a few tall sites, at least one, on a free background
        values = np.where(rng.random(nu) < 0.05, rng.uniform(0.0, 1e3, nu), 0.0)
        values[rng.integers(nu)] = 1.0
    ends = [0.3, 2.5] if positive else ROBIN_ENDS
    bc = draw(st.sampled_from([dirichlet(), neumann(), None]))
    if bc is None:
        bc = robin(draw(st.sampled_from(ends)), draw(st.sampled_from(ends)))
    return Potential(values), bc


@st.composite
def zero_mode_cases(draw):
    """A potential whose operator has the exact zero mode y_j = 2^(k_j), k_j in -3..3:
    v_j = (y_(j+1) + y_(j-1)) / y_j - 2, with y_0 and y_(nu+1) from the condition, a
    dyadic rational that is exact in float."""
    nu = draw(st.integers(10, 1500))
    y = np.ldexp(1.0, np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).integers(-3, 4, nu))
    bc = draw(st.sampled_from([dirichlet(), neumann()]))
    ends = (y[0], y[-1]) if bc.kind == "neumann" else (0.0, 0.0)
    padded = np.concatenate([ends[:1], y, ends[1:]])
    return Potential((padded[2:] + padded[:-2]) / y - 2.0), bc, y


class TestSpectralRoutesAgainstEigvalsh:
    @settings(max_examples=8)
    @given(case=interval_cases(3000))
    def test_oracle_spectrum(self, case):
        pot, bc = case
        matrix = dense(pot, bc)
        got = np.array(oracle_spectrum(pot, bc).lambdas)
        # eigvalsh's p(n) eps |T| and the oracle's few roundings a row, |T| <= max|d| + 2;
        # the oracle's brackets end 1e-14 wide, or an ulp wide above 64
        bound = 1e-14 + (pot.nu + 8) * EPS * gershgorin(matrix)
        assert np.max(np.abs(got - np.linalg.eigvalsh(matrix))) <= bound

    @settings(max_examples=12)
    @given(case=interval_cases(2000, positive=True))
    def test_vacuum_energy_contour(self, case):
        pot, bc = case
        matrix = dense(pot, bc)
        lams = np.linalg.eigvalsh(matrix)
        want = 0.5 * math.fsum(np.sqrt(lams))
        got = vacuum_energy(pot, bc, LatticeSpec.interval(pot.nu, h=1.0))
        # 8 eps (max|d| + 2) on an eigenvalue moves its half root by that over 4 sqrt(lambda);
        # the contour's sums of positive terms over nu sites and < 400 nodes add (nu + 400)
        # eps of E, each cut tail 2 _CONTOUR_TAIL and the trapezoid rule exp(-pi^2 / step)
        quadrature = 4 * _CONTOUR_TAIL + math.exp(-math.pi ** 2 / _CONTOUR_STEP)
        bound = (((pot.nu + 400) * EPS + quadrature) * want
                 + 2 * EPS * gershgorin(matrix) * float(np.sum(lams ** -0.5)))
        assert abs(got - want) <= bound

    @settings(max_examples=30)
    @given(case=zero_mode_cases())
    def test_primed_determinant_of_an_exact_zero_mode(self, case):
        pot, bc, y = case
        matrix = dense(pot, bc)
        assert not np.any(matrix @ y)  # T y = 0 in exact arithmetic
        lams = np.linalg.eigvalsh(matrix)
        others = np.delete(lams, np.argmin(np.abs(lams)))
        sign, log_abs = (-1) ** int(np.sum(others < 0)), math.fsum(np.log(np.abs(others)))
        # rounding_bound's terms, the removed mode's left out
        bound = (8 * pot.nu * EPS * (1.0 + abs(log_abs))
                 + 8 * EPS * gershgorin(matrix) * float(np.sum(1 / np.abs(others))))
        ld = determinant(pot, bc, spec_for(bc, pot.nu), prime=True)
        assert ld.zero_modes_removed == 1
        assert ld.sign == sign or bound >= 1.0  # past 1, no digit is certain
        assert abs(ld.log_abs - log_abs) <= bound


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: circle P(0) near an integer tau "
                                       "tests zero and determinant prints sign 0")
def test_twist_near_an_integer():
    """Free twisted(0.9999999), nu = 10: P(0) = 4 sin^2(pi tau) ~ 4e-13 > 0, the
    closed form's log10 |Det| is -12.40."""
    spec = LatticeSpec.circle(10, h=1.0)
    bc = twisted(0.9999999)
    want = free_determinant(bc, spec)
    assert want.sign == 1 and round(want.log10_abs, 2) == -12.40
    got = determinant(Potential.zeros(10), bc, spec)
    assert got.sign == 1 and got.log_abs == pytest.approx(want.log_abs, rel=1e-6)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: a degenerate Robin end scales by "
                                       "h^(-2 nu), not h^(-2 degree)")
def test_degenerate_robin_scales_by_its_degree():
    """robin(-1, 0.5), nu = 10, h = 0.5: y(1) is pinned, so the operator is the
    9-site one on sites 2..10, and the product of its physical eigenvalues has log10
    6.0206; determinant gives 6.6227, log10 4 + 20 log10 2."""
    nu, h = 10, 0.5
    reduced = dense(Potential.zeros(nu), robin(0.3, 0.5))[1:, 1:]  # site 1 removed
    sign, log_abs = np.linalg.slogdet(reduced)
    want = log_abs - 2 * (nu - 1) * math.log(h)
    assert sign == 1 and round(want / math.log(10), 4) == 6.0206
    got = determinant(Potential.zeros(nu), robin(-1, 0.5), LatticeSpec.interval(nu, h=h))
    assert got.sign == 1 and got.log_abs == pytest.approx(want, rel=1e-12)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: P(0) of a single site between two "
                                       "tall Robin ends tests zero against an O(1) yardstick")
def test_single_site_between_opposite_tall_robin_ends():
    """nu = 1, robin(-1.000001, -0.999999): the two end corrections -1/(1 + p) cancel,
    leaving the eigenvalue 2 + v - 1/(1 + alpha) - 1/(1 + beta) ~ 2.9, but P(0) =
    (1 + alpha)(1 + beta) Det ~ -2.9e-12 is swept from O(1) states and tests zero."""
    pot, bc = Potential([0.9108850619643629]), robin(-1.000001, -0.999999)
    matrix = dense(pot, bc)
    sign, log_abs = np.linalg.slogdet(matrix)
    assert sign == 1 and rounding_bound(matrix, bc, log_abs) < 0.01
    got = determinant(pot, bc, spec_for(bc, 1))
    assert got.sign == 1 and abs(got.log_abs - log_abs) <= rounding_bound(matrix, bc, log_abs)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: a near-zero mode away from both ends "
                                       "cancels inside the sweep, where the float sums' guard "
                                       "cannot see it")
def test_near_zero_mode_inside_the_lattice(tmp_path):
    """Dirichlet, nu = 60, potential 1 with -1.5 on sites 26-35, shifted so that the
    lowest eigenvalue is 1e-10: float ``sums`` must exit 3 or come within the guard's
    1e-8 of ``sums --exact``; it exits 0 with S_1 1.8e-8 and S_4 7.0e-8 off, relative."""
    values = np.ones(60)
    values[25:35] = -1.5
    values -= oracle_spectrum(Potential(values.tolist()), dirichlet())[0] - 1e-10
    path = tmp_path / "pot.json"
    path.write_text(json.dumps(values.tolist()))
    argv = ["sums", "--bc", "dirichlet", "--nu", "60", "--h", "1", "--potential", str(path)]
    runs = []
    for extra in ([], ["--exact"]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            runs.append((main(argv + extra), out.getvalue()))
    (code, out), (xcode, xout) = runs
    assert xcode == 0 and code in (0, 3)
    if code == 0:
        got, want = (json.loads(o)["inverse_power_sums"] for o in (out, xout))
        assert all(abs(g - w) <= 1e-8 * abs(w) for g, w in zip(got, want))

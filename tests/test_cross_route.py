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
)
from gylat.cli import main
from gylat.spectrum import cyclic_matrix, oracle_spectrum, tridiagonal_matrix
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

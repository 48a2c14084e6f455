#!/usr/bin/env python3
"""Lattice Casimir energies and their universal constants.

The vacuum energy (1/2) sum sqrt(lambda_bar) collapses to cotangent closed
forms on the free lattice.  Expanded around h = 0 it splits into divergent
lattice artefacts (h^-2, h^-1) plus an h-independent term - the universal
constant that zeta-function regularisation assigns to the continuum:
-pi/(24 L) on the interval, -1/12 on the unit circle, and the Bernoulli
polynomial -B_2(tau) for a flux-twisted complex field.
"""

import math

from gylat import (
    LatticeSpec,
    dirichlet,
    extract_constant,
    free_energy_closed,
    neumann,
    periodic,
    twisted,
    twisted_bernoulli_series,
    vacuum_energy,
)

print(__doc__)

# -- closed forms equal mode sums -------------------------------------------------

print("mode sums vs closed forms:")
spec = LatticeSpec.circle(4, L=2 * math.pi)
print(f"  periodic nu=4 : {vacuum_energy(None, periodic(), spec):.12f}  "
      f"= (2/pi) cot(pi/8) = {free_energy_closed(periodic(), spec):.12f}")
ispec = LatticeSpec.interval(1, h=1.0)
print(f"  Dirichlet nu=1: {vacuum_energy(None, dirichlet(), ispec):.12f}  "
      f"= (1/2)(cot(pi/8) - 1) = {free_energy_closed(dirichlet(), ispec):.12f}")
tspec = LatticeSpec.circle(2, L=2 * math.pi)
print(f"  twisted 1/2   : {vacuum_energy(None, twisted(0.5), tspec):.12f}  "
      f"= (2/pi) sqrt(2) = {2 * math.sqrt(2) / math.pi:.12f}")
print()

# -- universal constants -------------------------------------------------------------

print("universal constants from geometric h-sweeps (fit on h^-2, h^-1, 1):")
hs = [1.0 / (20 * 2 ** (k / 4)) for k in range(16)]
fit = extract_constant(dirichlet(), 1.0, hs)
print(f"  Dirichlet L=1 : {fit.constant:+.8f}   target -pi/24    = {-math.pi/24:+.8f}")
chs = [2 * math.pi / n for n in range(30, 330, 20)]
fit = extract_constant(periodic(), 2 * math.pi, chs)
print(f"  periodic      : {fit.constant:+.8f}   target -1/12     = {-1/12:+.8f}")
for tau in (0.25, 0.5, 0.75):
    fit = extract_constant(twisted(tau), 2 * math.pi, chs)
    want = -(1 / 6 - tau + tau * tau)
    print(f"  twisted {tau:4.2f}  : {fit.constant:+.8f}   target -B2({tau}) = {want:+.8f}")
print()

# -- the full Bernoulli expansion -----------------------------------------------------

print("twisted energy vs its Bernoulli expansion, tau = 0.5:")
spec = LatticeSpec.circle(63, L=2 * math.pi)
closed = free_energy_closed(twisted(0.5), spec)
for mmax in range(4):
    part = twisted_bernoulli_series(0.5, spec.h, mmax)
    print(f"  through m = {mmax}: {part:18.12f}   (closed form {closed:.12f})")
print()

# -- the D + N vs P half-lattice puzzle ----------------------------------------------

print("interval-halving check: E_D + E_N on L = 1 vs E_P on the L = 2 circle")
fit_d = extract_constant(dirichlet(), 1.0, hs, with_positive_powers=True)
fit_n = extract_constant(neumann(), 1.0, hs, with_positive_powers=True)
fit_p = extract_constant(periodic(), 2.0, [2.0 / n for n in range(40, 440, 25)])
for p in (-2, -1, 0):
    dn = fit_d.coefficients[p] + fit_n.coefficients[p]
    pp = fit_p.coefficients[p]
    mark = "matches" if abs(dn - pp) < 1e-3 else "MISMATCH"
    print(f"  h^{p:+d} coefficient:  D+N = {dn:+.6f}   P = {pp:+.6f}   {mark}")
print("the h^-2 and h^0 pieces agree; the h^-1 lattice artefacts do not")
print(f"(the gap is -(1 + 2/pi) = {-(1 + 2/math.pi):.6f} - a known discrete-regulator quirk).")

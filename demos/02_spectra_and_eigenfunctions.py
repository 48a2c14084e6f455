#!/usr/bin/env python3
"""Spectra by three independent routes, and lattice eigenfunctions.

The eigenvalues of the lattice operator are simultaneously (i) roots of the
characteristic polynomial built by transfer-matrix propagation, (ii)
eigenvalues of the symmetric (tri)diagonal matrix, and (iii) in the free
case, explicit sine formulas.  The eigenfunctions come from the same
recurrence: its ratios y(j+1)/y(j), swept from both ends of the lattice.
"""

import math

import numpy as np

from gylat import (
    LatticeSpec,
    Potential,
    char_poly,
    eigenfunctions,
    free_eigenvalues,
    dirichlet,
    oracle_spectrum,
    poly_roots,
    robin,
    twisted,
)

print(__doc__)

nu = 6
spec = LatticeSpec.interval(nu, h=1.0)
pot = Potential.zeros(nu)

roots = poly_roots(char_poly(pot, dirichlet(), exact=True)).lambdas
brute = oracle_spectrum(pot, dirichlet()).lambdas
sines = free_eigenvalues(dirichlet(), spec).lambdas

print(f"free Dirichlet spectrum, nu = {nu} (dimensionless):")
print(f"  {'poly roots':>14} {'matrix':>14} {'4 sin^2':>14}")
for r, b, s in zip(roots, brute, sines):
    print(f"  {r:14.10f} {b:14.10f} {s:14.10f}")
print()

# -- a random potential: polynomial vs matrix ---------------------------------

rng = np.random.default_rng(7)
vals = tuple(rng.uniform(-1, 1, nu))
pot = Potential(vals)
bc = robin(0.7, -0.3)
roots = poly_roots(char_poly(pot, bc, exact=True)).lambdas
brute = oracle_spectrum(pot, bc).lambdas
print("random potential, Robin(0.7, -0.3):")
print(f"  max |poly - matrix| = {max(abs(a - b) for a, b in zip(roots, brute)):.2e}")
print()

# -- twisted circle ------------------------------------------------------------

cspec = LatticeSpec.circle(5, L=2 * math.pi)
print("twisted circle, nu = 5: flux through the ring shifts every mode,")
for tau in (0.25, 0.5, 1.0):
    lams = free_eigenvalues(twisted(tau), cspec).lambdas
    print(f"  tau = {tau:4.2f}: " + "  ".join(f"{x:8.5f}" for x in lams))
print("and tau = 1 lands back on the periodic spectrum (one zero mode, pairs).")
print()

# -- eigenfunctions -------------------------------------------------------------

pot = Potential.zeros(4)
spectrum = oracle_spectrum(pot, dirichlet())
table = eigenfunctions(pot, dirichlet(), spectrum)
print("free Dirichlet eigenfunctions (rows ~ sin(n pi j / (nu+1))):")
for n, row in enumerate(table):
    print(f"  mode {n}: " + "  ".join(f"{x:+.5f}" for x in row))
gram = table @ table.T
off = np.max(np.abs(gram - np.diag(np.diag(gram))))
print(f"orthogonality defect over the dynamical sites: {off:.2e}")

"""Discrete Radon tomography and the scattering-circuit readout.

Reconstructs the Wigner function of an unknown state from line-sum
marginals along a covering family of rays, first exactly and then under
simulated shot noise, and shows how a single interferometric ancilla
measurement reads out one characteristic-function value at a time.
Run with ``python demos/02_radon_tomography.py``.
"""

import numpy as np

from qps import (
    half_width,
    labels,
    center_mod,
    random_density,
    fock_projector,
    phase_fn,
    char_fn,
    radon_q,
    char_from_radon_q,
    reconstruct_wigner,
    scattering_circuit,
)

N = 5
ELL = half_width(N)
rng = np.random.default_rng(7)

rho = random_density(N, rng=rng)
W = phase_fn(rho, 0)

# --- Step 1: a single ray ------------------------------------------------
# Summing the Wigner function along the lines mu' + 2 nu' = mu gives a
# genuine probability-like marginal; inverting the sum recovers the
# characteristic function along the dual ray (eta, 2 eta).
dist = radon_q(W, 1, 2)
print("Line-sum marginal along the ray (1, 2):")
print("  values:", np.array2string(dist.values.real, precision=4))
print(f"  sum = {dist.values.real.sum():.6f} (equals sqrt(N) = {np.sqrt(N):.6f})")

vals = char_from_radon_q(dist, 1, 2, N)
Xi = char_fn(rho, 0)
resid = max(
    abs(vals[t + ELL] - Xi.grid[center_mod(t, N) + ELL, center_mod(2 * t, N) + ELL])
    for t in labels(N)
)
print(f"  recovered characteristic values match the direct ones to {resid:.2e}")

# --- Step 2: full reconstruction ----------------------------------------
# One ray per point of the projective line P^1(Z_N) -- (1, k) plus (0, 1)
# at prime N -- covers the dual plane, so the ray-by-ray inversions
# assemble into the complete Wigner grid.
W_rec = reconstruct_wigner(rho)
print(f"\nExact tomography residual: {np.abs(W_rec.grid - W.grid).max():.3e}")

for shots in (10_000, 1_000_000):
    W_noisy = reconstruct_wigner(rho, shots=shots, rng=np.random.default_rng(21))
    print(f"With {shots:>9,} shots per ray: max error "
          f"{np.abs(W_noisy.grid - W.grid).max():.4f}")

# Composite N takes the same route: P^1(Z_9) has 12 rays, and cells of
# order 3 lie on several of them.
rho9 = random_density(9, rng=rng)
W9 = reconstruct_wigner(rho9).grid
print(f"\nComposite N = 9 (12 rays) exact residual: "
      f"{np.abs(W9 - phase_fn(rho9, 0).grid).max():.3e}")

# --- Step 3: scattering-circuit readout ---------------------------------
# One controlled-displacement interferometer run yields the ancilla pair
# (<sigma_z>, <sigma_y>) = sqrt(N) (Re, Im) of the characteristic function.
print("\nScattering-circuit readout vs direct characteristic function (N = 5):")
state = fock_projector(1, N)
Xi1 = char_fn(state, 0)
for eta, xi in [(0, 0), (1, 0), (1, -2), (-2, 2)]:
    z, y = scattering_circuit(state, eta, xi)
    direct = np.sqrt(N) * Xi1.grid[eta + ELL, xi + ELL]
    print(f"  (eta, xi) = ({eta:+d}, {xi:+d}):  circuit ({z:+.6f}, {y:+.6f})"
          f"   direct ({direct.real:+.6f}, {direct.imag:+.6f})")

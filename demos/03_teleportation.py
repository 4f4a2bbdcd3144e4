"""Qudit teleportation in phase-space language.

Builds the family of generalized Bell states, inspects their two-mode
Wigner and Husimi functions, runs the three-party teleportation protocol,
and verifies the phase-space shift law: the receiver's quasiprobability
function is the sender's, rigidly displaced by the Bell outcome.
Run with ``python demos/03_teleportation.py``.
"""

import itertools

import numpy as np

from qps import (
    half_width,
    labels,
    center_mod,
    kernel_table,
    random_density,
    phase_fn,
    BellLabel,
    bell_state,
    bell_projector,
    bipartite_phase_fn,
    teleport,
    teleport_via_coeffs,
)

N = 5
ELL = half_width(N)
rng = np.random.default_rng(3)

# --- Bell-state structure ------------------------------------------------
# The N^2 Bell states are mutually orthogonal and fill the doubled space.
states = {
    (w1, w2): bell_state(BellLabel(w1, w2), N)
    for w1 in labels(N)
    for w2 in labels(N)
}
gram = np.array(
    [[abs(a.conj() @ b) for b in states.values()] for a in states.values()]
)
print(f"Bell family at N = {N}: {len(states)} states, "
      f"max |Gram - identity| = {np.abs(gram - np.eye(N * N)).max():.2e}")

# The two-mode Wigner function of a Bell state is a delta comb on the
# correlation manifold mu1 + mu2 = -w1, nu1 - nu2 = w2.
w = BellLabel(1, -2)
W2 = bipartite_phase_fn(bell_projector(w, N), 0, 0)
support = []
for m1, n1, m2, n2 in itertools.product(labels(N), repeat=4):
    v = W2.grid[m1 + ELL, n1 + ELL, m2 + ELL, n2 + ELL].real
    if abs(v) > 1e-9:
        support.append(((m1, n1, m2, n2), v))
on_manifold = all(
    center_mod(m1 + m2 + w.omega1, N) == 0 and center_mod(n1 - n2 - w.omega2, N) == 0
    for (m1, n1, m2, n2), _ in support
)
print(f"\nWigner support of the Bell state ({w.omega1}, {w.omega2}): "
      f"{len(support)} of {N ** 4} points, all on the correlation manifold: "
      f"{on_manifold}, common value {support[0][1]:.6f}")

# The Husimi function resolves the same comb through the squared kernel.
H2 = bipartite_phase_fn(bell_projector(w, N), -1, -1)
K = kernel_table(N)
pred = K[center_mod(1 + 1 + w.omega1, N) + ELL, center_mod(0 - 0 - w.omega2, N) + ELL]
print(f"Husimi at (1,0,1,0): {H2.grid[1 + ELL, ELL, 1 + ELL, ELL].real:.6f}"
      f"   kernel-squared prediction K^2/N = {pred ** 2 / N:.6f}")

# --- The protocol --------------------------------------------------------
# Sender holds a random mixed state; senders 1-2 are measured in the Bell
# basis; every outcome occurs with probability exactly 1/N^2.
rho1 = random_density(N, rng=rng)
alpha, beta = 2, -1
rho3, p = teleport(rho1, alpha, beta)
print(f"\nOutcome ({alpha}, {beta}) observed with p = {p:.10f} (1/N^2 = {1 / N ** 2})")

# Phase-space shift law: the receiver's function is the sender's displaced
# by (alpha, -beta), cyclically on the centered labels.
F1 = phase_fn(rho1, 0)
F3 = phase_fn(rho3, 0)
ks = labels(N)
shifted = F1.grid[np.ix_(
    [center_mod(m - alpha, N) + ELL for m in ks],
    [center_mod(n + beta, N) + ELL for n in ks],
)]
print(f"Shift-law residual |F3(mu, nu) - F1(mu - alpha, nu + beta)|: "
      f"{np.abs(F3.grid - shifted).max():.3e}")

# The coefficient path (expand in one kernel order, transfer, rebuild in
# another) reproduces the projection path for any order pair.
for s1, s3 in [(0, 0), (0.5, -0.5), (-1, 1)]:
    alt = teleport_via_coeffs(rho1, alpha, beta, s1, s3)
    print(f"Coefficient path at (s1, s3) = ({s1}, {s3}): "
          f"max deviation {np.abs(alt - rho3).max():.3e}")

# Undoing the displacement leaves the receiver holding the input exactly.
corrected = F3.grid[np.ix_(
    [center_mod(m + alpha, N) + ELL for m in ks],
    [center_mod(n - beta, N) + ELL for n in ks],
)]
print(f"\nAfter the correction displacement the states agree to "
      f"{np.abs(corrected - F1.grid).max():.3e} in phase space.")

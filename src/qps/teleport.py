"""Generalized Bell states, bipartite phase-space functions, the coefficient
tables linking the Bell and phase-space operator bases, and the three-party
teleportation protocol with its phase-space displacement law.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .lattice import (
    check_dim,
    half_width,
    labels,
    center_mod,
    dagger,
    tensor,
    partial_trace,
    dft_matrix,
)
from .schwinger import check_order, u_matrix, v_matrix, t_op, t_family, reconstruct_t, _kernel_power
from .quasiprob import validate_density, phase_fn

__all__ = [
    "BellLabel",
    "BipartitePhaseFn",
    "bell_state",
    "bell_projector",
    "bipartite_phase_fn",
    "upsilon_coeffs",
    "theta_coeffs",
    "teleport",
    "r_kernel",
    "lambda_coeffs",
    "teleport_via_coeffs",
]

# the coefficient tables hold N^4 complex entries per (omega, omega') pair
COEFF_DIM_LIMIT = 5
# the tripartite protocol works on an N^3-dimensional state space
PROTOCOL_DIM_LIMIT = 7


@dataclass(frozen=True)
class BellLabel:
    """Pair of centered labels (omega1, omega2) naming a generalized Bell state."""

    omega1: int
    omega2: int

    def reduced(self, N):
        return BellLabel(center_mod(self.omega1, N), center_mod(self.omega2, N))


@dataclass(frozen=True)
class BipartitePhaseFn:
    """Two-mode phase-space table indexed by (mu1, nu1, mu2, nu2)."""

    s1: complex
    s2: complex
    grid: np.ndarray

    @property
    def dim(self):
        return self.grid.shape[0]


@lru_cache(maxsize=None)
def _bell_seed(N):
    """|Psi_{0,0}> = N^(-1/2) sum_eps |v_eps> x |v_eps> over the shift eigenbasis."""
    F = dft_matrix(N)
    psi = np.zeros(N * N, dtype=complex)
    for eps in range(N):
        psi += np.kron(F[:, eps], F[:, eps])
    psi /= np.sqrt(N)
    psi.setflags(write=False)
    return psi


def bell_state(omega, N):
    """Maximally entangled state |Psi_{omega1,omega2}> on the doubled space.

    Generated from the seed state by the one-sided displacement
    V^omega1 (x) U^(-omega2).
    """
    N = check_dim(N)
    w = omega.reduced(N) if isinstance(omega, BellLabel) else BellLabel(*omega).reduced(N)
    V = np.linalg.matrix_power(v_matrix(N), w.omega1 % N)
    U = np.linalg.matrix_power(u_matrix(N), (-w.omega2) % N)
    return tensor(V, U) @ _bell_seed(N)


def bell_projector(omega, N):
    psi = bell_state(omega, N)
    return np.outer(psi, psi.conj())


def bipartite_phase_fn(state, s1, s2):
    """Two-mode phase-space function of a pure state or density operator.

    grid[m1, n1, m2, n2] is the trace of T^(s1)(mu1, nu1) (x) T^(s2)(mu2, nu2)
    against the operator; a vector input is promoted to its projector.
    """
    state = np.asarray(state, dtype=complex)
    if state.ndim == 1:
        rho = np.outer(state, state.conj())
    else:
        rho = state
    D = rho.shape[0]
    N = check_dim(round(np.sqrt(D)))
    if N * N != D:
        raise ValueError(f"operator dimension {D} is not a perfect square")
    s1 = check_order(s1)
    s2 = check_order(s2)
    fam1 = t_family(s1, N)
    fam2 = t_family(s2, N)
    R = rho.reshape(N, N, N, N)  # [i1, i2, j1, j2]
    # Tr[(A x B) rho] = A_ij B_kl rho[(j,l),(i,k)]
    grid = np.einsum("abij,cdkl,jlik->abcd", fam1, fam2, R)
    return BipartitePhaseFn(s1, s2, grid)


def _check_coeff_dim(N):
    N = check_dim(N)
    if N > COEFF_DIM_LIMIT:
        raise ValueError(
            f"coefficient tables are limited to N <= {COEFF_DIM_LIMIT}, got {N}"
        )
    return N


def upsilon_coeffs(omega, omega_p, s1, s2, N):
    """Expansion coefficients of |Psi_omega><Psi_omega'| over T (x) T.

    Returns the table Y[m1, n1, m2, n2] such that
    |Psi_omega><Psi_omega'| = (1/N^2) sum Y * T^(s1) (x) T^(s2); the table
    itself carries the opposite orders (-s1, -s2) through its trace
    definition.
    """
    N = _check_coeff_dim(N)
    op = np.outer(bell_state(omega, N), bell_state(omega_p, N).conj())
    return bipartite_phase_fn(op, -check_order(s1), -check_order(s2)).grid


def theta_coeffs(mu1, nu1, mu2, nu2, s1, s2, N):
    """Expansion coefficients of T^(s1)(mu1, nu1) (x) T^(s2)(mu2, nu2) over
    the Bell dyads.

    Returns the table C[w1, w2, w1', w2'] such that the kernel product equals
    sum C * |Psi_{w1,w2}><Psi_{w1',w2'}|.
    """
    N = _check_coeff_dim(N)
    ell = half_width(N)
    s1 = check_order(s1)
    s2 = check_order(s2)
    TT = tensor(t_op(mu1, nu1, s1, N), t_op(mu2, nu2, s2, N))
    C = np.empty((N, N, N, N), dtype=complex)
    for w1 in labels(N):
        for w2 in labels(N):
            for w1p in labels(N):
                for w2p in labels(N):
                    bra = bell_state(BellLabel(w1, w2), N)
                    ket = bell_state(BellLabel(w1p, w2p), N)
                    # Tr[TT |ket><bra|] = <bra| TT |ket>
                    C[w1 + ell, w2 + ell, w1p + ell, w2p + ell] = bra.conj() @ (
                        TT @ ket
                    )
    return C


def teleport(rho1, alpha, beta, N=None):
    """Run the three-party protocol and condition on Bell outcome (alpha, beta).

    Subsystems 2-3 start in the seed Bell state; a joint measurement projects
    subsystems 1-2 onto |Psi_{alpha,beta}>.  Returns the normalized receiver
    state rho_3R together with the outcome probability p, which equals 1/N^2
    for every input.
    """
    rho1 = validate_density(rho1)
    if N is None:
        N = rho1.shape[0]
    N = check_dim(N)
    if N > PROTOCOL_DIM_LIMIT:
        raise ValueError(
            f"the tripartite protocol is limited to N <= {PROTOCOL_DIM_LIMIT}, got {N}"
        )
    if rho1.shape[0] != N:
        raise ValueError("input state dimension does not match N")
    resource = bell_projector(BellLabel(0, 0), N)
    rho = tensor(rho1, resource)
    psi12 = bell_state(BellLabel(alpha, beta), N)
    P12 = tensor(np.outer(psi12, psi12.conj()), np.eye(N))
    conditioned = P12 @ rho @ P12
    p = float(np.trace(conditioned).real)
    rho3 = partial_trace(conditioned, [N, N, N], keep=[2])
    return rho3 / p, p


def r_kernel(alpha, beta, ds, N):
    """Order-transfer kernel R[m1, n1, m3, n3] at order difference ds = s3 - s1.

    A double Fourier sum of K^ds over displaced label differences; at ds = 0
    it collapses to the Kronecker comb selecting (mu3, nu3) =
    (mu1 + alpha, nu1 - beta).
    """
    N = check_dim(N)
    ds = complex(ds)
    ks = labels(N)
    Kpow = _kernel_power(-ds, N)
    # exp{(2 pi i / N) [eta (mu1 - mu3 + alpha) - xi (nu1 - nu3 - beta)]}
    pe = np.exp(2j * np.pi * np.multiply.outer(np.subtract.outer(ks, ks) + alpha, ks) / N)
    px = np.exp(-2j * np.pi * np.multiply.outer(np.subtract.outer(ks, ks) - beta, ks) / N)
    # pe[m1, m3, eta], px[n1, n3, xi]
    return np.einsum("ace,bdf,ef->abcd", pe, px, Kpow) / N**2


def lambda_coeffs(F1, alpha, beta, s3):
    """Receiver-side phase-space coefficients for Bell outcome (alpha, beta).

    Contracts the order-transfer kernel with the sender's phase-space
    function; F1 must be tagged with order -s1.
    """
    s1 = -complex(F1.s)
    R = r_kernel(alpha, beta, complex(s3) - s1, F1.dim)
    return np.einsum("abcd,ab->cd", R, F1.grid)


def teleport_via_coeffs(rho1, alpha, beta, s1, s3):
    """Receiver state from the coefficient path: expand, transfer, rebuild.

    rho_3R = (1/N) sum Lambda(mu3, nu3) T^(s3)(mu3, nu3), with Lambda built
    from the sender's F^(-s1).  Agrees with the projection path of
    teleport() for any admissible (s1, s3).
    """
    rho1 = validate_density(rho1)
    s1 = check_order(s1)
    s3 = check_order(s3)
    F1 = phase_fn(rho1, -s1)
    return reconstruct_t(lambda_coeffs(F1, alpha, beta, s3), s3)

"""Generalized Bell states, bipartite phase-space functions, the coefficient
tables linking the Bell and phase-space operator bases, and the three-party
teleportation protocol with its phase-space displacement law.

A Bell state in matrix form Psi[kappa1, kappa2] is the seed Pi / sqrt(N)
(Pi the parity) with its rows gathered in rolled order and its columns
phased, so every route here works on N x N matrices: the protocol is a
product of three of them, the two-mode tables are the two-mode traces of
`lattice._traces2` (one gather and two products) followed by four products
with N x N phase tables, the Bell coefficients of T (x) T are one gather of
the first kernel and a 1-D DFT per mode, and the receiver coefficients
are one multiplier in the dual plane.  Only two-mode operators given as
input or built as a Bell dyad are N^2 x N^2 matrices.
"""

import math
from dataclasses import dataclass

import numpy as np

from .lattice import check_dim, labels, center_mod, _index, _integer, _invalid, _matrix, _phases, _dft, _idft, _dual_multiply, _shifted, _shift_rows, _traces2, _table_cache
from .schwinger import check_order, t_op, _kernel_power, _t_sum
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
    "lambda_coeffs",
    "teleport_via_coeffs",
]


@dataclass(frozen=True)
class BellLabel:
    """Pair of centered labels (omega1, omega2) naming a generalized Bell state."""

    omega1: int
    omega2: int

    def reduced(self, N):
        return BellLabel(*(center_mod(_integer(w), N) for w in (self.omega1, self.omega2)))


@dataclass(frozen=True)
class BipartitePhaseFn:
    """Two-mode phase-space table indexed by (mu1, nu1, mu2, nu2)."""

    s1: complex
    s2: complex
    grid: np.ndarray

    @property
    def dim(self):
        return self.grid.shape[0]


@_table_cache
def _bell_seed(N):
    """|Psi_{0,0}> = N^(-1/2) sum_eps |v_eps> x |v_eps> over the shift eigenbasis.

    The DFT matrix squares to the parity, so the sum is Pi / sqrt(N) in
    matrix form: amplitude 1/sqrt(N) on each |kappa> x |-kappa>.
    """
    return np.eye(check_dim(N), dtype=complex)[::-1].ravel() / np.sqrt(N)


def bell_state(omega, N):
    """Maximally entangled state |Psi_{omega1,omega2}> on the doubled space.

    Generated from the seed state by the one-sided displacement
    V^omega1 (x) U^(-omega2); in matrix form V^omega1 Phi_0 U^(-omega2),
    i.e. the seed's rows rolled by -omega1 and its columns phased.
    """
    N = check_dim(N)
    w = omega.reduced(N) if isinstance(omega, BellLabel) else BellLabel(*omega).reduced(N)
    # (V^omega1 M)[kappa] = M[kappa + omega1]; U^(-omega2) = diag exp(-2 pi i omega2 kappa / N)
    psi = _bell_seed(N).reshape(N, N).take(_shift_rows(-w.omega1, N), axis=0)
    return (psi * _phases(w.omega2, N)).ravel()


def bell_projector(omega, N):
    psi = bell_state(omega, N)
    return np.outer(psi, psi.conj())


def bipartite_phase_fn(state, s1, s2):
    """Two-mode phase-space function of a pure state or density operator.

    grid[m1, n1, m2, n2] is the trace of T^(s1)(mu1, nu1) (x) T^(s2)(mu2, nu2)
    against the operator; a vector input is promoted to its projector.
    The two-mode traces times K^(-s1) (x) K^(-s2) / N (`lattice._traces2`:
    one take of the cyclic diagonals of both modes and two label sums), then
    four products, each transforming the leading axis and moving it last: a
    2-D DFT per mode.  O(N^5), with no N x N slice handled on its own.
    """
    state = np.asarray(state, dtype=complex)
    state, D = _matrix(np.outer(state, state.conj()) if state.ndim == 1 else state)
    if (N := math.isqrt(D)) ** 2 != D:
        raise _invalid("operator dimension must be a perfect square N^2", D)
    s1, s2 = check_order(s1), check_order(s2)
    X = _traces2(state, _kernel_power(s1, N), _kernel_power(s2, N) * (1 / N))  # [xi1, xi2, eta1, eta2]
    for _ in range(4):
        X = _dft(X.reshape(N, -1).T)
    # X[nu1, nu2, mu1, mu2]
    return BipartitePhaseFn(s1, s2, X.reshape(N, N, N, N).transpose(2, 0, 3, 1))


def upsilon_coeffs(omega, omega_p, s1, s2, N):
    """Expansion coefficients of |Psi_omega><Psi_omega'| over T (x) T.

    Returns the table Y[m1, n1, m2, n2] such that
    |Psi_omega><Psi_omega'| = (1/N^2) sum Y * T^(s1) (x) T^(s2); the table
    itself carries the opposite orders (-s1, -s2) through its trace
    definition.
    """
    op = np.outer(bell_state(omega, N), bell_state(omega_p, N).conj())
    return bipartite_phase_fn(op, -check_order(s1), -check_order(s2)).grid


def theta_coeffs(mu1, nu1, mu2, nu2, s1, s2, N):
    """Expansion coefficients of T^(s1)(mu1, nu1) (x) T^(s2)(mu2, nu2) over
    the Bell dyads.

    Returns the table C[w1, w2, w1', w2'] such that the kernel product equals
    sum C * |Psi_{w1,w2}><Psi_{w1',w2'}|.  The two kernels come from `t_op`,
    each a displaced copy of its cached origin kernel, so no N^4 table is read.
    """
    N = check_dim(N)
    mu1, nu1, mu2, nu2 = (_integer(x) for x in (mu1, nu1, mu2, nu2))
    A = t_op(mu1, nu1, check_order(s1), N)
    B = t_op(mu2, nu2, check_order(s2), N)
    ks = labels(N)
    # Psi_w[kappa1, kappa2] = exp(-2 pi i w2 kappa2 / N) / sqrt(N) on kappa1 = -kappa2 - w1, so
    # C = (1/N) sum_{k,l} A[-k - w1, -l - w1'] B[k, l] exp(2 pi i (w2 k - w2' l) / N)
    idx = _index(-np.add.outer(ks, ks), N)  # idx[w, k] indexes label -k - w
    X = A.reshape(N * N).take(N * idx[:, :, None, None] + idx) * B[:, None, :]  # [w1, k, w1', l]
    Y = _dft(X.reshape(-1, N)).reshape(N, N, N * N).swapaxes(1, 2)  # [w1, (w1', w2'), k]
    return (_idft(Y).swapaxes(1, 2) * (1 / N)).reshape(N, N, N, N)


def teleport(rho1, alpha, beta):
    """Run the three-party protocol and condition on Bell outcome (alpha, beta).

    Subsystems 2-3 start in the seed Bell state; a joint measurement projects
    subsystems 1-2 onto |Psi_{alpha,beta}>.  Returns the normalized receiver
    state rho_3R together with the outcome probability p, which equals 1/N^2
    for every input.
    """
    N = len(rho1 := validate_density(rho1))
    # <Psi_{alpha,beta}|_12 (|psi>_1 x |Psi_{0,0}>_23) = M^T |psi> in matrix form
    Psi = bell_state(BellLabel(alpha, beta), N).reshape(N, N)
    M = Psi.conj() @ _bell_seed(N).reshape(N, N)
    rho3 = M.T @ rho1 @ M.conj()
    p = float(np.trace(rho3).real)
    return rho3 / p, p


def lambda_coeffs(F1, alpha, beta, s3):
    """Receiver-side phase-space coefficients for Bell outcome (alpha, beta).

    Contracts the paper's N^4 order-transfer kernel (the inverse 2-D DFT of
    K^(s3 - s1) at mu1 - mu3 + alpha, nu1 - nu3 - beta) with the sender's grid F1,
    tagged with order -s1.  In the dual plane that is K^(s3 - s1) times exp(2 pi i
    (alpha eta - beta xi) / N), a shift of phase space by (alpha, -beta): O(N^3).
    """
    s1, alpha, beta = -check_order(F1.s), _integer(alpha), _integer(beta)
    return _shifted(_dual_multiply(_kernel_power(s1 - check_order(s3), F1.dim), F1.grid), alpha, -beta)


def teleport_via_coeffs(rho1, alpha, beta, s1, s3):
    """Receiver state from the coefficient path: expand, transfer, rebuild.

    rho_3R = (1/N) sum Lambda(mu3, nu3) T^(s3)(mu3, nu3), with Lambda built
    from the sender's F^(-s1).  Agrees with the projection path of
    teleport() for any admissible (s1, s3).
    """
    rho1 = validate_density(rho1)
    s1, s3 = check_order(s1), check_order(s3)
    F1 = phase_fn(rho1, -s1)
    return _t_sum(lambda_coeffs(F1, alpha, beta, s3), s3)

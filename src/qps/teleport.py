"""Generalized Bell states, bipartite phase-space functions, the coefficient
tables linking the Bell and phase-space operator bases, and the three-party
teleportation protocol with its phase-space displacement law.

A Bell state in matrix form Psi[kappa1, kappa2] is the seed Pi / sqrt(N)
(Pi the parity) with its rows gathered in rolled order and its columns
phased, so every route here works on N x N matrices: the protocol is a
product of three of them, the two-mode tables are one gather of the
operator's cyclic diagonals in both modes followed by six products with
N x N phase tables, the Bell coefficients of T (x) T are one gather of
the first kernel and a 1-D DFT per mode, and the receiver coefficients
are one multiplier in the dual plane.  Only two-mode operators given as
input or built as a Bell dyad are N^2 x N^2 matrices.
"""

import math
from dataclasses import dataclass

import numpy as np

from .lattice import check_dim, labels, center_mod, _at, _index, _integer, _invalid, _matrix, _phases, _cas, _dft, _idft, _dual_multiply, _shifted, _diagonals, _table_cache
from .schwinger import check_order, t_op, _order, _kernel_power, _t_sum
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
    psi = _bell_seed(N).reshape(N, N).take(np.arange(w.omega1, w.omega1 + N), axis=0, mode="wrap")
    return (psi * _phases(w.omega2, N)).ravel()


def bell_projector(omega, N):
    psi = bell_state(omega, N)
    return np.outer(psi, psi.conj())


def bipartite_phase_fn(state, s1, s2):
    """Two-mode phase-space function of a pure state or density operator.

    grid[m1, n1, m2, n2] is the trace of T^(s1)(mu1, nu1) (x) T^(s2)(mu2, nu2)
    against the operator; a vector input is promoted to its projector.
    One gather of the operator's cyclic diagonals in both modes, one take of
    flat positions built from the `lattice._diagonals` gather by one broadcast
    add (N^4 of them, made per call, not cached), then six products, each
    transforming the leading axis and moving it last: two label sums, the
    K^(-s1) (x) K^(-s2) multiplier, and a 2-D DFT per mode.  O(N^5), with no
    N x N slice handled on its own.  The one reader of `lattice._diagonals`
    outside `lattice`: `_traces` per mode measured slower, 47 -> 82 us at N = 5, 101 -> 180 us at N = 7.
    """
    state = np.asarray(state, dtype=complex)
    state, D = _matrix(np.outer(state, state.conj()) if state.ndim == 1 else state)
    if (N := math.isqrt(D)) ** 2 != D:
        raise _invalid("operator dimension must be a perfect square N^2", D)
    s1, s2 = check_order(s1), check_order(s2)
    gather, _, front = _diagonals(N)
    # pos[kappa + ell, xi + ell] = kappa N^2 + the row of kappa - xi: the mode-2 position of
    # R[., kappa, ., kappa - xi] in R[i1, i2, j1, j2], the operator, and N pos the mode-1 one
    pos = gather.T + (N * N - N) * np.arange(N)[:, None]
    # X[k1, k2, xi1, xi2] = R[k1, k2, k1 - xi1, k2 - xi2]
    X = state.reshape(N**4).take(N * pos[:, None, :, None] + pos[:, None, :])
    for _ in range(2):
        X = _idft(X.reshape(N, -1).T)
    # X[xi1, xi2, eta1, eta2] = sum_k1,k2 exp(2 pi i (eta1 k1 + eta2 k2) / N) R[...]
    A = (front * _kernel_power(s1, N)).T
    B = (front * _kernel_power(s2, N)).T * (1 / N)
    X = X.reshape(N, N, N, N) * (A[:, None, :, None] * B[:, None, :])
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


def r_kernel(alpha, beta, ds, N):
    """Order-transfer kernel R[m1, n1, m3, n3] at order difference ds = s3 - s1.

    One inverse 2-D DFT of K^ds read at the reduced label differences
    (mu1 - mu3 + alpha, nu1 - nu3 - beta); at ds = 0 it is the Kronecker
    comb selecting (mu3, nu3) = (mu1 + alpha, nu1 - beta).
    """
    N = check_dim(N)
    ks = labels(N)
    # K is even in each label, so the sum is H K^ds H / N^2 (`_cas`) at the label differences; |ds| may reach 2
    grid = _cas(_cas(_kernel_power(-_order(ds), N)).T).T * (1 / N**2)
    d = np.subtract.outer(ks, ks)  # [m1, m3] and [n1, n3]
    return _at(grid, (d + _integer(alpha))[:, None, :, None], (d - _integer(beta))[None, :, None, :])


def lambda_coeffs(F1, alpha, beta, s3):
    """Receiver-side phase-space coefficients for Bell outcome (alpha, beta).

    Contracts the order-transfer kernel with the sender's phase-space
    function; F1 must be tagged with order -s1.  In the dual plane the
    contraction is K^(s3 - s1) times exp(2 pi i (alpha eta - beta xi) / N),
    a shift of phase space by (alpha, -beta): O(N^3).
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

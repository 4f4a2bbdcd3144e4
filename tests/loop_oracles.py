"""Loop implementations kept as test oracles for the spectral core.

These are the original per-entry routes: dense `s_op` builds with one
trace each, a Python loop of fancy-index gathers for the smoothing
convolution, N^2 `t_overlap` calls for the smoothing table, the
theta-series double loop of the marginal smoothing, the scalar DFT
sum of the Radon ray inversion, the einsum-built T^(s) family with the
direct kernel traces against it, the symplectic generators accumulated
one basis element at a time, and the depolarizer's conjugation loop.
They are slow by design and exist only so the fast paths can be
compared against them.
"""

from functools import lru_cache

import numpy as np

from qps.lattice import check_dim, half_width, labels, center_mod, dagger
from qps.theta import kernel_table, kernel_value, smoothing_1d
from qps.schwinger import check_order, s_op, t_overlap
from qps.quasiprob import PhaseSpaceFunction


def char_fn_grid(rho, s):
    """Xi^(s)[eta + ell, xi + ell] = K^(-s) Tr[S(eta, xi) rho], one trace per entry."""
    rho = np.asarray(rho)
    s = check_order(s)
    N = check_dim(rho.shape[0])
    ell = half_width(N)
    Kpow = kernel_table(N) ** (-s)
    grid = np.empty((N, N), dtype=complex)
    for eta in labels(N):
        for xi in labels(N):
            grid[eta + ell, xi + ell] = Kpow[eta + ell, xi + ell] * np.trace(
                s_op(eta, xi, N) @ rho
            )
    return grid


def phase_fn_grid(rho, s):
    """F^(s) as the unfactored einsum DFT of the loop characteristic grid."""
    Xi = char_fn_grid(rho, s)
    N = Xi.shape[0]
    ks = labels(N)
    ph = np.exp(-2j * np.pi * np.outer(ks, ks) / N)
    return np.einsum("em,fn,ef->mn", ph, ph, Xi) / np.sqrt(N)


def smoothing_table(N):
    """E(dmu, dnu) = Re Tr[T^(0) T^(-1)] at offset (dmu, dnu), one overlap per entry."""
    N = check_dim(N)
    ell = half_width(N)
    E = np.empty((N, N))
    for dmu in labels(N):
        for dnu in labels(N):
            E[dmu + ell, dnu + ell] = t_overlap(0, -1, dmu, dnu, N).real
    return E


def convolve(grid, weights):
    """(1/N) sum_{mu',nu'} weights(mu'-mu, nu'-nu) grid(mu', nu'), entry by entry."""
    N = grid.shape[0]
    ell = half_width(N)
    ks = labels(N)
    didx = center_mod(np.subtract.outer(ks, ks), N) + ell
    out = np.empty(grid.shape, dtype=complex)
    for m in range(N):
        for n in range(N):
            out[m, n] = np.sum(weights[np.ix_(didx[:, m], didx[:, n])] * grid) / N
    return out


def smooth_marginal_values(values):
    """sum_{kappa'} smoothing_1d(kappa' - kappa) values(kappa'), one theta pair per term."""
    N = len(values)
    ell = half_width(N)
    ks = labels(N)
    return np.array(
        [sum(smoothing_1d(int(kp) - int(k), N) * values[kp + ell] for kp in ks) for k in ks]
    )


def ray_invert(dist, za, zb, N):
    """Xi^(s)(za*t, zb*t) from a line-sum marginal, one scalar DFT sum per label."""
    s = complex(dist.s)
    ell = half_width(N)
    ks = labels(N)
    out = np.empty(N, dtype=complex)
    for t in ks:
        if abs(s) < 1e-14:
            ratio = 1.0
        else:
            base = kernel_value(t, 0, N) if dist.axis == "Q" else kernel_value(0, t, N)
            ratio = (base / kernel_value(za * t, zb * t, N)) ** s
        tot = sum(np.exp(2j * np.pi * k * t / N) * dist.values[k + ell] for k in ks)
        out[t + ell] = ratio * tot / N
    return out


def line_sums(F, za, zb):
    """sum of F over each line za*mu' + zb*nu' = label, / sqrt(N), one boolean mask per label."""
    N = F.dim
    ks = labels(N)
    line_of = center_mod(np.add.outer(za * ks, zb * ks), N)
    return np.array([F.grid[line_of == k].sum() for k in ks]) / np.sqrt(N)


def decompose_schwinger(O):
    """C[eta + ell, xi + ell] = Tr[S(-eta, -xi) O], one dense basis element per entry."""
    O = np.asarray(O)
    N = check_dim(O.shape[0])
    ell = half_width(N)
    C = np.empty((N, N), dtype=complex)
    for eta in labels(N):
        for xi in labels(N):
            C[eta + ell, xi + ell] = np.trace(s_op(-eta, -xi, N) @ O)
    return C


def reconstruct_schwinger(C):
    """sum_{eta, xi} C(eta, xi) S(eta, xi), accumulated one basis element at a time."""
    C = np.asarray(C)
    N = check_dim(C.shape[0])
    ell = half_width(N)
    O = np.zeros((N, N), dtype=complex)
    for eta in labels(N):
        for xi in labels(N):
            O += C[eta + ell, xi + ell] * s_op(eta, xi, N)
    return O


@lru_cache(maxsize=None)
def _t_family(s, N):
    ell = half_width(N)
    ks = labels(N)
    Kpow = kernel_table(N) ** (-s)
    stack = np.empty((N, N, N, N), dtype=complex)
    for eta in ks:
        for xi in ks:
            stack[eta + ell, xi + ell] = s_op(eta, xi, N)
    ph = np.exp(-2j * np.pi * np.outer(ks, ks) / N)  # ph[eta, mu]
    T = np.einsum("em,fn,ef,efij->mnij", ph, ph, Kpow, stack) / np.sqrt(N)
    T.setflags(write=False)
    return T


def t_family(s, N):
    """T^(s)[mu + ell, nu + ell] as the unfactored einsum over N^2 dense basis elements.

    Cached per (s, N); the returned array is read-only.
    """
    return _t_family(check_order(s), check_dim(N))


def phase_fn_direct(rho, s):
    """F^(s)(mu, nu) = Tr[T^(s)(mu, nu) rho] by direct kernel traces."""
    rho = np.asarray(rho)
    s = check_order(s)
    N = check_dim(rho.shape[0])
    grid = np.einsum("mnij,ji->mn", t_family(s, N), rho)
    return PhaseSpaceFunction(s, grid)


def generator_sum(N, phase, eta_of, xi_of):
    """sum_{eta,xi} phase(eta, xi) S(eta_of, xi_of) / sqrt(N), one dense basis element per term."""
    acc = np.zeros((N, N), dtype=complex)
    for eta in labels(N):
        for xi in labels(N):
            acc += phase(eta, xi) * s_op(eta_of(eta, xi), xi_of(eta, xi), N)
    return acc / np.sqrt(N)


def conjugation_average(O, w):
    """sum_{eta,xi} w(eta, xi) X O X^dag / N over X = sqrt(N) S(eta, xi), one conjugation per term."""
    O = np.asarray(O)
    N = check_dim(O.shape[0])
    ell = half_width(N)
    acc = np.zeros((N, N), dtype=complex)
    for eta in labels(N):
        for xi in labels(N):
            X = np.sqrt(N) * s_op(eta, xi, N)
            acc += w[eta + ell, xi + ell] * X @ O @ dagger(X)
    return acc / N

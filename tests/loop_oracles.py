"""Loop implementations kept as test oracles for the spectral core.

These are the original per-entry routes: dense `s_op` builds with one
trace each, a Python loop of fancy-index gathers for the smoothing
convolution, N^2 `t_overlap` calls for the smoothing table, the
theta-series double loop of the marginal smoothing, and the scalar DFT
sum of the Radon ray inversion.  They are slow by
design and exist only so the fast paths can be compared against them.
"""

import numpy as np

from qps.lattice import check_dim, half_width, labels, center_mod
from qps.theta import kernel_table, kernel_value, smoothing_1d
from qps.schwinger import check_order, s_op, t_overlap


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

"""Jacobi theta series and the objects built from them.

Covers the bell-shaped kernel K(eta, xi), its 1-D smoothing analogue,
the integer phase correction used for label wraparound, and the finite
number-basis coefficient tables.
"""

import math
from functools import lru_cache

import numpy as np
from scipy.special import eval_hermite

from .lattice import check_dim, half_width, labels, center_mod, _traces

__all__ = [
    "theta",
    "phase_phi",
    "kernel_value",
    "kernel_table",
    "smoothing_1d",
    "fock_coefficients",
    "gamma_table",
]

# relative truncation floor for the theta series; ~60 terms suffice at N <= 15
TRUNCATION = 1e-16


def theta(kind, z, a, tol=TRUNCATION):
    """Jacobi theta function of the given kind at nome q = exp(-pi*a).

    theta3(z) = 1 + 2 sum_{n>=1} q^(n^2) cos(2nz)
    theta4(z) = 1 + 2 sum_{n>=1} (-1)^n q^(n^2) cos(2nz)
    theta2(z) = 2 sum_{n>=0} q^((n+1/2)^2) cos((2n+1)z)

    The series is truncated once the term amplitude drops below `tol`.
    `z` may be an array, evaluated elementwise; a scalar gives a float.
    """
    if a <= 0:
        raise ValueError(f"lattice parameter a must be positive, got {a}")
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if kind not in (2, 3, 4):
        raise ValueError(f"theta kind must be 2, 3 or 4, got {kind}")
    q = math.exp(-math.pi * a)
    z = np.asarray(z, dtype=float)
    # theta2 sums over the half-integers k = n + 1/2, theta3/theta4 over k = n >= 1
    freqs, amps = [], []
    n = 0 if kind == 2 else 1
    while True:
        k = n + 0.5 if kind == 2 else n
        amp = 2.0 * q ** (k * k)
        freqs.append(2 * k)
        amps.append(-amp if kind == 4 and n % 2 == 1 else amp)
        if amp < tol:
            break
        n += 1
    terms = np.array(amps) * np.cos(np.multiply.outer(z, freqs))
    # added left to right, term by term: the corners of K cancel these values
    # down to 1e-20 at N = 61, so another order of addition would move them
    head = np.full(z.shape + (1,), 0.0 if kind == 2 else 1.0)
    total = np.add.accumulate(np.concatenate([head, terms], axis=-1), axis=-1)[..., -1]
    return total if total.ndim else float(total)


def phase_phi(eta, xi, N):
    """Integer phase exponent restoring mod(N) invariance under label shifts.

    The integer parts are the wrap counts of the centered reduction, so
    (-1)**phase_phi(eta, xi, N) is exactly the phase relating the raw
    displacement operator at (eta, xi) to the one at the reduced labels;
    it vanishes for in-range labels.
    """
    N = check_dim(N)
    i_eta = (eta - center_mod(eta, N)) // N
    i_xi = (xi - center_mod(xi, N)) // N
    return N * i_eta * i_xi - eta * i_xi - xi * i_eta


def _kernel_norm(N):
    a = 1.0 / (2 * N)
    return 2.0 * (
        theta(3, 0.0, a) * theta(3, 0.0, 4 * a)
        + theta(4, 0.0, a) * theta(2, 0.0, 4 * a)
    )


def kernel_value(eta, xi, N):
    """Kernel K(eta, xi) evaluated at raw (possibly out-of-range) integers.

    With a = 1/(2N), t3 = theta3(pi*a*label), t4 = theta4(pi*a*label) and
    p = (-1)**label for each label, and exp(i*pi*(eta + xi + N)) = -p_eta p_xi
    for odd N, the four-term theta sum is the real rank-4 form

        K = (t3e t3x + p_eta t3e t4x + p_xi t4e t3x - p_eta p_xi t4e t4x) / norm.

    `eta` and `xi` may be broadcastable integer arrays; scalars give a float.
    """
    N = check_dim(N)
    eta, xi = np.asarray(eta), np.asarray(xi)
    for x in (eta, xi):
        if not np.all(np.isfinite(x) & (x == np.round(x))):
            raise ValueError("kernel labels must be integers")
    a = 1.0 / (2 * N)
    t3e = theta(3, math.pi * a * eta, a)
    t4e = theta(4, math.pi * a * eta, a)
    t3x = theta(3, math.pi * a * xi, a)
    t4x = theta(4, math.pi * a * xi, a)
    pe = np.where(np.mod(eta, 2) == 0, 1.0, -1.0)
    px = np.where(np.mod(xi, 2) == 0, 1.0, -1.0)
    num = t3e * t3x + pe * t3e * t4x + px * t4e * t3x - pe * px * t4e * t4x
    val = num / _kernel_norm(N)
    return val if val.ndim else float(val)


@lru_cache(maxsize=None)
def kernel_table(N):
    """Cached table K[eta + ell, xi + ell] over the centered label square."""
    N = check_dim(N)
    ell = half_width(N)
    ks = labels(N)
    K = kernel_value(ks[:, None], ks, N)
    if not np.all(K > 0) or abs(K[ell, ell] - 1.0) > 1e-12:
        raise ArithmeticError(f"kernel table failed positivity/normalization at N={N}")
    K.setflags(write=False)
    return K


def smoothing_1d(chi, N):
    """1-D smoothing weight driving the marginal-distribution hierarchy.

    `chi` may be an array of offsets; a scalar gives a float.
    """
    N = check_dim(N)
    a = 1.0 / (2 * N)
    num = theta(3, 0.0, a) * theta(3, 2 * math.pi * a * chi, a) + theta(
        4, 0.0, a
    ) * theta(4, 2 * math.pi * a * chi, a)
    return num / (math.sqrt(2 * N) * 0.5 * _kernel_norm(N))


@lru_cache(maxsize=None)
def fock_coefficients(N):
    """Coefficients F[kappa + ell, n] of the finite number states.

    Each column n holds the coordinate-basis amplitudes of the n-th
    number state, built from a Gaussian-weighted Hermite sum over the
    integer winding index and normalized to unit column norm.  Columns
    are exactly N-periodic in kappa.
    """
    N = check_dim(N)
    kappas = labels(N)
    # exp(-pi*beta^2/N) < 1e-16 beyond this winding range
    bmax = int(math.ceil(math.sqrt(16 * math.log(10) * N / math.pi))) + 1
    betas = np.arange(-bmax, bmax + 1)
    gauss = np.exp(-math.pi * betas**2 / N)
    phases = np.exp(2j * math.pi * np.outer(betas, kappas) / N)

    n = np.arange(N)
    herm = eval_hermite(n[:, None], math.sqrt(2 * math.pi / N) * betas)
    # cols[n] is column n; (-1j) ** (n % 4) keeps the phases exact at large n
    cols = ((-1j) ** (n % 4) / math.sqrt(N))[:, None] * ((gauss * herm) @ phases)
    F = (cols / np.linalg.norm(cols, axis=1, keepdims=True)).T
    F.setflags(write=False)
    return F


@lru_cache(maxsize=8)
def gamma_table(N):
    """Number-basis kernel table G[m, n, eta + ell, xi + ell].

    G[m, n] is the (eta, xi)-resolved overlap of number states m and n,
    satisfying G[m, n](0, 0) = delta_mn and G[0, 0] = K.  The eight most
    recent N stay cached.
    """
    N = check_dim(N)
    F = fock_coefficients(N)
    G = np.empty((N, N, N, N), dtype=complex)
    # G[m, n] = sqrt(N) Tr[S(eta, xi) |F_n><F_m|]; one gather per row m keeps temporaries at N^3
    for m in range(N):
        G[m] = np.sqrt(N) * _traces(np.einsum("in,j->nij", F, F[:, m].conj()))
    G.setflags(write=False)
    return G

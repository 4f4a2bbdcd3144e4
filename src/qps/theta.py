"""Jacobi theta series and the objects built from them.

The bell-shaped kernel K(eta, xi) is a rank-4 form in theta3 and theta4
at nome exp(-pi/(2N)), whose series cancels near the minimum of K.  The
Jacobi imaginary transformation (DLMF 20.7) turns each value into a sum
of positive Gaussians g(x) = exp(-pi x^2/(2N)): theta3(pi x/(2N)) =
sqrt(2N) sum over even k of g(x - kN), and theta4 the same over odd k.
The table of log K is built from those sums on the quadrant of
nonnegative labels, and only its distinct values and their mirrored
index are cached (`_kernel_orbits`): K, the raw-label kernel and every
power K^(-s) read them, and the 1-D smoothing weights the same sums.
Also here: the integer phase correction for label wraparound and the
finite number-basis tables.
"""

import math

import numpy as np

from .lattice import check_dim, half_width, labels, center_mod, _index, _integers, _invalid, _root, _traces, _frozen, _table_cache

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
# Gaussian images k of the transformed sums; from N = 3 on the first omitted
# one is below exp(-20 pi) of the kept ones
IMAGES = np.arange(-3, 4)
EVEN = IMAGES % 2 == 0


def theta(kind, z, a, tol=TRUNCATION):
    """Jacobi theta function of the given kind at nome q = exp(-pi*a).

    theta3(z) = 1 + 2 sum_{n>=1} q^(n^2) cos(2nz)
    theta4(z) = 1 + 2 sum_{n>=1} (-1)^n q^(n^2) cos(2nz)
    theta2(z) = 2 sum_{n>=0} q^((n+1/2)^2) cos((2n+1)z)

    The series is truncated once the term amplitude drops below `tol`.
    `z` may be an array, evaluated elementwise; a scalar gives a float.
    """
    if a <= 0:
        raise _invalid("lattice parameter a must be positive", a)
    if tol <= 0:
        raise _invalid("tolerance must be positive", tol)
    if kind not in (2, 3, 4):
        raise _invalid("kind must be 2, 3 or 4", kind)
    # k = n + 1/2 (theta2) or n >= 1, up to the first k whose amplitude 2 q^(k^2) is below tol
    k = np.arange(0.5 if kind == 2 else 1.0, math.sqrt(max(0.0, math.log(2 / tol)) / (math.pi * a)) + 1.5)
    amps = 2.0 * math.exp(-math.pi * a) ** (k * k) * (1 - 2 * (k % 2) if kind == 4 else 1)
    total = (0.0 if kind == 2 else 1.0) + np.cos(np.multiply.outer(np.asarray(z, dtype=float), 2 * k)) @ amps
    return total if total.ndim else float(total)


def phase_phi(eta, xi, N):
    """Integer phase exponent restoring mod(N) invariance under label shifts.

    The integer parts are the wrap counts of the centered reduction, so
    (-1)**phase_phi(eta, xi, N) is exactly the phase relating the raw
    displacement operator at (eta, xi) to the one at the reduced labels;
    it vanishes for in-range labels.
    """
    N, eta, xi = check_dim(N), _integers(eta), _integers(xi)
    i_eta = (eta - center_mod(eta, N)) // N
    i_xi = (xi - center_mod(xi, N)) // N
    return N * i_eta * i_xi - eta * i_xi - xi * i_eta


def _image_sums(x, N):
    """r0(x), r1(x): the even-k and odd-k sums of g(x - kN) / g(x), each term positive."""
    terms = np.exp(-np.pi * IMAGES * (IMAGES * N - 2 * np.asarray(x, dtype=float)[..., None]) / 2)
    return terms[..., EVEN].sum(-1), terms[..., ~EVEN].sum(-1)


def _mirror(quadrant):
    """The N x N table [eta + ell, xi + ell] of a table even in each label, from its
    (ell + 1) x (ell + 1) quadrant [eta, xi] at eta, xi >= 0."""
    rows = np.abs(labels(2 * len(quadrant) - 1))
    return quadrant[np.ix_(rows, rows)]


def _log_quadrant(N):
    """log K[eta, xi] = -pi (eta^2 + xi^2) / (2N) + log(B / B(0, 0)) at eta, xi = 0..ell.

    B = r0e r0x + p_eta r0e r1x + p_xi r1e r0x - p_eta p_xi r1e r1x, with
    p = (-1)**label, stays O(1) and positive, so no entry cancels.  K is even in
    each label, so this quadrant holds every value.  Uncached: only `_kernel_orbits`
    and `_log_kernel` read it.
    """
    ks = np.arange(half_width(N) + 1)
    r0, r1 = _image_sums(ks, N)
    p = 1 - 2 * (ks % 2)
    B = np.stack([r0, p * r0, r1, -p * r1], axis=-1) @ np.stack([r0, r1, p * r0, p * r1])
    if not np.all(np.isfinite(B) & (B > 0)):
        raise ArithmeticError(f"kernel Gaussian sum is not finite and positive at N={N}")
    return np.log(B / B[0, 0]) - np.pi * (ks[:, None] ** 2 + ks**2) / (2 * N)


def _log_kernel(N):
    """The whole table log K[eta + ell, xi + ell], mirrored from `_log_quadrant`, so
    even in each label by construction; no route of the package reads it."""
    return _mirror(_log_quadrant(check_dim(N)))


@_table_cache
def _kernel_orbits(N):
    """Cached read-only (values, index): the distinct values of `_log_kernel(N)` in
    ascending order, so values[0] is its minimum, and the int32 N x N index with
    values[index] == `_log_kernel(N)` bit for bit.  A function of log K is then one
    evaluation per distinct value and one gather: 467 values of 3,721 at N = 61,
    81,080 of 1,002,001 at N = 1001.  Only the quadrant is sorted, and its index
    mirrored."""
    N = check_dim(N)
    values, index = np.unique(_log_quadrant(N), return_inverse=True)
    # numpy's inverse is flat in some releases and shaped like the input in others
    return values, _mirror(index.reshape(-1, half_width(N) + 1).astype(np.int32))


@_table_cache
def kernel_table(N):
    """Cached read-only K[eta + ell, xi + ell] = exp(log K), one exp per distinct value (`_kernel_orbits`);
    corners below the smallest double (from N ~ 950 on) are 0, and the log values keep them."""
    values, index = _kernel_orbits(check_dim(N))
    return np.take(np.exp(values), index)


def kernel_value(eta, xi, N):
    """Kernel K(eta, xi) at raw integer labels: the quasi-periodic sign (-1)**phase_phi(eta, xi, N)
    times the table entry at the reduced labels.  `eta` and `xi` may be
    broadcastable integer arrays; scalars give a float."""
    N = check_dim(N)
    sign = 1 - 2 * (phase_phi(eta, xi, N) % 2)
    val = sign * kernel_table(N)[_index(eta, N), _index(xi, N)]
    return val if val.ndim else float(val)


def smoothing_1d(chi, N):
    """1-D smoothing weight of the marginal hierarchy, N-periodic in `chi` (an array or a scalar).

    At the reduced offset it is the positive sum 2 sum_k c_k g(2 chi - kN) / (sqrt(2N) B(0, 0)),
    with c_k = r0(0) for even k and r1(0) for odd k."""
    N = check_dim(N)
    r0, r1 = _image_sums(0.0, N)
    ell = half_width(N)
    x = 2 * ((np.asarray(chi, dtype=float)[..., None] + ell) % N - ell) - IMAGES * N
    num = (np.where(EVEN, r0, r1) * np.exp(-np.pi * x**2 / (2 * N))).sum(-1)
    w = 2 * num / (math.sqrt(2 * N) * (r0 * r0 + 2 * r0 * r1 - r1 * r1))
    return w if w.ndim else float(w)


@_table_cache
def fock_coefficients(N):
    """Coefficients F[kappa + ell, n] of the finite number states.

    Each column n holds the coordinate-basis amplitudes of the n-th
    number state, built from a sum of the Hermite function psi_n over the
    integer winding index and normalized to unit column norm.  Columns
    are exactly N-periodic in kappa.  The sum runs a Gaussian tail below
    1e-16 past the last turning point sqrt(2N - 1).  The periodized Hermite
    functions themselves (Mehta, J. Math. Phys. 28, 781 (1987)) are not
    quite orthogonal past about n = N/4: over n < N // 2 they reach 7.1e-7
    at N = 31, 4.0e-10 at N = 61 and 2.6e-15 at N = 251.
    """
    N = check_dim(N)
    kappas = labels(N)
    # |x| <= sqrt(2N - 1) + sqrt(32 ln 10) for the Hermite argument x = sqrt(2 pi / N) beta
    bmax = int(math.ceil((math.sqrt(2 * N - 1) + math.sqrt(32 * math.log(10))) * math.sqrt(N / (2 * math.pi)))) + 1
    betas = np.arange(-bmax, bmax + 1)
    phases = _root(2 * np.outer(betas, kappas), N)

    # psi_n(x) = H_n(x) exp(-x^2/2) up to a constant per n, which the column
    # norm removes; the normalised recurrence keeps every row in range
    x = math.sqrt(2 * math.pi / N) * betas
    psi = np.empty((N, len(betas)))
    psi[0] = np.exp(-x * x / 2)
    if N > 1:
        psi[1] = math.sqrt(2) * x * psi[0]
    for n in range(1, N - 1):
        psi[n + 1] = math.sqrt(2 / (n + 1)) * x * psi[n] - math.sqrt(n / (n + 1)) * psi[n - 1]
    n = np.arange(N)
    # cols[n] is column n; (-1j) ** (n % 4) keeps the phases exact at large n
    cols = ((-1j) ** (n % 4) / math.sqrt(N))[:, None] * (psi @ phases)
    return (cols / np.linalg.norm(cols, axis=1, keepdims=True)).T


def gamma_table(N):
    """Number-basis kernel table G[m, n, eta + ell, xi + ell], read-only.

    G[m, n] is the (eta, xi)-resolved overlap of number states m and n,
    satisfying G[m, n](0, 0) = delta_mn and G[0, 0] = K.  No library route
    reads it, so each call builds the N^4 table afresh and none is cached.
    """
    N = check_dim(N)
    F = fock_coefficients(N)
    G = np.empty((N, N, N, N), dtype=complex)
    # G[m, n] = sqrt(N) Tr[S(eta, xi) |F_n><F_m|]; one gather per row m keeps temporaries at N^3
    for m in range(N):
        G[m] = np.sqrt(N) * _traces(np.einsum("in,j->nij", F, F[:, m].conj()))
    return _frozen(G)

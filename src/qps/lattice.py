"""Centered modular index arithmetic and dense linear-algebra helpers.

Operators on an N-dimensional space (N odd) are indexed by centered labels
kappa in [-ell, ell] with ell = (N-1)/2, stored at row/column kappa + ell.
Every module in the package shares this convention.
The Fourier helpers at the end hold the package's one 2-D DFT convention,
and `_traces` is the one gather of Tr[S(eta, xi) O] over every label pair
(S(eta, xi) the symmetrized displacement of `schwinger`).
"""

import math
from functools import lru_cache, reduce

import numpy as np

__all__ = [
    "check_dim",
    "half_width",
    "labels",
    "center_mod",
    "dagger",
    "tensor",
    "partial_trace",
    "dft_matrix",
]

# the one bound on every table cache in the package (keyed by N, or by
# (s, N)): a sweep over N keeps only the most recent tables, each read-only
_table_cache = lru_cache(maxsize=8)


def check_dim(N):
    """Validate a Hilbert-space dimension: positive and odd."""
    N = int(N)
    if N < 1 or N % 2 == 0:
        raise ValueError(f"dimension must be an odd positive integer, got {N}")
    return N


def half_width(N):
    """Half-width ell = (N-1)/2 of the centered label interval."""
    return (check_dim(N) - 1) // 2


def labels(N):
    """Centered labels -ell..ell as an integer array."""
    ell = half_width(N)
    return np.arange(-ell, ell + 1)


def center_mod(x, N):
    """Reduce integer(s) x into the centered interval [-ell, ell] mod N."""
    N = check_dim(N)
    ell = (N - 1) // 2
    if isinstance(x, int):
        return (x + ell) % N - ell
    r = (np.asarray(x) + ell) % N - ell
    if np.ndim(x) == 0:
        return int(r)
    return r


def dagger(A):
    """Conjugate transpose."""
    return np.asarray(A).conj().T


def tensor(*ops):
    """Kronecker product of one or more matrices, left to right."""
    if not ops:
        raise ValueError("tensor() needs at least one operand")
    return reduce(np.kron, [np.asarray(op) for op in ops])


def partial_trace(A, dims, keep):
    """Trace out all subsystems not listed in `keep`.

    Parameters
    ----------
    A : (D, D) array
        Operator on the composite space, D = prod(dims).
    dims : sequence of int
        Subsystem dimensions, in tensor order.
    keep : iterable of int
        Indices (into `dims`) of the subsystems to retain.

    Returns
    -------
    (d, d) array with d = prod(dims[k] for k in keep).
    """
    A = np.asarray(A)
    dims = [int(d) for d in dims]
    total = int(np.prod(dims))
    if A.shape != (total, total):
        raise ValueError(
            f"dims {dims} do not factor a {A.shape} matrix"
        )
    keep = sorted(set(int(k) for k in keep))
    if not keep or keep[0] < 0 or keep[-1] >= len(dims):
        raise ValueError(f"keep={keep} is not a nonempty subset of subsystems")

    t = A.reshape(dims + dims)
    cur = list(dims)
    for i in sorted(set(range(len(dims))) - set(keep), reverse=True):
        t = np.trace(t, axis1=i, axis2=i + len(cur))
        cur.pop(i)
    d = int(np.prod(cur))
    return t.reshape(d, d)


def dft_matrix(N):
    """Discrete Fourier matrix F[mu, nu] = exp(2*pi*i*mu*nu/N)/sqrt(N) over centered labels."""
    return _conj_phases(check_dim(N)) / np.sqrt(N)


@_table_cache
def _dft_phases(N):
    """Read-only phases ph[eta + ell, mu + ell] = exp(-2*pi*i*eta*mu/N); symmetric."""
    k = labels(N)
    ph = np.exp(-2j * np.pi * np.outer(k, k) / N)
    ph.setflags(write=False)
    return ph


@_table_cache
def _conj_phases(N):
    """Read-only conj(`_dft_phases(N)`), the inverse DFT's phases exp(+2*pi*i*eta*mu/N)."""
    ph = _dft_phases(N).conj()
    ph.setflags(write=False)
    return ph


def _dft2(X):
    """Dual plane to phase space: sum_{eta,xi} ph[eta, mu] ph[xi, nu] X[..., eta, xi] / sqrt(N).

    Leading axes of X are a batch.
    """
    N = X.shape[-1]
    return _dft_phases(N) @ X @ _dft_phases(N) / math.sqrt(N)


def _idft2(F):
    """Phase space to dual plane, the inverse of `_dft2`: leading axes of F are a batch."""
    N = F.shape[-1]
    return _conj_phases(N) @ F @ _conj_phases(N) / N**1.5


def _dual_multiply(M, grid):
    """The grid's dual-plane image times M, back in phase space; M = K is a smoothing step."""
    return _dft2(M * _idft2(grid))


@_table_cache
def _diagonals(N):
    """Indices [xi + ell, kappa + ell] of O[kappa, kappa - xi], and the phases
    front[eta + ell, xi + ell] = exp(-i*pi*eta*xi/N) / sqrt(N).

    Column kappa of S(eta, xi) holds its one entry in row kappa - xi, so
    Tr[S(eta, xi) O] = front * sum_kappa exp(2*pi*i*eta*kappa/N) O[kappa, kappa - xi].
    """
    ks, rows = labels(N), np.arange(N)
    cols = (rows - ks[:, None]) % N
    front = np.exp(-1j * np.pi * np.outer(ks, ks) / N) / np.sqrt(N)
    for a in (rows, cols, front):
        a.setflags(write=False)
    return rows, cols, front


def _traces(O):
    """X[eta + ell, xi + ell] = Tr[S(eta, xi) O] for every label pair.

    Leading axes of O are a batch.
    """
    N = O.shape[-1]
    rows, cols, front = _diagonals(N)
    return (_conj_phases(N) @ O[..., rows, cols].swapaxes(-1, -2)) * front

